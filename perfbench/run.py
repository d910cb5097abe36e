"""Benchmark of ``costmon check`` on three seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload chain-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py   # short runs of every workload, twice

Set-up imports the package from ``src/`` and writes the workload's seeded
scenario files.  Each op then runs ``costmon check --scenario FILE
--format json`` in-process, one after another (a closed loop with one
client), and its verdict is checked against an independent oracle
(``oracle.py``).  Ops cycle through the workload's scenarios for
``--seconds`` seconds, and at least once through all of them.  The
workloads hold no input on which the package is known to fail, so any
failed op makes the run incorrect; the known defects are reproduced by
``defects.py`` instead.

With ``--trace 0`` the run reports the end-to-end metrics.  Check times
are printed in seconds (``check_s.p50``, ``check_s.tail``,
``checks_per_s``) and, for the result line, also in units of a fixed
reference loop sampled between ops, each op's time divided by the
reference time around it (``check_ref.p50``, ``checks_per_ref``): on a
shared host the raw times drift with other tenants' load, by up to 1.7x
within a minute, far more than their ratio to the reference does.  With
``--trace 1`` every op runs twice in a row, untraced and traced; the
traced one records spans around each layer's public functions
(``spans.py``), which give the per-layer metrics and the tracing
overhead.

The report, a stamp (nproc, Python version, seed, ``src/costmon`` line
count) and the counters are printed and written to
``perfbench-results/``, the spans of a traced run too.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Workloads (why each was chosen):

- chain-deep: long chains with one dependency path; loads the simulator,
  the monitors, the centralized progression oracle and the
  tableau/grouping stages, and leaves unwinding almost idle.
- dag-wide: a wide fan-in followed by stacked diamonds; path enumeration
  in unwinding dominates, simulation and the oracle are cheap.
- corpus-mixed: many small varied systems plus the sorting-line fault
  cases; fixed per-check cost dominates, and monitors exchange messages.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

sys.dont_write_bytecode = True  # leave no byte code behind in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "costmon")
RESULTS = os.path.join(ROOT, "perfbench-results")
SETUP_REPS = 15  # one before the timed window, the rest spread over it
REF_SAMPLES = 3  # reference-loop runs per sample point
REF_EVERY_S = 1.0  # least time between sample points
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

sys.path.insert(0, HERE)
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# the result line's metrics; end_to_end also computes the raw-second
# forms, which only the report prints
E2E_UNITS = {"setup_s": "s", "check_ref.p50": "ref", "checks_per_ref": "1/ref",
             "detection_lead_rounds.p50": "rounds", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.overhead_s": "s",
    "formulas.parse_s": "s", "formulas.oracle_s": "s",
    "formulas.residual_nodes_max": "count",
    "depgraph.load_s": "s", "depgraph.paths": "count",
    "unwinding.unwind_s": "s", "unwinding.constraints": "count",
    "tableau.build_s": "s", "tableau.nodes": "count",
    "grouping.group_s": "s", "grouping.groups": "count",
    "grouping.largest_group": "count",
    "runtime.synth_s": "s", "runtime.round_us.p50": "us",
    "runtime.round_us.tail": "us", "runtime.messages_per_round": "1/round",
    "simulator.sim_s": "s", "simulator.model_s": "s",
    "simulator.rounds": "count",
    "trace.overhead_share": "ratio",
}
LAYER_UNITS.update({"%s.failed" % layer: "count" for layer in spans.LAYERS})

# failure kinds
CRASH, WRONG, LATE, MISSED = ("crash", "wrong_verdict", "late_detection",
                              "missed_detection")


class Setup:
    """The imported package and the workload's generated ops.

    Set-up runs ``SETUP_REPS`` times: once before the timed window, whose
    modules and ops the run uses, and again between ops spread over the
    window (``again``).  The host's speed drifts over seconds, so spread
    repetitions give a steadier median than back-to-back ones."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.args = (workload, seed, work_dir)
        self.seconds = []
        self.modules, self.ops = self.again()

    def again(self):
        start = time.perf_counter()
        modules = _import_package()
        ops = workloads.generate(*self.args)
        self.seconds.append(time.perf_counter() - start)
        return modules, ops


def _import_package() -> dict:
    """Fresh import of the package from the checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "costmon" or m.startswith("costmon.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("costmon")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != PACKAGE:
        raise SystemExit("costmon imported from %s, not from %s"
                         % (pkg.__file__, PACKAGE))
    return {name: importlib.import_module("costmon." + name)
            for name in ("cli", "simulator", "formulas", "runtime")}


def _raising_layer(tb) -> str:
    """Module of the innermost package frame in a traceback."""
    layer = "cli"
    while tb is not None:
        path = os.path.abspath(tb.tb_frame.f_code.co_filename)
        if os.path.dirname(path) == PACKAGE:
            layer = os.path.splitext(os.path.basename(path))[0]
        tb = tb.tb_next
    return layer


def run_op(cli, op: dict, tracer=None) -> dict:
    """One ``costmon check`` in-process.  Exceptions are caught here, so
    one crash never ends the run; the raising layer is recorded."""
    argv = ["check", "--scenario", op["file"], "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    rec = {"id": op["id"], "code": None, "error": None, "layer": None}
    root = tracer.begin_op(op["id"]) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rec["code"] = cli.main(argv)
    except SystemExit as exc:
        rec["code"] = exc.code
    except Exception as exc:  # a crash is data: record it and go on
        rec["error"] = type(exc).__name__
        rec["layer"] = _raising_layer(exc.__traceback__)
    finally:
        rec["seconds"] = time.perf_counter() - start
        rec["spans"] = tracer.end_op(root) if tracer else None
    rec["output"] = out.getvalue()
    return rec


def judge(op: dict, rec: dict) -> None:
    """Check the op against the oracle; set ``kind`` (None if it passed),
    ``layer`` (the one that raised or erred) and ``lead`` on the record."""
    expected = oracle.expected_violation(op)
    rec["expected"] = expected
    rec["kind"] = rec["lead"] = None
    if rec["error"] is not None or rec["code"] not in (0, 5):
        rec["kind"] = CRASH
        rec["layer"] = rec["layer"] or "cli"
        return
    res = json.loads(rec["output"])
    central_ok = ((res["centralized"], res["centralized_position"])
                  == (("False", expected) if expected is not None
                      else ("Unknown", None)))
    if not central_ok:
        rec["kind"], rec["layer"] = WRONG, "formulas"
        return
    det = res["detection_round"] if res["decentralized"] == "False" else None
    if expected is None:
        if det is not None or res["decentralized"] != "Unknown":
            rec["kind"], rec["layer"] = WRONG, "runtime"  # false alarm
    elif det is None:
        rec["kind"], rec["layer"] = MISSED, "runtime"
        # never detected ranks below any detection within the run
        rec["lead"] = expected - int(op["doc"]["rounds"])
    else:
        rec["lead"] = expected - det
        if det > expected:
            rec["kind"], rec["layer"] = LATE, "runtime"
    if rec["kind"] is None and rec["code"] != 0:
        rec["kind"], rec["layer"] = WRONG, "cli"  # exit 5 the oracle denies


def tail(values):
    """Highest percentile of the ladder with at least ten samples beyond
    it, as (percentile, value), or None when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def _count_nodes(formula) -> int:
    count, stack = 0, [formula]
    while stack:
        f = stack.pop()
        count += 1
        for name in ("sub", "left", "right", "target"):
            child = getattr(f, name, None)
            if child is not None:
                stack.append(child)
    return count


def analyse(modules: dict, op: dict, captured: dict) -> dict:
    """Counters and off-span timings of one scenario, from the objects the
    traced layers returned: plan shape, dependency paths, the largest
    progression residual, the process model alone, and a replay of the
    simulated per-process events through fresh monitors, one
    ``monitor_round`` call per round."""
    sim, formulas, runtime = (modules["simulator"], modules["formulas"],
                              modules["runtime"])
    scenario = captured["depgraph.load"]
    result = captured["simulator.run"]
    groups = captured["grouping.organize"]
    monitors = captured["runtime.synth"]
    formula = scenario.formula
    c = {
        "constraints": len(captured["unwinding.unwind"].entries),
        "paths": len(scenario.graph.dependency_paths(op["right"])),
        "groups": len(groups),
        "largest_group": max((len(g.members) for g in groups), default=0),
        "monitors": len(monitors),
        "watchers": sum(len(m.watchers) for m in monitors),
        "messages": result.report.message_total,
        "rounds": len(result.global_trace),
    }
    nodes, stack = 0, [captured["tableau.build"]]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children)
    c["tableau_nodes"] = nodes
    residual = formulas.nnf(formula)
    largest = _count_nodes(residual)
    for event in sim.latched(result.global_trace):
        if residual in (formulas.TRUE, formulas.FALSE):
            break
        residual = formulas.progress(residual, event)
        largest = max(largest, _count_nodes(residual))
    c["residual_nodes_max"] = largest
    start = time.perf_counter()
    sim.run_simulation(scenario, c["rounds"], [], root=formula)
    c["model_s"] = time.perf_counter() - start
    fresh = runtime.synthesize_monitors(
        list(groups), captured["grouping.assign"],
        captured["runtime.index"], scenario.graph)
    rooted = isinstance(formula, formulas.Eventually)
    traces = result.per_process_traces
    round_us = []
    for rnd in range(c["rounds"]):
        events = {pid: t[rnd] for pid, t in traces.items()}
        start = time.perf_counter()
        runtime.monitor_round(fresh, events, rnd, eventually_rooted=rooted)
        round_us.append((time.perf_counter() - start) * 1e6)
    c["round_us"] = round_us
    return c


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kind
    ``check`` does: building tuples and frozensets, a dict keyed by them,
    and hashing them in a shuffled order, over a few megabytes.  Sampled
    around the ops, it measures how fast the host runs the interpreter at
    that time, so check times can also be given in units of it
    (``check_ref.p50``, ``checks_per_ref``)."""
    gc.collect()  # the loop makes no cycles; keep collection out of it
    gc.disable()
    start = time.perf_counter()
    nodes = [(i, ("x", i % 97), frozenset((i, i + 1))) for i in range(15000)]
    table = {}
    for node in nodes:
        table[node] = table.get(node[1], 0) + 1
    order = list(range(len(nodes)))
    random.Random(1).shuffle(order)
    acc = 0
    for i in order:
        acc ^= hash(nodes[i])
    del nodes, table, order
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


def measure(setup: Setup, seconds: float, traced: bool) -> dict:
    """Cycle through the workload's scenarios for ``seconds`` seconds and
    at least once through all of them.  In a traced run every op runs
    twice in a row, untraced and traced, so the tracing overhead is
    measured on the same inputs under the same conditions; the
    per-scenario analysis waits until the loop ends.

    An untraced run samples the reference loop between ops, at least
    ``REF_EVERY_S`` apart, and once more after the last op; each op's
    ``ref`` is the mean of the two sample points around it.  A traced run
    skips it: its metrics do not use it, and the loop's full collection
    would walk every span and captured result kept so far."""
    cli = setup.modules["cli"]
    cycle = setup.ops
    tracer = spans.Tracer(setup.modules) if traced else None
    records, firsts = [], {}

    def attempt(op, tr):
        rec = run_op(cli, op, tr)
        judge(op, rec)
        rec["traced"] = tr is not None
        firsts.setdefault(op["id"], rec)
        return rec

    captured = {}
    ref_at, ref = [], []

    def sample_ref():
        ref_at.append(time.perf_counter())
        ref.append(statistics.median(reference_loop()
                                     for _ in range(REF_SAMPLES)))

    start = time.perf_counter()
    setup_due = [start + seconds * k / SETUP_REPS
                 for k in range(SETUP_REPS - 1, 0, -1)]
    i = 0
    while time.perf_counter() - start < seconds or i < len(cycle):
        if setup_due and time.perf_counter() >= setup_due[-1]:
            setup_due.pop()
            setup.again()
        if tracer is None and (not ref_at or time.perf_counter() - ref_at[-1]
                               >= REF_EVERY_S):
            sample_ref()
        op = cycle[i % len(cycle)]
        # alternate which of the pair runs first, so neither side always
        # inherits the heap the other left behind
        pair = (None,) if tracer is None else (
            (None, tracer) if i % 2 == 0 else (tracer, None))
        for tr in pair:
            rec = attempt(op, tr)
            rec["ref_point"] = len(ref) - 1
            records.append(rec)
            if tr is not None and rec["kind"] != CRASH:
                captured.setdefault(op["id"], (op, dict(tr.results)))
        i += 1
    while setup_due:  # a window shorter than the first op
        setup_due.pop()
        setup.again()
    if tracer is None:
        sample_ref()
        for rec in records:
            k = rec["ref_point"]
            rec["ref"] = (ref[k] + ref[k + 1]) / 2.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counters = {op_id: analyse(setup.modules, op, results)
                for op_id, (op, results) in captured.items()}
    return {"records": records, "firsts": firsts,
            "counters": counters, "peak_rss_mb": peak,
            "ref": ref, "tracer": tracer}


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(setup: Setup, m: dict) -> dict:
    timed = [r for r in m["records"] if not r["traced"]]
    ok = [r for r in timed if r["kind"] != CRASH]
    leads = [r["lead"] for r in m["firsts"].values() if r["lead"] is not None]
    passed = sum(1 for r in timed if r["kind"] is None)
    return {
        "setup_s": statistics.median(setup.seconds),
        "check_s.p50": _median([r["seconds"] for r in ok]),
        "checks_per_s": passed / sum(r["seconds"] for r in timed),
        "check_ref.p50": _median([r["seconds"] / r["ref"] for r in ok]),
        "checks_per_ref": passed / sum(r["seconds"] / r["ref"]
                                       for r in timed),
        "detection_lead_rounds.p50": _median(leads),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer(setup: Setup, m: dict) -> dict:
    traced = [r for r in m["records"] if r["traced"] and r["kind"] != CRASH]
    stage = [spans.op_times(r["spans"]) for r in traced]

    def med(*names):
        return _median([sum(t.get(n, 0.0) for n in names) for t in stage])

    counters = list(m["counters"].values())

    def cmed(key):
        return _median([c[key] for c in counters])

    rounds_us = [u for c in counters for u in c["round_us"]]
    round_tail = tail(rounds_us)
    untraced = _median([r["seconds"] for r in m["records"]
                        if not r["traced"] and r["kind"] != CRASH])
    out = {
        "cli.overhead_s": med("cli.overhead"),
        "formulas.parse_s": med("formulas.parse"),
        "formulas.oracle_s": med("formulas.oracle"),
        "formulas.residual_nodes_max": max(c["residual_nodes_max"]
                                           for c in counters),
        "depgraph.load_s": med("depgraph.load"),
        "depgraph.paths": cmed("paths"),
        "unwinding.unwind_s": med("unwinding.unwind"),
        "unwinding.constraints": cmed("constraints"),
        "tableau.build_s": med("tableau.negate", "tableau.build"),
        "tableau.nodes": cmed("tableau_nodes"),
        "grouping.group_s": med("grouping.organize", "grouping.assign"),
        "grouping.groups": cmed("groups"),
        "grouping.largest_group": max(c["largest_group"] for c in counters),
        "runtime.synth_s": med("runtime.synth"),
        "runtime.round_us.p50": _median(rounds_us),
        "runtime.round_us.tail": round_tail[1] if round_tail else None,
        "runtime.messages_per_round": (sum(c["messages"] for c in counters)
                                       / sum(c["rounds"] for c in counters)),
        "simulator.sim_s": med("simulator.run"),
        "simulator.model_s": cmed("model_s"),
        "simulator.rounds": cmed("rounds"),
        "trace.overhead_share": (med("cli.check") / untraced - 1.0
                                 if untraced else None),
    }
    for layer in spans.LAYERS:
        out["%s.failed" % layer] = sum(
            1 for r in m["firsts"].values()
            if r["kind"] is not None and r["layer"] == layer)
    return out


def stamp(workload: str, seed: int) -> dict:
    lines = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "src_costmon_lines": lines}


def _fmt(value) -> str:
    return "n/a" if value is None else "%.6g" % value


def failures(firsts) -> list:
    """One line per failed scenario (five per kind at most), from the
    records of each scenario's first run."""
    shown_per_kind = 5
    lines, shown = [], {}
    for r in firsts:
        if r["kind"] is None:
            continue
        shown[r["kind"]] = shown.get(r["kind"], 0) + 1
        if shown[r["kind"]] <= shown_per_kind:
            lines.append("  %s %s in %s%s" % (
                r["id"], r["kind"], r["layer"],
                " (%s)" % r["error"] if r["error"] else ""))
    for kind, n in sorted(shown.items()):
        if n > shown_per_kind:
            lines.append("  ... %d more distinct %s scenarios"
                         % (n - shown_per_kind, kind))
    return lines


def report(args, st: dict, setup: Setup, m: dict, metrics: dict) -> list:
    """Human-readable lines: stamp, op counts, failures, metrics."""
    recs = m["records"]
    failed = [r for r in recs if r["kind"] is not None]
    lines = ["perfbench %s seed %d trace %d" % (args.workload, args.seed,
                                                args.trace),
             "stamp: " + " ".join("%s=%s" % kv for kv in sorted(st.items())),
             "ops: attempted %d, failed %d" % (len(recs), len(failed))]
    kinds = {}
    for r in failed:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    lines.append("failed by kind: " + (", ".join(
        "%s=%d" % kv for kv in sorted(kinds.items())) or "none"))
    lines.extend(failures(m["firsts"].values()))
    if not args.trace:
        times = [r["seconds"] for r in m["records"] if r["kind"] != CRASH]
        t = tail(times)
        lines.append("setup_s: %s s (median of %d: %s)" % (
            _fmt(metrics["setup_s"]), len(setup.seconds),
            " ".join("%.4f" % s for s in setup.seconds)))
        lines.append("check_s.p50: %s s over %d timed ops"
                     % (_fmt(metrics["check_s.p50"]), len(times)))
        lines.append("check_s.tail: " + (
            "p%g %s s (%d ops, at least 10 beyond)" % (t[0], _fmt(t[1]),
                                                      len(times))
            if t else "n/a (%d timed ops; a tail needs at least 20)"
            % len(times)))
        lines.append("checks_per_s: %s 1/s (correct ops per second of "
                     "check time)" % _fmt(metrics["checks_per_s"]))
        lines.append("check_ref.p50: %s ref, checks_per_ref: %s 1/ref "
                     "(each op against the reference loop around it; "
                     "ref = %s s, median of %d sample points)"
                     % (_fmt(metrics["check_ref.p50"]),
                        _fmt(metrics["checks_per_ref"]),
                        _fmt(statistics.median(m["ref"])), len(m["ref"])))
        lines.append("failed_share: %s (%d of %d attempted ops)"
                     % (_fmt(len(failed) / len(recs)), len(failed),
                        len(recs)))
        lines.append("detection_lead_rounds.p50: %s rounds (over the "
                     "violated scenarios, misses ranked lowest)"
                     % _fmt(metrics["detection_lead_rounds.p50"]))
        lines.append("peak_rss_mb: %s MB" % _fmt(metrics["peak_rss_mb"]))
        return lines
    for name in sorted(LAYER_UNITS):
        lines.append("%s: %s %s" % (name, _fmt(metrics[name]),
                                    LAYER_UNITS[name]))
    lines.append("runtime.messages_per_round base: messages over simulated "
                 "rounds, each scenario once")
    traced = [r for r in m["records"] if r["traced"] and r["kind"] != CRASH]
    own, total = {}, 0.0
    for r in traced:
        for layer, sec in spans.self_times(r["spans"]).items():
            own[layer] = own.get(layer, 0.0) + sec
        total += r["seconds"]
    lines.append("self time by layer over %d traced ops (simulator.run "
                 "includes the monitors it steps):" % len(traced))
    for layer, sec in sorted(own.items(), key=lambda kv: -kv[1]):
        lines.append("  %-10s %6.1f%%" % (layer, 100.0 * sec / total))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write("perfbench: no package source at %s\n" % PACKAGE)
        return 2
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(RESULTS, "work-%s-%d" % (tag, os.getpid()))
    try:
        setup = Setup(args.workload, args.seed, work_dir)
        m = measure(setup, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = per_layer(setup, m) if args.trace else end_to_end(setup, m)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    st = stamp(args.workload, args.seed)
    lines = report(args, st, setup, m, metrics)
    recs = m["records"]
    attempted = len(recs)
    failed = sum(1 for r in recs if r["kind"] is not None)
    correct = failed == 0 and all(metrics[k] is not None for k in units)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items() if k in units}}
    with open(os.path.join(RESULTS, tag + ".json"), "w") as fh:
        json.dump({"stamp": st, "report": lines, "result": result,
                   "counters": {k: {n: v for n, v in c.items()
                                    if n != "round_us"}
                                for k, c in m["counters"].items()},
                   "ops": [{k: r[k] for k in ("id", "seconds", "code", "kind",
                                              "layer", "error", "lead",
                                              "traced")}
                           for r in recs]}, fh, indent=1)
    if m["tracer"] is not None:
        m["tracer"].write(os.path.join(RESULTS, tag + "-spans.jsonl"))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
