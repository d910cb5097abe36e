"""Stage timings of ``costmon check`` over chain-N, and progression
costs over trace length and nesting depth, as curves.

For each N in ``SIZES`` the script builds a chain of N processes (costs
1, 2, 3 repeating, one process a third of the way down delayed by two
rounds past its cost, budget at the lower bound) and times each stage of
the check pipeline on its own with ``time.perf_counter``: load (scenario
JSON and graph validation), unwind, negate, tableau, group, assign,
synth (subformula index and monitor synthesis), run (simulated rounds
with monitoring) and oracle (centralized progression over the latched
global trace, restricted to the formula's atoms as ``check`` does).
Every size runs the pipeline ``REPEATS`` times and records each stage's
median (``stages_s``, which ``total_s`` sums), minimum and maximum
(``stages_min_s``, ``stages_max_s``).  A size whose pipeline stops
with an error, such as the tableau passing ``NODE_LIMIT``, is recorded
as a failure at that size, with the time of the stages up to and
including the one that failed.  Next to the stage
sum, ``check_s`` is the median time of ``REPEATS`` whole in-process
``cli.main(["check", "--scenario", FILE])`` calls on the same scenario,
argument parsing and the printed report included, and ``check_exit``
keeps the exit code.

Counters come from a second, untimed run: tableau nodes, monitor
groups, the peak of memory the group, run and oracle stages allocate
(``tracemalloc``, which traces each of those stages alone), monitor steps
(calls of ``LocalMonitor.step``), messages and rounds.  The output, with
the ``src/`` line count, the core count and the Python version, goes to
``BENCH_curves.json`` at the repository root, or to the path given as
the only argument.

The progression family times ``evaluate_trace`` alone (median of
``REPEATS`` runs) and records the verdict and the largest residual
(distinct nodes, over an untimed run of ``progress``).  Over trace length
(``TRACE_LENGTHS``) it runs ``G (a o<=5 b)`` on a trace where each ``a``
is answered two events later, ``G F a`` on one with ``a`` at every tenth
event and ``F G a`` on one where ``a`` always holds, all at cost 1, so
no verdict is reached.  Over nesting depth (``DEPTHS``) it runs
``(G F)^d a`` over one event with ``a``.  An error, such as a
RecursionError, is recorded as a failure at that size.  Standard library
only; run from a checkout with

    python bench/curves.py [OUT.json]
"""

import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from costmon import cli, formulas, grouping, runtime, simulator  # noqa: E402
from costmon.tableau import build_tableau  # noqa: E402
from costmon.unwinding import unwind  # noqa: E402

SIZES = (50, 150, 300, 600, 1000, 2000, 5000, 10000)
STAGES = ("load", "unwind", "negate", "tableau", "group", "assign", "synth",
          "run", "oracle")
PEAK_STAGES = ("group", "run", "oracle")  # counters record their peak
REPEATS = 3  # timed runs per size
TRACE_LENGTHS = (100, 300, 1000, 3000, 10000)
# formula -> the propositions of event k of its trace, on which it stays
# undecided
TRACES = {
    "G (a o<=5 b)": lambda k: ("a",) if k % 4 == 0 else
                              ("b",) if k % 4 == 2 else (),
    "G F a": lambda k: ("a",) if k % 10 == 9 else (),
    "F G a": lambda k: ("a",),
}
DEPTHS = (100, 200, 300, 500, 1000, 2000)
DELAY = 2
STIMULUS = 1


def chain_text(n: int) -> str:
    costs = [1 + i % 3 for i in range(n)]
    procs = [{"pid": "p%d" % i,
              "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
              "outputs": ["Of" if i == n - 1 else "O%d" % i],
              "cost": c} for i, c in enumerate(costs)]
    q = sum(costs)
    return json.dumps({
        "graph": {"processes": procs, "environment": ["I0"]},
        "stimuli": {str(STIMULUS): ["I0"]},
        "faults": [{"target": "p%d" % (n // 3), "kind": "delay",
                    "at_round": 0, "extra": DELAY}],
        "formula": "G (I0 o<=%d Of)" % q,
        "rounds": STIMULUS + q + DELAY + 3,
    })


def pipeline(text: str):
    """The shared state and the ``(stage, thunk)`` pairs of one check;
    each thunk leaves its result in the state for the later stages."""
    state = {}

    def load():
        state["sc"] = simulator.load_scenario(text)

    def do_unwind():
        sc = state["sc"]
        state["unwound"] = unwind(sc.formula, sc.graph)

    def negate():
        state["negated"] = formulas.negate(state["unwound"].formula)

    def tableau():
        state["root"] = build_tableau(state["negated"])

    def group():
        state["groups"] = grouping.organize_groups(state["root"],
                                                   state["sc"].graph)

    def assign():
        state["assignment"] = grouping.assign_conjuncts(state["groups"],
                                                        state["sc"].graph)

    def synth():
        index = formulas.subformula_index(state["negated"])
        state["monitors"] = runtime.synthesize_monitors(
            state["groups"], state["assignment"], index, state["sc"].graph)

    def run():
        sc = state["sc"]
        state["result"] = simulator.run_simulation(
            sc, sc.suggested_rounds, state["monitors"], root=sc.formula)

    def oracle():
        formula = state["sc"].formula
        names = formulas.atoms(formula)
        state["central"] = formulas.evaluate_trace_with_position(
            formula, simulator.latched(
                formulas.Event(e.props & names, e.cost)
                for e in state["result"].global_trace))

    thunks = (load, do_unwind, negate, tableau, group, assign, synth, run,
              oracle)
    return state, list(zip(STAGES, thunks))


def timed(text: str) -> dict:
    """Seconds per completed stage, and the error that stopped the
    pipeline, if any."""
    _, stages = pipeline(text)
    out = {"stages": {}, "error": None}
    for name, thunk in stages:
        start = time.perf_counter()
        try:
            thunk()
        except Exception as exc:  # recorded as a failure at this size
            out["error"] = "%s: %s (%s)" % (name, exc, type(exc).__name__)
        out["stages"][name] = time.perf_counter() - start
        if out["error"]:
            break
    return out


def timed_check(path: str) -> tuple:
    """Seconds and exit code of one whole ``costmon check`` on the scenario
    file, with its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.main(["check", "--scenario", path])
        return time.perf_counter() - start, code


def counters(text: str) -> dict:
    state, stages = pipeline(text)
    steps = [0]
    original = runtime.LocalMonitor.step

    def counting(self, rnd, event):
        steps[0] += 1
        return original(self, rnd, event)

    out = {}
    runtime.LocalMonitor.step = counting
    try:
        for name, thunk in stages:
            if name not in PEAK_STAGES:
                thunk()
                continue
            tracemalloc.start()
            try:
                thunk()
            finally:
                out[name + "_peak_mb"] = round(
                    tracemalloc.get_traced_memory()[1] / 2**20, 3)
                tracemalloc.stop()
    except Exception:
        pass  # the counters cover the stages that completed
    finally:
        runtime.LocalMonitor.step = original
    if "root" in state:
        nodes, todo = 0, [state["root"]]
        while todo:
            node = todo.pop()
            nodes += 1
            todo.extend(node.children)
        out["tableau_nodes"] = nodes
    if "groups" in state:
        out["groups"] = len(state["groups"])
    if "result" in state:
        report = state["result"].report
        out.update(monitor_steps=steps[0], messages=report.message_total,
                   rounds=report.rounds_run, monitors=len(state["monitors"]))
    return out


def measure(n: int) -> dict:
    text = chain_text(n)
    runs = [timed(text) for _ in range(REPEATS)]
    point = {"n": n, "failed": runs[0]["error"]}
    done = [name for name in STAGES if name in runs[0]["stages"]]
    for key, pick in (("stages_s", statistics.median),
                      ("stages_min_s", min), ("stages_max_s", max)):
        point[key] = {name: pick(r["stages"][name] for r in runs)
                      for name in done}
    point["total_s"] = sum(point["stages_s"].values())
    point.update(counters(text))
    # after the counters: the nodes a whole check leaves in the intern
    # table would move the tracemalloc peaks
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain-%d.json" % n)
        with open(path, "w") as fh:
            fh.write(text)
        checks = [timed_check(path) for _ in range(REPEATS)]
    point["check_s"] = statistics.median(s for s, _ in checks)
    point["check_exit"] = checks[0][1]
    return point


def distinct_nodes(f) -> int:
    seen, todo = set(), [f]
    while todo:
        g = todo.pop()
        if g not in seen:
            seen.add(g)
            todo += [getattr(g, k) for k in g.kids]
    return len(seen)


def measure_progression(text: str, trace: list) -> dict:
    f = formulas.parse_formula(text)
    point = {"failed": None}
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        try:
            point["verdict"] = formulas.evaluate_trace(f, trace).value
        except Exception as exc:  # recorded as a failure at this size
            point["failed"] = "%s (%s)" % (exc, type(exc).__name__)
        times.append(time.perf_counter() - start)
        if point["failed"]:
            break
    point["evaluate_s"] = statistics.median(times)
    if not point["failed"]:
        residual, largest = formulas.nnf(f), 0
        for event in trace:
            residual = formulas.progress(residual, event)
            largest = max(largest, distinct_nodes(residual))
        point["residual_nodes_max"] = largest
    return point


def progression_curves() -> dict:
    lengths = []
    for text, props in TRACES.items():
        for n in TRACE_LENGTHS:
            point = {"formula": text, "n": n}
            point.update(measure_progression(
                text, [formulas.make_event(props(k), 1) for k in range(n)]))
            lengths.append(point)
            _report("%-12s n=%-6d" % (text, n), point)
    depths = []
    for d in DEPTHS:
        point = {"d": d}
        point.update(measure_progression(
            "G F " * d + "a", [formulas.make_event(("a",), 1)]))
        depths.append(point)
        _report("(G F)^%-6d" % d, point)
    return {"family": "evaluate_trace over trace length for G (a o<=5 b), "
                      "G F a and F G a, and over (G F)^d a for one event",
            "trace_length": lengths, "nesting_depth": depths}


def _report(name: str, point: dict) -> None:
    print("%s %s  evaluate %.4f s" % (
        name, "FAILED " + point["failed"] if point["failed"] else "ok",
        point["evaluate_s"]), flush=True)


def src_lines() -> int:
    pkg = os.path.join(ROOT, "src", "costmon")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def main(argv) -> int:
    out_path = argv[0] if argv else os.path.join(ROOT, "BENCH_curves.json")
    points = []
    for n in SIZES:
        point = measure(n)
        points.append(point)
        print("chain-%-5d %s  run %.4f s  total %.3f s  check %.3f s" % (
            n, "FAILED " + point["failed"] if point["failed"] else "ok",
            point["stages_s"].get("run", float("nan")), point["total_s"],
            point["check_s"]), flush=True)
    doc = {
        "family": "chain-N, costs 1, 2, 3 repeating, one delayed process",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "points": points,
        "progression": progression_curves(),
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
