"""Stage timings of ``costmon check`` over chain-N, and progression
costs over trace length and nesting depth, as curves.

For each N in ``SIZES`` the script builds a chain of N processes (costs
1, 2, 3 repeating, one process a third of the way down delayed by two
rounds past its cost, budget at the lower bound), writes it to a
scenario file and runs the real in-process ``cli.main(["check",
"--scenario", FILE])`` on it.  In a traced check each name in
perfbench's ``spans.LAYER_CALLS`` is bound to a wrapper that times its
calls, so the stages carry perfbench's layer names, ``depgraph.load``
through ``formulas.oracle``.  A stage's time leaves out the stage calls
it makes (``depgraph.load`` parses the formula), and the time no stage
covers (argument parsing, the printed report) is ``cli.overhead``: in
each traced check the stages and ``cli.overhead`` add up to the check's
time.  Each size runs ``REPEATS`` traced checks and records each
stage's median, minimum and maximum wall time (``time.perf_counter``;
``stages_s``, ``stages_min_s``, ``stages_max_s``), its minimum CPU time
(``time.process_time``; ``stages_cpu_s``) and the traced checks' median
time (``traced_check_s``).  The first exception a stage raises is the
failure at that size, and the stages that ran keep their times.
``check_s`` is the median time of ``REPEATS`` untraced checks, and
``check_exit`` keeps their exit code.

Counters come from one more, untimed check, from what its stage calls
return: tableau nodes (``tableau.build``), monitor groups
(``grouping.organize``), monitors (``runtime.synth``), messages and
rounds (the ``simulator.run`` report), and monitor steps (calls of
``LocalMonitor.step``).  In that check each of ``PEAK_STAGES`` also
records the ``tracemalloc`` peak it allocates above what was held when
it began (``peaks_mb``).  The output, with the ``src/`` line count, the
core count and the Python version, goes to ``BENCH_curves.json`` at the
repository root, or to the path given as the only argument.

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
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402
from costmon import cli, formulas, runtime, simulator  # noqa: E402

SIZES = (50, 150, 300, 600, 1000, 2000, 5000, 10000)
# counters record their peak
PEAK_STAGES = ("grouping.organize", "simulator.run", "formulas.oracle")
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


class StageClock:
    """One traced check of the scenario file: each ``spans.LAYER_CALLS``
    name is bound, for the check only, to a wrapper that adds its calls'
    own wall and CPU seconds to the stage's, keeps the value returned and,
    with ``peaks``, the ``tracemalloc`` peak of each of ``PEAK_STAGES``."""

    def __init__(self, path: str, peaks: bool = False):
        self.peaks = peaks
        self.wall, self.cpu, self.results, self.peak_mb = {}, {}, {}, {}
        self.error = None  # the first exception a stage raised
        self._inner = [[0.0, 0.0]]  # per open call: its stage calls' time
        modules = {"cli": cli, "simulator": simulator}
        saved = [(modules[mod], attr, getattr(modules[mod], attr))
                 for mod, attr in spans.LAYER_CALLS.values()]
        for stage, (mod, attr, original) in zip(spans.LAYER_CALLS, saved):
            setattr(mod, attr, self._wrap(stage, original))
        try:
            self.total, total_cpu, _ = _check(path)
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)
        self.wall["cli.overhead"] = self.total - self._inner[0][0]
        self.cpu["cli.overhead"] = total_cpu - self._inner[0][1]

    def _wrap(self, stage: str, fn):
        def wrapper(*args, **kwargs):
            traced = self.peaks and stage in PEAK_STAGES
            if traced:
                tracemalloc.start()
            self._inner.append([0.0, 0.0])
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                self.results[stage] = fn(*args, **kwargs)
            except Exception as exc:  # recorded as a failure at this size
                self.error = self.error or "%s: %s (%s)" % (
                    stage, exc, type(exc).__name__)
                raise
            finally:
                wall = time.perf_counter() - wall
                cpu = time.process_time() - cpu
                inner_wall, inner_cpu = self._inner.pop()
                self._inner[-1][0] += wall
                self._inner[-1][1] += cpu
                self.wall[stage] = (self.wall.get(stage, 0.0)
                                    + wall - inner_wall)
                self.cpu[stage] = self.cpu.get(stage, 0.0) + cpu - inner_cpu
                if traced:
                    self.peak_mb[stage] = round(
                        tracemalloc.get_traced_memory()[1] / 2**20, 3)
                    tracemalloc.stop()
            return self.results[stage]
        return wrapper


def _check(path: str) -> tuple:
    """Wall seconds, CPU seconds and exit code of one whole ``costmon
    check`` on the scenario file, with its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(["check", "--scenario", path])
        except Exception:  # a traceback, which exits 1 on the command line
            code = 1
        return time.perf_counter() - wall, time.process_time() - cpu, code


def counters(path: str) -> dict:
    """Counters of one untimed check: the stage peaks, and what the stage
    calls returned and ``LocalMonitor.step`` was called for."""
    steps = [0]
    original = runtime.LocalMonitor.step

    def counting(self, rnd, event):
        steps[0] += 1
        return original(self, rnd, event)

    runtime.LocalMonitor.step = counting
    try:
        clock = StageClock(path, peaks=True)
    finally:
        runtime.LocalMonitor.step = original
    out, results = {"peaks_mb": clock.peak_mb}, clock.results
    if "tableau.build" in results:
        nodes, todo = 0, [results["tableau.build"]]
        while todo:
            node = todo.pop()
            nodes += 1
            todo.extend(node.children)
        out["tableau_nodes"] = nodes
    if "grouping.organize" in results:
        out["groups"] = len(results["grouping.organize"])
    if "runtime.synth" in results:
        out["monitors"] = len(results["runtime.synth"])
    if "simulator.run" in results:
        report = results["simulator.run"].report
        out.update(monitor_steps=steps[0], messages=report.message_total,
                   rounds=report.rounds_run)
    return out


def measure(n: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain-%d.json" % n)
        with open(path, "w") as fh:
            fh.write(chain_text(n))
        # the counters first: the nodes a whole check leaves in the intern
        # table would move the tracemalloc peaks
        point = counters(path)
        runs = [StageClock(path) for _ in range(REPEATS)]
        checks = [_check(path) for _ in range(REPEATS)]
    point.update(n=n, failed=runs[0].error)
    for key, pick in (("stages_s", statistics.median),
                      ("stages_min_s", min), ("stages_max_s", max)):
        point[key] = {name: pick(r.wall[name] for r in runs)
                      for name in runs[0].wall}
    point["stages_cpu_s"] = {name: min(r.cpu[name] for r in runs)
                             for name in runs[0].cpu}
    point["traced_check_s"] = statistics.median(r.total for r in runs)
    point["check_s"] = statistics.median(wall for wall, _, _ in checks)
    point["check_exit"] = checks[0][2]
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
        print("chain-%-5d %s  run %.4f s  traced %.3f s  check %.3f s" % (
            n, "FAILED " + point["failed"] if point["failed"] else "ok",
            point["stages_s"].get("simulator.run", float("nan")),
            point["traced_check_s"],
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
