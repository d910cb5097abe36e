"""Self-test of the benchmark: short runs of every workload, twice each.

    python3 perfbench/selftest.py

For each workload and each of ``--trace 0`` and ``--trace 1`` it runs
``run.py`` twice on the same seed with a one-second window (each run
still covers every scenario once), then checks that the result line has
exactly the declared metrics with their units, that the run is correct,
and that every count metric repeats exactly.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "rounds", "1/round")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}


def run(workload: str, trace: int, seed: int = 7) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    problems = []
    units = declared()
    for workload in WORKLOADS:
        for trace in (0, 1):
            first, second = run(workload, trace), run(workload, trace)
            where = "%s trace %d" % (workload, trace)
            for res in (first, second):
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("%s: result keys %s" % (where, sorted(res)))
                if not res["correct"] or res["attempted"] < 1:
                    problems.append("%s: incorrect run %s" % (where, res))
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != units[trace]:
                    problems.append("%s: metrics %s, declared %s"
                                    % (where, got, units[trace]))
            for name, unit in units[trace].items():
                if unit not in COUNT_UNITS:
                    continue
                a = first["metrics"].get(name, {}).get("value")
                b = second["metrics"].get(name, {}).get("value")
                if a != b:
                    problems.append("%s: count %s differs: %s vs %s"
                                    % (where, name, a, b))
            print("checked %s" % where, flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
