"""Known defects of the package, reproduced apart from the benchmark.

    python3 perfbench/defects.py [--seed N]

The benchmark's workloads hold only inputs on which ``costmon check``
neither crashes nor errs today, so that a failed op there always means a
regression.  This script runs the inputs outside that regime once each,
through the benchmark's own op runner and oracle: chains past the
recursion ceiling, and small systems with staggered stimuli, latencies
above the lower bound or delay faults (``workloads.defects``).  It
prints the failures by kind and by the layer that raised or erred, and
exits 0 whatever it finds; a fix shows as fewer failures here.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

sys.dont_write_bytecode = True  # leave no byte code behind in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    work_dir = os.path.join(run.RESULTS, "work-defects-%d" % os.getpid())
    try:
        cli = run._import_package()["cli"]
        ops = workloads.generate("defects", args.seed, work_dir)
        recs = []
        for op in ops:
            rec = run.run_op(cli, op)
            run.judge(op, rec)
            recs.append(rec)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    by_kind, by_layer = {}, {}
    for r in recs:
        if r["kind"] is not None:
            by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
            by_layer[r["layer"]] = by_layer.get(r["layer"], 0) + 1
    print("defects seed %d: %d ops, %d failed" % (
        args.seed, len(recs), sum(by_kind.values())))
    for title, counts in (("by kind", by_kind), ("by layer", by_layer)):
        print("%s: %s" % (title, ", ".join(
            "%s=%d" % kv for kv in sorted(counts.items())) or "none"))
    print("\n".join(run.failures(recs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
