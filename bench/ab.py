"""Whole ``costmon check`` times of the working tree against a git
revision, run alternately in one process.

The package at revision REV (default HEAD) is copied from git into a
temporary directory under another name (``costmon_at_rev``) and imported
beside the working tree's ``src/costmon``.  The inputs are a chain of
``CHAIN_N`` processes (``curves.chain_text``) and the scenario documents
of each perfbench workload, written by ``perfbench/workloads.py`` for
seed ``SEED``.  First, every scenario is run once on each side, and the
two ``check --format json`` outputs and exit codes must be identical,
byte for byte; so must the two ``simulate --format json`` ones, which
hold the detections and the message total, on every scenario but the
chain, whose trace log runs to millions of entries.  Then each workload
runs ``PAIRS`` pairs: a pair times all of the workload's scenarios on
one side and then on the other, the side that goes first alternating
from pair to pair, with the cycle collector run before each side.  Each
side is timed in CPU time (``time.process_time``), which a stall of the
host, when the process does not run, does not reach.  A pair's ratio is
the working tree's time over the revision's, so below 1 is faster, and
the pair is won when it is below 1.  Per workload the script prints the
median ratio, its first and third quartiles, its minimum and maximum,
and the pairs won.  A run on an unmodified tree
(``python bench/ab.py HEAD``) compares the package with itself: its
quartiles are the A/A spread that a claimed gain's median must clear,
beside winning 9 of 10 pairs.  The line that reports the identity pass
also gives the line count of ``src/costmon/*.py`` on both sides, the
core count and the Python version.  The host's speed drifts between runs far more than
between the two halves of one pair, which is why the sides are timed
alternately in one process.  Standard library only; run from a checkout
with

    python bench/ab.py [REV]
"""

import contextlib
import gc
import importlib
import io
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

sys.dont_write_bytecode = True  # leave no byte code behind in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, HERE)

import curves  # noqa: E402  (puts the working tree's src/ on the path)
import workloads  # noqa: E402
from costmon import cli  # noqa: E402

OTHER = "costmon_at_rev"  # package name of the revision's copy
CHAIN_N = 1000
SEED = 1
PAIRS = 10


def import_revision(rev: str, where: str) -> tuple:
    """The ``cli`` module of ``src/costmon`` at ``rev``, copied from git
    into ``where`` as the package ``OTHER``, and the line count of the
    copied ``.py`` files."""
    blob = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev, "src/costmon"],
        check=True, capture_output=True).stdout
    pkg = os.path.join(where, OTHER)
    os.makedirs(pkg)
    lines = 0
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        for member in tar.getmembers():
            if member.isfile() and member.name.endswith(".py"):
                data = tar.extractfile(member).read()
                lines += data.count(b"\n")
                with open(os.path.join(pkg, os.path.basename(member.name)),
                          "wb") as fh:
                    fh.write(data)
    sys.path.insert(0, where)
    return importlib.import_module(OTHER + ".cli"), lines


def tree_lines() -> int:
    """The line count of the working tree's ``src/costmon/*.py``."""
    src = os.path.join(ROOT, "src", "costmon")
    total = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def run(side, command: str, path: str) -> tuple:
    """Exit code, output and CPU seconds of one in-process ``command``
    (``check`` or ``simulate``) with JSON output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        cpu = time.process_time()
        code = side.main([command, "--scenario", path, "--format", "json"])
        cpu = time.process_time() - cpu
    return code, out.getvalue(), cpu


def scenario_files(tmp: str) -> dict:
    """Workload name -> the paths of its scenario files."""
    chain = os.path.join(tmp, "chain-%d.json" % CHAIN_N)
    with open(chain, "w") as fh:
        fh.write(curves.chain_text(CHAIN_N))
    files = {"chain-%d" % CHAIN_N: [chain]}
    for name in workloads.WORKLOADS:
        ops = workloads.generate(name, SEED, os.path.join(tmp, name))
        files[name] = [op["file"] for op in ops]
    return files


def main(argv) -> int:
    rev = argv[0] if argv else "HEAD"
    tmp = tempfile.mkdtemp(prefix="costmon-ab-")
    try:
        base, base_lines = import_revision(rev, tmp)
        files = scenario_files(tmp)
        for name, paths in files.items():
            commands = (("check", "simulate") if name in workloads.WORKLOADS
                        else ("check",))
            for path in paths:
                for command in commands:
                    ours = run(cli, command, path)[:2]
                    theirs = run(base, command, path)[:2]
                    if ours != theirs:
                        print("%s outputs differ on %s: exit %s against %s"
                              % (command, path, ours[0], theirs[0]))
                        return 1
        print("%d scenarios, check outputs identical, simulate outputs "
              "identical on %d; src/costmon %d lines, %d at %s; nproc %d, "
              "Python %s %s"
              % (sum(map(len, files.values())),
                 sum(len(files[name]) for name in workloads.WORKLOADS),
                 tree_lines(), base_lines, rev, os.cpu_count(),
                 platform.python_implementation(),
                 platform.python_version()))
        print("working tree / %s, whole check in CPU time, %d alternating "
              "pairs" % (rev, PAIRS))
        for name, paths in files.items():
            ratios = []
            for k in range(PAIRS):
                cpu = {}
                for side in ((cli, base) if k % 2 else (base, cli)):
                    gc.collect()
                    cpu[side] = sum(run(side, "check", p)[2] for p in paths)
                ratios.append(cpu[cli] / cpu[base])
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            print("%-14s median %.3f  q1 %.3f  q3 %.3f  min %.3f  max %.3f  "
                  "won %d/%d"
                  % (name, median, q1, q3, min(ratios), max(ratios),
                     sum(r < 1 for r in ratios), PAIRS),
                  flush=True)
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
