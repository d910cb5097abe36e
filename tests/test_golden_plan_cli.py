"""Replays recorded ``unwind``, ``group`` and ``tableau`` runs through ``cli.main``.

``golden_plan_cli.json`` holds, per command line, the exit code and a sha256
of stdout and of stderr in text and in json format.  The planning inputs are
the seven-process pipeline (example2) over budgets 5..25, so infeasible
budgets and their witness paths are included; a stack of reconvergent
diamonds with equal-cost branches, where the witness path is a tie-break;
the sorting line with its watcher formulas; and two cyclic graphs.  The
cycle message names one cycle of the graph and may pick another one when
the order of the acyclicity check changes, so cyclic cases pin the exit
code only.  Graph arguments are written as graph names; the replay puts
each graph in a file first.  After an intended change of output,
regenerate the file with

    PYTHONPATH=src python tests/test_golden_plan_cli.py

which prints the command line of each record that changed, then how many
did.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from costmon import cli
from costmon.sortingline import SORTING_LINE_GRAPH_JSON
from conftest import PIPELINE_DOC, write_golden

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_plan_cli.json")


def _diamond_stack(k: int) -> str:
    """``k`` stacked diamonds between I0 and ``x<k>``.  Diamond i forks at
    ``a<i>`` into ``c<i>`` and ``b<i>`` and joins at ``j<i>``; the first
    join also reads the environment variable I1.  Odd diamonds have
    equal-cost branches, listed in reverse pid order, so the cheapest
    path is a tie broken by pid order."""
    procs = [{"pid": "s", "inputs": ["I0"], "outputs": ["x0"], "cost": 1}]
    for i in range(1, k + 1):
        left, right = (2, 2) if i % 2 else (1, 3)
        join_inputs = ["v%d" % i, "w%d" % i] + (["I1"] if i == 1 else [])
        procs += [
            {"pid": "a%d" % i, "inputs": ["x%d" % (i - 1)],
             "outputs": ["u%d" % i], "cost": 1},
            {"pid": "c%d" % i, "inputs": ["u%d" % i],
             "outputs": ["v%d" % i], "cost": left},
            {"pid": "b%d" % i, "inputs": ["u%d" % i],
             "outputs": ["w%d" % i], "cost": right},
            {"pid": "j%d" % i, "inputs": join_inputs,
             "outputs": ["x%d" % i], "cost": 1},
        ]
    return json.dumps({"processes": procs})


def _cycle(tail: bool) -> str:
    procs = [
        {"pid": "p0", "inputs": ["I0", "O2"], "outputs": ["O0"], "cost": 1},
        {"pid": "p1", "inputs": ["O0"], "outputs": ["O1"], "cost": 1},
        {"pid": "p2", "inputs": ["O1"], "outputs": ["O2"], "cost": 1},
    ]
    if tail:
        procs.append({"pid": "p3", "inputs": ["O1"], "outputs": ["Of"],
                      "cost": 1})
    return json.dumps({"processes": procs})


GRAPHS = {
    "example2": PIPELINE_DOC,
    "diamonds": _diamond_stack(3),
    "sorting_line": SORTING_LINE_GRAPH_JSON,
    "cycle": _cycle(tail=False),
    "cycle_tail": _cycle(tail=True),
}
EXIT_ONLY = ("cycle", "cycle_tail")

SORTING_LINE_FORMULAS = [
    "G ((LS1 & SC) o<=1 T_CS)",
    "G ((LS1 & SC) o<=2 SC_CP)",
    "G (T_CS o<=2 CV_W)",
    "G ((CV_W & SC_CP) o<=2 E_W)",
    "G ((LS1 & SC) o<=5 A_W)",
    "G (T_CS o<=2 CV_B)",
    "G ((CV_B & SC_CP) o<=2 E_B)",
    "G ((LS1 & SC) o<=6 A_B)",
]

TABLEAU_FORMULAS = [
    "G F a", "F G a", "a U b", "!(a U b)", "X G (a | b)",
    "G (a | X b) & F !a", "(a o<=3 b) U c", "G ((a & b) o<=4 (c | d))",
]


def _cases():
    plans = [("example2", "G ((I0 & I1) o<=%d Of)" % q) for q in range(5, 26)]
    plans += [("example2", "(I0 o<=%d O4)" % q) for q in (5, 6, 7)]
    plans += [("example2", "G ((I0 o<=12 Of) & F (I1 o<=9 Of))")]
    plans += [("diamonds", "G ((I0 & I1) o<=%d x3)" % q)
              for q in range(8, 15)]
    plans += [("diamonds", "F (I1 o<=%d x2)" % q) for q in (2, 3, 4)]
    plans += [("sorting_line", f) for f in SORTING_LINE_FORMULAS]
    plans += [(name, "G ((I0 & O2) o<=5 O1)") for name in EXIT_ONLY]
    out = []
    for graph, formula in plans:
        for cmd in ("unwind", "group"):
            out.append([cmd, "--formula", formula, "--graph", graph])
    formulas = [f for graph, f in plans if graph not in EXIT_ONLY]
    formulas += TABLEAU_FORMULAS
    for formula in dict.fromkeys(formulas):
        out.append(["tableau", "--formula", formula])
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(argv, graph_dir):
    """The golden record of one command line, recomputed."""
    record = {"argv": argv}
    run = list(argv)
    exit_only = False
    if "--graph" in run:
        i = run.index("--graph") + 1
        exit_only = run[i] in EXIT_ONLY
        run[i] = os.path.join(graph_dir, run[i] + ".json")
    for fmt in ("text", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(run + ["--format", fmt])
        record[fmt] = {"exit": code}
        if not exit_only:
            record[fmt]["stdout"] = _sha(out.getvalue())
            record[fmt]["stderr"] = _sha(err.getvalue())
    return record


def _write_graphs(graph_dir):
    for name, doc in GRAPHS.items():
        with open(os.path.join(graph_dir, name + ".json"), "w") as fh:
            fh.write(doc)


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("graphs"))
    _write_graphs(path)
    return path


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return {tuple(c["argv"]): c for c in json.load(fh)}


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_plan_cli_output_matches_golden(golden, graph_dir, argv):
    assert replay(argv, graph_dir) == golden[tuple(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_graphs(tmp)
        records = [replay(argv, tmp) for argv in _cases()]
    write_golden(GOLDEN, records, lambda r: " ".join(r["argv"]))
