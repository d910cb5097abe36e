"""End-to-end checks of the command line front end.

Almost every test shells out through ``python -m costmon`` so the argument
wiring, exit codes, and printed documents are exercised exactly as a user
sees them.  Three tests call ``cli.main`` in process: the parser-reuse
test, which calls it twice, the test that a check keeps no formula node
alive, which reads ``Formula._interned`` before and after one check with
the cycle collector off, and the sweep of 560 example2 fault placements.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

import costmon
from costmon import cli
from conftest import PIPELINE_DOC
from costmon.formulas import Formula, render_formula
from costmon.simulator import (EXAMPLE2_GRAPH_JSON, FaultSpec,
                               example2_scenario, load_scenario_file,
                               run_scenario)
from costmon.sortingline import (FAULT_NAMES, SORTING_LINE_GRAPH_JSON,
                                 TOKENS, build_sorting_line_scenario)

# the child imports the same package as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(costmon.__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*args: str, env=ENV) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "costmon", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "pipeline.json"
    path.write_text(PIPELINE_DOC)
    return str(path)


# ---------------------------------------------------------------- parse


def test_parse_echoes_canonical_form():
    r = run_cli("parse", "--formula", "G(a o<=3 b)")
    assert r.returncode == 0
    assert r.stdout.strip() == "G (a o<=3 b)"


def test_parse_json_document():
    r = run_cli("parse", "--formula", "G (a o<=3 b)", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["formula"] == "G (a o<=3 b)"
    assert isinstance(doc["ast"], dict)


def test_parse_error_is_exit_1():
    r = run_cli("parse", "--formula", "G (a &")
    assert r.returncode == 1
    blob = r.stdout + r.stderr
    assert "formula error" in blob
    assert "position 6" in blob


@pytest.mark.parametrize("text, rendered", [
    ("!" * 5000 + "a", "!(" * 4999 + "!a" + ")" * 4999),
    ("X " * 5000 + "a", "X (" * 4999 + "X a" + ")" * 4999),
    (" U ".join(["a"] * 5000), "(a U " * 4999 + "a" + ")" * 4999),
    ("(" * 3000 + "a" + ")" * 3000, None),
], ids=["5000-not", "5000-next", "5000-until", "3000-parens"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_parse_deep_input_exits_without_traceback(text, rendered, fmt):
    r = run_cli("parse", "--formula", text, "--format", fmt)
    assert "Traceback" not in r.stderr
    if rendered is None:
        assert r.returncode == 1
        assert r.stderr == ("formula error: parentheses nested deeper than "
                            "100 (at position 100)\n")
    elif fmt == "text":
        assert (r.returncode, r.stdout) == (0, rendered + "\n")
    else:
        assert r.returncode == 0
        assert r.stdout.endswith('  "formula": "%s"\n}\n' % rendered)


def test_parse_json_of_deep_formula_is_json_dumps_output():
    # json.loads recurses, so read a nesting the decoder can take
    text = "!" * 300 + "(a o<=3 b)"
    r = run_cli("parse", "--formula", text, "--format", "json")
    doc = json.loads(r.stdout)
    assert r.stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    doc = doc["ast"]
    for _ in range(300):
        assert doc["op"] == "not"
        doc = doc["sub"]
    assert doc == {"op": "dep", "bound": 3, "left": {"op": "atom", "name": "a"},
                   "right": {"op": "atom", "name": "b"}}


# ---------------------------------------------------------------- unwind


def test_unwind_prints_constraint_table(graph_file):
    r = run_cli("unwind", "--formula", "G ((I0 & I1) o<=20 Of)",
                "--graph", graph_file)
    assert r.returncode == 0
    assert "constraints:" in r.stdout
    assert "p0   (I0 o<=11 O0)" in r.stdout
    assert "p6   ((O1 & (O4 & O5)) o<=20 Of)" in r.stdout


def test_unwind_without_dependency_operator(graph_file):
    r = run_cli("unwind", "--formula", "G (I0 & I1)", "--graph", graph_file)
    assert r.returncode == 0
    assert "nothing to unwind" in r.stdout


def test_unwind_infeasible_is_exit_3(graph_file):
    r = run_cli("unwind", "--formula", "G ((I0 & I1) o<=5 Of)",
                "--graph", graph_file)
    assert r.returncode == 3
    blob = r.stdout + r.stderr
    assert "infeasible constraint" in blob
    assert "budget 5" in blob


UNSPLITTABLE = ("formula error: cannot unwind %s: a right operand naming a "
                "dependent variable must be a variable or a conjunction of "
                "variables\n")


@pytest.mark.parametrize("right", ["(O2 | O3)", "!O2"])
def test_unwind_refuses_an_unsplittable_right_operand(graph_file, right):
    r = run_cli("unwind", "--formula", "G ((I0 & I1) o<=10 %s)" % right,
                "--graph", graph_file)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == UNSPLITTABLE % ("((I0 & I1) o<=10 %s)" % right)


TEMPORAL = ("formula error: cannot unwind %s: dependency operands must be "
            "propositional\n")


@pytest.mark.parametrize("cmd", ["unwind", "group"])
def test_planning_refuses_a_temporal_dependency_operand(graph_file, cmd):
    r = run_cli(cmd, "--formula", "G ((F I0) o<=20 Of)", "--graph", graph_file)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == TEMPORAL % "(F I0 o<=20 Of)"


def test_check_refuses_a_nested_dependency_before_it_simulates():
    # the oracle used to refuse it only after planning and simulating,
    # under the graph/scenario exit code
    r = run_cli("check", "--scenario", "example2",
                "--formula", "G ((I0 o<=3 I1) o<=20 Of)")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == TEMPORAL % "((I0 o<=3 I1) o<=20 Of)"


def test_unwind_conjunctive_right_operand(graph_file):
    r = run_cli("unwind", "--formula", "G ((I0 & I1) o<=10 (O2 & O3))",
                "--graph", graph_file)
    assert r.returncode == 0
    assert r.stdout.splitlines()[1:] == [
        "constraints:", "  p2   (O0 o<=10 O2)", "  p0   (I0 o<=9 O0)",
        "  p3   (O0 o<=10 O3)", "  p0   (I0 o<=8 O0)"]


def test_check_refuses_a_disjunctive_right_operand(tmp_path):
    # unwound per producer, p2's dropped O2 was reported False at round 13
    # while O3 arrived in budget and the centralized verdict was Unknown
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "graph": json.loads(PIPELINE_DOC),
        "formula": "G ((I0 & I1) o<=10 (O2 | O3))",
        "stimuli": {"3": ["I0", "I1"]},
        "faults": [{"target": "p2", "kind": "drop"}],
        "rounds": 30}))
    r = run_cli("check", "--scenario", str(path))
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == UNSPLITTABLE % "((I0 & I1) o<=10 (O2 | O3))"


def test_unwind_chain_of_1000_prints(tmp_path):
    n = 1000
    procs = [{"pid": "p%d" % i, "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
              "outputs": ["Of" if i == n - 1 else "O%d" % i], "cost": 1}
             for i in range(n)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"processes": procs}))
    r = run_cli("unwind", "--formula", "G (I0 o<=%d Of)" % n,
                "--graph", str(path))
    assert r.returncode == 0
    assert "Traceback" not in r.stderr
    first = r.stdout.splitlines()[0]
    assert first.startswith("(G (O998 o<=1000 Of) & (G (O997 o<=999 O998) & ")
    assert first.endswith("(G (O0 o<=2 O1) & G (I0 o<=1 O0)" + ")" * (n - 1))


def test_unwind_fan_in_of_1000(tmp_path):
    n = 1000
    procs = [{"pid": "s%d" % i, "inputs": ["I%d" % i], "outputs": ["O%d" % i],
              "cost": 1} for i in range(n)]
    procs.append({"pid": "sink", "inputs": ["O%d" % i for i in range(n)],
                  "outputs": ["Of"], "cost": 1})
    path = tmp_path / "fanin.json"
    path.write_text(json.dumps({"processes": procs}))
    r = run_cli("unwind", "--formula", "G (I0 o<=10 Of)",
                "--graph", str(path), "--format", "json")
    assert r.returncode == 0
    assert "Traceback" not in r.stderr
    rows = json.loads(r.stdout)["constraints"]
    assert [(row["pid"], row["bound"]) for row in rows[:2]] == [
        ("sink", 10), ("s0", 9)]
    assert len(rows) == n + 1
    assert {row["bound"] for row in rows[1:]} == {9}
    scenario = tmp_path / "fanin_scenario.json"
    scenario.write_text(json.dumps({
        "graph": {"processes": procs},
        "stimuli": {"2": ["I%d" % i for i in range(n)]},
        "formula": "G (I0 o<=10 Of)"}))
    for argv in (["group", "--formula", "G (I0 o<=10 Of)", "--graph",
                  str(path)], ["check", "--scenario", str(scenario)]):
        r = run_cli(*argv)
        assert r.returncode == 0, r.stderr
        assert "Traceback" not in r.stderr


def test_check_chain_of_1000(tmp_path):
    n, costs = 1000, (1, 2, 3)
    procs = [{"pid": "p%d" % i, "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
              "outputs": ["Of" if i == n - 1 else "O%d" % i],
              "cost": costs[i % 3]} for i in range(n)]
    q = sum(p["cost"] for p in procs) + 5
    path = tmp_path / "chain_scenario.json"
    path.write_text(json.dumps({
        "graph": {"processes": procs}, "stimuli": {"0": ["I0"]},
        "formula": "G (I0 o<=%d Of)" % q}))
    r = run_cli("check", "--scenario", str(path))
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    assert "agree: Unknown" in r.stdout


def test_check_chain_of_5000_counts_the_tableau_per_disjunct(tmp_path):
    # 7N - 1 = 34,999 tableau nodes in all, past NODE_LIMIT, which counts
    # each disjunct's subtree (6 nodes here) on its own
    n, costs = 5000, (1, 2, 3)
    procs = [{"pid": "p%d" % i, "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
              "outputs": ["Of" if i == n - 1 else "O%d" % i],
              "cost": costs[i % 3]} for i in range(n)]
    q = sum(p["cost"] for p in procs) + 5
    path = tmp_path / "chain_scenario.json"
    path.write_text(json.dumps({
        "graph": {"processes": procs}, "stimuli": {"0": ["I0"]},
        "formula": "G (I0 o<=%d Of)" % q}))
    r = run_cli("check", "--scenario", str(path))
    assert r.returncode == 0, r.stderr
    assert "agree: Unknown" in r.stdout


def test_unwind_unknown_variable_is_exit_2(graph_file):
    r = run_cli("unwind", "--formula", "G (x o<=2 y)", "--graph", graph_file)
    assert r.returncode == 2
    assert "graph error" in (r.stdout + r.stderr)


# ---------------------------------------------------------------- tableau


def test_tableau_default_output_is_dot():
    r = run_cli("tableau", "--formula", "G p")
    assert r.returncode == 0
    assert r.stdout.startswith("digraph")
    assert "[LOOP]" in r.stdout
    assert "✓" in r.stdout          # ticked branch marker


def test_tableau_marks_contradictions():
    r = run_cli("tableau", "--formula", "p & !p")
    assert r.returncode == 0
    assert "✗" in r.stdout or "×" in r.stdout


def test_tableau_text_format():
    r = run_cli("tableau", "--formula", "p & (q | r)", "--format", "text")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "branches: 2"
    assert lines[1] == "  0: p, q  [ticked]"
    assert lines[2] == "  1: p, r  [ticked]"


@pytest.mark.parametrize("argv", [
    ["parse", "--formula", "a & b"],
    ["unwind", "--formula", "G (I0 o<=20 Of)"],
    ["group", "--formula", "G (I0 o<=20 Of)"],
    ["simulate", "--scenario", "example2"],
    ["check", "--scenario", "example2"],
], ids=lambda argv: argv[0])
def test_dot_is_a_tableau_format_only(argv, graph_file):
    if argv[0] in ("unwind", "group"):
        argv = argv + ["--graph", graph_file]
    r = run_cli(*argv, "--format", "dot")
    assert r.returncode == 64
    assert "invalid choice: 'dot'" in r.stderr
    assert r.stdout == ""


def test_tableau_output_is_deterministic():
    a = run_cli("tableau", "--formula", "G (p | q)")
    b = run_cli("tableau", "--formula", "G (p | q)")
    assert a.stdout == b.stdout


@pytest.mark.parametrize("name", ["example2", "sorting_line"])
def test_output_does_not_depend_on_the_hash_seed(tmp_path, name):
    # formula nodes hash by identity, so a printed order taken from a set
    # of formulas would differ between these two runs
    sc = (example2_scenario() if name == "example2"
          else build_sorting_line_scenario())
    graph = tmp_path / "graph.json"
    graph.write_text(PIPELINE_DOC if name == "example2"
                     else SORTING_LINE_GRAPH_JSON)
    formula = render_formula(sc.formula)
    for argv in (["group", "--formula", formula, "--graph", str(graph),
                  "--format", "json"],
                 ["tableau", "--formula", formula],
                 ["check", "--scenario", name, "--format", "json"]):
        a, b = (run_cli(*argv, env=dict(ENV, PYTHONHASHSEED=seed))
                for seed in ("1", "2"))
        assert a.returncode in (0, 5) and a.stdout, argv
        assert (a.returncode, a.stdout, a.stderr) == (
            b.returncode, b.stdout, b.stderr), argv


def test_tableau_size_limit_is_formula_error():
    r = run_cli("tableau", "--formula",
                "(X G (c U a) U G ((b | b) | (c U c)))")
    assert r.returncode == 1
    assert r.stderr == "formula error: tableau exceeded 30000 nodes\n"
    assert "Traceback" not in r.stderr


# ---------------------------------------------------------------- group


def test_group_prints_assignment_rows(graph_file):
    r = run_cli("group", "--formula", "G ((I0 & I1) o<=20 Of)",
                "--graph", graph_file)
    assert r.returncode == 0
    assert "p0               F (!(I0 o<=11 O0))" in r.stdout
    assert "p6               F (!((O1 & (O4 & O5)) o<=20 Of))" in r.stdout


def test_group_json_document(graph_file):
    r = run_cli("group", "--formula", "G ((I0 & I1) o<=20 Of)",
                "--graph", graph_file, "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert sorted(doc["assignment"]) == [f"p{i}" for i in range(7)]
    assert len(doc["groups"]) == 7
    assert all(len(g["members"]) == 1 for g in doc["groups"])


def test_group_unobservable_is_exit_4(graph_file):
    r = run_cli("group", "--formula", "G (I0 o<=2 I1)", "--graph", graph_file)
    assert r.returncode == 4
    assert "unobservable" in (r.stdout + r.stderr)


def test_group_without_processes_is_exit_2(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"processes": []}')
    r = run_cli("group", "--formula", "true", "--graph", str(path))
    assert r.returncode == 2
    assert "error: no processes to organize" in r.stderr


PROCESS = {"pid": "p0", "inputs": ["I0"], "outputs": ["O0"], "cost": 1}


@pytest.mark.parametrize("text, message", [
    ('{"processes": [', "graph document is not valid JSON"),
    ("[]", "graph document must be a JSON object"),
    ("{}", "graph document needs a 'processes' list"),
    (json.dumps({"processes": [5]}), "process entries must be objects"),
    (json.dumps({"processes": [dict(PROCESS, speed=2)]}),
     "unknown process key 'speed'"),
    (json.dumps({"processes": [{"pid": "p0", "inputs": ["I0"],
                                "outputs": ["O0"]}]}),
     "process entry missing key 'cost'"),
    (json.dumps({"processes": [dict(PROCESS, pid="")]}),
     "pid must be a non-empty string"),
    (json.dumps({"processes": [dict(PROCESS, inputs="I0")]}),
     "inputs/outputs of p0 must be lists of names"),
    (json.dumps({"processes": [dict(PROCESS, cost=1.5)]}),
     "cost of p0 must be an integer"),
    (json.dumps({"processes": [PROCESS], "environment": ["I0", "O0"]}),
     "declared environment variable O0 has a producer"),
], ids=["invalid-json", "not-an-object", "no-processes", "entry-not-object",
        "unknown-process-key", "missing-key", "empty-pid", "inputs-not-list",
        "cost-not-integer", "environment-produced"])
def test_graph_rejection_is_one_line_exit_2(tmp_path, text, message):
    path = tmp_path / "graph.json"
    path.write_text(text)
    r = run_cli("unwind", "--formula", "G (I0 o<=3 O0)", "--graph", str(path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines() == [r.stderr.strip()]
    assert r.stderr.startswith("graph error: " + message)


@pytest.mark.parametrize("field, name", [
    ("outputs", "X"), ("outputs", "U"), ("inputs", "G"), ("inputs", "true"),
    ("inputs", "false"), ("outputs", "F")])
def test_a_formula_keyword_as_variable_is_exit_2(tmp_path, field, name):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"processes": [dict(PROCESS, **{field: [name]})]}))
    r = run_cli("unwind", "--formula", "G (I0 o<=3 %s)" % name,
                "--graph", str(path))
    assert r.returncode == 2
    assert r.stderr == ("graph error: variable %s of process p0 is a formula "
                        "keyword\n" % name)


def test_unwinding_through_a_producer_without_inputs_is_exit_2(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"processes": [
        {"pid": "gen", "inputs": [], "outputs": ["v"], "cost": 1},
        {"pid": "p1", "inputs": ["v"], "outputs": ["w"], "cost": 1}]}))
    r = run_cli("unwind", "--formula", "G (v o<=5 w)", "--graph", str(path))
    assert r.returncode == 2
    assert r.stderr == "graph error: process gen has no inputs to depend on\n"


def test_group_content_absorbs_a_bare_formula_under_its_g_version(
        graph_file):
    # the ticked leaf holds both O0 and G O0; the group watches G O0 only
    r = run_cli("group", "--formula", "F !O0 & G !O1", "--graph", graph_file)
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["process(es)      formula",
                                     "p0,p2,p3         G O0",
                                     "p1,p6            (O1 | F O1)"]


# ---------------------------------------------------------------- simulate


def test_simulate_fault_detection_and_recovery():
    r = run_cli("simulate", "--scenario", "sorting_line",
                "--fault", "trigger_failure@5")
    assert r.returncode == 0
    assert "verdict: False" in r.stdout
    assert "detection: round 6 by TD" in r.stdout
    assert "eject_to_bin3" in r.stdout
    assert "outcome: ejected_bin3" in r.stdout
    assert "effective deadline: round 13" in r.stdout


@pytest.mark.parametrize("rounds, deadline, outcome", [
    (None, 100, "pending"),  # the run ends at 40, the deadline is 100
    (None, 40, "pending"),  # round 40, the deadline, is not run
    (None, 39, "missed"),  # the run passed round 39 without Of
    ("60", 100, "sorted"),  # Of lands at 44
    ("60", 40, "missed"),  # ... after the deadline round
], ids=["open", "deadline-at-run-end", "deadline-in-run", "met", "late"])
def test_simulate_outcome_names_a_deadline_the_run_ends_before(
        tmp_path, rounds, deadline, outcome):
    # stimulus at 3 and a delay of 30 at p0: Of lands at 44
    path = tmp_path / "late.json"
    path.write_text(json.dumps({
        "graph": json.loads(EXAMPLE2_GRAPH_JSON),
        "stimuli": {"3": ["I0", "I1"]}, "rounds": 40,
        "faults": [{"target": "p0", "kind": "delay", "extra": 30}],
        "deadline": ["Of", deadline],
        "formula": "G ((I0 & I1) o<=20 Of)"}))
    argv = ["simulate", "--scenario", str(path)]
    r = run_cli(*argv + (["--rounds", rounds] if rounds else []))
    assert r.returncode == 0
    assert "outcome: %s" % outcome in r.stdout.splitlines()
    assert "effective deadline: round %d" % deadline in r.stdout


@pytest.mark.parametrize("factor, deadline, outcome", [
    (1.5, 38, "missed"),  # 14 + floor(1.5 * 16); Of lands at 44
    (2.0, 46, "sorted"),  # 14 + 2 * 16
])
def test_a_slowed_belt_keeps_the_deadline_a_whole_round(
        tmp_path, factor, deadline, outcome):
    # the delay at p0 is detected at round 14, 16 rounds before round 30
    path = tmp_path / "slowed.json"
    path.write_text(json.dumps(dict(
        SLOWED_BELT, deadline=["Of", 30], recoveries={"delay": {
            "kind": "reduce_belt_speed", "params": {"factor": factor}}})))
    r = run_cli("simulate", "--scenario", str(path), "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert (doc["effective_deadline"], doc["outcome"]) == (deadline, outcome)
    assert type(doc["effective_deadline"]) is int


def test_simulate_ends_quietly_when_the_reader_closes_its_output():
    # as in `costmon simulate ... | head -1`: the output (some 1.5 MB)
    # outgrows the pipe, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "costmon", "simulate", "--scenario",
         "example2", "--rounds", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    assert proc.stdout.readline() == b"scenario: example2\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_simulate_zero_rounds():
    r = run_cli("simulate", "--scenario", "example2", "--rounds", "0")
    assert r.returncode == 0
    assert "verdict: Unknown" in r.stdout
    assert "recovery log: empty" in r.stdout
    assert "messages total: 0" in r.stdout


def test_simulate_without_a_formula_runs_no_monitor(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"graph": json.loads(PIPELINE_DOC),
                                "stimuli": {"3": ["I0", "I1"]}}))
    r = run_cli("simulate", "--scenario", str(path), "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert (doc["verdict"], doc["detections"], doc["messages_total"]) == (
        "Unknown", [], 0)
    # the process model still runs: Of lands 11 rounds after the stimulus
    assert doc["trace_log"]["p6"][14]["props"] == ["Of"]


def test_simulate_unknown_scenario_is_usage_error():
    r = run_cli("simulate", "--scenario", "no_such_scenario")
    assert r.returncode == 64


SCENARIO = {"graph": json.loads(PIPELINE_DOC),
            "stimuli": {"3": ["I0", "I1"]},
            "formula": "G ((I0 & I1) o<=20 Of)", "rounds": 40}
# a delay of 30 at p0, detected at round 14; Of lands at 44
SLOWED_BELT = dict(SCENARIO, rounds=60, faults=[
    {"target": "p0", "kind": "delay", "extra": 30}])


@pytest.mark.parametrize("override, argv, code", [
    ({}, [], 0),
    ({"stimuli": []}, [], 2),
    ({"stimuli": {"3": 5}}, [], 2),
    ({"behaviors": []}, [], 2),
    ({"faults": [{"kind": "drop"}]}, [], 2),
    ({"recoveries": {"drop": {"params": {}}}}, [], 2),
    ({"recoveries": {"drop": {"kind": "reduce_belt_speed",
                              "params": {"factor": "x"}}}}, [], 2),
    ({"faults": [{"target": "p0", "kind": "drop"}],
      "recoveries": {"drop": {"kind": "reduce_belt_speed",
                              "params": {"factor": 1.5}}}}, [], 0),
    # a delay at p0 is detected at round 14, before the deadline, so the
    # recovery would scale the deadline by each of these factors
    ({"faults": [{"target": "p0", "kind": "delay", "extra": 30}],
      "deadline": ["Of", 30],
      "recoveries": {"delay": {"kind": "reduce_belt_speed",
                               "params": {"factor": 1e308}}}}, [], 2),
    ({"faults": [{"target": "p0", "kind": "delay", "extra": 30}],
      "deadline": ["Of", 30],
      "recoveries": {"delay": {"kind": "reduce_belt_speed",
                               "params": {"factor": 0}}}}, [], 2),
    ({"faults": [{"target": "p0", "kind": "delay", "extra": 30}],
      "deadline": ["Of", 30],
      "recoveries": {"delay": {"kind": "reduce_belt_speed",
                               "params": {"factor": -1}}}}, [], 2),
    ({"faults": [{"target": "p0", "kind": "drop", "extra": 5}]}, [], 2),
    # an explicit run length, so no horizon refuses the deadline first
    (dict(SLOWED_BELT, deadline=["Of", 10**330],
          recoveries={"delay": {"kind": "reduce_belt_speed",
                                "params": {"factor": 1.5}}}), [], 2),
    (dict(SLOWED_BELT, deadline=["Of", 30],
          recoveries={"delay": {"kind": "reduce_belt_speed",
                                "params": {"factr": 7}}}), [], 2),
    (dict(SLOWED_BELT, recoveries={"delay": {
        "kind": "eject_to_bin3", "params": {"factor": 2}}}), [], 2),
    (dict(SLOWED_BELT, recoveries={"delay": {
        "kind": "eject_to_bin3", "params": {"variable": "O0"}}}), [], 2),
    ({"behaviors": {"p0": 2.5}}, [], 2),
    ({"rounds": True}, [], 2),
    ({"deadline": 5}, [], 2),
    ({"deadline": ["Of", 30]}, [], 0),
    ({"deadline": [5, 3]}, [], 2),
    ({"deadline": [None, 3]}, [], 2),
    ({"deadline": ["Nope", 3]}, [], 2),
    ({"deadline": ["Of", -3]}, [], 2),
    ({"graph": dict(json.loads(PIPELINE_DOC), environment=5)}, [], 2),
    ({"rounds": -1}, [], 2),
    ({}, ["--rounds", "-1"], 64),
    ({"stimuli": {"3": ["I0", "I9"]}}, [], 2),
    ({"stimuli": {"-2": ["I0", "I1"]}}, [], 2),
    ({"stimuli": {"3": ["I0"], "03": ["I1"]}}, [], 2),
    ({"stimuli": {" 3": ["I0", "I1"]}}, [], 2),
    ({"stimuli": {"+3": ["I0", "I1"]}}, [], 2),
    ({"stimuli": {"1_0": ["I0", "I1"]}}, [], 2),
    ({"stimuli": {"40": ["I0", "I1"]}}, [], 2),
    ({"stimuli": {"50": ["I0", "I1"]}}, [], 2),
    ({"stimuli": {"39": ["I0", "I1"]}}, ["--rounds", "10"], 0),
    ({"trigger_sets": {"p9": [["O0"]]}}, [], 2),
    ({"trigger_sets": {"p2": [["O0", "O9"]]}}, [], 2),
    ({"suppressed_outputs": ["O9"]}, [], 2),
    ({"seed": 3}, [], 2),
    ({"rounds": 4611686018427387904}, [], 2),
    ({"rounds": 18446744073709551616}, [], 2),
    ({"rounds": None, "stimuli": {"4611686018427387904": ["I0", "I1"]}},
     [], 2),
    ({"rounds": None, "behaviors": {"p0": 18446744073709551616}}, [], 2),
    ({}, ["--rounds", "4611686018427387904"], 64),
], ids=["valid", "stimuli-list", "stimulus-not-names", "behaviors-list",
        "fault-without-target", "recovery-without-kind",
        "recovery-factor-text", "recovery-factor-fraction",
        "recovery-factor-huge", "recovery-factor-zero",
        "recovery-factor-negative", "drop-with-extra",
        "deadline-past-ceiling", "recovery-param-misspelt",
        "eject-with-factor", "eject-with-variable",
        "latency-fraction", "rounds-bool", "deadline-number",
        "deadline-valid", "deadline-variable-number", "deadline-variable-null",
        "deadline-variable-unknown", "deadline-negative-round",
        "environment-number", "negative-rounds", "negative-rounds-flag",
        "stimulus-unknown", "stimulus-negative-round",
        "stimulus-round-zero-padded", "stimulus-round-spaced",
        "stimulus-round-signed", "stimulus-round-underscored",
        "stimulus-at-rounds", "stimulus-past-rounds", "rounds-flag-cuts-short",
        "trigger-set-unknown-pid",
        "trigger-set-unknown-variable", "suppressed-output-unknown",
        "seed-key", "rounds-past-ceiling", "rounds-past-64-bits",
        "horizon-of-a-late-stimulus", "horizon-of-a-slow-process",
        "rounds-flag-past-ceiling"])
def test_malformed_scenario_exits_without_traceback(tmp_path, override,
                                                    argv, code):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(SCENARIO, **override)))
    for command in ("simulate", "check"):
        r = run_cli(command, "--scenario", str(path), *argv)
        assert r.returncode == code
        assert "Traceback" not in r.stderr
        if code == 2:
            assert len(r.stderr.splitlines()) == 1


def test_simulate_out_prints_the_verdict_summary(tmp_path):
    out = tmp_path / "run.txt"
    r = run_cli("simulate", "--scenario", "example2", "--fault", "drop@3:p0",
                "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == "verdict: False\ndetection: round 14 by p0\n"
    assert out.read_text().startswith(
        "scenario: example2\nrounds: 33\nverdict: False\n")


@pytest.mark.parametrize("fault, message", [
    ({"target": "nothing", "kind": "drop"},
     "fault target 'nothing' is neither a process nor a variable"),
    ({"target": "O0", "kind": "delay", "extra": 2},
     "delay fault target 'O0' is not a process"),
], ids=["target-unknown", "delay-on-variable"])
def test_fault_on_no_process_is_exit_2(tmp_path, fault, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(SCENARIO, faults=[fault])))
    for command in ("simulate", "check"):
        r = run_cli(command, "--scenario", str(path))
        assert r.returncode == 2
        assert r.stderr == "error: %s\n" % message


CHAIN_SCENARIO = {
    "graph": {"processes": [
        {"pid": "p0", "inputs": ["I0"], "outputs": ["O0"], "cost": 2},
        {"pid": "p1", "inputs": ["O0"], "outputs": ["Of"], "cost": 3}],
        "environment": ["I0"]},
    "stimuli": {"1": ["I0"]}}


def test_a_recovery_without_its_variable_fails_at_load(tmp_path):
    # the recovery would fire only after round 3, so a short run used to
    # pass it by
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(dict(
        CHAIN_SCENARIO, faults=[{"target": "p0", "kind": "drop"}],
        recoveries={"drop": {"kind": "reference_second_sensor"}},
        formula="G (I0 o<=5 Of)", rounds=12)))
    for argv in ([], ["--rounds", "3"]):
        r = run_cli("simulate", "--scenario", str(path), *argv)
        assert r.returncode == 2
        assert r.stderr == ("error: reference_second_sensor needs a "
                            "'variable' parameter\n")


@pytest.mark.parametrize("recoveries, message", [
    ({"drop": {"kind": "reference_second_sensor",
               "params": {"variable": "Nope"}}},
     "reference_second_sensor: 'Nope' is not a variable of the graph"),
    ({"drop": {"kind": "eject_to_bin3"}, "delay@p9": {"kind": "eject_to_bin3"}},
     "recoveries: 'delay@p9' is not a fault kind or KIND@TARGET of a fault "
     "of the scenario"),
], ids=["unknown-variable", "unknown-fault"])
def test_a_recovery_naming_nothing_known_fails_at_load(tmp_path, recoveries,
                                                       message):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(dict(
        CHAIN_SCENARIO, faults=[{"target": "p0", "kind": "drop"}],
        recoveries=recoveries, formula="G (I0 o<=5 Of)")))
    for command in ("check", "simulate"):
        r = run_cli(command, "--scenario", str(path))
        assert (r.returncode, r.stderr) == (2, "error: %s\n" % message)
    # the fault's own KIND@TARGET names it too
    path.write_text(json.dumps(dict(
        CHAIN_SCENARIO, faults=[{"target": "p0", "kind": "drop"}],
        recoveries={"drop@p0": {"kind": "eject_to_bin3"}},
        formula="G (I0 o<=5 Of)")))
    assert run_cli("simulate", "--scenario", str(path)).returncode == 0


def test_a_bad_fault_target_is_reported_before_planning(tmp_path):
    # the budget is infeasible too, but the scenario is checked first
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(
        CHAIN_SCENARIO, faults=[{"target": "nothing", "kind": "drop"}],
        formula="G (I0 o<=2 Of)")))
    for command in ("check", "simulate"):
        r = run_cli(command, "--scenario", str(path))
        assert r.returncode == 2
        assert r.stderr == ("error: fault target 'nothing' is neither a "
                            "process nor a variable\n")


def test_a_scenario_without_rounds_runs_to_its_horizon_everywhere(tmp_path):
    # stimulus 1, then 2 rounds and p1's conjunct (O0 o<=5 Of): O0's
    # completion 2, the bound 5 and one round past it
    path = tmp_path / "norounds.json"
    path.write_text(json.dumps(dict(CHAIN_SCENARIO,
                                    formula="G (I0 o<=5 Of)")))
    r = run_cli("simulate", "--scenario", str(path))
    assert (r.returncode, r.stderr) == (0, "")
    assert "rounds: 11\n" in r.stdout
    result = run_scenario(load_scenario_file(str(path)))
    assert len(result.global_trace) == 11
    # a fault added from the command line counts: a delay's 10 rounds
    r = run_cli("simulate", "--scenario", str(path), "--fault", "delay@0:p0")
    assert (r.returncode, r.stderr) == (0, "")
    assert "rounds: 21\n" in r.stdout


def test_fault_flag_on_a_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    r = run_cli("check", "--scenario", str(path), "--fault", "drop@0")
    assert r.returncode == 64
    assert "needs an explicit target" in r.stderr
    # with a target the fault joins the file's own (none here): the file
    # holds the example2 run, whose builtin fault drops p0 from round 0
    r = run_cli("check", "--scenario", str(path), "--fault", "drop@0:p0")
    builtin = run_cli("check", "--scenario", "example2", "--fault", "drop@3:p0")
    assert r.returncode == builtin.returncode == 0
    assert r.stdout == builtin.stdout
    assert "agree: False; decentralized round 14" in r.stdout


@pytest.mark.parametrize("argv, last_line", [
    (["--scenario", "example2", "--fault", "drop@40:p0"],
     "agree: False; decentralized round 51 <= centralized round 61"),
    (["--scenario", "sorting_line", "--fault", "trigger_failure@25"],
     "agree: False; decentralized round 28 <= centralized round 31"),
])
def test_a_builtin_runs_long_enough_for_a_late_fault(argv, last_line):
    # the stimulus the fault places moves the horizon with it
    r = run_cli("check", *argv)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines()[-1] == last_line


def test_a_sorting_line_fault_takes_no_target():
    r = run_cli("check", "--scenario", "sorting_line", "--fault",
                "trigger_failure@2:NOPE")
    assert (r.returncode, r.stdout) == (64, "")
    assert r.stderr == ("error: --fault on the sorting line takes no target; "
                        "each failure mode fixes its own\n")


# ---------------------------------------------------------------- check


def test_check_agreement_under_fault():
    r = run_cli("check", "--scenario", "example2", "--fault", "drop@3:p0")
    assert r.returncode == 0
    assert ("agree: False; decentralized round 14 <= centralized round 24"
            in r.stdout)


@pytest.mark.parametrize("formula, position", [("F Of", 14),
                                               ("F (O4 & O5)", 10)])
def test_check_confirms_an_eventuality_through_relay_members(formula,
                                                             position):
    # only the group's last member watches; the relays ahead of it have
    # an empty share of the obligation, which counts as refuted
    r = run_cli("check", "--scenario", "example2", "--formula", formula)
    assert r.returncode == 0
    assert r.stdout.splitlines()[1:] == [
        "decentralized: True", "centralized: True at position %d" % position,
        "agree: True"]


def test_check_leaves_an_eventuality_open_when_its_watcher_drops():
    r = run_cli("check", "--scenario", "example2", "--formula", "F Of",
                "--fault", "drop@3:p6")
    assert r.returncode == 0
    assert r.stdout.splitlines()[1:] == [
        "decentralized: Unknown", "centralized: Unknown", "agree: Unknown"]


def test_check_agrees_on_false_decided_before_any_event():
    # the oracle decides before the first event, so it has no position
    r = run_cli("check", "--scenario", "example2", "--formula", "false")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines()[1:] == [
        "decentralized: False at round 0 by p6", "centralized: False",
        "agree: False; decentralized round 0 (centralized before any event)"]
    r = run_cli("check", "--scenario", "example2", "--formula", "false",
                "--format", "json")
    doc = json.loads(r.stdout)
    assert (r.returncode, doc["agree"], doc["centralized_position"]) == (
        0, True, None)


@pytest.mark.parametrize("formula", ["G false", "G (I0 & false)"])
def test_check_watches_an_atom_free_content_with_every_process(formula):
    # the negation's branch content `F true` has no atoms, so no process
    # observes it; every process watches it, as for the formula `false`
    r = run_cli("check", "--scenario", "example2", "--formula", formula)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines()[1:] == [
        "decentralized: False at round 0 by p6",
        "centralized: False at position 0",
        "agree: False; decentralized round 0 <= centralized round 0"]


def test_every_example2_fault_placement_is_decided_on_both_sides(capsys):
    # a drop or delay at any round up to 39 and any process: the run is
    # long enough for the oracle to decide what the monitors detect.  A
    # delay of p1 stays within its slack (O1 at 13 rounds, Of at 17)
    for kind in ("drop", "delay"):
        for rnd in range(40):
            for pid in ["p%d" % i for i in range(7)]:
                argv = ["check", "--scenario", "example2", "--fault",
                        "%s@%d:%s" % (kind, rnd, pid), "--format", "json"]
                assert cli.main(argv) == 0, argv
                doc = json.loads(capsys.readouterr().out)
                verdict = ("Unknown" if (kind, pid) == ("delay", "p1")
                           else "False")
                assert (doc["decentralized"], doc["centralized"]) == (
                    verdict, verdict), argv
    # a formula from the command line sets the length: with a budget of
    # 30 the oracle decides at round 34, past example2's own 33 rounds
    assert cli.main(["check", "--scenario", "example2", "--formula",
                     "G ((I0 & I1) o<=30 Of)", "--fault", "drop@3:p0",
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["detection_round"], doc["centralized_position"]) == (24, 34)
    # the last arrival and the effective deadline fall inside the horizon
    cases = [example2_scenario()]
    cases += [example2_scenario(FaultSpec("p%d" % i, kind, 0, extra))
              for kind, extra in (("drop", 0), ("delay", 10),
                                  ("trigger_failure", 0)) for i in range(7)]
    cases += [build_sorting_line_scenario(token, fault)
              for token in TOKENS for fault in FAULT_NAMES]
    for sc in cases:
        result = run_scenario(sc)
        assert max(result.arrival_rounds.values()) < sc.suggested_rounds
        if result.effective_deadline is not None:
            assert result.effective_deadline < sc.suggested_rounds


def test_check_detects_tampered_verdict():
    r = run_cli("check", "--scenario", "example2", "--tamper-budget", "0=1")
    assert r.returncode == 5
    assert "DISAGREE" in (r.stdout + r.stderr)


def test_check_out_file_is_reproducible(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for out in (out1, out2):
        r = run_cli("check", "--scenario", "example2",
                    "--fault", "drop@3:p0", "--out", str(out))
        assert r.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "agree: False" in out1.read_text()


@pytest.mark.parametrize("argv", [
    ["unwind", "--formula", "G ((I0 & I1) o<=20 Of)", "--graph", "GRAPH"],
    ["unwind", "--formula", "G (I0 & I1)", "--graph", "GRAPH"],
    ["tableau", "--formula", "G ((I0 & I1) o<=20 Of)", "--format", "text"],
    ["group", "--formula", "G ((I0 & I1) o<=20 Of)", "--graph", "GRAPH"],
    ["group", "--formula", "(G (I0 o<=9 O2) | G (I1 o<=3 O1))",
     "--graph", "GRAPH"],
    ["check", "--scenario", "example2", "--fault", "drop@3:p0"],
    ["check", "--scenario", "example2", "--format", "json"],
], ids=["unwind", "unwind-nothing", "tableau-text", "group", "group-split",
        "check", "check-json"])
def test_out_file_holds_the_printed_text(tmp_path, graph_file, argv):
    argv = [graph_file if a == "GRAPH" else a for a in argv]
    printed = run_cli(*argv)
    out = tmp_path / "out.txt"
    written = run_cli(*argv, "--out", str(out))
    assert printed.returncode == written.returncode == 0
    assert (printed.stderr, written.stdout, written.stderr) == ("", "", "")
    assert out.read_text() == printed.stdout


def test_check_needs_a_formula(tmp_path):
    path = tmp_path / "scenario.json"
    doc = dict(SCENARIO)
    del doc["formula"]
    path.write_text(json.dumps(doc))
    r = run_cli("check", "--scenario", str(path))
    assert r.returncode == 64
    assert "scenario carries no end-to-end formula" in r.stderr
    r = run_cli("check", "--scenario", str(path),
                "--formula", SCENARIO["formula"])
    assert r.returncode == 0


def test_check_tamper_index_out_of_range_is_exit_64():
    r = run_cli("check", "--scenario", "example2", "--tamper-budget", "7=1")
    assert r.returncode == 64
    assert r.stderr == ("error: --tamper-budget index 7 out of range "
                        "(7 budget watchers)\n")


@pytest.mark.parametrize("value", ["0=-3", "0=x", "x=1", "1.5=2", "0", "0="])
def test_check_malformed_tamper_budget_is_exit_64(value):
    r = run_cli("check", "--scenario", "example2", "--tamper-budget", value)
    assert r.returncode == 64
    assert r.stderr.endswith("error: argument --tamper-budget: expected "
                             "IDX=VAL, got %r\n" % value)


def test_formula_is_read_from_a_file(tmp_path):
    path = tmp_path / "formula.txt"
    path.write_text("G(a o<=3 b)\n")
    r = run_cli("parse", "--formula", str(path))
    assert r.returncode == 0
    assert r.stdout == "G (a o<=3 b)\n"


# ---------------------------------------------------------------- usage


def test_unknown_subcommand_is_exit_64():
    r = run_cli("frobnicate")
    assert r.returncode == 64


def test_missing_required_argument_is_exit_64():
    r = run_cli("parse")
    assert r.returncode == 64


def test_no_command_is_exit_64():
    r = run_cli()
    assert r.returncode == 64
    assert r.stderr.startswith("usage: costmon")


def test_a_check_keeps_no_formula_node_alive(capsys):
    # with the cycle collector off, a node that some cache ties into a
    # reference cycle would stay in the table
    gc.collect()
    gc.disable()
    try:
        before = len(Formula._interned)
        assert cli.main(["check", "--scenario", "example2"]) == 0
        after = len(Formula._interned)
    finally:
        gc.enable()
    assert after == before
    assert "agree" in capsys.readouterr().out


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    formula = "G (a o<=3 b)"
    assert cli.main(["parse", "--formula", formula, "--format", "json"]) == 0
    assert cli.main(["parse", "--formula", formula]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the first call's options do not carry over into the second
    assert capsys.readouterr().out.endswith("}\n%s\n" % formula)
