"""Scenario generation, the conveyor case, and trace plumbing."""

import dataclasses
import json
import random
import time
import tracemalloc

import pytest

from costmon import (
    FaultSpec,
    Verdict,
    atoms,
    build_sorting_line_scenario,
    cli,
    evaluate_trace_with_position,
    example2_scenario,
    latched,
    load_scenario,
    make_event,
    parse_formula,
    random_scenario,
    run_scenario,
)
from costmon.depgraph import DependencyGraph, Process
from costmon.formulas import Event
from costmon.simulator import (RecoveryAction, Scenario, _build_random,
                               horizon, run_simulation)
from costmon.sortingline import FAULT_NAMES, PUBLISHED_BOUNDS, TOKENS
from costmon.unwinding import InfeasibleConstraintError

import test_golden_run
from conftest import endpoint_monitors, first_pulses


# ---------------------------------------------------------------------------
# the global trace against the per-process traces

def _runs():
    yield run_scenario(example2_scenario(
        fault=FaultSpec("p0", "delay", 0, 10), stimulus_round=3))
    for seed in range(30):
        yield run_scenario(random_scenario(seed))


def test_global_trace_spans_every_local_round():
    for res in _runs():
        assert res.global_trace
        assert {len(t) for t in res.per_process_traces.values()} \
            == {len(res.global_trace)}


def test_global_trace_unions_local_props_at_unit_cost():
    # one global tick per round, whatever the local costs were
    for res in _runs():
        traces = list(res.per_process_traces.values())
        for k, event in enumerate(res.global_trace):
            assert event.props == frozenset().union(*(t[k].props for t in traces))
            assert event.cost == 1


# ---------------------------------------------------------------------------
# the latched view the centralized oracle reads

def test_latched_view_holds_every_proposition_seen_so_far():
    rng = random.Random(5)
    for _ in range(300):
        trace = [make_event(rng.sample("abcd", rng.randint(0, 2)),
                            rng.randint(0, 2))
                 for _ in range(rng.randint(0, 8))]
        view = latched(trace)
        assert len(view) == len(trace)
        for k, event in enumerate(view):
            assert event.props == frozenset().union(
                *(e.props for e in trace[:k + 1]))
            assert event.cost == trace[k].cost


def test_oracle_verdict_reads_only_the_formulas_atoms():
    # check latches the global trace restricted to the formula's atoms;
    # the verdict and its position must be those of the full view
    scenarios = [random_scenario(seed) for seed in range(60)]
    scenarios += [load_scenario(json.dumps(doc))
                  for doc in test_golden_run._scenarios().values()]
    scenarios += [build_sorting_line_scenario(token, fault)
                  for token in TOKENS for fault in (None,) + FAULT_NAMES]
    decided = 0
    for sc in scenarios:
        trace = run_scenario(sc).global_trace
        names = atoms(sc.formula)
        full = evaluate_trace_with_position(sc.formula, latched(trace))
        restricted = evaluate_trace_with_position(sc.formula, latched(
            Event(e.props & names, e.cost) for e in trace))
        assert restricted == full
        decided += full[0] is not Verdict.UNKNOWN
    assert decided > 0


def test_check_on_a_thousand_process_chain_stays_small(tmp_path, capsys):
    # the run keeps one trace and the oracle latches only the formula's
    # atoms, so the peak is far below the P x R events of per-process
    # traces or a latched view of every variable
    n = 1000
    costs = [1 + i % 3 for i in range(n)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "graph": {"processes": [
            {"pid": "p%d" % i, "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
             "outputs": ["Of" if i == n - 1 else "O%d" % i], "cost": c}
            for i, c in enumerate(costs)], "environment": ["I0"]},
        "stimuli": {"1": ["I0"]},
        "faults": [{"target": "p%d" % (n // 3), "kind": "delay",
                    "extra": 2}],
        "formula": "G (I0 o<=%d Of)" % sum(costs),
        "rounds": sum(costs) + 6}))
    tracemalloc.start()
    try:
        code = cli.main(["check", "--scenario", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "agree: False" in capsys.readouterr().out
    assert peak <= 16 * 2**20


# ---------------------------------------------------------------------------
# scenario validation

def test_fault_kinds_are_checked():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("p0", "teleport", 0)
    with pytest.raises(ValueError, match="extra > 0"):
        FaultSpec("p0", "delay", 0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        FaultSpec("p0", "drop", -1)
    for kind in ("drop", "trigger_failure"):
        with pytest.raises(ValueError, match="takes no 'extra'"):
            FaultSpec("p0", kind, 0, 5)


def test_a_belt_slowdown_never_moves_the_deadline_back_or_past_a_run():
    for factor in (1, 1.5, 100_000):
        RecoveryAction("reduce_belt_speed", params=(("factor", factor),))
    for factor in (0, 0.5, -1, 100_001, 1e308, float("nan")):
        with pytest.raises(ValueError, match="'factor' must be 1 to 100000"):
            RecoveryAction("reduce_belt_speed", params=(("factor", factor),))


def test_behavior_cannot_undercut_process_cost():
    sc = example2_scenario(stimulus_round=3)
    with pytest.raises(ValueError, match="latency 1 of p0 below its lower bound 2"):
        dataclasses.replace(sc, behaviors={**sc.behaviors, "p0": 1})


def test_replace_checks_the_scenario_again():
    with pytest.raises(ValueError, match="fault target 'nothing' is "
                                         "neither a process nor a variable"):
        dataclasses.replace(example2_scenario(),
                            faults=(FaultSpec("nothing", "drop"),))


def test_a_checked_scenario_is_read_only():
    behaviors = {"p0": 3}
    sc = dataclasses.replace(example2_scenario(), behaviors=behaviors)
    for name in ("stimuli", "behaviors", "recoveries", "trigger_sets"):
        with pytest.raises(TypeError):
            getattr(sc, name)["p0"] = 0
    # the scenario holds a copy: changing the dict it was built from
    # changes nothing it runs
    behaviors["p0"] = 0
    assert dict(sc.behaviors) == {**sc.behaviors} == {"p0": 3}
    moved = dataclasses.replace(sc, behaviors={**sc.behaviors, "p1": 4})
    assert moved.behaviors == {"p0": 3, "p1": 4}
    assert first_pulses(run_scenario(sc))["O0"] == 3 + 3


def test_a_second_sensor_recovery_names_its_variable():
    with pytest.raises(ValueError, match="reference_second_sensor needs a "
                                         "'variable' parameter"):
        RecoveryAction("reference_second_sensor")


# ---------------------------------------------------------------------------
# scenario documents

def scenario_doc(graph_spec):
    return {"graph": graph_spec,
            "stimuli": {"2": ["I0"]},
            "formula": "G (I0 o<=9 Of)",
            "rounds": 12}


CHAIN_SPEC = {"processes": [
    {"pid": "p0", "inputs": ["I0"], "outputs": ["O0"], "cost": 2},
    {"pid": "p1", "inputs": ["O0"], "outputs": ["Of"], "cost": 3},
]}


def test_scenario_document_round_trip():
    sc = load_scenario(json.dumps(scenario_doc(CHAIN_SPEC)))
    assert sc.suggested_rounds == 12
    assert sc.stimuli == {2: frozenset({"I0"})}
    res = run_scenario(sc)
    assert res.report.global_verdict is Verdict.UNKNOWN
    assert first_pulses(res) == {"I0": 2, "O0": 4, "Of": 7}


def test_a_process_that_needs_no_input_starts_in_round_0():
    # round 0 tries the processes with an empty trigger set: p0 has no
    # inputs, and p1 may also start on none; p2 waits for its input
    g = DependencyGraph((Process("p0", (), ("O0",), 2),
                         Process("p1", ("O0",), ("O1",), 1),
                         Process("p2", ("O1",), ("Of",), 1)), ())
    sc = Scenario(graph=g, stimuli={}, rounds=6,
                  trigger_sets={"p1": (frozenset(), frozenset(["O0"]))})
    assert first_pulses(run_scenario(sc)) == {"O0": 2, "O1": 1, "Of": 2}


def test_a_scenario_without_rounds_runs_to_its_horizon():
    # stimulus 2, then 2 rounds and p1's conjunct (O0 o<=9 Of): O0's
    # completion 2, the bound 9 and one round past it
    doc = scenario_doc(CHAIN_SPEC)
    del doc["rounds"]
    sc = load_scenario(json.dumps(doc))
    assert (sc.rounds, sc.suggested_rounds, horizon(sc)) == (None, 16, 16)
    assert len(run_scenario(sc).global_trace) == 16
    # latency above cost and a delay fault's extra rounds add to it, and
    # a later deadline takes over
    slow = dataclasses.replace(sc, behaviors={"p0": 5},
                               faults=(FaultSpec("p1", "delay", 0, 4),))
    assert slow.suggested_rounds == 16 + 3 + 4
    assert dataclasses.replace(sc, deadline=("Of", 30)).suggested_rounds == 31
    # without a formula, the latest completion of a dependent variable
    bare = dataclasses.replace(sc, formula=None)
    assert bare.suggested_rounds == 2 + 2 + 5
    # the horizon is worked out when it is read, and a given length is a
    # cap that unwinds nothing: an infeasible budget fails the horizon only
    tight = dataclasses.replace(sc, formula=parse_formula("G (I0 o<=1 Of)"))
    assert dataclasses.replace(tight, rounds=3).suggested_rounds == 3
    with pytest.raises(InfeasibleConstraintError):
        tight.suggested_rounds
    # a recovery is not counted: a belt slowed threefold at detection
    # (round 11) moves the deadline from 30 to 68, so at the horizon the
    # dropped output is still due, and a run to 69 rounds finds it missed
    slowed = dataclasses.replace(
        sc, faults=(FaultSpec("p1", "drop", 0),), deadline=("Of", 30),
        recoveries={"drop": RecoveryAction("reduce_belt_speed",
                                           params=(("factor", 3),))})
    result = run_scenario(slowed)
    assert (slowed.suggested_rounds, result.effective_deadline,
            result.outcome) == (31, 68, "pending")
    assert run_scenario(slowed, 69).outcome == "missed"


def test_scenario_graph_may_live_in_a_file(tmp_path):
    (tmp_path / "g.json").write_text(json.dumps(CHAIN_SPEC))
    sc = load_scenario(json.dumps(scenario_doc("g.json")),
                       base_dir=str(tmp_path))
    assert [p.pid for p in sc.graph.processes] == ["p0", "p1"]


def test_scenario_rejects_unknown_keys():
    doc = scenario_doc(CHAIN_SPEC)
    doc["bogus"] = 1
    with pytest.raises(ValueError, match="unknown scenario keys.*bogus"):
        load_scenario(json.dumps(doc))


def test_scenario_rejects_non_integer_stimulus_round():
    doc = scenario_doc(CHAIN_SPEC)
    doc["stimuli"] = {"soon": ["I0"]}
    with pytest.raises(ValueError, match="not an integer"):
        load_scenario(json.dumps(doc))


# ---------------------------------------------------------------------------
# random scenarios

def test_random_scenarios_are_reproducible():
    a, b = random_scenario(7), random_scenario(7)
    assert a.graph.processes == b.graph.processes
    assert a.formula == b.formula
    assert a.stimuli == b.stimuli and a.faults == b.faults


def test_random_scenarios_respect_their_limits():
    for seed in range(200):
        sc = random_scenario(seed)
        g = sc.graph
        sink = g.processes[-1]
        assert 2 <= len(g.processes) <= 6
        assert sc.suggested_rounds <= 20 and sc.rounds is None
        assert len(sc.stimuli) == 1 and not sc.behaviors
        assert [f.kind for f in sc.faults] in ([], ["drop"])
        assert [p.pid for p in g.processes if p.outputs[0] not in
                {v for q in g.processes for v in q.inputs}] == [sink.pid]
        for p in g.processes:
            assert 1 <= p.cost <= 3
            assert len(p.inputs) <= (4 if p is sink else 3)


def test_the_last_random_draw_fits_without_a_check():
    # the third draw of random_scenario: at most 4 processes of cost 1,
    # slack at most 1 and the stimulus at round 0
    for n in (2, 3, 4):
        assert max(_build_random(random.Random(seed), n, 1, 1, 0)
                   .suggested_rounds for seed in range(2000)) <= 11


# ---------------------------------------------------------------------------
# the conveyor line

WHITE_MATRIX = [
    ("trigger_failure", 3, "TD", "ejected_bin3", "eject_to_bin3"),
    ("lost_step_count", 4, "TD", "sorted", "reference_second_sensor"),
    ("classify_delay", 5, "WBR", "sorted", "reduce_belt_speed"),
    ("eject_delay", 6, "WBR", "sorted", "reduce_belt_speed"),
    ("arrival_failure", 7, "EC", "ejected_bin3", "eject_to_bin3"),
]


def test_nominal_white_token_sorts():
    res = run_scenario(build_sorting_line_scenario(token="white"))
    assert res.report.global_verdict is Verdict.UNKNOWN
    assert res.outcome == "sorted"
    assert res.recovery_log == ()
    assert first_pulses(res) == {"LS1": 2, "LS2": 2, "SC": 2, "SC_CP": 3,
                                 "T_CS": 3, "CV_W": 4, "E_W": 5, "A_W": 6}


@pytest.mark.parametrize("fault,rnd,pid,outcome,action", WHITE_MATRIX)
def test_white_fault_detection_and_recovery(fault, rnd, pid, outcome, action):
    res = run_scenario(build_sorting_line_scenario(token="white", fault=fault))
    rep = res.report
    assert rep.global_verdict is Verdict.FALSE
    assert (rep.detection_round, rep.detecting_pid) == (rnd, pid)
    assert res.outcome == outcome
    assert len(res.recovery_log) == 1
    log_round, _, recovery, trigger = res.recovery_log[0]
    assert log_round == rnd
    assert recovery.kind == action
    # the monitor that fired is the one wired to this fault's recovery
    assert rep.detections[0][2] == trigger


@pytest.mark.parametrize("fault,rnd", [
    ("trigger_failure", 3), ("lost_step_count", 4), ("classify_delay", 5),
    ("eject_delay", 6), ("arrival_failure", 8),
])
def test_blue_token_detection_rounds(fault, rnd):
    res = run_scenario(build_sorting_line_scenario(token="blue", fault=fault))
    assert res.report.detection_round == rnd


def test_belt_slowdown_stretches_the_deadline():
    # detection at r with deadline d leaves d - r rounds, doubled by the
    # slower belt: 5 + 2 * (10 - 5) = 15 and 6 + 2 * (10 - 6) = 14
    for fault, eff in (("classify_delay", 15), ("eject_delay", 14)):
        res = run_scenario(build_sorting_line_scenario(token="white", fault=fault))
        assert res.effective_deadline == eff
    nominal = run_scenario(build_sorting_line_scenario(token="white"))
    assert nominal.effective_deadline == 10


def test_watcher_rows_take_the_published_bounds():
    # every deployed row runs with its published bound, save the arrival
    # row, which is one unit wider: the end-to-end property's own bound
    for token in TOKENS:
        sc = build_sorting_line_scenario(token)
        rows = {row: f.sub.bound for row, _, f in sc.monitor_specs}
        arrival = token[0] + "_arrival"
        assert rows == {row: PUBLISHED_BOUNDS[row] + (row == arrival)
                        for row in rows}
        assert set(rows) == {"trigger", "step_count", token[0] + "_classify",
                             token[0] + "_eject", arrival}
        overall = PUBLISHED_BOUNDS[token[0] + "_overall"]
        assert sc.formula.sub.bound == overall + 1


def test_delayed_classification_still_arrives():
    res = run_scenario(build_sorting_line_scenario(token="white",
                                                   fault="classify_delay"))
    assert first_pulses(res)["CV_W"] == 9  # nominal 4 plus the injected 5


def test_second_sensor_replaces_the_lost_count():
    res = run_scenario(build_sorting_line_scenario(token="white",
                                                   fault="lost_step_count"))
    hits = [i for i, ev in enumerate(res.global_trace) if "SC_CP" in ev.props]
    assert hits == [res.report.detection_round + 1]
    assert res.outcome == "sorted"


def test_endpoint_only_monitor_detects_later():
    for token, rnd in (("white", 7), ("blue", 8)):
        sc = build_sorting_line_scenario(token=token, fault="trigger_failure")
        rep = run_simulation(sc, None, endpoint_monitors(sc)).report
        assert (rep.detection_round, rep.detecting_pid) == (rnd, "EC")
        integrated = run_scenario(sc).report
        assert integrated.detection_round < rnd


def test_thousand_process_chain_simulates_in_time_linear_in_events():
    # each round looks only at the processes a new arrival can start and
    # at the events that carry a proposition
    n = 1000
    procs = [Process("p%d" % i, ("I0" if i == 0 else "O%d" % (i - 1),),
                     ("O%d" % i,), 1 + i % 3) for i in range(n)]
    sc = Scenario(graph=DependencyGraph(procs),
                  behaviors={p.pid: p.cost for p in procs},
                  stimuli={1: frozenset(["I0"])})
    done = 1 + sum(p.cost for p in procs)
    start = time.perf_counter()
    res = run_simulation(sc, done + 3, [])
    elapsed = time.perf_counter() - start
    assert first_pulses(res)["O%d" % (n - 1)] == done
    assert len(res.global_trace) == done + 3
    assert elapsed < 3.0
