"""Decentralized monitor execution against the centralized oracle."""

import pytest

from costmon import (
    Eventually,
    FaultSpec,
    Not,
    Verdict,
    evaluate_trace,
    evaluate_trace_with_position,
    example2_scenario,
    load_graph,
    make_event,
    plan_monitors,
    parse_formula,
    random_scenario,
    run_scenario,
    synthesize_monitors,
)
from costmon.runtime import BudgetWatcher, LocalMonitor, MonitorNetwork

from conftest import CHAIN_DOC

U, T, F = Verdict.UNKNOWN, Verdict.TRUE, Verdict.FALSE


def monitors_for(formula_text, graph):
    plan = plan_monitors(parse_formula(formula_text), graph)
    return plan, synthesize_monitors(plan.groups, plan.assignment,
                                     plan.index_table, graph=graph)


# ---------------------------------------------------------------------------
# synthesis shape

def test_pipeline_gets_one_monitor_per_process(pipeline, phi_pipeline):
    plan = plan_monitors(phi_pipeline, pipeline)
    mons = synthesize_monitors(plan.groups, plan.assignment, plan.index_table,
                               graph=pipeline)
    assert [m.pid for m in mons] == ["p0", "p1", "p2", "p3", "p4", "p5", "p6"]


def test_process_without_a_conjunct_gets_no_monitor():
    chain = load_graph(CHAIN_DOC)
    _, mons = monitors_for("G (I0 o<=5 O0)", chain)
    assert [m.pid for m in mons] == ["p0"]


def test_shared_group_members_carry_the_same_formula():
    chain = load_graph(CHAIN_DOC)
    plan, mons = monitors_for("!O0", chain)
    assert len(plan.groups) == 1
    assert len({m.group_atoms for m in mons}) == 1
    assert [m.pid for m in mons] == list(plan.groups[0].members)


# ---------------------------------------------------------------------------
# the stalled-producer arithmetic

def test_stalled_source_detected_eleven_rounds_after_activation():
    sc = example2_scenario(fault=FaultSpec("p0", "drop", 0), stimulus_round=3)
    rep = run_scenario(sc).report
    assert rep.global_verdict is F
    assert rep.detecting_pid == "p0"
    assert rep.detection_round == 14  # activation at 3 + local budget 11
    assert rep.detections[0][2] == parse_formula("F (!(I0 o<=11 O0))")


def test_detection_beats_the_centralized_observer():
    sc = example2_scenario(fault=FaultSpec("p0", "drop", 0), stimulus_round=3)
    res = run_scenario(sc)
    verdict, pos = evaluate_trace_with_position(sc.formula, res.global_trace)
    assert (verdict, pos) == (F, 24)
    assert res.report.detection_round == 14 <= pos


def test_sink_fault_detected_by_the_sink():
    sc = example2_scenario(fault=FaultSpec("p6", "drop", 0), stimulus_round=3)
    res = run_scenario(sc)
    rep = res.report
    assert rep.global_verdict is F
    assert rep.detecting_pid == "p6"
    _, pos = evaluate_trace_with_position(sc.formula, res.global_trace)
    assert rep.detection_round == 23 <= pos == 24


def test_budget_watcher_steps_only_when_its_input_or_due_round_comes():
    # the watcher reads its activation and its due round; the rounds
    # before and in between cost it nothing, round 0 included
    sc = example2_scenario(fault=FaultSpec("p0", "drop", 0), stimulus_round=3)
    mons = plan_monitors(sc.formula, sc.graph).fresh_monitors()
    (p0,) = [m for m in mons if m.pid == "p0"]
    (w,) = p0.watchers
    rounds = []
    step = w.step
    w.step = lambda rnd, latched: (rounds.append(rnd), step(rnd, latched))
    res = run_scenario(sc, monitors=mons)
    assert rounds == [3, 14] == [3, res.report.detection_round]
    assert p0.verdict is T


@pytest.mark.parametrize("b_with_a", [True, False],
                         ids=["right-latched-first", "discharged"])
def test_a_watcher_whose_right_operand_latched_stays_unknown(b_with_a):
    # a latches in round 2, b with it or (after the due round 2 + 5 was
    # set) in round 4; latched sets only grow, so no later step can fire
    dep = parse_formula("(a o<=5 b)")
    w = BudgetWatcher(Eventually(Not(dep)), dep)
    w.step(2, frozenset({"a", "b"} if b_with_a else {"a"}))
    assert w.due == (None if b_with_a else 7)
    for rnd in (4, 5, 7, 8, 1000):
        w.step(rnd, frozenset({"a", "b"}))
        assert (w.verdict, w.due, w.detection_round) == (U, None, None)


def test_nominal_run_stays_unknown():
    sc = example2_scenario(stimulus_round=3)
    rep = run_scenario(sc).report
    assert rep.global_verdict is U
    assert rep.detection_round is None
    # the horizon: stimulus 3, two rounds, then p6's conjunct waits for O4
    # and O5 (7 rounds), its budget 20 and one more round
    assert rep.rounds_run == sc.suggested_rounds == 3 + 2 + 7 + 20 + 1


# ---------------------------------------------------------------------------
# rounds, messages, aggregation

def test_empty_traces_resolve_immediately(pipeline, phi_pipeline):
    plan = plan_monitors(phi_pipeline, pipeline)
    mons = synthesize_monitors(plan.groups, plan.assignment, plan.index_table,
                               graph=pipeline)
    rep = MonitorNetwork(mons).report(0, 0)
    assert rep.global_verdict is U
    assert rep.rounds_run == 0


def test_singleton_groups_never_talk():
    sc = example2_scenario(fault=FaultSpec("p0", "drop", 0), stimulus_round=3)
    rep = run_scenario(sc).report
    assert rep.message_total == 0


def test_shared_group_announces_resolved_values_downstream():
    chain = load_graph(CHAIN_DOC)
    _, mons = monitors_for("!O0", chain)
    network = MonitorNetwork(mons)
    sent, verdict = network.round(0, {"p0": make_event(props=("O0",), cost=1),
                                      "p1": make_event(cost=1),
                                      "p2": make_event(cost=1)})
    assert verdict is F
    assert sent == 2
    rep = network.report(1, sent)
    assert rep.global_verdict is F
    assert rep.detecting_pid == "p2"  # last in the relay order confirms
    assert (rep.rounds_run, rep.message_total) == (1, 2)


def _verdict_of(verdicts, eventually_rooted=False):
    monitors = []
    for i, v in enumerate(verdicts):
        m = LocalMonitor("p%d" % i, [], {}, {})
        m.verdict = v
        monitors.append(m)
    network = MonitorNetwork(monitors, eventually_rooted=eventually_rooted)
    return network.verdict


def test_aggregation_table():
    assert _verdict_of([U, T]) is F
    assert _verdict_of([U, U]) is U
    assert _verdict_of([F, F]) is U
    assert _verdict_of([F, F], eventually_rooted=True) is T
    assert _verdict_of([], eventually_rooted=True) is U


class _Watcher:
    """A watcher with a fixed verdict and due round."""

    def __init__(self, verdict, due=None):
        self.verdict, self.due = verdict, due

    def step(self, rnd, latched):
        pass


@pytest.mark.parametrize("verdicts, verdict", [
    ((T,), T), ((F, T), T), ((U, T, F), T),  # any True watcher
    ((F,), F), ((F, F), F), ((), F),  # all False, or a relay
    ((U,), U), ((F, U), U), ((U, F, F), U)])  # any other mix
def test_a_monitor_combines_its_watchers_verdicts(verdicts, verdict):
    m = LocalMonitor("p0", [_Watcher(v) for v in verdicts], {}, {})
    assert m.verdict is verdict
    m.step(0, make_event(cost=1))
    assert m.verdict is verdict


@pytest.mark.parametrize("dues, next_due", [
    ((7, None, 3, 5), 3), ((None, 4), 4), ((None, None), None), ((), None)])
def test_a_monitor_is_next_due_when_its_earliest_pending_watcher_is(
        dues, next_due):
    # round 0 included: a monitor is first due when that watcher is
    m = LocalMonitor("p0", [_Watcher(U, d) for d in dues], {}, {})
    assert m._next_due == next_due
    m.step(0, make_event(cost=1))
    assert m._next_due == next_due


def test_a_relay_is_refuted_from_the_start(pipeline):
    # F Of: p0-p5 only forward, p6 progresses G !Of for the whole group
    _, mons = monitors_for("F Of", pipeline)
    assert [bool(m.watchers) for m in mons] == [False] * 6 + [True]
    assert [m.verdict for m in mons] == [F] * 6 + [U]
    network = MonitorNetwork(mons, eventually_rooted=True)
    assert network.verdict is U
    network.round(0, {"p6": make_event(("Of",), cost=1)})
    assert network.verdict is T


# ---------------------------------------------------------------------------
# contract checks

def test_reports_are_reproducible():
    runs = [run_scenario(example2_scenario(fault=FaultSpec("p3", "drop", 0),
                                           stimulus_round=3)).report
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_random_scenarios_agree_with_the_oracle():
    # small-scale version of the acceptance sweep
    for seed in range(20):
        sc = random_scenario(seed)
        res = run_scenario(sc)
        rep = res.report
        merged = res.global_trace
        if rep.global_verdict in (T, F):
            assert evaluate_trace(sc.formula, merged) is rep.global_verdict
        if rep.global_verdict is F:
            _, pos = evaluate_trace_with_position(sc.formula, merged)
            assert rep.detection_round <= pos
