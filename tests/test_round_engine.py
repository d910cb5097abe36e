"""The round engine against a naive loop that steps every monitor every
round, and the engine's work against the activity of the run.

``naive_run`` is the reference: every monitor, in list order, takes a
full step in every round and a message reaches its successor's inbox at
once; it reads the global verdict off the monitors' verdicts and builds
the report itself.  The engine visits only the monitors with work, so on
every input it must produce the same report (verdict, detections,
message total and detecting process, known-wrong detections included)
and send the same messages in each round.
"""

import dataclasses
import json

import pytest

from costmon import (
    Eventually,
    FaultSpec,
    Not,
    Verdict,
    build_sorting_line_scenario,
    case_monitors,
    cli,
    example2_scenario,
    make_event,
    parse_formula,
    plan_monitors,
    random_scenario,
    run_scenario,
)
from costmon.runtime import (BudgetWatcher, LocalMonitor, MonitorNetwork,
                             MonitorReport, ResidualWatcher, monitor_round)
from costmon.depgraph import DependencyGraph, Process
from costmon.simulator import Scenario, load_scenario
from costmon.sortingline import FAULT_NAMES, TOKENS

import test_golden_run
from conftest import endpoint_monitors


def naive_verdict(monitors, eventually_rooted=False):
    verdicts = [m.verdict for m in monitors]
    if Verdict.TRUE in verdicts:
        return Verdict.FALSE
    if (eventually_rooted and verdicts
            and all(v is Verdict.FALSE for v in verdicts)):
        return Verdict.TRUE
    return Verdict.UNKNOWN


def naive_run(traces, monitors, eventually_rooted=False, stop_early=False):
    """The report of the naive loop and the messages it sent per round."""
    by_pid = {m.pid: m for m in monitors}
    rounds = len(next(iter(traces.values()))) if traces else 0
    per_round = []
    for rnd in range(rounds):
        sent = 0
        for m in monitors:
            out = m.step(rnd, traces[m.pid][rnd])
            if out:
                succ = by_pid.get(m.successor)
                if succ is not None:
                    succ.inbox.extend(out)
                sent += len(out)
        per_round.append(sent)
        if (stop_early and naive_verdict(monitors, eventually_rooted)
                is not Verdict.UNKNOWN):
            break
    detections = []
    for m in monitors:
        for w in m.watchers:
            if w.verdict is Verdict.TRUE:
                detections.append((w.detection_round, m.pid, w.formula))
    detections.sort(key=lambda d: (d[0], d[1]))
    return MonitorReport(
        global_verdict=naive_verdict(monitors, eventually_rooted),
        detecting_pid=detections[0][1] if detections else None,
        detection_round=detections[0][0] if detections else None,
        rounds_run=len(per_round),
        message_total=sum(per_round),
        detections=tuple(detections)), per_round


def network_run(traces, monitors, eventually_rooted=False):
    """The engine over the same per-process events, stopping as soon as
    the global verdict is decided: its report and the messages it sent
    per round."""
    network = MonitorNetwork(monitors, eventually_rooted=eventually_rooted)
    rounds = len(next(iter(traces.values()))) if traces else 0
    per_round = []
    for rnd in range(rounds):
        sent, verdict = network.round(
            rnd, {pid: t[rnd] for pid, t in traces.items()})
        per_round.append(sent)
        if verdict is not Verdict.UNKNOWN:
            break
    return network.report(len(per_round), sum(per_round)), per_round


def _planned(sc):
    return plan_monitors(sc.formula, sc.graph).fresh_monitors()


def assert_engine_matches_naive(sc, make_monitors):
    """The simulator's report against the naive loop over the same
    per-process events (with recoveries, the events the monitors saw)."""
    rooted = isinstance(sc.formula, Eventually)
    res = run_scenario(sc, monitors=make_monitors(sc))
    traces = res.per_process_traces
    assert res.report == naive_run(traces, make_monitors(sc), rooted)[0]
    # the same events through the engine alone, stopping at a verdict
    assert (network_run(traces, make_monitors(sc), rooted)
            == naive_run(traces, make_monitors(sc), rooted, stop_early=True))
    return res.report


@pytest.mark.parametrize("seed", range(60))
def test_random_scenarios_match_the_naive_loop(seed):
    assert_engine_matches_naive(random_scenario(seed), _planned)


@pytest.mark.parametrize("fault", (None,) + FAULT_NAMES)
@pytest.mark.parametrize("token", TOKENS)
def test_sorting_line_matches_the_naive_loop(token, fault):
    sc = build_sorting_line_scenario(token=token, fault=fault)
    for make in (case_monitors, endpoint_monitors, _planned):
        assert_engine_matches_naive(sc, make)


def test_generated_golden_run_inputs_match_the_naive_loop():
    # staggered stimuli, slow processes, delay faults, recoveries and
    # 150-process chains, where some detections are known to be wrong
    detected = 0
    for doc in test_golden_run._scenarios().values():
        sc = load_scenario(json.dumps(doc))
        report = assert_engine_matches_naive(sc, _planned)
        detected += report.global_verdict is Verdict.FALSE
    assert detected > 0


def test_example2_faults_match_the_naive_loop():
    for pid in ("p0", "p3", "p6"):
        for kind in ("drop", "delay"):
            sc = example2_scenario(fault=FaultSpec(
                pid, kind, 0, extra=4 if kind == "delay" else 0),
                stimulus_round=3)
            assert_engine_matches_naive(sc, _planned)


def _dag_wide(violated):
    """16 sources into a 16-input join, then stacked diamonds, with
    staggered stimuli and a delayed join: the shape of the dag-wide
    benchmark workload.  The last stimulus reaches a source of the
    highest cost, so the anchor completes on the critical path, and both
    branches of a diamond cost the same; the join's delay passes the
    budget's slack when ``violated`` and stays within it otherwise."""
    sources = ["I%d" % i for i in range(16)]
    procs = [Process("s%d" % i, (env,), ("A%d" % i,), 1 + i % 3)
             for i, env in enumerate(sources)]
    procs.append(Process("j", tuple("A%d" % i for i in range(16)), ("B0",),
                         2))
    for k in range(4):
        top, bottom = "B%d" % k, "Of" if k == 3 else "B%d" % (k + 1)
        procs += [Process("l%d" % k, (top,), ("C%d" % k,), 1 + k % 3),
                  Process("r%d" % k, (top,), ("D%d" % k,), 1 + k % 3),
                  Process("m%d" % k, ("C%d" % k, "D%d" % k), (bottom,), 1)]
    g = DependencyGraph(procs, sources)
    slack = 1
    q = g.lb_completion("Of") + slack
    stimuli = {}
    for i, env in enumerate(sources):  # s14 costs 3 and is reached last
        stimuli.setdefault(4 if i == 14 else 1 + i % 3, set()).add(env)
    extra = slack + 2 if violated else slack
    return Scenario(
        graph=g, stimuli={r: frozenset(v) for r, v in stimuli.items()},
        faults=(FaultSpec("j", "delay", 0, extra),),
        formula=parse_formula("G ((%s) o<=%d Of)" % (" & ".join(sources), q)),
        rounds=4 + q + extra + 3)


@pytest.mark.parametrize("violated", (True, False))
def test_a_wide_join_and_stacked_diamonds_match_the_naive_loop(violated):
    report = assert_engine_matches_naive(_dag_wide(violated), _planned)
    assert report.global_verdict is (Verdict.FALSE if violated
                                     else Verdict.UNKNOWN)


def test_monitor_round_replays_like_the_naive_loop():
    # one call per round with every process's event, as a caller that
    # keeps the monitors between rounds does
    for seed in range(20):
        sc = random_scenario(seed)
        traces = run_scenario(sc).per_process_traces
        mons = _planned(sc)
        per_round = []
        for rnd in range(len(next(iter(traces.values())))):
            sent, verdict = monitor_round(
                mons, {pid: t[rnd] for pid, t in traces.items()}, rnd)
            assert verdict is naive_verdict(mons)
            per_round.append(sent)
        report = MonitorNetwork(mons).report(len(per_round), sum(per_round))
        assert (report, per_round) == naive_run(traces, _planned(sc))


def test_monitor_round_raises_for_a_missing_process():
    sc = example2_scenario(stimulus_round=3)
    mons = _planned(sc)
    events = {pid: t[0] for pid, t in
              run_scenario(sc).per_process_traces.items()}
    del events["p4"]
    with pytest.raises(ValueError, match="no event for process p4 in round 0"):
        monitor_round(mons, events, 0)


def test_simulation_rejects_a_monitor_of_an_unknown_process():
    sc = example2_scenario(stimulus_round=3)
    mons = case_monitors(build_sorting_line_scenario())
    with pytest.raises(ValueError, match="no event for process"):
        run_scenario(sc, monitors=mons)


def test_round_work_is_proportional_to_activity(tmp_path, monkeypatch,
                                                 capsys):
    # every process of the chain observes its input and its output once,
    # and its watcher is due when its output lands: two steps per
    # monitor, none in round 0, not one per monitor per round.  The run
    # visits round 0 and the rounds in which a pulse lands or a watcher
    # is due; at the lower-bound budget a watcher is due exactly when its
    # output lands, so those are the stimulus round and each output's
    # round, not all q + 5 rounds
    n, costs = 300, (1, 2, 3)
    procs = [{"pid": "p%d" % i,
              "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
              "outputs": ["Of" if i == n - 1 else "O%d" % i],
              "cost": costs[i % 3]} for i in range(n)]
    q = sum(p["cost"] for p in procs)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "graph": {"processes": procs}, "stimuli": {"1": ["I0"]},
        "formula": "G (I0 o<=%d Of)" % q, "rounds": q + 5}))
    calls, visited = [0], []
    step, round_ = LocalMonitor.step, MonitorNetwork.round

    def counted(self, rnd, event):
        calls[0] += 1
        return step(self, rnd, event)

    def recorded(self, rnd, events):
        visited.append(rnd)
        return round_(self, rnd, events)

    monkeypatch.setattr(LocalMonitor, "step", counted)
    monkeypatch.setattr(MonitorNetwork, "round", recorded)
    assert cli.main(["check", "--scenario", str(path)]) == 0
    assert "agree: Unknown" in capsys.readouterr().out
    assert calls[0] == 2 * n
    lands = [1 + sum(p["cost"] for p in procs[:i + 1]) for i in range(n)]
    assert visited == [0, 1] + lands


def test_an_anchor_without_atoms_activates_in_round_0():
    # true holds on the empty view, so the watcher over (true o<=2 b) is
    # active from round 0 and fires at round 2 with no event at all, as
    # in the naive loop that steps it in every round
    def monitors(sc=None):
        dep = parse_formula("(true o<=2 b)")
        return [LocalMonitor("p0", [BudgetWatcher(Eventually(Not(dep)), dep)],
                             {}, {})]

    traces = {"p0": [make_event(cost=1)] * 4}
    run = network_run(traces, monitors())
    assert run == naive_run(traces, monitors(), stop_early=True)
    report = run[0]
    assert (report.global_verdict, report.detection_round) == (
        Verdict.FALSE, 2)
    sc = dataclasses.replace(example2_scenario(), stimuli={})
    report = assert_engine_matches_naive(sc, monitors)
    assert (report.detection_round, report.detecting_pid) == (2, "p0")


@pytest.mark.parametrize("text, precharge, props, fired", [
    ("(true o<=0 b)", 0, (), 0),  # active from round 0, due at once
    ("(a o<=2 b)", 2, ("a",), 1),  # precharge equal to the bound
    ("(a o<=2 b)", 5, ("a",), 1),  # precharge above the bound
], ids=["atom-free-bound-0", "precharge-at-bound", "precharge-past-bound"])
def test_a_watcher_due_when_it_activates_fires_then(text, precharge, props,
                                                    fired):
    # a is observed in round 1; a watcher whose due round is not after
    # its activation round fires in that round, in the engine as in the
    # naive loop
    def monitors():
        dep = parse_formula(text)
        return [LocalMonitor(
            "p0", [BudgetWatcher(Eventually(Not(dep)), dep, precharge)],
            {}, {})]

    traces = {"p0": [make_event(cost=1), make_event(props, cost=1),
                     make_event(cost=1)]}
    run = network_run(traces, monitors())
    assert run == naive_run(traces, monitors(), stop_early=True)
    report = run[0]
    assert (report.global_verdict, report.detection_round) == (
        Verdict.FALSE, fired)


def test_after_a_round_every_due_round_is_a_later_one(monkeypatch):
    # the run takes its next round from next_due() as it is, so after
    # round(rnd) no monitor may be due in rnd or before
    early = []
    round_ = MonitorNetwork.round

    def checked(self, rnd, events):
        out = round_(self, rnd, events)
        due = self.next_due()
        if due is not None and due <= rnd:
            early.append((rnd, due))
        return out

    monkeypatch.setattr(MonitorNetwork, "round", checked)
    runs = [(random_scenario(seed), _planned) for seed in range(200)]
    runs += [(build_sorting_line_scenario(token=token, fault=fault), make)
             for token in TOKENS for fault in (None,) + FAULT_NAMES
             for make in (case_monitors, _planned)]
    runs += [(example2_scenario(fault=FaultSpec("p%d" % i, "drop", 0)),
              _planned) for i in range(7)]
    runs.append((dataclasses.replace(
        example2_scenario(), formula=parse_formula("F (O2 & O5)")), _planned))
    residual = 0
    for sc, make in runs:
        mons = make(sc)
        residual += any(isinstance(w, ResidualWatcher)
                        for m in mons for w in m.watchers)
        run_scenario(sc, monitors=mons)
    assert residual > 0
    assert early == []


def test_all_refuted_conjuncts_confirm_an_eventuality_rooted_property():
    # the count of refuted monitors must reach the total: every monitor
    # progresses G !a, which a refutes
    def monitors():
        return [LocalMonitor(pid, [ResidualWatcher(parse_formula("G !a"))],
                             {}, {})
                for pid in ("p0", "p1")]

    idle, seen = make_event(cost=1), make_event(("a",), cost=1)
    traces = {"p0": [idle, seen, idle, idle], "p1": [idle, idle, seen, idle]}
    for root, verdict in ((parse_formula("F a"), Verdict.TRUE),
                          (parse_formula("G a"), Verdict.UNKNOWN)):
        rooted = isinstance(root, Eventually)
        run = network_run(traces, monitors(), rooted)
        assert run == naive_run(traces, monitors(), rooted, stop_early=True)
        report = run[0]
        assert report.global_verdict is verdict
        assert report.rounds_run == (3 if rooted else 4)


# ---------------------------------------------------------------------------
# the engine's shape: a forwarding monitor is directly followed by its
# successor, so a message goes to the next monitor in the same round


def test_synthesized_monitor_lists_have_their_successors_next():
    forwarding = 0
    scenarios = [random_scenario(seed) for seed in range(60)]
    scenarios += [load_scenario(json.dumps(doc))
                  for doc in test_golden_run._scenarios().values()]
    scenarios += [build_sorting_line_scenario(token) for token in TOKENS]
    for sc in scenarios:
        mons = _planned(sc)
        for m, nxt in zip(mons, mons[1:] + [None]):
            if m.successor is not None:
                assert nxt is not None and nxt.pid == m.successor, m.pid
                forwarding += 1
        MonitorNetwork(mons)  # and the engine accepts the list
    assert forwarding > 0


def _relay(pid, successor=None):
    return LocalMonitor(pid, [], {"a": 0}, {0: "a"},
                        group_atoms=frozenset(["a"]), successor=successor)


@pytest.mark.parametrize("pids, successors", [
    (("p0", "p1", "p2"), ("p2", "p2", None)),  # successor two places on
    (("p1", "p0"), (None, "p1")),  # successor earlier in the list
    (("p0", "p1"), ("p0", None)),  # its own successor
    (("p0",), ("p1",)),  # successor missing
], ids=["skips-one", "earlier", "itself", "missing"])
def test_network_rejects_a_successor_that_does_not_follow(pids, successors):
    mons = [_relay(pid, succ) for pid, succ in zip(pids, successors)]
    with pytest.raises(ValueError, match="forwards to .*does not follow"):
        MonitorNetwork(mons)


def test_a_message_reaches_the_next_monitor_in_the_same_round():
    mons = [_relay("p0", "p1"), _relay("p1")]
    network = MonitorNetwork(mons)
    sent, _ = network.round(0, {"p0": make_event(("a",), cost=1)})
    assert sent == 1
    assert mons[1].latched == {"a"} and mons[1].inbox == []


def test_a_name_heard_and_observed_in_one_round_is_latched_once():
    # p1 hears a from p0 and observes a itself in the same round: it
    # latches a once and forwards it once, as in the naive loop
    mons = [_relay("p0", "p1"), _relay("p1", "p2"), _relay("p2")]
    event = make_event(("a",), cost=1)
    sent, _ = MonitorNetwork(mons).round(0, {"p0": event, "p1": event})
    assert sent == 2
    assert [m.latched for m in mons] == [{"a"}] * 3
    assert mons[1].step(1, event) == []  # nothing new to forward
