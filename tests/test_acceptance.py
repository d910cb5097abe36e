"""Acceptance gate for the shipped claims.

Each test covers one claim end to end and prints a single PASS/FAIL line,
so a full run reads as an eight-line report.  Timing bounds are asserted
with the same clock the line reports.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from costmon import (
    And,
    Atom,
    FaultSpec,
    Globally,
    QDep,
    Verdict,
    build_sorting_line_scenario,
    build_tableau,
    evaluate_trace,
    evaluate_trace_with_position,
    example2_scenario,
    latched,
    make_event,
    parse_formula,
    plan_monitors,
    progress,
    random_scenario,
    run_scenario,
    terminal_node,
    unwind,
)
from costmon.formulas import FalseF, TrueF
from costmon.sortingline import PUBLISHED_BOUNDS

from conftest import endpoint_monitors
from oracles import (
    BARE_START,
    GLOBALLY_START,
    canon,
    pair_verdict_bare,
    pair_verdict_globally,
    step_bare,
    step_globally,
    tableau_paths,
    verdict_bare,
    verdict_globally,
)

U, T, F = Verdict.UNKNOWN, Verdict.TRUE, Verdict.FALSE


@contextmanager
def criterion(label: str, budget: float = None):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError("%s: took %.1fs, budget %.0fs"
                                 % (label, elapsed, budget))
    except BaseException:
        print("%s ... FAIL" % label)
        raise
    print("%s ... PASS (%.2fs)" % (label, elapsed))


def dep(text: str) -> QDep:
    return parse_formula("(%s)" % text)


# ---------------------------------------------------------------------------
# shared 200-scenario corpus; built once, timed inside the first claim
# that uses it

_corpus = []


def corpus():
    if not _corpus:
        for seed in range(200):
            sc = random_scenario(seed)
            res = run_scenario(sc)
            merged = latched(res.global_trace)
            _corpus.append((sc, res, merged))
    return _corpus


# ---------------------------------------------------------------------------
# 1: local budget synthesis on the seven-process pipeline

def test_budget_synthesis_exact(pipeline, phi_pipeline):
    with criterion("[1/8] local budget synthesis, exact integers", budget=1.0):
        u = unwind(phi_pipeline, pipeline)
        got = {(d.left, d.right): d.bound
               for _, d in u.entries}
        assert got == {
            (Atom("I0"), Atom("O0")): 11,
            (Atom("I1"), Atom("O1")): 16,
            (Atom("O0"), Atom("O2")): 12,
            (Atom("O0"), Atom("O3")): 13,
            (Atom("O2"), Atom("O4")): 16,
            (Atom("O3"), Atom("O5")): 16,
            (And(Atom("O1"), And(Atom("O4"), Atom("O5"))), Atom("Of")): 20,
        }


# ---------------------------------------------------------------------------
# 2: grouping yields seven singleton monitors with the expected formulas

def test_grouping_rows(pipeline, phi_pipeline):
    with criterion("[2/8] seven singleton monitor groups"):
        plan = plan_monitors(phi_pipeline, pipeline)
        rows = [(g.members, g.formula) for g in plan.groups]
        assert rows == [
            (("p0",), parse_formula("F (!(I0 o<=11 O0))")),
            (("p1",), parse_formula("F (!(I1 o<=16 O1))")),
            (("p2",), parse_formula("F (!(O0 o<=12 O2))")),
            (("p3",), parse_formula("F (!(O0 o<=13 O3))")),
            (("p4",), parse_formula("F (!(O2 o<=16 O4))")),
            (("p5",), parse_formula("F (!(O3 o<=16 O5))")),
            (("p6",), parse_formula("F (!((O1 & (O4 & O5)) o<=20 Of))")),
        ]


# ---------------------------------------------------------------------------
# 3: tableau golden shapes

def test_tableau_goldens():
    with criterion("[3/8] tableau golden shapes"):
        bs = tableau_paths(build_tableau(parse_formula("p & (q | r)")))
        assert [b.outcome for b in bs] == ["ticked", "ticked"]
        assert {frozenset(a.name for a in b.nodes[-1].label) for b in bs} \
            == {frozenset({"p", "q"}), frozenset({"p", "r"})}

        [b] = tableau_paths(build_tableau(parse_formula("G p")))
        assert b.outcome == "ticked"
        assert b.nodes[-1].rule == "LOOP"

        [b] = tableau_paths(build_tableau(parse_formula("G ((a & b) o<=5 c)")))
        assert b.outcome == "ticked"
        assert [n.rule for n in b.nodes] == ["G", "X", "G", "LOOP"]
        assert set(terminal_node(b.leaf)) \
            == {parse_formula("((a & b) o<=5 c)")}


# ---------------------------------------------------------------------------
# 4: the stalled-source arithmetic

def test_early_detection_bound():
    with criterion("[4/8] stalled source detected at activation + 11"):
        sc = example2_scenario(fault=FaultSpec("p0", "drop", 0),
                               stimulus_round=3)
        rep = run_scenario(sc).report
        assert rep.global_verdict is F
        assert rep.detecting_pid == "p0"
        assert rep.detection_round == 3 + 11


# ---------------------------------------------------------------------------
# 5: rewriting preserves trace verdicts across the random corpus

def test_unwinding_preserves_verdicts():
    with criterion("[5/8] original vs rewritten formula, 200 scenarios",
                   budget=30.0):
        disagreements = 0
        for sc, _, merged in corpus():
            a = evaluate_trace(sc.formula, merged)
            b = evaluate_trace(unwind(sc.formula, sc.graph).formula, merged)
            if a is not b:
                disagreements += 1
        assert disagreements == 0


# ---------------------------------------------------------------------------
# 6: decentralized verdicts are sound and never later than centralized

def test_decentralized_soundness_and_earliness():
    with criterion("[6/8] decentralized sound, detection never later"):
        violations = 0
        for sc, res, merged in corpus():
            rep = res.report
            if rep.global_verdict not in (T, F):
                continue
            if evaluate_trace(sc.formula, merged) is not rep.global_verdict:
                violations += 1
            if rep.global_verdict is F:
                _, pos = evaluate_trace_with_position(sc.formula, merged)
                if rep.detection_round > pos:
                    violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# 7: the conveyor case study

CASE_MATRIX = {
    # fault -> token -> (round, pid, outcome, recovery kind)
    "trigger_failure": {"white": (3, "TD", "ejected_bin3", "eject_to_bin3"),
                        "blue": (3, "TD", "ejected_bin3", "eject_to_bin3")},
    "lost_step_count": {"white": (4, "TD", "sorted", "reference_second_sensor"),
                        "blue": (4, "TD", "sorted", "reference_second_sensor")},
    "classify_delay": {"white": (5, "WBR", "sorted", "reduce_belt_speed"),
                       "blue": (5, "BBR", "sorted", "reduce_belt_speed")},
    "eject_delay": {"white": (6, "WBR", "sorted", "reduce_belt_speed"),
                    "blue": (6, "BBR", "sorted", "reduce_belt_speed")},
    "arrival_failure": {"white": (7, "EC", "ejected_bin3", "eject_to_bin3"),
                        "blue": (8, "EC", "ejected_bin3", "eject_to_bin3")},
}


def test_conveyor_case_study():
    with criterion("[7/8] conveyor faults: detection, recovery, earliness"):
        assert PUBLISHED_BOUNDS == {
            "trigger": 1, "step_count": 2,
            "w_classify": 2, "w_eject": 2, "w_arrival": 4, "w_overall": 4,
            "b_classify": 2, "b_eject": 2, "b_arrival": 5, "b_overall": 5,
        }
        for fault, per_token in CASE_MATRIX.items():
            for token, (rnd, pid, outcome, kind) in per_token.items():
                sc = build_sorting_line_scenario(token=token, fault=fault)
                res = run_scenario(sc)
                rep = res.report
                assert rep.global_verdict is F, (fault, token)
                assert (rep.detection_round, rep.detecting_pid) == (rnd, pid)
                assert res.outcome == outcome
                [(log_round, _, recovery, trigger)] = res.recovery_log
                assert log_round == rnd
                assert recovery.kind == kind
                assert rep.detections[0][2] == trigger
                base = run_scenario(sc, monitors=endpoint_monitors(sc)).report
                assert base.detecting_pid == "EC"
                if fault == "arrival_failure":
                    # watching only the end-to-end formulas is exactly as
                    # fast for an arrival fault
                    assert rep.detection_round == base.detection_round
                else:
                    assert rep.detection_round < base.detection_round


# ---------------------------------------------------------------------------
# 8: progression agrees with the brute-force pair oracle
#
# Two layers.  First an exhaustive product walk: progression residuals
# (keyed by a canonical form) are run in lockstep with the incremental
# pair oracle over every event type, to trace depth 6.  A trace's verdict
# depends only on the state it reaches, and every state reachable within
# six steps is visited and checked, so agreement here covers all of the
# 12^6 traces.  Second, a literal sweep to length 4 compares
# evaluate_trace itself against the positional pair scan, tying the
# walked machinery to the public entry point.

EVENTS = [make_event(props=p, cost=c)
          for p in [(), ("a",), ("b",), ("a", "b")]
          for c in (0, 1, 2)]


def _verdict_of(residual):
    if isinstance(residual, TrueF):
        return T
    if isinstance(residual, FalseF):
        return F
    return U


def _variants():
    for left_names in (("a",), ("b",), ("a", "b")):
        left_formula = Atom(left_names[0])
        for name in left_names[1:]:
            left_formula = And(left_formula, Atom(name))
        for q in (0, 1, 2, 4):
            for wrapped in (True, False):
                yield frozenset(left_names), left_formula, q, wrapped


def test_progression_matches_pair_oracle():
    with criterion("[8/8] progression vs pair oracle, exhaustive to depth 6",
                   budget=60.0):
        for left, left_formula, q, wrapped in _variants():
            d = QDep(left_formula, Atom("b"), q)
            if wrapped:
                f = Globally(d)
                ostart, ostep, over = (GLOBALLY_START, step_globally,
                                       verdict_globally)
            else:
                f = d
                ostart, ostep, over = BARE_START, step_bare, verdict_bare
            start = (canon(f)[0], ostart)
            reps = {start: (f, ostart)}
            frontier = [start]
            assert _verdict_of(f) == over(ostart)
            for _ in range(6):
                fresh = []
                for key in frontier:
                    residual, ostate = reps[key]
                    for ev in EVENTS:
                        r2 = progress(residual, ev)
                        o2 = ostep(ostate, ev.props, ev.cost, left, "b", q)
                        assert _verdict_of(r2) == over(o2), (f, ev)
                        k2 = (canon(r2)[0], o2)
                        if k2 not in reps:
                            reps[k2] = (canon(r2)[1], o2)
                            fresh.append(k2)
                frontier = fresh

        for left, left_formula, q, wrapped in _variants():
            d = QDep(left_formula, Atom("b"), q)
            f = Globally(d) if wrapped else d
            oracle = pair_verdict_globally if wrapped else pair_verdict_bare
            for n in range(5):
                for tr in itertools.product(EVENTS, repeat=n):
                    trace = list(tr)
                    assert (evaluate_trace(f, trace)
                            is oracle(trace, left, "b", q)), (f, trace)
