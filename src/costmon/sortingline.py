"""Colored-token sorting line: a belt camera triggers per-color classify,
eject, and arrival confirmation stages, each guarded by a budgeted watcher
at the process that can observe it.

The published per-watcher budget table is kept verbatim as
``PUBLISHED_BOUNDS``; the overall arrival watchers run with the bound of
the end-to-end property itself (one step larger), which is the loosest
setting under which a nominal token never raises an alarm.  A token run
deploys only the matching color family; the classifier of the other color
stays silent, so the confirmation stage starts on whichever ejector
reports first.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .depgraph import DependencyGraph, load_graph
from .formulas import Formula, parse_formula
from .simulator import FaultSpec, RecoveryAction, Scenario

SORTING_LINE_GRAPH_JSON = """{
  "processes": [
    {"pid": "TD", "inputs": ["LS1", "SC"], "outputs": ["T_CS", "SC_CP"],
     "cost": 1},
    {"pid": "WCP", "inputs": ["T_CS"], "outputs": ["CV_W"], "cost": 1},
    {"pid": "BCP", "inputs": ["T_CS"], "outputs": ["CV_B"], "cost": 1},
    {"pid": "WBR", "inputs": ["T_CS", "CV_W", "SC_CP"], "outputs": ["E_W"],
     "cost": 1},
    {"pid": "BBR", "inputs": ["T_CS", "CV_B", "SC_CP"], "outputs": ["E_B"],
     "cost": 1},
    {"pid": "EC", "inputs": ["LS1", "SC", "E_W", "E_B", "LS2"],
     "outputs": ["A_W", "A_B"], "cost": 1}
  ],
  "environment": ["LS1", "SC", "LS2"]
}"""

TOKENS = ("white", "blue")
FAULT_NAMES = ("trigger_failure", "lost_step_count", "classify_delay",
               "eject_delay", "arrival_failure")

# published budgets; the arrival/overall rows are one unit tighter than
# what the end-to-end property allows and would alarm on nominal runs,
# so the deployed watchers widen exactly those two
PUBLISHED_BOUNDS = {
    "trigger": 1,
    "step_count": 2,
    "w_classify": 2, "w_eject": 2, "w_arrival": 4, "w_overall": 4,
    "b_classify": 2, "b_eject": 2, "b_arrival": 5, "b_overall": 5,
}

DELAY_EXTRA = 5


def sorting_line_graph() -> DependencyGraph:
    return load_graph(SORTING_LINE_GRAPH_JSON)


def _white_specs() -> Tuple[Tuple[str, str, Formula], ...]:
    return (
        ("trigger", "TD", parse_formula("G ((LS1 & SC) o<=1 T_CS)")),
        ("step_count", "TD", parse_formula("G ((LS1 & SC) o<=2 SC_CP)")),
        ("w_classify", "WBR", parse_formula("G (T_CS o<=2 CV_W)")),
        ("w_eject", "WBR", parse_formula("G ((CV_W & SC_CP) o<=2 E_W)")),
        ("w_arrival", "EC", parse_formula("G ((LS1 & SC) o<=5 A_W)")),
    )


def _blue_specs() -> Tuple[Tuple[str, str, Formula], ...]:
    return (
        ("trigger", "TD", parse_formula("G ((LS1 & SC) o<=1 T_CS)")),
        ("step_count", "TD", parse_formula("G ((LS1 & SC) o<=2 SC_CP)")),
        ("b_classify", "BBR", parse_formula("G (T_CS o<=2 CV_B)")),
        ("b_eject", "BBR", parse_formula("G ((CV_B & SC_CP) o<=2 E_B)")),
        ("b_arrival", "EC", parse_formula("G ((LS1 & SC) o<=6 A_B)")),
    )


def _fault_plan(name: str, token: str,
                specs: Dict[str, Formula]) -> Tuple[FaultSpec, RecoveryAction]:
    """The five known failure modes, mapped onto drop and delay primitives,
    each paired with the watcher designated to catch it and the recovery
    the line takes on that watcher's report."""
    white = token == "white"
    if name == "trigger_failure":
        return (FaultSpec("T_CS", "trigger_failure", 0),
                RecoveryAction("eject_to_bin3", trigger=specs["trigger"]))
    if name == "lost_step_count":
        return (FaultSpec("SC_CP", "drop", 0),
                RecoveryAction("reference_second_sensor",
                               trigger=specs["step_count"],
                               params=(("variable", "SC_CP"),)))
    if name == "classify_delay":
        pid = "WCP" if white else "BCP"
        key = "w_classify" if white else "b_classify"
        return (FaultSpec(pid, "delay", 0, extra=DELAY_EXTRA),
                RecoveryAction("reduce_belt_speed", trigger=specs[key]))
    if name == "eject_delay":
        pid = "WBR" if white else "BBR"
        key = "w_eject" if white else "b_eject"
        return (FaultSpec(pid, "delay", 0, extra=DELAY_EXTRA),
                RecoveryAction("reduce_belt_speed", trigger=specs[key]))
    if name == "arrival_failure":
        var = "A_W" if white else "A_B"
        key = "w_arrival" if white else "b_arrival"
        return (FaultSpec(var, "drop", 0),
                RecoveryAction("eject_to_bin3", trigger=specs[key]))
    raise ValueError("unknown fault %r; known: %s"
                     % (name, ", ".join(FAULT_NAMES)))


def build_sorting_line_scenario(token: str = "white",
                                fault: Optional[str] = None,
                                stimulus_round: int = 2,
                                rounds: int = 20) -> Scenario:
    """Scenario for one token run.  fault is one of the five failure mode
    names or None for the nominal run."""
    if token not in TOKENS:
        raise ValueError("token must be one of %s" % (TOKENS,))
    g = sorting_line_graph()
    s = stimulus_round
    white = token == "white"
    specs = _white_specs() if white else _blue_specs()
    by_name = {name: f for name, _, f in specs}
    arrival_var = "A_W" if white else "A_B"
    overall_bound = 5 if white else 6
    faults: Tuple[FaultSpec, ...] = ()
    recoveries: Dict[str, RecoveryAction] = {}
    if fault is not None:
        f, action = _fault_plan(fault, token, by_name)
        faults = (f,)
        recoveries = {f.key: action}
    suppressed = frozenset(("CV_B", "A_B") if white else ("CV_W", "A_W"))
    return Scenario(
        graph=g,
        behaviors={p.pid: p.cost for p in g.processes},
        stimuli={s: frozenset(["LS1", "SC", "LS2"])},
        faults=faults,
        recoveries=recoveries,
        formula=parse_formula("G ((LS1 & SC) o<=%d %s)"
                              % (overall_bound, arrival_var)),
        suggested_rounds=rounds,
        suppressed_outputs=suppressed,
        trigger_sets={"EC": (frozenset(["LS1", "SC", "LS2", "E_W"]),
                             frozenset(["LS1", "SC", "LS2", "E_B"]))},
        deadline=(arrival_var, s + 8),
        monitor_specs=specs)
