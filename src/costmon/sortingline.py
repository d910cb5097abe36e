"""Colored-token sorting line: a belt camera triggers per-color classify,
eject, and arrival confirmation stages, each guarded by a budgeted watcher
at the process that can observe it.

The published per-watcher budget table is kept verbatim as
``PUBLISHED_BOUNDS``, and each deployed watcher row reads its bound from
it.  Only the arrival watchers run one step wider, with the bound of the
end-to-end property itself, which is the loosest setting under which a
nominal token never raises an alarm.  A token run deploys only the
matching color family; the classifier of the other color stays silent,
so the confirmation stage starts on whichever ejector reports first.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .depgraph import DependencyGraph, load_graph
from .formulas import parse_formula
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


# one color family's watcher table: (row, watching pid, formula); {c} and
# {C} stand for the token color's initial, lower and upper case
_WATCHER_ROWS = (
    ("trigger", "TD", "G ((LS1 & SC) o<={bound} T_CS)"),
    ("step_count", "TD", "G ((LS1 & SC) o<={bound} SC_CP)"),
    ("{c}_classify", "{C}BR", "G (T_CS o<={bound} CV_{C})"),
    ("{c}_eject", "{C}BR", "G ((CV_{C} & SC_CP) o<={bound} E_{C})"),
    ("{c}_arrival", "EC", "G ((LS1 & SC) o<={bound} A_{C})"),
)

# the five known failure modes, mapped onto drop and delay primitives:
# fault -> (target, kind, recovery, watcher row designated to catch it)
_FAULT_PLANS = {
    "trigger_failure": ("T_CS", "trigger_failure", "eject_to_bin3",
                        "trigger"),
    "lost_step_count": ("SC_CP", "drop", "reference_second_sensor",
                        "step_count"),
    "classify_delay": ("{C}CP", "delay", "reduce_belt_speed",
                       "{c}_classify"),
    "eject_delay": ("{C}BR", "delay", "reduce_belt_speed", "{c}_eject"),
    "arrival_failure": ("A_{C}", "drop", "eject_to_bin3", "{c}_arrival"),
}
FAULT_NAMES = tuple(_FAULT_PLANS)


def _watcher_rows(color: Dict[str, str]) -> tuple:
    """One color family's watcher table, each bound read from
    ``PUBLISHED_BOUNDS`` and the arrival row's one unit wider."""
    out = []
    for row, pid, text in _WATCHER_ROWS:
        row = row.format(**color)
        bound = PUBLISHED_BOUNDS[row] + row.endswith("_arrival")
        out.append((row, pid.format(**color),
                    parse_formula(text.format(bound=bound, **color))))
    return tuple(out)


def build_sorting_line_scenario(token: str = "white",
                                fault: Optional[str] = None,
                                stimulus_round: int = 2) -> Scenario:
    """Scenario for one token run, run to its horizon.  fault is one of
    the five failure modes, or None for the nominal run."""
    if token not in TOKENS:
        raise ValueError("token must be one of %s" % (TOKENS,))
    color = {"c": token[0], "C": token[0].upper()}
    specs = _watcher_rows(color)
    by_name = {name: f for name, _, f in specs}
    faults: Tuple[FaultSpec, ...] = ()
    recoveries: Dict[str, RecoveryAction] = {}
    if fault is not None:
        if fault not in _FAULT_PLANS:
            raise ValueError("unknown fault %r; known: %s"
                             % (fault, ", ".join(FAULT_NAMES)))
        target, kind, recovery, row = (
            x.format(**color) for x in _FAULT_PLANS[fault])
        # the second sensor stands in for the variable that went missing
        params = ((("variable", target),)
                  if recovery == "reference_second_sensor" else ())
        f = FaultSpec(target, kind, 0,
                      extra=DELAY_EXTRA if kind == "delay" else 0)
        faults = (f,)
        recoveries = {f.key: RecoveryAction(recovery, trigger=by_name[row],
                                            params=params)}
    return Scenario(
        graph=sorting_line_graph(),
        stimuli={stimulus_round: frozenset(["LS1", "SC", "LS2"])},
        faults=faults,
        recoveries=recoveries,
        # the end-to-end property is the arrival watcher's own formula
        formula=by_name[token[0] + "_arrival"],
        suppressed_outputs=frozenset(("CV_B", "A_B") if token == "white"
                                     else ("CV_W", "A_W")),
        trigger_sets={"EC": (frozenset(["LS1", "SC", "LS2", "E_W"]),
                             frozenset(["LS1", "SC", "LS2", "E_B"]))},
        deadline=("A_" + color["C"], stimulus_round + 8),
        monitor_specs=specs)
