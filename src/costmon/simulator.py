"""Synchronous discrete-event simulator with fault injection and recovery.

A process starts the round all of its inputs have arrived and emits its
outputs a fixed number of rounds later (its latency, never below its
declared lower-bound cost).  One round accrues one cost unit on a shared
clock.  Faults drop or postpone emissions; recovery actions fire when the
designated watcher reports a violation and mutate the remaining run.

A run visits round 0 and each round in which a stimulus, an emission or
an injected variable lands or a monitor is due.  Skipping the others is
exact: nothing arrives in them, so no process starts and no monitor
steps; each records the idle event and no message, and the verdict that
recovery reads stays as it was.  Round 0 tries only the processes with
an empty trigger set, since an arrival adds the processes it can start.
"""

from __future__ import annotations

import json
import os
import random
import re
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from .depgraph import DependencyGraph, Process, graph_from_doc, load_graph
from .formulas import (
    Atom,
    Event,
    Eventually,
    Formula,
    Globally,
    QDep,
    atoms,
    conj,
    negate,
    parse_formula,
    subformula_index,
)
from .grouping import assign_conjuncts, organize_groups
from .runtime import (
    IDLE,
    BudgetWatcher,
    LocalMonitor,
    MonitorNetwork,
    MonitorReport,
    V_FALSE,
    V_TRUE,
    synthesize_monitors,
)
from .tableau import build_tableau
from .unwinding import extract_qdep, unwind

FAULT_KINDS = ("drop", "delay", "trigger_failure")
# recovery kind -> the parameters it reads
RECOVERY_KINDS = {"eject_to_bin3": (),
                  "reference_second_sensor": ("variable",),
                  "reduce_belt_speed": ("factor",)}
# the longest run, given or derived; every idle round is kept in the trace
MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class FaultSpec:
    target: str  # pid or variable
    kind: str
    at_round: int = 0
    extra: int = 0  # additional rounds, delay only

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r" % self.kind)
        if self.at_round < 0:
            raise ValueError("at_round must be non-negative")
        if self.kind == "delay" and self.extra <= 0:
            raise ValueError("delay needs extra > 0")
        if self.kind != "delay" and self.extra != 0:
            raise ValueError("a %s fault takes no 'extra'" % self.kind)

    @property
    def key(self) -> str:
        return "%s@%s" % (self.kind, self.target)


@dataclass(frozen=True)
class RecoveryAction:
    kind: str
    trigger: Optional[Formula] = None  # designated sub-formula; None = any
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kind not in RECOVERY_KINDS:
            raise ValueError("unknown recovery kind %r" % self.kind)
        for k, _ in self.params:
            if k not in RECOVERY_KINDS[self.kind]:
                raise ValueError("%s reads no parameter %r" % (self.kind, k))
        factor = self.param("factor", 2)
        # a whole number keeps the slowed deadline a whole round, and one
        # below 1 would move it back
        if type(factor) is not int or not 1 <= factor <= MAX_ROUNDS:
            raise ValueError("recovery 'factor' must be a whole number 1 to "
                             "%d, not %r" % (MAX_ROUNDS, factor))
        if not isinstance(self.param("variable", ""), str):
            raise ValueError("recovery 'variable' must be a name")
        if (self.kind == "reference_second_sensor"
                and self.param("variable") is None):
            raise ValueError("%s needs a 'variable' parameter" % self.kind)

    def param(self, name: str, default=None):
        for k, v in self.params:
            if k == name:
                return v
        return default


@dataclass(frozen=True)
class Scenario:
    """A run of the process model, checked against its graph when built:
    files, builtins and ``dataclasses.replace`` all pass these checks, so
    no run meets an invalid scenario.  The mapping fields are kept as
    read-only views over copies, so what was checked is what runs.
    Raises ValueError."""
    graph: DependencyGraph
    stimuli: Mapping[int, frozenset]  # round -> environment variables pulsing
    # pid -> latency rounds, >= declared cost (unlisted: declared cost)
    behaviors: Mapping[str, int] = field(default_factory=dict)
    faults: Tuple[FaultSpec, ...] = ()
    recoveries: Mapping[str, RecoveryAction] = field(default_factory=dict)
    formula: Optional[Formula] = None
    rounds: Optional[int] = None  # a cap; None: run to the horizon
    # variables a colorway never emits (classifier stays silent on the
    # other color) and alternative start conditions (a process that goes
    # on whichever of several input sets completes first)
    suppressed_outputs: frozenset = frozenset()
    trigger_sets: Mapping[str, Tuple[frozenset, ...]] = field(
        default_factory=dict)
    deadline: Optional[Tuple[str, int]] = None  # (variable, round)
    monitor_specs: Tuple[Tuple[str, str, Formula], ...] = ()

    def __post_init__(self):
        for name in ("stimuli", "behaviors", "recoveries", "trigger_sets"):
            object.__setattr__(self, name,
                               MappingProxyType(dict(getattr(self, name))))
        g = self.graph
        variables = g.environment | g.dependent
        for rnd, names in self.stimuli.items():
            if rnd < 0:
                raise ValueError("stimulus round must be non-negative, got %d"
                                 % rnd)
            if self.rounds is not None and rnd >= self.rounds:  # never run
                raise ValueError("stimulus round %d is not below 'rounds' %d"
                                 % (rnd, self.rounds))
            _known(names, "stimuli", g.environment, "an environment variable")
        for pid, latency in self.behaviors.items():
            p = g.by_pid.get(pid)
            if p is None:
                raise ValueError("behavior for unknown process %r" % pid)
            if latency < p.cost:
                raise ValueError("latency %d of %s below its lower bound %d"
                                 % (latency, pid, p.cost))
        for f in self.faults:
            if f.target not in variables and f.target not in g.by_pid:
                raise ValueError("fault target %r is neither a process nor "
                                 "a variable" % f.target)
            if f.kind == "delay" and f.target not in g.by_pid:
                raise ValueError("delay fault target %r is not a process"
                                 % f.target)
        if self.deadline is not None and self.deadline[0] not in variables:
            raise ValueError("the deadline variable %r is not a variable "
                             "of the graph" % self.deadline[0])
        if self.deadline is not None and not (
                0 <= self.deadline[1] <= MAX_ROUNDS):
            raise ValueError("deadline round must be 0 to %d, not %d"
                             % (MAX_ROUNDS, self.deadline[1]))
        for pid, sets in self.trigger_sets.items():
            if pid not in g.by_pid:
                raise ValueError("trigger sets for unknown process %r" % pid)
            for names in sets:
                _known(names, "trigger_sets", variables,
                       "a variable of the graph")
        _known(self.suppressed_outputs, "suppressed_outputs", g.dependent,
               "produced by a process")
        # a recovery answers a fault kind, or KIND@TARGET of one fault
        _known(self.recoveries, "recoveries",
               {k for f in self.faults for k in (f.kind, f.key)},
               "a fault kind or KIND@TARGET of a fault of the scenario")
        for action in self.recoveries.values():
            if action.kind == "reference_second_sensor":
                _known([action.param("variable")], action.kind, variables,
                       "a variable of the graph")
            # a trigger over a name the run never has would never fire
            if action.trigger is not None:
                _known(atoms(action.trigger), "recovery trigger", variables,
                       "a variable of the graph")
        if self.rounds is not None:  # a given length is checked here
            self.suggested_rounds

    def recovery(self, fault: FaultSpec) -> Optional[RecoveryAction]:
        """What ``fault`` fires: the recovery for its KIND@TARGET, else for
        its kind, or None."""
        return self.recoveries.get(fault.key, self.recoveries.get(fault.kind))

    @property
    def suggested_rounds(self) -> int:
        """``rounds``, or else the horizon; ValueError past MAX_ROUNDS."""
        rounds = horizon(self) if self.rounds is None else self.rounds
        if not 0 <= rounds <= MAX_ROUNDS:
            raise ValueError("a run takes 0 to %d rounds, not %d"
                             % (MAX_ROUNDS, rounds))
        return rounds


def horizon(scenario: Scenario) -> int:
    """The rounds that decide every verdict on the run: the last stimulus,
    2, the slowdown (latency above cost, delays' extra) and the longest
    wait: the formula atoms' completion (without a formula, the dependent
    variables') or, for each dependency and each conjunct unwound from it,
    its anchor's completion plus its bound plus 1; or the deadline + 1.
    Recoveries are not counted: a slowed belt moves the deadline, and a
    second sensor or a trigger set can start a process late."""
    g, f = scenario.graph, scenario.formula
    names = g.dependent if f is None else atoms(f)
    deps = [] if f is None else (
        extract_qdep(f) + [dep for _, dep in unwind(f, g).entries])
    wait = max([g.lb_completion(*names)] + [
        g.lb_completion(*atoms(d.left)) + d.bound + 1 for d in deps])
    slowdown = sum(latency - g.by_pid[pid].cost
                   for pid, latency in scenario.behaviors.items())
    slowdown += sum(x.extra for x in scenario.faults if x.kind == "delay")
    end = max(scenario.stimuli, default=0) + 2 + slowdown + wait
    return max(end, scenario.deadline[1] + 1) if scenario.deadline else end


def _known(names, what: str, known, kind: str) -> None:
    """Raises naming the least of ``names`` not in ``known``, if any."""
    unknown = sorted(set(names).difference(known))
    if unknown:
        raise ValueError("%s: %r is not %s" % (what, unknown[0], kind))


@dataclass(frozen=True)
class SimulationResult:
    graph: DependencyGraph
    global_trace: Tuple[Event, ...]
    report: MonitorReport
    recovery_log: Tuple[Tuple[int, FaultSpec, RecoveryAction, Formula], ...]
    # ejected_bin3, or for a deadline sorted, missed or pending (the run
    # ended before the deadline round, which the variable may still meet)
    outcome: Optional[str] = None
    effective_deadline: Optional[int] = None

    @cached_property
    def per_process_traces(self) -> Dict[str, Tuple[Event, ...]]:
        """What each process observed, per round: the round's pulses
        within its alphabet.  Derived from the global trace on first
        read, since the run itself keeps only that."""
        traces = {}
        for pid in sorted(self.graph.by_pid):
            alphabet = self.graph.by_pid[pid].alphabet
            traces[pid] = tuple(Event(e.props & alphabet, 1)
                                if not e.props.isdisjoint(alphabet) else IDLE
                                for e in self.global_trace)
        return traces


def latched(trace: Iterable[Event]) -> Tuple[Event, ...]:
    """View where every proposition stays true once seen.  Dependency
    anchors whose parts arrive in different rounds only close under this
    view, so the centralized oracle evaluates it.  Each round's event
    holds every proposition seen up to it, at the round's cost."""
    out: List[Event] = []
    seen: frozenset = frozenset()
    for e in trace:
        seen = seen | e.props
        out.append(Event(seen, e.cost))
    return tuple(out)


@dataclass(frozen=True)
class MonitorPlan:
    graph: DependencyGraph
    groups: tuple
    assignment: Dict[str, Formula]
    index_table: Dict[Formula, int]

    def fresh_monitors(self) -> List[LocalMonitor]:
        return synthesize_monitors(
            list(self.groups), self.assignment, self.index_table, self.graph)


def plan_monitors(f: Formula, graph: DependencyGraph) -> MonitorPlan:
    """Full pipeline: unwind, negate, tableau, group, assign."""
    negated = negate(unwind(f, graph).formula)
    root = build_tableau(negated)
    groups = organize_groups(root, graph)
    assignment = assign_conjuncts(groups, graph)
    index_table = subformula_index(negated)
    return MonitorPlan(graph, tuple(groups), assignment, index_table)


def run_simulation(scenario: Scenario, rounds: Optional[int],
                   monitors: Sequence[LocalMonitor],
                   root: Optional[Formula] = None) -> SimulationResult:
    """Drives the process model and the monitors in lockstep for
    ``rounds`` (None: ``suggested_rounds``).  The run is never cut short
    by a verdict: detection triggers recovery and the physical outcome of
    the remaining rounds is part of the result.  It raises ValueError
    when the monitors do not fit the graph (one watches a process the
    graph lacks, or a forwarding monitor is not followed by its
    successor) or the run would pass ``MAX_ROUNDS``."""
    graph = scenario.graph
    rounds = scenario.suggested_rounds if rounds is None else rounds
    network = MonitorNetwork(monitors, eventually_rooted=isinstance(
        scenario.formula if root is None else root, Eventually))
    if rounds > 0:
        network.check_pids(graph.by_pid, 0)

    # variable -> first suppressed round; a variable the scenario never
    # emits is suppressed from round 0
    drop_from = dict.fromkeys(scenario.suppressed_outputs, 0)
    delays: Dict[str, List[FaultSpec]] = defaultdict(list)  # pid -> delays
    for f in scenario.faults:
        if f.kind in ("drop", "trigger_failure"):
            proc = graph.by_pid.get(f.target)
            for v in proc.outputs if proc else (f.target,):
                drop_from[v] = min(drop_from.get(v, f.at_round), f.at_round)
        elif f.kind == "delay":
            delays[f.target].append(f)

    # per-run tables, read in the round loop: each process's latency and
    # start sets, and the alphabet of each monitored process (no other
    # process's event is read)
    by_pid = graph.by_pid
    pids = sorted(by_pid)
    latency = {pid: scenario.behaviors.get(pid, p.cost)
               for pid, p in by_pid.items()}
    triggers = {pid: scenario.trigger_sets.get(
                    pid, (frozenset(by_pid[pid].inputs),))
                for pid in pids}
    starters: Dict[str, List[str]] = {}  # variable -> processes it can start
    for pid in pids:
        for var in frozenset().union(*triggers[pid]):
            starters.setdefault(var, []).append(pid)
    # the processes that need no input, the only ones no arrival starts
    unfed = {pid for pid in pids if frozenset() in triggers[pid]}
    alphabet = {m.pid: by_pid[m.pid].alphabet for m in monitors
                if m.pid in by_pid}
    observers = graph.observers

    arrived: Dict[str, int] = {}
    have = arrived.keys()
    started: Set[str] = set()
    # round -> variables that pulse in it (no suppressed emission); a
    # round leaves it when visited, and every write is to a later round
    landing = defaultdict(set, {r: set(names)
                                for r, names in scenario.stimuli.items()})
    recovered: Set[int] = set()
    recovery_log: List[Tuple[int, FaultSpec, RecoveryAction, Formula]] = []
    ejected = False
    deadline_var, deadline_round = scenario.deadline or (None, None)

    global_trace: List[Event] = []
    messages = 0

    rnd = 0
    while rnd < rounds:
        pulses: Set[str] = landing.pop(rnd, set())
        # a newly arrived variable can start a process, and so can round 0
        # one that needs no input; starts cascade within the round so
        # zero-latency chains resolve
        fresh = [var for var in pulses if var not in arrived]
        candidates = set(unfed) if rnd == 0 else set()
        while fresh or candidates:
            for var in fresh:
                arrived[var] = rnd
                candidates.update(starters.get(var, ()))
            fresh = []
            candidates -= started
            for pid in sorted(candidates):
                for needed in triggers[pid]:
                    if needed <= have:
                        break
                else:
                    continue
                started.add(pid)
                # each delay fault active by the start adds its rounds
                lat = latency[pid] + sum(f.extra for f in delays.get(pid, ())
                                         if f.at_round <= rnd)
                for var in by_pid[pid].outputs:
                    if drop_from.get(var, rounds) <= rnd + lat:
                        continue
                    if lat > 0:
                        landing[rnd + lat].add(var)
                    else:
                        pulses.add(var)
                        if var not in arrived:
                            fresh.append(var)
            candidates = set()
        frozen_pulses = frozenset(pulses)
        observing = {pid for var in pulses for pid in observers.get(var, ())
                     if pid in alphabet}
        events = {pid: Event(frozen_pulses & alphabet[pid], 1)
                  for pid in observing}
        global_trace.append(Event(frozen_pulses, 1))
        sent, verdict = network.round(rnd, events)
        messages += sent
        # recovery: only the designated watcher of a configured fault
        # triggers; every other violation is data.  A watcher has fired
        # exactly when the global verdict is False.
        for i, f in enumerate(scenario.faults):
            if i in recovered or verdict is not V_FALSE:
                continue
            action = scenario.recovery(f)
            if action is None:
                continue
            witness = _triggering_watcher(monitors, action.trigger)
            if witness is None:
                continue
            recovered.add(i)
            recovery_log.append((rnd, f, action, witness.formula))
            if action.kind == "eject_to_bin3":
                ejected = True
            elif action.kind == "reference_second_sensor":
                landing[rnd + 1].add(action.param("variable"))
            elif action.kind == "reduce_belt_speed":
                if deadline_round is not None and deadline_round > rnd:
                    deadline_round = rnd + action.param("factor", 2) * (
                        deadline_round - rnd)
        # the rounds before the next landing or due monitor are idle
        due = network.next_due()
        nxt = min(min(landing, default=rounds),
                  rounds if due is None else due, rounds)
        global_trace.extend([IDLE] * (nxt - rnd - 1))
        rnd = nxt

    outcome = None
    if ejected:
        outcome = "ejected_bin3"
    elif deadline_var is not None:
        got = arrived.get(deadline_var, rounds)  # if ever, after the run
        outcome = ("missed" if got > deadline_round
                   else "sorted" if deadline_var in arrived else "pending")
    return SimulationResult(
        graph=graph,
        global_trace=tuple(global_trace) if pids else (),
        report=network.report(rnd, messages),
        recovery_log=tuple(recovery_log),
        outcome=outcome,
        effective_deadline=deadline_round)


def _triggering_watcher(monitors: Sequence[LocalMonitor],
                        trigger: Optional[Formula]):
    for m in monitors:
        for w in m.watchers:
            if w.verdict is not V_TRUE:
                continue
            if trigger is None or w.formula == trigger:
                return w
    return None


def run_scenario(scenario: Scenario,
                 rounds: Optional[int] = None) -> SimulationResult:
    """Builds the scenario's monitors (from its watcher table, or planned
    from its formula), then simulates ``rounds``, by default the
    scenario's suggested count."""
    if scenario.monitor_specs:
        monitors = case_monitors(scenario)
    elif scenario.formula is not None:
        monitors = plan_monitors(scenario.formula,
                                 scenario.graph).fresh_monitors()
    else:
        monitors = []
    return run_simulation(scenario, rounds, monitors)


def case_monitors(scenario: Scenario) -> List[LocalMonitor]:
    """Monitors from the scenario's literal watcher table (one budget
    watcher per row, no precharge), bypassing the unwinding pipeline."""
    by_pid: Dict[str, List[BudgetWatcher]] = {}
    for _, pid, f in scenario.monitor_specs:
        by_pid.setdefault(pid, []).append(BudgetWatcher(f, f.sub, 0))
    # a monitor without successor neither sends nor receives
    return [LocalMonitor(pid, by_pid[pid], {}, {}) for pid in sorted(by_pid)]


# --- Pipeline example fixture (also a CLI builtin) ---

EXAMPLE2_GRAPH_JSON = """{
  "processes": [
    {"pid": "p0", "inputs": ["I0"], "outputs": ["O0"], "cost": 2},
    {"pid": "p1", "inputs": ["I1"], "outputs": ["O1"], "cost": 3},
    {"pid": "p2", "inputs": ["O0"], "outputs": ["O2"], "cost": 1},
    {"pid": "p3", "inputs": ["O0"], "outputs": ["O3"], "cost": 2},
    {"pid": "p4", "inputs": ["O2"], "outputs": ["O4"], "cost": 4},
    {"pid": "p5", "inputs": ["O3"], "outputs": ["O5"], "cost": 3},
    {"pid": "p6", "inputs": ["O1", "O4", "O5"], "outputs": ["Of"], "cost": 4}
  ],
  "environment": ["I0", "I1"]
}"""


def example2_graph() -> DependencyGraph:
    return load_graph(EXAMPLE2_GRAPH_JSON)


def example2_scenario(fault: Optional[FaultSpec] = None,
                      stimulus_round: int = 3) -> Scenario:
    """Seven-process pipeline scenario: one stimulus, lower-bound
    latencies, budget 20 end to end, run to its horizon."""
    return Scenario(
        graph=example2_graph(),
        stimuli={stimulus_round: frozenset(["I0", "I1"])},
        faults=(fault,) if fault is not None else (),
        formula=parse_formula("G ((I0 & I1) o<=20 Of)"))


_SCENARIO_KEYS = frozenset([
    "graph", "behaviors", "stimuli", "faults", "recoveries", "formula",
    "rounds", "deadline", "suppressed_outputs", "trigger_sets"])


def load_scenario(text: str, base_dir: Optional[str] = None) -> Scenario:
    """Scenario from its JSON form.  The graph is either inline or a file
    path resolved against base_dir.  This checks only the JSON shape;
    ``FaultSpec``, ``RecoveryAction`` and, once the whole file has its
    shape, ``Scenario`` check what the values mean.  A file without
    ``"rounds"`` runs to its horizon.  Raises ValueError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError("scenario is not valid JSON: %s" % e)
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise ValueError("unknown scenario keys: %s" % sorted(unknown))
    if "graph" not in doc or "stimuli" not in doc:
        raise ValueError("scenario needs 'graph' and 'stimuli'")
    spec = doc["graph"]
    if isinstance(spec, str):
        path = spec if base_dir is None else os.path.join(base_dir, spec)
        with open(path) as fh:
            graph = load_graph(fh.read())
    elif isinstance(spec, dict):
        graph = graph_from_doc(spec)
    else:
        raise ValueError("'graph' must be an object or a file path")
    stimuli = {}
    for key, names in _typed(doc["stimuli"], dict, "'stimuli'").items():
        # a JSON key is a string; one spelling per round: str(int(key))
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
            raise ValueError("stimulus round %r is not an integer in plain "
                             "decimal" % key)
        stimuli[int(key)] = _names(names, "stimuli")
    behaviors = {pid: _int(latency, "latency") for pid, latency in _typed(
        doc.get("behaviors", {}), dict, "'behaviors'").items()}
    faults = []
    for d in _typed(doc.get("faults", []), list, "'faults'"):
        _typed(d, dict, "a fault")
        faults.append(FaultSpec(
            target=_typed(d.get("target"), str, "a fault's 'target'"),
            kind=_typed(d.get("kind"), str, "a fault's 'kind'"),
            at_round=_int(d.get("at_round", 0), "at_round"),
            extra=_int(d.get("extra", 0), "extra")))
    recoveries = {}
    for key, d in _typed(doc.get("recoveries", {}), dict,
                         "'recoveries'").items():
        trigger = _typed(d, dict, "a recovery").get("trigger")
        params = _typed(d.get("params", {}), dict, "a recovery's 'params'")
        recoveries[key] = RecoveryAction(
            _typed(d.get("kind"), str, "a recovery's 'kind'"),
            None if trigger is None else parse_formula(
                _typed(trigger, str, "a recovery's 'trigger'")),
            tuple(sorted(params.items())))
    formula = doc.get("formula")
    if formula is not None:
        formula = parse_formula(_typed(formula, str, "'formula'"))
    deadline = doc.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, list) or len(deadline) != 2:
            raise ValueError("'deadline' must be a [variable, round] pair")
        deadline = (_typed(deadline[0], str, "the deadline variable"),
                    _int(deadline[1], "deadline round"))
    rounds = doc.get("rounds")
    trigger_sets = {
        pid: tuple(_names(names, "trigger_sets")
                   for names in _typed(sets, list, "'trigger_sets'"))
        for pid, sets in _typed(doc.get("trigger_sets", {}), dict,
                                "'trigger_sets'").items()}
    return Scenario(
        graph=graph,
        behaviors=behaviors,
        stimuli=stimuli,
        faults=tuple(faults),
        recoveries=recoveries,
        formula=formula,
        rounds=None if rounds is None else _int(rounds, "'rounds'"),
        suppressed_outputs=_names(doc.get("suppressed_outputs", []),
                                  "suppressed_outputs"),
        trigger_sets=trigger_sets,
        deadline=deadline)


def _typed(value, kind: type, what: str):
    """``value`` itself if it has the JSON type ``kind`` (dict, list or
    str); a ValueError naming ``what`` otherwise."""
    if not isinstance(value, kind):
        raise ValueError("%s: expected a JSON %s, got %s" % (
            what, {dict: "object", list: "list", str: "string"}[kind],
            json.dumps(value)))
    return value


def _int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s: expected an integer, got %s"
                         % (what, json.dumps(value)))
    return value


def _names(value, what: str) -> frozenset:
    """``value`` as a set of names, if it is a JSON list of strings."""
    if not all(isinstance(v, str) for v in _typed(value, list, what)):
        raise ValueError("%s: expected a list of names, got %s"
                         % (what, json.dumps(value)))
    return frozenset(value)


def load_scenario_file(path: str) -> Scenario:
    with open(path) as fh:
        return load_scenario(fh.read(), base_dir=os.path.dirname(path) or ".")


def random_scenario(seed: int) -> Scenario:
    """Seeded random single-sink pipeline of 2 to 6 processes of cost at
    most 3, each with at most 3 inputs (the sink takes a fourth when no
    other process has room), one stimulus, at most one drop fault and a
    horizon of at most 20 rounds.  A draw past 20 is redrawn with one
    process fewer and lower caps.  The third draw is kept unchecked: at
    most 4 processes of cost 1, slack at most 1 and the stimulus at
    round 0 give it a horizon of at most 11."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    for cost_cap, slack_cap, stim_cap in ((3, 3, 2), (2, 2, 1)):
        scenario = _build_random(rng, n, cost_cap, slack_cap, stim_cap)
        if scenario.suggested_rounds <= 20:
            return scenario
        n = max(2, n - 1)
    return _build_random(rng, n, 1, 1, 0)


def _build_random(rng: random.Random, n: int, cost_cap: int,
                  slack_cap: int, stim_cap: int):
    parents: Dict[int, int] = {}
    fan_in: Dict[int, int] = {i: 0 for i in range(n)}
    for i in range(n - 1):
        candidates = [j for j in range(i + 1, n) if fan_in[j] < 3]
        if not candidates:
            candidates = [min(range(i + 1, n), key=lambda j: fan_in[j])]
        j = rng.choice(candidates)
        parents[i] = j
        fan_in[j] += 1
    costs = [rng.randint(1, cost_cap) for _ in range(n)]
    children: Dict[int, List[int]] = {j: [] for j in range(n)}
    for i, j in parents.items():
        children[j].append(i)
    procs = []
    env_vars = []
    for j in range(n):
        if children[j]:
            inputs = tuple("v%d" % i for i in sorted(children[j]))
        else:
            env = "e%d" % j
            env_vars.append(env)
            inputs = (env,)
        procs.append(Process("p%d" % j, inputs, ("v%d" % j,), costs[j]))
    g = DependencyGraph(tuple(procs), tuple(env_vars))
    sink_var = "v%d" % (n - 1)
    q = g.lb_completion(sink_var) + rng.randint(0, slack_cap)
    s = rng.randint(0, stim_cap)
    formula = Globally(QDep(conj([Atom(v) for v in sorted(env_vars)]),
                            Atom(sink_var), q))
    fault: Optional[FaultSpec] = None
    if rng.random() < 0.6:
        fault = FaultSpec(target="p%d" % rng.randrange(n), kind="drop",
                          at_round=0)
    rng.randint(0, 2 ** 31)  # unused, but a retry's draws follow it
    return Scenario(
        graph=g,
        stimuli={s: frozenset(env_vars)},
        faults=(fault,) if fault is not None else (),
        formula=formula)
