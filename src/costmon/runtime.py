"""Decentralized monitor execution over synchronous rounds.

Each process runs a local monitor for its assigned falsification conjuncts.
Rounds are lockstep: every monitor reads its local event, checks its
budget watchers, and forwards newly observed atoms to the next member of
its group.  The members of a group sit next to each other in the monitor
list, in group order, so a message always goes to the next monitor in
the list, which reads it within the same round (perfect synchrony).  A
message is the observed atom's index in the shared subformula table.
Groups with one member never send anything.

A budget watcher turns its activation into a due round (activation plus
bound minus precharge) and fires at that round unless its right operand
latched first; a residual watcher is due in the round after each step
until it decides, because cost accrues every round.  A monitor
therefore only has work in a round where it observes something,
receives a message or has a watcher due.  Round 0 is no different:
before any input, only a watcher that acts on an empty view is pending,
that is a residual watcher or a budget watcher whose anchor has no
atoms, which is active from round 0.  ``MonitorNetwork`` is the one
round engine: it orders the monitors' own due rounds in a heap, with no
copy beside it, keeps their verdicts as running counts, and visits only
the monitors with work, so a round costs what happens in it, not the
number of monitors.  A round in which no monitor observes anything and
none is due (``next_due``) changes nothing, so a run need not visit it.
The network also holds the verdict rule (any monitor confirming its
conjunct makes the global property false; satisfaction of a
globally-rooted property is never claimable from a finite prefix, so
nominal runs end unknown) and builds the run's report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .depgraph import DependencyGraph
from .formulas import (
    Atom,
    Event,
    FALSE,
    Formula,
    QDep,
    TRUE,
    Verdict,
    atoms,
    disj,
    disjuncts_of,
    progress,
)
from .grouping import MonitorGroup, dep_core


# The verdicts, read once: ``Verdict``'s metaclass defines ``__getattr__``,
# so reading a member off the class takes CPython's slow attribute path,
# and the round loop compares verdicts at every monitor step.
V_TRUE, V_FALSE, V_UNKNOWN = Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN


class BudgetWatcher:
    """Tracks one budgeted dependency conjunct F!(L o<=c R) at its owner.

    Every round after activation costs one unit (the shared clock).  When
    L latches, the watcher activates: its due round is the activation
    round plus c minus the precharge.  It is satisfied if R latches by the
    due round, and it fires at the due round otherwise: any later R costs
    at least one more unit and cannot fit the budget.  With latched
    inputs, later anchors of L can only be slacker than the first, so one
    activation is enough.
    """

    def __init__(self, formula: Formula, dep: QDep, precharge: int = 0):
        self.formula = formula
        self.dep = dep
        self.precharge = precharge
        self._left_atoms = atoms(dep.left)
        self._right_atoms = atoms(dep.right)
        self.due: Optional[int] = None  # set while an activation awaits R
        self.verdict = V_UNKNOWN
        self.detection_round: Optional[int] = None
        if not self._left_atoms:  # it holds on the empty view
            self._activate(0)

    def _activate(self, rnd: int) -> None:
        self.due = rnd + self.dep.bound - self.precharge

    def step(self, rnd: int, latched: frozenset) -> None:
        if self.verdict is not V_UNKNOWN:
            return
        if self.due is None:
            # a discharged watcher activates and discharges again at once
            if not self._left_atoms <= latched:
                return
            self._activate(rnd)
        if self._right_atoms <= latched:
            self.due = None
        elif rnd >= self.due:
            self._fire(rnd)

    def _fire(self, rnd: int) -> None:
        self.due = None
        self.verdict = V_TRUE
        self.detection_round = rnd


class ResidualWatcher:
    """Progresses an arbitrary assigned formula over the latched view, one
    cost unit per round.  Used by the tail of a multi-member group, where
    the latched set has been completed by forwarded observations.  Until
    it decides, it is due in round 0 and after each step in the next."""

    def __init__(self, formula: Formula):
        self.formula = formula
        self.residual = formula
        self.due: Optional[int] = 0
        self.verdict = V_UNKNOWN
        self.detection_round: Optional[int] = None

    def step(self, rnd: int, latched: frozenset) -> None:
        if self.verdict is not V_UNKNOWN:
            return
        self.residual = progress(self.residual, Event(latched, 1))
        if self.residual == TRUE:
            self.verdict = V_TRUE
        elif self.residual == FALSE:
            self.verdict = V_FALSE
        else:
            self.due = rnd + 1
            return
        self.due = None
        self.detection_round = rnd


class LocalMonitor:
    """Per-process monitor: latches observations, runs its watchers, and
    forwards new group-relevant atoms to its successor in the group.

    ``latched`` is one frozenset, the view every watcher reads, replaced
    only in a step that latches a new atom.  A name heard from the
    predecessor and observed in the same step is latched and forwarded
    once.  ``verdict`` is recomputed at every step.  A monitor without
    watchers (a relay) is refuted from the start: its share of the
    obligation is empty.  A step with no inbox, no observation and no due
    watcher changes nothing, since nothing a watcher reads has changed;
    ``MonitorNetwork`` makes no such step.  Round 0 follows the same
    rule: a monitor is first due when its earliest pending watcher is.
    """

    def __init__(self, pid: str, watchers: Sequence,
                 index_of_atom: Dict[str, int], atom_of_idx: Dict[int, str],
                 group_atoms: frozenset = frozenset(),
                 successor: Optional[str] = None):
        self.pid = pid
        self.watchers = list(watchers)
        self._index_of_atom = index_of_atom
        self._atom_of_idx = atom_of_idx
        self.group_atoms = group_atoms
        self.successor = successor
        self.latched: frozenset = frozenset()
        self.inbox: List[int] = []  # indices of forwarded atoms
        self._settle()

    def step(self, rnd: int, event: Event) -> List[int]:
        view, props = self.latched, event.props
        if self.inbox:  # heard names first, then observed ones, in order
            names = [self._atom_of_idx[idx] for idx in self.inbox]
            self.inbox = []
            names += sorted(props)
            newly = [n for n in dict.fromkeys(names) if n not in view]
        elif props <= view:
            newly = ()
        else:
            newly = sorted(props - view)
        if newly:
            view = self.latched = view.union(newly)
        for w in self.watchers:
            w.step(rnd, view)
        self._settle()
        if self.successor is None or not newly:
            return []
        return [self._index_of_atom[n] for n in newly if n in self.group_atoms]

    def _settle(self) -> None:
        """Caches when the next input-free step is due, and the verdict:
        True if any watcher is, else Unknown if any is, else False."""
        verdict, due = V_FALSE, None
        for w in self.watchers:
            if w.verdict is not V_FALSE and verdict is not V_TRUE:
                verdict = w.verdict
            if w.due is not None and (due is None or w.due < due):
                due = w.due
        self.verdict, self._next_due = verdict, due


@dataclass(frozen=True)
class MonitorReport:
    global_verdict: Verdict
    detecting_pid: Optional[str]
    detection_round: Optional[int]
    rounds_run: int
    message_total: int
    detections: Tuple[Tuple[int, str, Formula], ...]  # all firings, ordered


def _budget_watcher(part: Formula, graph: DependencyGraph) -> BudgetWatcher:
    """The watcher of an assigned conjunct, precharged with the cost
    provably consumed before its anchor can complete: the largest
    lower-bound completion cost among the left operand's variables."""
    dep = dep_core(part)
    return BudgetWatcher(part, dep, graph.lb_completion(*atoms(dep.left)))


def synthesize_monitors(groups: Sequence[MonitorGroup],
                        assignment: Dict[str, Formula],
                        index_table: Dict[Formula, int],
                        graph: DependencyGraph) -> List[LocalMonitor]:
    """One monitor per group member.  Dependency conjuncts assigned to a
    member become budget watchers there; whatever the group formula needs
    beyond those is progressed by the group's last member, whose latched
    view is completed by the forwarded observations of the others."""
    atom_of_idx = {i: f.name for f, i in index_table.items()
                   if type(f) is Atom}
    index_of_atom = {name: i for i, name in atom_of_idx.items()}
    monitors: List[LocalMonitor] = []
    for group in groups:
        order = group.members
        parts = [disjuncts_of(assignment[pid]) if pid in assignment else ()
                 for pid in order]
        covered = set().union(*parts)
        residual_parts = [f for f in group.branch_formulas if f not in covered]
        group_atoms = atoms(group.formula)
        for pos, pid in enumerate(order):
            successor = order[pos + 1] if pos + 1 < len(order) else None
            watchers: List = [_budget_watcher(part, graph)
                              for part in parts[pos]]
            if successor is None and residual_parts:
                watchers.append(ResidualWatcher(disj(residual_parts)))
            monitors.append(LocalMonitor(
                pid, watchers, index_of_atom, atom_of_idx,
                group_atoms=group_atoms, successor=successor))
    return monitors


IDLE = Event(frozenset(), 1)


class MonitorNetwork:
    """The round engine over a fixed list of monitors, built once per run.

    A round steps, in list order, exactly the monitors with work: those
    that observe something, those with a watcher due and those that
    receive a message.  Due rounds come from a heap of ``(round, index)``
    entries; an entry is live while its monitor's ``_next_due`` is its
    round, and a step that changes that round pushes a new entry.  A
    forwarding monitor must be directly followed by its successor, as
    ``synthesize_monitors`` lays groups out, so a message from monitor
    ``i`` goes to monitor ``i + 1`` and joins the same round.  The global
    verdict (``verdict``) comes from running counts of the monitors'
    verdicts, and ``report`` reads it at the end of a run.
    """

    def __init__(self, monitors: Sequence[LocalMonitor], *,
                 eventually_rooted: bool = False):
        self.monitors = list(monitors)
        self.eventually_rooted = eventually_rooted
        self._by_pid: Dict[str, List[int]] = {}
        # the monitors confirming and refuting their conjuncts: counts, not
        # a table keyed by verdict, since an enum member hashes in Python
        confirmed = refuted = 0
        for i, m in enumerate(self.monitors):
            self._by_pid.setdefault(m.pid, []).append(i)
            if m.successor is not None and (
                    i + 1 == len(self.monitors)
                    or self.monitors[i + 1].pid != m.successor):
                raise ValueError("the monitor of %s forwards to %s, which "
                                 "does not follow it" % (m.pid, m.successor))
            confirmed += m.verdict is V_TRUE
            refuted += m.verdict is V_FALSE
        self._confirmed, self._refuted = confirmed, refuted
        self._due = [(m._next_due, i) for i, m in enumerate(self.monitors)
                     if m._next_due is not None]
        heapq.heapify(self._due)

    def check_pids(self, pids, rnd: int) -> None:
        """Raises unless every monitor's pid is among ``pids``."""
        for m in self.monitors:
            if m.pid not in pids:
                raise ValueError("no event for process %s in round %d"
                                 % (m.pid, rnd))

    @property
    def verdict(self) -> Verdict:
        """The verdict on the monitored property: any confirmed conjunct
        falsifies it; all conjuncts refuted confirm it only when the
        property is eventuality-rooted, since a globally-rooted property
        has no finite witness of satisfaction."""
        if self._confirmed:
            return V_FALSE
        if (self.eventually_rooted and self.monitors
                and self._refuted == len(self.monitors)):
            return V_TRUE
        return V_UNKNOWN

    def report(self, rounds_run: int, message_total: int) -> MonitorReport:
        """The report of the ``rounds_run`` rounds run so far, which sent
        ``message_total`` messages: the global verdict, and all watcher
        firings in (round, pid) order, the earliest one named as the
        detection."""
        detections = sorted(((w.detection_round, m.pid, w.formula)
                             for m in self.monitors for w in m.watchers
                             if w.verdict is V_TRUE),
                            key=lambda d: (d[0], d[1]))
        first = detections[0] if detections else (None, None, None)
        return MonitorReport(
            global_verdict=self.verdict,
            detecting_pid=first[1],
            detection_round=first[0],
            rounds_run=rounds_run,
            message_total=message_total,
            detections=tuple(detections))

    def round(self, rnd: int,
              events: Mapping[str, Event]) -> Tuple[int, Verdict]:
        """One synchronous round.  ``events`` needs to hold only the pids
        that observe something; any other monitor reads an empty event.
        Returns the number of messages sent and the global verdict."""
        todo = set()
        due, monitors = self._due, self.monitors
        while due and due[0][0] <= rnd:
            d, i = heapq.heappop(due)
            if monitors[i]._next_due == d:
                todo.add(i)
        for pid, event in events.items():
            if event.props:
                todo.update(self._by_pid.get(pid, ()))
        work = sorted(todo)
        sent = 0
        while work:
            i = heapq.heappop(work)
            m = monitors[i]
            before, before_due = m.verdict, m._next_due
            out = m.step(rnd, events.get(m.pid, IDLE))
            after = m.verdict
            if after is not before:
                self._confirmed += (after is V_TRUE) - (before is V_TRUE)
                self._refuted += (after is V_FALSE) - (before is V_FALSE)
            d = m._next_due
            if d != before_due and d is not None:
                heapq.heappush(due, (d, i))
            if out:
                sent += len(out)
                monitors[i + 1].inbox.extend(out)
                if i + 1 not in todo:
                    todo.add(i + 1)
                    heapq.heappush(work, i + 1)
        return sent, self.verdict

    def next_due(self) -> Optional[int]:
        """The least round in which some monitor is due, or None; after
        ``round(rnd)`` it is later than ``rnd``.  Stale heap entries go: a
        changed due round always pushes a new one."""
        due, monitors = self._due, self.monitors
        while due and monitors[due[0][1]]._next_due != due[0][0]:
            heapq.heappop(due)
        return due[0][0] if due else None


def monitor_round(monitors: Sequence[LocalMonitor],
                  round_events: Dict[str, Event], rnd: int, *,
                  eventually_rooted: bool = False) -> Tuple[int, Verdict]:
    """One synchronous round over monitors that carry their state from
    earlier rounds, with an event for every monitored process.  Returns
    the number of messages sent and the global verdict so far."""
    network = MonitorNetwork(monitors, eventually_rooted=eventually_rooted)
    network.check_pids(round_events, rnd)
    return network.round(rnd, round_events)
