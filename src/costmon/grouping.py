"""Organizing processes into disjoint monitor groups from a tableau.

Each ticked branch contributes the conjunction of its terminal content,
worked out once per distinct leaf label; processes whose local alphabet
meets the branch's atoms are its members (every process, if it has none).
Contents that share a member end up in one group, its formula their
disjunction.  A group grows from the earliest content not yet grouped:
each step adds the earliest content that shares a process with the
group so far (``grow_groups``).  When every branch formula of a group is
owned outright by a single process, the group is split back into
per-process singleton monitors, which is what makes communication-free
monitoring possible for disjunctions of per-process obligations.  A
split group records that owner, so assignment need not find it again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from .depgraph import DependencyGraph
from .formulas import (
    Budget,
    Eventually,
    Formula,
    Globally,
    Next,
    Not,
    QDep,
    TRUE,
    Until,
    atoms,
    conj,
    disj,
    render_formula,
    subformulas,
)
from .tableau import TableauNode, leaves


class UnobservableAtomError(ValueError):
    """A branch formula mentions an atom no process can observe."""


@dataclass(frozen=True)
class MonitorGroup:
    members: Tuple[str, ...]  # pids ascending; also the communication order
    formula: Formula
    branch_formulas: Tuple[Formula, ...]
    owner: Optional[str] = None  # of every branch formula, if split


def branch_content(leaf: TableauNode) -> Optional[Formula]:
    """The obligation the branch ending at a ticked leaf stands for, as
    one formula.

    The leaf's label is taken with next-step wrappers unwrapped (the
    recurring content, not the one-step-shifted copy) and absorbed: a bare
    formula subsumed by its own G-version, or an F-version subsumed by the
    bare formula, is dropped.  Branches whose content is empty or trivially
    true carry no obligation and yield None.
    """
    if leaf.status != "ticked":
        return None
    if len(leaf.label) == 1:  # nothing to absorb
        (f,) = leaf.label
        f = f.sub if type(f) is Next else f
        return None if f is TRUE else f
    parts = dict.fromkeys(f.sub if type(f) is Next else f
                          for f in leaf.label)  # an ordered set
    always = {g.sub for g in parts if type(g) is Globally}
    kept = [g for g in parts if g is not TRUE and g not in always
            and not (type(g) is Eventually and g.sub in parts)]
    return conj(kept) if kept else None


def _sole_owner(f: Formula, graph: DependencyGraph) -> Optional[str]:
    """The unique process that can watch ``f`` alone: it produces the right
    operand of every dependency in ``f`` and observes all of its atoms."""
    owner, dep = None, dep_core(f)
    for d in _qdeps_of(f) if dep is None else (dep,):
        for name in atoms(d.right):
            producer = graph.producer.get(name)
            if producer is None or owner not in (None, producer):
                return None
            owner = producer
    if owner is None or not atoms(f) <= graph.by_pid[owner].alphabet:
        return None
    return owner


def _qdeps_of(f: Formula) -> List[QDep]:
    """Dependencies of ``f`` outside Until, dependency operands and budget
    residuals."""
    return [g for g in subformulas(f, stop=(QDep, Until, Budget))
            if type(g) is QDep]


def grow_groups(member_sets: Sequence[AbstractSet[str]]) -> List[List[int]]:
    """Partition content indices into groups whose member sets are
    disjoint.  A group starts at the earliest ungrouped content; each step
    takes the earliest content that shares a process with the group so
    far.  This is the order in which merging the first overlapping pair
    and restarting adds contents, which a union-find in index order does
    not give: with only A-C and B-C overlapping it is A, C, B."""
    holders: Dict[str, List[int]] = {}
    for i, members in enumerate(member_sets):
        for pid in members:
            holders.setdefault(pid, []).append(i)
    taken = set()
    out: List[List[int]] = []
    for start in range(len(member_sets)):
        if start in taken:
            continue
        taken.add(start)
        group, frontier = [], [start]
        while frontier:
            i = heapq.heappop(frontier)
            group.append(i)
            for pid in member_sets[i]:
                for j in holders.pop(pid, ()):
                    if j not in taken:
                        taken.add(j)
                        heapq.heappush(frontier, j)
        out.append(group)
    return out


def organize_groups(root: TableauNode,
                    graph: DependencyGraph) -> List[MonitorGroup]:
    """Partition the graph's processes into monitor groups for the
    tableau's ticked leaves.  A tableau of one branch yields one group of
    all processes for the root's formula, or none if the branch is
    crossed."""
    procs = graph.processes
    if not procs:
        raise ValueError("no processes to organize")
    ends = leaves(root)
    if len(ends) == 1:
        if ends[0].status == "crossed":
            return []
        pids = tuple(sorted(p.pid for p in procs))
        return [MonitorGroup(pids, root.label[0], (root.label[0],))]
    ticked = {leaf.label: leaf for leaf in ends if leaf.status == "ticked"}
    contents = list(dict.fromkeys(
        c for c in map(branch_content, ticked.values()) if c is not None))
    observers = graph.observers
    member_sets: List[set] = []
    for c in contents:
        names = atoms(c)
        members = set() if names else set(graph.by_pid)
        for name in names:
            pids = observers.get(name)
            if pids is None:
                raise UnobservableAtomError("no process observes %s" % sorted(
                    names.difference(observers))[0])
            members.update(pids)
        member_sets.append(members)
    # a group whose every branch formula has a sole owner splits into one
    # singleton per owner; within one owner, a formula subsumed by its own
    # F-version collapses onto the F-version
    groups: List[MonitorGroup] = []
    for indices in grow_groups(member_sets):
        owned: Dict[str, List[Formula]] = {}
        for i in indices:
            owner = _sole_owner(contents[i], graph)
            if owner is None:
                formulas = [contents[j] for j in indices]
                members = set().union(*(member_sets[j] for j in indices))
                groups.append(MonitorGroup(tuple(sorted(members)),
                                           disj(formulas), tuple(formulas)))
                break
            owned.setdefault(owner, []).append(contents[i])
        else:
            for owner, fs in owned.items():
                eventual = {f.sub for f in fs if type(f) is Eventually}
                kept = [f for f in fs if f not in eventual]
                groups.append(MonitorGroup((owner,), disj(kept), tuple(kept),
                                           owner))
    # an owner observes its formulas' atoms, so it is a member of its own
    # group and of no other: this sort also puts each group's owners in order
    groups.sort(key=attrgetter("members"))
    return groups


def dep_core(f: Formula) -> Optional[QDep]:
    """The dependency inside a falsification-witness conjunct: a bare
    dependency, its negation, or the F-wrapped negation.  Other shapes
    (notably G-wrapped originals) are not attributable to one process."""
    g = f.sub if type(f) is Eventually else f
    g = g.sub if type(g) is Not else g
    return g if type(g) is QDep else None


def assign_conjuncts(groups: Sequence[MonitorGroup],
                     graph: DependencyGraph) -> Dict[str, Formula]:
    """Give each dependency conjunct to its sole owner, the producer of its
    right operand (the rule that also splits groups).  Formulas without an
    attributable dependency stay with the whole group and are not listed."""
    out: Dict[str, Formula] = {}
    for group in groups:
        for f in group.branch_formulas:
            if dep_core(f) is None:
                continue
            pid = group.owner or _sole_owner(f, graph)
            if pid is None:
                # right operand has no producer (a dependency between
                # environment variables cannot be pinned on any process)
                raise UnobservableAtomError(
                    "conjunct %s has no producing member" % render_formula(f))
            out[pid] = f if pid not in out else disj([out[pid], f])
    return out
