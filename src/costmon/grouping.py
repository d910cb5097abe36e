"""Organizing processes into disjoint monitor groups from a tableau.

Each ticked branch contributes the conjunction of its terminal content;
processes whose local alphabet meets the branch's atoms join its group.
Groups sharing processes are merged (formulas disjoined) until the member
sets are pairwise disjoint.  When every branch formula of a merged group is
owned outright by a single process, the group is split back into
per-process singleton monitors, which is what makes communication-free
monitoring possible for disjunctions of per-process obligations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .depgraph import DependencyGraph, Process
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
)
from .tableau import Branch, TableauNode, branches, last_poised_label


class UnobservableAtomError(ValueError):
    """A branch formula mentions an atom no process can observe."""


@dataclass(frozen=True)
class MonitorGroup:
    members: Tuple[str, ...]  # pids ascending; also the communication order
    formula: Formula
    branch_formulas: Tuple[Formula, ...]


def branch_content(b: Branch) -> Optional[Formula]:
    """The obligation a ticked branch stands for, as one formula.

    The terminal label is taken with next-step wrappers unwrapped (the
    recurring content, not the one-step-shifted copy) and absorbed: a bare
    formula subsumed by its own G-version, or an F-version subsumed by the
    bare formula, is dropped.  Branches whose content is empty or trivially
    true carry no obligation and yield None.
    """
    if b.outcome != "ticked":
        return None
    parts: List[Formula] = []
    for f in last_poised_label(b):
        g = f.sub if isinstance(f, Next) else f
        if g not in parts:
            parts.append(g)
    kept: List[Formula] = []
    for g in parts:
        if g == TRUE:
            continue
        if Globally(g) in parts:
            continue
        if isinstance(g, Eventually) and g.sub in parts:
            continue
        kept.append(g)
    if not kept:
        return None
    return conj(kept)


def _observers(f: Formula, procs: Sequence[Process]) -> Tuple[str, ...]:
    names = atoms(f)
    out = []
    for p in procs:
        if p.alphabet & names:
            out.append(p.pid)
    return tuple(out)


def _sole_owner(f: Formula, procs: Sequence[Process],
                graph: Optional[DependencyGraph]) -> Optional[str]:
    """The unique process that can watch ``f`` alone: it produces the right
    operand of every dependency in ``f`` and observes all of its atoms."""
    if graph is None:
        return None
    deps = _qdeps_of(f)
    if not deps:
        return None
    owners = set()
    for d in deps:
        for name in sorted(atoms(d.right)):
            producer = graph.producer.get(name)
            if producer is None:
                return None
            owners.add(producer)
    if len(owners) != 1:
        return None
    owner = owners.pop()
    if not atoms(f) <= graph.by_pid[owner].alphabet:
        return None
    return owner


def _qdeps_of(f: Formula) -> List[QDep]:
    """Dependencies of ``f`` outside Until, dependency operands and budget
    residuals."""
    out: List[QDep] = []
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is QDep:
            out.append(g)
        elif t is not Until and t is not Budget:
            for k in reversed(g.kids):
                stack.append(getattr(g, k))
    return out


def organize_groups(procs: Sequence[Process], root: TableauNode,
                    original: Formula,
                    graph: Optional[DependencyGraph] = None) -> List[MonitorGroup]:
    """Partition processes into monitor groups for the tableau's branches."""
    if not procs:
        raise ValueError("no processes to organize")
    all_branches = branches(root)
    if not all_branches:
        raise ValueError("tableau has no branches")
    if len(all_branches) == 1:
        if all_branches[0].outcome == "crossed":
            return []
        pids = tuple(sorted(p.pid for p in procs))
        return [MonitorGroup(pids, original, (original,))]
    contents: List[Formula] = []
    for b in all_branches:
        c = branch_content(b)
        if c is None:
            continue
        if c not in contents:
            contents.append(c)
    # exploring phase: one (processes, formula) pair per distinct content
    raw: List[Tuple[set, List[Formula]]] = []
    observable = _system_alphabet(procs)
    for c in contents:
        names = atoms(c)
        unseen = names - observable
        if unseen:
            raise UnobservableAtomError(
                "no process observes %s" % sorted(unseen)[0])
        members = set(_observers(c, procs))
        raw.append((members, [c]))
    # merging phase, iterated to a fixpoint
    changed = True
    while changed:
        changed = False
        for i in range(len(raw)):
            for j in range(i + 1, len(raw)):
                if raw[i][0] & raw[j][0]:
                    members = raw[i][0] | raw[j][0]
                    formulas = raw[i][1] + [f for f in raw[j][1]
                                            if f not in raw[i][1]]
                    raw[i] = (members, formulas)
                    del raw[j]
                    changed = True
                    break
            if changed:
                break
    groups: List[MonitorGroup] = []
    for members, formulas in raw:
        split = _owner_split(formulas, procs, graph)
        if split is not None:
            groups.extend(split)
        else:
            groups.append(MonitorGroup(tuple(sorted(members)),
                                       disj(formulas), tuple(formulas)))
    groups.sort(key=lambda g: g.members)
    return groups


def _system_alphabet(procs: Sequence[Process]) -> frozenset:
    out = set()
    for p in procs:
        out |= p.alphabet
    return frozenset(out)


def _owner_split(formulas: List[Formula], procs: Sequence[Process],
                 graph: Optional[DependencyGraph]) -> Optional[List[MonitorGroup]]:
    """Split a merged group into per-owner singletons when every branch
    formula has a sole owner.  Within one owner, a formula subsumed by its
    own F-version collapses onto the F-version."""
    owners: Dict[str, List[Formula]] = {}
    for f in formulas:
        owner = _sole_owner(f, procs, graph)
        if owner is None:
            return None
        owners.setdefault(owner, []).append(f)
    out: List[MonitorGroup] = []
    for owner in sorted(owners):
        fs = owners[owner]
        kept: List[Formula] = []
        for f in fs:
            if Eventually(f) in fs:
                continue
            if f not in kept:
                kept.append(f)
        out.append(MonitorGroup((owner,), disj(kept), tuple(kept)))
    return out


def dep_core(f: Formula) -> Optional[QDep]:
    """The dependency inside a falsification-witness conjunct: a bare
    dependency, its negation, or the F-wrapped negation.  Other shapes
    (notably G-wrapped originals) are not attributable to one process."""
    g = f.sub if isinstance(f, Eventually) else f
    g = g.sub if isinstance(g, Not) else g
    if isinstance(g, QDep) and atoms(f) == atoms(g):
        return g
    return None


def assign_conjuncts(groups: Sequence[MonitorGroup],
                     unwound) -> Dict[str, Formula]:
    """Give each dependency conjunct to the process that produced it during
    unwinding (the producer of its right operand).  Formulas without an
    attributable dependency stay with the whole group and are not listed."""
    owner_of = {dep: pid for pid, dep in unwound.entries}
    out: Dict[str, Formula] = {}
    for group in groups:
        for f in group.branch_formulas:
            dep = dep_core(f)
            if dep is None:
                continue
            pid = owner_of.get(dep)
            if pid is None:
                # right operand has no producer (a dependency between
                # environment variables cannot be pinned on any process)
                raise UnobservableAtomError(
                    "conjunct %s has no producing member" % render_formula(f))
            out[pid] = f if pid not in out else disj([out[pid], f])
    return out
