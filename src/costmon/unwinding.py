"""Unwinding of budgeted dependency formulas against a dependency graph.

Each dependency operator whose right operand names dependent variables is
replaced by a conjunction of per-process dependency formulas discovered by
backward traversal from the producer of the target variable.  The global
budget q is split into local budgets: a process keeps q minus the cheapest
cost of the downstream stretch separating it from the target's producer
(its own cost is part of its local budget, not of the discount).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .depgraph import DependencyGraph, GraphError, Process
from .formulas import (
    And,
    Atom,
    Budget,
    Formula,
    Globally,
    QDep,
    atoms,
    conj,
    conjuncts_of,
    fold,
    ordered_atoms,
)


class InfeasibleConstraintError(ValueError):
    """The cheapest downstream path already exceeds the global budget."""


@dataclass(frozen=True)
class UnwoundFormula:
    formula: Formula
    entries: Tuple[Tuple[str, QDep], ...]  # (producing pid, emitted conjunct)
    constraint_table: Dict[QDep, int]


def extract_qdep(f: Formula) -> List[QDep]:
    """All dependency operators in pre-order; duplicates preserved.  The
    target of a budget residual is not searched."""
    out: List[QDep] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is QDep:
            out.append(g)
        if type(g) is not Budget:
            for k in reversed(g.kids):
                stack.append(getattr(g, k))
    return out


def local_constraint(g: DependencyGraph, from_pid: str, target: str, q: int) -> int:
    """Local budget for ``from_pid``: q minus the cheapest downstream cost
    toward the producer of ``target`` (from_pid's own cost excluded)."""
    if target not in g.producer:
        raise GraphError("variable %s has no producer" % target)
    downstream = g.min_downstream_cost(from_pid, target)
    if downstream is None:
        raise GraphError("process %s has no path to the producer of %s"
                         % (from_pid, target))
    c = q - downstream
    if c < 0:
        raise InfeasibleConstraintError(
            "budget %d cannot cover path %s (downstream cost %d)"
            % (q, " -> ".join(g.cheapest_path(from_pid, target)), downstream))
    return c


def apply_dependency_rule(p: Process, v: str, c: int) -> QDep:
    """Dependency formula of process ``p`` for its output ``v`` with local
    budget ``c``: the conjunction of all inputs on the left, ``v`` on the
    right.  Multi-output processes yield one formula per requested output."""
    if v not in p.outputs:
        raise GraphError("%s is not an output of %s" % (v, p.pid))
    if not p.inputs:
        raise GraphError("process %s has no inputs to depend on" % p.pid)
    left = conj([Atom(name) for name in p.inputs])
    return QDep(left, Atom(v), c)


def _unwind_dep(dep: QDep, g: DependencyGraph):
    """Backward traversal per dependent variable of the dependency's right
    operand.  Returns the emitted (pid, conjunct, budget) list in discovery
    order; empty when nothing is dependent."""
    emitted: List[Tuple[str, QDep]] = []
    budgets: Dict[QDep, int] = {}
    for v_root in ordered_atoms(dep.right):
        if v_root not in g.producer:
            continue
        worklist = [v_root]
        seen = {v_root}
        while worklist:
            v = worklist.pop(0)
            p = g.by_pid[g.producer[v]]
            c = local_constraint(g, p.pid, v_root, dep.bound)
            conjunct = apply_dependency_rule(p, v, c)
            if conjunct not in budgets:
                emitted.append((p.pid, conjunct))
                budgets[conjunct] = c
            for name in ordered_atoms(conjunct.left):
                if name != v and name in g.producer and name not in seen:
                    seen.add(name)
                    worklist.append(name)
    return emitted, budgets


def _replace_qdep(f: Formula, target: QDep, replacement: Formula) -> Formula:
    """Replace occurrences of ``target`` in ``f``.  Directly under G the
    replacement conjunction is split so G distributes over it.  Other
    dependencies and budget residuals are kept as they are."""
    def step(g, kids):
        if g == target:
            return replacement
        t = type(g)
        if t is Globally and type(replacement) is And and g.sub == target:
            return conj([Globally(p) for p in conjuncts_of(replacement)])
        if t is QDep or t is Budget or not kids:
            return g
        return t(*kids)

    return fold(f, step)


def unwind(f: Formula, g: DependencyGraph) -> UnwoundFormula:
    """Unwind every dependency operator of ``f`` whose right operand names
    dependent variables.  Returns the transformed formula plus the budget
    table keyed by emitted conjunct."""
    for name in atoms(f):
        if name not in g.producer and name not in g.environment:
            raise GraphError("formula variable %s is unknown to the graph" % name)
    result = f
    all_entries: List[Tuple[str, QDep]] = []
    table: Dict[QDep, int] = {}
    for dep in extract_qdep(f):
        emitted, budgets = _unwind_dep(dep, g)
        if not emitted:
            continue
        replacement = conj([q for _, q in emitted])
        result = _replace_qdep(result, dep, replacement)
        for pid, conjunct in emitted:
            if conjunct not in table:
                all_entries.append((pid, conjunct))
                table[conjunct] = budgets[conjunct]
    return UnwoundFormula(result, tuple(all_entries), table)
