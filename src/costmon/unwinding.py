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
    FalseF,
    Formula,
    Globally,
    Not,
    Or,
    QDep,
    TrueF,
    conj,
    conjuncts_of,
    fold,
    ordered_atoms,
    render_formula,
    subformulas,
)


class InfeasibleConstraintError(ValueError):
    """The cheapest downstream path already exceeds the global budget."""


class UnsplittableDependencyError(ValueError):
    """A right operand names a dependent variable but is no conjunction of
    variables, so its producers' obligations would not all be required."""


class TemporalOperandError(ValueError):
    """A dependency operand holds more than atoms, constants, ``!``, ``&``
    and ``|``, so no single event decides it."""


_PROPOSITIONAL = (Atom, TrueF, FalseF, Not, And, Or)


@dataclass(frozen=True)
class UnwoundFormula:
    formula: Formula
    # (producing pid, emitted conjunct); a conjunct's bound is its local
    # budget
    entries: Tuple[Tuple[str, QDep], ...]


def extract_qdep(f: Formula) -> List[QDep]:
    """All dependency operators in pre-order; duplicates preserved.  The
    target of a budget residual is not searched."""
    return [g for g in subformulas(f, stop=(Budget,)) if type(g) is QDep]


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


def _unwind_dep(dep: QDep, g: DependencyGraph) -> Dict[Tuple[str, str, int], QDep]:
    """Backward traversal per dependent variable of the dependency's right
    operand.  Returns the emitted conjuncts in discovery order, keyed by
    (pid, output, local budget), which determines the conjunct; empty when
    nothing is dependent."""
    names = ordered_atoms(dep.right)
    if (any(v in g.producer for v in names)
            and any(type(x) is not Atom for x in conjuncts_of(dep.right))):
        raise UnsplittableDependencyError(
            "cannot unwind %s: a right operand naming a dependent variable "
            "must be a variable or a conjunction of variables"
            % render_formula(dep))
    if any(type(x) not in _PROPOSITIONAL
           for side in (dep.left, dep.right) for x in subformulas(side)):
        raise TemporalOperandError(
            "cannot unwind %s: dependency operands must be propositional"
            % render_formula(dep))
    emitted: Dict[Tuple[str, str, int], QDep] = {}
    for v_root in names:
        if v_root not in g.producer:
            continue
        worklist = [v_root]  # breadth first: the loop reads what it appends
        seen = {v_root}
        for v in worklist:
            p = g.by_pid[g.producer[v]]
            c = local_constraint(g, p.pid, v_root, dep.bound)
            if (p.pid, v, c) not in emitted:
                emitted[p.pid, v, c] = apply_dependency_rule(p, v, c)
            for name in p.inputs:  # the conjunct's left operand
                if name != v and name in g.producer and name not in seen:
                    seen.add(name)
                    worklist.append(name)
    return emitted


def _replace_qdep(f: Formula, target: QDep, parts: List[QDep]) -> Formula:
    """Replace occurrences of ``target`` in ``f`` by the conjunction of
    ``parts``.  Directly under G the conjunction is not built: G
    distributes over the parts.  Other dependencies and budget residuals
    are kept as they are."""
    def step(g, kids):
        t = type(g)
        if t is Globally and g.sub is target:
            return conj([Globally(p) for p in parts])
        if t is QDep or t is Budget or not kids:
            return g
        return t(*(conj(parts) if k is target else k for k in kids))

    out = fold(f, step)
    return conj(parts) if out is target else out


def unwind(f: Formula, g: DependencyGraph) -> UnwoundFormula:
    """Unwind every dependency operator of ``f`` whose right operand names
    dependent variables.  Returns the transformed formula plus each
    emitted conjunct with its producing process, first emission first."""
    for name in ordered_atoms(f):
        if name not in g.producer and name not in g.environment:
            raise GraphError("formula variable %s is unknown to the graph" % name)
    result = f
    entries: Dict[Tuple[str, str, int], QDep] = {}
    for dep in extract_qdep(f):
        emitted = _unwind_dep(dep, g)
        if not emitted:
            continue
        result = _replace_qdep(result, dep, list(emitted.values()))
        for key, conjunct in emitted.items():
            entries.setdefault(key, conjunct)
    return UnwoundFormula(
        result, tuple((pid, q) for (pid, _, _), q in entries.items()))
