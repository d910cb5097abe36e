"""Tree-shaped tableau construction for the extended temporal language.

Labels are ordered, duplicate-free tuples of formulas.  Expansion picks the
first formula (insertion order) that is not a literal or a next-step
obligation, and applies its rule.  A dependency is a literal, as its
negation is: no rule looks inside it.  Time steps via the X-rule
once a label is poised.  Termination comes from the LOOP rule (tick a
repeated poised label) and the PRUNE rule (cross a thrice-repeated label
with no eventuality progress).

``_rule`` holds the rules: it maps a label and the labels above it to the
node's status, rule tag and child labels, and changes nothing.
``build_tableau`` first splits the root's disjunction with the OR rule,
then grows each disjunct's subtree on its own (``_grow``): one loop over
an explicit stack that creates the nodes and counts them against
``NODE_LIMIT``, so no recursion depth grows with the tableau's depth.
A subtree's LOOP and PRUNE tests need no label of the spine above it:
each spine label is a disjunction that strictly contains the disjunct,
so none recurs below it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .formulas import (
    And,
    Atom,
    Budget,
    Eventually,
    FALSE,
    FalseF,
    Formula,
    Globally,
    Next,
    Not,
    Or,
    QDep,
    TrueF,
    Until,
    nnf,
)

# Hard ceiling on the size of each disjunct's subtree.  Per-branch
# LOOP/PRUNE checks make every build finite, but formulas nesting several
# eventualities under G have worst-case exponential trees; past this many
# nodes in one disjunct's subtree the builder raises instead of grinding
# on.  The OR spine above the disjuncts is not counted, so chain-N's
# check, whose N disjuncts take 6 nodes each, stays far below it at any
# N (BENCH_curves.json runs it to N = 10,000).  Measured: 55 of the 263
# parseable formulas of tests/golden_formulas.json pass the ceiling, and
# so do 71 of their negations.
NODE_LIMIT = 30000


class TableauLimitError(RuntimeError):
    """A disjunct's subtree grew past NODE_LIMIT nodes."""


@dataclass(slots=True)
class TableauNode:
    label: Tuple[Formula, ...]
    children: List["TableauNode"] = field(default_factory=list)
    status: str = "interior"  # interior | ticked | crossed
    rule: str = ""


# The node kinds that wait for the X-rule: the literals (a constant, an
# atom, a dependency, a budget, or a `Not`, which after `nnf` wraps only
# an atom, a dependency or a budget) and next-step obligations.
_READY = frozenset({TrueF, FalseF, Atom, QDep, Budget, Not, Next})


def _dedup(items) -> Tuple[Formula, ...]:
    """Duplicate-free label, lightly simplified: an eventuality whose goal
    already stands in the label is dropped (it is satisfied here and now),
    and a bare `true` is dropped unless it is all the label says.  Both
    preserve the label's conjunction reading; without them poised labels
    rarely repeat exactly and the LOOP rule starves."""
    seen = dict.fromkeys(items)  # first occurrences, in order
    kept = [f for f in seen
            if not (isinstance(f, Eventually) and f.sub in seen
                    or isinstance(f, Until) and f.right in seen)]
    if len(kept) > 1:
        kept = [f for f in kept if not isinstance(f, TrueF)] or kept
    return tuple(kept)


def _child_labels(label, idx, *repls) -> List[Tuple[Formula, ...]]:
    """Labels a rule hands its children, distinct ones only: ``label``
    with its member ``idx`` replaced by each of ``repls`` in turn.  A
    one-member label is already what ``_dedup`` would make of it."""
    out: List[Tuple[Formula, ...]] = []
    for repl in repls:
        lab = label[:idx] + repl + label[idx + 1:]
        if len(lab) > 1:
            lab = _dedup(lab)
        if lab not in out:
            out.append(lab)
    return out


def _eventualities(label: Tuple[Formula, ...]) -> frozenset:
    return frozenset(f for f in label if isinstance(f, (Eventually, Until)))


def _satisfies(label: Tuple[Formula, ...], ev: Formula) -> bool:
    # an eventuality F g / p U g counts as satisfied in a label where its
    # goal formula g appears
    goal = ev.sub if isinstance(ev, Eventually) else ev.right
    return goal in label


def _rule(label: Tuple[Formula, ...], path: List[Tuple[Formula, ...]],
          depths: Dict[Tuple[Formula, ...], List[int]]):
    """``(status, rule, child labels)`` of a node labelled ``label`` whose
    ancestors, root first, carry the labels ``path``; ``depths`` maps each
    label on ``path`` to its positions there, in order."""
    # contradiction: false, or a literal beside its negation (labels are
    # short, and nodes are interned, so a scan beats building a set)
    for f in label:
        if f is FALSE or type(f) is Not and f.sub in label:
            return "crossed", "contradiction", []
    # PRUNE: the label's third appearance is cut when the stretch since
    # the previous appearance satisfied no eventuality that the stretch
    # before it did not already satisfy
    occurrences = depths.get(label, ())
    if len(occurrences) >= 2:
        prev, last = occurrences[-2], occurrences[-1]
        evs = _eventualities(label)
        earlier = {ev for ev in evs
                   if any(_satisfies(mid, ev) for mid in path[prev + 1:last])}
        recent = {ev for ev in evs
                  if any(_satisfies(mid, ev) for mid in path[last + 1:])}
        if recent <= earlier:
            return "crossed", "PRUNE", []
    if len(occurrences) >= 4:
        # hard backstop: no described rule fired after four repeats
        return "crossed", "PRUNE", []
    # the first member that is not ready decides the rule; a label with
    # none is poised
    for idx, f in enumerate(label):
        if type(f) not in _READY:
            break
    else:
        # an ancestor with a poised label is interior, so it took the
        # X-rule: LOOP ticks a label that took it higher up the branch
        if occurrences:
            return "ticked", "LOOP", []
        nexts = [f.sub for f in label if type(f) is Next]
        if not nexts:
            return "ticked", "open", []
        return "interior", "X", [_dedup(nexts)]
    t = type(f)
    if t is And:
        rule, repls = "AND", [(f.left, f.right)]
    elif t is Or:
        rule, repls = "OR", [(f.left,), (f.right,)]
    elif t is Globally:
        rule, repls = "G", [(f.sub, Next(f))]
    elif t is Eventually:
        rule, repls = "F", [(f.sub,), (Next(f),)]
    else:  # Until, the one kind left that is not ready
        rule, repls = "U", [(f.right,), (f.left, Next(f))]
    return "interior", rule, _child_labels(label, idx, *repls)


def build_tableau(f: Formula) -> TableauNode:
    """Build the full tableau for ``f`` (normalized internally).  The
    root's disjunction is split first: every node of its OR spine (a
    node labelled by one disjunction) takes the OR rule from ``_rule``,
    with no ancestors to consult, and its distinct children keep
    ``(a | a)`` at one child.  Each disjunct below the spine then grows
    its own subtree (``_grow``), counted on its own against
    ``NODE_LIMIT``."""
    root = TableauNode((nnf(f),))
    spine = [root]
    while spine:
        node = spine.pop()
        if type(node.label[0]) is not Or:
            _grow(node)
            continue
        node.status, node.rule, labels = _rule(node.label, [], {})
        node.children = [TableauNode(lab) for lab in labels]
        spine.extend(reversed(node.children))
    return root


def _grow(top: TableauNode) -> None:
    """Expand the subtree under ``top``: one loop over a stack of ``(node,
    depth)``, which asks ``_rule`` for each node's status and children,
    depth first.  The labels of the current branch's ancestors sit in one
    path list, cut back to the popped node's depth, and a map from each
    of them to its depths on the path, so no node rescans its
    ancestors."""
    count = 1
    path: List[Tuple[Formula, ...]] = []
    depths: Dict[Tuple[Formula, ...], List[int]] = defaultdict(list)
    stack = [(top, 0)]
    while stack:
        node, depth = stack.pop()
        while len(path) > depth:
            depths[path.pop()].pop()
        node.status, node.rule, labels = _rule(node.label, path, depths)
        if not labels:  # a leaf keeps its empty children, and is no ancestor
            continue
        count += len(labels)
        if count > NODE_LIMIT:
            raise TableauLimitError("tableau exceeded %d nodes" % NODE_LIMIT)
        children = node.children = [TableauNode(lab) for lab in labels]
        depths[node.label].append(depth)
        path.append(node.label)
        depth += 1
        for child in reversed(children):
            stack.append((child, depth))


def leaves(root: TableauNode) -> List[TableauNode]:
    """The leaves, left to right.  Every leaf is ticked or crossed: its
    status is the outcome of the branch it ends, its label the branch's
    content."""
    out: List[TableauNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(reversed(node.children))
        else:
            out.append(node)
    return out


def terminal_node(leaf: TableauNode) -> Tuple[Formula, ...]:
    """The recurring content of a ticked leaf's branch: the leaf's label
    (a node is ticked only when its label is poised) with next-step
    obligations stripped."""
    if leaf.status != "ticked":
        raise ValueError("terminal content is defined for ticked branches only")
    return tuple(f for f in leaf.label if not isinstance(f, Next))


def export_dot(root: TableauNode) -> str:
    """Deterministic DOT text with labels, tick/cross marks, and rule tags.
    Nodes are numbered in pre-order; the edge into a node follows its
    subtree."""
    lines = ["digraph tableau {", '  node [shape=box, fontname="monospace"];']
    count = 0
    stack: list = [(root, None)]
    while stack:
        node, parent = stack.pop()
        if type(node) is str:  # an edge line, due once its subtree is out
            lines.append(node)
            continue
        text = ", ".join(str(f) for f in node.label) or "(empty)"
        mark = {"ticked": " ✓", "crossed": " ×"}.get(node.status, "")
        rule = (" [%s]" % node.rule) if node.rule else ""
        safe = text.replace("\\", "\\\\").replace('"', '\\"')
        lines.append('  n%d [label="%s%s%s"];' % (count, safe, rule, mark))
        if parent is not None:
            stack.append(("  n%d -> n%d;" % (parent, count), None))
        stack.extend((child, count) for child in reversed(node.children))
        count += 1
    lines.append("}")
    return "\n".join(lines)
