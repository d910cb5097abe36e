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


class TableauNode:
    """A node: its label, its children left to right (a tuple, empty at a
    leaf), its status (interior, ticked or crossed) and the tag of the
    rule that decided it.  A plain slotted class: a plan makes a node per
    label, and a generated initializer costs twice as much."""

    __slots__ = ("label", "children", "status", "rule")

    def __init__(self, label: Tuple[Formula, ...]):
        self.label = label
        self.children: Tuple["TableauNode", ...] = ()
        self.status = "interior"
        self.rule = ""


# The node kinds that wait for the X-rule: the literals (a constant, an
# atom, a dependency, a budget, or a `Not`, which after `nnf` wraps only
# an atom, a dependency or a budget) and next-step obligations.
_READY = frozenset({TrueF, FalseF, Atom, QDep, Budget, Not, Next})


def _dedup(items) -> Tuple[Formula, ...]:
    """Duplicate-free label, lightly simplified: an eventuality whose goal
    already stands in the label is dropped (it is satisfied here and now),
    and a bare `true` is dropped unless it is all the label says.  Both
    preserve the label's conjunction reading; without them poised labels
    rarely repeat exactly and the LOOP rule starves.  One member is
    already all that."""
    if len(items) == 1:
        return tuple(items)
    seen = dict.fromkeys(items)  # first occurrences, in order
    kept = [f for f in seen
            if not (isinstance(f, Eventually) and f.sub in seen
                    or isinstance(f, Until) and f.right in seen)]
    if len(kept) > 1:
        kept = [f for f in kept if not isinstance(f, TrueF)] or kept
    return tuple(kept)


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
    label on ``path`` to its positions there, in order.  The child labels
    are distinct: ``label`` with its deciding member replaced by each of
    the rule's replacements in turn."""
    # contradiction: false, or a literal beside its negation (labels are
    # short, and nodes are interned, so a scan beats building a set); the
    # same scan finds the first member that is not ready, which decides
    # the rule (a label with none is poised)
    first = None
    for idx, f in enumerate(label):
        t = type(f)
        if f is FALSE or t is Not and f.sub in label:
            return "crossed", "contradiction", ()
        if first is None and t not in _READY:
            first = idx
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
            return "crossed", "PRUNE", ()
    if len(occurrences) >= 4:
        # hard backstop: no described rule fired after four repeats
        return "crossed", "PRUNE", ()
    if first is None:
        # an ancestor with a poised label is interior, so it took the
        # X-rule: LOOP ticks a label that took it higher up the branch
        if occurrences:
            return "ticked", "LOOP", ()
        nexts = [f.sub for f in label if type(f) is Next]
        if not nexts:
            return "ticked", "open", ()
        return "interior", "X", (_dedup(nexts),)
    f = label[first]
    t = type(f)
    if t is And:
        rule, repls = "AND", ((f.left, f.right),)
    elif t is Or:
        rule, repls = "OR", ((f.left,), (f.right,))
    elif t is Globally:
        rule, repls = "G", ((f.sub, Next(f)),)
    elif t is Eventually:
        rule, repls = "F", ((f.sub,), (Next(f),))
    else:  # Until, the one kind left that is not ready
        rule, repls = "U", ((f.right,), (f.left, Next(f)))
    if len(label) > 1:
        head, tail = label[:first], label[first + 1:]
        repls = [head + repl + tail for repl in repls]
    labels: List[Tuple[Formula, ...]] = []
    for lab in repls:
        if len(lab) > 1:
            lab = _dedup(lab)
        if lab not in labels:
            labels.append(lab)
    return "interior", rule, labels


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
        node.children = tuple(map(TableauNode, labels))
        spine.extend(reversed(node.children))
    return root


def _grow(top: TableauNode) -> None:
    """Expand the subtree under ``top``: one loop over a stack of nodes,
    which asks ``_rule`` for each node's status and children, depth
    first.  The labels of the current branch's ancestors sit in one path
    list, and a map from each of them to its depths on the path, so no
    node rescans its ancestors.  An interior node pushes a None below its
    children, which takes its label off the path once its subtree is
    done."""
    count = 1
    path: List[Tuple[Formula, ...]] = []
    depths: Dict[Tuple[Formula, ...], List[int]] = defaultdict(list)
    stack = [top]
    while stack:
        node = stack.pop()
        if node is None:
            depths[path.pop()].pop()
            continue
        label = node.label
        node.status, node.rule, labels = _rule(label, path, depths)
        if not labels:  # a leaf keeps its empty children, and is no ancestor
            continue
        count += len(labels)
        if count > NODE_LIMIT:
            raise TableauLimitError("tableau exceeded %d nodes" % NODE_LIMIT)
        children = node.children = tuple(map(TableauNode, labels))
        depths[label].append(len(path))
        path.append(label)
        stack.append(None)
        stack.extend(reversed(children))


def leaves(root: TableauNode) -> List[TableauNode]:
    """The leaves, left to right.  Every leaf is ticked or crossed: its
    status is the outcome of the branch it ends, its label the branch's
    content."""
    out: List[TableauNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.children:
            stack += node.children[::-1]
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
