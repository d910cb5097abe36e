"""Reference oracles the tests trust instead of the package.

The verdict oracles here are written straight from the operator
definition (activation at i, discharge at the first j >= i whose
accrued cost stays within the budget, the activation event itself
costing nothing) and never call the package's progression code, so an
implementation bug cannot vouch for itself.  The path-cost helper
recomputes unwinding constraints by exhaustive enumeration over the
raw JSON wiring for the same reason, the grouping reference merges
member sets pair by pair instead of growing groups from an index, and
the tableau path walk recurses over ``children`` alone.
"""

from __future__ import annotations

import itertools
import json
from typing import (AbstractSet, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Tuple)

from costmon.formulas import (
    And,
    Atom,
    Budget,
    Eventually,
    FalseF,
    Formula,
    Globally,
    Next,
    Not,
    Or,
    QDep,
    TrueF,
    Until,
    Verdict,
    conj,
    disj,
)

# ---------------------------------------------------------------------------
# literal pair-scan oracles


def flip(v: Verdict) -> Verdict:
    if v is Verdict.TRUE:
        return Verdict.FALSE
    if v is Verdict.FALSE:
        return Verdict.TRUE
    return Verdict.UNKNOWN


def pair_verdict_globally(events, left: FrozenSet[str], right: str, q: int) -> Verdict:
    """G(L o<=q R) by scanning every activation/discharge pair (i, j).

    An activation i is dead only when no j up to the end discharged it
    and the cost accrued after i already exceeds q; a live activation
    keeps the verdict at Unknown (an immediate cost-0 R could still
    arrive).  A G formula is never True on a finite prefix.
    """
    n = len(events)
    for i in range(n):
        if not left <= events[i].props:
            continue
        acc = 0
        discharged = False
        for j in range(i, n):
            if j > i:
                acc += events[j].cost
            if acc > q:
                break
            if right in events[j].props:
                discharged = True
                break
        if discharged:
            continue
        if sum(e.cost for e in events[i + 1:]) > q:
            return Verdict.FALSE
    return Verdict.UNKNOWN


def pair_verdict_bare(events, left: FrozenSet[str], right: str, q: int) -> Verdict:
    """(L o<=q R) anchored at position 0, same pair scan."""
    if not events:
        return Verdict.UNKNOWN
    if not left <= events[0].props:
        return Verdict.TRUE
    acc = 0
    for j, e in enumerate(events):
        if j > 0:
            acc += e.cost
        if acc > q:
            return Verdict.FALSE
        if right in e.props:
            return Verdict.TRUE
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# incremental forms of the same oracles, for the exhaustive state sweep
#
# Both are pure transition functions on hashable states, derived from the
# pair definition: the state carries exactly the remaining budgets of the
# activations that are still undischarged.  A trace's verdict depends only
# on the state it drives the machine into, which is what makes a
# state-level comparison exhaustive over the whole trace space.

GLOBALLY_START = (False, frozenset())
BARE_START = ("init",)


def step_globally(state, props, cost, left, right, q):
    dead, live = state
    if dead:
        return state
    survivors = set()
    for r in live:
        r2 = r - cost
        if r2 < 0:
            # budget dies before this event's R could discharge it
            return (True, frozenset())
        survivors.add(r2)
    if right in props:
        survivors.clear()
    if left <= props and right not in props:
        survivors.add(q)
    return (False, frozenset(survivors))


def verdict_globally(state) -> Verdict:
    return Verdict.FALSE if state[0] else Verdict.UNKNOWN


def step_bare(state, props, cost, left, right, q):
    if state[0] == "done":
        return state
    if state[0] == "init":
        if not left <= props or right in props:
            return ("done", Verdict.TRUE)
        return ("pend", q)
    r2 = state[1] - cost
    if r2 < 0:
        return ("done", Verdict.FALSE)
    if right in props:
        return ("done", Verdict.TRUE)
    return ("pend", r2)


def verdict_bare(state) -> Verdict:
    return state[1] if state[0] == "done" else Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# canonical residual keys
#
# Progression residuals of a G formula grow by one conjunct per round and
# are only equal up to associativity, order, and duplication of conjuncts.
# canon() flattens And/Or spines iteratively and dedupes the parts, giving
# a hashable key plus an equivalent small representative to progress next.
# Two canon-equal residuals progress to canon-equal residuals (progression
# maps each part independently and True/False absorption is shape-blind),
# so keying states by canon is sound.


def canon(f: Formula) -> Tuple[object, Formula]:
    if isinstance(f, (And, Or)):
        kind = type(f)
        parts: Dict[object, Formula] = {}
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, kind):
                stack.append(g.left)
                stack.append(g.right)
            else:
                key, mini = canon(g)
                parts.setdefault(key, mini)
        items = sorted(parts.items(), key=lambda kv: repr(kv[0]))
        if len(items) == 1:
            return items[0]
        tag = "&" if kind is And else "|"
        build = conj if kind is And else disj
        return ((tag,) + tuple(k for k, _ in items),
                build([m for _, m in items]))
    if isinstance(f, TrueF):
        return ("true",), f
    if isinstance(f, FalseF):
        return ("false",), f
    if isinstance(f, Atom):
        return ("atom", f.name), f
    if isinstance(f, Budget):
        return ("budget", canon(f.target)[0], f.remaining), f
    if isinstance(f, Not):
        return ("not", canon(f.sub)[0]), f
    if isinstance(f, QDep):
        return ("dep", canon(f.left)[0], canon(f.right)[0], f.bound), f
    if isinstance(f, Next):
        return ("X", canon(f.sub)[0]), f
    if isinstance(f, Eventually):
        return ("F", canon(f.sub)[0]), f
    if isinstance(f, Globally):
        return ("G", canon(f.sub)[0]), f
    if isinstance(f, Until):
        return ("U", canon(f.left)[0], canon(f.right)[0]), f
    raise TypeError("unexpected formula node %r" % (f,))


# ---------------------------------------------------------------------------
# independent downstream path costs over raw JSON wiring


def _wiring(doc: dict) -> Tuple[Dict[str, int], Dict[str, List[str]], Dict[str, str]]:
    cost = {p["pid"]: p["cost"] for p in doc["processes"]}
    succ: Dict[str, List[str]] = {p["pid"]: [] for p in doc["processes"]}
    producer: Dict[str, str] = {}
    for p in doc["processes"]:
        for v in p["outputs"]:
            producer[v] = p["pid"]
    for p in doc["processes"]:
        for other in doc["processes"]:
            if p["pid"] != other["pid"] and set(p["outputs"]) & set(other["inputs"]):
                succ[p["pid"]].append(other["pid"])
    return cost, succ, producer


def min_downstream(doc_text: str, from_pid: str, target_var: str) -> Optional[int]:
    """Cheapest path cost from a successor of from_pid through to the
    producer of target_var, both ends included; 0 when from_pid is the
    producer itself; None when no path exists."""
    doc = json.loads(doc_text)
    cost, succ, producer = _wiring(doc)
    goal = producer[target_var]
    if from_pid == goal:
        return 0
    best: List[int] = []

    def walk(pid: str, acc: int, seen: frozenset) -> None:
        acc += cost[pid]
        if pid == goal:
            best.append(acc)
            return
        for nxt in succ[pid]:
            if nxt not in seen:
                walk(nxt, acc, seen | {nxt})

    for s in succ[from_pid]:
        walk(s, 0, frozenset([s]))
    return min(best) if best else None


# ---------------------------------------------------------------------------
# monitor grouping by restart-on-merge


def merged_groups(member_sets: Sequence[AbstractSet[str]]) -> List[List[int]]:
    """Content indices grouped the literal way: merge the first pair, in
    index order, whose member sets overlap (the later group's contents
    appended to the earlier one's), then start over, until no two groups
    overlap."""
    raw = [(set(members), [i]) for i, members in enumerate(member_sets)]
    merged = True
    while merged:
        merged = False
        for i, j in itertools.combinations(range(len(raw)), 2):
            if raw[i][0] & raw[j][0]:
                raw[i] = (raw[i][0] | raw[j][0], raw[i][1] + raw[j][1])
                del raw[j]
                merged = True
                break
    return [indices for _, indices in raw]


# ---------------------------------------------------------------------------
# tableau root-to-leaf paths


class TableauPath(NamedTuple):
    """One root-to-leaf path of a tableau; its leaf's status is the
    branch's outcome."""
    nodes: tuple

    @property
    def leaf(self):
        return self.nodes[-1]

    @property
    def outcome(self) -> str:
        return self.leaf.status


def tableau_paths(node) -> List[TableauPath]:
    """Every root-to-leaf path below ``node``, left to right, by recursion
    over ``children`` alone."""
    if not node.children:
        return [TableauPath((node,))]
    return [TableauPath((node,) + path.nodes)
            for child in node.children for path in tableau_paths(child)]
