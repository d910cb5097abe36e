"""Partitioning processes into monitor groups and assigning conjuncts."""

import itertools
import json
import random
import tracemalloc

import pytest

from costmon import (
    Eventually,
    Globally,
    Not,
    Or,
    UnobservableAtomError,
    assign_conjuncts,
    atoms,
    build_sorting_line_scenario,
    build_tableau,
    evaluate_trace,
    example2_scenario,
    load_graph,
    load_scenario,
    make_event,
    negate,
    organize_groups,
    parse_formula,
    plan_monitors,
    random_scenario,
    unwind,
)
from costmon.formulas import TRUE, Next, disj
from costmon.grouping import _sole_owner, branch_content, dep_core, grow_groups
from costmon.sortingline import FAULT_NAMES, TOKENS
from costmon.tableau import leaves
from oracles import merged_groups

import test_golden_run

TWO_PROC_DOC = json.dumps({"processes": [
    {"pid": "p0", "inputs": ["e"], "outputs": ["a"], "cost": 1},
    {"pid": "p1", "inputs": ["a"], "outputs": ["b"], "cost": 1},
]})


def fnot(text: str) -> Eventually:
    return Eventually(Not(parse_formula(text)))


# ---------------------------------------------------------------------------
# the pipeline: one row per process

def test_pipeline_groups_are_singletons(pipeline, phi_pipeline):
    plan = plan_monitors(phi_pipeline, pipeline)
    rows = [(g.members, g.formula) for g in plan.groups]
    assert rows == [
        (("p0",), fnot("(I0 o<=11 O0)")),
        (("p1",), fnot("(I1 o<=16 O1)")),
        (("p2",), fnot("(O0 o<=12 O2)")),
        (("p3",), fnot("(O0 o<=13 O3)")),
        (("p4",), fnot("(O2 o<=16 O4)")),
        (("p5",), fnot("(O3 o<=16 O5)")),
        (("p6",), fnot("((O1 & (O4 & O5)) o<=20 Of)")),
    ]
    for g in plan.groups:
        assert g.members == tuple(sorted(g.members))
        assert len(g.branch_formulas) == 1


def test_pipeline_assignment_rows(pipeline, phi_pipeline):
    plan = plan_monitors(phi_pipeline, pipeline)
    assign = assign_conjuncts(plan.groups, pipeline)
    assert len(assign) == 7
    assert assign["p0"] == fnot("(I0 o<=11 O0)")
    assert assign["p6"] == fnot("((O1 & (O4 & O5)) o<=20 Of)")


# ---------------------------------------------------------------------------
# algorithm corners

def test_single_branch_keeps_everyone_together(pipeline):
    f = parse_formula("!O0")
    groups = organize_groups(build_tableau(f), graph=pipeline)
    assert len(groups) == 1
    assert groups[0].members == ("p0", "p1", "p2", "p3", "p4", "p5", "p6")
    assert groups[0].formula == f


def test_branch_content_absorbs_what_the_label_repeats(pipeline):
    # I0 is implied by G I0 and F I0 by I0, so the three-member leaf
    # stands for G I0 alone, as does every branch of its disjunct
    f = parse_formula("(F I0 & G I0) | G Of")
    root = build_tableau(f)
    i0 = parse_formula("I0")
    [leaf] = [n for n in leaves(root) if set(n.label) == {
        i0, Next(Globally(i0)), Next(Eventually(i0))}]
    assert leaf.status == "ticked"
    assert branch_content(leaf) == Globally(i0)
    rows = [(g.members, g.formula)
            for g in organize_groups(root, graph=pipeline)]
    assert rows == [(("p0",), parse_formula("G I0")),
                    (("p6",), parse_formula("G Of"))]
    # a branch that ends in true carries no obligation
    [leaf] = [n for n in leaves(build_tableau(parse_formula("X true | I0")))
              if n.label == (TRUE,)]
    assert leaf.status == "ticked"
    assert branch_content(leaf) is None
    plan = plan_monitors(parse_formula("F I0 & F Of"), pipeline)
    assert [(g.members, g.formula) for g in plan.groups] == [
        (("p0",), parse_formula("G (!I0)")),
        (("p6",), parse_formula("G (!Of)"))]


def test_overlapping_branches_merge():
    g = load_graph(TWO_PROC_DOC)
    f = parse_formula("F (!a) | F (!(a & b))")
    groups = organize_groups(build_tableau(f), graph=g)
    assert len(groups) == 1
    grp = groups[0]
    assert grp.members == ("p0", "p1")
    assert set(grp.branch_formulas) == {
        parse_formula("!a"), parse_formula("F (!a)"),
        parse_formula("!b"), parse_formula("F (!a | !b)"),
    }
    # the merged disjunction says the same thing as the input
    for n in range(0, 4):
        for combo in itertools.product([(), ("a",), ("b",), ("a", "b")],
                                       repeat=n):
            tr = [make_event(props=c) for c in combo]
            assert evaluate_trace(grp.formula, tr) == evaluate_trace(f, tr)


def test_group_lists_contents_in_growth_order():
    # !e is seen by p0 only, !h by p1 only, (!e & !h) by both: the third
    # content joins the first before the second does
    g = load_graph(json.dumps({"processes": [
        {"pid": "p0", "inputs": ["e"], "outputs": ["a"], "cost": 1},
        {"pid": "p1", "inputs": ["h"], "outputs": ["b"], "cost": 1},
        {"pid": "p2", "inputs": ["a", "b"], "outputs": ["d"], "cost": 1},
    ]}))
    f = parse_formula("!e | (!h | (!e & !h))")
    [grp] = organize_groups(build_tableau(f), graph=g)
    assert grp.members == ("p0", "p1")
    assert grp.branch_formulas == (parse_formula("!e"),
                                   parse_formula("!e & !h"),
                                   parse_formula("!h"))
    assert grp.formula == parse_formula("!e | ((!e & !h) | !h)")


def test_growth_rule_matches_restart_on_merge():
    rng = random.Random(6)
    out_of_index_order = 0
    for _ in range(2000):
        pids = ["p%d" % i for i in range(rng.randint(1, 10))]
        member_sets = [set(rng.sample(pids, rng.randint(0, min(3, len(pids)))))
                       for _ in range(rng.randint(0, 12))]
        got = grow_groups(member_sets)
        assert got == merged_groups(member_sets), member_sets
        out_of_index_order += any(grp != sorted(grp) for grp in got)
    # the order rule is exercised, not just the partition
    assert out_of_index_order > 100


def test_unobservable_atom_is_rejected(pipeline):
    f = parse_formula("F (!zz)")
    with pytest.raises(UnobservableAtomError, match="zz"):
        organize_groups(build_tableau(f), graph=pipeline)


def test_grouping_memory_stays_linear():
    # chain-1000, costs 1, 2, 3 repeating: 3,000 ticked leaves about 500
    # nodes deep on average, so a copy of every branch's nodes would
    # take about 1.5 M references
    n = 1000
    costs = [1 + i % 3 for i in range(n)]
    g = load_graph(json.dumps({"processes": [
        {"pid": "p%d" % i, "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
         "outputs": ["Of" if i == n - 1 else "O%d" % i], "cost": c}
        for i, c in enumerate(costs)], "environment": ["I0"]}))
    neg = negate(unwind(parse_formula("G (I0 o<=%d Of)" % sum(costs)),
                        g).formula)
    root = build_tableau(neg)
    tracemalloc.start()
    try:
        groups = organize_groups(root, graph=g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(groups) == n
    assert peak <= 4 * 2**20


def test_conjunct_without_producer_is_rejected(pipeline):
    # both operands live in the environment, so no process can own the row
    f = parse_formula("G (I0 o<=2 I1)")
    u = unwind(f, pipeline)
    neg = negate(u.formula)
    groups = organize_groups(build_tableau(neg), graph=pipeline)
    with pytest.raises(UnobservableAtomError, match="no producing member"):
        assign_conjuncts(groups, pipeline)


def _emitting_owners(groups, unwound):
    """Reference owner rule: each dependency conjunct goes to the process
    whose unwinding emitted its dependency."""
    owner_of = {dep: pid for pid, dep in unwound.entries}
    out = {}
    for group in groups:
        for f in group.branch_formulas:
            dep = dep_core(f)
            if dep is None:
                continue
            pid = owner_of[dep]
            out[pid] = f if pid not in out else disj([out[pid], f])
    return out


def _assignment_inputs():
    """(formula, graph) of the golden-run scenario files, 200 random
    scenarios, example2, and the sorting line: both tokens under every
    fault, and each of its watcher rows on its own."""
    scenarios = [load_scenario(json.dumps(doc))
                 for doc in test_golden_run._scenarios().values()]
    scenarios += [random_scenario(seed) for seed in range(200)]
    scenarios.append(example2_scenario())
    scenarios += [build_sorting_line_scenario(token, fault)
                  for token in TOKENS for fault in (None,) + FAULT_NAMES]
    for sc in scenarios:
        yield sc.formula, sc.graph
        for _, _, row in sc.monitor_specs:
            yield row, sc.graph


def test_owner_is_the_emitting_process():
    # the sole owner (the producer of the right operand) is the process
    # unwinding emitted the conjunct for
    for f, graph in _assignment_inputs():
        u = unwind(f, graph)
        neg = negate(u.formula)
        groups = organize_groups(build_tableau(neg), graph)
        want = _emitting_owners(groups, u)
        assert want and assign_conjuncts(groups, graph) == want, f
        # a split group keeps the owner its split found
        for group in groups:
            assert group.owner in (None, _sole_owner(group.formula, graph))
            assert group.owner is None or group.members == (group.owner,)


# ---------------------------------------------------------------------------
# contract over both systems

def test_group_invariants(pipeline, phi_pipeline):
    plan = plan_monitors(phi_pipeline, pipeline)
    seen = set()
    for g in plan.groups:
        assert len(g.members) > 0
        assert not (set(g.members) & seen)
        seen |= set(g.members)
        assert atoms(g.formula)
    union = set()
    for g in plan.groups:
        union |= atoms(g.formula)
    assert union == atoms(negate(unwind(phi_pipeline, pipeline).formula))


def test_group_disjunction_matches_negated_formula(pipeline, phi_pipeline):
    plan = plan_monitors(phi_pipeline, pipeline)
    negated = negate(unwind(phi_pipeline, pipeline).formula)
    merged = plan.groups[0].formula
    for g in plan.groups[1:]:
        merged = Or(merged, g.formula)
    events = [(), ("I0", "I1"), ("O0",), ("Of",)]
    for n in range(0, 3):
        for combo in itertools.product(events, repeat=n):
            tr = [make_event(props=c, cost=1) for c in combo]
            assert evaluate_trace(merged, tr) == evaluate_trace(negated, tr)


def test_sole_owner_must_observe_every_atom(pipeline):
    # p2 produces O2 and observes O0 and O2, not I1
    assert _sole_owner(parse_formula("!(O0 o<=1 O2)"), pipeline) == "p2"
    assert _sole_owner(parse_formula("!(O0 o<=1 O2) & I1"), pipeline) is None
