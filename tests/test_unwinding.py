"""Rewriting an end-to-end budget into per-process conjuncts."""

import json

import pytest

from conftest import CHAIN_DOC, PIPELINE_DOC
from costmon import (
    And,
    Atom,
    Eventually,
    Globally,
    GraphError,
    InfeasibleConstraintError,
    QDep,
    atoms,
    extract_qdep,
    load_graph,
    local_constraint,
    parse_formula,
    unwind,
)
from costmon import unwinding
from costmon.depgraph import Process
from costmon.formulas import conj, render_formula
from costmon.unwinding import (TemporalOperandError,
                               UnsplittableDependencyError,
                               apply_dependency_rule)

from oracles import min_downstream


def dep(left: str, right: str, q: int) -> QDep:
    return parse_formula("(%s o<=%d %s)" % (left, q, right))


def conjuncts(f):
    # flatten an And spine into its leaves
    stack, out = [f], []
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack.extend([g.right, g.left])
        else:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# extract_qdep

def test_extract_single_dependency():
    got = extract_qdep(parse_formula("G ((c & d) o<=10 e)"))
    assert len(got) == 1
    t = got[0]
    assert t.left == And(Atom("c"), Atom("d"))
    assert t.right == Atom("e")
    assert t.bound == 10


def test_extract_nothing_without_dependencies():
    assert extract_qdep(parse_formula("G (a & F b)")) == []


def test_extract_preserves_preorder():
    got = extract_qdep(parse_formula("(a o<=5 b) & (b o<=3 c)"))
    assert [(t.left, t.right, t.bound) for t in got] == [
        (Atom("a"), Atom("b"), 5),
        (Atom("b"), Atom("c"), 3),
    ]


def test_extract_keeps_duplicates():
    got = extract_qdep(parse_formula("(a o<=5 b) | (a o<=5 b)"))
    assert len(got) == 2


# ---------------------------------------------------------------------------
# local_constraint

def test_local_constraints_on_the_pipeline(pipeline):
    assert local_constraint(pipeline, "p0", "Of", 20) == 11
    assert local_constraint(pipeline, "p2", "Of", 20) == 12
    assert local_constraint(pipeline, "p3", "Of", 20) == 13
    assert local_constraint(pipeline, "p6", "Of", 20) == 20


def test_local_constraint_matches_path_sums(pipeline):
    # q minus the cheapest downstream cost, recomputed from the raw
    # document without the graph machinery
    for pid in ("p0", "p1", "p2", "p3", "p4", "p5", "p6"):
        down = min_downstream(PIPELINE_DOC, pid, "Of")
        assert local_constraint(pipeline, pid, "Of", 20) == 20 - down


def test_local_constraint_rejects_uncoverable_budget(pipeline):
    with pytest.raises(InfeasibleConstraintError,
                       match=r"budget 5 cannot cover path p0 -> p2 -> p4 -> p6"):
        local_constraint(pipeline, "p0", "Of", 5)


# ---------------------------------------------------------------------------
# apply_dependency_rule

def test_rule_single_input():
    p = Process(pid="p0", inputs=("I0",), outputs=("O0",), cost=2)
    assert apply_dependency_rule(p, "O0", 11) == dep("I0", "O0", 11)


def test_rule_conjoins_all_inputs():
    p = Process(pid="p6", inputs=("O1", "O4", "O5"), outputs=("Of",), cost=4)
    got = apply_dependency_rule(p, "Of", 20)
    assert got == QDep(And(Atom("O1"), And(Atom("O4"), Atom("O5"))),
                       Atom("Of"), 20)


def test_rule_covers_only_the_requested_output():
    p = Process(pid="px", inputs=("I",), outputs=("O1", "O2"), cost=1)
    assert apply_dependency_rule(p, "O2", 7) == dep("I", "O2", 7)


# ---------------------------------------------------------------------------
# unwind

def test_chain_unwinding():
    g = load_graph(CHAIN_DOC)
    u = unwind(parse_formula("G (I0 o<=12 Of)"), g)
    want = {dep("I0", "O0", 5), dep("O0", "O1", 8), dep("O1", "Of", 12)}
    got = conjuncts(u.formula)
    assert all(isinstance(c, Globally) for c in got)
    assert {c.sub for c in got} == want
    # constraints re-derived from the raw document: q minus downstream sums
    for pid, d in u.entries:
        assert d.bound == 12 - min_downstream(CHAIN_DOC, pid, "Of")


def test_pipeline_unwinding(pipeline, phi_pipeline):
    u = unwind(phi_pipeline, pipeline)
    want = {
        dep("I0", "O0", 11): 11,
        dep("I1", "O1", 16): 16,
        dep("O0", "O2", 12): 12,
        dep("O0", "O3", 13): 13,
        dep("O2", "O4", 16): 16,
        dep("O3", "O5", 16): 16,
        QDep(And(Atom("O1"), And(Atom("O4"), Atom("O5"))), Atom("Of"), 20): 20,
    }
    assert {d: d.bound for _, d in u.entries} == want
    assert len(u.entries) == 7
    assert {pid for pid, _ in u.entries} == {"p0", "p1", "p2", "p3", "p4", "p5", "p6"}
    for pid, d in u.entries:
        assert pipeline.producer[d.right.name] == pid


def test_unwinding_preserves_temporal_wrapper(pipeline, phi_pipeline):
    u = unwind(phi_pipeline, pipeline)
    for c in conjuncts(u.formula):
        assert isinstance(c, Globally)
        assert isinstance(c.sub, QDep)


def test_environment_only_dependency_left_alone(pipeline):
    f = parse_formula("G (I0 o<=5 I1)")
    u = unwind(f, pipeline)
    assert u.formula == f
    assert len(u.entries) == 0


def test_constraints_grow_along_every_path(pipeline, phi_pipeline):
    u = unwind(phi_pipeline, pipeline)
    by_pid = {pid: d.bound for pid, d in u.entries}
    for path in pipeline.dependency_paths("Of"):
        values = [by_pid[pid] for pid in path]
        assert values == sorted(values)
        assert values[-1] == 20


def test_unwinding_budget_must_cover_the_deepest_path(pipeline):
    with pytest.raises(InfeasibleConstraintError, match="cannot cover path"):
        unwind(parse_formula("G ((I0 & I1) o<=5 Of)"), pipeline)


def test_unknown_variable_is_a_graph_error(pipeline):
    with pytest.raises(GraphError, match="Zz"):
        unwind(parse_formula("G (I0 o<=9 Zz)"), pipeline)


def test_unknown_variable_error_names_the_first_occurrence(pipeline):
    # not whichever comes first in a string set, whose order follows the
    # hash seed
    names = ["Zz%d" % i for i in range(12)]
    with pytest.raises(GraphError) as exc:
        unwind(parse_formula("G (I0 o<=9 (%s))" % " & ".join(names)),
               pipeline)
    assert str(exc.value) == "formula variable Zz0 is unknown to the graph"


@pytest.mark.parametrize("right", [
    "(O2 | O3)", "!O2", "F O2", "X O2", "(O2 U O3)", "(I0 | O2)",
    "(O3 & (O2 | I1))", "(O3 & !O2)"])
def test_unsplittable_right_operand_is_refused(pipeline, right):
    # one obligation per producer would demand every named variable, where
    # the operand itself may hold without some of them
    f = parse_formula("G ((I0 & I1) o<=10 %s)" % right)
    with pytest.raises(UnsplittableDependencyError) as exc:
        unwind(f, pipeline)
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == (
        "cannot unwind %s: a right operand naming a dependent variable must "
        "be a variable or a conjunction of variables" % render_formula(f.sub))


@pytest.mark.parametrize("text", [
    "G ((F I0) o<=20 Of)", "G ((I0 o<=3 I1) o<=20 Of)",
    "G ((I0 U I1) o<=20 I1)", "G (X (I0 & !I1) o<=5 O2)",
    "F (I0 o<=5 (I1 & G true))", "G (I0 o<=5 F I1)"])
def test_a_dependency_operand_must_be_propositional(pipeline, text):
    # refused whether or not the dependency names a dependent variable
    f = parse_formula(text)
    dep = extract_qdep(f)[0]
    with pytest.raises(TemporalOperandError) as exc:
        unwind(f, pipeline)
    assert str(exc.value) == (
        "cannot unwind %s: dependency operands must be propositional"
        % render_formula(dep))


def test_conjunctive_right_operand_unwinds_every_producer(pipeline):
    u = unwind(parse_formula("G ((I0 & I1) o<=10 (O2 & O3))"), pipeline)
    assert [(pid, render_formula(d)) for pid, d in u.entries] == [
        ("p2", "(O0 o<=10 O2)"), ("p0", "(I0 o<=9 O0)"),
        ("p3", "(O0 o<=10 O3)"), ("p0", "(I0 o<=8 O0)")]


def test_a_conjunct_two_traversals_reach_is_built_once(pipeline,
                                                       monkeypatch):
    # p0 is 5 cost units upstream of both O4 and O5, so the walks back
    # from either emit (I0 o<=15 O0)
    built = []

    def counted(p, v, c):
        built.append((p.pid, v, c))
        return apply_dependency_rule(p, v, c)

    monkeypatch.setattr(unwinding, "apply_dependency_rule", counted)
    u = unwind(parse_formula("G ((I0 & I1) o<=20 (O4 & O5))"), pipeline)
    assert ("p0", "O0", 15) in built
    assert len(built) == len(set(built)) == len(u.entries) == 5


def test_a_dependency_under_g_builds_no_conjunction_of_its_conjuncts(
        pipeline, phi_pipeline, monkeypatch):
    built = []

    def spy(parts):
        built.append(list(parts))
        return conj(parts)

    monkeypatch.setattr(unwinding, "conj", spy)
    u = unwind(phi_pipeline, pipeline)
    assert not [p for parts in built for p in parts if type(p) is QDep]
    # anywhere else the dependency becomes that conjunction
    f = unwind(parse_formula("F ((I0 & I1) o<=20 Of)"), pipeline).formula
    assert f == Eventually(conj([d for _, d in u.entries]))


@pytest.mark.parametrize("right", ["(I0 | I1)", "!I1", "(I1 & !I0)"])
def test_environment_right_operand_of_any_shape_is_left_alone(pipeline,
                                                              right):
    # of any propositional shape; a temporal one is refused like any other
    f = parse_formula("G (I0 o<=5 %s)" % right)
    u = unwind(f, pipeline)
    assert (u.formula, u.entries) == (f, ())


def test_unwinding_only_adds_atoms(pipeline, phi_pipeline):
    u = unwind(phi_pipeline, pipeline)
    assert atoms(phi_pipeline) <= atoms(u.formula)
    assert atoms(u.formula) == {"I0", "I1", "O0", "O1", "O2", "O3", "O4", "O5", "Of"}


# ---------------------------------------------------------------------------
# scale: no recursion depth grows with the graph


def test_chain_of_5000_unwinds():
    n = 5000
    procs = [{"pid": "p%d" % i, "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
              "outputs": ["Of" if i == n - 1 else "O%d" % i], "cost": 1}
             for i in range(n)]
    g = load_graph(json.dumps({"processes": procs}))
    u = unwind(parse_formula("G (I0 o<=%d Of)" % n), g)
    budgets = {pid: d.bound for pid, d in u.entries}
    assert len(budgets) == n
    assert budgets["p0"] == 1 and budgets["p%d" % (n - 1)] == n


def test_stack_of_20_diamonds_unwinds():
    k = 20
    procs = [{"pid": "s", "inputs": ["I0"], "outputs": ["B0"], "cost": 1}]
    for i in range(k):
        bottom = "Of" if i == k - 1 else "B%d" % (i + 1)
        procs += [
            {"pid": "l%d" % i, "inputs": ["B%d" % i], "outputs": ["C%d" % i],
             "cost": 1},
            {"pid": "r%d" % i, "inputs": ["B%d" % i], "outputs": ["D%d" % i],
             "cost": 2},
            {"pid": "m%d" % i, "inputs": ["C%d" % i, "D%d" % i],
             "outputs": [bottom], "cost": 1}]
    g = load_graph(json.dumps({"processes": procs}))
    q = 1 + 4 * k
    u = unwind(parse_formula("G (I0 o<=%d Of)" % q), g)
    budgets = {pid: d.bound for pid, d in u.entries}
    assert len(budgets) == 1 + 3 * k
    # the cheapest stretch below s takes every left branch: 2 per diamond
    assert budgets["s"] == q - 2 * k
    with pytest.raises(InfeasibleConstraintError,
                       match="path s -> l0 -> m0 -> l1 -> m1 -> l2 "):
        unwind(parse_formula("G (I0 o<=%d Of)" % (2 * k - 1)), g)
