"""Tableau construction: expansion goldens, termination, branch status."""

import functools
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costmon import (
    build_tableau,
    export_dot,
    leaves,
    negate,
    terminal_node,
    unwind,
)
from costmon import tableau
from costmon.formulas import (
    And,
    Atom,
    Globally,
    Not,
    Or,
    QDep,
    Verdict,
    evaluate_trace,
    make_event,
    nnf,
    parse_formula,
    render_formula,
)
from oracles import tableau_paths
from test_formula import formulas as formula_strategy
from test_golden_formulas import GOLDEN, _text

a, b, c = Atom("a"), Atom("b"), Atom("c")


def tick_labels(text):
    t = build_tableau(parse_formula(text))
    return [(br.outcome, [set(map(render_formula, n.label)) for n in br.nodes])
            for br in tableau_paths(t)]


# ---------------------------------------------------------------------------
# golden shapes

def test_conjunction_with_disjunction_two_branches():
    got = tick_labels("p & (q | r)")
    assert [out for out, _ in got] == ["ticked", "ticked"]
    assert got[0][1][-1] == {"p", "q"}
    assert got[1][1][-1] == {"p", "r"}


def test_globally_single_branch_loop():
    t = build_tableau(parse_formula("G p"))
    bs = tableau_paths(t)
    assert len(bs) == 1 and bs[0].outcome == "ticked"
    nodes = bs[0].nodes
    # the poised label {p, XGp} recurs once, then the branch closes by LOOP
    assert len(nodes) == 4
    assert nodes[-1].rule == "LOOP"
    assert set(map(render_formula, nodes[1].label)) == {"p", "X (G p)"}
    assert nodes[1].label == nodes[3].label


def test_dep_formula_single_branch_keeps_the_dependency_whole():
    t = build_tableau(parse_formula("G ((a & b) o<=5 c)"))
    bs = tableau_paths(t)
    assert len(bs) == 1 and bs[0].outcome == "ticked"
    assert [n.rule for n in bs[0].nodes] == ["G", "X", "G", "LOOP"]
    assert set(terminal_node(bs[0].leaf)) == {QDep(And(a, b), c, 5)}


def test_terminal_node_globally():
    [br] = tableau_paths(build_tableau(parse_formula("G p")))
    assert set(terminal_node(br.leaf)) == {Atom("p")}


def test_terminal_node_atomic():
    [br] = tableau_paths(build_tableau(Atom("a")))
    assert set(terminal_node(br.leaf)) == {a}


def test_terminal_node_rejects_crossed():
    [br] = tableau_paths(build_tableau(parse_formula("p & !p")))
    assert br.outcome == "crossed"
    with pytest.raises(ValueError):
        terminal_node(br.leaf)


def test_contradiction_is_crossed():
    got = tick_labels("p & !p")
    assert [out for out, _ in got] == ["crossed"]


def test_crossed_nodes_are_leaves():
    def walk(n):
        if n.status in ("ticked", "crossed"):
            assert len(n.children) == 0
        for ch in n.children:
            walk(ch)
    walk(build_tableau(parse_formula("(p | !p) & (q U !p)")))


def test_negated_pipeline_formula_branch_structure(pipeline, phi_pipeline):
    # the disjunction of seven falsification witnesses: the F rule fans
    # each disjunct into now/later/postpone, so 21 ticked branches that
    # cover exactly 7 distinct dependency witnesses
    u = unwind(phi_pipeline, pipeline)
    bs = tableau_paths(build_tableau(negate(u.formula)))
    ticked = [br for br in bs if br.outcome == "ticked"]
    assert len(ticked) == len(bs) == 21
    witnesses = set()
    for br in ticked:
        for g in terminal_node(br.leaf):
            if isinstance(g, Not) and isinstance(g.sub, QDep):
                witnesses.add(g.sub)
    assert len(witnesses) == 7


# ---------------------------------------------------------------------------
# a dependency is one literal

# every trace of length at most 4 over the events {}, {a}, {b}, {a, b} and
# {c}, each of cost 1: 781 traces
SMALL_TRACES = [list(tr) for n in range(5) for tr in itertools.product(
    [make_event(ps, 1) for ps in ((), ("a",), ("b",), ("a", "b"), ("c",))],
    repeat=n)]


@functools.lru_cache(maxsize=None)
def ticked_formula(f):
    """G of the disjunction of the contents of f's ticked leaves."""
    contents = [functools.reduce(And, terminal_node(leaf))
                for leaf in leaves(build_tableau(f))
                if leaf.status == "ticked"]
    return Globally(functools.reduce(Or, contents))


@pytest.mark.parametrize("left", ["a & b", "a | b", "a & (b | c)"])
def test_ticked_contents_mean_what_the_dependency_means(left):
    # G of the disjunction of the ticked branches' contents is the formula
    # again; reading the dependency per atom of its left operand is not
    f = parse_formula("G ((%s) o<=1 c)" % left)
    g = ticked_formula(f)
    assert len(SMALL_TRACES) == 781
    for tr in SMALL_TRACES:
        assert evaluate_trace(g, tr) is evaluate_trace(f, tr), tr


# The distribution laws, (a & b) o<=q c == (a o<=q c) & (b o<=q c) and the
# same with |, hold when the left operand's atoms stand or fall together at
# each position, which is how anchors behave in the intended runs (a stimulus
# pulses all its variables in the same round).  With a partial anchor like {a}
# under (a & b), the original is vacuous while the per-atom (a o<=q c)
# conjunct activates, so the two readings diverge; that is why the tableau
# keeps a dependency whole.
CO_ANCHORED = [make_event(ps, cost)
               for ps in ((), ("c",), ("a", "b"), ("a", "b", "c"))
               for cost in (0, 1)]

PER_ATOM = [
    (QDep(And(a, b), c, 2), And(QDep(a, c, 2), QDep(b, c, 2))),
    (QDep(Or(a, b), c, 2), Or(QDep(a, c, 2), QDep(b, c, 2))),
    (QDep(And(a, Or(b, c)), c, 1),
     And(QDep(a, c, 1), Or(QDep(b, c, 1), QDep(c, c, 1)))),
]


@settings(max_examples=80)
@given(st.sampled_from(PER_ATOM),
       st.lists(st.sampled_from(CO_ANCHORED), max_size=6))
def test_dist_preserves_semantics_on_co_anchored_traces(pair, tr):
    f, per_atom = pair
    verdict = evaluate_trace(Globally(f), tr)
    assert evaluate_trace(Globally(per_atom), tr) == verdict
    assert evaluate_trace(ticked_formula(Globally(f)), tr) == verdict


def test_dist_diverges_on_partial_anchor():
    # the recorded counterexample pinning the law's domain: the per-atom
    # reading fails where the dependency is vacuous, and the tableau's
    # ticked contents side with the dependency
    f = Globally(QDep(And(a, b), c, 2))
    tr = [make_event(("a",), 0), make_event((), 1), make_event((), 1),
          make_event((), 1)]
    assert evaluate_trace(f, tr) == Verdict.UNKNOWN
    assert evaluate_trace(Globally(PER_ATOM[0][1]), tr) == Verdict.FALSE
    assert evaluate_trace(ticked_formula(f), tr) == Verdict.UNKNOWN


def test_a_dependency_beside_its_negation_is_crossed():
    t = build_tableau(parse_formula("(a o<=1 b) & !(a o<=1 b)"))
    assert [(b.outcome, b.leaf.rule) for b in tableau_paths(t)] == [
        ("crossed", "contradiction")]


# ---------------------------------------------------------------------------
# termination and status coherence

def _build_or_capacity(f):
    """Build f's tableau; None when the size ceiling cut it off.

    Several eventualities nested under G blow the tree up exponentially,
    so over the whole grammar the builder promises halt-or-clean-error,
    never a hang.  Structural checks run on the builds that finish.
    """
    try:
        return build_tableau(f)
    except RuntimeError as e:
        assert "exceeded" in str(e)
        return None


@settings(max_examples=60, deadline=None)
@given(formula_strategy)
def test_builds_finite_tableau_or_trips_guard(f):
    t = _build_or_capacity(f)
    if t is None:
        return
    for br in tableau_paths(t):
        assert br.outcome in ("ticked", "crossed")
        assert len(br.nodes) < 200


@settings(max_examples=60, deadline=None)
@given(formula_strategy)
def test_ticked_branches_have_no_complementary_pair(f):
    t = _build_or_capacity(f)
    if t is None:
        return
    for br in tableau_paths(t):
        if br.outcome != "ticked":
            continue
        for n in br.nodes:
            names = {g.name for g in n.label if isinstance(g, Atom)}
            negated = {g.sub.name for g in n.label
                       if isinstance(g, Not) and isinstance(g.sub, Atom)}
            assert not names & negated


def test_leaves_match_an_independent_path_walk(monkeypatch):
    # a lower ceiling keeps the test affordable: a tableau that outgrows
    # the shipped one takes about half a second to get there
    monkeypatch.setattr(tableau, "NODE_LIMIT", 1000)
    with open(GOLDEN) as fh:
        texts = [entry["text"] for entry in json.load(fh) if entry["text"]]
    rng = random.Random(20)
    texts += [_text(rng, rng.randint(1, 5)) for _ in range(100)]
    built = 0
    for text in texts:
        t = _build_or_capacity(parse_formula(text))
        if t is None:
            continue
        built += 1
        assert [id(n) for n in leaves(t)] \
            == [id(path.leaf) for path in tableau_paths(t)], text
    assert built > len(texts) * 3 // 4


def _spine_disjuncts(f):
    """The disjuncts below the OR spine of ``f``, left to right, where an
    OR with two equal operands has one child."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if type(g) is not Or:
            out.append(g)
        elif g.left is g.right:
            todo.append(g.left)
        else:
            todo += [g.right, g.left]
    return out


def _leaf_view(root):
    return [(leaf.status, leaf.rule, leaf.label) for leaf in leaves(root)]


def test_a_disjunction_has_the_leaves_of_its_disjuncts(monkeypatch):
    monkeypatch.setattr(tableau, "NODE_LIMIT", 1000)
    with open(GOLDEN) as fh:
        texts = [entry["text"] for entry in json.load(fh) if entry["text"]]
    formulas = [parse_formula("a | a"), parse_formula("(a | b) | (a | b)")]
    for text in texts:
        f = parse_formula(text)
        formulas += [g for g in (f, negate(f)) if type(nnf(g)) is Or]
    checked = 0
    for f in formulas:
        whole = _build_or_capacity(f)
        parts = [_build_or_capacity(d) for d in _spine_disjuncts(nnf(f))]
        # the whole passes the ceiling exactly when one disjunct does
        assert (whole is None) == (None in parts), f
        if whole is None:
            continue
        checked += 1
        assert _leaf_view(whole) == [
            view for part in parts for view in _leaf_view(part)], f
    assert checked > 80
    assert len(leaves(build_tableau(parse_formula("a | a")))) == 1


def test_node_limit_counts_each_disjunct_on_its_own(monkeypatch):
    monkeypatch.setattr(tableau, "NODE_LIMIT", 50)
    # 40 disjuncts of 6 nodes each: 240 nodes below the spine
    many = parse_formula(" | ".join("F !(I%d o<=3 O%d)" % (i, i)
                                    for i in range(40)))
    assert len(leaves(build_tableau(many))) == 3 * 40
    # one disjunct past the ceiling still raises, alone or beside others
    big = "G (F a | F b)"
    for text in (big, "c | " + big, big + " | c"):
        with pytest.raises(tableau.TableauLimitError, match="50 nodes"):
            build_tableau(parse_formula(text))


def test_satisfied_eventualities_leave_labels():
    # without this normalization poised labels keep varying and the loop
    # rule starves; 244 nodes here, unbounded growth before
    root = build_tableau(parse_formula("G (F (F true))"))
    bs = tableau_paths(root)
    assert all(len(b.nodes) < 40 for b in bs)
    assert any(b.outcome == "ticked" for b in bs)


def test_capacity_ceiling_is_a_clean_error():
    # two independent eventualities under G: worst-case exponential tree
    with pytest.raises(RuntimeError, match="30000 nodes"):
        build_tableau(parse_formula("G (F a | F b)"))


def test_ticked_branch_word_not_falsifying():
    # desk-scale check of the tick: drive the formula over the word the
    # branch itself describes (positive literals of each poised label,
    # loop part repeated); the verdict must never be False
    for text in ["G p", "F p", "p & (q | r)", "p U q", "G (p | q)"]:
        f = parse_formula(text)
        for br in tableau_paths(build_tableau(f)):
            if br.outcome != "ticked":
                continue
            word = []
            for n in br.nodes:
                if n.rule in ("X", "LOOP", "open"):
                    word.append(make_event(
                        sorted(g.name for g in n.label if isinstance(g, Atom)), 0))
            word = word + word[-1:] * 3  # pump the loop a few times
            assert evaluate_trace(f, word) != Verdict.FALSE, (text, br.outcome)


# ---------------------------------------------------------------------------
# DOT export

def test_dot_marks_loop_tick():
    dot = export_dot(build_tableau(parse_formula("G p")))
    assert "digraph" in dot and "LOOP" in dot and "✓" in dot
    assert dot.count("n0") >= 2  # root present and wired


def test_dot_marks_cross():
    dot = export_dot(build_tableau(parse_formula("p & !p")))
    assert "×" in dot


def test_dot_single_node_for_literal_true():
    t = build_tableau(parse_formula("true"))
    assert len(tableau_paths(t)) == 1
    assert tableau_paths(t)[0].outcome == "ticked"
    assert "true" in export_dot(t)


def test_dot_deterministic(phi_pipeline, pipeline):
    u = unwind(phi_pipeline, pipeline)
    f = negate(u.formula)
    assert export_dot(build_tableau(f)) == export_dot(build_tableau(f))
