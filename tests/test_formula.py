"""Formula layer: grammar, normalization, progression, oracle agreement."""

import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costmon.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Budget,
    Event,
    Eventually,
    Formula,
    FormulaSyntaxError,
    Globally,
    Next,
    Not,
    Or,
    QDep,
    Until,
    Verdict,
    atoms,
    conj,
    eval_props,
    evaluate_trace,
    evaluate_trace_with_position,
    make_event,
    negate,
    nnf,
    ordered_atoms,
    parse_formula,
    progress,
    render_formula,
    subformula_index,
    subformulas,
)
from costmon.runtime import ResidualWatcher
from costmon.unwinding import extract_qdep
from oracles import flip, pair_verdict_bare, pair_verdict_globally

a, b, c = Atom("a"), Atom("b"), Atom("c")


def E(names=(), cost=0):
    return make_event(names, cost)


# every event over two atoms with costs 0..2; the sweep universe
EVENTS2 = [make_event(ps, cost)
           for ps in ((), ("a",), ("b",), ("a", "b"))
           for cost in (0, 1, 2)]


def all_traces(events, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(events, repeat=n)


# ---------------------------------------------------------------------------
# grammar

def test_parse_dep_formula():
    f = parse_formula("G ((a & b) o<=5 c)")
    assert f == Globally(QDep(And(a, b), c, 5))


def test_parse_literals():
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE


def test_parse_precedence():
    # U binds loosest, then |, then &, then the unary operators
    f = parse_formula("a | b & c U G a")
    assert f == Until(Or(a, And(b, c)), Globally(a))


def test_parse_unbalanced_reports_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("G (a &")
    assert "position 6" in str(err.value)


def test_parse_rejects_negative_bound():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(a o<=-1 b)")


def test_parse_accepts_trailing_whitespace():
    assert parse_formula("G (a o<=3 b) \t\n") == parse_formula("G (a o<=3 b)")


@pytest.mark.parametrize("text, message", [
    ("(a & b", "expected ), found 'end of input' (at position 6)"),
    ("(a o<= b)", "expected INT, found 'b' (at position 7)"),
], ids=["missing-paren", "missing-bound"])
def test_parse_names_what_is_missing(text, message):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert str(err.value) == message


def test_parse_trailing_garbage():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("G (a & b))")


names = st.sampled_from(["a", "b", "c"])
leaves = st.one_of(st.builds(Atom, names), st.just(TRUE), st.just(FALSE))

# dependency operands are state predicates, so keep them propositional
props_only = st.recursive(
    leaves,
    lambda ch: st.one_of(st.builds(And, ch, ch), st.builds(Or, ch, ch),
                         st.builds(Not, ch)),
    max_leaves=4)


def _extend(children):
    return st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
        st.builds(Next, children),
        st.builds(Eventually, children),
        st.builds(Globally, children),
        st.builds(Until, children, children),
        st.builds(QDep, props_only, props_only, st.integers(0, 4)),
    )


formulas = st.recursive(leaves, _extend, max_leaves=9)


@given(formulas)
def test_render_parse_round_trip(f):
    assert parse_formula(render_formula(f)) == f


# ---------------------------------------------------------------------------
# interning: equal trees are one object

def test_parsing_twice_gives_the_same_object():
    text = "G ((a & b) o<=5 c) & F (a U !b)"
    assert parse_formula(text) is parse_formula(text)
    assert QDep(And(a, b), c, 5) is QDep(And(a, b), c, 5)
    assert Budget(c, 3) is not Budget(c, 4)


def test_nodes_are_immutable():
    f = And(a, b)
    with pytest.raises(AttributeError):
        f.left = c
    with pytest.raises(AttributeError):
        del f.left
    assert f.left is a


def test_copies_and_unpickled_nodes_are_the_interned_node():
    f = parse_formula("G ((a & b) o<=5 c) | (X a U !b)")
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_negative_dependency_bound_is_rejected():
    with pytest.raises(ValueError):
        QDep(a, b, -1)


def test_repr_names_the_fields():
    assert repr(QDep(And(a, b), c, 5)) == (
        "QDep(left=And(left=Atom(name='a'), right=Atom(name='b')), "
        "right=Atom(name='c'), bound=5)")


def test_throwaway_nodes_leave_the_intern_table():
    before = len(Formula._interned)
    for i in range(10 ** 5):
        And(Atom("tmp%d" % i), a)
    assert len(Formula._interned) <= before + 2


def test_a_dead_reference_drops_only_its_own_entry():
    f = And(Atom("kept"), a)
    key = (And, Atom("kept"), a)
    ref = Formula._interned[key]
    assert ref.key == key
    stale = type(ref)(f, ref.__callback__)  # an older reference under the key
    stale.key = key
    ref.__callback__(stale)
    assert Formula._interned[key] is ref
    assert And(Atom("kept"), a) is f
    ref.__callback__(ref)
    assert key not in Formula._interned


def _node_class(arity):
    """A node class with ``arity`` fields, defined after the package's."""
    names = ("left", "right", "n")[:arity]

    class Node(Formula):
        __slots__ = fields = names
        kids = names[:2]

    return Node


ARGS = (Atom("k0"), Atom("k1"), 7)


@pytest.mark.parametrize("arity", range(4))
def test_a_later_node_class_interns_its_nodes(arity):
    node_class, args = _node_class(arity), ARGS[:arity]
    node = node_class(*args)
    assert node_class(*args) is node
    assert [getattr(node, k) for k in node_class.fields] == list(args)
    assert node._atoms is None
    with pytest.raises(AttributeError):
        node.left = c
    with pytest.raises(AttributeError):
        node._atoms = frozenset()
    key = (node_class,) + args
    assert Formula._interned[key]() is node
    del node
    assert key not in Formula._interned


@pytest.mark.parametrize("arity", range(4))
def test_a_wrong_argument_count_is_a_type_error(arity):
    node_class = _node_class(arity)
    with pytest.raises(TypeError):
        node_class(*ARGS[:arity], c)
    if arity:
        with pytest.raises(TypeError):
            node_class(*ARGS[:arity - 1])


def test_a_class_with_its_own_constructor_keeps_it():
    class Dep(QDep):
        __slots__ = ()

    with pytest.raises(ValueError):
        QDep(a, b, -1)
    with pytest.raises(ValueError):
        Dep(a, b, -1)
    with pytest.raises(TypeError):
        QDep(a, b)
    assert Dep(a, b, 1) is Dep(a, b, 1) is not QDep(a, b, 1)


def test_round_trip_nested_chains():
    for f in [And(And(a, b), c), And(a, And(b, c)),
              Until(Until(a, b), c), Until(a, Until(b, c)),
              QDep(Or(a, b), c, 0)]:
        assert parse_formula(render_formula(f)) == f


# ---------------------------------------------------------------------------
# negation

def test_negate_pushes_into_dep_formula():
    f = parse_formula("G ((O1 & O4 & O5) o<=20 Of)")
    assert negate(f) == parse_formula("F (!((O1 & O4 & O5) o<=20 Of))")


def test_negate_de_morgan():
    assert negate(Or(a, b)) == And(Not(a), Not(b))


def test_negate_double_negation():
    assert negate(Not(a)) == a


def test_nnf_not_only_over_atoms_and_deps():
    def ok(f):
        if isinstance(f, Not):
            if not isinstance(f.sub, (Atom, QDep)):
                return False
            return True
        kids = [getattr(f, n) for n in ("left", "right", "sub", "target")
                if hasattr(f, n)]
        return all(ok(k) for k in kids)

    for text in ["!(a U b)", "!(a & (b | X c))", "!G (a o<=3 b)", "!F !a"]:
        assert ok(nnf(parse_formula(text))), text


@settings(max_examples=40)
@given(formulas)
def test_negate_involution_on_small_traces(f):
    # negate(negate(f)) and nnf(f) must be indistinguishable by evaluation
    g, h = negate(negate(f)), nnf(f)
    for tr in all_traces([E(), E(("a",), 1), E(("b", "c"), 1), E(("a", "b", "c"))], 2):
        assert evaluate_trace(g, tr) == evaluate_trace(h, tr)


# ---------------------------------------------------------------------------
# atoms

def test_atoms_collects_all_names():
    assert atoms(parse_formula("G ((I0 & I1) o<=20 Of)")) == {"I0", "I1", "Of"}


def test_atoms_of_literals_empty():
    assert atoms(TRUE) == frozenset()


def test_atoms_are_a_set():
    assert atoms(And(a, Not(a))) == {"a"}


def test_subformulas_stop_yields_a_stopped_node_but_not_its_kids():
    f = parse_formula("((a o<=2 (b & c)) & ((d U e) | X b))")
    dep, rest = f.left, f.right
    until, nxt = rest.left, rest.right
    everything = [f, dep, a, dep.right, b, c, rest, until, until.left,
                  until.right, nxt, b]
    assert list(subformulas(f)) == everything
    assert list(subformulas(f, stop=())) == everything
    assert list(subformulas(f, stop=(QDep,))) == [
        f, dep, rest, until, until.left, until.right, nxt, b]
    assert list(subformulas(f, stop=(QDep, Until))) == [
        f, dep, rest, until, nxt, b]
    assert list(subformulas(dep, stop=(QDep,))) == [dep]
    assert list(subformulas(f, stop=(And,))) == [f]
    residual = Budget(And(b, c), 3)
    assert list(subformulas(Or(residual, b), stop=(Budget,))) == [
        Or(residual, b), residual, b]


# ---------------------------------------------------------------------------
# progression

def test_progress_unrolls_globally_eventually():
    f = parse_formula("G (F b)")
    assert progress(f, E(("a",), 1)) == And(Eventually(b), Globally(Eventually(b)))


def test_progress_budget_overrun_is_false():
    # deadline 2, event cost 3: dead regardless of what else the event says
    assert progress(Budget(b, 2), E((), 3)) == FALSE
    assert progress(Budget(b, 2), E(("b",), 3)) == FALSE
    assert progress(Budget(b, 7), E(("b",), 3), 5) == FALSE


def test_progress_budget_discharge():
    # a budget that neither runs out nor discharges is its own residual,
    # up to the step that ends on its deadline
    assert progress(Budget(b, 2), E(("b",), 2)) == TRUE
    assert progress(Budget(b, 2), E((), 2)) is Budget(b, 2)
    assert progress(Budget(b, 7), E((), 2), 5) is Budget(b, 7)
    assert progress(Budget(b, 7), E(("b",), 2), 5) == TRUE


def test_progress_atom():
    assert progress(a, E(("a",), 0)) == TRUE
    assert progress(a, E(("b",), 0)) == FALSE


def test_dep_discharge_at_anchor_costs_nothing():
    # both sides at the anchor event: satisfied even with bound 0 and a
    # large event cost, because the anchor itself consumes no budget
    f = QDep(a, b, 0)
    assert evaluate_trace(f, [E(("a", "b"), 5)]) == Verdict.TRUE


def test_dep_vacuous_when_anchor_fails():
    assert evaluate_trace(QDep(a, b, 1), [E((), 9)]) == Verdict.TRUE


# every literal [8/8] steps: atoms, dependencies with q in 0..4 and
# budgets with deadlines 0..4
LITERALS = ([a, b] + [QDep(left, b, q) for left in (a, b, And(a, b))
                      for q in range(5)]
            + [Budget(b, r) for r in range(5)])


def _dual(f):
    return FALSE if f == TRUE else TRUE if f == FALSE else Not(f)


@pytest.mark.parametrize("lit", LITERALS, ids=render_formula)
def test_negated_literal_steps_as_the_dual_of_its_literal(lit):
    for e in EVENTS2:
        assert progress(Not(lit), e) == _dual(progress(lit, e)), e
    # and each negated literal keeps its own step rule: a negated
    # dependency stays open only if it activates without its right operand
    # at once, a negated budget holds once overrun
    for e in EVENTS2:
        r = progress(Not(lit), e)
        if type(lit) is Atom:
            assert r == (FALSE if lit.name in e.props else TRUE), e
        elif type(lit) is QDep:
            opens = atoms(lit.left) <= e.props and "b" not in e.props
            assert r == (Not(Budget(b, e.cost + lit.bound)) if opens
                         else FALSE), e
        else:
            assert r == (TRUE if e.cost > lit.deadline else FALSE
                         if "b" in e.props else Not(lit)), e
    for tr in all_traces(EVENTS2, 3):
        assert evaluate_trace(Not(lit), tr) is flip(evaluate_trace(lit, tr))


def _residual_sizes(f, events):
    """Node count of each residual of progressing ``f`` over ``events``."""
    r, sizes, now = nnf(f), [], 0
    for e in events:
        r = progress(r, e, now)
        now += e.cost
        sizes.append(sum(1 for _ in subformulas(r)))
    return r, sizes


def test_progress_keeps_the_tightest_budget_per_target():
    # every latched event re-activates the dependency; the older budget
    # is tighter and the only one kept
    f = parse_formula("G (a o<=50 b)")
    events = [E(("a", "b") if k % 40 == 39 else ("a",), 1)
              for k in range(10 ** 4)]
    r, sizes = _residual_sizes(f, events)
    assert r not in (TRUE, FALSE)
    assert max(sizes) <= 7


def test_progress_drops_repeated_conjuncts():
    # a pending eventuality re-unrolls every event until ``a`` comes
    f = parse_formula("G F a")
    events = [E(("a",) if k % 2500 == 2499 else ("b",) if k % 2 else (), 1)
              for k in range(10 ** 4)]
    r, sizes = _residual_sizes(f, events)
    assert max(sizes) <= 6
    assert progress(And(b, And(c, b)), E((), 0)) == FALSE
    g = And(Eventually(b), Eventually(b))
    assert progress(g, E((), 1)) == Eventually(b)


def test_progress_drops_repeated_disjuncts():
    # the mirror of the above: ``G a`` re-unrolls every event that holds a
    r, sizes = _residual_sizes(parse_formula("F G a"),
                               [E(("a",), 1)] * 10 ** 4)
    assert r == Or(Globally(a), Eventually(Globally(a)))
    assert max(sizes) <= 6
    assert progress(Or(b, Or(c, b)), E(("a",), 0)) == FALSE
    assert progress(Or(Globally(a), Globally(a)), E(("a",), 1)) == Globally(a)


def test_progress_merges_budgets_in_first_place():
    r = progress(And(Budget(b, 5), And(Eventually(c), Budget(b, 3))),
                 E((), 1), 1)
    assert r == And(Budget(b, 3), Eventually(c))


def test_a_budget_beside_its_dependency_steps_to_itself_and_makes_no_node():
    # the re-activated dependency's deadline is later than the kept one,
    # so it is never made, and the kept budget is its own residual: the
    # step returns its input and adds no key to the table
    dep = QDep(a, b, 99)  # bounds no other test keeps a node of
    f = And(Budget(b, 155), Globally(dep))
    before = set(Formula._interned)
    r = progress(f, E(("a",), 1), 100)
    made = [key[0] for key in Formula._interned if key not in before]
    assert r is f
    assert made == []


def test_progress_steps_every_operand_of_a_decided_nest():
    # the nest is decided by its first operand, but the dependency after
    # it is stepped all the same, and its temporal right operand raises
    bad = QDep(a, Globally(b), 3)
    for f in (And(c, bad), Globally(And(c, bad)), And(Budget(b, 0), bad),
              Or(a, bad), Eventually(Or(a, bad))):
        with pytest.raises(ValueError, match="must be propositional"):
            progress(f, E(("a",), 1))


def test_progress_takes_a_deep_prefix_nest():
    # every G and F of (G F)^1000 a opens its own mark on the work stack;
    # the residual grows with every step, so one event is enough
    f = parse_formula("G F " * 1000 + "a")
    assert evaluate_trace(f, [E(("a",), 1)]) is Verdict.UNKNOWN
    watcher = ResidualWatcher(nnf(f))
    watcher.step(0, frozenset({"a"}))
    assert watcher.verdict is Verdict.UNKNOWN


def test_progress_takes_a_deep_until_chain():
    # x0 U (x1 U (... U x9999)): the Until marks nest 10,000 deep; while
    # only x0 holds every inner Until fails, and the chain is its own
    # residual
    f = Atom("x9999")
    for i in reversed(range(9999)):
        f = Until(Atom("x%d" % i), f)
    assert progress(f, E(("x0",), 1)) is f
    trace = [E(("x0",), 1)] * 4
    assert evaluate_trace(f, trace + [E(("x0",), 1)]) is Verdict.UNKNOWN
    assert evaluate_trace(f, trace + [E(("x9999",), 1)]) is Verdict.TRUE


# ---------------------------------------------------------------------------
# skipping repeated events

_DECIDED = {TRUE: Verdict.TRUE, FALSE: Verdict.FALSE}


def _stepped(f, trace):
    """Verdict and position of stepping every event of ``trace`` on the
    cost clock, with no skip."""
    r, now = nnf(f), 0
    if r in _DECIDED:
        return _DECIDED[r], None
    for k, e in enumerate(trace):
        r, now = progress(r, e, now), now + e.cost
        if r in _DECIDED:
            return _DECIDED[r], k
    return Verdict.UNKNOWN, None


_OPERANDS = (a, b, c, Not(a), And(a, b), Or(b, c))


def _random_formula(rng, depth):
    """Dependencies under G, F, U, !, |, & and X."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            return rng.choice((a, b, c))
        return QDep(rng.choice(_OPERANDS), rng.choice((a, b, c)),
                    rng.randint(0, 4))
    op = rng.choice((Globally, Eventually, Not, Next, Until, Or, And))
    if op in (Until, Or, And):
        return op(_random_formula(rng, depth - 1),
                  _random_formula(rng, depth - 1))
    return op(_random_formula(rng, depth - 1))


def _random_runs(rng):
    """Runs of 1-12 equal events, costs 0-2."""
    trace = []
    for _ in range(rng.randint(1, 6)):
        props = [n for n in "abc" if rng.random() < 0.4]
        trace += [E(props, rng.randint(0, 2))] * rng.randint(1, 12)
    return trace


def test_skipping_repeats_matches_stepping_every_event():
    rng = random.Random(31)
    for _ in range(3000):
        f = _random_formula(rng, rng.randint(1, 4))
        trace = _random_runs(rng)
        assert evaluate_trace_with_position(f, trace) == _stepped(f, trace), (
            render_formula(f), trace)


def _steps_made(monkeypatch, f, trace):
    """(end clock, input, output) of each step the evaluator makes."""
    made = []

    def recording(r, e, now=0):
        out = progress(r, e, now)
        made.append((now + e.cost, r, out))
        return out

    monkeypatch.setattr("costmon.formulas.progress", recording)
    verdict = evaluate_trace_with_position(f, trace)
    return verdict, made


def test_a_latched_run_of_a_dependency_takes_three_steps(monkeypatch):
    # activation, a step that returns its input, then the step that runs
    # past the deadline 51
    f = parse_formula("G (a o<=50 b)")
    verdict, made = _steps_made(monkeypatch, f, [E(("a",), 1)] * 100)
    assert verdict == (Verdict.FALSE, 51) == _stepped(f, [E(("a",), 1)] * 100)
    assert [clock for clock, _, _ in made] == [1, 2, 52]
    assert made[1][2] is made[1][1]


def test_a_step_that_returns_its_input_where_a_deadline_meets_skips_nothing(
        monkeypatch):
    # the step that ends at clock 4 activates with deadline 4 + 2 = 6,
    # which merges with <b by 6>, so it returns its input; the step that
    # ends at 5 adds <b by 7>.  A skip that watched only the earliest
    # deadline would pass over clocks 5 and 6 and keep another residual
    f = parse_formula("(c o<=5 b) | X X X F (a o<=2 b)")
    trace = [E(("c",), 1), E((), 1), E((), 1)] + [E(("a",), 1)] * 6
    verdict, made = _steps_made(monkeypatch, f, trace)
    assert verdict == (Verdict.UNKNOWN, None) == _stepped(f, trace)
    assert [clock for clock, _, _ in made] == list(range(1, 10))
    clock4, clock5 = made[3], made[4]
    assert clock4[2] is clock4[1]
    assert Budget(b, 6) in subformula_index(clock4[2])
    assert Budget(b, 7) in subformula_index(clock5[2])


def test_event_is_an_immutable_value():
    e = make_event(["a"], 2)
    assert e == Event(frozenset(["a"]), 2) != Event(frozenset(["a"]), 1)
    assert hash(e) == hash(make_event(["a"], 2))
    assert (e.props, e.cost) == (frozenset(["a"]), 2)
    assert pickle.loads(pickle.dumps(e)) == e
    for name in ("props", "cost", "other"):
        with pytest.raises(AttributeError):
            setattr(e, name, 3)
    with pytest.raises(ValueError, match="non-negative"):
        Event(frozenset(), -1)
    with pytest.raises(ValueError, match="non-negative"):
        e._replace(cost=-1)


def _anchor_trace(rng, left, latch):
    """A random trace of 30 to 200 events, costs 0 to 2, whose anchor
    atoms either pulse or stay true from their first occurrence on."""
    events, seen = [], set()
    for _ in range(rng.randint(30, 200)):
        props = {x for x in left if rng.random() < 0.2}
        if latch:
            seen |= props
            props = set(seen)
        if rng.random() < 0.08:
            props.add("b")
        events.append(E(sorted(props), rng.randint(0, 2)))
    return events


def test_long_traces_agree_with_the_pair_oracle():
    rng = random.Random(500)
    seen = set()
    for k in range(500):
        left = frozenset(rng.choice((("a",), ("a", "c"))))
        q = rng.randint(0, 60)
        trace = _anchor_trace(rng, sorted(left), latch=k % 2 == 0)
        anchor = conj([Atom(x) for x in sorted(left)])
        verdict = evaluate_trace(Globally(QDep(anchor, b, q)), trace)
        assert verdict is pair_verdict_globally(trace, left, "b", q), (q, trace)
        seen.add((verdict, k % 2))
    assert seen == {(v, k) for v in (Verdict.FALSE, Verdict.UNKNOWN)
                    for k in (0, 1)}


# ---------------------------------------------------------------------------
# trace evaluation

def test_evaluate_eventually():
    assert evaluate_trace(parse_formula("F b"), [E((), 1), E(("b",), 1)]) == Verdict.TRUE


def test_evaluate_dep_budget_blown():
    f = parse_formula("G (a o<=2 b)")
    tr = [E(("a",), 1), E((), 1), E((), 2)]
    assert evaluate_trace(f, tr) == Verdict.FALSE
    assert pair_verdict_globally(tr, frozenset(["a"]), "b", 2) == Verdict.FALSE


def test_evaluate_globally_stays_unknown():
    assert evaluate_trace(parse_formula("G a"), [E(("a",)), E(("a",))]) == Verdict.UNKNOWN


def test_empty_trace_is_unknown():
    assert evaluate_trace(parse_formula("G (a o<=1 b)"), []) == Verdict.UNKNOWN


traces2 = st.lists(st.sampled_from(EVENTS2), max_size=6)


@settings(max_examples=60)
@given(formulas, traces2)
def test_verdicts_are_irrevocable(f, tr):
    decided = None
    for n in range(len(tr) + 1):
        v = evaluate_trace(f, tr[:n])
        if decided is not None:
            assert v == decided
        elif v != Verdict.UNKNOWN:
            decided = v


# ---------------------------------------------------------------------------
# agreement with the pair-scan oracle
#
# The full exhaustive sweep (every trace up to length 6) runs in the
# acceptance suite; this one covers every trace up to length 3 plus a
# random sample of longer ones, comparing the public evaluator against
# the from-definition oracle.

ORACLE_FAMILY = [
    ("G (a o<=0 b)", lambda tr: pair_verdict_globally(tr, frozenset(["a"]), "b", 0)),
    ("G (a o<=2 b)", lambda tr: pair_verdict_globally(tr, frozenset(["a"]), "b", 2)),
    ("G ((a & b) o<=1 b)", lambda tr: pair_verdict_globally(tr, frozenset(["a", "b"]), "b", 1)),
    ("G (a o<=3 a)", lambda tr: pair_verdict_globally(tr, frozenset(["a"]), "a", 3)),
    ("(a o<=1 b)", lambda tr: pair_verdict_bare(tr, frozenset(["a"]), "b", 1)),
    ("F (!(a o<=2 b))", lambda tr: flip(pair_verdict_globally(tr, frozenset(["a"]), "b", 2))),
]


@pytest.mark.parametrize("text,oracle", ORACLE_FAMILY, ids=[t for t, _ in ORACLE_FAMILY])
def test_oracle_agreement_all_traces_len3(text, oracle):
    f = parse_formula(text)
    for tr in all_traces(EVENTS2, 3):
        assert evaluate_trace(f, tr) == oracle(tr), [render_formula(f), tr]


@settings(max_examples=150)
@given(st.integers(0, len(ORACLE_FAMILY) - 1), st.lists(st.sampled_from(EVENTS2), min_size=4, max_size=6))
def test_oracle_agreement_sampled_len6(i, tr):
    text, oracle = ORACLE_FAMILY[i]
    assert evaluate_trace(parse_formula(text), tr) == oracle(tr)


# ---------------------------------------------------------------------------
# sub-formula indexing

def test_index_single_atom():
    assert subformula_index(a) == {a: 0}


def test_index_dedups_structurally():
    table = subformula_index(And(a, a))
    assert table[a] == 1 and len(table) == 2


def test_index_is_stable_preorder():
    f = parse_formula("G (a o<=2 b)")
    t1, t2 = subformula_index(f), subformula_index(f)
    assert t1 == t2
    assert t1[f] == 0  # root first


def test_index_counts_pipeline_conjuncts(pipeline, phi_pipeline):
    from costmon import unwind
    u = unwind(phi_pipeline, pipeline)
    table = subformula_index(negate(u.formula))
    deps = [k for k in table if isinstance(k, QDep)]
    assert len(deps) == 7
    assert len(set(table.values())) == len(table)


# ---------------------------------------------------------------------------
# depth: the walkers use explicit stacks, so inputs far deeper than the
# default recursion limit are fine

DEPTH = 5000


def _spine():
    """A right-nested conjunction of DEPTH dependencies."""
    return conj([QDep(Atom("a%d" % i), Atom("b%d" % i), i)
                 for i in range(DEPTH)])


def _spine_text(parts, op):
    return ("".join("(%s %s " % (p, op) for p in parts[:-1]) + parts[-1]
            + ")" * (len(parts) - 1))


def _chain_text(ops, core):
    """Prefix operators ``ops`` over ``core``; each wraps the next."""
    return ("".join(op + "(" for op in ops[:-1]) + ops[-1] + core
            + ")" * (len(ops) - 1))


def test_walkers_take_a_deep_and_spine():
    f = _spine()
    deps = ["(a%d o<=%d b%d)" % (i, i, i) for i in range(DEPTH)]
    assert render_formula(f) == _spine_text(deps, "&")
    assert str(f) == render_formula(f)
    assert render_formula(nnf(f)) == _spine_text(deps, "&")
    assert render_formula(negate(f)) == _spine_text(
        ["!" + d for d in deps], "|")
    names = [n for i in range(DEPTH) for n in ("a%d" % i, "b%d" % i)]
    assert atoms(f) == frozenset(names)
    assert ordered_atoms(f) == names
    assert [d.bound for d in extract_qdep(f)] == list(range(DEPTH))


_DUAL_TEXT = {"X ": "X ", "F ": "G ", "G ": "F "}


def test_walkers_take_a_deep_unary_chain():
    ops = ["!", "X ", "F ", "G "] * (DEPTH // 4)
    classes = {"!": Not, "X ": Next, "F ": Eventually, "G ": Globally}
    f = QDep(a, b, 1)
    for op in reversed(ops):
        f = classes[op](f)
    assert render_formula(f) == _chain_text(ops, "(a o<=1 b)")
    for positive, result in ((True, nnf(f)), (False, negate(f))):
        # each ! flips the polarity; X stays, F and G swap under negation
        kept = []
        for op in ops:
            if op == "!":
                positive = not positive
            else:
                kept.append(op if positive else _DUAL_TEXT[op])
        # a prefix operator wraps a negation in parentheses
        core = "(a o<=1 b)" if positive else "(!(a o<=1 b))"
        assert render_formula(result) == _chain_text(kept, core)
    assert atoms(f) == {"a", "b"}
    assert ordered_atoms(f) == ["a", "b"]
    assert extract_qdep(f) == [QDep(a, b, 1)]


def _eval_props_reference(f, props):
    """The recursive evaluation that ``eval_props`` must match: left to
    right, with short-circuit, rejecting a non-propositional node when
    it is reached."""
    if f in (TRUE, FALSE):
        return f == TRUE
    if isinstance(f, Atom):
        return f.name in props
    if isinstance(f, Not):
        return not _eval_props_reference(f.sub, props)
    if isinstance(f, And):
        return (_eval_props_reference(f.left, props)
                and _eval_props_reference(f.right, props))
    if isinstance(f, Or):
        return (_eval_props_reference(f.left, props)
                or _eval_props_reference(f.right, props))
    raise ValueError


@given(formulas, st.sets(names))
def test_eval_props_matches_the_recursive_reference(f, props):
    try:
        expected = _eval_props_reference(f, props)
    except ValueError:
        with pytest.raises(ValueError):
            eval_props(f, props)
    else:
        assert eval_props(f, props) is expected


def test_wide_dependency_operands_evaluate():
    names_ = ["I%d" % i for i in range(1000)]
    left = conj([Atom(n) for n in names_])
    assert eval_props(left, frozenset(names_))
    assert not eval_props(left, frozenset(names_[:-1]))
    f = parse_formula("G ((%s) o<=3 Of)" % " & ".join(names_))
    anchor = E(names_, 1)
    assert evaluate_trace(f, [anchor] + [E((), 1)] * 4) is Verdict.FALSE
    assert evaluate_trace(f, [anchor, E(("Of",), 1)]) is Verdict.UNKNOWN


def test_render_of_thirty_negations_is_immediate():
    f = parse_formula("!" * 30 + "a")
    start = time.perf_counter()
    assert render_formula(f) == "!(" * 29 + "!a" + ")" * 29
    assert time.perf_counter() - start < 1.0
