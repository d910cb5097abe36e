"""Linear-temporal formulas extended with a budgeted dependency operator.

Syntax (ASCII):

    phi ::= "true" | "false" | name | "!" phi | phi "&" phi | phi "|" phi
          | "X" phi | "F" phi | "G" phi | phi "U" phi
          | "(" phi "o<=" INT phi ")"

``(L o<=q R)`` reads: whenever L holds, R must follow before more than q
cost units accrue.  Cost accrues from event costs strictly after the
activating event; fulfilment at the activation event itself consumes 0.

Formula nodes are interned (hash-consed): every node is built by one of
four constructors, one per number of fields, which keep one node per
distinct tree in a weak table.  ``Formula.__init_subclass__`` installs
the right one as ``__new__`` on each node class.  Equal trees are
therefore the same object, equality is identity and hashing takes
constant time at any depth.  A node also keeps the facts derived from
it, each worked out at most once: its atom names (``atoms``) and whether
it is in negation normal form (``nnf`` and ``negate`` mark what they
return).  A fact is a plain value, never a node, so no cache can tie
nodes into a reference cycle and keep them alive past their last outside
reference.
"""

from __future__ import annotations

import enum
import re
import weakref
from collections import namedtuple
from typing import Sequence


class Verdict(enum.Enum):
    """Three-valued outcome of evaluating a formula on a finite trace."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class Event(namedtuple("Event", ("props", "cost"))):
    """One trace position: the propositions that hold plus a non-negative
    cost.  An immutable pair that compares by value, and a tuple, so that
    a run's many events are cheap to make."""

    __slots__ = ()

    def __new__(cls, props: frozenset, cost: int = 0):
        if cost < 0:
            raise ValueError("event cost must be non-negative")
        return tuple.__new__(cls, (props, cost))

    # ``_replace`` makes its copy through ``_make``: check that one too
    _make = classmethod(lambda cls, values: cls(*values))


Trace = Sequence[Event]


def make_event(props=(), cost: int = 0) -> Event:
    return Event(frozenset(props), cost)


class _Ref(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


def _drop(dead: _Ref):
    """Removal callback of every interned node's reference."""
    # a node made anew under the same key keeps its entry
    if _interned.get(dead.key) is dead:
        del _interned[dead.key]


def _keep(node, key):
    """Enter a node just made in the table under ``key``, and return it."""
    # the atoms walk reads this slot on every node it passes; _in_nnf,
    # read only at the root of nnf, is left unset
    _set_atoms(node, None)
    ref = _Ref(node, _drop)
    ref.key = key
    _interned[key] = ref
    return node


# One interning constructor per arity: the key is built without packing
# the arguments, a live node under it is returned at once, and a new node
# gets its fields through the setters its class keeps in ``_setters``.
_new_object = object.__new__


def _new0(cls):
    key = (cls,)
    ref = _interned.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    return _keep(_new_object(cls), key)


def _new1(cls, a):
    key = (cls, a)
    ref = _interned.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    node = _new_object(cls)
    (set_a,) = cls._setters
    set_a(node, a)
    return _keep(node, key)


def _new2(cls, a, b):
    key = (cls, a, b)
    ref = _interned.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    node = _new_object(cls)
    set_a, set_b = cls._setters
    set_a(node, a)
    set_b(node, b)
    return _keep(node, key)


def _new3(cls, a, b, c):
    key = (cls, a, b, c)
    ref = _interned.get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    node = _new_object(cls)
    set_a, set_b, set_c = cls._setters
    set_a(node, a)
    set_b(node, b)
    set_c(node, c)
    return _keep(node, key)


_CONSTRUCTORS = (_new0, _new1, _new2, _new3)  # by number of fields


class Formula:
    """Base class for formula nodes.  Nodes are interned: a node class's
    constructor looks ``(class, *args)`` up in one weak table and returns
    the node already there, so equal trees are the same object.  Equality
    is identity, a hash takes constant time at any depth, and nodes are
    immutable.  The table is a plain dict of weak references (``_Ref``)
    that carry their key, with one callback (``_drop``) that drops the
    entry, so a node no one refers to leaves it.

    The constructor is one of four, one per number of fields (0 to 3),
    and ``__init_subclass__`` installs the right one as ``__new__`` on
    each node class, a class defined later included, together with the
    class's slot setters (``_setters``), read once.  A class with a
    ``__new__`` of its own keeps it and calls the constructor of its
    arity (``QDep`` checks its bound first).  A wrong number of arguments
    raises TypeError.

    Two slots keep facts derived from the node, set the first time they
    are asked for: ``_atoms``, the frozenset of its atom names (None until
    ``atoms`` works it out), and ``_in_nnf``, unset until ``nnf`` or
    ``negate`` returns the node and sets it true.  They hold names and a
    flag only: a node kept in a slot of a node could close a reference
    cycle, and a node in a cycle outlives its last outside reference
    until the cycle collector runs.

    ``fields`` names a class's constructor arguments in order; ``kids``
    names its subformula fields, left to right.  ``kids`` is the one
    declaration of the tree's shape; the walks over whole trees
    (``subformulas``, ``fold`` and the stack loops beside them) read it.
    """

    __slots__ = ("__weakref__", "_atoms", "_in_nnf")
    fields = kids = ()
    _interned: dict = {}  # (class, *args) -> _Ref to the node
    __new__ = staticmethod(_new0)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, k).__set__ for k in cls.fields)
        if cls.__new__ in _CONSTRUCTORS:  # not one of the class's own
            cls.__new__ = staticmethod(_CONSTRUCTORS[len(cls.fields)])

    def __setattr__(self, *_):
        raise AttributeError("formula nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copies and unpickled nodes are interned too
        return type(self), tuple(getattr(self, k) for k in self.fields)

    def __repr__(self):
        def step(g, kids):
            shown = dict(zip(g.kids, kids))
            return "%s(%s)" % (type(g).__name__, ", ".join(
                "%s=%s" % (k, shown[k] if k in shown else repr(getattr(g, k)))
                for k in g.fields))
        return fold(self, step)

    def __str__(self):
        return render_formula(self)


_interned = Formula._interned
_set_atoms = Formula._atoms.__set__


class TrueF(Formula):
    __slots__ = ()


class FalseF(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = fields = ("name",)


class Not(Formula):
    __slots__ = fields = kids = ("sub",)


class And(Formula):
    __slots__ = fields = kids = ("left", "right")


class Or(Formula):
    __slots__ = fields = kids = ("left", "right")


class Next(Formula):
    __slots__ = fields = kids = ("sub",)


class Eventually(Formula):
    __slots__ = fields = kids = ("sub",)


class Globally(Formula):
    __slots__ = fields = kids = ("sub",)


class Until(Formula):
    __slots__ = fields = kids = ("left", "right")


class QDep(Formula):
    """Budgeted dependency: whenever ``left`` holds, ``right`` within ``bound``."""

    __slots__ = fields = ("left", "right", "bound")
    kids = ("left", "right")

    def __new__(cls, left, right, bound):
        if bound < 0:
            raise ValueError("dependency bound must be non-negative")
        return _new3(cls, left, right, bound)


class Budget(Formula):
    """Internal residual: ``target`` must hold before ``remaining`` is exhausted.

    Produced by progression of an activated dependency; not parseable.
    """

    __slots__ = fields = ("target", "remaining")
    kids = ("target",)


TRUE = TrueF()
FALSE = FalseF()


def subformulas(f: Formula, stop=()):
    """Every node of ``f`` in pre-order: a node, then its kids left to right.
    A node whose type is in ``stop`` is yielded, but its kids are not."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if type(g) not in stop:
            for k in reversed(g.kids):
                stack.append(getattr(g, k))


def fold(f: Formula, step):
    """Post-order fold of ``f``: ``step(g, results)`` gets the folded kids
    of ``g`` in order, and the root's result is returned."""
    done, todo = [], [(f, False)]
    while todo:
        g, ready = todo.pop()
        if ready:
            n = len(done) - len(g.kids)
            done[n:] = [step(g, done[n:])]
        else:
            todo.append((g, True))
            for k in reversed(g.kids):
                todo.append((getattr(g, k), False))
    return done[0]


def and_(left: Formula, right: Formula) -> Formula:
    """Conjunction with eager true/false absorption and no other rewriting."""
    if left is FALSE or right is FALSE:
        return FALSE
    if left is TRUE:
        return right
    if right is TRUE:
        return left
    return And(left, right)


def or_(left: Formula, right: Formula) -> Formula:
    """Disjunction with eager true/false absorption and no other rewriting."""
    if left is TRUE or right is TRUE:
        return TRUE
    if left is FALSE:
        return right
    if right is FALSE:
        return left
    return Or(left, right)


def conj(parts: Sequence[Formula]) -> Formula:
    """Right-nested conjunction of ``parts``; true when empty."""
    if not parts:
        return TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = and_(p, out)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return FALSE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = or_(p, out)
    return out


def _operands(f: Formula, kind: type) -> list:
    """Left-to-right operands of the ``kind`` nest at the top of ``f``."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if type(g) is kind:
            for k in reversed(g.kids):
                stack.append(getattr(g, k))
        else:
            out.append(g)
    return out


def conjuncts_of(f: Formula) -> list:
    return _operands(f, And)


def disjuncts_of(f: Formula) -> list:
    return _operands(f, Or)


# --- normal forms -----------------------------------------------------------

# what each connective becomes in negation normal form, as it stands
# (_SAME) and under a negation (_DUAL)
_SAME = {And: and_, Or: or_, Next: Next, Eventually: Eventually,
         Globally: Globally, Until: Until}
_DUAL = {And: or_, Or: and_, Next: Next, Eventually: Globally,
         Globally: Eventually}


def nnf(f: Formula) -> Formula:
    """Push negations inward onto atoms and dependency literals, in one
    post-order pass that carries each node's polarity.  The result is
    marked, and the normal form of a marked node is the node."""
    if getattr(f, "_in_nnf", False):
        return f
    done, todo = [], [(f, True, False)]
    while todo:
        g, pos, ready = todo.pop()
        t = type(g)
        if ready:
            n = len(done) - len(g.kids)
            args = done[n:]
            if t is QDep:
                r = QDep(*args, g.bound)
                r = r if pos else Not(r)
            elif t is Until and not pos:
                # not (p U q)  ==  (!q U (!p & !q)) | G !q
                np, nq = args
                r = or_(Until(nq, and_(np, nq)), Globally(nq))
            else:
                r = (_SAME if pos else _DUAL)[t](*args)
            done[n:] = [r]
        elif t is Not:
            for k in g.kids:
                todo.append((getattr(g, k), not pos, False))
        elif (t is Atom or t is Budget or t is QDep
              and type(g.left) is Atom and type(g.right) is Atom):
            # a dependency of atoms is its own normal form
            done.append(g if pos else Not(g))
        elif t is TrueF or t is FalseF:
            done.append(g if pos else (FALSE if t is TrueF else TRUE))
        else:
            todo.append((g, pos, True))
            # a dependency's operands are normalised as they stand, even
            # under a negation (which stays on the dependency)
            kid_pos = pos or t is QDep
            for k in reversed(g.kids):
                todo.append((getattr(g, k), kid_pos, False))
    object.__setattr__(done[0], "_in_nnf", True)
    return done[0]


def negate(f: Formula) -> Formula:
    """Negation-normal-form negation of ``f``."""
    return nnf(Not(f))


def atoms(f: Formula) -> frozenset:
    """All proposition names occurring in ``f``.  They are kept on ``f``,
    and the walk takes the names kept on a subformula without entering
    it."""
    names = f._atoms
    if names is None:
        found, todo = set(), [f]
        while todo:
            g = todo.pop()
            known = g._atoms
            if known is not None:
                found.update(known)
            elif type(g) is Atom:
                found.add(g.name)
            else:
                todo += [getattr(g, k) for k in g.kids]
        names = frozenset(found)
        object.__setattr__(f, "_atoms", names)
    return names


def ordered_atoms(f: Formula) -> list:
    """Atom names in first-occurrence (left-to-right) order."""
    return list(dict.fromkeys(g.name for g in subformulas(f)
                              if type(g) is Atom))


def subformula_index(f: Formula) -> dict:
    """Stable pre-order numbering of distinct subformulas, root first.  A
    node met again adds nothing: its subtree was numbered when it was
    first met, so the walk does not enter it."""
    table: dict = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g not in table:
            table[g] = len(table)
            for k in reversed(g.kids):
                stack.append(getattr(g, k))
    return table


# --- single-event evaluation ------------------------------------------------


def eval_props(f: Formula, props: frozenset) -> bool:
    """Evaluate a propositional formula against one event's propositions,
    left to right with short-circuit.

    Dependency operands are propositional by contract; temporal connectives
    or nested dependencies inside an operand are rejected when reached.
    """
    stack = []  # (connective, whether its right operand is being evaluated)
    while True:
        t = type(f)
        if t is Atom:
            value = f.name in props
        elif t is Not or t is And or t is Or:
            stack.append((f, False))
            f = f.sub if t is Not else f.left
            continue
        elif t is TrueF or t is FalseF:
            value = t is TrueF
        else:
            raise ValueError("dependency operands must be propositional: %s"
                             % (f,))
        while stack:
            g, right = stack.pop()
            if type(g) is Not:
                value = not value
            elif not right and value == (type(g) is And):
                # a true left conjunct or a false left disjunct decides
                # nothing: the right operand gives the value
                stack.append((g, True))
                f = g.right
                break
        else:
            return value


# --- progression ------------------------------------------------------------


def progress(f: Formula, event: Event) -> Formula:
    """One-step residual of ``f`` (in negation normal form) over ``event``.

    One loop over an explicit stack, with one step rule per node kind.  An
    And or Or node, a ``G`` or an ``F`` opens a nest mark unless the
    innermost mark is a nest of its kind, and its operands are stepped
    into that mark: ``G g`` steps ``g`` and keeps itself (``g & G g``),
    ``F g`` likewise (``g | F g``).  A ``Not`` or ``U`` opens a mark too,
    and when it closes a negation becomes the dual of its operand's step
    and ``p U q`` becomes ``q' | (p' & (p U q))``.  Every operand is
    stepped, even once its nest is decided, so one that cannot be stepped
    always raises.  An undecided dependency or budget steps to a
    ``(target, remaining)`` pair, and ``_progress_nest`` makes each nest's
    residual, so ``G (a o<=q b)``, ``G F a`` and ``F G a`` keep one size.
    """
    props, cost = event
    done = []  # the steps made, in order
    # nodes, (node,) keeps and [op, start, outer] marks: ``op`` (a nest's
    # connective, or a Not or U node) closes over the steps from ``start``
    # on, and ``outer`` was the innermost mark's connective
    todo, kind = [f], None
    while todo:
        g = todo.pop()
        t = type(g)
        # most frequent first: on the perfbench workloads, a step of a
        # chain's or a DAG's residual meets a G, a dependency, a keep, a
        # mark, an And and a budget once each; atoms and negations follow
        if t is Globally:
            if kind is not And:
                todo.append([And, len(done), kind])
                kind = And
            todo += ((g,), g.sub)
        elif t is QDep:
            # fulfilment at the activation event consumes no budget
            done.append((g.right, g.bound) if eval_props(g.left, props)
                        and not eval_props(g.right, props) else TRUE)
        elif t is tuple:
            done.append(g[0])
        elif t is list:
            op, start, kind = g
            if op is And or op is Or:
                parts = done[start:]
                del done[start:]
                done.append(_progress_nest(op, parts))
            elif type(op) is Not:
                s = done.pop()
                done.append(FALSE if s is TRUE else TRUE if s is FALSE
                            else Not(Budget(*s) if type(s) is tuple else s))
            else:
                q, p = done.pop(), done.pop()
                keep = _progress_nest(And, [p, op])
                done.append(_progress_nest(Or, [q, keep]))
        elif t is And or t is Or:
            if kind is not t:
                todo.append([t, len(done), kind])
                kind = t
            todo += (g.right, g.left)
        elif t is Budget:
            remaining = g.remaining - cost
            done.append(FALSE if remaining < 0 else TRUE if eval_props(
                g.target, props) else (g.target, remaining))
        elif t is Atom:
            done.append(TRUE if g.name in props else FALSE)
        elif t is Not:
            todo += ([g, len(done), kind], g.sub)
            kind = Not
        elif t is Eventually:
            if kind is not Or:
                todo.append([Or, len(done), kind])
                kind = Or
            todo += ((g,), g.sub)
        elif t is Until:
            todo += ([g, len(done), kind], g.right, g.left)
            kind = Until
        elif t is Next:
            done.append(g.sub)
        elif t is TrueF or t is FalseF:
            done.append(g)
        else:
            raise TypeError("unknown formula node: %r" % (g,))
    s = done[0]
    return Budget(*s) if type(s) is tuple else s


def _progress_nest(kind: type, parts: list) -> Formula:
    """Right-nested ``kind`` (``And`` or ``Or``) of the operands of
    ``parts``, a list this consumes.  The absorbing constant absorbs; the
    neutral one and repeated operands drop, and first-occurrence order is
    kept.  A ``(target, remaining)`` pair stands for ``Budget(target,
    remaining)``, made a node only here.  In an And, of several budgets on
    one target only the tightest stays, in the place of the first: the
    others hold whenever it does."""
    absorbing, neutral = (FALSE, TRUE) if kind is And else (TRUE, FALSE)
    out = {}  # operand -> operand, and a budget's key -> its pair
    parts.reverse()
    while parts:
        g = parts.pop()
        t = type(g)
        if t is kind:
            parts += (g.right, g.left)
        elif g is absorbing:
            return g
        elif t is tuple or t is Budget:
            if t is Budget:
                g = (g.target, g.remaining)
            key = (Budget, g[0]) if kind is And else g
            if key not in out or g[1] < out[key][1]:
                out[key] = g
        elif g is not neutral:
            out[g] = g
    res = neutral
    for g in reversed(out.values()):
        g = Budget(*g) if type(g) is tuple else g
        res = g if res is neutral else kind(g, res)
    return res


def evaluate_trace(f: Formula, trace: Trace) -> Verdict:
    """Impartial three-valued verdict of ``f`` on a finite trace."""
    return evaluate_trace_with_position(f, trace)[0]


def evaluate_trace_with_position(f: Formula, trace: Trace):
    """Verdict plus the event index where it became definite (None if never)."""
    residual = nnf(f)
    if residual is TRUE:
        return Verdict.TRUE, None
    if residual is FALSE:
        return Verdict.FALSE, None
    for k, event in enumerate(trace):
        residual = progress(residual, event)
        if residual is TRUE:
            return Verdict.TRUE, k
        if residual is FALSE:
            return Verdict.FALSE, k
    return Verdict.UNKNOWN, None


# --- parsing ----------------------------------------------------------------


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:(o<=)|([A-Za-z_][A-Za-z0-9_]*)|(\d+)|([&|!()]))")
_KEYWORDS = frozenset({"U", "X", "F", "G", "true", "false"})


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise FormulaSyntaxError("unexpected character %r" % stripped[0], bad_at)
        if m.group(1):
            out.append(("QLE", m.group(1), m.start(1)))
        elif m.group(2):
            word = m.group(2)
            kind = word if word in _KEYWORDS else "NAME"
            out.append((kind, word, m.start(2)))
        elif m.group(3):
            out.append(("INT", m.group(3), m.start(3)))
        else:
            out.append((m.group(4), m.group(4), m.start(4)))
        pos = m.end()
    out.append(("EOF", "", len(text)))
    return out


# prefix and infix connectives and their text, infix loosest first; the
# parser reads the text stripped, one precedence level per infix one
_PREFIX = {Not: "!", Next: "X ", Eventually: "F ", Globally: "G "}
_PREFIX_TOKENS = {text.strip(): cls for cls, text in _PREFIX.items()}
_INFIX = {Until: " U ", Or: " | ", And: " & "}
_INFIX_LEVELS = tuple((text.strip(), cls) for cls, text in _INFIX.items())

# deepest parenthesis nesting the parser accepts; it bounds the parser's
# recursion, while prefix and binary chains are read in loops
MAX_PAREN_DEPTH = 100


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise FormulaSyntaxError("expected %s, found %r" % (kind, tok[1] or "end of input"), tok[2])
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.infix_expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise FormulaSyntaxError("unexpected trailing %r" % tok[1], tok[2])
        return f

    def infix_expr(self, level: int = 0) -> Formula:
        # U nests to the right (a U b U c == a U (b U c)), & and | to the left
        if level == len(_INFIX_LEVELS):
            return self.unary_expr()
        token, cls = _INFIX_LEVELS[level]
        parts = [self.infix_expr(level + 1)]
        while self.peek()[0] == token:
            self.take()
            parts.append(self.infix_expr(level + 1))
        if cls is Until:
            f = parts.pop()
            while parts:
                f = Until(parts.pop(), f)
            return f
        f = parts[0]
        for g in parts[1:]:
            f = cls(f, g)
        return f

    def unary_expr(self) -> Formula:
        ops = []
        while self.peek()[0] in _PREFIX_TOKENS:
            ops.append(_PREFIX_TOKENS[self.take()[0]])
        f = self.primary()
        for op in reversed(ops):
            f = op(f)
        return f

    def primary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "true":
            self.take()
            return TRUE
        if kind == "false":
            self.take()
            return FALSE
        if kind == "NAME":
            self.take()
            return Atom(value)
        if kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise FormulaSyntaxError("parentheses nested deeper than %d"
                                         % MAX_PAREN_DEPTH, pos)
            self.take()
            self.depth += 1
            inner = self.infix_expr()
            if self.peek()[0] == "QLE":
                self.take("QLE")
                bound_tok = self.take("INT")
                inner = QDep(inner, self.infix_expr(), int(bound_tok[1]))
            self.take(")")
            self.depth -= 1
            return inner
        raise FormulaSyntaxError("expected a formula, found %r" % (value or "end of input"), pos)


def parse_formula(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with a position on failure."""
    return _Parser(_tokenize(text)).parse()


def render_formula(f: Formula) -> str:
    """Deterministic text form; parse_formula(render_formula(f)) == f for
    parseable nodes (budget residuals are debug-only).  A prefix operator's
    operand is parenthesised unless it is a leaf or its text opens with a
    parenthesis."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        t = type(g)
        if t is str:
            out.append(g)
            continue
        kids = [getattr(g, k) for k in g.kids]
        if t is Atom:
            out.append(g.name)
        elif t is TrueF or t is FalseF:
            out.append("true" if t is TrueF else "false")
        elif t in _PREFIX:
            wrap = type(kids[0]) in _PREFIX or type(kids[0]) is Budget
            out.append(_PREFIX[t] + "(" * wrap)
            todo += [")" * wrap, kids[0]]
        elif t is Budget:
            out.append("<")
            todo += [" within %d>" % g.remaining, kids[0]]
        else:
            op = " o<=%d " % g.bound if t is QDep else _INFIX[t]
            out.append("(")
            todo += [")", kids[1], op, kids[0]]
    return "".join(out)
