"""Linear-temporal formulas extended with a budgeted dependency operator.

Syntax (ASCII):

    phi ::= "true" | "false" | name | "!" phi | phi "&" phi | phi "|" phi
          | "X" phi | "F" phi | "G" phi | phi "U" phi
          | "(" phi "o<=" INT phi ")"

``(L o<=q R)`` reads: whenever L holds, R must follow before more than q
cost units accrue.  Cost accrues from event costs strictly after the
activating event; fulfilment at the activation event itself consumes 0.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Sequence


class Verdict(enum.Enum):
    """Three-valued outcome of evaluating a formula on a finite trace."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def negate(self) -> "Verdict":
        if self is Verdict.TRUE:
            return Verdict.FALSE
        if self is Verdict.FALSE:
            return Verdict.TRUE
        return Verdict.UNKNOWN


@dataclass(frozen=True)
class Event:
    """One trace position: the propositions that hold plus a non-negative cost."""

    props: frozenset
    cost: int = 0

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError("event cost must be non-negative")


Trace = Sequence[Event]


def make_event(props=(), cost: int = 0) -> Event:
    return Event(frozenset(props), cost)


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class FalseF(Formula):
    def __str__(self):
        return "false"


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula

    def __str__(self):
        return "!" + _wrap(self.sub)


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return "(%s & %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return "(%s | %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula

    def __str__(self):
        return "X " + _wrap(self.sub)


@dataclass(frozen=True)
class Eventually(Formula):
    sub: Formula

    def __str__(self):
        return "F " + _wrap(self.sub)


@dataclass(frozen=True)
class Globally(Formula):
    sub: Formula

    def __str__(self):
        return "G " + _wrap(self.sub)


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return "(%s U %s)" % (self.left, self.right)


@dataclass(frozen=True)
class QDep(Formula):
    """Budgeted dependency: whenever ``left`` holds, ``right`` within ``bound``."""

    left: Formula
    right: Formula
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("dependency bound must be non-negative")

    def __str__(self):
        return "(%s o<=%d %s)" % (self.left, self.bound, self.right)


@dataclass(frozen=True)
class Budget(Formula):
    """Internal residual: ``target`` must hold before ``remaining`` is exhausted.

    Produced by progression of an activated dependency; not parseable.
    """

    target: Formula
    remaining: int

    def __str__(self):
        return "<%s within %d>" % (self.target, self.remaining)


TRUE = TrueF()
FALSE = FalseF()


def _wrap(f: Formula) -> str:
    if isinstance(f, (Atom, TrueF, FalseF)):
        return str(f)
    return "(%s)" % f if not str(f).startswith("(") else str(f)


def and_(left: Formula, right: Formula) -> Formula:
    """Conjunction with eager true/false absorption and no other rewriting."""
    if left == FALSE or right == FALSE:
        return FALSE
    if left == TRUE:
        return right
    if right == TRUE:
        return left
    return And(left, right)


def or_(left: Formula, right: Formula) -> Formula:
    """Disjunction with eager true/false absorption and no other rewriting."""
    if left == TRUE or right == TRUE:
        return TRUE
    if left == FALSE:
        return right
    if right == FALSE:
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
        if isinstance(g, kind):
            stack += [g.right, g.left]
        else:
            out.append(g)
    return out


def conjuncts_of(f: Formula) -> list:
    return _operands(f, And)


def disjuncts_of(f: Formula) -> list:
    return _operands(f, Or)


# --- normal forms -----------------------------------------------------------


def nnf(f: Formula) -> Formula:
    """Push negations inward until they sit on atoms or dependency literals."""
    if isinstance(f, (TrueF, FalseF, Atom, Budget)):
        return f
    if isinstance(f, Not):
        return _neg(f.sub)
    if isinstance(f, And):
        return and_(nnf(f.left), nnf(f.right))
    if isinstance(f, Or):
        return or_(nnf(f.left), nnf(f.right))
    if isinstance(f, Next):
        return Next(nnf(f.sub))
    if isinstance(f, Eventually):
        return Eventually(nnf(f.sub))
    if isinstance(f, Globally):
        return Globally(nnf(f.sub))
    if isinstance(f, Until):
        return Until(nnf(f.left), nnf(f.right))
    if isinstance(f, QDep):
        return QDep(nnf(f.left), nnf(f.right), f.bound)
    raise TypeError("unknown formula node: %r" % (f,))


def _neg(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, Atom):
        return Not(f)
    if isinstance(f, Not):
        return nnf(f.sub)
    if isinstance(f, And):
        return or_(_neg(f.left), _neg(f.right))
    if isinstance(f, Or):
        return and_(_neg(f.left), _neg(f.right))
    if isinstance(f, Next):
        return Next(_neg(f.sub))
    if isinstance(f, Eventually):
        return Globally(_neg(f.sub))
    if isinstance(f, Globally):
        return Eventually(_neg(f.sub))
    if isinstance(f, Until):
        # not (p U q)  ==  (!q U (!p & !q)) | G !q
        np, nq = _neg(f.left), _neg(f.right)
        return or_(Until(nq, and_(np, nq)), Globally(nq))
    if isinstance(f, QDep):
        return Not(QDep(nnf(f.left), nnf(f.right), f.bound))
    if isinstance(f, Budget):
        return Not(f)
    raise TypeError("unknown formula node: %r" % (f,))


def negate(f: Formula) -> Formula:
    """Negation-normal-form negation of ``f``."""
    return _neg(f)


def atoms(f: Formula) -> frozenset:
    """All proposition names occurring in ``f``."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, (Not, Next, Eventually, Globally)):
            stack.append(g.sub)
        elif isinstance(g, (And, Or, Until, QDep)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Budget):
            stack.append(g.target)
    return frozenset(out)


def ordered_atoms(f: Formula) -> list:
    """Atom names in first-occurrence (left-to-right) order."""
    out, seen = [], set()

    def walk(g):
        if isinstance(g, Atom):
            if g.name not in seen:
                seen.add(g.name)
                out.append(g.name)
        elif isinstance(g, (Not, Next, Eventually, Globally)):
            walk(g.sub)
        elif isinstance(g, (And, Or, Until, QDep)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Budget):
            walk(g.target)

    walk(f)
    return out


def subformula_index(f: Formula) -> dict:
    """Stable pre-order numbering of distinct subformulas, root first."""
    table = {}

    def walk(g):
        if g not in table:
            table[g] = len(table)
        if isinstance(g, (Not, Next, Eventually, Globally)):
            walk(g.sub)
        elif isinstance(g, (And, Or, Until, QDep)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Budget):
            walk(g.target)

    walk(f)
    return table


# --- single-event evaluation ------------------------------------------------


def eval_props(f: Formula, props: frozenset) -> bool:
    """Evaluate a propositional formula against one event's propositions.

    Dependency operands are propositional by contract; temporal connectives
    or nested dependencies inside an operand are rejected.
    """
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return f.name in props
    if isinstance(f, Not):
        return not eval_props(f.sub, props)
    if isinstance(f, And):
        return eval_props(f.left, props) and eval_props(f.right, props)
    if isinstance(f, Or):
        return eval_props(f.left, props) or eval_props(f.right, props)
    raise ValueError("dependency operands must be propositional: %s" % (f,))


# --- progression ------------------------------------------------------------


def progress(f: Formula, event: Event) -> Formula:
    """One-step residual of ``f`` (in negation normal form) over ``event``.

    Only true/false absorption is applied to the residual.  Budgets carry
    their own remaining amounts.
    """
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Atom):
        return TRUE if f.name in event.props else FALSE
    if isinstance(f, Not):
        g = f.sub
        if isinstance(g, Atom):
            return FALSE if g.name in event.props else TRUE
        if isinstance(g, QDep):
            # Holds only if the left operand activates and the right never
            # lands within budget.
            if not eval_props(g.left, event.props):
                return FALSE
            if eval_props(g.right, event.props):
                return FALSE
            return Not(Budget(g.right, g.bound))
        if isinstance(g, Budget):
            remaining = g.remaining - event.cost
            if remaining < 0:
                return TRUE
            if eval_props(g.target, event.props):
                return FALSE
            return Not(Budget(g.target, remaining))
        return progress(nnf(f), event)
    if isinstance(f, And):
        return and_(progress(f.left, event), progress(f.right, event))
    if isinstance(f, Or):
        return or_(progress(f.left, event), progress(f.right, event))
    if isinstance(f, Next):
        return f.sub
    if isinstance(f, Globally):
        return and_(progress(f.sub, event), f)
    if isinstance(f, Eventually):
        return or_(progress(f.sub, event), f)
    if isinstance(f, Until):
        keep = and_(progress(f.left, event), f)
        return or_(progress(f.right, event), keep)
    if isinstance(f, QDep):
        if not eval_props(f.left, event.props):
            return TRUE
        if eval_props(f.right, event.props):
            # Fulfilment at the activation event consumes no budget.
            return TRUE
        return Budget(f.right, f.bound)
    if isinstance(f, Budget):
        remaining = f.remaining - event.cost
        if remaining < 0:
            return FALSE
        if eval_props(f.target, event.props):
            return TRUE
        return Budget(f.target, remaining)
    raise TypeError("unknown formula node: %r" % (f,))


def evaluate_trace(f: Formula, trace: Trace) -> Verdict:
    """Impartial three-valued verdict of ``f`` on a finite trace."""
    return evaluate_trace_with_position(f, trace)[0]


def evaluate_trace_with_position(f: Formula, trace: Trace):
    """Verdict plus the event index where it became definite (None if never)."""
    residual = nnf(f)
    if residual == TRUE:
        return Verdict.TRUE, None
    if residual == FALSE:
        return Verdict.FALSE, None
    for k, event in enumerate(trace):
        residual = progress(residual, event)
        if residual == TRUE:
            return Verdict.TRUE, k
        if residual == FALSE:
            return Verdict.FALSE, k
    return Verdict.UNKNOWN, None


# --- parsing ----------------------------------------------------------------


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:(o<=)|([A-Za-z_][A-Za-z0-9_]*)|(\d+)|([&|!()]))")
_KEYWORDS = {"U", "X", "F", "G", "true", "false"}


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


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise FormulaSyntaxError("expected %s, found %r" % (kind, tok[1] or "end of input"), tok[2])
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.until_expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise FormulaSyntaxError("unexpected trailing %r" % tok[1], tok[2])
        return f

    def until_expr(self) -> Formula:
        left = self.or_expr()
        if self.peek()[0] == "U":
            self.take("U")
            right = self.until_expr()
            return Until(left, right)
        return left

    def or_expr(self) -> Formula:
        f = self.and_expr()
        while self.peek()[0] == "|":
            self.take("|")
            f = Or(f, self.and_expr())
        return f

    def and_expr(self) -> Formula:
        f = self.unary_expr()
        while self.peek()[0] == "&":
            self.take("&")
            f = And(f, self.unary_expr())
        return f

    def unary_expr(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "!":
            self.take()
            return Not(self.unary_expr())
        if kind == "X":
            self.take()
            return Next(self.unary_expr())
        if kind == "F":
            self.take()
            return Eventually(self.unary_expr())
        if kind == "G":
            self.take()
            return Globally(self.unary_expr())
        return self.primary()

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
            self.take()
            inner = self.until_expr()
            if self.peek()[0] == "QLE":
                self.take("QLE")
                bound_tok = self.take("INT")
                right = self.until_expr()
                self.take(")")
                return QDep(inner, right, int(bound_tok[1]))
            self.take(")")
            return inner
        raise FormulaSyntaxError("expected a formula, found %r" % (value or "end of input"), pos)


def parse_formula(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with a position on failure."""
    return _Parser(_tokenize(text)).parse()


def render_formula(f: Formula) -> str:
    """Deterministic text form; parse_formula(render_formula(f)) == f for
    parseable nodes (budget residuals are debug-only)."""
    return str(f)
