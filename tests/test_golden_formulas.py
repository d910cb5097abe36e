"""Replays recorded results of the formula-tree walkers.

``golden_formulas.json`` holds about 300 seeded random formulas over the
whole grammar: parsed texts with deep unary and ``U`` nesting, and budget
residuals reached by progressing parsed formulas.  For each it records the
rendered text, ``nnf``, ``negate``, ``atoms``, ``ordered_atoms``,
``subformula_index`` (in index order), ``extract_qdep``, grouping's
``_qdeps_of``, the residuals of progressing its negation normal form
over five seeded events (``progression``), and for parsed texts the exit
code and output of ``costmon parse --format json``.  Formulas are
written as their rendered text; the bulky values (``negate``, the index,
the parse output, a long residual) as a sha256 of that text.
Residuals, which do not parse, are stored as their ``parse --format json``
AST.  Over every parsed text, the facts a node keeps (its atoms and
its negation normal form mark) are checked against fresh walks.  After an
intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_golden_formulas.py

which records the inputs already in the file afresh and prints the text
(for a residual, the AST) of each record that changed, then how many
did.  The residual inputs are drawn by progressing, so an earlier
``progress`` drew them; only without a file are new inputs drawn.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import pickle
import random
import re

import pytest

from costmon import cli
from costmon.formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Budget,
    Eventually,
    Globally,
    Next,
    Not,
    Or,
    QDep,
    Until,
    atoms,
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
from costmon.grouping import _qdeps_of
from costmon.unwinding import extract_qdep
from conftest import write_golden

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_formulas.json")

NAMES = ["a", "b", "c", "d", "I0", "Of"]
PREFIX = ["!", "X ", "F ", "G "]
UNARY = {"not": Not, "next": Next, "eventually": Eventually,
         "globally": Globally}
BINARY = {"and": And, "or": Or, "until": Until}


def _text(rng, depth, unary=12):
    """Random formula text; any combination of valid texts is valid, so
    redundant and missing parentheses both occur.  At most ``unary``
    prefix operators nest, which keeps the record affordable where
    rendering is exponential in unary depth."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(NAMES + ["true", "false"])
    kind = rng.randrange(9)
    sub = lambda: _text(rng, depth - 1, unary)
    if kind <= 1 and unary >= 3:
        # a unary chain, deep when kind is 1
        n = rng.randint(3, unary) if kind else 1
        ops = "".join(rng.choice(PREFIX) for _ in range(n))
        return ops + rng.choice([rng.choice(NAMES),
                                 "(%s)" % _text(rng, depth - 1, unary - n)])
    if kind == 2:
        # right- or left-nested until chain
        parts = [_text(rng, min(depth - 1, 1), unary)
                 for _ in range(rng.randint(3, 6))]
        if rng.random() < 0.5:
            return "(%s)" % " U ".join(parts)
        out = parts[0]
        for p in parts[1:]:
            out = "(%s U %s)" % (out, p)
        return out
    if kind == 3:
        # propositional operands mostly, as progression accepts
        operand = sub if rng.random() < 0.3 else lambda: _prop(rng)
        return "%s(%s o<=%d %s)" % (rng.choice(["", "G ", "F ", "!"]),
                                    operand(), rng.randint(0, 9), operand())
    if kind == 4:
        return "(%s)" % sub()
    op = rng.choice([" & ", " | ", " U ", "&", "|"])
    return sub() + op + sub()


def _prop(rng):
    return _text(rng, 2, 0).replace("U", "&")


def _residuals(rng, f):
    """Budget-bearing residuals of progressing ``f`` over random events."""
    out, now = [], 0
    r = nnf(f)
    names = sorted(atoms(f))
    for _ in range(8):
        props = [n for n in names if rng.random() < 0.3]
        cost = rng.randint(0, 2)
        try:
            r = progress(r, make_event(props, cost), now)
        except ValueError:
            break
        now += cost
        if r in (TRUE, FALSE) or len(render_formula(r)) > 400:
            break
        if any(isinstance(g, Budget) for g in subformula_index(r)):
            out.append(r)
    return out


def _inputs():
    """``(text, None)`` for parsed formulas, ``(None, ast)`` for residuals."""
    rng = random.Random(20261018)
    texts = [_text(rng, rng.randint(1, 5)) for _ in range(280)]
    texts += ["G (%s o<=%d %s) %s %s" % (_prop(rng), rng.randint(0, 6),
                                         _prop(rng), rng.choice("&|U"),
                                         _text(rng, 2))
              for _ in range(40)]
    out = [(t, None) for t in dict.fromkeys(texts)]
    residuals = []
    for t, _ in out:
        residuals += _residuals(rng, parse_formula(t))
    distinct = {}
    for r in residuals:
        distinct.setdefault(render_formula(r), r)
    return out + [(None, cli._formula_ast(r))
                  for r in list(distinct.values())[:70]]


def _build(doc):
    """A formula from its ``parse --format json`` AST."""
    op = doc["op"]
    if op == "true":
        return TRUE
    if op == "false":
        return FALSE
    if op == "atom":
        return Atom(doc["name"])
    if op in UNARY:
        return UNARY[op](_build(doc["sub"]))
    if op in BINARY:
        return BINARY[op](_build(doc["left"]), _build(doc["right"]))
    if op == "dep":
        return QDep(_build(doc["left"]), _build(doc["right"]), doc["bound"])
    return Budget(_build(doc["target"]), doc["deadline"])


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_cli(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["parse", "--formula", text, "--format", "json"])
    return {"exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def _progression(f):
    """The rendered residual of ``nnf(f)`` after each of five events, with
    costs 0-2, drawn from a generator seeded by the rendered ``f``, on a
    cost clock from 0; a text longer than 300 characters as its sha256.  A
    step that raises ends the list with the exception's type and
    message."""
    rng = random.Random(render_formula(f))
    names = sorted(atoms(f))
    out, r, now = [], nnf(f), 0
    for _ in range(5):
        props = [n for n in names if rng.random() < 0.4]
        cost = rng.randint(0, 2)
        try:
            r = progress(r, make_event(props, cost), now)
        except (TypeError, ValueError) as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
            break
        now += cost
        text = render_formula(r)
        out.append(text if len(text) <= 300 else _sha(text))
    return out


def record(text, ast):
    """The golden record of one input, recomputed."""
    f = parse_formula(text) if text is not None else _build(ast)
    index = subformula_index(f)
    rec = {
        "text": text,
        "ast": ast,
        "render": render_formula(f),
        "nnf": render_formula(nnf(f)),
        "negate": _sha(render_formula(negate(f))),
        "atoms": sorted(atoms(f)),
        "ordered_atoms": ordered_atoms(f),
        "subformula_index": _sha("\n".join(
            render_formula(g) for g in sorted(index, key=index.get))),
        "extract_qdep": [render_formula(g) for g in extract_qdep(f)],
        "qdeps_of": [render_formula(g) for g in _qdeps_of(f)],
        "progression": _progression(f),
    }
    if text is not None:
        rec["parse_json"] = _parse_cli(text)
    return rec


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_the_grammar(golden):
    assert len(golden) >= 280
    assert sum(r["text"] is None for r in golden) >= 50
    seen = set()
    for r in golden:
        seen |= {g.__name__ for g in map(type, subformula_index(
            parse_formula(r["text"]) if r["text"] is not None
            else _build(r["ast"])))}
    assert seen == {"TrueF", "FalseF", "Atom", "Not", "And", "Or", "Next",
                    "Eventually", "Globally", "Until", "QDep", "Budget"}


def test_formula_walkers_match_golden(golden):
    for r in golden:
        assert record(r["text"], r["ast"]) == r, r["render"]


def _texts(golden):
    return [r["text"] for r in golden if r["text"] is not None]


def test_nnf_returns_marked_nodes_as_they_are(golden):
    for text in _texts(golden):
        f = parse_formula(text)
        assert nnf(nnf(f)) is nnf(f), text
        assert nnf(negate(f)) is negate(f), text
        # the mark is sound: each part of a normal form, unmarked and
        # walked afresh, is its own normal form
        for g in list(subformulas(nnf(f)))[1:]:
            assert nnf(g) is g, text


def _ask_atoms(text, root_first):
    # atom names no other test uses, so that every node with an atom is new
    text = re.sub(r"\b(?!(?:true|false|[UXFG])\b|o<=)([A-Za-z_]\w*)",
                  r"fresh_\1", text)
    parts = list(subformulas(parse_formula(text)))
    assert all(g._atoms is None for g in parts
               if g.kids and any(type(h) is Atom for h in subformulas(g))), text
    for g in parts if root_first else parts[::-1]:
        walk = frozenset(h.name for h in subformulas(g) if type(h) is Atom)
        assert atoms(g) == walk, text


def test_kept_atoms_match_a_fresh_walk(golden):
    # the nodes of one call are gone, with their atoms, before the next
    for text in _texts(golden):
        _ask_atoms(text, root_first=True)
        _ask_atoms(text, root_first=False)


def test_copies_of_a_node_with_kept_facts_are_the_interned_node(golden):
    for text in _texts(golden):
        f = parse_formula(text)
        names, normal = atoms(f), nnf(f)
        for g in (f, normal):
            assert copy.copy(g) is g
            assert copy.deepcopy(g) is g
            assert pickle.loads(pickle.dumps(g)) is g
        assert f._atoms is names and normal._in_nnf


if __name__ == "__main__":
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            inputs = [(r["text"], r["ast"]) for r in json.load(fh)]
    else:
        inputs = _inputs()
    write_golden(GOLDEN, [record(t, ast) for t, ast in inputs],
                 lambda r: r["text"] if r["text"] is not None
                 else json.dumps(r["ast"]))
