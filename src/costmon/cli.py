"""Command-line front end tying the pipeline together.

Subcommands expose each stage (parse, unwind, tableau, group) plus the
simulator (simulate) and the decentralized-versus-centralized comparison
harness (check).  Exit codes: 0 success, 1 formula error (including
parentheses nested deeper than ``formulas.MAX_PAREN_DEPTH``, a
dependency whose right operand unwinding cannot split and one with an
operand that is not propositional), 2 graph or
scenario error, 3 infeasible budget, 4 unobservable atom, 5 verdict
disagreement, 64 usage error (a bad argument, or a file it names that
cannot be opened).  A reader that closes standard output early ends the
output quietly, and the command keeps its exit code.  All output is
deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Optional, Sequence

from .depgraph import GraphError, load_graph_file
from .formulas import (
    Event,
    Formula,
    FormulaSyntaxError,
    QDep,
    Verdict,
    atoms,
    evaluate_trace_with_position,
    fold,
    parse_formula,
    render_formula,
)
from .grouping import UnobservableAtomError
from .runtime import BudgetWatcher
from .simulator import (
    FaultSpec,
    MAX_ROUNDS,
    SimulationResult,
    Scenario,
    example2_scenario,
    latched,
    load_scenario_file,
    plan_monitors,
    random_scenario,
    run_scenario,
    run_simulation,
)
from .sortingline import build_sorting_line_scenario
from .tableau import TableauLimitError, build_tableau, export_dot, leaves
from .unwinding import (InfeasibleConstraintError, TemporalOperandError,
                        UnsplittableDependencyError, unwind)

EXIT_OK = 0
EXIT_FORMULA = 1
EXIT_GRAPH = 2
EXIT_INFEASIBLE = 3
EXIT_UNOBSERVABLE = 4
EXIT_DISAGREE = 5
EXIT_USAGE = 64

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, keeping 2 free for graph/scenario errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _fault_arg(text: str):
    head, _, target = text.partition(":")
    kind, sep, rnd = head.partition("@")
    if not kind or not sep or not rnd.isdigit():
        raise argparse.ArgumentTypeError(
            "expected KIND@ROUND[:TARGET], got %r" % text)
    return kind, int(rnd), (target or None)


def _rounds_arg(text: str) -> int:
    if not text.isdecimal() or int(text) > MAX_ROUNDS:
        raise argparse.ArgumentTypeError(
            "expected an integer from 0 to %d, got %r" % (MAX_ROUNDS, text))
    return int(text)


def _tamper_arg(text: str):
    idx, sep, val = text.partition("=")
    try:
        value = int(val) if sep and idx.isdigit() else -1
    except ValueError:
        value = -1
    if value < 0:  # no budget is negative
        raise argparse.ArgumentTypeError("expected IDX=VAL, got %r" % text)
    return int(idx), value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="costmon",
        description="Decentralized monitoring of cumulative-cost "
                    "temporal properties.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p, formula=False, graph=False, scenario=False,
               formats=("text", "json")):
        if formula:
            p.add_argument("--formula", metavar="F",
                           help="formula text or path to a formula file")
        if graph:
            p.add_argument("--graph", metavar="G",
                           help="path to a dependency graph JSON file")
        if scenario:
            p.add_argument("--scenario", metavar="S",
                           help="builtin name (sorting_line, "
                                "sorting_line_blue, example2, random) or "
                                "path to a scenario JSON file")
            p.add_argument("--rounds", type=_rounds_arg, metavar="N",
                           help="rounds to run (default: the scenario's "
                                "horizon)")
            p.add_argument("--fault", type=_fault_arg, metavar="K@R[:T]",
                           help="inject fault KIND at round R on target T; "
                                "on sorting_line and example2 R places the "
                                "stimulus, elsewhere it is the fault's round "
                                "and T is needed")
            p.add_argument("--seed", type=int, default=0, metavar="N",
                           help="seed for the random builtin scenario")
        p.add_argument("--format", choices=formats,
                       help="output format (default %s)" % formats[0])
        p.add_argument("--out", metavar="PATH",
                       help="write the full result document to PATH")

    p = sub.add_parser("parse", help="parse a formula, echo canonical form")
    common(p, formula=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("unwind",
                       help="rewrite dependency operators into per-process "
                            "conjuncts with local budgets")
    common(p, formula=True, graph=True)
    p.set_defaults(func=cmd_unwind)

    p = sub.add_parser("tableau", help="decompose a formula into branches")
    common(p, formula=True, formats=("dot", "text", "json"))
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("group",
                       help="assign falsification conjuncts to processes")
    common(p, formula=True, graph=True)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("simulate", help="run a scenario under its monitors")
    common(p, scenario=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check",
                       help="compare decentralized detection against the "
                            "centralized verdict on the same run")
    common(p, formula=True, scenario=True)
    p.add_argument("--tamper-budget", type=_tamper_arg, metavar="IDX=VAL",
                   help="corrupt the IDX-th synthesized budget to VAL "
                        "(disagreement self-test)")
    p.set_defaults(func=cmd_check)
    return parser


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _UsageError("--%s is required for this command" % name)


def _read_formula(value: str) -> Formula:
    if os.path.isfile(value):
        with open(value) as fh:
            value = fh.read()
    return parse_formula(value)


def _verdict(v: Verdict) -> str:
    return v.name.capitalize()


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        _print(text)


def _print(text: str) -> None:
    """Print ``text`` to standard output.  A reader that closes it early
    ends the output quietly: the rest goes to the null device, so neither
    this write nor the flush at exit fails, and the command keeps its
    exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_doc(args, doc: dict, text) -> None:
    """Write a command's result document as JSON, or ``text(doc)``."""
    _emit(args, json.dumps(doc, indent=2, sort_keys=True)
          if args.format == "json" else text(doc))


# AST op names: the node's class name in lower case, save these three
_AST_OPS = {"TrueF": "true", "FalseF": "false", "QDep": "dep"}


def _formula_ast(f: Formula) -> dict:
    """JSON-ready tree: each node's op, its fields, and its kids' trees."""
    def step(g, kids):
        doc = {name: getattr(g, name) for name in g.fields}
        doc.update(zip(g.kids, kids))
        name = type(g).__name__
        doc["op"] = _AST_OPS.get(name, name.lower())
        return doc

    return fold(f, step)


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for nested dicts of
    strings and numbers, written without recursion so that a formula of
    any depth prints."""
    out, todo = [], [(doc, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        value, level = item
        if type(value) is not dict or not value:
            out.append(json.dumps(value))
            continue
        out.append("{")
        items = []
        for key in sorted(value):
            items += ["\n" + "  " * (level + 1) + json.dumps(key) + ": ",
                      (value[key], level + 1), ","]
        items[-1] = "\n" + "  " * level + "}"
        todo += reversed(items)
    return "".join(out)


def cmd_parse(args) -> int:
    _require(args, "formula")
    f = _read_formula(args.formula)
    if args.format == "json":
        doc = {"formula": render_formula(f), "ast": _formula_ast(f)}
        _emit(args, _json_text(doc))
    else:
        _emit(args, render_formula(f))
    return EXIT_OK


def cmd_unwind(args) -> int:
    _require(args, "formula", "graph")
    # the graph goes first: a variable no formula can name is the cause
    # of the formula error it would bring
    g = load_graph_file(args.graph)
    f = _read_formula(args.formula)
    u = unwind(f, g)
    doc = {
        "formula": render_formula(f),
        "unwound": render_formula(u.formula),
        "constraints": [
            {"pid": pid, "formula": render_formula(dep), "bound": dep.bound}
            for pid, dep in u.entries],
    }
    _emit_doc(args, doc, _unwind_text)
    return EXIT_OK


def _unwind_text(doc: dict) -> str:
    lines = [doc["unwound"]]
    if not doc["constraints"]:
        lines.append("nothing to unwind: no dependency operator over "
                     "dependent variables")
    else:
        lines.append("constraints:")
        lines += ["  %(pid)-4s %(formula)s" % c for c in doc["constraints"]]
    return "\n".join(lines)


def cmd_tableau(args) -> int:
    _require(args, "formula")
    f = _read_formula(args.formula)
    root = build_tableau(f)
    if args.format in (None, "dot"):
        _emit(args, export_dot(root))
        return EXIT_OK
    doc = {
        "formula": render_formula(f),
        "branches": [
            {"outcome": leaf.status,
             "label": [render_formula(x) for x in leaf.label]}
            for leaf in leaves(root)],
    }
    _emit_doc(args, doc, _tableau_text)
    return EXIT_OK


def _tableau_text(doc: dict) -> str:
    lines = ["branches: %d" % len(doc["branches"])]
    lines += ["  %d: %s  [%s]" % (i, ", ".join(b["label"]), b["outcome"])
              for i, b in enumerate(doc["branches"])]
    return "\n".join(lines)


def cmd_group(args) -> int:
    _require(args, "formula", "graph")
    g = load_graph_file(args.graph)
    f = _read_formula(args.formula)
    plan = plan_monitors(f, g)
    doc = {
        "groups": [
            {"members": list(group.members),
             "formula": render_formula(group.formula)}
            for group in plan.groups],
        "assignment": {pid: render_formula(af)
                       for pid, af in sorted(plan.assignment.items())},
    }
    all_pids = sorted(p.pid for p in g.processes)
    _emit_doc(args, doc, lambda d: _group_text(d, all_pids))
    return EXIT_OK


def _group_text(doc: dict, all_pids: list) -> str:
    lines = ["%-16s %s" % ("process(es)", "formula")]
    for group in doc["groups"]:
        members, shown = group["members"], group["formula"]
        if len(members) == 1:
            shown = doc["assignment"].get(members[0], shown)
        if members == all_pids and len(all_pids) > 1:
            members = ["(all processes)"]
        lines.append("%-16s %s" % (",".join(members), shown))
    return "\n".join(lines)


def _assemble_scenario(args) -> Scenario:
    _require(args, "scenario")
    name = args.scenario
    kind, rnd, target = getattr(args, "fault", None) or (None, None, None)
    extra = 10 if kind == "delay" else 0  # a delay's extra rounds
    # on a builtin scenario the fault's round places the stimulus
    placed = {} if kind is None else {"stimulus_round": rnd}
    if name in ("sorting_line", "sorting_line_blue"):
        if target is not None:
            raise _UsageError("--fault on the sorting line takes no target; "
                              "each failure mode fixes its own")
        token = "blue" if name == "sorting_line_blue" else "white"
        return build_sorting_line_scenario(token, fault=kind, **placed)
    if name == "example2":
        spec = None if kind is None else FaultSpec(target or "p0", kind, 0,
                                                   extra)
        return example2_scenario(fault=spec, **placed)
    sc = (random_scenario(args.seed) if name == "random"
          else load_scenario_file(name))
    if kind is None:
        return sc
    if target is None:
        raise _UsageError("--fault on this scenario needs an explicit "
                          "target (KIND@ROUND:TARGET)")
    return dataclasses.replace(
        sc, faults=sc.faults + (FaultSpec(target, kind, rnd, extra),))


def _result_document(name: str, result: SimulationResult) -> dict:
    report = result.report
    return {
        "scenario": name,
        "rounds": report.rounds_run,
        "verdict": _verdict(report.global_verdict),
        "detecting_pid": report.detecting_pid,
        "detection_round": report.detection_round,
        "detections": [
            {"round": r, "pid": pid, "formula": render_formula(f)}
            for r, pid, f in report.detections],
        "recovery_log": [
            {"round": r, "fault": f.key,
             "action": a.kind, "formula": render_formula(trig)}
            for r, f, a, trig in result.recovery_log],
        "outcome": result.outcome,
        "effective_deadline": result.effective_deadline,
        "messages_total": report.message_total,
        "trace_log": {
            pid: [{"round": rnd, "props": sorted(e.props), "cost": e.cost}
                  for rnd, e in enumerate(trace)]
            for pid, trace in sorted(result.per_process_traces.items())},
    }


def _verdict_lines(doc: dict) -> list:
    """The verdict and detection lines of a result document."""
    lines = ["verdict: %s" % doc["verdict"]]
    if doc["detection_round"] is not None:
        lines.append("detection: round %(detection_round)d by "
                     "%(detecting_pid)s" % doc)
    return lines


def _result_text(doc: dict) -> str:
    lines = ["scenario: %(scenario)s" % doc, "rounds: %(rounds)d" % doc]
    lines += _verdict_lines(doc)
    lines += ["  violated at round %(round)d by %(pid)s: %(formula)s" % d
              for d in doc["detections"]]
    lines.append("recovery log:" if doc["recovery_log"]
                 else "recovery log: empty")
    lines += ["  round %(round)d  %(action)s  fault %(fault)s  via "
              "%(formula)s" % d for d in doc["recovery_log"]]
    if doc["outcome"] is not None:
        lines.append("outcome: %(outcome)s" % doc)
    if doc["effective_deadline"] is not None:
        lines.append("effective deadline: round %(effective_deadline)d" % doc)
    lines.append("messages total: %(messages_total)d" % doc)
    lines.append("trace log:")
    for pid, events in doc["trace_log"].items():
        lines += ["  round %-3d %-4s %s  cost %d"
                  % (e["round"], pid, ",".join(e["props"]) or "-", e["cost"])
                  for e in events]
    return "\n".join(lines)


def cmd_simulate(args) -> int:
    sc = _assemble_scenario(args)
    result = run_scenario(sc, args.rounds)
    doc = _result_document(args.scenario, result)
    _emit_doc(args, doc, _result_text)
    if args.out and args.format != "json":
        _print("\n".join(_verdict_lines(doc)))
    return EXIT_OK


def _check_text(doc: dict) -> str:
    lines = ["formula: %(formula)s" % doc,
             "decentralized: %(decentralized)s" % doc,
             "centralized: %(centralized)s" % doc]
    if doc["detection_round"] is not None:
        lines[1] += " at round %(detection_round)d by %(detecting_pid)s" % doc
    if doc["centralized_position"] is not None:
        lines[2] += " at position %(centralized_position)d" % doc
    if not doc["agree"]:
        lines.append("DISAGREE: decentralized %(decentralized)s, "
                     "centralized %(centralized)s" % doc)
    elif doc["decentralized"] == "False":
        when = ("<= centralized round %(centralized_position)d"
                if doc["centralized_position"] is not None
                else "(centralized before any event)")
        lines.append(("agree: False; decentralized round %(detection_round)d "
                      + when) % doc)
    else:
        lines.append("agree: %(decentralized)s" % doc)
    return "\n".join(lines)


def cmd_check(args) -> int:
    sc = _assemble_scenario(args)
    if args.formula is not None:  # the run is as long as it needs
        sc = dataclasses.replace(sc, formula=_read_formula(args.formula))
    formula = sc.formula
    if formula is None:
        raise _UsageError("scenario carries no end-to-end formula; "
                          "pass --formula")
    plan = plan_monitors(formula, sc.graph)
    monitors = plan.fresh_monitors()
    if args.tamper_budget is not None:
        idx, val = args.tamper_budget
        budget_watchers = [w for m in monitors for w in m.watchers
                           if isinstance(w, BudgetWatcher)]
        if idx >= len(budget_watchers):
            raise _UsageError("--tamper-budget index %d out of range (%d "
                              "budget watchers)" % (idx, len(budget_watchers)))
        w = budget_watchers[idx]
        w.dep = QDep(w.dep.left, w.dep.right, val)
    result = run_simulation(sc, args.rounds, monitors)
    report = result.report
    # progression reads only the formula's atoms, so the latched view
    # needs to carry no other proposition
    names = atoms(formula)
    central, position = evaluate_trace_with_position(formula, latched(
        e if e.props <= names else Event(e.props & names, e.cost)
        for e in result.global_trace))
    dec, det = report.global_verdict, report.detection_round
    # a centralized False without a position was decided before any
    # event, so no detection round can be later
    agree = dec is central and (
        dec is not Verdict.FALSE or position is None
        or det is not None and det <= position)
    doc = {
        "formula": render_formula(formula),
        "decentralized": _verdict(dec),
        "detection_round": det,
        "detecting_pid": report.detecting_pid,
        "centralized": _verdict(central),
        "centralized_position": position,
        "agree": agree,
    }
    _emit_doc(args, doc, _check_text)
    return EXIT_OK if agree else EXIT_DISAGREE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_USAGE
    except (FormulaSyntaxError, TableauLimitError, TemporalOperandError,
            UnsplittableDependencyError) as e:
        sys.stderr.write("formula error: %s\n" % e)
        return EXIT_FORMULA
    except InfeasibleConstraintError as e:
        sys.stderr.write("infeasible constraint: %s\n" % e)
        return EXIT_INFEASIBLE
    except UnobservableAtomError as e:
        sys.stderr.write("unobservable: %s\n" % e)
        return EXIT_UNOBSERVABLE
    except GraphError as e:
        sys.stderr.write("graph error: %s\n" % e)
        return EXIT_GRAPH
    except ValueError as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_GRAPH
    except OSError as e:
        if e.filename is None:  # not a file the arguments name
            raise
        sys.stderr.write("error: %s\n" % e)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
