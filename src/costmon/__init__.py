"""Decentralized monitoring of cumulative-cost temporal properties.

The pipeline: parse a formula with budgeted dependency operators, unwind it
against a process dependency graph into per-process conjuncts with local
budgets, negate and decompose via a tableau, group processes into monitors,
then run the monitors over a synchronous simulator with fault injection.
"""

from .formulas import (
    And,
    Atom,
    Eventually,
    Globally,
    Not,
    Or,
    QDep,
    Verdict,
    atoms,
    evaluate_trace,
    evaluate_trace_with_position,
    make_event,
    negate,
    parse_formula,
    progress,
)
from .depgraph import GraphError, load_graph
from .tableau import (
    build_tableau,
    export_dot,
    leaves,
    terminal_node,
)
from .unwinding import (
    InfeasibleConstraintError,
    extract_qdep,
    local_constraint,
    unwind,
)
from .grouping import UnobservableAtomError, assign_conjuncts, organize_groups
from .runtime import synthesize_monitors
from .simulator import (
    FaultSpec,
    case_monitors,
    example2_graph,
    example2_scenario,
    latched,
    load_scenario,
    plan_monitors,
    random_scenario,
    run_scenario,
)
from .sortingline import build_sorting_line_scenario

__all__ = [
    "And", "Atom", "Eventually", "Globally", "Not", "Or", "QDep", "Verdict",
    "atoms", "evaluate_trace", "evaluate_trace_with_position", "make_event",
    "negate", "parse_formula", "progress", "GraphError", "load_graph",
    "build_tableau", "export_dot", "leaves", "terminal_node",
    "InfeasibleConstraintError", "extract_qdep", "local_constraint", "unwind",
    "UnobservableAtomError", "assign_conjuncts", "organize_groups",
    "synthesize_monitors", "FaultSpec", "case_monitors", "example2_graph",
    "example2_scenario", "latched", "load_scenario", "plan_monitors",
    "random_scenario", "run_scenario", "build_sorting_line_scenario",
]
