"""Decentralized monitoring of cumulative-cost temporal properties.

The pipeline: parse a formula with budgeted dependency operators, unwind it
against a process dependency graph into per-process conjuncts with local
budgets, negate and decompose via a tableau, group processes into monitors,
then run the monitors over a synchronous simulator with fault injection.
"""

from .formulas import (
    And,
    Atom,
    Budget,
    Event,
    Eventually,
    FALSE,
    FalseF,
    Formula,
    FormulaSyntaxError,
    Globally,
    Next,
    Not,
    Or,
    QDep,
    TRUE,
    TrueF,
    Until,
    Verdict,
    atoms,
    evaluate_trace,
    evaluate_trace_with_position,
    make_event,
    negate,
    nnf,
    parse_formula,
    progress,
    render_formula,
    subformula_index,
)
from .depgraph import (
    DependencyGraph,
    GraphError,
    Process,
    load_graph,
    load_graph_file,
)
from .tableau import Branch, TableauNode, apply_dist, branches, build_tableau, export_dot, terminal_node
from .unwinding import InfeasibleConstraintError, UnwoundFormula, extract_qdep, local_constraint, unwind
from .grouping import MonitorGroup, UnobservableAtomError, assign_conjuncts, organize_groups
from .runtime import (
    LocalMonitor,
    MonitorMessage,
    MonitorReport,
    aggregate_verdict,
    monitor_round,
    run_decentralized,
    synthesize_monitors,
)
from .simulator import (
    FaultSpec,
    MonitorPlan,
    RecoveryAction,
    Scenario,
    SimulationResult,
    case_monitors,
    example2_graph,
    example2_scenario,
    latched,
    load_scenario,
    load_scenario_file,
    merge_traces,
    plan_monitors,
    random_scenario,
    run_scenario,
    run_simulation,
)
from .sortingline import build_sorting_line_scenario, sorting_line_graph

__all__ = [
    "And", "Atom", "Budget", "Event", "Eventually", "FALSE", "FalseF",
    "Formula", "FormulaSyntaxError", "Globally", "Next", "Not", "Or",
    "QDep", "TRUE", "TrueF", "Until", "Verdict", "atoms",
    "evaluate_trace", "evaluate_trace_with_position", "make_event",
    "negate", "nnf", "parse_formula", "progress", "render_formula",
    "subformula_index",
    "DependencyGraph", "GraphError", "Process", "load_graph", "load_graph_file",
    "Branch", "TableauNode", "apply_dist", "branches", "build_tableau",
    "export_dot", "terminal_node",
    "InfeasibleConstraintError", "UnwoundFormula",
    "extract_qdep", "local_constraint", "unwind",
    "MonitorGroup", "UnobservableAtomError", "assign_conjuncts", "organize_groups",
    "LocalMonitor", "MonitorMessage", "MonitorReport", "aggregate_verdict",
    "monitor_round", "run_decentralized", "synthesize_monitors",
    "FaultSpec", "MonitorPlan", "RecoveryAction", "Scenario",
    "SimulationResult", "case_monitors", "example2_graph",
    "example2_scenario", "latched", "load_scenario", "load_scenario_file",
    "merge_traces", "plan_monitors", "random_scenario", "run_scenario",
    "run_simulation",
    "build_sorting_line_scenario", "sorting_line_graph",
]
