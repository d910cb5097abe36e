"""Process wiring: loading, validation, classification, path costs."""

import json
import random

import pytest

from costmon import (
    GraphError,
    InfeasibleConstraintError,
    example2_graph,
    load_graph,
    local_constraint,
    random_scenario,
)
from costmon.sortingline import sorting_line_graph
from conftest import CHAIN_DOC, PIPELINE_DOC
from oracles import min_downstream


def doc(procs, **extra):
    return json.dumps({"processes": procs, **extra})


def proc(pid, ins, outs, cost=1):
    return {"pid": pid, "inputs": ins, "outputs": outs, "cost": cost}


# ---------------------------------------------------------------------------
# loading and validation

def test_load_chain(chain):
    assert [p.pid for p in chain.processes] == ["p0", "p1", "p2"]
    assert chain.environment == {"I0"}
    assert chain.dependent == {"O0", "O1", "Of"}
    assert sorted(chain.edges) == [("p0", "p1"), ("p1", "p2")]


def test_observers_are_the_processes_whose_alphabet_holds_a_variable():
    graphs = [example2_graph(), sorting_line_graph()]
    graphs += [random_scenario(seed).graph for seed in range(50)]
    for g in graphs:
        assert set(g.observers) == g.environment | g.dependent
        for v, pids in g.observers.items():
            assert pids == [p.pid for p in g.processes if v in p.alphabet]


def test_environment_declaration_cross_check():
    # declaring the environment is optional but must match the wiring
    load_graph(doc([proc("p0", ["I0"], ["O0"]), proc("p1", ["O0"], ["O1"])],
                   environment=["I0"]))
    with pytest.raises(GraphError):
        load_graph(doc([proc("p0", ["I0"], ["O0"]), proc("p1", ["O0"], ["O1"])],
                       environment=["I9"]))


def test_self_wiring_rejected():
    # a process can only feed itself by listing a variable on both sides,
    # which the input/output disjointness invariant catches first
    with pytest.raises(GraphError, match="p1"):
        load_graph(doc([proc("p0", ["x"], ["x2"]), proc("p1", ["x2", "y"], ["y", "z"]),
                        proc("p2", ["z"], ["w"])]))


def test_two_process_cycle():
    with pytest.raises(GraphError, match="cycle"):
        load_graph(doc([proc("a", ["x", "w"], ["y"]), proc("b", ["y"], ["w"])]))


def test_cycle_with_downstream_tail_names_only_the_cycle():
    # the tail e hangs off the cycle and is listed first, so the cycle has
    # to be told apart from what merely sits downstream of it
    with pytest.raises(GraphError, match=r"dependency cycle: c -> d -> b -> c$"):
        load_graph(doc([proc("e", ["v"], ["z"]), proc("a", ["x"], ["y"]),
                        proc("b", ["y", "w"], ["u"]), proc("c", ["u"], ["v"]),
                        proc("d", ["v"], ["w"])]))


def test_duplicate_producer_rejected():
    with pytest.raises(GraphError, match="O0"):
        load_graph(doc([proc("p0", ["I0"], ["O0"]), proc("p1", ["I1"], ["O0"]),
                        proc("p2", ["O0"], ["O1"])]))


def test_duplicate_pid_rejected():
    with pytest.raises(GraphError, match="p0"):
        load_graph(doc([proc("p0", ["I0"], ["O0"]), proc("p0", ["O0"], ["O1"])]))


def test_unknown_keys_rejected():
    with pytest.raises(GraphError):
        load_graph(json.dumps({"processes": [], "nodes": []}))


def test_overlapping_inputs_outputs_rejected():
    with pytest.raises(GraphError):
        load_graph(doc([proc("p0", ["x"], ["x"])]))


def test_negative_cost_rejected():
    with pytest.raises(GraphError):
        load_graph(doc([proc("p0", ["I0"], ["O0"], cost=-1),
                        proc("p1", ["O0"], ["O1"])]))


def test_empty_graph_is_valid():
    g = load_graph(doc([]))
    assert len(g.processes) == 0


def test_isolated_process_rejected():
    # no predecessors and no successors: outside the source/intermediate/
    # sink trichotomy, cannot take part in unwinding
    with pytest.raises(GraphError, match="isolated"):
        load_graph(doc([proc("p0", ["I0"], ["O0"]), proc("p1", ["I1"], ["O1"]),
                        proc("p2", ["O0"], ["O2"])]))


# ---------------------------------------------------------------------------
# dependency paths

def paths_from(g, variable, pid):
    """The dependency paths to ``variable`` that start at ``pid``."""
    return [path for path in g.dependency_paths(variable) if path[0] == pid]


def test_paths_to_sink_from_source(pipeline):
    assert paths_from(pipeline, "Of", "p0") == [
        ["p0", "p2", "p4", "p6"], ["p0", "p3", "p5", "p6"]]


def test_path_from_producer_is_itself(pipeline):
    assert paths_from(pipeline, "O1", "p1") == [["p1"]]


def test_paths_of_environment_variable_empty(pipeline):
    assert pipeline.dependency_paths("I0") == []


def test_all_paths_end_at_producer(pipeline):
    paths = pipeline.dependency_paths("Of")
    assert len(paths) == 8
    assert all(p[-1] == "p6" for p in paths)
    assert all(len(p) <= len(pipeline.processes) for p in paths)
    assert paths == sorted(paths)  # deterministic lexicographic order


def test_paths_are_simple(pipeline):
    for p in pipeline.dependency_paths("Of"):
        assert len(set(p)) == len(p)


def test_paths_of_a_long_chain_take_no_recursion():
    n = 1200
    g = load_graph(doc([proc("p%d" % i, ["I0" if i == 0 else "O%d" % (i - 1)],
                             ["O%d" % i]) for i in range(n)]))
    assert paths_from(g, "O%d" % (n - 1), "p0") == [
        ["p%d" % i for i in range(n)]]


# ---------------------------------------------------------------------------
# path costs

def test_min_downstream_matches_enumeration(pipeline):
    # cross-checked against an oracle that enumerates paths over the raw
    # JSON document instead of the graph object
    for pid in ["p0", "p1", "p2", "p3", "p4", "p5", "p6"]:
        assert pipeline.min_downstream_cost(pid, "Of") == \
            min_downstream(PIPELINE_DOC, pid, "Of")


def test_lb_completion(pipeline):
    # a variable is complete only after every input it transitively
    # needs; the slowest required branch dominates
    assert pipeline.lb_completion("I0") == 0
    assert pipeline.lb_completion("O0") == 2
    assert pipeline.lb_completion("O4") == 7
    assert pipeline.lb_completion("Of") == 11


# ---------------------------------------------------------------------------
# cheapest paths on random reconvergent DAGs

def random_dag(seed: int) -> str:
    """Processes in a random topological order under shuffled pids, so pid
    order and wiring order disagree.  Each takes one to three earlier
    outputs (reconvergence), sometimes an environment variable as well,
    and has one or two outputs; costs include 0, so cheapest paths tie."""
    rng = random.Random(seed)
    pids = ["p%d" % i for i in range(rng.randint(3, 9))]
    rng.shuffle(pids)
    procs, outputs = [], []
    for i, pid in enumerate(pids):
        if i == 0:
            ins = ["I0"]
        else:
            ins = rng.sample(outputs, rng.randint(1, min(3, len(outputs))))
            if i == 1 and outputs[0] not in ins:
                ins.append(outputs[0])
            if rng.random() < 0.3:
                ins.append("I%d" % i)
        outs = [pid + suffix for suffix in "ab"[:rng.randint(1, 2)]]
        procs.append(proc(pid, ins, outs, rng.randint(0, 3)))
        outputs += outs
    return doc(procs)


@pytest.mark.parametrize("seed", range(50))
def test_cheapest_path_matches_enumeration_on_random_dags(seed):
    text = random_dag(seed)
    g = load_graph(text)
    for var in sorted(g.dependent):
        for p in g.processes:
            down = g.min_downstream_cost(p.pid, var)
            assert down == min_downstream(text, p.pid, var)
            paths = paths_from(g, var, p.pid)
            if down is None:
                assert paths == [] and g.cheapest_path(p.pid, var) is None
                continue
            least = min(paths, key=lambda path: (
                sum(g.by_pid[pid].cost for pid in path[1:]), path))
            assert g.cheapest_path(p.pid, var) == least
            if down > 0:
                with pytest.raises(InfeasibleConstraintError) as exc:
                    local_constraint(g, p.pid, var, down - 1)
                assert str(exc.value) == (
                    "budget %d cannot cover path %s (downstream cost %d)"
                    % (down - 1, " -> ".join(least), down))
