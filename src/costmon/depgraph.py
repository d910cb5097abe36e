"""Process dependency graphs: wiring, validation, paths, and path costs.

A graph is a set of processes, each with named input and output variables
plus a non-negative lower-bound running cost.  Edges are derived from
output-to-input wiring.  Variables nobody produces are environment
variables; the rest are dependent variables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .formulas import _KEYWORDS


class GraphError(ValueError):
    """Raised on schema violations, duplicate producers, or cycles."""


@dataclass(frozen=True)
class Process:
    """A process: input and output variables and a lower-bound cost.  Its
    ``alphabet``, the variables it observes (inputs plus outputs), is set
    when the process is made, as an attribute that is not a field: the
    graph, grouping and the round loop all read it."""
    pid: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    cost: int

    def __post_init__(self):
        if self.cost < 0:
            raise GraphError("process %s has negative cost" % self.pid)
        inputs = frozenset(self.inputs)
        if not inputs.isdisjoint(self.outputs):
            raise GraphError("process %s lists %s as both input and output"
                             % (self.pid, min(inputs & set(self.outputs))))
        # the locally observable propositions: inputs plus outputs
        alphabet = inputs.union(self.outputs)
        # a formula could not name such a variable
        if not _KEYWORDS.isdisjoint(alphabet):
            raise GraphError("variable %s of process %s is a formula keyword"
                             % (min(_KEYWORDS & alphabet), self.pid))
        object.__setattr__(self, "alphabet", alphabet)


class DependencyGraph:
    """Validated, immutable view of the process wiring."""

    def __init__(self, processes: Sequence[Process], declared_environment=()):
        self.processes: Tuple[Process, ...] = tuple(processes)
        self.by_pid: Dict[str, Process] = {}
        for p in self.processes:
            if p.pid in self.by_pid:
                raise GraphError("duplicate pid %s" % p.pid)
            self.by_pid[p.pid] = p
        self.producer: Dict[str, str] = {}
        consumed = set()
        # variable -> the processes that observe it (hold it in their
        # alphabet), in process order
        self.observers: Dict[str, List[str]] = {}
        for p in self.processes:
            for v in p.outputs:
                if v in self.producer:
                    raise GraphError("variable %s produced by both %s and %s"
                                     % (v, self.producer[v], p.pid))
                self.producer[v] = p.pid
            consumed.update(p.inputs)
            for v in p.alphabet:
                self.observers.setdefault(v, []).append(p.pid)
        self.dependent = frozenset(self.producer)
        self.environment = frozenset(consumed - self.dependent)
        declared = frozenset(declared_environment)
        bad = declared & self.dependent
        if bad:
            raise GraphError("declared environment variable %s has a producer"
                             % sorted(bad)[0])
        unknown = declared - self.environment
        if unknown:
            raise GraphError("declared environment variable %s is not consumed "
                             "by any process" % sorted(unknown)[0])
        # edge (p, p') iff some output of p feeds an input of p'
        self.edges = frozenset(
            (self.producer[v], p.pid)
            for p in self.processes for v in p.inputs if v in self.producer)
        self._succ: Dict[str, List[str]] = {p.pid: [] for p in self.processes}
        self._pred: Dict[str, List[str]] = {p.pid: [] for p in self.processes}
        for a, b in sorted(self.edges):
            self._succ[a].append(b)
            self._pred[b].append(a)
        self._lb: Dict[str, int] = {}
        self._order = self._topological_order()
        self._check_isolated()
        self._cheapest: Dict[str, Dict[str, Tuple[int, Optional[str]]]] = {}

    def _topological_order(self) -> Tuple[str, ...]:
        """Kahn's algorithm; fills the lower-bound completion table on the
        way, since a process is taken only after all its producers."""
        indegree = {pid: len(preds) for pid, preds in self._pred.items()}
        order = [p.pid for p in self.processes if not indegree[p.pid]]
        for pid in order:
            p = self.by_pid[pid]
            done = p.cost + max((self._lb.get(v, 0) for v in p.inputs),
                                default=0)
            for v in p.outputs:
                self._lb[v] = done
            for nxt in self._succ[pid]:
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    order.append(nxt)
        if len(order) < len(self.processes):
            raise GraphError("dependency cycle: %s"
                             % " -> ".join(self._cycle(indegree)))
        return tuple(order)

    def _cycle(self, indegree: Dict[str, int]) -> List[str]:
        """A cycle among the processes Kahn's algorithm left over.  Each of
        them has a leftover predecessor, so walking predecessors must
        revisit a process; the walk from there on, reversed, is the cycle."""
        walk: Dict[str, int] = {}
        pid = next(p.pid for p in self.processes if indegree[p.pid])
        while pid not in walk:
            walk[pid] = len(walk)
            pid = next(prev for prev in self._pred[pid] if indegree[prev])
        back = list(walk)[walk[pid]:]
        return [pid] + back[:0:-1] + [pid]

    def _check_isolated(self):
        # the source/intermediate/sink trichotomy has no slot for a
        # process with no edges at all, so such graphs are rejected
        for p in self.processes:
            if not self._pred[p.pid] and not self._succ[p.pid]:
                raise GraphError("process %s is isolated (no edges)" % p.pid)

    def dependency_paths(self, variable: str) -> List[List[str]]:
        """Simple pid paths ending at the producer of ``variable``, from
        anywhere upstream (including the producer itself).  Environment
        variables have no paths.  The count grows exponentially on
        reconvergent graphs, so planning never enumerates; this is the
        exhaustive reference for ``cheapest_path``.
        """
        if variable not in self.producer:
            return []
        out, todo = [], [[self.producer[variable]]]
        while todo:
            path = todo.pop()
            out.append(path)
            todo.extend([prev] + path for prev in self._pred[path[0]])
        return sorted(out)

    def _cheapest_to(self, variable: str) -> Dict[str, Tuple[int, Optional[str]]]:
        """For every process with a path to producer(variable): the cost of
        the cheapest such path, its first process excluded, and the next
        process on it.  One pass in reverse topological order per producer;
        ties go to the least next pid, so following the links spells the
        lexicographically least cheapest path."""
        end = self.producer.get(variable)
        if end is None:
            return {}
        table = self._cheapest.get(end)
        if table is None:
            table = {end: (0, None)}
            for pid in reversed(self._order):
                for nxt in self._succ[pid]:  # ascending pid order
                    if nxt in table:
                        cost = table[nxt][0] + self.by_pid[nxt].cost
                        if pid not in table or cost < table[pid][0]:
                            table[pid] = (cost, nxt)
            self._cheapest[end] = table
        return table

    def min_downstream_cost(self, from_pid: str, variable: str) -> Optional[int]:
        """Cheapest cost of reaching producer(variable) from ``from_pid``,
        excluding from_pid's own cost.  None when no path exists."""
        entry = self._cheapest_to(variable).get(from_pid)
        return None if entry is None else entry[0]

    def cheapest_path(self, from_pid: str, variable: str) -> Optional[List[str]]:
        """The lexicographically least of the cheapest pid paths from
        ``from_pid`` to producer(variable).  None when no path exists."""
        table = self._cheapest_to(variable)
        if from_pid not in table:
            return None
        path = [from_pid]
        while table[path[-1]][1] is not None:
            path.append(table[path[-1]][1])
        return path

    def lb_completion(self, *variables: str) -> int:
        """Lower-bound cumulative cost to produce all of ``variables`` from
        the environment: the critical (most expensive) chain of producers,
        since a process cannot start before all inputs are present."""
        return max((self._lb.get(v, 0) for v in variables), default=0)


_PROCESS_KEYS = {"pid", "inputs", "outputs", "cost"}
_TOP_KEYS = {"processes", "environment"}


def load_graph(text: str) -> DependencyGraph:
    """Parse a JSON graph document and validate it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError("graph document is not valid JSON: %s" % exc)
    return graph_from_doc(doc)


def graph_from_doc(doc) -> DependencyGraph:
    """The graph of an already decoded JSON graph document, validated."""
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise GraphError("unknown graph key %r" % sorted(unknown)[0])
    if "processes" not in doc or not isinstance(doc["processes"], list):
        raise GraphError("graph document needs a 'processes' list")
    procs = []
    for entry in doc["processes"]:
        if not isinstance(entry, dict):
            raise GraphError("process entries must be objects")
        if not _PROCESS_KEYS.issuperset(entry):
            raise GraphError("unknown process key %r"
                             % min(set(entry) - _PROCESS_KEYS))
        try:
            pid = entry["pid"]
            inputs = entry["inputs"]
            outputs = entry["outputs"]
            cost = entry["cost"]
        except KeyError as exc:
            raise GraphError("process entry missing key %s" % exc)
        if not isinstance(pid, str) or not pid:
            raise GraphError("pid must be a non-empty string")
        if (not isinstance(inputs, list) or not isinstance(outputs, list)
                or not all(isinstance(v, str) for v in inputs + outputs)):
            raise GraphError("inputs/outputs of %s must be lists of names" % pid)
        if not isinstance(cost, int) or isinstance(cost, bool):
            raise GraphError("cost of %s must be an integer" % pid)
        procs.append(Process(pid, tuple(inputs), tuple(outputs), cost))
    env = doc.get("environment", [])
    if not isinstance(env, list) or not all(isinstance(v, str) for v in env):
        raise GraphError("'environment' must be a list of names")
    return DependencyGraph(procs, env)


def load_graph_file(path: str) -> DependencyGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())
