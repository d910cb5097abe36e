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


class GraphError(ValueError):
    """Raised on schema violations, duplicate producers, or cycles."""


@dataclass(frozen=True)
class Process:
    pid: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    cost: int

    def __post_init__(self):
        if self.cost < 0:
            raise GraphError("process %s has negative cost" % self.pid)
        overlap = set(self.inputs) & set(self.outputs)
        if overlap:
            raise GraphError("process %s lists %s as both input and output"
                             % (self.pid, sorted(overlap)[0]))

    @property
    def alphabet(self) -> frozenset:
        """Locally observable propositions: inputs plus outputs."""
        return frozenset(self.inputs) | frozenset(self.outputs)


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
        for p in self.processes:
            for v in p.outputs:
                if v in self.producer:
                    raise GraphError("variable %s produced by both %s and %s"
                                     % (v, self.producer[v], p.pid))
                self.producer[v] = p.pid
        self.dependent = frozenset(self.producer)
        consumed = set()
        for p in self.processes:
            consumed.update(p.inputs)
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
            (a.pid, b.pid)
            for a in self.processes
            for b in self.processes
            if a.pid != b.pid and set(a.outputs) & set(b.inputs))
        self._succ: Dict[str, List[str]] = {p.pid: [] for p in self.processes}
        self._pred: Dict[str, List[str]] = {p.pid: [] for p in self.processes}
        for a, b in sorted(self.edges):
            self._succ[a].append(b)
            self._pred[b].append(a)
        self._check_acyclic()
        self._check_isolated()
        self._lb_cache: Dict[str, int] = {}

    def _check_acyclic(self):
        state: Dict[str, int] = {}
        order: List[str] = []

        def visit(pid, stack):
            state[pid] = 1
            stack.append(pid)
            for nxt in self._succ[pid]:
                if state.get(nxt) == 1:
                    cycle = stack[stack.index(nxt):] + [nxt]
                    raise GraphError("dependency cycle: %s" % " -> ".join(cycle))
                if nxt not in state:
                    visit(nxt, stack)
            stack.pop()
            state[pid] = 2
            order.append(pid)

        for p in self.processes:
            if p.pid not in state:
                visit(p.pid, [])

    def _check_isolated(self):
        # the source/intermediate/sink trichotomy has no slot for a
        # process with no edges at all, so such graphs are rejected
        for p in self.processes:
            if not self._pred[p.pid] and not self._succ[p.pid]:
                raise GraphError("process %s is isolated (no edges)" % p.pid)

    def classify(self, pid: str) -> str:
        if pid not in self.by_pid:
            raise GraphError("unknown pid %s" % pid)
        preds, succs = self._pred[pid], self._succ[pid]
        if not preds and not succs:
            raise GraphError("process %s is isolated" % pid)
        if not preds:
            return "source"
        if not succs:
            return "sink"
        return "intermediate"

    def dependency_paths(self, variable: str,
                         from_pid: Optional[str] = None) -> List[List[str]]:
        """Simple pid paths ending at the producer of ``variable``.

        Without ``from_pid``, paths start anywhere upstream (including the
        producer itself).  With it, only paths starting at that process are
        returned.  Environment variables have no paths.
        """
        if variable not in self.producer:
            return []
        end = self.producer[variable]
        out: List[List[str]] = []

        def backward(pid, acc):
            path = [pid] + acc
            out.append(path)
            for prev in self._pred[pid]:
                backward(prev, path)

        backward(end, [])
        if from_pid is not None:
            out = [p for p in out if p[0] == from_pid]
        out.sort()
        return out

    def path_cost(self, path: Sequence[str]) -> int:
        return sum(self.by_pid[pid].cost for pid in path)

    def min_downstream_cost(self, from_pid: str, variable: str) -> Optional[int]:
        """Cheapest cost of reaching producer(variable) from ``from_pid``,
        excluding from_pid's own cost.  None when no path exists."""
        paths = self.dependency_paths(variable, from_pid=from_pid)
        if not paths:
            return None
        return min(self.path_cost(p[1:]) for p in paths)

    def lb_completion(self, variable: str) -> int:
        """Lower-bound cumulative cost to produce ``variable`` from the
        environment: the critical (most expensive) chain of producers,
        since a process cannot start before all inputs are present."""
        if variable in self._lb_cache:
            return self._lb_cache[variable]
        if variable not in self.producer:
            self._lb_cache[variable] = 0
            return 0
        p = self.by_pid[self.producer[variable]]
        total = p.cost + max((self.lb_completion(v) for v in p.inputs), default=0)
        self._lb_cache[variable] = total
        return total


_PROCESS_KEYS = {"pid", "inputs", "outputs", "cost"}
_TOP_KEYS = {"processes", "environment"}


def load_graph(text: str) -> DependencyGraph:
    """Parse a JSON graph document and validate it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError("graph document is not valid JSON: %s" % exc)
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
        unknown = set(entry) - _PROCESS_KEYS
        if unknown:
            raise GraphError("unknown process key %r" % sorted(unknown)[0])
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
