"""Seeded scenario generators for the three benchmark workloads.

Every generator returns plain scenario documents (the JSON form that
``costmon check --scenario FILE`` reads) together with the facts the
independent oracle needs: the anchor atoms, the target atom and the
budget of the end-to-end formula ``G (L o<=q R)``.  Nothing here calls the
package, except for rendering the sorting-line case study to its JSON
form, so the generated inputs do not depend on the code under test.

The workloads stay inside the regime where ``costmon check`` neither
crashes nor errs today, so a failed op in the benchmark always means a
regression.  The inputs outside it (chains past the recursion ceiling,
and small systems with staggered stimuli, latencies above the lower bound
or delay faults, where decentralized detections are known to be false,
late or missing) make the ``defects`` set, which ``defects.py`` runs
apart from the benchmark.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional, Sequence

WORKLOADS = ("chain-deep", "dag-wide", "corpus-mixed")

# chain-deep: chain length and scenarios per run.  A 150-chain check
# takes about 1.1 s on a 2-core host, so a 30 s run holds about 25: with
# fewer ops a run's median follows the host's speed swings too closely.
CHAIN_LEN = 150
CHAIN_SCENARIOS = 4

# dag-wide: fan-in width and diamond count; the sink's dependency path
# count, which path enumeration walks, doubles per diamond (10 diamonds:
# 20,477 paths, about 1 s of unwinding per check)
DAG_SOURCES = 16
DAG_DIAMONDS = 10
DAG_SCENARIOS = 4

# corpus-mixed: small random systems per run
CORPUS_SIZE = 1000

# defects: chain sizes past the recursion ceiling (chain-600 overflows
# building the tableau, chain-1000 while validating the graph), and small
# systems drawn from the whole feature mix
CEILING_LENS = (600, 1000)
DEFECT_CORPUS_SIZE = 300


def _op(op_id: str, doc: dict, left: Sequence[str], right: str,
        bound: int) -> dict:
    return {"id": op_id, "doc": doc, "left": sorted(left), "right": right,
            "bound": bound}


def _formula(left: Sequence[str], right: str, bound: int,
             extra: Optional[str] = None) -> str:
    anchor = " & ".join(left) if len(left) == 1 else "(%s)" % " & ".join(left)
    text = "G (%s o<=%d %s)" % (anchor, bound, right)
    return text if extra is None else "%s & %s" % (text, extra)


def _critical_cost(procs: List[dict], target: str) -> int:
    """Lower-bound completion cost of ``target``: the most expensive chain
    of producers, since a process waits for all of its inputs."""
    producer = {v: p for p in procs for v in p["outputs"]}
    memo: Dict[str, int] = {}
    order = [target]
    while order:  # iterative post-order, chains can be deep
        v = order[-1]
        p = producer.get(v)
        missing = [u for u in (p["inputs"] if p else ()) if u not in memo]
        if missing:
            order.extend(missing)
            continue
        order.pop()
        memo[v] = 0 if p is None else p["cost"] + max(
            (memo[u] for u in p["inputs"]), default=0)
    return memo[target]


# --- chain-deep -------------------------------------------------------------


def chain_op(rng: random.Random, n: int, op_id: str) -> dict:
    """A chain of ``n`` processes, costs a shuffled equal mix of 1, 2 and 3
    (so q is the same for every seed), budget at the lower bound, and one
    process about a third of the way down delayed past it."""
    costs = [1 + i % 3 for i in range(n)]
    rng.shuffle(costs)
    procs = []
    for i in range(n):
        inp = "I0" if i == 0 else "O%d" % (i - 1)
        out = "Of" if i == n - 1 else "O%d" % i
        procs.append({"pid": "p%d" % i, "inputs": [inp], "outputs": [out],
                      "cost": costs[i]})
    q = sum(costs)
    delayed = n // 3 + rng.randint(-3, 3)
    extra = rng.randint(1, 3)
    stim = rng.randint(1, 3)
    doc = {
        "graph": {"processes": procs, "environment": ["I0"]},
        "stimuli": {str(stim): ["I0"]},
        "faults": [{"target": "p%d" % delayed, "kind": "delay",
                    "at_round": 0, "extra": extra}],
        "formula": _formula(["I0"], "Of", q),
        "rounds": stim + q + extra + 3,
    }
    return _op(op_id, doc, ["I0"], "Of", q)


def chain_deep(seed: int) -> List[dict]:
    rng = random.Random(seed)
    return [chain_op(rng, CHAIN_LEN, "chain%d-%d" % (CHAIN_LEN, i))
            for i in range(CHAIN_SCENARIOS)]


# --- dag-wide ---------------------------------------------------------------


def dag_wide_op(rng: random.Random, op_id: str, violated: bool) -> dict:
    """``DAG_SOURCES`` sources joined into one process, then
    ``DAG_DIAMONDS`` stacked diamonds.  Stimuli are staggered over a few
    rounds; the last one reaches a source of the highest cost, so the
    anchor completes on the critical path.  The two branches of a diamond
    cost the same, so every downstream stretch has one cost and the local
    budgets are exact; anchors completing off the critical path and
    reconvergent stretches of unequal cost, where detections are known to
    be missed, belong to the ``defects`` set.  The join is delayed: past the
    slack in a violated run, within it (or not at all) otherwise."""
    sources = ["I%d" % i for i in range(DAG_SOURCES)]
    src_costs = [rng.randint(1, 3) for _ in sources]
    procs = [{"pid": "s%d" % i, "inputs": [env], "outputs": ["A%d" % i],
              "cost": src_costs[i]} for i, env in enumerate(sources)]
    procs.append({"pid": "j", "inputs": ["A%d" % i for i in range(DAG_SOURCES)],
                  "outputs": ["B0"], "cost": rng.randint(1, 3)})
    # a shuffled equal mix of 1, 2 and 3 keeps the stack's cost fixed
    costs = [1 + i % 3 for i in range(2 * DAG_DIAMONDS)]
    rng.shuffle(costs)
    for k in range(DAG_DIAMONDS):
        top = "B%d" % k
        bottom = "Of" if k == DAG_DIAMONDS - 1 else "B%d" % (k + 1)
        for side, out in (("l", "C"), ("r", "D")):
            procs.append({"pid": "%s%d" % (side, k), "inputs": [top],
                          "outputs": ["%s%d" % (out, k)],
                          "cost": costs[2 * k]})
        procs.append({"pid": "m%d" % k, "inputs": ["C%d" % k, "D%d" % k],
                      "outputs": [bottom], "cost": costs[2 * k + 1]})
    slack = rng.randint(0, 2)
    q = _critical_cost(procs, "Of") + slack
    base = rng.randint(1, 3)
    last = max(range(DAG_SOURCES), key=lambda i: (src_costs[i], i))
    stimuli: Dict[str, List[str]] = {}
    for i, env in enumerate(sources):
        rnd = base + 3 if i == last else base + rng.randint(0, 3)
        stimuli.setdefault(str(rnd), []).append(env)
    extra = slack + rng.randint(1, 3) if violated else rng.randint(0, slack)
    faults = ([{"target": "j", "kind": "delay", "at_round": 0, "extra": extra}]
              if extra else [])
    doc = {
        "graph": {"processes": procs, "environment": sources},
        "stimuli": stimuli,
        "faults": faults,
        "formula": _formula(sources, "Of", q),
        "rounds": base + 3 + q + extra + 3,
    }
    return _op(op_id, doc, sources, "Of", q)


def dag_wide(seed: int) -> List[dict]:
    rng = random.Random(seed)
    return [dag_wide_op(rng, "dag%dx%d-%d" % (DAG_SOURCES, DAG_DIAMONDS, i),
                        violated=i % 2 == 0)
            for i in range(DAG_SCENARIOS)]


# --- corpus-mixed -----------------------------------------------------------


def small_op(rng: random.Random, op_id: str, defects: bool = False) -> dict:
    """A random system of 2 to 8 processes.  Each property below is drawn
    on its own, so the corpus mixes every combination: in-tree or
    reconvergent wiring, multi-output processes, drop faults, and an extra
    plain-LTL conjunct over two processes' outputs.  With ``defects`` the
    draw also takes staggered stimuli, latencies above the lower bound and
    delay faults, the features under which decentralized detections are
    known to be false, late or missing."""
    n = rng.randint(2, 8)
    reconvergent = rng.random() < 0.4
    multi_output = rng.random() < 0.3
    staggered = defects and rng.random() < 0.3
    slow = defects and rng.random() < 0.3
    fault_kind = rng.choice((None, None, "drop", "delay") if defects
                            else (None, None, "drop"))
    with_ltl = n >= 3 and rng.random() < 0.3
    succs: Dict[int, List[int]] = {}
    for i in range(n - 1):
        later = list(range(i + 1, n))
        k = 2 if reconvergent and len(later) > 1 and rng.random() < 0.5 else 1
        succs[i] = sorted(rng.sample(later, k))
    # every edge carries its own output variable of the upstream process
    # when it has several; otherwise all successors share one output
    outputs: Dict[int, List[str]] = {}
    feeds: Dict[int, List[str]] = {j: [] for j in range(n)}
    for i in range(n):
        many = multi_output and len(succs.get(i, ())) > 1
        names = (["v%d_%d" % (i, j) for j in succs[i]] if many
                 else ["v%d" % i])
        if i == n - 1 and multi_output:
            names = ["v%d" % i, "w%d" % i]
        outputs[i] = names
        for pos, j in enumerate(succs.get(i, ())):
            feeds[j].append(names[pos] if many else names[0])
    procs, env = [], []
    for j in range(n):
        inputs = sorted(feeds[j])
        if not inputs:
            inputs = ["e%d" % j]
            env.append(inputs[0])
        procs.append({"pid": "p%d" % j, "inputs": inputs,
                      "outputs": outputs[j], "cost": rng.randint(1, 3)})
    sink = outputs[n - 1][0]
    lb = _critical_cost(procs, sink)
    q = lb + rng.randint(0, 3)
    behaviors = {}
    if slow:
        for p in procs:
            if rng.random() < 0.4:
                behaviors[p["pid"]] = p["cost"] + rng.randint(1, 2)
    s = rng.randint(0, 2)
    stimuli: Dict[str, List[str]] = {}
    for e in env:
        rnd = s + (rng.randint(0, 3) if staggered else 0)
        stimuli.setdefault(str(rnd), []).append(e)
    faults, extra = [], 0
    if fault_kind == "drop":
        faults.append({"target": "p%d" % rng.randrange(n), "kind": "drop",
                       "at_round": 0})
    elif fault_kind == "delay":
        extra = rng.randint(1, 3)
        faults.append({"target": "p%d" % rng.randrange(n), "kind": "delay",
                       "at_round": 0, "extra": extra})
    ltl = None
    if with_ltl:
        a, b = rng.sample(range(n - 1), 2)
        ltl = "F (%s & %s)" % (outputs[a][0], outputs[b][0])
    last_stim = max(int(r) for r in stimuli)
    cost = {p["pid"]: p["cost"] for p in procs}
    slowdown = sum(v - cost[pid] for pid, v in behaviors.items())
    doc = {
        "graph": {"processes": procs, "environment": sorted(env)},
        "stimuli": stimuli,
        "faults": faults,
        "formula": _formula(sorted(env), sink, q, ltl),
        "rounds": last_stim + q + slowdown + extra + 4,
    }
    if behaviors:
        doc["behaviors"] = behaviors
    return _op(op_id, doc, env, sink, q)


def sorting_line_ops() -> List[dict]:
    """The ten sorting-line fault cases (five faults, two tokens), rendered
    from the package's case study to scenario files.  Inside ``check``
    the designated recovery watchers never fire, so each case is a plain
    process-model run."""
    from costmon.sortingline import FAULT_NAMES, build_sorting_line_scenario
    from costmon.formulas import render_formula

    ops = []
    for token in ("white", "blue"):
        for fault in FAULT_NAMES:
            sc = build_sorting_line_scenario(token, fault=fault)
            g = sc.graph
            doc = {
                "graph": {
                    "processes": [
                        {"pid": p.pid, "inputs": list(p.inputs),
                         "outputs": list(p.outputs), "cost": p.cost}
                        for p in g.processes],
                    "environment": sorted(g.environment)},
                "behaviors": dict(sc.behaviors),
                "stimuli": {str(r): sorted(v) for r, v in sc.stimuli.items()},
                "faults": [{"target": f.target, "kind": f.kind,
                            "at_round": f.at_round, "extra": f.extra}
                           for f in sc.faults],
                "recoveries": {
                    key: {"kind": a.kind,
                          "trigger": (render_formula(a.trigger)
                                      if a.trigger is not None else None),
                          "params": dict(a.params)}
                    for key, a in sc.recoveries.items()},
                "formula": render_formula(sc.formula),
                "rounds": sc.suggested_rounds,
                "deadline": list(sc.deadline),
                "suppressed_outputs": sorted(sc.suppressed_outputs),
                "trigger_sets": {pid: [sorted(s) for s in sets]
                                 for pid, sets in sc.trigger_sets.items()},
            }
            right = "A_W" if token == "white" else "A_B"
            bound = 5 if token == "white" else 6
            ops.append(_op("sorting-%s-%s" % (token, fault), doc,
                           ["LS1", "SC"], right, bound))
    return ops


def corpus_mixed(seed: int) -> List[dict]:
    rng = random.Random(seed)
    return ([small_op(rng, "small-%d" % i) for i in range(CORPUS_SIZE)]
            + sorting_line_ops())


def defects(seed: int) -> List[dict]:
    rng = random.Random(seed)
    return ([chain_op(rng, n, "chain%d" % n) for n in CEILING_LENS]
            + [small_op(rng, "wide-%d" % i, defects=True)
               for i in range(DEFECT_CORPUS_SIZE)])


GENERATORS = {"chain-deep": chain_deep, "dag-wide": dag_wide,
              "corpus-mixed": corpus_mixed, "defects": defects}


def generate(workload: str, seed: int, out_dir: str) -> List[dict]:
    """Write the scenario files of a workload (or of the ``defects`` set)
    into ``out_dir``; return its ops with each op's ``file`` set."""
    ops = GENERATORS[workload](seed)
    os.makedirs(out_dir, exist_ok=True)
    for op in ops:
        path = os.path.join(out_dir, op["id"] + ".json")
        with open(path, "w") as fh:
            json.dump(op["doc"], fh)
        op["file"] = path
    return ops
