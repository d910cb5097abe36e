"""Independent verdict oracle: arrival-round arithmetic on scenario files.

It replays the process model from its definition (a process starts in
the first round in which all inputs of one of its trigger sets have
arrived, and emits each output ``latency`` rounds later; drop faults
suppress emissions from their round on; a delay fault adds its extra
rounds to a start at or after its round) and reads the verdict of
``G (L o<=q R)`` straight off the arrival rounds.  It imports nothing from
the package and never calls its progression code.

On the latched trace, with one cost unit per round, the earliest
activation is the anchor round ``a`` (the last atom of ``L`` to arrive).
It dies at position ``a + q + 1`` unless ``R`` has arrived by ``a + q``;
every later activation dies later.  A conjunct ``F (X & Y)`` beside the
G formula never changes the verdict: F is never false on a finite prefix,
and a satisfied F drops out of the conjunction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def arrival_rounds(doc: dict, rounds: int) -> Dict[str, int]:
    """First round in which each variable pulses, within ``rounds``."""
    procs = doc["graph"]["processes"]
    latency = {p["pid"]: p["cost"] for p in procs}
    latency.update({pid: int(v) for pid, v in doc.get("behaviors", {}).items()})
    outputs = {p["pid"]: p["outputs"] for p in procs}
    triggers = {p["pid"]: [set(p["inputs"])] for p in procs}
    for pid, sets in doc.get("trigger_sets", {}).items():
        triggers[pid] = [set(s) for s in sets]
    suppressed = set(doc.get("suppressed_outputs", ()))
    drop_from: Dict[str, int] = {}
    delays: Dict[str, Tuple[int, int]] = {}
    for f in doc.get("faults", ()):
        at = int(f.get("at_round", 0))
        if f["kind"] in ("drop", "trigger_failure"):
            names = outputs.get(f["target"], [f["target"]])
            for v in names:
                drop_from[v] = min(drop_from.get(v, at), at)
        else:
            delays[f["target"]] = (at, int(f["extra"]))

    def emits(var: str, rnd: int) -> bool:
        return var not in suppressed and not (var in drop_from
                                              and rnd >= drop_from[var])

    stimuli = {int(r): set(v) for r, v in doc["stimuli"].items()}
    arrived: Dict[str, int] = {}
    started = set()
    pending: List[Tuple[int, str]] = []
    for rnd in range(rounds):
        pulses = set(stimuli.get(rnd, ()))
        pulses |= {v for r, v in pending if r == rnd and emits(v, rnd)}
        pending = [(r, v) for r, v in pending if r != rnd]
        changed = True
        while changed:  # zero-latency starts cascade within the round
            changed = False
            for v in pulses:
                arrived.setdefault(v, rnd)
            for pid in sorted(outputs):
                if pid in started or not any(s <= arrived.keys()
                                             for s in triggers[pid]):
                    continue
                started.add(pid)
                changed = True
                lat = latency[pid]
                if pid in delays and rnd >= delays[pid][0]:
                    lat += delays[pid][1]
                for v in outputs[pid]:
                    if lat > 0:
                        pending.append((rnd + lat, v))
                    elif emits(v, rnd):
                        pulses.add(v)
    return arrived


def expected_violation(op: dict) -> Optional[int]:
    """Position at which ``G (L o<=q R)`` becomes false on the scenario's
    run, or None when the run ends with the verdict still unknown."""
    doc = op["doc"]
    rounds = int(doc["rounds"])
    arrived = arrival_rounds(doc, rounds)
    if not all(a in arrived for a in op["left"]):
        return None
    anchor = max(arrived[a] for a in op["left"])
    deadline = anchor + op["bound"]
    r = arrived.get(op["right"])
    if r is not None and r <= deadline:
        return None
    return deadline + 1 if deadline + 1 < rounds else None
