"""Replays ``simulate`` and ``check`` on seeded generated scenario files.

``golden_run.json`` holds, per command line, the exit code and a sha256 of
stdout in json format, plus the verdict, detection round and detecting
process read from the json document.  The scenarios come from the seeded
generator below and reach what the other goldens leave out: 150-process
chains with a delayed process, staggered stimuli, latencies above the
lower bound, drop, delay and trigger_failure faults, recoveries,
alternative trigger sets, multi-member monitor groups that progress
``F (X & Y)`` conjuncts, and ``--tamper-budget``.  Detections that are
known to be wrong outside the lower-bound regime are pinned as they are,
so a change to the run phase that moves any detection round, right or
wrong, shows up here.  After an intended change of output, regenerate
the file with

    PYTHONPATH=src python tests/test_golden_run.py

which prints the command line of each record that changed, then how many
did.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

import pytest

from costmon import cli
from conftest import write_golden

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_run.json")

SEED = 5
CHAINS = 3
CHAIN_LEN = 150
SMALL = 45


def _chain(rng):
    """A chain of ``CHAIN_LEN`` processes with one delayed process, a
    budget at or just above the lower bound, and a second, ignored
    stimulus of the source."""
    costs = [rng.randint(1, 3) for _ in range(CHAIN_LEN)]
    procs = [{"pid": "p%d" % i,
              "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
              "outputs": ["Of" if i == CHAIN_LEN - 1 else "O%d" % i],
              "cost": c} for i, c in enumerate(costs)]
    q = sum(costs) + rng.randint(0, 2)
    extra = rng.randint(1, 4)
    stim = rng.randint(0, 3)
    return {
        "graph": {"processes": procs, "environment": ["I0"]},
        "stimuli": {str(stim): ["I0"], str(stim + 5): ["I0"]},
        "faults": [{"target": "p%d" % rng.randrange(CHAIN_LEN),
                    "kind": "delay", "at_round": 0, "extra": extra}],
        "formula": "G (I0 o<=%d Of)" % q,
        "rounds": stim + q + extra + 3,
    }


def _lower_bound(procs, target):
    memo = {}
    for p in procs:  # generated in topological order
        memo.update((v, p["cost"] + max((memo.get(u, 0) for u in p["inputs"]),
                                        default=0)) for v in p["outputs"])
    return memo[target]


def _small(rng):
    """A random system of 2 to 8 processes drawing every feature on its
    own: reconvergent wiring, multi-output processes, staggered stimuli,
    slow processes, one or two faults of any kind, recoveries with a
    deadline, alternative trigger sets, a suppressed output, and extra
    ``F (X & Y)`` conjuncts over other processes' outputs."""
    n = rng.randint(2, 8)
    succs = {}
    for i in range(n - 1):
        later = list(range(i + 1, n))
        k = 2 if len(later) > 1 and rng.random() < 0.4 else 1
        succs[i] = sorted(rng.sample(later, k))
    outputs, feeds = {}, {j: [] for j in range(n)}
    for i in range(n):
        many = len(succs.get(i, ())) > 1 and rng.random() < 0.5
        outputs[i] = (["v%d_%d" % (i, j) for j in succs[i]] if many
                      else ["v%d" % i])
        for pos, j in enumerate(succs.get(i, ())):
            feeds[j].append(outputs[i][pos] if many else outputs[i][0])
    procs, env = [], []
    for j in range(n):
        inputs = sorted(feeds[j])
        if not inputs:
            inputs = ["e%d" % j]
            env.append(inputs[0])
        procs.append({"pid": "p%d" % j, "inputs": inputs,
                      "outputs": outputs[j], "cost": rng.randint(0, 3)})
    sink = outputs[n - 1][0]
    q = _lower_bound(procs, sink) + rng.randint(0, 3)
    doc = {"graph": {"processes": procs, "environment": sorted(env)}}
    if rng.random() < 0.5:
        doc["behaviors"] = {p["pid"]: p["cost"] + rng.randint(1, 3)
                            for p in procs if rng.random() < 0.4}
    base = rng.randint(0, 3)
    stimuli = {}
    for e in env:
        rnd = base + (rng.randint(0, 4) if rng.random() < 0.5 else 0)
        stimuli.setdefault(str(rnd), []).append(e)
    if rng.random() < 0.2:
        stimuli.setdefault(str(base + 6), []).append(rng.choice(env))
    doc["stimuli"] = stimuli
    faults = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        kind = rng.choice(("drop", "delay", "trigger_failure"))
        fault = {"target": "p%d" % rng.randrange(n), "kind": kind,
                 "at_round": rng.choice((0, 0, rng.randint(1, 6)))}
        if kind == "delay":
            fault["extra"] = rng.randint(1, 5)
        elif rng.random() < 0.3:
            fault["target"] = rng.choice(outputs[rng.randrange(n)])
        faults.append(fault)
    doc["faults"] = faults
    horizon = base + 4 + q + 8
    if faults and rng.random() < 0.6:
        f = rng.choice(faults)
        kind = rng.choice(("eject_to_bin3", "reference_second_sensor",
                           "reduce_belt_speed"))
        action = {"kind": kind}
        if kind == "reference_second_sensor":
            action["params"] = {"variable": rng.choice(
                env + [v for vs in outputs.values() for v in vs])}
        elif kind == "reduce_belt_speed":
            action["params"] = {"factor": rng.randint(2, 3)}
        key = (f["kind"] if rng.random() < 0.5
               else "%s@%s" % (f["kind"], f["target"]))
        doc["recoveries"] = {key: action}
        doc["deadline"] = [sink, base + q + rng.randint(0, 4)]
    multi = [p for p in procs if len(p["inputs"]) > 1]
    if multi and rng.random() < 0.3:
        p = rng.choice(multi)
        doc["trigger_sets"] = {p["pid"]: [[p["inputs"][0]], p["inputs"]]}
    if rng.random() < 0.1:
        doc["suppressed_outputs"] = [rng.choice(outputs[rng.randrange(n)])]
    anchor = env[0] if len(env) == 1 else "(%s)" % " & ".join(sorted(env))
    formula = "G (%s o<=%d %s)" % (anchor, q, sink)
    if n >= 3 and rng.random() < 0.5:
        picked = rng.sample(range(n - 1), rng.choice((2, 2, 3)) if n >= 4
                            else 2)
        formula += " & F (%s)" % " & ".join(outputs[i][0] for i in picked)
    doc["formula"] = formula
    doc["rounds"] = horizon
    return doc


def _scenarios():
    rng = random.Random(SEED)
    docs = [_chain(rng) for _ in range(CHAINS)]
    docs += [_small(rng) for _ in range(SMALL)]
    return {"run%02d.json" % i: doc for i, doc in enumerate(docs)}


def _cases():
    out = []
    for i, name in enumerate(sorted(_scenarios())):
        out += [["simulate", "--scenario", name],
                ["check", "--scenario", name]]
        if i % 8 == 3:
            out.append(["check", "--scenario", name,
                        "--tamper-budget", "0=%d" % (i % 3)])
        if i % 9 == 5:
            out.append(["simulate", "--scenario", name,
                        "--rounds", str(3 + i)])
    return out


def replay(argv):
    """The golden record of one command line, recomputed.  Scenario file
    names are relative to the working directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--format", "json"])
    stdout = out.getvalue()
    record = {"argv": argv, "exit": code,
              "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    if stdout:
        doc = json.loads(stdout)
        record["verdict"] = doc.get("verdict", doc.get("decentralized"))
        record["detection_round"] = doc["detection_round"]
        record["detecting_pid"] = doc["detecting_pid"]
    return record


@contextlib.contextmanager
def _scenario_dir():
    """A temporary working directory holding the generated scenarios."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in _scenarios().items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(doc, fh)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return {tuple(c["argv"]): c for c in json.load(fh)}


@pytest.fixture(scope="module")
def scenario_dir():
    with _scenario_dir():
        yield


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_run_output_matches_golden(golden, scenario_dir, argv):
    assert replay(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    with _scenario_dir():
        records = [replay(argv) for argv in _cases()]
    write_golden(GOLDEN, records, lambda r: " ".join(r["argv"]))
