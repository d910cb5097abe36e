import json

import pytest

from costmon import example2_graph, load_graph, parse_formula
from costmon.runtime import BudgetWatcher, LocalMonitor

# three-process chain: I0 -> p0 -> O0 -> p1 -> O1 -> p2 -> Of
CHAIN_DOC = json.dumps({
    "processes": [
        {"pid": "p0", "inputs": ["I0"], "outputs": ["O0"], "cost": 2},
        {"pid": "p1", "inputs": ["O0"], "outputs": ["O1"], "cost": 3},
        {"pid": "p2", "inputs": ["O1"], "outputs": ["Of"], "cost": 4},
    ]
})

# the seven-process pipeline used throughout; costs (2,3,1,2,4,3,4)
PIPELINE_DOC = json.dumps({
    "processes": [
        {"pid": "p0", "inputs": ["I0"], "outputs": ["O0"], "cost": 2},
        {"pid": "p1", "inputs": ["I1"], "outputs": ["O1"], "cost": 3},
        {"pid": "p2", "inputs": ["O0"], "outputs": ["O2"], "cost": 1},
        {"pid": "p3", "inputs": ["O0"], "outputs": ["O3"], "cost": 2},
        {"pid": "p4", "inputs": ["O2"], "outputs": ["O4"], "cost": 4},
        {"pid": "p5", "inputs": ["O3"], "outputs": ["O5"], "cost": 3},
        {"pid": "p6", "inputs": ["O1", "O4", "O5"], "outputs": ["Of"], "cost": 4},
    ]
})


def write_golden(path, records, name):
    """Write ``records`` to the golden file ``path``, one JSON line each.
    First print ``name(record)`` for each record that differs from the
    record of that name in the file it replaces, or that is new, then how
    many of them changed."""
    try:
        with open(path) as fh:
            old = {name(r): r for r in json.load(fh)}
    except FileNotFoundError:
        old = {}
    changed = [name(r) for r in records if old.get(name(r)) != r]
    for line in changed:
        print(line)
    print("%d of %d records changed" % (len(changed), len(records)))
    with open(path, "w") as fh:
        fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in records))


def endpoint_monitors(sc):
    """The sorting line watched only end to end: one budget watcher for
    the scenario's formula at EC, the producer of its right operand."""
    return [LocalMonitor("EC", [BudgetWatcher(sc.formula, sc.formula.sub, 0)],
                         {}, {})]


@pytest.fixture(scope="session")
def chain():
    return load_graph(CHAIN_DOC)


@pytest.fixture(scope="session")
def pipeline():
    return example2_graph()


@pytest.fixture(scope="session")
def phi_pipeline():
    return parse_formula("G ((I0 & I1) o<=20 Of)")
