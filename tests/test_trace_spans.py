"""The benchmark's tracer against ``costmon check``.

``perfbench/spans.py`` times each layer by rebinding the names that
``check`` looks up (``spans.LAYER_CALLS``: ``load_scenario_file``,
``build_tableau``, ``latched`` and the rest) to wrappers that record a
span per call.  A refactor that inlines or renames one of those names
leaves its span unrecorded and breaks ``perfbench/run.py --trace 1``;
this test makes that a failure here.  It only reads ``perfbench/``.
"""

import contextlib
import io
import json
import os
import sys

from costmon import cli, simulator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402


def _chain_doc(n=12):
    """A chain of ``n`` processes with a delayed process in the middle,
    as in the chain-deep workload."""
    procs = [{"pid": "p%d" % i,
              "inputs": ["I0" if i == 0 else "O%d" % (i - 1)],
              "outputs": ["Of" if i == n - 1 else "O%d" % i],
              "cost": 1 + i % 3} for i in range(n)]
    q = sum(p["cost"] for p in procs)
    return {"graph": {"processes": procs, "environment": ["I0"]},
            "stimuli": {"2": ["I0"]},
            "faults": [{"target": "p%d" % (n // 3), "kind": "delay",
                        "extra": 2}],
            "formula": "G (I0 o<=%d Of)" % q,
            "rounds": q + 8}


def _check(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--scenario", path, "--format", "json"])
    return code, out.getvalue()


def test_a_traced_check_records_each_layer_span_once(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain_doc()))
    untraced = _check(str(path))
    bound = {attr: getattr({"cli": cli, "simulator": simulator}[mod], attr)
             for mod, attr in spans.LAYER_CALLS.values()}
    tracer = spans.Tracer({"cli": cli, "simulator": simulator})
    root = tracer.begin_op("chain")
    traced = _check(str(path))
    recorded = tracer.end_op(root)
    assert traced == untraced
    assert json.loads(traced[1])["decentralized"] == "False"
    names = [s["name"] for s in recorded[1:]]
    assert sorted(names) == sorted(spans.LAYER_CALLS)
    assert all(s["end"] is not None for s in recorded)
    # the tracer put every binding back
    assert bound == {
        attr: getattr({"cli": cli, "simulator": simulator}[mod], attr)
        for mod, attr in spans.LAYER_CALLS.values()}
