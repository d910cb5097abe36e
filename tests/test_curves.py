"""``bench/curves.py`` against ``costmon check``.

The curves time the real ``check`` through the names in perfbench's
``spans.LAYER_CALLS`` and read their counters from what those calls
return.  One small chain and one small fan-in check that each name is
timed, that the counters are the family's, that the stages and
``cli.overhead`` add up to the traced check, and that every binding is
put back.  A stage that runs the cyclic collector is charged with that
run.
"""

import gc
import os
import sys

import pytest

from costmon import cli, simulator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import curves  # noqa: E402  (puts perfbench/ on the path)
import spans  # noqa: E402


def _bindings():
    modules = {"cli": cli, "simulator": simulator}
    return {attr: getattr(modules[mod], attr)
            for mod, attr in spans.LAYER_CALLS.values()}


# one group and one monitor per process and no message; chain-10 takes
# 2N + 1 monitor steps, and the oracle 4: the first event, the activation,
# the step that returns its input and the one past the deadline
@pytest.mark.parametrize("text, n, expected", [
    (curves.chain_text, 10, {
        "tableau_nodes": 69, "groups": 10, "monitors": 10,
        "monitor_steps": 21, "messages": 0, "rounds": 25,
        "oracle_steps": 4}),
    (curves.fan_in_text, 8, {
        "tableau_nodes": 62, "groups": 9, "monitors": 9,
        "monitor_steps": 22, "messages": 0, "rounds": 10,
        "oracle_steps": 4}),
], ids=["chain-10", "fan-in-8"])
def test_one_point_times_each_layer_of_a_real_check(monkeypatch, text, n,
                                                    expected):
    monkeypatch.setattr(curves, "REPEATS", 1)
    bound = _bindings()
    point = curves.measure(text, n)
    assert point["failed"] is None
    assert point["check_exit"] == 0
    stages = set(spans.LAYER_CALLS) | {"cli.overhead"}
    for key in ("stages_s", "stages_min_s", "stages_max_s", "stages_cpu_s",
                "gc_runs", "gc_s"):
        assert set(point[key]) == stages
    assert sum(point["stages_s"].values()) == pytest.approx(
        point["traced_check_s"], rel=1e-9)
    assert {k: point[k] for k in expected} == expected
    assert set(point["peaks_mb"]) == set(curves.PEAK_STAGES)
    assert _bindings() == bound


def test_a_collector_run_is_charged_to_the_open_stage(monkeypatch, tmp_path):
    build = simulator.build_tableau

    def collecting(f):
        gc.collect()
        return build(f)

    monkeypatch.setattr(simulator, "build_tableau", collecting)
    path = tmp_path / "chain-10.json"
    path.write_text(curves.chain_text(10))
    callbacks = list(gc.callbacks)
    clock = curves.StageClock(str(path))
    assert clock.gc_runs["tableau.build"] >= 1
    assert 0 < clock.gc_s["tableau.build"] <= clock.cpu["tableau.build"]
    assert gc.callbacks == callbacks


def test_the_oracle_steps_per_change_of_the_view_not_per_round(tmp_path):
    # chain-N's rounds grow with N, but its latched view changes as often
    # at every size
    steps = []
    for n in (10, 40):
        path = tmp_path / ("chain-%d.json" % n)
        path.write_text(curves.chain_text(n))
        steps.append(curves.counters(str(path))["oracle_steps"])
    assert steps[0] == steps[1]
