"""``bench/curves.py`` against ``costmon check``.

The curves time the real ``check`` through the names in perfbench's
``spans.LAYER_CALLS`` and read their counters from what those calls
return.  One small chain checks that each name is timed, that the
counters are chain-N's, that the stages and ``cli.overhead`` add up to
the traced check, and that every binding is put back.  A stage that
runs the cyclic collector is charged with that run.
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


def test_one_chain_point_times_each_layer_of_a_real_check(monkeypatch):
    monkeypatch.setattr(curves, "REPEATS", 1)
    bound = _bindings()
    point = curves.measure(10)
    assert point["failed"] is None
    assert point["check_exit"] == 0
    stages = set(spans.LAYER_CALLS) | {"cli.overhead"}
    for key in ("stages_s", "stages_min_s", "stages_max_s", "stages_cpu_s",
                "gc_runs", "gc_s"):
        assert set(point[key]) == stages
    assert sum(point["stages_s"].values()) == pytest.approx(
        point["traced_check_s"], rel=1e-9)
    # chain-10: 2N + 1 monitor steps, one group and one monitor per
    # process, and no message on a chain
    assert {k: point[k] for k in ("tableau_nodes", "groups", "monitors",
                                  "monitor_steps", "messages", "rounds")} == {
        "tableau_nodes": 69, "groups": 10, "monitors": 10,
        "monitor_steps": 21, "messages": 0, "rounds": 25}
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
