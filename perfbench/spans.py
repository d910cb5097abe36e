"""Spans around each layer's public functions, recorded from outside.

The tracer rebinds the names ``costmon check`` looks up (in ``cli`` and
``simulator``) to thin wrappers that record a span per call: name,
start, end, op id and parent.  Spans stay in memory until the run ends.
Nothing inside ``src/`` changes, and every binding is restored when the
op ends.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

# span name -> (module holding the binding, bound name); the span name's
# prefix is the layer it times
LAYER_CALLS = {
    "depgraph.load": ("cli", "load_scenario_file"),
    "formulas.parse": ("simulator", "parse_formula"),
    "unwinding.unwind": ("simulator", "unwind"),
    "tableau.negate": ("simulator", "negate"),
    "tableau.build": ("simulator", "build_tableau"),
    "grouping.organize": ("simulator", "organize_groups"),
    "grouping.assign": ("simulator", "assign_conjuncts"),
    "runtime.index": ("simulator", "subformula_index"),
    "runtime.synth": ("simulator", "synthesize_monitors"),
    "simulator.run": ("cli", "run_simulation"),
    "simulator.latch": ("cli", "latched"),
    "formulas.oracle": ("cli", "evaluate_trace_with_position"),
}

LAYERS = ("cli", "formulas", "depgraph", "unwinding", "tableau", "grouping",
          "runtime", "simulator")


class Tracer:
    """Records the spans of one op at a time.  The wrappers are bound only
    while an op is open, so untraced ops run the package untouched."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.spans: List[dict] = []
        self.results: Dict[str, object] = {}  # last return value per span
        self._stack: List[int] = []
        self._op: Optional[str] = None
        self._saved: List[tuple] = []

    def _install(self) -> None:
        for span, (mod_name, attr) in LAYER_CALLS.items():
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(span, original))

    def _uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.results[name] = result
            return result
        return wrapper

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "op": self._op,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: str) -> int:
        """Open the op's root span; layer calls nest under it."""
        self.results = {}
        self._op = op_id
        self._install()
        return self._open("cli.check")

    def end_op(self, root: int) -> List[dict]:
        """Close the root span, and any span an exception left open, and
        return the op's spans."""
        while self._stack and self._stack[-1] != root:
            self._close(self._stack[-1])
        self._close(root)
        self._uninstall()
        self._op = None
        return self.spans[root:]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def op_times(spans: List[dict]) -> Dict[str, float]:
    """Per-op stage times: total duration per span name, the root's
    duration as ``cli.check``, and the time no stage span covers as
    ``cli.overhead``."""
    out: Dict[str, float] = {}
    root = spans[0]
    for s in spans[1:]:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    total = root["end"] - root["start"]
    staged = sum(s["end"] - s["start"] for s in spans
                 if s["parent"] == root["id"])
    out["cli.check"] = total
    out["cli.overhead"] = total - staged
    return out


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = (child.get(s["parent"], 0.0)
                                  + s["end"] - s["start"])
    out: Dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        out[layer] = out.get(layer, 0.0) + own
    return out
