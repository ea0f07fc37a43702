"""Host-time spans around the simulator's layer entry points.

The traced run wraps, from outside the program, the public entry points
of each ``src/repro`` module plus every event callback handed to
``Simulator.schedule``/``schedule_at``.  Each call becomes a span
(name, start, end, parent) kept in flat arrays until the run ends.  A
span's self time is its duration minus the time its child spans cover,
so a cache load issued from inside the core's pump event is booked to
``cache``, not to ``cpu``.

Wrappers must be installed before the traced ``System`` is built:
several components capture bound methods at construction (the
hierarchy keeps ``Interconnect.send``, the core keeps its pump entry).
They record only while :attr:`SpanRecorder.active` is set, so set-up
and the post-drain byte checks stay out of the layer figures.
:meth:`Tracing.uninstall` puts every original back.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

#: (module, class, methods, layer): the call boundaries that get spans.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.engine", "Simulator", ("run",), "sim"),
    ("repro.cache.hierarchy", "CacheHierarchy",
     ("load", "store", "nt_store", "clwb", "clwb_range", "handle_mclazy",
      "handle_inmem_copy", "handle_mcfree", "bulk_copy"), "cache"),
    ("repro.interconnect.bus", "Interconnect", ("send",), "interconnect"),
    ("repro.memctrl.controller", "MemoryController",
     ("receive", "dram_request"), "memctrl"),
    ("repro.mcsquare.ctt", "CopyTrackingTable",
     ("insert", "lookup_dest_line", "source_overlaps",
      "dest_lines_for_source", "remove_dest_range", "pop_smallest"),
     "mcsquare"),
    ("repro.mcsquare.bpq", "BouncePendingQueue",
     ("park", "merge", "release", "supersede", "drop"), "mcsquare"),
    ("repro.dram.device", "DramChannel", ("access", "row_copy"), "dram"),
    ("repro.dram.address_map", "AddressMap", ("decode",), "dram"),
    ("repro.mem.backing_store", "BackingStore",
     ("read", "write", "read_line", "write_line", "copy"), "mem"),
    ("repro.system.system", "System", ("read_memory",), "system"),
)

#: Entry points that return op iterators: each resumption is a span.
GENERATOR_ENTRY_POINTS = (
    ("repro.copyengine.base", "CopyBackend", ("copy_ops", "free_ops"),
     "copyengine"),
)

#: The layers, in report order.
LAYERS = ("sim", "cpu", "cache", "system", "interconnect", "memctrl",
          "mcsquare", "dram", "mem", "copyengine")

#: Package under ``repro`` -> layer, for event callbacks.  ``isa`` op
#: callbacks run on the core; ``sw`` is the copy loop the backends use.
_PACKAGE_LAYER = {"sim": "sim", "cpu": "cpu", "isa": "cpu",
                  "cache": "cache", "system": "system",
                  "interconnect": "interconnect", "memctrl": "memctrl",
                  "mcsquare": "mcsquare", "dram": "dram", "mem": "mem",
                  "copyengine": "copyengine", "sw": "copyengine"}

_MISSING = object()


def layer_of_module(module: str) -> str:
    """The layer an event callback defined in ``module`` belongs to."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return _PACKAGE_LAYER.get(parts[1], parts[1])
    return "other"


class SpanRecorder:
    """Flat in-memory span store with running self-time totals."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("H")
        self.parents = array("i")
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self._stack: List[int] = []
        self._covered: List[float] = []

    def name_id(self, name: str, layer: str) -> int:
        """Intern a span name, remembering which layer it books to."""
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.name_layer.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def begin(self, nid: int) -> int:
        stack = self._stack
        index = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self._covered.append(0.0)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        now = perf_counter()
        self.ends[index] = now
        self._stack.pop()
        covered = self._covered.pop()
        duration = now - self.starts[index]
        nid = self.name_ids[index]
        self.self_s[nid] += duration - covered
        self.calls[nid] += 1
        if self._covered:
            self._covered[-1] += duration

    # ----------------------------------------------------------- summary
    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for nid, layer in enumerate(self.name_layer):
            out[layer] = out.get(layer, 0.0) + self.self_s[nid]
        return out

    def layer_calls(self) -> Dict[str, int]:
        """Entry-point calls per layer (event dispatches left out)."""
        out: Dict[str, int] = {}
        for nid, layer in enumerate(self.name_layer):
            if self.names[nid].startswith("event."):
                continue
            out[layer] = out.get(layer, 0) + self.calls[nid]
        return out

    def calls_named(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path: str) -> None:
        """One JSON header line, then the four arrays back to back."""
        header = {"spans": len(self.name_ids), "names": self.names,
                  "layers": self.name_layer,
                  "arrays": [["start_s", "d"], ["end_s", "d"],
                             ["name", "H"], ["parent", "i"]]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.starts, self.ends, self.name_ids,
                        self.parents):
                arr.tofile(out)


class Tracing:
    """Installs span wrappers on the layer classes; restores them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        import importlib
        rec = self.recorder
        for module, cls_name, methods, layer in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                nid = rec.name_id(f"{layer}.{cls_name}.{method}", layer)
                self._patch(cls, method, _call_wrapper(rec, nid))
        for module, cls_name, methods, layer in GENERATOR_ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                nid = rec.name_id(f"{layer}.{cls_name}.{method}", layer)
                self._patch(cls, method, _generator_wrapper(rec, nid))
        from repro.sim.engine import Simulator
        wrap = _event_wrapper_factory(rec)
        self._patch(Simulator, "schedule", lambda orig: (
            lambda sim, delay, callback, label="", phase=0:
            orig(sim, delay, wrap(callback), label, phase)))
        self._patch(Simulator, "schedule_at", lambda orig: (
            lambda sim, when, callback, label="", phase=0:
            orig(sim, when, wrap(callback), label, phase)))

    def _patch(self, cls: type, name: str, make) -> None:
        self._saved.append((cls, name, cls.__dict__.get(name, _MISSING)))
        setattr(cls, name, make(getattr(cls, name)))

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            if original is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._saved.clear()


def _call_wrapper(rec: SpanRecorder, nid: int):
    begin, end = rec.begin, rec.end

    def make(fn):
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            index = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)
        traced.__wrapped__ = fn
        return traced
    return make


def _generator_wrapper(rec: SpanRecorder, nid: int):
    begin, end = rec.begin, rec.end

    def resume_traced(ops):
        value = None
        while True:
            index = begin(nid)
            try:
                op = next(ops) if value is None else ops.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                end(index)
            value = yield op

    def make(fn):
        def traced(*args, **kwargs):
            ops = fn(*args, **kwargs)
            return resume_traced(ops) if rec.active else ops
        traced.__wrapped__ = fn
        return traced
    return make


def _event_wrapper_factory(rec: SpanRecorder):
    begin, end = rec.begin, rec.end
    by_module: Dict[str, int] = {}

    def wrap(callback):
        module = getattr(callback, "__module__", None)
        if module is None:  # functools.partial and friends
            module = getattr(getattr(callback, "func", None),
                             "__module__", None) or "other"
        nid = by_module.get(module)
        if nid is None:
            layer = layer_of_module(module)
            nid = by_module[module] = rec.name_id(f"event.{layer}", layer)

        def fire():
            if not rec.active:
                return callback()
            index = begin(nid)
            try:
                return callback()
            finally:
                end(index)
        return fire
    return wrap
