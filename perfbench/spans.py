"""Span recorder for the traced benchmark run.

The traced run wraps the public entry points of each ``repro``
subpackage, and every callback scheduled on the simulator, in spans.
All wrapping happens here, from outside the program: no file under
``src/`` changes, so the untraced runs time exactly the code users run.

A span is one call: its id, start, end, parent span id, name, and the
point or query it served.  Spans are kept in memory as a flat float64
array (six numbers per span, appended in one C call when the span ends,
so two threads never interleave a record) and written out when the run
ends.  A layer's self time is the time its spans ran minus the part of
that time covered by their child spans (:func:`self_times`).

Install the wrappers with :func:`install` before any system is built.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import json
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers, named after the ``repro`` subpackages whose work they time.
LAYERS = (
    "sim", "core", "cache", "dma", "interconnect", "topology", "smmu",
    "memory", "accel", "sweep", "result_cache", "serve",
)

#: Fields of one span record, in storage order.
FIELDS = ("id", "start", "end", "parent", "name", "tag")
_NFIELDS = len(FIELDS)

def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to; ``other`` outside them."""
    if module == "repro.sweep.cache":
        return "result_cache"
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class SpanRecorder:
    """Records spans and counters for one process."""

    def __init__(self) -> None:
        self.records = array("d")
        self.names: List[Tuple[str, str]] = []
        self.tags: List[str] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._name_ids: Dict[str, int] = {}
        self._tag_ids: Dict[str, int] = {}
        self._callback_ids: Dict[object, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        #: (current span id, current tag id) of this thread or task.
        self._current = contextvars.ContextVar(
            "perfbench_span", default=(-1, -1))

    # -- tables --------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append((name, layer))
            return nid

    def tag_id(self, tag: str) -> int:
        with self._lock:
            tid = self._tag_ids.get(tag)
            if tid is None:
                tid = self._tag_ids[tag] = len(self.tags)
                self.tags.append(tag)
            return tid

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- spans ---------------------------------------------------------
    def call(self, nid: int, fn, args=(), kwargs=None, tag: Optional[str] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``nid``."""
        parent, ptag = self._current.get()
        tid = ptag if tag is None else self.tag_id(tag)
        sid = next(self._ids)
        token = self._current.set((sid, tid))
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.records.extend((sid, start, end, parent, nid, tid))

    async def acall(self, nid: int, fn, args=(), kwargs=None,
                    tag: Optional[str] = None):
        """Coroutine form of :meth:`call`."""
        parent, ptag = self._current.get()
        tid = ptag if tag is None else self.tag_id(tag)
        sid = next(self._ids)
        token = self._current.set((sid, tid))
        start = time.perf_counter()
        try:
            return await fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.records.extend((sid, start, end, parent, nid, tid))

    def wrap(self, fn, name: str, layer: str):
        """``fn`` wrapped in a span; keeps its name, module and qualname."""
        nid = self.name_id(name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)
        return wrapper

    def callback(self, callback):
        """A scheduled callback wrapped in a span of its defining layer."""
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "func", func)  # functools.partial
        key = getattr(func, "__code__", None) or type(func)
        nid = self._callback_ids.get(key)
        if nid is None:
            module = getattr(func, "__module__", None) or type(func).__module__
            qualname = getattr(func, "__qualname__", type(func).__qualname__)
            nid = self.name_id(f"{module}:{qualname}", layer_of_module(module))
            self._callback_ids[key] = nid
        call = self.call
        return lambda: call(nid, callback)

    # -- output --------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans (``path``.bin) and their tables (``path``.json)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".bin", "wb") as handle:
            self.records.tofile(handle)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump({
                "fields": FIELDS,
                "byteorder": sys.byteorder,
                "names": self.names,
                "tags": self.tags,
                "counts": dict(self.counts),
            }, handle)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def self_times(rows: Iterable[Sequence[float]]) -> Dict[int, float]:
    """Span id -> self time: duration minus the union of its children.

    ``rows`` are ``(id, start, end, parent, ...)`` records in any order.
    Child intervals are clipped to their parent and merged before they
    are subtracted, so overlapping children (concurrent tasks that share
    a parent) are not counted twice.  A child whose parent was never
    recorded (still open when the spans were written) subtracts from
    nothing.
    """
    span = {}
    children = defaultdict(list)
    for row in rows:
        sid, start, end, parent = int(row[0]), row[1], row[2], int(row[3])
        span[sid] = (start, end)
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, (start, end) in span.items():
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            elif c_end > run_end:
                run_end = c_end
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out


def self_times_fast(table):
    """Vectorised :func:`self_times` over an ``(n, 6)`` record array.

    Returns self seconds per row.  Children are clipped to their parent
    and summed; a parent whose clipped children overlap (only spans of
    concurrent tasks can) falls back to the merging reference above.
    """
    import numpy as np

    n = len(table)
    sid = table[:, 0].astype(np.int64)
    start, end = table[:, 1], table[:, 2]
    parent = table[:, 3].astype(np.int64)
    pos = np.full(int(sid.max()) + 1 if n else 1, -1, dtype=np.int64)
    pos[sid] = np.arange(n)
    prow = np.where(parent >= 0, pos[np.clip(parent, 0, None)], -1)
    child = np.nonzero(prow >= 0)[0]
    crow = prow[child]
    c_start = np.maximum(start[child], start[crow])
    c_end = np.maximum(np.minimum(end[child], end[crow]), c_start)
    c_dur = c_end - c_start
    covered = np.bincount(crow, weights=c_dur, minlength=n)
    order = np.lexsort((c_start, crow))
    same = crow[order][1:] == crow[order][:-1]
    overlap = same & (c_start[order][1:] < c_end[order][:-1])
    out = (end - start) - covered
    bad = np.unique(crow[order][1:][overlap])
    if len(bad):
        rows = [tuple(table[i]) for i in bad]
        rows += [tuple(table[i]) for i in child[np.isin(crow, bad)]]
        exact = self_times(rows)
        for i in bad:
            out[i] = exact[int(sid[i])]
    return out


def summarize(recorder: SpanRecorder) -> dict:
    """Per-name calls, self and inclusive seconds, plus root spans."""
    import numpy as np

    table = np.frombuffer(recorder.records, dtype=np.float64).reshape(
        -1, _NFIELDS)
    nid = table[:, 4].astype(np.int64)
    selfs = self_times_fast(table)
    width = len(recorder.names)
    calls = np.bincount(nid, minlength=width)
    self_s = np.bincount(nid, weights=selfs, minlength=width)
    incl_s = np.bincount(nid, weights=table[:, 2] - table[:, 1],
                         minlength=width)
    names = {}
    for i, (name, layer) in enumerate(recorder.names):
        if calls[i]:
            names[name] = {"layer": layer, "calls": int(calls[i]),
                           "self_s": float(self_s[i]),
                           "incl_s": float(incl_s[i])}
    roots = table[table[:, 3] < 0][:, 1:3]
    return {"names": names, "roots": roots.tolist(),
            "counts": dict(recorder.counts), "spans": len(table)}


def layer_totals(names: Dict[str, dict]) -> Dict[str, dict]:
    """Fold per-name summaries into ``{layer: {self_s, calls}}``."""
    totals = {layer: {"self_s": 0.0, "calls": 0}
              for layer in LAYERS + ("other",)}
    for entry in names.values():
        total = totals[entry["layer"]]
        total["self_s"] += entry["self_s"]
        total["calls"] += entry["calls"]
    return totals


def covered_seconds(roots: Iterable[Sequence[float]],
                    windows: Iterable[Tuple[float, float]]) -> float:
    """Seconds of root spans that lie inside the measured windows."""
    total = 0.0
    for w_start, w_end in windows:
        for start, end in roots:
            lo, hi = max(start, w_start), min(end, w_end)
            if hi > lo:
                total += hi - lo
    return total


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _rebind(old, new) -> None:
    """Point every loaded ``repro`` module's global ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(recorder: Optional[SpanRecorder] = None) -> SpanRecorder:
    """Wrap every layer's entry points; call before any system is built."""
    rec = recorder or SpanRecorder()

    import repro.sweep  # noqa: F401  (registers runners and sweeps)
    import repro.serve.service as service_mod
    import repro.sweep.cache as cache_mod
    import repro.sweep.engine as engine_mod
    import repro.sweep.spec as spec_mod
    from repro.accel.controller import AcceleratorController
    from repro.accel.systolic import SystolicArray
    from repro.cache.cache import Cache
    from repro.cache.tags import TagStore
    from repro.core import runner as runner_mod
    from repro.core.system import AcceSysSystem
    from repro.dma.engine import DMAEngine
    from repro.interconnect.bus import MemBus
    from repro.interconnect.pcie.link import PCIeChannel
    from repro.memory.dram.controller import DRAMController
    from repro.sim.eventq import Simulator
    from repro.smmu.smmu import SMMU
    from repro.smmu.walker import PageTableWalker
    from repro.topology.fabric import SwitchLink

    def method(cls, attr, layer, name=None):
        setattr(cls, attr, rec.wrap(getattr(cls, attr),
                                    name or f"{cls.__name__}.{attr}", layer))

    method(Cache, "send", "cache")
    method(DMAEngine, "submit", "dma")
    method(DMAEngine, "submit_list", "dma")
    method(PCIeChannel, "deliver", "interconnect")
    method(MemBus, "send", "interconnect")
    method(SwitchLink, "submit", "topology")
    method(SMMU, "translate", "smmu")
    method(PageTableWalker, "walk", "smmu")
    method(DRAMController, "send", "memory")
    method(AcceleratorController, "launch", "accel")
    method(SystolicArray, "compute_tile", "accel")
    method(AcceSysSystem, "__init__", "core", "AcceSysSystem.build")
    method(Simulator, "run", "sim")
    method(Simulator, "run_until_idle", "sim")
    method(cache_mod.ResultCache, "get", "result_cache")

    old = runner_mod.system_for
    _rebind(old, rec.wrap(old, "system_for", "core"))
    old = cache_mod.point_key
    _rebind(old, rec.wrap(old, "point_key", "sweep"))

    simulate = engine_mod._simulate
    simulate_nid = rec.name_id("simulate_point", "sweep")

    def traced_simulate(runner, point, params, key_hash):
        return rec.call(simulate_nid, simulate,
                        (runner, point, params, key_hash), tag=key_hash[:16])

    engine_mod._simulate = traced_simulate

    for name, runner in list(spec_mod.RUNNERS.items()):
        spec_mod.RUNNERS[name] = dataclasses.replace(
            runner,
            run=rec.wrap(runner.run, f"run:{name}", "core"),
            encode=rec.wrap(runner.encode, f"encode:{name}", "sweep"),
            decode=rec.wrap(runner.decode, f"decode:{name}", "sweep"),
        )

    # Spans that also count, and plain counters.
    put = cache_mod.ResultCache.put
    put_nid = rec.name_id("ResultCache.put", "result_cache")

    def traced_put(self, key, record, meta=None):
        rec.call(put_nid, put, (self, key, record, meta), tag=key[:16])
        rec.count("result_cache.bytes_written",
                  os.path.getsize(self._path(key)))

    cache_mod.ResultCache.put = traced_put

    get = cache_mod.ResultCache.get

    def counted_get(self, key):
        record = get(self, key)
        if record is not None:
            rec.count("result_cache.hits")
        return record

    cache_mod.ResultCache.get = functools.wraps(get)(counted_get)

    access, fill = TagStore.access, TagStore.fill

    def counted_access(self, line):
        hit = access(self, line)
        rec.count("cache.lookups")
        if hit:
            rec.count("cache.line_hits")
        return hit

    def counted_fill(self, line, dirty=False):
        rec.count("cache.fills")
        return fill(self, line, dirty)

    TagStore.access = counted_access
    TagStore.fill = counted_fill

    dram_send = DRAMController.send

    def counted_dram_send(self, txn, on_complete):
        hits, misses = self._row_hits.value, self._row_misses.value
        dram_send(self, txn, on_complete)
        rec.count("memory.row_hits", self._row_hits.value - hits)
        rec.count("memory.row_misses", self._row_misses.value - misses)

    DRAMController.send = functools.wraps(dram_send)(counted_dram_send)

    def counting_events(run):
        def counted_run(self, *args, **kwargs):
            before = self.events_executed
            try:
                return run(self, *args, **kwargs)
            finally:
                rec.count("sim.events", self.events_executed - before)
        return counted_run

    Simulator.run = counting_events(Simulator.run)
    Simulator.run_until_idle = counting_events(Simulator.run_until_idle)

    schedule, schedule_at = Simulator.schedule, Simulator.schedule_at
    wrap_callback = rec.callback

    def traced_schedule(self, delay, callback, *args, **kwargs):
        return schedule(self, delay, wrap_callback(callback), *args, **kwargs)

    def traced_schedule_at(self, when, callback, *args, **kwargs):
        return schedule_at(self, when, wrap_callback(callback), *args, **kwargs)

    Simulator.schedule = traced_schedule
    Simulator.schedule_at = traced_schedule_at

    query = service_mod.SweepService.query
    query_nid = rec.name_id("SweepService.query", "serve")
    queries = itertools.count()

    async def traced_query(self, *args, **kwargs):
        return await rec.acall(query_nid, query, (self,) + args, kwargs,
                               tag=f"query-{next(queries)}")

    service_mod.SweepService.query = traced_query
    return rec
