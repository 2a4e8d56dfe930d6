"""Span tracing around the engine's layer boundaries, from outside.

The tracer replaces public functions and methods of the engine with
timing wrappers for the duration of a traced window, then puts the
originals back.  Nothing inside ``src/`` knows it is being traced.

Every wrapped call pushes a frame on one stack, so each call knows its
parent and a layer's *self* time is its calls' duration minus the part
of it their wrapped children cover.  Two kinds of call are kept:

* **span** boundaries (request handling, parse, plan, statement
  execution, commit, WAL append, vacuum, gang runs, ...) are recorded
  one by one: name, start, end, parent span and operation id;
* **per-tuple** calls (``covers``, ``strip``, ``visible``, index
  probes, buffer touches, spill records) happen up to millions of
  times, so they are recorded as one aggregate per (parent span, name):
  call count and summed duration.

Per-tuple functions are wrapped at *every* module binding that holds
them (``repro.db.physical.covers`` as well as ``repro.core.rules.covers``),
found by scanning the loaded ``repro.*`` modules.  Their call counts
also go into a counter group registered with the engine's metrics
registry, so calls made inside forked parallel workers come back with
the worker's registry snapshot and the traced counts can be compared
exactly with the registry's own counters.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from typing import Dict, List, Tuple

from repro.core import rules
from repro.db import engine, metrics, parallel, planner, session, spill, \
    stats, storage, transactions, wal
from repro.db.indexes import HashIndex, OrderedIndex
from repro.db.pages import BufferCache
from repro.platform import runtime, web

_perf = time.perf_counter

#: Layer of the per-operation root span: the benchmark's client code
#: (request construction, the TPC-C transaction scripts) between calls.
CLIENT = "client"

#: (layer, owner, attribute, kind).  ``kind`` is ``span`` (recorded
#: individually), ``tuple`` (per-tuple leaf, aggregated), ``gen``
#: (generator function: each ``next`` is a per-tuple call) or
#: ``gang`` (generator whose first-``next``-to-exhaustion interval is
#: recorded as a span).  Module-level functions are listed once under
#: their defining module; every other binding is found by identity.
BOUNDARIES = (
    ("platform", web.WebApp, "handle", "span"),
    ("platform", runtime.IFRuntime, "spawn", "span"),
    ("platform", runtime.AppProcess, "add_secrecy", "span"),
    ("platform", runtime.AppProcess, "declassify", "span"),
    ("platform", runtime.AppProcess, "send", "span"),
    ("sql", engine.Database, "parse", "span"),
    ("sql", engine, "parse_statement", "span"),
    ("db.planner", engine.Database, "prepare_select", "span"),
    ("db.planner", engine.Database, "prepare_dml", "span"),
    ("db.planner", engine.Database, "prepare_insert", "span"),
    ("db.planner", planner.Planner, "plan_select", "span"),
    ("db.planner", planner.Planner, "plan_dml", "span"),
    ("db.planner", engine.Database, "_plan_insert", "span"),
    ("db.stats", stats.StatsManager, "refresh_drifted", "span"),
    ("db.stats", stats.StatsManager, "analyze", "span"),
    ("db.physical", session.Session, "execute_statement", "span"),
    ("db.transactions", session.Session, "commit", "span"),
    ("db.transactions", transactions.TransactionManager, "visible",
     "tuple"),
    ("core.rules", rules, "covers", "tuple"),
    ("core.rules", rules, "strip", "tuple"),
    ("db.indexes", HashIndex, "lookup", "tuple"),
    ("db.indexes", OrderedIndex, "lookup", "tuple"),
    ("db.indexes", OrderedIndex, "scan_range", "gen"),
    ("db.indexes", HashIndex, "insert", "tuple"),
    ("db.indexes", OrderedIndex, "insert", "tuple"),
    ("db.storage", storage.Table, "append", "tuple"),
    ("db.storage", engine.Database, "vacuum", "span"),
    ("db.pages", BufferCache, "touch", "tuple"),
    ("db.pages", BufferCache, "touch_run", "tuple"),
    ("db.spill", spill.SpillFile, "write", "tuple"),
    ("db.spill", spill.SpillFile, "records", "gen"),
    ("db.parallel", parallel, "run_gang", "gang"),
    ("db.wal", wal, "build_commit_record", "span"),
    ("db.wal", wal.WriteAheadLog, "log_commit", "span"),
)

LAYERS = ("platform", "sql", "db.planner", "db.stats", "db.physical",
          "core.rules", "db.transactions", "db.indexes", "db.storage",
          "db.pages", "db.spill", "db.parallel", "db.wal", CLIENT)

#: Calls counted through the metrics registry (so forked workers'
#: calls are included): boundary name -> counter field.
REGISTRY_COUNTED = {
    "rules.covers": "covers",
    "rules.strip": "strip",
    "TransactionManager.visible": "visible",
    "HashIndex.lookup": "lookups",
    "OrderedIndex.lookup": "lookups",
    "OrderedIndex.scan_range": "range_scans",
    "SpillFile.write": "spill_writes",
}


class TraceCounts:
    """Counter group for the registry: per-tuple call counts that must
    survive a trip through a forked parallel worker."""

    __slots__ = ("covers", "strip", "visible", "visible_true", "lookups",
                 "lookup_tids", "range_scans", "spill_writes")

    def __init__(self):
        for field in self.__slots__:
            setattr(self, field, 0)


def _owner_name(owner) -> str:
    name = getattr(owner, "__name__", str(owner))
    return name.rsplit(".", 1)[-1]


class Tracer:
    """Span recorder; :meth:`install` wraps, :meth:`uninstall` restores."""

    GROUP = "perfbench_trace"

    def __init__(self):
        self.names: List[str] = [CLIENT + ".op"]
        self.layer_of: List[str] = [CLIENT]
        self.calls = array("q", [0])
        self.inclusive = array("d", [0.0])
        self.layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        # Recorded spans, one entry per span in parallel arrays.
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("q")
        self.s_op = array("q")
        # Aggregated per-tuple calls: (parent span, name) -> [count, s].
        self.aggregates: Dict[Tuple[int, int], List[float]] = {}
        self.stack: List[list] = []
        self.op = -1
        self.counts = TraceCounts()
        self.touches = 0               # pages touched (this process only)
        self.rows_returned = 0
        self.user_bytes_values: List[tuple] = []
        self.gang_seconds = 0.0
        self.gangs = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._index: Dict[str, int] = {}
        self._hooks = self._result_hooks()

    # -- names ----------------------------------------------------------
    def _name(self, name: str, layer: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self._index[name] = idx
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.inclusive.append(0.0)
        return idx

    # -- span bookkeeping -----------------------------------------------
    def _open_span(self, idx: int, start: float) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        span = len(self.s_name)
        self.s_name.append(idx)
        self.s_start.append(start)
        self.s_end.append(start)
        self.s_parent.append(parent)
        self.s_op.append(self.op)
        frame = [idx, start, 0.0, span]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, end: float) -> None:
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:           # unbalanced exit (exception)
            del stack[stack.index(frame):]
        idx, start, child, span = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self.layer_self[self.layer_of[idx]] += duration - child
        self.calls[idx] += 1
        # Inclusive time counts outermost calls only, so a recursive
        # boundary (nested statements) is not counted twice.
        if not any(f[0] == idx for f in stack):
            self.inclusive[idx] += duration
        if span >= 0:
            self.s_end[span] = end

    def _leaf_done(self, idx: int, duration: float, child: float) -> None:
        top = self.stack[-1]
        top[2] += duration
        self.layer_self[self.layer_of[idx]] += duration - child
        self.calls[idx] += 1
        self.inclusive[idx] += duration
        key = (top[3], idx)
        entry = self.aggregates.get(key)
        if entry is None:
            self.aggregates[key] = [1, duration]
        else:
            entry[0] += 1
            entry[1] += duration

    # -- per-operation root ------------------------------------------------
    def begin_op(self) -> None:
        self.op += 1
        self._open_span(0, _perf())

    def end_op(self) -> None:
        self._close(self.stack[-1], _perf())
        self.stack.clear()

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, idx: int, name: str):
        tracer = self
        on_result = self._hooks.get(name)

        def traced(*args, **kwargs):
            frame = tracer._open_span(idx, _perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, _perf())
            if on_result is not None:
                on_result(result, args)
            return result
        return traced

    def _tuple_wrapper(self, fn, idx: int, name: str):
        tracer = self
        counts = self.counts
        field = REGISTRY_COUNTED.get(name)
        hook = self._hooks.get(name)
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [idx, _perf(), 0.0, -1]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer._leaf_done(idx, _perf() - frame[1], frame[2])
            if field is not None:
                setattr(counts, field, getattr(counts, field) + 1)
            if hook is not None:
                hook(result, args)
            return result
        return traced

    def _gen_wrapper(self, fn, idx: int, name: str, interval: bool):
        tracer = self
        field = REGISTRY_COUNTED.get(name)

        def traced(*args, **kwargs):
            return _TracedIter(tracer, idx, fn(*args, **kwargs), field,
                               interval)
        return traced

    def _result_hooks(self):
        def visible(result, _args):
            if result:
                self.counts.visible_true += 1

        def lookup(result, _args):
            self.counts.lookup_tids += len(result)

        def touch(_result, _args):
            self.touches += 1

        def touch_run(_result, args):
            self.touches += max(0, args[3])

        def append(_result, args):
            self.user_bytes_values.append(args[1])

        def execute(result, _args):
            self.rows_returned += result.rowcount

        return {"TransactionManager.visible": visible,
                "HashIndex.lookup": lookup,
                "OrderedIndex.lookup": lookup,
                "BufferCache.touch": touch,
                "BufferCache.touch_run": touch_run,
                "Table.append": append,
                "Session.execute_statement": execute}

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        """Wrap every boundary (and every module binding of the
        module-level ones) and register the count group."""
        metrics.REGISTRY.register(self.GROUP, self.counts)
        self.counts.__init__()
        for layer, owner, attr, kind in BOUNDARIES:
            original = getattr(owner, attr)
            name = "%s.%s" % (_owner_name(owner), attr)
            idx = self._name(name, layer)
            if kind == "span":
                wrapper = self._span_wrapper(original, idx, name)
            elif kind == "tuple":
                wrapper = self._tuple_wrapper(original, idx, name)
            else:
                wrapper = self._gen_wrapper(original, idx, name,
                                            interval=(kind == "gang"))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                for module in list(sys.modules.values()):
                    module_name = getattr(module, "__name__", "")
                    if module_name.startswith("repro") and \
                            getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ------------------------------------------------------------
    def count(self, name: str) -> int:
        idx = self._index.get(name)
        return self.calls[idx] if idx is not None else 0

    def seconds(self, name: str) -> float:
        idx = self._index.get(name)
        return self.inclusive[idx] if idx is not None else 0.0

    def span_count(self) -> int:
        return len(self.s_name)

    def write(self, path: str, title: str) -> None:
        """Spans as gzipped TSV: recorded spans, then per-tuple
        aggregates (``count`` and summed ``seconds`` per parent)."""
        names = self.names
        layer_of = self.layer_of
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# %s\n" % title)
            out.write("# span\tid\top\tparent\tlayer\tname\tstart\tend\n")
            for i in range(len(self.s_name)):
                idx = self.s_name[i]
                out.write("span\t%d\t%d\t%d\t%s\t%s\t%.9f\t%.9f\n" % (
                    i, self.s_op[i], self.s_parent[i], layer_of[idx],
                    names[idx], self.s_start[i], self.s_end[i]))
            out.write("# agg\tparent\tlayer\tname\tcount\tseconds\n")
            for (parent, idx), (count, secs) in sorted(
                    self.aggregates.items()):
                out.write("agg\t%d\t%s\t%s\t%d\t%.9f\n" % (
                    parent, layer_of[idx], names[idx], count, secs))


class _TracedIter:
    """Iterator proxy for a wrapped generator function.

    Each ``next`` is timed as a per-tuple call of the boundary.  For a
    gang (``interval``), the span from the first ``next`` to exhaustion,
    ``close`` or release is also recorded — the fork-to-drain time of
    the gang, which the slowest worker sets.
    """

    __slots__ = ("tracer", "idx", "gen", "field", "interval", "first",
                 "parent", "op", "done")

    def __init__(self, tracer: Tracer, idx: int, gen, field, interval):
        self.tracer = tracer
        self.idx = idx
        self.gen = gen
        self.field = field
        self.interval = interval
        self.first = None
        stack = tracer.stack
        self.parent = stack[-1][3] if stack else -1
        self.op = tracer.op
        self.done = False

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        stack = tracer.stack
        frame = [self.idx, _perf(), 0.0, -1]
        if self.first is None:
            self.first = frame[1]
            if self.interval:
                tracer.gangs += 1
            if self.field is not None:
                counts = tracer.counts
                setattr(counts, self.field,
                        getattr(counts, self.field) + 1)
        stack.append(frame)
        try:
            return next(self.gen)
        except StopIteration:
            self._finish()
            raise
        finally:
            if stack and stack[-1] is frame:
                stack.pop()
            tracer._leaf_done(self.idx, _perf() - frame[1], frame[2])

    def _finish(self) -> None:
        if self.done or self.first is None:
            self.done = True
            return
        self.done = True
        if self.interval:
            tracer = self.tracer
            end = _perf()
            tracer.gang_seconds += end - self.first
            tracer.s_name.append(self.idx)
            tracer.s_start.append(self.first)
            tracer.s_end.append(end)
            tracer.s_parent.append(self.parent)
            tracer.s_op.append(self.op)

    def close(self) -> None:
        try:
            self.gen.close()
        finally:
            self._finish()

    def __del__(self):
        # A consumer that stops early (LIMIT) drops the iterator
        # without closing it; the gang is drained at that point.
        self._finish()
