"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` (which sets the hash seed, the import path and a
clean environment); prints human-readable lines, an audit record, and
as its last line the result JSON.  Exits 1 without metrics when an
output check or an operation fails.

* ``--trace 0`` sets up ``SETUPS`` times (``setup_s`` is their median),
  runs the timed window on the last set-up, checks every output and
  reports the end-to-end metrics.
* ``--trace 1`` runs the window with the span tracer installed, then a
  fresh set-up untraced for exactly the same operations; counts come
  from the untraced run, times from the traced one, and the traced
  per-tuple call counts must equal the untraced registry counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.db import metrics as engine_metrics
from repro.db.transactions import SNAPSHOT

from . import checks
from .tracer import LAYERS, Tracer
from .workloads import WORKLOADS, Workload, cpu_count

SETUPS = 3
#: Share of ``--seconds`` given to the traced window; the untraced
#: replay of the same operations takes the rest or less.
TRACED_SHARE = 0.5
PERCENTILES = (0.999, 0.99, 0.9, 0.75, 0.5)

END_TO_END = (("setup_s", "s"), ("ops_per_s", "op/s"), ("p50_ms", "ms"),
              ("tail_ms", "ms"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# the timed window
# ---------------------------------------------------------------------------

class Window:
    """Results of one closed-loop window."""

    def __init__(self):
        self.latencies: List[float] = []
        self.records: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.seconds = 0.0

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.seconds


def run_window(workload: Workload, seconds: float, ops: int,
               tracer: Tracer = None) -> Window:
    """Closed loop: each operation starts when the previous returned.
    Ends after ``ops`` operations if given, else after ``seconds``."""
    window = Window()
    perf = time.perf_counter
    gc.collect()
    start = perf()
    deadline = start + seconds
    i = 0
    while True:
        op = workload.next_op(i)
        if tracer is not None:
            tracer.begin_op()
        t0 = perf()
        try:
            record = workload.run_op(op)
        except Exception as error:      # counted, reported, run fails
            record = None
            window.failed += 1
            if len(window.errors) < 5:
                window.errors.append("%s: %s" % (type(error).__name__,
                                                 error))
        t1 = perf()
        if tracer is not None:
            tracer.end_op()
        window.latencies.append(t1 - t0)
        if record is not None:
            workload.keep(window.records, record)
        i += 1
        if (ops and i >= ops) or (not ops and t1 >= deadline):
            break
    window.seconds = perf() - start
    window.attempted = i
    return window


def tail(latencies: List[float], wanted: float) -> Tuple[float, float, int]:
    """(percentile, value, samples beyond it): ``wanted`` if it has at
    least ten samples beyond it, else the highest of PERCENTILES that
    has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (wanted,) + tuple(q for q in PERCENTILES if q < wanted):
        index = min(n - 1, int(p * n))
        beyond = n - index - 1
        if beyond >= 10 or p == 0.5:
            return p, ordered[index], beyond
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# audit record
# ---------------------------------------------------------------------------

def source_identity(root: str) -> Dict[str, str]:
    """Git commit when the checkout is a repository, and always a digest
    of the engine sources that were measured."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def audit_record(args, workload: Workload, root: str) -> Dict[str, object]:
    return {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": args.ops, "scale": args.scale,
        "cpus": cpu_count(), "python": platform.python_version(),
        **source_identity(root),
        "clients": 1, "loop": "closed", "isolation": SNAPSHOT,
        "sizes": workload.sizes(), "settings": workload.settings(),
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def storage_shape(workload: Workload) -> Tuple[float, float]:
    """(dead_version_ratio, versions_per_live_row) over every table of
    the workload's main database, at the end of the run."""
    db = workload.databases()[0]
    manager = db.txn_manager
    txn = manager.begin()
    versions = live = 0
    try:
        for table in db.catalog.tables.values():
            for version in table.all_versions():
                versions += 1
                live += manager.visible(version, txn)
    finally:
        manager.abort(txn)
    return _ratio(versions - live, versions), _ratio(versions, live)


def layer_metrics(workload: Workload, traced: Window, tracer: Tracer,
                  calls: Dict[str, int], untraced: Window,
                  counts: Dict[str, Dict[str, int]],
                  buffer_stats: Dict[str, int],
                  window_stats: Dict[str, float],
                  check_facts: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics: counts from the untraced run's registry,
    times from the traced run's spans."""
    ops = untraced.attempted
    ms = 1000.0 / ops
    layer = tracer.layer_self
    labels, index, exe = counts["labels"], counts["index"], counts["exec"]
    spill, wal = counts["spill"], counts["wal"]
    prepares = sum(tracer.count("Database.prepare_" + kind)
                   for kind in ("select", "dml", "insert"))
    plans = (tracer.count("Planner.plan_select")
             + tracer.count("Planner.plan_dml")
             + tracer.count("Database._plan_insert"))
    parses = tracer.count("Database.parse")
    commits = wal["commits"]
    dead_ratio, versions_per_live = storage_shape(workload)
    user_bytes = sum(len(pickle.dumps(values, pickle.HIGHEST_PROTOCOL))
                     for values in tracer.user_bytes_values)
    recovery_s = check_facts.get("recovery_s", 0.0)
    out = {
        "platform.self_ms_per_op": layer["platform"] * ms,
        "sql.parse_ms_per_op": layer["sql"] * ms,
        "sql.parse_cache_hit_ratio":
            1.0 - _ratio(tracer.count("engine.parse_statement"), parses)
            if parses else 0.0,
        "db.planner.plan_ms_per_op": layer["db.planner"] * ms,
        "db.planner.plan_cache_hit_ratio":
            1.0 - _ratio(plans, prepares) if prepares else 0.0,
        "db.stats.drift_refreshes_per_1k_ops":
            counts["stats"]["drift_refreshes"] * 1000.0 / ops,
        "db.physical.execute_self_ms_per_op": layer["db.physical"] * ms,
        "db.physical.rows_examined_per_row_returned":
            _ratio(calls["visible"], tracer.rows_returned),
        "exec.columns_materialized_per_op":
            exe["columns_materialized"] / ops,
        "exec.rows_widened_per_op": exe["rows_widened"] / ops,
        "core.rules.covers_calls_per_op": labels["covers_calls"] / ops,
        "core.rules.strip_calls_per_op": labels["strip_calls"] / ops,
        "core.rules.rows_suppressed_per_op": labels["rows_suppressed"] / ops,
        "core.rules.covers_ms_per_op": tracer.seconds("rules.covers") * ms,
        "db.transactions.visible_calls_per_op": calls["visible"] / ops,
        "db.transactions.visible_ms_per_op":
            tracer.seconds("TransactionManager.visible") * ms,
        "db.transactions.visible_true_ratio":
            _ratio(calls["visible_true"], calls["visible"]),
        "db.transactions.commit_ms_per_op":
            (tracer.seconds("Session.commit") - layer["db.wal"]) * ms,
        "db.indexes.lookups_per_op": index["lookups"] / ops,
        "db.indexes.range_scans_per_op": index["range_scans"] / ops,
        "db.indexes.tids_per_lookup":
            _ratio(calls["lookup_tids"], calls["lookups"]),
        "db.indexes.lookup_ms_per_op":
            (tracer.seconds("HashIndex.lookup")
             + tracer.seconds("OrderedIndex.lookup")) * ms,
        "db.storage.dead_version_ratio": dead_ratio,
        "db.storage.versions_per_live_row": versions_per_live,
        "db.storage.vacuum_ms_per_1k_ops":
            window_stats.get("vacuum_seconds", 0.0) * 1e6 / ops,
        "db.storage.versions_reclaimed_per_1k_ops":
            window_stats.get("versions_reclaimed", 0) * 1000.0 / ops,
        "db.pages.hit_rate":
            _ratio(buffer_stats["hits"],
                   buffer_stats["hits"] + buffer_stats["misses"]),
        "db.pages.misses_per_op": buffer_stats["misses"] / ops,
        "db.pages.evictions_per_op": buffer_stats["evictions"] / ops,
        "db.spill.bytes_per_op": spill["bytes_spilled"] / ops,
        "db.spill.partitions_per_op":
            (spill["partitions_created"] + spill["agg_partitions"]
             + spill["sort_runs"]) / ops,
        "db.spill.repartitions_per_op": spill["repartitions"] / ops,
        "db.spill.io_ms_per_op":
            (tracer.seconds("SpillFile.write")
             + tracer.seconds("SpillFile.records")) * ms,
        "db.parallel.gangs_per_op": tracer.gangs / ops,
        "db.parallel.gang_ms_per_op": tracer.gang_seconds * ms,
        "db.wal.fsyncs_per_commit": _ratio(wal["fsyncs"], commits),
        "db.wal.bytes_per_commit": _ratio(wal["bytes"], commits),
        "db.wal.bytes_per_user_byte": _ratio(wal["bytes"], user_bytes),
        "db.wal.log_commit_ms_per_commit":
            _ratio(tracer.seconds("WriteAheadLog.log_commit") * 1000.0,
                   commits),
        "db.wal.replay_txn_per_s":
            _ratio(check_facts.get("replayed_transactions", 0), recovery_s),
        "notpm": window_stats.get("new_orders", 0) * 60.0
        / untraced.seconds,
        "recovery_s": recovery_s,
        "trace.overhead_ratio": untraced.ops_per_s / traced.ops_per_s,
        "trace.traced_ops_per_s": traced.ops_per_s,
        "trace.untraced_ops_per_s": untraced.ops_per_s,
        "trace.spans_per_op": tracer.span_count() / ops,
    }
    # Self time of every other layer (sql, db.planner and db.physical
    # are reported above under their own names).
    for name in LAYERS:
        if name not in ("sql", "db.planner", "db.physical"):
            out["%s.self_ms_per_op" % name] = layer[name] * ms
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "db.storage.versions_per_live_row":
        return "version/row"
    if name.endswith("_ms_per_op") or name.endswith("ms_per_commit"):
        return "ms/op" if name.endswith("_per_op") else "ms/commit"
    if name.endswith("_ratio") or name.endswith("hit_rate"):
        return "ratio"
    if name.endswith("_per_1k_ops"):
        return "ms/1k-op" if "_ms_" in name else "count/1k-op"
    if name == "db.spill.bytes_per_op":
        return "B/op"
    if name == "db.wal.bytes_per_commit":
        return "B/commit"
    if name == "db.wal.bytes_per_user_byte":
        return "B/B"
    if name.endswith("_per_commit"):
        return "count/commit"
    if name.endswith("_per_s"):
        return "1/s" if "replay" in name else "op/s"
    if name == "notpm":
        return "new-order/min"
    if name == "recovery_s":
        return "s"
    if name.endswith("_per_lookup"):
        return "tid/lookup"
    if name.endswith("_per_row_returned"):
        return "call/row"
    return "count/op"


def count_mismatches(tracer: Tracer, calls: Dict[str, int],
                     traced_counts: dict,
                     untraced_counts: dict, buffer_accesses: int,
                     traced_buffer_accesses: int) -> List[str]:
    """Traced per-tuple call counts against the registry: the traced
    run's own registry and the untraced replay's must both agree."""
    pairs = (("covers", "covers", "labels", "covers_calls"),
             ("strip", "strip", "labels", "strip_calls"),
             ("index lookups", "lookups", "index", "lookups"),
             ("range scans", "range_scans", "index", "range_scans"),
             ("spill writes", "spill_writes", "spill", "rows_spilled"))
    problems = []
    for what, name, group, field in pairs:
        traced = calls[name]
        for run, counts in (("traced", traced_counts),
                            ("untraced", untraced_counts)):
            if traced != counts[group][field]:
                problems.append("%s: %d traced calls, %s registry %s.%s=%d"
                                % (what, traced, run, group, field,
                                   counts[group][field]))
    for run, accesses in (("traced", traced_buffer_accesses),
                          ("untraced", buffer_accesses)):
        if tracer.touches != accesses:
            problems.append("page touches: %d traced, %s buffer cache "
                            "counted %d" % (tracer.touches, run, accesses))
    return problems


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def fresh(args, workdir: str,
          opened: List[Workload]) -> Tuple[Workload, float]:
    """A workload, set up; returns it with its set-up time in seconds."""
    workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
    start = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - start
    opened.append(workload)
    return workload, seconds


def retire(workload: Workload, opened: List[Workload]) -> None:
    """Close a workload and let the collector take it back."""
    opened.remove(workload)
    workload.close()
    gc.unfreeze()
    gc.collect()


def start_window(workload: Workload) -> None:
    """Zero the process-wide counters and the cache statistics, so the
    window's counts are its own."""
    engine_metrics.REGISTRY.reset()
    for db in workload.databases():
        db.buffer_cache.stats.reset()
    gc.collect()
    gc.freeze()


def end_to_end(args, workdir: str, lines: List[str],
               opened: List[Workload]):
    setups = []
    for _ in range(SETUPS):
        if opened:
            retire(opened[-1], opened)
        workload, seconds = fresh(args, workdir, opened)
        setups.append(seconds)
    start_window(workload)
    window = run_window(workload, args.seconds, args.ops)
    rss = peak_rss_mb()
    p, tail_s, beyond = tail(window.latencies, workload.tail_percentile)
    lines.append("tail_ms is p%g: %d of %d samples lie beyond it"
                 % (100 * p, beyond, len(window.latencies)))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": window.ops_per_s,
        "p50_ms": statistics.median(window.latencies) * 1000.0,
        "tail_ms": tail_s * 1000.0,
        "peak_rss_mb": rss,
    }
    extra = {"setup_runs_s": setups, "tail_percentile": p,
             "tail_samples_beyond": beyond,
             "samples": len(window.latencies),
             "window_s": window.seconds, **workload.window_stats()}
    facts = workload.check(window.records)
    return workload, [window], metrics, extra, dict(END_TO_END), facts


def per_layer(args, workdir: str, lines: List[str],
              opened: List[Workload]):
    tracer = Tracer()
    traced_wl, _seconds = fresh(args, workdir, opened)
    start_window(traced_wl)
    tracer.install()
    try:
        traced = run_window(traced_wl, args.seconds * TRACED_SHARE,
                            args.ops, tracer)
    finally:
        tracer.uninstall()
    traced_counts = engine_metrics.REGISTRY.snapshot()
    traced_calls = traced_counts[Tracer.GROUP]
    traced_buffer = traced_wl.databases()[0].buffer_cache.stats.accesses
    traced_facts = traced_wl.check(traced.records)
    retire(traced_wl, opened)
    del traced_wl
    trace_path = os.path.join(workdir, "trace-%s.tsv.gz" % args.workload)
    tracer.write(trace_path, "workload %s seed %d" % (args.workload,
                                                      args.seed))
    lines.append("spans written to %s" % os.path.relpath(trace_path))

    workload, _seconds = fresh(args, workdir, opened)
    start_window(workload)
    untraced = run_window(workload, 0.0, traced.attempted)
    counts = engine_metrics.REGISTRY.snapshot()
    cache = workload.databases()[0].buffer_cache.stats
    buffer_stats = {"hits": cache.hits, "misses": cache.misses,
                    "evictions": cache.evictions}
    window_stats = workload.window_stats()
    facts = workload.check(untraced.records)
    problems = count_mismatches(
        tracer, traced_calls, traced_counts, counts,
        buffer_stats["hits"] + buffer_stats["misses"], traced_buffer)
    metrics = layer_metrics(workload, traced, tracer, traced_calls,
                            untraced, counts, buffer_stats, window_stats,
                            facts)
    lines.append("tracing overhead: %.3fx (untraced %.1f op/s, traced "
                 "%.1f op/s over the same %d operations)"
                 % (metrics["trace.overhead_ratio"], untraced.ops_per_s,
                    traced.ops_per_s, untraced.attempted))
    extra = {"traced_check": traced_facts, "window_s": untraced.seconds,
             **window_stats}
    if problems:
        raise checks.CheckFailed("; ".join(problems))
    units = {name: layer_unit(name) for name in metrics}
    return workload, [traced, untraced], metrics, extra, units, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "small"),
                        default="full")
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    workdir = os.path.join(args.root, ".perfbench")
    lines: List[str] = []
    run = per_layer if args.trace else end_to_end
    windows: List[Window] = []
    opened: List[Workload] = []
    os.makedirs(workdir, exist_ok=True)
    try:
        workload, windows, metrics, extra, units, facts = run(
            args, workdir, lines, opened)
        audit = audit_record(args, workload, args.root)
    except checks.CheckFailed as failure:
        print("CHECK FAILED: %s" % failure)
        print(json.dumps({"correct": False, "attempted": max(
            1, sum(w.attempted for w in windows)), "failed": sum(
            w.failed for w in windows), "metrics": {}}))
        return 1
    finally:
        for leftover in opened:
            leftover.close()
    attempted = windows[-1].attempted
    failed = sum(w.failed for w in windows)
    if failed:
        # A failed operation is a wrong output too: no metrics.
        for error in (e for w in windows for e in w.errors):
            print("FAILED OPERATION: %s" % error)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    audit.update({"check": facts, **extra})
    for line in lines:
        print(line)
    for name in sorted(metrics):
        print("%-48s %16.6f %s" % (name, metrics[name], units[name]))
    print("%-48s %16d count" % ("ops_attempted", attempted))
    print("%-48s %16d count" % ("ops_failed", failed))
    print("audit " + json.dumps(audit, sort_keys=True, default=str))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
