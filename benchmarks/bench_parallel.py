"""Parallel execution: per-partition fan-out of a spilled hash join.

Serial (``workers=0``) versus gang execution on the engine's one
parallel shape: a **grace-spilled hash join** under a tight
``work_mem``, whose key-disjoint spilled partitions are re-joined by
the gang, one contiguous partition range per worker.

The gang must return exactly the serial rows in the serial order, and
the counters merged back from the workers must equal the serial counts
(the zero-slack merge protocol) — those assertions run at smoke scale
too.  Serial and gang runs are interleaved over ``TRIALS`` repetitions
and the speedup is the ratio of the median times.  The **speedup
gate** (>= 1.5x with >= 2 cores) is measured-mode only: smoke row
counts are IPC-dominated by design.

``BENCH_parallel.json`` records the per-trial timings, their medians
and interquartile ranges, the speedup, and the statement counter
deltas at the repo root; CI uploads it with the other BENCH_*
artifacts.
"""

import os
import platform
import statistics
import time

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.core.labels import EMPTY_LABEL
from repro.db import Database
from repro.db.parallel import FORK_AVAILABLE

from .common import SMOKE, report, smoke, write_bench_json
from repro.bench import ReportTable, relative

FACT_ROWS = smoke(60_000, 3_000)
PROBE_ROWS = smoke(60, 20)
JOIN_WORK_MEM = smoke(256 * 1024, 8 * 1024)
TRIALS = smoke(5, 1)
# At least 2 so the gang genuinely forks even on a single-core box
# (time-sliced — no speedup, but the fan-out, codec, and counter
# merge all run for real); the speedup gate below only fires with
# >= 2 actual cores.
WORKERS = max(2, min(4, os.cpu_count() or 1))

JOIN_SQL = ("SELECT p.id, f.k FROM probes p "
            "JOIN fact f ON f.grp = p.grp")

RESULTS = {"workers": WORKERS, "cpus": os.cpu_count(),
           "python": platform.python_version(), "trials": TRIALS,
           "fork_available": FORK_AVAILABLE}


def _connect(*, workers, work_mem=0):
    authority = AuthorityState(idgen=SeededIdGenerator(91))
    db = Database(authority, seed=91, batch_size=1024,
                  work_mem=work_mem, workers=workers)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("b").id))
    return db, session


def _bulk_load(db, table_name, rows):
    table = db.catalog.get_table(table_name)
    txn = db.txn_manager.begin()
    for values in rows:
        table.append(tuple(values), EMPTY_LABEL, EMPTY_LABEL, txn.xid)
    db.txn_manager.commit(txn)


def _join_stack(workers):
    db, session = _connect(workers=workers, work_mem=JOIN_WORK_MEM)
    session.execute("CREATE TABLE fact (k INT PRIMARY KEY, grp INT, "
                    "pad TEXT)")
    session.execute("CREATE TABLE probes (id INT PRIMARY KEY, grp INT)")
    _bulk_load(db, "fact", ((i, i % 3000, "pad-%05d" % (i % 1500))
                            for i in range(FACT_ROWS)))
    _bulk_load(db, "probes", ((i, i * 13 % 3500)
                              for i in range(PROBE_ROWS)))
    session.execute("ANALYZE")
    return db, session


def _measure(db, session, sql):
    """Time one execution and capture its per-statement counter
    deltas."""
    start = time.perf_counter()
    rows = [tuple(r) for r in session.execute(sql).rows]
    elapsed = time.perf_counter() - start
    return rows, elapsed, db.last_statement_metrics()


def _iqr(samples):
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def test_parallel_spilled_join():
    serial_db, serial_session = _join_stack(0)
    gang_db, gang_session = _join_stack(WORKERS)
    for session in (serial_session, gang_session):
        session.execute(JOIN_SQL)                  # warm the plan cache
    serial_times, gang_times = [], []
    for _ in range(TRIALS):
        serial_rows, serial_s, serial_delta = _measure(
            serial_db, serial_session, JOIN_SQL)
        gang_rows, gang_s, gang_delta = _measure(
            gang_db, gang_session, JOIN_SQL)
        # Correctness gates run in smoke mode too: identical rows in
        # identical order, and zero-slack counters after the merge.
        assert gang_rows == serial_rows
        assert gang_delta["labels"] == serial_delta["labels"]
        assert gang_delta["spill"] == serial_delta["spill"]
        assert serial_delta["spill"]["spills"] >= 1
        serial_times.append(serial_s)
        gang_times.append(gang_s)
    if WORKERS >= 2 and FORK_AVAILABLE:
        plan = [r[0] for r in gang_session.execute("EXPLAIN " + JOIN_SQL)]
        line = next(l for l in plan if "HashJoin" in l)
        assert "workers=%d" % WORKERS in line, line

    serial_med = statistics.median(serial_times)
    gang_med = statistics.median(gang_times)
    speedup = serial_med / gang_med if gang_med else 0.0
    RESULTS["spilled_join"] = {
        "rows_out": len(serial_rows),
        "serial_seconds": serial_times,
        "parallel_seconds": gang_times,
        "serial_median_s": serial_med,
        "parallel_median_s": gang_med,
        "serial_iqr_s": _iqr(serial_times),
        "parallel_iqr_s": _iqr(gang_times),
        "speedup": speedup,
        "serial_counters": serial_delta,
        "parallel_counters": gang_delta,
    }

    table = ReportTable(
        "Parallel execution — %d workers on %s CPUs, %d-row spilled "
        "join build, median of %d interleaved trials"
        % (WORKERS, os.cpu_count(), FACT_ROWS, TRIALS),
        ["shape", "rows out", "serial s (IQR)", "parallel s (IQR)",
         "speedup"])
    entry = RESULTS["spilled_join"]
    table.add("spilled_join", entry["rows_out"],
              "%.4f (%.4f)" % (serial_med, entry["serial_iqr_s"]),
              "%.4f (%.4f)" % (gang_med, entry["parallel_iqr_s"]),
              "%.2fx (%s)" % (speedup, relative(gang_med, serial_med)))
    report(table)

    # The acceptance floor: with >= 2 real cores the fan-out must clear
    # 1.5x.  Smoke scale is IPC-dominated, so the gate is
    # measured-mode only.
    if not SMOKE and FORK_AVAILABLE and WORKERS >= 2 \
            and (os.cpu_count() or 1) >= 2:
        assert speedup >= 1.5, RESULTS
    write_bench_json("parallel", RESULTS)
