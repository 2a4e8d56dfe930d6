"""Parallel execution (db/parallel.py + the spilled-partition gangs).

The engine has one parallel shape: a spilled hash join or hash
aggregate fans its key-disjoint grace partitions out to a forked gang.
The contract under test: turning workers on may only change *where*
that work runs, never what a statement returns, raises, or counts —

* a spilled join / aggregate returns exactly the serial rows **in the
  serial order** (contiguous partition ranges drained in worker
  order), with byte-identical spill counters merged back from the
  workers;
* a worker exception re-raises in the coordinator with the same type
  the serial execution would raise;
* without ``fork`` the same plan runs serially and returns the same
  rows;
* statements whose joins and aggregates fit ``work_mem`` never fork,
  and EXPLAIN shows the pool a join or aggregate would use
  (``workers=N``).
"""

from __future__ import annotations

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database
from repro.db.parallel import FORK_AVAILABLE, split_ranges

pytestmark = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="no fork on this platform")

N_ROWS = 5000


def _stack(workers, *, work_mem=0, batch_size=None, rows=N_ROWS,
           secret_every=0):
    authority = AuthorityState(idgen=SeededIdGenerator(41))
    db = Database(authority, seed=41, workers=workers,
                  work_mem=work_mem, batch_size=batch_size)
    owner = authority.create_principal("owner")
    tag = authority.create_tag("secret", owner=owner.id)
    writer_proc = IFCProcess(authority, owner.id)
    writer = db.connect(writer_proc)
    writer.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, g INT, x INT, note TEXT)")
    secret_writer_proc = IFCProcess(authority, owner.id)
    secret_writer_proc.add_secrecy(tag.id)
    secret_writer = db.connect(secret_writer_proc)
    for i in range(rows):
        target = (secret_writer
                  if secret_every and i % secret_every == 0 else writer)
        target.execute("INSERT INTO t VALUES (?, ?, ?, ?)",
                       (i, i % 23, i * 3, "n%d" % i))
    writer.execute("ANALYZE")
    return db, writer, tag


def _rows(session, sql):
    return [tuple(r) for r in session.execute(sql).rows]


# ---------------------------------------------------------------------------
# range splitting
# ---------------------------------------------------------------------------

def test_split_ranges_tile_contiguously():
    for start, stop, workers in ((0, 10, 3), (1, 8, 4), (0, 2, 8),
                                 (3, 3, 2), (0, 100, 7)):
        ranges = split_ranges(start, stop, workers)
        # Tiles [start, stop) exactly: contiguous, ordered, no overlap.
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == list(range(start, stop))
        assert len(ranges) <= max(workers, 0)
        assert all(lo < hi for lo, hi in ranges)


# ---------------------------------------------------------------------------
# planner + EXPLAIN
# ---------------------------------------------------------------------------

def _plan_lines(session, sql):
    return [r[0] for r in session.execute("EXPLAIN " + sql)]


def test_naive_plans_stay_serial():
    authority = AuthorityState(idgen=SeededIdGenerator(41))
    db = Database(authority, seed=41, workers=4, naive_plans=True)
    assert db.planner.workers == 0


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    authority = AuthorityState(idgen=SeededIdGenerator(41))
    db = Database(authority, seed=41)
    assert db.workers == 3
    assert db.planner.workers == 3


# ---------------------------------------------------------------------------
# spilled join / aggregate partition gangs
# ---------------------------------------------------------------------------

JOIN_SQL = ("SELECT a.id, b.id FROM t a JOIN t b ON a.g = b.g "
            "WHERE a.id < 40")
AGG_SQL = "SELECT g, COUNT(*), MIN(x), MAX(note) FROM t GROUP BY g"


def test_parallel_spilled_join_matches_serial(gang_log):
    db0, s0, _ = _stack(0, work_mem=4096, rows=900)
    db2, s2, _ = _stack(2, work_mem=4096, rows=900)
    serial = _rows(s0, JOIN_SQL)
    assert gang_log == []
    parallel = _rows(s2, JOIN_SQL)
    assert gang_log == [[2, None]]                # really forked
    assert db0.last_statement_metrics()["spill"]["spills"] >= 1
    assert serial == parallel                     # rows AND order
    # Byte-identical spill work: same partitions, same spooled rows.
    assert db2.last_statement_metrics()["spill"] \
        == db0.last_statement_metrics()["spill"]


def test_parallel_spilled_aggregate_matches_serial(gang_log):
    db0, s0, _ = _stack(0, work_mem=1024, rows=900)
    db2, s2, _ = _stack(2, work_mem=1024, rows=900)
    serial = _rows(s0, AGG_SQL)
    assert gang_log == []
    parallel = _rows(s2, AGG_SQL)
    assert gang_log == [[2, None]]
    assert db0.last_statement_metrics()["spill"]["agg_spills"] >= 1
    assert serial == parallel
    assert db2.last_statement_metrics()["spill"] \
        == db0.last_statement_metrics()["spill"]


def test_explain_renders_join_and_aggregate_workers():
    _db, session, _ = _stack(2, work_mem=4096, rows=900)
    join_lines = _plan_lines(session, JOIN_SQL)
    join = next(line for line in join_lines if "HashJoin" in line)
    assert "workers=2" in join
    agg_lines = _plan_lines(session, AGG_SQL)
    agg = next(line for line in agg_lines if "Aggregate" in line)
    assert "workers=2" in agg


def test_small_tables_stay_serial(gang_log):
    """Fan-out only pays when a join or aggregate overflows its
    budget: with ``work_mem`` unbounded, scans, joins and aggregates
    all run in the calling process."""
    _db, session, _ = _stack(2, rows=900)
    for sql in ("SELECT id, x FROM t WHERE g = 5", JOIN_SQL, AGG_SQL):
        session.execute(sql)
    assert gang_log == []


def test_worker_error_reraises_with_serial_type(gang_log):
    """A join residual that fails inside a spilled-partition worker
    fails the statement with the serial exception type."""
    _db0, s0, _ = _stack(0, work_mem=1024, rows=900)
    _db2, s2, _ = _stack(2, work_mem=1024, rows=900)
    for residual in ("100 / (a.x - b.x) > 0", "a.x < b.note"):
        sql = ("SELECT a.id, b.id FROM t a JOIN t b "
               "ON a.g = b.g AND %s WHERE a.id < 40" % residual)
        with pytest.raises(Exception) as serial_exc:
            s0.execute(sql)
        del gang_log[:]
        with pytest.raises(Exception) as parallel_exc:
            s2.execute(sql)
        assert type(parallel_exc.value) is type(serial_exc.value), sql
        # The error crossed the pipe from a forked worker.
        assert gang_log == [[2, type(serial_exc.value)]], sql


def test_spilled_join_without_fork_returns_serial_rows(monkeypatch,
                                                       gang_log):
    """With the gang unavailable at run time a spilled join's
    partition phase runs serially — same rows, same order."""
    from repro.db import parallel
    _db0, s0, _ = _stack(0, work_mem=4096, rows=900)
    _db2, s2, _ = _stack(2, work_mem=4096, rows=900)
    expected = _rows(s0, JOIN_SQL)
    monkeypatch.setattr(parallel, "FORK_AVAILABLE", False)
    assert _rows(s2, JOIN_SQL) == expected
    assert gang_log == []
