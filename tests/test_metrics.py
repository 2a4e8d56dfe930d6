"""The unified metrics registry (db/metrics.py) and the statement-level
collectors wired through it: per-statement deltas, pg_stat_statements-
style aggregation, the slow-query log, and the IFC audit trail.

These pin the observability contracts the rest of the suite (and the
benchmarks) rely on:

* one registry spans every counter family, and the module singletons
  (``rules.COUNTERS`` & co.) remain the live storage — aliases, not
  copies;
* ``Database.stats()`` reports *all* families (the pre-registry report
  silently omitted the rules and index counters);
* scope/merge round-trips exactly — the API a parallel executor's
  per-worker accumulation will use;
* audit events fire for the paper's three observable security actions:
  suppression under the Label Confinement Rule, declassifying-view
  invocation, and write-rule denial.
"""

from __future__ import annotations

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.core import rules
from repro.db import Database, indexes, metrics, physical, spill
from repro.errors import IFCViolation


def _fresh(**kwargs):
    authority = AuthorityState(idgen=SeededIdGenerator(777))
    db = Database(authority, seed=777, **kwargs)
    owner = authority.create_principal("owner")
    tag = authority.create_tag("secret", owner=owner.id)
    public = db.connect(IFCProcess(authority, owner.id))
    secret_proc = IFCProcess(authority, owner.id)
    secret_proc.add_secrecy(tag.id)
    secret = db.connect(secret_proc)
    return db, public, secret, tag, authority, owner


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_groups_alias_the_module_singletons():
    assert metrics.REGISTRY.group("labels") is rules.COUNTERS
    assert metrics.REGISTRY.group("index") is indexes.COUNTERS
    assert metrics.REGISTRY.group("exec") is physical.EXEC_COUNTERS
    assert metrics.REGISTRY.group("spill") is spill.SPILL_STATS


def test_registry_snapshot_covers_every_family_field():
    snap = metrics.REGISTRY.snapshot()
    assert set(snap) >= {"labels", "index", "exec", "spill", "stats"}
    assert set(snap["labels"]) == {"covers_calls", "strip_calls",
                                   "rows_suppressed"}
    assert set(snap["index"]) == {"lookups", "range_scans", "entries_pruned"}
    assert set(snap["exec"]) == {"columns_materialized", "rows_widened"}
    assert "bytes_spilled" in snap["spill"]


def test_registry_reset_zeroes_the_live_singletons():
    rules.COUNTERS.covers_calls += 5
    indexes.COUNTERS.lookups += 3
    metrics.REGISTRY.reset()
    assert rules.COUNTERS.covers_calls == 0
    assert indexes.COUNTERS.lookups == 0


def test_scope_captures_named_deltas_and_nothing_else():
    with metrics.REGISTRY.scope() as scope:
        rules.COUNTERS.covers_calls += 2
        physical.EXEC_COUNTERS.rows_widened += 7
    assert scope["labels"]["covers_calls"] == 2
    assert scope["exec"]["rows_widened"] == 7
    assert scope["index"]["lookups"] == 0
    assert scope.elapsed >= 0.0


def test_merge_adds_a_snapshot_into_the_live_counters():
    """The parallel-worker protocol: accumulate privately, snapshot,
    merge at the coordinator — merge(snapshot) after reset() restores
    every counter."""
    rules.COUNTERS.covers_calls = 4
    indexes.COUNTERS.range_scans = 2
    spill.SPILL_STATS.bytes_spilled = 999
    taken = metrics.REGISTRY.snapshot()
    metrics.REGISTRY.reset()
    metrics.REGISTRY.merge(taken)
    metrics.REGISTRY.merge(taken)          # a second worker, same work
    assert rules.COUNTERS.covers_calls == 8
    assert indexes.COUNTERS.range_scans == 4
    assert spill.SPILL_STATS.bytes_spilled == 1998
    assert metrics.REGISTRY.merge({"unknown": {"x": 1}}) is None  # ignored


def test_compiled_reader_tracks_registration_order():
    flat = metrics.REGISTRY.read()
    named = metrics.REGISTRY.snapshot()
    expected = [named[group][field]
                for group, field, _owner in metrics.REGISTRY.cells()]
    assert list(flat) == expected


# ---------------------------------------------------------------------------
# normalization + statement stats
# ---------------------------------------------------------------------------

def test_normalize_sql_fingerprints_literals():
    norm = metrics.normalize_sql
    assert norm("SELECT * FROM t WHERE id = 7") \
        == norm("SELECT * FROM t   WHERE id = 9")
    assert norm("INSERT INTO t VALUES (1, 'a')") \
        == norm("INSERT INTO t VALUES (?, ?)")
    # comments vanish with the lexer
    assert norm("SELECT 1 -- trailing\n") == norm("SELECT 1")
    # identifiers are *not* folded: different shapes stay distinct
    assert norm("SELECT a FROM t") != norm("SELECT b FROM t")


def test_statement_stats_aggregate_under_normalized_keys():
    db, public, _secret, _tag, _a, _o = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(6):
        public.execute("INSERT INTO t VALUES (?, ?)", (i, i * 2))
    public.execute("SELECT * FROM t WHERE v > 3")
    public.execute("SELECT * FROM t WHERE v > 777")
    statements = db.stats()["statements"]
    select_key = "SELECT * FROM t WHERE v > ?"
    assert statements[select_key]["calls"] == 2
    assert statements[select_key]["rows"] > 0
    assert statements["INSERT INTO t VALUES ( ? , ? )"]["calls"] == 6
    assert statements[select_key]["total_ms"] \
        >= statements[select_key]["max_ms"]
    # DDL and EXPLAIN are not tracked
    assert not any(key.startswith("CREATE") for key in statements)


def test_stats_report_includes_all_counter_families():
    """Satellite fix: the old report omitted rules/index counters."""
    db, public, secret, _tag, _a, _o = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    public.execute("INSERT INTO t VALUES (1, 10)")
    secret.execute("SELECT * FROM t")
    report = db.stats()
    for family in ("labels", "index", "exec", "spill", "stats",
                   "statements", "slow_queries"):
        assert family in report, family
    assert report["labels"]["covers_calls"] > 0
    assert report["statements_executed"] > 0


def test_last_statement_metrics_names_every_cell_group():
    # Pinned batched: columns_materialized counts the batched scan's
    # cells, whatever REPRO_BATCH_SIZE the suite runs under.
    db, public, _secret, _tag, _a, _o = _fresh(
        batch_size=physical.DEFAULT_BATCH_SIZE)
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    public.execute("INSERT INTO t VALUES (1, 10)")
    public.execute("SELECT * FROM t")
    delta = db.last_statement_metrics()
    assert delta["rows"] == 1
    assert delta["elapsed_ms"] >= 0.0
    assert delta["exec"]["columns_materialized"] == 2
    assert "buffer" in delta               # per-Database buffer cells


# ---------------------------------------------------------------------------
# slow-query log
# ---------------------------------------------------------------------------

def test_slow_query_log_records_threshold_crossers_with_counters():
    db, public, _secret, _tag, _a, _o = _fresh(
        slow_query_ms=1e-9, batch_size=physical.DEFAULT_BATCH_SIZE)
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    public.execute("INSERT INTO t VALUES (1, 10)")
    public.execute("SELECT * FROM t WHERE v = 10")
    entries = db.stats()["slow_queries"]
    assert entries, "every statement crosses a 1e-9ms threshold"
    last = entries[-1]
    assert last["statement"] == "SELECT * FROM t WHERE v = ?"
    assert last["elapsed_ms"] > 0.0
    assert last["counters"]["exec"]["columns_materialized"] == 2


def test_slow_query_log_disabled_by_default():
    db, public, _secret, _tag, _a, _o = _fresh()
    public.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    public.execute("INSERT INTO t VALUES (1)")
    assert db.stats()["slow_queries"] == []


# ---------------------------------------------------------------------------
# IFC audit trail
# ---------------------------------------------------------------------------

def test_audit_rows_suppressed_for_invisible_secret_rows():
    """A public reader scanning past secret rows triggers the Label
    Confinement Rule per suppressed tuple; with the audit log on, the
    engine records one event per statement with the count."""
    db, public, secret, _tag, _a, _o = _fresh(audit_log=64)
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(10):
        session = secret if i % 2 else public
        session.execute("INSERT INTO t VALUES (?, ?)", (i, i))
    assert len(public.execute("SELECT * FROM t").rows) == 5
    events = db.audit.of_kind("rows_suppressed")
    assert events
    assert events[-1]["statement"] == "SELECT * FROM t"
    assert events[-1]["count"] == 5


def test_audit_declassify_view_records_view_and_tags():
    authority = AuthorityState(idgen=SeededIdGenerator(31))
    db = Database(authority, seed=31, audit_log=64)
    clinic = authority.create_principal("clinic")
    tag = authority.create_tag("patient", owner=clinic.id)
    admin = db.connect(IFCProcess(authority, clinic.id))
    admin.execute("CREATE TABLE p (id INT PRIMARY KEY, v INT)")
    proc = IFCProcess(authority, clinic.id)
    proc.add_secrecy(tag.id)
    db.connect(proc).execute("INSERT INTO p VALUES (1, 10)")
    admin.execute(
        "CREATE VIEW pv AS SELECT v FROM p WITH DECLASSIFYING (patient)")
    reader = db.connect(IFCProcess(authority, clinic.id))
    assert len(reader.execute("SELECT * FROM pv").rows) == 1
    events = db.audit.of_kind("declassify_view")
    assert events
    assert events[-1]["view"] == "pv"
    assert tag.id in events[-1]["tags"]


def test_audit_write_denied_records_the_violation():
    """The section 5.1 covert-channel transaction: write publicly, read
    secretly, try to commit — the commit-label rule denies it, and the
    denial lands in the audit trail."""
    db, public, _secret, tag, authority, _owner = _fresh(audit_log=64)
    public.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    mallory = authority.create_principal("mallory")
    proc = IFCProcess(authority, mallory.id)
    session = db.connect(proc)
    session.execute("BEGIN")
    session.execute("INSERT INTO t VALUES (1, 10)")
    proc.add_secrecy(tag.id)               # raise label above the write
    with pytest.raises(IFCViolation):
        session.execute("COMMIT")
    events = db.audit.of_kind("write_denied")
    assert events
    assert events[-1]["statement"] == "COMMIT"
    assert "error" in events[-1]


def test_audit_off_by_default_and_capacity_bounded():
    db, public, _secret, _tag, _a, _o = _fresh()
    assert db.audit is None
    db2, public2, secret2, _t, _a2, _o2 = _fresh(audit_log=2)
    public2.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    for i in range(5):
        secret2.execute("INSERT INTO t VALUES (?)", (i,))
        public2.execute("SELECT * FROM t")
    assert len(db2.audit.events) == 2          # ring buffer capacity
    assert db2.audit.total == 5                # but every event counted


# ---------------------------------------------------------------------------
# concurrency: per-statement brackets must not cross-contaminate
# ---------------------------------------------------------------------------

def test_statement_metrics_isolated_across_threads():
    """Regression: the per-statement bracket reads the process-wide
    counter singletons — before counters became thread-aware, two
    sessions executing concurrently attributed each other's work to
    the wrong statement (wrong ``last_statement_metrics``, wrong
    StatementStats rows, wrong slow-query counters).

    Two threads run barrier-synced statements with *different*,
    exactly known per-statement covers counts (different batch sizes
    → different chunk counts → different per-batch label-memo probes).
    Every single delta must be exact — any bleed from the other
    thread's concurrent statement shows up as a wrong count.
    """
    import threading

    iterations = 25
    barrier = threading.Barrier(2)
    failures: list = []

    def worker(seed, rows, batch_size, expected_covers):
        try:
            authority = AuthorityState(idgen=SeededIdGenerator(seed))
            db = Database(authority, seed=seed, batch_size=batch_size,
                          slow_query_ms=1e-9)
            owner = authority.create_principal("o%d" % seed)
            session = db.connect(IFCProcess(authority, owner.id))
            session.execute(
                "CREATE TABLE t (id INT PRIMARY KEY, x INT)")
            for i in range(rows):
                session.execute("INSERT INTO t VALUES (?, ?)", (i, i))
            for _ in range(iterations):
                barrier.wait()
                session.execute("SELECT x FROM t")
                delta = db.last_statement_metrics()
                assert delta["rows"] == rows
                # One covers per (batch, distinct label): all rows are
                # public, so exactly one memo probe per chunk.
                assert delta["labels"]["covers_calls"] \
                    == expected_covers, delta["labels"]
                assert delta["labels"]["rows_suppressed"] == 0
            # The slow-query log (threshold 1e-9: every statement
            # records) captured the same exact deltas.
            selects = [e for e in db.stats()["slow_queries"]
                       if e["statement"] == "SELECT x FROM t"]
            assert len(selects) == iterations
            for entry in selects:
                assert entry["counters"]["labels"]["covers_calls"] \
                    == expected_covers
            agg = db.stats()["statements"]["SELECT x FROM t"]
            assert agg["calls"] == iterations
            assert agg["rows"] == rows * iterations
        except BaseException as exc:      # noqa: BLE001 — re-raised
            failures.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(9101, 96, 32, 3)),
        threading.Thread(target=worker, args=(9102, 208, 16, 13)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    if failures:
        raise failures[0]
