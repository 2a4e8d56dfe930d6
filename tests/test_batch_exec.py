"""Batch-at-a-time executor: amortizations and batch-boundary safety.

The vectorized executor (``Plan.batches`` / :class:`RowBatch` in
:mod:`repro.db.physical`) must be *invisible* in results — only the loop
shape and the per-tuple bookkeeping change.  These tests pin:

* result parity between batched and row-at-a-time execution across the
  operator zoo, at batch sizes that force awkward boundaries;
* the label-run amortization: one ``covers`` per distinct label per
  batch (counted via per-statement metrics deltas,
  ``Database.last_statement_metrics``), including the per-row
  fallback under declassifying views;
* the MVCC whole-batch fast path, and its mandatory fallback when a
  concurrent transaction is in flight or a version was deleted;
* page-run buffer accounting (``touch_run``) producing counters
  identical to per-version ``touch``;
* the batch expression compiler's AND short-circuit contract.
"""

from __future__ import annotations

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database
from repro.db import expressions as ex
from repro.db import physical
from repro.db.pages import BufferCache


def _stack(batch_size, **db_kwargs):
    """A database plus a secret-label session over a populated table."""
    authority = AuthorityState(idgen=SeededIdGenerator(4242))
    db = Database(authority, seed=4242, batch_size=batch_size, **db_kwargs)
    owner = authority.create_principal("owner")
    tag = authority.create_tag("batch-secret", owner=owner.id)
    public = db.connect(IFCProcess(authority, owner.id))
    secret_proc = IFCProcess(authority, owner.id)
    secret_proc.add_secrecy(tag.id)
    secret = db.connect(secret_proc)
    public.execute("CREATE TABLE m (id INT PRIMARY KEY, grp INT, v INT)")
    public.execute("CREATE ORDERED INDEX m_grp ON m (grp, v)")
    for i in range(40):
        session = secret if i % 3 == 0 else public
        session.execute("INSERT INTO m VALUES (?, ?, ?)",
                        (i, i % 4, (i * 7) % 23))
    return db, public, secret, tag


QUERIES = [
    ("SELECT * FROM m", ()),
    ("SELECT id, v FROM m WHERE v < 12", ()),
    ("SELECT grp, COUNT(*), SUM(v) FROM m GROUP BY grp", ()),
    ("SELECT DISTINCT grp FROM m WHERE v >= 5", ()),
    ("SELECT id FROM m ORDER BY v DESC, id LIMIT 7 OFFSET 3", ()),
    ("SELECT a.id, b.id FROM m a JOIN m b ON b.grp = a.grp "
     "WHERE a.v < 5 AND b.v < 5", ()),
    ("SELECT id, _label FROM m WHERE LABEL_SIZE(_label) > 0", ()),
    ("SELECT id FROM m WHERE grp = 2 AND v BETWEEN 3 AND 15", ()),
    ("SELECT id FROM m WHERE EXISTS (SELECT 1 FROM m b "
     "WHERE b.grp = m.grp AND b.v > m.v)", ()),
]


def _normalized(session, sql, params=()):
    rows = session.execute(sql, params).rows
    return sorted(((tuple(r), tuple(sorted(r.label))) for r in rows),
                  key=repr)


@pytest.mark.parametrize("batch_size", [1, 2, 3, 1024])
def test_batch_boundaries_cannot_change_results(batch_size):
    _db_row, _pub_row, secret_row, _ = _stack(0)
    _db_bat, _pub_bat, secret_bat, _ = _stack(batch_size)
    for sql, params in QUERIES:
        assert _normalized(secret_bat, sql, params) \
            == _normalized(secret_row, sql, params), sql


def test_label_run_batching_counts_one_covers_per_label_per_batch():
    # 40 rows, two distinct interned labels (secret and empty), batch
    # size 20 → 2 batches × ≤2 labels = ≤4 covers calls, against 40 in
    # row-at-a-time mode.
    _db, _public, secret, _tag = _stack(20)
    assert len(secret.execute("SELECT * FROM m").rows) == 40
    batched_calls = _db.last_statement_metrics()["labels"]["covers_calls"]

    _db2, _public2, secret_row, _ = _stack(0)
    assert len(secret_row.execute("SELECT * FROM m").rows) == 40
    row_calls = _db2.last_statement_metrics()["labels"]["covers_calls"]

    assert row_calls == 40
    assert batched_calls <= 4


def test_label_runs_under_declassifying_view():
    """Declassification takes the per-row path but must agree with the
    row-at-a-time executor on values *and* (stripped) labels."""
    results = {}
    for mode, batch_size in (("batched", 8), ("row", 0)):
        authority = AuthorityState(idgen=SeededIdGenerator(99))
        db = Database(authority, seed=99, batch_size=batch_size)
        clinic = authority.create_principal("clinic")
        compound = authority.create_compound_tag("all_t", owner=clinic.id)
        tags = [authority.create_tag("t%d" % i, owner=clinic.id,
                                     compounds=(compound.id,))
                for i in range(3)]
        admin = db.connect(IFCProcess(authority, clinic.id))
        admin.execute("CREATE TABLE p (id INT PRIMARY KEY, v INT)")
        for i in range(30):
            proc = IFCProcess(authority, clinic.id)
            proc.add_secrecy(tags[i % 3].id)
            db.connect(proc).execute("INSERT INTO p VALUES (?, ?)",
                                     (i, i % 5))
        declass_proc = IFCProcess(authority, clinic.id)
        session = db.connect(declass_proc)
        admin.execute("CREATE VIEW pv AS SELECT id, v FROM p "
                      "WITH DECLASSIFYING (all_t)")
        # The reader's label is empty: rows are visible only because
        # the view strips the patient tags (stripped labels are empty).
        results[mode] = _normalized(session, "SELECT * FROM pv WHERE v < 4")
        assert all(label == () for _row, label in results[mode])
        assert len(results[mode]) == 24
    assert results["batched"] == results["row"]


def _count_visible_calls(db):
    calls = [0]
    original = db.txn_manager.visible

    def wrapper(version, txn):
        calls[0] += 1
        return original(version, txn)

    db.txn_manager.visible = wrapper
    return calls


def test_mvcc_fast_path_skips_visible_on_clean_batches():
    _db, public, secret, _ = _stack(1024)
    calls = _count_visible_calls(_db)
    assert len(secret.execute("SELECT * FROM m").rows) == 40
    assert calls[0] == 0


def test_mvcc_fast_path_falls_back_with_inflight_transaction():
    db, public, secret, _ = _stack(1024)
    # An in-flight concurrent writer: its row must stay invisible, and
    # the batch fast path must not run (its xmin is an active xid).
    writer = db.connect(IFCProcess(db.authority,
                                   db.authority.create_principal("w").id))
    writer.begin()
    writer.execute("INSERT INTO m VALUES (999, 0, 1)")
    calls = _count_visible_calls(db)
    rows = secret.execute("SELECT id FROM m").rows
    assert calls[0] > 0                      # per-row fallback ran
    assert 999 not in [r[0] for r in rows]   # and kept the row hidden
    writer.commit()
    assert 999 in [r[0] for r in secret.execute("SELECT id FROM m").rows]


def test_mvcc_fast_path_resumes_after_vacuum_reclaims_aborts():
    """An aborted xid stalls the committed horizon (its dead versions
    linger in the heap), dropping scans to per-row visible(); a full
    vacuum reclaims them and must un-stall the fast path."""
    db, public, secret, _ = _stack(1024)
    public.begin()
    public.execute("INSERT INTO m VALUES (998, 0, 1)")
    public.rollback()
    public.execute("INSERT INTO m VALUES (997, 0, 1)")   # after the abort
    calls = _count_visible_calls(db)
    rows = secret.execute("SELECT id FROM m").rows
    assert calls[0] > 0                      # stalled: per-row fallback
    assert 998 not in [r[0] for r in rows]
    db.vacuum()
    calls[0] = 0
    rows = [r[0] for r in secret.execute("SELECT id FROM m").rows]
    assert calls[0] == 0                     # fast path resumed
    assert 998 not in rows and 997 in rows


def test_subquery_plans_stay_row_at_a_time():
    """EXISTS/IN/scalar consumers short-circuit, so expression-embedded
    subquery plans are deliberately not batch-stamped."""
    db, public, _secret, _ = _stack(1024)
    stmt = db.parse("SELECT * FROM m")
    assert db.planner.plan_select(stmt).plan.batch_size == 1024
    assert db.planner.plan_select(stmt, batched=False).plan.batch_size == 0


def test_mvcc_fast_path_falls_back_after_delete():
    db, public, secret, _ = _stack(1024)
    secret.execute("DELETE FROM m WHERE id = 0")      # sets an xmax
    calls = _count_visible_calls(db)
    rows = secret.execute("SELECT id FROM m").rows
    assert calls[0] > 0
    assert 0 not in [r[0] for r in rows]
    assert len(rows) == 39


def test_touch_run_counters_identical_to_per_version_touch():
    """The batched buffer accounting charges page runs; counter for
    counter it must equal the per-version sequence (hit_rate pins)."""
    sequence = ([("a", 0)] * 5 + [("a", 1)] * 3 + [("b", 0)] * 4
                + [("a", 0)] * 2 + [("a", 2)] + [("b", 0)] * 6)
    for capacity in (None, 2, 8):
        per_touch = BufferCache(capacity=capacity, io_penalty=0.5)
        for table, page in sequence:
            per_touch.touch(table, page)
        runs = BufferCache(capacity=capacity, io_penalty=0.5)
        run_key, run_len = None, 0
        for key in sequence:
            if key == run_key:
                run_len += 1
            else:
                if run_len:
                    runs.touch_run(run_key[0], run_key[1], run_len)
                run_key, run_len = key, 1
        runs.touch_run(run_key[0], run_key[1], run_len)
        for field in ("hits", "misses", "evictions", "io_time"):
            assert getattr(runs.stats, field) \
                == getattr(per_touch.stats, field), (capacity, field)
        assert runs.stats.hit_rate == per_touch.stats.hit_rate
        assert len(runs) == len(per_touch)


def test_batched_scan_buffer_stats_match_row_mode():
    db_row, _p1, secret_row, _ = _stack(0, buffer_pages=4, io_penalty=0.25,
                                        page_size=256)
    db_bat, _p2, secret_bat, _ = _stack(16, buffer_pages=4, io_penalty=0.25,
                                        page_size=256)
    for db, session in ((db_row, secret_row), (db_bat, secret_bat)):
        db.buffer_cache.reset()
        session.execute("SELECT * FROM m WHERE v < 10")
    for field in ("hits", "misses", "evictions", "io_time"):
        assert getattr(db_bat.buffer_cache.stats, field) \
            == getattr(db_row.buffer_cache.stats, field), field


def test_explain_shows_batch_annotation_only_when_batched():
    _db, public, _secret, _ = _stack(512)
    lines = [r[0] for r in public.execute("EXPLAIN SELECT * FROM m "
                                          "WHERE v < 5")]
    assert any("batch=512" in line for line in lines)
    naive_db, naive_pub, _n, _ = _stack(None, naive_plans=True)
    lines = [r[0] for r in naive_pub.execute("EXPLAIN SELECT * FROM m "
                                             "WHERE v < 5")]
    assert not any("batch=" in line for line in lines)


#: EXPLAIN prefixes of the row-native operators (``rows()`` only).
ROW_NATIVE = ("Filter", "NestedLoopJoin", "Limit", "Distinct", "Sort",
              "TopN", "Aggregate", "View ", "Subquery ")

ROW_NATIVE_QUERIES = [
    "SELECT DISTINCT grp FROM m WHERE v >= 5",
    "SELECT grp, COUNT(*), SUM(v) FROM m GROUP BY grp",
    "SELECT id, v FROM m ORDER BY v DESC, id",
    "SELECT id FROM m ORDER BY v DESC, id LIMIT 7 OFFSET 3",
    "SELECT id, v FROM m LIMIT 5 OFFSET 2",
    "SELECT id FROM m WHERE v > (SELECT AVG(v) FROM m)",
    "SELECT a.id, b.id FROM m a JOIN m b ON b.v < a.v WHERE a.grp = 1",
    "SELECT id, v, _label FROM mv WHERE grp = 2",
]


def _row_native_or_above(lines):
    """The EXPLAIN lines that are a row-native operator or an ancestor
    of one (ancestry read off the two-space indentation)."""
    marked = set()
    path: list = []                  # (depth, line index) of ancestors
    for i, line in enumerate(lines):
        depth = (len(line) - len(line.lstrip(" "))) // 2
        while path and path[-1][0] >= depth:
            path.pop()
        if line.strip().startswith(ROW_NATIVE):
            marked.add(i)
            marked.update(index for _depth, index in path)
        path.append((depth, i))
    return [lines[i] for i in sorted(marked)]


@pytest.mark.parametrize("sql", ROW_NATIVE_QUERIES)
def test_nothing_at_or_above_a_row_native_operator_is_batched(sql):
    """Only scans, Project, HashJoin and IndexLoopJoin run batched: no
    row-native operator carries ``batch=``, nor does anything above
    one, while the scans below still batch.  Rows and labels equal the
    naive executor's."""
    _db, public, secret, _ = _stack(512)
    _ndb, naive_public, naive_secret, _ = _stack(None, naive_plans=True)
    for session in (public, naive_public):
        session.execute("CREATE VIEW mv AS SELECT id, grp, v FROM m")
    lines = [r[0] for r in secret.execute("EXPLAIN " + sql)]
    above = _row_native_or_above(lines)
    assert above, lines
    assert not any("batch=" in line for line in above), lines
    assert any("batch=512" in line for line in lines), lines
    assert _normalized(secret, sql) == _normalized(naive_secret, sql), sql
    if "ORDER BY" in sql:
        assert [tuple(r) for r in secret.execute(sql).rows] \
            == [tuple(r) for r in naive_secret.execute(sql).rows], sql


def test_small_index_probes_stay_on_the_row_path():
    """Vectorization is estimate-driven: a primary-key probe cannot
    amortize the batch machinery, so its whole plan stays row-at-a-time
    even in a batched database (stamp_batch_size / BATCH_MIN_INDEX_ROWS),
    while a full scan of the same table batches."""
    _db, public, _secret, _ = _stack(512)
    probe = [r[0] for r in public.execute(
        "EXPLAIN SELECT * FROM m WHERE id = 7")]
    assert any("IndexScan" in line for line in probe)
    assert not any("batch=" in line for line in probe)
    full = [r[0] for r in public.execute("EXPLAIN SELECT * FROM m")]
    assert any("batch=512" in line for line in full)


def test_reads_columns_only_classifier():
    col = ex.ColumnRef("v")
    label = ex.ColumnRef("_label")
    assert ex.reads_columns_only(ex.Compare("<", col, ex.Literal(3)))
    assert not ex.reads_columns_only(
        ex.FuncCall("LABEL_SIZE", [label]))
    assert not ex.reads_columns_only(
        ex.And([ex.Compare("=", col, ex.Literal(1)),
                ex.Compare("=", label, ex.Literal(None))]))
    assert not ex.reads_columns_only(ex.Exists(object()))


def test_compile_batch_and_preserves_short_circuit():
    """``x <> 0 AND 100 / x > 2`` must not divide for rows the first
    conjunct already rejected — the row compiler's contract."""
    scope = ex.Scope()
    scope.add_table("t", ["x"])
    compiler = ex.ExprCompiler(scope)
    x = ex.ColumnRef("x")
    node = ex.And([
        ex.Compare("<>", x, ex.Literal(0)),
        ex.Compare(">", ex.BinOp("/", ex.Literal(100), x), ex.Literal(2)),
    ])
    batch_fn = ex.compile_batch(compiler, node)
    rows = [[5, None], [0, None], [2, None], [None, None]]
    batch = physical.RowBatch(rows, [None] * 4, [None] * 4)
    flags = batch_fn(batch, None)
    assert flags == [True, False, True, None]
    # And the scan-level on-values path accepts this predicate shape.
    assert ex.reads_columns_only(node)


SELF_JOIN = ("SELECT a.id, b.id FROM m a JOIN m b ON b.grp = a.grp "
             "ORDER BY a.id, b.id")


def _join_counters(batch_size):
    """Run the duplicate-heavy self-join; return (rows, lookups,
    buffer_accesses, covers_calls) deltas for the join statement."""
    db, _public, secret, _ = _stack(batch_size, work_mem=0)
    plan_lines = [r[0] for r in secret.execute("EXPLAIN " + SELF_JOIN)]
    assert any("IndexLoopJoin" in line for line in plan_lines), plan_lines
    db.buffer_cache.reset()
    rows = secret.execute(SELF_JOIN).rows
    delta = db.last_statement_metrics()
    return (rows,
            delta["index"]["lookups"],
            db.buffer_cache.stats.accesses,
            delta["labels"]["covers_calls"])


def test_index_loop_join_dedups_probes_per_batch():
    """40 outer rows but only 4 distinct join keys: the batched probe
    must hit the index once per distinct key per batch, and must not
    double-count buffer-cache touches or Query-by-Label checks for the
    duplicate outer keys — row mode pays all three per outer row."""
    row_rows, row_lookups, row_touches, row_covers = _join_counters(0)
    bat_rows, bat_lookups, bat_touches, bat_covers = _join_counters(1024)
    assert [tuple(r) for r in bat_rows] == [tuple(r) for r in row_rows]
    # Row mode: one probe per outer row; each probe yields the 10
    # same-group candidates, each touched and label-checked.
    assert row_lookups == 40
    assert row_touches == 40 + 40 * 10       # outer scan + per-row probes
    # Batched (one 40-row batch): one probe per *distinct* key, one
    # touch and one visibility pass per candidate per probe — and one
    # covers() per distinct label per batch, never per duplicate row.
    assert bat_lookups == 4
    assert bat_touches == 40 + 4 * 10        # outer scan + deduped probes
    assert bat_covers <= 4                   # ≤2 labels × (scan + probe)
    assert bat_lookups <= row_lookups * 0.8  # the ≥20% acceptance floor
    assert bat_covers < row_covers


def test_index_loop_join_small_outer_stays_on_row_path():
    """The outer side is estimated below BATCH_MIN_INDEX_ROWS: batch
    probing cannot amortize, so the join pins the row path (per-row
    probes) even though the outer scan itself batches."""
    db, public, secret, _ = _stack(512, work_mem=0)
    public.execute("CREATE TABLE tiny (id INT PRIMARY KEY, grp INT)")
    for i in range(8):
        public.execute("INSERT INTO tiny VALUES (?, ?)", (i, i % 4))
    sql = "SELECT t.id, b.id FROM tiny t JOIN m b ON b.grp = t.grp"
    plan_lines = [r[0] for r in secret.execute("EXPLAIN " + sql)]
    join_line = next(line for line in plan_lines
                     if "IndexLoopJoin" in line)
    assert "batch=" not in join_line, join_line
    scan_line = next(line for line in plan_lines if "Scan tiny" in line)
    assert "batch=512" in scan_line, scan_line
    # Counter pin: the row path probes once per outer row — duplicate
    # keys are *not* deduped below the floor.
    rows = secret.execute(sql).rows
    assert db.last_statement_metrics()["index"]["lookups"] == 8
    assert len(rows) == 8 * 10


def test_projection_pushdown_materializes_only_needed_columns():
    """m has 3 stored columns; projecting 2 must copy exactly 2 cells
    per visible row out of the heap — the counter proof that pushdown
    reached the storage layer, at any batch size."""
    for batch_size in (5, 1024):
        _db, _public, secret, _ = _stack(batch_size)
        lines = [r[0] for r in secret.execute("EXPLAIN SELECT id, v FROM m")]
        assert any("cols=id,v" in line for line in lines), lines
        assert len(secret.execute("SELECT id, v FROM m").rows) == 40
        delta = _db.last_statement_metrics()["exec"]
        assert delta["columns_materialized"] == 2 * 40, (batch_size, delta)


def test_projection_pushdown_select_star_full_width():
    """``*`` reads everything: no cols= annotation, all cells copied."""
    _db, _public, secret, _ = _stack(1024)
    lines = [r[0] for r in secret.execute("EXPLAIN SELECT * FROM m")]
    assert not any("cols=" in line for line in lines), lines
    assert len(secret.execute("SELECT * FROM m").rows) == 40
    delta = _db.last_statement_metrics()["exec"]
    assert delta["columns_materialized"] == 3 * 40


def test_projection_pushdown_subquery_disables_pushdown():
    """A correlated subquery may read arbitrary outer columns through
    the outer-row stack, so its presence pins every scan to full
    width (the conservative bail-out)."""
    _db, _public, secret, _ = _stack(1024)
    sql = ("SELECT id FROM m WHERE EXISTS (SELECT 1 FROM m b "
           "WHERE b.grp = m.grp AND b.v > m.v)")
    lines = [r[0] for r in secret.execute("EXPLAIN " + sql)]
    assert not any("cols=" in line for line in lines), lines


def test_projection_pushdown_under_declassifying_view():
    """Pushdown must reach the scan *below* a declassifying view
    without disturbing label stripping: values, stripped labels, and
    the cell counter all agree with the full-width row executor."""
    results = {}
    for mode, batch_size in (("batched", 8), ("row", 0)):
        authority = AuthorityState(idgen=SeededIdGenerator(55))
        db = Database(authority, seed=55, batch_size=batch_size)
        clinic = authority.create_principal("clinic")
        compound = authority.create_compound_tag("all_t", owner=clinic.id)
        tag = authority.create_tag("t0", owner=clinic.id,
                                   compounds=(compound.id,))
        admin = db.connect(IFCProcess(authority, clinic.id))
        admin.execute("CREATE TABLE p (id INT PRIMARY KEY, a INT, b INT,"
                      " c TEXT)")
        for i in range(30):
            proc = IFCProcess(authority, clinic.id)
            proc.add_secrecy(tag.id)
            db.connect(proc).execute(
                "INSERT INTO p VALUES (?, ?, ?, ?)",
                (i, i % 5, i % 7, "pad-%d" % i))
        admin.execute("CREATE VIEW pv AS SELECT id, a FROM p "
                      "WITH DECLASSIFYING (all_t)")
        session = db.connect(IFCProcess(authority, clinic.id))
        results[mode] = _normalized(session, "SELECT a FROM pv")
        if mode == "batched":
            # The view body reads id and a: 2 of 4 stored columns.
            delta = db.last_statement_metrics()["exec"]
            assert delta["columns_materialized"] == 2 * 30
        assert all(label == () for _row, label in results[mode])
        assert len(results[mode]) == 30
    assert results["batched"] == results["row"]


def test_dml_plans_never_project():
    """UPDATE/DELETE rewrite whole tuple versions (xmax stamping plus
    the unchanged columns of the new version), so DML access paths
    always run at full width — no cols= on any EXPLAIN line, and a
    single-column UPDATE must leave its neighbors intact."""
    _db, public, secret, _ = _stack(1024)
    lines = [r[0] for r in secret.execute(
        "EXPLAIN UPDATE m SET v = 0 WHERE grp = 1")]
    assert not any("cols=" in line for line in lines), lines
    before = {r[0]: (r[1], r[2])
              for r in secret.execute("SELECT id, grp, v FROM m")}
    # id=5 is a public row; the public session may rewrite it.
    assert public.execute("UPDATE m SET v = 0 WHERE id = 5").rowcount == 1
    after = {r[0]: (r[1], r[2])
             for r in secret.execute("SELECT id, grp, v FROM m")}
    assert after[5] == (before[5][0], 0)
    assert all(after[i] == before[i] for i in before if i != 5)


def test_aggregation_over_join_matches_row_mode_with_projection():
    """Aggregation above a join above two projected scans: the
    column-at-a-time path must agree with row-at-a-time on groups,
    aggregates, and labels."""
    sql = ("SELECT a.grp, COUNT(*), SUM(b.v) FROM m a "
           "JOIN m b ON b.grp = a.grp GROUP BY a.grp")
    _db_row, _p1, secret_row, _ = _stack(0)
    _db_bat, _p2, secret_bat, _ = _stack(16)
    assert _normalized(secret_bat, sql) == _normalized(secret_row, sql)


def test_batches_widen_rows_exactly_once():
    """The no-double-copy pin: a batched pipeline (projected scan →
    projection) only rebuilds row-major lists at the cursor drain, so
    ``rows_widened`` equals the statement's output row count."""
    _db, _public, secret, _ = _stack(1024)
    rows = secret.execute("SELECT id, v FROM m WHERE v < 12").rows
    assert len(rows) > 0
    delta = _db.last_statement_metrics()["exec"]
    assert delta["rows_widened"] == len(rows)
    assert delta["columns_materialized"] == 2 * len(rows)


def test_predicate_free_scan_skips_row_copy_for_dml_targets():
    """versions() yields the physical versions without materializing a
    predicate row when there is no predicate (and with only the bare
    tuple when the predicate is label-free)."""
    db, public, secret, _ = _stack(1024)
    # Label-free predicate UPDATE (DML target scans enumerate
    # row-at-a-time at every batch size).
    count = secret.execute("UPDATE m SET v = v + 1 "
                           "WHERE grp = 1 AND id % 3 = 0").rowcount
    reference_db, _pub, secret_row, _ = _stack(0)
    expected = secret_row.execute("UPDATE m SET v = v + 1 "
                                  "WHERE grp = 1 AND id % 3 = 0").rowcount
    assert count == expected
    assert _normalized(secret, "SELECT * FROM m") \
        == _normalized(secret_row, "SELECT * FROM m")
