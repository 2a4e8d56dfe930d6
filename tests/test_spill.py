"""Property-based tests for the hash-join spill layer (db/spill.py).

Seeded-random "properties" in the style of tests/test_stats.py: each
test draws many random inputs from a fixed seed and asserts invariants
that must hold for *all* of them —

* spool files round-trip arbitrary execution rows byte-exactly,
  including ``None``, strings with newlines/quotes/unicode, floats,
  and labels — and a label read back from a spill file is *identical*
  (``is``) to the live interned instance, so the scan-level label
  memos keep working across a spill;
* partitioning is a function: every input row lands in exactly one
  partition, nothing is lost or duplicated, and a probe row meets
  exactly the build rows that share its key (cross-checked against a
  plain dict join);
* recursive re-partitioning terminates — in particular on an
  all-equal-key build side, which no amount of re-hashing can split;
* a spilled HashJoin observes the statement's snapshot: a writer
  committing mid-statement (after the probe spooled) changes nothing
  (see also the audit note on ``committed_horizon`` in
  ARCHITECTURE.md).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.core.labels import EMPTY_LABEL, Label
from repro.db import Database
from repro.db.spill import (
    MAX_RECURSION,
    SPILL_STATS,
    SpilledHashBuild,
    SpillFile,
    decode_labeled_row,
    encode_labeled_row,
    estimate_row_bytes,
    estimate_spill_plan,
)

NASTY_STRINGS = (
    "", "plain", "with\nnewline", "with\ttab", "quote'and\"double",
    "semi;colon", "ünïcödé-λ", "line1\nline2\nline3", "\x00binary\x01",
)


def _random_values(rng: random.Random) -> list:
    values = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.2:
            values.append(None)
        elif roll < 0.45:
            values.append(rng.randint(-10**9, 10**9))
        elif roll < 0.65:
            values.append(round(rng.uniform(-1e6, 1e6), 6))
        elif roll < 0.9:
            values.append(rng.choice(NASTY_STRINGS))
        else:
            values.append(Label(rng.sample(range(1, 50),
                                           rng.randint(0, 4))))
    return values


def _random_label(rng: random.Random) -> Label:
    if rng.random() < 0.3:
        return EMPTY_LABEL
    return Label(rng.sample(range(1, 30), rng.randint(1, 5)))


def _random_row(rng: random.Random):
    return (_random_values(rng), _random_label(rng), _random_label(rng))


def test_labeled_row_codec_round_trips_and_reinterns():
    rng = random.Random(0x5B11)
    for _ in range(200):
        values, label, ilabel = _random_row(rng)
        out_values, out_label, out_ilabel = decode_labeled_row(
            encode_labeled_row(values, label, ilabel))
        assert out_values == values
        assert out_label is label            # interned identity
        assert out_ilabel is ilabel


def test_spill_file_round_trips_random_rows():
    rng = random.Random(0x5B12)
    for _round in range(25):
        spool = SpillFile()
        rows = [(tuple(_random_values(rng)), _random_row(rng))
                for _ in range(rng.randint(0, 60))]
        for key, row in rows:
            spool.write_row(key, row)
        got = list(spool.rows())
        assert len(got) == len(rows)
        for (key, row), (got_key, got_row) in zip(rows, got):
            assert got_key == key
            assert got_row[0] == row[0]
            assert got_row[1] is row[1]      # labels re-interned
            assert got_row[2] is row[2]
            # Labels *inside* the value list survive pickling too (the
            # _label pseudo-column rides in the execution row).
            for original, reloaded in zip(row[0], got_row[0]):
                if isinstance(original, Label):
                    assert reloaded is original


def test_every_row_lands_in_exactly_one_partition():
    rng = random.Random(0x5B13)
    for _round in range(10):
        spill = SpilledHashBuild(budget=512, keep_resident=False)
        keys = [(rng.randint(0, 20),) for _ in range(300)]
        for i, key in enumerate(keys):
            # Routing is a pure function of the key.
            assert spill.route(key) == spill.route(key)
            spill.add_build(key, ([i], EMPTY_LABEL, EMPTY_LABEL))
        counts = [p.build.count for p in spill.partitions]
        assert sum(counts) == len(keys)
        # Same key, same partition: replay the routing.
        for key in set(keys):
            assert 0 <= spill.route(key) < spill.fanout


def test_spilled_join_matches_dict_join():
    """The partition machinery must produce exactly the matches a
    plain in-memory dict join would, for every probe row, across
    random duplicate-heavy key distributions and tiny budgets (which
    force recursive re-partitioning)."""
    rng = random.Random(0x5B14)
    for _round in range(8):
        budget = rng.choice((256, 1024, 4096))
        build = [((rng.randint(0, 12),), _random_row(rng))
                 for _ in range(rng.randint(50, 250))]
        probe = [((rng.randint(0, 15),), _random_row(rng))
                 for _ in range(rng.randint(20, 120))]
        reference: dict = {}
        for key, row in build:
            reference.setdefault(key, []).append(row)

        spill = SpilledHashBuild(budget=budget)
        for key, row in build:
            spill.add_build(key, row)
        spooled = []
        immediate = []
        for key, row in probe:
            matches = spill.probe(key, row)
            if matches is None:
                spooled.append((key, row))
            else:
                immediate.append((row, matches))
        results = immediate + list(spill.results())
        # Every probe row surfaces exactly once...
        assert len(results) == len(probe)
        # ...with exactly the dict join's matches (order-insensitive).
        probe_index = {repr(row): key for key, row in probe}
        for row, matches in results:
            key = probe_index[repr(row)]
            expected = reference.get(key, [])
            assert sorted(repr(m) for m in matches) \
                == sorted(repr(m) for m in expected), key


def test_recursion_terminates_on_all_equal_keys():
    """A single-key build side cannot be split by re-hashing; the
    partitioner must detect that and finish in memory (over budget)
    instead of recursing forever."""
    before = SPILL_STATS.repartitions
    spill = SpilledHashBuild(budget=256, keep_resident=False)
    key = (7, "same")
    n = 500
    for i in range(n):
        spill.add_build(key, ([i, "payload"], EMPTY_LABEL, EMPTY_LABEL))
    spill.spool_probe(key, (["probe"], EMPTY_LABEL, EMPTY_LABEL))
    results = list(spill.results())
    assert len(results) == 1
    _row, matches = results[0]
    assert len(matches) == n
    # Recursion depth is bounded even though the budget was blown.
    assert SPILL_STATS.repartitions - before <= MAX_RECURSION


def test_recursion_terminates_on_skewed_keys():
    """One dominant key plus a long tail: recursion isolates the heavy
    key and stops, returning complete matches for both."""
    spill = SpilledHashBuild(budget=512, keep_resident=False)
    for i in range(400):
        spill.add_build((1,), ([i], EMPTY_LABEL, EMPTY_LABEL))
    for i in range(40):
        spill.add_build((1000 + i,), ([i], EMPTY_LABEL, EMPTY_LABEL))
    spill.spool_probe((1,), (["hot"], EMPTY_LABEL, EMPTY_LABEL))
    spill.spool_probe((1005,), (["cold"], EMPTY_LABEL, EMPTY_LABEL))
    spill.spool_probe((9999,), (["miss"], EMPTY_LABEL, EMPTY_LABEL))
    by_row = {row[0][0]: matches for row, matches in spill.results()}
    assert len(by_row["hot"]) == 400
    assert len(by_row["cold"]) == 1
    assert by_row["miss"] == []


def test_estimate_row_bytes_monotone():
    """Sanity on the budget arithmetic: adding data never shrinks the
    estimate, and labels charge 4 bytes per tag like the page model."""
    base = estimate_row_bytes([1, "ab"])
    assert estimate_row_bytes([1, "ab", None]) > base
    assert estimate_row_bytes([1, "abcdef"]) > base
    with_label = estimate_row_bytes([1, "ab"], Label((1, 2, 3)))
    assert with_label == base + 16 + 12


def test_estimate_spill_plan_levels():
    partitions, per_bytes, levels = estimate_spill_plan(0, 1024)
    assert (partitions, levels) == (0, 0)
    partitions, per_bytes, levels = estimate_spill_plan(100, 1024)
    assert (partitions, levels) == (0, 0) and per_bytes == 100
    partitions, per_bytes, levels = estimate_spill_plan(8_000, 1024)
    assert partitions == 8 and levels == 1 and per_bytes <= 1024
    partitions, per_bytes, levels = estimate_spill_plan(10_000, 1024)
    assert partitions == 8 ** levels and per_bytes <= 1024
    partitions, per_bytes, levels = estimate_spill_plan(1_000_000, 1024)
    assert partitions == 8 ** levels
    assert per_bytes <= 1024 or levels == MAX_RECURSION


def _stack(work_mem, batch_size=None):
    authority = AuthorityState(idgen=SeededIdGenerator(31))
    db = Database(authority, seed=31, work_mem=work_mem,
                  batch_size=batch_size)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("p").id))
    session.execute("CREATE TABLE fact (k INT PRIMARY KEY, g INT, t TEXT)")
    session.execute("CREATE TABLE probe (id INT PRIMARY KEY, g INT)")
    for i in range(800):
        session.execute("INSERT INTO fact VALUES (?, ?, ?)",
                        (i, i % 60, "payload-%d" % i))
    for i in range(30):
        session.execute("INSERT INTO probe VALUES (?, ?)", (i, i % 80))
    session.execute("ANALYZE")
    return db, session


JOIN_SQL = "SELECT p.id, f.k FROM probe p JOIN fact f ON f.g = p.g"


def _normalized(session, sql):
    return sorted((tuple(r), tuple(sorted(r.label)))
                  for r in session.execute(sql).rows)


def test_session_level_spilled_join_parity_and_explain():
    """End-to-end: an unindexed equi-join over an 800-row build side
    under a 2KB budget must spill (stats prove it), report
    ``spill_partitions``/``mem`` in EXPLAIN with peak estimated memory
    within the budget, and return exactly the unbounded result."""
    _db0, unbounded = _stack(0)
    before = SPILL_STATS.snapshot()
    _db1, bounded = _stack(2048)
    expected = _normalized(unbounded, JOIN_SQL)
    got = _normalized(bounded, JOIN_SQL)
    assert got == expected
    after = SPILL_STATS.snapshot()
    assert after["spills"] > before["spills"]
    assert after["rows_spilled"] > before["rows_spilled"]

    plan_lines = [r[0] for r in bounded.execute("EXPLAIN " + JOIN_SQL)]
    join_line = next(line for line in plan_lines if "HashJoin" in line)
    assert "spill_partitions=" in join_line, join_line
    partitions = int(join_line.split("spill_partitions=")[1].split()[0])
    assert partitions >= 1
    est_mem = int(join_line.split("mem=")[1].split("B")[0])
    assert est_mem <= 2048
    # The unbounded database plans the same join without spill fields.
    free_line = next(line for line in
                     (r[0] for r in unbounded.execute("EXPLAIN " + JOIN_SQL))
                     if "HashJoin" in line)
    assert "spill_partitions=" not in free_line


def test_measured_row_widths_drive_spill_estimates():
    """ANALYZE measures per-column byte widths (sampled with the spill
    estimator's own accounting), so the optimizer budgets the build
    side from what rows actually weigh: wide padding columns the
    synthetic column-count guess undercounts push the plan into a
    predicted spill — and a projection that never reads them earns the
    memory credit back."""
    authority = AuthorityState(idgen=SeededIdGenerator(77))
    db = Database(authority, seed=77, work_mem=60_000)
    session = db.connect(IFCProcess(authority,
                                    authority.create_principal("q").id))
    session.execute("CREATE TABLE wide (k INT PRIMARY KEY, g INT,"
                    " pad TEXT)")
    session.execute("CREATE TABLE slim (id INT PRIMARY KEY, g INT)")
    for i in range(300):
        session.execute("INSERT INTO wide VALUES (?, ?, ?)",
                        (i, i % 50, "x" * 300))
    for i in range(40):
        session.execute("INSERT INTO slim VALUES (?, ?)", (i, i % 50))

    def join_line(sql):
        return next(r[0] for r in session.execute("EXPLAIN " + sql)
                    if "HashJoin" in r[0])

    wide_sql = "SELECT s.id, w.pad FROM slim s JOIN wide w ON w.g = s.g"
    narrow_sql = "SELECT s.id FROM slim s JOIN wide w ON w.g = s.g"
    # Un-analyzed: the synthetic per-column guess (~40KB build) fits.
    assert "spill_partitions=" not in join_line(wide_sql)
    session.execute("ANALYZE")
    # Measured: ~450B × 300 rows blows the 60KB budget.
    assert "spill_partitions=" in join_line(wide_sql)
    # Projection pushdown drops pad from the build; measured narrow
    # rows (~110B incl. the None placeholders) fit again.
    assert "spill_partitions=" not in join_line(narrow_sql)


def test_spilled_hash_join_sees_statement_snapshot():
    """Regression for the committed_horizon()/spill interaction: a
    writer that was in flight when the statement's snapshot was taken
    commits *mid-statement* — after the probe side spooled, before the
    partition phase joined it.  The spilled join must not see the
    writer's rows, exactly like the in-memory join: the MVCC batch
    fast path is anchored on the snapshot's ``xmax`` and
    ``min_in_progress``, which do not move, so the advancing committed
    horizon alone can never admit a snapshot-invisible version."""
    results = {}
    for label, work_mem in (("spilled", 2048), ("in-memory", 0)):
        # batch_size=16 so the join emits output *while* probing: the
        # writer's commit genuinely lands between two output batches,
        # with the probe scan still running and partitions unspooled.
        db, session = _stack(work_mem, batch_size=16)
        writer = db.connect(IFCProcess(db.authority,
                                       db.authority.create_principal(
                                           "w%d" % work_mem).id))
        writer.begin()                       # in flight before snapshot
        for i in range(5):
            writer.execute("INSERT INTO fact VALUES (?, ?, ?)",
                           (9000 + i, i % 60, "late"))
            writer.execute("INSERT INTO probe VALUES (?, ?)",
                           (9000 + i, i % 60))
        session.begin()                      # reader snapshot taken here
        prepared = db.prepare_select(db.parse(JOIN_SQL), JOIN_SQL)
        ctx = session._context(())
        batches = prepared.plan.batches(ctx)
        first = next(batches)                # build consumed, probing...
        writer.commit()                      # ...commits mid-statement
        rows = [tuple(values) for values in first.values]
        for batch in batches:
            rows.extend(tuple(values) for values in batch.values)
        session.commit()
        results[label] = sorted(rows)
        # Neither the writer's build rows (fact.k >= 9000) nor its
        # probe rows (probe.id >= 9000) may surface: the committed
        # horizon advanced mid-statement, but the snapshot's xmax and
        # min_in_progress still exclude the writer.
        assert not any(pid >= 9000 or k >= 9000
                       for pid, k in results[label]), label
    assert results["spilled"] == results["in-memory"]

def _open_fds() -> int:
    """Number of open file descriptors in this process."""
    return len(os.listdir("/proc/self/fd"))


def test_mid_join_error_releases_spill_descriptors():
    """Regression: a spilled join's partition spools used to close only
    on clean exhaustion — an error raised while the join was mid-output
    (a downstream expression blowing up, a client disconnect) leaked
    every partition's TemporaryFile descriptor.  The operator-level
    ``finally`` must now release them the moment the error unwinds."""
    db, session = _stack(2048, batch_size=16)
    session.begin()
    prepared = db.prepare_select(db.parse(JOIN_SQL), JOIN_SQL)
    ctx = session._context(())
    baseline = _open_fds()
    batches = prepared.plan.batches(ctx)
    next(batches)            # build spilled, probe underway
    assert _open_fds() > baseline      # the spools are genuinely open
    with pytest.raises(RuntimeError, match="boom"):
        batches.throw(RuntimeError("boom"))
    assert _open_fds() == baseline
    session.rollback()


def test_abandoned_spilled_join_iterator_releases_descriptors():
    """Closing (abandoning) a suspended spilled-join iterator — what a
    LIMIT above the join, or a cursor dropped mid-fetch, does — must
    release the partition spools, not wait for garbage collection."""
    db, session = _stack(2048, batch_size=16)
    session.begin()
    prepared = db.prepare_select(db.parse(JOIN_SQL), JOIN_SQL)
    ctx = session._context(())
    baseline = _open_fds()
    batches = prepared.plan.batches(ctx)
    next(batches)
    assert _open_fds() > baseline
    batches.close()
    assert _open_fds() == baseline
    session.rollback()


def test_mid_aggregate_error_releases_group_spill_descriptors():
    """Same contract for grace-spilled aggregation: an error while the
    fold is emitting resident groups (partitions still spooled) must
    close every GroupSpill spool."""
    db, session = _stack(1024, batch_size=4)
    sql = "SELECT g, COUNT(*) FROM fact GROUP BY g"
    session.begin()
    prepared = db.prepare_select(db.parse(sql), sql)
    ctx = session._context(())
    baseline = _open_fds()
    rows = prepared.plan.rows(ctx)    # the root is row-native
    next(rows)               # fold done, resident groups emitting
    assert _open_fds() > baseline
    with pytest.raises(RuntimeError, match="boom"):
        rows.throw(RuntimeError("boom"))
    assert _open_fds() == baseline
    session.rollback()


def test_mid_sort_error_releases_run_descriptors():
    """And for external sort: killing the merge mid-stream must close
    every spooled run."""
    db, session = _stack(1024, batch_size=4)
    sql = "SELECT k, t FROM fact ORDER BY t"
    session.begin()
    prepared = db.prepare_select(db.parse(sql), sql)
    ctx = session._context(())
    baseline = _open_fds()
    rows = prepared.plan.rows(ctx)    # the root is row-native
    next(rows)               # runs spooled, merge underway
    assert _open_fds() > baseline
    with pytest.raises(RuntimeError, match="boom"):
        rows.throw(RuntimeError("boom"))
    assert _open_fds() == baseline
    session.rollback()
