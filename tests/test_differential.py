"""Differential-execution harness for the unified query/DML planner.

Two identical databases execute one seeded random stream of
SELECT/UPDATE/DELETE/INSERT statements over small labeled tables:

* the **optimized** universe plans normally — cost-based access paths
  (equality probes, ``IndexRangeScan`` range scans), join strategies,
  pushdown, and stats-driven replanning all enabled;
* the **reference** universe runs with ``Database(naive_plans=True)``:
  forced full heap scans, nested-loop joins, no pushdown — the
  slowest, most obviously correct interpretation of every statement.

After every statement both universes must agree on the outcome (result
rows *and their labels* for SELECT, rowcount for DML, exception type on
failure) and, after every write, on the complete table state including
per-row labels.  None of the optimizer's choices may change *what* a
statement sees or touches — that is the paper's section 7.1 invariant
(visibility is decided below every optimization decision), and this
harness is its executable form.

The statement stream is adversarial about **joins**: besides
single-table DML it generates multi-join SELECTs over 2–4 tables with
mixed equality/range join predicates and duplicate-heavy join keys
(self-joins on a 10-value foreign key, equality on an unindexed
column so the optimizer must hash-join).  Every such plan shape —
index-nested-loop with batched probe dedup, hash join, nested loop,
LEFT JOIN NULL extension — must agree with the naive executor; the
``work_mem`` parametrization additionally re-runs the stream under
64KB and 1KB budgets so grace-spilled hash joins are cross-checked
row-for-row (rows, labels, rowcounts, error types) against both the
in-memory optimized and the naive execution.

The stream also holds **old snapshots** open across writes and
VACUUM: every ``SNAPSHOT_EVERY`` statements a reader session begins
while an update is still in flight, the update commits, the stream
runs on, VACUUM reclaims what it may, and the reader then repeats its
index-probed queries.  It must get the answers it got when its
snapshot opened, and the naive universe's reader must agree.  This
pins the snapshot floor that bounds both VACUUM and index-entry
pruning: a version superseded by an xid the reader saw in flight is
still the reader's to read.

Seeds come from the environment so CI can rotate them
(``REPRO_DIFF_SEED``; on failure every assertion message carries the
seed for reproduction).  ``REPRO_DIFF_STATEMENTS`` scales the run.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database, metrics
from repro.db.physical import IndexRangeScan, IndexScan, Scan
from repro.db.spill import SPILL_STATS
from repro.errors import ReproError

FIXED_SEED = 0x1FDB
SEED = int(os.environ.get("REPRO_DIFF_SEED", str(FIXED_SEED)), 0)
N_STATEMENTS = int(os.environ.get("REPRO_DIFF_STATEMENTS", "600"))

SCHEMA = """
CREATE TABLE readings (id INT PRIMARY KEY, device INT, ts INT,
                       kind TEXT, value FLOAT);
CREATE ORDERED INDEX readings_dev_ts ON readings (device, ts);
CREATE INDEX readings_kind ON readings (kind);
CREATE TABLE devices (device INT PRIMARY KEY, owner TEXT, zone INT);
CREATE ORDERED INDEX devices_zone ON devices (zone);
CREATE TABLE zones (zone INT PRIMARY KEY, region TEXT);
"""

KINDS = ("temp", "gps", "speed", "fuel")

#: A snapshot reader opens every this many statements and is checked
#: ``SNAPSHOT_HELD`` statements later (see ``SnapshotReader``).
SNAPSHOT_EVERY = 50
SNAPSHOT_HELD = 40

#: The reader's queries, all index probes on the optimized side: an
#: ordered-index prefix scan, a primary-key index-loop self-join driven
#: by a hash index, and a self-join probing the ordered index.
READER_QUERIES = (
    [("SELECT id, ts, kind, value FROM readings WHERE device = ?", (d,))
     for d in range(10)]
    + [("SELECT r.id, r2.value FROM readings r JOIN readings r2 "
        "ON r2.id = r.id WHERE r.kind = ? AND r.device = ?", ("gps", 1)),
       ("SELECT r.id, r2.id FROM readings r "
        "JOIN readings r2 ON r2.device = r.device WHERE r.id = ?", (26,))])


class Universe:
    """One database plus a public (empty-label) and a secret session.

    ``batch_size`` (optimized universe only; the naive reference always
    runs row-at-a-time) exercises the batched executor at arbitrary
    batch boundaries — ``None`` means the engine default / the
    ``REPRO_BATCH_SIZE`` environment override.
    """

    def __init__(self, *, naive: bool, batch_size=None, work_mem=None,
                 workers=None):
        authority = AuthorityState(idgen=SeededIdGenerator(777))
        self.db = Database(authority, naive_plans=naive, seed=777,
                           batch_size=batch_size, work_mem=work_mem,
                           workers=workers)
        owner = authority.create_principal("owner")
        self.owner = owner.id
        self.tag = authority.create_tag("diff-secret", owner=owner.id)
        secret = IFCProcess(authority, owner.id)
        secret.add_secrecy(self.tag.id)
        self.sessions = {
            "public": self.db.connect(IFCProcess(authority, owner.id)),
            "secret": self.db.connect(secret),
        }
        self.sessions["public"].execute_script(SCHEMA)

    def state(self):
        """Full contents of every table — values *and* labels — as seen
        by the secret session (whose label covers every row)."""
        reader = self.sessions["secret"]
        out = {}
        for table in ("readings", "devices", "zones"):
            rows = reader.execute("SELECT * FROM " + table).rows
            out[table] = sorted(
                ((tuple(r), tuple(sorted(r.label))) for r in rows),
                key=repr)
        return out


class SnapshotReader:
    """A reader whose snapshot sees an update in flight.

    Construction starts a public writer's value-neutral update of one
    kind of reading, begins the reader (the secret owner, who sees
    every row) while that update is uncommitted, then commits the
    update.  The reader's answers at that point are its snapshot's;
    ``answers`` after any later writes and VACUUM must repeat them
    exactly.
    """

    def __init__(self, universe: Universe, kind: str):
        db = universe.db
        authority = db.authority
        owner = universe.owner
        writer = db.connect(IFCProcess(authority, owner))
        process = IFCProcess(authority, owner)
        process.add_secrecy(universe.tag.id)
        self.session = db.connect(process)
        writer.execute("BEGIN")
        writer.execute("UPDATE readings SET kind = kind WHERE kind = ?",
                       (kind,))
        self.session.execute("BEGIN")
        writer.execute("COMMIT")

    def answers(self) -> list:
        return [sorted(((tuple(r), tuple(sorted(r.label)))
                        for r in self.session.execute(sql, params).rows),
                       key=repr)
                for sql, params in READER_QUERIES]

    def close(self) -> None:
        self.session.execute("COMMIT")


def _open_readers(universes, kind: str, tag: str):
    readers = [SnapshotReader(universe, kind) for universe in universes]
    first = [reader.answers() for reader in readers]
    assert first[0] == first[1], "%s snapshot readers diverged" % tag
    return readers, first[0]


def _check_readers(universes, readers, first, tag: str) -> None:
    for universe in universes:
        universe.sessions["public"].execute("VACUUM")
    with metrics.REGISTRY.scope() as scope:
        got = readers[0].answers()
    assert scope["index"]["lookups"] >= len(READER_QUERIES)
    assert got == first, "%s old snapshot lost rows" % tag
    assert readers[1].answers() == first, \
        "%s naive old snapshot lost rows" % tag
    for reader in readers:
        reader.close()


def run_one(universe: Universe, op: dict):
    """Execute one generated statement; normalize the outcome."""
    session = universe.sessions[op["session"]]
    try:
        result = session.execute(op["sql"], op.get("params", ()))
    except ReproError as exc:
        return ("error", type(exc).__name__)
    if op["kind"] == "select":
        rows = sorted(((tuple(r), tuple(sorted(r.label)))
                       for r in result.rows), key=repr)
        return ("rows", rows)
    return ("rowcount", result.rowcount)


class StatementGenerator:
    """Seeded random SELECT/UPDATE/DELETE/INSERT statements over the
    harness schema, weighted so tables stay populated and the write
    rule fires sometimes (cross-label DML raising IFCViolation is an
    outcome both universes must agree on too)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next_id = 0

    def session_kind(self) -> str:
        return "secret" if self.rng.random() < 0.3 else "public"

    def insert_reading(self) -> dict:
        rng = self.rng
        self.next_id += 1
        params = (self.next_id, rng.randint(0, 9), rng.randint(0, 999),
                  rng.choice(KINDS), round(rng.uniform(0, 100), 3))
        return {"kind": "insert", "session": self.session_kind(),
                "sql": "INSERT INTO readings VALUES (?, ?, ?, ?, ?)",
                "params": params}

    def _conjunct(self, alias: str = ""):
        rng = self.rng
        prefix = alias + "." if alias else ""
        col = rng.choice(("id", "device", "ts", "kind", "value"))
        if col == "kind":
            return "%skind = ?" % prefix, [rng.choice(KINDS)]
        if col == "id":
            value = rng.randint(0, max(self.next_id, 1))
        elif col == "device":
            value = rng.randint(0, 9)
        elif col == "ts":
            value = rng.randint(0, 999)
        else:
            value = round(rng.uniform(0, 100), 3)
        if rng.random() < 0.25:
            span = {"id": 40, "device": 3, "ts": 150}.get(col, 20.0)
            return ("%s%s BETWEEN ? AND ?" % (prefix, col),
                    [value, value + rng.uniform(0, span)
                     if col == "value" else value + rng.randint(0, span)])
        op = rng.choice(("=", "<", "<=", ">", ">="))
        return "%s%s %s ?" % (prefix, col, op), [value]

    def predicate(self, alias: str = ""):
        parts, params = [], []
        for _ in range(self.rng.randint(1, 3)):
            text, values = self._conjunct(alias)
            parts.append(text)
            params.extend(values)
        return " AND ".join(parts), params

    def statement(self) -> dict:
        rng = self.rng
        roll = rng.random()
        if roll < 0.40:
            return self.select()
        if roll < 0.62:
            return self.update()
        if roll < 0.76:
            return self.delete()
        if roll < 0.96:
            return self.insert_reading()
        return {"kind": "analyze", "session": "public",
                "sql": "ANALYZE readings"}

    def select(self) -> dict:
        rng = self.rng
        roll = rng.random()
        if roll < 0.40:
            return self.select_join()
        if roll < 0.70:
            return self.select_sorted()
        where, params = self.predicate()
        if rng.random() < 0.5:
            sql = ("SELECT device, COUNT(*), MAX(value) FROM readings "
                   "WHERE %s GROUP BY device" % where)
        else:
            sql = "SELECT * FROM readings WHERE " + where
        return {"kind": "select", "session": self.session_kind(),
                "sql": sql, "params": params}

    #: Multi-join SELECT templates (2–4 tables).  Join keys are chosen
    #: adversarially: ``r.device`` has only 10 distinct values over
    #: hundreds of readings (duplicate-heavy index-loop probes),
    #: ``ts`` and ``owner`` have no usable index (forced hash joins —
    #: the ones that spill under a work_mem budget), and the templates
    #: mix equality joins with range/inequality residuals and LEFT
    #: JOIN NULL extension.  ``{w}`` receives a seeded predicate on the
    #: ``r`` alias to keep outputs bounded.
    JOIN_TEMPLATES = (
        # 2 tables, indexed FK: batched IndexLoopJoin probe dedup.
        ("SELECT r.id, r.ts, r.value, d.owner FROM readings r "
         "JOIN devices d ON d.device = r.device WHERE {w}"),
        # 2 tables, unindexed equality key: HashJoin (spills when
        # work_mem is tight), duplicate-heavy on purpose.
        ("SELECT r.id, r2.id, r2.value FROM readings r "
         "JOIN readings r2 ON r2.ts = r.ts WHERE {w}"),
        # Mixed eq + range join condition: hash join with residual.
        ("SELECT r.id, r2.id FROM readings r "
         "JOIN readings r2 ON r2.ts = r.ts AND r2.value >= r.value "
         "WHERE {w}"),
        # LEFT JOIN over the unindexed key: NULL-extended spill probes.
        ("SELECT r.id, r2.id FROM readings r "
         "LEFT JOIN readings r2 ON r2.ts = r.ts AND r2.kind = r.kind "
         "WHERE {w}"),
        # 3 tables: index loop + index loop over tiny zones.
        ("SELECT r.id, d.owner, z.region FROM readings r "
         "JOIN devices d ON d.device = r.device "
         "JOIN zones z ON z.zone = d.zone WHERE {w}"),
        # 3 tables with a pure non-equi join: nested loop (batched
        # predicate over the inner side) above an index loop.
        ("SELECT r.id, d.owner, z.region FROM readings r "
         "JOIN devices d ON d.device = r.device "
         "JOIN zones z ON z.zone < d.zone WHERE {w}"),
        # 4 tables, duplicate-heavy self-join + dimension chain.
        ("SELECT r.id, r2.id, d.owner, z.region FROM readings r "
         "JOIN readings r2 ON r2.device = r.device "
         "JOIN devices d ON d.device = r.device "
         "JOIN zones z ON z.zone = d.zone "
         "WHERE {w} AND r2.value <= r.value"),
        # Aggregation over a hash join (labels union across tables).
        ("SELECT r2.kind, COUNT(*), MAX(r2.value) FROM readings r "
         "JOIN readings r2 ON r2.ts = r.ts WHERE {w} "
         "GROUP BY r2.kind"),
        # Narrow projection over a join: pushdown strips every column
        # the plan does not read from both scans — the one-column
        # output (and its joined labels) must not notice.
        ("SELECT d.zone FROM readings r "
         "JOIN devices d ON d.device = r.device WHERE {w}"),
        # Aggregation over the duplicate-heavy self-join with nothing
        # projected but the join key: both scans run at minimum width.
        ("SELECT COUNT(*) FROM readings r "
         "JOIN readings r2 ON r2.device = r.device WHERE {w}"),
    )

    def select_join(self) -> dict:
        where, params = self.predicate("r")
        sql = self.rng.choice(self.JOIN_TEMPLATES).format(w=where)
        return {"kind": "select", "session": self.session_kind(),
                "sql": sql, "params": params}

    #: Memory-bounded Sort/Aggregate/Distinct/Top-N templates.  The
    #: harness compares result *sets*, so every LIMIT template orders
    #: by a chain ending in the unique ``id`` (or the full group key):
    #: a tie at the cut boundary would otherwise let both universes
    #: legally return different-but-correct rows.  Under the 1KB
    #: work_mem leg these are the statements that force external merge
    #: sort runs and grace-partitioned aggregation (readings holds
    #: ~250 rows ≈ 25KB).
    SORT_TEMPLATES = (
        # Full external sort (runs spooled + k-way merged at 1KB).
        "SELECT r.id, r.value FROM readings r WHERE {w} "
        "ORDER BY r.value DESC, r.id",
        # Top-N bounded heap, unique tail key.
        "SELECT r.id, r.kind, r.value FROM readings r WHERE {w} "
        "ORDER BY r.kind, r.value, r.id LIMIT 7",
        # Top-N with offset; heap bound is limit+offset.
        "SELECT r.id FROM readings r WHERE {w} "
        "ORDER BY r.ts, r.id LIMIT 5 OFFSET 3",
        # Heap-busting limit: TopN falls back to the external sort.
        "SELECT r.id, r.device, r.ts FROM readings r WHERE {w} "
        "ORDER BY r.device, r.ts, r.id LIMIT 200 OFFSET 2",
        # Grace-partitioned DISTINCT (duplicate-heavy key pair).
        "SELECT DISTINCT r.device, r.kind FROM readings r WHERE {w}",
        # DISTINCT above a Sort: spilled Distinct must keep the order.
        "SELECT DISTINCT r.kind FROM readings r WHERE {w} "
        "ORDER BY r.kind",
        # Grace aggregation, then Top-N over the group rows.
        "SELECT r.device, COUNT(*), MIN(r.value), MAX(r.value) "
        "FROM readings r WHERE {w} GROUP BY r.device "
        "ORDER BY r.device LIMIT 4",
        # Wide aggregate state over the high-cardinality group key.
        # SUM stays on an INT column: float summation is
        # order-sensitive, and the access path legally reorders rows.
        "SELECT r.ts, COUNT(*), SUM(r.device) FROM readings r WHERE {w} "
        "GROUP BY r.ts ORDER BY COUNT(*) DESC, r.ts LIMIT 6",
    )

    def select_sorted(self) -> dict:
        rng = self.rng
        if rng.random() < 0.5:
            where, params = self.predicate("r")
        else:
            # Single-table sorts don't explode like joins, so half the
            # time keep most of the table: a handful of filtered rows
            # fits any budget, and the 1KB leg must genuinely spool
            # sort runs and grace-partition aggregate state.
            where, params = "r.value >= ?", [round(rng.uniform(0, 25), 3)]
        sql = rng.choice(self.SORT_TEMPLATES).format(w=where)
        return {"kind": "select", "session": self.session_kind(),
                "sql": sql, "params": params}

    def update(self) -> dict:
        rng = self.rng
        where, params = self.predicate()
        assignment = rng.choice((
            ("value = value + ?", [round(rng.uniform(-5, 5), 3)]),
            ("kind = ?", [rng.choice(KINDS)]),
            ("ts = ?", [rng.randint(0, 999)]),          # indexed column
            ("device = ?, value = ?",
             [rng.randint(0, 9), round(rng.uniform(0, 100), 3)]),
        ))
        return {"kind": "update", "session": self.session_kind(),
                "sql": "UPDATE readings SET %s WHERE %s"
                       % (assignment[0], where),
                "params": assignment[1] + params}

    def delete(self) -> dict:
        where, params = self.predicate()
        return {"kind": "delete", "session": self.session_kind(),
                "sql": "DELETE FROM readings WHERE " + where,
                "params": params}


def _populate(universes, gen: StatementGenerator) -> None:
    rng = gen.rng
    device_rows = [(d, "owner%d" % (d % 4), d % 3) for d in range(10)]
    zone_rows = [(z, "region%d" % (z % 2)) for z in range(3)]
    inserts = [gen.insert_reading() for _ in range(250)]
    for universe in universes:
        for device, owner, zone in device_rows:
            universe.sessions["public"].execute(
                "INSERT INTO devices VALUES (?, ?, ?)",
                (device, owner, zone))
        for zone, region in zone_rows:
            universe.sessions["public"].execute(
                "INSERT INTO zones VALUES (?, ?)", (zone, region))
    for op in inserts:
        for universe in universes:
            status = run_one(universe, op)
            assert status[0] == "rowcount", status
    for universe in universes:
        universe.sessions["public"].execute("ANALYZE")


def _plan_shapes(db) -> set:
    shapes = set()
    for _stmt, prepared, _tables in db._dml_cache.values():
        shapes.add(type(prepared.plan))
    return shapes


def _run_differential(seed: int, n_statements: int,
                      batch_size=None, work_mem=None,
                      require_spill: bool = False,
                      workers=None, gangs=None) -> None:
    tag = "[REPRO_DIFF_SEED=%d]" % seed
    rng = random.Random(seed)
    gen = StatementGenerator(rng)
    optimized = Universe(naive=False, batch_size=batch_size,
                         work_mem=work_mem, workers=workers)
    reference = Universe(naive=True, work_mem=0)
    universes = (optimized, reference)
    _populate(universes, gen)
    assert optimized.state() == reference.state(), \
        "%s populated state diverged" % tag
    spilled_before = SPILL_STATS.snapshot()

    executed = 0
    optimized_shapes, reference_shapes = set(), set()
    readers = None
    for i in range(n_statements):
        if i % SNAPSHOT_EVERY == 0:
            readers, first = _open_readers(
                universes, KINDS[i // SNAPSHOT_EVERY % len(KINDS)], tag)
        elif i % SNAPSHOT_EVERY == SNAPSHOT_HELD:
            _check_readers(universes, readers, first, tag)
            readers = None
        op = gen.statement()
        got = run_one(optimized, op)
        want = run_one(reference, op)
        assert got == want, (
            "%s statement %d diverged\n  op: %r\n  optimized: %r\n"
            "  reference: %r" % (tag, i, op, got, want))
        if op["kind"] in ("update", "delete", "insert"):
            assert optimized.state() == reference.state(), (
                "%s table state diverged after statement %d: %r"
                % (tag, i, op))
        # Sample the DML plan caches each round (ANALYZE evicts them).
        optimized_shapes |= _plan_shapes(optimized.db)
        reference_shapes |= _plan_shapes(reference.db)
        executed += 1
    if readers is not None:
        _check_readers(universes, readers, first, tag)

    # Sanity: the optimized side must actually have exercised indexed
    # DML plans — otherwise this was full-scan vs full-scan and proved
    # nothing about the unified planner — while the reference side must
    # never have strayed from full scans.
    assert optimized_shapes & {IndexScan, IndexRangeScan}, optimized_shapes
    assert reference_shapes <= {Scan}, reference_shapes
    # The workers legs must genuinely have forked spilled-partition
    # gangs, or the matrix quietly degraded to serial-vs-naive and
    # proved nothing about the gang.
    if gangs is not None:
        assert gangs, "%s workers=%d forked no gang" % (tag, workers)
    # Under a tight budget the run must actually have exercised the
    # grace-spill machinery — hash joins, external sorts, AND grace
    # aggregation/distinct — or the work_mem matrix proves nothing.
    if require_spill:
        spilled_after = SPILL_STATS.snapshot()
        for counter in ("spills", "sort_spills", "agg_spills"):
            assert spilled_after[counter] > spilled_before[counter], (
                "%s no %s under work_mem=%r" % (tag, counter, work_mem))


def test_differential_seeded():
    """The headline run: 500+ statements under the configured seed
    (the floor holds even when REPRO_DIFF_STATEMENTS is set lower)."""
    _run_differential(SEED, max(N_STATEMENTS, 500))


def test_differential_shifted_seed():
    """A short independent run on a derived seed, so a single lucky
    seed cannot hide a divergence class entirely."""
    _run_differential(SEED ^ 0x5EED, 150)


def test_differential_batch_size_one():
    """Degenerate one-row batches: every batch boundary that can exist
    does exist, so any result that depends on where a batch ends (the
    label-run memo, the MVCC fast path, limit/offset slicing) diverges
    from the row-at-a-time reference here."""
    _run_differential(SEED ^ 0xBA7C1, 150, batch_size=1)


def test_differential_batch_size_two():
    """Two-row batches: the smallest size where a batch can actually
    mix labels, visibilities, and predicate outcomes."""
    _run_differential(SEED ^ 0xBA7C2, 150, batch_size=2)


@pytest.mark.parametrize("workers", [0, 2])
def test_differential_workers(workers, gang_log):
    """The parallel-execution matrix leg: the same adversarial stream
    under a 1KB budget, serially and with the spilled hash joins and
    aggregates fanning their grace partitions out to a forked gang.
    Workers move partition joins, folds and their spill counters into
    child processes; rows, labels, rowcounts, and error types must
    still match the naive serial reference statement-for-statement,
    and the ``workers=2`` leg must really have forked."""
    _run_differential(SEED ^ 0x70C5 ^ workers, 150, batch_size=32,
                      work_mem=1024, workers=workers,
                      gangs=gang_log if workers else None)


def test_differential_workers_spilled(gang_log):
    """Three workers, so grace partitions split into uneven ranges,
    on a stream that must exercise every spilling operator while the
    naive reference replays everything serially in memory."""
    _run_differential(SEED ^ 0x70C5 ^ 0x53A1, 120, batch_size=32,
                      work_mem=1024, workers=3, require_spill=True,
                      gangs=gang_log)


@pytest.mark.parametrize("work_mem,batch_size", [
    (64 * 1024, None),
    (64 * 1024, 1),
    (1024, None),
    (1024, 1),
])
def test_differential_work_mem(work_mem, batch_size):
    """The spill matrix: the same adversarial join stream under 64KB
    and 1KB budgets, at the default and degenerate batch sizes.  A 1KB
    budget forces every hash-join build over a few rows through the
    grace partitioner (recursively), so spilled and in-memory
    executions are cross-checked row-for-row against the naive
    executor — including labels, rowcounts, and error types."""
    _run_differential(SEED ^ 0x53A1 ^ work_mem ^ (batch_size or 0), 120,
                      batch_size=batch_size, work_mem=work_mem,
                      require_spill=(work_mem <= 1024))
