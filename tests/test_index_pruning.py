"""Index probes drop the entries of versions dead to every snapshot.

``Table.probe`` removes, copy-on-write, the index entries whose
versions no open or future snapshot can see: the creator aborted, or
the deleter committed below the snapshot floor.  These tests pin what
that may and may not change: probes return the same rows as the naive
full-scan executor, an old snapshot still reads its versions through
the index (before and after VACUUM), a self-join that prunes the index
it is scanning loses no rows, VACUUM reclaims the same heap versions,
and the WAL is byte-identical with and without pruning.
"""

from __future__ import annotations

import pytest

from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database, indexes
from repro.db.dump import dump_database
from repro.db.indexes import HashIndex, OrderedIndex

KINDS = ("hash", "ordered")


def _database(kind: str, **options) -> Database:
    db = Database(AuthorityState(idgen=SeededIdGenerator(5)), seed=5,
                  **options)
    session = db.connect()
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)")
    session.execute("CREATE %sINDEX t_grp ON t (grp)"
                    % ("ORDERED " if kind == "ordered" else ""))
    return db


def _entries(db: Database, key) -> int:
    """Index entries for ``key`` in ``t_grp``, read without probing."""
    index = db.catalog.get_table("t").indexes["t_grp"]
    if isinstance(index, HashIndex):
        return len(index._map.get(key, ()))
    return sum(1 for _tid in index.scan_prefix(key))


def _rows(session, sql, params=()):
    return sorted(tuple(row) for row in session.query(sql, params))


def _disable_pruning(monkeypatch):
    monkeypatch.setattr(HashIndex, "prune", lambda self, key, dead: None)
    monkeypatch.setattr(OrderedIndex, "prune",
                        lambda self, key, dead: None)


@pytest.mark.parametrize("kind", KINDS)
def test_probe_after_updates_leaves_one_entry(kind):
    """N committed updates of one row leave N + 1 entries under its
    key; the next probe returns the naive executor's rows and leaves
    one entry."""
    updates = 12
    optimized = _database(kind)
    naive = _database(kind, naive_plans=True)
    for db in (optimized, naive):
        session = db.connect()
        session.execute("INSERT INTO t VALUES (1, 7, 0)")
        session.execute("INSERT INTO t VALUES (2, 8, 0)")
        for i in range(updates):
            session.execute("UPDATE t SET v = ? WHERE id = 1", (i + 1,))
    assert _entries(optimized, (7,)) == updates + 1
    before = indexes.COUNTERS.entries_pruned
    query = "SELECT id, grp, v FROM t WHERE grp = 7"
    got = _rows(optimized.connect(), query)
    assert got == _rows(naive.connect(), query) == [(1, 7, updates)]
    assert _entries(optimized, (7,)) == 1
    assert indexes.COUNTERS.entries_pruned - before == updates
    assert optimized.stats()["index"]["entries_pruned"] >= updates
    # The heap keeps every version until VACUUM.
    assert optimized.catalog.get_table("t").version_count == updates + 2


@pytest.mark.parametrize("kind", KINDS)
def test_old_snapshot_reads_through_pruning_probes_and_vacuum(kind):
    """Versions an open snapshot still needs survive both the probes of
    other sessions and VACUUM; older ones are pruned meanwhile.  The
    reader begins while an update is in flight, so the version that
    update supersedes stays visible to the reader after the update
    commits: the floor is the reader's oldest in-progress xid, not its
    own."""
    db = _database(kind)
    writer = db.connect()
    writer.execute("INSERT INTO t VALUES (1, 7, 0)")
    for v in (1, 2, 3):
        writer.execute("UPDATE t SET v = ? WHERE id = 1", (v,))
    in_flight = db.connect()
    in_flight.execute("BEGIN")
    in_flight.execute("UPDATE t SET v = 4 WHERE id = 1")
    reader = db.connect()
    reader.execute("BEGIN")
    in_flight.execute("COMMIT")
    query = "SELECT v FROM t WHERE grp = 7"
    assert _rows(reader, query) == [(3,)]
    for v in (5, 6):
        writer.execute("UPDATE t SET v = ? WHERE id = 1", (v,))
    assert _rows(writer, query) == [(6,)]
    # The three versions older than the reader's snapshot are pruned;
    # the reader's version and the three after it stay.
    assert _entries(db, (7,)) == 4
    assert _rows(reader, query) == [(3,)]
    assert _rows(reader, "SELECT v FROM t WHERE id = 1") == [(3,)]
    assert db.vacuum() == 3
    assert _rows(reader, query) == [(3,)]
    assert _rows(reader, "SELECT v FROM t WHERE id = 1") == [(3,)]
    reader.execute("COMMIT")
    assert _rows(writer, query) == [(6,)]
    assert _entries(db, (7,)) == 1


@pytest.mark.parametrize("batch_size", [None, 1, 0])
@pytest.mark.parametrize("kind", KINDS)
def test_self_join_pruning_its_own_index(kind, batch_size):
    """The inner side of an index-loop self-join prunes the index the
    outer side is still walking; copy-on-write pruning keeps the outer
    walk intact, so the rows equal the naive executor's."""
    optimized = _database(kind, batch_size=batch_size)
    naive = _database(kind, naive_plans=True)
    for db in (optimized, naive):
        session = db.connect()
        for i in range(1, 21):
            session.execute("INSERT INTO t VALUES (?, ?, ?)",
                            (i, i % 4, i))
        for _ in range(3):
            session.execute("UPDATE t SET v = v + 1 WHERE v >= 0")
    query = ("SELECT a.id, b.id, b.v FROM t a JOIN t b ON b.grp = a.grp "
             "WHERE a.grp BETWEEN 0 AND 9")
    plan = "\n".join(row[0] for row in
                     optimized.connect().query("EXPLAIN " + query))
    assert "IndexLoopJoin" in plan and "using t_grp" in plan
    before = indexes.COUNTERS.entries_pruned
    want = _rows(naive.connect(), query)
    assert len(want) == 4 * 5 * 5
    assert _rows(optimized.connect(), query) == want
    assert indexes.COUNTERS.entries_pruned - before == 60
    assert _rows(optimized.connect(), query) == want


@pytest.mark.parametrize("kind", KINDS)
def test_vacuum_after_pruning_reclaims_the_same_versions(kind,
                                                         monkeypatch):
    def run() -> int:
        db = _database(kind)
        session = db.connect()
        for i in range(1, 9):
            session.execute("INSERT INTO t VALUES (?, ?, ?)", (i, i % 2, i))
        for v in range(5):
            session.execute("UPDATE t SET v = ? WHERE grp = 1", (v,))
            session.query("SELECT id FROM t WHERE grp = 0")
        session.execute("DELETE FROM t WHERE id = 2")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (9, 0, 0)")
        session.execute("ROLLBACK")
        for key in (0, 1):
            session.query("SELECT id FROM t WHERE grp = ?", (key,))
        reclaimed = db.vacuum()
        table = db.catalog.get_table("t")
        for index in table.indexes.values():
            assert len(index) == table.version_count == 7
        assert _rows(session, "SELECT id, v FROM t WHERE grp = 1") == \
            [(1, 4), (3, 4), (5, 4), (7, 4)]
        return reclaimed

    pruned = run()
    with monkeypatch.context() as patch:
        _disable_pruning(patch)
        assert run() == pruned == 4 * 5 + 1 + 1


@pytest.mark.parametrize("kind", KINDS)
def test_unique_insert_over_dead_key(kind):
    """A unique check that meets only dead versions of its key prunes
    them and lets the insert through."""
    db = _database(kind)
    session = db.connect()
    session.execute("INSERT INTO t VALUES (1, 7, 0)")
    session.execute("DELETE FROM t WHERE id = 1")
    session.execute("INSERT INTO t VALUES (1, 7, 1)")
    session.execute("BEGIN")
    session.execute("INSERT INTO t VALUES (2, 7, 2)")
    session.execute("ROLLBACK")
    session.execute("INSERT INTO t VALUES (2, 7, 3)")
    pk = db.catalog.get_table("t").unique_indexes[0][1]
    assert len(pk._map[(1,)]) == len(pk._map[(2,)]) == 1
    assert _rows(session, "SELECT id, v FROM t WHERE grp = 7") == \
        [(1, 1), (2, 3)]


@pytest.mark.parametrize("kind", KINDS)
def test_wal_and_recovery_unchanged_by_pruning(kind, tmp_path,
                                               monkeypatch):
    """Pruning is invisible to durability: the log is byte-identical
    with and without it, and recovery reproduces the dump."""
    authority = AuthorityState(idgen=SeededIdGenerator(9))
    owner = authority.create_principal("owner")
    tag = authority.create_tag("secret", owner=owner.id)

    def run(path):
        db = Database(authority, wal=str(path))
        public = db.connect()
        public.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)")
        public.execute("CREATE %sINDEX t_grp ON t (grp)"
                       % ("ORDERED " if kind == "ordered" else ""))
        process = IFCProcess(authority, owner.id)
        process.add_secrecy(tag.id)
        secret = db.connect(process)
        for i in range(1, 7):
            (secret if i % 3 == 0 else public).execute(
                "INSERT INTO t VALUES (?, ?, ?)", (i, i % 2, i))
        for v in range(4):
            public.execute("UPDATE t SET v = ? WHERE grp = 1", (v,))
            secret.execute("UPDATE t SET v = ? WHERE id = 3", (v,))
            public.query("SELECT id FROM t WHERE grp = 1")
        public.execute("DELETE FROM t WHERE id = 2")
        public.execute("INSERT INTO t VALUES (2, 0, 20)")
        return db

    pruned = run(tmp_path / "pruned.wal")
    with monkeypatch.context() as patch:
        _disable_pruning(patch)
        run(tmp_path / "plain.wal")
    assert (tmp_path / "pruned.wal").read_bytes() == \
        (tmp_path / "plain.wal").read_bytes()
    recovered = Database(authority)
    recovered.recover(str(tmp_path / "pruned.wal"))
    assert dump_database(recovered) == dump_database(pruned)
