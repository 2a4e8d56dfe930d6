"""Durability: WAL logging, group commit, fault injection, recovery.

The centrepiece is the crash matrix: a seeded workload (DML with
labels, DDL, sequences, an abort) runs against a WAL-backed database
while ``db/faultinject.py`` kills the "process" at *every* write
boundary, inside every record (torn and short writes), and at every
fsync.  After each simulated crash a fresh database recovers from the
log and must be dump-identical — rows, labels, ilabels, sequences,
schema — to a reference database that applied exactly the acknowledged
prefix of the workload.  Recovery must also be idempotent (recovering
twice changes nothing).

The same driver backs the CI sweep: ``REPRO_CRASH_POINT=<mode>:<n>``
runs one externally-chosen coordinate (``test_env_crash_point_sweep``),
and on failure the offending WAL file is copied into
``$REPRO_WAL_ARTIFACTS`` for upload.
"""

from __future__ import annotations

import os
import shutil
import threading

import pytest

from repro.core import IFCProcess
from repro.db import Database
from repro.db.dump import dump_database
from repro.db.faultinject import (
    CRASH_MODES,
    ENV_VAR,
    CrashError,
    FaultSpec,
)
from repro.db.wal import WalError, WriteAheadLog, scan_wal


@pytest.fixture(autouse=True)
def _ambient_crash_point(monkeypatch):
    """Capture and clear any externally-set ``REPRO_CRASH_POINT`` so the
    in-process matrix controls its own fault specs; the env-sweep test
    re-reads the captured value to honour the CI coordinate."""
    ambient = os.environ.get(ENV_VAR)
    monkeypatch.delenv(ENV_VAR, raising=False)
    return ambient


# ---------------------------------------------------------------------------
# the seeded workload
# ---------------------------------------------------------------------------
# Each unit performs EXACTLY one WAL record's worth of work (one
# transaction, one DDL statement, or — for the abort — none), so "the
# acknowledged prefix" is well-defined at every crash coordinate.

def _secret_session(db, owner_id, tag_id):
    process = IFCProcess(db.authority, owner_id)
    process.add_secrecy(tag_id)
    return db.connect(process)


def u_create_table(db, o, t):
    db.connect().execute(
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)")


def u_create_index(db, o, t):
    db.connect().execute("CREATE INDEX items_name ON items (name)")


def u_insert_batch(db, o, t):
    s = db.connect()
    with s.atomic():
        s.execute("INSERT INTO items VALUES (1, 'anvil', 3)")
        s.execute("INSERT INTO items VALUES (2, 'rope', 10)")
        s.execute("INSERT INTO items VALUES (3, 'dynamite', 2)")


def u_secret_insert(db, o, t):
    _secret_session(db, o, t).execute(
        "INSERT INTO items VALUES (4, 'classified', 1)")


def u_update(db, o, t):
    db.connect().execute("UPDATE items SET qty = qty + 5 WHERE id <= 2")


def u_secret_update(db, o, t):
    _secret_session(db, o, t).execute(
        "UPDATE items SET qty = 99 WHERE id = 4")


def u_delete(db, o, t):
    db.connect().execute("DELETE FROM items WHERE id = 3")


def u_seq_insert(db, o, t):
    s = db.connect()
    with s.atomic():
        nid = 100 + db.next_sequence("item_id")
        s.execute("INSERT INTO items VALUES (?, 'serial', 0)", (nid,))


def u_abort(db, o, t):
    # Never logged: recovery must not resurrect it, and its xid must
    # not stall the recovered committed horizon (see the vacuum test).
    s = db.connect()
    s.begin()
    s.execute("INSERT INTO items VALUES (50, 'ghost', 0)")
    s.rollback()


def u_create_view(db, o, t):
    db.connect().execute(
        "CREATE VIEW cheap AS SELECT name FROM items WHERE qty < 5")


def u_drop_index(db, o, t):
    db.connect().execute("DROP INDEX items_name")


def u_final_insert(db, o, t):
    s = db.connect()
    with s.atomic():
        nid = 100 + db.next_sequence("item_id")
        s.execute("INSERT INTO items VALUES (?, 'post-ddl', 7)", (nid,))


UNITS = [u_create_table, u_create_index, u_insert_batch, u_secret_insert,
         u_update, u_secret_update, u_delete, u_seq_insert, u_abort,
         u_create_view, u_drop_index, u_final_insert]


@pytest.fixture
def wal_ids(authority):
    """The principal/tag the labeled units write under (created once so
    every database in a test shares identical tag ids)."""
    owner = authority.create_principal("wal_owner")
    tag = authority.create_tag("wal_secret", owner=owner.id)
    return owner.id, tag.id


# ---------------------------------------------------------------------------
# the crash-matrix driver
# ---------------------------------------------------------------------------

def _run_workload(authority, ids, path, spec):
    """Drive UNITS against a WAL-backed database with fault ``spec``,
    mirroring each unit onto a reference database only *after* the
    WAL database acknowledged it.  Returns ``(ref, db, crashed,
    acked)``; ``db`` is None when the crash hit WAL creation itself."""
    ref = Database(authority)
    try:
        log = WriteAheadLog(path, fault=spec)
    except (CrashError, OSError):
        return ref, None, True, 0
    db = Database(authority, wal=log)
    crashed = False
    acked = 0
    for unit in UNITS:
        try:
            unit(db, *ids)
        except (CrashError, WalError):
            crashed = True
            break
        unit(ref, *ids)
        acked += 1
    return ref, db, crashed, acked


def _check_recovery(authority, path, ref, coordinate):
    """Recover ``path`` into a fresh database and require it to be
    dump-identical to the acknowledged prefix, twice (idempotency).
    On failure, stash the WAL for CI artifact upload."""
    try:
        recovered = Database(authority)
        recovered.recover(path)
        want = dump_database(ref)
        assert dump_database(recovered) == want, (
            "recovered state diverges from acknowledged prefix at %s"
            % coordinate)
        recovered.recover(path)
        assert dump_database(recovered) == want, (
            "second recovery is not a no-op at %s" % coordinate)
        assert recovered._sequences == ref._sequences, coordinate
    except BaseException:
        artifacts = os.environ.get("REPRO_WAL_ARTIFACTS")
        if artifacts and os.path.exists(path):
            os.makedirs(artifacts, exist_ok=True)
            shutil.copy(path, os.path.join(
                artifacts, coordinate.replace(":", "-") + ".wal"))
        raise


class TestCrashMatrix:
    def test_clean_run_recovers_identically(self, authority, wal_ids,
                                            tmp_path):
        path = str(tmp_path / "clean.wal")
        ref, db, crashed, acked = _run_workload(authority, wal_ids, path,
                                                None)
        assert not crashed and acked == len(UNITS)
        _check_recovery(authority, path, ref, "clean")

    def test_every_injection_point(self, authority, wal_ids, tmp_path):
        # Clean run first, to enumerate the write/fsync coordinates.
        probe = str(tmp_path / "probe.wal")
        _ref, db, crashed, _acked = _run_workload(authority, wal_ids,
                                                  probe, None)
        assert not crashed
        writes, fsyncs = db.wal.fault.writes, db.wal.fault.fsyncs
        assert writes > len(UNITS) // 2 and fsyncs == writes
        coords = [(mode, n) for mode in CRASH_MODES
                  for n in range(writes)]
        coords += [("fsync", n) for n in range(fsyncs)]
        for mode, n in coords:
            coordinate = "%s:%d" % (mode, n)
            path = str(tmp_path / ("%s-%d.wal" % (mode, n)))
            ref, _db, crashed, acked = _run_workload(
                authority, wal_ids, path, FaultSpec(mode, n))
            assert crashed, "fault %s never fired" % coordinate
            assert acked < len(UNITS)
            _check_recovery(authority, path, ref, coordinate)

    def test_env_crash_point_sweep(self, authority, wal_ids, tmp_path,
                                   monkeypatch, _ambient_crash_point):
        """The CI sweep entry point: honours an externally-set
        ``REPRO_CRASH_POINT`` coordinate (falls back to a mid-workload
        torn write when run as part of the normal suite)."""
        point = _ambient_crash_point or "torn:5"
        monkeypatch.setenv(ENV_VAR, point)
        path = str(tmp_path / "env.wal")
        # spec=None: WriteAheadLog picks the env coordinate up itself,
        # exactly as a production process would.
        ref, _db, crashed, _acked = _run_workload(authority, wal_ids,
                                                  path, None)
        spec = FaultSpec.parse(point)
        monkeypatch.delenv(ENV_VAR)
        _check_recovery(authority, path, ref, point)
        # The workload issues one write per record plus the magic; a
        # coordinate safely inside that range must actually fire.  A
        # coordinate past the end is still a valid sweep entry — the
        # workload completes and recovery must equal the *full* state.
        if spec.mode in CRASH_MODES and spec.n < 10:
            assert crashed


# ---------------------------------------------------------------------------
# recovery semantics
# ---------------------------------------------------------------------------

class TestRecovery:
    def _recovered(self, authority, wal_ids, tmp_path):
        path = str(tmp_path / "w.wal")
        ref, db, crashed, _ = _run_workload(authority, wal_ids, path, None)
        assert not crashed
        recovered = Database(authority)
        recovered.recover(path)
        return ref, db, recovered, path

    def test_labels_reintern_on_replay(self, authority, wal_ids, tmp_path):
        _ref, _db, recovered, _path = self._recovered(authority, wal_ids,
                                                      tmp_path)
        owner_id, tag_id = wal_ids
        # Query by Label still holds on the recovered heap: the public
        # session cannot see the classified row, the tagged one can.
        public = recovered.connect().query("SELECT id FROM items")
        assert (4,) not in public
        secret = _secret_session(recovered, owner_id, tag_id).query(
            "SELECT id, qty FROM items WHERE id = 4")
        assert secret == [(4, 99)]
        # And the replayed label IS the interned instance, not a copy.
        table = recovered.catalog.get_table("items")
        labels = {v.label for v in table.all_versions() if v.label}
        from repro.core.labels import Label
        assert all(lbl is Label(lbl.tags) for lbl in labels)

    def test_recovered_horizon_unstalled_by_aborts(self, authority,
                                                   wal_ids, tmp_path):
        """Recovery × vacuum: the aborted transaction in the workload
        stalls the crashed database's committed horizon (its dead
        versions linger until a full vacuum), but it was never logged,
        so the recovered database's horizon must be fully advanced —
        the batched-MVCC fast path works immediately."""
        _ref, db, recovered, _path = self._recovered(authority, wal_ids,
                                                     tmp_path)
        tm = db.txn_manager
        assert tm.committed_horizon() < tm.snapshot_floor()
        rtm = recovered.txn_manager
        assert rtm.committed_horizon() == rtm.snapshot_floor()
        # Vacuuming the recovered database reclaims the update/delete
        # chaff without changing what queries see.
        before = recovered.connect().query(
            "SELECT id, name, qty FROM items ORDER BY id")
        assert recovered.vacuum() > 0
        assert recovered.connect().query(
            "SELECT id, name, qty FROM items ORDER BY id") == before

    def test_recover_refuses_after_local_writes(self, authority, wal_ids,
                                                tmp_path):
        _ref, _db, recovered, path = self._recovered(authority, wal_ids,
                                                     tmp_path)
        recovered.connect().execute(
            "INSERT INTO items VALUES (300, 'local', 1)")
        with pytest.raises(WalError):
            recovered.recover(path)

    def test_restart_reopens_and_continues_log(self, authority, wal_ids,
                                               tmp_path):
        """The real restart flow: reopen the same log (tail repair),
        recover from it, keep committing into it — a later recovery
        sees the old and new transactions as one history."""
        path = str(tmp_path / "w.wal")
        _ref, db, crashed, _ = _run_workload(authority, wal_ids, path, None)
        assert not crashed
        db.close()
        with open(path, "ab") as handle:
            handle.write(b"\x03garbage-torn-tail")
        restarted = Database(authority, wal=WriteAheadLog(path))
        restarted.recover()
        restarted.connect().execute(
            "INSERT INTO items VALUES (300, 'after-restart', 1)")
        restarted.close()
        records, _bytes, tail = scan_wal(path)
        assert tail is None          # reopen truncated the garbage
        audit = Database(authority)
        audit.recover(path)
        assert dump_database(audit) == dump_database(restarted)


# ---------------------------------------------------------------------------
# the fsync gate
# ---------------------------------------------------------------------------

class TestFsyncGate:
    def test_failed_fsync_refuses_commit_and_truncates(self, authority,
                                                       tmp_path):
        path = str(tmp_path / "w.wal")
        # fsync #0 is the file magic; #2 hits the second commit.
        log = WriteAheadLog(path, fault=FaultSpec("fsync", 2))
        db = Database(authority, wal=log)
        s = db.connect()
        s.execute("CREATE TABLE t (id INT PRIMARY KEY)")   # fsync #1 (DDL)
        with pytest.raises(WalError):
            s.execute("INSERT INTO t VALUES (1)")
        # Not acknowledged → not visible, and the log is failed sticky.
        assert db.connect().query("SELECT * FROM t") == []
        assert log.failed
        with pytest.raises(WalError):
            db.connect().execute("INSERT INTO t VALUES (2)")
        # The unsynced record was truncated away: recovery sees only
        # the DDL, never a commit the client was told failed.
        recovered = Database(authority)
        report = recovered.recover(path)
        assert report["transactions"] == 0 and report["ddl"] == 1
        assert recovered.connect().query("SELECT * FROM t") == []


# ---------------------------------------------------------------------------
# group commit
# ---------------------------------------------------------------------------

class TestGroupCommit:
    def test_concurrent_commits_share_flushes(self, authority, tmp_path):
        db = Database(authority, wal=str(tmp_path / "g.wal"),
                      group_commit_ms=50)
        setup = db.connect()
        setup.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        sessions = []
        for i in range(6):
            s = db.connect()
            s.begin()
            s.execute("INSERT INTO t VALUES (?)", (i,))
            sessions.append(s)
        barrier = threading.Barrier(len(sessions))
        errors = []

        def commit(sess):
            barrier.wait()
            try:
                sess.commit()
            except BaseException as exc:           # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=commit, args=(s,))
                   for s in sessions]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        wal = db.stats()["wal"]
        assert wal["commits"] == len(sessions)
        # The whole point: fewer fsyncs than commits, with at least one
        # flush absorbing several commits inside the 50ms window.
        assert wal["commit_flushes"] < len(sessions)
        assert wal["group_commit_size"] >= 2
        recovered = Database(authority)
        recovered.recover(str(tmp_path / "g.wal"))
        assert len(recovered.connect().query("SELECT * FROM t")) == \
            len(sessions)


# ---------------------------------------------------------------------------
# configuration and metrics surfacing
# ---------------------------------------------------------------------------

class TestConfig:
    def test_repro_wal_env_enables_logging(self, authority, tmp_path,
                                           monkeypatch):
        waldir = str(tmp_path / "wals")
        monkeypatch.setenv("REPRO_WAL", waldir)
        db = Database(authority)
        assert db.wal is not None
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.connect().execute("INSERT INTO t VALUES (1)")
        assert os.path.getsize(db.wal.path) > 0
        monkeypatch.delenv("REPRO_WAL")
        recovered = Database(authority)
        recovered.recover(db.wal.path)
        assert recovered.connect().query("SELECT * FROM t") == [(1,)]

    def test_wal_counters_in_stats(self, authority, tmp_path):
        db = Database(authority, wal=str(tmp_path / "w.wal"))
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.connect().execute("INSERT INTO t VALUES (1)")
        wal = db.stats()["wal"]
        assert wal["records"] == 2           # one DDL + one commit
        assert wal["commits"] == 1
        assert wal["bytes"] > 0
        assert wal["flushes"] == 2
        assert wal["group_commit_size"] == 1

    def test_no_wal_means_no_logging(self, authority):
        db = Database(authority)
        db.connect().execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.connect().execute("INSERT INTO t VALUES (1)")
        assert db.wal is None
        assert db.stats()["wal"]["records"] == 0
