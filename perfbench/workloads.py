"""The benchmark's three workloads.

Each workload builds its system from the seed (``setup``), produces
one operation at a time from the seed (``next_op``), executes it
through the engine's public API (``run_op``), and afterwards checks
every recorded output against an independent reference (``check``).
One client drives each workload in a closed loop: the next operation
is sent only when the previous one has returned.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional, Tuple

from repro.apps.cartel import (
    CarTelApp,
    SensorProcessor,
    TraceGenerator,
    build_portal,
    install_driveupdate_trigger,
)
from repro.core import AuthorityState, IFCProcess, SeededIdGenerator
from repro.db import Database
from repro.db.dump import _check_and_load, dump_database
from repro.db.physical import DEFAULT_BATCH_SIZE
from repro.platform.runtime import IFRuntime
from repro.platform.web import Request
from repro.workloads import TPCCConfig, TPCCWorkload
from repro.workloads.cartel_mix import REQUEST_MIX
from repro.workloads.tpcc import MIX as TPCC_MIX

from . import checks


class OpFailed(RuntimeError):
    """An operation did not succeed (non-200 response, serialization
    abort, ...)."""


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


class Workload:
    """Interface shared by the three workloads (see module doc)."""

    name = ""
    #: Latency percentile reported as ``tail_ms``.  Fixed per workload
    #: so the metric means the same thing on every run; it needs at
    #: least ten samples beyond it (see ``worker.tail``).
    tail_percentile = 0.99

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self, i: int):
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def keep(self, records: list, record) -> None:
        """Keep an operation's output for :meth:`check` (called after
        the operation's latency sample is taken)."""
        records.append(record)

    def check(self, records: list) -> Dict[str, object]:
        """Raise :class:`checks.CheckFailed` on a wrong output; return
        facts about the check for the run's audit record."""
        raise NotImplementedError

    def databases(self) -> List[Database]:
        raise NotImplementedError

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError

    def settings(self) -> Dict[str, object]:
        return {}

    def window_stats(self) -> Dict[str, float]:
        """Workload-side counters of the timed window (vacuum time, ...)."""
        return {}

    def close(self) -> None:
        for db in self.databases():
            db.close()


class Deck:
    """Operation kinds dealt from a shuffled deck of 100 cards that holds
    the mix in exact proportion (the TPC-C specification's card-deck
    method).  Every run then sees the same mix, so a median that falls
    between two kinds of operation does not move with sampling noise."""

    def __init__(self, mix, rng: random.Random):
        self.cards = [kind for kind, weight in mix
                      for _ in range(round(weight * 100))]
        if len(self.cards) != 100:
            raise ValueError("mix weights must be whole percentages")
        self.rng = rng
        self.position = len(self.cards)

    def deal(self):
        if self.position == len(self.cards):
            self.rng.shuffle(self.cards)
            self.position = 0
        self.position += 1
        return self.cards[self.position - 1]


def table_sizes(db: Database) -> Dict[str, Dict[str, int]]:
    return {name: {"versions": table.version_count, "pages": table.pages}
            for name, table in sorted(db.catalog.tables.items())}


# ---------------------------------------------------------------------------
# cartel-web: the Figure 3 request mix through WebApp.handle
# ---------------------------------------------------------------------------

class _CarTel:
    """A populated CarTel deployment (as ``repro.bench.build_cartel_stack``
    builds it, plus the choice of reference plans)."""

    def __init__(self, seed: int, *, naive: bool, n_users: int,
                 cars_per_user: int, measurements: int,
                 friends_per_user: int):
        authority = AuthorityState(idgen=SeededIdGenerator(seed))
        self.db = Database(authority, seed=seed, naive_plans=naive,
                           batch_size=DEFAULT_BATCH_SIZE, work_mem=0,
                           workers=0)
        self.app = CarTelApp(self.db, IFRuntime(authority))
        install_driveupdate_trigger(self.app)
        self.web = build_portal(self.app)
        self.usernames = ["user%d" % i for i in range(1, n_users + 1)]
        userids = []
        car_ids = []
        for name in self.usernames:
            userid = self.app.signup(name, "pw-" + name)
            userids.append(userid)
            for _ in range(cars_per_user):
                car_ids.append(self.app.add_car(userid))
        for i, userid in enumerate(userids):
            for k in range(1, friends_per_user + 1):
                friend = userids[(i + k) % len(userids)]
                if friend != userid:
                    self.app.befriend(userid, friend)
        processor = SensorProcessor(self.app)
        processor.process_measurements(
            TraceGenerator(car_ids, seed=seed).measurements(measurements))
        self.db.analyze()
        self.tokens = [self.web.login(name, "pw-" + name)
                       for name in self.usernames]

    def handle(self, path: str, user: int, params=None):
        return self.web.handle(Request(path, params=params or {},
                                       session_token=self.tokens[user]))


class CartelWeb(Workload):
    name = "cartel-web"
    tail_percentile = 0.99
    SCALES = {
        "full": dict(n_users=12, cars_per_user=2, measurements=2000,
                     friends_per_user=2),
        "small": dict(n_users=4, cars_per_user=2, measurements=200,
                      friends_per_user=1),
    }

    def setup(self) -> None:
        self.config = self.SCALES[self.scale]
        self.stack = _CarTel(self.seed, naive=False, **self.config)
        self.rng = random.Random(self.seed)
        self.deck = Deck(REQUEST_MIX, self.rng)
        self.first: Dict[Tuple[str, int], tuple] = {}
        self.repeats = 0
        self.changed: List[Tuple[str, int]] = []

    def next_op(self, i: int):
        return self.deck.deal(), self.rng.randrange(self.config["n_users"])

    def run_op(self, op):
        path, user = op
        response = self.stack.handle(path, user)
        if response.status != 200:
            raise OpFailed("%s returned %d" % (path, response.status))
        return path, user, response.status, response.body

    def keep(self, records: list, record) -> None:
        # The scripts in the mix only read, so every response to a
        # script and user must equal the first one.  Comparing here
        # instead of keeping every body keeps the run's memory
        # independent of how many requests it completes.
        key = record[:2]
        first = self.first.get(key)
        if first is None:
            self.first[key] = record
            records.append(record)
        else:
            self.repeats += 1
            if record[2:] != first[2:] and len(self.changed) < 5:
                self.changed.append(key)

    def check(self, records: list) -> Dict[str, object]:
        if self.changed:
            raise checks.CheckFailed("responses changed between identical "
                                     "requests: %r" % (self.changed,))
        # Reference: the same deployment from the same seed, planned
        # with the naive executor (full scans, nested loops, no batching).
        reference = _CarTel(self.seed, naive=True, **self.config)
        expected = {}
        for path, user in {(r[0], r[1]) for r in records}:
            response = reference.handle(path, user)
            checks.check_status("reference %s" % path, response.status, 200)
            expected[(path, user)] = response.body
        checked = checks.check_responses(records, expected)
        # Section 6.1: a URL naming a user who delegated nothing to the
        # requester contaminates the script, which may then not reply.
        stranger = self.stack.usernames[self.config["n_users"] // 2]
        probe = self.stack.handle("/drives.php", 0, {"user": stranger})
        checks.check_status("/drives.php?user=%s" % stranger,
                            probe.status, 403)
        # Query-by-Label: cars, locations and drives carry their owner's
        # tags, so a process with an empty label sees none of them.
        authority = self.stack.db.authority
        nobody = self.stack.db.connect(IFCProcess(
            authority, authority.create_principal("nobody").id))
        for table in ("Cars", "Locations", "Drives"):
            seen = nobody.query("SELECT COUNT(*) FROM %s" % table)[0][0]
            if seen:
                raise checks.CheckFailed("an empty-label process sees %d "
                                         "rows of %s" % (seen, table))
        reference.db.close()
        return {"responses_checked": checked + self.repeats,
                "distinct_requests": len(expected)}

    def databases(self) -> List[Database]:
        return [self.stack.db]

    def sizes(self) -> Dict[str, object]:
        return {"tables": table_sizes(self.stack.db),
                "buffer_frames": "unbounded", **self.config}


# ---------------------------------------------------------------------------
# tpcc-durable: DBT-2 mix, WAL fsync per commit, periodic VACUUM
# ---------------------------------------------------------------------------

class TpccDurable(Workload):
    name = "tpcc-durable"
    tail_percentile = 0.99
    TAGS_PER_LABEL = 4
    VACUUM_EVERY = 200
    SCALES = {
        # Ten districts per warehouse, as in the TPC-C specification:
        # the loader's W_YTD (300 000) equals ten initial D_YTDs, which
        # consistency condition 1 relies on.
        "full": dict(warehouses=2, districts_per_warehouse=10,
                     customers_per_district=30, items=500,
                     initial_orders_per_district=15),
        "small": dict(warehouses=1, districts_per_warehouse=10,
                      customers_per_district=10, items=50,
                      initial_orders_per_district=6),
    }
    _instances = 0

    def _database(self, wal: Optional[str]) -> Database:
        return Database(self.authority, seed=self.seed, wal=wal,
                        group_commit_ms=0, batch_size=DEFAULT_BATCH_SIZE,
                        work_mem=0, workers=0)

    def setup(self) -> None:
        TpccDurable._instances += 1
        self.wal_path = os.path.join(
            self.workdir, "tpcc-%d-%d.wal" % (os.getpid(),
                                              TpccDurable._instances))
        if os.path.exists(self.wal_path):
            os.remove(self.wal_path)
        self.authority = AuthorityState(idgen=SeededIdGenerator(self.seed))
        self.db = self._database(self.wal_path)
        self.config = TPCCConfig(seed=self.seed,
                                 tags_per_label=self.TAGS_PER_LABEL,
                                 **self.SCALES[self.scale])
        self.tpcc = TPCCWorkload(self.db, self.config)
        self.tpcc.load()
        self.vacuum_seconds = 0.0
        self.vacuums = 0
        self.reclaimed = 0
        self.new_orders_at_start = self.tpcc.stats.new_order_commits
        self.recovered: Optional[Database] = None
        self.deck = Deck(TPCC_MIX, random.Random(self.seed))

    def next_op(self, i: int):
        return i, self.deck.deal()

    def run_op(self, op):
        i, kind = op
        if i and i % self.VACUUM_EVERY == 0:
            # Maintenance on a fixed cadence; the transaction that waits
            # behind it is charged its time.
            start = time.perf_counter()
            self.reclaimed += self.db.vacuum()
            self.vacuum_seconds += time.perf_counter() - start
            self.vacuums += 1
        aborts = self.tpcc.stats.serialization_aborts
        self.tpcc.run_one(kind)
        if self.tpcc.stats.serialization_aborts != aborts:
            raise OpFailed("%s: serialization abort" % kind)
        return kind

    def window_stats(self) -> Dict[str, float]:
        return {"vacuum_seconds": self.vacuum_seconds,
                "vacuums": self.vacuums,
                "versions_reclaimed": self.reclaimed,
                "new_orders": (self.tpcc.stats.new_order_commits
                               - self.new_orders_at_start)}

    def check(self, records: list) -> Dict[str, object]:
        session = self.tpcc.session            # holds every tpcc tag
        checks.check_tpcc_consistency(
            session.query("SELECT w_id, w_ytd FROM Warehouse"),
            session.query("SELECT d_w_id, d_id, d_ytd, d_next_o_id "
                          "FROM District"),
            session.query("SELECT o_w_id, o_d_id, o_id, o_ol_cnt "
                          "FROM Orders"),
            session.query("SELECT no_w_id, no_d_id, no_o_id FROM NewOrder"),
            session.query("SELECT ol_w_id, ol_d_id, ol_o_id FROM OrderLine"))
        # Every tuple carries the TPC-C client's tags: a process without them
        # sees nothing.
        nobody = self.db.connect(IFCProcess(
            self.authority, self.authority.create_principal("nobody").id))
        for table in ("Warehouse", "Customer", "OrderLine"):
            seen = nobody.query("SELECT COUNT(*) FROM %s" % table)[0][0]
            if seen:
                raise checks.CheckFailed("an empty-label process sees %d "
                                         "rows of %s" % (seen, table))
        # Recovery: replay the run's log into a fresh database sharing
        # the authority state (tag ids must resolve identically).
        log_bytes = os.path.getsize(self.wal_path)
        start = time.perf_counter()
        self.recovered = self._database(None)
        replay = self.recovered.recover(self.wal_path)
        recovery_s = time.perf_counter() - start
        checks.check_same_dump(_check_and_load(dump_database(self.db)),
                               _check_and_load(
                                   dump_database(self.recovered)))
        return {"recovery_s": recovery_s,
                "replayed_transactions": replay["transactions"],
                "log_bytes": log_bytes}

    def databases(self) -> List[Database]:
        return [self.db] + ([self.recovered] if self.recovered else [])

    def close(self) -> None:
        try:
            super().close()
        finally:
            if os.path.exists(self.wal_path):
                os.remove(self.wal_path)

    def sizes(self) -> Dict[str, object]:
        return {"tables": table_sizes(self.db), "buffer_frames": "unbounded",
                "tags_per_label": self.TAGS_PER_LABEL,
                **self.SCALES[self.scale]}

    def settings(self) -> Dict[str, object]:
        return {"flush_policy": "fsync per commit (group_commit_ms=0)",
                "wal": "local file in the checkout",
                "vacuum_cadence": "VACUUM every %d transactions, charged "
                                  "to the next one" % self.VACUUM_EVERY}


# ---------------------------------------------------------------------------
# label-analytics: Query-by-Label analytics over many owner labels
# ---------------------------------------------------------------------------

class LabelAnalytics(Workload):
    name = "label-analytics"
    tail_percentile = 0.9
    #: The fixed query cycle.  The cheap index filter fills two of five
    #: slots, so the median and the p90 fall inside the scan queries'
    #: latencies rather than on the boundary with the filter's.
    CYCLE = ("filter", "join", "aggregate", "topn", "filter")
    SQL = {
        "aggregate": "SELECT store, COUNT(*), SUM(amount) FROM sales "
                     "WHERE amount > %d AND qty <= %d GROUP BY store",
        "join": "SELECT f.store, COUNT(*), SUM(c.segment) FROM sales f "
                "JOIN customers c ON c.cid = f.cid "
                "WHERE f.qty = %d AND f.day BETWEEN %d AND %d "
                "GROUP BY f.store",
        "topn": "SELECT id, amount FROM sales WHERE product < %d "
                "ORDER BY amount DESC, id LIMIT %d",
        "filter": "SELECT id, cid, amount FROM sales "
                  "WHERE day = %d AND qty <= %d",
    }
    SCALES = {
        "full": dict(facts=20000, customers=1000, tags=200, held=120,
                     work_mem=64 * 1024),
        "small": dict(facts=3000, customers=200, tags=40, held=24,
                      work_mem=4 * 1024),
    }
    #: One fact row in this many is public (carries no owner tag).
    PUBLIC_EVERY = 10
    STORES = 50
    INSERT_ROWS = 250

    def setup(self) -> None:
        cfg = self.config = self.SCALES[self.scale]
        rng = random.Random(self.seed)
        self.workers = cpu_count()
        authority = AuthorityState(idgen=SeededIdGenerator(self.seed))
        owners = authority.create_principal("owners")
        tag_ids = [authority.create_tag("owner-%d" % i, owner=owners.id).id
                   for i in range(cfg["tags"])]
        # The fact table's page count is only known after loading, so the
        # cache is sized from the rows per page; ``sizes`` checks that it
        # really is smaller than the loaded table.
        self.db = Database(authority, seed=self.seed,
                           batch_size=DEFAULT_BATCH_SIZE,
                           work_mem=cfg["work_mem"], workers=self.workers,
                           buffer_pages=self._frames(cfg["facts"]))
        admin = self.db.connect()
        # The dimension's join key is not indexed, so the join is a hash
        # join (an indexed key would plan an index nested loop instead).
        admin.execute("CREATE TABLE customers (id INT PRIMARY KEY, "
                      "cid INT, segment INT, region TEXT, name TEXT)")
        admin.execute("CREATE TABLE sales (id INT PRIMARY KEY, cid INT, "
                      "store INT, product INT, qty INT, amount INT, "
                      "day INT, note TEXT)")
        admin.execute("CREATE ORDERED INDEX sales_day ON sales (day)")
        customers = [(c + 1, c, rng.randrange(12),
                      "region-%d" % rng.randrange(8), "customer-%06d" % c)
                     for c in range(cfg["customers"])]
        self.segments = {c[1]: c[2] for c in customers}
        self._insert(admin, "customers", customers)
        self.facts: List[Tuple[Optional[int], tuple]] = []
        by_tag: Dict[Optional[int], List[tuple]] = {}
        for i in range(cfg["facts"]):
            # Each store's rows belong to a few owners, so a per-store
            # aggregate's label is the union of a handful of tags.
            owner = rng.randrange(cfg["tags"])
            tag = None if rng.randrange(self.PUBLIC_EVERY) == 0 \
                else tag_ids[owner]
            row = (i, rng.randrange(cfg["customers"]),
                   owner * self.STORES // cfg["tags"], rng.randrange(2000),
                   rng.randint(1, 20), rng.randint(1, 10000),
                   rng.randrange(365))
            self.facts.append((tag, row))
            by_tag.setdefault(tag, []).append(
                row + ("note-%05d" % rng.randrange(100000),))
        # Each owner writes its own rows: the tuples take the writer's
        # label (section 4.2).
        for tag in sorted(by_tag, key=lambda t: -1 if t is None else t):
            writer = IFCProcess(authority, owners.id)
            if tag is not None:
                writer.add_secrecy(tag)
            self._insert(self.db.connect(writer), "sales", by_tag[tag])
        self.db.analyze()
        self.held = frozenset(rng.sample(tag_ids, cfg["held"]))
        analyst = IFCProcess(authority,
                             authority.create_principal("analyst").id)
        for tag in sorted(self.held):
            analyst.add_secrecy(tag)
        self.analyst = self.db.connect(analyst)
        self.nobody = self.db.connect(IFCProcess(
            authority, authority.create_principal("nobody").id))
        self.rng = random.Random(self.seed + 1)

    @staticmethod
    def _frames(facts: int) -> int:
        # About 87 fact rows fit an 8 KiB page; a third of the table's
        # pages fit the cache.
        return max(4, facts // 87 // 3)

    def _insert(self, session, table: str, rows: List[tuple]) -> None:
        width = len(rows[0])
        row_marks = "(%s)" % ", ".join("?" * width)
        for i in range(0, len(rows), self.INSERT_ROWS):
            chunk = rows[i:i + self.INSERT_ROWS]
            session.execute("INSERT INTO %s VALUES %s" % (
                table, ", ".join([row_marks] * len(chunk))),
                [v for row in chunk for v in row])

    def next_op(self, i: int):
        # A fixed cycle of shapes keeps the mix fixed; literals come
        # from the seed, inlined as a BI tool sends them, so statements
        # miss the parse and plan caches.
        shape = self.CYCLE[i % len(self.CYCLE)]
        rng = self.rng
        if shape == "aggregate":
            params = (rng.randrange(4000, 6000), rng.randint(8, 12))
        elif shape == "join":
            day = rng.randrange(185)
            params = (rng.randint(1, 20), day, day + 179)
        elif shape == "topn":
            params = (rng.randint(500, 1999), rng.randint(10, 50))
        else:
            params = (rng.randrange(365), rng.randint(1, 20))
        return shape, params

    def run_op(self, op):
        shape, params = op
        rows = self.analyst.query(self.SQL[shape] % params)
        return shape, params, [tuple(r) for r in rows], \
            [r.label.tags for r in rows]

    def check(self, records: list) -> Dict[str, object]:
        visible = checks.visible_facts(self.facts, self.held)
        label_of = {row[checks.ID]: frozenset(() if tag is None else (tag,))
                    for tag, row in self.facts}
        for shape, params, got, labels in records:
            want = checks.expected_result(shape, params, visible,
                                          self.segments)
            checks.check_query(shape, params, got, want)
            checks.check_covered(shape, labels, self.held)
            if shape in ("topn", "filter"):
                checks.check_row_labels(shape, params, labels,
                                        [label_of[r[0]] for r in got])
        # Query-by-Label at its extremes: the analyst counts exactly the
        # rows whose tags it holds; a process with an empty label sees
        # only the public rows.
        public = checks.visible_facts(self.facts, frozenset())
        for session, rows, who in ((self.analyst, visible, "analyst"),
                                   (self.nobody, public, "empty label")):
            got = list(session.query(
                "SELECT COUNT(*), SUM(amount) FROM sales")[0])
            want = [len(rows), sum(r[checks.AMOUNT] for r in rows)]
            if got != want:
                raise checks.CheckFailed("%s: COUNT/SUM %r, expected %r"
                                         % (who, got, want))
        return {"queries_checked": len(records),
                "visible_rows": len(visible), "public_rows": len(public)}

    def databases(self) -> List[Database]:
        return [self.db]

    def sizes(self) -> Dict[str, object]:
        fact_pages = self.db.catalog.get_table("sales").pages
        frames = self.db.buffer_cache.capacity
        if frames >= fact_pages:
            raise RuntimeError("buffer cache (%d frames) must be smaller "
                               "than the fact table (%d pages)"
                               % (frames, fact_pages))
        return {"tables": table_sizes(self.db), "buffer_frames": frames,
                "fact_pages": fact_pages, "work_mem": self.config["work_mem"],
                "workers": self.workers, "owner_tags": self.config["tags"],
                "analyst_tags": self.config["held"]}


WORKLOADS = {cls.name: cls for cls in (CartelWeb, TpccDurable,
                                       LabelAnalytics)}
