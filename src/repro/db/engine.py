"""The database engine facade.

:class:`Database` ties everything together: authority state, catalog,
transaction manager, buffer cache, planner, and the statement caches.
It is the analogue of the modified PostgreSQL server of section 7.1.

Two construction-time switches drive the benchmarks:

* ``ifc_enabled=False`` gives the **baseline** ("PostgreSQL"): labels are
  neither stored nor checked, tuple sizes exclude labels, and sessions
  run with an empty label.  Everything else is byte-for-byte the same
  engine, isolating exactly the overhead the paper attributes to IFDB.
* ``buffer_pages``/``io_penalty`` configure the storage model: unbounded
  cache ≈ the paper's in-memory DBT-2 database, a small cache with a
  per-miss penalty ≈ the disk-bound 150-warehouse database.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.authority import AuthorityState
from ..core.idgen import SeededIdGenerator
from ..core.labels import EMPTY_LABEL, Label
from ..errors import AuthorityError, CatalogError, DatabaseError
from ..sql import ast
from ..sql.parser import parse_script, parse_statement
from .catalog import (
    Catalog,
    FunctionDef,
    ProcedureDef,
    TriggerDef,
    ViewDef,
)
from .expressions import Scope
from .metrics import REGISTRY, AuditLog, SlowQueryLog, StatementStats, \
    compile_reader, normalize_sql
from .pages import BufferCache
from .physical import (
    DEFAULT_BATCH_SIZE,
    PreparedDML,
    PreparedSelect,
    explain_plan,
    plan_tables,
)
from .planner import Planner
from .schema import (
    CheckConstraint,
    Column,
    ForeignKeyConstraint,
    LabelCheckConstraint,
    TableSchema,
    UniqueConstraint,
)
from .session import Session
from .stats import StatsManager
from .storage import Table
from .transactions import SNAPSHOT, TransactionManager
from .types import type_by_name
from . import wal as wal_mod


#: Entries each statement cache (parsed statements; SELECT, DML and
#: INSERT plans) may hold.  The caches are keyed on raw SQL text, so a
#: workload embedding fresh literals would otherwise grow them forever.
STATEMENT_CACHE_LIMIT = 512


class StatementCache(dict):
    """A dict capped at :data:`STATEMENT_CACHE_LIMIT` entries.

    Storing a new key into a full cache first evicts the oldest-inserted
    entry (dicts keep insertion order), counted in ``evictions``.
    Lookups are plain dict reads, so a hit costs nothing extra.
    """

    __slots__ = ("evictions",)

    def __init__(self):
        super().__init__()
        self.evictions = 0

    def __setitem__(self, key, value):
        if len(self) >= STATEMENT_CACHE_LIMIT and key not in self:
            del self[next(iter(self))]
            self.evictions += 1
        dict.__setitem__(self, key, value)

    def report(self) -> Dict[str, int]:
        return {"entries": len(self), "evictions": self.evictions,
                "limit": STATEMENT_CACHE_LIMIT}


class PreparedInsert:
    """A planned INSERT: target positions, defaults, compiled sources.

    Either ``row_fns`` (VALUES form: one list of compiled expressions
    per row) or ``select`` (INSERT ... SELECT form) is set.  Compiling
    the value expressions once per statement instead of once per
    execution is a large win for insert-heavy workloads (TPC-C).
    """

    __slots__ = ("table", "target_positions", "defaults", "row_fns",
                 "select")

    def __init__(self, table: Table, target_positions: List[int],
                 defaults: List, row_fns, select):
        self.table = table
        self.target_positions = target_positions
        self.defaults = defaults
        self.row_fns = row_fns
        self.select = select


class Database:
    """An IFDB database instance."""

    def __init__(self, authority: Optional[AuthorityState] = None, *,
                 ifc_enabled: bool = True,
                 page_size: int = 8192,
                 buffer_pages: Optional[int] = None,
                 io_penalty: float = 0.0,
                 deterministic_order: bool = False,
                 default_isolation: str = SNAPSHOT,
                 seed: Optional[int] = None,
                 clock: Optional[Callable[[], float]] = None,
                 naive_plans: bool = False,
                 batch_size: Optional[int] = None,
                 work_mem: Optional[int] = None,
                 slow_query_ms: Optional[float] = None,
                 audit_log: Optional[int] = None,
                 wal: Optional[str] = None,
                 group_commit_ms: Optional[float] = None,
                 workers: Optional[int] = None):
        if authority is None:
            idgen = SeededIdGenerator(seed) if seed is not None else None
            authority = AuthorityState(idgen=idgen)
        self.authority = authority
        self.ifc_enabled = ifc_enabled
        self.page_size = page_size
        self.deterministic_order = deterministic_order
        self.default_isolation = default_isolation
        self.clock = clock or time.time
        self.catalog = Catalog()
        self.txn_manager = TransactionManager()
        self.buffer_cache = BufferCache(capacity=buffer_pages,
                                        io_penalty=io_penalty)
        self.stats_manager = StatsManager(self)
        # Execution batch size: ``None`` defers to the REPRO_BATCH_SIZE
        # environment variable (CI runs the whole suite at 1 to prove
        # batch boundaries can't change results), then the built-in
        # default; 0 pins row-at-a-time execution.  Naive mode always
        # pins row-at-a-time (see Optimizer.exec_batch_size).
        if batch_size is None:
            batch_size = int(os.environ.get("REPRO_BATCH_SIZE",
                                            str(DEFAULT_BATCH_SIZE)))
        self.batch_size = max(0, int(batch_size))
        # Per-operator memory budget in bytes for memory-bounded
        # operators (hash-join builds): ``None`` defers to the
        # ``REPRO_WORK_MEM`` environment variable (CI runs a tier-1
        # job at 1024 to force grace spilling everywhere), then
        # unbounded (0).  The executor reads the live value per
        # statement; the optimizer costs expected spilling with it.
        if work_mem is None:
            work_mem = int(os.environ.get("REPRO_WORK_MEM", "0"))
        self.work_mem = max(0, int(work_mem))
        # Parallel worker-pool size: ``None`` defers to the
        # ``REPRO_WORKERS`` environment variable (CI runs a tier-1 job
        # at 2), then serial (0).  The planner hands the pool to hash
        # joins and aggregates, whose spilled grace partitions fan out
        # to forked workers; 0 and 1 both mean serial.
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "0") or 0)
        self.workers = max(0, int(workers))
        # ``naive_plans`` forces reference plans (full scans, nested
        # loops, no pushdown, row-at-a-time execution) — the
        # differential harness's known-good executor; see
        # Optimizer.naive.
        self.planner = Planner(self.catalog, self.authority.tags,
                               stats=self.stats_manager,
                               naive=naive_plans,
                               batch_size=self.batch_size,
                               work_mem=self.work_mem,
                               workers=self.workers)
        self._parse_cache = StatementCache()
        # Prepared-plan caches, keyed by SQL text (or statement identity
        # for programmatic statements); each entry is
        # ``(statement, prepared, table_names)``.  The whole cache is
        # versioned by ``plan_cache_epoch``: any DDL or tag-registry
        # change clears it, which invalidates stale plans.  Statistics
        # refreshes are gentler: they evict only the entries whose
        # ``table_names`` include the refreshed table (see
        # ``invalidate_plans_for``).  Every cache is also capped at
        # STATEMENT_CACHE_LIMIT entries (oldest-inserted evicted first).
        self._select_cache = StatementCache()
        self._dml_cache = StatementCache()
        self._insert_cache = StatementCache()
        self._plan_epoch: Optional[Tuple[int, int]] = None
        self._stats_probe = 0
        # Activity counters (read by benchmarks and tests).
        self.statements_executed = 0
        self.rows_inserted = 0
        self.rows_updated = 0
        self.rows_deleted = 0
        self._sequences: Dict[str, int] = {}
        # -- observability (db/metrics.py) ------------------------------
        # The process-wide registry plus this database's buffer-cache
        # stats form the per-statement counter space: sessions bracket
        # every tracked statement with two compiled flat-tuple reads
        # (``_begin_statement``/``_finish_statement``) and the deltas
        # feed the statement aggregate, the slow-query log, and the
        # audit trail.
        self.metrics = REGISTRY
        self.statement_stats = StatementStats()
        # Slow-query threshold in milliseconds; 0 disables the log.
        if slow_query_ms is None:
            slow_query_ms = float(os.environ.get("REPRO_SLOW_QUERY_MS",
                                                 "0"))
        self.slow_query_ms = max(0.0, float(slow_query_ms))
        self.slow_queries = SlowQueryLog()
        # IFC audit trail: opt-in ring buffer (capacity in events;
        # 0/None disables).  Off by default — it records facts (e.g.
        # suppressed-row counts) that must not flow back to confined
        # processes.
        if audit_log is None:
            audit_log = int(os.environ.get("REPRO_AUDIT_LOG", "0"))
        self.audit = AuditLog(audit_log) if audit_log else None
        # -- durability (db/wal.py) --------------------------------------
        # ``wal`` is a log file path; ``None`` defers to ``REPRO_WAL``,
        # which names a *directory* so every Database in the process
        # gets its own log.  ``group_commit_ms`` is the commit-delay
        # window leaders wait for stragglers (``REPRO_GROUP_COMMIT_MS``;
        # 0 = fsync per flush leader, still batching whatever is
        # already queued).  Unset → no WAL, the seed behaviour.
        if wal is None:
            wal_dir = os.environ.get("REPRO_WAL", "").strip()
            if wal_dir:
                os.makedirs(wal_dir, exist_ok=True)
                wal = wal_mod.auto_wal_path(wal_dir)
        if group_commit_ms is None:
            group_commit_ms = float(os.environ.get("REPRO_GROUP_COMMIT_MS",
                                                   "0"))
        self.group_commit_ms = max(0.0, float(group_commit_ms))
        self.wal: Optional[wal_mod.WriteAheadLog] = None
        if isinstance(wal, wal_mod.WriteAheadLog):
            self.wal = wal                 # tests inject fault specs here
        elif wal is not None:
            self.wal = wal_mod.WriteAheadLog(
                wal, group_commit_ms=self.group_commit_ms)
        #: True while ``recover`` replays a log: suppresses re-logging
        #: of replayed DDL/sequence traffic.
        self._wal_replaying = False
        #: Replay watermark: log records below this index are already
        #: applied to this database (makes ``recover`` idempotent).
        self._wal_applied = 0
        #: Per-table original-tid → recovered-tid maps (replayed heaps
        #: are denser than the originals: aborted appends are absent).
        self._wal_tid_maps: Dict[str, Dict[int, int]] = {}
        #: Sequences bumped since the last logged commit; attached to
        #: the next commit record (sequences are non-transactional, so
        #: they ride along rather than get their own records).
        self._wal_dirty_seqs: Dict[str, int] = {}
        #: Commits applied by replay; ``recover`` refuses to run once
        #: ``txn_manager.commits`` has moved past this (new local
        #: commits would make the watermark meaningless).
        self._wal_replay_commits = 0
        self._reader = None
        self._reader_version = -1
        self._metrics_cells: List[Tuple[str, str]] = []
        self._spill_bytes_cell = -1
        self._suppressed_cell = -1
        self._norm_keys: Dict[str, str] = {}
        self._last_statement = None
        # Statement collectors (statement_stats / slow_queries / audit /
        # _norm_keys) are shared by every session on this database;
        # concurrent statements update them under this lock.  The
        # counter *reads* need no lock: they are per-thread
        # (core/counters.py), which is what makes the bracket deltas
        # safe under concurrency in the first place.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def connect(self, process=None) -> Session:
        """Open a session.  With IFC enabled, a process carrying the label
        and principal should be supplied; ``None`` connects an internal
        session with an empty label and no authority."""
        return Session(self, process)

    # ------------------------------------------------------------------
    # parsing and preparation (cached)
    # ------------------------------------------------------------------
    def parse(self, sql: str):
        statement = self._parse_cache.get(sql)
        if statement is None:
            statement = parse_statement(sql)
            self._parse_cache[sql] = statement
        return statement

    def parse_script(self, sql: str):
        return parse_script(sql)

    #: Every this many plan-cache probes, sweep the analyzed tables for
    #: modification drift and refresh their statistics (evicting only
    #: the cached plans that touch them).
    STATS_PROBE_INTERVAL = 256

    def plan_cache_epoch(self) -> Tuple[int, int]:
        """The versions the prepared-plan caches are keyed on.

        ``catalog.version`` bumps on every DDL statement — including
        ``CREATE/DROP INDEX`` and view changes — and ``tags.version``
        bumps on every tag-registry mutation (new tags, compound-tag
        membership).  Statistics refreshes are deliberately *not* part
        of the epoch: new histograms change plan optimality, never plan
        correctness, so a refresh evicts only the cached plans reading
        the refreshed table (``invalidate_plans_for``) instead of
        clearing everything.  Declassifying-view *authority* is also
        not part of the epoch: cached plans re-validate the view
        principal's authority on every execution, so revocation takes
        effect without a replan.
        """
        return (self.catalog.version, self.authority.tags.version)

    def _check_plan_epoch(self) -> None:
        epoch = self.plan_cache_epoch()
        if epoch != self._plan_epoch:
            self._select_cache.clear()
            self._dml_cache.clear()
            self._insert_cache.clear()
            self._plan_epoch = epoch
        self._stats_probe += 1
        if self._stats_probe >= self.STATS_PROBE_INTERVAL:
            self._stats_probe = 0
            self.stats_manager.refresh_drifted()

    def invalidate_plans_for(self, table_name: str) -> None:
        """Evict cached plans that read ``table_name`` (stats refresh).

        DML plans participate too: UPDATE/DELETE target scans come out
        of the same cost-based access-path enumeration as SELECT, so a
        refreshed histogram can legitimately flip their plan (e.g.
        full scan → index range scan once a range predicate turns out
        to be selective).
        """
        for cache in (self._select_cache, self._dml_cache,
                      self._insert_cache):
            stale = [key for key, entry in cache.items()
                     if table_name in entry[2]]
            for key in stale:
                del cache[key]

    def prepare_select(self, statement: ast.Select,
                       sql: Optional[str]) -> PreparedSelect:
        # The cache keeps a strong reference to the statement so the
        # id()-based fallback key can never alias a recycled object.
        self._check_plan_epoch()
        key = sql if sql is not None else id(statement)
        cached = self._select_cache.get(key)
        if cached is not None and cached[0] is statement:
            return cached[1]
        prepared = self.planner.plan_select(statement)
        self._select_cache[key] = (statement, prepared,
                                   plan_tables(prepared.plan))
        return prepared

    def prepare_dml(self, statement, sql: Optional[str]) -> PreparedDML:
        self._check_plan_epoch()
        key = sql if sql is not None else id(statement)
        cached = self._dml_cache.get(key)
        if cached is not None and cached[0] is statement:
            return cached[1]
        prepared = self.planner.plan_dml(statement)
        self._dml_cache[key] = (statement, prepared,
                                plan_tables(prepared.plan))
        return prepared

    def prepare_insert(self, statement: ast.Insert,
                       sql: Optional[str]) -> PreparedInsert:
        self._check_plan_epoch()
        key = sql if sql is not None else id(statement)
        cached = self._insert_cache.get(key)
        if cached is not None and cached[0] is statement:
            return cached[1]
        prepared = self._plan_insert(statement)
        tables = {statement.table}
        if prepared.select is not None:
            tables |= plan_tables(prepared.select.plan)
        self._insert_cache[key] = (statement, prepared, frozenset(tables))
        return prepared

    def _plan_insert(self, statement: ast.Insert) -> PreparedInsert:
        table = self.catalog.get_table(statement.table)
        schema = table.schema
        if statement.columns is not None:
            target_cols = list(statement.columns)
        else:
            target_cols = list(schema.column_names)
        positions = [schema.position(col) for col in target_cols]
        defaults = [column.default if column.has_default else None
                    for column in schema.columns]
        row_fns = None
        select = None
        if statement.select is not None:
            select = self.prepare_select(statement.select, None)
        else:
            compiler = self.planner.compiler(Scope())
            row_fns = [[compiler.compile(e) for e in row]
                       for row in statement.rows]
        return PreparedInsert(table, positions, defaults, row_fns, select)

    def explain(self, statement, sql: Optional[str] = None) -> List[str]:
        """One line per plan operator for ``EXPLAIN`` (shares the plan
        caches, so the rendered tree is the one execution would use)."""
        if isinstance(statement, ast.Select):
            prepared = self.prepare_select(statement, sql)
            return explain_plan(prepared.plan)
        if isinstance(statement, (ast.Update, ast.Delete)):
            prepared = self.prepare_dml(statement, sql)
            verb = "Update" if isinstance(statement, ast.Update) \
                else "Delete"
            return (["%s %s" % (verb, statement.table)]
                    + explain_plan(prepared.plan, indent=1))
        raise DatabaseError(
            "EXPLAIN supports SELECT, UPDATE, and DELETE, not %s"
            % type(statement).__name__)

    def resolve_tag_label(self, names: Sequence[str]) -> Label:
        if not names:
            return EMPTY_LABEL
        return Label(self.authority.tags.lookup(n).id for n in names)

    # ------------------------------------------------------------------
    # DDL (programmatic API)
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        table = Table(schema, page_size=self.page_size,
                      buffer_cache=self.buffer_cache,
                      store_labels=self.ifc_enabled)
        self.catalog.add_table(table)
        self._wal_log_ddl(("ddl", "create_table", schema))
        return table

    def create_index(self, name: str, table_name: str,
                     columns: Sequence[str], *, ordered: bool = False):
        table = self.catalog.get_table(table_name)
        index = table.create_index(name, columns, ordered=ordered)
        self.catalog._bump()
        self._wal_log_ddl(("ddl", "create_index", table_name, name,
                           tuple(columns), ordered))
        return index

    def drop_index(self, name: str) -> None:
        owners = [table for table in self.catalog.tables.values()
                  if name in table.indexes]
        if not owners:
            raise CatalogError("index %r does not exist" % name)
        if len(owners) > 1:
            raise CatalogError(
                "index name %r is ambiguous (tables: %s)"
                % (name, ", ".join(sorted(t.name for t in owners))))
        owners[0].drop_index(name)
        self.catalog._bump()
        self._wal_log_ddl(("ddl", "drop_index", name))

    def create_view(self, name: str, select: ast.Select, *,
                    declassify: Label = EMPTY_LABEL,
                    principal: Optional[int] = None) -> ViewDef:
        """Create a (possibly declassifying) view.

        For declassifying views the backing ``principal`` must hold
        authority for every declassified tag at creation time — "the user
        must have whatever authority is being given to the view"
        (section 4.3) — and the authority is re-checked on every use.
        """
        prepared = self.planner.plan_select(select)
        if declassify and self.ifc_enabled:
            if principal is None:
                raise AuthorityError(
                    "a declassifying view needs a backing principal")
            for tag_id in declassify:
                self.authority.check_authority(principal, tag_id)
        view = ViewDef(name=name, select=select,
                       columns=list(prepared.columns),
                       declassify=declassify, principal=principal)
        self.catalog.add_view(view)
        self._wal_log_ddl(("ddl", "create_view", name, select,
                           tuple(view.columns), tuple(declassify),
                           principal))
        return view

    def create_function(self, name: str, fn: Callable, *,
                        needs_context: bool = False) -> None:
        """Register a scalar function callable from SQL expressions."""
        self.catalog.add_function(FunctionDef(name=name, fn=fn,
                                              needs_context=needs_context))

    def create_procedure(self, name: str, fn: Callable, *,
                         closure_principal: Optional[int] = None,
                         creator=None) -> None:
        """Register a stored procedure; binding a principal makes it a
        stored authority closure (section 4.3).  If ``creator`` (an
        IFCProcess) is given, it must hold the closure's authority —
        creation-time check per section 3.3."""
        if closure_principal is not None and creator is not None:
            self.authority.principals.get(closure_principal)
        self.catalog.add_procedure(ProcedureDef(
            name=name, fn=fn, closure_principal=closure_principal))

    def create_trigger(self, name: str, table: str, events, timing: str,
                       fn: Callable, *,
                       closure_principal: Optional[int] = None) -> None:
        if isinstance(events, str):
            events = (events,)
        self.catalog.add_trigger(TriggerDef(
            name=name, table=table, events=frozenset(events), timing=timing,
            fn=fn, closure_principal=closure_principal))

    # ------------------------------------------------------------------
    # DDL via SQL
    # ------------------------------------------------------------------
    def execute_ddl(self, session: Session, statement):
        from .session import Result
        if isinstance(statement, ast.CreateTable):
            if statement.if_not_exists and \
                    self.catalog.relation_exists(statement.name):
                return Result()
            self.create_table(self._schema_from_ast(statement))
            return Result()
        if isinstance(statement, ast.CreateView):
            declassify = self.resolve_tag_label(statement.declassifying)
            principal = session.acting.principal if declassify else None
            self.create_view(statement.name, statement.select,
                             declassify=declassify, principal=principal)
            return Result()
        if isinstance(statement, ast.CreateIndex):
            self.create_index(statement.name, statement.table,
                              statement.columns, ordered=statement.ordered)
            return Result()
        if isinstance(statement, ast.DropTable):
            if statement.if_exists and not \
                    self.catalog.relation_exists(statement.name):
                return Result()
            self.catalog.drop_table(statement.name)
            self.stats_manager.forget(statement.name)
            self._wal_log_ddl(("ddl", "drop_table", statement.name))
            return Result()
        if isinstance(statement, ast.DropView):
            self.catalog.drop_view(statement.name)
            self._wal_log_ddl(("ddl", "drop_view", statement.name))
            return Result()
        if isinstance(statement, ast.DropIndex):
            self.drop_index(statement.name)
            return Result()
        raise DatabaseError("unsupported statement %r" % (statement,))

    def _schema_from_ast(self, statement: ast.CreateTable) -> TableSchema:
        columns: List[Column] = []
        primary_key: Optional[Tuple[str, ...]] = None
        uniques: List[UniqueConstraint] = []
        fks: List[ForeignKeyConstraint] = []
        checks: List[CheckConstraint] = []
        label_checks: List[LabelCheckConstraint] = []
        fk_counter = 0

        for col_def in statement.columns:
            sql_type = type_by_name(col_def.type_name, col_def.type_length)
            columns.append(Column(name=col_def.name, type=sql_type,
                                  not_null=col_def.not_null,
                                  default=col_def.default))
            if col_def.has_default and col_def.default is None:
                columns[-1].has_default = True
            if col_def.primary_key:
                if primary_key is not None:
                    raise CatalogError("multiple primary keys for table %r"
                                       % statement.name)
                primary_key = (col_def.name,)
                columns[-1].not_null = True
            if col_def.unique:
                uniques.append(UniqueConstraint(
                    name="%s_%s_key" % (statement.name, col_def.name),
                    columns=(col_def.name,)))
            if col_def.references is not None:
                fk_counter += 1
                ref_table, ref_column = col_def.references
                fks.append(ForeignKeyConstraint(
                    name="%s_fk%d" % (statement.name, fk_counter),
                    columns=(col_def.name,), ref_table=ref_table,
                    ref_columns=(ref_column,),
                    match_label=col_def.match_label))

        for constraint in statement.constraints:
            if constraint.kind == "primary_key":
                if primary_key is not None:
                    raise CatalogError("multiple primary keys for table %r"
                                       % statement.name)
                primary_key = constraint.columns
            elif constraint.kind == "unique":
                uniques.append(UniqueConstraint(
                    name=constraint.name or "%s_unique%d"
                    % (statement.name, len(uniques) + 1),
                    columns=constraint.columns))
            elif constraint.kind == "foreign_key":
                fk_counter += 1
                fks.append(ForeignKeyConstraint(
                    name=constraint.name or "%s_fk%d" % (statement.name,
                                                         fk_counter),
                    columns=constraint.columns,
                    ref_table=constraint.ref_table,
                    ref_columns=constraint.ref_columns,
                    match_label=constraint.match_label,
                    deferred=constraint.deferred))
            elif constraint.kind == "check":
                checks.append(CheckConstraint(
                    name=constraint.name or "%s_check%d"
                    % (statement.name, len(checks) + 1),
                    expr=constraint.expr))
            elif constraint.kind == "label_check":
                label_checks.append(LabelCheckConstraint(
                    name=constraint.name or "%s_label_check%d"
                    % (statement.name, len(label_checks) + 1),
                    expr=constraint.expr))
            else:
                raise CatalogError("unknown constraint kind %r"
                                   % constraint.kind)

        return TableSchema(statement.name, columns,
                           primary_key=primary_key, uniques=uniques,
                           foreign_keys=fks, checks=checks,
                           label_checks=label_checks)

    def next_sequence(self, name: str) -> int:
        """A simple named sequence.

        Note: the paper lists leak-free sequences as *future work*
        (section 10) — a sequential counter is an allocation channel if
        its values are exposed across labels.  Applications here only
        use sequences for ids of tuples whose existence the reader may
        already see.
        """
        value = self._sequences.get(name, 0) + 1
        self._sequences[name] = value
        if self.wal is not None and not self._wal_replaying:
            # Sequences are non-transactional (like PostgreSQL's): the
            # bump becomes durable with the next logged commit, which
            # records the then-current value (replay takes the max, so
            # it is idempotent and monotone).
            self._wal_dirty_seqs[name] = value
        return value

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def analyze(self, table_name: Optional[str] = None) -> List[str]:
        """Collect optimizer statistics (``ANALYZE [table]``).

        Like vacuum, statistics collection reads the heap outside the
        label rules (section 7.1 exempts maintenance); the numbers only
        steer plan choice, never tuple visibility.
        """
        return self.stats_manager.analyze(table_name)

    def vacuum(self, table_name: Optional[str] = None) -> int:
        """Garbage-collect dead versions (exempt from label rules).

        A full pass (no table name) also un-stalls the batched
        executor's MVCC fast path: with every aborted-created version
        reclaimed from every heap, the committed horizon may advance
        past old rollbacks (see ``TransactionManager.committed_horizon``).
        """
        if table_name is not None:
            return self.catalog.get_table(table_name).vacuum(self.txn_manager)
        removed = 0
        for table in self.catalog.tables.values():
            removed += table.vacuum(self.txn_manager)
        self.txn_manager.aborted_reclaimed()
        return removed

    # ------------------------------------------------------------------
    # durability (db/wal.py)
    # ------------------------------------------------------------------
    def _wal_log_commit(self, txn) -> None:
        """Make ``txn`` durable; called by ``Session.commit`` *before*
        the transaction manager acknowledges.  Raises (``WalError`` /
        ``CrashError``) when durability cannot be promised — the caller
        aborts the transaction, upholding logged-before-acknowledged."""
        if self.wal is None or self._wal_replaying:
            return
        record = wal_mod.build_commit_record(self, txn)
        if record is None:
            return                       # read-only: nothing to log
        try:
            self.wal.log_commit(record)
        except BaseException:
            # Put the un-logged sequence bumps back so a later commit
            # (fsync-failure mode: the process survives) re-carries
            # them rather than silently dropping durability for them.
            for name, value in record[3].items():
                if value > self._wal_dirty_seqs.get(name, 0):
                    self._wal_dirty_seqs[name] = value
            raise

    def _wal_log_ddl(self, record: tuple) -> None:
        """Log a DDL effect (immediately durable, non-transactional)."""
        if self.wal is not None and not self._wal_replaying:
            self.wal.log(record)

    def _take_wal_sequences(self) -> Dict[str, int]:
        """Detach the sequences bumped since the last logged commit."""
        if not self._wal_dirty_seqs:
            return {}
        seqs = self._wal_dirty_seqs
        self._wal_dirty_seqs = {}
        return seqs

    def recover(self, path: Optional[str] = None) -> Dict[str, object]:
        """Replay a WAL into this database (trusted maintenance op).

        ``path`` defaults to this database's own log.  Must run before
        the database commits anything of its own — the usual shape is
        a fresh ``Database`` sharing the crashed instance's authority
        state (tag ids must resolve identically).  Idempotent: records
        below the replay watermark are skipped, so recovering twice is
        a no-op.  Returns replay statistics (records seen/applied,
        transactions, DDL, tail disposition).
        """
        if path is None:
            if self.wal is None:
                raise wal_mod.WalError("no WAL configured and no path given")
            path = self.wal.path
        if self.txn_manager.write_commits != 0:
            # Replayed transactions bypass ``record_write``, so any
            # write commit here is the database's own — its heap tids
            # are unknown to the replay tid maps and replaying over
            # them could double-apply.  (Read-only commits are fine.)
            raise wal_mod.WalError(
                "recover() must run before this database commits its own "
                "writes (%d write commits present)"
                % self.txn_manager.write_commits)
        self._wal_replaying = True
        try:
            return wal_mod.replay(self, path)
        finally:
            self._wal_replaying = False

    def close(self) -> None:
        """Release the WAL file (the engine itself needs no teardown)."""
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------
    # metrics (db/metrics.py)
    # ------------------------------------------------------------------
    def _rebuild_reader(self) -> None:
        """Compile the per-statement counter reader: every registry
        cell plus this database's buffer-cache stats (per-``Database``
        state, so it cannot live in the process-wide registry)."""
        cells: List[Tuple[str, str]] = []
        owners: List[Tuple[object, str]] = []
        for group, field, owner in self.metrics.cells():
            cells.append((group, field))
            owners.append((owner, field))
        buffer_stats = self.buffer_cache.stats
        for field in ("hits", "misses", "evictions", "io_time"):
            cells.append(("buffer", field))
            owners.append((buffer_stats, field))
        self._metrics_cells = cells
        self._reader = compile_reader(owners)
        self._spill_bytes_cell = cells.index(("spill", "bytes_spilled"))
        self._suppressed_cell = cells.index(("labels", "rows_suppressed"))
        # Version last: a concurrent reader that sees the new version
        # sees the fully-rebuilt reader state.
        self._reader_version = self.metrics.version

    def metrics_cells(self) -> List[Tuple[str, str]]:
        """``(group, field)`` names, one per :meth:`read_counters` slot."""
        if self._reader_version != self.metrics.version:
            self._rebuild_reader()
        return list(self._metrics_cells)

    def read_counters(self) -> tuple:
        """All counters (registry + this database's buffer cache) as a
        flat tuple — the reader EXPLAIN ANALYZE probes call per row."""
        if self._reader_version != self.metrics.version:
            self._rebuild_reader()
        return self._reader()

    def counter_delta(self, before: tuple,
                      after: tuple) -> Dict[str, Dict[str, int]]:
        """Named nested delta between two :meth:`read_counters` reads."""
        out: Dict[str, Dict[str, int]] = {}
        for i, (group, field) in enumerate(self._metrics_cells):
            bucket = out.get(group)
            if bucket is None:
                bucket = out[group] = {}
            bucket[field] = after[i] - before[i]
        return out

    def _begin_statement(self) -> Tuple[float, tuple]:
        """Start of per-statement tracking: wall clock + counter read."""
        if self._reader_version != self.metrics.version:
            self._rebuild_reader()
        return (time.perf_counter(), self._reader())

    def _finish_statement(self, track: Tuple[float, tuple], statement,
                          sql: Optional[str], rowcount: int) -> None:
        """End of per-statement tracking: aggregate into the statement
        stats, the slow-query log, and the audit trail.  Hot path — a
        handful of microseconds per statement."""
        after = self._reader()
        started, before = track
        elapsed = time.perf_counter() - started
        self._last_statement = (before, after, elapsed, rowcount)
        if sql is not None:
            key = self._norm_keys.get(sql)
            if key is None:
                key = normalize_sql(sql)
        else:
            # Programmatic statements (no SQL text) aggregate by shape.
            key = "<%s>" % type(statement).__name__
        # ``before``/``after`` are this thread's own counter state, so
        # the deltas are statement-exact even with concurrent sessions;
        # the shared collectors are the only cross-thread state left.
        with self._stats_lock:
            if sql is not None and sql not in self._norm_keys \
                    and len(self._norm_keys) < 4096:
                self._norm_keys[sql] = key
            cell = self._spill_bytes_cell
            self.statement_stats.record(key, elapsed, rowcount,
                                        after[cell] - before[cell])
            threshold = self.slow_query_ms
            if threshold and elapsed * 1000.0 >= threshold:
                self.slow_queries.record(key, elapsed * 1000.0, rowcount,
                                         self.counter_delta(before, after))
            audit = self.audit
            if audit is not None:
                cell = self._suppressed_cell
                suppressed = after[cell] - before[cell]
                if suppressed:
                    audit.record("rows_suppressed", statement=key,
                                 count=suppressed)

    def _audit_denial(self, statement, sql: Optional[str], error) -> None:
        """Audit hook for write-rule / commit-label denials."""
        audit = self.audit
        if audit is None:
            return
        key = normalize_sql(sql) if sql is not None \
            else "<%s>" % type(statement).__name__
        with self._stats_lock:
            audit.record("write_denied", statement=key, error=str(error))

    def last_statement_metrics(self) -> Optional[Dict[str, object]]:
        """Named counter deltas (plus ``elapsed_ms``/``rows``) of the
        most recently tracked statement — what tests pin instead of
        hand-diffing module globals."""
        if self._last_statement is None:
            return None
        before, after, elapsed, rowcount = self._last_statement
        named: Dict[str, object] = self.counter_delta(before, after)
        named["elapsed_ms"] = elapsed * 1000.0
        named["rows"] = rowcount
        return named

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        cache = self.buffer_cache.stats
        snapshot = self.metrics.snapshot()
        # The registry groups (labels/index/exec/spill/stats) are
        # process-wide: with several Database instances in one process
        # they aggregate across them — diff before/after around the
        # work of interest, or read last_statement_metrics() /
        # statement_stats for attributed numbers.
        report: Dict[str, object] = dict(snapshot)
        report.update({
            "statements": self.statement_stats.snapshot(),
            "statements_executed": self.statements_executed,
            "slow_queries": self.slow_queries.snapshot(),
            "audit_events": self.audit.total if self.audit else 0,
            "rows_inserted": self.rows_inserted,
            "rows_updated": self.rows_updated,
            "rows_deleted": self.rows_deleted,
            "commits": self.txn_manager.commits,
            "aborts": self.txn_manager.aborts,
            "buffer_hits": cache.hits,
            "buffer_misses": cache.misses,
            "buffer_hit_rate": cache.hit_rate,
            "simulated_io_time": cache.io_time,
            "tables_analyzed": self.stats_manager.analyzed(),
            "statement_caches": {
                "parse": self._parse_cache.report(),
                "select": self._select_cache.report(),
                "dml": self._dml_cache.report(),
                "insert": self._insert_cache.report(),
            },
            "polyinstantiated": {
                t.name: t.polyinstantiation_count
                for t in self.catalog.tables.values()
                if t.polyinstantiation_count
            },
        })
        return report
