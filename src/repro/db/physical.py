"""Physical operators: the pull-based execution layer.

This is the bottom of the three-layer query pipeline
(:mod:`repro.db.logical` → :mod:`repro.db.optimizer` → here).  Each
operator yields ``(values, label, ilabel)`` triples.  Query by Label is
enforced at the bottom of the tree, in the scan operators, mirroring the
paper's design decision (section 7.1): visibility — MVCC *and* label
confinement — is decided "at the layer that reads and writes tuples in
tables", so nothing a higher layer does can surface a tuple the process
may not see.

**Two pull interfaces, batch-native only where batches run.**  Every
operator yields rows through ``rows()`` (one ``(values, label,
ilabel)`` triple at a time — the reference semantics, and what the
naive planner's plans run).  Only the operators a workload actually
drives batched also implement a batch-native ``batches()``
(:class:`RowBatch` objects of ~``batch_size`` rows): the scans
(:class:`Scan`, :class:`IndexScan`, :class:`IndexRangeScan`),
:class:`Project`, :class:`HashJoin` and :class:`IndexLoopJoin`.
Counting calls per operator over the three benchmark workloads
(``perfbench/``; per operation, full scale) decided the split:

=================  =============================  ==========================
workload           runs batched                   runs row-at-a-time
=================  =============================  ==========================
cartel-web         Scan, Project, Sort            Project, IndexScan,
                                                  IndexLoopJoin, Sort, TopN,
                                                  Aggregate
tpcc-durable       nothing                        IndexScan, Project, TopN,
                                                  Aggregate, IndexRangeScan,
                                                  Sort, IndexLoopJoin
label-analytics    Scan, Project, Aggregate,      Project, IndexScan
                   IndexScan, HashJoin,
                   IndexRangeScan, TopN
=================  =============================  ==========================

Filter, NestedLoopJoin, Limit, Distinct and ViewPlan ran in neither
mode, and the batched Sort, TopN and Aggregate only re-chunked rows
they had already produced — so those are row-native: ``rows()`` only.
:func:`stamp_batch_size` stamps a non-zero ``batch_size`` only on
batch-native nodes (the naive planner stamps nothing, pinning the
differential harness's reference executor to per-tuple checks), and a
row-native operator reads a batched child through :func:`_row_source`.
``Plan.batches`` chunks ``rows()`` for a batched parent over a
row-native child, and ``Plan._drain`` flattens ``batches()`` when a
batched node is asked for rows, so the two kinds compose freely and
cursors (:mod:`repro.db.session`) pick the root's own interface.

Batching exists because the per-tuple scan cost is dominated by three
amortizable steps (the paper's Query-by-Label overhead, section 7.1):

* **label runs** — labels are interned and heap neighbours overwhelmingly
  share them, so a scan batch groups candidate versions by label
  *identity* and runs ``strip``/``covers`` once per distinct label per
  batch (a per-batch memo dict) instead of once per tuple;
* **MVCC fast path** — when every version in a batch has ``xmax``
  unset and an ``xmin`` below the snapshot horizon
  (:meth:`~repro.db.transactions.TransactionManager.committed_horizon`),
  the whole batch is visible and per-row ``visible()`` is skipped;
* **page runs** — buffer-cache accounting is charged per consecutive
  (table, page) run via :meth:`~repro.db.storage.Table.touch_run`,
  with counters identical to per-version ``touch``.

Label enforcement itself never moves: both executors decide visibility
in the scan, below every optimization and batching decision.

Label flow through operators:

* scans emit the tuple's label (stripped of any enclosing declassifying
  view's tags);
* joins emit the union of the joined rows' labels;
* aggregation emits the union of the group's labels;
* projection/sort/limit pass labels through.

Because scans filter to ``LT ⊆ LP``, every emitted label is covered by
the process label — reading query results never contaminates the process
(that is the point of Query by Label, section 4.2).

Operators carry an optional ``explain`` attribute, a one-line summary
attached by the planner during lowering and rendered by ``EXPLAIN``.
"""

from __future__ import annotations

import heapq
from itertools import chain, islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.counters import CounterGroup
from ..core.labels import EMPTY_LABEL, Label
from ..core.rules import COUNTERS as RULE_COUNTERS, covers, strip
from ..errors import AuthorityError
from .catalog import ViewDef
from .spill import (AGG_STATE_BYTES, BUCKET_ENTRY_BYTES, GroupSpill,
                    MAX_RECURSION, SortRuns, SpilledHashBuild,
                    _join_partition, estimate_row_bytes)
from .storage import Table

ExecRow = Tuple[list, Label, Label]          # (values, label, ilabel)

#: Rows per batch when no explicit size is configured (the engine reads
#: ``REPRO_BATCH_SIZE`` and passes its own default through the planner;
#: this constant only backs the chunking shim for unstamped nodes).
DEFAULT_BATCH_SIZE = 1024


class ExecCounters(CounterGroup):
    """Process-wide executor counters, in the ``rules.COUNTERS`` mold
    (diff a snapshot around the work of interest).

    ``columns_materialized`` counts *cells* (column values) the scans
    copied out of stored tuples into batch columns — the observable
    proof of projection pushdown: a scan projecting 2 of N columns
    materializes ``2 × rows`` cells, batch-size invariant.
    ``rows_widened`` counts rows rebuilt to row-major form from a
    columnar batch (the :attr:`RowBatch.values` compatibility shim);
    a well-pushed pipeline widens each output row at most once, at the
    cursor boundary.
    """

    FIELDS = ("columns_materialized", "rows_widened")


#: The module-wide counter instance.
EXEC_COUNTERS = ExecCounters()


class RowBatch:
    """A batch of execution rows, stored row-major or columnar.

    Logically a batch is three parallel sequences: execution rows,
    interned secrecy :class:`Label` objects, and integrity labels — row
    ``i`` is exactly the ``(values[i], labels[i], ilabels[i])`` triple
    the row-at-a-time interface would have yielded.  Physically the
    value side has two layouts:

    * **row-major** (the :meth:`__init__` constructor): ``values`` is a
      list of per-row lists — what row-native operators produce;
    * **columnar** (:meth:`from_columns`): one Python list *per
      column*, where a ``None`` column slot means the planner proved
      the column is never read (projection pushdown) and it was never
      materialized; reading it yields SQL NULLs.

    ``labels``/``ilabels`` are always per-row compact lists — label
    checks are tuple-granularity in the paper's model (a tag protects a
    row, not a cell), and the interned label objects already behave as
    a dictionary-encoded column.  A batch never carries a selection
    vector: the only operators that drop rows inside a batched
    pipeline are the scans (before materializing) and the joins (which
    build fresh output batches).

    :attr:`values` is a lazy property: on a columnar batch the first
    access widens the batch back to row-major (counted in
    ``EXEC_COUNTERS.rows_widened``) and caches the result, so a
    row-native consumer pays the conversion exactly once per batch.
    """

    __slots__ = ("labels", "ilabels", "_rows", "_columns")

    def __init__(self, values: list, labels: list, ilabels: list):
        self._rows = values
        self._columns = None
        self.labels = labels
        self.ilabels = ilabels

    @classmethod
    def from_columns(cls, columns: list, labels: list,
                     ilabels: list) -> "RowBatch":
        """Columnar batch: ``columns[j]`` is column ``j``'s value list,
        or ``None`` for a projected-away (never-materialized) column."""
        batch = cls.__new__(cls)
        batch._rows = None
        batch._columns = columns
        batch.labels = labels
        batch.ilabels = ilabels
        return batch

    def __len__(self) -> int:
        return len(self.labels)

    def column(self, index: int) -> list:
        """Column ``index`` as a compact list.

        On a row-major batch the extraction is computed once and
        cached; on a columnar batch this is the stored array itself,
        zero-copy.  A projected-away column reads as all-NULL.
        """
        cols = self._columns
        if cols is None:
            rows = self._rows
            width = len(rows[0]) if rows else 0
            cols = self._columns = [None] * width
        col = cols[index] if index < len(cols) else None
        if col is None:
            rows = self._rows
            if rows is None:
                return [None] * len(self.labels)
            col = [row[index] for row in rows]
            cols[index] = col
        return col

    @property
    def values(self) -> list:
        """Row-major view (one list per row), widened lazily from a
        columnar batch and cached."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._widen()
        return rows

    def _widen(self) -> list:
        cols = self._columns
        n = len(self.labels)
        EXEC_COUNTERS.rows_widened += n
        if not n:
            return []
        if all(col is not None for col in cols):
            return [list(row) for row in zip(*cols)]
        width = len(cols)
        rows = [[None] * width for _ in range(n)]
        for j, col in enumerate(cols):
            if col is None:
                continue
            for i in range(n):
                rows[i][j] = col[i]
        return rows

    def rows(self) -> Iterator[ExecRow]:
        return zip(self.values, self.labels, self.ilabels)


def _unspool_seq(partition):
    """Undo :class:`Distinct`'s seq-in-values spool encoding: yields
    ``(seq, key, row)`` from a GroupSpill partition whose rows were
    spooled as ``[seq] + values``."""
    for key, (values, label, ilabel) in partition:
        yield values[0], key, (values[1:], label, ilabel)


def _row_source(child, ctx) -> Iterator[ExecRow]:
    """Rows of ``child`` for a row-native parent, keyed on the *child's*
    stamp: a batched child's batches are flattened here (one generator
    layer, not ``child.rows()`` → ``_drain`` → ``batches()``), an
    unbatched child's ``rows()`` is returned as is.  It calls
    ``child.batches()`` rather than ``child._drain()`` because EXPLAIN
    ANALYZE's probes wrap only ``rows`` and ``batches``."""
    if child.batch_size:
        return _flatten(child.batches(ctx))
    return child.rows(ctx)


def _flatten(batches) -> Iterator[ExecRow]:
    for batch in batches:
        yield from zip(batch.values, batch.labels, batch.ilabels)


def _chunked(iterator, size: int):
    """Chunk an iterator into lists of up to ``size``."""
    chunk: list = []
    append = chunk.append
    for item in iterator:
        append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
            append = chunk.append
    if chunk:
        yield chunk


class ExecContext:
    """Per-execution state threaded through plan nodes and expressions."""

    __slots__ = ("session", "params", "outer_stack", "read_label",
                 "read_ilabel", "principal", "registry", "authority",
                 "ifc_enabled", "work_mem")

    def __init__(self, session, params: tuple, read_label: Label,
                 read_ilabel: Label, principal: Optional[int]):
        self.session = session
        self.params = params
        self.outer_stack: list = []
        self.read_label = read_label
        self.read_ilabel = read_ilabel
        self.principal = principal
        self.authority = session.db.authority
        self.registry = self.authority.tags
        self.ifc_enabled = session.db.ifc_enabled
        #: Per-operator memory budget in bytes (0 = unbounded): read at
        #: execution time so a cached plan honours the database's
        #: current ``work_mem`` — spilling is a runtime overflow
        #: reaction, not a plan property (the optimizer only *costs* it).
        self.work_mem = getattr(session.db, "work_mem", 0) or 0

    def now(self) -> float:
        return self.session.db.clock()


class Plan:
    """Base class: a pull-based operator producing ExecRows.

    Subclasses implement ``rows()`` (row-at-a-time); the batch-native
    ones (scans, Project, HashJoin, IndexLoopJoin) also implement
    ``batches()``.  A node executes batched iff the planner stamped a
    non-zero ``batch_size`` on it, which :func:`stamp_batch_size` only
    does for batch-native types; the two default methods below adapt
    either interface to the other.
    """

    #: One-line EXPLAIN annotation, attached by the planner at lowering.
    explain: Optional[str] = None
    #: Optimizer estimates (rows out of this operator, cumulative cost),
    #: attached by the planner at lowering and rendered by EXPLAIN.
    est_rows: Optional[float] = None
    est_cost: Optional[float] = None
    #: Rows per batch; 0 = row-at-a-time (every row-native operator,
    #: and every node of a naive/reference plan).  Stamped by
    #: :func:`stamp_batch_size` at lowering.
    batch_size: int = 0
    #: Estimated peak operator memory in bytes (materializing operators
    #: only — join builds and inner materializations), attached by the
    #: planner and rendered by EXPLAIN.  Under a ``work_mem`` budget a
    #: spilling operator's estimate is its per-partition share, i.e.
    #: the expected peak *resident* footprint.
    est_mem: Optional[float] = None
    #: Optimizer-estimated grace-spill leaf partitions (0 = expected to
    #: fit in ``work_mem``); rendered by EXPLAIN.
    est_spill_partitions: int = 0
    #: Optimizer-estimated external-sort runs (0 = the sort is expected
    #: to run fully in memory); rendered by EXPLAIN as ``runs=N``.
    est_runs: int = 0

    def rows(self, ctx: ExecContext) -> Iterator[ExecRow]:
        raise NotImplementedError

    def batches(self, ctx: ExecContext) -> Iterator[RowBatch]:
        """Default/fallback: chunk the row-at-a-time output."""
        size = self.batch_size or DEFAULT_BATCH_SIZE
        values: list = []
        labels: list = []
        ilabels: list = []
        for row_values, label, ilabel in self.rows(ctx):
            values.append(row_values)
            labels.append(label)
            ilabels.append(ilabel)
            if len(values) >= size:
                yield RowBatch(values, labels, ilabels)
                values, labels, ilabels = [], [], []
        if values:
            yield RowBatch(values, labels, ilabels)

    def _drain(self, ctx: ExecContext) -> Iterator[ExecRow]:
        """Row view of the batch-native output (compatibility shim)."""
        for batch in self.batches(ctx):
            yield from zip(batch.values, batch.labels, batch.ilabels)


class SingleRow(Plan):
    """SELECT without FROM: one empty input row."""

    def rows(self, ctx):
        yield [], EMPTY_LABEL, EMPTY_LABEL


def _touch_page_runs(table: Table, chunk: list) -> None:
    """Charge buffer-cache accounting for a candidate chunk by page run.

    Equivalent, counter for counter, to calling ``table.touch(version)``
    on every version in order (heap neighbours share pages, so a batch
    collapses to a handful of runs)."""
    run_page = -1
    run_len = 0
    for version in chunk:
        page_id = version.page_id
        if page_id == run_page:
            run_len += 1
        else:
            if run_len:
                table.touch_run(run_page, run_len)
            run_page = page_id
            run_len = 1
    if run_len:
        table.touch_run(run_page, run_len)


def _visible_versions(chunk: list, txn, txn_manager) -> list:
    """MVCC-filter a candidate chunk, batch-wise when possible.

    Fast path: if no version in the chunk has been deleted (``xmax``
    unset) and the newest ``xmin`` is below both the snapshot and the
    transaction manager's committed horizon, every version was created
    by a transaction that committed before the snapshot — the whole
    chunk is visible with zero per-row checks.  Any in-flight
    concurrent transaction old enough to matter (``min_in_progress``),
    any aborted-but-unvacuumed creator (the horizon stalls on it), or
    any deletion drops the chunk to per-row ``visible()``.

    The horizon is the only moving part: it advances when a concurrent
    writer commits, possibly *mid-statement* (a spilled hash join can
    keep scanning long after its first output row).  That is safe by
    construction: the two snapshot-anchored bounds never move, and any
    version such a writer created fails one of them — a writer begun
    after the snapshot has ``xmin >= snapshot.xmax``, one in flight at
    snapshot time has ``xmin >= min_in_progress`` — so the chunk drops
    to per-row ``visible()``, which consults the immutable snapshot.
    An advancing horizon alone can therefore never admit a
    snapshot-invisible version (regression:
    ``tests/test_spill.py::test_spilled_hash_join_sees_statement_snapshot``).
    """
    hi_xmin = 0
    for version in chunk:
        if version.xmax is not None:
            break
        if version.xmin > hi_xmin:
            hi_xmin = version.xmin
    else:
        snapshot = txn.snapshot
        if (hi_xmin < snapshot.xmax
                and (snapshot.min_in_progress is None
                     or hi_xmin < snapshot.min_in_progress)
                and hi_xmin < txn_manager.committed_horizon()):
            return chunk
    visible = txn_manager.visible
    return [version for version in chunk if visible(version, txn)]


def _audit_declassify(ctx: ExecContext, view_grants) -> None:
    """IFC audit hook: one ``declassify_view`` event per declassifying
    view per execution, recorded right after its authority
    re-validated (see :class:`repro.db.metrics.AuditLog`)."""
    audit = getattr(ctx.session.db, "audit", None)
    if audit is None:
        return
    for view, tags in view_grants:
        audit.record("declassify_view", view=view.name,
                     tags=tuple(sorted(tags)))


class Scan(Plan):
    """Label-filtered, MVCC-filtered scan of a base table.

    ``declass`` is the union of tags declassified by enclosing
    declassifying views; ``view_grants`` lists (view, tags) pairs whose
    authority must be re-validated at execution time.  Emitted rows carry
    the *stripped* label, and visibility requires the stripped label to
    be covered by the process label — an invisible tuple stays invisible
    no matter what the query looks like.

    ``predicate_on_values`` marks a predicate that references only real
    columns (no ``_label``, no subqueries — see
    :func:`repro.db.expressions.reads_columns_only`): it is evaluated
    directly against the stored value tuple, so rejected rows never pay
    the ``list(...) + [label]`` output-row copy.  Predicate-free paths
    skip the copy wherever the row itself is not the output
    (``versions()``), and build it exactly once where it is (``rows()``).

    ``needed`` is the projection the optimizer pushed down: the sorted
    tuple of stored-column positions anything above this scan reads
    (``None`` = all of them).  The batched scan materializes *only*
    those columns into its columnar output — the rest stay inside the
    stored tuples and read as NULL — which is safe because the planner
    proved no expression above the scan references them.  Predicates
    pushed *into* the scan still see the full stored tuple, and the
    row-at-a-time paths (``rows()`` for the naive executor,
    ``versions()`` for DML xmax stamping) always build full-width rows.
    """

    def __init__(self, table: Table, predicate: Optional[Callable],
                 declass: Label, view_grants: List[Tuple[ViewDef, Label]],
                 predicate_on_values: bool = False,
                 needed: Optional[Tuple[int, ...]] = None):
        self.table = table
        self.predicate = predicate
        self.declass = declass
        self.view_grants = view_grants
        self.predicate_on_values = predicate_on_values
        self.needed = needed
        #: Projected column names for EXPLAIN (``cols=…``); None when
        #: the scan materializes full width.
        self.needed_names = (
            None if needed is None
            else [table.schema.column_names[p] for p in needed])

    def _check_view_authority(self, ctx: ExecContext) -> None:
        for view, tags in self.view_grants:
            for tag_id in tags:
                if not ctx.authority.has_authority(view.principal, tag_id):
                    raise AuthorityError(
                        "declassifying view %r lost authority for tag %d "
                        "(revoked?)" % (view.name, tag_id))
        _audit_declassify(ctx, self.view_grants)

    def _candidates(self, ctx: ExecContext):
        return self.table.all_versions()

    def _candidate_chunks(self, ctx: ExecContext, size: int):
        """Candidate versions in lists of ~``size`` (batch granularity)."""
        if type(self)._candidates is Scan._candidates:
            # Full heap scan: let the table slice its version array
            # directly instead of chunking a per-version generator.
            return self.table.all_versions_batched(size)
        return _chunked(self._candidates(ctx), size)

    def _check_predicate(self, predicate, version, label, ctx) -> bool:
        """Row-shape predicate check used by the batched scan."""
        if self.predicate_on_values:
            return bool(predicate(version.values, ctx))
        values = list(version.values)
        values.append(label)
        return bool(predicate(values, ctx))

    def versions(self, ctx: ExecContext):
        """Target-row enumeration for UPDATE/DELETE: yields the physical
        tuple *versions* so the session can stamp ``xmax``.

        Driven by the same access path as ``rows()`` (``_candidates``
        is what ``IndexScan``/``IndexRangeScan`` override), with the
        same MVCC and Query-by-Label visibility — an invisible tuple is
        simply unaffected by DML.  The write-rule *equality* check
        (section 4.2) happens in the session on each yielded version.
        DML targets are base tables, never views, so no
        declassification applies here.  The enumeration is always
        row-at-a-time (DML plans are not batch-stamped): the benchmark
        workloads' DML targets are index probes below
        :data:`BATCH_MIN_INDEX_ROWS`, where batching cannot amortize.
        """
        session = ctx.session
        txn = session.transaction
        txn_manager = session.db.txn_manager
        table = self.table
        predicate = self.predicate
        registry = ctx.registry
        read_label = ctx.read_label
        check_labels = ctx.ifc_enabled
        on_values = self.predicate_on_values
        for version in self._candidates(ctx):
            table.touch(version)
            if not txn_manager.visible(version, txn):
                continue
            if check_labels and not covers(registry, version.label,
                                           read_label):
                RULE_COUNTERS.rows_suppressed += 1
                continue
            if predicate is not None:
                if on_values:
                    if not predicate(version.values, ctx):
                        continue
                else:
                    values = list(version.values)
                    values.append(version.label)
                    if not predicate(values, ctx):
                        continue
            yield version

    def rows(self, ctx):
        if self.batch_size:
            yield from self._drain(ctx)
            return
        if ctx.ifc_enabled and self.view_grants:
            self._check_view_authority(ctx)
        session = ctx.session
        txn = session.transaction
        txn_manager = session.db.txn_manager
        table = self.table
        predicate = self.predicate
        on_values = self.predicate_on_values
        registry = ctx.registry
        read_label = ctx.read_label
        declass = self.declass
        check_labels = ctx.ifc_enabled
        for version in self._candidates(ctx):
            table.touch(version)
            if not txn_manager.visible(version, txn):
                continue
            if check_labels:
                label = version.label
                if declass:
                    label = strip(registry, label, declass)
                if not covers(registry, label, read_label):
                    RULE_COUNTERS.rows_suppressed += 1
                    continue
            else:
                label = version.label
            if predicate is not None and on_values:
                # Label-free predicate: test the stored tuple directly;
                # only survivors pay the output-row copy.
                if not predicate(version.values, ctx):
                    continue
                values = list(version.values)
                values.append(label)
            else:
                values = list(version.values)
                values.append(label)
                if predicate is not None and not predicate(values, ctx):
                    continue
            yield values, label, version.ilabel

    def batches(self, ctx):
        """Batch-native scan: the two big per-tuple amortizations.

        Candidates arrive in chunks; each chunk is charged to the
        buffer cache by page run, MVCC-filtered batch-wise, and
        label-filtered through a per-batch memo keyed on the interned
        label object — ``covers`` runs once per *distinct* label per
        batch instead of once per tuple.  Declassifying views take the
        per-row path (each row's emitted label is its *stripped* label,
        so the uniform-label shortcut does not apply), where the
        globally memoized ``strip``/``covers`` still serve them.

        Output is **columnar**: surviving versions are collected first,
        then only the ``needed`` stored columns are materialized into
        per-column arrays (``EXEC_COUNTERS.columns_materialized``
        counts the copied cells), with the emitted labels doubling as
        the ``_label`` pseudo-column.  Predicates still evaluate
        against the stored tuple, before any materialization.
        """
        if not self.batch_size:
            yield from Plan.batches(self, ctx)
            return
        if ctx.ifc_enabled and self.view_grants:
            self._check_view_authority(ctx)
        session = ctx.session
        txn = session.transaction
        txn_manager = session.db.txn_manager
        table = self.table
        predicate = self.predicate
        registry = ctx.registry
        read_label = ctx.read_label
        declass = self.declass
        check_labels = ctx.ifc_enabled
        size = self.batch_size
        ncols = len(table.schema.column_names)
        positions = (range(ncols) if self.needed is None else self.needed)
        # Label-run batching applies when every emitted label is the
        # stored label (no declassification): one covers() per distinct
        # interned label per batch.  Declassifying views take the
        # per-row path (the emitted label is the *stripped* one), where
        # the globally memoized strip/covers still serve them.
        run_memo = check_labels and not declass
        for chunk in self._candidate_chunks(ctx, size):
            _touch_page_runs(table, chunk)
            live = _visible_versions(chunk, txn, txn_manager)
            kept: list = []
            out_labels: list = []
            out_ilabels: list = []
            memo: Dict[Label, bool] = {}
            for version in live:
                label = version.label
                if run_memo:
                    ok = memo.get(label)
                    if ok is None:
                        ok = covers(registry, label, read_label)
                        memo[label] = ok
                    if not ok:
                        RULE_COUNTERS.rows_suppressed += 1
                        continue
                elif check_labels:
                    if declass:
                        label = strip(registry, label, declass)
                    if not covers(registry, label, read_label):
                        RULE_COUNTERS.rows_suppressed += 1
                        continue
                if predicate is not None and not self._check_predicate(
                        predicate, version, label, ctx):
                    continue
                kept.append(version)
                out_labels.append(label)
                out_ilabels.append(version.ilabel)
            if not kept:
                continue
            columns: list = [None] * (ncols + 1)
            for p, col in zip(positions, table.materialize_columns(
                    kept, positions)):
                columns[p] = col
            columns[ncols] = out_labels       # the _label pseudo-column
            EXEC_COUNTERS.columns_materialized += \
                len(positions) * len(kept)
            yield RowBatch.from_columns(columns, out_labels, out_ilabels)


class IndexScan(Scan):
    """Scan driven by an index lookup; key computed per execution."""

    def __init__(self, table: Table, index, key_fns: List[Callable],
                 predicate: Optional[Callable], declass: Label,
                 view_grants: List[Tuple[ViewDef, Label]],
                 predicate_on_values: bool = False,
                 needed: Optional[Tuple[int, ...]] = None):
        super().__init__(table, predicate, declass, view_grants,
                         predicate_on_values, needed)
        self.index = index
        self.key_fns = key_fns

    def _candidates(self, ctx):
        key = tuple(fn([], ctx) for fn in self.key_fns)
        if any(k is None for k in key):
            return iter(())
        return self.table.probe(self.index, key,
                                ctx.session.db.txn_manager)


class IndexRangeScan(Scan):
    """Scan driven by an ordered-index range lookup.

    The key is an equality prefix (``eq_fns``) plus optional low/high
    bounds on the next index column, all computed per execution; the
    candidate tids come from ``OrderedIndex.scan_range``.  A bound
    expression evaluating to NULL yields no rows (a SQL comparison
    against NULL is UNKNOWN), matching what the filter would do.
    """

    def __init__(self, table: Table, index, eq_fns: List[Callable],
                 low_fn: Optional[Callable], high_fn: Optional[Callable],
                 include_low: bool, include_high: bool,
                 predicate: Optional[Callable], declass: Label,
                 view_grants: List[Tuple[ViewDef, Label]],
                 predicate_on_values: bool = False,
                 needed: Optional[Tuple[int, ...]] = None):
        super().__init__(table, predicate, declass, view_grants,
                         predicate_on_values, needed)
        self.index = index
        self.eq_fns = eq_fns
        self.low_fn = low_fn
        self.high_fn = high_fn
        self.include_low = include_low
        self.include_high = include_high

    def _candidates(self, ctx):
        prefix = tuple(fn([], ctx) for fn in self.eq_fns)
        if any(k is None for k in prefix):
            return iter(())
        low = prefix if prefix else None
        include_low = True
        if self.low_fn is not None:
            value = self.low_fn([], ctx)
            if value is None:
                return iter(())
            low = prefix + (value,)
            include_low = self.include_low
        high = prefix if prefix else None
        include_high = True
        if self.high_fn is not None:
            value = self.high_fn([], ctx)
            if value is None:
                return iter(())
            high = prefix + (value,)
            include_high = self.include_high
        return self.table.versions_for_tids(
            self.index.scan_range(low, high, include_low=include_low,
                                  include_high=include_high))


class Filter(Plan):
    """Residual predicate the optimizer could not push into a scan
    (e.g. a subquery conjunct, or one above a join).  Row-native: no
    benchmark workload runs it, so it has no batch kernel."""

    def __init__(self, child: Plan, predicate: Callable):
        self.child = child
        self.predicate = predicate

    def rows(self, ctx):
        predicate = self.predicate
        for values, label, ilabel in _row_source(self.child, ctx):
            if predicate(values, ctx):
                yield values, label, ilabel


class NestedLoopJoin(Plan):
    """Generic join; materializes the right side once per execution."""

    def __init__(self, left: Plan, right: Plan, kind: str,
                 on: Optional[Callable], right_width: int):
        self.left = left
        self.right = right
        self.kind = kind
        self.on = on
        self.right_width = right_width

    def rows(self, ctx):
        right_rows = list(_row_source(self.right, ctx))
        on = self.on
        outer = self.kind == "left"
        pad = [None] * self.right_width
        for lvalues, llabel, lilabel in _row_source(self.left, ctx):
            matched = False
            for rvalues, rlabel, rilabel in right_rows:
                combined = lvalues + rvalues
                if on is not None and not on(combined, ctx):
                    continue
                matched = True
                yield (combined, llabel.union(rlabel),
                       lilabel.union(rilabel))
            if outer and not matched:
                yield lvalues + pad, llabel, lilabel


class IndexLoopJoin(Plan):
    """Join where the inner side is a base-table index lookup.

    The key functions reference only left-side columns (checked at plan
    time), so they are evaluated against the left row padded to full
    width.  Residual ON conditions are applied to the combined row.

    **Batch mode** collects a batch of outer rows, dedupes their probe
    keys (sorted when the key type allows, for index locality), and
    probes the index **once per distinct key per batch** — visibility,
    label checks, and buffer-cache touches are charged once per
    candidate version per *probe*, not per duplicate outer row, so a
    duplicate-heavy foreign key stops multiplying the per-probe costs.
    Joined rows are emitted in outer-row order, exactly as row mode
    would have.  Both modes admit inner rows through the one
    :meth:`_probe` loop (touch, visible, strip/covers).
    """

    def __init__(self, left: Plan, table: Table, index,
                 key_fns: List[Callable], residual: Optional[Callable],
                 kind: str, declass: Label,
                 view_grants: List[Tuple[ViewDef, Label]],
                 right_width: int):
        self.left = left
        self.table = table
        self.index = index
        self.key_fns = key_fns
        self.residual = residual
        self.kind = kind
        self.declass = declass
        self.view_grants = view_grants
        self.right_width = right_width

    def _check_view_authority(self, ctx: ExecContext) -> None:
        for view, tags in self.view_grants:
            for tag_id in tags:
                if not ctx.authority.has_authority(view.principal, tag_id):
                    raise AuthorityError(
                        "declassifying view %r lost authority" % view.name)

    def _probe(self, ctx, key, txn, txn_manager,
               label_memo: Optional[Dict[Label, bool]]) -> list:
        """One index probe: the visible, label-covered inner rows for
        ``key``.  ``label_memo`` is the per-batch covers() memo; None
        in row mode and under declassification (where each row's
        emitted label is its stripped label), leaving the global
        strip/covers memos to serve."""
        table = self.table
        registry = ctx.registry
        read_label = ctx.read_label
        declass = self.declass
        check_labels = ctx.ifc_enabled
        matches = []
        for version in table.probe(self.index, key, txn_manager):
            table.touch(version)
            if not txn_manager.visible(version, txn):
                continue
            label = version.label
            if check_labels:
                if label_memo is not None:
                    ok = label_memo.get(label)
                    if ok is None:
                        ok = covers(registry, label, read_label)
                        label_memo[label] = ok
                    if not ok:
                        RULE_COUNTERS.rows_suppressed += 1
                        continue
                else:
                    if declass:
                        label = strip(registry, label, declass)
                    if not covers(registry, label, read_label):
                        RULE_COUNTERS.rows_suppressed += 1
                        continue
            rvalues = list(version.values)
            rvalues.append(label)
            matches.append((rvalues, label, version.ilabel))
        return matches

    def batches(self, ctx):
        if not self.batch_size:
            yield from Plan.batches(self, ctx)
            return
        if ctx.ifc_enabled and self.view_grants:
            self._check_view_authority(ctx)
        session = ctx.session
        txn = session.transaction
        txn_manager = session.db.txn_manager
        residual = self.residual
        outer = self.kind == "left"
        pad = [None] * self.right_width
        key_fns = self.key_fns
        size = self.batch_size
        use_memo = ctx.ifc_enabled and not self.declass
        out_values: list = []
        out_labels: list = []
        out_ilabels: list = []
        for batch in self.left.batches(ctx):
            keys: list = []
            distinct: dict = {}
            for lvalues in batch.values:
                probe_row = lvalues + pad
                key = tuple(fn(probe_row, ctx) for fn in key_fns)
                if any(k is None for k in key):
                    keys.append(None)
                else:
                    keys.append(key)
                    distinct[key] = None
            ordered = list(distinct)
            try:
                ordered.sort()
            except TypeError:
                pass                  # incomparable key mix: keep order
            label_memo: Optional[Dict[Label, bool]] = \
                {} if use_memo else None
            for key in ordered:
                distinct[key] = self._probe(ctx, key, txn, txn_manager,
                                            label_memo)
            llabels = batch.labels
            lilabels = batch.ilabels
            for i, lvalues in enumerate(batch.values):
                llabel = llabels[i]
                lilabel = lilabels[i]
                key = keys[i]
                matched = False
                if key is not None:
                    for rvalues, rlabel, rilabel in distinct[key]:
                        combined = lvalues + rvalues
                        if residual is not None \
                                and not residual(combined, ctx):
                            continue
                        matched = True
                        out_values.append(combined)
                        out_labels.append(llabel.union(rlabel))
                        out_ilabels.append(lilabel.union(rilabel))
                if outer and not matched:
                    out_values.append(lvalues + pad)
                    out_labels.append(llabel)
                    out_ilabels.append(lilabel)
                if len(out_values) >= size:
                    yield RowBatch(out_values, out_labels, out_ilabels)
                    out_values, out_labels, out_ilabels = [], [], []
        if out_values:
            yield RowBatch(out_values, out_labels, out_ilabels)

    def rows(self, ctx):
        if self.batch_size:
            yield from self._drain(ctx)
            return
        if ctx.ifc_enabled and self.view_grants:
            self._check_view_authority(ctx)
        session = ctx.session
        txn = session.transaction
        txn_manager = session.db.txn_manager
        residual = self.residual
        outer = self.kind == "left"
        pad = [None] * self.right_width
        key_fns = self.key_fns
        probe = self._probe
        for lvalues, llabel, lilabel in _row_source(self.left, ctx):
            probe_row = lvalues + pad
            key = tuple(fn(probe_row, ctx) for fn in key_fns)
            matched = False
            if not any(k is None for k in key):
                for rvalues, rlabel, rilabel in probe(ctx, key, txn,
                                                      txn_manager, None):
                    combined = lvalues + rvalues
                    if residual is not None and not residual(combined, ctx):
                        continue
                    matched = True
                    yield (combined, llabel.union(rlabel),
                           lilabel.union(rilabel))
            if outer and not matched:
                yield lvalues + pad, llabel, lilabel


class HashJoin(Plan):
    """Equi-join: hash the right side, probe with left rows.

    **Memory bound.**  The build is byte-estimated as it grows
    (:func:`repro.db.spill.estimate_row_bytes`); when it exceeds the
    execution budget (``ctx.work_mem``, from ``Database(work_mem=…)`` /
    ``REPRO_WORK_MEM``; 0 = unbounded) the join switches to hybrid
    grace spilling (:class:`repro.db.spill.SpilledHashBuild`): build
    and probe rows are hash-partitioned to temp files, one partition
    stays memory-resident so its probes still stream, and oversized
    partitions re-partition recursively.  Spilling changes *where* a
    probe row meets its matches — never which matches exist: every
    spooled row already passed the scan-level MVCC and label checks
    under the statement's snapshot, and the snapshot cannot move while
    the statement runs (see ``_visible_versions``), so a spilled and an
    in-memory execution see exactly the same rows.
    """

    #: Worker-pool size for the spilled partition phase (set by the
    #: planner from ``Database(workers=…)``; 0/1 = serial).  Grace
    #: partitions are key-disjoint, so each worker joins a contiguous
    #: partition range independently; draining in range order keeps
    #: the serial output order.
    workers: int = 0

    def __init__(self, left: Plan, right: Plan, left_key_fns: List[Callable],
                 right_key_fns: List[Callable], residual: Optional[Callable],
                 kind: str, right_width: int, left_width: int):
        self.left = left
        self.right = right
        self.left_key_fns = left_key_fns
        self.right_key_fns = right_key_fns
        self.residual = residual
        self.kind = kind
        self.right_width = right_width
        self.left_width = left_width

    def _build(self, ctx):
        """Hash the right side under the byte budget.

        Returns ``(buckets, spill)``: ``spill`` is None while the build
        fits in memory, otherwise a
        :class:`~repro.db.spill.SpilledHashBuild` that absorbed every
        build row (and ``buckets`` is empty).  A batched build side is
        consumed whole batches at a time (:func:`_row_source`).
        """
        budget = ctx.work_mem
        buckets: Dict[tuple, list] = {}
        setdefault = buckets.setdefault
        pad_left = [None] * self.left_width
        right_key_fns = self.right_key_fns
        spill = None
        mem = 0
        try:
            for row in _row_source(self.right, ctx):
                rvalues = row[0]
                probe = pad_left + rvalues
                key = tuple(fn(probe, ctx) for fn in right_key_fns)
                if any(k is None for k in key):
                    continue
                if spill is not None:
                    spill.add_build(key, row)
                    continue
                setdefault(key, []).append(row)
                if budget:
                    mem += estimate_row_bytes(rvalues, row[1]) \
                        + BUCKET_ENTRY_BYTES
                    if mem > budget:
                        spill = SpilledHashBuild(budget)
                        spill.take_buckets(buckets)
                        buckets = {}
        except BaseException:
            # The spill never reaches a caller who could close it.
            if spill is not None:
                spill.close()
            raise
        return buckets, spill

    def _join_matches(self, lvalues, llabel, lilabel, matches, ctx, pad):
        """Emit the joined rows for one probe row (shared by the
        streaming and the spilled partition phases)."""
        residual = self.residual
        matched = False
        for rvalues, rlabel, rilabel in matches:
            combined = lvalues + rvalues
            if residual is not None and not residual(combined, ctx):
                continue
            matched = True
            yield (combined, llabel.union(rlabel), lilabel.union(rilabel))
        if self.kind == "left" and not matched:
            yield lvalues + pad, llabel, lilabel

    def _partition_rows(self, ctx, spill, lo, hi):
        """Joined output of partitions ``[lo, hi)`` — the per-partition
        work unit, shared verbatim by the serial loop and the parallel
        gang so counter totals cannot depend on the worker count."""
        pad = [None] * self.right_width
        for partition in spill.partitions[lo:hi]:
            try:
                for probe_row, matches in _join_partition(
                        partition.build.rows(), partition.probe.rows(),
                        spill.budget, spill.depth + 1):
                    lvalues, llabel, lilabel = probe_row
                    yield from self._join_matches(
                        lvalues, llabel, lilabel, matches, ctx, pad)
            finally:
                partition.close()

    def _spilled_rows(self, ctx, spill):
        """Partition phase: join every spooled probe row.

        With ``workers`` configured, the key-disjoint partitions fan
        out to a forked gang — each
        child inherits the spool descriptors, reads only its range,
        and ships joined rows back through the labeled-row codec.
        """
        start = 0
        if spill.resident is not None:
            # Resident probes were answered online; nothing spooled.
            spill.partitions[0].close()
            start = 1
        total = len(spill.partitions)
        if self.workers >= 2 and total - start >= 2:
            from . import parallel
            if parallel.FORK_AVAILABLE:
                ranges = parallel.split_ranges(start, total,
                                               self.workers)
                yield from parallel.run_gang(
                    [self._partition_task(ctx, spill, lo, hi)
                     for lo, hi in ranges])
                return
        yield from self._partition_rows(ctx, spill, start, total)

    def _partition_task(self, ctx, spill, lo, hi):
        def task():
            return self._partition_rows(ctx, spill, lo, hi)
        return task

    def rows(self, ctx):
        if self.batch_size:
            yield from self._drain(ctx)
            return
        buckets, spill = self._build(ctx)
        outer = self.kind == "left"
        pad = [None] * self.right_width
        try:
            for lvalues, llabel, lilabel in self.left.rows(ctx):
                probe = lvalues + pad
                key = tuple(fn(probe, ctx) for fn in self.left_key_fns)
                if any(k is None for k in key):
                    if outer:
                        yield lvalues + pad, llabel, lilabel
                    continue
                if spill is None:
                    matches = buckets.get(key, ())
                else:
                    matches = spill.probe(key, (lvalues, llabel, lilabel))
                    if matches is None:
                        continue      # spooled for the partition phase
                yield from self._join_matches(lvalues, llabel, lilabel,
                                              matches, ctx, pad)
            if spill is not None:
                yield from self._spilled_rows(ctx, spill)
        finally:
            # A mid-iteration error (or an abandoned iterator) must not
            # leak the partition spools' descriptors; close is
            # idempotent, so the clean-exhaustion path pays nothing.
            if spill is not None:
                spill.close()

    def batches(self, ctx):
        if not self.batch_size:
            yield from Plan.batches(self, ctx)
            return
        buckets, spill = self._build(ctx)
        residual = self.residual
        outer = self.kind == "left"
        pad = [None] * self.right_width
        left_key_fns = self.left_key_fns
        size = self.batch_size
        out_values: list = []
        out_labels: list = []
        out_ilabels: list = []
        empty = ()
        try:
            for batch in self.left.batches(ctx):
                llabels = batch.labels
                lilabels = batch.ilabels
                for i, lvalues in enumerate(batch.values):
                    llabel = llabels[i]
                    lilabel = lilabels[i]
                    probe = lvalues + pad
                    key = tuple(fn(probe, ctx) for fn in left_key_fns)
                    matched = False
                    if not any(k is None for k in key):
                        if spill is None:
                            matches = buckets.get(key, empty)
                        else:
                            matches = spill.probe(key, (lvalues, llabel,
                                                        lilabel))
                            if matches is None:
                                # Spooled for the partition phase.
                                continue
                        # Mirrors _join_matches, inlined: this loop
                        # appends straight into the output batch on the
                        # hot path.
                        for rvalues, rlabel, rilabel in matches:
                            combined = lvalues + rvalues
                            if residual is not None \
                                    and not residual(combined, ctx):
                                continue
                            matched = True
                            out_values.append(combined)
                            out_labels.append(llabel.union(rlabel))
                            out_ilabels.append(lilabel.union(rilabel))
                    if outer and not matched:
                        out_values.append(lvalues + pad)
                        out_labels.append(llabel)
                        out_ilabels.append(lilabel)
                    if len(out_values) >= size:
                        yield RowBatch(out_values, out_labels,
                                       out_ilabels)
                        out_values, out_labels, out_ilabels = [], [], []
            if spill is not None:
                for values, label, ilabel in self._spilled_rows(ctx,
                                                                spill):
                    out_values.append(values)
                    out_labels.append(label)
                    out_ilabels.append(ilabel)
                    if len(out_values) >= size:
                        yield RowBatch(out_values, out_labels,
                                       out_ilabels)
                        out_values, out_labels, out_ilabels = [], [], []
        finally:
            # Mid-iteration error or abandoned iterator: release the
            # partition spools deterministically (close is idempotent).
            if spill is not None:
                spill.close()
        if out_values:
            yield RowBatch(out_values, out_labels, out_ilabels)


class AggSpec:
    """One aggregate computation: function, argument, distinct flag."""

    __slots__ = ("func", "arg_fn", "distinct")

    def __init__(self, func: str, arg_fn: Optional[Callable], distinct: bool):
        self.func = func
        self.arg_fn = arg_fn
        self.distinct = distinct


class _AggState:
    """Accumulator for one aggregate within one group."""

    __slots__ = ("func", "distinct", "seen", "count", "total", "best")

    def __init__(self, func: str, distinct: bool):
        self.func = func
        self.distinct = distinct
        self.seen = set() if distinct else None
        self.count = 0
        self.total = None
        self.best = None

    def add(self, value) -> None:
        if self.func == "COUNT" and value is _STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.func in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif self.func == "MIN":
            if self.best is None or value < self.best:
                self.best = value
        elif self.func == "MAX":
            if self.best is None or value > self.best:
                self.best = value

    def result(self):
        if self.func == "COUNT":
            return self.count
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return None if self.count == 0 else self.total / self.count
        return self.best


_STAR = object()


class AggregateNode(Plan):
    """GROUP BY + aggregate evaluation.

    Output rows are ``group_key_values + aggregate_results``; downstream
    expressions were rewritten by the planner to slot references.

    **Memory bound (grace hash aggregation).**  Group state is charged
    against ``ctx.work_mem`` as groups are created (key bytes + one
    :data:`AGG_STATE_BYTES` accumulator per spec + hash-entry
    overhead).  When creating one more group would overflow, already-
    resident groups keep accumulating in memory — they absorb their
    remaining input rows at full speed — while rows for *new* keys
    hash-partition to disk through :class:`GroupSpill`; each partition
    is then re-aggregated recursively (fresh salt per level, same
    fanout/termination scheme as the grace join).  A key is therefore
    either entirely resident or entirely spooled, so no group is ever
    counted twice.  Resident groups emit in first-seen order; spilled
    partitions follow, so *output order changes when an aggregate
    spills* — SQL makes no promise here, and ORDER BY sits above this
    node.  Global aggregates never spill: their state is one row.
    """

    #: Worker-pool size for the grace-partition phase (set by the
    #: planner; 0/1 = serial).  Spilled partitions are key-disjoint, so
    #: a worker folds and finalizes its partition range completely —
    #: no cross-worker combine step is ever needed.
    workers: int = 0

    def __init__(self, child: Plan, group_fns: List[Callable],
                 specs: List[AggSpec], global_agg: bool):
        self.child = child
        self.group_fns = group_fns
        self.specs = specs
        self.global_agg = global_agg

    def _fold(self, ctx, source, depth: int):
        """Fold ``(key, row)`` pairs into per-group state, grace-
        spilling new groups past the budget; yields result rows."""
        budget = 0 if self.global_agg else ctx.work_mem
        groups: Dict[tuple, list] = {}
        labels: Dict[tuple, Label] = {}
        ilabels: Dict[tuple, Label] = {}
        order: List[tuple] = []
        specs = self.specs
        entry_bytes = AGG_STATE_BYTES * len(specs) + BUCKET_ENTRY_BYTES
        spill = None
        mem = 0
        try:
            for key, (values, label, ilabel) in source:
                states = groups.get(key)
                if states is None:
                    if spill is None and budget:
                        cost = estimate_row_bytes(key) + entry_bytes
                        if (mem + cost > budget and order
                                and depth < MAX_RECURSION):
                            spill = GroupSpill(salt=depth, depth=depth)
                        else:
                            mem += cost
                    if spill is not None:
                        spill.add(key, (values, label, ilabel))
                        continue
                    states = [_AggState(s.func, s.distinct) for s in specs]
                    groups[key] = states
                    labels[key] = label
                    ilabels[key] = ilabel
                    order.append(key)
                else:
                    labels[key] = labels[key].union(label)
                    ilabels[key] = ilabels[key].union(ilabel)
                for spec, state in zip(specs, states):
                    if spec.arg_fn is None:
                        state.add(_STAR)
                    else:
                        state.add(spec.arg_fn(values, ctx))
            if not groups and self.global_agg:
                states = [_AggState(s.func, s.distinct) for s in specs]
                yield ([] + [s.result() for s in states], EMPTY_LABEL,
                       EMPTY_LABEL)
                return
            for key in order:
                yield (list(key) + [s.result() for s in groups[key]],
                       labels[key], ilabels[key])
            if spill is not None:
                yield from self._spilled_groups(ctx, spill, depth)
        finally:
            # An accumulator TypeError (or an abandoned iterator) must
            # not leak the partition spools; close is idempotent.
            if spill is not None:
                spill.close()

    def _partition_rows(self, ctx, spill, lo, hi, depth):
        """Finalized result rows of spill partitions ``[lo, hi)`` — the
        per-partition work unit shared by the serial loop and the
        parallel gang (identical code, identical counters)."""
        for spool in spill.spools[lo:hi]:
            if spool.count:
                yield from self._fold(ctx, spool.rows(), depth + 1)
            else:
                spool.close()

    def _spilled_groups(self, ctx, spill, depth):
        """Drain the grace partitions, fanning out to a forked gang
        when workers are configured (top level only — recursive
        re-spills stay inside their worker)."""
        total = len(spill.spools)
        if depth == 0 and self.workers >= 2 \
                and sum(1 for s in spill.spools if s.count) >= 2:
            from . import parallel
            if parallel.FORK_AVAILABLE:
                ranges = parallel.split_ranges(0, total, self.workers)
                yield from parallel.run_gang(
                    [self._group_task(ctx, spill, lo, hi, depth)
                     for lo, hi in ranges])
                return
        yield from self._partition_rows(ctx, spill, 0, total, depth)

    def _group_task(self, ctx, spill, lo, hi, depth):
        def task():
            return self._partition_rows(ctx, spill, lo, hi, depth)
        return task

    def _grouped(self, ctx):
        group_fns = self.group_fns

        def keyed():
            for row in _row_source(self.child, ctx):
                yield tuple(fn(row[0], ctx) for fn in group_fns), row
        return self._fold(ctx, keyed(), 0)

    def rows(self, ctx):
        return self._grouped(ctx)


class Project(Plan):
    """Output projection; ``batch_fns`` are the batch-compiled column
    evaluators (one per output column) used in batch mode — each runs
    over the whole batch, columnar style, and the results *are* the
    output batch's columns (no per-row zip-back; widening to row-major
    happens lazily, at the first row-native consumer)."""

    def __init__(self, child: Plan, fns: List[Callable],
                 batch_fns: Optional[List[Callable]] = None):
        self.child = child
        self.fns = fns
        self.batch_fns = batch_fns

    def rows(self, ctx):
        if self.batch_size:
            yield from self._drain(ctx)
            return
        fns = self.fns
        for values, label, ilabel in self.child.rows(ctx):
            yield [fn(values, ctx) for fn in fns], label, ilabel

    def batches(self, ctx):
        if not self.batch_size:
            yield from Plan.batches(self, ctx)
            return
        fns = self.fns
        batch_fns = self.batch_fns
        for batch in self.child.batches(ctx):
            if batch_fns is not None:
                columns = [fn(batch, ctx) for fn in batch_fns]
                yield RowBatch.from_columns(columns, batch.labels,
                                            batch.ilabels)
                continue
            out = [[fn(row, ctx) for fn in fns] for row in batch.values]
            yield RowBatch(out, batch.labels, batch.ilabels)


class _MixedKey:
    """Total-order wrapper for values from a mixed-type column.

    Comparison is natural when the values are mutually comparable and
    falls back to ``(type name, str(value))`` tags across incomparable
    types — the same family of order :class:`DeterministicOrder`
    imposes.  In the SQL value domain (numbers, strings, ``None``
    handled one level up) mutual comparability partitions the values
    into classes whose type names agree on the cross-class direction
    (every number sorts before every string), so this is a consistent
    total order: within a class it *is* the natural order, which is
    what makes runs sorted naturally safe to merge under mixed keys.
    """

    __slots__ = ("value",)
    __hash__ = None

    def __init__(self, value):
        self.value = value

    def _tag(self):
        value = self.value
        return (type(value).__name__, str(value))

    def __lt__(self, other):
        try:
            return self.value < other.value
        except TypeError:
            return self._tag() < other._tag()

    def __eq__(self, other):
        # ``==`` never raises across types, so no fallback is needed —
        # and incomparable values are never spuriously equal.
        return self.value == other.value


class _Desc:
    """Inverts comparisons for one DESC component of a composite sort
    key (tuple comparison probes ``==`` before ``<``, so both must
    flip through to the wrapped key)."""

    __slots__ = ("key",)
    __hash__ = None

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


class Sort(Plan):
    """ORDER BY; NULLs sort last ascending, first descending.

    **Memory bound (external merge sort).**  Under ``ctx.work_mem``
    the input is consumed in byte-estimated chunks: each full chunk is
    sorted in memory and spooled as one run through the labeled-row
    codec (labels re-intern on reload, so the covers/strip memos
    survive), then all runs k-way merge through a heap in a single
    pass — the merge holds one row per run, never the input.
    Unbounded (``work_mem=0``, the naive/reference executor) sorts
    fully in memory, as before.

    **Mixed-type keys.**  Sorting tries the natural per-column key
    ``(value is None, value)`` first; if the column mixes incomparable
    types (legal in untyped storage — ``DeterministicOrder`` already
    handles it) the chunk retries under :class:`_MixedKey`'s
    type-tagged total order instead of raising.  Merges always use the
    mixed-tolerant key: wherever values compare naturally the two
    orders agree, so naturally-sorted runs are correctly ordered under
    it even when *different* runs hold incomparable types.
    """

    def __init__(self, child: Plan, key_fns: List[Callable],
                 descending: List[bool]):
        self.child = child
        self.key_fns = key_fns
        self.descending = descending

    def _key(self, ctx, mixed: bool) -> Callable:
        """Composite key over row values: one ``(value is None, value)``
        component per ORDER BY column — NULLs last ascending — wrapped
        in :class:`_Desc` for DESC columns and (with ``mixed``) in
        :class:`_MixedKey` for type-tolerant comparison."""
        pairs = list(zip(self.key_fns, self.descending))

        def key(values):
            parts = []
            for fn, desc in pairs:
                value = fn(values, ctx)
                part = (value is None,
                        _MixedKey(value) if mixed else value)
                parts.append(_Desc(part) if desc else part)
            return tuple(parts)

        return key

    def _sort_chunk(self, chunk: list, ctx, mixed: bool):
        """Sort one in-memory chunk; returns ``(chunk, mixed)`` with
        ``mixed`` latched once any chunk needed the fallback."""
        key = self._key(ctx, mixed)
        try:
            chunk.sort(key=lambda row: key(row[0]))
        except TypeError:
            if mixed:
                raise
            return self._sort_chunk(chunk, ctx, True)
        return chunk, mixed

    def _input(self, ctx) -> Iterator[ExecRow]:
        return _row_source(self.child, ctx)

    def _sorted(self, ctx, source=None):
        """All input rows in order: one in-memory sort when the input
        fits ``ctx.work_mem`` (or no budget is set), else spooled
        sorted runs merged by :meth:`_merge`."""
        budget = ctx.work_mem
        chunk: list = []
        mem = 0
        runs = None
        mixed = False
        try:
            for row in (source if source is not None
                        else self._input(ctx)):
                chunk.append(row)
                if budget:
                    mem += estimate_row_bytes(row[0], row[1])
                    if mem > budget:
                        chunk, mixed = self._sort_chunk(chunk, ctx, mixed)
                        if runs is None:
                            runs = SortRuns()
                        runs.spool(chunk)
                        chunk = []
                        mem = 0
            chunk, mixed = self._sort_chunk(chunk, ctx, mixed)
        except BaseException:
            # The runs never reach the merge that would close them.
            if runs is not None:
                runs.close()
            raise
        if runs is None:
            return chunk
        if chunk:
            runs.spool(chunk)
        key = self._key(ctx, True)

        def merged():
            try:
                yield from heapq.merge(
                    *(run.labeled_rows() for run in runs.runs),
                    key=lambda row: key(row[0]))
            finally:
                # A consumer that stops early (LIMIT above the sort) or
                # dies mid-merge must not leak the run descriptors.
                runs.close()
        return merged()

    def _result(self, ctx):
        return self._sorted(ctx)

    def rows(self, ctx):
        return iter(self._result(ctx))


class TopN(Sort):
    """ORDER BY … LIMIT as a bounded heap (optimizer rewrite).

    Streams the input keeping only the best ``limit + offset`` rows
    (``heapq.nsmallest`` — stable, so ties keep arrival order exactly
    like the stable full sort), then discards the offset prefix.  A
    small limit thus never materializes, sorts, or spills the full
    input.  Heap keys always use the mixed-type-tolerant composite
    (one failed comparison mid-stream could not be retried — the input
    is not resumable).

    Fallbacks preserve Sort+Limit semantics exactly: a NULL limit
    degenerates to the (possibly external) full sort with an offset
    skip, and when the heap itself could not fit ``work_mem`` (limit
    within a constant of the input is the classic case) the operator
    external-sorts instead of holding an over-budget heap.
    """

    def __init__(self, child: Plan, key_fns: List[Callable],
                 descending: List[bool], limit_fn: Optional[Callable],
                 offset_fn: Optional[Callable]):
        Sort.__init__(self, child, key_fns, descending)
        self.limit_fn = limit_fn
        self.offset_fn = offset_fn

    def _result(self, ctx):
        limit = self.limit_fn([], ctx) if self.limit_fn else None
        offset = (self.offset_fn([], ctx) if self.offset_fn else 0) or 0
        if limit is None:
            return islice(iter(self._sorted(ctx)), offset, None)
        n = limit + offset
        if n <= 0:
            return iter(())
        source = self._input(ctx)
        first = next(source, None)
        if first is None:
            return iter(())
        rewound = chain([first], source)
        budget = ctx.work_mem
        if budget and estimate_row_bytes(first[0], first[1]) * n > budget:
            return islice(iter(self._sorted(ctx, rewound)), offset, n)
        key = self._key(ctx, True)
        top = heapq.nsmallest(n, rewound, key=lambda row: key(row[0]))
        return iter(top[offset:])


class Distinct(Plan):
    """DISTINCT: collapse duplicate value tuples.

    **Label union.**  Collapsing duplicates *reads* every one of them,
    so under the tuple-granularity label model a distinct result row
    carries the union of all collapsed rows' labels and ilabels — the
    same semantics :class:`AggregateNode` applies to groups (an
    earlier version kept the first-seen row's labels, silently
    declassifying later duplicates).  That makes DISTINCT a blocking
    operator: a late duplicate can still raise the label of an
    already-seen tuple, so nothing is emitted until the input is
    drained.

    **Memory bound.**  Distinct state is group state with no
    accumulators; it grace-spills through :class:`GroupSpill` exactly
    like aggregation (resident keys keep absorbing duplicates, new
    keys hash-partition to disk, partitions recurse with fresh salts).
    Unlike :class:`AggregateNode` — whose ORDER BY sits *above* it —
    Distinct sits above the Sort in a ``SELECT DISTINCT … ORDER BY``
    plan, so its output order is user-visible.  Each row therefore
    carries its arrival sequence through the spill: residents were all
    first seen before any spooled key (spilling starts mid-stream) and
    every recursive partition stream comes back seq-ascending, so
    chaining residents with a seq-merge of the partitions restores
    global first-seen order — i.e. the input (sorted) order — while
    holding one row per partition stream.
    """

    def __init__(self, child: Plan):
        self.child = child

    def _fold(self, ctx, source, depth: int):
        """Fold ``(seq, key, row)`` triples into distinct state;
        yields ``(seq, values, label, ilabel)`` in ascending seq
        (= global first-seen order)."""
        budget = ctx.work_mem
        rows_of: Dict[tuple, tuple] = {}
        labels: Dict[tuple, Label] = {}
        ilabels: Dict[tuple, Label] = {}
        order: List[tuple] = []
        spill = None
        mem = 0
        try:
            for seq, key, (values, label, ilabel) in source:
                held = labels.get(key)
                if held is not None:
                    labels[key] = held.union(label)
                    ilabels[key] = ilabels[key].union(ilabel)
                    continue
                if spill is None and budget:
                    cost = estimate_row_bytes(values, label) \
                        + BUCKET_ENTRY_BYTES
                    if (mem + cost > budget and order
                            and depth < MAX_RECURSION):
                        spill = GroupSpill(salt=depth, depth=depth)
                    else:
                        mem += cost
                if spill is not None:
                    # The seq rides in the spooled values (slot 0) so
                    # the labeled-row codec needs no side channel.
                    spill.add(key, ([seq] + values, label, ilabel))
                    continue
                rows_of[key] = (seq, values)
                labels[key] = label
                ilabels[key] = ilabel
                order.append(key)
            streams = []
            if spill is not None:
                streams = [self._fold(ctx, _unspool_seq(partition),
                                      depth + 1)
                           for partition in spill.partitions()]
            for key in order:
                seq, values = rows_of[key]
                yield seq, values, labels[key], ilabels[key]
            yield from heapq.merge(*streams, key=lambda item: item[0])
        finally:
            # Mid-fold error or abandoned iterator: release the
            # partition spools deterministically (close is idempotent).
            if spill is not None:
                spill.close()

    def _distinct(self, ctx):
        def keyed():
            for seq, row in enumerate(_row_source(self.child, ctx)):
                yield seq, tuple(row[0]), row
        for _seq, values, label, ilabel in self._fold(ctx, keyed(), 0):
            yield values, label, ilabel

    def rows(self, ctx):
        return self._distinct(ctx)


class Limit(Plan):
    def __init__(self, child: Plan, limit_fn: Optional[Callable],
                 offset_fn: Optional[Callable]):
        self.child = child
        self.limit_fn = limit_fn
        self.offset_fn = offset_fn

    def rows(self, ctx):
        limit = self.limit_fn([], ctx) if self.limit_fn else None
        offset = self.offset_fn([], ctx) if self.offset_fn else 0
        produced = 0
        skipped = 0
        for row in _row_source(self.child, ctx):
            if skipped < (offset or 0):
                skipped += 1
                continue
            if limit is not None and produced >= limit:
                return
            produced += 1
            yield row


class DeterministicOrder(Plan):
    """Countermeasure for the tuple-allocation channel (section 7.3).

    Orders rows by a deterministic function of their values so heap
    placement cannot leak the relative order of modifications.  The
    prototype leaves this off by default; the engine exposes it as the
    ``deterministic_order`` flag.
    """

    def __init__(self, child: Plan):
        self.child = child

    def rows(self, ctx):
        rows = list(_row_source(self.child, ctx))
        rows.sort(key=lambda row: tuple(
            (v is None, str(type(v).__name__), str(v)) for v in row[0]))
        return iter(rows)


class ViewPlan(Plan):
    """Adapts a planned view/subquery: appends the row label as the
    ``_label`` pseudo-column so outer scopes can reference it.

    This is the label-stripping boundary of a declassifying view: the
    inner plan's scans already emit stripped labels, so predicates the
    optimizer keeps *above* this node observe post-declassification
    labels.  The optimizer never pushes a predicate through it.
    """

    def __init__(self, inner: Plan):
        self.inner = inner

    def rows(self, ctx):
        for values, label, ilabel in _row_source(self.inner, ctx):
            yield values + [label], label, ilabel


class PreparedSelect:
    """A planned SELECT: the plan tree plus output column names."""

    def __init__(self, plan: Plan, columns: List[str]):
        self.plan = plan
        self.columns = columns


class PreparedDML:
    """A planned UPDATE/DELETE: the target scan (a :class:`Scan`
    subclass whose ``versions()`` drives execution) plus the compiled
    ``SET`` assignments (UPDATE only; empty for DELETE)."""

    __slots__ = ("plan", "assignments")

    def __init__(self, plan: Scan, assignments: List[Tuple[int, Callable]]):
        self.plan = plan
        self.assignments = assignments


def _explain_line(plan: Plan) -> str:
    """One operator's EXPLAIN summary (no indent, no children).

    The text is the operator's ``explain`` annotation (attached by the
    planner during lowering) or the bare class name, followed by the
    optimizer's cost/row estimates when it attached them.  Shared by
    :func:`explain_plan` and EXPLAIN ANALYZE
    (:class:`repro.db.metrics.PlanRecorder`), which appends the
    measured actuals to the same line.
    """
    line = plan.explain or type(plan).__name__
    if plan.est_rows is not None:
        line += "  (cost=%.2f rows=%d)" % (plan.est_cost or 0.0,
                                           round(plan.est_rows))
    # Projection pushed into a scan: the stored columns it materializes.
    needed_names = getattr(plan, "needed_names", None)
    if needed_names is not None:
        line += "  cols=%s" % ",".join(needed_names)
    # Batched execution: only batch-native operators are ever stamped.
    if plan.batch_size:
        line += "  batch=%d" % plan.batch_size
    # Memory estimates for materializing operators: expected grace
    # partitions (0 omitted — the build fits work_mem) and the peak
    # resident bytes (per-partition share when spilling).
    # Parallel fan-out: joins/aggregates advertise the pool their
    # grace-partition phase would use if they spill.
    workers = getattr(plan, "workers", 0)
    if workers >= 2:
        line += "  workers=%d" % workers
    if plan.est_spill_partitions:
        line += "  spill_partitions=%d" % plan.est_spill_partitions
    # External-sort runs the optimizer expects to spool (0 omitted —
    # the sort fits its budget).
    if plan.est_runs:
        line += "  runs=%d" % plan.est_runs
    if plan.est_mem is not None:
        line += "  mem=%dB" % round(plan.est_mem)
    return line


def explain_plan(plan: Plan, indent: int = 0) -> List[str]:
    """Render a physical plan tree as indented one-line operator
    summaries, so the output always reflects the tree — and the
    costing — that ``rows()`` would execute under."""
    lines = ["  " * indent + _explain_line(plan)]
    for child in _children(plan):
        lines.extend(explain_plan(child, indent + 1))
    return lines


def _children(plan: Plan) -> List[Plan]:
    if isinstance(plan, (NestedLoopJoin, HashJoin)):
        return [plan.left, plan.right]
    if isinstance(plan, IndexLoopJoin):
        return [plan.left]
    if isinstance(plan, ViewPlan):
        return [plan.inner]
    child = getattr(plan, "child", None)
    return [child] if child is not None else []


#: Index-driven scans expecting fewer candidate rows than this floor
#: stay row-at-a-time even inside a batched plan: a one-row primary-key
#: probe cannot amortize the batch machinery (measured ~+25% per query
#: below a handful of rows), while a full heap scan wins at every size
#: because ``all_versions_batched`` slices the version array instead of
#:  driving a per-version generator.  The optimizer's cardinality
#: estimate decides — vectorization is a plan property, like any other
#: access-path choice.
BATCH_MIN_INDEX_ROWS = 32


def stamp_batch_size(plan: Plan, size: int) -> Plan:
    """Stamp ``batch_size`` over a plan tree (called at lowering).

    A zero size leaves the tree row-at-a-time — the naive/reference
    executor's mode, pinned by
    :meth:`~repro.db.optimizer.Optimizer.exec_batch_size`.  Otherwise
    the walk is estimate-driven, bottom-up: full heap scans always
    batch, index scans batch when the optimizer expects at least
    :data:`BATCH_MIN_INDEX_ROWS` candidate rows, and the other
    batch-native operators (:class:`Project`, :class:`HashJoin`,
    :class:`IndexLoopJoin`) batch iff a child does — so a one-row probe
    query stays entirely on the row path, paying zero batch overhead.
    :class:`IndexLoopJoin` adds its own floor: its batch win is the
    per-batch probe dedup, which needs at least
    :data:`BATCH_MIN_INDEX_ROWS` *outer* rows to amortize.  Row-native
    operators are never stamped, so nothing above one is batched either
    (it reads its batched children through :func:`_row_source`).
    Subquery plans compiled into expression closures are stamped by
    their own ``plan_select`` call, not this walk.
    """
    if not size:
        return plan

    def visit(node: Plan) -> bool:
        child_batched = False
        for child in _children(node):
            if visit(child):
                child_batched = True
        if isinstance(node, Scan):
            if type(node) is Scan:
                batched = True
            else:
                est = node.est_rows
                batched = est is None or est >= BATCH_MIN_INDEX_ROWS
        elif isinstance(node, IndexLoopJoin):
            outer_est = node.left.est_rows
            batched = child_batched and (
                outer_est is None or outer_est >= BATCH_MIN_INDEX_ROWS)
        elif isinstance(node, (Project, HashJoin)):
            batched = child_batched
        else:
            batched = False
        node.batch_size = size if batched else 0
        return batched

    visit(plan)
    return plan


def plan_tables(plan: Plan) -> frozenset:
    """Names of the base tables a plan tree reads (scans and index-join
    inner sides).  Used to selectively evict cached plans when a table's
    statistics are refreshed.  Subqueries compiled into expressions are
    not walked — a plan missing from an eviction stays merely stale in
    its *estimates*; DDL still invalidates every plan via the catalog
    version."""
    names = set()

    def visit(node: Plan) -> None:
        table = getattr(node, "table", None)
        if isinstance(table, Table):
            names.add(table.name)
        for child in _children(node):
            visit(child)

    visit(plan)
    return frozenset(names)
