"""The planner facade: logical plan → optimizer → physical operators.

Planning a SELECT is a three-stage pipeline:

1. :func:`repro.db.logical.build_logical` resolves the AST against the
   catalog into a :class:`~repro.db.logical.LogicalQuery`;
2. :class:`repro.db.optimizer.Optimizer` annotates it with access paths
   (index vs heap scan), join strategies (index / hash / nested loop),
   pushed-down predicates, and folded constants;
3. this module *lowers* the annotated tree to the pull-based physical
   operators of :mod:`repro.db.physical`, compiling expressions to
   closures along the way, and attaches one-line ``explain``
   annotations so ``EXPLAIN`` can print exactly the tree that executes.

Query by Label stays enforced in the physical scan operators (the
paper's section 7.1 invariant): nothing in this pipeline can surface a
tuple the process may not see, because the label check happens at the
layer that reads tuples, below every optimization decision.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.labels import EMPTY_LABEL
from ..errors import DatabaseError
from ..sql import ast
from . import expressions as ex
from .catalog import Catalog
from .logical import LogicalQuery, SourceEntry, build_dml_logical, \
    build_logical
from .optimizer import (
    COST_ROW,
    DEFAULT_SEL,
    FullScanAccess,
    HashJoinChoice,
    IndexEqAccess,
    IndexJoinChoice,
    IndexRangeAccess,
    Optimizer,
    estimate_group_spill,
    estimate_sort_spill,
)
from .physical import (
    AggregateNode,
    AggSpec,
    DeterministicOrder,
    Distinct,
    ExecContext,
    ExecRow,
    Filter,
    HashJoin,
    IndexLoopJoin,
    IndexRangeScan,
    IndexScan,
    Limit,
    NestedLoopJoin,
    Plan,
    PreparedDML,
    PreparedSelect,
    Project,
    Scan,
    SingleRow,
    Sort,
    TopN,
    ViewPlan,
    _children,
    explain_plan,
    stamp_batch_size,
)
from .spill import estimated_tuple_bytes

__all__ = [
    "AggregateNode", "AggSpec", "DeterministicOrder", "Distinct",
    "ExecContext", "ExecRow", "Filter", "HashJoin",
    "IndexLoopJoin", "IndexRangeScan", "IndexScan", "Limit",
    "NestedLoopJoin", "Plan", "Planner", "PreparedDML",
    "PreparedSelect", "Project", "Scan", "SingleRow", "Sort", "TopN",
    "ViewPlan", "explain_plan",
]


class Planner:
    """Plans SELECTs and DML against the catalog via the three layers.

    ``naive=True`` builds reference plans with every optimization off
    (see :class:`~repro.db.optimizer.Optimizer`); the differential test
    harness uses it as the known-good executor.
    """

    def __init__(self, catalog: Catalog, registry, stats=None,
                 naive: bool = False, batch_size: int = 0,
                 work_mem: int = 0, workers: int = 0):
        self.catalog = catalog
        self.registry = registry
        self.optimizer = Optimizer(catalog, stats=stats, naive=naive,
                                   work_mem=work_mem)
        #: Execution batch size stamped onto lowered plans; the
        #: optimizer pins it to 0 (row-at-a-time) in naive mode so the
        #: differential harness's reference executor stays per-tuple.
        self.batch_size = self.optimizer.exec_batch_size(batch_size)
        #: Worker-pool size for spilled hash joins and aggregates (0 =
        #: serial; naive mode and fork-less platforms pin 0).
        self.workers = self.optimizer.exec_workers(workers)

    # -- public entry points ----------------------------------------------
    def plan_select(self, select: ast.Select,
                    outer_scope: Optional[ex.Scope] = None,
                    batched: bool = True) -> PreparedSelect:
        """Plan a SELECT.  ``batched=False`` skips the batch stamping:
        expression-embedded subqueries (EXISTS, IN, scalar) pass it
        because their consumers short-circuit — EXISTS stops at the
        first row, a scalar subquery at the second — and draining a
        whole RowBatch per probe would throw that away.
        """
        query = build_logical(select, self.catalog, outer_scope,
                              EMPTY_LABEL, [])
        self.optimizer.optimize(query)
        prepared = self._lower(query)
        if batched:
            if self.workers >= 2:
                self._hand_out_workers(prepared.plan)
            stamp_batch_size(prepared.plan, self.batch_size)
        return prepared

    def _hand_out_workers(self, plan: Plan) -> None:
        """Give the worker pool to every hash join and aggregate: when
        one spills, its key-disjoint grace partitions fan out to a
        forked gang (see ARCHITECTURE.md, "Parallel execution").
        Everything else runs serially in the calling process."""
        if isinstance(plan, (HashJoin, AggregateNode)):
            plan.workers = self.workers
        for child in _children(plan):
            self._hand_out_workers(child)

    def plan_dml(self, statement) -> PreparedDML:
        """Plan an UPDATE/DELETE through the same three layers as SELECT.

        The target scan comes out of the identical logical →
        access-path-selection → lowering pipeline (so equality probes,
        ``IndexRangeScan`` for range predicates, and stats-driven
        costing all apply), but execution pulls ``versions()`` instead
        of ``rows()``: the session needs the physical tuple versions to
        stamp ``xmax`` and to run the write-rule equality check.  The
        plan is not batch-stamped: ``versions()`` runs row-at-a-time.
        """
        query = build_dml_logical(statement, self.catalog)
        self.optimizer.optimize_dml(query)
        plan = self._lower_entry(query.entry, query.scope)
        assignments: List[Tuple[int, Callable]] = []
        if isinstance(statement, ast.Update):
            schema = query.entry.table.schema
            compiler = self.compiler(query.scope)
            for column, expr in statement.assignments:
                assignments.append((schema.position(column),
                                    compiler.compile(expr)))
        return PreparedDML(plan, assignments)

    def compiler(self, scope: ex.Scope) -> ex.ExprCompiler:
        return ex.ExprCompiler(scope, catalog=self.catalog, planner=self)

    # -- lowering: annotated logical tree → physical operators ------------
    def _lower(self, query: LogicalQuery) -> PreparedSelect:
        scope = query.scope
        compiler = self.compiler(scope)
        if not query.entries:
            plan: Plan = SingleRow()
            for conjunct in query.residual_where:
                plan = self._filter(plan, conjunct, compiler)
            return self._finish_select(query, plan, compiler)

        plan = self._lower_entry(query.entries[0], scope)
        left_width = query.entries[0].width
        for i in range(1, len(query.entries)):
            entry = query.entries[i]
            plan = self._lower_join(plan, left_width, entry, scope, compiler)
            left_width += entry.width
            for conjunct in entry.post_filters:
                plan = self._filter(plan, conjunct, compiler)
        for conjunct in query.residual_where:
            plan = self._filter(plan, conjunct, compiler)
        return self._finish_select(query, plan, compiler)

    def _filter(self, child: Plan, conjunct: ex.Expr,
                compiler: ex.ExprCompiler) -> Plan:
        plan = Filter(child, compiler.compile(conjunct))
        plan.explain = "Filter (%s)" % ex.to_sql(conjunct)
        if child.est_rows is not None:
            plan.est_rows = child.est_rows * DEFAULT_SEL
            plan.est_cost = (child.est_cost or 0.0) \
                + COST_ROW * child.est_rows
        return plan

    @staticmethod
    def _annotate(plan: Plan, est_rows, est_cost) -> Plan:
        plan.est_rows = est_rows
        plan.est_cost = est_cost
        return plan

    @staticmethod
    def _passthrough(plan: Plan, child: Plan) -> Plan:
        """Copy the child's estimates onto a rows-preserving operator."""
        plan.est_rows = child.est_rows
        plan.est_cost = child.est_cost
        return plan

    def _local_compiler(self, entry: SourceEntry, scope_full: ex.Scope):
        local_scope = ex.Scope(outer=scope_full.outer)
        local_scope.add_table(entry.alias, entry.columns)
        return local_scope, self.compiler(local_scope)

    def _conjunction(self, conjuncts: List[ex.Expr],
                     compiler: ex.ExprCompiler) -> Optional[Callable]:
        if not conjuncts:
            return None
        if len(conjuncts) == 1:
            return compiler.compile(conjuncts[0])
        return compiler.compile(ex.And(conjuncts))

    @staticmethod
    def _on_values(conjuncts: List[ex.Expr]) -> bool:
        """May the scan predicate run on the bare stored tuple?

        True when every conjunct references only real columns (no
        ``_label``, no subqueries), so the scan can evaluate it against
        ``version.values`` and skip the output-row copy for rejected
        rows — in every mode, and entirely on predicate-free paths.
        """
        return bool(conjuncts) and all(ex.reads_columns_only(c)
                                       for c in conjuncts)

    @staticmethod
    def _relation(entry: SourceEntry) -> str:
        name = entry.relation_name or entry.alias
        if entry.alias != name:
            return "%s (%s)" % (name, entry.alias)
        return name

    def _lower_entry(self, entry: SourceEntry, scope_full: ex.Scope) -> Plan:
        _local_scope, local_compiler = self._local_compiler(entry, scope_full)
        if entry.derived is not None:
            self.optimizer.optimize(entry.derived)
            inner = self._lower(entry.derived)
            plan: Plan = ViewPlan(inner.plan)
            plan.explain = ("View %s" if entry.relation_name
                            else "Subquery %s") % self._relation(entry)
            self._passthrough(plan, inner.plan)
            # Predicates stay above the label-stripping boundary: they
            # see the view's output (stripped) labels, never the inner
            # tuples' raw labels.
            for conjunct in entry.pushed:
                plan = self._filter(plan, conjunct, local_compiler)
            if entry.pushed:
                self._annotate(plan, entry.est_rows, entry.est_cost)
            return plan
        access = entry.access
        if isinstance(access, IndexEqAccess):
            key_fns = [local_compiler.compile(e) for e in access.key_exprs]
            predicate = self._conjunction(access.residual, local_compiler)
            plan = IndexScan(entry.table, access.index, key_fns, predicate,
                             entry.declass, entry.view_grants,
                             predicate_on_values=self._on_values(
                                 access.residual),
                             needed=entry.needed)
            plan.explain = "IndexScan %s using %s (%s)%s" % (
                self._relation(entry), access.index.name,
                self._key_text(access.key_columns, access.key_exprs),
                self._filter_text(access.residual))
            return self._annotate(plan, entry.est_rows, entry.est_cost)
        if isinstance(access, IndexRangeAccess):
            eq_fns = [local_compiler.compile(e) for e in access.eq_exprs]
            low_fn = (local_compiler.compile(access.low_expr)
                      if access.low_expr is not None else None)
            high_fn = (local_compiler.compile(access.high_expr)
                       if access.high_expr is not None else None)
            predicate = self._conjunction(access.residual, local_compiler)
            plan = IndexRangeScan(entry.table, access.index, eq_fns,
                                  low_fn, high_fn, access.include_low,
                                  access.include_high, predicate,
                                  entry.declass, entry.view_grants,
                                  predicate_on_values=self._on_values(
                                      access.residual),
                                  needed=entry.needed)
            plan.explain = "IndexRangeScan %s using %s (%s)%s" % (
                self._relation(entry), access.index.name,
                self._range_key_text(access),
                self._filter_text(access.residual))
            return self._annotate(plan, entry.est_rows, entry.est_cost)
        conjuncts = access.conjuncts if isinstance(access, FullScanAccess) \
            else list(entry.pushed)
        predicate = self._conjunction(conjuncts, local_compiler)
        plan = Scan(entry.table, predicate, entry.declass, entry.view_grants,
                    predicate_on_values=self._on_values(conjuncts),
                    needed=entry.needed)
        plan.explain = "Scan %s%s" % (self._relation(entry),
                                      self._filter_text(conjuncts))
        return self._annotate(plan, entry.est_rows, entry.est_cost)

    @staticmethod
    def _key_text(key_columns, key_exprs) -> str:
        return ", ".join("%s = %s" % (col, ex.to_sql(expr))
                         for col, expr in zip(key_columns, key_exprs))

    @staticmethod
    def _range_key_text(access: IndexRangeAccess) -> str:
        parts = ["%s = %s" % (col, ex.to_sql(expr))
                 for col, expr in zip(access.eq_columns, access.eq_exprs)]
        if access.low_expr is not None:
            parts.append("%s %s %s" % (
                access.range_column, ">=" if access.include_low else ">",
                ex.to_sql(access.low_expr)))
        if access.high_expr is not None:
            parts.append("%s %s %s" % (
                access.range_column, "<=" if access.include_high else "<",
                ex.to_sql(access.high_expr)))
        return ", ".join(parts)

    @staticmethod
    def _filter_text(conjuncts: List[ex.Expr]) -> str:
        if not conjuncts:
            return ""
        return " filter (%s)" % " AND ".join(ex.to_sql(c)
                                             for c in conjuncts)

    def _lower_join(self, left: Plan, left_width: int, entry: SourceEntry,
                    scope: ex.Scope, compiler: ex.ExprCompiler) -> Plan:
        choice = entry.join
        kind = entry.join_kind
        if isinstance(choice, IndexJoinChoice):
            key_fns = [compiler.compile(e) for e in choice.key_exprs]
            residual = self._conjunction(choice.residual, compiler)
            plan = IndexLoopJoin(left, entry.table, choice.index, key_fns,
                                 residual, kind, entry.declass,
                                 entry.view_grants, entry.width)
            plan.explain = "IndexLoopJoin (%s) %s using %s (%s)%s" % (
                kind, self._relation(entry), choice.index.name,
                self._key_text(choice.key_columns, choice.key_exprs),
                self._filter_text(choice.residual))
            return self._annotate(plan, choice.est_rows, choice.est_cost)
        right_plan = self._lower_entry(entry, scope)
        if isinstance(choice, HashJoinChoice):
            left_key_fns = [compiler.compile(e) for e in choice.left_exprs]
            right_key_fns = [compiler.compile(ex.ColumnRef(c, entry.alias))
                             for c in choice.right_columns]
            residual_fn = self._conjunction(choice.residual, compiler)
            plan = HashJoin(left, right_plan, left_key_fns, right_key_fns,
                            residual_fn, kind, entry.width, left_width)
            plan.explain = "HashJoin (%s) on (%s)%s" % (
                kind,
                ", ".join("%s.%s = %s" % (entry.alias, col, ex.to_sql(e))
                          for col, e in zip(choice.right_columns,
                                            choice.left_exprs)),
                self._filter_text(choice.residual))
            plan.est_mem = choice.est_mem
            plan.est_spill_partitions = choice.est_spill_partitions
            return self._annotate(plan, choice.est_rows, choice.est_cost)
        residual_fn = self._conjunction(choice.residual, compiler)
        plan = NestedLoopJoin(left, right_plan, kind, residual_fn,
                              entry.width)
        plan.explain = "NestedLoopJoin (%s)%s" % (
            kind, self._filter_text(choice.residual))
        plan.est_mem = choice.est_mem
        return self._annotate(plan, choice.est_rows, choice.est_cost)

    # -- select list, grouping, ordering ----------------------------------
    def _finish_select(self, query: LogicalQuery, plan: Plan,
                       compiler: ex.ExprCompiler) -> PreparedSelect:
        select = query.select
        items = query.items
        names = query.columns
        has_aggregates = (bool(select.group_by)
                          or any(ex.contains_aggregate(expr)
                                 for expr, _ in items)
                          or (select.having is not None
                              and ex.contains_aggregate(select.having)))

        if has_aggregates:
            plan, post_compiler, rewrite_map = self._plan_aggregation(
                select, plan, compiler, items)
            # Post-aggregation row width: group keys then aggregates
            # (used below to recognize identity projections).
            identity_width = len(plan.group_fns) + len(plan.specs)
            out_exprs = [ex.rewrite(expr, rewrite_map) for expr, _ in items]
            out_fns = [post_compiler.compile(expr) for expr in out_exprs]
            out_compiler = post_compiler
            if select.having is not None:
                having = ex.rewrite(select.having, rewrite_map)
                plan = self._filter(plan, having, post_compiler)
            order_compiler = post_compiler
            order_rewrite = rewrite_map
        else:
            out_exprs = [expr for expr, _ in items]
            out_fns = [compiler.compile(expr) for expr in out_exprs]
            out_compiler = compiler
            if select.having is not None:
                raise DatabaseError("HAVING requires GROUP BY or aggregates")
            order_compiler = compiler
            order_rewrite = {}
            # A non-aggregated input row always ends in _label slots the
            # select list cannot cover, so it never matches an identity
            # projection.
            identity_width = None

        # ORDER BY before projection (so it can reference input columns),
        # with support for output aliases and 1-based positions.
        # ORDER BY … LIMIT (no DISTINCT between them) rewrites to a
        # single bounded-heap TopN absorbing the Limit node: everything
        # separating the two — Project — is 1:1, so applying the limit
        # at the sort is semantics-preserving and a small limit never
        # sorts (or spills) the full input.  Naive/reference plans keep
        # the literal Sort + Limit pair.
        topn = None
        if select.order_by:
            key_fns = []
            descending = []
            order_texts = []
            for order_item in select.order_by:
                expr = order_item.expr
                resolved = self._resolve_order_expr(expr, items, names)
                key_fns.append(order_compiler.compile(
                    ex.rewrite(resolved, order_rewrite)))
                descending.append(order_item.descending)
                order_texts.append(ex.to_sql(resolved)
                                   + (" DESC" if order_item.descending
                                      else ""))
            if (select.limit is not None and not select.distinct
                    and not self.optimizer.naive):
                limit_fn = compiler.compile(select.limit)
                offset_fn = (compiler.compile(select.offset)
                             if select.offset is not None else None)
                topn = TopN(plan, key_fns, descending, limit_fn, offset_fn)
                topn.explain = "TopN [%s] (%s)" % (
                    ", ".join(order_texts), self._limit_text(select))
                sort: Plan = topn
            else:
                sort = Sort(plan, key_fns, descending)
                sort.explain = "Sort [%s]" % ", ".join(order_texts)
            self._passthrough(sort, plan)
            sort_width = (identity_width if identity_width is not None
                          else query.width)
            self._cost_sort(sort, plan, sort_width,
                            self._topn_bound(select) if topn is not None
                            else None)
            plan = sort

        # A projection whose every output expression is SlotRef(i), in
        # order, covering the whole post-aggregation row is the
        # identity (e.g. ``SELECT grp, COUNT(*) … GROUP BY grp``) —
        # elide the no-op node; output names live in PreparedSelect.
        identity = (identity_width is not None
                    and len(out_exprs) == identity_width
                    and all(isinstance(e, ex.SlotRef) and e.slot == i
                            for i, e in enumerate(out_exprs)))
        if not identity:
            batch_fns = [ex.compile_batch(out_compiler, expr)
                         for expr in out_exprs] if self.batch_size else None
            project = Project(plan, out_fns, batch_fns=batch_fns)
            project.explain = "Project [%s]" % ", ".join(names)
            self._passthrough(project, plan)
            plan = project
        if select.distinct:
            distinct = Distinct(plan)
            self._passthrough(distinct, plan)
            self._cost_distinct(distinct, plan, len(names))
            plan = distinct
        if (select.limit is not None or select.offset is not None) \
                and topn is None:
            limit_fn = (compiler.compile(select.limit)
                        if select.limit is not None else None)
            offset_fn = (compiler.compile(select.offset)
                         if select.offset is not None else None)
            limit = Limit(plan, limit_fn, offset_fn)
            limit.explain = "Limit (%s)" % self._limit_text(select)
            self._passthrough(limit, plan)
            plan = limit
        return PreparedSelect(plan, list(names))

    @staticmethod
    def _limit_text(select) -> str:
        parts = []
        if select.limit is not None:
            parts.append("limit %s" % ex.to_sql(select.limit))
        if select.offset is not None:
            parts.append("offset %s" % ex.to_sql(select.offset))
        return ", ".join(parts)

    @staticmethod
    def _topn_bound(select) -> Optional[Tuple[int, int]]:
        """``(limit, offset)`` when both are plain integer literals (the
        common case the optimizer can size the TopN heap from); None
        for parameterized/expression limits — those conservatively get
        the full-sort estimate, matching the runtime's worst case."""
        limit = select.limit
        if not (isinstance(limit, ex.Literal) and isinstance(
                limit.value, int) and not isinstance(limit.value, bool)):
            return None
        offset = 0
        if select.offset is not None:
            if not (isinstance(select.offset, ex.Literal) and isinstance(
                    select.offset.value, int)
                    and not isinstance(select.offset.value, bool)):
                return None
            offset = select.offset.value
        return limit.value, offset

    def _cost_sort(self, sort: Plan, child: Plan, width: int,
                   topn_bound: Optional[Tuple[int, int]]) -> None:
        """Attach sort estimates: full sorts get external-merge run
        counts via :func:`estimate_sort_spill`; a TopN with a literal
        bound gets its heap footprint (and the full-sort fallback
        estimate when even the heap would break the budget)."""
        child_rows = child.est_rows
        if child_rows is None:
            return
        row_bytes = estimated_tuple_bytes(width)
        input_bytes = child_rows * row_bytes
        work_mem = self.optimizer.work_mem
        if topn_bound is not None:
            limit, offset = topn_bound
            n = max(limit + offset, 0)
            held = min(child_rows, float(n))
            sort.est_rows = min(child_rows, float(max(limit, 0)))
            heap_bytes = held * row_bytes
            if work_mem and heap_bytes > work_mem:
                runs, est_mem, extra = estimate_sort_spill(
                    child_rows, input_bytes, work_mem)
                sort.est_runs = runs
                sort.est_mem = est_mem
            else:
                extra = 0.0
                sort.est_mem = heap_bytes
            sort.est_cost = (child.est_cost or 0.0) \
                + COST_ROW * child_rows + extra
            return
        runs, est_mem, extra = estimate_sort_spill(
            child_rows, input_bytes, work_mem)
        sort.est_runs = runs
        sort.est_mem = est_mem
        sort.est_cost = (child.est_cost or 0.0) \
            + COST_ROW * child_rows + extra

    def _cost_distinct(self, distinct: Plan, child: Plan,
                       width: int) -> None:
        """DISTINCT is group state with no accumulators: cost it like
        grace aggregation with zero specs (worst case, every input row
        a distinct group)."""
        child_rows = child.est_rows
        if child_rows is None:
            return
        partitions, est_mem, extra = estimate_group_spill(
            child_rows, child_rows, width, 0, self.optimizer.work_mem)
        distinct.est_mem = est_mem
        distinct.est_spill_partitions = partitions
        distinct.est_cost = (child.est_cost or 0.0) \
            + COST_ROW * child_rows + extra

    def _resolve_order_expr(self, expr, items, names):
        if isinstance(expr, ex.Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(items):
                raise DatabaseError(
                    "ORDER BY position %d out of range" % position)
            return items[position - 1][0]
        if isinstance(expr, ex.ColumnRef) and expr.table is None:
            if expr.name in names:
                return items[names.index(expr.name)][0]
        return expr

    def _plan_aggregation(self, select, plan, compiler, items):
        group_exprs = list(select.group_by)
        aggregates: List[ex.Aggregate] = []
        for expr, _name in items:
            ex.collect_aggregates(expr, aggregates)
        if select.having is not None:
            ex.collect_aggregates(select.having, aggregates)
        for order_item in select.order_by:
            ex.collect_aggregates(order_item.expr, aggregates)

        group_fns = [compiler.compile(g) for g in group_exprs]
        specs = []
        for agg in aggregates:
            arg_fn = compiler.compile(agg.arg) if agg.arg is not None else None
            specs.append(AggSpec(agg.func, arg_fn, agg.distinct))

        node = AggregateNode(plan, group_fns, specs,
                             global_agg=not group_exprs)
        node.explain = "Aggregate [%s]%s" % (
            ", ".join(ex.to_sql(a) for a in aggregates),
            " group by [%s]" % ", ".join(ex.to_sql(g) for g in group_exprs)
            if group_exprs else "")
        child_rows = plan.est_rows
        if child_rows is not None:
            # Without NDV stats on the grouping expressions the group
            # count defaults to the input cardinality — the worst case
            # for memory, which is what the spill estimate must plan
            # for.  Global aggregates hold exactly one group and never
            # spill.
            groups = child_rows if group_exprs else 1.0
            partitions, est_mem, extra = estimate_group_spill(
                child_rows, groups, len(group_exprs), len(specs),
                self.optimizer.work_mem)
            node.est_rows = groups
            node.est_mem = est_mem
            node.est_spill_partitions = partitions
            node.est_cost = (plan.est_cost or 0.0) \
                + COST_ROW * child_rows + extra

        # Post-aggregation rows: group values then aggregate results.
        rewrite_map: Dict[ex.Expr, ex.Expr] = {}
        for slot, group_expr in enumerate(group_exprs):
            rewrite_map[group_expr] = ex.SlotRef(slot)
        for slot, agg in enumerate(aggregates):
            rewrite_map[agg] = ex.SlotRef(len(group_exprs) + slot)

        post_scope = ex.Scope(outer=compiler.scope.outer)
        post_compiler = self.compiler(post_scope)
        return node, post_compiler, rewrite_map
