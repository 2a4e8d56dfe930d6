"""Expression AST, compiler, and builtin functions.

Expressions appear in WHERE/HAVING clauses, select lists, CHECK and label
constraints, and view definitions.  The AST is built either by the SQL
parser (:mod:`repro.sql.parser`) or programmatically.

Compilation turns an AST into a Python closure ``fn(row, ctx) -> value``
against a :class:`Scope` that maps column references to positions in the
flattened execution row.  This keeps the per-row cost low enough for the
TPC-C benchmark while staying an ordinary tree-walking design.

SQL three-valued logic is approximated with ``None`` as UNKNOWN:
comparisons involving NULL yield None, ``AND``/``OR`` propagate it, and
filters treat None as false.

The ``_label`` system column (section 4.2) is exposed to expressions like
any other column; label predicates use the builtins ``LABEL(...)``,
``LABEL_CONTAINS``, ``LABEL_SUBSET`` and friends, which consult the tag
registry through the execution context.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.labels import Label
from ..errors import CatalogError, DatabaseError, SQLSyntaxError

# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes.

    Nodes compare equal structurally (via :meth:`key`), which the planner
    uses to match GROUP BY expressions against select-list expressions.
    """

    __slots__ = ()

    def key(self) -> Tuple:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "%s%r" % (type(self).__name__, self.key()[1:])


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def key(self):
        return ("lit", self.value)


class Param(Expr):
    """A ``?`` placeholder, bound positionally at execution time."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def key(self):
        return ("param", self.index)


class ColumnRef(Expr):
    __slots__ = ("table", "name")

    def __init__(self, name: str, table: Optional[str] = None):
        self.table = table
        self.name = name

    def key(self):
        return ("col", self.table, self.name)


class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    __slots__ = ("table",)

    def __init__(self, table: Optional[str] = None):
        self.table = table

    def key(self):
        return ("star", self.table)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def key(self):
        return ("bin", self.op, self.left.key(), self.right.key())


class Compare(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def key(self):
        return ("cmp", self.op, self.left.key(), self.right.key())


class And(Expr):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]):
        self.items = tuple(items)

    def key(self):
        return ("and",) + tuple(i.key() for i in self.items)


class Or(Expr):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]):
        self.items = tuple(items)

    def key(self):
        return ("or",) + tuple(i.key() for i in self.items)


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def key(self):
        return ("not", self.operand.key())


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def key(self):
        return ("neg", self.operand.key())


class IsNull(Expr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def key(self):
        return ("isnull", self.operand.key(), self.negated)


class InList(Expr):
    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Sequence[Expr],
                 negated: bool = False):
        self.operand = operand
        self.items = tuple(items)
        self.negated = negated

    def key(self):
        return (("in", self.operand.key(), self.negated)
                + tuple(i.key() for i in self.items))


class Between(Expr):
    __slots__ = ("operand", "low", "high", "negated")

    def __init__(self, operand: Expr, low: Expr, high: Expr,
                 negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def key(self):
        return ("between", self.operand.key(), self.low.key(),
                self.high.key(), self.negated)


class Like(Expr):
    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expr, pattern: Expr, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def key(self):
        return ("like", self.operand.key(), self.pattern.key(), self.negated)


class FuncCall(Expr):
    """Builtin or catalog-registered scalar function call."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name.upper()
        self.args = tuple(args)

    def key(self):
        return ("func", self.name) + tuple(a.key() for a in self.args)


class Aggregate(Expr):
    """COUNT/SUM/AVG/MIN/MAX, resolved by the aggregation operator."""

    FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    __slots__ = ("func", "arg", "distinct")

    def __init__(self, func: str, arg: Optional[Expr], distinct: bool = False):
        self.func = func.upper()
        self.arg = arg          # None means COUNT(*)
        self.distinct = distinct

    def key(self):
        return ("agg", self.func,
                self.arg.key() if self.arg is not None else None,
                self.distinct)


class Case(Expr):
    __slots__ = ("whens", "default")

    def __init__(self, whens: Sequence[Tuple[Expr, Expr]],
                 default: Optional[Expr] = None):
        self.whens = tuple(whens)
        self.default = default

    def key(self):
        return (("case",)
                + tuple((c.key(), v.key()) for c, v in self.whens)
                + (self.default.key() if self.default else None,))


class Exists(Expr):
    """EXISTS (subquery); the subquery is a parsed Select statement."""

    __slots__ = ("select", "negated")

    def __init__(self, select, negated: bool = False):
        self.select = select
        self.negated = negated

    def key(self):
        return ("exists", id(self.select), self.negated)


class InSelect(Expr):
    """operand IN (subquery)."""

    __slots__ = ("operand", "select", "negated")

    def __init__(self, operand: Expr, select, negated: bool = False):
        self.operand = operand
        self.select = select
        self.negated = negated

    def key(self):
        return ("insel", self.operand.key(), id(self.select), self.negated)


class ScalarSelect(Expr):
    """A subquery used as a scalar value."""

    __slots__ = ("select",)

    def __init__(self, select):
        self.select = select

    def key(self):
        return ("scalarsel", id(self.select))


class AggSlotRef(Expr):
    """Internal: reference to an aggregate result slot (planner rewrite)."""

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot

    def key(self):
        return ("aggslot", self.slot)


class SlotRef(Expr):
    """Internal: direct reference to a position in the execution row."""

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot

    def key(self):
        return ("slot", self.slot)


# ---------------------------------------------------------------------------
# Scope: name resolution for column references
# ---------------------------------------------------------------------------

class Scope:
    """Maps (table alias, column name) to flat row positions.

    Each FROM item contributes its columns in order, then a ``_label``
    pseudo-column holding that item's per-row label.  An optional
    ``outer`` scope supports correlated subqueries: references that fail
    to resolve locally are looked up in the enclosing query's scope and
    read from ``ctx.outer_stack`` at execution time.
    """

    def __init__(self, outer: Optional["Scope"] = None):
        self.entries: List[Tuple[Optional[str], str]] = []
        self._by_name: Dict[str, List[int]] = {}
        self._by_qualified: Dict[Tuple[str, str], int] = {}
        self.tables: List[Tuple[str, List[str]]] = []   # (alias, colnames)
        self.outer = outer

    def add_table(self, alias: str, columns: Sequence[str]) -> None:
        base = len(self.entries)
        names = list(columns) + ["_label"]
        for offset, name in enumerate(names):
            index = base + offset
            self.entries.append((alias, name))
            self._by_name.setdefault(name, []).append(index)
            self._by_qualified[(alias, name)] = index
        self.tables.append((alias, list(columns)))

    @property
    def width(self) -> int:
        return len(self.entries)

    def resolve(self, name: str, table: Optional[str] = None) -> int:
        if table is not None:
            try:
                return self._by_qualified[(table, name)]
            except KeyError:
                raise CatalogError(
                    "column %s.%s does not exist" % (table, name)) from None
        candidates = self._by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        if not candidates:
            raise CatalogError("column %r does not exist" % name)
        if name == "_label" and len(self.tables) >= 1:
            # Unqualified _label in a single-table query is unambiguous;
            # with joins, require qualification.
            if len(self.tables) == 1:
                return candidates[0]
        raise CatalogError("column reference %r is ambiguous" % name)

    def resolve_depth(self, name: str,
                      table: Optional[str]) -> Tuple[int, int]:
        """Resolve through the outer-scope chain: (depth, index).

        Depth 0 is the local row; depth ``d`` reads from the ``d``-th
        enclosing query's current row.
        """
        scope: Optional[Scope] = self
        depth = 0
        while scope is not None:
            try:
                return depth, scope.resolve(name, table)
            except CatalogError:
                scope = scope.outer
                depth += 1
        raise CatalogError("column %r does not exist in any enclosing scope"
                           % name)

    def star_positions(self, table: Optional[str] = None) -> List[int]:
        """Positions expanded by ``*`` / ``alias.*`` (labels excluded)."""
        positions = []
        for index, (alias, name) in enumerate(self.entries):
            if name == "_label":
                continue
            if table is None or alias == table:
                positions.append(index)
        if table is not None and not positions:
            raise CatalogError("no FROM item named %r" % table)
        return positions

    def star_names(self, table: Optional[str] = None) -> List[str]:
        return [self.entries[i][1] for i in self.star_positions(table)]


# ---------------------------------------------------------------------------
# Builtin scalar functions
# ---------------------------------------------------------------------------

def _null_guard(fn):
    """Wrap a builtin so any NULL argument yields NULL (SQL convention)."""
    def guarded(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)
    return guarded


def _substr(s, start, length=None):
    start = int(start) - 1          # SQL is 1-based
    if length is None:
        return s[start:]
    return s[start:start + int(length)]


_BUILTINS: Dict[str, Callable] = {
    "ABS": _null_guard(abs),
    "LENGTH": _null_guard(len),
    "LOWER": _null_guard(str.lower),
    "UPPER": _null_guard(str.upper),
    "SUBSTR": _null_guard(_substr),
    "SUBSTRING": _null_guard(_substr),
    "ROUND": _null_guard(lambda x, n=0: round(x, int(n))),
    "FLOOR": _null_guard(lambda x: float(int(x // 1))),
    "CEIL": _null_guard(lambda x: float(-((-x) // 1))),
    "MOD": _null_guard(lambda a, b: a % b),
    "TRIM": _null_guard(str.strip),
    "CONCAT": lambda *args: "".join(str(a) for a in args if a is not None),
    "MIN2": _null_guard(min),
    "MAX2": _null_guard(max),
}


def like_match(value: Optional[str], pattern: Optional[str]) -> Optional[bool]:
    """SQL LIKE: ``%`` matches any run, ``_`` any single character."""
    if value is None or pattern is None:
        return None
    import re
    # re.escape leaves % and _ alone on modern Pythons; normalize both
    # possibilities before substituting the wildcards.
    regex = (re.escape(pattern)
             .replace(r"\%", "%").replace(r"\_", "_")
             .replace("%", ".*").replace("_", "."))
    return re.fullmatch(regex, value, re.DOTALL) is not None


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

_CMP_FUNCS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_BIN_FUNCS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "||": lambda a, b: str(a) + str(b),
}


class ExprCompiler:
    """Compiles expression ASTs to closures against a scope.

    ``catalog`` (optional) resolves user-defined scalar functions;
    ``planner`` (optional) plans subquery expressions.  Both are injected
    by the query planner to avoid circular imports.
    """

    def __init__(self, scope: Scope, catalog=None, planner=None):
        self.scope = scope
        self.catalog = catalog
        self.planner = planner

    def compile(self, node: Expr) -> Callable:
        method = getattr(self, "_c_" + type(node).__name__.lower(), None)
        if method is None:
            raise DatabaseError("cannot compile expression %r" % (node,))
        return method(node)

    # -- leaves ----------------------------------------------------------
    def _c_literal(self, node: Literal):
        value = node.value
        return lambda row, ctx: value

    def _c_param(self, node: Param):
        index = node.index
        def run(row, ctx):
            try:
                return ctx.params[index]
            except IndexError:
                raise DatabaseError(
                    "statement requires at least %d parameters, got %d"
                    % (index + 1, len(ctx.params))) from None
        return run

    def _c_columnref(self, node: ColumnRef):
        depth, index = self.scope.resolve_depth(node.name, node.table)
        if depth == 0:
            return lambda row, ctx: row[index]
        def run(row, ctx):
            return ctx.outer_stack[-depth][index]
        return run

    def _c_slotref(self, node: SlotRef):
        index = node.slot
        return lambda row, ctx: row[index]

    def _c_aggslotref(self, node: AggSlotRef):
        index = node.slot
        return lambda row, ctx: row[index]

    # -- operators ---------------------------------------------------------
    def _c_binop(self, node: BinOp):
        fn = _BIN_FUNCS[node.op]
        left = self.compile(node.left)
        right = self.compile(node.right)
        def run(row, ctx):
            lv = left(row, ctx)
            rv = right(row, ctx)
            if lv is None or rv is None:
                return None
            return fn(lv, rv)
        return run

    def _c_compare(self, node: Compare):
        fn = _CMP_FUNCS[node.op]
        left = self.compile(node.left)
        right = self.compile(node.right)
        def run(row, ctx):
            lv = left(row, ctx)
            rv = right(row, ctx)
            if lv is None or rv is None:
                return None
            return fn(lv, rv)
        return run

    def _c_and(self, node: And):
        parts = [self.compile(i) for i in node.items]
        def run(row, ctx):
            saw_null = False
            for part in parts:
                value = part(row, ctx)
                if value is None:
                    saw_null = True
                elif not value:
                    return False
            return None if saw_null else True
        return run

    def _c_or(self, node: Or):
        parts = [self.compile(i) for i in node.items]
        def run(row, ctx):
            saw_null = False
            for part in parts:
                value = part(row, ctx)
                if value is None:
                    saw_null = True
                elif value:
                    return True
            return None if saw_null else False
        return run

    def _c_not(self, node: Not):
        operand = self.compile(node.operand)
        def run(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            return not value
        return run

    def _c_neg(self, node: Neg):
        operand = self.compile(node.operand)
        def run(row, ctx):
            value = operand(row, ctx)
            return None if value is None else -value
        return run

    def _c_isnull(self, node: IsNull):
        operand = self.compile(node.operand)
        if node.negated:
            return lambda row, ctx: operand(row, ctx) is not None
        return lambda row, ctx: operand(row, ctx) is None

    def _c_inlist(self, node: InList):
        operand = self.compile(node.operand)
        items = [self.compile(i) for i in node.items]
        negated = node.negated
        def run(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            found = False
            saw_null = False
            for item in items:
                iv = item(row, ctx)
                if iv is None:
                    saw_null = True
                elif iv == value:
                    found = True
                    break
            if not found and saw_null:
                return None
            return (not found) if negated else found
        return run

    def _c_between(self, node: Between):
        operand = self.compile(node.operand)
        low = self.compile(node.low)
        high = self.compile(node.high)
        negated = node.negated
        def run(row, ctx):
            value = operand(row, ctx)
            lo = low(row, ctx)
            hi = high(row, ctx)
            if value is None or lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return (not result) if negated else result
        return run

    def _c_like(self, node: Like):
        operand = self.compile(node.operand)
        pattern = self.compile(node.pattern)
        negated = node.negated
        def run(row, ctx):
            result = like_match(operand(row, ctx), pattern(row, ctx))
            if result is None:
                return None
            return (not result) if negated else result
        return run

    def _c_case(self, node: Case):
        whens = [(self.compile(c), self.compile(v)) for c, v in node.whens]
        default = self.compile(node.default) if node.default else None
        def run(row, ctx):
            for cond, value in whens:
                if cond(row, ctx):
                    return value(row, ctx)
            return default(row, ctx) if default else None
        return run

    # -- functions ---------------------------------------------------------
    def _c_funccall(self, node: FuncCall):
        args = [self.compile(a) for a in node.args]
        name = node.name
        # Label builtins need the execution context (tag registry).
        if name == "LABEL":
            def make_label(row, ctx):
                names = [a(row, ctx) for a in args]
                return Label(ctx.registry.lookup(n).id for n in names)
            return make_label
        if name == "LABEL_CONTAINS":
            def contains(row, ctx):
                label, tag_name = args[0](row, ctx), args[1](row, ctx)
                if label is None:
                    return None
                return ctx.registry.lookup(tag_name).id in label
            return contains
        if name == "LABEL_SUBSET":
            def subset(row, ctx):
                low, high = args[0](row, ctx), args[1](row, ctx)
                if low is None or high is None:
                    return None
                return low.tags <= ctx.registry.expand(high.tags)
            return subset
        if name == "LABEL_SIZE":
            def size(row, ctx):
                label = args[0](row, ctx)
                return None if label is None else len(label)
            return size
        if name == "COALESCE":
            def coalesce(row, ctx):
                for arg in args:
                    value = arg(row, ctx)
                    if value is not None:
                        return value
                return None
            return coalesce
        if name == "NOW":
            return lambda row, ctx: ctx.now()
        if name in _BUILTINS:
            fn = _BUILTINS[name]
            return lambda row, ctx: fn(*(a(row, ctx) for a in args))
        # User-defined scalar function from the catalog.
        if self.catalog is not None and self.catalog.has_function(node.name):
            udf = self.catalog.get_function(node.name)
            if udf.needs_context:
                return lambda row, ctx: udf.fn(ctx,
                                               *(a(row, ctx) for a in args))
            inner = udf.fn
            return lambda row, ctx: inner(*(a(row, ctx) for a in args))
        raise CatalogError("unknown function %r" % node.name)

    # -- subqueries ----------------------------------------------------------
    def _plan_subquery(self, select, *, scalar: bool):
        if self.planner is None:
            raise DatabaseError("subqueries are not supported here")
        # Row-at-a-time on purpose: EXISTS/IN/scalar consumers pull one
        # or two rows and stop; a batched subplan would materialize a
        # whole RowBatch per probe (see Planner.plan_select).
        prepared = self.planner.plan_select(select, outer_scope=self.scope,
                                            batched=False)
        return prepared.plan

    def _c_exists(self, node: Exists):
        plan = self._plan_subquery(node.select, scalar=False)
        negated = node.negated
        def run(row, ctx):
            ctx.outer_stack.append(row)
            try:
                for _ in plan.rows(ctx):
                    return not negated
                return negated
            finally:
                ctx.outer_stack.pop()
        return run

    def _c_inselect(self, node: InSelect):
        plan = self._plan_subquery(node.select, scalar=False)
        operand = self.compile(node.operand)
        negated = node.negated
        def run(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            ctx.outer_stack.append(row)
            try:
                saw_null = False
                for sub_values, _label, _ilabel in plan.rows(ctx):
                    candidate = sub_values[0]
                    if candidate is None:
                        saw_null = True
                    elif candidate == value:
                        return not negated
                if saw_null:
                    return None
                return negated
            finally:
                ctx.outer_stack.pop()
        return run

    def _c_scalarselect(self, node: ScalarSelect):
        plan = self._plan_subquery(node.select, scalar=True)
        def run(row, ctx):
            ctx.outer_stack.append(row)
            try:
                result = None
                count = 0
                for sub_values, _label, _ilabel in plan.rows(ctx):
                    count += 1
                    if count > 1:
                        raise DatabaseError(
                            "scalar subquery returned more than one row")
                    result = sub_values[0]
                return result
            finally:
                ctx.outer_stack.pop()
        return run


def to_sql(node: Expr) -> str:
    """Render an expression AST as SQL-ish text (EXPLAIN output).

    The rendering is for humans: parameters print as ``?``, subqueries
    collapse to ``(subquery)``, and internal slot references print as
    ``#n`` (their position in the execution row).
    """
    if isinstance(node, Literal):
        if node.value is None:
            return "NULL"
        if isinstance(node.value, str):
            return "'%s'" % node.value.replace("'", "''")
        return str(node.value)
    if isinstance(node, Param):
        return "?"
    if isinstance(node, ColumnRef):
        return "%s.%s" % (node.table, node.name) if node.table else node.name
    if isinstance(node, Star):
        return "%s.*" % node.table if node.table else "*"
    if isinstance(node, (SlotRef, AggSlotRef)):
        return "#%d" % node.slot
    if isinstance(node, (BinOp, Compare)):
        return "%s %s %s" % (to_sql(node.left), node.op, to_sql(node.right))
    if isinstance(node, And):
        return " AND ".join("(%s)" % to_sql(i) if isinstance(i, Or)
                            else to_sql(i) for i in node.items)
    if isinstance(node, Or):
        return " OR ".join(to_sql(i) for i in node.items)
    if isinstance(node, Not):
        return "NOT (%s)" % to_sql(node.operand)
    if isinstance(node, Neg):
        return "-%s" % to_sql(node.operand)
    if isinstance(node, IsNull):
        return "%s IS %sNULL" % (to_sql(node.operand),
                                 "NOT " if node.negated else "")
    if isinstance(node, InList):
        return "%s %sIN (%s)" % (to_sql(node.operand),
                                 "NOT " if node.negated else "",
                                 ", ".join(to_sql(i) for i in node.items))
    if isinstance(node, Between):
        return "%s %sBETWEEN %s AND %s" % (
            to_sql(node.operand), "NOT " if node.negated else "",
            to_sql(node.low), to_sql(node.high))
    if isinstance(node, Like):
        return "%s %sLIKE %s" % (to_sql(node.operand),
                                 "NOT " if node.negated else "",
                                 to_sql(node.pattern))
    if isinstance(node, FuncCall):
        return "%s(%s)" % (node.name,
                           ", ".join(to_sql(a) for a in node.args))
    if isinstance(node, Aggregate):
        arg = "*" if node.arg is None else to_sql(node.arg)
        return "%s(%s%s)" % (node.func,
                             "DISTINCT " if node.distinct else "", arg)
    if isinstance(node, Case):
        parts = ["CASE"]
        for cond, value in node.whens:
            parts.append("WHEN %s THEN %s" % (to_sql(cond), to_sql(value)))
        if node.default is not None:
            parts.append("ELSE %s" % to_sql(node.default))
        parts.append("END")
        return " ".join(parts)
    if isinstance(node, Exists):
        return "%sEXISTS (subquery)" % ("NOT " if node.negated else "")
    if isinstance(node, InSelect):
        return "%s %sIN (subquery)" % (to_sql(node.operand),
                                       "NOT " if node.negated else "")
    if isinstance(node, ScalarSelect):
        return "(subquery)"
    return repr(node)


def contains_aggregate(node: Expr) -> bool:
    """True if the expression tree contains an Aggregate node."""
    if isinstance(node, Aggregate):
        return True
    for attr in getattr(node, "__slots__", ()):
        child = getattr(node, attr)
        if isinstance(child, Expr):
            if contains_aggregate(child):
                return True
        elif isinstance(child, tuple):
            for item in child:
                if isinstance(item, Expr) and contains_aggregate(item):
                    return True
                if (isinstance(item, tuple) and len(item) == 2
                        and all(isinstance(x, Expr) for x in item)):
                    if any(contains_aggregate(x) for x in item):
                        return True
    return False


def collect_aggregates(node: Expr, out: List[Aggregate]) -> None:
    """Collect Aggregate nodes (deduplicated structurally) into ``out``."""
    if isinstance(node, Aggregate):
        if node not in out:
            out.append(node)
        return
    for attr in getattr(node, "__slots__", ()):
        child = getattr(node, attr)
        if isinstance(child, Expr):
            collect_aggregates(child, out)
        elif isinstance(child, tuple):
            for item in child:
                if isinstance(item, Expr):
                    collect_aggregates(item, out)
                elif (isinstance(item, tuple) and len(item) == 2):
                    for x in item:
                        if isinstance(x, Expr):
                            collect_aggregates(x, out)


def reads_columns_only(node: Expr) -> bool:
    """True when the expression can be evaluated against a bare tuple.

    A scan's predicate row is ``list(version.values) + [label]`` — the
    base columns plus the ``_label`` pseudo-column appended at the end.
    When the predicate references only real columns (positions are
    identical with or without the appended label), the executor can run
    it directly on ``version.values`` and skip the per-tuple list copy
    for rows the predicate rejects.  Conservative: any ``_label``
    reference, ``*``, or subquery (whose correlated references receive
    the row via ``ctx.outer_stack`` and could reach the label slot)
    disqualifies the expression.
    """
    if isinstance(node, (Exists, InSelect, ScalarSelect, Star)):
        return False
    if isinstance(node, ColumnRef):
        return node.name != "_label"
    for attr in getattr(node, "__slots__", ()):
        child = getattr(node, attr)
        if isinstance(child, Expr):
            if not reads_columns_only(child):
                return False
        elif isinstance(child, tuple):
            for item in child:
                if isinstance(item, Expr):
                    if not reads_columns_only(item):
                        return False
                elif isinstance(item, tuple):
                    for x in item:
                        if isinstance(x, Expr) and \
                                not reads_columns_only(x):
                            return False
    return True


# ---------------------------------------------------------------------------
# Batch compilation (vectorized executor)
# ---------------------------------------------------------------------------

def compile_batch(compiler: "ExprCompiler", node: Expr) -> Callable:
    """Compile ``node`` to a *batch* closure ``fn(batch, ctx) -> list``.

    The returned function evaluates the expression for every row of a
    :class:`~repro.db.physical.RowBatch` at once, returning one value
    per row.  Its only consumer is a batched
    :class:`~repro.db.physical.Project` (the
    output columns of a batched pipeline).  The kernels are
    **column-at-a-time**: leaves pull whole column arrays
    (``batch.column(i)`` — zero-copy on a columnar batch) and
    comparisons and ``IS NULL`` combine those arrays element-wise, so
    an output column only touches the columns it reads.  Everything
    else — ``AND`` included, whose short-circuit contract the row
    closure already keeps per row — maps the ordinary row closure from
    :meth:`ExprCompiler.compile` over ``batch.values`` (widening the
    batch), so batch compilation can never change semantics — only the
    loop shape.
    """
    if isinstance(node, Literal):
        value = node.value
        return lambda batch, ctx: [value] * len(batch)
    if isinstance(node, Param):
        row_fn = compiler.compile(node)
        return lambda batch, ctx: [row_fn([], ctx)] * len(batch)
    if isinstance(node, ColumnRef):
        depth, index = compiler.scope.resolve_depth(node.name, node.table)
        if depth == 0:
            return lambda batch, ctx: batch.column(index)
        def outer(batch, ctx, depth=depth, index=index):
            return [ctx.outer_stack[-depth][index]] * len(batch)
        return outer
    if isinstance(node, (SlotRef, AggSlotRef)):
        index = node.slot
        return lambda batch, ctx: batch.column(index)
    if isinstance(node, IsNull):
        operand = compile_batch(compiler, node.operand)
        if node.negated:
            return lambda batch, ctx: [v is not None
                                       for v in operand(batch, ctx)]
        return lambda batch, ctx: [v is None for v in operand(batch, ctx)]
    if isinstance(node, Compare):
        fn = _CMP_FUNCS[node.op]
        left = compile_batch(compiler, node.left)
        right = compile_batch(compiler, node.right)
        def compare(batch, ctx):
            return [None if lv is None or rv is None else fn(lv, rv)
                    for lv, rv in zip(left(batch, ctx), right(batch, ctx))]
        return compare
    row_fn = compiler.compile(node)
    return lambda batch, ctx: [row_fn(row, ctx) for row in batch.values]


def rewrite(node: Expr, mapping: Dict[Expr, Expr]) -> Expr:
    """Structurally replace subtrees of ``node`` per ``mapping``.

    Used by the planner to replace aggregate calls and group-by
    expressions with slot references into the post-aggregation row.
    """
    if node in mapping:
        return mapping[node]
    if isinstance(node, (Literal, Param, ColumnRef, Star, SlotRef,
                         AggSlotRef)):
        return node
    if isinstance(node, BinOp):
        return BinOp(node.op, rewrite(node.left, mapping),
                     rewrite(node.right, mapping))
    if isinstance(node, Compare):
        return Compare(node.op, rewrite(node.left, mapping),
                       rewrite(node.right, mapping))
    if isinstance(node, And):
        return And([rewrite(i, mapping) for i in node.items])
    if isinstance(node, Or):
        return Or([rewrite(i, mapping) for i in node.items])
    if isinstance(node, Not):
        return Not(rewrite(node.operand, mapping))
    if isinstance(node, Neg):
        return Neg(rewrite(node.operand, mapping))
    if isinstance(node, IsNull):
        return IsNull(rewrite(node.operand, mapping), node.negated)
    if isinstance(node, InList):
        return InList(rewrite(node.operand, mapping),
                      [rewrite(i, mapping) for i in node.items], node.negated)
    if isinstance(node, Between):
        return Between(rewrite(node.operand, mapping),
                       rewrite(node.low, mapping),
                       rewrite(node.high, mapping), node.negated)
    if isinstance(node, Like):
        return Like(rewrite(node.operand, mapping),
                    rewrite(node.pattern, mapping), node.negated)
    if isinstance(node, FuncCall):
        return FuncCall(node.name, [rewrite(a, mapping) for a in node.args])
    if isinstance(node, Case):
        return Case([(rewrite(c, mapping), rewrite(v, mapping))
                     for c, v in node.whens],
                    rewrite(node.default, mapping) if node.default else None)
    if isinstance(node, Aggregate):
        raise DatabaseError(
            "aggregate %r used outside an aggregation context" % (node,))
    return node
