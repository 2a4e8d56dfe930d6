"""Constraint enforcement under information flow control (section 5.2).

The interesting cases are the ones where naive enforcement would leak:

* **Uniqueness** (5.2.1): a conflict with a tuple the inserter *can see*
  raises; a conflict with an invisible higher-labelled tuple must NOT
  raise (that would reveal the tuple's existence) — the insert proceeds
  and the table is *polyinstantiated*.  Readers with higher labels see
  both tuples and treat the duplication as a mistake to clean up.
* **Foreign keys** (5.2.2): inserting a referencing tuple reveals the
  parent's existence, and deletes of parents reveal referencing tuples.
  The Foreign Key Rule requires the inserter to hold declassification
  authority for the symmetric difference of the two labels and to name
  those tags explicitly in a ``DECLASSIFYING`` clause.
* **Label constraints** (5.2.4): ``MATCH LABEL`` foreign keys pin a
  tuple's label to its parent's label (preventing polyinstantiation when
  combined with a uniqueness constraint), and ``LABEL CHECK`` expressions
  validate ``_label`` directly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.labels import Label
from ..core.rules import covers, same_contamination, symmetric_difference
from ..errors import (
    AuthorityError,
    CheckViolation,
    ForeignKeyViolation,
    IFCViolation,
    LabelConstraintViolation,
    UniqueViolation,
)
from .expressions import ExprCompiler, Scope
from .schema import ForeignKeyConstraint, TableSchema
from .storage import Table


def _table_row_compiler(db, table: Table) -> ExprCompiler:
    """Compiler for expressions over one table's row (plus ``_label``)."""
    scope = Scope()
    scope.add_table(table.name, table.schema.column_names)
    return ExprCompiler(scope, catalog=db.catalog, planner=db.planner)


def compiled_checks(db, table: Table) -> List[Tuple[str, object]]:
    """Lazily compile and cache the table's CHECK constraint expressions."""
    cache = getattr(table, "_check_fns", None)
    if cache is None or getattr(table, "_check_version", -1) != \
            db.catalog.version:
        compiler = _table_row_compiler(db, table)
        cache = [(c.name, compiler.compile(c.expr))
                 for c in table.schema.checks]
        table._check_fns = cache
        table._check_version = db.catalog.version
    return cache


def compiled_label_checks(db, table: Table) -> List[Tuple[str, object]]:
    cache = getattr(table, "_label_check_fns", None)
    if cache is None or getattr(table, "_label_check_version", -1) != \
            db.catalog.version:
        compiler = _table_row_compiler(db, table)
        cache = [(c.name, compiler.compile(c.expr))
                 for c in table.schema.label_checks]
        table._label_check_fns = cache
        table._label_check_version = db.catalog.version
    return cache


def check_checks(db, ctx, table: Table, values: Tuple, label: Label) -> None:
    """CHECK constraints: NULL (unknown) passes, false fails (SQL rule)."""
    fns = compiled_checks(db, table)
    if not fns:
        return
    row = list(values) + [label]
    for name, fn in fns:
        result = fn(row, ctx)
        if result is not None and not result:
            raise CheckViolation(
                "row violates CHECK constraint %r on table %s"
                % (name, table.name))


def check_label_constraints(db, ctx, table: Table, values: Tuple,
                            label: Label) -> None:
    """LABEL CHECK constraints (section 5.2.4)."""
    fns = compiled_label_checks(db, table)
    if not fns:
        return
    row = list(values) + [label]
    for name, fn in fns:
        result = fn(row, ctx)
        if not result:           # NULL here is a constraint bug; fail closed
            raise LabelConstraintViolation(
                "label %r violates label constraint %r on table %s"
                % (label, name, table.name))


def check_unique(db, session, table: Table, values: Tuple, label: Label,
                 *, exclude_tid: Optional[int] = None) -> None:
    """Uniqueness with polyinstantiation (section 5.2.1).

    A conflicting tuple that is visible to the acting context (MVCC-live
    and label-covered) raises :class:`UniqueViolation`.  Conflicts hidden
    by labels are permitted silently; the table records how often this
    happened so tests and operators can observe polyinstantiation.
    """
    txn = session.transaction
    txn_manager = db.txn_manager
    acting = session.acting
    registry = db.authority.tags
    ifc = db.ifc_enabled
    for unique, index in table.unique_indexes:
        key = index.key_of(values)
        if any(k is None for k in key):       # SQL: NULLs never conflict
            continue
        for version in table.probe(index, key, txn_manager):
            if version.tid == exclude_tid:
                continue
            table.touch(version)
            if not txn_manager.visible(version, txn):
                continue
            if not ifc:
                raise UniqueViolation(
                    "duplicate key %r violates unique constraint %r"
                    % (key, unique.name))
            if covers(registry, version.label, acting.label):
                raise UniqueViolation(
                    "duplicate key %r violates unique constraint %r"
                    % (key, unique.name))
            # Invisible conflict: polyinstantiate rather than leak.
            table.polyinstantiation_count += 1


def _parent_candidates(db, session, fk: ForeignKeyConstraint,
                       key: Tuple) -> List:
    """MVCC-visible parent tuples matching the key, *ignoring labels*.

    The FK rule deliberately looks through labels: the whole point is to
    decide whether the inserter may learn of the parent's existence.
    """
    parent = db.catalog.get_table(fk.ref_table)
    index = parent.find_index(fk.ref_columns)
    txn = session.transaction
    txn_manager = db.txn_manager
    candidates = []
    if index is not None:
        versions = parent.probe(index, key, txn_manager)
    else:
        positions = parent.schema.positions_of(fk.ref_columns)
        versions = (v for v in parent.all_versions()
                    if tuple(v.values[p] for p in positions) == key)
    for version in versions:
        parent.touch(version)
        if txn_manager.visible(version, txn):
            candidates.append(version)
    return candidates


def check_fk_insert(db, session, table: Table, values: Tuple, label: Label,
                    declassifying: Label) -> None:
    """The Foreign Key Rule (section 5.2.2) for inserts/updated children.

    For each foreign key: a parent must exist; and unless the child and
    parent labels carry the same contamination, the acting principal must
    have authority for every tag named in the DECLASSIFYING clause and
    the clause must cover the symmetric difference ``LA △ LB``.
    """
    if not table.schema.foreign_keys:
        return
    acting = session.acting
    registry = db.authority.tags
    authority = db.authority
    for fk in table.schema.foreign_keys:
        positions = table.schema.positions_of(fk.columns)
        key = tuple(values[p] for p in positions)
        if any(k is None for k in key):       # SQL: NULL FK is not checked
            continue
        candidates = _parent_candidates(db, session, fk, key)
        if not candidates:
            raise ForeignKeyViolation(
                "insert into %s violates foreign key %r: no row %r in %s"
                % (table.name, fk.name, key, fk.ref_table))
        if not db.ifc_enabled:
            continue
        last_error: Optional[Exception] = None
        satisfied = False
        for parent in candidates:
            if fk.match_label and not same_contamination(
                    registry, label, parent.label):
                last_error = LabelConstraintViolation(
                    "foreign key %r requires MATCH LABEL: child label %r "
                    "does not match parent label %r"
                    % (fk.name, label, parent.label))
                continue
            difference = symmetric_difference(label, parent.label)
            if not difference:
                satisfied = True
                break
            if not covers(registry, difference, declassifying):
                last_error = IFCViolation(
                    "foreign key %r links labels %r and %r; the tags in "
                    "their symmetric difference must be named in a "
                    "DECLASSIFYING clause (section 5.2.2)"
                    % (fk.name, label, parent.label))
                continue
            missing = [t for t in declassifying
                       if not authority.has_authority(acting.principal, t)]
            if missing:
                last_error = AuthorityError(
                    "DECLASSIFYING clause names tags %r but the acting "
                    "principal lacks authority for them"
                    % (registry.names(missing),))
                continue
            satisfied = True
            break
        if not satisfied:
            raise last_error if last_error is not None else \
                ForeignKeyViolation(
                    "foreign key %r could not be satisfied" % fk.name)


def check_fk_restrict(db, session, table: Table, old_values: Tuple) -> None:
    """RESTRICT semantics for deletes (and key updates) of parent rows.

    Referencing rows are found *ignoring labels*: the resulting failure
    may reveal their existence, which the Foreign Key Rule already made
    acceptable by charging the original inserter for the declassification
    (section 5.2.2's deletion discussion).
    """
    referencing = db.catalog.referencing_foreign_keys(table.name)
    if not referencing:
        return
    txn = session.transaction
    txn_manager = db.txn_manager
    for child_name, fk in referencing:
        child = db.catalog.get_table(child_name)
        parent_positions = table.schema.positions_of(fk.ref_columns)
        key = tuple(old_values[p] for p in parent_positions)
        index = child.find_index(fk.columns)
        if index is not None:
            versions = child.probe(index, key, txn_manager)
        else:
            child_positions = child.schema.positions_of(fk.columns)
            versions = (v for v in child.all_versions()
                        if tuple(v.values[p] for p in child_positions) == key)
        for version in versions:
            child.touch(version)
            if txn_manager.visible(version, txn):
                raise ForeignKeyViolation(
                    "delete from %s would orphan rows in %s (foreign key %r)"
                    % (table.name, child_name, fk.name))
