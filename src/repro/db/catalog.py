"""The catalog: tables, views, functions, procedures, and triggers.

IFDB-specific catalog objects:

* **Declassifying views** (section 4.3) carry a bound declassification
  label and the principal whose authority backs it; creation requires the
  creator to hold that authority, and every use re-checks it (so revoking
  the creator's authority disables the view).
* **Stored authority closures** (sections 3.3, 4.3): procedures and
  triggers may be bound to a principal; when they run, they run with that
  principal's authority instead of the caller's.

The catalog carries a version counter so prepared-plan caches can
invalidate on DDL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.labels import EMPTY_LABEL, Label
from ..errors import CatalogError
from .schema import TableSchema
from .storage import Table

BEFORE = "before"
AFTER = "after"
DEFERRED = "deferred"

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"


@dataclass
class ViewDef:
    """A view; ``declassify`` non-empty makes it a declassifying view."""

    name: str
    select: object                        # parsed Select statement
    columns: List[str]                    # output column names
    declassify: Label = EMPTY_LABEL
    principal: Optional[int] = None       # authority backing the declassify

    @property
    def is_declassifying(self) -> bool:
        return len(self.declassify) > 0


@dataclass
class FunctionDef:
    """A scalar function callable from SQL expressions.

    ``needs_context=True`` functions receive the execution context as
    their first argument (giving access to the session and registry).
    """

    name: str
    fn: Callable
    needs_context: bool = False


@dataclass
class ProcedureDef:
    """A stored procedure; ``closure_principal`` makes it an authority
    closure (it runs with that principal's authority, section 4.3)."""

    name: str
    fn: Callable
    closure_principal: Optional[int] = None


@dataclass
class TriggerDef:
    """A trigger (section 5.2.3).

    Ordinary triggers run with the authority (and label) of the process
    whose statement fired them.  Closure triggers run with the bound
    principal's authority in an isolated label context seeded with the
    statement label, so their contamination does not flow back into the
    firing process.  ``DEFERRED`` triggers run at commit with the label
    of the *statement*, never the commit label.
    """

    name: str
    table: str
    events: FrozenSet[str]
    timing: str
    fn: Callable
    closure_principal: Optional[int] = None


class Catalog:
    """All schema objects of one database."""

    def __init__(self):
        self.tables: Dict[str, Table] = {}
        self.views: Dict[str, ViewDef] = {}
        self.functions: Dict[str, FunctionDef] = {}
        self.procedures: Dict[str, ProcedureDef] = {}
        self.triggers: Dict[str, TriggerDef] = {}
        self._triggers_by_table: Dict[str, List[TriggerDef]] = {}
        # referencing-table lookup for FK restrict checks:
        # referenced table -> [(referencing table name, fk)]
        self._referencing: Dict[str, List[Tuple[str, object]]] = {}
        self.version = 0

    def _bump(self) -> None:
        self.version += 1

    # -- tables -------------------------------------------------------
    def add_table(self, table: Table) -> None:
        name = table.name
        if name in self.tables or name in self.views:
            raise CatalogError("relation %r already exists" % name)
        for fk in table.schema.foreign_keys:
            ref = self.get_table(fk.ref_table)
            for col in fk.ref_columns:
                ref.schema.position(col)
            if not any(set(u.columns) == set(fk.ref_columns)
                       for u in ref.schema.uniques):
                raise CatalogError(
                    "foreign key %r references %s(%s) which is not unique"
                    % (fk.name, fk.ref_table, ", ".join(fk.ref_columns)))
            self._referencing.setdefault(fk.ref_table, []).append((name, fk))
        self.tables[name] = table
        self._bump()

    def get_table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError("table %r does not exist" % name) from None

    def drop_table(self, name: str) -> None:
        table = self.get_table(name)
        if self._referencing.get(name):
            raise CatalogError(
                "cannot drop %r: other tables reference it" % name)
        for fk in table.schema.foreign_keys:
            refs = self._referencing.get(fk.ref_table, [])
            self._referencing[fk.ref_table] = [
                (t, f) for t, f in refs if t != name]
        del self.tables[name]
        self._triggers_by_table.pop(name, None)
        self.triggers = {k: v for k, v in self.triggers.items()
                         if v.table != name}
        self._bump()

    def referencing_foreign_keys(self, table_name: str):
        """Foreign keys in other tables that reference ``table_name``."""
        return self._referencing.get(table_name, [])

    # -- views -----------------------------------------------------------
    def add_view(self, view: ViewDef) -> None:
        if view.name in self.tables or view.name in self.views:
            raise CatalogError("relation %r already exists" % view.name)
        self.views[view.name] = view
        self._bump()

    def get_view(self, name: str) -> ViewDef:
        try:
            return self.views[name]
        except KeyError:
            raise CatalogError("view %r does not exist" % name) from None

    def drop_view(self, name: str) -> None:
        self.get_view(name)
        del self.views[name]
        self._bump()

    def is_view(self, name: str) -> bool:
        return name in self.views

    def relation_exists(self, name: str) -> bool:
        return name in self.tables or name in self.views

    # -- functions / procedures ---------------------------------------------
    def add_function(self, fn_def: FunctionDef) -> None:
        key = fn_def.name.upper()
        if key in self.functions:
            raise CatalogError("function %r already exists" % fn_def.name)
        self.functions[key] = fn_def
        self._bump()

    def has_function(self, name: str) -> bool:
        return name.upper() in self.functions

    def get_function(self, name: str) -> FunctionDef:
        try:
            return self.functions[name.upper()]
        except KeyError:
            raise CatalogError("function %r does not exist" % name) from None

    def add_procedure(self, proc: ProcedureDef) -> None:
        if proc.name in self.procedures:
            raise CatalogError("procedure %r already exists" % proc.name)
        self.procedures[proc.name] = proc
        self._bump()

    def get_procedure(self, name: str) -> ProcedureDef:
        try:
            return self.procedures[name]
        except KeyError:
            raise CatalogError("procedure %r does not exist" % name) from None

    # -- triggers ---------------------------------------------------------
    def add_trigger(self, trigger: TriggerDef) -> None:
        if trigger.name in self.triggers:
            raise CatalogError("trigger %r already exists" % trigger.name)
        self.get_table(trigger.table)
        self.triggers[trigger.name] = trigger
        self._triggers_by_table.setdefault(trigger.table, []).append(trigger)
        self._bump()

    def triggers_for(self, table: str, event: str,
                     timing: str) -> List[TriggerDef]:
        return [t for t in self._triggers_by_table.get(table, ())
                if event in t.events and t.timing == timing]
