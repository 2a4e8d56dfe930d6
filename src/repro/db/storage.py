"""Heap storage: tables as version chains with page accounting.

A :class:`Table` owns its tuple versions (the heap), its page allocator,
and its indexes.  All reads and writes of versions flow through
:meth:`Table.touch`, which charges the engine's buffer cache — the hook
the on-disk benchmark configuration (Figure 6) relies on.

Vacuuming (the PostgreSQL garbage collector, which section 7.1 notes is
exempt from the information flow rules) physically removes versions that
are dead to every possible snapshot.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.labels import EMPTY_LABEL, Label
from ..errors import CatalogError
from .indexes import HashIndex, OrderedIndex
from .pages import BufferCache, HeapPageAllocator
from .schema import TableSchema
from .tuples import TupleVersion


class Table:
    """A stored table: schema + heap + indexes."""

    def __init__(self, schema: TableSchema, *, page_size: int,
                 buffer_cache: BufferCache, store_labels: bool):
        self.schema = schema
        self.name = schema.name
        self._versions: List[Optional[TupleVersion]] = []
        self._allocator = HeapPageAllocator(schema.name, page_size)
        self._buffer_cache = buffer_cache
        self._store_labels = store_labels
        self.indexes: Dict[str, object] = {}
        self.unique_indexes: List[Tuple] = []   # (constraint, index)
        self.polyinstantiation_count = 0
        #: Monotonic write counter (inserts, update versions, deletes);
        #: the statistics subsystem compares it against the value seen
        #: at ANALYZE time to decide when histograms have gone stale.
        self.modifications = 0
        self._heap_count = 0                    # non-None versions, O(1)
        # Auto-create a unique hash index per uniqueness constraint.
        for unique in schema.uniques:
            index = HashIndex(
                name="%s_%s_idx" % (schema.name, unique.name),
                columns=unique.columns,
                positions=schema.positions_of(unique.columns),
                unique=True)
            self.indexes[index.name] = index
            self.unique_indexes.append((unique, index))

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------
    def create_index(self, name: str, columns: Sequence[str],
                     *, ordered: bool = False) -> object:
        if name in self.indexes:
            raise CatalogError("index %r already exists" % name)
        positions = self.schema.positions_of(columns)
        cls = OrderedIndex if ordered else HashIndex
        index = cls(name=name, columns=columns, positions=positions)
        # Backfill existing versions (all of them; indexes are
        # version-blind, visibility filters at lookup time).
        for version in self._versions:
            if version is not None:
                index.insert(version.values, version.tid)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError("index %r does not exist" % name)
        if any(index.name == name for _u, index in self.unique_indexes):
            raise CatalogError(
                "index %r backs a unique constraint and cannot be dropped"
                % name)
        del self.indexes[name]

    def find_index(self, columns: Sequence[str],
                   *, prefix_ok: bool = False):
        """An index whose column list matches ``columns`` (or a prefix)."""
        wanted = tuple(columns)
        for index in self.indexes.values():
            if index.columns == wanted:
                return index
        if prefix_ok:
            for index in self.indexes.values():
                if index.columns[:len(wanted)] == wanted:
                    return index
        return None

    # ------------------------------------------------------------------
    # heap operations
    # ------------------------------------------------------------------
    def touch(self, version: TupleVersion) -> None:
        """Charge a page access for examining this version."""
        self._buffer_cache.touch(self.name, version.page_id)

    def touch_run(self, page_id: int, count: int) -> None:
        """Charge ``count`` accesses to one page (a batch's page run).

        Counter-for-counter identical to ``count`` :meth:`touch` calls
        on consecutive versions of the same page — see
        :meth:`~repro.db.pages.BufferCache.touch_run`."""
        self._buffer_cache.touch_run(self.name, page_id, count)

    def append(self, values: Tuple, label: Label, ilabel: Label,
               xid: int) -> TupleVersion:
        """Write a new version into the heap and all indexes."""
        data_size = self.schema.row_data_size(values)
        version = TupleVersion(
            tid=len(self._versions), xmin=xid, values=values,
            label=label if self._store_labels else EMPTY_LABEL,
            ilabel=ilabel if self._store_labels else EMPTY_LABEL,
            data_size=data_size, store_label=self._store_labels)
        version.page_id = self._allocator.place(version.size)
        self._versions.append(version)
        self.modifications += 1
        self._heap_count += 1
        self.touch(version)
        for index in self.indexes.values():
            index.insert(values, version.tid)
        return version

    def version(self, tid: int) -> Optional[TupleVersion]:
        return self._versions[tid]

    def all_versions(self) -> Iterator[TupleVersion]:
        for version in self._versions:
            if version is not None:
                yield version

    def all_versions_batched(self, size: int) -> Iterator[List[TupleVersion]]:
        """Live heap versions in lists of up to ``size``.

        The batch granularity of the vectorized scan: slicing the
        version array and filtering the vacuumed holes in one list
        comprehension is markedly cheaper than driving a per-version
        generator, which is the point of batch-at-a-time execution.
        The loop re-reads ``len()`` so versions appended mid-scan are
        still reached, matching :meth:`all_versions` semantics.
        """
        versions = self._versions
        start = 0
        while start < len(versions):
            chunk = [v for v in versions[start:start + size]
                     if v is not None]
            start += size
            if chunk:
                yield chunk

    def materialize_columns(self, versions: List[TupleVersion],
                            positions) -> List[list]:
        """Copy out one value list per requested column position.

        The storage half of projection pushdown: a batched scan hands
        in its surviving versions and gets back only the columns the
        plan actually reads — stored tuples are never widened into
        full execution rows for columns nobody references.
        """
        return [[version.values[p] for version in versions]
                for p in positions]

    def versions_for_tids(self, tids) -> Iterator[TupleVersion]:
        versions = self._versions
        for tid in tids:
            version = versions[tid]
            if version is not None:
                yield version

    def probe(self, index, key: Tuple, txn_manager) -> List[TupleVersion]:
        """The versions an equality probe of ``index`` finds for ``key``,
        minus those dead to all snapshots.

        The dead ones also leave the index (one copy-on-write
        ``index.prune``), so later probes of the key stop re-checking
        them — PostgreSQL's killing of dead index entries.  Their heap
        versions stay for VACUUM.  Labels play no part: a pruned
        version is invisible to every snapshot, so no process's rows or
        labels change.  The caller still checks visibility and labels
        on what is returned.
        """
        tids = index.lookup(key)
        if not tids:
            return []
        found = list(map(self._versions.__getitem__, tids))
        dead = txn_manager.dead_versions(found)
        if dead:
            gone = {version.tid for version in dead}
            index.prune(key, gone)
            found = [version for version in found
                     if version.tid not in gone]
        return found

    @property
    def version_count(self) -> int:
        return sum(1 for v in self._versions if v is not None)

    @property
    def approx_rows(self) -> int:
        """Cheap (O(1)) row-count estimate for un-analyzed tables: live
        heap versions, which overcounts deleted-but-unvacuumed rows."""
        return self._heap_count

    @property
    def pages(self) -> int:
        return self._allocator.pages_allocated

    # ------------------------------------------------------------------
    # vacuum
    # ------------------------------------------------------------------
    def vacuum(self, txn_manager) -> int:
        """Physically remove the versions dead to all snapshots (see
        :meth:`~repro.db.transactions.TransactionManager.dead_versions`).

        The garbage collector is exempt from label rules (section 7.1).
        """
        dead = txn_manager.dead_versions(self.all_versions())
        for version in dead:
            for index in self.indexes.values():
                index.remove(version.values, version.tid)
            self._versions[version.tid] = None
        self._heap_count -= len(dead)
        return len(dead)
