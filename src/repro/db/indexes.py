"""Secondary indexes: hash (equality) and ordered (range) indexes.

Indexes map key values to tuple ids; they hold entries for every version
a snapshot may still need, and lookups filter by MVCC visibility and by
label afterwards — exactly how the paper's prototype reuses PostgreSQL's
indexes, which "already had to be prepared to deal with multiple
versions" (section 7.1).  This is also why polyinstantiation needed no
special support: a unique index may legitimately hold several live tids
for one key, distinguished only by label.

Like PostgreSQL's index-entry killing, an equality probe
(:meth:`repro.db.storage.Table.probe`) drops the entries of versions it
finds dead to every snapshot, so a row rewritten many times does not
make each later probe re-check its whole dead chain.  Pruning is
copy-on-write (:meth:`HashIndex.prune`, :meth:`OrderedIndex.prune`): a
probe or range scan still iterating the old tid list is unaffected.  The
heap versions themselves stay until VACUUM, which is also what removes
entries no probe happened to visit.

The paper notes (section 7.1) that IFDB does *not* provide label-inverted
indexes; neither do we, and scans filter labels tuple-by-tuple.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.counters import CounterGroup


class IndexCounters(CounterGroup):
    """Process-wide index-probe counters (diff before/after, like
    ``rules.COUNTERS``).  ``lookups`` counts equality probes
    (:meth:`HashIndex.lookup` / :meth:`OrderedIndex.lookup`),
    ``range_scans`` ordered-range scans, ``entries_pruned`` the index
    entries a probe dropped because their versions were dead to every
    snapshot (:meth:`repro.db.storage.Table.probe`).  The batched
    ``IndexLoopJoin`` dedupes duplicate outer keys to one probe per
    distinct key per batch; the join microbenchmark diffs these
    counters to prove it.  Registered as the ``index`` group of the
    unified :data:`repro.db.metrics.REGISTRY` — prefer registry
    scopes / per-statement deltas over hand-diffing this object.
    Accumulates per thread (:class:`~repro.core.counters.CounterGroup`);
    ``snapshot()`` sums across threads."""

    FIELDS = ("lookups", "range_scans", "entries_pruned")


#: The module-wide counter instance (see :class:`IndexCounters`).
COUNTERS = IndexCounters()


class HashIndex:
    """Equality index: key tuple -> list of tids."""

    def __init__(self, name: str, columns: Sequence[str],
                 positions: Sequence[int], unique: bool = False):
        self.name = name
        self.columns = tuple(columns)
        self.positions = tuple(positions)
        self.unique = unique
        self._map: Dict[Tuple, List[int]] = {}

    def key_of(self, values: Tuple) -> Tuple:
        positions = self.positions
        if len(positions) == 1:
            return (values[positions[0]],)
        return tuple(values[p] for p in positions)

    def insert(self, values: Tuple, tid: int) -> None:
        self._map.setdefault(self.key_of(values), []).append(tid)

    def lookup(self, key: Tuple) -> List[int]:
        COUNTERS.lookups += 1
        return self._map.get(key, [])

    def prune(self, key: Tuple, dead) -> None:
        """Drop the tids in the set ``dead`` from ``key``'s entry.

        Copy-on-write: the key gets a new list, so a probe still
        iterating the old one sees it unchanged."""
        tids = self._map.get(key)
        if not tids:
            return
        kept = [tid for tid in tids if tid not in dead]
        COUNTERS.entries_pruned += len(tids) - len(kept)
        if kept:
            self._map[key] = kept
        else:
            del self._map[key]

    def remove(self, values: Tuple, tid: int) -> None:
        """Physically drop an entry (vacuum only)."""
        tids = self._map.get(self.key_of(values))
        if tids and tid in tids:
            tids.remove(tid)
            if not tids:
                del self._map[self.key_of(values)]

    def __len__(self) -> int:
        return sum(len(v) for v in self._map.values())


class OrderedIndex:
    """Sorted index supporting range scans (B-tree stand-in).

    Entries are ``(key, tid)`` kept sorted; inserts use bisection.  Keys
    must be homogeneous per column so Python comparison is total.
    """

    def __init__(self, name: str, columns: Sequence[str],
                 positions: Sequence[int], unique: bool = False):
        self.name = name
        self.columns = tuple(columns)
        self.positions = tuple(positions)
        self.unique = unique
        self._entries: List[Tuple[Tuple, int]] = []

    def key_of(self, values: Tuple) -> Tuple:
        positions = self.positions
        if len(positions) == 1:
            return (values[positions[0]],)
        return tuple(values[p] for p in positions)

    def insert(self, values: Tuple, tid: int) -> None:
        bisect.insort(self._entries, (self.key_of(values), tid))

    def remove(self, values: Tuple, tid: int) -> None:
        entry = (self.key_of(values), tid)
        idx = bisect.bisect_left(self._entries, entry)
        if idx < len(self._entries) and self._entries[idx] == entry:
            del self._entries[idx]

    def lookup(self, key: Tuple) -> List[int]:
        """All tids whose key starts with ``key`` (exact match when the
        key covers every indexed column)."""
        COUNTERS.lookups += 1
        return list(self.scan_prefix(key))

    def prune(self, prefix: Tuple, dead) -> None:
        """Drop the entries whose key starts with ``prefix`` and whose
        tid is in the set ``dead``.

        Copy-on-write: the index gets a new entry list, so a range scan
        still walking the old one sees it unchanged."""
        entries = self._entries
        lo = bisect.bisect_left(entries, (prefix,))
        hi = lo
        width = len(prefix)
        while hi < len(entries) and entries[hi][0][:width] == prefix:
            hi += 1
        kept = [entry for entry in entries[lo:hi] if entry[1] not in dead]
        if len(kept) == hi - lo:
            return
        COUNTERS.entries_pruned += hi - lo - len(kept)
        pruned = entries[:lo]
        pruned += kept
        pruned += entries[hi:]
        self._entries = pruned

    def scan_prefix(self, prefix: Tuple) -> Iterator[int]:
        """Tids whose key starts with ``prefix``, in key order."""
        entries = self._entries
        lo = bisect.bisect_left(entries, (prefix,))
        for i in range(lo, len(entries)):
            key, tid = entries[i]
            if key[:len(prefix)] != prefix:
                break
            yield tid

    def scan_range(self, low: Optional[Tuple], high: Optional[Tuple],
                   *, include_low: bool = True,
                   include_high: bool = True) -> Iterator[int]:
        """Tids with ``low <= key <= high`` (bounds optional), in order."""
        COUNTERS.range_scans += 1
        entries = self._entries
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(entries, (low,))
        else:
            start = bisect.bisect_right(entries, (low + (_SENTINEL,),))
        for i in range(start, len(entries)):
            key, tid = entries[i]
            if high is not None:
                trimmed = key[:len(high)]
                if trimmed > high or (trimmed == high and not include_high):
                    break
            yield tid

    def __len__(self) -> int:
        return len(self._entries)


class _Sentinel:
    """Compares greater than everything (for exclusive lower bounds)."""

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


_SENTINEL = _Sentinel()
