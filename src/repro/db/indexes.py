"""Secondary indexes: hash (equality) and ordered (range) indexes.

Indexes map key values to tuple ids; they contain entries for *all*
versions, and lookups filter by MVCC visibility and by label afterwards —
exactly how the paper's prototype reuses PostgreSQL's indexes, which
"already had to be prepared to deal with multiple versions" (section 7.1).
This is also why polyinstantiation needed no special support: a unique
index may legitimately hold several live tids for one key, distinguished
only by label.

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
    ``range_scans`` ordered-range scans.  The batched
    ``IndexLoopJoin`` dedupes duplicate outer keys to one probe per
    distinct key per batch; the join microbenchmark diffs these
    counters to prove it.  Registered as the ``index`` group of the
    unified :data:`repro.db.metrics.REGISTRY` — prefer registry
    scopes / per-statement deltas over hand-diffing this object.
    Accumulates per thread (:class:`~repro.core.counters.CounterGroup`);
    ``snapshot()`` sums across threads."""

    FIELDS = ("lookups", "range_scans")


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

    def remove(self, values: Tuple, tid: int) -> None:
        """Physically drop an entry (vacuum only; MVCC never needs this)."""
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
