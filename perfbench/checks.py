"""Output checks: every run's results against an independent reference.

Each check raises :class:`CheckFailed` on the first mismatch.  The
checks run after the timed window, so a faster engine cannot skip them,
and a speed-up bought by skipping a label check fails the run.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple


class CheckFailed(AssertionError):
    """An output of the engine disagrees with its reference."""


# ---------------------------------------------------------------------------
# cartel-web
# ---------------------------------------------------------------------------

def check_responses(records: Iterable[tuple],
                    expected: Dict[Tuple[str, int], object]) -> int:
    """Every ``(path, user, status, body)`` record is a 200 whose body
    equals the reference stack's body for the same script and user."""
    checked = 0
    for path, user, status, body in records:
        if status != 200:
            raise CheckFailed("%s as user %d returned %s"
                              % (path, user, status))
        want = expected[(path, user)]
        if body != want:
            raise CheckFailed("%s as user %d: body %r differs from the "
                              "reference plans' %r" % (path, user, body,
                                                       want))
        checked += 1
    return checked


def check_status(what: str, status: int, expected: int) -> None:
    if status != expected:
        raise CheckFailed("%s returned %s, expected %s"
                          % (what, status, expected))


# ---------------------------------------------------------------------------
# tpcc-durable
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    # Payment amounts have cents; float sums accumulate in a different
    # order on each side, so equality is to a tenth of a cent.
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-3)


def check_tpcc_consistency(warehouses: Sequence[tuple],
                           districts: Sequence[tuple],
                           orders: Sequence[tuple],
                           new_orders: Sequence[tuple],
                           order_lines: Sequence[tuple]) -> None:
    """TPC-C consistency conditions 1-4 (clause 3.3.2).

    ``warehouses``: (w_id, w_ytd); ``districts``: (w_id, d_id, d_ytd,
    d_next_o_id); ``orders``: (w_id, d_id, o_id, o_ol_cnt);
    ``new_orders``: (w_id, d_id, o_id); ``order_lines``: (w_id, d_id,
    o_id).
    """
    d_ytd = defaultdict(float)
    for w_id, _d_id, ytd, _next in districts:
        d_ytd[w_id] += ytd
    for w_id, w_ytd in warehouses:
        if not _close(w_ytd, d_ytd[w_id]):
            raise CheckFailed("condition 1: W_YTD %r != sum(D_YTD) %r for "
                              "warehouse %d" % (w_ytd, d_ytd[w_id], w_id))
    max_o = defaultdict(int)
    ol_cnt = defaultdict(int)
    for w_id, d_id, o_id, cnt in orders:
        key = (w_id, d_id)
        max_o[key] = max(max_o[key], o_id)
        ol_cnt[key] += cnt
    no_ids = defaultdict(list)
    for w_id, d_id, o_id in new_orders:
        no_ids[(w_id, d_id)].append(o_id)
    lines = defaultdict(int)
    for w_id, d_id, _o_id in order_lines:
        lines[(w_id, d_id)] += 1
    for w_id, d_id, _ytd, next_o_id in districts:
        key = (w_id, d_id)
        pending = no_ids.get(key, [])
        if next_o_id - 1 != max_o[key] or (pending and
                                           max(pending) != max_o[key]):
            raise CheckFailed(
                "condition 2: D_NEXT_O_ID-1=%d, max(O_ID)=%d, "
                "max(NO_O_ID)=%s for district %r"
                % (next_o_id - 1, max_o[key],
                   max(pending) if pending else None, key))
        if pending and max(pending) - min(pending) + 1 != len(pending):
            raise CheckFailed("condition 3: new-order ids of district %r "
                              "are not contiguous" % (key,))
        if ol_cnt[key] != lines[key]:
            raise CheckFailed("condition 4: sum(O_OL_CNT)=%d but %d order "
                              "lines in district %r"
                              % (ol_cnt[key], lines[key], key))


def check_same_dump(live: dict, recovered: dict) -> None:
    """Two decoded ``dump_database`` payloads hold the same tables,
    rows (with labels), indexes, views and sequences.

    Schemas are compared by their pickled form one table at a time: a
    whole-payload byte comparison would also compare how pickle shares
    objects *between* tables, which differs between a database built
    by DDL and one rebuilt from log records without any difference in
    content.
    """
    import pickle
    for key in ("table_order", "sequences", "omitted"):
        if live[key] != recovered[key]:
            raise CheckFailed("recovered %s %r != live %r"
                              % (key, recovered[key], live[key]))
    if pickle.dumps(live["views"]) != pickle.dumps(recovered["views"]):
        raise CheckFailed("recovered views differ from the live ones")
    if sorted(live["tables"]) != sorted(recovered["tables"]):
        raise CheckFailed("recovered tables %r != live %r"
                          % (sorted(recovered["tables"]),
                             sorted(live["tables"])))
    for name, want in live["tables"].items():
        got = recovered["tables"][name]
        if got["rows"] != want["rows"]:
            raise CheckFailed("table %s: %d recovered rows differ from %d "
                              "live rows" % (name, len(got["rows"]),
                                             len(want["rows"])))
        if got["indexes"] != want["indexes"]:
            raise CheckFailed("table %s: recovered indexes differ" % name)
        if pickle.dumps(got["schema"]) != pickle.dumps(want["schema"]):
            raise CheckFailed("table %s: recovered schema differs" % name)


# ---------------------------------------------------------------------------
# label-analytics
# ---------------------------------------------------------------------------

#: Fact row layout: (id, cid, store, product, qty, amount, day).
ID, CID, STORE, PRODUCT, QTY, AMOUNT, DAY = range(7)


def visible_facts(facts: Sequence[Tuple[object, tuple]],
                  held: frozenset) -> List[tuple]:
    """Query-by-Label in plain Python: the rows whose owner tag is held
    (``None`` marks a public row)."""
    return [row for tag, row in facts if tag is None or tag in held]


def expected_result(shape: str, params: tuple, rows: Sequence[tuple],
                    segments: Dict[int, int]) -> list:
    """Ground truth for one analytic query over the visible rows."""
    if shape == "aggregate":
        amount, qty = params
        groups: Dict[int, list] = {}
        for r in rows:
            if r[AMOUNT] > amount and r[QTY] <= qty:
                g = groups.setdefault(r[STORE], [0, 0])
                g[0] += 1
                g[1] += r[AMOUNT]
        return sorted((store, n, total)
                      for store, (n, total) in groups.items())
    if shape == "join":
        qty, low, high = params
        groups = {}
        for r in rows:
            if r[QTY] == qty and low <= r[DAY] <= high:
                g = groups.setdefault(r[STORE], [0, 0])
                g[0] += 1
                g[1] += segments[r[CID]]
        return sorted((store, n, total)
                      for store, (n, total) in groups.items())
    if shape == "topn":
        product, limit = params
        chosen = sorted((r for r in rows if r[PRODUCT] < product),
                        key=lambda r: (-r[AMOUNT], r[ID]))[:limit]
        return [(r[ID], r[AMOUNT]) for r in chosen]
    if shape == "filter":
        day, qty = params
        return sorted((r[ID], r[CID], r[AMOUNT]) for r in rows
                      if r[DAY] == day and r[QTY] <= qty)
    raise ValueError("unknown query shape %r" % shape)


def check_query(shape: str, params: tuple, got: list,
                expected: list) -> None:
    """Result rows equal the ground truth; unordered shapes compare as
    sorted lists, Top-N in its ORDER BY order."""
    rows = got if shape == "topn" else sorted(got)
    if rows != expected:
        raise CheckFailed("%s%r: %d rows %r differ from ground truth %d "
                          "rows %r" % (shape, params, len(rows), rows[:5],
                                       len(expected), expected[:5]))


def check_row_labels(shape: str, params: tuple, labels: Sequence[frozenset],
                     expected: Sequence[frozenset]) -> None:
    """Each returned row carries exactly the label of the tuple it came
    from (a declassified or widened label would be a leak or a bug)."""
    if sorted(map(sorted, labels)) != sorted(map(sorted, expected)):
        raise CheckFailed("%s%r: row labels differ from the source rows' "
                          "labels" % (shape, params))


def check_covered(shape: str, labels: Iterable[frozenset],
                  held: frozenset) -> None:
    """No row returned to a process carries a tag it does not hold."""
    for label in labels:
        if not label <= held:
            raise CheckFailed("%s: a result row carries tags %r outside "
                              "the reader's label" % (shape,
                                                      sorted(label - held)))
