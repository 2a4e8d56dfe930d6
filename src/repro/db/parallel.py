"""Fork-based worker gang: the process pool behind parallel execution.

The engine parallelizes one shape of work (see ARCHITECTURE.md,
"Parallel execution"): a spilled hash join or hash aggregate hands its
key-disjoint grace partitions to the gang, one contiguous partition
range per worker.

Workers are **forked**, never spawned: a child inherits the parent's
address space — the catalog, the MVCC version arrays, the interned
label table and the memoized ``covers``/``strip`` tables — at the
instant the gang starts, so nothing about the plan or the data needs
to be pickled or rebuilt.  The statement's snapshot is immutable for
its whole lifetime, which is exactly what makes a copy-on-write clone
of the heap a correct execution substrate.

Rows travel back over a pipe in the labeled-row wire format
(:func:`repro.db.spill.encode_labeled_row`): labels are re-interned on
arrival, so a decoded row's label is *identical* to the live instance
and every downstream identity-keyed memo keeps working.

**Counter protocol.**  Each child resets the process-wide
:class:`~repro.db.metrics.MetricsRegistry` right after the fork (its
copy-on-write copy — the parent is unaffected), does its slice of the
work, and ships its final ``REGISTRY.snapshot()`` as a pure delta with
the end-of-stream sentinel.  The parent merges every delta through
``REGISTRY.merge()``, which lands on the calling statement's own
thread-local counters — so the per-statement bracket sees exactly the
sum of serial-equivalent work, with zero slack.

**Ordering.**  Ranges are contiguous and workers drain in worker
order, so the merged row stream is exactly the serial row order.

**Error parity.**  A worker exception is pickled and re-raised in the
parent (falling back to :class:`WorkerError` for unpicklable ones), so
a statement fails with the same exception type it would raise
serially.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Callable, Iterator, List, Tuple

from . import metrics
from .spill import decode_labeled_row, encode_labeled_row

#: Rows per pipe message: large enough to amortize a pickle round-trip,
#: small enough to keep the parent/worker pipeline streaming.
CHUNK_ROWS = 256


def fork_available() -> bool:
    """True when this platform can fork workers (POSIX with the
    ``fork`` start method); everything degrades to serial otherwise."""
    try:
        return (hasattr(os, "fork")
                and "fork" in multiprocessing.get_all_start_methods())
    except Exception:                                 # pragma: no cover
        return False


FORK_AVAILABLE = fork_available()


class WorkerError(RuntimeError):
    """A worker failed in a way that could not cross the pipe intact
    (unpicklable exception, or the process died without a message)."""


def split_ranges(start: int, stop: int,
                 workers: int) -> List[Tuple[int, int]]:
    """Split ``[start, stop)`` into up to ``workers`` contiguous,
    near-even, non-empty ranges — the unit assignment for spill
    partitions.  Contiguity is what makes merged order equal serial
    order."""
    total = stop - start
    if total <= 0 or workers <= 0:
        return []
    n = min(workers, total)
    ranges = []
    for w in range(n):
        lo = start + (total * w) // n
        hi = start + (total * (w + 1)) // n
        if lo < hi:
            ranges.append((lo, hi))
    return ranges


def _worker_main(conn, fn: Callable[[], Iterator]) -> None:
    """Child half of the gang protocol (runs in the forked process).

    Resets the inherited counter registry (pure-delta accounting),
    streams ``fn()``'s rows back in encoded chunks, then sends the
    ``("done", snapshot)`` sentinel.  Exits with ``os._exit`` so the
    child never runs the parent's atexit hooks or flushes inherited
    buffered files (whose descriptors it shares with the parent).
    """
    status = 0
    try:
        metrics.REGISTRY.reset()
        buf: list = []
        for values, label, ilabel in fn():
            buf.append(encode_labeled_row(values, label, ilabel))
            if len(buf) >= CHUNK_ROWS:
                conn.send(("rows", buf))
                buf = []
        if buf:
            conn.send(("rows", buf))
        conn.send(("done", metrics.REGISTRY.snapshot()))
    except BaseException as exc:                # noqa: BLE001 — shipped
        try:
            payload = pickle.dumps(exc)
            pickle.loads(payload)               # must survive the pipe
        except Exception:
            payload = pickle.dumps(WorkerError(
                "%s: %s" % (type(exc).__name__, exc)))
        try:
            conn.send(("err", payload))
        except Exception:                             # pragma: no cover
            status = 1
    finally:
        try:
            conn.close()
        except Exception:                             # pragma: no cover
            pass
        os._exit(status)


def run_gang(tasks: List[Callable[[], Iterator]]) -> Iterator:
    """Fork one worker per task; yield the decoded rows of task 0, then
    task 1, … (serial order); merge every worker's counter snapshot
    into the calling thread's registry.

    The pipe gives natural backpressure: later workers compute ahead
    until their pipe buffer fills, then block until the parent drains
    them.  On any failure — a worker error, or the consumer abandoning
    this generator — the ``finally`` terminates and reaps the whole
    gang.
    """
    if not tasks:
        return
    ctx = multiprocessing.get_context("fork")
    procs: list = []
    conns: list = []
    try:
        for fn in tasks:
            recv, send = ctx.Pipe(duplex=False)
            # The child closes the parent-side ends it inherited (its
            # own recv plus earlier workers') so a dead worker's pipe
            # reads as EOF instead of hanging.
            inherited = conns + [recv]

            def _child(conn=send, fn=fn, inherited=inherited):
                for other in inherited:
                    try:
                        other.close()
                    except Exception:                 # pragma: no cover
                        pass
                _worker_main(conn, fn)

            proc = ctx.Process(target=_child, daemon=True)
            proc.start()
            send.close()                # parent keeps only the recv end
            procs.append(proc)
            conns.append(recv)
        for recv in conns:
            while True:
                try:
                    kind, payload = recv.recv()
                except EOFError:
                    raise WorkerError(
                        "parallel worker exited without a result")
                if kind == "rows":
                    for encoded in payload:
                        yield decode_labeled_row(encoded)
                elif kind == "done":
                    metrics.REGISTRY.merge(payload)
                    break
                else:                                        # "err"
                    raise pickle.loads(payload)
    finally:
        for recv in conns:
            try:
                recv.close()
            except Exception:                         # pragma: no cover
                pass
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
