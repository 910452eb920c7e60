"""Columnar event batching: accumulate accesses, dispatch them in blocks.

The scalar engine hands every :class:`~repro.events.records.Access` to every
subscribed tool one Python call at a time; for element-wise kernels that is
one interpreter round-trip *per element per tool*.  The columnar engine
instead parks accesses on the bus as plain *rows* — tuples in
:class:`~repro.events.records.Access` field order, recorded at the source
with the call stack already pinned — and flushes them as an
:class:`EventBatch` through the tools' ``on_batch`` protocol.  Only the
ARBALEST detector overrides ``on_batch``; every other tool gets the
default replay through its ``on_access``.  The batch builds numpy columns
``(device, thread, address, size, is_write, count)`` from the rows in one
transpose, so the detector's VSM table lookups and FastTrack epoch
comparisons run as whole-array gather/scatter, and it creates an
``Access`` object only for a row a tool actually indexes (a replay, a
finding).  Accesses that arrived as objects (trace replays, serve shards)
ride in the same pending list and are handed back as those very objects.

Ordering contract (see EXPERIMENTS.md §N): a batch only ever spans a window
in which mappings, shadow blocks, and thread clocks are frozen, because the
bus flushes the pending batch before delivering *any* non-access event
(data ops, kernels, allocations, syncs, flushes, memcpys).  Within a batch,
accesses to distinct granules commute; per-granule order is preserved by
processing batches in first-occurrence passes (:func:`first_occurrence_passes`).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Union

import numpy as np

from .records import Access

#: Flush threshold: bounds both memory held by a pending batch and the
#: latency between an access occurring and a tool observing it.
BATCH_CAP = 65536

#: Below this many pending accesses a flush dispatches per-event through
#: ``on_access`` instead of building an :class:`EventBatch`: column
#: construction and the detector's vectorized ``on_batch`` setup have a
#: fixed cost that only amortizes over runs of scalar traffic, and bulk
#: kernels produce batches of a handful of large accesses where that setup
#: is pure overhead.
MIN_BATCH = 64

#: One pending access: a tuple in :class:`Access` field order (what
#: producers record) or an :class:`Access` published as an object.
Row = Union[tuple, Access]


def access_row(access: Access) -> tuple:
    """``access`` as a row, its stack materialized."""
    return (
        access.device_id,
        access.thread_id,
        access.address,
        access.size,
        access.is_write,
        access.count,
        access.stride,
        access.origin,
        access.stack,
    )


def materialize(rows: Sequence[Row]) -> list[Access]:
    """Every row as an :class:`Access`; objects pass through unchanged."""
    return [Access(*r) if type(r) is tuple else r for r in rows]


class BatchColumns:
    """The structured-array view of one batch (one numpy column per field)."""

    __slots__ = (
        "device_ids",
        "thread_ids",
        "addresses",
        "sizes",
        "is_write",
        "counts",
    )

    def __init__(self, rows: Sequence[Row]):
        n = len(rows)
        try:
            fields = list(zip(*rows))
        except TypeError:  # some rows were published as Access objects
            fields = list(zip(*[r if type(r) is tuple else access_row(r) for r in rows]))
        dev, tid, addr, size, write, count = fields[:6] if n else [()] * 6
        self.device_ids = np.fromiter(dev, np.int64, count=n)
        self.thread_ids = np.fromiter(tid, np.int64, count=n)
        self.addresses = np.fromiter(addr, np.int64, count=n)
        self.sizes = np.fromiter(size, np.int64, count=n)
        self.is_write = np.fromiter(write, np.bool_, count=n)
        self.counts = np.fromiter(count, np.int64, count=n)


class BatchAccesses(Sequence):
    """The batch's rows as :class:`Access` objects, each built on first index.

    A built object replaces its row in place, so repeated indexing returns
    the same object; an access published as an object is returned as is.
    Only integer indices are supported.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list[Row]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> Access:
        row = self._rows[index]
        if type(row) is tuple:
            row = self._rows[index] = Access(*row)
        return row

    def __iter__(self):
        for i in range(len(self._rows)):
            yield self[i]


class EventBatch:
    """An ordered run of pending rows: lazy accesses plus lazy columns."""

    __slots__ = ("accesses", "_rows", "_columns")

    def __init__(self, rows: Sequence[Row]):
        self._rows = rows = list(rows)
        self.accesses = BatchAccesses(rows)
        self._columns: BatchColumns | None = None

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def columns(self) -> BatchColumns:
        cols = self._columns
        if cols is None:
            cols = self._columns = BatchColumns(self._rows)
        return cols


def first_occurrence_passes(
    keys: np.ndarray, *, max_passes: int = 8
) -> tuple[list[np.ndarray], np.ndarray]:
    """Split positions ``0..n-1`` into passes with at most one event per key.

    Within a pass every key is unique, so a vectorized state transition over
    the pass cannot collapse two updates to the same granule; processing the
    passes in sequence replays each key's events in their original order
    (``np.unique(..., return_index=True)`` selects *first* occurrences).

    Returns ``(passes, remainder)``: ``passes`` is a list of ascending index
    arrays, and ``remainder`` holds any positions left after ``max_passes``
    rounds — high-multiplicity keys the caller must replay one event at a
    time to stay linear instead of quadratic.
    """
    k = np.asarray(keys)
    remaining = np.arange(len(k), dtype=np.intp)
    passes: list[np.ndarray] = []
    while remaining.size:
        if len(passes) >= max_passes:
            break
        _uniq, first = np.unique(k[remaining], return_index=True)
        first.sort()
        passes.append(remaining[first])
        if first.size == remaining.size:
            remaining = remaining[:0]
            break
        mask = np.ones(remaining.size, dtype=bool)
        mask[first] = False
        remaining = remaining[mask]
    return passes, remaining
