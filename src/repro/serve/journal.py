"""Per-shard checkpoint/replay journals: the crash-recovery source of truth.

A shard worker journals every frame *before* applying it and only then
acknowledges.  The journal therefore dominates the worker's in-memory
detector state at all times: when the supervisor restarts a crashed
worker, replaying the journal in append order reconstructs exactly the
state the shard had acknowledged — the write-ahead-log discipline, scaled
down to one process.

Idempotent re-delivery rides on the same structure: entries are keyed by
``(client, seq)``, so a frame delivered twice (client retry after a lost
ACK, supervisor redelivery after a post-journal crash) is recognized and
dropped without touching detector state.  One event frame can legitimately
reach *two* shards (a memcpy whose source and destination live on
different shards), which is why dedup is per-journal, not global.

The journal can optionally mirror itself to a JSON-lines sink (one entry
per line) so a supervisor restart — not just a worker restart — can
rebuild shard state from disk; :meth:`ShardJournal.load` is the inverse.
"""

from __future__ import annotations

import json
from typing import IO, Iterator

__all__ = ["ShardJournal"]


class ShardJournal:
    """Append-only, ``(client, seq)``-deduped event journal for one shard."""

    def __init__(self, shard_id: int = 0, *, sink: IO[str] | None = None):
        self.shard_id = shard_id
        self._entries: list[tuple[int, int, dict]] = []
        self._seen: set[tuple[int, int]] = set()
        #: Highest acknowledged sequence number per client (-1 = none).
        self._acked: dict[int, int] = {}
        self._sink = sink
        self.duplicates_dropped = 0
        #: Mirror lines a :meth:`load` did not load: the first malformed
        #: line and every line after it.
        self.load_errors = 0

    def __len__(self) -> int:
        return len(self._entries)

    def seen(self, client: int, seq: int) -> bool:
        return (client, seq) in self._seen

    def record(self, client: int, seq: int, event_json: dict) -> bool:
        """Journal one frame; returns ``False`` for an idempotent duplicate."""
        key = (client, seq)
        if key in self._seen:
            self.duplicates_dropped += 1
            return False
        self._seen.add(key)
        self._entries.append((client, seq, event_json))
        if self._sink is not None:
            self._sink.write(
                json.dumps(
                    {"c": client, "s": seq, "e": event_json},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
        return True

    def mark_acked(self, client: int, seq: int) -> None:
        """Advance the acknowledgement watermark for ``client``."""
        if seq > self._acked.get(client, -1):
            self._acked[client] = seq

    def acked_seq(self, client: int) -> int:
        """Highest acknowledged sequence number for ``client`` (-1 if none)."""
        return self._acked.get(client, -1)

    def replay(self) -> Iterator[tuple[int, int, dict]]:
        """Every journaled entry in append order."""
        return iter(tuple(self._entries))

    @property
    def writable(self) -> bool:
        """Whether journaling can still accept entries (readiness check).

        An in-memory journal is always writable; a mirrored one is
        writable while its sink is open.  A closed sink means journal
        durability is gone — the server must stop advertising readiness
        rather than acknowledge frames it can no longer make durable.
        """
        sink = self._sink
        return sink is None or not getattr(sink, "closed", False)

    @classmethod
    def load(cls, shard_id: int, source: IO[str]) -> "ShardJournal":
        """Rebuild a journal from its JSON-lines mirror.

        Loading stops at the first malformed line (truncated JSON from a
        crash mid-write, or a record missing its fields), never fatally:
        the journal that loads is the longest well-formed prefix, so it
        has no hole in ``(client, seq)`` order, and :attr:`load_errors`
        counts every non-blank line that was not loaded.
        """
        journal = cls(shard_id)
        for line in source:
            line = line.strip()
            if not line:
                continue
            if journal.load_errors:
                journal.load_errors += 1
                continue
            try:
                entry = json.loads(line)
                journal.record(entry["c"], entry["s"], entry["e"])
            except (ValueError, KeyError, TypeError):
                journal.load_errors += 1
        return journal

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "duplicates_dropped": self.duplicates_dropped,
            "clients": len(self._acked),
            "load_errors": self.load_errors,
        }
