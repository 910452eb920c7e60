"""Spans around calls into the program's public entry points.

A :class:`Tracer` replaces chosen methods and module functions with
timing wrappers for the length of a traced run and puts the originals
back afterwards.  Each wrapped call becomes a span (name, start, end,
parent span).  Per entry point the tracer keeps exact totals online —
calls, span time and *self* time, which is the span's duration minus
the time its child spans cover — so long runs need no span list to be
summarised.  The span records themselves are kept in memory up to a cap
and written once, as plain JSON, when the run ends.

Time spent inside a wrapper itself (clock reads, bookkeeping, counting
probes) lands outside the span it opens, so it counts toward the
caller's self time, or toward the unattributed root time at the top.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

#: Span records kept in memory per tracer; later spans still count in
#: the online totals but are not stored (see :attr:`Tracer.dropped`).
MAX_RECORDS = 50_000


@dataclass
class EntryStats:
    """Online totals of one wrapped entry point."""

    name: str
    calls: int = 0
    self_ns: int = 0
    #: Work items handed to the entry point (events, elements, bytes...),
    #: filled by the entry point's probe and after-hook.
    items: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, n: int) -> None:
        self.items[key] = self.items.get(key, 0) + n


class Tracer:
    """Wraps entry points, records spans and accumulates self time.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(
        self,
        workload: str,
        *,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.workload = workload
        self.clock = clock
        #: ``[name, start_ns, end_ns, parent_index]``; ``parent_index`` is
        #: -1 for a span with no traced caller.
        self.records: list[list] = []
        self.dropped = 0
        #: Total duration of spans with no traced caller.
        self.top_ns = 0
        #: Whether new spans are appended to :attr:`records`.
        self.recording = True
        self.stats: dict[str, EntryStats] = {}
        #: Open spans, innermost last: ``[start_ns, child_ns, record_index]``.
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Every object passed as ``self`` to an entry point that asked
        #: for it (``keep_instances``), by entry point name.
        self.instances: dict[str, dict[int, object]] = {}

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        probe: Callable | None = None,
        after: Callable | None = None,
        keep_instances: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a timing wrapper named ``name``.

        ``probe(stats, args, kwargs)`` runs before the span opens and
        ``after(stats, args, result)`` after it closes; both count the
        work handed in and must stay cheap, because their time falls in
        the caller's span.  A module-level function is also replaced in
        every loaded ``repro`` module that imported it by name.
        """
        original = getattr(owner, attr)
        stats = self.stats.setdefault(name, EntryStats(name))
        instances = self.instances.setdefault(name, {}) if keep_instances else None
        clock = self.clock
        stack = self._stack
        records = self.records

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if instances is not None:
                instances[id(args[0])] = args[0]
            if probe is not None:
                probe(stats, args, kwargs)
            start = clock()
            index = -1
            if self.recording:
                if len(records) < MAX_RECORDS:
                    index = len(records)
                    records.append([name, start, 0, stack[-1][2] if stack else -1])
                else:
                    self.dropped += 1
            frame = [start, 0, index]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.self_ns += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_ns += duration
                if index >= 0:
                    records[index][2] = end
            if after is not None:
                after(stats, args, result)
            return result

        targets = [owner]
        if isinstance(owner, type(sys)):
            targets += [
                module
                for module_name, module in list(sys.modules.items())
                if module_name.startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def wrap_path(self, path: str, name: str, **options) -> None:
        """:meth:`wrap` addressed as ``"package.module:Class.attr"``."""
        module_name, _, qualname = path.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = qualname.split(".")
        for part in owners:
            owner = getattr(owner, part)
        self.wrap(owner, attr, name, **options)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ---------------------------------------------------------------

    def span_json(self) -> list[dict]:
        """The recorded spans as plain JSON records (times in ns)."""
        origin = self.records[0][1] if self.records else 0
        return [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent if parent >= 0 else None,
                "workload": self.workload,
            }
            for name, start, end, parent in self.records
        ]

    def write(self, path: str) -> None:
        """Write the recorded spans once, as one JSON document."""
        document = {
            "workload": self.workload,
            "clock": "perf_counter_ns",
            "dropped": self.dropped,
            "spans": self.span_json(),
        }
        with open(path, "w") as sink:
            json.dump(document, sink)
            sink.write("\n")
