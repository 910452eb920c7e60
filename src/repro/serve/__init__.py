"""Detection-as-a-service: the crash-resilient sharded streaming server.

``repro serve`` turns the in-process detector stack into a long-lived
analysis service.  Clients stream length-prefixed, sequence-numbered event
frames (:mod:`repro.events.wire`); the server shards detector state by
address range across worker shards, feeds each shard's events through the
existing columnar :class:`~repro.events.bus.ToolBus`, and streams back
fingerprint-keyed findings.

The delivery guarantee — the whole point of the subsystem — is:

    Under worker crashes, duplicated frames, reordered frames, and dropped
    frames, the finding set delivered for a session is byte-identical (by
    fingerprint) to an in-process run of the same event stream: **zero
    dropped findings, zero duplicated findings.**

The mechanisms, each its own module:

* :mod:`.journal` — per-shard append-only journals with ``(client, seq)``
  dedup; the source of truth a restarted worker replays from.
* :mod:`.shard` — one shard worker: a fresh tool stack over a columnar
  bus, crash/restart with journal replay, idempotent re-delivery.
* :mod:`.router` — address-range sharding that keeps every mapping pair
  (original variable, corresponding variable) on one shard.
* :mod:`.supervisor` — routes events to shards, restarts crashed workers,
  redelivers unacknowledged frames.
* :mod:`.server` — the protocol engine: per-client sessions, reorder
  buffers with bounded backpressure (shedding degrades to a ``DEGRADED``
  marker, never a dropped finding), graceful drain.
* :mod:`.client` — the reference client: retry/timeout with jittered,
  capped exponential backoff.
* :mod:`.net` — socket and stdio front ends with SIGTERM graceful drain.

Live observability — cross-process trace propagation, ``/metrics`` and
``/healthz``/``/readyz`` over the same TCP port, the SLO watchdog, and
structured JSONL logging — plugs in via :mod:`repro.observe`: construct a
:class:`~repro.observe.observer.ServeObserver` and hand it to
:class:`AnalysisServer` (or the front ends).  Without one, the serve hot
path is observability-free by construction.
"""

from .client import DeliveryError, RetryPolicy, ServeClient, SessionResult
from .journal import ShardJournal
from .net import serve_connection, serve_socket, serve_stdio
from .router import AddressRouter
from .server import AnalysisServer, ServerConfig
from .shard import ShardWorker, WorkerCrash
from .supervisor import Supervisor
from .transport import LoopbackTransport

__all__ = [
    "AnalysisServer",
    "ServerConfig",
    "Supervisor",
    "ShardWorker",
    "WorkerCrash",
    "ShardJournal",
    "AddressRouter",
    "ServeClient",
    "SessionResult",
    "RetryPolicy",
    "DeliveryError",
    "LoopbackTransport",
    "serve_socket",
    "serve_stdio",
    "serve_connection",
]
