"""CRC-valid EVENT payloads that do not decode: one ERROR, stream goes on.

Retransmitting identical bytes cannot fix such a payload, so the server
consumes its sequence number with one ERROR frame, in sequence order, and
keeps applying the frames after it.
"""

import json

import pytest

from repro.dracc import get
from repro.events.trace_io import event_to_json
from repro.events.wire import Frame, FrameKind, event_frame, json_payload
from repro.harness.serve import record_trace
from repro.serve import AnalysisServer, ServerConfig

CLIENT = 1

BAD_PAYLOADS = {
    "not-json": b"\xffnot json",
    "json-array": b"[1, 2, 3]",
    "json-number": b"7",
}


@pytest.fixture(scope="module")
def payloads():
    return [event_to_json(e) for e in record_trace(get(18))[:3]]


def session(frames: list[Frame]) -> list[list[Frame]]:
    """HELLO, then ``frames``; the server's replies to each frame."""
    server = AnalysisServer(ServerConfig(n_shards=1))
    replies = server.handle_frame(Frame(FrameKind.HELLO, CLIENT, 0, json_payload({})))
    assert [r.kind for r in replies] == [FrameKind.ACK]
    return [server.handle_frame(frame) for frame in frames]


def summary(replies: list[Frame]) -> list[tuple[str, int]]:
    """Each reply as (kind, seq); an ERROR carries the seq it consumed."""
    return [
        (
            r.kind.name,
            json.loads(r.payload)["seq"] if r.kind is FrameKind.ERROR else r.seq,
        )
        for r in replies
    ]


@pytest.mark.parametrize("payload", BAD_PAYLOADS.values(), ids=BAD_PAYLOADS.keys())
def test_bad_first_event_is_consumed_in_order(payloads, payload):
    *events, fin = session(
        [Frame(FrameKind.EVENT, CLIENT, 0, payload)]
        + [event_frame(CLIENT, seq, p) for seq, p in enumerate(payloads, start=1)]
        + [Frame(FrameKind.FIN, CLIENT, 4)]
    )
    assert [summary(r) for r in events] == [
        [("ERROR", 0), ("ACK", 0)],
        [("ACK", 1)],
        [("ACK", 2)],
        [("ACK", 3)],
    ]
    assert summary(fin)[0] == ("ACK", 4)
    assert fin[-1].kind is FrameKind.RESULT


def test_bad_parked_event_errors_when_the_gap_fills(payloads):
    # seq 1 is undecodable and arrives early: it parks behind the gap like
    # any other frame, and its ERROR comes out when seq 0 is applied.
    *events, fin = session(
        [
            Frame(FrameKind.EVENT, CLIENT, 1, BAD_PAYLOADS["not-json"]),
            event_frame(CLIENT, 0, payloads[0]),
            event_frame(CLIENT, 2, payloads[1]),
            Frame(FrameKind.FIN, CLIENT, 3),
        ]
    )
    assert [summary(r) for r in events] == [
        [("NACK", 0)],
        [("ERROR", 1), ("ACK", 1)],
        [("ACK", 2)],
    ]
    assert fin[-1].kind is FrameKind.RESULT
