"""Wire trace context: v2 round-trips, v1 back-compat, propagation."""

import struct

import pytest

from repro.events.wire import (
    HEADER,
    HEADER_SIZE,
    MAGIC,
    SUPPORTED_VERSIONS,
    TRACE_EXT_SIZE,
    WIRE_VERSION,
    WIRE_VERSION_TRACE,
    Frame,
    FrameDecoder,
    FrameKind,
    TraceContext,
    encode_frame,
    event_frame,
)

PAYLOAD = b'{"t":"sync"}'
CTX = TraceContext(trace_id=7, span_id=41)


class TestRoundTrip:
    def test_traced_frame_round_trips(self):
        frame = Frame(FrameKind.EVENT, 7, 3, PAYLOAD, CTX)
        (out,) = FrameDecoder().feed(encode_frame(frame))
        assert out == frame
        assert out.trace == CTX

    @pytest.mark.parametrize("kind", list(FrameKind), ids=lambda k: k.name)
    def test_every_kind_carries_context(self, kind):
        frame = Frame(kind, 1, 9, PAYLOAD, TraceContext(1, 2))
        (out,) = FrameDecoder().feed(encode_frame(frame))
        assert out.trace == TraceContext(1, 2)

    def test_context_survives_split_feeding(self):
        """The 12-byte extension may straddle a recv boundary."""
        raw = encode_frame(Frame(FrameKind.EVENT, 7, 3, PAYLOAD, CTX))
        decoder = FrameDecoder()
        frames = []
        # Split inside the trace extension, one byte at a time.
        for cut in range(HEADER_SIZE, HEADER_SIZE + TRACE_EXT_SIZE):
            decoder = FrameDecoder()
            frames = decoder.feed(raw[:cut])
            assert frames == []  # incomplete: never a partial decode
            frames += decoder.feed(raw[cut:])
            assert [f.trace for f in frames] == [CTX]
            assert not decoder.errors

    def test_event_frame_helper_accepts_trace(self):
        frame = event_frame(1, 0, {"t": "sync"}, trace=CTX)
        assert frame.trace == CTX


class TestBackCompat:
    """The bare wire is untouched: no context means version 1, bit for bit."""

    def test_untraced_frame_encodes_version_1(self):
        raw = encode_frame(Frame(FrameKind.EVENT, 7, 3, PAYLOAD))
        assert raw[2] == WIRE_VERSION
        assert len(raw) == HEADER_SIZE + len(PAYLOAD)

    def test_traced_frame_encodes_version_2(self):
        raw = encode_frame(Frame(FrameKind.EVENT, 7, 3, PAYLOAD, CTX))
        assert raw[2] == WIRE_VERSION_TRACE
        assert len(raw) == HEADER_SIZE + TRACE_EXT_SIZE + len(PAYLOAD)

    def test_old_v1_bytes_decode_without_context(self):
        """A capture made before the trace wire decodes unchanged."""
        import zlib

        raw = HEADER.pack(
            MAGIC,
            WIRE_VERSION,
            FrameKind.EVENT,
            7,
            3,
            len(PAYLOAD),
            zlib.crc32(PAYLOAD),
        ) + PAYLOAD
        (out,) = FrameDecoder().feed(raw)
        assert out == Frame(FrameKind.EVENT, 7, 3, PAYLOAD)
        assert out.trace is None

    def test_crc_covers_payload_not_context(self):
        """The same payload carries the same CRC in both versions."""
        bare = encode_frame(Frame(FrameKind.EVENT, 7, 3, PAYLOAD))
        traced = encode_frame(Frame(FrameKind.EVENT, 7, 3, PAYLOAD, CTX))
        crc = struct.Struct("!I")
        assert bare[20:24] == traced[20:24]
        assert crc.unpack(bare[20:24]) == crc.unpack(traced[20:24])

    def test_unknown_version_rejected_with_resync(self):
        raw = bytearray(encode_frame(Frame(FrameKind.EVENT, 7, 3, PAYLOAD)))
        raw[2] = 9  # a future version this decoder does not speak
        decoder = FrameDecoder()
        good = encode_frame(Frame(FrameKind.EVENT, 7, 4, PAYLOAD))
        frames = decoder.feed(bytes(raw) + good)
        assert [f.seq for f in frames] == [4]
        assert decoder.errors
        assert 9 not in SUPPORTED_VERSIONS


class TestPropagation:
    """A client span id rides the wire and lands in the server's span tags."""

    def test_client_spans_propagate_to_server_spans(self):
        from repro.dracc import get
        from repro.harness.serve import record_trace
        from repro.observe import ServeObserver
        from repro.serve import (
            AnalysisServer,
            LoopbackTransport,
            ServeClient,
            ServerConfig,
        )

        observer = ServeObserver(trace_spans=True, wall_clock=False)
        server = AnalysisServer(ServerConfig(n_shards=2), observer)
        client_spans = observer.span_log("client")
        client = ServeClient(
            LoopbackTransport(server), client_id=18, spanlog=client_spans
        )
        client.stream(record_trace(get(18)))

        assert len(client_spans) > 0
        server_spans = observer.server_spans.spans
        assert server_spans
        # Every server handle-span names the client-side span that sent it.
        by_key = {
            (s.args["client"], s.args["seq"]): s.args for s in client_spans.spans
        }
        linked = 0
        for span in server_spans:
            tags = span.args
            if "ctx_span" in tags:
                origin = by_key[(tags["client"], tags["seq"])]
                assert tags["ctx_trace"] == 18
                linked += 1
                assert origin is not None
        assert linked == len(server_spans)
