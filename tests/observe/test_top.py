"""``repro top``: the exposition parser, the table, and a live poll."""

import io
import json
import threading

import pytest

from repro.dracc import get
from repro.harness.serve import record_trace
from repro.observe import ServeObserver
from repro.observe.top import (
    http_get,
    metric_value,
    parse_exposition,
    render_table,
    run_top,
    shard_rows,
)
from repro.serve import ServeClient, ServerConfig, serve_socket
from repro.serve.transport import LoopbackTransport

BENCH = 18


class TestParseExposition:
    def test_parses_names_labels_and_values(self):
        families = parse_exposition(
            "# HELP x help\n# TYPE x counter\n"
            'x 3\nx_bucket{le="+Inf",stage="decode"} 7\n'
        )
        assert families["x"] == [({}, 3.0)]
        assert families["x_bucket"] == [
            ({"le": "+Inf", "stage": "decode"}, 7.0)
        ]

    def test_blank_and_comment_lines_are_skipped(self):
        assert parse_exposition("\n# just a comment\n\n") == {}

    @pytest.mark.parametrize(
        "line",
        [
            "lonely",  # no value separator yields empty name
            "x notanumber",  # junk value
            'x{le=3} 1',  # unquoted label value
            'x{le"3"} 1',  # no equals sign
            "we ird{} 1 2 3",  # junk tail
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ValueError):
            parse_exposition(line)

    def test_metric_value_requires_exact_label_match(self):
        families = parse_exposition('x{a="1",b="2"} 5\n')
        assert metric_value(families, "x", a="1", b="2") == 5.0
        assert metric_value(families, "x", a="1") is None
        assert metric_value(families, "x") is None


def bench_exposition() -> dict:
    from repro.observe.metrics import render_prometheus, service_snapshot
    from repro.serve import AnalysisServer

    observer = ServeObserver()
    server = AnalysisServer(ServerConfig(n_shards=2), observer)
    client = ServeClient(LoopbackTransport(server), client_id=BENCH)
    client.stream(record_trace(get(BENCH)))
    return parse_exposition(render_prometheus(service_snapshot(server, observer)))


class TestTable:
    def test_shard_rows_sorted_and_typed(self):
        rows = shard_rows(bench_exposition())
        assert [(r["client"], r["shard"]) for r in rows] == [(BENCH, 0), (BENCH, 1)]
        assert all(r["alive"] for r in rows)
        assert sum(r["applied"] for r in rows) > 0

    def test_render_table_header_carries_status_and_rates(self):
        families = bench_exposition()
        text = render_table(
            families,
            {"status": "ok"},
            {"ready": True},
            endpoint="127.0.0.1:7341",
        )
        header = text.splitlines()[0]
        assert "status=ok" in header and "ready=yes" in header
        assert "events/s=-" in header  # no previous scrape: rates unknown
        assert "client" in text.splitlines()[1]

    def test_burning_slos_are_named_in_the_header(self):
        text = render_table(
            bench_exposition(),
            {"status": "degraded", "burning": [{"slo": "redelivery-rate"}]},
            {"ready": True},
            endpoint="e",
        )
        assert "status=degraded[redelivery-rate]" in text.splitlines()[0]


@pytest.fixture()
def live_server():
    """A real TCP front end serving one already-streamed session."""
    config = ServerConfig(n_shards=2)
    observer = ServeObserver()
    ready = threading.Event()
    bound: list[int] = []
    thread = threading.Thread(
        target=serve_socket,
        args=(config,),
        kwargs=dict(
            port=0,
            max_connections=16,
            ready=ready,
            bound_port=bound,
            observer=observer,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    yield bound[0]


class TestRunTop:
    def test_once_json_emits_the_document_and_exits_zero(self, live_server):
        out = io.StringIO()
        code = run_top(
            "127.0.0.1", live_server, once=True, json_output=True, out=out
        )
        assert code == 0
        document = json.loads(out.getvalue())
        assert document["healthz"]["status"] == "ok"
        assert document["readyz"]["ready"] is True
        assert document["events_per_sec"] is None  # one scrape, no rate

    def test_iterations_compute_rates_from_deltas(self, live_server):
        out = io.StringIO()
        code = run_top(
            "127.0.0.1",
            live_server,
            iterations=2,
            interval=0.01,
            json_output=True,
            out=out,
            sleep=lambda _s: None,
        )
        assert code == 0
        first, second = [json.loads(l) for l in out.getvalue().splitlines()]
        assert first["events_per_sec"] is None
        assert second["events_per_sec"] is not None  # delta now available

    def test_http_get_round_trips_the_live_port(self, live_server):
        status, body = http_get("127.0.0.1", live_server, "/metrics")
        assert status == 200
        parse_exposition(body.decode())  # validity gate, raises on junk
