"""Shard journals: write-ahead dedup, ack watermarks, mirror round-trip."""

import io

from repro.serve import ShardJournal

EVENT = {"t": "sync", "v": 1, "kind": "taskwait", "src": 1, "dst": 2, "tid": 0}


class TestDedup:
    def test_first_record_accepted_duplicate_dropped(self):
        journal = ShardJournal(0)
        assert journal.record(1, 0, EVENT)
        assert not journal.record(1, 0, EVENT)
        assert len(journal) == 1
        assert journal.duplicates_dropped == 1

    def test_dedup_is_per_client(self):
        journal = ShardJournal(0)
        assert journal.record(1, 0, EVENT)
        assert journal.record(2, 0, EVENT)  # same seq, different client
        assert len(journal) == 2

    def test_seen_queries_without_recording(self):
        journal = ShardJournal(0)
        journal.record(1, 5, EVENT)
        assert journal.seen(1, 5)
        assert not journal.seen(1, 6)


class TestAckWatermark:
    def test_watermark_advances_monotonically(self):
        journal = ShardJournal(0)
        assert journal.acked_seq(1) == -1
        journal.mark_acked(1, 3)
        journal.mark_acked(1, 1)  # stale ack must not regress it
        assert journal.acked_seq(1) == 3

    def test_watermark_is_per_client(self):
        journal = ShardJournal(0)
        journal.mark_acked(1, 9)
        assert journal.acked_seq(2) == -1


class TestReplay:
    def test_replay_preserves_append_order(self):
        journal = ShardJournal(0)
        for seq in (0, 1, 2):
            journal.record(1, seq, {**EVENT, "src": seq})
        assert [seq for _c, seq, _e in journal.replay()] == [0, 1, 2]

    def test_replay_snapshot_unaffected_by_later_appends(self):
        journal = ShardJournal(0)
        journal.record(1, 0, EVENT)
        snapshot = journal.replay()
        journal.record(1, 1, EVENT)
        assert len(list(snapshot)) == 1


class TestMirror:
    def test_sink_mirror_loads_back_identically(self):
        sink = io.StringIO()
        journal = ShardJournal(3, sink=sink)
        journal.record(1, 0, EVENT)
        journal.record(1, 1, {**EVENT, "src": 7})
        journal.record(1, 0, EVENT)  # duplicate: not mirrored
        sink.seek(0)
        loaded = ShardJournal.load(3, sink)
        assert list(loaded.replay()) == list(journal.replay())
        assert loaded.stats()["entries"] == 2

    def test_load_stops_at_a_corrupt_middle_line(self):
        sink = io.StringIO()
        journal = ShardJournal(0, sink=sink)
        for seq in range(4):
            journal.record(1, seq, {**EVENT, "src": seq})
        lines = sink.getvalue().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn mid-write
        loaded = ShardJournal.load(0, io.StringIO("\n".join(lines) + "\n"))
        # The well-formed prefix only: seq 2 and 3 would leave a hole at 1.
        assert [seq for _c, seq, _e in loaded.replay()] == [0]
        assert loaded.load_errors == 3
