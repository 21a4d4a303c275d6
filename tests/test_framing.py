"""Group data-stream framing and control-stream reassembly tests."""

from __future__ import annotations

import random

import pytest

from moqgate.framing import (
    ControlStreamDecoder,
    GroupStreamParser,
    encode_frame_chunk,
    encode_group_header,
    encode_group_stream,
)
from moqgate.media import LuminanceFrame, encode_frame_payload, Group
from moqgate.wire import (
    Approve,
    Category,
    IncompleteError,
    MalformedError,
    SubscribeOk,
    WireError,
    encode_message,
)

# Header for track "cam", group 7, 2 frames: all values take 1-byte varints.
HEADER_GOLDEN = bytes([0x03, 0x63, 0x61, 0x6D, 0x07, 0x02])

# 2x1 frame, index 0, ts 0, pixels [7, 9] -> 8-byte payload, 1-byte length.
FRAME = LuminanceFrame(2, 1, 0, 0, bytes([7, 9]))
CHUNK_GOLDEN = bytes([0x08, 0x00, 0x02, 0x00, 0x01, 0x00, 0x00, 0x07, 0x09])


def sample_group() -> Group:
    frames = tuple(
        LuminanceFrame(2, 2, i, i * 40, bytes([i, i + 1, i + 2, i + 3]))
        for i in range(3)
    )
    return Group(5, frames, 120)


class TestEncoding:
    def test_header_golden(self):
        assert encode_group_header("cam", 7, 2) == HEADER_GOLDEN

    def test_frame_chunk_golden(self):
        assert encode_frame_chunk(encode_frame_payload(FRAME)) == CHUNK_GOLDEN

    def test_group_stream_concatenation(self):
        g = sample_group()
        blob = encode_group_stream("t", g)
        expected = encode_group_header("t", 5, 3) + b"".join(
            encode_frame_chunk(encode_frame_payload(f)) for f in g.frames
        )
        assert blob == expected


class TestGroupStreamParser:
    def _blob(self):
        return encode_group_stream("track9", sample_group())

    def test_single_feed(self):
        parser = GroupStreamParser()
        payloads = parser.feed(self._blob(), fin=True)
        assert parser.track == "track9"
        assert parser.group_id == 5
        assert parser.frame_count == 3
        assert parser.complete is True
        assert [p for p in payloads] == [
            encode_frame_payload(f) for f in sample_group().frames
        ]

    def test_byte_at_a_time(self):
        blob = self._blob()
        parser = GroupStreamParser()
        collected = []
        for i, byte in enumerate(blob):
            collected += parser.feed(bytes([byte]), fin=(i == len(blob) - 1))
        assert collected == [encode_frame_payload(f) for f in sample_group().frames]
        assert parser.complete

    def test_random_splits(self):
        blob = self._blob()
        rng = random.Random(99)
        for _ in range(50):
            cuts = sorted(rng.sample(range(1, len(blob)), rng.randint(0, 6)))
            pieces = [blob[a:b] for a, b in zip([0] + cuts, cuts + [len(blob)])]
            parser = GroupStreamParser()
            collected = []
            for j, piece in enumerate(pieces):
                collected += parser.feed(piece, fin=(j == len(pieces) - 1))
            assert collected == [encode_frame_payload(f) for f in sample_group().frames]

    def test_zero_frames_rejected(self):
        parser = GroupStreamParser()
        with pytest.raises(MalformedError, match="at least one frame"):
            parser.feed(encode_group_header("t", 0, 0))

    def test_fin_before_complete(self):
        parser = GroupStreamParser()
        with pytest.raises(IncompleteError):
            parser.feed(self._blob()[:-1], fin=True)

    def test_trailing_bytes_rejected(self):
        parser = GroupStreamParser()
        with pytest.raises(MalformedError):
            parser.feed(self._blob() + b"\x00", fin=True)

    def test_data_after_complete_rejected(self):
        parser = GroupStreamParser()
        parser.feed(self._blob())
        with pytest.raises(MalformedError):
            parser.feed(b"\x01")

    def test_bad_track_utf8(self):
        parser = GroupStreamParser()
        with pytest.raises(WireError):
            parser.feed(bytes([0x02, 0xFF, 0xFE, 0x00, 0x00]), fin=True)

    def test_incremental_payloads_arrive_as_completed(self):
        blob = self._blob()
        header_len = len(encode_group_header("track9", 5, 3))
        first = encode_frame_payload(sample_group().frames[0])
        parser = GroupStreamParser()
        assert parser.feed(blob[: header_len + 1 + len(first)]) == [first]
        assert parser.complete is False


def long_group(n_frames=1000) -> Group:
    frames = tuple(
        LuminanceFrame(4, 2, i, i * 2, bytes((i + k) % 256 for k in range(8)))
        for i in range(n_frames)
    )
    return Group(42, frames, 2 * n_frames)


class TestLongGroup:
    """A 1000-frame group parses the same however its stream is split."""

    TRACK = "big"

    def _parse(self, pieces):
        parser = GroupStreamParser()
        collected = []
        for j, piece in enumerate(pieces):
            collected += parser.feed(piece, fin=(j == len(pieces) - 1))
        return parser, collected

    def _check(self, parser, collected, group):
        expected = [encode_frame_payload(f) for f in group.frames]
        assert collected == expected
        assert parser.frames == expected
        assert parser.track == self.TRACK
        assert parser.group_id == group.group_id
        assert parser.complete is True

    def test_one_burst_frame_by_frame_and_random_splits_agree(self):
        group = long_group()
        blob = encode_group_stream(self.TRACK, group)
        header = encode_group_header(self.TRACK, group.group_id, len(group.frames))
        per_frame = [header] + [
            encode_frame_chunk(encode_frame_payload(f)) for f in group.frames
        ]
        assert b"".join(per_frame) == blob
        self._check(*self._parse([blob]), group)
        self._check(*self._parse(per_frame), group)
        rng = random.Random(1234)
        for _ in range(20):
            cuts = sorted(rng.sample(range(1, len(blob)), rng.randint(1, 300)))
            pieces = [blob[a:b] for a, b in zip([0] + cuts, cuts + [len(blob)])]
            self._check(*self._parse(pieces), group)

    def test_frame_by_frame_returns_each_payload_on_its_chunk(self):
        group = long_group(50)
        parser = GroupStreamParser()
        assert parser.feed(encode_group_header(self.TRACK, 42, 50)) == []
        for f in group.frames:
            payload = encode_frame_payload(f)
            assert parser.feed(encode_frame_chunk(payload)) == [payload]
        assert parser.complete

    def test_large_frame_in_small_chunks_completes_on_its_last_chunk(self):
        payload = bytes(range(256)) * 64
        blob = encode_group_header(self.TRACK, 1, 1) + encode_frame_chunk(payload)
        pieces = [blob[i : i + 100] for i in range(0, len(blob), 100)]
        parser = GroupStreamParser()
        for piece in pieces[:-1]:
            assert parser.feed(piece) == []
        assert parser.feed(pieces[-1], fin=True) == [payload]
        assert parser.complete

    @pytest.mark.parametrize("cut", [1, 7, 5000, -3])
    def test_trailing_bytes_rejected_after_held_tail(self, cut):
        blob = encode_group_stream(self.TRACK, long_group())
        parser = GroupStreamParser()
        parser.feed(blob[:cut])
        assert parser.complete is False
        with pytest.raises(MalformedError):
            parser.feed(blob[cut:] + b"\x00", fin=True)

    @pytest.mark.parametrize("cut", [1, 7, 5000, -3])
    def test_fin_early_rejected_after_held_tail(self, cut):
        blob = encode_group_stream(self.TRACK, long_group())
        parser = GroupStreamParser()
        parser.feed(blob[:cut])
        with pytest.raises(IncompleteError):
            parser.feed(blob[cut:-1], fin=True)

    def test_fin_on_empty_chunk_with_held_tail_rejected(self):
        blob = encode_group_stream(self.TRACK, long_group())
        parser = GroupStreamParser()
        parser.feed(blob[:-1])
        with pytest.raises(IncompleteError):
            parser.feed(b"", fin=True)


class TestControlStreamDecoder:
    def test_500_messages_whole_and_split_at_every_byte(self):
        messages = [
            SubscribeOk(i) if i % 3 else Approve(i, 1000 + i, (Category.STROBE,))
            for i in range(500)
        ]
        blob = b"".join(encode_message(m) for m in messages)
        whole = ControlStreamDecoder()
        assert whole.feed(blob) == messages
        assert whole.pending_bytes == 0
        bytewise = ControlStreamDecoder()
        got = []
        for i in range(len(blob)):
            got += bytewise.feed(blob[i : i + 1])
        assert got == messages
        assert bytewise.pending_bytes == 0

    def test_two_messages_split_across_feeds(self):
        blob = encode_message(SubscribeOk(4)) + encode_message(
            Approve(6, 7, (Category.STROBE,))
        )
        decoder = ControlStreamDecoder()
        got = decoder.feed(blob[:4])
        got += decoder.feed(blob[4:])
        assert got == [SubscribeOk(4), Approve(6, 7, (Category.STROBE,))]

    def test_whole_messages(self):
        decoder = ControlStreamDecoder()
        assert decoder.feed(encode_message(SubscribeOk(1))) == [SubscribeOk(1)]
        assert decoder.feed(b"") == []

    def test_garbage_raises_wire_error(self):
        decoder = ControlStreamDecoder()
        with pytest.raises(WireError):
            decoder.feed(bytes([0x7E, 0x01, 0x00]))
