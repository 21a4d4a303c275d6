"""Group data-stream framing and control-stream reassembly tests."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from streams import encode_group_stream

from moqgate.framing import (
    ControlStreamDecoder,
    GroupStreamParser,
    encode_frame_chunk,
    encode_group_chunks,
    encode_group_header,
)
from moqgate.media import LuminanceFrame, encode_frame_payload, Group
from moqgate.wire import (
    Approve,
    Category,
    IncompleteError,
    MalformedError,
    SubscribeUpdate,
    WireError,
    encode_message,
    encode_varint,
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
    return Group(5, frames)


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


# Values of each varint size the encoder emits: 1-, 2- and 4-byte forms.
_VARINT_RANGES = ((0, 0x3F), (0x40, 0x3FFF), (0x4000, 0x3FFF_FFFF))


def sized_varints():
    return st.sampled_from(_VARINT_RANGES).flatmap(lambda bounds: st.integers(*bounds))


@st.composite
def groups_of_any_size(draw):
    """1-40 frames whose group id, frame indices, capture timestamps and
    payload lengths (1x1, 16x16 and 128x128 frames) take each varint size."""
    n_frames = draw(st.integers(1, 40))
    width, height = draw(st.sampled_from([(1, 1), (16, 16), (128, 128)]))
    timestamps = sorted(draw(st.lists(sized_varints(), min_size=n_frames, max_size=n_frames)))
    frames = tuple(
        LuminanceFrame(width, height, draw(sized_varints()), ts, bytes((k,)) * (width * height))
        for k, ts in enumerate(timestamps)
    )
    return Group(draw(sized_varints()), frames)


def old_group_stream(track: str, group: Group) -> bytes:
    """``encode_group_stream`` as it was before the chunk encoder: header,
    then each frame's length-prefixed payload."""
    parts = [encode_group_header(track, group.group_id, len(group.frames))]
    for frame in group.frames:
        payload = encode_frame_payload(frame)
        parts.append(encode_varint(len(payload)) + payload)
    return b"".join(parts)


class TestGroupChunks:
    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=80), groups_of_any_size())
    def test_chunks_join_to_the_group_stream_with_the_header_on_chunk_0(self, track, group):
        chunks = encode_group_chunks(track, group)
        assert b"".join(chunks) == old_group_stream(track, group)
        assert encode_group_stream(track, group) == old_group_stream(track, group)
        header = encode_group_header(track, group.group_id, len(group.frames))
        frame_chunks = [
            encode_varint(len(payload)) + payload
            for payload in map(encode_frame_payload, group.frames)
        ]
        assert chunks == [header + frame_chunks[0]] + frame_chunks[1:]


def feed_collect(parser, data, fin=False):
    """``parser.feed`` with a payload list: the payloads the chunk
    completed, checked against the frame count ``feed`` returns."""
    payloads = []
    assert parser.feed(data, fin, payloads) == len(payloads)
    return payloads


class TestGroupStreamParser:
    def _blob(self):
        return encode_group_stream("track9", sample_group())

    def test_single_feed(self):
        parser = GroupStreamParser()
        payloads = feed_collect(parser, self._blob(), fin=True)
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
            collected += feed_collect(parser, bytes([byte]), fin=(i == len(blob) - 1))
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
                collected += feed_collect(parser, piece, fin=(j == len(pieces) - 1))
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
        assert feed_collect(parser, blob[: header_len + 1 + len(first)]) == [first]
        assert parser.complete is False


def long_group(n_frames=1000) -> Group:
    frames = tuple(
        LuminanceFrame(4, 2, i, i * 2, bytes((i + k) % 256 for k in range(8)))
        for i in range(n_frames)
    )
    return Group(42, frames)


class TestLongGroup:
    """A 1000-frame group parses the same however its stream is split."""

    TRACK = "big"

    def _parse(self, pieces):
        parser = GroupStreamParser()
        counter = GroupStreamParser()  # collects nothing
        collected = []
        for j, piece in enumerate(pieces):
            fin = j == len(pieces) - 1
            payloads = feed_collect(parser, piece, fin)
            assert counter.feed(piece, fin) == len(payloads)
            collected += payloads
        return parser, collected

    def _check(self, parser, collected, group):
        expected = [encode_frame_payload(f) for f in group.frames]
        assert collected == expected
        assert parser.frame_count == len(expected)
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
        assert feed_collect(parser, encode_group_header(self.TRACK, 42, 50)) == []
        for f in group.frames:
            payload = encode_frame_payload(f)
            assert feed_collect(parser, encode_frame_chunk(payload)) == [payload]
        assert parser.complete

    def test_large_frame_in_small_chunks_completes_on_its_last_chunk(self):
        payload = bytes(range(256)) * 64
        blob = encode_group_header(self.TRACK, 1, 1) + encode_frame_chunk(payload)
        pieces = [blob[i : i + 100] for i in range(0, len(blob), 100)]
        parser = GroupStreamParser()
        for piece in pieces[:-1]:
            assert feed_collect(parser, piece) == []
        assert feed_collect(parser, pieces[-1], fin=True) == [payload]
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

    def test_one_chunk_group_is_counted_without_copies(self):
        # 500 frames of about 4 kB in one chunk: the parser keeps no payload.
        blob = encode_group_header(self.TRACK, 0, 500) + b"".join(
            encode_frame_chunk(bytes([i % 256]) * 4096) for i in range(500)
        )
        assert len(blob) > 2_000_000
        parser = GroupStreamParser()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert parser.feed(blob) == 500
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert parser.span is blob
        assert grown < 64 * 1024

    def test_fin_on_empty_chunk_with_held_tail_rejected(self):
        blob = encode_group_stream(self.TRACK, long_group())
        parser = GroupStreamParser()
        parser.feed(blob[:-1])
        with pytest.raises(IncompleteError):
            parser.feed(b"", fin=True)


def varint(value: int, width: int) -> bytes:
    """``value`` as a ``width``-byte varint (1, 2, 4 or 8), minimal or not."""
    prefix = {1: 0b00, 2: 0b01, 4: 0b10, 8: 0b11}[width]
    return (value | prefix << (8 * width - 2)).to_bytes(width, "big")


@st.composite
def group_streams(draw):
    """A group stream whose varints take drawn widths, the offsets that fall
    inside its header or one of its varints, and its frame payloads if it is
    valid (else None).  The declared frame count may disagree with the
    frames that follow (0, too few, too many), and the stream may be
    truncated."""
    interior: list[int] = []
    blob = bytearray()

    def put(value: int) -> None:
        widths = [w for w in (1, 2, 4, 8) if value < 1 << (8 * w - 2)]
        encoded = varint(value, draw(st.sampled_from(widths)))
        interior.extend(range(len(blob) + 1, len(blob) + len(encoded)))
        blob.extend(encoded)

    name = draw(st.one_of(st.text(max_size=4).map(str.encode), st.binary(max_size=3)))
    payloads = draw(st.lists(st.binary(max_size=300), min_size=1, max_size=4))
    put(len(name))
    blob.extend(name)
    put(draw(st.integers(0, 2**62 - 1)))
    declared = draw(st.one_of(st.just(len(payloads)), st.integers(0, len(payloads) + 1)))
    put(declared)
    interior.extend(range(1, len(blob)))  # anywhere in the header
    for payload in payloads:
        put(len(payload))
        blob.extend(payload)
    cut = draw(st.integers(0, 3))
    blob = bytes(blob[: len(blob) - cut])
    try:
        name.decode()
    except UnicodeDecodeError:
        valid = False
    else:
        valid = declared == len(payloads) and not cut
    return blob, [i for i in interior if i < len(blob)], payloads if valid else None


def feed_pieces(pieces, payloads=None):
    """Feed ``pieces`` (fin on the last), collecting payloads into
    ``payloads`` if given; returns the parser, the frame counts the feeds
    returned and the spans they set, and the wire error raised, if any."""
    parser = GroupStreamParser()
    counts, spans = [], []
    try:
        for i, piece in enumerate(pieces):
            counts.append(parser.feed(piece, i == len(pieces) - 1, payloads))
            spans.append(parser.span)
    except WireError as exc:
        return parser, counts, spans, (type(exc), str(exc))
    return parser, counts, spans, None


class TestSplitPoints:
    """However a stream is cut -- inside the header, inside a 1-, 2-, 4- or
    8-byte length varint, or into empty pieces -- the parser ends where one
    whole-buffer feed ends."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_any_chunking_matches_one_whole_feed(self, data):
        blob, interior, expected = data.draw(group_streams())
        offsets = st.integers(0, len(blob))
        if interior:
            offsets = offsets | st.sampled_from(interior)
        cuts = sorted(data.draw(st.lists(offsets, max_size=8)))
        pieces = [blob[a:b] for a, b in zip([0] + cuts, cuts + [len(blob)])]
        whole_payloads, payloads = [], []
        whole, _, whole_spans, whole_error = feed_pieces([blob], whole_payloads)
        split, counts, spans, error = feed_pieces(pieces, payloads)
        assert error == whole_error
        assert (split.group_id, split.frame_count) == (whole.group_id, whole.frame_count)
        assert payloads == whole_payloads
        if expected is not None:
            assert error is None and payloads == expected
        # Counting alone walks the stream the same way.
        assert feed_pieces(pieces)[1:] == (counts, spans, error)
        if error is None:
            assert sum(counts) == len(payloads)
            # the spans are the stream, as received, in order
            assert b"".join(spans) == b"".join(whole_spans) == blob

    def test_unsplit_chunk_on_a_frame_boundary_is_its_own_span(self):
        blob = encode_group_stream("t", sample_group())
        parser = GroupStreamParser()
        parser.feed(blob, fin=True)
        assert parser.span is blob


class TestControlStreamDecoder:
    def test_500_messages_whole_and_split_at_every_byte(self):
        messages = [
            SubscribeUpdate(i, ()) if i % 3 else Approve(i, 1000 + i, (Category.STROBE,))
            for i in range(500)
        ]
        first = encode_message(messages[0])
        blob = b"".join(encode_message(m) for m in messages)
        whole = ControlStreamDecoder()
        assert whole.feed(blob) == messages
        # no stale tail is held: the next message decodes on its own
        assert whole.feed(first) == messages[:1]
        bytewise = ControlStreamDecoder()
        got = []
        for i in range(len(blob)):
            got += bytewise.feed(blob[i : i + 1])
        assert got == messages
        assert bytewise.feed(first) == messages[:1]

    def test_two_messages_split_across_feeds(self):
        blob = encode_message(SubscribeUpdate(4, ())) + encode_message(
            Approve(6, 7, (Category.STROBE,))
        )
        decoder = ControlStreamDecoder()
        # The first message is 4 bytes: the split falls inside the second.
        got = decoder.feed(blob[:5])
        got += decoder.feed(blob[5:])
        assert got == [SubscribeUpdate(4, ()), Approve(6, 7, (Category.STROBE,))]

    def test_whole_messages(self):
        decoder = ControlStreamDecoder()
        assert decoder.feed(encode_message(SubscribeUpdate(1, ()))) == [SubscribeUpdate(1, ())]
        assert decoder.feed(b"") == []

    def test_garbage_raises_wire_error(self):
        decoder = ControlStreamDecoder()
        with pytest.raises(WireError):
            decoder.feed(bytes([0x7E, 0x01, 0x00]))
