"""Group data-stream framing and control-stream reassembly tests."""

from __future__ import annotations

import random
import sys
import time
import tracemalloc
from itertools import cycle, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from frames import (
    Group,
    LuminanceFrame,
    encode_frame_chunk,
    encode_frame_payload,
    encode_group_chunks,
)
from streams import ReferenceGroupParser, encode_group_stream

from moqgate.framing import ControlStreamDecoder, GroupStreamParser, encode_group_header
from moqgate.wire import (
    Approve,
    Category,
    IncompleteError,
    MalformedError,
    Parameter,
    Subscribe,
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


def payloads_of(frames):
    """Each collected ``(buffer, start, end)`` frame's payload."""
    return [buffer[start:end] for buffer, start, end in frames]


def feed_collect(parser, data, fin=False):
    """``parser.feed`` with a frame list: the payloads of the frames the
    chunk completed, checked against the frame count ``feed`` returns."""
    frames = []
    assert parser.feed(data, fin, frames) == len(frames)
    return payloads_of(frames)


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

    def test_oversized_track_name_length_is_refused_on_the_first_feed(self):
        parser = GroupStreamParser()
        with pytest.raises(MalformedError, match="track name length 1073741823 exceeds 65535"):
            parser.feed(encode_varint((1 << 30) - 1))
        # The longest name a SUBSCRIBE can carry is still awaited.
        assert GroupStreamParser().feed(encode_varint(65535)) == 0

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
        assert grown < 64 * 1024

    def test_one_chunk_group_is_collected_inside_that_chunk(self):
        # The same 2 MB chunk with its frames collected: each frame is a
        # (chunk, start, end) triple on the chunk itself, so the parser
        # keeps about 130 bytes a frame (the triple, its two offsets and a
        # list slot) and no payload byte.
        blob = encode_group_header(self.TRACK, 0, 500) + b"".join(
            encode_frame_chunk(bytes([i % 256]) * 4096) for i in range(500)
        )
        parser = GroupStreamParser()
        frames = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert parser.feed(blob, True, frames) == 500
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 500 * 256
        assert all(buffer is blob for buffer, _, _ in frames)
        assert payloads_of(frames) == [bytes([i % 256]) * 4096 for i in range(500)]

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
def frame_runs(draw):
    """One segment of a group's frames: a run of up to 70 frames of one
    length, or a single frame of random bytes.  A run's payloads differ
    frame to frame, and their bytes often equal a length prefix byte."""
    if draw(st.booleans()):
        return [draw(st.binary(max_size=300))]
    length = draw(st.sampled_from((0, 1, 2, 63, 64, 65, 300)) | st.integers(0, 300))
    fill = draw(st.sampled_from((length & 0xFF, 0x40 | length >> 8)) | st.integers(0, 255))
    count = draw(st.integers(2, 70))
    return [(bytes((fill, k & 0xFF)) * length)[:length] for k in range(count)]


@st.composite
def group_streams(draw):
    """A group stream, the offsets worth cutting it at, and its frame
    payloads if it is valid (else None).

    Frames come in runs of one length (see ``frame_runs``).  Each varint
    takes a drawn width, minimal or not, and a run's length prefixes take
    one width or a width drawn frame by frame.  The offsets are those inside
    the header or a varint, where a frame starts and one byte into a frame.
    The declared frame count may disagree with the frames that follow (0,
    too few, so that it may end inside a run, or too many), one length
    prefix byte may be corrupted, and the stream may be truncated, possibly
    inside its last frame."""
    offsets: list[int] = []
    blob = bytearray()

    def put(value: int, width: int | None = None) -> int:
        widths = [w for w in (1, 2, 4, 8) if value < 1 << (8 * w - 2)]
        encoded = varint(value, width or draw(st.sampled_from(widths)))
        offsets.extend(range(len(blob) + 1, len(blob) + len(encoded)))
        blob.extend(encoded)
        return len(encoded)

    name = draw(st.one_of(st.text(max_size=4).map(str.encode), st.binary(max_size=3)))
    segments = draw(st.lists(frame_runs(), min_size=1, max_size=4))
    payloads = [payload for segment in segments for payload in segment]
    put(len(name))
    blob.extend(name)
    put(draw(st.integers(0, 2**62 - 1)))
    declared = draw(st.one_of(st.just(len(payloads)), st.integers(0, len(payloads) + 1)))
    put(declared)
    offsets.extend(range(1, len(blob)))  # anywhere in the header
    prefixes = []  # (offset, width) of each frame's length prefix
    for segment in segments:
        fits = [w for w in (1, 2, 4, 8) if len(segment[0]) < 1 << (8 * w - 2)]
        width = draw(st.sampled_from([None] + fits))
        for payload in segment:
            offsets.extend((len(blob), len(blob) + 1))
            prefixes.append((len(blob), put(len(payload), width)))
            blob.extend(payload)
    corrupt = draw(st.booleans())
    if corrupt:
        offset, width = draw(st.sampled_from(prefixes))
        blob[offset + draw(st.integers(0, width - 1))] ^= draw(st.integers(1, 255))
    last_frame = len(blob) - prefixes[-1][0]
    cut = draw(st.integers(0, 3) | st.integers(0, last_frame))
    blob = bytes(blob[: len(blob) - cut])
    try:
        name.decode()
    except UnicodeDecodeError:
        valid = False
    else:
        valid = declared == len(payloads) and not cut and not corrupt
    return blob, [i for i in offsets if i < len(blob)], payloads if valid else None


def cut_pieces(data, blob, offsets):
    """``blob`` cut at up to 8 drawn offsets, often ones from ``offsets``."""
    at = st.integers(0, len(blob))
    if offsets:
        at = at | st.sampled_from(offsets)
    cuts = sorted(data.draw(st.lists(at, max_size=8)))
    return [blob[a:b] for a, b in zip([0] + cuts, cuts + [len(blob)])]


def feed_pieces(pieces, collected=None, parser_class=GroupStreamParser):
    """Feed ``pieces`` (fin on the last), collecting frames into
    ``collected`` if given; returns the parser, the frame counts the feeds
    returned and the wire error raised, if any."""
    parser = parser_class()
    counts = []
    try:
        for i, piece in enumerate(pieces):
            counts.append(parser.feed(piece, i == len(pieces) - 1, collected))
    except WireError as exc:
        return parser, counts, (type(exc), str(exc))
    return parser, counts, None


class TestSplitPoints:
    """However a stream is cut -- inside the header, inside a 1-, 2-, 4- or
    8-byte length varint, or into empty pieces -- the parser ends where one
    whole-buffer feed ends."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_any_chunking_matches_one_whole_feed(self, data):
        blob, offsets, expected = data.draw(group_streams())
        pieces = cut_pieces(data, blob, offsets)
        whole_frames, frames = [], []
        whole, _, whole_error = feed_pieces([blob], whole_frames)
        split, counts, error = feed_pieces(pieces, frames)
        whole_payloads, payloads = payloads_of(whole_frames), payloads_of(frames)
        assert error == whole_error
        assert (split.group_id, split.frame_count) == (whole.group_id, whole.frame_count)
        assert payloads == whole_payloads
        if expected is not None:
            assert error is None and payloads == expected
        # Counting alone walks the stream the same way.
        assert feed_pieces(pieces)[1:] == (counts, error)
        if error is None:
            assert sum(counts) == len(payloads)


def parse_all(pieces, collect, parser_class):
    """Everything one parser reports over ``pieces``: counts, payloads and
    the types of the buffers they were collected in, the error, and the
    parser's fields.

    ``GroupStreamParser``'s frames are materialized from their buffers, and
    each buffer must be one of ``pieces`` itself or a copy of just the
    payload; ``ReferenceGroupParser`` collects the payloads as such.
    """
    payloads = collected = [] if collect else None
    parser, counts, error = feed_pieces(pieces, collected, parser_class)
    if collect and parser_class is GroupStreamParser:
        for buffer, start, end in collected:
            assert any(buffer is piece for piece in pieces) or (start, end) == (0, len(buffer))
        payloads = payloads_of(collected)
        collected = [buffer for buffer, _, _ in collected]
    return (
        counts,
        payloads,
        collected and [type(p) for p in collected],
        error,
        parser.track,
        parser.group_id,
        parser.frame_count,
        parser.complete,
        parser._wanted,
        bytes(parser._tail),
    )


class TestMatchesReferenceWalk:
    """``feed`` checks runs of equal-length frames in bulk; the per-frame
    walk it replaced (``streams.ReferenceGroupParser``) must report the
    same for every stream, fed whole or cut anywhere."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_whole_and_split_feeds_match_the_walk(self, data):
        blob, offsets, _ = data.draw(group_streams())
        for pieces in ([blob], cut_pieces(data, blob, offsets)):
            for collect in (False, True):
                assert parse_all(pieces, collect, GroupStreamParser) == parse_all(
                    pieces, collect, ReferenceGroupParser
                )

    @pytest.mark.parametrize("length", [0, 5, 63, 64, 300, 20_000])
    @pytest.mark.parametrize("declared", [1, 2, 3, 64, 65, 129, 200, 201])
    def test_runs_across_window_edges_and_the_declared_count(self, length, declared):
        blob = encode_group_header("t", 1, declared) + b"".join(
            encode_frame_chunk(bytes((k,)) * length) for k in range(200)
        )
        a, b = len(blob) // 3, 2 * len(blob) // 3 + 1
        for pieces in ([blob], [blob[:a], blob[a:b], blob[b:]]):
            for collect in (False, True):
                assert parse_all(pieces, collect, GroupStreamParser) == parse_all(
                    pieces, collect, ReferenceGroupParser
                )


def _frame(length: int, width: int | None = None) -> bytes:
    """A frame of ``length`` bytes with a ``width``-byte length prefix
    (minimal when not given)."""
    payload = bytes((k * 7) & 0xFF for k in range(length))
    return (encode_varint(length) if width is None else varint(length, width)) + payload


def _one_frame_cases() -> dict[str, list[bytes]]:
    """Chunk lists around ``feed``'s short path (a chunk of one whole frame
    with a 1- or 2-byte length prefix) and the shapes next to it."""
    header = encode_group_header("t", 1, 3)
    by_prefix = {"1-byte": _frame(5), "2-byte": _frame(300), "4-byte": _frame(20_000)}
    cases = {}
    for name, f in by_prefix.items():
        cases[f"one-frame chunks, {name} prefixes"] = [header + f, f, f]
        cases[f"header alone, then one-frame chunks, {name} prefixes"] = [header, f, f, f]
        cases[f"fin one frame early, {name} prefixes"] = [header + f, f]
        cases[f"held tail completed by a one-frame chunk, {name} prefixes"] = [
            header + f[:1], f[1:], f, f
        ]
        cases[f"two frames ending at the chunk's end, {name} prefixes"] = [header + f, f + f]
        cases[f"a chunk after the final frame, {name} prefixes"] = [header + f, f, f, f]
        cases[f"data after the final frame in its chunk, {name} prefixes"] = [
            header + f, f, f + b"\x00"
        ]
        cases[f"a frame and a part, {name} prefixes"] = [header + f, f + f[:2], f[2:]]
    short, wide = _frame(5), _frame(300)
    cases["non-minimal 2- and 4-byte prefixes"] = [header + _frame(5, 2), _frame(5, 2), _frame(5, 4)]
    cases["zero-length frames"] = [header + _frame(0), _frame(0), _frame(0)]
    cases["a one-byte chunk of a 2-byte prefix"] = [header + wide, wide[:1], wide[1:], wide]
    cases["a chunk one byte short of a frame"] = [header + short, short[:-1], short[-1:] + short]
    cases["an empty chunk between frames"] = [header + short, b"", short, short]
    return cases


ONE_FRAME_CASES = _one_frame_cases()


class TestShortPath:
    """``feed`` parses a chunk of one whole frame with a 1- or 2-byte length
    prefix, on a stream with its header parsed and nothing held, on a short
    path of its own.  Every count, payload, error and parser field
    must still be what the per-frame walk gives, for chunks of that shape
    and for those next to it."""

    @pytest.mark.parametrize("pieces", ONE_FRAME_CASES.values(), ids=ONE_FRAME_CASES.keys())
    @pytest.mark.parametrize("collect", [False, True], ids=["counted", "collected"])
    def test_matches_the_walk(self, pieces, collect):
        assert parse_all(pieces, collect, GroupStreamParser) == parse_all(
            pieces, collect, ReferenceGroupParser
        )

    def test_a_one_frame_chunk_is_collected_as_that_chunk(self):
        header = encode_group_header("t", 1, 2)
        chunk = _frame(300)
        parser = GroupStreamParser()
        parser.feed(header + chunk)
        frames = []
        assert parser.feed(chunk, fin=True, frames=frames) == 1
        assert frames == [(chunk, 2, len(chunk))] and frames[0][0] is chunk
        assert payloads_of(frames) == [chunk[2:]]
        assert parser.complete and parser._wanted == 0

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="opcode counts depend on the bytecode; they are pinned on CPython 3.11",
    )
    def test_a_one_frame_feed_costs_at_most_75_opcodes(self):
        # The per-frame walk takes 130 for this chunk.
        parser = GroupStreamParser()
        parser.feed(encode_group_header("t", 1, 3) + _frame(264))
        chunk = _frame(264)
        count = 0

        def count_opcodes(frame, event, arg):
            nonlocal count
            count += event == "opcode"
            return count_opcodes

        def trace_feed(frame, event, arg):
            if frame.f_code is GroupStreamParser.feed.__code__:
                frame.f_trace_opcodes = True
                return count_opcodes
            return None

        outer = sys.gettrace()
        sys.settrace(trace_feed)
        try:
            completed = parser.feed(chunk)
        finally:
            sys.settrace(outer)
        assert completed == 1
        assert count <= 75


class TestRunCheckCost:
    """Checking runs in bulk stays linear and close to the per-frame walk
    on chunks built to defeat it: about 200,000 frames whose lengths
    alternate (sharing no prefix byte, or the first of two) or come in runs
    of two or of four, the shortest run that is checked in bulk."""

    N_FRAMES = 200_000

    @pytest.mark.parametrize(
        "pattern",
        [(0, 1), (64, 65), (0, 0, 1, 1), (64, 64, 65, 65), (5, 5, 5, 5, 6, 6, 6, 6)],
    )
    def test_feed_costs_at_most_three_times_the_walk(self, pattern):
        lengths = islice(cycle(pattern), self.N_FRAMES)
        blob = encode_group_header("t", 0, self.N_FRAMES) + b"".join(
            encode_frame_chunk(bytes(length)) for length in lengths
        )
        best = {GroupStreamParser: float("inf"), ReferenceGroupParser: float("inf")}
        for _ in range(5):
            for parser_class in best:
                parser = parser_class()
                start = time.perf_counter()
                count = parser.feed(blob, fin=True)
                best[parser_class] = min(best[parser_class], time.perf_counter() - start)
                assert count == self.N_FRAMES
        assert best[GroupStreamParser] <= 3 * best[ReferenceGroupParser]


def test_feed_closes_over_none_of_its_locals():
    # A comprehension or nested function in feed would turn the locals it
    # reads into cell variables, which slows every feed on CPython 3.11.
    assert GroupStreamParser.feed.__code__.co_cellvars == ()


class TestControlStreamDecoder:
    def test_500_messages_whole_and_split_at_every_byte(self):
        messages = [
            Subscribe(i, "t") if i % 3 else Approve(i, 1000 + i, (Category.STROBE,))
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
        blob = encode_message(Subscribe(4, "t")) + encode_message(
            Approve(6, 7, (Category.STROBE,))
        )
        decoder = ControlStreamDecoder()
        # The first message is 7 bytes: the split falls inside the second.
        got = decoder.feed(blob[:8])
        got += decoder.feed(blob[8:])
        assert got == [Subscribe(4, "t"), Approve(6, 7, (Category.STROBE,))]

    def test_whole_messages(self):
        decoder = ControlStreamDecoder()
        assert decoder.feed(encode_message(Subscribe(1, "t"))) == [Subscribe(1, "t")]
        assert decoder.feed(b"") == []

    def test_oversized_length_is_refused_on_the_first_feed(self):
        decoder = ControlStreamDecoder()
        with pytest.raises(MalformedError, match="exceeds 65535"):
            decoder.feed(encode_varint(0x03) + encode_varint((1 << 30) - 1))

    def test_a_60_kb_message_fed_byte_by_byte_decodes_whole(self):
        msg = Subscribe(9, "t" * 60_000, 2, (Parameter(0x7F, bytes(range(200))),))
        blob = encode_message(msg)
        decoder = ControlStreamDecoder()
        got = []
        for i in range(len(blob)):
            got += decoder.feed(blob[i : i + 1])
        assert got == [msg]
        assert decoder.feed(blob) == [msg]

    def test_garbage_raises_wire_error(self):
        decoder = ControlStreamDecoder()
        with pytest.raises(WireError):
            decoder.feed(bytes([0x7E, 0x01, 0x00]))
