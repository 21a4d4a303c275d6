"""Synthetic source and frame payload codec tests.

Expected values are computed by hand from the pattern definitions: frame k
is captured at round-half-up(k * 1000 / fps) ms, a flash segment toggles
every nearest-int(fps / (2 * flash_hz)) frames with ties rounded down, and a
ramp interpolates linearly across its frames.
"""

from __future__ import annotations

import struct
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from payloads import varint_values
from schedules import reference_frame_levels

from moqgate import media
from moqgate.media import (
    Constant,
    Group,
    LuminanceFrame,
    Ramp,
    SourceConfig,
    Strobe,
    decode_frame_payload,
    encode_frame_payload,
    frame_capture_ts,
    generate_groups,
    iter_frame_levels,
    strobe_half_period_frames,
)
from moqgate.wire import IncompleteError, MalformedError, encode_varint

# 2x1 frame, index 0, ts 0, pixels [7, 9]:
#   width u16 BE | height u16 BE | index varint | ts varint | raw pixels
FRAME_PAYLOAD_GOLDEN = bytes([0x00, 0x02, 0x00, 0x01, 0x00, 0x00, 0x07, 0x09])


def assert_reads_back(payload: bytes, frame: LuminanceFrame) -> None:
    """The reader gives every header field of ``frame``, and the payload
    holds its pixels from the offset the reader gives to its end."""
    width, height, frame_index, capture_ts, offset = decode_frame_payload(payload)
    assert (width, height, frame_index, capture_ts) == (
        frame.width, frame.height, frame.frame_index, frame.capture_ts
    )
    assert payload[offset:] == frame.pixels


# Half-period table at 30 fps (nearest frame count, ties rounded down so a
# flash at the Nyquist edge renders at or above its requested rate).
HALF_PERIOD_30FPS = [(2, 7), (5, 3), (9, 2), (10, 1), (12, 1), (15, 1)]


def constant_source(level=128, duration=1000, fps=10, gop=1000, w=4, h=3):
    return SourceConfig(
        width=w,
        height=h,
        fps=fps,
        gop_duration_ms=gop,
        segments=(Constant(level, duration),),
    )


class TestFrameTimes:
    @pytest.mark.parametrize(
        "k,fps,ts",
        [
            (0, 10, 0),
            (9, 10, 900),          # frame 9 at 10 fps lands at 900 ms
            (0, 30, 0),
            (1, 30, 33),
            (2, 30, 67),
            (3, 30, 100),
            (1, 200, 5),
            (1, 125, 8),
        ],
    )
    def test_frame_capture_ts(self, k, fps, ts):
        assert frame_capture_ts(k, fps) == ts

    def test_spacing_consistent_with_fps(self):
        ts = [frame_capture_ts(k, 30) for k in range(31)]
        assert ts[30] == 1000
        assert all(b - a in (33, 34) for a, b in zip(ts, ts[1:]))


class TestHalfPeriod:
    @pytest.mark.parametrize("hz,frames", HALF_PERIOD_30FPS)
    def test_30fps_table(self, hz, frames):
        assert strobe_half_period_frames(30, hz) == frames

    def test_never_below_one_frame(self):
        assert strobe_half_period_frames(30, 15) == 1
        assert strobe_half_period_frames(10, 5) == 1


class TestValidation:
    def test_gop_must_hold_whole_frames(self):
        constant_source(fps=30, gop=500)  # 15 frames per group: fine
        with pytest.raises(ValueError):
            constant_source(fps=30, gop=250)  # 7.5 frames

    def test_flash_rate_capped_at_nyquist(self):
        with pytest.raises(ValueError):
            SourceConfig(4, 3, 30, 1000, (Strobe(16, 240, 16.0, 1000),))
        SourceConfig(4, 3, 30, 1000, (Strobe(16, 240, 15.0, 1000),))

    def test_strobe_levels_must_increase(self):
        with pytest.raises(ValueError):
            SourceConfig(4, 3, 30, 1000, (Strobe(240, 16, 5.0, 1000),))

    def test_every_problem_is_named_when_the_source_is_built(self):
        with pytest.raises(ValueError) as info:
            SourceConfig(0, 3, 30, 250, (Constant(300, 0),))
        assert str(info.value) == (
            "dimensions out of range: 0x3; "
            "group duration 250 ms at 30 fps does not hold a whole number of frames; "
            "segment 0: duration must be positive: 0; segment 0: level out of range: 300"
        )

    def test_rates_below_one_are_named(self):
        with pytest.raises(ValueError) as info:
            SourceConfig(4, 3, 0, 0, ())
        assert str(info.value) == (
            "fps must be positive: 0; group duration must be positive: 0"
        )

    def test_flash_rate_too_low_to_render(self):
        with pytest.raises(ValueError, match="^segment 0: flash rate too low to render: 5e-324$"):
            SourceConfig(4, 3, 30, 1000, (Strobe(16, 240, 5e-324, 1000),))

    def test_unknown_segment_kind_is_named(self):
        # Duck-typed like a segment, but of no known kind.
        seg = types.SimpleNamespace(duration_ms=100)
        with pytest.raises(ValueError, match="^segment 0: unknown segment kind: namespace"):
            SourceConfig(4, 3, 30, 1000, (seg,))

    def test_frame_shape_enforced(self):
        with pytest.raises(ValueError):
            LuminanceFrame(2, 2, 0, 0, b"\x00" * 3)
        with pytest.raises(ValueError):
            LuminanceFrame(0, 2, 0, 0, b"")

    def test_group_requires_frames(self):
        # Capture times that fall are refused where a group is received
        # (test_analysis, TestRegistryAndVerdicts).
        with pytest.raises(ValueError):
            Group(0, ())


class TestGenerate:
    def test_constant_single_group(self):
        groups = generate_groups(constant_source(level=128, duration=1000, fps=10))
        assert len(groups) == 1
        (g,) = groups
        assert g.group_id == 0
        assert len(g.frames) == 10
        assert all(set(f.pixels) == {128} for f in g.frames)
        assert [f.frame_index for f in g.frames] == list(range(10))
        assert [f.capture_ts for f in g.frames] == [k * 100 for k in range(10)]

    def test_two_segments_two_groups(self):
        cfg = SourceConfig(4, 3, 10, 1000, (Constant(10, 1000), Constant(20, 1000)))
        groups = generate_groups(cfg)
        assert [g.group_id for g in groups] == [0, 1]
        assert set(groups[0].frames[0].pixels) == {10}
        assert set(groups[1].frames[0].pixels) == {20}

    def test_group_ids_increase_by_one(self):
        cfg = constant_source(duration=5000, fps=20, gop=1000)
        groups = generate_groups(cfg)
        assert [g.group_id for g in groups] == [0, 1, 2, 3, 4]

    def test_strobe_toggles_every_three_frames_at_5hz_30fps(self):
        cfg = SourceConfig(4, 3, 30, 1000, (Strobe(16, 240, 5.0, 1000),))
        (g,) = generate_groups(cfg)
        levels = [f.pixels[0] for f in g.frames]
        expected = [(16 if (k // 3) % 2 == 0 else 240) for k in range(30)]
        assert levels == expected

    def test_strobe_phase_starts_low(self):
        cfg = SourceConfig(4, 3, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        (g,) = generate_groups(cfg)
        assert g.frames[0].pixels[0] == 16
        assert g.frames[1].pixels[0] == 240

    def test_strobe_phase_resets_per_segment(self):
        cfg = SourceConfig(
            4, 3, 30, 1000,
            (Constant(128, 1000), Strobe(16, 240, 15.0, 1000)),
        )
        groups = generate_groups(cfg)
        assert groups[1].frames[0].pixels[0] == 16

    def test_ramp_hits_both_endpoints(self):
        cfg = SourceConfig(4, 3, 10, 1000, (Ramp(0, 90, 1000),))
        (g,) = generate_groups(cfg)
        levels = [f.pixels[0] for f in g.frames]
        assert levels == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]

    def test_partial_last_group(self):
        cfg = constant_source(duration=1500, fps=10, gop=1000)
        groups = generate_groups(cfg)
        assert [len(g.frames) for g in groups] == [10, 5]

    def test_empty_source_yields_no_groups(self):
        cfg = SourceConfig(4, 3, 10, 1000, ())
        assert generate_groups(cfg) == []

    def test_frames_global_timestamps_cross_groups(self):
        cfg = constant_source(duration=2000, fps=10, gop=1000)
        groups = generate_groups(cfg)
        assert groups[1].frames[0].capture_ts == 1000
        assert groups[1].frames[0].frame_index == 0

    def test_frames_at_one_level_share_one_pixel_block(self):
        cfg = SourceConfig(
            4, 3, 30, 1000,
            (Constant(128, 1000), Strobe(16, 240, 5.0, 1000), Constant(128, 1000)),
        )
        frames = [f for g in generate_groups(cfg) for f in g.frames]
        blocks = {}
        for frame in frames:
            assert blocks.setdefault(frame.pixels[0], frame.pixels) is frame.pixels
        assert sorted(blocks) == [16, 128, 240]
        assert all(block == bytes((level,)) * 12 for level, block in blocks.items())


class TestFramePayloadCodec:
    def test_golden_vector(self):
        frame = LuminanceFrame(2, 1, 0, 0, bytes([7, 9]))
        assert encode_frame_payload(frame) == FRAME_PAYLOAD_GOLDEN
        assert decode_frame_payload(FRAME_PAYLOAD_GOLDEN) == (2, 1, 0, 0, 6)
        assert_reads_back(FRAME_PAYLOAD_GOLDEN, frame)

    def test_oversized_dimensions_rejected(self):
        frame = LuminanceFrame.__new__(LuminanceFrame)
        object.__setattr__(frame, "width", 70000)
        object.__setattr__(frame, "height", 1)
        object.__setattr__(frame, "frame_index", 0)
        object.__setattr__(frame, "capture_ts", 0)
        object.__setattr__(frame, "pixels", b"\x00" * 70000)
        with pytest.raises(ValueError):
            encode_frame_payload(frame)

    def test_truncated_pixels_incomplete(self):
        with pytest.raises(IncompleteError):
            decode_frame_payload(FRAME_PAYLOAD_GOLDEN[:-1])

    @pytest.mark.parametrize(
        "cut, message",
        [
            (4, "varint: empty input"),
            (5, "varint: first byte announces 2 bytes, only 1 present"),
            (6, "varint: empty input"),
            (7, "varint: first byte announces 2 bytes, only 1 present"),
            (8, "frame payload: 2 pixel bytes declared, 0 present"),
        ],
    )
    def test_cut_inside_two_byte_varints_names_what_is_missing(self, cut, message):
        # Index 100 and timestamp 1000 both take the 2-byte varint form.
        payload = encode_frame_payload(LuminanceFrame(2, 1, 100, 1000, b"\x07\x09"))
        assert payload.hex() == "00020001406443e80709"
        with pytest.raises(IncompleteError) as excinfo:
            decode_frame_payload(payload[:cut])
        assert str(excinfo.value) == message

    def test_frames_carry_no_instance_dict(self):
        frame = LuminanceFrame(2, 1, 0, 0, bytes([7, 9]))
        assert not hasattr(frame, "__dict__")
        assert not hasattr(decode_frame_payload(FRAME_PAYLOAD_GOLDEN), "__dict__")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(MalformedError):
            decode_frame_payload(FRAME_PAYLOAD_GOLDEN + b"\x00")

    def test_zero_dimension_rejected(self):
        bad = bytes([0x00, 0x00, 0x00, 0x01, 0x00, 0x00])
        with pytest.raises(MalformedError):
            decode_frame_payload(bad)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000_000),
        st.randoms(use_true_random=False),
    )
    def test_round_trip(self, w, h, idx, ts, rng):
        pixels = bytes(rng.randrange(256) for _ in range(w * h))
        frame = LuminanceFrame(w, h, idx, ts, pixels)
        assert_reads_back(encode_frame_payload(frame), frame)


@st.composite
def codec_frames(draw):
    """Frames of small and of wide (two header bytes per side) shapes."""
    w = draw(st.one_of(st.integers(1, 12), st.integers(256, 4096)))
    h = draw(st.integers(1, 12)) if w > 12 else draw(st.one_of(st.integers(1, 12), st.just(300)))
    pixels = draw(st.binary(min_size=w * h, max_size=w * h))
    return LuminanceFrame(w, h, draw(varint_values), draw(varint_values), pixels)


class TestFramePayloadProperty:
    """The codec against the concatenation it was first written as."""

    @settings(max_examples=150, deadline=None)
    @given(frame=codec_frames(), cut=st.integers(0, 3), extra=st.integers(1, 9))
    def test_encoding_round_trip_and_errors(self, frame, cut, extra):
        payload = encode_frame_payload(frame)
        header = struct.pack(">HH", frame.width, frame.height)
        fields = encode_varint(frame.frame_index) + encode_varint(frame.capture_ts)
        assert payload == header + fields + frame.pixels
        assert decode_frame_payload(payload) == (
            frame.width, frame.height, frame.frame_index, frame.capture_ts, len(header + fields)
        )
        assert_reads_back(payload, frame)

        with pytest.raises(IncompleteError) as info:
            decode_frame_payload(payload[:cut])
        assert str(info.value) == f"frame payload: header needs 4 bytes, got {cut}"

        need = frame.width * frame.height
        short = min(extra, need)
        with pytest.raises(IncompleteError) as info:
            decode_frame_payload(payload[:-short])
        assert str(info.value) == (
            f"frame payload: {need} pixel bytes declared, {need - short} present"
        )

        with pytest.raises(MalformedError) as info:
            decode_frame_payload(payload + bytes(extra))
        assert str(info.value) == f"frame payload has {extra} trailing bytes"

        for zeroed, shown in (
            (b"\x00\x00" + payload[2:], f"0x{frame.height}"),
            (payload[:2] + b"\x00\x00" + payload[4:], f"{frame.width}x0"),
        ):
            with pytest.raises(MalformedError) as info:
                decode_frame_payload(zeroed)
            assert str(info.value) == f"frame dimensions must be positive: {shown}"


class TestInterToggleProperty:
    @pytest.mark.parametrize("fps", [20, 25, 30, 50, 60])
    @pytest.mark.parametrize("hz", [1.0, 2.0, 2.5, 5.0, 7.5, 10.0])
    def test_generated_toggle_interval_matches_half_period(self, fps, hz):
        if hz > fps / 2:
            pytest.skip("above the Nyquist cap")
        cfg = SourceConfig(4, 3, fps, 1000, (Strobe(16, 240, hz, 3000),))
        frames = [f for g in generate_groups(cfg) for f in g.frames]
        levels = [f.pixels[0] for f in frames]
        toggles = [k for k in range(1, len(levels)) if levels[k] != levels[k - 1]]
        gaps = {b - a for a, b in zip(toggles, toggles[1:])}
        assert gaps == {strobe_half_period_frames(fps, hz)}


# fps 10: frames every 100 ms.  The constant holds frames 0 and 1, the first
# ramp ([150, 190) ms) none, the second ramp ([190, 240) ms) only frame 2,
# and the strobe at the Nyquist edge (5 Hz) frames 3 to 12.
SHORT_SEGMENTS = SourceConfig(
    4, 3, 10, 1000,
    (Constant(5, 150), Ramp(0, 90, 40), Ramp(10, 200, 50), Strobe(16, 240, 5.0, 1000)),
)

luma_levels = st.integers(0, 255)


@st.composite
def schedule_sources(draw):
    """Sources at 1 to 3,000 fps whose segments are often shorter than a
    frame spacing (no frame, or one: a one-frame ramp) and whose strobes are
    often at the Nyquist edge; at most about 2,000 frames a segment."""
    fps = draw(st.one_of(st.integers(1, 12), st.integers(1, 3000)))
    spacing = -(-1000 // fps)  # ms between frames, rounded up
    segments = []
    for _ in range(draw(st.integers(0, 5))):
        duration = draw(st.one_of(st.integers(1, spacing + 1), st.integers(1, 2_000_000 // fps)))
        kind = draw(st.sampled_from((Constant, Strobe, Ramp)))
        if kind is Constant:
            segments.append(Constant(draw(luma_levels), duration))
        elif kind is Strobe:
            low = draw(st.integers(0, 254))
            high = draw(st.integers(low + 1, 255))
            hz = draw(
                st.one_of(st.just(fps / 2), st.floats(fps / 4, fps / 2), st.floats(0.01, fps / 2))
            )
            segments.append(Strobe(low, high, hz, duration))
        else:
            segments.append(Ramp(draw(luma_levels), draw(luma_levels), duration))
    return SourceConfig(4, 3, fps, 1000, tuple(segments))


class TestSchedule:
    def test_zero_frame_segment_and_one_frame_ramp(self):
        assert iter_frame_levels(SHORT_SEGMENTS) == [
            (k, 100 * k, level)
            for k, level in enumerate([5, 5, 10] + [16, 240] * 5)
        ]

    def test_level_rule_runs_once_per_segment(self, monkeypatch):
        rule = media._segment_levels
        calls = []

        def counted(seg, fps, n_frames):
            calls.append((seg, n_frames))
            return rule(seg, fps, n_frames)

        monkeypatch.setattr(media, "_segment_levels", counted)
        iter_frame_levels(SHORT_SEGMENTS)
        assert calls == list(zip(SHORT_SEGMENTS.segments, [2, 0, 1, 10]))

    @settings(max_examples=300, deadline=None)
    @given(schedule_sources())
    @example(SHORT_SEGMENTS)
    @example(SourceConfig(4, 3, 3000, 1000, (Ramp(0, 255, 1), Strobe(0, 255, 1500.0, 1000))))
    @example(SourceConfig(4, 3, 1, 1000, (Ramp(9, 99, 999), Constant(1, 1), Ramp(3, 4, 1000))))
    def test_matches_the_two_pass_reference(self, config):
        assert iter_frame_levels(config) == reference_frame_levels(config)
