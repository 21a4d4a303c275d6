"""Strobe detector tests: sampling grid, increase rule, gap rule, verdicts.

The reference behaviour used by the randomized checks replays the rendered
frames' uniform luma level directly (every synthetic frame is spatially
uniform), so it shares nothing with the sampling / comparison code under test.
"""

from __future__ import annotations

import random
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from frames import Group, LuminanceFrame, encode_frame_payload, rendered_groups
from payloads import read_payload, received, received_frames, varint_values

from moqgate.analysis import StrobeConfig, StrobeDetector, _grid_sampler, predict_risky_groups
from moqgate.client import AnalyzerClient, LatencyRecord
from moqgate.media import Constant, Ramp, SourceConfig, Strobe, decode_frame_payload
from moqgate.transport import SimNetwork
from moqgate.wire import Category, encode_varint


def uniform_frame(level: int, ts: int, w: int = 16, h: int = 16, index: int = 0) -> LuminanceFrame:
    return LuminanceFrame(w, h, index, ts, bytes((level,)) * (w * h))


def group_of_levels(group_id: int, levels: list[int], ts0: int, spacing: int = 33) -> Group:
    frames = tuple(
        uniform_frame(level, ts0 + i * spacing, index=i) for i, level in enumerate(levels)
    )
    return Group(group_id, frames)


def memory(detector: StrobeDetector) -> tuple[bytes | None, int | None, int | None]:
    """What the detector carries into its next group."""
    return detector.prev_samples, detector.prev_lanes, detector.last_change_ts


def risky_groups(groups: list[Group], cfg: StrobeConfig) -> set[int]:
    """The ids of the groups one detector flags, fed in order."""
    detector = StrobeDetector(cfg)
    return {g.group_id for g in groups if detector.analyze_group(received(g))}


def rises(prev: bytes, cur: bytes, w: int, h: int, cfg: StrobeConfig) -> bool:
    """Whether the detector sees a rise from a w x h frame of pixels ``prev``
    to one of ``cur``: on a two-frame group a rise shows as the last rise
    time equal to the second frame's timestamp."""
    detector = StrobeDetector(cfg)
    group = Group(0, (LuminanceFrame(w, h, 0, 0, prev), LuminanceFrame(w, h, 1, 33, cur)))
    assert detector.analyze_group(received(group)) is False  # one rise is never a flash pair
    assert detector.last_change_ts in (None, 33)
    return detector.last_change_ts == 33


def analyzer_for(categories, **kwargs) -> AnalyzerClient:
    """An analyzer on an unconnected session; feed it with `verdicts`."""
    net = SimNetwork()
    session, _ = net.connect("an", "relay", 0.0, 0.0)
    return AnalyzerClient(net, session, "cam", tuple(categories), 1, **kwargs)


def verdicts(analyzer: AnalyzerClient, *groups: Group) -> list[tuple[list[int], list[int]]]:
    """Hand each group to the analyzer as received and run its clock;
    return (approved, rejected) for every group it has analyzed so far:
    approved as its sent APPROVE names them, rejected the rest of its
    categories."""
    for g in groups:
        record = LatencyRecord(g.group_id, 0.0, 0.0, len(g.frames))
        analyzer._on_group(record, received_frames(g))
    analyzer.clock.run_until_idle()
    sent = {group_id: categories for _, group_id, categories in analyzer.approvals}
    result = []
    for record in analyzer.records:
        approved = sent.get(record.group_id, [])
        result.append((approved, [c for c in analyzer.categories if c not in approved]))
    return result


def reference_grid(w: int, h: int, grid_dim: int) -> list[int]:
    """The pixel indices of a grid's cell centers, row-major."""
    xs = [((2 * i + 1) * w) // (2 * grid_dim) for i in range(grid_dim)]
    ys = [((2 * j + 1) * h) // (2 * grid_dim) for j in range(grid_dim)]
    return [y * w + x for y in ys for x in xs]


def reference_sample_luma(frame: LuminanceFrame, grid_dim: int) -> bytes:
    """The original per-pixel formulation of the sampling grid."""
    return bytes(frame.pixels[i] for i in reference_grid(frame.width, frame.height, grid_dim))


def reference_is_significant_increase(prev: bytes, cur: bytes, cfg: StrobeConfig) -> bool:
    """The original per-sample formulation of the increase rule."""
    if not prev:
        return False
    changed = sum(1 for p, c in zip(prev, cur) if c - p > cfg.pixel_delta_threshold)
    return changed / len(prev) > cfg.changed_fraction_threshold


def reference_lanes(samples: bytes) -> int:
    """Samples spread into 16-bit lanes, sample 0 in the lowest lane."""
    return sum(s << (16 * i) for i, s in enumerate(samples))


def replay_risky_groups(groups: list[Group], cfg: StrobeConfig) -> set[int]:
    """Reference: replay uniform frame levels, apply the increase + gap rules."""
    risky: set[int] = set()
    prev_level: int | None = None
    last_change: int | None = None
    for group in groups:
        for frame in group.frames:
            level = frame.pixels[0]
            if (
                prev_level is not None
                and level - prev_level > cfg.pixel_delta_threshold
                and 1.0 > cfg.changed_fraction_threshold
            ):
                if last_change is not None and frame.capture_ts - last_change <= cfg.max_interchange_gap_ms:
                    risky.add(group.group_id)
                last_change = frame.capture_ts
            prev_level = level
    return risky


class TestSampleLuma:
    """The sampling grid, seen through the detector's rises and memory."""

    def test_4x4_grid2_golden(self):
        # Centers of a 2x2 grid over a 4x4 frame land at (1,1), (3,1),
        # (1,3), (3,3) -> indices 5,7,13,15: a rise in any one of those
        # pixels is a rise, a rise anywhere else is not.
        cfg = StrobeConfig(grid_dim=2, changed_fraction_threshold=0.0)
        lit = [bytes(255 if j == i else 0 for j in range(16)) for i in range(16)]
        assert [i for i in range(16) if rises(bytes(16), lit[i], 4, 4, cfg)] == [5, 7, 13, 15]
        # Pixels that are their own row-major index leave those samples.
        detector = StrobeDetector(cfg)
        detector.analyze_group(received(Group(0, (LuminanceFrame(4, 4, 0, 0, bytes(range(16))),))))
        assert detector.prev_lanes == reference_lanes(bytes([5, 7, 13, 15]))

    def test_sample_count_is_grid_squared(self):
        # A 32x24 frame on the default 16x16 grid has 256 samples: a rise in
        # 64 of them is 0.25 of the grid, not above it; 65 are above it.
        def lit(k: int) -> bytes:
            pixels = bytearray(32 * 24)
            for i in reference_grid(32, 24, 16)[:k]:
                pixels[i] = 21
            return bytes(pixels)

        assert rises(bytes(32 * 24), lit(64), 32, 24, StrobeConfig()) is False
        assert rises(bytes(32 * 24), lit(65), 32, 24, StrobeConfig()) is True

    def test_grid_must_fit_frame(self):
        detector = StrobeDetector(StrobeConfig(grid_dim=5))
        with pytest.raises(ValueError, match="exceeds frame dimensions 8x4"):
            detector.analyze_group(received(Group(0, (uniform_frame(0, 0, w=8, h=4),))))
        with pytest.raises(ValueError):
            StrobeConfig(grid_dim=0)
        with pytest.raises(ValueError, match="pixel_delta_threshold must be non-negative"):
            StrobeConfig(pixel_delta_threshold=-1)
        with pytest.raises(ValueError, match="changed_fraction_threshold must be within"):
            StrobeConfig(changed_fraction_threshold=1.5)
        with pytest.raises(ValueError, match="max_interchange_gap_ms must be non-negative"):
            StrobeConfig(max_interchange_gap_ms=-1)
        StrobeDetector(StrobeConfig(grid_dim=4)).analyze_group(
            received(Group(0, (uniform_frame(0, 0, w=8, h=4),)))
        )

    def test_sampler_matches_reference_grid_at_every_small_size(self):
        # Every w, h <= 40 and every grid that fits: full grids, grids that
        # divide both sides (strided slices) and all others (itemgetter).
        rng = random.Random(0x6121D)
        for w in range(1, 41):
            for h in range(1, 41):
                pixels = rng.randbytes(w * h)
                for grid_dim in range(1, min(w, h) + 1):
                    want = bytes(pixels[i] for i in reference_grid(w, h, grid_dim))
                    assert _grid_sampler(w, h, grid_dim, 0)(pixels) == want, (w, h, grid_dim)

    def test_row_major_order(self):
        # 2x2 frame, grid 2: the samples are the four pixels in row order.
        detector = StrobeDetector(StrobeConfig(grid_dim=2))
        detector.analyze_group(received(Group(0, (LuminanceFrame(2, 2, 0, 0, bytes([1, 2, 3, 4])),))))
        assert detector.prev_lanes == reference_lanes(bytes([1, 2, 3, 4]))


class TestIncreaseRule:
    """The rise test, on two-frame groups."""

    def test_fraction_boundary_is_strict(self):
        cfg = StrobeConfig()
        prev = bytes(256)
        just_at = bytes([21] * 64 + [0] * 192)   # 64/256 == 0.25, not above
        just_over = bytes([21] * 65 + [0] * 191)  # 65/256 > 0.25
        assert rises(prev, just_at, 16, 16, cfg) is False
        assert rises(prev, just_over, 16, 16, cfg) is True

    def test_delta_boundary_is_strict(self):
        cfg = StrobeConfig(grid_dim=2)
        prev = bytes(4)
        assert rises(prev, bytes([20] * 4), 2, 2, cfg) is False
        assert rises(prev, bytes([21] * 4), 2, 2, cfg) is True

    def test_decreases_never_count(self):
        cfg = StrobeConfig(grid_dim=2)
        assert rises(bytes([200] * 4), bytes([0] * 4), 2, 2, cfg) is False

    def test_frames_of_two_sizes_share_one_grid(self):
        # Frames of different sizes give the same number of samples, so a
        # 16x16 frame and a 32x24 frame compare sample by sample.
        cfg = StrobeConfig()
        for level, want in ((20, None), (21, 33)):
            detector = StrobeDetector(cfg)
            group = Group(0, (uniform_frame(0, 0), uniform_frame(level, 33, w=32, h=24)))
            assert detector.analyze_group(received(group)) is False
            assert detector.last_change_ts == want


@st.composite
def frame_pairs(draw):
    """Two random frames of one shape and a grid that fits them."""
    w, h = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    grid_dim = draw(st.integers(1, min(w, h)))
    pixels = st.binary(min_size=w * h, max_size=w * h)
    prev = LuminanceFrame(w, h, 0, 0, draw(pixels))
    cur = LuminanceFrame(w, h, 1, 33, draw(pixels))
    return prev, cur, grid_dim


thresholds = st.one_of(
    st.sampled_from([0, 1, 254, 255, 256, 10**6]),
    st.integers(0, 300),
    st.floats(0.0, 300.0),
)
fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestMatchesReference:
    """The cached sampler and the lane count against the per-pixel originals."""

    @settings(max_examples=500, deadline=None)
    @given(pair=frame_pairs(), t=thresholds, fraction=fractions)
    @example(  # one sample of a larger frame: itemgetter(i) returns an int
        pair=(
            LuminanceFrame(5, 3, 0, 0, bytes(15)),
            LuminanceFrame(5, 3, 1, 33, bytes(range(0, 255, 17))),
            1,
        ),
        t=254,
        fraction=0.0,
    )
    def test_sampling_and_increase_match_reference(self, pair, t, fraction):
        prev_frame, cur_frame, grid_dim = pair
        cfg = StrobeConfig(
            grid_dim=grid_dim,
            pixel_delta_threshold=t,
            changed_fraction_threshold=fraction,
        )
        prev = reference_sample_luma(prev_frame, grid_dim)
        cur = reference_sample_luma(cur_frame, grid_dim)
        want = reference_is_significant_increase(prev, cur, cfg)
        # The pair as one group, and as two groups with the memory carried.
        together = StrobeDetector(cfg)
        assert together.analyze_group(received(Group(0, (prev_frame, cur_frame)))) is False
        apart = StrobeDetector(cfg)
        assert apart.analyze_group(received(Group(0, (prev_frame,)))) is False
        assert memory(apart) == (prev, reference_lanes(prev), None)
        assert apart.analyze_group(received(Group(1, (cur_frame,)))) is False
        for detector in (together, apart):
            assert memory(detector) == (cur, reference_lanes(cur), 33 if want else None)

    @pytest.mark.parametrize("t", [255, 256, 10**6])
    def test_threshold_at_or_above_255_never_rises(self, t):
        cfg = StrobeConfig(pixel_delta_threshold=t, changed_fraction_threshold=0.0)
        assert rises(bytes(256), bytes([255] * 256), 16, 16, cfg) is False
        detector = StrobeDetector(cfg)
        risk = detector.analyze_group(received(group_of_levels(0, [0, 255, 0, 255], ts0=0)))
        assert (risk, detector.last_change_ts) == (False, None)

    def test_threshold_254_counts_a_full_swing(self):
        cfg = StrobeConfig(
            grid_dim=2, pixel_delta_threshold=254, changed_fraction_threshold=0.0
        )
        assert rises(bytes(4), bytes([255, 0, 0, 0]), 2, 2, cfg) is True
        assert rises(bytes([1, 0, 0, 0]), bytes([255, 0, 0, 0]), 2, 2, cfg) is False


@st.composite
def sampled_frames(draw):
    """A frame whose index and capture time take any of the four varint
    forms, and a grid of each sampler shape: the frame's own size, a grid
    that divides both sides, or one that does not divide the width."""
    shape = draw(st.sampled_from(["whole", "divided", "itemgetter"]))
    if shape == "whole":
        w = h = grid_dim = draw(st.integers(1, 8))
    elif shape == "divided":
        grid_dim = draw(st.integers(1, 6))
        w, h = grid_dim * draw(st.integers(1, 5)), grid_dim * draw(st.integers(2, 5))
    else:
        grid_dim = draw(st.integers(2, 6))
        w = grid_dim * draw(st.integers(1, 4)) + draw(st.integers(1, grid_dim - 1))
        h = draw(st.integers(grid_dim, 30))
    pixels = draw(st.binary(min_size=w * h, max_size=w * h))
    return LuminanceFrame(w, h, draw(varint_values), draw(varint_values), pixels), grid_dim


class TestPayloadOffsets:
    """The reader's pixel offset, and the samplers reading at it, for header
    varints of every length: no bundled source has a capture time of
    16,384 ms or more (a 4-byte varint), and none has an 8-byte one."""

    @settings(max_examples=300, deadline=None)
    @given(case=sampled_frames())
    @example(case=(LuminanceFrame(4, 4, 0, 16_384, bytes(range(16))), 4))
    @example(case=(LuminanceFrame(6, 4, 1 << 30, 1 << 14, bytes(range(24))), 2))
    @example(case=(LuminanceFrame(7, 5, 70, 1 << 61, bytes(range(35))), 3))
    def test_in_place_samples_match_the_copied_pixels(self, case):
        frame, grid_dim = case
        payload = encode_frame_payload(frame)
        header = (
            struct.pack(">HH", frame.width, frame.height)
            + encode_varint(frame.frame_index)
            + encode_varint(frame.capture_ts)
        )
        assert payload == header + frame.pixels
        fields = (frame.width, frame.height, frame.frame_index, frame.capture_ts)
        assert read_payload(payload) == (*fields, len(header))
        sampler = _grid_sampler(frame.width, frame.height, grid_dim, len(header))
        assert sampler(payload) == reference_sample_luma(frame, grid_dim)
        # Inside a buffer, between other bytes: the offset moves with the
        # payload, and the samplers take no byte past its pixels.
        buffer = b"\xff" * 5 + payload + bytes(range(256))
        assert decode_frame_payload(buffer, 5, 5 + len(payload)) == (*fields, 5 + len(header))
        sampler = _grid_sampler(frame.width, frame.height, grid_dim, 5 + len(header))
        assert sampler(buffer) == reference_sample_luma(frame, grid_dim)


class TestGapRule:
    def test_15hz_at_30fps_is_risky(self):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        (g,) = rendered_groups(cfg)
        assert StrobeDetector(StrobeConfig()).analyze_group(received(g)) is True

    def test_5hz_at_30fps_is_not_risky(self):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 5.0, 1000),))
        (g,) = rendered_groups(cfg)
        assert StrobeDetector(StrobeConfig()).analyze_group(received(g)) is False

    def test_gap_boundary_inclusive(self):
        cfg = StrobeConfig()
        # Two bright flashes whose increase events are exactly 100 ms apart.
        g = group_of_levels(0, [0, 240, 0, 240], ts0=0, spacing=50)
        assert StrobeDetector(cfg).analyze_group(received(g)) is True
        # 101 ms apart: below the 10 Hz equivalent rate, no risk.
        frames = (
            uniform_frame(0, 0, index=0),
            uniform_frame(240, 10, index=1),
            uniform_frame(0, 60, index=2),
            uniform_frame(240, 111, index=3),
        )
        assert StrobeDetector(cfg).analyze_group(received(Group(0, frames))) is False

    def test_single_flash_is_not_risky(self):
        g = group_of_levels(0, [0, 240, 240, 240], ts0=0)
        assert StrobeDetector(StrobeConfig()).analyze_group(received(g)) is False


class TestUnchangedFrames:
    def test_equal_frames_are_not_spread_into_lanes(self):
        # After one frame at level 16, thirty frames at level 240 spread one
        # frame into lanes: the other 29 equal the frame before them.
        detector = StrobeDetector(StrobeConfig())
        detector.analyze_group(received(group_of_levels(0, [16], ts0=0)))
        group = received(group_of_levels(1, [240] * 30, ts0=33))
        calls = []

        def profile(frame, event, arg):
            if event == "c_call" and getattr(arg, "__self__", None) is int:
                calls.append(arg.__name__)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            risk = detector.analyze_group(group)
        finally:
            sys.setprofile(outer)
        assert risk is False
        assert calls.count("from_bytes") <= 1
        assert memory(detector) == (
            bytes([240]) * 256, reference_lanes(bytes([240]) * 256), 33
        )


class TestStateCarry:
    def test_flash_pair_across_boundary_detected_with_carry(self):
        a = group_of_levels(0, [16, 16, 240], ts0=0)      # increase at ts 66
        b = group_of_levels(1, [16, 240, 16], ts0=99)     # increase at ts 132
        detector = StrobeDetector(StrobeConfig())
        assert detector.analyze_group(received(a)) is False
        assert detector.analyze_group(received(b)) is True

    def test_flash_pair_across_boundary_missed_without_carry(self):
        b = group_of_levels(1, [16, 240, 16], ts0=99)
        assert StrobeDetector(StrobeConfig()).analyze_group(received(b)) is False


class TestFailClosedMemory:
    def test_raising_group_leaves_memory_as_it_was(self):
        detector = StrobeDetector(StrobeConfig())
        assert detector.analyze_group(received(group_of_levels(0, [16, 16], ts0=0))) is False
        before = memory(detector)
        assert before == (bytes([16]) * 256, reference_lanes(bytes([16]) * 256), None)
        # A rise on frame 2, then a frame 3 the 16x16 grid does not fit.
        bad = Group(
            1,
            (
                uniform_frame(16, 66, index=0),
                uniform_frame(240, 99, index=1),
                uniform_frame(240, 132, w=4, h=4, index=2),
            ),
        )
        with pytest.raises(ValueError, match="exceeds frame dimensions 4x4"):
            detector.analyze_group(received(bad))
        assert memory(detector) == before
        # Judged against the last good group there is one rise (at 198) and
        # no flash pair.  Memory written frame by frame would hold the bad
        # group's rise at 99 and its bright frame, so 240 -> 16 -> 240 would
        # be a second rise 99 ms after it: a flash pair.
        assert detector.analyze_group(received(group_of_levels(2, [16, 240], ts0=165))) is False
        assert detector.last_change_ts == 198


class TestTruthTable:
    @pytest.mark.parametrize("hz", [2.0, 5.0, 9.0])
    def test_safe_rates_approved(self, hz):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, hz, 3000),))
        risky = risky_groups(rendered_groups(cfg), StrobeConfig())
        assert not risky, f"{hz} Hz should be safe, risky groups {risky}"

    @pytest.mark.parametrize("hz", [10.0, 12.0, 15.0])
    def test_fast_rates_rejected(self, hz):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, hz, 3000),))
        assert risky_groups(rendered_groups(cfg), StrobeConfig()), f"{hz} Hz should be flagged"

    def test_constant_and_ramp_approved(self):
        for segments in ((Constant(128, 2000),), (Ramp(0, 255, 2000),)):
            cfg = SourceConfig(16, 16, 30, 1000, segments)
            assert risky_groups(rendered_groups(cfg), StrobeConfig()) == set()


class TestIncrementalEquivalence:
    def test_push_frame_folds_to_group_analysis(self):
        cfg = SourceConfig(
            16, 16, 30, 1000,
            (Constant(128, 1000), Strobe(16, 240, 12.0, 2000), Constant(64, 1000)),
        )
        batch = StrobeDetector(StrobeConfig())
        pushed = StrobeDetector(StrobeConfig())
        for g in rendered_groups(cfg):
            risk_batch = batch.analyze_group(received(g))
            risk_inc = False
            for frame in g.frames:
                hit = pushed.analyze_group(received(Group(g.group_id, (frame,))))
                risk_inc = risk_inc or hit
            assert risk_inc == risk_batch
        assert memory(pushed) == memory(batch)


FoldState = tuple[bytes | None, int | None]  # (previous samples, last rise time)


def fold_push_frame(
    frame: LuminanceFrame, state: FoldState, config: StrobeConfig
) -> tuple[bool, FoldState]:
    """The detector as a per-frame step in the per-pixel formulation
    (reference sampling grid and increase rule), so the group loop is held
    to it."""
    grid_dim = config.grid_dim
    if grid_dim > min(frame.width, frame.height):
        raise ValueError(
            f"grid_dim {grid_dim} exceeds frame dimensions "
            f"{frame.width}x{frame.height}"
        )
    samples = reference_sample_luma(frame, grid_dim)
    prev, last_change = state
    risk = False
    if prev is not None and reference_is_significant_increase(prev, samples, config):
        if (
            last_change is not None
            and frame.capture_ts - last_change <= config.max_interchange_gap_ms
        ):
            risk = True
        last_change = frame.capture_ts
    return risk, (samples, last_change)


def fold_group(
    frames: tuple[LuminanceFrame, ...], state: FoldState, config: StrobeConfig
) -> tuple[bool, FoldState]:
    risk = False
    for frame in frames:
        hit, state = fold_push_frame(frame, state, config)
        risk = risk or hit
    return risk, state


def fold_outcome(frames, state: FoldState, config: StrobeConfig):
    """(risk, prev_samples, prev_lanes, last_change_ts) after the fold, or its
    ValueError text."""
    try:
        risk, (samples, last_change) = fold_group(frames, state, config)
    except ValueError as exc:
        return str(exc)
    return risk, samples, None if samples is None else reference_lanes(samples), last_change


def detector_outcome(detector: StrobeDetector, group: Group):
    """(risk, prev_samples, prev_lanes, last_change_ts) after the detector's
    loop over the group, or its ValueError text; a group that raises leaves
    the memory as it was."""
    before = memory(detector)
    try:
        risk = detector.analyze_group(received(group))
    except ValueError as exc:
        assert memory(detector) == before
        return str(exc)
    return (risk, *memory(detector))


@st.composite
def detector_groups(draw, grid_dim: int, ts0: int = 0):
    """1-40 frames of one to three sizes, some of which the grid may not fit;
    each frame is uniform (often a full swing) or noise, so rises of every
    size occur.  Per-frame choices come from one drawn seed, which keeps
    drawing 40 frames cheap."""
    side = st.integers(max(1, grid_dim - 1), 8)
    sizes = draw(st.lists(st.tuples(side, side), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    frames = []
    ts = ts0
    for i in range(draw(st.integers(1, 40))):
        w, h = rng.choice(sizes)
        ts += rng.randrange(61)
        if rng.random() < 0.5:
            level = rng.choice([0, 255]) if rng.random() < 0.5 else rng.randrange(256)
            pixels = bytes((level,)) * (w * h)
        else:
            pixels = rng.randbytes(w * h)
        frames.append(LuminanceFrame(w, h, i, ts, pixels))
    return Group(draw(st.integers(0, 5)), tuple(frames))


@st.composite
def detector_cases(draw):
    """(group, group analyzed before it or None for fresh memory, config)."""
    grid_dim = draw(st.integers(1, 4))
    cfg = StrobeConfig(
        grid_dim=grid_dim,
        pixel_delta_threshold=draw(thresholds),
        changed_fraction_threshold=draw(fractions),
        max_interchange_gap_ms=draw(st.sampled_from([0, 33, 100, 1000])),
    )
    kind = draw(st.sampled_from(["fresh", "carried"]))
    before = draw(detector_groups(grid_dim)) if kind == "carried" else None
    # Capture times from 200 ms take 2-byte varints; the later starts take
    # the 4- and 8-byte forms, so the pixels start further into the payload.
    ts0 = draw(st.sampled_from([200, 20_000, 1 << 40]))
    return draw(detector_groups(grid_dim, ts0=ts0)), before, cfg


class TestOneDetectorLoop:
    """`StrobeDetector.analyze_group` against the per-frame fold, on whole
    groups and on one-frame groups, from fresh and from carried memory."""

    @settings(max_examples=200, deadline=None)
    @given(case=detector_cases())
    @example(  # the second frame is the first the grid does not fit
        case=(
            Group(0, (uniform_frame(0, 0), uniform_frame(0, 1, w=3, h=9))),
            None,
            StrobeConfig(4),
        )
    )
    # Equal frames on both sides of the boundary into a group that raises:
    # the group skips its first frames, rises, then raises, and must leave
    # the samples, lanes and rise time of the group before it.
    @example(
        case=(
            Group(
                1,
                (
                    uniform_frame(9, 200, w=4, h=4),
                    uniform_frame(9, 201, w=4, h=4),
                    uniform_frame(240, 202, w=4, h=4),
                    uniform_frame(240, 203, w=3, h=3),
                ),
            ),
            Group(0, (uniform_frame(0, 0, w=4, h=4), uniform_frame(9, 1, w=4, h=4))),
            StrobeConfig(4, pixel_delta_threshold=5, changed_fraction_threshold=0.0),
        )
    )
    def test_group_loop_and_push_frame_match_the_fold(self, case):
        group, before, cfg = case
        batch, pushed = StrobeDetector(cfg), StrobeDetector(cfg)
        state: FoldState = (None, None)
        if before is not None:
            carried = fold_outcome(before.frames, state, cfg)
            assert detector_outcome(batch, before) == carried
            assert detector_outcome(pushed, before) == carried
            if not isinstance(carried, str):
                state = fold_group(before.frames, state, cfg)[1]
        want = fold_outcome(group.frames, state, cfg)
        assert detector_outcome(batch, group) == want

        risk = False
        for frame in group.frames:
            step = detector_outcome(pushed, Group(group.group_id, (frame,)))
            assert step == fold_outcome((frame,), state, cfg)
            if isinstance(step, str):
                assert step == want
                break
            state = fold_push_frame(frame, state, cfg)[1]
            risk = risk or step[0]
        else:
            assert (risk, *memory(pushed)) == want


class TestRandomizedAgainstReplay:
    def _random_source(self, rng: random.Random) -> SourceConfig:
        fps = rng.choice([20, 25, 30, 50])
        segments = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            duration = rng.choice([400, 600, 1000, 1400])
            if kind == 0:
                segments.append(Constant(rng.randrange(256), duration))
            elif kind == 1:
                low = rng.randrange(0, 100)
                high = rng.randrange(low + 1, 256)
                hz = rng.choice([2.0, 4.0, 5.0, 8.0, 10.0, 12.0, fps / 2])
                segments.append(Strobe(low, high, min(hz, fps / 2), duration))
            else:
                segments.append(Ramp(rng.randrange(256), rng.randrange(256), duration))
        return SourceConfig(16, 16, fps, 200, tuple(segments))

    def test_detector_matches_level_replay(self):
        rng = random.Random(0xA11CE)
        det_cfg = StrobeConfig(grid_dim=8)
        for _ in range(40):
            src = self._random_source(rng)
            groups = rendered_groups(src)
            expected = replay_risky_groups(groups, det_cfg)
            assert risky_groups(groups, det_cfg) == expected

    def test_lowering_thresholds_never_clears_risk(self):
        rng = random.Random(0xBEEF)
        for _ in range(30):
            src = self._random_source(rng)
            groups = rendered_groups(src)
            strict = StrobeConfig(
                grid_dim=8,
                pixel_delta_threshold=rng.randrange(10, 60),
                changed_fraction_threshold=rng.choice([0.1, 0.25, 0.5]),
            )
            loose = StrobeConfig(
                grid_dim=8,
                pixel_delta_threshold=strict.pixel_delta_threshold - rng.randrange(0, 10),
                changed_fraction_threshold=strict.changed_fraction_threshold / 2,
            )
            assert risky_groups(groups, strict) <= risky_groups(groups, loose)


class TestPredictRiskyGroups:
    def test_impulse_prediction(self):
        cfg = SourceConfig(
            32, 24, 30, 1000,
            (Constant(128, 4000), Strobe(16, 240, 15.0, 2000), Constant(128, 4000)),
        )
        assert predict_risky_groups(cfg, StrobeConfig()) == {4, 5}

    def test_constant_prediction_empty(self):
        cfg = SourceConfig(32, 24, 30, 1000, (Constant(128, 3000),))
        assert predict_risky_groups(cfg, StrobeConfig()) == set()

    def test_full_strobe_prediction(self):
        cfg = SourceConfig(32, 24, 30, 1000, (Strobe(16, 240, 15.0, 3000),))
        assert predict_risky_groups(cfg, StrobeConfig()) == {0, 1, 2}

    def test_prediction_matches_detector(self):
        rng = random.Random(0xF00D)
        det_cfg = StrobeConfig(grid_dim=8)
        helper = TestRandomizedAgainstReplay()
        for _ in range(25):
            src = helper._random_source(rng)
            detected = risky_groups(rendered_groups(src), det_cfg)
            assert predict_risky_groups(src, det_cfg) == detected


class TestRegistryAndVerdicts:
    def test_analyze_partitions_categories(self):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        (g,) = rendered_groups(cfg)
        analyzer = analyzer_for((Category.STROBE, Category.SMOKING))
        assert verdicts(analyzer, g) == [([Category.SMOKING], [Category.STROBE])]
        ((approved, rejected),) = verdicts(analyzer)
        assert set(approved) | set(rejected) == {1, 2}

    def test_analyze_threads_state(self):
        a = group_of_levels(0, [16, 16, 240], ts0=0)
        b = group_of_levels(1, [16, 240, 16], ts0=99)
        verdict_a, verdict_b = verdicts(analyzer_for((Category.STROBE,)), a, b)
        assert verdict_a[0] == [Category.STROBE]
        assert verdict_b[1] == [Category.STROBE]

    def test_raising_detector_fails_closed(self):
        # 4x4 frames do not fit the 16x16 grid: the strobe detector raises.
        ok = group_of_levels(0, [16, 16, 240], ts0=0)
        small = Group(1, (uniform_frame(16, 99, w=4, h=4),))
        analyzer = analyzer_for((Category.SMOKING, Category.STROBE), detector=StrobeConfig(16))
        verdicts(analyzer, ok)
        previous = memory(analyzer.strobe)
        assert previous[0] is not None
        assert verdicts(analyzer, small)[1] == ([Category.SMOKING], [Category.STROBE])
        (error,) = analyzer.log.filter(kind="detector_error")
        assert (error.detail["group_id"], error.detail["category"]) == (1, Category.STROBE)
        assert "exceeds frame dimensions 4x4" in error.detail["error"]
        assert memory(analyzer.strobe) == previous
        # A category that fails on its first group keeps the initial memory.
        analyzer = analyzer_for((Category.SMOKING, Category.STROBE))
        verdicts(analyzer, small)
        assert memory(analyzer.strobe) == (None, None, None)

    @pytest.mark.parametrize(
        "frames, cut, error",
        [
            # The grid fits no 4x4 frame, and frame 1 is cut short: every
            # frame is read before any is analyzed, so the read fails it.
            (
                [uniform_frame(16, 0, w=4, h=4), uniform_frame(16, 33, index=1)],
                1,
                "frame payload: 256 pixel bytes declared, 255 present",
            ),
            (
                [uniform_frame(16, 500), uniform_frame(16, 100, index=1)],
                None,
                "frame capture timestamps must be non-decreasing",
            ),
            # Capture times fall and frame 2 is cut short: the read error wins.
            (
                [uniform_frame(16, 500), uniform_frame(16, 100, index=1), uniform_frame(16, 133, index=2)],
                2,
                "frame payload: 256 pixel bytes declared, 255 present",
            ),
        ],
    )
    def test_group_that_does_not_read_fails_every_category(self, frames, cut, error):
        payloads = [encode_frame_payload(f) for f in frames]
        if cut is not None:
            payloads[cut] = payloads[cut][:-1]
        categories = (Category.SMOKING, Category.STROBE, Category.ALCOHOL)
        analyzer = analyzer_for(categories)
        analyzer._on_group(
            LatencyRecord(0, 0.0, 0.0, len(payloads)), [(p, 0, len(p)) for p in payloads]
        )
        assert verdicts(analyzer) == [([], list(categories))]
        errors = analyzer.log.filter(kind="detector_error")
        assert [(e.detail["category"], e.detail["error"]) for e in errors] == [
            (code, error) for code in categories
        ]
        assert memory(analyzer.strobe) == (None, None, None)

    def test_unsupported_category_is_value_error(self):
        with pytest.raises(ValueError, match=r"^no detector for categories \[127\]$"):
            analyzer_for((0x7F,))

    def test_stub_detectors_configurable(self):
        analyzer = analyzer_for((Category.SMOKING, Category.ALCOHOL), rejecting_stubs={Category.SMOKING})
        g = group_of_levels(0, [128, 128], ts0=0)
        ((approved, rejected),) = verdicts(analyzer, g)
        assert rejected == [Category.SMOKING]
        assert approved == [Category.ALCOHOL]

    def test_strobe_detector_keeps_its_memory(self):
        det = StrobeDetector(StrobeConfig())
        assert memory(det) == (None, None, None)
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        (g,) = rendered_groups(cfg)
        assert det.analyze_group(received(g)) is True
        last = g.frames[-1]
        assert det.prev_lanes == reference_lanes(reference_sample_luma(last, 16))
        assert det.last_change_ts is not None and det.last_change_ts <= last.capture_ts
