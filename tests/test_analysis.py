"""Strobe detector tests: sampling grid, increase rule, gap rule, verdicts.

The reference behaviour used by the randomized checks replays the rendered
frames' uniform luma level directly (every synthetic frame is spatially
uniform), so it shares nothing with the sampling / comparison code under test.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moqgate.analysis import (
    DetectorRegistry,
    DetectorState,
    FixedVerdictDetector,
    StrobeConfig,
    StrobeDetector,
    Verdict,
    analyze,
    analyze_group_strobe,
    default_registry,
    is_significant_increase,
    predict_risky_groups,
    push_frame,
    sample_luma,
)
from moqgate.media import (
    Constant,
    Group,
    LuminanceFrame,
    Ramp,
    SourceConfig,
    Strobe,
    generate_groups,
)
from moqgate.wire import Category


def uniform_frame(level: int, ts: int, w: int = 16, h: int = 16, index: int = 0) -> LuminanceFrame:
    return LuminanceFrame(w, h, index, ts, bytes((level,)) * (w * h))


def group_of_levels(group_id: int, levels: list[int], ts0: int, spacing: int = 33) -> Group:
    frames = tuple(
        uniform_frame(level, ts0 + i * spacing, index=i) for i, level in enumerate(levels)
    )
    return Group(group_id, frames, spacing * len(levels))


def reference_sample_luma(frame: LuminanceFrame, grid_dim: int) -> bytes:
    """The original per-pixel formulation of the sampling grid."""
    w, h = frame.width, frame.height
    xs = [((2 * i + 1) * w) // (2 * grid_dim) for i in range(grid_dim)]
    ys = [((2 * j + 1) * h) // (2 * grid_dim) for j in range(grid_dim)]
    return bytes(frame.pixels[y * w + x] for y in ys for x in xs)


def reference_is_significant_increase(prev: bytes, cur: bytes, cfg: StrobeConfig) -> bool:
    """The original per-sample formulation of the increase rule."""
    if not prev:
        return False
    changed = sum(1 for p, c in zip(prev, cur) if c - p > cfg.pixel_delta_threshold)
    return changed / len(prev) > cfg.changed_fraction_threshold


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
    def test_4x4_grid2_golden(self):
        # Pixels are their own row-major index; centers of a 2x2 grid over a
        # 4x4 frame land at (1,1), (3,1), (1,3), (3,3) -> indices 5,7,13,15.
        frame = LuminanceFrame(4, 4, 0, 0, bytes(range(16)))
        assert list(sample_luma(frame, 2)) == [5, 7, 13, 15]

    def test_sample_count_is_grid_squared(self):
        frame = uniform_frame(7, 0, w=32, h=24)
        assert len(sample_luma(frame, 16)) == 256

    def test_grid_must_fit_frame(self):
        frame = uniform_frame(0, 0, w=8, h=4)
        with pytest.raises(ValueError):
            sample_luma(frame, 5)
        with pytest.raises(ValueError):
            sample_luma(frame, 0)

    def test_row_major_order(self):
        # 2x2 frame, grid 2: cell centers are the four pixels in row order.
        frame = LuminanceFrame(2, 2, 0, 0, bytes([1, 2, 3, 4]))
        assert list(sample_luma(frame, 2)) == [1, 2, 3, 4]


class TestIncreaseRule:
    def test_fraction_boundary_is_strict(self):
        cfg = StrobeConfig()
        prev = bytes(256)
        just_at = bytes([21] * 64 + [0] * 192)   # 64/256 == 0.25, not above
        just_over = bytes([21] * 65 + [0] * 191)  # 65/256 > 0.25
        assert is_significant_increase(prev, just_at, cfg) is False
        assert is_significant_increase(prev, just_over, cfg) is True

    def test_delta_boundary_is_strict(self):
        cfg = StrobeConfig()
        prev = bytes(4)
        assert is_significant_increase(prev, bytes([20] * 4), cfg) is False
        assert is_significant_increase(prev, bytes([21] * 4), cfg) is True

    def test_decreases_never_count(self):
        cfg = StrobeConfig()
        assert is_significant_increase(bytes([200] * 4), bytes([0] * 4), cfg) is False

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_significant_increase(bytes(4), bytes(5), StrobeConfig())


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
        prev = sample_luma(prev_frame, grid_dim)
        cur = sample_luma(cur_frame, grid_dim)
        assert type(prev) is bytes and type(cur) is bytes
        assert prev == reference_sample_luma(prev_frame, grid_dim)
        assert cur == reference_sample_luma(cur_frame, grid_dim)
        want = reference_is_significant_increase(prev, cur, cfg)
        assert is_significant_increase(prev, cur, cfg) is want
        # push_frame with the lanes it carried, and with a state built by hand.
        _, carried = push_frame(prev_frame, DetectorState(), cfg)
        for state in (carried, DetectorState(prev)):
            _, state = push_frame(cur_frame, state, cfg)
            assert state.last_change_ts == (33 if want else None)

    @pytest.mark.parametrize("t", [255, 256, 10**6])
    def test_threshold_at_or_above_255_never_rises(self, t):
        cfg = StrobeConfig(pixel_delta_threshold=t, changed_fraction_threshold=0.0)
        assert is_significant_increase(bytes(256), bytes([255] * 256), cfg) is False
        risk, state = analyze_group_strobe(
            group_of_levels(0, [0, 255, 0, 255], ts0=0), DetectorState(), cfg
        )
        assert (risk, state.last_change_ts) == (False, None)

    def test_threshold_254_counts_a_full_swing(self):
        cfg = StrobeConfig(pixel_delta_threshold=254, changed_fraction_threshold=0.0)
        assert is_significant_increase(bytes(4), bytes([255, 0, 0, 0]), cfg) is True
        assert is_significant_increase(bytes([1, 0, 0, 0]), bytes([255, 0, 0, 0]), cfg) is False


class TestGapRule:
    def test_15hz_at_30fps_is_risky(self):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        (g,) = generate_groups(cfg)
        risk, _ = analyze_group_strobe(g, DetectorState(), StrobeConfig())
        assert risk is True

    def test_5hz_at_30fps_is_not_risky(self):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 5.0, 1000),))
        (g,) = generate_groups(cfg)
        risk, _ = analyze_group_strobe(g, DetectorState(), StrobeConfig())
        assert risk is False

    def test_gap_boundary_inclusive(self):
        cfg = StrobeConfig()
        # Two bright flashes whose increase events are exactly 100 ms apart.
        g = group_of_levels(0, [0, 240, 0, 240], ts0=0, spacing=50)
        risk, _ = analyze_group_strobe(g, DetectorState(), cfg)
        assert risk is True
        # 101 ms apart: below the 10 Hz equivalent rate, no risk.
        frames = (
            uniform_frame(0, 0, index=0),
            uniform_frame(240, 10, index=1),
            uniform_frame(0, 60, index=2),
            uniform_frame(240, 111, index=3),
        )
        risk, _ = analyze_group_strobe(Group(0, frames, 200), DetectorState(), cfg)
        assert risk is False

    def test_single_flash_is_not_risky(self):
        g = group_of_levels(0, [0, 240, 240, 240], ts0=0)
        risk, _ = analyze_group_strobe(g, DetectorState(), StrobeConfig())
        assert risk is False


class TestStateCarry:
    def test_flash_pair_across_boundary_detected_with_carry(self):
        a = group_of_levels(0, [16, 16, 240], ts0=0)      # increase at ts 66
        b = group_of_levels(1, [16, 240, 16], ts0=99)     # increase at ts 132
        cfg = StrobeConfig()
        risk_a, state = analyze_group_strobe(a, DetectorState(), cfg)
        risk_b, _ = analyze_group_strobe(b, state, cfg)
        assert risk_a is False
        assert risk_b is True

    def test_flash_pair_across_boundary_missed_without_carry(self):
        b = group_of_levels(1, [16, 240, 16], ts0=99)
        risk_b, _ = analyze_group_strobe(b, DetectorState(), StrobeConfig())
        assert risk_b is False


class TestTruthTable:
    @pytest.mark.parametrize("hz", [2.0, 5.0, 9.0])
    def test_safe_rates_approved(self, hz):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, hz, 3000),))
        state = DetectorState()
        risks = []
        for g in generate_groups(cfg):
            risk, state = analyze_group_strobe(g, state, StrobeConfig())
            risks.append(risk)
        assert not any(risks), f"{hz} Hz should be safe, group risks {risks}"

    @pytest.mark.parametrize("hz", [10.0, 12.0, 15.0])
    def test_fast_rates_rejected(self, hz):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, hz, 3000),))
        state = DetectorState()
        risks = []
        for g in generate_groups(cfg):
            risk, state = analyze_group_strobe(g, state, StrobeConfig())
            risks.append(risk)
        assert any(risks), f"{hz} Hz should be flagged"

    def test_constant_and_ramp_approved(self):
        for segments in ((Constant(128, 2000),), (Ramp(0, 255, 2000),)):
            cfg = SourceConfig(16, 16, 30, 1000, segments)
            state = DetectorState()
            for g in generate_groups(cfg):
                risk, state = analyze_group_strobe(g, state, StrobeConfig())
                assert risk is False


class TestIncrementalEquivalence:
    def test_push_frame_folds_to_group_analysis(self):
        cfg = SourceConfig(
            16, 16, 30, 1000,
            (Constant(128, 1000), Strobe(16, 240, 12.0, 2000), Constant(64, 1000)),
        )
        det_cfg = StrobeConfig()
        state_batch = DetectorState()
        state_inc = DetectorState()
        for g in generate_groups(cfg):
            risk_batch, state_batch = analyze_group_strobe(g, state_batch, det_cfg)
            risk_inc = False
            for frame in g.frames:
                hit, state_inc = push_frame(frame, state_inc, det_cfg)
                risk_inc = risk_inc or hit
            assert risk_inc == risk_batch
        assert state_inc == state_batch


def _fold_lanes(samples: bytes) -> int:
    buf = bytearray(2 * len(samples))
    buf[::2] = samples
    return int.from_bytes(buf, "little")


def fold_push_frame(
    frame: LuminanceFrame, state: DetectorState, config: StrobeConfig
) -> tuple[bool, DetectorState]:
    """The detector as a per-frame step, copied from the implementation
    that preceded the single group loop (sampling, lane spreading and the
    checked increase rule inlined), so that loop is held to it."""
    grid_dim = config.grid_dim
    if grid_dim > min(frame.width, frame.height):
        raise ValueError(
            f"grid_dim {grid_dim} exceeds frame dimensions "
            f"{frame.width}x{frame.height}"
        )
    samples = reference_sample_luma(frame, grid_dim)
    lanes = _fold_lanes(samples)
    prev = state.prev_samples
    t = config.pixel_delta_threshold
    if prev is None:
        event = False
    elif state.prev_lanes is None or len(prev) != len(samples) or t > 255:
        if len(prev) != len(samples):
            raise ValueError(
                f"sample vectors differ in length: {len(prev)} vs {len(samples)}"
            )
        event = bool(prev) and t <= 255 and (
            reference_is_significant_increase(prev, samples, config)
        )
    else:
        ones = int.from_bytes(b"\x01\x00" * len(samples), "little")
        offset, mask = (511 - math.floor(t)) * ones, 0x200 * ones
        changed = ((lanes + offset - state.prev_lanes) & mask).bit_count()
        event = changed / len(samples) > config.changed_fraction_threshold
    risk = False
    last_change = state.last_change_ts
    if event:
        if (
            last_change is not None
            and frame.capture_ts - last_change <= config.max_interchange_gap_ms
        ):
            risk = True
        last_change = frame.capture_ts
    return risk, DetectorState(samples, last_change, lanes)


def fold_group(
    frames: tuple[LuminanceFrame, ...], state: DetectorState, config: StrobeConfig
) -> tuple[bool, DetectorState]:
    risk = False
    for frame in frames:
        hit, state = fold_push_frame(frame, state, config)
        risk = risk or hit
    return risk, state


def outcome(step, *args):
    """(risk, state, prev_lanes) of a detector call, or its ValueError text."""
    try:
        risk, state = step(*args)
    except ValueError as exc:
        return str(exc)
    return risk, state, state.prev_lanes


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
    return Group(draw(st.integers(0, 5)), tuple(frames), 0)


@st.composite
def detector_cases(draw):
    grid_dim = draw(st.integers(1, 4))
    cfg = StrobeConfig(
        grid_dim=grid_dim,
        pixel_delta_threshold=draw(thresholds),
        changed_fraction_threshold=draw(fractions),
        max_interchange_gap_ms=draw(st.sampled_from([0, 33, 100, 1000])),
    )
    count = grid_dim * grid_dim
    kind = draw(st.sampled_from(["fresh", "carried", "no_lanes", "wrong_length"]))
    last = draw(st.one_of(st.none(), st.integers(0, 100)))
    if kind == "fresh":
        state = DetectorState()
    elif kind == "carried":
        before = draw(detector_groups(grid_dim)).frames
        carried = outcome(fold_group, before, DetectorState(), cfg)
        state = DetectorState() if isinstance(carried, str) else carried[1]
    elif kind == "no_lanes":
        state = DetectorState(draw(st.binary(min_size=count, max_size=count)), last)
    else:
        length = draw(st.integers(0, 30).filter(lambda n: n != count))
        samples = draw(st.binary(min_size=length, max_size=length))
        lanes = draw(st.sampled_from([None, _fold_lanes(samples)]))
        state = DetectorState(samples, last, lanes)
    return draw(detector_groups(grid_dim, ts0=200)), state, cfg


class TestOneDetectorLoop:
    """`analyze_group_strobe` against the per-frame fold it replaced, and
    `push_frame` as that loop over one frame."""

    @settings(max_examples=200, deadline=None)
    @given(case=detector_cases())
    @example(  # hand-built states whose samples do not match a 2x2 grid
        case=(group_of_levels(0, [0, 240], ts0=0), DetectorState(bytes(3)), StrobeConfig(2))
    )
    @example(
        case=(group_of_levels(0, [0, 240], ts0=0), DetectorState(bytes(5), 0, 0), StrobeConfig(2))
    )
    @example(  # the first frame's length error comes before the second's grid error
        case=(
            Group(0, (uniform_frame(0, 0), uniform_frame(0, 1, w=3, h=9)), 0),
            DetectorState(bytes(3)),
            StrobeConfig(4),
        )
    )
    @example(  # the second frame is the first the grid does not fit
        case=(
            Group(0, (uniform_frame(0, 0), uniform_frame(0, 1, w=3, h=9)), 0),
            DetectorState(),
            StrobeConfig(4),
        )
    )
    def test_group_loop_and_push_frame_match_the_fold(self, case):
        group, state, cfg = case
        want = outcome(fold_group, group.frames, state, cfg)
        assert outcome(analyze_group_strobe, group, state, cfg) == want

        def push_all(frames, state, cfg):
            risk = False
            for frame in frames:
                step = outcome(push_frame, frame, state, cfg)
                assert step == outcome(fold_push_frame, frame, state, cfg)
                if isinstance(step, str):
                    raise ValueError(step)
                hit, state, _ = step
                risk = risk or hit
            return risk, state

        assert outcome(push_all, group.frames, state, cfg) == want


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
            groups = generate_groups(src)
            expected = replay_risky_groups(groups, det_cfg)
            state = DetectorState()
            got = set()
            for g in groups:
                risk, state = analyze_group_strobe(g, state, det_cfg)
                if risk:
                    got.add(g.group_id)
            assert got == expected

    def test_lowering_thresholds_never_clears_risk(self):
        rng = random.Random(0xBEEF)
        for _ in range(30):
            src = self._random_source(rng)
            groups = generate_groups(src)
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
            def risky(cfg):
                state = DetectorState()
                out = set()
                for g in groups:
                    risk, state = analyze_group_strobe(g, state, cfg)
                    if risk:
                        out.add(g.group_id)
                return out
            assert risky(strict) <= risky(loose)


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
            groups = generate_groups(src)
            state = DetectorState()
            detected = set()
            for g in groups:
                risk, state = analyze_group_strobe(g, state, det_cfg)
                if risk:
                    detected.add(g.group_id)
            assert predict_risky_groups(src, det_cfg) == detected


class TestRegistryAndVerdicts:
    def test_default_registry_supports_known_categories(self):
        reg = default_registry()
        for cat in (Category.STROBE, Category.SMOKING, Category.ALCOHOL):
            assert cat in reg.categories
        assert 0x7F not in reg.categories

    def test_analyze_partitions_categories(self):
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        (g,) = generate_groups(cfg)
        verdict, states = analyze(
            g, (Category.STROBE, Category.SMOKING), default_registry(), {}
        )
        assert verdict == Verdict(0, approved=(Category.SMOKING,), rejected=(Category.STROBE,))
        assert set(verdict.approved) | set(verdict.rejected) == {1, 2}

    def test_analyze_threads_state(self):
        a = group_of_levels(0, [16, 16, 240], ts0=0)
        b = group_of_levels(1, [16, 240, 16], ts0=99)
        reg = default_registry()
        verdict_a, states = analyze(a, (Category.STROBE,), reg, {})
        verdict_b, _ = analyze(b, (Category.STROBE,), reg, states)
        assert verdict_a.approved == (Category.STROBE,)
        assert verdict_b.rejected == (Category.STROBE,)

    def test_raising_detector_fails_closed(self):
        class Boom:
            def initial_state(self):
                return "initial"

            def analyze_group(self, group, state):
                raise RuntimeError("model crashed")

        reg = DetectorRegistry()
        reg.register(Category.STROBE, StrobeDetector())
        reg.register(Category.SMOKING, Boom())
        g = group_of_levels(0, [16, 16, 240], ts0=0)
        previous = {Category.SMOKING: "kept"}
        verdict, states = analyze(g, (Category.SMOKING, Category.STROBE), reg, previous)
        assert verdict == Verdict(
            0,
            approved=(Category.STROBE,),
            rejected=(Category.SMOKING,),
            errors=((Category.SMOKING, "model crashed"),),
        )
        assert states[Category.SMOKING] == "kept"
        assert isinstance(states[Category.STROBE], DetectorState)
        # A category that fails on its first group gets no state at all.
        _, states = analyze(g, (Category.SMOKING,), reg, {})
        assert Category.SMOKING not in states

    def test_unregistered_category_is_lookup_error(self):
        g = group_of_levels(0, [128], ts0=0)
        with pytest.raises(LookupError):
            analyze(g, (0x7F,), default_registry(), {})

    def test_stub_detectors_configurable(self):
        reg = default_registry(smoking_approve=False)
        g = group_of_levels(0, [128, 128], ts0=0)
        verdict, _ = analyze(g, (Category.SMOKING, Category.ALCOHOL), reg, {})
        assert verdict.rejected == (Category.SMOKING,)
        assert verdict.approved == (Category.ALCOHOL,)

    def test_strobe_detector_wraps_module_functions(self):
        det = StrobeDetector(StrobeConfig())
        cfg = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        (g,) = generate_groups(cfg)
        risk, state = det.analyze_group(g, det.initial_state())
        assert risk is True
        assert isinstance(state, DetectorState)

    def test_fixed_verdict_detector(self):
        g = group_of_levels(0, [1], ts0=0)
        approve = FixedVerdictDetector(approve=True)
        reject = FixedVerdictDetector(approve=False)
        assert approve.analyze_group(g, approve.initial_state())[0] is False
        assert reject.analyze_group(g, reject.initial_state())[0] is True

    def test_registry_rejects_duplicate_registration(self):
        reg = DetectorRegistry()
        reg.register(0x10, FixedVerdictDetector())
        with pytest.raises(ValueError):
            reg.register(0x10, FixedVerdictDetector())
