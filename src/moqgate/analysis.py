"""Per-category content analysis of media groups.

The strobe detector downsamples each frame on a fixed grid, flags frames
whose sampled luma rises sharply versus the previous frame, and declares a
group risky when two such rises land close enough together in time to imply
a flash rate in the photosensitive range.  Detector state (previous samples
and the timestamp of the last rise) threads across group boundaries so
flashes that straddle two groups are still caught.

Both per-frame steps run in C-level loops.  `sample_luma` builds the grid's
pixel indices once per (width, height, grid_dim) and reads them with one
`operator.itemgetter`; when the grid covers every pixel (a 16x16 frame on
the default 16x16 grid) it returns the pixels as they are.
`is_significant_increase` counts the samples with ``cur - prev > t`` by SWAR
(SIMD within a register): each sample vector is spread into one big integer
of 16-bit lanes, sample ``i`` in the low byte of lane ``i`` counted from the
least significant end.  Adding ``511 - t`` to every lane of ``cur`` and
subtracting ``prev`` leaves each lane in [1, 766], so no lane carries into
or borrows from its neighbour, and bit 9 of a lane is set exactly when
``cur - prev > t``; one mask and `int.bit_count` count them.

`analyze_group_strobe` is the one detector loop.  Per group it looks up the
rise constants once and, for each distinct frame size, validates the grid
and looks up its sampler once; samples, lanes and the last rise time ride in
locals, and one `DetectorState` is built at the end.  `DetectorState`
carries the previous frame's lanes, so each frame is spread once, across
group boundaries too.  A state built by hand without lanes, or with samples
of another length, goes through the checked `is_significant_increase`.  A
byte difference never exceeds 255, so a threshold above 255 means "no rise"
and skips the lane arithmetic.  `StrobeDetector` binds that loop to one
config; the analyzer client calls its `analyze_group` once per group.

Strobe is the only category with a detector; the other categories are
stubs whose fixed verdicts the analyzer client applies.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .media import Group, LuminanceFrame, SourceConfig, iter_frame_levels

__all__ = [
    "StrobeConfig",
    "DetectorState",
    "sample_luma",
    "is_significant_increase",
    "analyze_group_strobe",
    "StrobeDetector",
    "predict_risky_groups",
]


@dataclass(frozen=True)
class StrobeConfig:
    """Tuning knobs for the strobe detector."""

    grid_dim: int = 16
    pixel_delta_threshold: int = 20
    changed_fraction_threshold: float = 0.25
    max_interchange_gap_ms: int = 100

    def __post_init__(self) -> None:
        if self.grid_dim < 1:
            raise ValueError("grid_dim must be at least 1")
        if self.pixel_delta_threshold < 0:
            raise ValueError("pixel_delta_threshold must be non-negative")
        if not 0.0 <= self.changed_fraction_threshold <= 1.0:
            raise ValueError("changed_fraction_threshold must be within [0, 1]")
        if self.max_interchange_gap_ms < 0:
            raise ValueError("max_interchange_gap_ms must be non-negative")


@dataclass(frozen=True)
class DetectorState:
    """Detector memory carried between frames (and across groups)."""

    prev_samples: bytes | None = None
    last_change_ts: int | None = None
    # prev_samples spread into lanes, so each frame is spread once; derived
    # from prev_samples, so it takes no part in equality.
    prev_lanes: int | None = field(default=None, compare=False, repr=False)


@lru_cache(maxsize=64)
def _grid_sampler(width: int, height: int, grid_dim: int) -> Callable[[bytes], bytes]:
    """The function that reads a frame's grid samples, row-major.

    Raises ValueError when the grid does not fit a width x height frame.
    """
    if grid_dim < 1:
        raise ValueError("grid_dim must be at least 1")
    if grid_dim > min(width, height):
        raise ValueError(
            f"grid_dim {grid_dim} exceeds frame dimensions {width}x{height}"
        )
    xs = [((2 * i + 1) * width) // (2 * grid_dim) for i in range(grid_dim)]
    ys = [((2 * j + 1) * height) // (2 * grid_dim) for j in range(grid_dim)]
    indices = [y * width + x for y in ys for x in xs]
    if indices == list(range(width * height)):
        return bytes
    if len(indices) > 1:
        getter = operator.itemgetter(*indices)
    else:
        # itemgetter of one index returns an int; a one-item slice does not.
        getter = operator.itemgetter(slice(indices[0], indices[0] + 1))
    return lambda pixels: bytes(getter(pixels))


def sample_luma(frame: LuminanceFrame, grid_dim: int) -> bytes:
    """Sample the frame's luma at the centers of a grid_dim x grid_dim grid.

    Samples are returned row-major (top row first).  The grid must fit the
    frame: grid_dim is capped by the smaller frame dimension.
    """
    return _grid_sampler(frame.width, frame.height, grid_dim)(frame.pixels)


def _lanes(samples: bytes) -> int:
    """Spread samples into 16-bit lanes, sample 0 in the lowest lane."""
    buf = bytearray(2 * len(samples))
    buf[::2] = samples
    return int.from_bytes(buf, "little")


@lru_cache(maxsize=64)
def _rise_constants(count: int, threshold: float) -> tuple[int, int]:
    """(511 - t in every lane, bit 9 of every lane) for `count` lanes."""
    ones = int.from_bytes(b"\x01\x00" * count, "little")
    return (511 - math.floor(threshold)) * ones, 0x200 * ones


def is_significant_increase(prev: bytes, cur: bytes, config: StrobeConfig) -> bool:
    """True when the fraction of samples that brightened sharply is above
    the configured threshold.  Both comparisons are strictly greater-than.

    A byte can rise by at most 255, so a `pixel_delta_threshold` above 255
    always gives False.
    """
    if len(prev) != len(cur):
        raise ValueError(
            f"sample vectors differ in length: {len(prev)} vs {len(cur)}"
        )
    count = len(prev)
    if not count or config.pixel_delta_threshold > 255:
        return False
    offset, mask = _rise_constants(count, config.pixel_delta_threshold)
    changed = ((_lanes(cur) + offset - _lanes(prev)) & mask).bit_count()
    return changed / count > config.changed_fraction_threshold


def analyze_group_strobe(
    group: Group, state: DetectorState, config: StrobeConfig
) -> tuple[bool, DetectorState]:
    """Analyze a whole group; True when any frame triggered the gap rule.

    Frames are handled in order exactly as a fold of single-frame steps
    would, raising the same errors at the same frame.
    """
    grid_dim = config.grid_dim
    count = grid_dim * grid_dim
    threshold = config.pixel_delta_threshold
    fraction = config.changed_fraction_threshold
    gap = config.max_interchange_gap_ms
    # No byte rises by more than 255: above that, a zero mask counts nothing.
    offset, mask = _rise_constants(count, threshold) if threshold <= 255 else (0, 0)
    prev = state.prev_samples
    prev_lanes = state.prev_lanes
    last_change = state.last_change_ts
    if prev is None or len(prev) != count:
        # No previous frame, or a hand-built state the checked path handles.
        prev_lanes = None
    samplers: dict[tuple[int, int], Callable[[bytes], bytes]] = {}
    buf = bytearray(2 * count)
    risk = False
    for frame in group.frames:
        size = (frame.width, frame.height)
        sampler = samplers.get(size)
        if sampler is None:
            sampler = samplers[size] = _grid_sampler(*size, grid_dim)
        samples = sampler(frame.pixels)
        buf[::2] = samples
        lanes = int.from_bytes(buf, "little")
        if prev_lanes is not None:
            changed = ((lanes + offset - prev_lanes) & mask).bit_count()
            event = changed / count > fraction
        else:
            event = prev is not None and is_significant_increase(prev, samples, config)
        if event:
            ts = frame.capture_ts
            if last_change is not None and ts - last_change <= gap:
                risk = True
            last_change = ts
        prev = samples
        prev_lanes = lanes
    return risk, DetectorState(prev, last_change, prev_lanes)


class StrobeDetector:
    """The strobe detector bound to one config."""

    def __init__(self, config: StrobeConfig = StrobeConfig()) -> None:
        self.config = config

    def analyze_group(self, group: Group, state: DetectorState) -> tuple[bool, DetectorState]:
        """Return (risk, new_state); risk True means reject the group."""
        return analyze_group_strobe(group, state, self.config)


def predict_risky_groups(config: SourceConfig, detector_config: StrobeConfig) -> set[int]:
    """Predict which group ids the strobe detector will flag for a source.

    Synthetic frames are spatially uniform, so the detector's verdict is
    fully determined by the scheduled per-frame luma level; this replays
    that schedule without rendering any pixels.
    """
    # A uniform frame either trips every sample or none of them.
    uniform_counts = 1.0 > detector_config.changed_fraction_threshold
    risky: set[int] = set()
    prev: int | None = None
    last_change: int | None = None
    for k, ts, level in iter_frame_levels(config):
        event = (
            prev is not None
            and level - prev > detector_config.pixel_delta_threshold
            and uniform_counts
        )
        if event:
            if (
                last_change is not None
                and ts - last_change <= detector_config.max_interchange_gap_ms
            ):
                risky.add(k // config.frames_per_group)
            last_change = ts
        prev = level
    return risky
