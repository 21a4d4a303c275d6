"""Per-category content analysis of media groups.

The strobe detector downsamples each frame on a fixed grid, flags frames
whose sampled luma rises sharply versus the previous frame, and declares a
group risky when two such rises land close enough together in time to imply
a flash rate in the photosensitive range.  `StrobeDetector` holds its config
and the memory it carries from group to group (the previous frame's samples,
their lanes and the time of the last rise), so flashes that straddle two
groups are still caught.

`StrobeDetector.analyze_group` is the one detector loop.  Per frame it reads
the grid's samples in place, from the chunk the frame arrived in at its
pixels' offset, with a sampler built once per frame size and offset: when
the grid covers every pixel the pixels are the samples; when grid_dim
divides both sides the centers fall at regular steps and a strided slice
reads them; otherwise one `operator.itemgetter` does.  A frame whose samples equal the previous
frame's rises nowhere, for any threshold and fraction, so it costs one
compare and leaves the memory as it is.  Otherwise the loop counts the
samples with ``cur - prev > t`` by SWAR (SIMD within a register): the
samples are spread into one big integer of 16-bit lanes, sample ``i`` in the
low byte of lane ``i`` counted from the least significant end.  Adding
``511 - t`` to every lane of ``cur`` and subtracting ``prev`` leaves each
lane in [1, 766], so no lane borrows from its neighbour, and bit 9 of a lane
is set exactly when ``cur - prev > t``; one mask and `int.bit_count` count
them.  A byte rises by at most 255, so a threshold above 255 means no rise.
The memory keeps the previous frame's samples and lanes, so each frame is
spread at most once, and is written back only after the whole group is
analyzed: a group that raises leaves it as it was, and the next group is
judged against the last group analyzed in full (the analyzer's fail-closed
rule).

Strobe is the only category with a detector; the other categories,
`STUB_CATEGORIES`, are stubs whose fixed verdicts the analyzer client
applies.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .media import SourceConfig, iter_frame_levels
from .wire import CATEGORIES, Category

__all__ = ["STUB_CATEGORIES", "PayloadGroup", "StrobeConfig", "StrobeDetector", "predict_risky_groups"]

#: The categories without a detector: each takes a fixed verdict.
STUB_CATEGORIES = CATEGORIES - {Category.STROBE}


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


class PayloadGroup(NamedTuple):
    """A received group: each frame's header, as `decode_frame_payload` reads
    it, and the buffer that header's pixel offset points into."""

    frames: list[tuple[int, int, int, int, int]]
    buffers: list[bytes]


@lru_cache(maxsize=64)
def _grid_sampler(width: int, height: int, grid_dim: int, offset: int) -> Callable[[bytes], bytes]:
    """The function that reads a frame's samples, from the width x height
    pixels at ``offset`` in its buffer, at the centers of a grid_dim x
    grid_dim grid, row-major; it reads no byte outside those pixels.

    Raises ValueError when the grid does not fit a width x height frame.
    """
    if grid_dim > min(width, height):
        raise ValueError(
            f"grid_dim {grid_dim} exceeds frame dimensions {width}x{height}"
        )
    if width == height == grid_dim:
        return operator.itemgetter(slice(offset, offset + width * height))
    dx, x_rest = divmod(width, grid_dim)
    dy, y_rest = divmod(height, grid_dim)
    if not x_rest and not y_rest:
        # The centers fall every dx pixels across and every dy rows down:
        # take every dx-th pixel from the first center to the last center's
        # row, which leaves grid_dim samples per row, and keep every dy-th row.
        rows = (grid_dim - 1) * dy + 1
        start = offset + (dy // 2) * width + dx // 2
        stop = start + rows * width
        return lambda buffer: (
            memoryview(buffer[start:stop:dx]).cast("B", (rows, grid_dim))[::dy].tobytes()
        )
    xs = [((2 * i + 1) * width) // (2 * grid_dim) for i in range(grid_dim)]
    ys = [((2 * j + 1) * height) // (2 * grid_dim) for j in range(grid_dim)]
    # grid_dim 1 divides every size, so there are at least two indices here.
    getter = operator.itemgetter(*[offset + y * width + x for y in ys for x in xs])
    return lambda buffer: bytes(getter(buffer))


@lru_cache(maxsize=64)
def _rise_constants(count: int, threshold: float) -> tuple[int, int]:
    """(511 - t in every lane, bit 9 of every lane) for `count` lanes."""
    ones = int.from_bytes(b"\x01\x00" * count, "little")
    return (511 - math.floor(threshold)) * ones, 0x200 * ones


class StrobeDetector:
    """The strobe detector: one config and the memory it carries across
    groups, the previous frame's samples and lanes and the capture time of
    the last rise (each None until there is one)."""

    def __init__(self, config: StrobeConfig = StrobeConfig()) -> None:
        self.config = config
        self.prev_samples: bytes | None = None
        self.prev_lanes: int | None = None
        self.last_change_ts: int | None = None

    def analyze_group(self, group: PayloadGroup) -> bool:
        """True when a frame of the group triggered the gap rule (reject it).

        Raises ValueError at the first frame the grid does not fit, and then
        leaves the memory as it was before the group.
        """
        config = self.config
        grid_dim = config.grid_dim
        count = grid_dim * grid_dim
        threshold = config.pixel_delta_threshold
        fraction = config.changed_fraction_threshold
        gap = config.max_interchange_gap_ms
        # No byte rises by more than 255: above that, a zero mask counts nothing.
        offset, mask = _rise_constants(count, threshold) if threshold <= 255 else (0, 0)
        prev_samples, prev_lanes = self.prev_samples, self.prev_lanes
        last_change = self.last_change_ts
        buf = bytearray(2 * count)
        risk = False
        for (width, height, _, ts, pixels_at), buffer in zip(group.frames, group.buffers):
            samples = _grid_sampler(width, height, grid_dim, pixels_at)(buffer)
            if samples == prev_samples:
                # No sample rose, for any threshold or fraction, and the
                # lanes stay as they are.
                continue
            buf[::2] = samples
            lanes = int.from_bytes(buf, "little")
            if (
                prev_lanes is not None
                and ((lanes + offset - prev_lanes) & mask).bit_count() / count > fraction
            ):
                if last_change is not None and ts - last_change <= gap:
                    risk = True
                last_change = ts
            prev_samples, prev_lanes = samples, lanes
        self.prev_samples, self.prev_lanes = prev_samples, prev_lanes
        self.last_change_ts = last_change
        return risk


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
