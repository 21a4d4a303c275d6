"""Test helper: a reference frame schedule.

:func:`reference_frame_levels` is :func:`moqgate.media.iter_frame_levels` as
it was before the schedule was built a segment at a time: a first pass
assigns every frame to a segment, and a second asks a per-frame rule for
each frame's level.  Tests require the two to agree on every source.
"""

from __future__ import annotations

from moqgate.media import (
    Constant,
    PatternSegment,
    Ramp,
    SourceConfig,
    Strobe,
    frame_capture_ts,
    strobe_half_period_frames,
)


def _segment_level(seg: PatternSegment, fps: int, j: int, n_frames: int) -> int:
    """Luma level of in-segment frame ``j`` of ``n_frames``."""
    if isinstance(seg, Constant):
        return seg.level
    if isinstance(seg, Strobe):
        half = strobe_half_period_frames(fps, seg.flash_hz)
        return seg.low if (j // half) % 2 == 0 else seg.high
    if isinstance(seg, Ramp):
        if n_frames <= 1:
            return seg.start_level
        return round(seg.start_level + (seg.end_level - seg.start_level) * j / (n_frames - 1))
    raise TypeError(f"unknown segment kind: {seg!r}")


def reference_frame_levels(config: SourceConfig) -> list[tuple[int, int, int]]:
    """``(global_index, capture_ts, level)`` for every frame, in two passes."""
    boundaries: list[tuple[int, int, PatternSegment]] = []
    start = 0
    for seg in config.segments:
        boundaries.append((start, start + seg.duration_ms, seg))
        start += seg.duration_ms
    total = start

    # First pass: assign frames to segments.
    assignment: list[tuple[int, int, int]] = []  # (k, ts, segment index)
    counts = [0] * len(boundaries)
    seg_i = 0
    k = 0
    while True:
        ts = frame_capture_ts(k, config.fps)
        if ts >= total:
            break
        while ts >= boundaries[seg_i][1]:
            seg_i += 1
        assignment.append((k, ts, seg_i))
        counts[seg_i] += 1
        k += 1

    # Second pass: compute levels now that per-segment frame counts are known.
    out: list[tuple[int, int, int]] = []
    first_frame: dict[int, int] = {}
    for k, ts, seg_i in assignment:
        j = k - first_frame.setdefault(seg_i, k)
        level = _segment_level(boundaries[seg_i][2], config.fps, j, counts[seg_i])
        out.append((k, ts, level))
    return out
