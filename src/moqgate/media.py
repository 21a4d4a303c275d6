"""Synthetic luminance video source and the raw frame payload codec.

Media is modeled as 8-bit luma frames grouped into fixed-duration groups of
pictures.  A source is described by a timeline of pattern segments; every
generated frame is spatially uniform, which keeps frames tiny and makes the
expected detector behaviour computable from the schedule alone.

Frame payload layout:

    width  (u16, big-endian)
    height (u16, big-endian)
    frame_index (varint)        ordinal within the group
    capture_ts  (varint, ms)    milliseconds since the stream epoch
    pixels (width * height raw bytes, row-major)
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from .wire import IncompleteError, MalformedError, decode_varint, encode_varint

MAX_DIMENSION = 0xFFFF

# width and height, the fixed part of the frame payload header
_DIMENSIONS = struct.Struct(">HH")


@dataclass(frozen=True)
class LuminanceFrame:
    """One spatially complete luma frame."""

    width: int
    height: int
    frame_index: int
    capture_ts: int
    pixels: bytes

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame dimensions must be positive: {self.width}x{self.height}")
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"pixel buffer holds {len(self.pixels)} bytes, "
                f"{self.width}x{self.height} needs {self.width * self.height}"
            )

    @classmethod
    def _from_checked(
        cls, width: int, height: int, frame_index: int, capture_ts: int, pixels: bytes
    ) -> LuminanceFrame:
        """A frame from fields whose caller has already made the checks of
        ``__post_init__``, built without the frozen ``__init__`` (which sets
        each field through ``object.__setattr__`` and checks them again)."""
        frame = object.__new__(cls)
        frame.__dict__.update(
            width=width,
            height=height,
            frame_index=frame_index,
            capture_ts=capture_ts,
            pixels=pixels,
        )
        return frame

    def pixel(self, x: int, y: int) -> int:
        return self.pixels[y * self.width + x]


@dataclass(frozen=True)
class Group:
    """A group of pictures: the unit of approval and gated delivery."""

    group_id: int
    frames: tuple[LuminanceFrame, ...]
    duration_ms: int

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a group must contain at least one frame")
        ts = [f.capture_ts for f in self.frames]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("frame capture timestamps must be non-decreasing")


@dataclass(frozen=True)
class Constant:
    """Hold one luma level for the whole segment."""

    level: int
    duration_ms: int


@dataclass(frozen=True)
class Strobe:
    """Alternate between two levels at ``flash_hz``, phase starting low."""

    low: int
    high: int
    flash_hz: float
    duration_ms: int


@dataclass(frozen=True)
class Ramp:
    """Linear per-frame interpolation from ``start_level`` to ``end_level``."""

    start_level: int
    end_level: int
    duration_ms: int


PatternSegment = Constant | Strobe | Ramp


@dataclass(frozen=True)
class SourceConfig:
    width: int
    height: int
    fps: int
    gop_duration_ms: int
    segments: tuple[PatternSegment, ...] = field(default_factory=tuple)

    @property
    def frames_per_group(self) -> int:
        return self.fps * self.gop_duration_ms // 1000

    def validate(self) -> None:
        """Raise ``ValueError`` listing every violated constraint."""
        problems: list[str] = []
        if not (1 <= self.width <= MAX_DIMENSION and 1 <= self.height <= MAX_DIMENSION):
            problems.append(f"dimensions out of range: {self.width}x{self.height}")
        if self.fps < 1:
            problems.append(f"fps must be positive: {self.fps}")
        if self.gop_duration_ms < 1:
            problems.append(f"group duration must be positive: {self.gop_duration_ms}")
        elif self.fps >= 1 and (self.fps * self.gop_duration_ms) % 1000 != 0:
            problems.append(
                f"group duration {self.gop_duration_ms} ms at {self.fps} fps "
                "does not hold a whole number of frames"
            )
        for i, seg in enumerate(self.segments):
            problems.extend(f"segment {i}: {p}" for p in _segment_problems(seg, self.fps))
        if problems:
            raise ValueError("; ".join(problems))


def _segment_problems(seg: PatternSegment, fps: int) -> list[str]:
    out: list[str] = []
    if seg.duration_ms < 1:
        out.append(f"duration must be positive: {seg.duration_ms}")
    if isinstance(seg, Constant):
        if not 0 <= seg.level <= 255:
            out.append(f"level out of range: {seg.level}")
    elif isinstance(seg, Strobe):
        if not (0 <= seg.low <= 255 and 0 <= seg.high <= 255):
            out.append(f"levels out of range: {seg.low}..{seg.high}")
        if seg.high <= seg.low:
            out.append(f"high level must exceed low: {seg.low}..{seg.high}")
        if seg.flash_hz <= 0:
            out.append(f"flash rate must be positive: {seg.flash_hz}")
        elif seg.flash_hz > fps / 2:
            out.append(
                f"flash rate {seg.flash_hz} Hz exceeds half the frame rate ({fps} fps)"
            )
        elif math.isinf(fps / (2 * seg.flash_hz)):
            out.append(f"flash rate too low to render: {seg.flash_hz}")
    elif isinstance(seg, Ramp):
        if not (0 <= seg.start_level <= 255 and 0 <= seg.end_level <= 255):
            out.append(f"levels out of range: {seg.start_level}..{seg.end_level}")
    else:
        out.append(f"unknown segment kind: {seg!r}")
    return out


def frame_capture_ts(frame_index: int, fps: int) -> int:
    """Capture time in whole ms of global frame ``frame_index``: the exact
    instant k*1000/fps rounded half up."""
    return (2 * frame_index * 1000 + fps) // (2 * fps)


def strobe_half_period_frames(fps: int, flash_hz: float) -> int:
    """Frames between flash toggles: fps / (2 * flash_hz) rounded to the
    nearest whole frame with ties rounded down, so a flash at the Nyquist
    edge renders at or above its requested rate.  Never below one frame."""
    return max(1, math.ceil(fps / (2 * flash_hz) - 0.5))


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


def iter_frame_levels(config: SourceConfig) -> list[tuple[int, int, int]]:
    """Per-frame schedule: ``(global_index, capture_ts, level)`` for every
    frame of the source, with each frame assigned to the segment whose time
    window contains its capture instant."""
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
    first_frame = {}
    for k, ts, seg_i in assignment:
        j = k - first_frame.setdefault(seg_i, k)
        level = _segment_level(boundaries[seg_i][2], config.fps, j, counts[seg_i])
        out.append((k, ts, level))
    return out


def generate_groups(config: SourceConfig) -> list[Group]:
    """Render the whole source into consecutive groups.

    Group ids start at 0 and increase by one; the last group may hold fewer
    frames when the timeline is not a whole number of group durations.
    """
    config.validate()
    fpg = config.frames_per_group
    area = config.width * config.height
    groups: list[Group] = []
    frames: list[LuminanceFrame] = []
    for k, ts, level in iter_frame_levels(config):
        frames.append(
            LuminanceFrame(
                width=config.width,
                height=config.height,
                frame_index=k % fpg,
                capture_ts=ts,
                pixels=bytes((level,)) * area,
            )
        )
        if len(frames) == fpg:
            groups.append(Group(len(groups), tuple(frames), config.gop_duration_ms))
            frames = []
    if frames:
        groups.append(
            Group(len(groups), tuple(frames), frame_capture_ts(len(frames), config.fps))
        )
    return groups


# --- frame payload codec ------------------------------------------------------


def encode_frame_payload(frame: LuminanceFrame) -> bytes:
    if frame.width > MAX_DIMENSION or frame.height > MAX_DIMENSION:
        raise ValueError(
            f"frame dimensions exceed the u16 header: {frame.width}x{frame.height}"
        )
    return b"".join(
        (
            _DIMENSIONS.pack(frame.width, frame.height),
            encode_varint(frame.frame_index),
            encode_varint(frame.capture_ts),
            frame.pixels,
        )
    )


def decode_frame_payload(data: bytes) -> LuminanceFrame:
    if len(data) < 4:
        raise IncompleteError(f"frame payload: header needs 4 bytes, got {len(data)}")
    width, height = _DIMENSIONS.unpack_from(data)
    if width < 1 or height < 1:
        raise MalformedError(f"frame dimensions must be positive: {width}x{height}")
    pos = 4
    frame_index, n = decode_varint(data, pos)
    pos += n
    capture_ts, n = decode_varint(data, pos)
    pos += n
    need = width * height
    if len(data) - pos < need:
        raise IncompleteError(
            f"frame payload: {need} pixel bytes declared, {len(data) - pos} present"
        )
    if len(data) - pos > need:
        raise MalformedError(
            f"frame payload has {len(data) - pos - need} trailing bytes"
        )
    return LuminanceFrame._from_checked(
        width, height, frame_index, capture_ts, bytes(data[pos:])
    )
