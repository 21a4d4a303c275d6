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

A frame has one constructor, the validating one of the slotted
:class:`LuminanceFrame`, which the generator calls.  The payload reader builds
none: it reads the header in place (varints by :func:`wire.decode_varint`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from .wire import IncompleteError, MalformedError, decode_varint, encode_varint

MAX_DIMENSION = 0xFFFF

# width and height, the fixed part of the frame payload header
_DIMENSIONS = struct.Struct(">HH")


@dataclass(slots=True)
class LuminanceFrame:
    """One spatially complete luma frame.

    The constructor is the one way to build a frame, and it checks that the
    dimensions are positive and that the pixel buffer fills them.  The class
    is slotted rather than frozen: a frozen init sets each field through
    ``object.__setattr__`` and costs about three times as much, and nothing
    assigns a frame's fields after it is built.
    """

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


@dataclass(frozen=True)
class Group:
    """A group of pictures: the unit of approval and gated delivery."""

    group_id: int
    frames: tuple[LuminanceFrame, ...]

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a group must contain at least one frame")


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

    def __post_init__(self) -> None:
        """Check the source as it is built: raise ``ValueError`` listing
        every violated constraint."""
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


def _segment_levels(seg: PatternSegment, fps: int, n_frames: int) -> list[int]:
    """Luma levels of the ``n_frames`` frames of one segment, in order."""
    if isinstance(seg, Constant):
        return [seg.level] * n_frames
    if isinstance(seg, Strobe):
        half = strobe_half_period_frames(fps, seg.flash_hz)
        return [seg.low if (j // half) % 2 == 0 else seg.high for j in range(n_frames)]
    # A Ramp: SourceConfig refuses any other kind when it is built.
    if n_frames <= 1:
        return [seg.start_level] * n_frames
    start, end = seg.start_level, seg.end_level
    return [round(start + (end - start) * j / (n_frames - 1)) for j in range(n_frames)]


def iter_frame_levels(config: SourceConfig) -> list[tuple[int, int, int]]:
    """Per-frame schedule: ``(global_index, capture_ts, level)`` for every
    frame of the source, with each frame assigned to the segment whose time
    window contains its capture instant.  The segments are walked in order,
    and each one's levels come from one call for all of its frames."""
    fps = config.fps
    out: list[tuple[int, int, int]] = []
    k = 0
    seg_end = 0
    for seg in config.segments:
        seg_end += seg.duration_ms
        first = k
        stamps: list[int] = []
        while (ts := frame_capture_ts(k, fps)) < seg_end:
            stamps.append(ts)
            k += 1
        out.extend(zip(range(first, k), stamps, _segment_levels(seg, fps, len(stamps))))
    return out


def generate_groups(config: SourceConfig) -> list[Group]:
    """Render the whole source into consecutive groups.

    Group ids start at 0 and increase by one; the last group may hold fewer
    frames when the timeline is not a whole number of group durations.
    Frames are uniform, so the call renders one pixel block per distinct
    level and every frame at that level shares the same ``bytes`` object.
    The source was checked when it was built, so every frame renders.
    """
    fpg = config.frames_per_group
    area = config.width * config.height
    blocks: dict[int, bytes] = {}  # level -> its pixel block
    groups: list[Group] = []
    frames: list[LuminanceFrame] = []
    for k, ts, level in iter_frame_levels(config):
        pixels = blocks.get(level)
        if pixels is None:
            pixels = blocks[level] = bytes((level,)) * area
        frames.append(
            LuminanceFrame(
                width=config.width,
                height=config.height,
                frame_index=k % fpg,
                capture_ts=ts,
                pixels=pixels,
            )
        )
        if len(frames) == fpg:
            groups.append(Group(len(groups), tuple(frames)))
            frames = []
    if frames:
        groups.append(Group(len(groups), tuple(frames)))
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


def decode_frame_payload(data: bytes) -> tuple[int, int, int, int, int]:
    """``(width, height, frame_index, capture_ts, offset of the pixels)``."""
    size = len(data)
    if size < 4:
        raise IncompleteError(f"frame payload: header needs 4 bytes, got {size}")
    width, height = _DIMENSIONS.unpack_from(data)
    if width < 1 or height < 1:
        raise MalformedError(f"frame dimensions must be positive: {width}x{height}")
    frame_index, n = decode_varint(data, 4)
    pos = 4 + n
    capture_ts, n = decode_varint(data, pos)
    pos += n
    need = width * height
    if size - pos != need:
        if size - pos < need:
            raise IncompleteError(f"frame payload: {need} pixel bytes declared, {size - pos} present")
        raise MalformedError(f"frame payload has {size - pos - need} trailing bytes")
    return width, height, frame_index, capture_ts, pos
