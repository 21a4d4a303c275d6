"""Test helpers: the reference frame encoder, and a publication read back.

The package renders a source straight into its wire chunks
(:func:`moqgate.media.generate_groups`).  This module keeps the path that
renderer replaced, as the reference the tests hold it to:
:class:`LuminanceFrame` and :class:`Group` build a frame and a group with
their checks, :func:`reference_groups` renders a source into them,
:func:`encode_frame_payload` and :func:`encode_frame_chunk` encode one
frame, and :func:`encode_group_chunks` and :func:`encode_publication` a
group and a publication, one encoder call per field.

:func:`decoded_groups` reads a rendered publication back into reference
groups through the parser and the header reader the analyzer uses, and
:func:`rendered_groups` renders a source and reads it back so.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable

from moqgate.framing import GroupStreamParser, encode_group_header
from moqgate.media import (
    MAX_DIMENSION,
    EncodedGroup,
    SourceConfig,
    decode_frame_payload,
    generate_groups,
    iter_frame_levels,
)
from moqgate.wire import encode_varint

_DIMENSIONS = struct.Struct(">HH")


@dataclass(slots=True)
class LuminanceFrame:
    """One spatially complete luma frame; the constructor checks that the
    dimensions are positive and that the pixel buffer fills them."""

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


def reference_groups(config: SourceConfig) -> list[Group]:
    """The source as consecutive groups of frames; the last group may hold
    fewer frames.  Frames at one level share one pixel block."""
    fpg = config.frames_per_group
    area = config.width * config.height
    blocks: dict[int, bytes] = {}
    groups: list[Group] = []
    frames: list[LuminanceFrame] = []
    for k, ts, level in iter_frame_levels(config):
        pixels = blocks.setdefault(level, bytes((level,)) * area)
        frames.append(LuminanceFrame(config.width, config.height, k % fpg, ts, pixels))
        if len(frames) == fpg:
            groups.append(Group(len(groups), tuple(frames)))
            frames = []
    if frames:
        groups.append(Group(len(groups), tuple(frames)))
    return groups


def encode_frame_payload(frame: LuminanceFrame) -> bytes:
    if frame.width > MAX_DIMENSION or frame.height > MAX_DIMENSION:
        raise ValueError(f"frame dimensions exceed the u16 header: {frame.width}x{frame.height}")
    return b"".join(
        (
            _DIMENSIONS.pack(frame.width, frame.height),
            encode_varint(frame.frame_index),
            encode_varint(frame.capture_ts),
            frame.pixels,
        )
    )


def encode_frame_chunk(payload: bytes) -> bytes:
    """One frame's length-prefixed payload."""
    return encode_varint(len(payload)) + payload


def encode_group_chunks(track: str, group: Group) -> list[bytes]:
    """The group's stream as its publisher sends it: one chunk per frame,
    with the group header in front of frame 0's."""
    chunks = [encode_frame_chunk(encode_frame_payload(frame)) for frame in group.frames]
    chunks[0] = encode_group_header(track, group.group_id, len(chunks)) + chunks[0]
    return chunks


def encode_publication(track: str, groups: Iterable[Group]) -> list[EncodedGroup]:
    """Every group encoded, as the publisher takes them."""
    return [
        EncodedGroup(
            group.group_id,
            tuple(frame.capture_ts for frame in group.frames),
            tuple(encode_group_chunks(track, group)),
        )
        for group in groups
    ]


def decoded_groups(publication: list[EncodedGroup]) -> list[Group]:
    """Each group's chunks fed, one by one, to a parser and each frame's
    header read in place, as the analyzer reads them."""
    groups = []
    for encoded in publication:
        parser = GroupStreamParser()
        frames: list[tuple[bytes, int, int]] = []
        for i, chunk in enumerate(encoded.chunks):
            parser.feed(chunk, i == len(encoded.chunks) - 1, frames)
        assert parser.group_id == encoded.group_id
        read = []
        for buffer, start, end in frames:
            width, height, index, ts, offset = decode_frame_payload(buffer, start, end)
            read.append(LuminanceFrame(width, height, index, ts, buffer[offset:end]))
        groups.append(Group(encoded.group_id, tuple(read)))
    return groups


def rendered_groups(config: SourceConfig) -> list[Group]:
    """The source rendered by the package and read back, as reference groups."""
    return decoded_groups(generate_groups(config, "cam"))
