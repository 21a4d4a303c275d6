"""Test helpers: a group as the analyzer reads it, a standalone payload's
header, and varint values of every encoded length.

:func:`received` feeds a reference :class:`~frames.Group`'s whole stream to
a :class:`~moqgate.framing.GroupStreamParser` as one chunk and reads every
frame's header with :func:`~moqgate.media.decode_frame_payload` inside that
chunk, as ``AnalyzerClient`` does, into the
:class:`~moqgate.analysis.PayloadGroup` that
:meth:`~moqgate.analysis.StrobeDetector.analyze_group` takes: each frame's
pixels lie between other bytes of the stream.
"""

from __future__ import annotations

from frames import Group
from hypothesis import strategies as st
from streams import encode_group_stream

from moqgate.analysis import PayloadGroup
from moqgate.framing import GroupStreamParser
from moqgate.media import decode_frame_payload

# Values whose varints take 1, 2, 4 and 8 bytes.
varint_values = st.one_of(
    st.integers(0, (1 << 6) - 1),
    st.integers(1 << 6, (1 << 14) - 1),
    st.integers(1 << 14, (1 << 30) - 1),
    st.integers(1 << 30, (1 << 62) - 1),
)


def read_payload(payload: bytes) -> tuple[int, int, int, int, int]:
    """The header of a payload that is a whole buffer of its own."""
    return decode_frame_payload(payload, 0, len(payload))


def received_frames(group: Group) -> list[tuple[bytes, int, int]]:
    """The group's frames as one chunk of its whole stream delivers them."""
    frames: list[tuple[bytes, int, int]] = []
    GroupStreamParser().feed(encode_group_stream("cam", group), True, frames)
    return frames


def received(group: Group) -> PayloadGroup:
    """The group's frames as one chunk delivers them, headers read in place."""
    frames = received_frames(group)
    return PayloadGroup([decode_frame_payload(*f) for f in frames], [f[0] for f in frames])
