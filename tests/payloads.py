"""Test helpers: a group as the analyzer reads it, and varint values of
every encoded length.

:func:`received` encodes each frame of a :class:`~moqgate.media.Group`
with :func:`~moqgate.media.encode_frame_payload` and reads every header
back with :func:`~moqgate.media.decode_frame_payload`, as
``AnalyzerClient`` does, into the :class:`~moqgate.analysis.PayloadGroup`
that :meth:`~moqgate.analysis.StrobeDetector.analyze_group` takes.
"""

from __future__ import annotations

from hypothesis import strategies as st

from moqgate.analysis import PayloadGroup
from moqgate.media import Group, decode_frame_payload, encode_frame_payload

# Values whose varints take 1, 2, 4 and 8 bytes.
varint_values = st.one_of(
    st.integers(0, (1 << 6) - 1),
    st.integers(1 << 6, (1 << 14) - 1),
    st.integers(1 << 14, (1 << 30) - 1),
    st.integers(1 << 30, (1 << 62) - 1),
)


def received(group: Group) -> PayloadGroup:
    """The group's frames as payloads, with their headers read in place."""
    payloads = [encode_frame_payload(frame) for frame in group.frames]
    return PayloadGroup(list(map(decode_frame_payload, payloads)), payloads)
