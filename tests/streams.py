"""Test helper: a group's stream as one bytes object.

The publisher sends a group as per-frame chunks (``encode_group_chunks``);
tests that feed, compare or send a whole stream at once join them here.
"""

from __future__ import annotations

from moqgate.framing import encode_group_chunks
from moqgate.media import Group


def encode_group_stream(track: str, group: Group) -> bytes:
    """Complete stream contents for one group (header plus every frame)."""
    return b"".join(encode_group_chunks(track, group))
