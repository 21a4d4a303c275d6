"""Test helper: record what a session receives through its callbacks.

Sessions deliver only through callbacks, so a test that inspects received
control messages and stream chunks after a run registers a
:class:`Recorder` on the session first.
"""

from __future__ import annotations


class Recorder:
    """Registers ``on_control`` and ``on_stream`` on ``session``; keeps each
    control message and each chunk as ``(stream_id, data, fin, net.now)``."""

    def __init__(self, net, session) -> None:
        self.net = net
        self.control: list[bytes] = []
        self.chunks: list[tuple[int, bytes, bool, float]] = []
        session.set_on_control(self.control.append)
        session.set_on_stream(self._on_stream)

    def _on_stream(self, rs) -> None:
        rs.set_on_data(
            lambda data, fin: self.chunks.append((rs.stream_id, data, fin, self.net.now))
        )

    def by_stream(self) -> list[list[tuple[bytes, bool, float]]]:
        """Each stream's ``(data, fin, time)`` chunks, streams in order of
        first arrival."""
        streams: dict[int, list[tuple[bytes, bool, float]]] = {}
        for stream_id, data, fin, now in self.chunks:
            streams.setdefault(stream_id, []).append((data, fin, now))
        return list(streams.values())


def joined(chunks: list[tuple[bytes, bool, float]]) -> bytes:
    """A stream's bytes, in arrival order."""
    return b"".join(data for data, _, _ in chunks)


def times(chunks: list[tuple[bytes, bool, float]]) -> list[float]:
    """A stream's chunk arrival times."""
    return [now for _, _, now in chunks]


def ended(chunks: list[tuple[bytes, bool, float]]) -> bool:
    """Whether the stream's last chunk carried ``fin``."""
    return chunks[-1][1]
