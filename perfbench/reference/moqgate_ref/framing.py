"""Stream-level framing for group data and control channels.

A group travels on its own unidirectional stream:

    [track name length varint][track name UTF-8]
    [group id varint][frame count varint]
    frame_count x ( [payload length varint][frame payload bytes] )

Frame payloads are opaque at this layer (the relay forwards them without
decoding).  :class:`GroupStreamParser` reassembles the stream incrementally
from arbitrarily split chunks; :class:`ControlStreamDecoder` does the same
for back-to-back control messages.
"""

from __future__ import annotations

from .media import Group, encode_frame_payload
from .wire import (
    ControlMessage,
    IncompleteError,
    MalformedError,
    decode_message,
    decode_varint,
    encode_varint,
)

__all__ = [
    "encode_group_header",
    "encode_frame_chunk",
    "encode_group_stream",
    "GroupStreamParser",
    "ControlStreamDecoder",
]


def encode_group_header(track: str, group_id: int, frame_count: int) -> bytes:
    name = track.encode("utf-8")
    return (
        encode_varint(len(name))
        + name
        + encode_varint(group_id)
        + encode_varint(frame_count)
    )


def encode_frame_chunk(payload: bytes) -> bytes:
    return encode_varint(len(payload)) + payload


def encode_group_stream(track: str, group: Group) -> bytes:
    """Complete stream contents for one group (header plus every frame)."""
    parts = [encode_group_header(track, group.group_id, len(group.frames))]
    for frame in group.frames:
        parts.append(encode_frame_chunk(encode_frame_payload(frame)))
    return b"".join(parts)


class GroupStreamParser:
    """Incremental parser for one group data stream.

    ``feed`` returns the frame payloads completed by that chunk.  Raises
    :class:`IncompleteError` if the stream finishes mid-structure and
    :class:`MalformedError` on bytes beyond the declared frame count.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.track: str | None = None
        self.group_id: int | None = None
        self.frame_count: int | None = None
        self.frames: list[bytes] = []
        self.complete = False

    def feed(self, data: bytes, fin: bool = False) -> list[bytes]:
        if data and self.complete:
            raise MalformedError("data after the declared final frame")
        self._buffer += data
        done: list[bytes] = []
        while True:
            if self.frame_count is None:
                if not self._try_parse_header():
                    break
                continue
            if len(self.frames) >= self.frame_count:
                self.complete = True
                if self._buffer:
                    raise MalformedError("data after the declared final frame")
                break
            payload = self._try_parse_frame()
            if payload is None:
                break
            self.frames.append(payload)
            done.append(payload)
        if fin and not self.complete:
            raise IncompleteError("stream ended before the declared final frame")
        return done

    def _try_parse_header(self) -> bool:
        buf = bytes(self._buffer)
        try:
            name_len, pos = decode_varint(buf)
            if len(buf) < pos + name_len:
                raise IncompleteError("truncated track name")
            raw_name = buf[pos : pos + name_len]
            pos += name_len
            group_id, n = decode_varint(buf, pos)
            pos += n
            frame_count, n = decode_varint(buf, pos)
            pos += n
        except IncompleteError:
            return False
        try:
            self.track = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedError(f"track name is not valid UTF-8: {exc}") from None
        self.group_id = group_id
        self.frame_count = frame_count
        del self._buffer[:pos]
        return True

    def _try_parse_frame(self) -> bytes | None:
        buf = bytes(self._buffer)
        try:
            length, pos = decode_varint(buf)
        except IncompleteError:
            return None
        if len(buf) < pos + length:
            return None
        payload = buf[pos : pos + length]
        del self._buffer[: pos + length]
        return payload


class ControlStreamDecoder:
    """Reassembles complete control messages from a byte stream."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[ControlMessage]:
        self._buffer += data
        messages: list[ControlMessage] = []
        while self._buffer:
            try:
                message, consumed = decode_message(bytes(self._buffer))
            except IncompleteError:
                break
            messages.append(message)
            del self._buffer[:consumed]
        return messages

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
