"""Stream-level framing for group data and control channels.

A group travels on its own unidirectional stream:

    [track name length varint][track name UTF-8]
    [group id varint][frame count varint]
    frame_count x ( [payload length varint][frame payload bytes] )

Frame payloads are opaque at this layer (the relay forwards them without
decoding).  :class:`GroupStreamParser` parses the stream in place from
arbitrarily split chunks, holds only an incomplete tail, and records the
byte span each chunk completed; :class:`ControlStreamDecoder` reassembles
back-to-back control messages.
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


def encode_frame_chunk(payload: bytes, header: bytes = b"") -> bytes:
    """One frame's length-prefixed payload, after ``header`` (the group
    header, when the frame opens its stream)."""
    return b"".join((header, encode_varint(len(payload)), payload))


def encode_group_stream(track: str, group: Group) -> bytes:
    """Complete stream contents for one group (header plus every frame)."""
    parts = [encode_group_header(track, group.group_id, len(group.frames))]
    for frame in group.frames:
        parts.append(encode_frame_chunk(encode_frame_payload(frame)))
    return b"".join(parts)


class GroupStreamParser:
    """Incremental parser for one group data stream.

    ``feed`` returns the frame payloads completed by that chunk, and sets
    ``span`` to the stream bytes it completed: the header once it is whole,
    then each completed frame, exactly as received.  Raises
    :class:`IncompleteError` if the stream finishes mid-structure and
    :class:`MalformedError` on a header declaring no frames or on bytes
    beyond the declared frame count.

    The parser works in place: with nothing held, a chunk is parsed by
    offset where it lies, each payload is one slice of it, and a chunk that
    ends on a frame boundary is its own ``span``.  Only an incomplete tail
    is held, and the next chunk is appended to it, so a group costs time
    linear in its size however its stream is split.
    """

    def __init__(self) -> None:
        self._tail = bytearray()
        self.track: str | None = None
        self.group_id: int | None = None
        self.frame_count: int | None = None
        self.frames: list[bytes] = []
        self.complete = False
        self.span = b""

    def feed(self, data: bytes, fin: bool = False) -> list[bytes]:
        done: list[bytes] = []
        self.span = b""
        if data:
            if self.complete:
                raise MalformedError("data after the declared final frame")
            tail = self._tail
            if tail:
                tail += data
                buf = tail
            else:
                buf = data
            size = len(buf)
            pos = 0
            if self.frame_count is None:
                pos = self._parse_header(buf)
            if self.frame_count is not None:
                wanted = self.frame_count - len(self.frames)
                while pos < size and wanted:
                    # Lengths under 16 KiB (1- and 2-byte varints) inline.
                    first = buf[pos]
                    if first < 0x40:
                        start = pos + 1
                        length = first
                    elif first < 0x80 and pos + 2 <= size:
                        start = pos + 2
                        length = (first & 0x3F) << 8 | buf[pos + 1]
                    else:
                        try:
                            length, n = decode_varint(buf, pos)
                        except IncompleteError:
                            break
                        start = pos + n
                    end = start + length
                    if end > size:
                        break
                    done.append(buf[start:end])
                    pos = end
                    wanted -= 1
                self.complete = not wanted
            if buf is tail:
                done = [bytes(payload) for payload in done]
                self.span = bytes(tail[:pos])
                del tail[:pos]
            elif pos < size:
                self.span = data[:pos]
                tail += memoryview(data)[pos:]
            else:
                self.span = data
            self.frames += done
            if self.complete and pos < size:
                raise MalformedError("data after the declared final frame")
        if fin and not self.complete:
            raise IncompleteError("stream ended before the declared final frame")
        return done

    def _parse_header(self, buf: bytes | bytearray) -> int:
        """Parse the header if ``buf`` holds all of it; returns the offset
        just past it, or 0 when more bytes are needed."""
        try:
            name_len, pos = decode_varint(buf)
            if len(buf) < pos + name_len:
                return 0
            raw_name = buf[pos : pos + name_len]
            pos += name_len
            group_id, n = decode_varint(buf, pos)
            pos += n
            frame_count, n = decode_varint(buf, pos)
            pos += n
        except IncompleteError:
            return 0
        if frame_count == 0:
            raise MalformedError("a group must contain at least one frame")
        try:
            self.track = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedError(f"track name is not valid UTF-8: {exc}") from None
        self.group_id = group_id
        self.frame_count = frame_count
        return pos


class ControlStreamDecoder:
    """Reassembles complete control messages from a byte stream.

    Like :class:`GroupStreamParser`, each ``feed`` decodes by offset and
    keeps only the undecoded remainder.
    """

    def __init__(self) -> None:
        self._buffer = b""

    def feed(self, data: bytes) -> list[ControlMessage]:
        buf = self._buffer + data if self._buffer else bytes(data)
        pos = 0
        messages: list[ControlMessage] = []
        while pos < len(buf):
            try:
                message, consumed = decode_message(buf, pos)
            except IncompleteError:
                break
            messages.append(message)
            pos += consumed
        self._buffer = buf[pos:]
        return messages
