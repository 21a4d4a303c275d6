"""Test helpers: a group's stream as one bytes object, and a reference
group stream parser.

The publisher sends a group as per-frame chunks (the reference encoder's
``frames.encode_group_chunks``); tests that feed, compare or send a whole
stream at once join them here.
"""

from __future__ import annotations

from frames import Group, encode_group_chunks

from moqgate.framing import GroupStreamParser
from moqgate.wire import MAX_MESSAGE_LENGTH, IncompleteError, MalformedError, decode_varint


def encode_group_stream(track: str, group: Group) -> bytes:
    """Complete stream contents for one group (header plus every frame)."""
    return b"".join(encode_group_chunks(track, group))


class ReferenceGroupParser(GroupStreamParser):
    """:class:`GroupStreamParser` with the per-frame walk its ``feed`` had
    before runs of equal-length frames were checked in bulk: one length
    prefix decoded per loop turn, and each completed frame collected as its
    payload's bytes rather than as ``(buffer, start, end)``; and with the
    header parse it had before its varints were read inline, one
    ``decode_varint`` call per field.  Tests require the two to agree on
    every count, payload, error and parser field."""

    def feed(self, data: bytes, fin: bool = False, payloads: list | None = None) -> int:
        completed = 0
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
                wanted = self._wanted
                while pos < size and wanted:
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
                    if payloads is not None:
                        payload = buf[start:end]
                        payloads.append(payload if buf is data else bytes(payload))
                    pos = end
                    wanted -= 1
                completed = self._wanted - wanted
                self._wanted = wanted
                self.complete = not wanted
            if buf is tail:
                del tail[:pos]
            elif pos < size:
                tail += memoryview(data)[pos:]
            if self.complete and pos < size:
                raise MalformedError("data after the declared final frame")
        if fin and not self.complete:
            raise IncompleteError("stream ended before the declared final frame")
        return completed

    def _parse_header(self, buf: bytes | bytearray) -> int:
        try:
            name_len, pos = decode_varint(buf)
            if name_len > MAX_MESSAGE_LENGTH:
                raise MalformedError(f"track name length {name_len} exceeds {MAX_MESSAGE_LENGTH}")
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
        self.frame_count = self._wanted = frame_count
        return pos
