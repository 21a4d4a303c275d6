"""Stream-level framing for group data and control channels.

A group travels on its own unidirectional stream:

    [track name length varint][track name UTF-8]
    [group id varint][frame count varint]
    frame_count x ( [payload length varint][frame payload bytes] )

Frame payloads are opaque at this layer (the relay forwards them without
decoding).  :class:`GroupStreamParser` parses the stream in place from
arbitrarily split chunks, holds only an incomplete tail, counts the frames
each chunk completed and records the byte span it completed; it copies a
frame payload out only for a caller that asks for the payloads.  A chunk
that carries many frames of one length, such as the whole-group burst the
relay sends a filtered viewer, has those frames' length prefixes checked a
column at a time rather than one frame at a time.
:class:`ControlStreamDecoder` reassembles back-to-back control messages.
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

#: The most frames one bulk check of a run of equal-length frames covers,
#: which bounds the work of a check that a short run ends early.
_RUN_WINDOW = 64
#: Each byte value as a one-byte ``bytes``, the argument ``lstrip`` takes.
_BYTES = [bytes((value,)) for value in range(256)]

__all__ = [
    "encode_group_header",
    "encode_frame_chunk",
    "encode_group_chunks",
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
    """One frame's length-prefixed payload."""
    return encode_varint(len(payload)) + payload


def encode_group_chunks(track: str, group: Group) -> list[bytes]:
    """The group's stream as its publisher sends it: one chunk per frame,
    with the group header in front of frame 0's."""
    chunks = [encode_frame_chunk(encode_frame_payload(frame)) for frame in group.frames]
    chunks[0] = encode_group_header(track, group.group_id, len(chunks)) + chunks[0]
    return chunks


class GroupStreamParser:
    """Incremental parser for one group data stream.

    ``feed`` returns how many frames that chunk completed, appends their
    payloads to ``payloads`` when a list is given, and sets ``span`` to the
    stream bytes it completed: the header once it is whole, then each
    completed frame, exactly as received.  Raises :class:`IncompleteError`
    if the stream finishes mid-structure and :class:`MalformedError` on a
    header declaring no frames or on bytes beyond the declared frame count.

    The parser works in place: with nothing held, a chunk is parsed by
    offset where it lies, each collected payload is one slice of it, and a
    chunk that ends on a frame boundary is its own ``span``.  Only an
    incomplete tail is held, and the next chunk is appended to it, so a
    group costs time linear in its size however its stream is split.

    Runs of equal-length frames are checked in bulk.  When a decoded frame
    has the length of the one before it, the next frame begins with its
    length prefix (all of a 1- or 2-byte prefix is compared) and the frame
    after that begins with the same first byte, ``feed`` counts how many of
    the next frames repeat the prefix, up to ``_RUN_WINDOW`` frames that
    fit in the chunk and are still wanted.  For each prefix byte it slices
    that byte of every frame in the window as one column
    (``buf[end + j : stop : stride]``), and ``lstrip`` counts the column's
    leading matches.  The run, the least of those counts, is consumed
    whole: each of its frames begins with the same prefix bytes and so has
    the same length, and every prefix byte is still compared.  At most one
    such check follows each frame decoded on its own, and a check reads at
    most ``_RUN_WINDOW`` bytes per prefix byte, so a chunk still costs time
    linear in its size whatever its lengths; without the window, a chunk of
    short runs would be rescanned to its end at every run, in quadratic
    time.  A chunk of one frame pays one assignment and one comparison for
    all this.
    """

    def __init__(self) -> None:
        self._tail = bytearray()
        self._wanted = 0  # frames still to come once the header is parsed
        self.track: str | None = None
        self.group_id: int | None = None
        self.frame_count: int | None = None
        self.complete = False
        self.span = b""

    def feed(self, data: bytes, fin: bool = False, payloads: list | None = None) -> int:
        completed = 0
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
                wanted = self._wanted
                last = -1  # the length of the frame before, in this chunk
                while pos < size and wanted:
                    # Lengths under 16 KiB (1- and 2-byte varints) inline:
                    # a decode_varint call per frame made feed 32% slower on
                    # 264-byte per-frame chunks and 60% on one 8 KB burst
                    # (16x16 frames, interleaved in one process, CPython 3.11).
                    # A burst's runs of equal-length frames skip this decode
                    # and are checked in bulk below.
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
                    wanted -= 1
                    if end < size:
                        # A run of equal-length frames may follow (see the
                        # class docstring); 2 * end - pos is where the frame
                        # after next begins if the next has this length.  A
                        # nested scope here would make the loop's locals
                        # cell variables and every feed slower.
                        if (
                            length == last
                            and 2 * end - pos < size
                            and buf[2 * end - pos] == first
                            and buf[end] == first
                            and (first < 0x40 or buf[end + 1] == buf[pos + 1])
                        ):
                            width = start - pos
                            stride = end - pos
                            run = (size - end) // stride
                            if run > wanted:
                                run = wanted
                            if run > _RUN_WINDOW:
                                run = _RUN_WINDOW
                            stop = end + run * stride
                            # From the last prefix byte, the likeliest to differ.
                            j = width
                            while j and run:
                                j -= 1
                                column = buf[end + j : stop : stride]
                                run -= len(column.lstrip(_BYTES[buf[pos + j]]))
                                stop = end + run * stride
                            if payloads is not None:
                                for frame in range(end, stop, stride):
                                    payload = buf[frame + width : frame + stride]
                                    payloads.append(payload if buf is data else bytes(payload))
                            wanted -= run
                            end = stop
                        last = length
                    pos = end
                completed = self._wanted - wanted
                self._wanted = wanted
                self.complete = not wanted
            if buf is tail:
                self.span = bytes(tail[:pos])
                del tail[:pos]
            elif pos < size:
                self.span = data[:pos]
                tail += memoryview(data)[pos:]
            else:
                self.span = data
            if self.complete and pos < size:
                raise MalformedError("data after the declared final frame")
        if fin and not self.complete:
            raise IncompleteError("stream ended before the declared final frame")
        return completed

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
        self.frame_count = self._wanted = frame_count
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
