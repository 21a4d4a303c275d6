"""Stream-level framing for group data and control channels.

A group travels on its own unidirectional stream:

    [track name length varint][track name UTF-8]
    [group id varint][frame count varint]
    frame_count x ( [payload length varint][frame payload bytes] )

Frame payloads are opaque at this layer (the relay forwards them without
decoding); the publisher's chunks are rendered by
:func:`moqgate.media.generate_groups`, one per frame.
:class:`GroupStreamParser` parses the stream in place from arbitrarily
split chunks, holds only an incomplete tail and counts the frames each
chunk completed; for a caller that asks for them it gives each frame as
``(buffer, start, end)``, where the buffer is the very chunk the frame
arrived in, and a copy only for a frame assembled in the held tail.  A
chunk that carries many frames of one length, such as the whole-group
burst the relay sends a filtered viewer, has those frames' length prefixes
checked a column at a time rather than one frame at a time, and a chunk of
one whole frame, the shape of every live chunk after a group's first,
takes a short path.
:class:`ControlStreamDecoder` reassembles back-to-back control messages.
"""

from __future__ import annotations

from .wire import (
    MAX_MESSAGE_LENGTH,
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


class GroupStreamParser:
    """Incremental parser for one group data stream.

    ``feed`` returns how many frames that chunk completed and, when a list
    is given, appends each one's payload to ``frames`` as ``(buffer, start,
    end)``: ``buffer[start:end]`` is the payload.  Raises
    :class:`IncompleteError` if the stream finishes mid-structure and
    :class:`MalformedError` on a header declaring no frames or on bytes
    beyond the declared frame count.

    The parser works in place: with nothing held, a chunk is parsed by
    offset where it lies and each collected frame's buffer is that chunk,
    so no payload byte is copied.  Only an incomplete tail is held, trimmed
    in place, and the next chunk is appended to it, so a group costs time
    linear in its size however its stream is split; a frame completed in
    the tail is collected as a ``bytes`` copy of its payload, at offset 0.

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
    time.

    A chunk of exactly one whole frame with a 1- or 2-byte length prefix,
    on a stream whose header is parsed and that holds no tail, pays for
    none of this: ``feed`` decodes its prefix inline, checks that the frame
    ends where the chunk ends and returns, with the same count, frame,
    fields and errors as the loop, in about half the loop's opcodes.  That
    is every live chunk after a group's first.  Any other
    chunk (one with the header, one that completes a held tail, a burst of
    several frames, a 4- or 8-byte prefix) takes the loop.
    """

    def __init__(self) -> None:
        self._tail = bytearray()
        self._wanted = 0  # frames still to come once the header is parsed
        self.track: str | None = None
        self.group_id: int | None = None
        self.frame_count: int | None = None
        self.complete = False

    def feed(self, data: bytes, fin: bool = False, frames: list | None = None) -> int:
        # The short path (see the class docstring).  Frames are wanted only
        # once the header is parsed and until the last frame.
        wanted = self._wanted
        if wanted and data and not self._tail:
            first = data[0]
            if first < 0x40:
                start = 1
                end = 1 + first
            elif first < 0x80 and len(data) > 1:
                start = 2
                end = 2 + ((first & 0x3F) << 8 | data[1])
            else:
                start = end = 0
            if end == len(data):
                if frames is not None:
                    frames.append((data, start, end))
                wanted -= 1
                self._wanted = wanted
                self.complete = not wanted
                if fin and wanted:
                    raise IncompleteError("stream ended before the declared final frame")
                return 1
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
                    if frames is not None:
                        frames.append(
                            (data, start, end) if buf is data else (bytes(buf[start:end]), 0, length)
                        )
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
                            if frames is not None:
                                for frame in range(end, stop, stride):
                                    at = frame + width
                                    frames.append(
                                        (data, at, at + length)
                                        if buf is data
                                        else (bytes(buf[at : at + length]), 0, length)
                                    )
                            wanted -= run
                            end = stop
                        last = length
                    pos = end
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
        """Parse the header if ``buf`` holds all of it; returns the offset
        just past it, or 0 when more bytes are needed.  A track name longer
        than a SUBSCRIBE can carry is refused as soon as its length is read,
        so a hostile header cannot make the tail grow until ``fin``."""
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


class ControlStreamDecoder:
    """Reassembles complete control messages from a byte stream.

    Like :class:`GroupStreamParser`, each ``feed`` decodes by offset and
    keeps only the undecoded rest, in a ``bytearray`` trimmed in place, so a
    message split into many pieces costs linear time; the codec's Length
    limit (``MAX_MESSAGE_LENGTH``) bounds that rest.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[ControlMessage]:
        buf = self._buffer
        buf += data
        pos = 0
        messages: list[ControlMessage] = []
        while pos < len(buf):
            try:
                message, consumed = decode_message(buf, pos)
            except IncompleteError:
                break
            messages.append(message)
            pos += consumed
        del buf[:pos]
        return messages
