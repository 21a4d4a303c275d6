"""Variable-length integers and the control-message codec.

Everything on the control channel is built from QUIC-style varints: a 2-bit
length prefix in the first byte selects a 1, 2, 4 or 8 byte big-endian
encoding for values below 2^6, 2^14, 2^30 and 2^62 respectively.  The encoder
always emits the shortest form; the decoder also accepts non-minimal forms.

Message layouts (every integer field is a varint unless noted):

    SUBSCRIBE      0x03 | Length | Subscribe ID | Track Name Length |
                   Track Name (UTF-8 bytes) | Priority | Param Count | Params
    APPROVE        0x41 | Length | Subscribe ID | Group ID | Category Set

    Parameter      Param Type | Payload Length | Payload bytes
    Category Set   Set Length | Category Count | Category Type ...

``Length`` counts every byte that follows the message type tag, *including
the Length field's own encoding*, and is at most ``MAX_MESSAGE_LENGTH``
(65,535: recent MoQ Transport drafts carry it in 16 bits), so a peer cannot
make a reader hold more for one message.  ``Set Length`` counts only the
bytes after it (the count plus the category codes), and ``Payload Length``
counts only the payload bytes.

Decode errors are split into two families so stream readers can tell "wait
for more bytes" apart from "the peer sent garbage": :class:`IncompleteError`
means the buffer ended before the framing said it should, every other
:class:`WireError` subclass means the bytes themselves are invalid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable

VARINT_MAX = (1 << 62) - 1
MAX_MESSAGE_LENGTH = 0xFFFF

SUBSCRIBE_TYPE = 0x03
APPROVE_TYPE = 0x41

ANALYZE_PARAM = 0x05
FILTER_PARAM = 0x06


class WireError(ValueError):
    """Base class for everything the codec can reject."""


class IncompleteError(WireError):
    """The input ended before the announced structure did."""


class LengthMismatchError(WireError):
    """A length field disagrees with the bytes that follow it."""


class DuplicateCategoryError(WireError):
    """A category set names the same category twice."""


class MalformedError(WireError):
    """Structurally broken content, e.g. invalid UTF-8 in a track name."""


class UnknownMessageTypeError(WireError):
    """The message type tag is not part of the supported set."""

    def __init__(self, type_tag: int):
        super().__init__(f"unknown message type 0x{type_tag:02x}")
        self.type_tag = type_tag


class Category(IntEnum):
    """Well-known content categories: codes are plain ints; `Category`
    names the known ones."""

    STROBE = 0x01
    SMOKING = 0x02
    ALCOHOL = 0x03


#: The known category codes: a relay refuses a role that names another,
#: and so does the scenario loader.
CATEGORIES = frozenset(category.value for category in Category)


def category_code(value: int | str) -> int:
    """Resolve a category given either its numeric code or its name."""
    if isinstance(value, str):
        try:
            return Category[value.upper()].value
        except KeyError:
            raise ValueError(f"unknown category name {value!r}") from None
    if value < 0 or value > VARINT_MAX:
        raise ValueError(f"category code out of range: {value}")
    return value


def category_name(code: int) -> str:
    try:
        return Category(code).name
    except ValueError:
        return f"0x{code:02x}"


# --- varints ----------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Encode ``value`` in the shortest of the four varint forms."""
    if value < 0 or value > VARINT_MAX:
        raise ValueError(f"varint out of range [0, 2^62): {value}")
    if value < 1 << 6:
        return bytes((value,))
    if value < 1 << 14:
        return (value | 0x4000).to_bytes(2, "big")
    if value < 1 << 30:
        return (value | 0x8000_0000).to_bytes(4, "big")
    return (value | (0b11 << 62)).to_bytes(8, "big")


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one varint at ``offset``; returns ``(value, bytes consumed)``.

    The 1- and 2-byte forms (values under 16,384: frame indices, capture
    times under 16.4 s, most lengths) are read inline; the 4- and 8-byte
    forms and a truncated varint take the general path.
    """
    if offset >= len(data):
        raise IncompleteError("varint: empty input")
    first = data[offset]
    if first < 0x40:
        return first, 1
    if first < 0x80 and offset + 1 < len(data):
        return (first & 0x3F) << 8 | data[offset + 1], 2
    size = 1 << (first >> 6)
    if len(data) - offset < size:
        raise IncompleteError(
            f"varint: first byte announces {size} bytes, only {len(data) - offset} present"
        )
    raw = int.from_bytes(data[offset : offset + size], "big")
    return raw & ((1 << (8 * size - 2)) - 1), size


# --- category sets ----------------------------------------------------------


def _check_duplicates(categories: tuple[int, ...]) -> None:
    if len(set(categories)) != len(categories):
        raise DuplicateCategoryError(f"duplicate categories in {list(categories)}")


def encode_category_set(categories: Iterable[int]) -> bytes:
    """Encode an ordered category set with its inner length prefix."""
    cats = tuple(categories)
    _check_duplicates(cats)
    inner = encode_varint(len(cats)) + b"".join(encode_varint(c) for c in cats)
    return encode_varint(len(inner)) + inner


def decode_category_set(data: bytes, offset: int = 0) -> tuple[tuple[int, ...], int]:
    set_len, n = decode_varint(data, offset)
    pos = offset + n
    if len(data) - pos < set_len:
        raise IncompleteError(
            f"category set: declares {set_len} bytes, only {len(data) - pos} present"
        )
    end = pos + set_len
    count, pos = _varint_within(data, pos, end, "category count")
    cats = []
    for _ in range(count):
        code, pos = _varint_within(data, pos, end, "category type")
        cats.append(code)
    if pos != end:
        raise LengthMismatchError(
            f"category set length {set_len} disagrees with content ({pos - offset - n} bytes used)"
        )
    result = tuple(cats)
    _check_duplicates(result)
    return result, end - offset


def _varint_within(data: bytes, pos: int, end: int, what: str) -> tuple[int, int]:
    """Decode a varint that must fit before ``end`` (declared-length window)."""
    if pos >= end:
        raise LengthMismatchError(f"{what}: runs past its declared length")
    size = 1 << (data[pos] >> 6)
    if pos + size > end:
        raise LengthMismatchError(f"{what}: runs past its declared length")
    value, n = decode_varint(data, pos)
    return value, pos + n


# --- parameters -------------------------------------------------------------


@dataclass(frozen=True)
class Parameter:
    """A (type, payload) pair; unknown types are carried opaquely."""

    param_type: int
    payload: bytes = b""


def analyze_parameter(categories: Iterable[int]) -> Parameter:
    return Parameter(ANALYZE_PARAM, encode_category_set(categories))


def filter_parameter(categories: Iterable[int]) -> Parameter:
    return Parameter(FILTER_PARAM, encode_category_set(categories))


def parameter_categories(param: Parameter) -> tuple[int, ...]:
    """Parse a parameter payload as a category set (for ANALYZE / FILTER)."""
    cats, consumed = decode_category_set(param.payload)
    if consumed != len(param.payload):
        raise LengthMismatchError(
            f"parameter payload has {len(param.payload) - consumed} trailing bytes"
        )
    return cats


def _encode_parameter(param: Parameter) -> bytes:
    return (
        encode_varint(param.param_type)
        + encode_varint(len(param.payload))
        + param.payload
    )


def _decode_parameter(data: bytes, pos: int) -> tuple[Parameter, int]:
    ptype, n = decode_varint(data, pos)
    pos += n
    plen, n = decode_varint(data, pos)
    pos += n
    if len(data) - pos < plen:
        raise IncompleteError(
            f"parameter payload: declares {plen} bytes, only {len(data) - pos} present"
        )
    return Parameter(ptype, bytes(data[pos : pos + plen])), pos + plen


# --- control messages -------------------------------------------------------


@dataclass(frozen=True)
class Subscribe:
    subscribe_id: int
    track_name: str
    priority: int = 0
    parameters: tuple[Parameter, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class Approve:
    subscribe_id: int
    group_id: int
    categories: tuple[int, ...] = field(default_factory=tuple)


ControlMessage = Subscribe | Approve


def _encode_body(msg: ControlMessage) -> tuple[int, bytes]:
    if isinstance(msg, Subscribe):
        name = msg.track_name.encode("utf-8")
        body = (
            encode_varint(msg.subscribe_id)
            + encode_varint(len(name))
            + name
            + encode_varint(msg.priority)
            + encode_varint(len(msg.parameters))
            + b"".join(_encode_parameter(p) for p in msg.parameters)
        )
        return SUBSCRIBE_TYPE, body
    if isinstance(msg, Approve):
        cats = tuple(msg.categories)
        return APPROVE_TYPE, (
            encode_varint(msg.subscribe_id)
            + encode_varint(msg.group_id)
            + encode_category_set(cats)
        )
    raise TypeError(f"not a control message: {msg!r}")


def _self_inclusive_length(body_len: int) -> bytes:
    """Encode a Length that covers the body plus its own bytes.

    The smallest varint size whose capacity fits ``body_len + size`` wins;
    the candidate totals grow with the size, so the first fit is minimal.
    A Length above ``MAX_MESSAGE_LENGTH`` is refused.
    """
    for size, limit in ((1, 1 << 6), (2, 1 << 14), (4, MAX_MESSAGE_LENGTH + 1)):
        total = body_len + size
        if total < limit:
            return encode_varint(total)
    raise ValueError(f"message body too large to frame: {body_len} bytes")


def encode_message(msg: ControlMessage) -> bytes:
    type_tag, body = _encode_body(msg)
    return encode_varint(type_tag) + _self_inclusive_length(len(body)) + body


def decode_message(data: bytes, offset: int = 0) -> tuple[ControlMessage, int]:
    """Decode one message at ``offset``; returns ``(message, bytes consumed)``.

    Raises :class:`IncompleteError` when the buffer ends before the declared
    frame does (a stream reader should wait for more bytes), and other
    :class:`WireError` subclasses for invalid content.
    """
    tag, n = decode_varint(data, offset)
    pos = offset + n
    parser = _BODY_PARSERS.get(tag)
    if parser is None:
        raise UnknownMessageTypeError(tag)
    declared, n = decode_varint(data, pos)
    if declared > MAX_MESSAGE_LENGTH:
        raise MalformedError(f"message length {declared} exceeds {MAX_MESSAGE_LENGTH}")
    pos += n
    body_len = declared - n
    if body_len < 0:
        raise LengthMismatchError(
            f"message length {declared} smaller than its own {n}-byte encoding"
        )
    if len(data) - pos < body_len:
        raise IncompleteError(
            f"message body: declares {body_len} bytes, only {len(data) - pos} present"
        )
    try:
        msg, end = parser(data, pos)
    except IncompleteError:
        # The full declared body is present, so running out of bytes means
        # the structure disagrees with the Length field.
        raise LengthMismatchError(
            "message structure runs past its declared length"
        ) from None
    if end - pos != body_len:
        raise LengthMismatchError(
            f"message length {declared} covers {body_len} body bytes "
            f"but the structure uses {end - pos}"
        )
    return msg, end - offset


def _parse_subscribe(data: bytes, pos: int) -> tuple[Subscribe, int]:
    sub_id, n = decode_varint(data, pos)
    pos += n
    name_len, n = decode_varint(data, pos)
    pos += n
    if len(data) - pos < name_len:
        raise IncompleteError(
            f"track name: declares {name_len} bytes, only {len(data) - pos} present"
        )
    try:
        track = bytes(data[pos : pos + name_len]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedError(f"track name is not valid UTF-8: {exc}") from None
    pos += name_len
    priority, n = decode_varint(data, pos)
    pos += n
    count, n = decode_varint(data, pos)
    pos += n
    params = []
    for _ in range(count):
        param, pos = _decode_parameter(data, pos)
        params.append(param)
    return Subscribe(sub_id, track, priority, tuple(params)), pos


def _parse_approve(data: bytes, pos: int) -> tuple[Approve, int]:
    sub_id, n = decode_varint(data, pos)
    pos += n
    group_id, n = decode_varint(data, pos)
    pos += n
    cats, n = decode_category_set(data, pos)
    return Approve(sub_id, group_id, cats), pos + n


_BODY_PARSERS = {
    SUBSCRIBE_TYPE: _parse_subscribe,
    APPROVE_TYPE: _parse_approve,
}
