"""Wire codec tests: varints, category sets, parameters, control messages.

Expected byte vectors are hand-derived from the layout rules in
``moqgate.wire`` and frozen here so regressions are caught byte-for-byte.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moqgate import wire
from moqgate.wire import (
    ANALYZE_PARAM,
    FILTER_PARAM,
    Approve,
    Category,
    DuplicateCategoryError,
    IncompleteError,
    LengthMismatchError,
    MalformedError,
    Parameter,
    Subscribe,
    UnknownMessageTypeError,
    WireError,
    analyze_parameter,
    decode_category_set,
    decode_message,
    decode_varint,
    encode_category_set,
    encode_message,
    encode_varint,
    filter_parameter,
    parameter_categories,
)

# Hand-derived varint vectors.  Column 2 is the big-endian encoding with the
# 2-bit length prefix folded into the first byte.
VARINT_VECTORS = [
    (0, b"\x00"),
    (1, b"\x01"),
    (63, b"\x3f"),                                # largest 1-byte value
    (64, b"\x40\x40"),                            # smallest 2-byte value
    (65, b"\x40\x41"),
    (16383, b"\x7f\xff"),                         # largest 2-byte value
    (16384, b"\x80\x00\x40\x00"),                 # smallest 4-byte value
    ((1 << 30) - 1, b"\xbf\xff\xff\xff"),
    (1 << 30, b"\xc0\x00\x00\x00\x40\x00\x00\x00"),
    ((1 << 62) - 1, b"\xff" * 8),                 # largest encodable value
]

# APPROVE{subscribe_id=1, group_id=7, categories=[STROBE]}:
#   type tag 0x41 -> 40 41 (2-byte varint)
#   Length counts itself plus the body: 1 + 5 = 6
#   body: sub=01, group=07, set-length=02, count=01, STROBE=01
APPROVE_GOLDEN = bytes([0x40, 0x41, 0x06, 0x01, 0x07, 0x02, 0x01, 0x01])

# Category set [SMOKING, ALCOHOL]: inner bytes = count(02) + 02 + 03,
# prefixed by their length (03).
FILTER_SET_GOLDEN = bytes([0x03, 0x02, 0x02, 0x03])

# Subscribe{id=5, track="cam", priority=1, params=[ANALYZE [STROBE]]}:
#   body: 05 | 03 "cam" | 01 | 01 | param(type=05 len=03 payload=02 01 01)
#   body is 12 bytes -> Length = 13 (0x0d)
SUBSCRIBE_GOLDEN = bytes.fromhex("030d050363616d010105030201 01".replace(" ", ""))


class TestVarint:
    @pytest.mark.parametrize("value,encoded", VARINT_VECTORS, ids=lambda v: repr(v))
    def test_encode_vectors(self, value, encoded):
        if isinstance(value, int):
            assert encode_varint(value) == encoded

    @pytest.mark.parametrize("value,encoded", VARINT_VECTORS, ids=lambda v: repr(v))
    def test_decode_vectors(self, value, encoded):
        if isinstance(value, int):
            assert decode_varint(encoded) == (value, len(encoded))

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode_varint(1 << 62)
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_decode_empty_is_incomplete(self):
        with pytest.raises(IncompleteError):
            decode_varint(b"")

    def test_decode_truncated_is_incomplete(self):
        # First byte announces a 2-byte encoding but the input ends.
        with pytest.raises(IncompleteError):
            decode_varint(b"\x40")
        with pytest.raises(IncompleteError):
            decode_varint(b"\xc0\x00\x00")
        # The same 2-byte cut at a non-zero offset.
        for data in (b"\x00\x40", b"\x00\x7f"):
            with pytest.raises(IncompleteError, match="announces 2 bytes, only 1 present"):
                decode_varint(data, 1)

    def test_decode_accepts_non_minimal_forms(self):
        assert decode_varint(b"\x40\x01") == (1, 2)
        assert decode_varint(b"\x80\x00\x00\x01") == (1, 4)
        assert decode_varint(b"\xc0" + b"\x00" * 6 + b"\x01") == (1, 8)

    def test_decode_respects_offset(self):
        assert decode_varint(b"\xff\x40\x41", offset=1) == (65, 2)

    @given(st.integers(min_value=0, max_value=(1 << 62) - 1))
    def test_round_trip(self, value):
        encoded = encode_varint(value)
        assert decode_varint(encoded) == (value, len(encoded))

    @given(st.integers(min_value=0, max_value=(1 << 62) - 1))
    def test_minimal_length(self, value):
        n = len(encode_varint(value))
        expected = 1 if value < 1 << 6 else 2 if value < 1 << 14 else 4 if value < 1 << 30 else 8
        assert n == expected


class TestCategorySet:
    def test_golden_filter_set(self):
        assert encode_category_set([Category.SMOKING, Category.ALCOHOL]) == FILTER_SET_GOLDEN
        cats, consumed = decode_category_set(FILTER_SET_GOLDEN)
        assert cats == (Category.SMOKING, Category.ALCOHOL)
        assert consumed == len(FILTER_SET_GOLDEN)

    def test_empty_set_is_encodable(self):
        encoded = encode_category_set([])
        assert encoded == bytes([0x01, 0x00])
        assert decode_category_set(encoded) == ((), 2)

    def test_order_preserved(self):
        encoded = encode_category_set([Category.ALCOHOL, Category.STROBE])
        cats, _ = decode_category_set(encoded)
        assert cats == (Category.ALCOHOL, Category.STROBE)

    def test_codes_decode_and_resolve_as_plain_ints(self):
        cats, _ = decode_category_set(FILTER_SET_GOLDEN)
        assert [type(c) for c in cats] == [int, int]
        assert type(wire.category_code("smoking")) is int
        assert wire.CATEGORIES == {1, 2, 3} == set(Category)

    def test_code_out_of_range_and_unknown_code_name(self):
        with pytest.raises(ValueError, match="category code out of range: -1"):
            wire.category_code(-1)
        assert wire.category_name(0x7E) == "0x7e"

    def test_unknown_codes_round_trip(self):
        encoded = encode_category_set([0x7E, 0x1234])
        cats, _ = decode_category_set(encoded)
        assert cats == (0x7E, 0x1234)

    def test_duplicates_rejected_on_encode(self):
        with pytest.raises(DuplicateCategoryError):
            encode_category_set([1, 1])

    def test_duplicates_rejected_on_decode(self):
        # set-length=3, count=2, STROBE, STROBE
        with pytest.raises(DuplicateCategoryError):
            decode_category_set(bytes([0x03, 0x02, 0x01, 0x01]))

    def test_inner_length_mismatch_rejected(self):
        # Declares 2 inner bytes but count=2 needs three (count + 2 codes).
        with pytest.raises(LengthMismatchError):
            decode_category_set(bytes([0x02, 0x02, 0x01, 0x02]))
        # Declares 3 inner bytes but the count ends the content after 2.
        with pytest.raises(LengthMismatchError):
            decode_category_set(bytes([0x03, 0x01, 0x01, 0x00]))
        # Declares 2 inner bytes but the one code starts a 2-byte varint.
        with pytest.raises(LengthMismatchError):
            decode_category_set(bytes([0x02, 0x01, 0x40, 0x01]))

    def test_truncated_set_is_incomplete(self):
        with pytest.raises(IncompleteError):
            decode_category_set(bytes([0x03, 0x02, 0x01]))


class TestParameters:
    def test_analyze_filter_constructors(self):
        p = filter_parameter([Category.SMOKING, Category.ALCOHOL])
        assert p.param_type == FILTER_PARAM
        assert p.payload == FILTER_SET_GOLDEN
        a = analyze_parameter([Category.STROBE])
        assert a.param_type == ANALYZE_PARAM
        assert parameter_categories(a) == (Category.STROBE,)

    def test_parameter_categories_rejects_trailing_bytes(self):
        bad = Parameter(ANALYZE_PARAM, FILTER_SET_GOLDEN + b"\x00")
        with pytest.raises(WireError):
            parameter_categories(bad)

    def test_unknown_parameter_round_trips_opaquely(self):
        msg = Subscribe(1, "t", 0, (Parameter(0x7F, b"\x01\x02\x03"),))
        decoded, _ = decode_message(encode_message(msg))
        assert decoded.parameters == (Parameter(0x7F, b"\x01\x02\x03"),)


class TestMessages:
    def test_approve_golden_vector(self):
        msg = Approve(subscribe_id=1, group_id=7, categories=(Category.STROBE,))
        assert encode_message(msg) == APPROVE_GOLDEN

    def test_approve_golden_decodes(self):
        msg, consumed = decode_message(APPROVE_GOLDEN)
        assert msg == Approve(1, 7, (Category.STROBE,))
        assert consumed == len(APPROVE_GOLDEN)

    def test_subscribe_golden_vector(self):
        msg = Subscribe(5, "cam", 1, (analyze_parameter([Category.STROBE]),))
        assert encode_message(msg) == SUBSCRIBE_GOLDEN
        assert decode_message(SUBSCRIBE_GOLDEN) == (msg, len(SUBSCRIBE_GOLDEN))

    @pytest.mark.parametrize("tag", [0x02, 0x04], ids=["0x02", "0x04"])
    def test_subscribe_ok_tag_is_unknown(self, tag):
        # MoQT's SUBSCRIBE_UPDATE (0x02) and SUBSCRIBE_OK (0x04) with id 1:
        # no message of this codec has either tag.
        with pytest.raises(UnknownMessageTypeError) as exc:
            decode_message(bytes([tag, 0x02, 0x01]))
        assert exc.value.type_tag == tag

    def test_parameter_payload_past_the_message_is_mismatch(self):
        # The parameter declares 5 payload bytes where the message holds 2.
        good = encode_message(Subscribe(1, "t", 0, (Parameter(0x20, b"ab"),)))
        assert good.endswith(b"\x20\x02ab")
        with pytest.raises(LengthMismatchError, match="runs past its declared length"):
            decode_message(good[:-3] + b"\x05ab")

    def test_unknown_message_type_carries_tag(self):
        data = encode_varint(0x55) + bytes([0x02, 0x01])
        with pytest.raises(UnknownMessageTypeError) as exc:
            decode_message(data)
        assert exc.value.type_tag == 0x55

    def test_length_off_by_one_is_mismatch(self):
        shorter = bytearray(APPROVE_GOLDEN)
        shorter[2] = 0x05
        with pytest.raises(LengthMismatchError):
            decode_message(bytes(shorter))
        # Inflated length with the declared bytes actually present: the body
        # structure finishes early, which is detectable as a mismatch.
        longer = bytearray(APPROVE_GOLDEN) + b"\x00"
        longer[2] = 0x07
        with pytest.raises(LengthMismatchError):
            decode_message(bytes(longer))

    def test_inflated_length_at_end_of_buffer_is_incomplete(self):
        # With no bytes after the declared-but-absent body, the decoder cannot
        # tell an oversized Length from a message still in flight; stream
        # readers rely on the incomplete signal to keep accumulating.
        longer = bytearray(APPROVE_GOLDEN)
        longer[2] = 0x07
        with pytest.raises(IncompleteError):
            decode_message(bytes(longer))

    @pytest.mark.parametrize("declared", [65_536, (1 << 30) - 1])
    def test_length_above_the_limit_is_refused_once_read(self, declared):
        # A SUBSCRIBE header alone: none of the declared bytes are sent.
        header = encode_varint(0x03) + encode_varint(declared)
        with pytest.raises(MalformedError, match=f"length {declared} exceeds 65535"):
            decode_message(header)

    def test_largest_message_round_trips_and_one_byte_more_is_refused(self):
        # SUBSCRIBE Length = 4 (itself) + sub 1 + name length 4 + name
        # + priority 1 + param count 1, so a 65,524-byte name fills 65,535.
        largest = Subscribe(1, "a" * 65_524)
        encoded = encode_message(largest)
        assert decode_message(encoded) == (largest, len(encoded))
        with pytest.raises(ValueError, match="too large"):
            encode_message(Subscribe(1, "a" * 65_525))

    def test_truncated_body_is_incomplete(self):
        with pytest.raises(IncompleteError):
            decode_message(APPROVE_GOLDEN[:-1])
        with pytest.raises(IncompleteError):
            decode_message(APPROVE_GOLDEN[:2])

    def test_duplicate_approve_categories_rejected_both_ways(self):
        with pytest.raises(DuplicateCategoryError):
            encode_message(Approve(1, 1, (1, 1)))
        # type 0x41, Length=7 (self + 6), sub, group, set-len=3, count=2, 1, 1
        raw = bytes([0x40, 0x41, 0x07, 0x01, 0x01, 0x03, 0x02, 0x01, 0x01])
        with pytest.raises(DuplicateCategoryError):
            decode_message(raw)

    def test_back_to_back_messages_in_one_buffer(self):
        buf = APPROVE_GOLDEN + SUBSCRIBE_GOLDEN
        first, used = decode_message(buf)
        second, used2 = decode_message(buf, offset=used)
        assert first == Approve(1, 7, (Category.STROBE,))
        assert second == Subscribe(5, "cam", 1, (analyze_parameter([Category.STROBE]),))
        assert used + used2 == len(buf)

    def test_encoding_a_non_message_is_type_error(self):
        with pytest.raises(TypeError, match="not a control message"):
            encode_message(b"\x03")

    def test_bad_utf8_track_name_is_wire_error(self):
        good = encode_message(Subscribe(1, "ab", 0, ()))
        # Track name is at offset 4 with length 2; corrupt it with a lone
        # continuation byte.
        bad = bytearray(good)
        bad[4] = 0xFF
        with pytest.raises(WireError):
            decode_message(bytes(bad))


# --- randomized round-trip and totality ------------------------------------

category_lists = st.lists(
    st.integers(min_value=0, max_value=(1 << 20)), max_size=6, unique=True
).map(tuple)

parameters_strategy = st.lists(
    st.one_of(
        st.builds(
            Parameter,
            st.integers(min_value=0, max_value=200),
            st.binary(max_size=20),
        ),
        category_lists.map(analyze_parameter),
        category_lists.map(filter_parameter),
    ),
    max_size=4,
).map(tuple)

messages_strategy = st.one_of(
    st.builds(
        Subscribe,
        st.integers(min_value=0, max_value=(1 << 62) - 1),
        st.text(max_size=12),
        st.integers(min_value=0, max_value=255),
        parameters_strategy,
    ),
    st.builds(
        Approve,
        st.integers(min_value=0, max_value=(1 << 62) - 1),
        st.integers(min_value=0, max_value=(1 << 62) - 1),
        category_lists,
    ),
)


class TestProperties:
    @given(messages_strategy)
    def test_message_round_trip(self, msg):
        encoded = encode_message(msg)
        decoded, consumed = decode_message(encoded)
        assert decoded == msg
        assert consumed == len(encoded)

    @given(st.binary(max_size=64))
    @settings(max_examples=400)
    def test_decoder_total_on_garbage(self, data):
        try:
            decode_message(data)
        except WireError:
            pass  # structured rejection is the only acceptable failure

    @given(messages_strategy, st.binary(min_size=1, max_size=8))
    def test_decoder_ignores_trailing_bytes(self, msg, trailing):
        encoded = encode_message(msg)
        decoded, consumed = decode_message(encoded + trailing)
        assert decoded == msg
        assert consumed == len(encoded)
