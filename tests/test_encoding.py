"""Codec tests: independent oracles first, then frozen vectors.

The oracle implementations below share no code or structure with the
package: the RLP oracle is a two-branch recursive function over plain
length arithmetic, and the HP oracle works on hex character strings.
Every frozen vector in this file was produced by an oracle and
cross-checked against the published encodings before freezing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from sschain.encoding import (
    CodecError,
    RlpDecodeError,
    hash256,
    hex_encode,
    hp_decode,
    hp_encode,
    int_from_bytes,
    int_to_bytes,
    rlp_decode,
    rlp_encode,
)

HEX_CHARS = "0123456789abcdef"


def oracle_rlp(item) -> bytes:
    """Independent RLP encoder: bare length-prefix arithmetic."""
    if isinstance(item, (bytes, bytearray)):
        data = bytes(item)
        if len(data) == 1 and data[0] <= 0x7F:
            return data
        return _oracle_prefix(len(data), 0x80) + data
    payload = b"".join(oracle_rlp(sub) for sub in item)
    return _oracle_prefix(len(payload), 0xC0) + payload


def _oracle_prefix(length: int, base: int) -> bytes:
    if length <= 55:
        return bytes([base + length])
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([base + 55 + len(length_bytes)]) + length_bytes


def oracle_hp(nibbles: bytes, is_leaf: bool) -> bytes:
    """Independent hex-prefix encoder working on hex character text."""
    flag = (2 if is_leaf else 0) + (len(nibbles) % 2)
    text = "".join(HEX_CHARS[n] for n in nibbles)
    if len(nibbles) % 2 == 0:
        text = "0" + text
    return bytes.fromhex(HEX_CHARS[flag] + text)


LOREM = b"Lorem ipsum dolor sit amet, consectetur adipisicing elit"

# (item, expected hex) pairs; the byte-string and list cases follow the
# published reference vectors, the rest were frozen from oracle_rlp.
RLP_VECTORS = [
    (b"", "80"),
    (b"\x00", "00"),
    (b"\x01", "01"),
    (b"\x0f", "0f"),
    (b"\x7f", "7f"),
    (b"\x80", "8180"),
    (b"\xff", "81ff"),
    (b"dog", "83646f67"),
    (b"\x04\x00", "820400"),
    (b"abcdefghijklmnopqrstuvwxyz" * 2 + b"abc", "b7" + ("6162636465666768696a6b6c6d6e6f707172737475767778797a" * 2 + "616263")),
    (LOREM, "b838" + LOREM.hex()),
    (b"A" * 1024, "b90400" + "41" * 1024),
    ([], "c0"),
    ([b"cat", b"dog"], "c88363617483646f67"),
    ([b""], "c180"),
    ([[], [[]], [[], [[]]]], "c7c0c1c0c3c0c1c0"),
    ([b"zw", [b"\x04"], b"\x01"], "c6827a77c10401"),
    ([b"key", b"value"], "ca836b65798576616c7565"),
    ([b"x" * 30, b"y" * 30], "f83e" + "9e" + "78" * 30 + "9e" + "79" * 30),
    ([LOREM], "f83a" + "b838" + LOREM.hex()),
    ([b"\x00", b"\x7f", b"\x80"], "c4007f8180"),
    ([[b"nested", [b"deep"]]], "cecd866e6573746564c58464656570"),
]

# (nibbles, is_leaf, expected hex); frozen from oracle_hp.
HP_VECTORS = [
    (b"", False, "00"),
    (b"", True, "20"),
    (b"\x01", False, "11"),
    (b"\x01", True, "31"),
    (b"\x00", False, "10"),
    (b"\x01\x02\x03\x04\x05", False, "112345"),
    (b"\x00\x01\x02\x03\x04\x05", False, "00012345"),
    (b"\x00\x0f\x01\x0c\x0b\x08", True, "200f1cb8"),
    (b"\x0f\x01\x0c\x0b\x08", True, "3f1cb8"),
    (b"\x05\x00\x06", True, "3506"),
    (b"\x0a\x0b\x0c", False, "1abc"),
    (b"\x09\x09", True, "2099"),
]

SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"6", "e7f6c011776e8db7cd330b54174fd76f7d0216b612387a5ffcfb81e6f0919683"),
    (b"13.0", "be293da5be477078cbeee7feef7b384f879f730ef26f51a674ce59f6ee0251d4"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
]


class TestHash256:
    @pytest.mark.parametrize("data,expected", SHA256_VECTORS, ids=repr)
    def test_known_answers(self, data: bytes, expected: str) -> None:
        assert hash256(data).hex() == expected

    def test_length(self) -> None:
        assert len(hash256(b"anything")) == 32


class TestHexCodec:
    def test_empty(self) -> None:
        assert hex_encode(b"") == b""

    def test_splits_high_then_low(self) -> None:
        assert hex_encode(b"\x12\xab") == bytes([1, 2, 10, 11])

    def test_out_of_range_nibble_rejected(self) -> None:
        with pytest.raises(CodecError):
            hp_encode(bytes([1, 16]), False)

    @given(st.binary(max_size=64))
    def test_round_trip(self, data: bytes) -> None:
        expanded = bytes(n for byte in data for n in (byte >> 4, byte & 0xF))
        assert hex_encode(data) == expanded


class TestHpCodec:
    @pytest.mark.parametrize("nibbles,is_leaf,expected", HP_VECTORS)
    def test_frozen_vectors(self, nibbles: bytes, is_leaf: bool, expected: str) -> None:
        assert hp_encode(nibbles, is_leaf).hex() == expected

    @pytest.mark.parametrize("nibbles,is_leaf,expected", HP_VECTORS)
    def test_matches_oracle(self, nibbles: bytes, is_leaf: bool, expected: str) -> None:
        assert hp_encode(nibbles, is_leaf) == oracle_hp(nibbles, is_leaf)

    @pytest.mark.parametrize("nibbles,is_leaf,expected", HP_VECTORS)
    def test_decode_frozen_vectors(
        self, nibbles: bytes, is_leaf: bool, expected: str
    ) -> None:
        assert hp_decode(bytes.fromhex(expected)) == (nibbles, is_leaf)

    def test_decode_rejects_empty(self) -> None:
        with pytest.raises(CodecError):
            hp_decode(b"")

    def test_decode_rejects_bad_flag(self) -> None:
        with pytest.raises(CodecError):
            hp_decode(b"\x40")

    def test_decode_rejects_nonzero_pad(self) -> None:
        # even path must pad with a zero nibble
        with pytest.raises(CodecError):
            hp_decode(b"\x05\x12")

    def test_encode_rejects_bad_nibble(self) -> None:
        with pytest.raises(CodecError):
            hp_encode(bytes([16]), True)

    @given(
        st.binary(max_size=40).map(lambda b: bytes(x % 16 for x in b)),
        st.booleans(),
    )
    def test_round_trip_matches_oracle(self, nibbles: bytes, is_leaf: bool) -> None:
        packed = hp_encode(nibbles, is_leaf)
        assert packed == oracle_hp(nibbles, is_leaf)
        assert hp_decode(packed) == (nibbles, is_leaf)

    @given(
        st.binary(max_size=40).map(lambda b: bytes(x % 16 for x in b)),
        st.booleans(),
    )
    def test_packed_length(self, nibbles: bytes, is_leaf: bool) -> None:
        assert len(hp_encode(nibbles, is_leaf)) == 1 + len(nibbles) // 2


def rlp_items(max_depth: int = 3):
    leaves = st.binary(max_size=80)
    return st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=6), max_leaves=12
    )


class TestRlpEncode:
    @pytest.mark.parametrize("item,expected", RLP_VECTORS, ids=range(len(RLP_VECTORS)))
    def test_frozen_vectors(self, item, expected: str) -> None:
        assert rlp_encode(item).hex() == expected

    @pytest.mark.parametrize("item,expected", RLP_VECTORS, ids=range(len(RLP_VECTORS)))
    def test_matches_oracle(self, item, expected: str) -> None:
        assert rlp_encode(item) == oracle_rlp(item)

    @pytest.mark.parametrize("byte_val", range(0x00, 0x80))
    def test_single_bytes_self_encode(self, byte_val: int) -> None:
        assert rlp_encode(bytes([byte_val])) == bytes([byte_val])

    def test_accepts_bytearray_and_tuple(self) -> None:
        assert rlp_encode(bytearray(b"dog")) == rlp_encode(b"dog")
        assert rlp_encode((b"cat", b"dog")) == rlp_encode([b"cat", b"dog"])

    def test_rejects_str_and_int(self) -> None:
        with pytest.raises(TypeError):
            rlp_encode("dog")
        with pytest.raises(TypeError):
            rlp_encode(7)


class TestRlpDecode:
    @pytest.mark.parametrize("item,expected", RLP_VECTORS, ids=range(len(RLP_VECTORS)))
    def test_frozen_vectors(self, item, expected: str) -> None:
        decoded = rlp_decode(bytes.fromhex(expected))
        assert decoded == _as_plain(item)

    @pytest.mark.parametrize(
        "bad",
        [
            b"",
            b"\x81\x05",  # single byte below 0x80 must self-encode
            b"\xb8\x05hello",  # long form for a short payload
            b"\x83do",  # truncated string
            b"\xc1",  # truncated list
            b"\x83dog\x00",  # trailing byte
            b"\x80\x80",  # trailing item
            b"\xb9\x00\x38" + b"x" * 56,  # leading zero in length
            b"\xf8\x01\x80",  # long list form for short payload
            b"\xc3\x83do",  # list item overruns payload
        ],
        ids=[
            "empty",
            "noncanonical-single",
            "long-form-short-string",
            "truncated-string",
            "truncated-list",
            "trailing-byte",
            "trailing-item",
            "leading-zero-length",
            "long-form-short-list",
            "item-overrun",
        ],
    )
    def test_rejects_noncanonical(self, bad: bytes) -> None:
        with pytest.raises(RlpDecodeError):
            rlp_decode(bad)

    @given(rlp_items())
    def test_round_trip(self, item) -> None:
        encoded = rlp_encode(item)
        assert encoded == oracle_rlp(item)
        assert rlp_decode(encoded) == _as_plain(item)

    @given(st.binary(min_size=56, max_size=300))
    def test_long_strings_round_trip(self, data: bytes) -> None:
        assert rlp_decode(rlp_encode(data)) == data


class TestIntBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, ""), (1, "01"), (127, "7f"), (256, "0100"), (1024, "0400")],
    )
    def test_minimal_forms(self, value: int, expected: str) -> None:
        assert int_to_bytes(value).hex() == expected
        assert int_from_bytes(bytes.fromhex(expected)) == value

    def test_rejects_negative(self) -> None:
        with pytest.raises(CodecError):
            int_to_bytes(-1)

    def test_rejects_leading_zero(self) -> None:
        with pytest.raises(CodecError):
            int_from_bytes(b"\x00\x01")

    @given(st.integers(min_value=0, max_value=2**128))
    def test_round_trip(self, value: int) -> None:
        assert int_from_bytes(int_to_bytes(value)) == value


def _as_plain(item):
    """Decode results use bytes and list; normalize tuples/bytearrays."""
    if isinstance(item, (bytes, bytearray)):
        return bytes(item)
    return [_as_plain(sub) for sub in item]
