"""Byte-level codecs shared by every other layer.

Four encodings cooperate to turn account addresses and node payloads into
content-addressed storage keys:

* **Raw** — the identity on byte strings. It needs no code; it is listed
  here only so the family is complete.
* **Hex** — splits each byte into two 4-bit nibbles so a trie can descend
  one hex digit at a time.
* **HP (hex-prefix)** — packs a nibble path plus a leaf/extension flag
  back into bytes for storage. The first nibble of the output is a flag:
  bit 1 set means the path had odd length, bit 2 set means the node is a
  leaf. An odd path stores its first nibble in the flag byte; an even
  path pads with a zero nibble.
* **RLP (recursive length prefix)** — canonical serialization of nested
  byte strings:

  ========== =====================================================
  prefix     meaning
  ========== =====================================================
  0x00-0x7f  single byte, encodes as itself
  0x80-0xb7  string of 0-55 bytes, prefix is 0x80 + length
  0xb8-0xbf  string of >55 bytes, prefix is 0xb7 + length-of-length
  0xc0-0xf7  list with 0-55 byte payload, prefix is 0xc0 + length
  0xf8-0xff  list with >55 byte payload, 0xf7 + length-of-length
  ========== =====================================================

Decoding is strict: any encoding that could have been written shorter
(a long form for a short payload, a length with leading zeros, a
single-byte string wrapped in a prefix) is rejected, as are trailing
bytes. Canonical decoding keeps one logical value from having two
digests.

The 256-bit hash used everywhere (node digests, ring positions, content
ids) is SHA-256.
"""

from __future__ import annotations

import hashlib
from typing import TypeAlias, Union

from .errors import SSChainError

RlpItem: TypeAlias = Union[bytes, list["RlpItem"]]
"""A byte string, or an arbitrarily nested list of byte strings."""

Nibbles: TypeAlias = bytes
"""A nibble path: a ``bytes`` value whose elements are all in [0, 15]."""

Digest: TypeAlias = bytes
"""A 32-byte SHA-256 digest."""

DIGEST_SIZE = 32

SINGLE_BYTE_MAX = 0x7F
SHORT_STRING_PREFIX = 0x80
LONG_STRING_BASE = 0xB7
SHORT_LIST_PREFIX = 0xC0
LONG_LIST_BASE = 0xF7
SHORT_PAYLOAD_MAX = 55

HP_FLAG_ODD = 1
HP_FLAG_LEAF = 2


class CodecError(SSChainError, ValueError):
    """Malformed input to one of the codecs."""


class RlpDecodeError(CodecError):
    """Bytes are not a complete, canonical RLP encoding."""


def hash256(data: bytes) -> Digest:
    """SHA-256 digest of ``data`` (32 bytes, deterministic)."""
    return hashlib.sha256(data).digest()


def int_to_bytes(value: int) -> bytes:
    """Minimal big-endian byte form of a non-negative integer.

    Zero encodes as the empty string, so RLP of an integer never carries
    a leading zero byte.
    """
    if value < 0:
        raise CodecError(f"cannot encode negative integer {value}")
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def int_from_bytes(raw: bytes) -> int:
    """Inverse of :func:`int_to_bytes`; rejects non-minimal forms.

    Raises:
        CodecError: if ``raw`` starts with a zero byte.
    """
    if raw[:1] == b"\x00":
        raise CodecError("integer encoding has a leading zero byte")
    return int.from_bytes(raw, "big")


def hex_encode(data: bytes) -> Nibbles:
    """Split each byte into (high nibble, low nibble).

    The output is twice as long as the input; element ``2i`` is the high
    nibble of byte ``i`` and element ``2i + 1`` the low nibble.
    """
    return data.hex().encode().translate(_HEX_DIGIT_TO_NIBBLE)


def hp_encode(nibbles: Nibbles, is_leaf: bool) -> bytes:
    """Pack a nibble path and a leaf flag into bytes (hex-prefix form).

    Output length is always ``1 + len(nibbles) // 2``.
    """
    # The translation tables map every byte, so a value above 15 must be
    # refused here rather than packed.
    if nibbles and max(nibbles) > 15:
        raise CodecError(f"nibble value {max(nibbles)} out of range [0, 15]")
    flag = HP_FLAG_LEAF if is_leaf else 0
    # An odd path puts its first nibble beside the flag; an even one pads.
    prefix = "%x" % (flag | HP_FLAG_ODD) if len(nibbles) % 2 else "%x0" % flag
    return bytes.fromhex(prefix + nibbles.translate(_NIBBLE_TO_HEX_DIGIT).decode())


def hp_decode(data: bytes) -> tuple[Nibbles, bool]:
    """Unpack hex-prefix bytes into (nibble path, is_leaf).

    Raises:
        CodecError: on empty input, an unknown flag, or a nonzero pad
            nibble (the padding makes even/odd recovery unambiguous, so
            a nonzero pad can only be corruption).
    """
    if not data:
        raise CodecError("empty hex-prefix input")
    flag = data[0] >> 4
    if flag > 3:
        raise CodecError(f"invalid hex-prefix flag nibble {flag}")
    is_leaf = bool(flag & HP_FLAG_LEAF)
    out = bytearray()
    if flag & HP_FLAG_ODD:
        out.append(data[0] & 0x0F)
    elif data[0] & 0x0F:
        raise CodecError("nonzero pad nibble in even-length hex-prefix")
    for b in data[1:]:
        out.append(b >> 4)
        out.append(b & 0x0F)
    return bytes(out), is_leaf


def rlp_encode(item: RlpItem) -> bytes:
    """Canonical RLP encoding of a byte string or nested list.

    Equal items always produce byte-identical output.

    Raises:
        TypeError: if ``item`` contains anything but bytes-like values
            and lists.
    """
    if type(item) is not bytes and isinstance(item, (bytes, bytearray, memoryview)):
        item = bytes(item)
    if type(item) is bytes:
        length = len(item)
        if length == 1 and item[0] <= SINGLE_BYTE_MAX:
            return item
        if length <= SHORT_PAYLOAD_MAX:
            return _SHORT_STRING_HEADS[length] + item
        return _long_head(length, LONG_STRING_BASE) + item
    if isinstance(item, (list, tuple)):
        payload = b"".join([rlp_encode(child) for child in item])
        return rlp_list_head(len(payload)) + payload
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def rlp_list_head(length: int) -> bytes:
    """Prefix of an RLP list whose items' encodings total ``length`` bytes.

    A list's encoding is this prefix followed by its items' encodings, so
    a caller that already holds those bytes frames them without
    re-encoding the items.
    """
    if length <= SHORT_PAYLOAD_MAX:
        return _SHORT_LIST_HEADS[length]
    return _long_head(length, LONG_LIST_BASE)


def rlp_decode(data: bytes) -> RlpItem:
    """Decode one complete RLP item; trailing bytes are an error.

    Raises:
        RlpDecodeError: on truncation, bad prefixes, non-canonical
            length forms, or leftover bytes.
    """
    if not data:
        raise RlpDecodeError("empty input")
    item, end = _decode_at(data, 0)
    if end != len(data):
        raise RlpDecodeError(f"{len(data) - end} trailing bytes after item")
    return item


_HEX_DIGITS = b"0123456789abcdef"
_HEX_DIGIT_TO_NIBBLE = bytes.maketrans(_HEX_DIGITS, bytes(range(16)))
_NIBBLE_TO_HEX_DIGIT = bytes.maketrans(bytes(range(16)), _HEX_DIGITS)
_SHORT_STRING_HEADS = [
    bytes([SHORT_STRING_PREFIX + n]) for n in range(SHORT_PAYLOAD_MAX + 1)
]
"""Prefix of a string of each length up to 55 bytes, save one byte below
0x80, which encodes as itself."""
_SHORT_LIST_HEADS = [
    bytes([SHORT_LIST_PREFIX + n]) for n in range(SHORT_PAYLOAD_MAX + 1)
]


def _long_head(length: int, long_base: int) -> bytes:
    """Prefix of a payload over 55 bytes: base + length-of-length, length."""
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([long_base + len(length_bytes)]) + length_bytes


def _decode_at(data: bytes, pos: int) -> tuple[RlpItem, int]:
    """Decode the item starting at ``pos``; return (item, end offset)."""
    prefix = data[pos]

    if prefix <= SINGLE_BYTE_MAX:
        return data[pos : pos + 1], pos + 1

    if prefix <= LONG_STRING_BASE:
        length = prefix - SHORT_STRING_PREFIX
        payload = _take(data, pos + 1, length)
        if length == 1 and payload[0] <= SINGLE_BYTE_MAX:
            raise RlpDecodeError("single byte below 0x80 must encode as itself")
        return payload, pos + 1 + length

    if prefix < SHORT_LIST_PREFIX:
        length, start = _long_length(data, pos, LONG_STRING_BASE)
        return _take(data, start, length), start + length

    if prefix <= LONG_LIST_BASE:
        length = prefix - SHORT_LIST_PREFIX
        _take(data, pos + 1, length)
        return _decode_list(data, pos + 1, pos + 1 + length)

    length, start = _long_length(data, pos, LONG_LIST_BASE)
    _take(data, start, length)
    return _decode_list(data, start, start + length)


def _long_length(data: bytes, pos: int, base: int) -> tuple[int, int]:
    """Read a long-form length; return (payload length, payload offset)."""
    len_of_len = data[pos] - base
    length_bytes = _take(data, pos + 1, len_of_len)
    if length_bytes[0] == 0:
        raise RlpDecodeError("length encoding has leading zero")
    length = int.from_bytes(length_bytes, "big")
    if length <= SHORT_PAYLOAD_MAX:
        raise RlpDecodeError("long form used for short payload")
    return length, pos + 1 + len_of_len


def _decode_list(data: bytes, start: int, end: int) -> tuple[RlpItem, int]:
    items: list[RlpItem] = []
    pos = start
    while pos < end:
        item, pos = _decode_at(data, pos)
        items.append(item)
    if pos != end:
        raise RlpDecodeError("list item overruns list payload")
    return items, end


def _take(data: bytes, start: int, length: int) -> bytes:
    if start + length > len(data):
        raise RlpDecodeError(
            f"truncated: need {start + length} bytes, have {len(data)}"
        )
    return data[start : start + length]
