"""Argument marshaling for Call objects.

HYDRA proxies "return a Call object that contains the relevant method
information including the serialized input parameters" (Section 3.1).
We implement a compact deterministic wire format from scratch: a
one-byte type tag followed by a length-prefixed body.  Sizes matter —
the channel layer charges bus/CPU time per serialized byte — so the
encoder reports exact encoded lengths.

Supported value types: None, bool, int, float, str, bytes, and (nested)
lists, tuples and string-keyed dicts thereof.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from repro.errors import MarshalError

__all__ = ["encode", "decode", "encoded_size", "counters"]


def counters(metrics) -> Tuple[Any, Any]:
    """The ``(encodes, decodes)`` counters in one simulator's registry.

    ``encode``/``decode`` are pure; the callers that own a simulator
    (proxies, offcodes, :func:`~repro.core.call.make_call`, the
    checkpoint service) bind these once and bump them, so each run
    counts only its own work.  ``encodes`` counts full serializations:
    retried proxy calls and replayed batch entries reuse their cached
    bytes, and tests pin the expected delta across those paths.  The
    help texts are part of the exported snapshot the golden test pins.
    """
    return (metrics.counter(
                "repro_marshal_encodes_total",
                help="Full argument serializations since telemetry bind"
            ).labels(),
            metrics.counter(
                "repro_marshal_decodes_total",
                help="Argument deserializations since telemetry bind"
            ).labels())


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"

_MAX_DEPTH = 32


def encode(value: Any) -> bytes:
    """Serialize ``value`` to bytes.  Raises MarshalError on bad types."""
    out: List[bytes] = []
    _encode_into(value, out, depth=0)
    return b"".join(out)


def encoded_size(value: Any) -> int:
    """Exact length of ``encode(value)`` (used for cost accounting)."""
    return len(encode(value))


def _encode_into(value: Any, out: List[bytes], depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise MarshalError("value nesting exceeds maximum depth")
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        body = value.to_bytes((value.bit_length() + 8) // 8 + 1,
                              "big", signed=True)
        out.append(_TAG_INT + struct.pack(">I", len(body)) + body)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT + struct.pack(">d", value))
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(_TAG_STR + struct.pack(">I", len(body)) + body)
    elif isinstance(value, (bytes, bytearray)):
        body = bytes(value)
        out.append(_TAG_BYTES + struct.pack(">I", len(body)) + body)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST + struct.pack(">I", len(value)))
        for item in value:
            _encode_into(item, out, depth + 1)
    elif isinstance(value, dict):
        out.append(_TAG_DICT + struct.pack(">I", len(value)))
        for key in value:
            if not isinstance(key, str):
                raise MarshalError(
                    f"dict keys must be str, got {type(key).__name__}")
            _encode_into(key, out, depth + 1)
            _encode_into(value[key], out, depth + 1)
    else:
        raise MarshalError(
            f"cannot marshal value of type {type(value).__name__}")


def decode(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`encode`."""
    value, offset = _decode_at(data, 0, depth=0)
    if offset != len(data):
        raise MarshalError(
            f"trailing garbage: {len(data) - offset} bytes after value")
    return value


def _read(data: bytes, offset: int, count: int) -> Tuple[bytes, int]:
    end = offset + count
    if end > len(data):
        raise MarshalError("truncated message")
    return data[offset:end], end


def _decode_at(data: bytes, offset: int, depth: int) -> Tuple[Any, int]:
    if depth > _MAX_DEPTH:
        raise MarshalError("message nesting exceeds maximum depth")
    tag, offset = _read(data, offset, 1)
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        raw, offset = _read(data, offset, 4)
        body, offset = _read(data, offset, struct.unpack(">I", raw)[0])
        return int.from_bytes(body, "big", signed=True), offset
    if tag == _TAG_FLOAT:
        raw, offset = _read(data, offset, 8)
        return struct.unpack(">d", raw)[0], offset
    if tag == _TAG_STR:
        raw, offset = _read(data, offset, 4)
        body, offset = _read(data, offset, struct.unpack(">I", raw)[0])
        return body.decode("utf-8"), offset
    if tag == _TAG_BYTES:
        raw, offset = _read(data, offset, 4)
        body, offset = _read(data, offset, struct.unpack(">I", raw)[0])
        return body, offset
    if tag == _TAG_LIST:
        raw, offset = _read(data, offset, 4)
        count = struct.unpack(">I", raw)[0]
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        raw, offset = _read(data, offset, 4)
        count = struct.unpack(">I", raw)[0]
        result = {}
        for _ in range(count):
            key, offset = _decode_at(data, offset, depth + 1)
            if not isinstance(key, str):
                raise MarshalError("dict key decoded to non-string")
            value, offset = _decode_at(data, offset, depth + 1)
            result[key] = value
        return result, offset
    raise MarshalError(f"unknown wire tag {tag!r}")
