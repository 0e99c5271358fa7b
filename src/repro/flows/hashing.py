"""Deterministic flow-key hashing.

Python's built-in ``hash`` is salted per process for str/bytes keys, so a
flow table seeded with it places flows differently on every run — fine for
dict semantics, wrong for an artifact that promises reproducible
experiments and for modelling a hardware hash unit (the IXP has a
dedicated one).  This module provides stable 64-bit hashes:

* :func:`fnv1a64` — FNV-1a over the key's canonical byte encoding; the
  default everywhere reproducibility matters;
* :func:`crc32_pair` — a CRC32-based 64-bit composite closer to what a
  hardware hash unit computes;
* :func:`stable_hash` — dispatch over the key types the library uses
  (str, bytes, int, tuples thereof, and
  :class:`~repro.flows.packet.FiveTuple`);
* :func:`fnv1a64_int64` — :func:`stable_hash` of a whole int64 array
  at once, bit for bit (the streaming session's shard-routing fast
  path).
"""

from __future__ import annotations

import zlib
from typing import Hashable

import numpy as np

from repro.errors import ParameterError

__all__ = ["fnv1a64", "crc32_pair", "stable_hash", "encode_key",
           "fnv1a64_int64"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a of ``data``."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def crc32_pair(data: bytes) -> int:
    """A 64-bit hash from two salted CRC32 passes (hardware-unit flavour)."""
    high = zlib.crc32(data)
    low = zlib.crc32(b"\x5a" + data)
    return (high << 32) | low


def encode_key(key: Hashable) -> bytes:
    """Canonical byte encoding of a flow key.

    Supports the key shapes the library produces: str, bytes, int, and
    (nested) tuples of those.  Encodings are prefix-free per type so
    distinct keys never collide structurally.
    """
    if isinstance(key, bytes):
        return b"b" + len(key).to_bytes(4, "big") + key
    if isinstance(key, str):
        raw = key.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "big") + raw
    if isinstance(key, bool):  # before int: bool is an int subtype
        return b"B" + (b"\x01" if key else b"\x00")
    if isinstance(key, int):
        raw = key.to_bytes((key.bit_length() + 8) // 8 + 1, "big", signed=True)
        return b"i" + len(raw).to_bytes(2, "big") + raw
    if isinstance(key, tuple):
        parts = b"".join(encode_key(item) for item in key)
        return b"t" + len(key).to_bytes(2, "big") + parts
    # FiveTuple and other dataclasses with astuple-able fields.
    fields = getattr(key, "__dataclass_fields__", None)
    if fields is not None:
        return encode_key(tuple(getattr(key, name) for name in fields))
    raise ParameterError(
        f"cannot canonically encode flow key of type {type(key).__name__}"
    )


def stable_hash(key: Hashable, algorithm: str = "fnv") -> int:
    """Deterministic 64-bit hash of a flow key.

    ``algorithm`` is ``"fnv"`` (default) or ``"crc"``.
    """
    data = encode_key(key)
    if algorithm == "fnv":
        return fnv1a64(data)
    if algorithm == "crc":
        return crc32_pair(data)
    raise ParameterError(f"unknown hash algorithm {algorithm!r}")


def fnv1a64_int64(keys) -> np.ndarray:
    """``[stable_hash(int(k)) for k in keys]`` as one uint64 array.

    FNV-1a over :func:`encode_key`'s int encoding, vectorised: ``b"i"``,
    a 2-byte big-endian length ``L = (bit_length + 8) // 8 + 1``, then
    ``L`` signed big-endian bytes.  ``L`` is 2..10 for int64 values, so
    each key folds in at most ten value bytes, the most significant
    first; bytes above the eighth are sign extension.
    """
    values = np.asarray(keys, dtype=np.int64)
    raw = values.view(np.uint64)
    negative = values < 0
    magnitude = np.where(negative, ~raw + np.uint64(1), raw)
    # L - 2 == bit_length // 8 == how many of 2^7, 2^15, ..., 2^63
    # the magnitude reaches.
    width = np.full(values.shape, 2, dtype=np.int64)
    for j in range(1, 9):
        width += magnitude >= np.uint64(1 << (8 * j - 1))
    prime = np.uint64(_FNV_PRIME)
    value = np.full(values.shape, _FNV_OFFSET, dtype=np.uint64)
    for byte in b"i\x00":  # type tag, then the length's high byte
        value = (value ^ np.uint64(byte)) * prime
    value = (value ^ width.astype(np.uint64)) * prime
    sign = np.where(negative, np.uint64(0xFF), np.uint64(0))
    for p in range(9, -1, -1):
        byte = sign if p >= 8 else (raw >> np.uint64(8 * p)) & np.uint64(0xFF)
        value = np.where(width > p, (value ^ byte) * prime, value)
    return value
