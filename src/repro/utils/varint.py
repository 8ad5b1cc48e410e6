"""7-bit variable-length delta encoding of sorted edge lists (Section VI-C).

The paper keeps a compressed copy of each PE's initial edge list so the
original endpoints of an identified MST edge can be looked up by edge id:
"this copy is stored with 7-bit variable length encoding on the differences
of consecutive vertices".  We reproduce that scheme:

* the edge list is flattened as ``src_0, dst_0, src_1, dst_1, ...``;
* each ``src`` is delta-encoded against the previous edge's ``src`` (the list
  is lexicographically sorted, so deltas are small non-negative ints);
* each ``dst`` is stored zig-zag-delta-encoded against the previous edge's
  ``dst`` (destination order within a source group is ascending but resets
  between groups, so deltas may be negative);
* every value is emitted as a little-endian base-128 varint: 7 payload bits
  per byte, high bit = continuation.

The decoder is vectorised with numpy (no per-byte Python loop): continuation
bits are found with a mask, value boundaries with a cumulative segment id,
and payloads combined with per-segment shifts.
"""

from __future__ import annotations

import numpy as np


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed to unsigned ints: 0,-1,1,-2,2.. -> 0,1,2,3,4.."""
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -(v & np.uint64(1)).astype(np.int64)


def encode_varints(values: np.ndarray) -> np.ndarray:
    """Encode an array of unsigned ints as a base-128 varint byte stream."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.empty(0, dtype=np.uint8)
    # Number of 7-bit groups per value (at least one): one binary search
    # against the nine 2^(7g) thresholds instead of a per-bit clz sweep.
    ngroups = np.searchsorted(_GROUP_THRESHOLDS, v, side="right") + 1
    total = int(ngroups.sum())
    out = np.empty(total, dtype=np.uint8)
    # Position of each value's first byte.
    starts = np.zeros(len(v), dtype=np.int64)
    np.cumsum(ngroups[:-1], out=starts[1:])
    # Byte index within its value for every output byte.
    byte_value = np.repeat(np.arange(len(v)), ngroups)
    byte_pos = np.arange(total) - starts[byte_value]
    payload = (v[byte_value] >> (byte_pos.astype(np.uint64) * np.uint64(7))) & np.uint64(0x7F)
    is_last = byte_pos == (ngroups[byte_value] - 1)
    out[:] = payload.astype(np.uint8)
    out[~is_last] |= 0x80
    return out


def decode_varints(stream: np.ndarray) -> np.ndarray:
    """Decode a base-128 varint byte stream back to unsigned ints."""
    b = np.asarray(stream, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    cont = (b & 0x80) != 0
    is_last = ~cont
    if cont[-1]:
        raise ValueError("truncated varint stream")
    # Value id of every byte: number of completed values before it.
    value_id = np.zeros(len(b), dtype=np.int64)
    value_id[1:] = np.cumsum(is_last)[:-1]
    n_values = int(is_last.sum())
    # Position of each byte within its value.
    starts = np.flatnonzero(np.concatenate(([True], is_last[:-1])))
    byte_pos = np.arange(len(b)) - starts[value_id]
    # A 64-bit value needs at most 10 varint bytes (9 * 7 = 63 payload bits
    # before the last byte).  An 11th byte (byte_pos 10) would shift its
    # payload past bit 63 and silently vanish, so reject it outright.
    if byte_pos.max() >= 10:
        raise ValueError("varint too long for 64-bit value")
    payload = (b & 0x7F).astype(np.uint64) << (byte_pos.astype(np.uint64) * np.uint64(7))
    out = np.zeros(n_values, dtype=np.uint64)
    np.add.at(out, value_id, payload)
    return out


# Smallest value needing g+1 varint bytes, for g = 1..9.
_GROUP_THRESHOLDS = np.uint64(1) << (
    np.uint64(7) * np.arange(1, 10, dtype=np.uint64))


def _clz64(v: np.ndarray) -> np.ndarray:
    """Count leading zeros of each uint64 (vectorised)."""
    v = v.copy()
    n = np.full(v.shape, 64, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        su = np.uint64(s)
        mask = (v >> su) != 0
        n[mask] -= s
        v[mask] >>= su
    n[v != 0] -= 1
    return n


class CompressedEdgeList:
    """A varint-delta compressed copy of a sorted (src, dst) edge list.

    The paper's compressed initial edge list (Section VI-C), and the
    ``.kmst`` file format (:mod:`repro.graphgen.io`).  The MST output
    charges its two decodes per PE but reads the input block it still holds
    (:class:`repro.core.boruvka.InputSnapshot`) instead of building one.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        self.n_edges = len(src)
        d_src = np.diff(src, prepend=0)
        if self.n_edges and (d_src < 0).any():
            raise ValueError("edge list must be sorted by source")
        d_dst = np.diff(dst, prepend=0)
        interleaved = np.empty(2 * self.n_edges, dtype=np.uint64)
        interleaved[0::2] = d_src.astype(np.uint64)  # non-negative deltas
        interleaved[1::2] = _zigzag(d_dst)
        self.stream = encode_varints(interleaved)

    @property
    def nbytes(self) -> int:
        """Size of the compressed representation in bytes."""
        return int(self.stream.nbytes)

    def decode(self) -> tuple[np.ndarray, np.ndarray]:
        """Reconstruct the original (src, dst) arrays."""
        flat = decode_varints(self.stream)
        if len(flat) != 2 * self.n_edges:
            raise ValueError("corrupt compressed edge list")
        src = np.cumsum(flat[0::2].astype(np.int64))
        dst = np.cumsum(_unzigzag(flat[1::2]))
        return src, dst

    def lookup(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Original endpoints of the edges at local ``indices``."""
        src, dst = self.decode()
        idx = np.asarray(indices, dtype=np.int64)
        return src[idx], dst[idx]
