"""Ragged per-PE arrays: one flat array plus per-segment offsets.

The container behind every batched kernel: segment ``i`` holds PE ``i``'s
rows as the contiguous slice ``flat[offsets[i]:offsets[i+1]]``.  Conversion
from a per-PE list-of-arrays is one concatenate -- or none, when the list
already is consecutive row ranges of one array (what
:func:`repro.simmpi.alltoall.split_rows` hands out); conversion back hands
out views, so entering a kernel costs O(total) once instead of O(p) numpy
dispatches per operation.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


class RaggedArrays:
    """All PEs' arrays packed flat, with per-PE offsets.

    ``flat`` is a single numpy array (1-D values or 2-D rows); ``offsets``
    has length ``p + 1`` with segment ``i`` spanning
    ``flat[offsets[i]:offsets[i+1]]``.
    """

    __slots__ = ("flat", "offsets", "_lengths")

    def __init__(self, flat: np.ndarray, offsets: np.ndarray):
        self.flat = flat
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self._lengths = None
        if len(self.offsets) == 0 or self.offsets[-1] != len(flat):
            raise ValueError(
                f"offsets end at {self.offsets[-1] if len(self.offsets) else None}"
                f" but flat has {len(flat)} entries"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray],
                    dtype=None) -> "RaggedArrays":
        """Pack a per-PE list of arrays into one flat array + offsets.

        With ``dtype`` given, the flat array is a new array of exactly that
        dtype (narrow or wide).  Without it, parts that are consecutive row
        ranges of one C-contiguous array (empty parts anywhere) are wrapped
        as one view of that array, and anything else is concatenated,
        numpy's promotion deciding the dtype -- the inputs' own when they
        agree.  So ``flat`` may share memory with the parts: callers read
        it and never write into it.
        """
        arrays = [a if isinstance(a, np.ndarray) and a.ndim
                  else np.atleast_1d(a) for a in arrays]
        lengths = np.fromiter((len(a) for a in arrays), dtype=np.int64,
                              count=len(arrays))
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = None if dtype is not None else _consecutive_view(arrays)
        if flat is None and arrays:
            flat = np.concatenate(arrays, axis=0)
            if dtype is not None and flat.dtype != np.dtype(dtype):
                flat = flat.astype(dtype)
        elif flat is None:
            flat = np.empty(0, dtype=dtype if dtype is not None else np.int64)
        out = cls(flat, offsets)
        out._lengths = lengths
        return out

    @classmethod
    def from_offsets_template(cls, flat: np.ndarray,
                              like: "RaggedArrays") -> "RaggedArrays":
        """Wrap ``flat`` (aligned with ``like.flat``) in the same offsets."""
        return cls(flat, like.offsets)

    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        """Number of segments (PEs)."""
        return len(self.offsets) - 1

    @property
    def lengths(self) -> np.ndarray:
        """Per-segment lengths (cached)."""
        if self._lengths is None:
            self._lengths = self.offsets[1:] - self.offsets[:-1]
        return self._lengths

    def __len__(self) -> int:
        return len(self.flat)

    def segment(self, i: int) -> np.ndarray:
        """PE ``i``'s slice of the flat array (a view)."""
        return self.flat[self.offsets[i]:self.offsets[i + 1]]

    def to_arrays(self) -> List[np.ndarray]:
        """Per-PE list of views into the flat array."""
        return [self.flat[self.offsets[i]:self.offsets[i + 1]]
                for i in range(self.n_segments)]

    def segment_ids(self) -> np.ndarray:
        """Segment id of every flat entry (``repeat(arange(p), lengths)``)."""
        return np.repeat(np.arange(self.n_segments, dtype=np.int64),
                         self.lengths)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RaggedArrays(p={self.n_segments}, total={len(self.flat)}, "
                f"dtype={self.flat.dtype})")


def _owner(a: np.ndarray):
    """The object whose memory the array ``a`` views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a if a.base is None else a.base


def _consecutive_view(arrays: Sequence[np.ndarray]):
    """One array spanning the non-empty ``arrays`` if they are consecutive
    row ranges of one C-contiguous array, in order; ``None`` otherwise."""
    full = [a for a in arrays if len(a)]
    if not full:
        return None
    first = full[0]
    owner = _owner(first)
    strides = [first.itemsize]  # C order, whatever a length-1 axis says
    for extent in reversed(first.shape[1:]):
        strides.insert(0, strides[0] * extent)
    end = first.__array_interface__["data"][0]
    for a in full:
        if (a.dtype != first.dtype or a.shape[1:] != first.shape[1:]
                or not a.flags.c_contiguous or _owner(a) is not owner
                or a.__array_interface__["data"][0] != end):
            return None
        end += len(a) * strides[0]
    return np.lib.stride_tricks.as_strided(
        first, shape=(sum(len(a) for a in full),) + first.shape[1:],
        strides=strides, writeable=False)
