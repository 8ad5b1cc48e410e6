"""Adaptive integer-dtype narrowing policy (docs/kernels.md).

The simulated machine's *logical* word is 8 bytes: every cost-model charge,
communicated-byte count and memory-accounting figure is expressed in 8-byte
words regardless of how the host stores the values (see
``repro.simmpi.collectives`` / ``repro.simmpi.alltoall``).  Host storage is
free to be narrower: vertex ids, labels, weights and edge ids of every
benchmark-scale instance fit ``uint32``, which halves the bytes the host
moves through sorts, gathers and transport matrices.

Policy
------
Exactly two storage widths: ``uint32`` when every value provably fits
``[0, 2**32)``, ``int64`` otherwise.  A binary policy keeps numpy promotion
predictable (no ``uint8 + uint16`` surprises) and keeps the fallback trivially
safe.  :data:`NARROWING` is the policy switch: production never changes
it; the differential tests set it to ``False`` (``monkeypatch.setattr``) to
run whole algorithms with ``int64`` storage everywhere and prove narrowing
never changes simulated seconds or results.

The hard invariant of :mod:`repro.kernels` extends to this module: narrowing
changes host wall-clock and host RSS only.  Simulated seconds, RNG draws,
traces and MSF weights are bit-for-bit identical under either policy.
"""

from __future__ import annotations

import numpy as np

#: Largest value the narrow storage dtype can hold.
UINT32_MAX = int(np.iinfo(np.uint32).max)

#: The two storage widths of the policy.
NARROW_DTYPE = np.dtype(np.uint32)
WIDE_DTYPE = np.dtype(np.int64)


#: Whether values that fit are stored as ``uint32``.  ``False`` keeps every
#: array the policy touches at ``int64`` (the tests' wide-mode oracle).
NARROWING = True


def index_dtype(max_value: int) -> np.dtype:
    """Smallest safe storage dtype for values in ``[0, max_value]``.

    ``uint32`` when the bound fits (and :data:`NARROWING` is on), ``int64``
    otherwise.  Negative bounds mean "no elements" and narrow safely.
    """
    if NARROWING and int(max_value) <= UINT32_MAX:
        return NARROW_DTYPE
    return WIDE_DTYPE


def narrow(a: np.ndarray, max_value: int | None = None) -> np.ndarray:
    """``a`` cast to the narrowest safe policy dtype (or ``a`` unchanged).

    Only integer arrays narrow; the value bound is ``max_value`` when the
    caller already knows it (skipping the reduction scans) and
    ``a.min()/a.max()`` otherwise.  Arrays containing negatives, or values
    above ``UINT32_MAX``, stay at their original dtype -- narrowing is
    always a no-op fallback, never an error.
    """
    if not NARROWING:
        return widen(a)
    a = np.asarray(a)
    if a.dtype == NARROW_DTYPE or a.dtype.kind not in "iu" or a.size == 0:
        return a
    if max_value is None:
        lo = int(a.min())
        if lo < 0:
            return a
        max_value = int(a.max())
    if 0 <= int(max_value) <= UINT32_MAX:
        return a.astype(NARROW_DTYPE)
    return a


def widen(a: np.ndarray) -> np.ndarray:
    """``a`` cast back to the wide ``int64`` storage dtype."""
    a = np.asarray(a)
    if a.dtype == WIDE_DTYPE or a.dtype.kind not in "iu":
        return a
    return a.astype(WIDE_DTYPE)


def logical_nbytes(a: np.ndarray) -> int:
    """Bytes the *simulated machine* moves for array ``a``.

    Integer payloads always count 8 bytes per element -- the machine's
    logical word -- so host-side dtype narrowing never changes a single
    simulated cost, traced byte or sanitizer shadow entry.  Non-integer
    payloads (float64 costs, bool flags) keep their true width, which was
    already their pre-narrowing accounting.
    """
    if a.dtype.kind in "iu":
        return int(a.size) * 8
    return int(a.nbytes)


def logical_itemsize(dtype) -> int:
    """Per-element logical bytes (8 for any integer dtype)."""
    dtype = np.dtype(dtype)
    if dtype.kind in "iu":
        return 8
    return int(dtype.itemsize)
