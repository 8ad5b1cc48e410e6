"""Per-PE random streams as arrays: numpy's PCG64, stepped for many PEs at once.

PE ``i``'s stream is the PCG64 of ``np.random.default_rng(SeedSequence(
entropy=seed, spawn_key=(i,)))``, seeded on its first draw, and
:meth:`PEStreams.integers` returns for every listed PE at once exactly what
that generator's ``integers(0, high, size)`` returns, leaving exactly its
state.  PCG64 steps ``s -> s * M + inc (mod 2^128)`` and outputs the XSL-RR
of the new state; ``k`` steps give ``A_k s + C_k inc`` with ``A_k = M^k``
and ``C_k = M^{k-1} + ... + 1``, so the next ``K`` outputs of all PEs are
one broadcast over a ``(PEs, K)`` grid of uint64 limbs.  Bounds up to
``2^32`` draw 32-bit Lemire samples (``2^32`` itself: raw words), two per
output, the odd half word carried across calls in ``has_uint32`` /
``uinteger`` as numpy carries it.
"""

from __future__ import annotations

import functools
from typing import Dict

import numpy as np

#: PCG64's 128-bit LCG multiplier.
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_LOW = np.uint64(0xFFFFFFFF)


def _mul(xh, xl, yh, yl):
    """``x * y mod 2^128`` over ``(high, low)`` uint64 limbs."""
    a0, a1, b0, b1 = xl & _LOW, xl >> 32, yl & _LOW, yl >> 32
    ll, lh, hl = a0 * b0, a0 * b1, a1 * b0
    mid = (ll >> 32) + (lh & _LOW) + (hl & _LOW)
    return (a1 * b1 + (lh >> 32) + (hl >> 32) + (mid >> 32) + xl * yh
            + xh * yl, (ll & _LOW) | (mid << 32))


@functools.lru_cache(maxsize=8)
def _jumps(k: int) -> np.ndarray:
    """Limbs ``[A_j, C_j][high, low]`` for ``j = 1 .. k`` steps, shaped to
    broadcast against ``[state, inc][high, low][PE]``: ``(2, 2, 1, k)``."""
    a, c, out = 1, 0, []
    for _ in range(k):
        a, c = a * MULTIPLIER % (1 << 128), (c + a) % (1 << 128)
        out.append(divmod(a, 1 << 64) + divmod(c, 1 << 64))
    return np.array(out, dtype=np.uint64).T.reshape(2, 2, 1, k)


class PEStreams:
    """The ``n_procs`` per-PE PCG64 streams of one machine, as arrays."""

    def __init__(self, n_procs: int, seed: int):
        self.n_procs, self.seed = n_procs, seed
        self.clear()

    def clear(self) -> None:
        """Forget every stream: each restarts from its seed on next use."""
        n = self.n_procs
        #: ``[state, inc][high limb, low limb][PE]``.
        self.limbs = np.zeros((2, 2, n), dtype=np.uint64)
        self.has_uint32 = np.zeros(n, dtype=bool)
        self.uinteger = np.zeros(n, dtype=np.uint64)
        #: PEs handed out so far, in the order of their first use.
        self.drawn: Dict[int, None] = {}

    def _set(self, pe: int, state: dict) -> None:
        for row, key in enumerate(("state", "inc")):
            self.limbs[row, :, pe] = divmod(state["state"][key], 1 << 64)
        self.has_uint32[pe] = bool(state["has_uint32"])
        self.uinteger[pe] = state["uinteger"]
        self.drawn[pe] = None

    def _get(self, pe: int) -> dict:
        state, inc = (int(hi) << 64 | int(lo) for hi, lo in self.limbs[:, :, pe])
        return {"bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": int(self.has_uint32[pe]),
                "uinteger": int(self.uinteger[pe])}

    def snapshot(self) -> Dict[int, dict]:
        """numpy-format ``bit_generator.state`` of every PE handed out."""
        return {pe: self._get(pe) for pe in self.drawn}

    def restore(self, snapshot: Dict[int, dict]) -> None:
        """Back to a :meth:`snapshot`; PEs not in it restart from their seed."""
        self.clear()
        for pe, state in snapshot.items():
            self._set(pe, state)

    def integers(self, ranks, high, size) -> np.ndarray:
        """``Generator.integers(0, high[i], size[i])`` of every PE
        ``ranks[i]``, concatenated in list order (``int64``)."""
        ranks, high, size = (np.asarray(x, dtype=np.int64)
                             for x in (ranks, high, size))
        if (high > 1 << 32).any():
            k = int(np.flatnonzero(high > 1 << 32)[0])
            raise ValueError(
                f"PE {ranks[k]}: integers below {high[k]} need 64-bit "
                f"draws, which the batched streams do not make")
        for pe in ranks[size > 0].tolist():  # handed out, even if high == 1
            if pe not in self.drawn:
                self._set(pe, np.random.PCG64(np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(pe,))).state)
        out = np.zeros(int(size.sum()), dtype=np.int64)
        go = (high > 1) & (size > 0)  # high == 1 draws nothing
        if not go.any():
            return out
        r, h, s = ranks[go], high[go].astype(np.uint64)[:, None], size[go]
        raw = h == 1 << 32
        k = int(s.max()) // 2 + 2  # steps: enough words unless many reject
        while True:  # words: column 0 the carried half, then 2 per step
            x, y = self.limbs[:, :, r, None], _jumps(k)
            # A_j state and C_j inc in one product, then their sum.
            (ah, ch), (al, cl) = _mul(x[:, 0], x[:, 1], y[:, 0], y[:, 1])
            lo = al + cl
            hi = ah + ch + (lo < al)
            x, rot = hi ^ lo, hi >> 58
            step = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
            words = np.empty((len(r), 2 * k + 1), dtype=np.uint64)
            words[:, 0] = self.uinteger[r]
            words[:, 1::2], words[:, 2::2] = step & _LOW, step >> 32
            m = words * h
            # Lemire: accept unless the low word falls below 2^32 mod high.
            keep = raw | ((m & _LOW) >= (1 << 32) % h)
            keep[:, 0] &= self.has_uint32[r]
            taken = np.cumsum(keep, axis=1)
            if (taken[:, -1] >= s).all():
                break
            k *= 2
        # Row-major: each PE's accepted words in order, PE after PE.
        out[np.repeat(go, size)] = np.where(raw, words, m >> 32)[
            keep & (taken <= s[:, None])]
        # Leave each PE as numpy would after its last word: an odd one is
        # an output's low half, whose high half then waits in ``uinteger``.
        last = np.argmax(taken == s[:, None], axis=1)
        n = (last + 1) // 2
        row = np.flatnonzero(n)
        self.limbs[0, 0, r[row]] = hi[row, n[row] - 1]
        self.limbs[0, 1, r[row]] = lo[row, n[row] - 1]
        self.has_uint32[r] = last % 2 == 1
        self.uinteger[r[row]] = words[row, 2 * n[row]]
        return out
