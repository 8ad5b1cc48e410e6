"""Tests for the edge container (repro.dgraph.edges)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dgraph import Edges


def _edges(tuples):
    u = np.array([t[0] for t in tuples], dtype=np.int64)
    v = np.array([t[1] for t in tuples], dtype=np.int64)
    w = np.array([t[2] for t in tuples], dtype=np.int64)
    return Edges(u, v, w)


class TestBasics:
    def test_default_ids(self):
        e = _edges([(0, 1, 5), (1, 2, 3)])
        assert list(e.id) == [0, 1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Edges(np.array([1]), np.array([1, 2]), np.array([1]))

    def test_empty(self):
        e = Edges.empty()
        assert len(e) == 0
        assert e.is_sorted_lex()

    def test_take_and_copy_independent(self):
        e = _edges([(0, 1, 5), (1, 2, 3)])
        c = e.copy()
        c.w[0] = 99
        assert e.w[0] == 5
        sub = e.take(np.array([1]))
        assert list(sub.v) == [2]

    def test_concat(self):
        a = _edges([(0, 1, 1)])
        b = _edges([(2, 3, 2)])
        assert len(Edges.concat([a, b])) == 2
        assert len(Edges.concat([])) == 0


class TestOrdering:
    def test_sort_lex(self):
        e = _edges([(2, 0, 1), (0, 5, 9), (0, 2, 1), (0, 2, 0)])
        s = e.sort_lex()
        assert s.is_sorted_lex()
        assert list(zip(s.u, s.v, s.w)) == [(0, 2, 0), (0, 2, 1),
                                            (0, 5, 9), (2, 0, 1)]

    def test_is_sorted_detects_weight_violation(self):
        e = _edges([(0, 1, 5), (0, 1, 3)])
        assert not e.is_sorted_lex()

    def test_weight_order_uses_tie_break(self):
        e = _edges([(3, 4, 5), (1, 2, 5), (0, 9, 4)])
        order = e.weight_order()
        assert list(order) == [2, 1, 0]

    def test_tie_key_canonicalises_direction(self):
        e = _edges([(5, 2, 7)])
        w, cu, cv = e.tie_key()
        assert (w[0], cu[0], cv[0]) == (7, 2, 5)


class TestTransport:
    def test_matrix_roundtrip(self, rng):
        u = rng.integers(0, 100, 20)
        v = rng.integers(0, 100, 20)
        w = rng.integers(1, 255, 20)
        e = Edges(u, v, w)
        back = Edges.from_matrix(e.as_matrix())
        for a, b in zip((back.u, back.v, back.w, back.id),
                        (e.u, e.v, e.w, e.id)):
            assert np.array_equal(a, b)

    def test_empty_matrix_roundtrip(self):
        m = Edges.empty().as_matrix()
        assert m.shape == (0, 4)
        assert len(Edges.from_matrix(m)) == 0


class TestStructure:
    def test_with_back_edges(self):
        e = _edges([(0, 1, 5)])
        s = e.with_back_edges()
        assert len(s) == 2
        triples = set(zip(s.u.tolist(), s.v.tolist(), s.w.tolist()))
        assert triples == {(0, 1, 5), (1, 0, 5)}

    def test_canonical_triples_direction_invariant(self):
        a = _edges([(0, 1, 5), (2, 3, 4)])
        b = _edges([(1, 0, 5), (3, 2, 4)])
        assert np.array_equal(a.canonical_triples(), b.canonical_triples())

    def test_total_weight(self):
        assert _edges([(0, 1, 5), (1, 2, 3)]).total_weight() == 8


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestTakeByMask:
    """``take`` turns a boolean mask into positions before its four
    gathers; the result must equal the boolean gather it replaced."""

    @staticmethod
    def _columns(data, n, dtype, strided):
        cols = []
        for _ in range(4):
            col = np.array(data.draw(st.lists(
                st.integers(0, 2**32 - 1), min_size=2 * n, max_size=2 * n)),
                dtype=np.int64).astype(dtype)
            # A strided view (every other element) or a contiguous prefix.
            cols.append(col[::2] if strided else col[:n])
        return cols

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40),
           dtype=st.sampled_from([np.uint32, np.int64]),
           strided=st.booleans(),
           fill=st.sampled_from(["random", "all", "none"]))
    def test_mask_equals_index(self, data, n, dtype, strided, fill):
        u, v, w, ids = self._columns(data, n, dtype, strided)
        e = Edges(u, v, w, ids)
        # Constructed columns are contiguous; put strided views back in
        # place to exercise take's own contiguity guarantee.
        e.u, e.v, e.w, e.id = u, v, w, ids
        e._sorted_lex = True
        if fill == "random":
            mask = np.array(data.draw(st.lists(
                st.booleans(), min_size=n, max_size=n)), dtype=bool)
        else:
            mask = np.full(n, fill == "all")
        by_mask = e.take(mask)
        by_index = e.take(np.flatnonzero(mask))
        for name in ("u", "v", "w", "id"):
            got, want = getattr(by_mask, name), getattr(e, name)[mask]
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert np.array_equal(got, want)
            assert np.array_equal(getattr(by_index, name), want)
            assert got.flags.c_contiguous
            assert getattr(by_index, name).flags.c_contiguous
        assert not by_mask._sorted_lex and not by_index._sorted_lex

    def test_mask_of_wrong_length_rejected(self):
        e = _edges([(0, 1, 5), (1, 2, 3)])
        with pytest.raises(IndexError):
            e.take(np.array([True]))
        with pytest.raises(IndexError):
            e.take(np.array([True, False, True]))
