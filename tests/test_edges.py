"""Tests for the edge container (repro.dgraph.edges)."""

import numpy as np
import pytest

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
