"""Stateful property-based tests (hypothesis RuleBasedStateMachine).

Model-based testing of the two stateful data structures whose invariants
everything else leans on: the union-find (against a naive partition model)
and the distributed label array P (against a dict-based pointer model).
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.plabels import DistributedLabelArray
from repro.seq import UnionFind
from repro.simmpi import Comm, Machine

N = 24
P = 3


class UnionFindMachine(RuleBasedStateMachine):
    """UnionFind vs a naive set-partition model."""

    def __init__(self):
        super().__init__()
        self.uf = UnionFind(N)
        self.model = [{i} for i in range(N)]

    def _model_find(self, x):
        for s in self.model:
            if x in s:
                return s
        raise AssertionError("model lost an element")

    @rule(a=st.integers(0, N - 1), b=st.integers(0, N - 1))
    def union(self, a, b):
        sa = self._model_find(a)
        sb = self._model_find(b)
        expected_new = sa is not sb
        got = self.uf.union(a, b)
        assert got == expected_new
        if expected_new:
            self.model.remove(sa)
            self.model.remove(sb) if sb in self.model else None
            self.model.append(sa | sb)

    @rule(a=st.integers(0, N - 1), b=st.integers(0, N - 1))
    def check_connected(self, a, b):
        assert self.uf.connected(a, b) == (self._model_find(a)
                                           is self._model_find(b))

    @rule(xs=st.lists(st.integers(0, N - 1), min_size=1, max_size=10))
    def check_find_many(self, xs):
        arr = np.array(xs)
        roots = self.uf.find_many(arr)
        for x, r in zip(xs, roots):
            assert self.uf.connected(int(x), int(r))

    @invariant()
    def component_count_matches(self):
        assert self.uf.n_components == len(self.model)


class LabelArrayMachine(RuleBasedStateMachine):
    """DistributedLabelArray vs a dict pointer-forest model.

    Updates always point to a strictly larger label (mirroring how the MST
    contraction hierarchy only maps dead labels to live roots), keeping the
    model acyclic the same way the algorithms do.
    """

    def __init__(self):
        super().__init__()
        self.comm = Comm(Machine(P))
        self.P = DistributedLabelArray(self.comm, N)
        self.model = {}
        self.updated = set()

    @rule(v=st.integers(0, N - 2), delta=st.integers(1, 8),
          pe=st.integers(0, P - 1))
    def add_mapping(self, v, delta, pe):
        if v in self.updated:
            return  # contraction keys are written at most once
        target = min(v + delta, N - 1)
        if target == v:
            return
        self.P.sink(pe, np.array([v]), np.array([target]))
        self.model[v] = target
        self.updated.add(v)

    def _resolve(self, v):
        while v in self.model:
            v = self.model[v]
        return v

    @rule(qs=st.lists(st.integers(0, N - 1), min_size=1, max_size=6))
    def contract_and_query(self, qs):
        self.P.contract()
        out = self.P.request(np.array(qs, dtype=np.int64),
                             np.zeros(len(qs), dtype=np.int64))
        expect = [self._resolve(q) for q in qs]
        assert list(out) == expect


TestUnionFindStateful = UnionFindMachine.TestCase
TestUnionFindStateful.settings = settings(max_examples=25,
                                          stateful_step_count=30,
                                          deadline=None)
TestLabelArrayStateful = LabelArrayMachine.TestCase
TestLabelArrayStateful.settings = settings(max_examples=15,
                                           stateful_step_count=20,
                                           deadline=None)
