"""The engine's step against a set-based reference step of the paper's model.

The reference keeps the informed set and the passive arcs as Python sets of
vertices and (u, v) pairs, delivers a batch one message at a time, takes the
budget max{c-1, floor(alpha*m)} in ``Fraction`` arithmetic and scans the sets
for k, h, b and the edge boundary.  Arc ids come from ``Topology.arc_id``
alone, not from the arrays the engine indexes.  Hypothesis runs random
strictly ascending batches, each all INFO or all ACK, now and then with an
uninformed sender, under random kill sets through ``check_batch`` plus
``apply_kills`` and through the reference, and compares the carried counts,
the boundary and every report field after each step.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultcast.engine import (ACK, INFO, NetworkState, SendBatch, apply_kills, check_batch,
                              fault_budget)
from faultcast.errors import InvalidParameterError
from faultcast.topology import build_complete, build_hypercube


class ReferenceStep:
    """The informed set and the passive arcs of one run, stepped message by message."""

    def __init__(self, arcs: dict[int, tuple[int, int]], n: int, c: int):
        self.arcs = arcs  # arc id -> (u, v)
        self.ids = {pair: a for a, pair in arcs.items()}
        self.n, self.c = n, c
        self.informed = {0}
        self.passive = set()

    def budget(self, m: int, alpha: float) -> int:
        return max(self.c - 1, math.floor(Fraction(str(alpha)) * m))

    def valid(self, batch: list[int]) -> bool:
        return all(self.arcs[a][0] in self.informed for a in batch)

    def step(self, batch: list[int], kind: int, killed: set[int]) -> dict:
        """Deliver the survivors of a batch of ``kind`` messages; return what
        the step's report must hold."""
        delivered = [i for i in range(len(batch)) if i not in killed]
        newly, marked, info_dsts = set(), [], []
        for i in delivered:
            u, v = self.arcs[batch[i]]
            self.passive.add((v, u))  # v now knows that u is informed
            marked.append(self.ids[(v, u)])
            if kind != ACK:
                info_dsts.append(v)
                if v not in self.informed:
                    newly.add(v)
        self.informed |= newly
        return {"delivered_idx": delivered, "marked": marked,
                "info_dsts": info_dsts, "new_informed": sorted(newly),
                "acks_delivered": len(delivered) if kind == ACK else 0}

    def counts(self) -> tuple[int, int, int]:
        h = sum(u in self.informed and v in self.informed and (u, v) not in self.passive
                for u, v in self.arcs.values())
        return self.n - len(self.informed), h, len(self.passive)

    def boundary(self) -> int:
        return sum(u in self.informed and v not in self.informed for u, v in self.arcs.values())


def _topology(shape):
    kind, size = shape
    if kind == "complete":
        topo = build_complete(size)
        pairs = [(u, v) for u in range(size) for v in range(size) if u != v]
    else:
        topo = build_hypercube(size)
        pairs = [(u, u ^ 1 << i) for u in range(topo.n) for i in range(size)]
    return topo, {topo.arc_id(u, v): (u, v) for u, v in pairs}


SHAPES = st.one_of(st.tuples(st.just("complete"), st.integers(2, 8)),
                   st.tuples(st.just("hypercube"), st.integers(1, 4)))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), shape=SHAPES, alpha=st.sampled_from([0.3, 0.5, 0.7]))
def test_step_matches_reference(data, shape, alpha):
    topo, arcs = _topology(shape)
    ref = ReferenceStep(arcs, topo.n, topo.edge_connectivity)
    state = NetworkState(topo)
    state.counts()  # from here on every step carries the counts
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        pool = [a for a, (u, _) in arcs.items() if u in ref.informed]
        batch = data.draw(st.lists(st.sampled_from(pool), unique=True), label="arcs")
        stray = [a for a in arcs if a not in pool]
        if stray and data.draw(st.integers(0, 7), label="stray") == 0:
            batch.append(data.draw(st.sampled_from(stray), label="stray arc"))
        batch.sort()
        m = len(batch)
        kind = data.draw(st.sampled_from([INFO, ACK]), label="kind")
        sends = SendBatch(arcs=np.array(batch, dtype=np.int64), kind=kind)
        if not ref.valid(batch):
            with pytest.raises(InvalidParameterError):
                check_batch(state, sends)
            continue
        check_batch(state, sends)
        budget = fault_budget(m, topo.edge_connectivity, alpha)
        assert budget == ref.budget(m, alpha)
        killed = data.draw(st.sets(st.integers(0, m - 1), max_size=budget) if m
                           else st.just(set()), label="killed")
        mask = np.zeros(m, dtype=bool)
        mask[list(killed)] = True
        report = apply_kills(state, sends, mask, budget)

        for name, value in ref.step(batch, kind, killed).items():
            assert np.asarray(getattr(report, name)).tolist() == value, name
        assert np.all(np.diff(report.new_informed) > 0)
        assert report.budget == budget
        assert state._counts_version == state.version  # carried, not recounted
        assert state.counts() == ref.counts()
        assert state.boundary() == ref.boundary()
        assert set(np.flatnonzero(state.informed).tolist()) == ref.informed
        assert {arcs[a] for a in np.flatnonzero(state.passive)} == ref.passive
