"""Step-by-step bookkeeping equals a recomputation from scratch.

``execute_step`` carries (k, h, b) and the edge boundary of the informed set
across the steps it executes, fills each delivery report once, and every
Session keeps its send frontier up to date from the reports it absorbs.  A
delegating driver checks all three against full scans after every executed
step of real schedules: the counts of a fresh state holding copies of the
arrays, ``topology.edge_boundary``, the report fields gathered again from the
batch and the frontier expression written out.
"""

import numpy as np
import pytest

from faultcast.adversary import RandomAdversary, make_adversary
from faultcast.engine import (ACK, INFO, NetworkState, SendBatch, apply_kills, check_batch,
                              fault_budget)
from faultcast.protocols import (Driver, GreedyCompleteDriver, IdleDriver, MultiplexDriver,
                                 SeqDriver, Session, make_driver, simulate)
from faultcast.topology import build_complete, build_hypercube, edge_boundary


def _scratch_counts(state):
    """(k, h, b) of a fresh state with copies of the arrays, so nothing is carried."""
    fresh = NetworkState(state.topo)
    fresh.informed[:] = state.informed
    fresh.passive[:] = state.passive
    return fresh.counts()


def _scratch_frontier(aware, marks, topo):
    """Unmarked out-arcs of aware vertices, ascending."""
    return np.flatnonzero(aware[topo.arc_src] & ~marks)


def _sessions(obj, found, seen):
    """Every Session reachable from a driver through attributes, lists and dicts."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Session):
        found.append(obj)
        return
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    elif type(obj).__module__ == "faultcast.protocols":
        items = vars(obj).values()
    else:
        return
    for item in items:
        _sessions(item, found, seen)


class CheckingDriver:
    """Delegates to a driver and audits the state and its sessions after each step."""

    def __init__(self, driver: Driver):
        self.inner = driver
        self.steps = 0
        self.carried = 0  # steps whose counts execute_step carried forward
        self.frontiers = 0  # session frontiers compared
        self.acks = 0  # acks delivered

    @property
    def total_steps(self):
        return self.inner.total_steps

    def attach(self, trace):
        self.inner.attach(trace)

    def done(self):
        return self.inner.done()

    def next(self, state, blocks):
        return self.inner.next(state, blocks)

    def absorb(self, state, report):
        self.inner.absorb(state, report)
        self.steps += 1
        self.carried += state._counts_version == state.version
        topo = state.topo
        # The report's fields, which the driver has just read and must not have modified.
        darr = report.batch.arcs[report.delivered_idx]
        acks = report.batch.kind == ACK
        info = darr[:0] if acks else darr  # the delivered INFO messages' arcs
        assert np.array_equal(report.marked, topo.opp[darr]), f"step {state.step_index}"
        assert np.array_equal(report.info_dsts, topo.arc_dst[info]), f"step {state.step_index}"
        assert report.acks_delivered == darr.size - info.size
        self.acks += report.acks_delivered
        assert state.counts() == _scratch_counts(state), f"step {state.step_index}"
        assert state.boundary() == edge_boundary(topo, state.informed), \
            f"step {state.step_index}"
        sessions = []
        _sessions(self.inner, sessions, set())
        for s in sessions:
            if s.frontier is None or (s.primary and s.synced != state.version):
                continue  # rebuilt from scratch on its next use
            expected = _scratch_frontier(s.aware, s.marks, topo)
            assert np.array_equal(s.frontier, expected), f"step {state.step_index}"
            self.frontiers += 1


CONFIGS = [
    ("almost-kn", lambda: build_complete(16), 0.5, 2.0),
    ("almost-kn", lambda: build_complete(64), 0.7, 2.0),
    ("hypercube", lambda: build_hypercube(6), 0.5, 0.5),
    ("sod-complete", lambda: build_complete(16, chordal=True), 0.5, 2.0),
    ("nosod-complete", lambda: build_complete(16), 0.5, 2.0),
]


@pytest.mark.parametrize("adversary", ["random:3", "victim_guard", "ack_suppressor:1"])
@pytest.mark.parametrize("protocol,build,alpha,eps", CONFIGS,
                         ids=["kn16", "kn64", "q6", "sod16", "nosod16"])
def test_bookkeeping_matches_scratch(protocol, build, alpha, eps, adversary):
    topo = build()
    state = NetworkState(topo)
    checker = CheckingDriver(make_driver(protocol, topo, alpha, eps, state))
    simulate(topo, checker, make_adversary(adversary, topo=topo), alpha, state=state)
    assert checker.steps > 0
    assert checker.carried == checker.steps - 1  # all but the first, before counts exist
    assert checker.frontiers > 0
    assert checker.acks > 0


def _step(state, arcs, kills):
    """One step of INFO on ``arcs`` that kills the batch indices ``kills``."""
    batch = SendBatch(arcs, INFO)
    check_batch(state, batch)
    killed = np.zeros(batch.m, dtype=bool)
    killed[kills] = True
    budget = fault_budget(batch.m, state.topo.edge_connectivity, 0.5)
    assert np.count_nonzero(killed) <= budget
    return apply_kills(state, batch, killed, budget)


def test_direct_writes_with_version_bump_recount():
    topo = build_complete(6)
    state = NetworkState(topo)
    arcs = topo.out_arcs_of(np.array([0]))
    _step(state, arcs, [0, 1])
    state.counts()
    state.informed[5] = True
    state.passive[topo.arc_id(5, 0)] = True
    state.version += 1
    arcs = np.flatnonzero(state.informed[topo.arc_src] & ~state.passive)
    _step(state, arcs, [])
    assert state.counts()[0] == 0
    assert state.counts() == _scratch_counts(state)


@pytest.mark.parametrize("absorb_next", [False, True])
def test_primary_session_resyncs_after_foreign_steps(absorb_next):
    topo = build_complete(8)
    state = NetworkState(topo)
    session = Session(topo, 0, state=state)
    assert np.array_equal(session.sends(state), topo.out_arcs_of(np.array([0])))
    # A step the session does not absorb moves the state under it ...
    _step(state, session.sends(state), [0, 1])
    if absorb_next:
        # ... and the next step it does absorb must not be applied to the old frontier.
        arcs = np.sort(topo.opp[topo.out_arcs_of(np.array([0]))[2:]])
        session.absorb(state, _step(state, arcs, []))
    expected = _scratch_frontier(state.informed, state.passive, topo)
    assert np.array_equal(session.sends(state), expected)


class _NonExhaustiveRandom(RandomAdversary):
    exhaustive = False  # the same kills, but no driver may fast-forward


def _rows(topo, build_driver, adversary, alpha):
    state = NetworkState(topo)
    _, trace = simulate(topo, build_driver(state), adversary, alpha, state=state)
    return np.stack([trace.column(c) for c in ("step", "k", "h", "b", "m_sent", "m_lost",
                                               "acks", "M")])


@pytest.mark.parametrize("n,alpha", [(16, 0.5), (64, 0.3), (64, 0.7)])
def test_fast_forward_matches_stepping(n, alpha):
    # Random kills of a whole batch draw nothing from the generator, so every
    # inert block must record exactly the rows that stepping through it does.
    topo = build_complete(n, chordal=True)
    build = lambda state: make_driver("sod-complete", topo, alpha, 2.0, state)
    assert np.array_equal(_rows(topo, build, RandomAdversary(5), alpha),
                          _rows(topo, build, _NonExhaustiveRandom(5), alpha))


@pytest.mark.parametrize("idle0,idle1", [(1, 2), (2, 1), (3, 3), (0, 4), (4, 0)])
def test_multiplex_idle_run_matches_stepping(idle0, idle1):
    # Lanes idle for different lengths before flooding: a fast-forward that
    # overshoots either lane's idle prefix moves its flood to another step.
    topo = build_complete(6)

    def build(state):
        def lane(idle):
            flood = GreedyCompleteDriver(Session(topo, 0, state=state))
            return SeqDriver([IdleDriver(idle), flood])
        return MultiplexDriver(lane(idle0), lane(idle1))

    assert np.array_equal(_rows(topo, build, RandomAdversary(2), 0.5),
                          _rows(topo, build, _NonExhaustiveRandom(2), 0.5))
