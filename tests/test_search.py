"""Exhaustive worst-case search: exact tiny cases, symmetry, dominance."""

import math
from itertools import combinations

import numpy as np
import pytest

from faultcast.adversary import AckSuppressor, RandomAdversary, VictimGuard
from faultcast.engine import NetworkState, apply_kills, check_batch, fault_budget
from faultcast.errors import InvalidParameterError, TooLargeError
from faultcast.protocols import (EliminationDriver, SeqDriver, Session, SimpleRoundsDriver,
                                 almost_complete_kn, make_driver)
from faultcast import search
from faultcast.search import (HORIZON_EXCEEDED, _children, _image_weights, _least_images,
                              _vertex_perms, worst_case_search)
from faultcast.topology import build_complete
from faultcast.errors import UnsupportedTopologyError


def _step(state, batch, kills, alpha):
    """Check the batch, then apply the kill set of batch indices ``kills``."""
    check_batch(state, batch)
    killed = np.zeros(batch.m, dtype=bool)
    killed[list(kills)] = True
    budget = fault_budget(batch.m, state.topo.edge_connectivity, alpha)
    assert np.count_nonzero(killed) == len(kills) <= budget
    return apply_kills(state, batch, killed, budget)


def brute_force_search(n, protocol, alpha, horizon=None, eps=2.0, all_sizes=False):
    """Plain minimax over every kill set: no memo, no symmetry, no settling of
    completed states; every step, each child's own batch included, is checked
    and applied through the engine."""
    topo = build_complete(n)
    state0 = NetworkState(topo)
    driver0 = make_driver(protocol, topo, alpha, eps, state0)
    if horizon is None:
        horizon = driver0.total_steps
    c = topo.edge_connectivity

    def value(state, driver):
        if driver.done() or state.step_index >= horizon:
            return HORIZON_EXCEEDED
        probe_state = state.clone()
        m = driver.clone(probe_state).next(probe_state, False)[1].m
        ksize = min(m, fault_budget(m, c, alpha))
        worst = 0.0
        for size in (range(ksize + 1) if all_sizes else (ksize,)):
            for kills in combinations(range(m), size):
                st = state.clone()
                dr = driver.clone(st)
                _, batch = dr.next(st, False)
                dr.absorb(st, _step(st, batch, kills, alpha))
                if dr.at_checkpoint() and st.k == 0:
                    worst = max(worst, float(st.step_index))
                else:
                    worst = max(worst, value(st, dr))
        return worst

    return value(state0, driver0)


@pytest.mark.parametrize("n, protocol, kwargs", [
    (2, "simple-rounds", {}),
    (3, "almost-kn", {}),
    (3, "almost-kn", {"all_sizes": True}),
    (3, "nosod-complete", {"horizon": 8}),
    # The worst play completes in the step A that ends at step 3; the horizon
    # falls before, at and after the checkpoint that follows it (step 4).
    (3, "almost-kn", {"horizon": 3}),
    (3, "almost-kn", {"horizon": 4}),
    (3, "almost-kn", {"horizon": 5}),
    # Steps that complete most of their children, which are scored in bulk.
    (4, "almost-kn", {}),
    (4, "almost-kn", {"all_sizes": True}),
    (4, "nosod-complete", {"horizon": 10}),
    # Greedy and acknowledgement steps, whose open children are looked up in
    # the memo before they are built; the horizon cuts them at 5, 6 and 7.
    (3, "almost-kn", {"alpha": 0.3}),
    (4, "almost-kn", {"alpha": 0.3}),
    (4, "simple-rounds", {"horizon": 6}),
    (4, "almost-kn", {"horizon": 5}),
    (4, "almost-kn", {"horizon": 6}),
    (4, "almost-kn", {"horizon": 7}),
    (4, "nosod-complete", {"horizon": 12}),
])
def test_search_matches_brute_force(n, protocol, kwargs):
    kwargs = dict(kwargs)
    alpha = kwargs.pop("alpha", 0.5)
    expected = brute_force_search(n, protocol, alpha, **kwargs)
    assert worst_case_search(n, protocol, alpha, **kwargs).worst_steps == expected


@pytest.mark.parametrize("n", [2, 4, 5])
def test_vertex_perms_match_arc_ids(n):
    """Each row is a distinct vertex permutation fixing the initiator, vertex
    0, with the arc permutation it induces, arc by arc through ``arc_id``."""
    topo = build_complete(n)
    vmaps, arc_perms = _vertex_perms(n)
    assert len({tuple(row) for row in vmaps.tolist()}) == vmaps.shape[0] == math.factorial(n - 1)
    for vmap, arc_perm in zip(vmaps.tolist(), arc_perms.tolist()):
        assert sorted(vmap) == list(range(n)) and vmap[0] == 0
        assert arc_perm == [topo.arc_id(vmap[u], vmap[v])
                            for u, v in zip(topo.arc_src.tolist(), topo.arc_dst.tolist())]


def test_k2_simple_rounds_exact():
    result = worst_case_search(2, "simple-rounds", 0.5)
    assert result.worst_steps == 2  # one info step + one ack step


def test_k2_any_alpha():
    for alpha in (0.1, 0.5, 0.9):
        assert worst_case_search(2, "simple-rounds", alpha).worst_steps == 2


def test_k3_almost_kn_frozen():
    # Hand analysis: greedy step 2 must kill both messages to the third
    # vertex (else completion at step 2), which marks the informed pair's
    # arcs passive; round 1 then sends 2 messages with budget 1.
    result = worst_case_search(3, "almost-kn", 0.5)
    assert result.worst_steps == 4


def test_k5_almost_kn_frozen():
    # The value perfbench/expected.json freezes for the oracle-k5 workload.
    assert worst_case_search(5, "almost-kn", 0.5).worst_steps == 8


def test_k5_search_counts():
    # The memo lookup before a child is built leaves the memo as it was.
    result = worst_case_search(5, "almost-kn", 0.5)
    assert result.states == 282
    assert result.nodes <= 700


def test_k6_almost_kn_frozen():
    result = worst_case_search(6, "almost-kn", 0.5)
    assert result.worst_steps == 10
    assert result.states == 37948


def test_seq_key_parts_settle_position():
    """A SeqDriver keys on its current child whether or not ``done`` has run
    since the last ``absorb``: after the two greedy steps of almost-kn, the
    key names the rounds child straight away."""
    topo = build_complete(5)
    identity = np.arange(topo.num_arcs)
    state = NetworkState(topo)
    driver = make_driver("almost-kn", topo, 0.5, 2.0, state)
    for _ in range(2):
        _, batch = driver.next(state, False)
        kills = range(min(batch.m, fault_budget(batch.m, topo.edge_connectivity, 0.5)))
        driver.absorb(state, _step(state, batch, kills, 0.5))
        key = driver.key_parts(identity)
        driver.done()
        assert driver.key_parts(identity) == key
    assert key[0] == 1


def test_k4_nosod_frozen():
    result = worst_case_search(4, "nosod-complete", 0.5, horizon=200)
    assert result.worst_steps == 6
    assert not result.horizon_exceeded


@pytest.mark.parametrize("n, protocol, alpha, horizon", [
    (3, "almost-kn", 0.5, None),
    (4, "almost-kn", 0.3, None),
    (4, "almost-kn", 0.5, None),
    (4, "almost-kn", 0.7, None),
    (5, "almost-kn", 0.3, None),
    (5, "almost-kn", 0.5, None),
    (4, "nosod-complete", 0.3, 40),
    (4, "nosod-complete", 0.5, 40),
])
def test_all_sizes_equals_default(n, protocol, alpha, horizon):
    # Killing fewer than min(m, F(m)) never delays the broadcast on these
    # instances, so the maximal kill sets alone reach the worst case.
    default = worst_case_search(n, protocol, alpha, horizon=horizon).worst_steps
    assert worst_case_search(n, protocol, alpha, horizon=horizon,
                             all_sizes=True).worst_steps == default


def test_size_cap_and_topology():
    """The search caps n and plays on K_n only: a schedule for Q_d is refused."""
    with pytest.raises(TooLargeError):
        worst_case_search(7, "almost-kn", 0.5)
    for protocol in ("hypercube", "greedy-qd"):
        with pytest.raises(UnsupportedTopologyError):
            worst_case_search(4, protocol, 0.5)


def test_size_cap_comes_before_the_build(monkeypatch):
    """A size above the cap is refused before K_n, with its n(n-1) arcs, is
    built: ``sim search --n 100000`` must not allocate 10^10 arcs first."""
    def build(*args):
        raise AssertionError("built a topology above the size cap")
    monkeypatch.setattr(search, "build_topology", build)
    with pytest.raises(TooLargeError, match="n = 100000"):
        worst_case_search(100_000, "almost-kn", 0.5)


@pytest.mark.parametrize("protocol", ["sod-all-but-one", "sod-complete"])
def test_search_refuses_sod_schedules(protocol):
    """A size builds the chordal K_n the schedule needs, and its drivers
    refuse the search with a typed error."""
    with pytest.raises(InvalidParameterError, match="does not support search"):
        worst_case_search(4, protocol, 0.5)


def test_heuristics_never_beat_oracle():
    oracle = worst_case_search(4, "almost-kn", 0.5).worst_steps
    for adv in (RandomAdversary(0), RandomAdversary(3), VictimGuard(3), AckSuppressor(1)):
        trace = almost_complete_kn(4, 0.5, 2.0, adv)
        assert trace.final_k == 0
        assert trace.first_complete_step() <= oracle


def test_tight_horizon_reports_excess():
    result = worst_case_search(3, "almost-kn", 0.5, horizon=3)
    assert result.horizon_exceeded


def _reachable(topo, driver, state, rng, steps):
    """(state, driver) before each step of one random play that kills the
    messages to the least-reached uninformed vertices first, so that vertices
    stay uninformed longer."""
    c = topo.edge_connectivity
    for _ in range(steps):
        if driver.done() or state.k == 0:
            return
        yield state, driver
        _, batch = driver.next(state, False)
        ksize = min(batch.m, fault_budget(batch.m, c, 0.5))
        dst = topo.arc_dst[batch.arcs]
        order = np.lexsort((rng.permutation(topo.n)[dst],
                            np.bincount(dst, minlength=topo.n)[dst], state.informed[dst]))
        driver.absorb(state, _step(state, batch, order[:ksize], 0.5))


def _plays(n, rng):
    """Random reachable states of almost-kn and nosod-complete on K_n, and of
    two short extended rounds (an elimination pass of one 2-step iteration,
    then 2 simple rounds, twice) started after a greedy step that left
    vertices uninformed."""
    topo = build_complete(n)
    for protocol in ("almost-kn", "nosod-complete"):
        state = NetworkState(topo)
        yield from _reachable(topo, make_driver(protocol, topo, 0.5, 2.0, state), state, rng, 8)
    state = NetworkState(topo)
    _, batch = make_driver("greedy-kn", topo, 0.5, 2.0, state).next(state, False)
    _step(state, batch, range(n - 2), 0.5)
    session = Session(topo, 0, state=state)
    passes = [driver for i in range(2)
              for driver in (EliminationDriver(topo, 1, 2, i),
                             SimpleRoundsDriver(session, 2, 0.5, label="nosod_l4"))]
    yield from _reachable(topo, SeqDriver(passes), state, rng, 12)


@pytest.mark.parametrize("n", [4, 5])
def test_precomputed_children_are_honest(n):
    """Every kill set of random reachable states, stepped through the engine:
    the precomputed post-step arrays equal the engine's, a step whose driver
    keeps no deliveries leaves one driver key, and the integer key's tied
    permutations are those of the least packed-bytes image."""
    rng = np.random.default_rng(n)
    topo = build_complete(n)
    vmaps, arc_perms = _vertex_perms(n)
    weights = _image_weights(vmaps, arc_perms)
    vinv, ainv = np.argsort(vmaps, axis=1), np.argsort(arc_perms, axis=1)
    identity = np.arange(topo.num_arcs)
    checked = {True: 0, False: 0}
    extended = set()  # the kinds of extended-round step checked
    for state, driver in _plays(n, rng):
        probe_state = state.clone()
        probe = driver.clone(probe_state)
        _, batch = probe.next(probe_state, False)
        budget = fault_budget(batch.m, topo.edge_connectivity, 0.5)
        ksize = min(batch.m, budget)
        if math.comb(batch.m, ksize) > 500:
            continue
        keeps = probe.keeps_deliveries()
        current = probe.children[probe.idx]
        if isinstance(current, EliminationDriver) or getattr(current, "label", "") == "nosod_l4":
            extended.add(type(current))
        driver_keys = set()
        for killed, completes, after in _children(state, batch, (ksize,), {}):
            least, ties = _least_images(after, weights)
            for j, row_killed in enumerate(killed):
                assert np.count_nonzero(row_killed) == ksize
                st = state.clone()
                dr = probe.clone(st)
                dr.absorb(st, apply_kills(st, batch, row_killed, budget))
                assert (st.k == 0) == completes[j]
                assert (st.informed == after[j, :n]).all()
                assert (st.passive == after[j, n:]).all()
                driver_keys.add(dr.key_parts(identity))
                packed = np.concatenate([np.packbits(st.informed[vinv], axis=1),
                                         np.packbits(st.passive[ainv], axis=1)], axis=1)
                rows = [row.tobytes() for row in packed]
                assert np.flatnonzero(ties[j]).tolist() == [
                    i for i, row in enumerate(rows) if row == min(rows)]
                i = int(np.flatnonzero(ties[j])[0])
                bits = np.concatenate([st.informed[vinv[i]], st.passive[ainv[i]]])
                assert int("".join("1" if b else "0" for b in bits), 2) == least[j]
        if not keeps:
            assert len(driver_keys) == 1
        checked[keeps] += 1
    assert checked[True] and checked[False]
    assert extended == {EliminationDriver, SimpleRoundsDriver}
