"""Exhaustive worst-case search: exact tiny cases, symmetry, dominance."""

from itertools import combinations

import pytest

from faultcast.adversary import (AckSuppressor, FixedKillAdversary, RandomAdversary,
                                 VictimGuard, worst_case_search as reexported_search)
from faultcast.engine import NetworkState, execute_step, fault_budget
from faultcast.errors import TooLargeError
from faultcast.protocols import almost_complete_kn, make_driver
from faultcast.search import HORIZON_EXCEEDED, worst_case_search
from faultcast.topology import build_complete, build_hypercube
from faultcast.errors import UnsupportedTopologyError


def brute_force_search(n, protocol, alpha, horizon=None, eps=2.0, all_sizes=False):
    """Plain minimax over every kill set: no memo, no symmetry, no settling of
    completed states; every step, each child's own batch included, goes
    through execute_step."""
    topo = build_complete(n, port_seed=None)
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
                dr.absorb(st, execute_step(st, batch, FixedKillAdversary(kills), alpha))
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
])
def test_search_matches_brute_force(n, protocol, kwargs):
    expected = brute_force_search(n, protocol, 0.5, **kwargs)
    assert worst_case_search(n, protocol, 0.5, **kwargs).worst_steps == expected


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


def test_k4_nosod_frozen():
    result = worst_case_search(4, "nosod-complete", 0.5, horizon=200)
    assert result.worst_steps == 6
    assert not result.horizon_exceeded


def test_relabeling_invariance():
    # The game on K_n is symmetric in the initiator, so the worst case must
    # not depend on which vertex starts.
    base = worst_case_search(4, "almost-kn", 0.5).worst_steps
    for initiator in (1, 3):
        assert worst_case_search(4, "almost-kn", 0.5,
                                 initiator=initiator).worst_steps == base


def test_all_sizes_at_least_default():
    d = worst_case_search(3, "almost-kn", 0.5)
    a = worst_case_search(3, "almost-kn", 0.5, all_sizes=True)
    assert a.worst_steps >= d.worst_steps


def test_size_cap_and_topology():
    with pytest.raises(TooLargeError):
        worst_case_search(6, "almost-kn", 0.5)
    with pytest.raises(UnsupportedTopologyError):
        worst_case_search(build_hypercube(2), "simple-rounds", 0.5)


def test_reexport_from_adversary_module():
    assert reexported_search(2, "simple-rounds", 0.5).worst_steps == 2


def test_heuristics_never_beat_oracle():
    oracle = worst_case_search(4, "almost-kn", 0.5).worst_steps
    for adv in (RandomAdversary(0), RandomAdversary(3), VictimGuard(3), AckSuppressor(1)):
        trace = almost_complete_kn(4, 0.5, 2.0, adv, port_seed=None)
        assert trace.final_k == 0
        assert trace.first_complete_step() <= oracle


def test_tight_horizon_reports_excess():
    result = worst_case_search(3, "almost-kn", 0.5, horizon=3)
    assert result.horizon_exceeded
