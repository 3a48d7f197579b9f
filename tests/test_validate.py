"""Trace validator: each check fires on doctored traces and stays quiet on
honest ones."""

import numpy as np
import pytest

from faultcast.adversary import AdversaryPolicy, random_adversary
from faultcast.engine import INFO, NetworkState, SendBatch, Trace, execute_step
from faultcast.errors import AdversaryViolation
from faultcast.protocols import almost_complete_kn, broadcast_hypercube, nosod_complete
from faultcast import validate
from faultcast.topology import build_complete


def _doctored_trace(n=8):
    topo = build_complete(n)
    trace = Trace(topo)
    state = NetworkState(topo)
    trace.record(state, m_sent=10, m_lost=9, acks=0)  # budget max{6, 5} = 6
    return trace


def test_budget_check_fires():
    trace = _doctored_trace()
    bad = validate.check_budget(trace, 0.5)
    assert len(bad) == 1 and bad[0].check == "budget"


@pytest.mark.parametrize("alpha,m_sent,budget", [
    (0.7, 90, 63),  # a float floor gives 62
    (0.29, 100, 29),  # a float floor gives 28
    (0.1 + 0.2, 40_000_000_000, 12_000_000_000),  # p*m overflows int64
])
def test_budget_check_is_exact(alpha, m_sent, budget):
    topo = build_complete(2)  # c = 1
    trace = Trace(topo)
    state = NetworkState(topo)
    trace.record(state, m_sent=m_sent, m_lost=budget, acks=0)
    trace.record(state, m_sent=m_sent, m_lost=budget + 1, acks=0)
    bad = validate.check_budget(trace, alpha)
    assert [v.where for v in bad] == [1]


def test_budget_check_quiet_on_honest_run():
    trace = almost_complete_kn(16, 0.5, 2.0, random_adversary(0))
    assert validate.check_budget(trace, 0.5) == []


def test_monotone_check_fires():
    topo = build_complete(4)
    trace = Trace(topo)
    state = NetworkState(topo)
    trace.record(state, 0, 0, 0)
    state.informed[1] = True
    state.version += 1
    trace.record(state, 0, 0, 0)
    # Doctor the k column to rise.
    trace._data[1, 1] = 5
    bad = validate.check_monotone(trace)
    assert any(v.check == "monotone_k" for v in bad)


def test_final_bounds_fire_on_incomplete_sod():
    topo = build_complete(8)
    trace = Trace(topo)
    state = NetworkState(topo)
    trace.record(state, 0, 0, 0)  # k = 7, never informed anyone
    trace.summary = {"protocol": "sod-complete", "alpha": 0.5, "eps": 2.0}
    bad = validate.check_final_bounds(trace, 0.5, 2.0)
    assert any(v.check == "final_k" for v in bad)


def test_nosod_iteration_check_fires_on_stalled_iteration():
    topo = build_complete(20)
    trace = Trace(topo)
    state = NetworkState(topo)
    state.informed[:] = True
    state.version += 1
    seg = trace.mark("nosod_iter", l1=0, l2=0, k0=3, h0=10, steps=2)
    # Two records with k unchanged (3) and h unchanged (10).
    for _ in range(2):
        trace.record(state, 5, 2, 0)
    trace._data[:2, 1] = 3   # k column
    trace._data[:2, 2] = 10  # h column
    bad = validate.check_nosod_iterations(trace, 0.5, 2.0)
    assert len(bad) == 1 and bad[0].check == "nosod_iteration"


def test_nosod_iteration_quiet_on_honest_run():
    trace = nosod_complete(20, 0.5, 2.0, random_adversary(1))
    assert validate.check_nosod_iterations(trace, 0.5, 2.0) == []


def test_phase2_quorum_fires():
    topo = build_complete(30)
    trace = Trace(topo)
    trace.mark("sod_phase2", qualifying=5, threshold=36, senders=5)
    bad = validate.check_phase2_quorum(trace, 0.5, 2.0)
    assert len(bad) == 1 and bad[0].level == validate.ERROR


def test_validate_trace_default_eps_follows_topology(monkeypatch):
    trace = broadcast_hypercube(4, 0.5, 0.5, random_adversary(0))
    trace.summary = {}
    seen = []
    monkeypatch.setattr(validate, "check_qd_rounds",
                        lambda trace, alpha, eps: seen.append(eps) or [])
    validate.validate_trace(trace, 0.5)
    assert seen == [0.5]  # ExperimentConfig's hypercube default, not K_n's 2.0


def test_validate_trace_full_run_clean():
    trace = almost_complete_kn(32, 0.5, 2.0, random_adversary(2))
    assert validate.errors_only(validate.validate_trace(trace, 0.5, 2.0)) == []


class CheatingAdversary(AdversaryPolicy):
    """Deliberately kills one more message than the budget allows."""

    id = "cheater"
    exhaustive = False

    def decide(self, ctx, batch, budget):
        return np.arange(min(batch.m, budget + 1), dtype=np.int64)


def test_cheating_adversary_rejected():
    topo = build_complete(6)
    state = NetworkState(topo)
    state.informed[:] = True
    arcs = np.arange(10, dtype=np.int64)
    with pytest.raises(AdversaryViolation):
        execute_step(state, SendBatch.uniform(arcs, INFO), CheatingAdversary(), 0.5)


def test_cheating_adversary_rejected_mid_protocol():
    with pytest.raises(AdversaryViolation):
        almost_complete_kn(8, 0.5, 2.0, CheatingAdversary())
