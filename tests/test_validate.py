"""Trace validator: each check fires on doctored traces and stays quiet on
honest ones."""

import dataclasses

import numpy as np
import pytest

from faultcast.adversary import AdversaryPolicy, RandomAdversary
from faultcast import bounds, engine
from faultcast.engine import INFO, NetworkState, SendBatch, Trace, execute_step
from faultcast.errors import AdversaryViolation, InvalidParameterError
from faultcast.harness import run_protocol
from faultcast.protocols import almost_complete_kn
from faultcast import validate
from faultcast.topology import COMPLETE, HYPERCUBE, build_complete, build_hypercube


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
    trace = almost_complete_kn(16, 0.5, 2.0, RandomAdversary(0))
    assert validate.check_budget(trace, 0.5) == []


def _rising_k_trace():
    topo = build_complete(4)
    trace = Trace(topo)
    state = NetworkState(topo)
    trace.record(state, 0, 0, 0)
    state.informed[1] = True
    state.version += 1
    trace.record(state, 0, 0, 0)
    # Doctor the k column to rise.
    trace._data[1, 1] = 5
    return trace


def test_monotone_check_fires():
    bad = validate.check_monotone(_rising_k_trace())
    assert any(v.check == "monotone_k" for v in bad)


def _incomplete_sod_trace():
    topo = build_complete(8)
    trace = Trace(topo)
    state = NetworkState(topo)
    trace.record(state, 0, 0, 0)  # k = 7, never informed anyone
    trace.summary = {"protocol": "sod-complete", "alpha": 0.5, "eps": 2.0}
    return trace


def test_final_bounds_fire_on_incomplete_sod():
    bad = validate.check_final_bounds(_incomplete_sod_trace(), 0.5, 2.0)
    assert any(v.check == "final_k" for v in bad)


def _stalled_iteration_trace(run=0):
    """A nosod iteration that keeps k = 3 and h = 10 from the record before
    it; with ``run``, its last ``run`` steps are one run."""
    topo = build_complete(20)
    trace = Trace(topo)
    state = NetworkState(topo)
    state.informed[:] = True
    state.version += 1
    trace.record(state, 5, 2, 0)
    trace.mark("nosod_iter", l1=0, l2=0, steps=2 + run)
    for _ in range(2):
        trace.record(state, 5, 2, 0)
    if run:
        trace.record_block(state, [(1, 1)], run)
    trace._data[:, 1] = 3   # k column
    trace._data[:, 2] = 10  # h column
    return trace


def test_nosod_iteration_check_fires_on_stalled_iteration():
    for run in (0, 4):  # with 4, the iteration's last record is inside a run
        bad = validate.check_nosod_iterations(_stalled_iteration_trace(run), 0.5, 2.0)
        assert len(bad) == 1 and bad[0].check == "nosod_iteration"


def test_nosod_iteration_quiet_on_honest_run():
    trace = run_protocol("nosod-complete", build_complete(20), 0.5, 2.0, RandomAdversary(1))[2]
    assert validate.check_nosod_iterations(trace, 0.5, 2.0) == []


def _kn_round_trace(acks, m_after):
    """One primary simple round on K_4096 at alpha 0.2 from k = 100 and
    h = 10,841,600, whose step B delivers ``acks`` and leaves M = ``m_after``.
    The arcs are K_8's: the round checks read only n and the columns."""
    topo = dataclasses.replace(build_complete(8), n=4096)
    trace = Trace(topo)
    state = NetworkState(build_complete(8))
    trace.record(state, 0, 0, 0)
    trace.mark("simple_rounds", rounds=1, primary=True)
    trace.record(state, 0, 0, 0)
    trace.record(state, 0, 0, 0)
    trace._data[0, 1:3] = 100, 10_841_600
    trace._data[0, 7] = 2 * 4095 * 100 + 10_841_600
    trace._data[2, 6:8] = acks, m_after
    trace.summary = {"protocol": "almost-kn"}
    return trace


@pytest.mark.parametrize("acks, m_after, found", [
    (7_194_368, 9_794_904, []),
    (7_194_367, 9_794_904, ["thm2_acks"]),
    (7_194_368, 9_794_905, ["thm2_measure"]),
])
def test_kn_round_checks_are_exact(acks, m_after, found):
    """(1-alpha)^2 (k(n-k) + h) = 0.64 * 11,241,200 = 7,194,368 acks and
    (1-c) M = 0.84 * 11,660,600 = 9,794,904 exactly: a count that meets its
    bound passes, one past it fails, whatever a float product rounds to."""
    bad = validate.check_kn_rounds(_kn_round_trace(acks, m_after), 0.2, 2.0)
    assert [(v.check, v.where, v.level) for v in bad] == [(c, 2, validate.ERROR) for c in found]


@pytest.mark.parametrize("h_after, found", [(15_900, []), (15_901, ["nosod_iteration"])])
def test_nosod_iteration_shrink_is_exact(h_after, found):
    """At alpha 0.2, Y = 0.728 and an iteration from h = 25,000 that informs
    nobody must leave h <= (1 - Y/2) 25,000 = 15,900."""
    trace = _stalled_iteration_trace()
    trace.topo = dataclasses.replace(trace.topo, n=4096)  # X(n-2) = 25,587.5
    trace._data[:, 2] = 25_000
    trace._data[-1, 2] = h_after
    bad = validate.check_nosod_iterations(trace, 0.2, 2.0)
    assert [v.check for v in bad] == found


def _thin_quorum_trace():
    trace = Trace(build_complete(30))
    trace.mark("sod_phase2", qualifying=5, threshold=36, senders=5)
    return trace


def test_phase2_quorum_fires():
    bad = validate.check_phase2_quorum(_thin_quorum_trace(), 0.5, 2.0)
    assert len(bad) == 1 and bad[0].level == validate.ERROR


@pytest.mark.parametrize("n, below_min, level", [(32, True, validate.ERROR),
                                                  (8, False, validate.INFO)])
def test_final_bound_level_follows_the_arguments(n, below_min, level):
    """The level of a final bound comes from the (alpha, eps) the check is
    given, through bounds.asserted, not from the summary's run-time below_min.
    At alpha 0.5 and eps 1.5, n_min is 15."""
    trace = Trace(build_complete(n))
    trace.record(NetworkState(trace.topo), 0, 0, 0)  # nobody informed: k = n - 1
    trace.summary = {"protocol": "almost-kn", "alpha": 0.5, "eps": 2.0, "below_min": below_min}
    bad = validate.check_final_bounds(trace, 0.5, 1.5)
    assert [(v.check, v.level) for v in bad] == [("final_k", level)]


@pytest.mark.parametrize("topo, protocol, eps, limits", [
    (build_complete(32), "almost-kn", 1.5, (6, 120)),
    (build_hypercube(13), "hypercube", 0.5, (8, 48)),
], ids=["K_32", "Q_13"])
def test_final_bounds_are_the_almost_complete_limits(topo, protocol, eps, limits):
    """At alpha 0.5, X = 4: Theorem 2 leaves k <= X*eps = 6 and h <= X(n-2) =
    120 on K_32 at eps 1.5, Theorem 3 k <= X/(1-eps) = 8 and h <= X(d-1) = 48
    on Q_13 at eps 0.5.  Both sizes are at or above n_min or d_min, so one
    more of either is an error."""
    assert bounds.almost_complete_limits(topo, 0.5, eps) == limits
    trace = Trace(topo)
    trace.record(NetworkState(topo), 0, 0, 0)
    trace.summary = {"protocol": protocol}
    k, h = limits
    for final, found in (((k, h), []), ((k + 1, h), ["final_k"]), ((k, h + 1), ["final_h"])):
        trace._data[-1, 1:3] = final
        bad = validate.check_final_bounds(trace, 0.5, eps)
        assert [(v.check, v.level) for v in bad] == [(c, validate.ERROR) for c in found]


def test_validate_trace_default_eps_follows_topology(monkeypatch):
    trace = run_protocol("hypercube", build_hypercube(4), 0.5, 0.5, RandomAdversary(0))[2]
    trace.summary = {}
    seen = []
    monkeypatch.setattr(validate, "check_qd_rounds",
                        lambda trace, alpha, eps: seen.append(eps) or [])
    validate.validate_trace(trace, 0.5)
    assert seen == [0.5]  # ExperimentConfig's hypercube default, not K_n's 2.0


def test_validate_trace_needs_an_alpha():
    with pytest.raises(InvalidParameterError, match="needs an alpha"):
        validate.validate_trace(Trace(build_complete(8)))


def test_validate_trace_full_run_clean():
    trace = almost_complete_kn(32, 0.5, 2.0, RandomAdversary(2))
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
        execute_step(state, SendBatch(arcs, INFO), CheatingAdversary(), 0.5)


def test_cheating_adversary_rejected_mid_protocol():
    with pytest.raises(AdversaryViolation):
        almost_complete_kn(8, 0.5, 2.0, CheatingAdversary())


# ---------------------------------------------------------------------------
# Validation over stored rows: a run must give the same answer as its steps


def _without_runs(trace):
    """``trace`` re-recorded with one stored row per step."""
    flat = Trace(trace.topo, track_boundary=trace.track_boundary)
    names = engine._COLUMNS + ("boundary",) * trace.track_boundary
    table = np.empty((len(trace), len(names)), dtype=np.int64)
    for i, name in enumerate(names):
        table[:, i] = trace.column(name)
    flat._blocks = [table]
    flat._rows = flat._len = len(trace)
    flat.segments, flat.summary = trace.segments, trace.summary
    return flat


def _over_budget_run_trace():
    """An executed step, then a 4-step run that loses 10 of 10 on K_8 (budget 6)."""
    topo = build_complete(8)
    trace = Trace(topo)
    state = NetworkState(topo)
    trace.record(state, m_sent=10, m_lost=5, acks=0)
    trace.record_block(state, [(10, 10)], 4)
    trace.record(state, m_sent=3, m_lost=3, acks=0)
    return trace


def _over_budget_periodic_run_trace(rows=((20, 10), (10, 10))):
    """An executed step, then three repetitions of a template whose second
    row loses 10 of 10 on K_8 (budget 6)."""
    topo = build_complete(8)
    trace = Trace(topo)
    state = NetworkState(topo)
    trace.record(state, m_sent=10, m_lost=5, acks=0)
    trace.record_block(state, list(rows), 3)
    return trace


_PERIOD_4_ROWS = ((20, 10), (10, 10), (0, 0), (8, 4))  # a multiplexed lane block's shape


def _k_rises_after_run_trace():
    """k rises and b falls on the first record after a run."""
    topo = build_complete(6)
    trace = Trace(topo)
    state = NetworkState(topo)
    state.informed[:3] = True
    state.passive[:4] = True
    state.version += 1
    trace.record(state, 0, 0, 0)
    trace.record_block(state, [(1, 1)], 5)
    trace.record(state, 0, 0, 0)
    trace._data[2, 1] += 1  # k
    trace._data[2, 3] -= 1  # b
    return trace


def _straddled_rounds_trace(topo):
    """Primary simple rounds whose records 2-4 are one run: round (0, 1, 2)
    ends in the run, (2, 3, 4) lies in it and (4, 5, 6) starts in it."""
    trace = Trace(topo, track_boundary=topo.kind == HYPERCUBE)
    state = NetworkState(topo)
    trace.record(state, 0, 0, 0)
    trace.mark("simple_rounds", rounds=3, primary=True)
    trace.record(state, 1, 1, 0)
    trace.record_block(state, [(1, 1)], 3)
    trace.record(state, 1, 1, 0)
    trace.record(state, 1, 1, 0)
    trace._data[0, 3] = 2  # b before the rounds, so passive growth falls short
    trace._data[:, 6] = np.arange(5)  # each stored row delivers its own ack count
    return trace


def _doctored_traces():
    return {
        "budget": _doctored_trace(),
        "rising-k": _rising_k_trace(),
        "incomplete-sod": _incomplete_sod_trace(),
        "stalled-iteration": _stalled_iteration_trace(),
        "stalled-iteration-run": _stalled_iteration_trace(run=4),
        "thin-quorum": _thin_quorum_trace(),
        "over-budget-run": _over_budget_run_trace(),
        "over-budget-periodic-run": _over_budget_periodic_run_trace(),
        "over-budget-period-4-run": _over_budget_periodic_run_trace(_PERIOD_4_ROWS),
        "k-rises-after-run": _k_rises_after_run_trace(),
        "straddled-kn-rounds": _straddled_rounds_trace(build_complete(40)),
        "straddled-qd-rounds": _straddled_rounds_trace(build_hypercube(4)),
    }


@pytest.mark.parametrize("name", list(_doctored_traces()))
def test_doctored_runs_validate_like_their_steps(name):
    trace = _doctored_traces()[name]
    eps = 2.0 if trace.topo.kind == COMPLETE else 0.5
    bad = validate.validate_trace(trace, 0.5, eps)
    assert bad
    assert bad == validate.validate_trace(_without_runs(trace), 0.5, eps)


def test_run_violations_land_on_record_indices():
    bad = validate.check_budget(_over_budget_run_trace(), 0.5)
    assert [v.where for v in bad] == [1, 2, 3, 4]
    assert {v.message for v in bad} == {"lost 10 of 10 sent, budget 6"}
    bad = validate.check_budget(_over_budget_periodic_run_trace(), 0.5)
    assert [v.where for v in bad] == [2, 4, 6]
    bad = validate.check_budget(_over_budget_periodic_run_trace(_PERIOD_4_ROWS), 0.5)
    assert [v.where for v in bad] == [2, 6, 10]
    assert {v.message for v in bad} == {"lost 10 of 10 sent, budget 6"}
    bad = validate.check_monotone(_k_rises_after_run_trace())
    assert [(v.check, v.where) for v in bad] == [("monotone_k", 6), ("monotone_b", 6)]
    bad = validate.check_kn_rounds(_straddled_rounds_trace(build_complete(40)), 0.5, 2.0)
    assert [(v.where, v.message.split()[0]) for v in bad if v.check == "thm2_acks"] == [
        (2, "2"), (4, "2"), (6, "4")]


@pytest.mark.parametrize("build,alpha,eps", [
    (lambda: run_protocol("nosod-complete", build_complete(16), 0.5, 2.0, RandomAdversary(0))[2],
     0.5, 2.0),
    (lambda: run_protocol("nosod-complete", build_complete(64), 0.55, 2.0, RandomAdversary(0))[2],
     0.55, 2.0),
    (lambda: run_protocol("hypercube", build_hypercube(5), 0.5, 0.5, RandomAdversary(1))[2],
     0.5, 0.5),
    (lambda: almost_complete_kn(64, 0.7, 2.0, RandomAdversary(0)), 0.7, 2.0),
], ids=["nosod-16", "nosod-64", "hypercube-5", "almost-kn-64-steady"])
def test_protocol_runs_validate_like_their_steps(build, alpha, eps):
    trace = build()
    flat = _without_runs(trace)
    # Read at alpha = 0.3 too, the budget and round checks fire.
    for checked_alpha in (alpha, 0.3):
        bad = validate.validate_trace(trace, checked_alpha, eps)
        assert bad == validate.validate_trace(flat, checked_alpha, eps)
    assert bad
