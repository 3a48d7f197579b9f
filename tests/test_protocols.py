"""Protocol schedules: greedy bounds, theorem finals, SoD phases, locality."""

import gc
import hashlib
import math
import weakref
from functools import partial

import numpy as np
import pytest

from faultcast import bounds, harness, protocols
from faultcast.adversary import (AckSuppressor, AdversaryPolicy, RandomAdversary, VictimGuard,
                                 make_adversary)
from faultcast.engine import (INFO, NetworkState, SendBatch, Trace, execute_step,
                              fault_budget, forced)
from faultcast.errors import (AdversaryViolation, InvalidParameterError, ScheduleOverrun,
                              SimError, UnsupportedAlphaError, UnsupportedTopologyError)
from faultcast.protocols import (AllButOneDriver, BATCH, Driver, EliminationDriver,
                                 GreedyCompleteDriver, IdleDriver, SeqDriver, Session,
                                 SimpleRoundsDriver, SweepDriver, make_driver)
from faultcast.topology import COMPLETE, HYPERCUBE, build_complete, build_hypercube
from faultcast.validate import errors_only, validate_trace

ADVERSARIES = [
    lambda topo, seed: RandomAdversary(seed),
    lambda topo, seed: VictimGuard(topo.n - 1, seed),
    lambda topo, seed: AckSuppressor(seed),
]
ADVERSARY_IDS = ["random", "victim_guard", "ack_suppressor"]


# ---------------------------------------------------------------------------
# Greedy init lower bounds (Lemmas 1 and 3)


@pytest.mark.parametrize("n,alpha,minimum", [
    (10, 0.5, 6),   # 1 + min{5, 4.5} = 5.5 -> at least 6 informed
    (4, 0.5, 3),    # 1 + min{2, 1.5} = 2.5 -> 3
    (2, 0.5, 2),    # budget 0 on the single message
])
def test_greedy_complete_examples(n, alpha, minimum):
    for seed in range(5):
        state = harness.run_protocol("greedy-kn", build_complete(n), alpha, 2.0,
                                     RandomAdversary(seed))[0]
        assert int(np.count_nonzero(state.informed)) >= minimum


@pytest.mark.parametrize("d,alpha,minimum", [
    (4, 0.5, 2),    # (1-alpha)(2d-1)/2 = 1.75 -> 2
    (8, 0.25, 6),   # 0.75*15/2 = 5.625 -> 6
    (1, 0.5, 2),    # budget 0
])
def test_greedy_hypercube_examples(d, alpha, minimum):
    for seed in range(5):
        state = harness.run_protocol("greedy-qd", build_hypercube(d), alpha, 0.5,
                                     RandomAdversary(seed))[0]
        assert int(np.count_nonzero(state.informed)) >= minimum


def test_greedy_bounds_hold_for_adversarial_policies():
    for make in ADVERSARIES:
        topo = build_complete(12)
        state = harness.run_protocol("greedy-kn", topo, 0.6, 2.0, make(topo, 0))[0]
        lower = 1 + min(12 / 2.0, 11 * 0.4)
        assert np.count_nonzero(state.informed) >= math.ceil(lower - 1e-9)


# ---------------------------------------------------------------------------
# Schedule lengths


def test_schedule_lengths_exact():
    r = bounds.rounds_kn(16, 0.5)
    tr = protocols.almost_complete_kn(16, 0.5, 2.0, RandomAdversary(0))
    assert tr.total_steps == 2 + 2 * r

    t1, t2 = bounds.rounds_hypercube(5, 0.5, 0.5)
    tr = harness.run_protocol("hypercube", build_hypercube(5), 0.5, 0.5, RandomAdversary(0))[2]
    assert tr.total_steps == 2 + 2 * (t1 + t2)

    l1, l2, l3, l4 = bounds.l_params(16, 0.5, 2.0)
    tr = harness.run_protocol("nosod-complete", build_complete(16), 0.5, 2.0,
                              RandomAdversary(0))[2]
    assert tr.total_steps == 2 + 2 * r + l1 * (l2 * l3 + 2 * l4)


@pytest.mark.parametrize("protocol, alphas", [("almost-kn", (0.3, 0.5, 0.7)),
                                              ("sod-all-but-one", (0.3, 0.5, 0.7)),
                                              ("sod-complete", (0.3, 0.5, 0.7)),
                                              ("nosod-complete", (0.3, 0.5, 0.55))])
def test_kn_schedules_take_log_n_steps(protocol, alphas):
    """The paper's time bound O(D log n) on K_n, where D = 1, from the closed
    forms alone: from K_64 to K_{2^20} (eps 2), each 4-fold n adds about the
    same number of steps, the largest increment at most 1.25 times the
    smallest.  A length that grew as n or log^2 n would fail."""
    for alpha in alphas:
        lengths = [protocols.PROTOCOLS[protocol].steps(4 ** i, None, alpha, 2.0, None)
                   for i in range(3, 11)]
        added = np.diff(lengths)
        assert 0 < added.min() and added.max() <= 1.25 * added.min(), (alpha, added.tolist())


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_hypercube_schedule_takes_d_squared_steps(alpha):
    """The same bound on Q_d, where D = log n = d: from Q_4 to Q_30 (eps
    0.5), steps/d^2 never increases."""
    per_d2 = [protocols.PROTOCOLS["hypercube"].steps(1 << d, d, alpha, 0.5, None) / d ** 2
              for d in range(4, 31)]
    assert all(b <= a for a, b in zip(per_d2, per_d2[1:])), per_d2


def test_eps_domains():
    with pytest.raises(InvalidParameterError):
        protocols.almost_complete_kn(16, 0.5, 0.5, RandomAdversary(0))
    with pytest.raises(InvalidParameterError):
        harness.run_protocol("hypercube", build_hypercube(4), 0.5, 2.0, RandomAdversary(0))


def test_nosod_rejects_alpha_06():
    with pytest.raises(UnsupportedAlphaError):
        harness.run_protocol("nosod-complete", build_complete(16), 0.6, 2.0,
                             RandomAdversary(0))


def test_nosod_refuses_more_than_10_4_passes():
    """The 2 L1 passes are built up front, so an L1 = ceil(X*eps) past 10^4
    is refused at once, by the closed form and by the builder.  At alpha 0.5,
    X = 4."""
    topo = build_complete(3)
    entry = protocols.PROTOCOLS["nosod-complete"]
    assert bounds.l_params(3, 0.5, 2500.0)[0] == 10**4
    assert entry.steps(3, None, 0.5, 2500.0, None)
    for alpha, eps, l1 in ((0.5, 2500.25, 10_001), (1e-5, 2.0, 200_003)):
        for call in (lambda: entry.steps(3, None, alpha, eps, None),
                     lambda: protocols.make_driver("nosod-complete", topo, alpha, eps,
                                                   NetworkState(topo))):
            with pytest.raises(InvalidParameterError, match=f"L1 = {l1} elimination passes"):
                call()


def test_make_driver_topology_mismatch():
    topo = build_hypercube(3)
    state = NetworkState(topo)
    with pytest.raises(UnsupportedTopologyError):
        make_driver("almost-kn", topo, 0.5, 2.0, state)
    kn = build_complete(4)
    with pytest.raises(UnsupportedTopologyError):
        make_driver("hypercube", kn, 0.5, 0.5, NetworkState(kn))
    with pytest.raises(InvalidParameterError):
        make_driver("no-such-protocol", kn, 0.5, 2.0, NetworkState(kn))


def test_sod_requires_labeling():
    topo = build_complete(8)  # no chordal labeling
    with pytest.raises(UnsupportedTopologyError):
        AllButOneDriver(topo, 0, 0.5, 2.0, state=NetworkState(topo))


# ---------------------------------------------------------------------------
# Theorem finals on moderate instances


def test_almost_kn_final_bounds():
    x = 4.0
    for make in ADVERSARIES:
        topo_probe = build_complete(32)
        tr = protocols.almost_complete_kn(32, 0.5, 2.0, make(topo_probe, 1))
        assert tr.final_k <= x * 2.0
        assert tr.final_h <= x * 30
        assert not errors_only(validate_trace(tr, 0.5, 2.0))


def test_hypercube_final_bounds():
    x = 4.0
    for make in ADVERSARIES:
        topo = build_hypercube(6)
        tr = harness.run_protocol("hypercube", topo, 0.5, 0.5, make(topo, 1))[2]
        assert tr.final_k <= x / 0.5
        assert tr.final_h <= x * 5
        assert not errors_only(validate_trace(tr, 0.5, 0.5))


def test_hypercube_round_lemmas_above_d_min():
    # d = 13 >= d_min(0.5, 0.5): the Lemma 4/5/6 per-round checks are strict.
    tr = harness.run_protocol("hypercube", build_hypercube(13), 0.5, 0.5,
                              RandomAdversary(0))[2]
    assert tr.final_k <= 8
    assert not errors_only(validate_trace(tr, 0.5, 0.5))


def test_sod_complete_all_adversaries():
    for make in ADVERSARIES:
        topo = protocols.build_topology("sod-complete", COMPLETE, 24)
        tr = harness.run_protocol("sod-complete", topo, 0.5, 2.0, make(topo, 2))[2]
        assert tr.final_k == 0
        assert not errors_only(validate_trace(tr, 0.5, 2.0))


def test_nosod_complete_all_adversaries():
    for make in ADVERSARIES:
        topo = build_complete(24)
        tr = harness.run_protocol("nosod-complete", topo, 0.5, 2.0, make(topo, 2))[2]
        assert tr.final_k == 0
        assert not errors_only(validate_trace(tr, 0.5, 2.0))


def test_sod_candidate_set_covers_uninformed():
    # The harness-observer invariant: every uninformed vertex is in U, and
    # |U| stays within 3X(1+eps).
    topo = protocols.build_topology("sod-all-but-one", COMPLETE, 32)
    for seed in range(4):
        _, driver, tr = harness.run_protocol("sod-all-but-one", topo, 0.5, 2.0,
                                             VictimGuard(31, seed))
        assert tr.final_k <= 1
        u = next((u for u in driver.ctx.u_final.values() if u is not None), None)
        assert u is not None
        assert len(u) <= 3 * 4.0 * 3.0
        # Reconstruct the uninformed set from the trace summary.
        if tr.final_k == 1:
            assert len(u) >= 1


def test_sod_phase2_threshold_value():
    topo = build_complete(64, chordal=True)
    driver = AllButOneDriver(topo, 0, 0.5, 2.0, state=NetworkState(topo))
    assert driver.threshold == 36  # 3 * 4 * (1 + 2)


def _sod_lane(driver: AllButOneDriver, b: int):
    """The (phase-3, phase-4) LazyDrivers of collector b."""
    return driver.children[3].lanes[b].children


def test_phase4_pair_order():
    topo = build_complete(6, chordal=True)
    state = NetworkState(topo)
    driver = AllButOneDriver(topo, 0, 0.5, 2.0, state=state)
    _, sweep = _sod_lane(driver, 0)
    driver.ctx.u_final[0] = frozenset({4, 2})
    session = driver.ctx.session[0] = Session(topo, 0)
    session.aware[[1, 3]] = True
    sent = []
    while not sweep.done():
        kind, batch = sweep.next(state, False)
        assert kind == BATCH
        sent.append((set(topo.arc_src[batch.arcs].tolist()),
                     set(topo.arc_dst[batch.arcs].tolist())))
    assert sweep.inner.groups == [(2,), (2, 4), (4, 2), (4,)]
    assert sent[:4] == [({0, 1, 3}, {2}), ({0, 1, 3}, {2, 4}), ({0, 1, 3}, {2, 4}),
                        ({0, 1, 3}, {4})]
    assert sent[4:] == [(set(), set())] * (sweep.total_steps - 4)
    assert sweep.total_steps == 25  # cap 5 on K_6, squared
    # Collector 1 holds no candidate set: its phase 4 idles.
    idle = _sod_lane(driver, 1)[1]
    assert idle.next(state, False)[1].m == 0
    assert isinstance(idle.inner, IdleDriver) and idle.inner.total_steps == 25


def test_intersection_semantics():
    topo = build_complete(12, chordal=True)
    state = NetworkState(topo)
    driver = AllButOneDriver(topo, 0, 0.5, 2.0, state=state)
    driver.ctx.received[0] = [frozenset({3, 7, 9}), frozenset({3, 7})]
    for b in (0, 1):
        _sod_lane(driver, b)[0].next(state, False)
    assert driver.ctx.u_final[0] == frozenset({3, 7})
    assert isinstance(_sod_lane(driver, 0)[0].inner, SeqDriver)
    # Collector 1 received no candidate set: its phase 3 idles.
    assert driver.ctx.u_final[1] is None
    assert isinstance(_sod_lane(driver, 1)[0].inner, IdleDriver)


class KillFirst(AdversaryPolicy):
    """Kills the first message of every batch of two or more."""

    id = "kill_first"
    exhaustive = False

    def decide(self, ctx, batch, budget):
        return np.arange(1 if batch.m > 1 else 0, dtype=np.int64)


def test_sweep_marks_deliveries_and_counts_empty_tail():
    topo = build_complete(6)
    state = NetworkState(topo)
    knows = np.zeros(topo.n, dtype=bool)
    sweep = SweepDriver(topo, 5, np.array([0]), [(3,), (1, 4)], knows_sink=knows)
    assert sweep.quiet_run(state) is None  # the groups are still to be sent
    for _ in range(2):
        _, batch = sweep.next(state, False)
        sweep.absorb(state, execute_step(state, batch, KillFirst(), 0.5))
    # Step 2 sent 0->1 and 0->4; the adversary killed 0->1.
    assert np.flatnonzero(knows).tolist() == [3, 4]
    assert sweep.quiet_run(state) == ((0,), 3)
    kind, batch = sweep.next(state, False)
    assert kind == BATCH and batch.m == 0
    assert sweep.quiet_run(state) == ((0,), 2)
    sweep.skip(2)
    assert sweep.done()


def test_odd_skip_of_empty_rounds_keeps_the_step_position():
    """An empty round's quiet run has period 1, so a multiplex may skip an odd
    count of it; the driver then stands at the step B of a round."""
    topo = build_complete(6)
    state = NetworkState(topo)
    session = Session(topo, 0)
    session.marks[:] = True  # nothing left to flood
    driver = SimpleRoundsDriver(session, 3, 0.5)
    steps = 0

    def step():
        kind, batch = driver.next(state, False)
        assert kind == BATCH and batch.m == 0
        driver.absorb(state, execute_step(state, batch, RandomAdversary(0), 0.5))

    for _ in range(2):  # the first round
        step()
        steps += 1
    assert driver.quiet_run(state) == ((0,), 4)
    driver.skip(3)
    steps += 3
    assert not driver.done() and not driver.phase_a and driver.round_idx == 2
    while not driver.done():
        step()
        steps += 1
    assert steps == driver.total_steps


def _jsonl_digest(trace, tmp_path):
    trace.to_jsonl(tmp_path / "t.jsonl")
    return hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest()


# Keyed outside the test id, so that re-pinning a digest keeps the id.
_SOD_COMPLETE_DIGESTS = {
    (16, 0.5, "random:0"): "2ee751fb451b92f93fae8a642a7fa2562dfae0e3257c37ba5ad394cf2e8716b0",
    (24, 0.7, "ack_suppressor:2"):
        "1f08bad6cbc078ad3207c268d0b1400d05994f3ed28c246e13d349129ba82b20",
}


@pytest.mark.parametrize("n,alpha,adversary", list(_SOD_COMPLETE_DIGESTS))
def test_sod_complete_digest_unchanged(tmp_path, n, alpha, adversary):
    topo = protocols.build_topology("sod-complete", COMPLETE, n)
    trace = harness.run_protocol("sod-complete", topo, alpha, 2.0, make_adversary(adversary))[2]
    assert _jsonl_digest(trace, tmp_path) == _SOD_COMPLETE_DIGESTS[n, alpha, adversary]


def test_sod_all_but_one_digest_unchanged(tmp_path):
    topo = protocols.build_topology("sod-all-but-one", COMPLETE, 24)
    _, driver, trace = harness.run_protocol("sod-all-but-one", topo, 0.7, 2.0,
                                            make_adversary("ack_suppressor:2"))
    assert driver.ctx.u_final == {0: frozenset({22, 23}), 1: frozenset({22, 23})}
    assert _jsonl_digest(trace, tmp_path) == (
        "526f6f160c8968d5d8801a1f4e39350e9449ca350269d03b223777774ff612d9")


@pytest.mark.parametrize("protocol", ["almost-kn", "hypercube", "sod-all-but-one",
                                      "sod-complete", "nosod-complete"])
def test_finished_run_freed_by_refcount(protocol):
    if protocol == "hypercube":
        topo, eps = build_hypercube(5), 0.5
    else:
        topo, eps = build_complete(16, chordal=protocol.startswith("sod")), 2.0
    gc.collect()
    gc.disable()
    try:
        state, driver, trace = harness.run_protocol(protocol, topo, 0.5, eps,
                                                    RandomAdversary(0))
        refs = [weakref.ref(driver), weakref.ref(trace)]
        del state, driver, trace
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_nosod_iteration_segments_present():
    tr = harness.run_protocol("nosod-complete", build_complete(16), 0.5, 2.0,
                              RandomAdversary(0))[2]
    kinds = {s.kind for s in tr.segments}
    assert "nosod_iter" in kinds or "nosod_inert_tail" in kinds
    assert "simple_rounds" in kinds and "greedy" in kinds


def test_nosod_complete_is_one_flat_sequence():
    topo = build_complete(16)
    driver = make_driver("nosod-complete", topo, 0.5, 2.0, NetworkState(topo))
    l1, l2, l3, l4 = bounds.l_params(16, 0.5, 2.0)
    assert isinstance(driver, SeqDriver)
    assert [type(c) for c in driver.children] == (
        [GreedyCompleteDriver, SimpleRoundsDriver] + [EliminationDriver, SimpleRoundsDriver] * l1)
    assert len({id(c) for c in driver.children}) == len(driver.children)
    assert driver.total_steps == 2 + 2 * bounds.rounds_kn(16, 0.5) + l1 * (l2 * l3 + 2 * l4)


class _EliminationStaller(AdversaryPolicy):
    """Kills the messages to uninformed vertices first, then those whose
    delivery would make a hyperactive arc passive, then the rest."""

    id = "elimination_staller"

    def decide(self, ctx, batch, budget):
        topo, state = ctx.topo, ctx.state
        to_uninformed = ~state.informed[topo.arc_dst[batch.arcs]]
        back = topo.opp[batch.arcs]  # the arc each delivery marks passive
        hyper = (state.informed[topo.arc_src[back]] & state.informed[topo.arc_dst[back]]
                 & ~state.passive[back])
        order = np.concatenate([np.flatnonzero(to_uninformed),
                                np.flatnonzero(~to_uninformed & hyper),
                                np.flatnonzero(~to_uninformed & ~hyper)])
        return order[:min(batch.m, budget)]


def test_nosod_extended_rounds_digest_unchanged(tmp_path):
    """The L1 extended rounds of nosod-complete alone, on K_6 from three
    informed vertices, against an adversary under which no iteration and no
    L4 round goes inert: every step of every pass executes."""
    topo = build_complete(6)
    state = NetworkState(topo)
    state.informed[:3] = True
    state.version += 1
    driver = SeqDriver(make_driver("nosod-complete", topo, 0.3, 2.0, state).children[2:])
    _, trace = protocols.simulate(topo, driver, _EliminationStaller(), 0.3, state=state)
    l1, l2, l3, l4 = bounds.l_params(6, 0.3, 2.0)
    kinds = [s.kind for s in trace.segments]
    assert len(trace) == l1 * (l2 * l3 + 2 * l4) == 1200
    assert (kinds.count("nosod_iter"), kinds.count("simple_rounds")) == (l1 * l2, l1) == (100, 10)
    assert "nosod_inert_tail" not in kinds
    assert _jsonl_digest(trace, tmp_path) == (
        "892cc1c9160edcc7ebd51e9ebef3977489d613d2e708362d0a874f5ab03f06cf")


class _Logging(AdversaryPolicy):
    """Delegates every kill set to ``inner`` and logs (batch size, kill set)
    by step.  With ``exhaustive=False`` no driver fast-forwards a step."""

    def __init__(self, inner, exhaustive):
        self.inner = inner
        self.id = inner.id
        self.exhaustive = exhaustive
        self.log = {}

    def decide(self, ctx, batch, budget):
        kills = np.asarray(self.inner.decide(ctx, batch, budget), dtype=np.int64)
        self.log[ctx.step_index] = (batch.m, kills.tobytes())
        return kills


class _StepCountingTrace(Trace):
    record_steps = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.drawn_steps = []  # of them, the steps whose kill set is not forced

    def record_step(self, state, report):
        self.record_steps += 1
        if not forced(report.batch.m, report.budget):
            self.drawn_steps.append(state.step_index - 1)
        super().record_step(state, report)


def _assert_same_state(state, other):
    """Both runs end on the same informed and passive sets at the same step."""
    assert np.array_equal(state.informed, other.informed)
    assert np.array_equal(state.passive, other.passive)
    assert state.step_index == other.step_index


def _traced(protocol, topo, alpha, adversary):
    eps = 0.5 if topo.kind == HYPERCUBE else 2.0
    state = NetworkState(topo)
    driver = make_driver(protocol, topo, alpha, eps, state)
    return protocols.simulate(topo, driver, adversary, alpha, state=state,
                              trace=_StepCountingTrace(topo, track_boundary=True))


_FAST_FORWARD_CASES = [
    ("K16", "almost-kn", build_complete(16), (0.3, 0.5, 0.7)),
    ("K64", "almost-kn", build_complete(64), (0.3, 0.5, 0.7)),
    ("Q6", "hypercube", build_hypercube(6), (0.3, 0.5, 0.7)),
    ("Q8", "hypercube", build_hypercube(8), (0.3, 0.5, 0.7)),
    ("sod-complete-K16", "sod-complete", build_complete(16, chordal=True), (0.3, 0.5)),
    ("sod-complete-K64", "sod-complete", build_complete(64, chordal=True), (0.5,)),
    ("sod-complete-K256", "sod-complete", build_complete(256, chordal=True), (0.5,)),
    ("sod-all-but-one-K24", "sod-all-but-one", build_complete(24, chordal=True), (0.3, 0.5)),
    ("nosod-complete-K16", "nosod-complete", build_complete(16), (0.3, 0.5)),
]


@pytest.mark.parametrize("protocol, topo, make_adv, alpha", [
    pytest.param(protocol, topo, make_adv, alpha, id=f"{case}-{adv_id}-{alpha}")
    for case, protocol, topo, alphas in _FAST_FORWARD_CASES
    for make_adv, adv_id in zip(ADVERSARIES, ADVERSARY_IDS) for alpha in alphas])
def test_inert_fast_forward_matches_stepped(protocol, topo, make_adv, alpha):
    """Blocks (dead-round tails, elimination tails, idle lanes, steady rounds)
    and forced kill sets agree row for row with stepping every batch through
    the same policy.  At alpha 0.3, sod-complete K_16 against
    ``victim_guard:15`` skips hundreds of dead info batches; sod-complete
    K_64 and K_256 take most of their blocks inside multiplexed lanes."""
    fast = _Logging(make_adv(topo, 9), exhaustive=True)
    stepped = _Logging(make_adv(topo, 9), exhaustive=False)
    (state, trace), (state_s, trace_s) = (_traced(protocol, topo, alpha, adv)
                                          for adv in (fast, stepped))
    assert len(fast.log) < len(stepped.log) == len(trace_s)
    for name in ("step", "k", "h", "b", "m_sent", "m_lost", "acks", "M", "boundary"):
        assert np.array_equal(trace.column(name), trace_s.column(name)), name
    _assert_same_state(state, state_s)
    # The columns are blind to which arcs delivered, the kill sets are not:
    # skipping a dead batch must not shift the policy's random stream.
    assert fast.log.items() <= stepped.log.items()
    # A steady round asks for its step-A kill set but steps nothing; under
    # ``random`` K_64 at alpha 0.7 and Q_8 at every alpha end in steady rounds.
    assert len(trace.drawn_steps) <= len(fast.log)
    if make_adv is ADVERSARIES[0] and (topo.d == 8 if topo.kind == HYPERCUBE
                                       else topo.n == 64 and alpha == 0.7):
        assert len(trace.drawn_steps) < len(fast.log)


class _SparesInRound(AdversaryPolicy):
    """``random``, but kills one message fewer in the step A at ``step``.  It
    defines only ``decide``, so a steady block asks it round by round."""

    def __init__(self, step, exhaustive=True):
        self.inner = RandomAdversary(0)
        self.id = self.inner.id
        self.step = step
        self.exhaustive = exhaustive

    def decide(self, ctx, batch, budget):
        kills = self.inner.decide(ctx, batch, budget)
        return kills[1:] if ctx.step_index == self.step else kills


def test_steady_round_rejects_a_spared_message():
    """A policy that claims to be exhaustive must kill min(m, budget) in a
    steady round too, where nothing is stepped to show the difference."""
    last_step_a = 2 * bounds.rounds_kn(64, 0.7)
    with pytest.raises(AdversaryViolation, match="exhaustive"):
        protocols.almost_complete_kn(64, 0.7, 2.0, _SparesInRound(last_step_a))
    # Within the budget, the same kill sets are legal for a non-exhaustive policy.
    trace = protocols.almost_complete_kn(64, 0.7, 2.0, _SparesInRound(last_step_a, False))
    m = int(trace.column("m_sent")[last_step_a])
    assert trace.column("m_lost")[last_step_a] == fault_budget(m, 63, 0.7) - 1


@pytest.mark.parametrize("make_adv", ADVERSARIES, ids=ADVERSARY_IDS)
@pytest.mark.parametrize("protocol, topo, alpha", [
    ("almost-kn", build_complete(64), 0.7), ("hypercube", build_hypercube(8), 0.5),
    ("sod-complete", build_complete(64, chordal=True), 0.5),
    ("sod-complete", build_complete(256, chordal=True), 0.5),
], ids=["almost-kn-K64", "hypercube-Q8", "sod-complete-K64", "sod-complete-K256"])
def test_steady_block_draw_matches_round_by_round(protocol, topo, make_adv, alpha):
    """A shipped policy asked for a steady block's kill sets at once gives the
    trace and leaves the generator as the per-round default does, which
    ``_Logging`` takes since it defines only ``decide``.  K_64 under
    ``random`` asks for its 663-round block in three chunks.  On sod-complete
    the blocks of two merged lanes draw two or four steps per repetition;
    there lanes can turn steady some steps apart (under ``victim_guard`` on
    K_256), and a steady lane is stepped until the other lane is quiet too."""
    bare = make_adv(topo, 9)
    logged = _Logging(make_adv(topo, 9), exhaustive=True)
    (state, trace), (state_l, trace_l) = (_traced(protocol, topo, alpha, adv)
                                          for adv in (bare, logged))
    for name in ("step", "k", "h", "b", "m_sent", "m_lost", "acks", "M", "boundary"):
        assert np.array_equal(trace.column(name), trace_l.column(name)), name
    _assert_same_state(state, state_l)
    assert bare._rng.bit_generator.state == logged.inner._rng.bit_generator.state
    if make_adv is ADVERSARIES[0] or topo.kind == HYPERCUBE or protocol == "sod-complete":
        assert trace.record_steps < len(logged.log)  # the run had a steady block


def test_multiplexed_steady_lanes_are_blocks():
    """A secondary session's steady rounds in a multiplexed lane are a block
    once the other lane is quiet too: sod-complete K_64 executes 254 of its
    10,497 steps under ``random:9``, and 1,326 if such lanes are stepped."""
    topo = build_complete(64, chordal=True)
    _, trace = _traced("sod-complete", topo, 0.5, RandomAdversary(9))
    assert len(trace) == 10_497
    assert trace.record_steps <= 300


class _BreaksBlock(RandomAdversary):
    """``random``, but in each block chunk of at least three rounds that draws
    more than one step if ``lanes`` (else one), the middle row of the last
    drawn step breaks the kill-set contract as ``fault`` says, or the last
    step's rows are left out."""

    def __init__(self, fault, lanes=False):
        super().__init__(0)
        self.fault = fault
        self.lanes = lanes

    def decide_rounds(self, ctx, period, steps, rounds, watch=None):
        kills = [rows.copy() for rows in super().decide_rounds(ctx, period, steps, rounds)]
        mid = rounds // 2
        if rounds < 3 or (len(steps) > 1) != self.lanes:
            return kills
        if self.fault == "repeat":
            kills[-1][mid, 1] = kills[-1][mid, 0]
        elif self.fault == "unsent":
            kills[-1][mid, 0] = steps[-1][1].m
        elif self.fault == "rows":
            kills[-1] = np.delete(kills[-1], mid, axis=0)
        elif self.fault == "steps":
            kills.pop()
        return kills


class _FloatsAt(_SparesInRound):
    """``random``, but its kill set at ``step`` is a float array."""

    def decide(self, ctx, batch, budget):
        kills = self.inner.decide(ctx, batch, budget)
        return kills + 0.5 if ctx.step_index == self.step else kills


_BAD_ROWS = [("repeat", "twice"), ("unsent", "not sent"), ("rows", "shape"),
             ("steps", "0 of 1 drawn steps")]


@pytest.mark.parametrize("adversary, match", [
    *((_BreaksBlock(fault), match) for fault, match in _BAD_ROWS),
    (_SparesInRound(2 * bounds.rounds_kn(64, 0.7) - 600), "exhaustive"),
    (_FloatsAt(2 * bounds.rounds_kn(64, 0.7) - 600), "dtype"),
], ids=[fault for fault, _ in _BAD_ROWS] + ["short", "float"])
def test_steady_block_rejects_a_bad_row_mid_chunk(adversary, match):
    """Every row of a steady chunk is checked, not only its first or last.
    The short and float rows come through the per-round default, 44 rounds
    into the second of the three chunks of K_64's steady block under
    ``random``; a float kill set is not cast to indices."""
    with pytest.raises(AdversaryViolation, match=match):
        protocols.almost_complete_kn(64, 0.7, 2.0, adversary)


@pytest.mark.parametrize("fault, match", [*_BAD_ROWS[:3], ("steps", "1 of 2 drawn steps")],
                         ids=[fault for fault, _ in _BAD_ROWS])
def test_merged_lane_block_rejects_a_bad_row_mid_chunk(fault, match):
    """The same faults in the blocks of two merged lanes, which draw two or
    four steps per repetition on sod-complete K_64: a missing step's rows
    are reported, not cut short by pairing the steps with the rows."""
    topo = protocols.build_topology("sod-complete", COMPLETE, 64)
    with pytest.raises(AdversaryViolation, match=match):
        harness.run_protocol("sod-complete", topo, 0.5, 2.0, _BreaksBlock(fault, lanes=True))


class _AsksAt(RandomAdversary):
    """``random``, logging the step of every ``decide`` call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.asked = []

    def decide(self, ctx, batch, budget):
        self.asked.append(ctx.step_index)
        return super().decide(ctx, batch, budget)


@pytest.mark.parametrize("n", [64, 256])
def test_blocks_do_not_ask_decide(n):
    """A shipped policy draws every block through ``decide_rounds``, so only
    executed steps whose kill set is drawn ask ``decide``, each once; the
    blocks of merged lanes on sod-complete ask it at none of their steps."""
    adv = _AsksAt(9)
    _, trace = _traced("sod-complete", build_complete(n, chordal=True), 0.5, adv)
    assert adv.asked and len(set(adv.asked)) == len(adv.asked)
    assert set(adv.asked) <= set(trace.drawn_steps)


@pytest.mark.parametrize("make_adv", ADVERSARIES, ids=ADVERSARY_IDS)
@pytest.mark.parametrize("protocol, topo, alpha", [
    ("almost-kn", build_complete(32), 0.7), ("hypercube", build_hypercube(7), 0.5),
    ("nosod-complete", build_complete(16), 0.5),
    ("sod-complete", build_complete(32, chordal=True), 0.5),
    ("sod-complete", build_complete(16, chordal=True), 0.3),
    ("sod-complete", build_complete(24, chordal=True), 0.7),
    ("sod-complete", build_complete(64, chordal=True), 0.5),
    ("sod-complete", build_complete(256, chordal=True), 0.5),
], ids=["almost-kn", "hypercube", "nosod-complete", "sod-complete", "sod-complete-0.3",
        "sod-complete-K24-0.7", "sod-complete-K64", "sod-complete-K256"])
def test_no_dead_batch_reaches_the_adversary(protocol, topo, make_adv, alpha):
    """A batch of at most c-1 messages, an empty one included, dies whole
    under an exhaustive policy.  The engine applies such a forced kill set
    without asking the policy, inside multiplexed lanes too."""
    adv = _Logging(make_adv(topo, 4), exhaustive=True)
    _traced(protocol, topo, alpha, adv)
    c = topo.edge_connectivity
    dead = [m for m, _ in adv.log.values() if m <= c - 1]
    assert adv.log and not dead


_SPECULATIVE_CASES = {
    "almost-kn-K64-victim_guard": ("almost-kn", build_complete(64), ADVERSARIES[1]),
    "almost-kn-K512-victim_guard": ("almost-kn", build_complete(512), ADVERSARIES[1]),
    "hypercube-Q8-victim_guard": ("hypercube", build_hypercube(8), ADVERSARIES[1]),
    "almost-kn-K16-ack_suppressor": ("almost-kn", build_complete(16), ADVERSARIES[2]),
    "hypercube-Q8-ack_suppressor": ("hypercube", build_hypercube(8), ADVERSARIES[2]),
}


@pytest.mark.parametrize("case", list(_SPECULATIVE_CASES))
def test_speculative_blocks_match_stepped(case):
    """At alpha 0.7 these policies starve a vertex for the rest of the run, so
    its rounds are speculative blocks, which no structural rule could skip.
    The shipped policy (vectorised draws) and a wrapper that defines only
    ``decide`` (per-round draws) give the stepped run's columns, kill sets
    and final generator state, while stepping under a fifth of its steps."""
    protocol, topo, make_adv = _SPECULATIVE_CASES[case]
    bare = make_adv(topo, 9)
    fast = _Logging(make_adv(topo, 9), exhaustive=True)
    stepped = _Logging(make_adv(topo, 9), exhaustive=False)
    (_, trace), (_, trace_f), (_, trace_s) = (_traced(protocol, topo, 0.7, adv)
                                              for adv in (bare, fast, stepped))
    for name in ("step", "k", "h", "b", "m_sent", "m_lost", "acks", "M", "boundary"):
        assert np.array_equal(trace.column(name), trace_s.column(name)), name
        assert np.array_equal(trace_f.column(name), trace_s.column(name)), name
    assert fast.log.items() <= stepped.log.items()
    state = stepped.inner._rng.bit_generator.state
    assert bare._rng.bit_generator.state == fast.inner._rng.bit_generator.state == state
    assert trace_s.final_k > 0
    assert 5 * trace.record_steps < trace_s.record_steps == len(trace_s)


def _starving_state():
    """K_32 with vertices 30 and 31 uninformed.  Vertex 0 alone may still send
    to them; every other frontier arc joins informed vertices and has a
    passive opposite.  The frontier has 40 arcs, at alpha 0.5 30 of them die
    and 10 survive, so its rounds are a speculative block watching 2 arcs."""
    topo = build_complete(32)
    state = NetworkState(topo)
    state.informed[:30] = True
    src, dst = topo.arc_src, topo.arc_dst
    state.passive[:] = state.informed[src] & state.informed[dst]
    state.passive[(src > 0) & (src < 30) & (dst >= 30)] = True
    state.passive[[topo.arc_id(u, u + 1) for u in range(29)]
                  + [topo.arc_id(u, u + 2) for u in range(9)]] = False
    state.version += 1
    return topo, state


class _Positions:
    """Offers only what the benchmark's driver wrapper offers, and records the
    simple-rounds driver's (round, phase A, pending arcs) after each absorb,
    by step index."""

    def __init__(self, inner):
        self.inner = inner
        self.total_steps = inner.total_steps
        self.at = {}

    def attach(self, trace):
        self.inner.attach(trace)

    def done(self):
        return self.inner.done()

    def next(self, state, blocks):
        return self.inner.next(state, blocks)

    def absorb(self, state, report):
        self.inner.absorb(state, report)
        driver = self.inner
        pending = None if driver.pending is None else driver.pending.tolist()
        self.at[state.step_index] = (driver.round_idx, driver.phase_a, pending)


def _starving_run(adversary):
    topo, state = _starving_state()
    driver = _Positions(SimpleRoundsDriver(Session(topo, 0, state=state), 12, 0.5))
    _, trace = protocols.simulate(topo, driver, adversary, 0.5, state=state,
                                  trace=_StepCountingTrace(topo))
    return driver, trace


class _SparesAt(AdversaryPolicy):
    """Kills the messages to uninformed vertices first, then the others in a
    seeded random order; but at ``step`` it kills the others first, so it
    spares every watched message, and ``fault`` may break that kill set.
    It defines only ``decide``, so a speculative block asks it round by round."""

    def __init__(self, step, fault=None):
        self.id = f"spares_at:{step}"
        self.step = step
        self.fault = fault
        self._rng = np.random.default_rng(3)

    def decide(self, ctx, batch, budget):
        ksize = min(batch.m, budget)
        if ksize in (0, batch.m):
            return np.arange(ksize, dtype=np.int64)
        first = ~ctx.state.informed[ctx.topo.arc_dst[batch.arcs]]
        if ctx.step_index == self.step:
            first = ~first
        order = self._rng.permutation(batch.m)
        kills = order[np.argsort(~first[order], kind="stable")][:ksize]
        if ctx.step_index == self.step and self.fault == "short":
            return kills[1:]
        if ctx.step_index == self.step and self.fault == "repeat":
            kills[1] = kills[0]
        return kills


def _sparing_step(log, steps):
    """The first logged step A whose kill set spares arc 0->30 or 0->31."""
    topo, state = _starving_state()
    arcs = Session(topo, 0, state=state).sends(state)
    watched = np.flatnonzero(~state.informed[topo.arc_dst[arcs]])
    return next(step for step in range(0, steps, 2)
                if not np.isin(watched, np.frombuffer(log[step][1], dtype=np.int64)).all())


@pytest.mark.parametrize("make_adv", [
    *(partial(RandomAdversary, seed) for seed in range(4)),
    *(partial(_SparesAt, step) for step in (0, 10, 22))],
    ids=[f"random:{seed}" for seed in range(4)] + [f"spares_at:{r}" for r in (0, 5, 11)])
def test_speculative_block_ends_at_a_sparing_kill_set(make_adv):
    """A speculative block ends at the first round whose kill set spares a
    watched message: at row 0, within a chunk of the vectorised draw
    (``random:0`` at row 1, ``random:2`` at row 4), within the per-round
    default's chunk, or at the last round.  That round's step A is applied;
    the trace, the kill sets, the generator and the driver's position then
    equal the stepped run's."""
    bare = make_adv()
    fast, stepped = _Logging(make_adv(), exhaustive=True), _Logging(make_adv(), exhaustive=False)
    (driver, trace), (driver_f, trace_f), (driver_s, trace_s) = (
        _starving_run(adv) for adv in (bare, fast, stepped))
    spare = _sparing_step(stepped.log, len(trace_s))
    k = trace_s.column("k")
    assert (k[:spare] == 2).all() and k[spare] < 2
    for name in ("step", "k", "h", "b", "m_sent", "m_lost", "acks", "M"):
        assert np.array_equal(trace.column(name), trace_s.column(name)), name
        assert np.array_equal(trace_f.column(name), trace_s.column(name)), name
    assert fast.log.items() <= stepped.log.items()
    state = stepped.inner._rng.bit_generator.state
    assert bare._rng.bit_generator.state == fast.inner._rng.bit_generator.state == state
    for positions in (driver.at, driver_f.at):
        assert positions.items() <= driver_s.at.items()
        assert min(positions) == spare + 1  # the first absorb is the sparing step's
    assert trace.record_steps < trace_s.record_steps


@pytest.mark.parametrize("fault, match", [("short", "exhaustive"), ("repeat", "twice")])
def test_speculative_block_rejects_a_bad_sparing_row(fault, match):
    with pytest.raises(AdversaryViolation, match=match):
        _starving_run(_SparesAt(10, fault=fault))


class _MisplacesSpare(RandomAdversary):
    """``random``, but its watched rows either run past the sparing row or
    stop one short of it."""

    def __init__(self, fault):
        super().__init__(0)
        self.fault = fault

    def decide_rounds(self, ctx, period, steps, rounds, watch=None):
        if watch is None or self.fault == "past":
            return super().decide_rounds(ctx, period, steps, rounds)
        return [rows[:-1] for rows in super().decide_rounds(ctx, period, steps, rounds, watch)]


@pytest.mark.parametrize("fault", ["past", "early"])
def test_speculative_block_checks_where_the_rows_end(fault):
    """``random:0`` spares at row 1 of this block: rows past it, or a stop
    before it, are not the policy's kill sets."""
    with pytest.raises(AdversaryViolation, match="watched"):
        _starving_run(_MisplacesSpare(fault))


class _Replies:
    """Wraps a driver as the benchmark's driver wrapper does, offering only
    ``total_steps``, ``attach``, ``done``, ``next`` and ``absorb``.  Counts
    executed steps and block replies, and checks that each block reply is a
    list of (payload, count) pairs whose counts sum to the steps that
    ``state.step_index`` moves by: the steps the benchmark counts as inert."""

    def __init__(self, inner, state):
        self.inner = inner
        self.state = state
        self.total_steps = inner.total_steps
        self.executed = self.blocks = self.template_rows = 0
        self._claim = None  # (step index before a block reply, steps it covers)

    def attach(self, trace):
        self.inner.attach(trace)

    def done(self):
        if self._claim is not None:  # the run loop has played the last reply
            before, steps = self._claim
            assert self.state.step_index - before == steps
            self._claim = None
        return self.inner.done()

    def next(self, state, blocks):
        kind, val = self.inner.next(state, blocks)
        if kind == BATCH:
            self.executed += 1
        else:
            assert isinstance(val, list)
            assert all(len(pair) == 2 and pair[1] >= 1 for pair in val)
            self._claim = (state.step_index, sum(count for _, count in val))
            self.blocks += 1
            self.template_rows += sum(len(template) for template, _ in val)
        return kind, val

    def absorb(self, state, report):
        self.inner.absorb(state, report)


def _run_wrapped(protocol, topo, alpha, adversary=None):
    eps = 0.5 if topo.kind == HYPERCUBE else 2.0
    state = NetworkState(topo)
    driver = _Replies(make_driver(protocol, topo, alpha, eps, state), state)
    _, trace = protocols.simulate(topo, driver, adversary or RandomAdversary(0), alpha,
                                  state=state)
    return driver, trace


_WRAPPED_CASES = {
    "almost-kn-K64": ("almost-kn", build_complete(64), 0.7),
    "hypercube-Q8": ("hypercube", build_hypercube(8), 0.5),
    "sod-complete-K32": ("sod-complete", build_complete(32, chordal=True), 0.5),
    "nosod-complete-K16": ("nosod-complete", build_complete(16), 0.5),
    "sod-complete-K64": ("sod-complete", build_complete(64, chordal=True), 0.5),
}


@pytest.mark.parametrize("case", list(_WRAPPED_CASES))
def test_block_replies_are_counted_pairs(case):
    driver, trace = _run_wrapped(*_WRAPPED_CASES[case])
    assert driver.done() and driver.blocks
    assert len(trace) == driver.total_steps


@pytest.mark.parametrize("case", ["almost-kn-K64", "hypercube-Q8", "nosod-complete-K16",
                                  "sod-complete-K64"])
def test_stored_rows_are_executed_steps_plus_templates(case):
    """A block stores its template once, however many steps it covers.  Only
    multiplexed lanes give templates of more than two steps."""
    driver, trace = _run_wrapped(*_WRAPPED_CASES[case])
    stored = trace._data.shape[0]
    if case == "sod-complete-K64":
        assert stored <= driver.executed + driver.template_rows < len(trace) // 5
    else:
        assert stored <= driver.executed + 2 * driver.blocks < len(trace) // 5


def test_speculative_block_stores_its_template_once():
    """``victim_guard:63`` starves vertex 63 on almost-kn K_64 at alpha 0.7.
    Its last 662 rounds are one speculative block of two stored rows; stepped,
    they stored one row per step."""
    driver, trace = _run_wrapped("almost-kn", build_complete(64), 0.7, VictimGuard(63, 0))
    assert trace.final_k == 1
    stored = trace._data.shape[0]
    assert stored <= driver.executed + 2 * driver.blocks < len(trace) // 5


class _NeverDone(Driver):
    total_steps = 3

    def done(self):
        return False

    def next(self, state, blocks):
        return BATCH, SendBatch.empty()


def test_simulate_stops_a_driver_past_its_schedule():
    topo = build_complete(4)
    trace = Trace(topo)
    with pytest.raises(ScheduleOverrun) as err:
        protocols.simulate(topo, _NeverDone(), RandomAdversary(0), 0.5, state=NetworkState(topo),
                           trace=trace)
    assert isinstance(err.value, SimError)
    assert len(trace) == 4


# ---------------------------------------------------------------------------
# Locality: a vertex's sends are a function of its own delivery history


def test_almost_kn_vertex_locality_replay():
    topo = build_complete(8)
    alpha = 0.5
    state = NetworkState(topo)
    driver = make_driver("almost-kn", topo, alpha, 2.0, state)
    driver.attach(None)
    adv = RandomAdversary(13)
    step_log = []  # (arcs sent, delivered arc/kind pairs)
    while not driver.done():
        kind, batch = driver.next(state, False)
        assert kind == BATCH
        report = execute_step(state, batch, adv, alpha)
        driver.absorb(state, report)
        step_log.append((batch.arcs.copy(),
                         [(int(batch.arcs[i]), batch.kind) for i in report.delivered_idx]))

    r = bounds.rounds_kn(8, alpha)
    for v in range(8):
        aware = v == 0
        marks = {int(a): False for a in topo.out_arcs_of([v])}
        got_last_step_a: list[int] = []
        for t, (sent, delivered) in enumerate(step_log):
            # Predict v's sends from local knowledge only.
            if t == 0:
                predicted = sorted(marks) if v == 0 else []
            elif t == 1:
                predicted = sorted(marks) if aware else []
            elif (t - 2) % 2 == 0:  # round step A
                predicted = sorted(a for a, m in marks.items() if not m) if aware else []
            else:  # round step B: ack where something arrived in step A
                predicted = sorted(topo.arc_id(v, int(topo.arc_src[a]))
                                   for a in got_last_step_a)
            actual = sorted(int(a) for a in sent if topo.arc_src[a] == v)
            assert actual == predicted, f"vertex {v} diverges at step {t}"
            # Apply this step's deliveries to v's local state.
            incoming = [(a, k) for a, k in delivered if topo.arc_dst[a] == v]
            for a, k in incoming:
                marks[topo.arc_id(v, int(topo.arc_src[a]))] = True
                if k == INFO:
                    aware = True
            if t >= 2 and (t - 2) % 2 == 0:
                got_last_step_a = [a for a, k in incoming if k == INFO]
            elif t >= 2:
                got_last_step_a = []
