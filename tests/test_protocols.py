"""Protocol schedules: greedy bounds, theorem finals, SoD phases, locality."""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from faultcast import bounds, protocols
from faultcast.adversary import (AckSuppressor, AdversaryPolicy, RandomAdversary, VictimGuard,
                                 make_adversary, random_adversary)
from faultcast.engine import ACK, INFO, NetworkState, execute_step
from faultcast.errors import (InvalidParameterError, UnsupportedAlphaError,
                              UnsupportedTopologyError)
from faultcast.protocols import (AllButOneDriver, BATCH, IdleDriver, SeqDriver, Session,
                                 SweepDriver, make_driver)
from faultcast.topology import build_complete, build_hypercube
from faultcast.validate import errors_only, validate_trace

ADVERSARIES = [
    lambda topo, seed: RandomAdversary(seed),
    lambda topo, seed: VictimGuard(topo.n - 1, seed),
    lambda topo, seed: AckSuppressor(seed),
]


# ---------------------------------------------------------------------------
# Greedy init lower bounds (Lemmas 1 and 3)


@pytest.mark.parametrize("n,alpha,minimum", [
    (10, 0.5, 6),   # 1 + min{5, 4.5} = 5.5 -> at least 6 informed
    (4, 0.5, 3),    # 1 + min{2, 1.5} = 2.5 -> 3
    (2, 0.5, 2),    # budget 0 on the single message
])
def test_greedy_complete_examples(n, alpha, minimum):
    for seed in range(5):
        state = protocols.greedy_init_complete(n, alpha, random_adversary(seed))
        assert int(np.count_nonzero(state.informed)) >= minimum


@pytest.mark.parametrize("d,alpha,minimum", [
    (4, 0.5, 2),    # (1-alpha)(2d-1)/2 = 1.75 -> 2
    (8, 0.25, 6),   # 0.75*15/2 = 5.625 -> 6
    (1, 0.5, 2),    # budget 0
])
def test_greedy_hypercube_examples(d, alpha, minimum):
    for seed in range(5):
        state = protocols.greedy_init_hypercube(d, alpha, random_adversary(seed))
        assert int(np.count_nonzero(state.informed)) >= minimum


def test_greedy_bounds_hold_for_adversarial_policies():
    for make in ADVERSARIES:
        topo = build_complete(12)
        state = protocols.greedy_init_complete(12, 0.6, make(topo, 0))
        lower = 1 + min(12 / 2.0, 11 * 0.4)
        assert np.count_nonzero(state.informed) >= math.ceil(lower - 1e-9)


# ---------------------------------------------------------------------------
# Schedule lengths


def test_schedule_lengths_exact():
    r = bounds.rounds_kn(16, 0.5)
    tr = protocols.almost_complete_kn(16, 0.5, 2.0, random_adversary(0))
    assert tr.total_steps == 2 + 2 * r

    t1, t2 = bounds.rounds_hypercube(5, 0.5, 0.5)
    tr = protocols.broadcast_hypercube(5, 0.5, 0.5, random_adversary(0))
    assert tr.total_steps == 2 + 2 * (t1 + t2)

    l1, l2, l3, l4 = bounds.l_params(16, 0.5, 2.0)
    tr = protocols.nosod_complete(16, 0.5, 2.0, random_adversary(0))
    assert tr.total_steps == 2 + 2 * r + l1 * (l2 * l3 + 2 * l4)


def test_eps_domains():
    with pytest.raises(InvalidParameterError):
        protocols.almost_complete_kn(16, 0.5, 0.5, random_adversary(0))
    with pytest.raises(InvalidParameterError):
        protocols.broadcast_hypercube(4, 0.5, 2.0, random_adversary(0))


def test_nosod_rejects_alpha_06():
    with pytest.raises(UnsupportedAlphaError):
        protocols.nosod_complete(16, 0.6, 2.0, random_adversary(0))


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
        probe = build_hypercube(6)
        tr = protocols.broadcast_hypercube(6, 0.5, 0.5, make(probe, 1))
        assert tr.final_k <= x / 0.5
        assert tr.final_h <= x * 5
        assert not errors_only(validate_trace(tr, 0.5, 0.5))


def test_hypercube_round_lemmas_above_d_min():
    # d = 13 >= d_min(0.5, 0.5): the Lemma 4/5/6 per-round checks are strict.
    tr = protocols.broadcast_hypercube(13, 0.5, 0.5, random_adversary(0))
    assert tr.final_k <= 8
    assert not errors_only(validate_trace(tr, 0.5, 0.5))


def test_sod_complete_all_adversaries():
    for make in ADVERSARIES:
        probe = build_complete(24, chordal=True)
        tr = protocols.sod_complete(24, 0.5, 2.0, make(probe, 2))
        assert tr.final_k == 0
        assert not errors_only(validate_trace(tr, 0.5, 2.0))


def test_nosod_complete_all_adversaries():
    for make in ADVERSARIES:
        probe = build_complete(24)
        tr = protocols.nosod_complete(24, 0.5, 2.0, make(probe, 2))
        assert tr.final_k == 0
        assert not errors_only(validate_trace(tr, 0.5, 2.0))


def test_sod_candidate_set_covers_uninformed():
    # The harness-observer invariant: every uninformed vertex is in U, and
    # |U| stays within 3X(1+eps).
    for seed in range(4):
        tr, (origin, u) = protocols.sod_all_but_one(32, 0.5, 2.0, VictimGuard(31, seed))
        assert tr.final_k <= 1
        assert origin in (0, 1)
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
    """The (phase-3 LazyDriver, phase-4 SweepDriver) of collector b."""
    return driver.children[3].lanes[b].children


def test_phase4_pair_order():
    topo = build_complete(6, chordal=True)
    state = NetworkState(topo)
    driver = AllButOneDriver(topo, 0, 0.5, 2.0, state=state)
    _, sweep = _sod_lane(driver, 0)
    u = driver.ctx.u_final[0] = frozenset({4, 2})
    session = driver.ctx.session[0] = Session(topo, 0, payload=u)
    session.aware[[1, 3]] = True
    sent = []
    while not sweep.done():
        kind, batch = sweep.next(state, False)
        assert kind == BATCH
        sent.append((set(topo.arc_src[batch.arcs].tolist()),
                     set(topo.arc_dst[batch.arcs].tolist())))
    assert sweep.groups == [(2,), (2, 4), (4, 2), (4,)]
    assert sent[:4] == [({0, 1, 3}, {2}), ({0, 1, 3}, {2, 4}), ({0, 1, 3}, {2, 4}),
                        ({0, 1, 3}, {4})]
    assert sent[4:] == [(set(), set())] * (sweep.total_steps - 4)
    assert sweep.total_steps == 25  # cap 5 on K_6, squared


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
    sweep = SweepDriver(topo, 5, lambda: (np.array([0]), [(3,), (1, 4)]), knows_sink=knows)
    assert sweep.idle_steps() == 0  # the groups are not known yet
    for _ in range(2):
        _, batch = sweep.next(state, False)
        sweep.absorb(state, execute_step(state, batch, KillFirst(), 0.5))
    # Step 2 sent 0->1 and 0->4; the adversary killed 0->1.
    assert np.flatnonzero(knows).tolist() == [3, 4]
    assert sweep.idle_steps() == 3
    kind, batch = sweep.next(state, False)
    assert kind == BATCH and batch.m == 0
    assert sweep.idle_steps() == 2
    sweep.skip(2)
    assert sweep.done()


def _jsonl_digest(trace, tmp_path):
    trace.to_jsonl(tmp_path / "t.jsonl")
    return hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize("n,alpha,adversary,digest", [
    (16, 0.5, "random:0", "2ee751fb451b92f93fae8a642a7fa2562dfae0e3257c37ba5ad394cf2e8716b0"),
    (24, 0.7, "ack_suppressor:2",
     "acac2c4a16d755217aefd056b5c8cce7adead29323c7a7ead1c27362dad92f7a"),
])
def test_sod_complete_digest_unchanged(tmp_path, n, alpha, adversary, digest):
    trace = protocols.sod_complete(n, alpha, 2.0, make_adversary(adversary))
    assert _jsonl_digest(trace, tmp_path) == digest


def test_sod_all_but_one_digest_unchanged(tmp_path):
    trace, cands = protocols.sod_all_but_one(24, 0.7, 2.0, make_adversary("ack_suppressor:2"))
    assert cands == (0, frozenset({22, 23}))
    assert _jsonl_digest(trace, tmp_path) == (
        "81ab9d55d7b6897abf4efe18f0dc2156eee0cb5beade2abf17f022479e8fbb87")


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
        state, driver, trace = protocols.run_protocol(protocol, topo, 0.5, eps,
                                                      random_adversary(0))
        refs = [weakref.ref(driver), weakref.ref(trace)]
        del state, driver, trace
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_nosod_iteration_segments_present():
    tr = protocols.nosod_complete(16, 0.5, 2.0, random_adversary(0))
    kinds = {s.kind for s in tr.segments}
    assert "nosod_iter" in kinds or "nosod_inert_tail" in kinds
    assert "simple_rounds" in kinds and "greedy" in kinds


def test_inert_fast_forward_is_exact():
    """Bulk-skipped schedules agree step-for-step with the literal execution."""
    topo = build_complete(6)
    rows = []
    for exhaustive_flag in (True, False):
        state = NetworkState(topo)
        driver = make_driver("almost-kn", topo, 0.5, 2.0, state)
        driver.attach(None)
        adv = RandomAdversary(9)
        from faultcast.engine import Trace
        trace = Trace(topo)
        while not driver.done():
            kind, val = driver.next(state, exhaustive_flag)
            if kind == BATCH:
                report = execute_step(state, val, adv, 0.5)
                driver.absorb(state, report)
                trace.record_step(state, report)
            else:
                for m_sent, count in val:
                    trace.record_inert(state, m_sent, count, state.step_index)
                    state.step_index += count
        rows.append(np.column_stack([trace.column(c) for c in
                                     ("k", "h", "b", "m_sent", "m_lost")]))
    assert np.array_equal(rows[0], rows[1])


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
                         [(int(batch.arcs[i]), int(batch.kinds[i]))
                          for i in report.delivered_idx]))

    r = bounds.rounds_kn(8, alpha)
    for v in range(8):
        aware = v == 0
        marks = {int(a): False for a in topo.out_slice(v)}
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
