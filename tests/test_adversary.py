"""Adversary policies: budgets respected, priorities honored, determinism."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultcast.adversary import (AckSuppressor, AdversaryPolicy, RandomAdversary, VictimGuard,
                                 make_adversary)
from faultcast.engine import (ACK, INFO, NetworkState, SendBatch, StepContext,
                              execute_step, fault_budget)
from faultcast.errors import InvalidParameterError
from faultcast.topology import build_complete, build_hypercube


def _ctx(topo, informed=None):
    state = NetworkState(topo)
    if informed is not None:
        state.informed[list(informed)] = True
    return StepContext(step_index=0, topo=topo, state=state)


def test_random_kill_size():
    topo = build_complete(5)
    ctx = _ctx(topo, range(5))
    adv = RandomAdversary(3)
    batch = SendBatch(np.arange(10), INFO)
    assert len(adv.decide(ctx, batch, 0)) == 0
    assert len(adv.decide(ctx, batch, 4)) == 4
    # m <= budget kills everything
    small = SendBatch(np.arange(2), INFO)
    assert sorted(adv.decide(ctx, small, 5)) == [0, 1]


def test_random_deterministic_under_seed():
    topo = build_complete(5)
    batch = SendBatch(np.arange(12), INFO)
    seqs = []
    for _ in range(2):
        adv = RandomAdversary(42)
        ctx = _ctx(topo, range(5))
        seqs.append([sorted(adv.decide(ctx, batch, 5).tolist()) for _ in range(4)])
    assert seqs[0] == seqs[1]


def test_victim_guard_priority():
    topo = build_complete(4)
    ctx = _ctx(topo, range(4))
    victim = 3
    arcs = np.sort([topo.arc_id(0, 3), topo.arc_id(1, 3), topo.arc_id(0, 1),
                    topo.arc_id(1, 0), topo.arc_id(2, 3)])
    batch = SendBatch(arcs, INFO)
    adv = VictimGuard(victim)
    # budget 2 < 3 victim messages: exactly 2 victim-directed ones die.
    kills = adv.decide(ctx, batch, 2)
    assert len(kills) == 2
    assert all(topo.arc_dst[batch.arcs[i]] == victim for i in kills)
    # budget 3 kills all victim messages.
    kills = adv.decide(ctx, batch, 3)
    assert sorted(topo.arc_dst[batch.arcs[kills]].tolist()) == [victim] * 3
    # budget 0 kills nothing.
    assert len(adv.decide(ctx, batch, 0)) == 0


def test_victim_guard_then_acks():
    """The single victim message dies first.  In an ack batch the acks go
    next, lowest arc id first, and nothing is drawn; in an info batch a
    random fill goes next."""
    topo = build_complete(4)
    ctx = _ctx(topo, range(4))
    arcs = np.sort([topo.arc_id(0, 3), topo.arc_id(2, 0), topo.arc_id(1, 0)])
    adv = VictimGuard(3)
    before = adv._rng.bit_generator.state
    kills = adv.decide(ctx, SendBatch(arcs, ACK), 2)
    assert arcs[kills].tolist() == [topo.arc_id(0, 3), topo.arc_id(1, 0)]
    assert adv._rng.bit_generator.state == before
    kills = adv.decide(ctx, SendBatch(arcs, INFO), 2)
    assert arcs[kills[0]] == topo.arc_id(0, 3) and kills[1] in (1, 2)


def test_ack_suppressor_priority():
    """Acks die in arc-id order without a draw; info to uninformed vertices
    dies before info to informed ones."""
    topo = build_complete(4)
    ctx = _ctx(topo, [0, 1])
    adv = AckSuppressor(0)
    before = adv._rng.bit_generator.state
    acks = SendBatch(np.sort([topo.arc_id(1, 0), topo.arc_id(0, 1),
                                      topo.arc_id(1, 2)]), ACK)
    assert adv.decide(ctx, acks, 2).tolist() == [0, 1]
    assert adv._rng.bit_generator.state == before
    # Arcs 0->1 (to an informed vertex), 0->2 and 1->3: budget 2 kills the
    # last two, and budget 1 one of them.
    info = SendBatch(np.sort([topo.arc_id(0, 1), topo.arc_id(0, 2),
                                      topo.arc_id(1, 3)]), INFO)
    assert sorted(adv.decide(ctx, info, 2).tolist()) == [1, 2]
    assert adv.decide(ctx, info, 1).tolist() in ([1], [2])


def test_ack_suppressor_all_info_random_fallback():
    topo = build_complete(6)
    ctx = _ctx(topo, range(6))
    batch = SendBatch(np.arange(10), INFO)
    kills = AckSuppressor(seed=5).decide(ctx, batch, 4)
    assert len(kills) == 4
    assert len(set(kills.tolist())) == 4


@pytest.mark.parametrize("make_adv", [RandomAdversary, lambda seed: VictimGuard(3, seed),
                                      AckSuppressor], ids=["random", "victim_guard", "ack_suppressor"])
def test_forced_kill_set_draws_nothing(make_adv):
    """With ksize = min(m, budget) at 0 or m the kill set is forced: the policy
    returns it in index order and leaves its random stream where it was."""
    topo = build_complete(6)
    ctx = _ctx(topo, [0, 1])
    arcs = np.sort([topo.arc_id(0, 3), topo.arc_id(1, 0), topo.arc_id(1, 4),
                    topo.arc_id(2, 5), topo.arc_id(2, 3)])
    adv = make_adv(7)
    before = adv._rng.bit_generator.state
    for kind in (INFO, ACK):
        for m, budget in [(5, 0), (5, 5), (5, 9), (3, 3), (0, 0), (0, 5)]:
            kills = adv.decide(ctx, SendBatch(arcs[:m], kind), budget)
            assert kills.dtype == np.int64
            assert kills.tolist() == list(range(min(m, budget)))
            assert adv._rng.bit_generator.state == before


def test_make_adversary_parsing():
    topo = build_complete(8)
    assert make_adversary("random:7").seed == 7
    assert make_adversary("victim_guard:2", topo).victim == 2
    assert make_adversary("victim_guard", topo).victim == 7
    assert isinstance(make_adversary("ack_suppressor"), AckSuppressor)
    with pytest.raises(InvalidParameterError):
        make_adversary("victim_guard")
    with pytest.raises(InvalidParameterError):
        make_adversary("nonsense")
    for spec in ("random:x", "victim_guard:v", "ack_suppressor:2.0", "random:--5"):
        with pytest.raises(InvalidParameterError, match="not an integer"):
            make_adversary(spec, topo)
    # Given a topology, a victim must be one of its vertices; without one, a
    # victim of at least 0 is taken as given.
    for victim in (8, 99, -1):
        with pytest.raises(InvalidParameterError, match="outside 0..7"):
            make_adversary(f"victim_guard:{victim}", topo)
    assert make_adversary("victim_guard:99").victim == 99
    with pytest.raises(InvalidParameterError, match="victim -1 < 0"):
        make_adversary("victim_guard:-1")
    for spec in ("random:-5", "ack_suppressor:-1"):  # a generator seed must be >= 0
        with pytest.raises(InvalidParameterError, match="seed"):
            make_adversary(spec)
    for spec in ("random", "victim_guard:2", "ack_suppressor"):  # so must the default seed
        with pytest.raises(InvalidParameterError, match="seed -1 < 0"):
            make_adversary(spec, topo, seed=-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=20),
       st.floats(min_value=0.05, max_value=0.95))
def test_policies_pass_engine_validation_fuzz(seed, m, alpha):
    """Every policy's kill set survives engine budget checks on random batches."""
    topo = build_complete(6)
    rng = np.random.default_rng(seed)
    state = NetworkState(topo)
    state.informed[:] = True
    arcs = rng.choice(topo.num_arcs, size=min(m, topo.num_arcs), replace=False)
    arcs = np.sort(arcs.astype(np.int64))
    kind = int(rng.choice([INFO, ACK]))
    for adv in (RandomAdversary(seed), VictimGuard(5, seed), AckSuppressor(seed)):
        st2 = state.clone()
        batch = SendBatch(arcs.copy(), kind)
        report = execute_step(st2, batch, adv, alpha)  # raises on any violation
        assert report.budget_used <= fault_budget(batch.m, topo.edge_connectivity, alpha)
        # exhaustive: kills exactly min(m, budget)
        assert report.budget_used == min(batch.m, report.budget)


def _batch(topo, seed, m, kind):
    """m random distinct arcs in ascending order, messages of ``kind``."""
    rng = np.random.default_rng(seed)
    arcs = np.sort(rng.choice(topo.num_arcs, size=m, replace=False)).astype(np.int64)
    return SendBatch(arcs, kind)


def _ack_suppressor_classes(ctx, batch):
    """Sizes of AckSuppressor's two shuffled classes of an info batch: info
    to uninformed vertices, other info."""
    fresh = ~ctx.state.informed[ctx.topo.arc_dst[batch.arcs]]
    return int(np.count_nonzero(fresh)), int(np.count_nonzero(~fresh))


@pytest.mark.parametrize("rounds", [1, 2, 7])
@pytest.mark.parametrize("topo", [build_complete(8), build_hypercube(4)], ids=["K8", "Q4"])
@pytest.mark.parametrize("make_adv", [RandomAdversary, lambda seed: VictimGuard(3, seed),
                                      AckSuppressor], ids=["random", "victim_guard", "ack_suppressor"])
def test_decide_rounds_equals_successive_decides(make_adv, topo, rounds):
    """Row r of ``decide_rounds`` is the r-th of as many ``decide`` calls, two
    steps apart, and the generator ends where those calls leave it.  On the
    fully informed state AckSuppressor shuffles one class of an info batch,
    as in a steady block."""
    for ctx, (seed, m), kind in itertools.product(
            [_ctx(topo, [0, 1, 2, 5]), _ctx(topo, range(topo.n))],
            [(0, 12), (1, 20), (2, 2), (3, 1)], (INFO, ACK)):
        batch = _batch(topo, seed, m, kind)
        for budget in sorted({0, 1, m // 2, m - 1, m, m + 3}):
            one, many = make_adv(seed), make_adv(seed)
            rows = [one.decide(replace(ctx, step_index=ctx.step_index + 2 * r), batch, budget)
                    for r in range(rounds)]
            [block] = many.decide_rounds(ctx, 2, [(0, batch, budget)], rounds)
            assert block.shape == (rounds, min(m, budget)) and block.dtype == np.int64
            assert [row.tolist() for row in block] == [row.tolist() for row in rows]
            assert many._rng.bit_generator.state == one._rng.bit_generator.state


def test_ack_suppressor_interleaved_classes_draw_round_by_round():
    """With both shuffled classes of two or more entries, a block draws as the
    same count of ``decide`` calls would: each round's fresh class, then its
    rest, whether the two share one length or not."""
    topo = build_complete(8)
    ctx = _ctx(topo, [0, 1, 2, 5])
    batch = _batch(topo, 1, 20, INFO)
    assert min(_ack_suppressor_classes(ctx, batch)) >= 2
    one, many = AckSuppressor(4), AckSuppressor(4)
    budget = batch.m - 2
    rows = [one.decide(ctx, batch, budget) for _ in range(5)]
    [block] = many.decide_rounds(ctx, 1, [(0, batch, budget)], 5)
    assert block.tolist() == [r.tolist() for r in rows]
    assert many._rng.bit_generator.state == one._rng.bit_generator.state


def _stepped_until_spare(adv, ctx, batch, budget, rounds, watch):
    """Successive ``decide`` rows, two steps apart, through the first that
    spares a watched message, or ``rounds`` of them."""
    rows = []
    for r in range(rounds):
        rows.append(adv.decide(replace(ctx, step_index=ctx.step_index + 2 * r), batch, budget))
        if not np.isin(np.flatnonzero(watch), rows[-1]).all():
            break
    return rows


@pytest.mark.parametrize("rounds", [1, 3, 20])
@pytest.mark.parametrize("topo", [build_complete(8), build_hypercube(4)], ids=["K8", "Q4"])
@pytest.mark.parametrize("make_adv", [RandomAdversary, lambda seed: VictimGuard(3, seed),
                                      AckSuppressor], ids=["random", "victim_guard", "ack_suppressor"])
def test_decide_rounds_with_watch_stops_after_the_first_sparing_row(make_adv, topo, rounds):
    """Given a watch mask, ``decide_rounds`` gives the rows of successive
    ``decide`` calls through the first that spares a watched message, and the
    generator ends right after that row; so does the per-round default,
    called unbound as for a wrapper that defines only ``decide``."""
    stops = set()  # row counts that end before ``rounds``
    for ctx, (seed, m), kind in itertools.product(
            [_ctx(topo, [0, 1, 2, 5]), _ctx(topo, range(topo.n - 1))],
            [(0, 12), (1, 20), (2, 2), (3, 1)], (INFO, ACK)):
        batch = _batch(topo, seed, m, kind)
        to_uninformed = ~ctx.state.informed[topo.arc_dst[batch.arcs]]
        for watch in (to_uninformed, np.arange(m) == m // 2, np.zeros(m, dtype=bool)):
            for budget in sorted({0, 1, m // 2, m - 1, m, m + 3}):
                one, many, unbound = make_adv(seed), make_adv(seed), make_adv(seed)
                rows = _stepped_until_spare(one, ctx, batch, budget, rounds, watch)
                stops |= {len(rows)} - {rounds}
                steps = [(0, batch, budget)]
                for [got], adv in ((many.decide_rounds(ctx, 2, steps, rounds, watch=watch), many),
                                   (AdversaryPolicy.decide_rounds(unbound, ctx, 2, steps, rounds,
                                                                  watch=watch), unbound)):
                    assert got.shape == (len(rows), min(m, budget)) and got.dtype == np.int64
                    assert [row.tolist() for row in got] == [row.tolist() for row in rows]
                    assert adv._rng.bit_generator.state == one._rng.bit_generator.state
    assert rounds == 1 or stops
    if rounds == 20 and make_adv is RandomAdversary:
        assert stops - {1}  # past row 0, a chunk of 2, 4, ... rows is redrawn in part


def _template(topo, seed, ms, kinds):
    """One all-informed context and a SendBatch of m messages of the kind
    per entry of ``ms`` and ``kinds``, none to vertex 3.  Every policy
    shuffles an info batch whole; random shuffles an ack batch whole too,
    and the others kill it in arc-id order."""
    rng = np.random.default_rng(seed)
    arcs = np.flatnonzero(topo.arc_dst != 3)
    batches = [SendBatch(np.sort(rng.choice(arcs, size=m, replace=False)), kind)
               for m, kind in zip(ms, kinds)]
    return _ctx(topo, range(topo.n)), batches


@pytest.mark.parametrize("period, ms, kinds", [(4, [12, 12], [INFO, ACK]),
                                               (8, [12, 12, 12, 12], [INFO, ACK, INFO, ACK]),
                                               (4, [12, 9], [INFO, INFO])],
                         ids=["two-lanes", "four-steps", "two-lengths"])
@pytest.mark.parametrize("make_adv", [RandomAdversary, lambda seed: VictimGuard(3, seed),
                                      AckSuppressor], ids=["random", "victim_guard", "ack_suppressor"])
def test_decide_rounds_of_a_template_equals_interleaved_decides(make_adv, period, ms, kinds):
    """Row r of a drawn step's rows is ``decide`` at step first + r*p + its
    offset, asked step after step in step order, and the generator ends
    where those calls leave it.  Classes of one length across the steps, as
    in two merged lanes, are drawn without ``decide``; classes of two
    lengths take the per-round default."""
    topo = build_complete(16)
    ctx, batches = _template(topo, len(ms), ms, kinds)
    first = 40
    ctx = replace(ctx, step_index=first)
    one, many = make_adv(5), make_adv(5)
    steps = [(2 * i + 1, batch, batch.m // 2 + i) for i, batch in enumerate(batches)]
    if len(set(ms)) == 1:
        many.decide = None  # the vectorised draw must not ask it
    else:
        many._rows = None  # the per-round default must not need it
    rows = [[one.decide(replace(ctx, step_index=first + r * period + offset), batch, budget)
             for offset, batch, budget in steps] for r in range(7)]
    got = many.decide_rounds(ctx, period, steps, 7)
    assert len(got) == len(steps)
    for i, (_, batch, budget) in enumerate(steps):
        assert got[i].shape == (7, min(batch.m, budget))
        assert [row.tolist() for row in got[i]] == [r[i].tolist() for r in rows]
    assert many._rng.bit_generator.state == one._rng.bit_generator.state
