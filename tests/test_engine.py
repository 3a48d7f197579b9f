"""Engine semantics: budgets, step execution, arc classification, traces."""

import hashlib
import json
import os
import tempfile
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultcast import engine
from faultcast.adversary import AdversaryPolicy, RandomAdversary
from faultcast.engine import (ACK, INFO, NetworkState, SendBatch, Trace, apply_kills,
                              check_batch, check_kill_rows, classify_arc, execute_step,
                              fault_budget)
from faultcast.errors import (AdversaryViolation, InvalidParameterError,
                              PreconditionViolation)
from faultcast.harness import run_protocol
from faultcast.protocols import almost_complete_kn, make_driver, simulate
from faultcast.topology import build_complete, build_hypercube
from faultcast.validate import validate_trace


def test_fault_budget_examples():
    assert fault_budget(3, 4, 0.5) == 3  # max{3, 1}
    assert fault_budget(100, 4, 0.5) == 50  # max{3, 50}
    assert fault_budget(1, 1, 0.9) == 0  # K_2: single message always delivered
    # Exact rationals: a float floor gives 62 and 28 (0.7*90 = 62.99999999999999).
    assert fault_budget(90, 1, 0.7) == 63
    assert fault_budget(100, 1, 0.29) == 29
    with pytest.raises(InvalidParameterError):
        fault_budget(3, 4, 1.0)
    with pytest.raises(InvalidParameterError):
        fault_budget(-1, 4, 0.5)


_GIVEN = SimpleNamespace(id="given")  # names a given kill set in check errors


def _apply(state, batch, kills, alpha=0.5):
    """One step that kills the given batch indices, checked as ``execute_step``
    checks a drawn kill set."""
    check_batch(state, batch)
    budget = fault_budget(batch.m, state.topo.edge_connectivity, alpha)
    kills = np.array(kills, dtype=np.int64).reshape(1, -1)
    return apply_kills(state, batch, check_kill_rows(kills, batch.m, budget, _GIVEN)[0], budget)


def test_k2_message_always_delivered():
    topo = build_complete(2)
    state = NetworkState(topo)
    batch = SendBatch(np.array([topo.arc_id(0, 1)]), INFO)
    report = execute_step(state, batch, RandomAdversary(0), 0.9)
    assert report.budget == 0
    assert state.informed[1]
    # Delivery over 0->1 marks the receiver's opposite arc 1->0 passive.
    assert state.passive[topo.arc_id(1, 0)]
    assert not state.passive[topo.arc_id(0, 1)]


def test_k3_budget_formula():
    topo = build_complete(3)  # c = 2
    state = NetworkState(topo)
    state.informed[:] = True
    arcs = np.sort([topo.arc_id(0, 1), topo.arc_id(0, 2), topo.arc_id(1, 0),
                    topo.arc_id(1, 2)])
    report = _apply(state, SendBatch(np.array(arcs), INFO), [0, 1])
    assert report.budget == 2  # max{1, 2}
    assert len(report.delivered_idx) == 2


def test_adversary_violations():
    topo = build_complete(3)
    state = NetworkState(topo)
    state.informed[:] = True
    arcs = np.arange(4)
    batch = SendBatch(arcs, INFO)
    with pytest.raises(AdversaryViolation):
        _apply(state.clone(), batch, [0, 1, 2])
    with pytest.raises(AdversaryViolation):
        _apply(state.clone(), batch, [7])
    with pytest.raises(AdversaryViolation):
        _apply(state.clone(), batch, [1, 1])


class _NeverAsked(AdversaryPolicy):
    """Exhaustive, and fails if it is ever asked for a kill set."""

    id = "never_asked"

    def decide(self, ctx, batch, budget):
        raise AssertionError(f"asked for a forced kill set: m={batch.m}, budget={budget}")


class _Gives(AdversaryPolicy):
    """Gives the same kill set at every step, as the array numpy makes of it."""

    id = "gives"

    def __init__(self, kills, exhaustive=False):
        self.kills = np.array(kills)
        self.exhaustive = exhaustive
        self.asked = 0

    def decide(self, ctx, batch, budget):
        self.asked += 1
        return self.kills


def test_forced_kill_sets_are_not_asked():
    """With a budget of 0 or at least m an exhaustive policy has one kill set,
    none or the whole batch, which execute_step applies without asking it.
    A policy that is not exhaustive is asked, and may kill fewer."""
    k4, k2 = build_complete(4), build_complete(2)  # c = 3 and c = 1
    from_0 = k4.out_arcs_of(np.array([0]))
    cases = [(k4, SendBatch.empty(), 2, []),
             (k4, SendBatch(from_0[:1], INFO), 2, [0]),
             (k4, SendBatch(from_0[:2], INFO), 2, [0, 1]),
             (k2, SendBatch(np.array([k2.arc_id(0, 1)]), INFO), 0, [])]
    for topo, batch, budget, lost in cases:
        state = NetworkState(topo)
        report = execute_step(state, batch, _NeverAsked(), 0.5)
        assert report.budget == budget
        assert report.delivered_idx.tolist() == [i for i in range(batch.m) if i not in lost]
        assert state.step_index == 1 and state.k == topo.n - 1 - (batch.m - len(lost))
        policy = _Gives([])  # float64, as numpy makes an empty list, and legal
        report = execute_step(NetworkState(topo), batch, policy, 0.5)
        assert policy.asked == 1 and report.delivered_idx.size == batch.m


@pytest.mark.parametrize("exhaustive", [True, False])
@pytest.mark.parametrize("kills, match", [([0, 1, 2], "budget"), ([7], "not sent"),
                                          ([1, 1], "twice"), ([0.5, 1.5], "dtype")],
                         ids=["over_budget", "unsent", "repeated", "float"])
def test_bad_kill_sets_raise_through_execute_step(kills, match, exhaustive):
    topo = build_complete(3)
    state = NetworkState(topo)
    state.informed[:] = True
    batch = SendBatch(np.arange(4), INFO)  # budget 2 of 4: not forced
    with pytest.raises(AdversaryViolation, match=match):
        execute_step(state, batch, _Gives(kills, exhaustive), 0.5)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64, np.int64])
def test_kill_rows_of_any_integer_dtype(dtype):
    """Kill sets of any integer dtype are indices, checked row by row; a
    float or bool array is not, whatever its values."""
    kills = np.array([[0, 1], [3, 0], [2, 3]], dtype=dtype)
    killed = check_kill_rows(kills, 4, 2, _GIVEN, rounds=3, exhaustive=True)
    assert killed.tolist() == [[True, True, False, False], [True, False, False, True],
                               [False, False, True, True]]
    kills[1, 1] = 3
    with pytest.raises(AdversaryViolation, match="twice"):
        check_kill_rows(kills, 4, 2, _GIVEN, rounds=3)
    for other in (np.float64, bool):
        with pytest.raises(AdversaryViolation, match="dtype"):
            check_kill_rows(kills[:, :1].astype(other), 4, 2, _GIVEN, rounds=3)


def test_batch_validation():
    topo = build_complete(3)
    state = NetworkState(topo)  # only vertex 0 informed
    bad_sender = SendBatch(np.array([topo.arc_id(1, 2)]), INFO)
    with pytest.raises(InvalidParameterError):
        _apply(state, bad_sender, [])
    dup = SendBatch(np.array([0, 0]), INFO)
    with pytest.raises(InvalidParameterError):
        _apply(state, dup, [])
    out_of_range = SendBatch(np.array([99]), INFO)
    with pytest.raises(InvalidParameterError):
        _apply(state, out_of_range, [])
    # A batch's senders are its arcs // degree.  Only vertex 3 is uninformed,
    # and it sends on the first, a middle or the last of its out-arcs between
    # vertices 2 and 4.
    for topo in (build_complete(8), build_hypercube(3)):
        state = NetworkState(topo)
        state.informed[:] = True
        state.informed[3] = False
        state.version += 1
        own = topo.out_arcs_of(np.array([3]))
        for arc in (own[0], own[topo.degree // 2], own[-1]):
            arcs = np.concatenate([topo.out_arcs_of(np.array([2])), [arc],
                                   topo.out_arcs_of(np.array([4]))])
            with pytest.raises(InvalidParameterError, match="informed"):
                _apply(state.clone(), SendBatch(arcs, INFO), [])
        # Without vertex 3's arc the same batch is legal.
        _apply(state.clone(), SendBatch(np.delete(arcs, topo.degree), INFO), [])


def test_batch_validation_unsorted_and_ends():
    """A batch's arcs ascend strictly: an unsorted or repeated arc raises
    before anything else is checked, and the ends of an ascending batch
    bound its range."""
    topo = build_complete(3)
    state = NetworkState(topo)  # vertex 0 sends on arcs 0 and 1
    for arcs in ([1, 0], [0, 0], [0, 1, 1], [1, 99, 0], [1, -1, 0], [0, 1, -5, 1], [99, 0]):
        for kind in (INFO, ACK):
            with pytest.raises(InvalidParameterError, match="ascend strictly"):
                check_batch(state, SendBatch(np.array(arcs), kind))
    for arcs in ([-1, 0], [0, 1, 99]):
        with pytest.raises(InvalidParameterError, match="outside the topology"):
            check_batch(state, SendBatch(np.array(arcs), INFO))
    report = _apply(state, SendBatch(np.array([0, 1]), INFO), [])
    assert report.delivered_idx.tolist() == [0, 1]
    assert state.k == 0


def test_classify_arc():
    topo = build_complete(3)
    state = NetworkState(topo)
    state.informed[1] = True
    assert classify_arc(state, topo.arc_id(0, 2)) == engine.ACTIVE
    assert classify_arc(state, topo.arc_id(0, 1)) == engine.HYPERACTIVE
    state.passive[topo.arc_id(0, 1)] = True
    assert classify_arc(state, topo.arc_id(0, 1)) == engine.PASSIVE
    with pytest.raises(PreconditionViolation):
        classify_arc(state, topo.arc_id(2, 0))


def test_arc_partition_exhaustive():
    # Out-arcs of informed vertices always get exactly one label.
    topo = build_hypercube(3)
    rng = np.random.default_rng(3)
    state = NetworkState(topo)
    state.informed[:] = rng.random(topo.n) < 0.6
    state.informed[0] = True
    state.passive[:] = rng.random(topo.num_arcs) < 0.3
    # Passive arcs out of informed vertices only make sense toward informed
    # destinations; restrict to valid reachable shapes.
    state.passive &= state.informed[topo.arc_dst]
    counts = {engine.ACTIVE: 0, engine.PASSIVE: 0, engine.HYPERACTIVE: 0}
    total = 0
    for a in range(topo.num_arcs):
        if state.informed[topo.arc_src[a]]:
            counts[classify_arc(state, a)] += 1
            total += 1
    assert sum(counts.values()) == total  # exactly one label per arc
    # The state has never been stepped, so counts() and boundary() scan the arrays.
    assert counts[engine.ACTIVE] == state.boundary()
    assert counts[engine.HYPERACTIVE] == state.counts()[1]


def test_ack_does_not_inform():
    topo = build_complete(2)
    state = NetworkState(topo)
    batch = SendBatch(np.array([topo.arc_id(0, 1)]), ACK)
    _apply(state, batch, [])
    assert not state.informed[1]
    assert state.passive[topo.arc_id(1, 0)]


def test_k2_simple_round_by_hand():
    # Step A: info delivered (budget 0); step B: ack delivered; both arcs passive.
    topo = build_complete(2)
    state = NetworkState(topo)
    a01, a10 = topo.arc_id(0, 1), topo.arc_id(1, 0)
    _apply(state, SendBatch(np.array([a01]), INFO), [])
    _apply(state, SendBatch(np.array([a10]), ACK), [])
    assert state.informed.all()
    assert state.passive.all()
    assert state.k == 0


def test_k3_round_informs_third_for_every_kill_set():
    # Informed {0,1} with the 0<->1 arcs passive: step A sends 2 messages to
    # vertex 2, budget max{1,1}=1, so every legal kill set leaves a delivery.
    topo = build_complete(3)
    for kills in ([], [0], [1]):
        state = NetworkState(topo)
        state.informed[1] = True
        state.passive[topo.arc_id(0, 1)] = True
        state.passive[topo.arc_id(1, 0)] = True
        arcs = np.sort([topo.arc_id(0, 2), topo.arc_id(1, 2)])
        _apply(state, SendBatch(np.array(arcs), INFO), kills)
        assert state.informed[2]


def test_counts_and_measure():
    topo = build_complete(4)
    state = NetworkState(topo)
    k, h, b = state.counts()
    assert (k, h, b) == (3, 0, 0)
    state.informed[1] = True
    state.passive[topo.arc_id(0, 1)] = True
    state.version += 1
    k, h, b = state.counts()
    assert k == 2
    assert h == 1  # 1->0 is hyperactive; 0->1 is passive
    assert b == 1


def test_informed_and_passive_monotone_under_steps():
    topo = build_complete(5)
    rng = np.random.default_rng(7)
    state = NetworkState(topo)
    adv = RandomAdversary(11)
    for _ in range(30):
        informed_before = state.informed.copy()
        passive_before = state.passive.copy()
        senders = np.flatnonzero(state.informed[topo.arc_src] & (rng.random(topo.num_arcs) < 0.5))
        execute_step(state, SendBatch(senders, INFO), adv, 0.4)
        assert np.all(state.informed >= informed_before)
        assert np.all(state.passive >= passive_before)


def test_trace_records_and_jsonl(tmp_path):
    topo = build_complete(3)
    state = NetworkState(topo)
    trace = Trace(topo)
    batch = SendBatch(np.sort([topo.arc_id(0, 1), topo.arc_id(0, 2)]), INFO)
    report = _apply(state, batch, [0])
    trace.record_step(state, report)
    trace.record_block(state, [(1, 1)], 3)
    trace.summary = {"protocol": "test"}
    path = tmp_path / "t.jsonl"
    trace.to_jsonl(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5  # 4 records + summary
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "k", "h", "b", "m_sent", "m_lost", "acks", "M"}
    assert rec["m_sent"] == 2 and rec["m_lost"] == 1
    assert json.loads(lines[-1]) == {"protocol": "test"}
    # M = 2(n-1)k + h with one vertex informed by the delivery.
    assert rec["M"] == 2 * 2 * rec["k"] + rec["h"]
    # Block records keep state columns frozen and step numbers consecutive.
    steps = [json.loads(l)["step"] for l in lines[:4]]
    assert steps == [1, 2, 3, 4]


def test_trace_first_complete_step():
    topo = build_complete(2)
    state = NetworkState(topo)
    trace = Trace(topo)
    a01, a10 = topo.arc_id(0, 1), topo.arc_id(1, 0)
    r = _apply(state, SendBatch(np.array([a01]), INFO), [])
    trace.record_step(state, r)
    r = _apply(state, SendBatch(np.array([a10]), ACK), [])
    trace.record_step(state, r)
    assert trace.final_k == 0
    assert trace.first_complete_step() == 1


def test_execute_step_deterministic_replay():
    topo = build_complete(6)
    runs = []
    for _ in range(2):
        state = NetworkState(topo)
        adv = RandomAdversary(5)
        log = []
        for _ in range(6):
            arcs = np.flatnonzero(state.informed[topo.arc_src] & ~state.passive)
            report = execute_step(state, SendBatch(arcs, INFO), adv, 0.5)
            log.append(report.batch.arcs[report.delivered_idx].tolist())
        runs.append(log)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Run-length storage and JSONL export


def _reference_jsonl(trace, path):
    """The per-row writer Trace.to_jsonl must match byte for byte."""
    columns = [trace.column(c) for c in engine._COLUMNS]
    with open(path, "w") as fh:
        for i in range(len(trace)):
            fh.write(json.dumps({c: int(col[i]) for c, col in zip(engine._COLUMNS, columns)}))
            fh.write("\n")
        fh.write(json.dumps(trace.summary))
        fh.write("\n")


def _runs_trace():
    """Executed stretches and runs, each longer than a 5-record chunk."""
    topo = build_complete(6)
    state = NetworkState(topo)
    trace = Trace(topo)
    adv = RandomAdversary(3)
    for stretch in (7, 0, 12, 1):
        for _ in range(stretch):
            arcs = np.flatnonzero(state.informed[topo.arc_src] & ~state.passive)
            trace.record_step(state, execute_step(state, SendBatch(arcs, INFO),
                                                  adv, 0.5))
        for count in (11, 1):
            trace.record_block(state, [(1, 1)], count)
            state.step_index += count
    trace.summary = {"protocol": "test", "alpha": 0.5}
    return trace


# (first step, steps) of one-step templates: runs that cross 9 -> 10, 99 -> 100,
# 999 -> 1000 and 99,999 -> 100,000, runs whose 5-record pieces change two or
# three trailing digits, and one-step blocks.  With pieces of 10 steps, the
# runs from steps 8, 98, 197, 1,023, 99,987 and 1,000,003 hold two or more
# pieces within one digit width, those from 197, 1,023 and 1,000,003 from a
# step not aligned to a piece; with pieces of 1,000 steps the run from
# 1,000,003 does.
_DIGIT_RUNS = [(8, 25), (98, 36), (197, 25), (998, 4), (1007, 10), (1017, 1), (1023, 45),
               (99_987, 39), (100_026, 1), (100_027, 3), (1_000_003, 2_502)]


def _digit_runs_trace(executed=True):
    """A trace that ends in a run; with ``executed`` False, made only of blocks."""
    topo = build_complete(4)
    state = NetworkState(topo)
    trace = Trace(topo)
    adv = RandomAdversary(1)
    for first, count in _DIGIT_RUNS:
        if executed and state.step_index <= first - 2:
            state.step_index = first - 2
            arcs = np.flatnonzero(state.informed[topo.arc_src] & ~state.passive)
            trace.record_step(state, execute_step(state, SendBatch(arcs, INFO),
                                                  adv, 0.5))
        state.step_index = first - 1
        trace.record_block(state, [(2, 2)], count)
        state.step_index += count
    trace.summary = {"protocol": "test", "alpha": 0.5}
    return trace


# (first step, repetitions) of periodic blocks.  With period 2 the runs from
# steps 7, 995, 99,999 and 999,003 have a period that straddles a step-digit
# width, with period 3 those from steps 98, 995, 9,990 and 99,999; the others
# change width between periods.  With periods 4 and 8, as multiplexed lanes
# give, every run has a period that straddles a width.  The last two runs hold
# several pieces of 10 steps at period 2, and the last one several pieces of
# 1,000 steps at periods 2, 4 and 8.
_PERIODIC_RUNS = [(7, 3), (98, 4), (995, 5), (9_990, 7), (99_999, 3), (100_037, 40),
                  (999_003, 1_500)]


def _periodic_runs_trace(period):
    """Runs of a template whose rows differ in traffic and line length, each
    after an executed step."""
    topo = build_complete(4)
    state = NetworkState(topo)
    trace = Trace(topo)
    adv = RandomAdversary(1)
    rows = [(2, 2), (13, 3), (0, 0), (508, 254), (1, 1), (0, 0), (381, 190), (2, 2)][:period]
    for first, repeats in _PERIODIC_RUNS:
        state.step_index = first - 2
        arcs = np.flatnonzero(state.informed[topo.arc_src] & ~state.passive)
        trace.record_step(state, execute_step(state, SendBatch(arcs, INFO), adv, 0.5))
        trace.record_block(state, rows, repeats)
        state.step_index += period * repeats
    trace.summary = {"protocol": "test", "alpha": 0.5}
    return trace


@pytest.mark.parametrize("build", [
    lambda: almost_complete_kn(16, 0.5, 2.0, RandomAdversary(0)),
    _runs_trace,
    _digit_runs_trace,
    lambda: _digit_runs_trace(executed=False),
    lambda: _periodic_runs_trace(2),
    lambda: _periodic_runs_trace(3),
    lambda: _periodic_runs_trace(4),
    lambda: _periodic_runs_trace(8),
    lambda: almost_complete_kn(64, 0.7, 2.0, RandomAdversary(0)),
    lambda: run_protocol("hypercube", build_hypercube(5), 0.5, 0.5, RandomAdversary(1))[2],
    lambda: Trace(build_complete(4)),
], ids=["executed", "runs", "digit-runs", "runs-only", "period-2", "period-3", "period-4",
        "period-8", "steady", "hypercube", "empty"])
def test_to_jsonl_matches_per_row_writer(build, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "_JSONL_CHUNK", 5)
    trace = build()
    _reference_jsonl(trace, tmp_path / "ref.jsonl")
    # Reused pieces of 10 steps, which periods 1 and 2 divide, and of 1,000
    # steps, which periods 4 and 8 divide too; period 3 divides neither.
    for piece_digits in (1, 3):
        monkeypatch.setattr(engine, "_PIECE_DIGITS", piece_digits)
        trace.to_jsonl(tmp_path / "t.jsonl")
        assert ((tmp_path / "t.jsonl").read_bytes()
                == (tmp_path / "ref.jsonl").read_bytes()), piece_digits


@settings(max_examples=60, deadline=None)
@given(piece_digits=st.integers(1, 2),
       first=st.integers(1, 7).flatmap(lambda e: st.integers(max(1, 10 ** e - 150),
                                                            10 ** e + 150)),
       rows=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 99)), min_size=1,
                     max_size=8),
       repeats=st.integers(1, 120))
def test_to_jsonl_block_matches_per_row_writer(piece_digits, first, rows, repeats):
    topo = build_complete(4)
    state = NetworkState(topo)
    state.step_index = first - 1
    trace = Trace(topo)
    trace.record_block(state, rows, repeats)
    trace.summary = {"protocol": "test"}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(engine, "_PIECE_DIGITS", piece_digits):
        trace.to_jsonl(os.path.join(tmp, "t.jsonl"))
        _reference_jsonl(trace, os.path.join(tmp, "ref.jsonl"))
        with open(os.path.join(tmp, "t.jsonl"), "rb") as got, \
                open(os.path.join(tmp, "ref.jsonl"), "rb") as want:
            assert got.read() == want.read()


def test_to_jsonl_digest_unchanged(tmp_path):
    # The digest of the per-row json.dumps writer this format started from.
    trace = run_protocol("nosod-complete", build_complete(16), 0.5, 2.0, RandomAdversary(0))[2]
    trace.to_jsonl(tmp_path / "t.jsonl")
    digest = hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest()
    assert digest == "938b119e010f3674d53385618cf55dd31f96831aed718ac388ea6912ebfe8495"


def test_block_runs_expand_to_steps():
    topo = build_hypercube(3)
    state = NetworkState(topo)
    trace = Trace(topo, track_boundary=True)
    trace.record(state, 0, 0, 0)
    state.informed[1] = True
    state.version += 1
    state.step_index = 4
    trace.record_block(state, [(2, 2)], 3)
    state.step_index += 3
    trace.record(state, 5, 1, 2)
    trace.record_block(state, [(1, 1)], 1)
    state.step_index += 1
    trace.record_block(state, [(6, 3), (3, 3)], 2)
    state.step_index += 4
    assert len(trace) == trace.total_steps == 10
    assert trace._data.shape[0] == 6
    assert trace._runs == [(1, 1, 3), (4, 2, 4)]  # a one-repetition block is plain rows
    assert trace.column("step").tolist() == [0, 5, 6, 7, 7, 8, 9, 10, 11, 12]
    assert trace.column("k").tolist() == [7] + [6] * 9
    assert trace.column("m_sent").tolist() == [0, 2, 2, 2, 5, 1, 6, 3, 6, 3]
    assert trace.column("m_lost").tolist() == [0, 2, 2, 2, 1, 1, 3, 3, 3, 3]
    assert trace.boundary_column().tolist() == [3] + [4] * 9
    columns, starts, repeats, period = trace.stored()
    assert columns["step"].tolist() == [0, 5, 7, 8, 9, 10]
    assert columns["boundary"].tolist() == [3, 4, 4, 4, 4, 4]
    assert starts.tolist() == [0, 1, 4, 5, 6, 7]
    assert repeats.tolist() == [1, 3, 1, 1, 2, 2]
    assert period.tolist() == [1, 1, 1, 1, 2, 2]
    assert trace.first_complete_step() == 5
    assert (trace.final_k, trace.final_h) == (6, 2)


class _CountingTrace(Trace):
    """Counts ``record`` calls, which executed steps make, and the template
    rows of blocks."""

    recorded = block_rows = 0

    def record(self, state, m_sent, m_lost, acks):
        self.recorded += 1
        super().record(state, m_sent, m_lost, acks)

    def record_block(self, state, rows, repeats):
        self.block_rows += len(rows)
        super().record_block(state, rows, repeats)


def test_stored_rows_grow_with_executed_steps():
    topo = build_complete(64)
    state = NetworkState(topo)
    driver = make_driver("nosod-complete", topo, 0.55, 2.0, state)
    _, trace = simulate(topo, driver, RandomAdversary(0), 0.55, state=state,
                        trace=_CountingTrace(topo))
    assert len(trace) == 1547659
    assert trace._data.shape[0] == trace.recorded + trace.block_rows == 231
    # A tail of dead rounds, 9 elimination tails and 9 empty step-A tails;
    # one-step blocks are plain rows.
    assert len(trace._runs) == 19


def test_trace_consumers_memory_does_not_grow_with_steps():
    # The 1.55M-step trace above stores 231 rows; expanding a column to
    # one entry per step costs 12.4 MB.  The export reuses one piece of 10,000
    # lines, about 0.7 MB, for its long runs.
    trace = run_protocol("nosod-complete", build_complete(64), 0.55, 2.0, RandomAdversary(0))[2]
    peaks = {}
    for name, consume in (("validate", lambda: validate_trace(trace)),
                          ("to_jsonl", lambda: trace.to_jsonl(os.devnull))):
        tracemalloc.start()
        try:
            consume()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["validate"] < 5e6
    assert peaks["to_jsonl"] <= 2e6
