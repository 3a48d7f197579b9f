"""Engine semantics: budgets, step execution, arc classification, traces."""

import hashlib
import json
from itertools import combinations

import numpy as np
import pytest

from faultcast import engine
from faultcast.adversary import FixedKillAdversary, random_adversary
from faultcast.engine import (ACK, INFO, NetworkState, SendBatch, Trace,
                              classify_arc, execute_step, fault_budget)
from faultcast.errors import (AdversaryViolation, InvalidParameterError,
                              PreconditionViolation)
from faultcast.protocols import (almost_complete_kn, broadcast_hypercube, make_driver,
                                 nosod_complete, simulate)
from faultcast.topology import build_complete, build_hypercube


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


def _kill_none():
    return FixedKillAdversary([])


def test_k2_message_always_delivered():
    topo = build_complete(2)
    state = NetworkState(topo)
    batch = SendBatch.uniform(np.array([topo.arc_id(0, 1)]), INFO)
    report = execute_step(state, batch, random_adversary(0), 0.9)
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
    report = execute_step(state, SendBatch.uniform(np.array(arcs), INFO),
                          FixedKillAdversary([0, 1]), 0.5)
    assert report.budget == 2  # max{1, 2}
    assert len(report.delivered_idx) == 2


def test_adversary_violations():
    topo = build_complete(3)
    state = NetworkState(topo)
    state.informed[:] = True
    arcs = np.arange(4)
    batch = SendBatch.uniform(arcs, INFO)
    with pytest.raises(AdversaryViolation):
        execute_step(state.clone(), batch, FixedKillAdversary([0, 1, 2]), 0.5)
    with pytest.raises(AdversaryViolation):
        execute_step(state.clone(), batch, FixedKillAdversary([7]), 0.5)
    with pytest.raises(AdversaryViolation):
        execute_step(state.clone(), batch, FixedKillAdversary([1, 1]), 0.5)


def test_batch_validation():
    topo = build_complete(3)
    state = NetworkState(topo)  # only vertex 0 informed
    bad_sender = SendBatch.uniform(np.array([topo.arc_id(1, 2)]), INFO)
    with pytest.raises(InvalidParameterError):
        execute_step(state, bad_sender, _kill_none(), 0.5)
    dup = SendBatch.uniform(np.array([0, 0]), INFO)
    with pytest.raises(InvalidParameterError):
        execute_step(state, dup, _kill_none(), 0.5)
    out_of_range = SendBatch.uniform(np.array([99]), INFO)
    with pytest.raises(InvalidParameterError):
        execute_step(state, out_of_range, _kill_none(), 0.5)


def test_batch_validation_unsorted_and_ends():
    topo = build_complete(3)
    state = NetworkState(topo)  # vertex 0 sends on arcs 0 and 1
    # Unsorted batches get the full range check, not just their ends.
    for arcs in ([1, 99, 0], [1, -1, 0], [0, 1, -5, 1], [99, 0]):
        with pytest.raises(InvalidParameterError):
            execute_step(state.clone(), SendBatch.uniform(np.array(arcs), INFO),
                         _kill_none(), 0.5)
    # Ascending batches are bounded by their ends.
    for arcs in ([-1, 0], [0, 1, 99]):
        with pytest.raises(InvalidParameterError):
            execute_step(state.clone(), SendBatch.uniform(np.array(arcs), INFO),
                         _kill_none(), 0.5)
    # A duplicate-free unsorted batch is legal.
    report = execute_step(state, SendBatch.uniform(np.array([1, 0]), INFO), _kill_none(), 0.5)
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
    batch = SendBatch.uniform(np.array([topo.arc_id(0, 1)]), ACK)
    execute_step(state, batch, _kill_none(), 0.5)
    assert not state.informed[1]
    assert state.passive[topo.arc_id(1, 0)]


def test_k2_simple_round_by_hand():
    # Step A: info delivered (budget 0); step B: ack delivered; both arcs passive.
    topo = build_complete(2)
    state = NetworkState(topo)
    a01, a10 = topo.arc_id(0, 1), topo.arc_id(1, 0)
    execute_step(state, SendBatch.uniform(np.array([a01]), INFO), _kill_none(), 0.5)
    execute_step(state, SendBatch.uniform(np.array([a10]), ACK), _kill_none(), 0.5)
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
        execute_step(state, SendBatch.uniform(np.array(arcs), INFO),
                     FixedKillAdversary(kills), 0.5)
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
    adv = random_adversary(11)
    for _ in range(30):
        informed_before = state.informed.copy()
        passive_before = state.passive.copy()
        senders = np.flatnonzero(state.informed[topo.arc_src] & (rng.random(topo.num_arcs) < 0.5))
        execute_step(state, SendBatch.uniform(senders, INFO), adv, 0.4)
        assert np.all(state.informed >= informed_before)
        assert np.all(state.passive >= passive_before)


def test_trace_records_and_jsonl(tmp_path):
    topo = build_complete(3)
    state = NetworkState(topo)
    trace = Trace(topo)
    batch = SendBatch.uniform(np.sort([topo.arc_id(0, 1), topo.arc_id(0, 2)]), INFO)
    report = execute_step(state, batch, FixedKillAdversary([0]), 0.5)
    trace.record_step(state, report)
    trace.record_inert(state, 1, 3, state.step_index)
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
    # Inert records keep state columns frozen and step numbers consecutive.
    steps = [json.loads(l)["step"] for l in lines[:4]]
    assert steps == [1, 2, 3, 4]


def test_trace_first_complete_step():
    topo = build_complete(2)
    state = NetworkState(topo)
    trace = Trace(topo)
    a01, a10 = topo.arc_id(0, 1), topo.arc_id(1, 0)
    r = execute_step(state, SendBatch.uniform(np.array([a01]), INFO), _kill_none(), 0.5)
    trace.record_step(state, r)
    r = execute_step(state, SendBatch.uniform(np.array([a10]), ACK), _kill_none(), 0.5)
    trace.record_step(state, r)
    assert trace.final_k == 0
    assert trace.first_complete_step() == 1


def test_execute_step_deterministic_replay():
    topo = build_complete(6)
    runs = []
    for _ in range(2):
        state = NetworkState(topo)
        adv = random_adversary(5)
        log = []
        for _ in range(6):
            arcs = np.flatnonzero(state.informed[topo.arc_src] & ~state.passive)
            report = execute_step(state, SendBatch.uniform(arcs, INFO), adv, 0.5)
            log.append(report.delivered_arcs.tolist())
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
    """Executed stretches and inert runs, each longer than a 5-record chunk."""
    topo = build_complete(6)
    state = NetworkState(topo)
    trace = Trace(topo)
    adv = random_adversary(3)
    for stretch in (7, 0, 12, 1):
        for _ in range(stretch):
            arcs = np.flatnonzero(state.informed[topo.arc_src] & ~state.passive)
            trace.record_step(state, execute_step(state, SendBatch.uniform(arcs, INFO),
                                                  adv, 0.5))
        for count in (11, 1):
            trace.record_inert(state, 1, count, state.step_index)
            state.step_index += count
    trace.summary = {"protocol": "test", "alpha": 0.5}
    return trace


@pytest.mark.parametrize("build", [
    lambda: almost_complete_kn(16, 0.5, 2.0, random_adversary(0)),
    _runs_trace,
    lambda: broadcast_hypercube(5, 0.5, 0.5, random_adversary(1)),
    lambda: Trace(build_complete(4)),
], ids=["executed", "runs", "hypercube", "empty"])
def test_to_jsonl_matches_per_row_writer(build, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "_JSONL_CHUNK", 5)
    trace = build()
    trace.to_jsonl(tmp_path / "t.jsonl")
    _reference_jsonl(trace, tmp_path / "ref.jsonl")
    assert (tmp_path / "t.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def test_to_jsonl_digest_unchanged(tmp_path):
    # The digest of the per-row json.dumps writer this format started from.
    trace = nosod_complete(16, 0.5, 2.0, random_adversary(0))
    trace.to_jsonl(tmp_path / "t.jsonl")
    digest = hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest()
    assert digest == "938b119e010f3674d53385618cf55dd31f96831aed718ac388ea6912ebfe8495"


def test_inert_runs_expand_to_steps():
    topo = build_hypercube(3)
    state = NetworkState(topo)
    trace = Trace(topo, track_boundary=True)
    trace.record(state, 0, 0, 0)
    state.informed[1] = True
    state.version += 1
    state.step_index = 4
    trace.record_inert(state, 2, 3, state.step_index)
    state.step_index += 3
    trace.record(state, 5, 1, 2)
    assert len(trace) == trace.total_steps == 5
    assert trace._data.shape[0] == 3
    assert trace.column("step").tolist() == [0, 5, 6, 7, 7]
    assert trace.column("k").tolist() == [7, 6, 6, 6, 6]
    assert trace.column("m_lost").tolist() == [0, 2, 2, 2, 1]
    assert trace.boundary_column().tolist() == [3, 4, 4, 4, 4]
    assert trace.first_complete_step() == 5
    assert (trace.final_k, trace.final_h) == (6, 2)


class _CountingTrace(Trace):
    executed = inert_calls = 0

    def record_step(self, state, report):
        self.executed += 1
        super().record_step(state, report)

    def record_inert(self, state, m_sent, count, step_start):
        self.inert_calls += 1
        super().record_inert(state, m_sent, count, step_start)


def test_stored_rows_grow_with_executed_steps():
    topo = build_complete(64)
    state = NetworkState(topo)
    driver = make_driver("nosod-complete", topo, 0.55, 2.0, state)
    _, trace = simulate(topo, driver, random_adversary(0), 0.55, state=state,
                        trace=_CountingTrace(topo))
    assert len(trace) == 1547659
    assert trace._data.shape[0] <= trace.executed + trace.inert_calls
    assert trace._data.shape[0] < len(trace) // 100
