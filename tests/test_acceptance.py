"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The criteria are property-based (the guarantees are worst-case bounds with
explicit schedule budgets), so each test sweeps the stated parameter grid
against the shipped adversaries, checks finals and per-round invariants, and
enforces its wall-clock budget.  Budget soundness (criterion 7) is accumulated
over every trace produced by criteria 1-4.
"""

import time

import numpy as np
import pytest

from faultcast import bounds, harness, protocols, topology, validate
from faultcast.adversary import AckSuppressor, RandomAdversary, VictimGuard
from faultcast.engine import NetworkState
from faultcast.errors import AdversaryViolation, UnsupportedAlphaError
from faultcast.harness import ExperimentConfig, run, verify_regressions
from faultcast.search import worst_case_search

# Shared accumulator for criterion 7: every step of every run below is
# budget-checked; the counter records how many steps were inspected.
_BUDGET_AUDIT = {"steps": 0, "violations": 0}


def _audit(trace, alpha):
    _BUDGET_AUDIT["steps"] += len(trace)
    _BUDGET_AUDIT["violations"] += len(validate.check_budget(trace, alpha))


def _finish(num, name, t0, budget, problems, capsys, domain=None, minimum="n_min"):
    """Print and assert a criterion's verdict.  ``domain`` maps each alpha of
    a K_n or Q_d grid to whether each of its configs ran at or above the size
    minimum, where the theorem and the validator's error-level checks apply."""
    elapsed = time.perf_counter() - t0
    detail = f"{elapsed:.1f}s of {budget:.0f}s budget"
    if domain is not None:
        problems = problems + [f"alpha={a}: no config at or above {minimum}"
                               for a, above in domain.items() if not any(above)]
        detail += (f", {sum(map(sum, domain.values()))} of "
                   f"{sum(map(len, domain.values()))} configs at or above {minimum}")
    ok = not problems and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    detail = problems[0] if problems else detail
    with capsys.disabled():
        print(f"\nCRITERION {num} [{name}]: {status} ({detail})", flush=True)
    assert not problems, "; ".join(problems[:10])
    assert elapsed <= budget, f"runtime {elapsed:.1f}s exceeds budget {budget:.0f}s"


def _adversaries(topo, random_seeds):
    advs = [RandomAdversary(seed) for seed in range(random_seeds)]
    advs.append(VictimGuard(topo.n - 1))
    advs.append(AckSuppressor(0))
    return advs


def test_criterion_1_theorem2_complete(capsys):
    t0 = time.perf_counter()
    problems = []
    domain = {}
    eps = 2.0
    for n in (16, 64, 256, 1024):
        for alpha in (0.3, 0.5, 0.7):
            topo = topology.build_complete(n)
            asserted = bounds.asserted(topo, alpha, eps)
            k_limit, h_limit = bounds.almost_complete_limits(topo, alpha, eps)
            steps = protocols.PROTOCOLS["almost-kn"].steps(n, None, alpha, eps, None)
            for adv in _adversaries(topo, random_seeds=10):
                trace = protocols.almost_complete_kn(n, alpha, eps, adv)
                _audit(trace, alpha)
                domain.setdefault(alpha, []).append(asserted)
                tag = f"n={n} a={alpha} {adv.id}"
                if trace.total_steps != steps:
                    problems.append(f"{tag}: schedule length {trace.total_steps}")
                if asserted:
                    if trace.final_k > k_limit:
                        problems.append(f"{tag}: final k {trace.final_k} > X*eps")
                    if trace.final_h > h_limit:
                        problems.append(f"{tag}: final h {trace.final_h} > X(n-2)")
                bad = validate.errors_only(validate.validate_trace(trace, alpha, eps))
                problems.extend(f"{tag}: {v}" for v in bad)
    _finish(1, "Theorem 2, K_n almost-complete", t0, 120.0, problems, capsys, domain)


def test_criterion_2_theorem3_hypercube(capsys):
    t0 = time.perf_counter()
    problems = []
    domain = {}
    eps = 0.5
    grid = [(d, alpha, 10) for d in (6, 8, 10, 12) for alpha in (0.3, 0.5)]
    # Theorem 3's own domain, where the validator's round checks are errors:
    # d_min is 14 at alpha 0.3, 13 at 0.5 and 18 at 0.7.  One random seed on
    # Q_18, whose runs send about 33M messages each.
    grid += [(bounds.d_min(alpha, eps), alpha, 10) for alpha in (0.3, 0.5)]
    grid.append((bounds.d_min(0.7, eps), 0.7, 1))
    for d, alpha, random_seeds in grid:
        topo = topology.build_hypercube(d)
        k_limit, h_limit = bounds.almost_complete_limits(topo, alpha, eps)
        steps = protocols.PROTOCOLS["hypercube"].steps(topo.n, d, alpha, eps, None)
        for adv in _adversaries(topo, random_seeds=random_seeds):
            trace = harness.run_protocol("hypercube", topo, alpha, eps, adv)[2]
            _audit(trace, alpha)
            domain.setdefault(alpha, []).append(d >= bounds.d_min(alpha, eps))
            tag = f"d={d} a={alpha} {adv.id}"
            if trace.total_steps != steps:
                problems.append(f"{tag}: schedule length {trace.total_steps}")
            if trace.final_k > k_limit:
                problems.append(f"{tag}: final k {trace.final_k} > X/(1-eps)")
            if trace.final_h > h_limit:
                problems.append(f"{tag}: final h {trace.final_h} > X(d-1)")
            bad = validate.errors_only(validate.validate_trace(trace, alpha, eps))
            problems.extend(f"{tag}: {v}" for v in bad)
    _finish(2, "Theorem 3, hypercube", t0, 180.0, problems, capsys, domain, "d_min")


def test_criterion_3_theorem8_sod(capsys):
    t0 = time.perf_counter()
    problems = []
    domain = {}
    eps = 2.0
    for n in (16, 64, 256):
        for alpha in (0.3, 0.5, 0.7):
            topo = protocols.build_topology("sod-complete", topology.COMPLETE, n)
            steps = protocols.PROTOCOLS["sod-complete"].steps(n, None, alpha, eps, None)
            for adv in _adversaries(topo, random_seeds=2):
                trace = harness.run_protocol("sod-complete", topo, alpha, eps, adv)[2]
                _audit(trace, alpha)
                domain.setdefault(alpha, []).append(n >= bounds.n_min(alpha, eps))
                tag = f"n={n} a={alpha} {adv.id}"
                if trace.total_steps != steps:
                    problems.append(f"{tag}: schedule length {trace.total_steps}")
                if trace.final_k != 0:
                    problems.append(f"{tag}: final k {trace.final_k} != 0")
                quorum = validate.check_phase2_quorum(trace, alpha, eps)
                problems.extend(f"{tag}: {v}" for v in quorum)  # any level
                bad = validate.errors_only(validate.validate_trace(trace, alpha, eps))
                problems.extend(f"{tag}: {v}" for v in bad)
    _finish(3, "Theorem 8, SoD complete broadcast", t0, 60.0, problems, capsys, domain)


def test_criterion_4_theorem9_nosod(capsys):
    t0 = time.perf_counter()
    problems = []
    domain = {}
    eps = 2.0
    for n in (16, 64, 256):
        for alpha in (0.3, 0.5, 0.55):
            cc = bounds.constants(alpha)
            if cc.y <= 0.0:
                problems.append(f"alpha={alpha}: Y unexpectedly <= 0")
                continue
            steps = protocols.PROTOCOLS["nosod-complete"].steps(n, None, alpha, eps, None)
            topo = topology.build_complete(n)
            for adv in _adversaries(topo, random_seeds=2):
                trace = harness.run_protocol("nosod-complete", topo, alpha, eps, adv)[2]
                _audit(trace, alpha)
                domain.setdefault(alpha, []).append(n >= bounds.n_min(alpha, eps))
                tag = f"n={n} a={alpha} {adv.id}"
                if trace.final_k != 0:
                    problems.append(f"{tag}: final k {trace.final_k} != 0")
                if trace.total_steps > steps:
                    problems.append(f"{tag}: steps {trace.total_steps} over schedule")
                inner = validate.check_nosod_iterations(trace, alpha, eps)
                problems.extend(f"{tag}: {v}" for v in inner)  # any level
                bad = validate.errors_only(validate.validate_trace(trace, alpha, eps))
                problems.extend(f"{tag}: {v}" for v in bad)
    with pytest.raises(UnsupportedAlphaError):
        harness.run_protocol("nosod-complete", topology.build_complete(64), 0.6, eps,
                             RandomAdversary(0))
    _finish(4, "Theorem 9, Algorithm 1 without SoD", t0, 120.0, problems, capsys, domain)


def _greedy(protocol, topo, alpha, adversary):
    """The state after the two greedy init steps of ``protocol`` on ``topo``."""
    state = NetworkState(topo)
    driver = protocols.make_driver(protocol, topo, alpha, bounds.default_eps(topo.kind), state)
    protocols.simulate(topo, driver, adversary, alpha, state=state)
    return state


def test_criterion_5_greedy_lower_bounds(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(2024)
    for i in range(1000):
        alpha = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(2, 25))
        state = _greedy("greedy-kn", topology.build_complete(n), alpha, RandomAdversary(i))
        informed = int(np.count_nonzero(state.informed))
        lower = 1.0 + min(n / 2.0, (n - 1) * (1.0 - alpha))
        if informed < lower - 1e-9:
            problems.append(f"K_{n} a={alpha:.3f}: {informed} < {lower:.3f}")
    for i in range(1000):
        alpha = float(rng.uniform(0.05, 0.95))
        d = int(rng.integers(1, 7))
        state = _greedy("greedy-qd", topology.build_hypercube(d), alpha,
                        RandomAdversary(10_000 + i))
        informed = int(np.count_nonzero(state.informed))
        lower = (1.0 - alpha) * (2 * d - 1) / 2.0
        if informed < lower - 1e-9:
            problems.append(f"Q_{d} a={alpha:.3f}: {informed} < {lower:.3f}")
    _finish(5, "Lemmas 1 and 3, greedy init lower bounds", t0, 30.0, problems, capsys)


def test_criterion_6_isoperimetric_exhaustive(capsys):
    t0 = time.perf_counter()
    problems = []
    for d in (1, 2, 3, 4):
        topo = topology.build_hypercube(d)
        n = topo.n
        subsets = np.arange(1, 1 << n, dtype=np.uint32)
        src_in = (subsets[:, None] >> topo.arc_src[None, :].astype(np.uint32)) & 1
        dst_in = (subsets[:, None] >> topo.arc_dst[None, :].astype(np.uint32)) & 1
        boundary = np.count_nonzero((src_in == 1) & (dst_in == 0), axis=1)
        k = np.array([bin(s).count("1") for s in subsets])
        iso = k * (d - np.log2(k))
        bad = np.flatnonzero(boundary < iso - 1e-9)
        problems.extend(
            f"d={d} subset {subsets[i]:#x}: boundary {boundary[i]} < {iso[i]:.3f}"
            for i in bad[:5])
    _finish(6, "isoperimetric edge-boundary bound, exhaustive d<=4", t0, 30.0, problems, capsys)


class _CheatingAdversary(RandomAdversary):
    exhaustive = False
    id = "cheater"

    def decide(self, ctx, batch, budget):
        return np.arange(min(batch.m, budget + 1), dtype=np.int64)


def test_criterion_7_budget_soundness(capsys):
    t0 = time.perf_counter()
    problems = []
    if _BUDGET_AUDIT["steps"] < 100_000:
        problems.append(f"only {_BUDGET_AUDIT['steps']} steps audited")
    if _BUDGET_AUDIT["violations"]:
        problems.append(f"{_BUDGET_AUDIT['violations']} over-budget steps observed")
    try:
        protocols.almost_complete_kn(8, 0.5, 2.0, _CheatingAdversary(0))
        problems.append("cheating adversary was not rejected")
    except AdversaryViolation:
        pass
    _finish(7, "fault-budget soundness on every step", t0, 30.0, problems, capsys)


def test_criterion_8_oracle_regression(capsys):
    t0 = time.perf_counter()
    problems = []
    results = verify_regressions()
    for r in results:
        if not r["ok"]:
            problems.append(f"{r['name']}: expected {r['expected']}, got {r['got']}")
    k2 = worst_case_search(2, "simple-rounds", 0.5)
    if k2.worst_steps != 2:
        problems.append(f"K_2 oracle returned {k2.worst_steps}")
    # No heuristic adversary may beat the oracle on the same instances.
    w3 = worst_case_search(3, "almost-kn", 0.5).worst_steps
    w4 = worst_case_search(4, "nosod-complete", 0.5, horizon=200).worst_steps
    for adv in (RandomAdversary(0), RandomAdversary(7), VictimGuard(2), AckSuppressor(3)):
        tr = protocols.almost_complete_kn(3, 0.5, 2.0, adv)
        if tr.final_k != 0 or tr.first_complete_step() > w3:
            problems.append(f"K_3 heuristic {adv.id} beat or missed the oracle")
    k4 = topology.build_complete(4)
    for adv in (RandomAdversary(0), VictimGuard(3), AckSuppressor(3)):
        tr = harness.run_protocol("nosod-complete", k4, 0.5, 2.0, adv)[2]
        if tr.final_k != 0 or tr.first_complete_step() > w4:
            problems.append(f"K_4 heuristic {adv.id} beat or missed the oracle")
    _finish(8, "worst-case oracle regression", t0, 300.0, problems, capsys)


def test_criterion_9_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    problems = []
    for label, kwargs in (
        ("complete", dict(topology="complete", size=[16], alpha=[0.5],
                          protocol="almost-kn", adversary=["random", "victim_guard"],
                          seeds=3)),
        ("hypercube", dict(topology="hypercube", size=[5], alpha=[0.5],
                           protocol="hypercube", adversary=["ack_suppressor"],
                           seeds=2)),
        # Phase 2's candidate sets and the secondary sessions of the SoD
        # schedules, and the elimination passes without SoD.
        ("sod-complete", dict(topology="complete", size=[16], alpha=[0.5],
                              protocol="sod-complete", adversary=["random", "ack_suppressor"],
                              seeds=2)),
        ("nosod-complete", dict(topology="complete", size=[16], alpha=[0.5],
                                protocol="nosod-complete",
                                adversary=["random", "ack_suppressor"], seeds=2)),
    ):
        blobs = []
        for rep in ("x", "y"):
            out = tmp_path / f"{label}_{rep}"
            run(ExperimentConfig(out=str(out), **kwargs))
            files = sorted(p.name for p in out.iterdir())
            blobs.append({name: (out / name).read_bytes() for name in files})
        if blobs[0] != blobs[1]:
            problems.append(f"{label}: outputs differ between identical runs")
    _finish(9, "end-to-end determinism", t0, 60.0, problems, capsys)
