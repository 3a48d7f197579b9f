"""Exhaustive worst-case adversary search on tiny complete graphs.

Plays the full game tree: at every step the adversary tries every legal kill
set, and the result is the maximum step index at which the protocol's
completion predicate (k == 0, evaluated at schedule checkpoints) first holds.
States are memoized after canonicalization modulo permutations of the
non-initiator vertices, which collapses the symmetric branches that dominate
the tree.

A completed state (k == 0) between checkpoints is settled without branching.
The drivers run a fixed schedule, so ``done()``, ``at_checkpoint()`` and the
step index depend on the schedule position only, never on the kills.  Every
play from such a state therefore reaches the same next checkpoint, or runs
out of schedule or horizon, at the same step; one continuation stands for
all of them, and its value is cached by step index.

The same invariant scores the completed children of an expanded state in
bulk.  All children of one state share the step index and the schedule
position, so every child the step completes has one value: its step index if
it is at a checkpoint, else its settled value.  Before building any child,
one boolean matrix product over (kill sets x surviving messages) and
(messages x uninformed destinations they inform) finds the kill sets after
which every uninformed vertex still receives an INFO or INFO_CANDS message,
the rule by which the engine informs a vertex.  Only the first such child is
built and stepped through the validated engine; its siblings take its value.

By default only maximal kill sets (size = min(m, budget)) are explored;
``all_sizes=True`` removes that assumption at exponential extra cost.
"""

import math
from dataclasses import dataclass
from itertools import combinations, islice, permutations

import numpy as np

from .adversary import FixedKillAdversary
from .engine import INFO, INFO_CANDS, NetworkState, SendBatch, execute_step, fault_budget
from .errors import TooLargeError, UnsupportedTopologyError
from .protocols import BATCH, make_driver
from .topology import COMPLETE, Topology, build_complete

HORIZON_EXCEEDED = math.inf

_SIZE_CAP = 5
_CHUNK = 4096  # kill sets classified at a time


@dataclass
class SearchResult:
    worst_steps: float  # max completion step, or inf when some play never completes
    horizon: int
    nodes: int  # expand calls; completed children scored in bulk are not counted
    states: int  # memoized states with k > 0; completed states are settled by step index

    @property
    def horizon_exceeded(self) -> bool:
        return not math.isfinite(self.worst_steps)


def _vertex_perms(n: int, initiator: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex and arc-id permutations induced by the vertex permutations fixing
    the initiator, one permutation per row."""
    others = [v for v in range(n) if v != initiator]
    vmaps, arc_perms = [], []
    for perm in permutations(others):
        vmap = np.empty(n, dtype=np.int64)
        vmap[initiator] = initiator
        vmap[others] = perm
        arc_perm = np.empty(n * (n - 1), dtype=np.int64)
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                a = u * (n - 1) + (v if v < u else v - 1)
                pu, pv = int(vmap[u]), int(vmap[v])
                arc_perm[a] = pu * (n - 1) + (pv if pv < pu else pv - 1)
        vmaps.append(vmap)
        arc_perms.append(arc_perm)
    return np.array(vmaps), np.array(arc_perms)


def _completing(state: NetworkState, batch: SendBatch, kill_sets: list) -> np.ndarray:
    """Per kill set, whether the step leaves no vertex uninformed: each one
    still receives a surviving INFO or INFO_CANDS message."""
    topo = state.topo
    kinds = batch.kinds
    informing = (kinds == INFO) | (kinds == INFO_CANDS)
    uninformed = np.flatnonzero(~state.informed)
    reach = informing[:, None] & (topo.arc_dst[batch.arcs][:, None] == uninformed)
    kills = np.array(kill_sets, dtype=np.intp).reshape(len(kill_sets), -1)
    alive = np.ones((len(kill_sets), batch.m), dtype=bool)
    alive[np.arange(len(kill_sets))[:, None], kills] = False
    return (alive @ reach).all(axis=1)


def _kill_sets(state: NetworkState, batch: SendBatch, sizes):
    """Every kill set of the given sizes, in order, with whether it completes the step."""
    for size in sizes:
        combos = combinations(range(batch.m), size)
        while chunk := list(islice(combos, _CHUNK)):
            yield from zip(chunk, _completing(state, batch, chunk))


def worst_case_search(topo: Topology | int, protocol: str, alpha: float,
                      horizon: int | None = None, eps: float = 2.0,
                      all_sizes: bool = False, initiator: int = 0) -> SearchResult:
    """Maximum steps any budget-respecting adversary can force, or horizon excess."""
    if isinstance(topo, int):
        topo = build_complete(topo, port_seed=None)
    if topo.kind != COMPLETE:
        raise UnsupportedTopologyError("worst-case search supports complete graphs only")
    if topo.n > _SIZE_CAP:
        raise TooLargeError(f"search capped at n <= {_SIZE_CAP}, got n = {topo.n}")

    state0 = NetworkState(topo, initiator=initiator)
    driver0 = make_driver(protocol, topo, alpha, eps, state0)
    driver0.attach(None)
    if horizon is None:
        horizon = driver0.total_steps
    vmaps, arc_perms = _vertex_perms(topo.n, initiator)
    # The permuted copy of an array x is x[inverse] for the inverse permutation.
    vinv = np.argsort(vmaps, axis=1)
    ainv = np.argsort(arc_perms, axis=1)
    c = topo.edge_connectivity
    memo: dict = {}
    settled: dict[int, float] = {}  # step index of a completed state -> its value
    counters = {"nodes": 0}

    def canonical(state: NetworkState, driver) -> tuple:
        # Rows of the packed informed and passive arrays under every permutation;
        # only the rows that tie for the least one need the driver's part.
        packed = np.concatenate([np.packbits(state.informed[vinv], axis=1),
                                 np.packbits(state.passive[ainv], axis=1)], axis=1)
        rows = [row.tobytes() for row in packed]
        first = min(rows)
        return min((first, driver.key_parts(arc_perms[i]))
                   for i, row in enumerate(rows) if row == first)

    def settle(state: NetworkState, driver) -> float:
        """Value of a completed state that is not at a checkpoint: the step of
        the next checkpoint, or HORIZON_EXCEEDED if the schedule or the horizon
        ends first.  Every play gives the same value; this one kills nothing."""
        t = state.step_index
        if t not in settled:
            st = state.clone()
            dr = driver.clone(st)
            value = HORIZON_EXCEEDED
            while not dr.done() and st.step_index < horizon:
                kind, batch = dr.next(st, False)
                assert kind == BATCH
                dr.absorb(st, execute_step(st, batch, FixedKillAdversary(()), alpha))
                if dr.at_checkpoint():
                    value = float(st.step_index)
                    break
            settled[t] = value
        return settled[t]

    def expand(state: NetworkState, driver) -> float:
        counters["nodes"] += 1
        if state.k == 0:
            return settle(state, driver)
        if driver.done():
            return HORIZON_EXCEEDED  # schedule exhausted without completion
        if state.step_index >= horizon:
            return HORIZON_EXCEEDED
        key = canonical(state, driver)
        if key in memo:
            return memo[key]
        # The batch does not depend on the kill set: build it once on a probe
        # and clone every child from the probe after its next().
        probe_state = state.clone()
        probe = driver.clone(probe_state)
        kind, batch = probe.next(probe_state, False)
        assert kind == BATCH
        m = batch.m
        budget = fault_budget(m, c, alpha)
        ksize = min(m, budget)
        sizes = range(ksize + 1) if all_sizes else (ksize,)
        worst = 0.0
        completed = None  # value of every child the step completes
        for kills, completes in _kill_sets(state, batch, sizes):
            if completes and completed is not None:
                value = completed
            else:
                st = state.clone()
                dr = probe.clone(st)
                report = execute_step(st, batch, FixedKillAdversary(kills), alpha)
                dr.absorb(st, report)
                assert (st.k == 0) == completes
                if dr.at_checkpoint() and st.k == 0:
                    value = float(st.step_index)
                else:
                    value = expand(st, dr)
                if completes:
                    completed = value
            if value > worst:
                worst = value
            if not math.isfinite(worst):
                break
        memo[key] = worst
        return worst

    if state0.k == 0:
        return SearchResult(0.0, horizon, 0, 0)
    worst = expand(state0, driver0)
    return SearchResult(worst, horizon, counters["nodes"], len(memo))
