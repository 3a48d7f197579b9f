"""Exhaustive worst-case adversary search on tiny complete graphs (n <= 6).

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
one matrix product over (kill sets x surviving messages) and (messages x
what each one delivers) gives every child's post-step informed and passive
arrays, by the rule of the engine: a surviving message of an INFO batch
informs its destination, and every surviving message marks the opposite arc
passive.  A child completes when no vertex is left uninformed.  Only the
first completed child is built; its siblings take its value.  A built child
applies its kill mask with ``engine.apply_kills``, after one ``check_batch``
of the batch all children share; its kill set is legal by construction.

A canonical key is the least image of the stacked informed and passive bits
over the permutations, as one integer per permutation (``rows @ W`` for a
weight matrix built once per search), plus the least driver part
(``key_parts``) over the permutations that reach that image.  The children of
a step whose driver keeps nothing of the deliveries beyond those arrays
(``Driver.keeps_deliveries``; greedy and acknowledgement steps) share one
driver state, so every open child is keyed in bulk before any is built, and a
child whose key the memo already holds takes the memo's value unbuilt.  Each
child that is built checks the precomputed arrays and the shared driver key
against the engine.

By default only maximal kill sets (size = min(m, budget)) are explored;
``all_sizes=True`` removes that assumption at exponential extra cost.
"""

import math
from bisect import bisect
from dataclasses import dataclass
from itertools import chain, combinations, permutations

import numpy as np

from . import bounds
from .engine import INFO, NetworkState, SendBatch, apply_kills, check_batch, fault_budget
from .errors import InvalidParameterError, TooLargeError
from .protocols import BATCH, build_topology, make_driver
from .topology import COMPLETE, build_complete, complete_arc_id

HORIZON_EXCEEDED = math.inf

_SIZE_CAP = 6
_CHUNK = 4096  # kill sets classified at a time


@dataclass
class SearchResult:
    worst_steps: float  # max completion step, or inf when some play never completes
    horizon: int
    # expand calls; neither the completed children scored in bulk nor the
    # children whose key the memo already held before they were built count
    nodes: int
    states: int  # memoized states with k > 0; completed states are settled by step index

    @property
    def horizon_exceeded(self) -> bool:
        return not math.isfinite(self.worst_steps)


def _vertex_perms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex and arc-id permutations induced by the vertex permutations fixing
    the initiator, vertex 0, one permutation per row."""
    vmaps = np.zeros((math.factorial(n - 1), n), dtype=np.int64)
    vmaps[:, 1:] = list(permutations(range(1, n)))
    topo = build_complete(n)
    return vmaps, complete_arc_id(n, vmaps[:, topo.arc_src], vmaps[:, topo.arc_dst])


def _image_weights(vmaps: np.ndarray, arc_perms: np.ndarray) -> np.ndarray:
    """Weights W with W[x, i] = 2**(bit of x's image under permutation i), for
    x over the stacked informed then passive arrays; the informed bits lie
    above the passive ones, each array's first entry highest.  ``rows @ W``
    is then every permuted image of each row as one number, ordered as the
    images compare lexicographically."""
    n, arcs = vmaps.shape[1], arc_perms.shape[1]
    bits = n + arcs
    assert bits <= 53, "float64 holds the images exactly below 2**53"
    position = np.concatenate([vmaps, n + arc_perms], axis=1).T
    return np.ldexp(1.0, bits - 1 - position)


def _least_images(rows: np.ndarray, weights: np.ndarray) -> tuple[list, np.ndarray]:
    """Per row of stacked informed and passive arrays: its least permuted image
    as an int, and which permutations (columns of ``weights``) reach it."""
    images = rows @ weights
    least = images.min(axis=1)
    return least.astype(np.int64).tolist(), images == least[:, None]


def _children(state: NetworkState, batch: SendBatch, sizes, kill_sets: dict):
    """Every kill set of the given sizes, a chunk at a time, as a mask of the
    killed messages, with each child's post-step informed and passive arrays
    side by side (one row per kill set) and whether the step completes it.
    ``kill_sets`` caches the kill sets of each (batch size, kill count) in
    order, one per row.

    The rows follow the rule of ``engine._deliver``: a surviving message marks
    the opposite of its arc passive, and a surviving message of an INFO batch
    informs its destination.
    """
    topo = state.topo
    n, m = topo.n, batch.m
    effects = np.zeros((m, n + topo.num_arcs), dtype=np.float32)
    if batch.kind == INFO:
        effects[np.arange(m), topo.arc_dst[batch.arcs]] = 1
    effects[np.arange(m), n + topo.opp[batch.arcs]] = 1
    before = np.concatenate([state.informed, state.passive])
    for size in sizes:
        if (m, size) not in kill_sets:
            # int8: a batch on K_n, n <= 6, holds at most 30 messages.
            combos = np.fromiter(chain.from_iterable(combinations(range(m), size)), dtype=np.int8)
            kill_sets[m, size] = combos.reshape(math.comb(m, size), size)
        every = kill_sets[m, size]
        for lo in range(0, every.shape[0], _CHUNK):
            kills = every[lo:lo + _CHUNK]
            alive = np.ones((kills.shape[0], m), dtype=np.float32)
            np.put_along_axis(alive, kills, 0, axis=1)
            after = (alive @ effects > 0) | before
            yield alive == 0, after[:, :n].all(axis=1), after


def worst_case_search(n: int, protocol: str, alpha: float, horizon: int | None = None,
                      eps: float | None = None, all_sizes: bool = False) -> SearchResult:
    """Maximum steps any budget-respecting adversary can force on the K_n that
    ``protocol`` needs, or horizon excess.

    eps defaults to ``bounds.default_eps`` of the complete graph.  A play
    deeper than the recursion limit, one level per step, raises TooLargeError."""
    if n > _SIZE_CAP:  # checked before a size is built: K_n has n(n-1) arcs
        raise TooLargeError(f"search capped at n <= {_SIZE_CAP}, got n = {n}")
    topo = build_topology(protocol, COMPLETE, n)
    eps = bounds.default_eps(COMPLETE) if eps is None else eps
    bounds.check_eps(COMPLETE, eps)
    if horizon is not None and horizon < 0:
        raise InvalidParameterError(f"horizon {horizon} < 0")

    state0 = NetworkState(topo)
    driver0 = make_driver(protocol, topo, alpha, eps, state0)
    driver0.attach(None)
    if horizon is None:
        horizon = driver0.total_steps
    vmaps, arc_perms = _vertex_perms(n)
    identity = np.arange(topo.num_arcs)
    weights = _image_weights(vmaps, arc_perms)
    c = topo.edge_connectivity
    memo: dict = {}
    settled: dict[int, float] = {}  # step index of a completed state -> its value
    kill_sets: dict = {}  # (batch size, kill count) -> every kill set, one per row
    tables: dict = {}  # key_parts(identity) -> (rank of key_parts per permutation, parts ascending)
    counters = {"nodes": 0}

    def canonical(state: NetworkState, driver) -> tuple:
        # Only the permutations that tie for the least image need the driver's part.
        (least,), ties = _least_images(np.concatenate([state.informed, state.passive])[None],
                                       weights)
        return least, min(driver.key_parts(arc_perms[i]) for i in np.flatnonzero(ties[0]))

    def parts_table(driver, ident: tuple) -> tuple[np.ndarray, list]:
        """The driver's key_parts under every permutation, ranked; ``ident``,
        its key_parts(identity), determines them all."""
        if ident not in tables:
            parts = [driver.key_parts(p) for p in arc_perms]
            ordered = sorted(set(parts))
            rank = {p: r for r, p in enumerate(ordered)}
            tables[ident] = (np.array([rank[p] for p in parts]), ordered)
        return tables[ident]

    def least_parts(ties: np.ndarray, table) -> list:
        """Per row of ties, the least driver part over the tied permutations."""
        rank, ordered = table
        if len(ordered) == 1:  # the same under every permutation
            return ordered * ties.shape[0]
        return [ordered[r] for r in np.where(ties, rank, len(ordered)).min(axis=1).tolist()]

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
                check_batch(st, batch)
                dr.absorb(st, apply_kills(st, batch, np.zeros(batch.m, dtype=bool),
                                          fault_budget(batch.m, c, alpha)))
                if dr.at_checkpoint():
                    value = float(st.step_index)
                    break
            settled[t] = value
        return settled[t]

    def expand(state: NetworkState, driver, key: tuple | None = None) -> float:
        counters["nodes"] += 1
        if state.k == 0:
            return settle(state, driver)
        if driver.done():
            return HORIZON_EXCEEDED  # schedule exhausted without completion
        if state.step_index >= horizon:
            return HORIZON_EXCEEDED
        if key is None:
            key = canonical(state, driver)
        if key in memo:
            return memo[key]
        # The batch does not depend on the kill set: build it once on a probe
        # and clone every child from the probe after its next().
        probe_state = state.clone()
        probe = driver.clone(probe_state)
        kind, batch = probe.next(probe_state, False)
        assert kind == BATCH
        check_batch(state, batch)  # the one batch of every child
        m = batch.m
        budget = fault_budget(m, c, alpha)
        ksize = min(m, budget)
        sizes = range(ksize + 1) if all_sizes else (ksize,)
        # When the step keeps nothing of the deliveries beyond the arrays, all
        # children's drivers key alike: the first stepped child's driver keys
        # every open child, and one whose key the memo holds is not built.
        # Were the children cut by the schedule or the horizon, the first open
        # one returns HORIZON_EXCEEDED and ends the loop before any lookup.
        lookup = not probe.keeps_deliveries()
        shared = table = None  # key_parts(identity) and parts_table of that driver
        worst = 0.0
        completed = None  # value of every child the step completes
        for killed, completes, after in _children(state, batch, sizes, kill_sets):
            open_ = np.flatnonzero(~completes)
            if open_.size:
                least, ties = _least_images(after[open_], weights)
            parts = None if table is None or not open_.size else least_parts(ties, table)
            # Open children in order, each with its row among them; of the
            # completed ones only the first needs a visit, the rest share its value.
            visits = list(enumerate(open_.tolist()))
            if completed is None and completes.any():
                first = int(completes.argmax())
                visits.insert(bisect(open_, first), (None, first))
            for r, j in visits:
                if parts is not None and r is not None and (least[r], parts[r]) in memo:
                    value = memo[least[r], parts[r]]
                else:
                    st = state.clone()
                    dr = probe.clone(st)
                    dr.absorb(st, apply_kills(st, batch, killed[j], budget))
                    assert (st.k == 0) == completes[j]
                    assert (st.informed == after[j, :n]).all()
                    assert (st.passive == after[j, n:]).all()
                    if lookup:
                        ident = dr.key_parts(identity)
                        if table is None:
                            shared, table = ident, parts_table(dr, ident)
                            parts = least_parts(ties, table) if open_.size else None
                        assert ident == shared
                    if r is None:
                        value = float(st.step_index) if dr.at_checkpoint() else expand(st, dr)
                        completed = value
                    else:
                        part = parts[r] if parts is not None else min(
                            dr.key_parts(arc_perms[i]) for i in np.flatnonzero(ties[r]))
                        value = expand(st, dr, (least[r], part))
                if value > worst:
                    worst = value
                    if worst == HORIZON_EXCEEDED:
                        break
            if worst == HORIZON_EXCEEDED:
                break
        memo[key] = worst
        return worst

    if state0.k == 0:
        return SearchResult(0.0, horizon, 0, 0)
    try:
        worst = expand(state0, driver0)
    except RecursionError:
        raise TooLargeError(f"a play of up to {horizon} steps is deeper than the search "
                            "can recurse; give a smaller horizon") from None
    return SearchResult(worst, horizon, counters["nodes"], len(memo))
