"""Per-vertex broadcast protocols compiled to fixed synchronous schedules.

Every protocol is a Driver: a deterministic schedule that emits one SendBatch
per time step and absorbs the delivery report.  Schedule lengths are computed
up front from (n or d, alpha, eps) alone, because vertices cannot observe
global progress; runs always execute their full schedule.

A driver may instead emit an *inert* block: a run of steps it can prove will
deliver nothing (batch size <= c-1, so an exhaustive adversary kills it all).
The run loop bulk-records those steps without touching state, which keeps the
long deterministic tails of the schedules cheap without changing semantics.

Sub-broadcasts (sense-of-direction phases 3+, candidate-set spreading) run as
Sessions: a fresh per-arc mark array and a fresh "aware" set for the session
payload, while global informed/passive bookkeeping continues underneath.

The sense-of-direction schedules are SeqDriver/MultiplexDriver compositions
of two generic phases: a LazyDriver, whose builder picks the phase's driver
from what earlier phases found, and a SweepDriver, which sends to one group
of targets per step.  A phase builder must not capture the driver it belongs
to, or each finished run stays alive in a reference cycle until a GC pass.
"""

import math

import numpy as np

from . import bounds
from .adversary import AdversaryPolicy
from .engine import (ACK, INFO, INFO_CANDS, NetworkState, SendBatch, Trace,
                     execute_step)
from .errors import InvalidParameterError, UnsupportedTopologyError
from .topology import COMPLETE, HYPERCUBE, Topology, build_complete, build_hypercube

BATCH = "batch"
INERT = "inert"


class Session:
    """One broadcast payload spreading through the network.

    The primary session aliases the global informed/passive arrays; secondary
    sessions (candidate-set broadcasts) keep their own aware set and arc marks,
    because their round schedule must flood arcs that earlier payloads already
    marked.  A secondary session may also copy its aware set into the
    ``also_aware`` array.

    The session keeps its send frontier (the unmarked out-arcs of aware
    vertices, ascending) up to date from the reports it absorbs.  Other
    drivers also step the global arrays under a primary session, so a primary
    frontier is valid only at the state version it was last synced to; on any
    other version it is rebuilt from scratch once.
    """

    def __init__(self, topo: Topology, origin: int, payload=None, state: NetworkState = None,
                 also_aware: np.ndarray | None = None):
        self.topo = topo
        self.origin = origin
        self.payload = payload
        self.primary = state is not None
        if self.primary and also_aware is not None:
            raise InvalidParameterError("a primary session is aware of exactly the informed set")
        self.also_aware = also_aware
        self.frontier = None  # built on first use
        self.synced = -1  # state version the primary frontier describes
        if self.primary:
            self.aware = state.informed
            self.marks = state.passive
        else:
            self.aware = np.zeros(topo.n, dtype=bool)
            self.aware[origin] = True
            self.marks = np.zeros(topo.num_arcs, dtype=bool)
        if also_aware is not None:
            also_aware[origin] = True

    @property
    def payload_kind(self) -> int:
        return INFO if self.payload is None else INFO_CANDS

    def sends(self, state: NetworkState) -> np.ndarray:
        """Arcs this session floods in a step A; the caller must not modify them."""
        if self.frontier is None or (self.primary and self.synced != state.version):
            self.frontier = np.flatnonzero(self.aware[self.topo.arc_src] & ~self.marks)
            self.synced = state.version
        return self.frontier

    def absorb(self, state: NetworkState, report) -> None:
        darr = report.delivered_arcs
        if not darr.size:
            return
        if self.primary:
            fresh = report.new_informed
            if self.synced != state.version - 1:
                self.frontier = None  # the state moved without this session
            self.synced = state.version
        else:
            self.marks[self.topo.opp[darr]] = True
            dsts = self.topo.arc_dst[darr[report.batch.kinds[report.delivered_idx] != ACK]]
            fresh = np.unique(dsts[~self.aware[dsts]])
            self.aware[fresh] = True
            if self.also_aware is not None:
                self.also_aware[dsts] = True
        if self.frontier is not None:
            self._advance(fresh)

    def _advance(self, fresh: np.ndarray) -> None:
        """Drop newly marked arcs; add the unmarked out-arcs of newly aware vertices."""
        frontier = self.frontier[~self.marks[self.frontier]]
        if fresh.size:
            outs = self.topo.out_arcs_of(fresh)
            frontier = np.sort(np.concatenate([frontier, outs[~self.marks[outs]]]))
        self.frontier = frontier

    def clone_primary(self, new_state: NetworkState) -> "Session":
        assert self.primary
        other = Session(self.topo, self.origin, self.payload, state=new_state)
        other.frontier = self.frontier  # replaced, never modified, on update
        other.synced = self.synced
        return other


class Driver:
    """Deterministic schedule feeding the engine one step at a time."""

    total_steps: int = 0
    trace: Trace | None = None

    def attach(self, trace: Trace | None) -> None:
        self.trace = trace

    def done(self) -> bool:
        """Whether the schedule is exhausted.

        Like ``at_checkpoint``, this depends on the schedule position only,
        never on which messages were killed: with ``exhaustive=False`` every
        ``next`` emits one batch and advances the position by one step.  The
        search oracle settles completed states on this invariant.
        """
        raise NotImplementedError

    def next(self, state: NetworkState, exhaustive: bool):
        """Return (BATCH, SendBatch) or (INERT, [(m_sent, count), ...])."""
        raise NotImplementedError

    def absorb(self, state: NetworkState, report) -> None:
        pass

    def at_checkpoint(self) -> bool:
        """Whether the search oracle may evaluate completion here; a function
        of the schedule position only, as for ``done``."""
        return True

    def idle_steps(self) -> int:
        """Count of upcoming steps certain to send nothing, whatever happens meanwhile."""
        return 0

    def skip(self, count: int) -> None:
        """Pass over ``count <= idle_steps()`` steps without emitting them."""
        raise NotImplementedError(f"{type(self).__name__} has no idle steps")

    # Search support; only the unoriented complete-graph drivers implement it.
    def clone(self, new_state: NetworkState) -> "Driver":
        raise NotImplementedError(f"{type(self).__name__} does not support search")

    def key_parts(self, arc_perm: np.ndarray) -> tuple:
        raise NotImplementedError(f"{type(self).__name__} does not support search")


class IdleDriver(Driver):
    """Emits empty batches; used by multiplexed lanes with nothing to do."""

    def __init__(self, steps: int):
        self.total_steps = steps
        self.remaining = steps

    def done(self):
        return self.remaining <= 0

    def next(self, state, exhaustive):
        self.remaining -= 1
        return BATCH, SendBatch.empty()

    def idle_steps(self):
        return self.remaining

    def skip(self, count):
        self.remaining -= count


class SeqDriver(Driver):
    """Runs its children one after another.

    ``idx`` moves past finished children only when asked for the current one
    after a call that may have moved the schedule (``next``, ``absorb`` or
    ``skip``), so repeated ``done`` checks within a step stay O(1) at every
    nesting level.
    """

    def __init__(self, children: list[Driver]):
        self.children = children
        self.idx = 0
        self._moved = True  # idx may point at a finished child
        self.total_steps = sum(c.total_steps for c in children)

    def attach(self, trace):
        self.trace = trace
        for c in self.children:
            c.attach(trace)

    def _current(self):
        if self._moved:
            while self.idx < len(self.children) and self.children[self.idx].done():
                self.idx += 1
            self._moved = False
        return self.children[self.idx] if self.idx < len(self.children) else None

    def done(self):
        return self._current() is None

    def next(self, state, exhaustive):
        cur = self._current()
        self._moved = True
        return cur.next(state, exhaustive)

    def absorb(self, state, report):
        self.children[self.idx].absorb(state, report)
        self._moved = True

    def at_checkpoint(self):
        cur = self._current()
        return cur is None or cur.at_checkpoint()

    def clone(self, new_state):
        other = SeqDriver([c.clone(new_state) for c in self.children])
        other.idx = self.idx
        other._moved = self._moved
        return other

    def key_parts(self, arc_perm):
        return (self.idx,) + tuple(c.key_parts(arc_perm) for c in self.children[self.idx:])

    def idle_steps(self):
        cur = self._current()
        return 0 if cur is None else cur.idle_steps()

    def skip(self, count):
        self._current().skip(count)
        self._moved = True


class MultiplexDriver(Driver):
    """Strict even/odd interleaving of two lane schedules.

    Even local steps belong to lane 0, odd to lane 1; a finished or idle lane
    contributes empty steps.  Lanes never see inert-mode: a lane's small batch
    still goes to the adversary, whose kill order may draw on its random
    stream.  A run of steps whose lanes are all idle or finished is emitted as
    one inert block instead: an empty step delivers nothing and, under an
    exhaustive adversary, kills nothing.
    """

    def __init__(self, lane0: Driver, lane1: Driver):
        self.lanes = [lane0, lane1]
        self.t = 0
        self.total_steps = 2 * max(lane0.total_steps, lane1.total_steps)
        self._last_lane = None

    def attach(self, trace):
        self.trace = trace
        for lane in self.lanes:
            lane.attach(trace)

    def done(self):
        return self.t >= self.total_steps

    def next(self, state, exhaustive):
        lane = self.lanes[self.t % 2]
        finished = lane.done()
        if exhaustive and (finished or lane.idle_steps()):
            run = self.idle_steps()
            if run:
                self.skip(run)
                return INERT, [(0, run)]
        self.t += 1
        if finished:
            self._last_lane = None
            return BATCH, SendBatch.empty()
        self._last_lane = lane
        kind, val = lane.next(state, False)
        assert kind == BATCH
        return kind, val

    def absorb(self, state, report):
        if self._last_lane is not None:
            self._last_lane.absorb(state, report)

    def idle_steps(self):
        # The lane whose turn is next first acts at offset 2*idle, the other at 2*idle+1.
        run = self.total_steps - self.t
        for offset, lane in enumerate((self.lanes[self.t % 2], self.lanes[1 - self.t % 2])):
            if not lane.done():
                run = min(run, 2 * lane.idle_steps() + offset)
        return run

    def skip(self, count):
        first = (count + 1) // 2  # turns of the lane whose turn is next
        turns = (first, count - first) if self.t % 2 == 0 else (count - first, first)
        for lane, k in zip(self.lanes, turns):
            if k and not lane.done():
                lane.skip(k)
        self.t += count
        self._last_lane = None


class LazyDriver(Driver):
    """A fixed-length phase whose schedule depends on what earlier phases found.

    ``build()`` runs at the first step and returns the phase's driver, or None
    when the phase has nothing to do and idles through its steps.  The builder
    must not capture the driver it belongs to: that reference cycle would keep
    every finished run's drivers and trace alive until the next GC pass.
    """

    def __init__(self, total_steps: int, build):
        self.total_steps = total_steps
        self.build = build
        self.inner: Driver | None = None

    def done(self):
        return self.inner is not None and self.inner.done()

    def next(self, state, exhaustive):
        if self.inner is None:
            inner = self.build()
            self.inner = IdleDriver(self.total_steps) if inner is None else inner
            assert self.inner.total_steps == self.total_steps
            self.inner.attach(self.trace)
        return self.inner.next(state, exhaustive)

    def absorb(self, state, report):
        self.inner.absorb(state, report)

    def idle_steps(self):
        return 0 if self.inner is None else self.inner.idle_steps()

    def skip(self, count):
        self.inner.skip(count)


class GreedyCompleteDriver(Driver):
    """Two greedy steps on K_n: origin floods, then every aware vertex floods.

    Greedy steps ignore passivity marks: each sender uses all of its n-1 arcs.
    """

    def __init__(self, session: Session):
        self.session = session
        self.step = 0
        self.total_steps = 2

    def done(self):
        return self.step >= 2

    def next(self, state, exhaustive):
        topo = self.session.topo
        if self.trace is not None and self.step == 0:
            self.trace.mark("greedy", primary=self.session.primary)
        if self.step == 0:
            arcs = np.sort(topo.out_slice(self.session.origin))
        else:
            arcs = topo.out_arcs_of(np.flatnonzero(self.session.aware))
        return BATCH, SendBatch.uniform(arcs, self.session.payload_kind)

    def absorb(self, state, report):
        self.session.absorb(state, report)
        self.step += 1

    def clone(self, new_state):
        other = GreedyCompleteDriver(self.session.clone_primary(new_state))
        other.step = self.step
        return other

    def key_parts(self, arc_perm):
        return ("greedy", self.step)


class GreedyHypercubeDriver(Driver):
    """Two init steps on Q_d: the initiator floods twice; vertices informed by
    the first step send to every neighbour except the initiator."""

    def __init__(self, topo: Topology, initiator: int):
        self.topo = topo
        self.initiator = initiator
        self.step = 0
        self.total_steps = 2

    def done(self):
        return self.step >= 2

    def next(self, state, exhaustive):
        if self.trace is not None and self.step == 0:
            self.trace.mark("greedy", primary=True)
        if self.step == 0:
            arcs = np.sort(self.topo.out_slice(self.initiator))
        else:
            mask = state.informed[self.topo.arc_src] & ~(
                (self.topo.arc_dst == self.initiator) & (self.topo.arc_src != self.initiator))
            arcs = np.flatnonzero(mask)
        return BATCH, SendBatch.uniform(arcs, INFO)

    def absorb(self, state, report):
        self.step += 1


class SimpleRoundsDriver(Driver):
    """A fixed count of simple rounds on a session.

    Step A floods every non-marked out-arc of an aware vertex; step B returns
    an acknowledgement on each arc that delivered in step A.  When the step-A
    batch cannot exceed c-1 messages, an exhaustive adversary kills all of it,
    nothing can ever change again within this schedule, and the remaining
    rounds are emitted as an inert block.
    """

    def __init__(self, session: Session, rounds: int, label: str = "thm2"):
        self.session = session
        self.rounds = rounds
        self.label = label
        self.round_idx = 0
        self.phase_a = True
        self.pending = None  # arcs delivered in the last step A
        self.total_steps = 2 * rounds
        self._marked = False

    def done(self):
        return self.round_idx >= self.rounds

    def next(self, state, exhaustive):
        if self.trace is not None and not self._marked:
            self.trace.mark("simple_rounds", rounds=self.rounds, primary=self.session.primary,
                            label=self.label)
            self._marked = True
        if self.phase_a:
            arcs = self.session.sends(state)
            c = self.session.topo.edge_connectivity
            if exhaustive and arcs.size <= c - 1:
                remaining = self.rounds - self.round_idx
                self.round_idx = self.rounds
                blocks = [(int(arcs.size), 1), (0, 1)] * remaining
                return INERT, blocks
            return BATCH, SendBatch.uniform(arcs, self.session.payload_kind)
        arcs = np.sort(self.session.topo.opp[self.pending])
        return BATCH, SendBatch.uniform(arcs, ACK)

    def absorb(self, state, report):
        self.session.absorb(state, report)
        if self.phase_a:
            self.pending = report.delivered_arcs
            self.phase_a = False
        else:
            self.pending = None
            self.phase_a = True
            self.round_idx += 1

    def at_checkpoint(self):
        return self.phase_a  # round boundary

    def clone(self, new_state):
        other = SimpleRoundsDriver(self.session.clone_primary(new_state), self.rounds, self.label)
        other.round_idx = self.round_idx
        other.phase_a = self.phase_a
        other.pending = None if self.pending is None else self.pending.copy()
        other._marked = self._marked
        return other

    def key_parts(self, arc_perm):
        if self.pending is None or not self.pending.size:
            pending_key = b""
        else:
            pending_key = np.sort(arc_perm[self.pending]).tobytes()
        return ("rounds", self.round_idx, self.phase_a, pending_key)


# ---------------------------------------------------------------------------
# Sense-of-direction machinery


class SodContext:
    """Shared blackboard of one all-but-one run: candidate sets at vertices 0/1."""

    def __init__(self):
        self.received = {0: [], 1: []}
        self.u_final = {0: None, 1: None}
        self.session = {0: None, 1: None}


def candidate_cap(n: int, alpha: float, eps: float) -> int:
    """Upper bound on candidate-set size, 3X(1+eps), capped by the graph size."""
    x = bounds.constants(alpha).x
    return min(math.floor(3.0 * x * (1.0 + eps)), n - 1)


class Phase2CandidatesDriver(Driver):
    """One step: every aware vertex with few unmarked out-arcs reports the
    destinations of those arcs to vertices 0 and 1."""

    def __init__(self, prev_session: Session, ctx: SodContext, threshold: int):
        self.prev = prev_session
        self.ctx = ctx
        self.threshold = threshold
        self.fired = False
        self.total_steps = 1
        self._payloads = None

    def done(self):
        return self.fired

    def next(self, state, exhaustive):
        topo = self.prev.topo
        deg = np.bincount(topo.arc_src[~self.prev.marks], minlength=topo.n)
        qualifying_all = int(np.count_nonzero(deg <= self.threshold))
        senders = np.flatnonzero(self.prev.aware & (deg <= self.threshold))
        if self.trace is not None:
            self.trace.mark("sod_phase2", qualifying=qualifying_all,
                            threshold=self.threshold, senders=int(senders.size))
        messages = []
        for v in senders:
            v = int(v)
            out = topo.out_slice(v)
            u_v = frozenset(int(x) for x in topo.arc_dst[out[~self.prev.marks[out]]])
            if v in (0, 1):
                self.ctx.received[v].append(u_v)
            for target in (0, 1):
                if target != v:
                    messages.append((topo.arc_id(v, target), u_v))
        messages.sort()
        arcs = np.fromiter((a for a, _ in messages), dtype=np.int64, count=len(messages))
        self._payloads = [u for _, u in messages]
        return BATCH, SendBatch.uniform(arcs, INFO_CANDS, payloads=self._payloads)

    def absorb(self, state, report):
        topo = self.prev.topo
        for i in report.delivered_idx:
            arc = int(report.batch.arcs[i])
            self.ctx.received[int(topo.arc_dst[arc])].append(self._payloads[i])
        self.prev.absorb(state, report)
        self.fired = True


def _arcs_to(topo: Topology, senders: np.ndarray, target: int) -> np.ndarray:
    """The K_n arcs from each sender other than ``target`` itself to ``target``."""
    vs = senders[senders != target]
    return vs * (topo.n - 1) + np.where(target < vs, target, target - 1)


class SweepDriver(Driver):
    """Targeted sweep on K_n: in step i every sender sends the information to
    each vertex of the i-th target group, then the schedule sends empty steps.

    ``start()`` runs at the first step and returns (senders, target groups).
    Deliveries are copied into ``knows_sink``.
    """

    def __init__(self, topo: Topology, budget: int, start,
                 knows_sink: np.ndarray | None = None):
        self.topo = topo
        self.total_steps = budget
        self.start = start
        self.knows_sink = knows_sink
        self.step = 0
        self.senders = None
        self.groups = None

    def done(self):
        return self.step >= self.total_steps

    def next(self, state, exhaustive):
        if self.groups is None:
            self.senders, self.groups = self.start()
        if self.step >= len(self.groups):
            self.step += 1
            return BATCH, SendBatch.empty()
        arcs = [_arcs_to(self.topo, self.senders, t) for t in self.groups[self.step]]
        self.step += 1
        return BATCH, SendBatch.uniform(np.sort(np.concatenate(arcs)), INFO)

    def absorb(self, state, report):
        darr = report.delivered_arcs
        if self.knows_sink is not None and darr.size:
            self.knows_sink[self.topo.arc_dst[darr]] = True

    def idle_steps(self):
        if self.groups is None or self.step < len(self.groups):
            return 0
        return self.total_steps - self.step

    def skip(self, count):
        self.step += count


class AllButOneDriver(SeqDriver):
    """Complete-graph broadcast with chordal sense of direction, all but one vertex.

    Phase 1 spreads the payload almost-completely; phase 2 gathers candidate
    sets at vertices 0 and 1 in one step; phases 3-4 run time-multiplexed for
    the two possible collectors.  In phase 3 collector b broadcasts the
    intersection U of the candidate sets it received, or idles if it received
    none; in phase 4 every vertex aware of U sends the information to both
    members of each pair of U in lexicographic order.  ``knows`` tracks every
    vertex that received this run's payload through any phase.
    """

    def __init__(self, topo: Topology, origin: int, alpha: float, eps: float,
                 payload=None, state: NetworkState = None):
        if topo.labeling is None:
            raise UnsupportedTopologyError("sense-of-direction protocols need a chordal labeling")
        self.ctx = ctx = SodContext()
        r_kn = bounds.rounds_kn(topo.n, alpha)
        cap = candidate_cap(topo.n, alpha, eps)
        self.threshold = math.floor(3.0 * bounds.constants(alpha).x * (1.0 + eps))
        if state is not None:
            session = Session(topo, origin, payload=payload, state=state)
            knows = state.informed
        else:
            knows = np.zeros(topo.n, dtype=bool)
            session = Session(topo, origin, payload=payload, also_aware=knows)
        self.knows = knows

        # The phase builders capture locals only, never self (see LazyDriver).
        def broadcast_u(b):
            if not ctx.received[b]:
                return None
            u = ctx.u_final[b] = frozenset.intersection(*ctx.received[b])
            sub = ctx.session[b] = Session(topo, b, payload=u, also_aware=knows)
            return SeqDriver([GreedyCompleteDriver(sub),
                              SimpleRoundsDriver(sub, r_kn, label="sod_p3")])

        def pair_targets(b):
            if ctx.u_final[b] is None:
                return None, []
            members = sorted(ctx.u_final[b])
            pairs = [(i,) if i == j else (i, j) for i in members for j in members]
            return np.flatnonzero(ctx.session[b].aware), pairs

        lane = lambda b: SeqDriver([
            LazyDriver(2 + 2 * r_kn, lambda: broadcast_u(b)),
            SweepDriver(topo, cap * cap, lambda: pair_targets(b), knows_sink=knows),
        ])
        super().__init__([
            GreedyCompleteDriver(session),
            SimpleRoundsDriver(session, r_kn, label="sod_p1" if state is None else "thm2"),
            Phase2CandidatesDriver(session, ctx, self.threshold),
            MultiplexDriver(lane(0), lane(1)),
        ])

    def candidate_set(self):
        """(origin, members) for whichever collector holds a candidate set."""
        for b in (0, 1):
            if self.ctx.u_final[b] is not None:
                return b, self.ctx.u_final[b]
        return None, None


# ---------------------------------------------------------------------------
# Algorithm without sense of direction (small alpha)


class ExtendedRoundsDriver(Driver):
    """L1 extended rounds: hyperactive-arc elimination loops plus simple rounds.

    Each of the L2 iterations freezes E (the currently active or hyperactive
    arcs) and sends on E union P for L3 steps, where P collects the opposite
    arcs of everything delivered within the iteration; L4 simple rounds follow.
    """

    def __init__(self, topo: Topology, l1: int, l2: int, l3: int, l4: int):
        self.topo = topo
        self.l1, self.l2, self.l3, self.l4 = l1, l2, l3, l4
        self.i1 = 0
        self.i2 = 0
        self.i3 = 0
        self.mode = "inner"
        self.e_mask = np.zeros(topo.num_arcs, dtype=bool)
        self.p_mask = np.zeros(topo.num_arcs, dtype=bool)
        self.rounds_sub: SimpleRoundsDriver | None = None
        self.total_steps = l1 * (l2 * l3 + 2 * l4)

    def done(self):
        return self.i1 >= self.l1

    def _snapshot(self, state):
        np.logical_and(state.informed[self.topo.arc_src], ~state.passive, out=self.e_mask)
        self.p_mask[:] = False

    def _inert_blocks(self, m):
        """All remaining steps, given a frozen state with step-A batch size m."""
        blocks = []
        round_pairs = [(m, 1), (0, 1)] * self.l4
        blocks.append((m, (self.l2 - self.i2) * self.l3))
        blocks.extend(round_pairs)
        for _ in range(self.i1 + 1, self.l1):
            blocks.append((m, self.l2 * self.l3))
            blocks.extend(round_pairs)
        return blocks

    def next(self, state, exhaustive):
        if self.mode == "inner":
            if self.i3 == 0:
                self._snapshot(state)
                m = int(np.count_nonzero(self.e_mask))
                if exhaustive and m <= self.topo.edge_connectivity - 1:
                    if self.trace is not None:
                        self.trace.mark("nosod_inert_tail", l1=self.i1, l2=self.i2, m=m)
                    blocks = self._inert_blocks(m)
                    self.i1 = self.l1
                    return INERT, blocks
                if self.trace is not None:
                    k0, h0, _ = state.counts()
                    self.trace.mark("nosod_iter", l1=self.i1, l2=self.i2, k0=k0, h0=h0,
                                    steps=self.l3)
            arcs = np.flatnonzero(self.e_mask | self.p_mask)
            return BATCH, SendBatch.uniform(arcs, INFO)
        return self.rounds_sub.next(state, exhaustive)

    def absorb(self, state, report):
        if self.mode == "inner":
            darr = report.delivered_arcs
            if darr.size:
                self.p_mask[self.topo.opp[darr]] = True
            self.i3 += 1
            if self.i3 >= self.l3:
                self.i3 = 0
                self.i2 += 1
                if self.i2 >= self.l2:
                    self.i2 = 0
                    self.mode = "rounds"
                    self.rounds_sub = SimpleRoundsDriver(
                        Session(self.topo, 0, state=state), self.l4, label="nosod_l4")
                    self.rounds_sub.attach(self.trace)
        else:
            self.rounds_sub.absorb(state, report)
            if self.rounds_sub.done():
                self.rounds_sub = None
                self.mode = "inner"
                self.i1 += 1

    def at_checkpoint(self):
        if self.mode == "rounds" and self.rounds_sub is not None:
            return self.rounds_sub.at_checkpoint()
        return True

    def clone(self, new_state):
        other = ExtendedRoundsDriver(self.topo, self.l1, self.l2, self.l3, self.l4)
        other.i1, other.i2, other.i3 = self.i1, self.i2, self.i3
        other.mode = self.mode
        other.e_mask = self.e_mask.copy()
        other.p_mask = self.p_mask.copy()
        if self.rounds_sub is not None:
            other.rounds_sub = self.rounds_sub.clone(new_state)
        return other

    def key_parts(self, arc_perm):
        e_p = np.empty_like(self.e_mask)
        e_p[arc_perm] = self.e_mask
        p_p = np.empty_like(self.p_mask)
        p_p[arc_perm] = self.p_mask
        e_key = np.packbits(e_p).tobytes()
        p_key = np.packbits(p_p).tobytes()
        sub = self.rounds_sub.key_parts(arc_perm) if self.rounds_sub is not None else ()
        return ("ext", self.i1, self.i2, self.i3, self.mode, e_key, p_key, sub)


# ---------------------------------------------------------------------------
# Run loop and public protocol entry points


def simulate(topo: Topology, driver: Driver, adversary: AdversaryPolicy, alpha: float,
             state: NetworkState | None = None,
             trace: Trace | None = None) -> tuple[NetworkState, Trace]:
    """Execute a driver's full schedule against one adversary.

    The run starts from ``state``, or from a fresh state informed at vertex 0.
    """
    if state is None:
        state = NetworkState(topo)
    if trace is None:
        trace = Trace(topo, track_boundary=(topo.kind == HYPERCUBE))
    driver.attach(trace)
    while not driver.done():
        kind, val = driver.next(state, adversary.exhaustive)
        if kind == BATCH:
            report = execute_step(state, val, adversary, alpha)
            driver.absorb(state, report)
            trace.record_step(state, report)
        else:
            for m_sent, count in val:
                trace.record_inert(state, m_sent, count, state.step_index)
                state.step_index += count
    return state, trace


def _finalize(trace: Trace, state: NetworkState, protocol: str, adversary, alpha, eps,
              topo: Topology, below_min: bool) -> None:
    k, h, _ = state.counts()
    trace.summary = {
        "protocol": protocol,
        "adversary": getattr(adversary, "id", str(adversary)),
        "topology": topo.kind,
        "n": topo.n,
        "d": topo.d,
        "alpha": alpha,
        "eps": eps,
        "final_k": k,
        "final_h": h,
        "total_steps": trace.total_steps,
        "first_complete": trace.first_complete_step(),
        "below_min": below_min,
    }


def below_min(topo: Topology, alpha: float, eps: float) -> bool:
    """Whether the topology is below the smallest size the bound analysis covers.

    False when eps lies outside the topology's analysed domain.
    """
    if topo.kind == COMPLETE and eps > 1.0:
        return topo.n < bounds.n_min(alpha, eps)
    if topo.kind == HYPERCUBE and 0.0 < eps < 1.0:
        return topo.d < bounds.d_min(alpha, eps)
    return False


def greedy_init_complete(n: int, alpha: float, adversary: AdversaryPolicy,
                         port_seed: int | None = 0) -> NetworkState:
    topo = build_complete(n, port_seed=port_seed)
    state = NetworkState(topo)
    simulate(topo, make_driver("greedy-kn", topo, alpha, 2.0, state), adversary, alpha,
             state=state)
    return state


def greedy_init_hypercube(d: int, alpha: float, adversary: AdversaryPolicy) -> NetworkState:
    topo = build_hypercube(d)
    state = NetworkState(topo)
    simulate(topo, make_driver("greedy-qd", topo, alpha, 0.5, state), adversary, alpha,
             state=state)
    return state


# The topologies each CLI protocol id runs on.
PROTOCOL_TOPOLOGIES = {
    "simple-rounds": (COMPLETE, HYPERCUBE),
    "greedy-kn": (COMPLETE,),
    "greedy-qd": (HYPERCUBE,),
    "almost-kn": (COMPLETE,),
    "hypercube": (HYPERCUBE,),
    "sod-all-but-one": (COMPLETE,),
    "sod-complete": (COMPLETE,),
    "nosod-complete": (COMPLETE,),
}


def make_driver(protocol: str, topo: Topology, alpha: float, eps: float,
                state: NetworkState, rounds: int | None = None) -> Driver:
    """Build the schedule for a CLI protocol id."""
    name, _, arg = protocol.partition(":")
    if name not in PROTOCOL_TOPOLOGIES:
        raise InvalidParameterError(f"unknown protocol id: {protocol!r}")
    if topo.kind not in PROTOCOL_TOPOLOGIES[name]:
        raise UnsupportedTopologyError(
            f"protocol {name} needs a {' or '.join(PROTOCOL_TOPOLOGIES[name])} topology")
    if name == "simple-rounds":
        count = int(arg) if arg else (rounds or bounds.rounds_kn(topo.n, alpha))
        return SimpleRoundsDriver(Session(topo, state.initiator, state=state), count)
    if name == "greedy-kn":
        return GreedyCompleteDriver(Session(topo, state.initiator, state=state))
    if name == "greedy-qd":
        return GreedyHypercubeDriver(topo, state.initiator)
    if name == "almost-kn":
        session = Session(topo, state.initiator, state=state)
        return SeqDriver([GreedyCompleteDriver(session),
                          SimpleRoundsDriver(session, bounds.rounds_kn(topo.n, alpha))])
    if name == "hypercube":
        t1, t2 = bounds.rounds_hypercube(topo.d, alpha, eps)
        session = Session(topo, state.initiator, state=state)
        return SeqDriver([GreedyHypercubeDriver(topo, state.initiator),
                          SimpleRoundsDriver(session, t1 + t2, label="qd")])
    if name == "sod-all-but-one":
        return AllButOneDriver(topo, state.initiator, alpha, eps, state=state)
    if name == "sod-complete":
        return _sod_complete_driver(topo, alpha, eps, state)
    # nosod-complete
    l1, l2, l3, l4 = bounds.l_params(topo.n, alpha, eps)
    session = Session(topo, state.initiator, state=state)
    return SeqDriver([GreedyCompleteDriver(session),
                      SimpleRoundsDriver(session, bounds.rounds_kn(topo.n, alpha)),
                      ExtendedRoundsDriver(topo, l1, l2, l3, l4)])


def _sod_complete_driver(topo: Topology, alpha: float, eps: float,
                         state: NetworkState) -> Driver:
    """All-but-one, then the collector holding U re-runs it with U as payload,
    then every vertex that learnt U sends the information to each member."""
    stage_a = AllButOneDriver(topo, state.initiator, alpha, eps, state=state)
    ctx = stage_a.ctx
    cap = candidate_cap(topo.n, alpha, eps)

    def rerun_of(b):
        u = ctx.u_final[b]
        return None if u is None else AllButOneDriver(topo, b, alpha, eps, payload=u)

    def lane(b):
        rerun = LazyDriver(stage_a.total_steps, lambda: rerun_of(b))

        def member_targets():
            if not ctx.u_final[b]:
                return None, []
            return np.flatnonzero(rerun.inner.knows), [(t,) for t in sorted(ctx.u_final[b])]

        return SeqDriver([rerun, SweepDriver(topo, cap, member_targets)])

    return SeqDriver([stage_a, MultiplexDriver(lane(0), lane(1))])


def run_protocol(protocol: str, topo: Topology, alpha: float, eps: float,
                 adversary: AdversaryPolicy) -> tuple[NetworkState, Driver, Trace]:
    """Run a protocol's full schedule from vertex 0 and write the trace summary.

    eps must lie in the topology's analysed domain: eps > 1 on K_n, 0 < eps < 1
    on Q_d.
    """
    if topo.kind == COMPLETE and eps <= 1.0:
        raise InvalidParameterError(f"complete-graph eps must be > 1, got {eps}")
    if topo.kind == HYPERCUBE and not 0.0 < eps < 1.0:
        raise InvalidParameterError(f"hypercube eps must be in (0, 1), got {eps}")
    below = below_min(topo, alpha, eps)
    state = NetworkState(topo)
    driver = make_driver(protocol, topo, alpha, eps, state)
    _, trace = simulate(topo, driver, adversary, alpha, state=state)
    _finalize(trace, state, protocol, adversary, alpha, eps, topo, below)
    return state, driver, trace


def almost_complete_kn(n: int, alpha: float, eps: float, adversary: AdversaryPolicy,
                       port_seed: int | None = 0) -> Trace:
    """Theorem-2 schedule: greedy init plus R_kn(n, alpha) simple rounds."""
    topo = build_complete(n, port_seed=port_seed)
    return run_protocol("almost-kn", topo, alpha, eps, adversary)[2]


def broadcast_hypercube(d: int, alpha: float, eps: float, adversary: AdversaryPolicy) -> Trace:
    """Hypercube schedule: two init steps plus T1+T2 simple rounds."""
    return run_protocol("hypercube", build_hypercube(d), alpha, eps, adversary)[2]


def sod_all_but_one(n: int, alpha: float, eps: float, adversary: AdversaryPolicy):
    """All-but-one broadcast with chordal sense of direction.

    Returns (trace, (origin, candidate set)) where the candidate set covers
    every vertex still uninformed.
    """
    topo = build_complete(n, chordal=True)
    _, driver, trace = run_protocol("sod-all-but-one", topo, alpha, eps, adversary)
    return trace, driver.candidate_set()


def sod_complete(n: int, alpha: float, eps: float, adversary: AdversaryPolicy) -> Trace:
    """Complete broadcast with chordal sense of direction."""
    topo = build_complete(n, chordal=True)
    return run_protocol("sod-complete", topo, alpha, eps, adversary)[2]


def nosod_complete(n: int, alpha: float, eps: float, adversary: AdversaryPolicy,
                   port_seed: int | None = 0) -> Trace:
    """Complete broadcast without sense of direction (needs 1-a-2a^2+a^3 > 0)."""
    topo = build_complete(n, port_seed=port_seed)
    return run_protocol("nosod-complete", topo, alpha, eps, adversary)[2]
