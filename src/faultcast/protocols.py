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
"""

import math

import numpy as np

from . import _kernels, bounds
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
    marked.  A secondary session may also copy its aware set into
    ``also_aware`` arrays.

    The session keeps its send frontier (the unmarked out-arcs of aware
    vertices, ascending) up to date from the reports it absorbs.  Other
    drivers also step the global arrays under a primary session, so a primary
    frontier is valid only at the state version it was last synced to; on any
    other version it is rebuilt from scratch once.
    """

    def __init__(self, topo: Topology, origin: int, payload=None, state: NetworkState = None,
                 also_aware: list | None = None):
        self.topo = topo
        self.origin = origin
        self.payload = payload
        self.primary = state is not None
        if self.primary and also_aware:
            raise InvalidParameterError("a primary session is aware of exactly the informed set")
        self.also_aware = also_aware or []
        self.frontier = None  # built on first use
        self.synced = -1  # state version the primary frontier describes
        if self.primary:
            self.aware = state.informed
            self.marks = state.passive
        else:
            self.aware = np.zeros(topo.n, dtype=bool)
            self.aware[origin] = True
            self.marks = np.zeros(topo.num_arcs, dtype=bool)
        for sink in self.also_aware:
            sink[origin] = True

    @property
    def payload_kind(self) -> int:
        return INFO if self.payload is None else INFO_CANDS

    def sends(self, state: NetworkState) -> np.ndarray:
        """Arcs this session floods in a step A; the caller must not modify them."""
        if self.frontier is None or (self.primary and self.synced != state.version):
            self.frontier = _kernels.collect_sends(self.aware, self.marks, self.topo.arc_src)
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
            for sink in self.also_aware:
                sink[dsts] = True
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
        self.trace = None

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
        self.trace = None

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
        self._consumed = 0
        self._last_lane = None
        self.trace = None

    def attach(self, trace):
        self.trace = trace
        for lane in self.lanes:
            lane.attach(trace)

    def done(self):
        return self._consumed >= self.total_steps

    def next(self, state, exhaustive):
        lane = self.lanes[self.t % 2]
        finished = lane.done()
        if exhaustive and (finished or lane.idle_steps()):
            run = self.idle_steps()
            if run:
                self.skip(run)
                return INERT, [(0, run)]
        self.t += 1
        self._consumed += 1
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
        run = self.total_steps - self._consumed
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
        self._consumed += count
        self._last_lane = None


class GreedyCompleteDriver(Driver):
    """Two greedy steps on K_n: origin floods, then every aware vertex floods.

    Greedy steps ignore passivity marks: each sender uses all of its n-1 arcs.
    """

    def __init__(self, session: Session):
        self.session = session
        self.step = 0
        self.total_steps = 2
        self.trace = None

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
        self.trace = None

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
        self.trace = None
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
        self.trace = None
        self._payloads = None

    def done(self):
        return self.fired

    def next(self, state, exhaustive):
        topo = self.prev.topo
        deg = _kernels.nonpassive_out_degrees(self.prev.marks, topo.arc_src, topo.n)
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


class Phase3BroadcastDriver(Driver):
    """Theorem-2-style sub-broadcast of the intersected candidate set from one origin.

    The origin intersects the candidate sets it received in phase 2; if it
    received none, the whole fixed-length schedule idles.
    """

    def __init__(self, topo: Topology, origin: int, ctx: SodContext, r_kn: int,
                 knows_sink: np.ndarray | None = None):
        self.topo = topo
        self.origin = origin
        self.ctx = ctx
        self.r_kn = r_kn
        self.knows_sink = knows_sink
        self.total_steps = 2 + 2 * r_kn
        self.inner: Driver | None = None
        self.started = False
        self.trace = None

    def _start(self, state):
        self.started = True
        received = self.ctx.received[self.origin]
        if not received:
            self.inner = IdleDriver(self.total_steps)
        else:
            u = frozenset.intersection(*received)
            self.ctx.u_final[self.origin] = u
            sinks = [self.knows_sink] if self.knows_sink is not None else []
            session = Session(self.topo, self.origin, payload=u, also_aware=sinks)
            self.ctx.session[self.origin] = session
            self.inner = SeqDriver([GreedyCompleteDriver(session),
                                    SimpleRoundsDriver(session, self.r_kn, label="sod_p3")])
        self.inner.attach(self.trace)

    def done(self):
        return self.started and self.inner.done()

    def next(self, state, exhaustive):
        if not self.started:
            self._start(state)
        return self.inner.next(state, exhaustive)

    def absorb(self, state, report):
        self.inner.absorb(state, report)

    def idle_steps(self):
        return self.inner.idle_steps() if self.started else 0

    def skip(self, count):
        self.inner.skip(count)


class Phase4PairsDriver(Driver):
    """Lexicographic pair sweep: every vertex aware of U sends the original
    message to both members of the current pair."""

    def __init__(self, topo: Topology, origin: int, ctx: SodContext, pair_budget: int,
                 knows_sink: np.ndarray | None = None):
        self.topo = topo
        self.origin = origin
        self.ctx = ctx
        self.pair_budget = pair_budget
        self.knows_sink = knows_sink
        self.total_steps = pair_budget
        self.step = 0
        self.pairs = None
        self.trace = None

    def _start(self):
        u = self.ctx.u_final[self.origin]
        if u is None:
            self.pairs = []
        else:
            members = sorted(u)
            self.pairs = [(i, j) for i in members for j in members]

    def done(self):
        return self.step >= self.pair_budget

    def _target_arcs(self, senders, target):
        n = self.topo.n
        vs = senders[senders != target]
        return vs * (n - 1) + np.where(target < vs, target, target - 1)

    def next(self, state, exhaustive):
        if self.pairs is None:
            self._start()
        if self.step >= len(self.pairs):
            self.step += 1
            return BATCH, SendBatch.empty()
        i, j = self.pairs[self.step]
        session = self.ctx.session[self.origin]
        senders = np.flatnonzero(session.aware).astype(np.int64)
        arcs = self._target_arcs(senders, i)
        if j != i:
            arcs = np.concatenate([arcs, self._target_arcs(senders, j)])
        self.step += 1
        return BATCH, SendBatch.uniform(np.sort(arcs), INFO)

    def absorb(self, state, report):
        if self.knows_sink is not None:
            darr = report.delivered_arcs
            if darr.size:
                self.knows_sink[self.topo.arc_dst[darr]] = True

    def idle_steps(self):
        if self.pairs is None or self.step < len(self.pairs):
            return 0
        return self.pair_budget - self.step

    def skip(self, count):
        self.step += count


class AllButOneDriver(Driver):
    """Complete-graph broadcast with chordal sense of direction, all but one vertex.

    Phase 1 spreads the payload almost-completely; phase 2 gathers candidate
    sets at vertices 0 and 1 in one step; phases 3-4 run time-multiplexed for
    the two possible collectors.  ``knows`` tracks every vertex that received
    this run's payload through any phase.
    """

    def __init__(self, topo: Topology, origin: int, alpha: float, eps: float,
                 payload=None, state: NetworkState = None):
        if topo.labeling is None:
            raise UnsupportedTopologyError("sense-of-direction protocols need a chordal labeling")
        self.topo = topo
        self.ctx = SodContext()
        self.knows = None
        r_kn = bounds.rounds_kn(topo.n, alpha)
        cap = candidate_cap(topo.n, alpha, eps)
        self.threshold = math.floor(3.0 * bounds.constants(alpha).x * (1.0 + eps))
        if state is not None:
            session = Session(topo, origin, payload=payload, state=state)
            self.knows = state.informed
        else:
            self.knows = np.zeros(topo.n, dtype=bool)
            session = Session(topo, origin, payload=payload, also_aware=[self.knows])
        self.session = session
        lane = lambda b: SeqDriver([
            Phase3BroadcastDriver(topo, b, self.ctx, r_kn, knows_sink=self.knows),
            Phase4PairsDriver(topo, b, self.ctx, cap * cap, knows_sink=self.knows),
        ])
        self.inner = SeqDriver([
            GreedyCompleteDriver(session),
            SimpleRoundsDriver(session, r_kn, label="sod_p1" if state is None else "thm2"),
            Phase2CandidatesDriver(session, self.ctx, self.threshold),
            MultiplexDriver(lane(0), lane(1)),
        ])
        self.total_steps = self.inner.total_steps
        self.trace = None

    def attach(self, trace):
        self.trace = trace
        self.inner.attach(trace)

    def done(self):
        return self.inner.done()

    def next(self, state, exhaustive):
        return self.inner.next(state, exhaustive)

    def absorb(self, state, report):
        self.inner.absorb(state, report)

    def idle_steps(self):
        return self.inner.idle_steps()

    def skip(self, count):
        self.inner.skip(count)

    def candidate_set(self):
        """(origin, members) for whichever collector holds a candidate set."""
        for b in (0, 1):
            if self.ctx.u_final[b] is not None:
                return b, self.ctx.u_final[b]
        return None, None


class LazyAllButOneDriver(Driver):
    """All-but-one re-run whose payload (a candidate set) only exists at runtime."""

    def __init__(self, topo: Topology, origin: int, alpha: float, eps: float,
                 payload_source, fixed_steps: int):
        self.topo = topo
        self.origin = origin
        self.alpha = alpha
        self.eps = eps
        self.payload_source = payload_source
        self.total_steps = fixed_steps
        self.inner: Driver | None = None
        self.trace = None

    def _start(self):
        payload = self.payload_source()
        if payload is None:
            self.inner = IdleDriver(self.total_steps)
        else:
            self.inner = AllButOneDriver(self.topo, self.origin, self.alpha, self.eps,
                                         payload=payload)
            assert self.inner.total_steps == self.total_steps
        self.inner.attach(self.trace)

    def done(self):
        return self.inner is not None and self.inner.done()

    def next(self, state, exhaustive):
        if self.inner is None:
            self._start()
        return self.inner.next(state, exhaustive)

    def absorb(self, state, report):
        self.inner.absorb(state, report)

    def idle_steps(self):
        return 0 if self.inner is None else self.inner.idle_steps()

    def skip(self, count):
        self.inner.skip(count)

    def knows_vertices(self):
        if isinstance(self.inner, AllButOneDriver):
            return self.inner.knows
        return np.zeros(self.topo.n, dtype=bool)

    def payload(self):
        if isinstance(self.inner, AllButOneDriver):
            return self.inner.session.payload
        return None


class TargetedSweepDriver(Driver):
    """Final phase of the sense-of-direction broadcast: in step i every vertex
    that knows the candidate set sends the information to its i-th member."""

    def __init__(self, topo: Topology, rerun: LazyAllButOneDriver, budget: int):
        self.topo = topo
        self.rerun = rerun
        self.total_steps = budget
        self.step = 0
        self.targets = None
        self.trace = None

    def _start(self):
        payload = self.rerun.payload()
        self.targets = sorted(payload) if payload else []

    def done(self):
        return self.step >= self.total_steps

    def next(self, state, exhaustive):
        if self.targets is None:
            self._start()
        if self.step >= len(self.targets):
            self.step += 1
            return BATCH, SendBatch.empty()
        target = self.targets[self.step]
        n = self.topo.n
        senders = np.flatnonzero(self.rerun.knows_vertices()).astype(np.int64)
        senders = senders[senders != target]
        arcs = np.sort(senders * (n - 1) + np.where(target < senders, target, target - 1))
        self.step += 1
        return BATCH, SendBatch.uniform(arcs, INFO)

    def idle_steps(self):
        if self.targets is None or self.step < len(self.targets):
            return 0
        return self.total_steps - self.step

    def skip(self, count):
        self.step += count


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
        self.trace = None
        self._state_ref = None

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
             initiator: int = 0, state: NetworkState | None = None,
             trace: Trace | None = None) -> tuple[NetworkState, Trace]:
    """Execute a driver's full schedule against one adversary."""
    if state is None:
        state = NetworkState(topo, initiator=initiator)
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


def greedy_init_complete(n: int, alpha: float, adversary: AdversaryPolicy,
                         port_seed: int | None = 0) -> NetworkState:
    topo = build_complete(n, port_seed=port_seed)
    state = NetworkState(topo)
    driver = GreedyCompleteDriver(Session(topo, 0, state=state))
    simulate(topo, driver, adversary, alpha, state=state)
    return state

def greedy_init_hypercube(d: int, alpha: float, adversary: AdversaryPolicy) -> NetworkState:
    topo = build_hypercube(d)
    state = NetworkState(topo)
    driver = GreedyHypercubeDriver(topo, 0)
    simulate(topo, driver, adversary, alpha, state=state)
    return state


def make_driver(protocol: str, topo: Topology, alpha: float, eps: float,
                state: NetworkState, rounds: int | None = None) -> Driver:
    """Build the schedule for a CLI protocol id."""
    name, _, arg = protocol.partition(":")
    if name == "simple-rounds":
        count = int(arg) if arg else (rounds or bounds.rounds_kn(topo.n, alpha))
        return SimpleRoundsDriver(Session(topo, state.initiator, state=state), count)
    if name == "greedy-kn":
        _need(topo, COMPLETE, name)
        return GreedyCompleteDriver(Session(topo, state.initiator, state=state))
    if name == "greedy-qd":
        _need(topo, HYPERCUBE, name)
        return GreedyHypercubeDriver(topo, state.initiator)
    if name == "almost-kn":
        _need(topo, COMPLETE, name)
        session = Session(topo, state.initiator, state=state)
        return SeqDriver([GreedyCompleteDriver(session),
                          SimpleRoundsDriver(session, bounds.rounds_kn(topo.n, alpha))])
    if name == "hypercube":
        _need(topo, HYPERCUBE, name)
        t1, t2 = bounds.rounds_hypercube(topo.d, alpha, eps)
        session = Session(topo, state.initiator, state=state)
        return SeqDriver([GreedyHypercubeDriver(topo, state.initiator),
                          SimpleRoundsDriver(session, t1 + t2, label="qd")])
    if name == "sod-all-but-one":
        _need(topo, COMPLETE, name)
        return AllButOneDriver(topo, state.initiator, alpha, eps, state=state)
    if name == "sod-complete":
        _need(topo, COMPLETE, name)
        return _sod_complete_driver(topo, alpha, eps, state)
    if name == "nosod-complete":
        _need(topo, COMPLETE, name)
        l1, l2, l3, l4 = bounds.l_params(topo.n, alpha, eps)
        session = Session(topo, state.initiator, state=state)
        return SeqDriver([GreedyCompleteDriver(session),
                          SimpleRoundsDriver(session, bounds.rounds_kn(topo.n, alpha)),
                          ExtendedRoundsDriver(topo, l1, l2, l3, l4)])
    raise InvalidParameterError(f"unknown protocol id: {protocol!r}")


def _need(topo: Topology, kind: str, name: str) -> None:
    if topo.kind != kind:
        raise UnsupportedTopologyError(f"protocol {name} needs a {kind} topology")


def _sod_complete_driver(topo: Topology, alpha: float, eps: float,
                         state: NetworkState) -> Driver:
    stage_a = AllButOneDriver(topo, state.initiator, alpha, eps, state=state)
    rerun_steps = stage_a.total_steps
    cap = candidate_cap(topo.n, alpha, eps)

    def lane(b):
        rerun = LazyAllButOneDriver(topo, b, alpha, eps,
                                    payload_source=lambda: stage_a.ctx.u_final[b],
                                    fixed_steps=rerun_steps)
        return SeqDriver([rerun, TargetedSweepDriver(topo, rerun, cap)])

    return SeqDriver([stage_a, MultiplexDriver(lane(0), lane(1))])


def _run_protocol(protocol: str, topo: Topology, alpha: float, eps: float,
                  adversary: AdversaryPolicy, below_min: bool):
    state = NetworkState(topo)
    driver = make_driver(protocol, topo, alpha, eps, state)
    simulate(topo, driver, adversary, alpha, state=state)
    return state, driver


def almost_complete_kn(n: int, alpha: float, eps: float, adversary: AdversaryPolicy,
                       port_seed: int | None = 0) -> Trace:
    """Theorem-2 schedule: greedy init plus R_kn(n, alpha) simple rounds."""
    if eps <= 1.0:
        raise InvalidParameterError(f"complete-graph eps must be > 1, got {eps}")
    topo = build_complete(n, port_seed=port_seed)
    below = n < bounds.n_min(alpha, eps)
    state = NetworkState(topo)
    driver = make_driver("almost-kn", topo, alpha, eps, state)
    _, trace = simulate(topo, driver, adversary, alpha, state=state)
    _finalize(trace, state, "almost-kn", adversary, alpha, eps, topo, below)
    return trace


def broadcast_hypercube(d: int, alpha: float, eps: float, adversary: AdversaryPolicy) -> Trace:
    """Hypercube schedule: two init steps plus T1+T2 simple rounds."""
    if not 0.0 < eps < 1.0:
        raise InvalidParameterError(f"hypercube eps must be in (0, 1), got {eps}")
    topo = build_hypercube(d)
    below = d < bounds.d_min(alpha, eps)
    state = NetworkState(topo)
    driver = make_driver("hypercube", topo, alpha, eps, state)
    _, trace = simulate(topo, driver, adversary, alpha, state=state)
    _finalize(trace, state, "hypercube", adversary, alpha, eps, topo, below)
    return trace


def sod_all_but_one(n: int, alpha: float, eps: float, adversary: AdversaryPolicy):
    """All-but-one broadcast with chordal sense of direction.

    Returns (trace, (origin, candidate set)) where the candidate set covers
    every vertex still uninformed.
    """
    topo = build_complete(n, chordal=True)
    below = n < bounds.n_min(alpha, eps)
    state = NetworkState(topo)
    driver = AllButOneDriver(topo, 0, alpha, eps, state=state)
    _, trace = simulate(topo, driver, adversary, alpha, state=state)
    _finalize(trace, state, "sod-all-but-one", adversary, alpha, eps, topo, below)
    return trace, driver.candidate_set()


def sod_complete(n: int, alpha: float, eps: float, adversary: AdversaryPolicy) -> Trace:
    """Complete broadcast with chordal sense of direction."""
    topo = build_complete(n, chordal=True)
    below = n < bounds.n_min(alpha, eps)
    state = NetworkState(topo)
    driver = make_driver("sod-complete", topo, alpha, eps, state)
    _, trace = simulate(topo, driver, adversary, alpha, state=state)
    _finalize(trace, state, "sod-complete", adversary, alpha, eps, topo, below)
    return trace


def nosod_complete(n: int, alpha: float, eps: float, adversary: AdversaryPolicy,
                   port_seed: int | None = 0) -> Trace:
    """Complete broadcast without sense of direction (needs 1-a-2a^2+a^3 > 0)."""
    topo = build_complete(n, port_seed=port_seed)
    below = n < bounds.n_min(alpha, eps)
    state = NetworkState(topo)
    driver = make_driver("nosod-complete", topo, alpha, eps, state)
    _, trace = simulate(topo, driver, adversary, alpha, state=state)
    _finalize(trace, state, "nosod-complete", adversary, alpha, eps, topo, below)
    return trace
