"""Per-vertex broadcast protocols compiled to fixed synchronous schedules.

Every protocol is a Driver: a deterministic schedule that emits one SendBatch
per time step and absorbs the delivery report.  Schedule lengths are computed
up front from (n or d, alpha, eps) alone, because vertices cannot observe
global progress; runs always execute their full schedule.

Under an exhaustive adversary a driver may instead emit a *block* of steps
it can prove will change nothing; ``next`` is told whether the run loop takes
blocks (only under such an adversary).  A block repeats a template of p
steps.  A template step is a count m <= c-1 of messages, which die whole, or
the SendBatch of a step A whose survivors change nothing.  The run loop
records the block and touches no state; it asks the adversary only for the
kill sets that are not forced (``engine.forced``), in step order, so a block
records exactly the trace of a stepped run (see ``faultcast.adversary``).
A driver whose upcoming steps form such a block
whatever the steps interleaved with them do reports it through
``quiet_run``; a MultiplexDriver merges its two lanes' quiet runs into one
block.

A *speculative* block repeats a simple round whose step A (a ``Watched``
step) changes nothing only under the kill sets that kill every message to
an uninformed vertex.  It is exact because the run loop checks each drawn
kill set, not every kill set the adversary could draw: the block ends at
the first round whose kill set spares such a message.  The rounds before it
are recorded as a block; that round's step A is applied as a stepped one,
and its report goes to the driver's ``absorb``.

Sub-broadcasts (sense-of-direction phases 3+, candidate-set spreading) run as
Sessions: a fresh per-arc mark array and a fresh "aware" set for the session
payload, while global informed/passive bookkeeping continues underneath.

Every schedule is a composition of phase drivers; only the combinators
(SeqDriver, MultiplexDriver, LazyDriver) hold other drivers.  The schedule
without sense of direction is one flat SeqDriver: greedy init, R_kn simple
rounds, then L1 times an EliminationDriver pass and L4 simple rounds.  The
sense-of-direction schedules are SeqDriver/MultiplexDriver compositions of
two generic phases: a LazyDriver, whose builder picks the phase's driver
from what earlier phases found, and a SweepDriver, which sends to one group
of targets per step.  A phase builder must not capture the driver it belongs
to, or each finished run stays alive in a reference cycle until a GC pass.
"""

import math
from functools import partial

import numpy as np

from . import bounds
from .adversary import AdversaryPolicy
from .engine import (ACK, INFO, INFO_CANDS, DeliveryReport, NetworkState, SendBatch,
                     StepContext, Trace, apply_kills, check_kill_rows, distinct_vertices,
                     execute_step, fault_budget, forced)
from .errors import (AdversaryViolation, InvalidParameterError, ScheduleOverrun,
                     UnsupportedTopologyError)
from .topology import (COMPLETE, HYPERCUBE, Topology, build_complete, build_hypercube,
                       complete_arc_id)

BATCH = "batch"
BLOCK = "block"


class Watched:
    """A speculative block's step A: the round changes nothing exactly when
    its kill set kills every message of the (m,) mask ``watch``."""

    def __init__(self, batch: SendBatch, watch: np.ndarray):
        self.batch = batch
        self.watch = watch


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
        self._frontier = None  # built on first use; may hold arcs marked since
        self._filtered = True  # ... the last read, unless this is set
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

    @property
    def frontier(self) -> np.ndarray | None:
        """The send frontier, or None until the first ``sends``.

        ``absorb`` leaves newly marked arcs in place and they are dropped
        here, so the two steps of a simple round cost one pass over it.
        """
        if not self._filtered:
            # np.compress: a boolean index is several times slower on a mixed mask.
            self._frontier = np.compress(~self.marks[self._frontier], self._frontier)
            self._filtered = True
        return self._frontier

    def sends(self, state: NetworkState) -> np.ndarray:
        """Arcs this session floods in a step A; the caller must not modify them."""
        if self._frontier is None or (self.primary and self.synced != state.version):
            self._frontier = np.flatnonzero(self.aware[self.topo.arc_src] & ~self.marks)
            self._filtered = True
            self.synced = state.version
        return self.frontier

    def absorb(self, state: NetworkState, report) -> None:
        if not report.delivered_idx.size:
            return
        if self.primary:
            fresh = report.new_informed
            if self.synced != state.version - 1:
                self._frontier, self._filtered = None, True  # the state moved without it
            self.synced = state.version
        else:
            self.marks[report.marked] = True
            dsts = report.info_dsts
            fresh = distinct_vertices(dsts[~self.aware[dsts]], self.topo.n)
            self.aware[fresh] = True
            if self.also_aware is not None:
                self.also_aware[dsts] = True
        if self._frontier is not None:
            self._advance(fresh)

    def _advance(self, fresh: np.ndarray) -> None:
        """Add the out-arcs of newly aware vertices; marked arcs go on the next read."""
        self._filtered = False
        if fresh.size:
            # Two ascending runs, which a stable sort merges in one pass.
            self._frontier = np.sort(
                np.concatenate([self._frontier, self.topo.out_arcs_of(fresh)]), kind="stable")

    def clone_primary(self, new_state: NetworkState) -> "Session":
        assert self.primary
        other = Session(self.topo, self.origin, self.payload, state=new_state)
        other._frontier = self.frontier  # replaced, never modified, on update
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
        never on which messages were killed: without ``blocks`` every ``next``
        emits one batch and advances the position by one step.  The search
        oracle settles completed states on this invariant.
        """
        raise NotImplementedError

    def next(self, state: NetworkState, blocks: bool):
        """Return (BATCH, SendBatch), or if ``blocks`` (BLOCK, [(template, steps)])
        for ``steps`` steps, a multiple of p, that repeat a tuple of p template
        steps (see the module docstring).  A speculative block that ends
        early is followed by the ``absorb`` of its last, stepped, step."""
        raise NotImplementedError

    def absorb(self, state: NetworkState, report) -> None:
        pass

    def at_checkpoint(self) -> bool:
        """Whether the search oracle may evaluate completion here; a function
        of the schedule position only, as for ``done``."""
        return True

    def quiet_run(self, state: NetworkState) -> tuple[tuple, int] | None:
        """(template, steps) if the upcoming ``steps`` steps repeat ``template``
        and change nothing, whatever quiet steps interleave with them; else None."""
        return None

    def skip(self, count: int) -> None:
        """Pass over ``count`` steps of ``quiet_run``, a multiple of its period."""
        raise NotImplementedError(f"{type(self).__name__} has no quiet run")

    # Search support; only the unoriented complete-graph drivers implement it.
    def clone(self, new_state: NetworkState) -> "Driver":
        raise NotImplementedError(f"{type(self).__name__} does not support search")

    def key_parts(self, arc_perm: np.ndarray) -> tuple:
        raise NotImplementedError(f"{type(self).__name__} does not support search")

    def keeps_deliveries(self) -> bool:
        """Whether the coming ``absorb`` (asked between ``next`` and it) keeps
        anything of the delivered set beyond the post-step informed and
        passive arrays.  If not, every kill set leaves the same ``key_parts``;
        the search then keys a child without stepping it."""
        return True


class IdleDriver(Driver):
    """Emits empty batches; used by multiplexed lanes with nothing to do."""

    def __init__(self, steps: int):
        self.total_steps = steps
        self.remaining = steps

    def done(self):
        return self.remaining <= 0

    def next(self, state, blocks):
        self.remaining -= 1
        return BATCH, SendBatch.empty()

    def quiet_run(self, state):
        return (0,), self.remaining

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

    def next(self, state, blocks):
        cur = self._current()
        self._moved = True
        return cur.next(state, blocks)

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
        # The children after the current one have not started: idx stands for them.
        cur = self._current()
        return (self.idx,) if cur is None else (self.idx, cur.key_parts(arc_perm))

    def keeps_deliveries(self):
        return self.children[self.idx].keeps_deliveries()

    def quiet_run(self, state):
        cur = self._current()
        return None if cur is None else cur.quiet_run(state)

    def skip(self, count):
        self._current().skip(count)
        self._moved = True


class MultiplexDriver(Driver):
    """Strict even/odd interleaving of two lane schedules.

    Even local steps belong to lane 0, odd to lane 1; a finished lane
    contributes empty steps.  While both lanes have a quiet run (a finished
    lane's is empty steps), the steps both runs cover are one block: the
    lane whose turn is next takes the even positions of its template,
    position 2i taking row i mod p of its own template, and the other lane
    the odd ones.  So nested multiplexes compose.  Otherwise the lane whose
    turn it is takes the step, asked for a batch, since its steps interleave
    with the other lane's.
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

    def next(self, state, blocks):
        run = self.quiet_run(state) if blocks else None
        if run is not None:
            self.skip(run[1])
            return BLOCK, [run]
        lane = self.lanes[self.t % 2]
        self.t += 1
        if lane.done():
            self._last_lane = None
            return BATCH, SendBatch.empty()
        self._last_lane = lane
        return lane.next(state, False)

    def absorb(self, state, report):
        if self._last_lane is not None:
            self._last_lane.absorb(state, report)

    def quiet_run(self, state):
        runs = []
        for lane in (self.lanes[self.t % 2], self.lanes[1 - self.t % 2]):
            run = ((0,), self.total_steps) if lane.done() else lane.quiet_run(state)
            if run is None:
                return None
            runs.append(run)
        (first, first_steps), (second, second_steps) = runs
        # The lane whose turn is next plays ceil(steps / 2) of them, the other floor.
        steps = min(self.total_steps - self.t, 2 * first_steps, 2 * second_steps + 1)
        if first == (0,) and second == (0,):
            return ((0,), steps) if steps else None
        # Whole periods of both lanes, so that each lane skips whole periods.
        p = math.lcm(len(first), len(second))
        template = tuple(row for i in range(p)
                         for row in (first[i % len(first)], second[i % len(second)]))
        steps -= steps % (2 * p)
        return (template, steps) if steps else None

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

    def next(self, state, blocks):
        if self.inner is None:
            inner = self.build()
            self.inner = IdleDriver(self.total_steps) if inner is None else inner
            assert self.inner.total_steps == self.total_steps
            self.inner.attach(self.trace)
        return self.inner.next(state, blocks)

    def absorb(self, state, report):
        self.inner.absorb(state, report)

    def quiet_run(self, state):
        return None if self.inner is None else self.inner.quiet_run(state)

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

    def next(self, state, blocks):
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

    def keeps_deliveries(self):
        return not self.session.primary  # a secondary session records its aware set


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

    def next(self, state, blocks):
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
    an acknowledgement on each arc that delivered in step A.  If the caller
    takes blocks, they skip steps:

    - a step A of m <= c-1 messages dies whole and leaves nothing to change
      within this schedule, so the remaining rounds are one block of the
      round (m, 0);
    - a step A is *steady* when, for every arc it sends on, the destination is
      aware and informed (and in ``also_aware``, if the session has one) and
      the opposite arc is marked by the session and passive, and at most c-1
      messages survive the budget.  Its deliveries change neither the
      network nor the session and its acks die whole, so the remaining
      rounds are one block of the round (step A, its survivors), whose
      step-A kill sets are still drawn;
    - on a primary session, a step A that is steady but for its messages to
      uninformed vertices, at most min(m, budget) of them, is a speculative
      block of the remaining rounds: a round changes nothing when its drawn
      kill set kills all those messages.  If one spares any, the run loop
      applies that step A and ``absorb`` finds the round it belongs to from
      ``state.step_index``.

    The first two are the driver's quiet run at a round boundary once
    it has started: a multiplexed lane skipped from its first step would mark
    its segment at the wrong step.
    """

    def __init__(self, session: Session, rounds: int, alpha: float, label: str = "thm2"):
        self.session = session
        self.rounds = rounds
        self.alpha = alpha
        self.label = label
        self.round_idx = 0
        self.phase_a = True
        self.pending = None  # opposite arcs of the last step A's deliveries
        self.total_steps = 2 * rounds
        self._started = False  # the first step is emitted and the segment marked
        self._speculated = None  # (step index, round) where the last speculative block began

    def done(self):
        return self.round_idx >= self.rounds

    def next(self, state, blocks):
        if not self._started:
            if self.trace is not None:
                self.trace.mark("simple_rounds", rounds=self.rounds,
                                primary=self.session.primary, label=self.label)
            self._started = True
        if self.phase_a:
            run = self._remaining_rounds(state, speculate=True) if blocks else None
            if run is not None:
                if isinstance(run[0][0], Watched):
                    self._speculated = (state.step_index, self.round_idx)
                self.skip(run[1])
                return BLOCK, [run]
            return BATCH, SendBatch.uniform(self.session.sends(state), self.session.payload_kind)
        # Step B acks each delivery of step A on the opposite arc.
        return BATCH, SendBatch.uniform(np.sort(self.pending), ACK)

    def quiet_run(self, state):
        """The round every remaining round repeats, if none can change state."""
        return self._remaining_rounds(state, speculate=False)

    def _remaining_rounds(self, state, speculate):
        """(template, steps) of the remaining rounds if they are a block, a
        speculative one only if ``speculate``; else None."""
        if not (self.phase_a and self._started):
            return None
        session = self.session
        arcs = session.sends(state)
        topo, m = session.topo, int(arcs.size)
        c, steps = topo.edge_connectivity, 2 * (self.rounds - self.round_idx)
        if m <= c - 1:
            return ((m, 0) if m else (0,)), steps
        survivors = m - min(m, fault_budget(m, c, self.alpha))
        if survivors > c - 1:
            return None
        opp, dst = topo.opp[arcs], topo.arc_dst[arcs]
        if not session.primary:  # its marks and aware set are its own
            if not (session.marks[opp].all() and session.aware[dst].all()
                    and state.passive[opp].all() and state.informed[dst].all()
                    and (session.also_aware is None or session.also_aware[dst].all())):
                return None
            watch = None
        else:
            watch = ~state.informed[dst]  # the messages that could inform a vertex
            if not (state.passive[opp] | watch).all():
                return None
            if not watch.any():
                watch = None
            elif not (speculate and np.count_nonzero(watch) <= m - survivors):
                return None
        batch = SendBatch.uniform(arcs, session.payload_kind)
        return (batch if watch is None else Watched(batch, watch), survivors), steps

    def skip(self, count):
        self.round_idx += count // 2
        if count % 2:  # only an empty round, (0,), is skipped by odd counts
            self._advance(np.empty(0, dtype=np.intp))

    def absorb(self, state, report):
        if self._speculated is not None:  # the step A that ended a speculative block
            start, round_idx = self._speculated
            self.round_idx = round_idx + (state.step_index - 1 - start) // 2
            self.phase_a = True
            self._speculated = None
        self.session.absorb(state, report)
        self._advance(report.marked)

    def _advance(self, marked: np.ndarray) -> None:
        if self.phase_a:
            self.pending = marked
            self.phase_a = False
        else:
            self.pending = None
            self.phase_a = True
            self.round_idx += 1

    def at_checkpoint(self):
        return self.phase_a  # round boundary

    def clone(self, new_state):
        other = SimpleRoundsDriver(self.session.clone_primary(new_state), self.rounds,
                                   self.alpha, self.label)
        other.round_idx = self.round_idx
        other.phase_a = self.phase_a
        other.pending = None if self.pending is None else self.pending.copy()
        other._started = self._started
        return other

    def key_parts(self, arc_perm):
        if self.pending is None or not self.pending.size:
            pending_key = b""
        else:
            pending_key = np.sort(arc_perm[self.pending]).tobytes()
        return ("rounds", self.round_idx, self.phase_a, pending_key)

    def keeps_deliveries(self):
        # Step A records ``pending``; a secondary session records its aware set.
        return self.phase_a or not self.session.primary


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

    def next(self, state, blocks):
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
    return complete_arc_id(topo.n, senders[senders != target], target)


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

    def next(self, state, blocks):
        if self.groups is None:
            self.senders, self.groups = self.start()
        if self.step >= len(self.groups):
            self.step += 1
            return BATCH, SendBatch.empty()
        arcs = [_arcs_to(self.topo, self.senders, t) for t in self.groups[self.step]]
        self.step += 1
        return BATCH, SendBatch.uniform(np.sort(np.concatenate(arcs)), INFO)

    def absorb(self, state, report):
        if self.knows_sink is not None:
            self.knows_sink[report.info_dsts] = True

    def quiet_run(self, state):
        if self.groups is None or self.step < len(self.groups):
            return None
        return (0,), self.total_steps - self.step

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
                              SimpleRoundsDriver(sub, r_kn, alpha, label="sod_p3")])

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
            SimpleRoundsDriver(session, r_kn, alpha,
                               label="sod_p1" if state is None else "thm2"),
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


class EliminationDriver(Driver):
    """One pass of hyperactive-arc elimination on K_n: L2 iterations of L3 steps.

    Each iteration freezes E (the currently active or hyperactive arcs) and
    sends on E union P for L3 steps, where P collects the opposite arcs of
    everything delivered within the iteration.  When an iteration starts with
    |E| <= c-1, an exhaustive adversary kills every batch left in the pass,
    which is emitted as one block of dead steps if the caller takes blocks.
    """

    def __init__(self, topo: Topology, l2: int, l3: int, pass_idx: int):
        self.topo = topo
        self.l2, self.l3 = l2, l3
        self.pass_idx = pass_idx  # the pass's place among the L1, for the trace
        self.i2 = 0
        self.i3 = 0
        self.e_mask = np.zeros(topo.num_arcs, dtype=bool)
        self.p_mask = np.zeros(topo.num_arcs, dtype=bool)
        self.total_steps = l2 * l3

    def done(self):
        return self.i2 >= self.l2

    def next(self, state, blocks):
        if self.i3 == 0:
            np.logical_and(state.informed[self.topo.arc_src], ~state.passive, out=self.e_mask)
            self.p_mask[:] = False
            m = int(np.count_nonzero(self.e_mask))
            remaining = (self.l2 - self.i2) * self.l3
            if blocks and m <= self.topo.edge_connectivity - 1:
                if self.trace is not None:
                    self.trace.mark("nosod_inert_tail", l1=self.pass_idx, l2=self.i2, m=m)
                self.i2 = self.l2
                return BLOCK, [((m,), remaining)]
            if self.trace is not None:
                k0, h0, _ = state.counts()
                self.trace.mark("nosod_iter", l1=self.pass_idx, l2=self.i2, k0=k0, h0=h0,
                                steps=self.l3)
        return BATCH, SendBatch.uniform(np.flatnonzero(self.e_mask | self.p_mask), INFO)

    def absorb(self, state, report):
        self.p_mask[report.marked] = True
        self.i3 += 1
        if self.i3 >= self.l3:
            self.i3 = 0
            self.i2 += 1

    def clone(self, new_state):
        other = EliminationDriver(self.topo, self.l2, self.l3, self.pass_idx)
        other.i2, other.i3 = self.i2, self.i3
        other.e_mask = self.e_mask.copy()
        other.p_mask = self.p_mask.copy()
        return other

    def key_parts(self, arc_perm):
        e_p = np.empty_like(self.e_mask)
        e_p[arc_perm] = self.e_mask
        p_p = np.empty_like(self.p_mask)
        p_p[arc_perm] = self.p_mask
        return ("elim", self.i2, self.i3, np.packbits(e_p).tobytes(), np.packbits(p_p).tobytes())


# ---------------------------------------------------------------------------
# Run loop and public protocol entry points


def simulate(topo: Topology, driver: Driver, adversary: AdversaryPolicy, alpha: float,
             state: NetworkState | None = None,
             trace: Trace | None = None) -> tuple[NetworkState, Trace]:
    """Execute a driver's full schedule against one adversary.

    The run starts from ``state``, or from a fresh state informed at vertex 0.
    Only under an exhaustive adversary may the driver reply with blocks.  A
    driver that runs past its ``total_steps`` raises ScheduleOverrun.
    """
    if state is None:
        state = NetworkState(topo)
    if trace is None:
        trace = Trace(topo, track_boundary=(topo.kind == HYPERCUBE))
    driver.attach(trace)
    start = state.step_index
    while not driver.done():
        kind, val = driver.next(state, adversary.exhaustive)
        if kind == BATCH:
            report = execute_step(state, val, adversary, alpha)
            driver.absorb(state, report)
            trace.record_step(state, report)
        else:
            for template, steps in val:
                report = _play_block(state, template, steps, adversary, alpha, trace)
                if report is not None:  # a speculative block ended early
                    driver.absorb(state, report)
                    trace.record_step(state, report)
        if state.step_index - start > driver.total_steps:
            raise ScheduleOverrun(f"{type(driver).__name__} ran {state.step_index - start} "
                                  f"steps of a {driver.total_steps}-step schedule")
    return state, trace


def _play_block(state: NetworkState, template: tuple, steps: int, adversary,
                alpha: float, trace: Trace) -> DeliveryReport | None:
    """Record ``steps`` steps that repeat ``template``, each losing min(m, budget).

    Unless that kill set is forced (``engine.forced``), the adversary gives
    each SendBatch step's kill set, which must be exactly min(m, budget).
    A simple round (one drawn step A and its dead acks) gets its kill sets a
    chunk of rounds at a time (``decide_rounds``); any other template gets
    them one step at a time from ``decide``, in step order.  A speculative
    block may end early; then the report of its last step is returned.
    """
    c, p = state.topo.edge_connectivity, len(template)
    repeats = steps // p
    rows, drawn = [], []
    for pos, step in enumerate(template):
        batch = step.batch if isinstance(step, Watched) else step
        m = batch.m if isinstance(batch, SendBatch) else batch
        budget = fault_budget(m, c, alpha)
        rows.append((m, min(m, budget)))
        if isinstance(batch, SendBatch) and not forced(m, budget):
            drawn.append((pos, batch, budget))
    if p == 2 and len(drawn) == 1:
        pos, batch, budget = drawn[0]
        watch = template[pos].watch if isinstance(template[pos], Watched) else None
        draw = getattr(adversary, "decide_rounds", None)
        draw = draw or partial(AdversaryPolicy.decide_rounds, adversary)
        chunk = max(1, (1 << 16) // batch.m)  # about 64k messages of kill sets per draw
        for done in range(0, repeats, chunk):
            count = min(chunk, repeats - done)
            ctx = StepContext(state.step_index + pos + 2 * done, state.topo, state)
            if watch is None:
                kills = np.asarray(draw(ctx, batch, budget, count), dtype=np.int64)
                check_kill_rows(kills, batch.m, budget, adversary, rounds=count, exhaustive=True)
                continue
            kills = np.asarray(draw(ctx, batch, budget, count, watch=watch), dtype=np.int64)
            got = len(kills) if kills.ndim == 2 and 0 < len(kills) <= count else count
            killed = check_kill_rows(kills, batch.m, budget, adversary, rounds=got,
                                     exhaustive=True)  # raises on any other shape too
            spared = np.flatnonzero(~killed[:, watch].all(axis=1))
            if not spared.size and got == count:
                continue
            if not spared.size or spared[0] != got - 1:
                raise AdversaryViolation(
                    f"{adversary.id} gave {got} of {count} kill sets, but the first that "
                    "spares a watched message must end them")
            # The rounds before the sparing one change nothing; it is stepped.
            if done + got - 1:
                trace.record_block(state, rows, done + got - 1)
            state.step_index += 2 * (done + got - 1)
            return apply_kills(state, batch, killed[-1], budget)
    elif drawn:
        for first in range(state.step_index, state.step_index + steps, p):
            for pos, step, budget in drawn:
                ctx = StepContext(first + pos, state.topo, state)
                kills = np.asarray(adversary.decide(ctx, step, budget), dtype=np.int64)
                check_kill_rows(kills.reshape(1, -1), step.m, budget, adversary,
                                exhaustive=True)
    trace.record_block(state, rows, repeats)
    state.step_index += steps
    return None


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


def protocol_problem(protocol: str) -> str | None:
    """Why ``protocol`` names no schedule, or None if it does.  Only
    simple-rounds takes an argument, its round count: ``simple-rounds:N``."""
    name, colon, arg = protocol.partition(":")
    if name not in PROTOCOL_TOPOLOGIES:
        return f"unknown protocol id: {protocol!r}"
    if colon and name != "simple-rounds":
        return f"protocol {name} takes no argument, got {protocol!r}"
    if colon and not (arg.isdecimal() and int(arg) >= 1):
        return f"simple-rounds needs at least 1 round, got {arg!r}"
    return None


def make_driver(protocol: str, topo: Topology, alpha: float, eps: float,
                state: NetworkState, rounds: int | None = None) -> Driver:
    """Build the schedule for a CLI protocol id."""
    problem = protocol_problem(protocol)
    if problem:
        raise InvalidParameterError(problem)
    name, _, arg = protocol.partition(":")
    if topo.kind not in PROTOCOL_TOPOLOGIES[name]:
        raise UnsupportedTopologyError(
            f"protocol {name} needs a {' or '.join(PROTOCOL_TOPOLOGIES[name])} topology")
    if name == "simple-rounds":
        count = int(arg) if arg else bounds.rounds_kn(topo.n, alpha) if rounds is None else rounds
        if count < 1:
            raise InvalidParameterError(f"simple-rounds needs at least 1 round, got {count}")
        return SimpleRoundsDriver(Session(topo, state.initiator, state=state), count, alpha)
    if name == "greedy-kn":
        return GreedyCompleteDriver(Session(topo, state.initiator, state=state))
    if name == "greedy-qd":
        return GreedyHypercubeDriver(topo, state.initiator)
    if name == "almost-kn":
        session = Session(topo, state.initiator, state=state)
        return SeqDriver([GreedyCompleteDriver(session),
                          SimpleRoundsDriver(session, bounds.rounds_kn(topo.n, alpha), alpha)])
    if name == "hypercube":
        t1, t2 = bounds.rounds_hypercube(topo.d, alpha, eps)
        session = Session(topo, state.initiator, state=state)
        return SeqDriver([GreedyHypercubeDriver(topo, state.initiator),
                          SimpleRoundsDriver(session, t1 + t2, alpha, label="qd")])
    if name == "sod-all-but-one":
        return AllButOneDriver(topo, state.initiator, alpha, eps, state=state)
    if name == "sod-complete":
        return _sod_complete_driver(topo, alpha, eps, state)
    # nosod-complete: L1 extended rounds, each an elimination pass then L4 simple rounds
    l1, l2, l3, l4 = bounds.l_params(topo.n, alpha, eps)
    session = Session(topo, state.initiator, state=state)
    passes = [driver for i in range(l1)
              for driver in (EliminationDriver(topo, l2, l3, i),
                             SimpleRoundsDriver(session, l4, alpha, label="nosod_l4"))]
    return SeqDriver([GreedyCompleteDriver(session),
                      SimpleRoundsDriver(session, bounds.rounds_kn(topo.n, alpha), alpha),
                      *passes])


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
