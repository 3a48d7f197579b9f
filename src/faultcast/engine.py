"""Synchronous step execution under the adversarial loss budget.

One time step: informed vertices hand the engine a batch of at most one
message per arc, the adversary picks a kill set within
max{c(G)-1, floor(alpha*m)}, survivors are delivered, and every delivery over
an arc marks the opposite arc passive (the receiver now knows the far end is
informed).  Deliveries carrying the broadcast information make the receiver
informed.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AdversaryViolation, InvalidParameterError, PreconditionViolation
from .topology import COMPLETE, Topology

# Message payload kinds.
INFO = 0
ACK = 1
CANDS = 2
INFO_CANDS = 3

ACTIVE = "active"
PASSIVE = "passive"
HYPERACTIVE = "hyperactive"

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class SendBatch:
    """Messages of one time step: parallel arrays of arc ids and payload kinds.

    ``payloads`` is only populated for candidate-carrying messages (a list
    aligned with ``arcs``); plain info/ack traffic leaves it None.
    """

    arcs: np.ndarray
    kinds: np.ndarray
    payloads: list | None = None

    @property
    def m(self) -> int:
        return int(self.arcs.shape[0])

    @staticmethod
    def empty() -> "SendBatch":
        return SendBatch(arcs=_EMPTY, kinds=np.empty(0, dtype=np.int8))

    @staticmethod
    def uniform(arcs: np.ndarray, kind: int, payloads: list | None = None) -> "SendBatch":
        return SendBatch(
            arcs=np.asarray(arcs, dtype=np.int64),
            kinds=np.full(len(arcs), kind, dtype=np.int8),
            payloads=payloads,
        )


@dataclass
class DeliveryReport:
    batch: SendBatch
    delivered_idx: np.ndarray  # indices into the batch
    lost_idx: np.ndarray
    budget: int
    new_informed: np.ndarray  # vertices the step informed, ascending

    @property
    def budget_used(self) -> int:
        return int(self.lost_idx.shape[0])

    @property
    def delivered_arcs(self) -> np.ndarray:
        return self.batch.arcs[self.delivered_idx]

    @property
    def acks_delivered(self) -> int:
        return int(np.count_nonzero(self.batch.kinds[self.delivered_idx] == ACK))


@dataclass(frozen=True)
class StepContext:
    step_index: int
    topo: Topology
    state: "NetworkState"


class NetworkState:
    """Informed set plus global per-arc passive marks; the evolving run object.

    ``version`` increments whenever a delivery may have changed anything, so
    callers can cache derived quantities.  A caller that writes ``informed`` or
    ``passive`` directly must bump ``version`` too.  ``execute_step`` carries
    the cached counts across the versions it produces; any other version makes
    ``counts()`` and ``boundary()`` recompute them from scratch.
    """

    __slots__ = ("topo", "informed", "passive", "step_index", "version", "initiator",
                 "_counts_version", "_counts")

    def __init__(self, topo: Topology, initiator: int = 0):
        if not 0 <= initiator < topo.n:
            raise InvalidParameterError(f"initiator {initiator} outside 0..{topo.n - 1}")
        self.topo = topo
        self.initiator = initiator
        self.informed = np.zeros(topo.n, dtype=bool)
        self.informed[initiator] = True
        self.passive = np.zeros(topo.num_arcs, dtype=bool)
        self.step_index = 0
        self.version = 0
        self._counts_version = -1
        self._counts = None

    def _tally(self) -> tuple[int, int, int, int]:
        """(k, h, b, active arcs) of the current version."""
        if self._counts_version != self.version:
            src_inf = self.informed[self.topo.arc_src]
            dst_inf = self.informed[self.topo.arc_dst]
            active = int(np.count_nonzero(src_inf & ~dst_inf))
            h = int(np.count_nonzero(src_inf & dst_inf & ~self.passive))
            k = self.topo.n - int(np.count_nonzero(self.informed))
            self._counts = (k, h, int(np.count_nonzero(self.passive)), active)
            self._counts_version = self.version
        return self._counts

    def counts(self) -> tuple[int, int, int]:
        """(k uninformed, h hyperactive arcs, b passive arcs)."""
        return self._tally()[:3]

    def boundary(self) -> int:
        """Edges with exactly one informed endpoint: the active arcs."""
        return self._tally()[3]

    @property
    def k(self) -> int:
        return self.counts()[0]

    def clone(self) -> "NetworkState":
        other = NetworkState.__new__(NetworkState)
        other.topo = self.topo
        other.initiator = self.initiator
        other.informed = self.informed.copy()
        other.passive = self.passive.copy()
        other.step_index = self.step_index
        other.version = self.version
        other._counts_version = self._counts_version
        other._counts = self._counts
        return other


@lru_cache(maxsize=64)
def _rational(alpha: float) -> tuple[int, int]:
    """alpha as the exact decimal it is written as, p/q in lowest terms."""
    ratio = Fraction(str(alpha))
    return ratio.numerator, ratio.denominator


def fault_budget(m: int, c: int, alpha: float) -> int:
    """max{c-1, floor(alpha*m)} messages the adversary may destroy, in exact arithmetic."""
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")
    if m < 0 or c < 1:
        raise InvalidParameterError(f"need m >= 0 and c >= 1, got m={m}, c={c}")
    p, q = _rational(alpha)
    return max(c - 1, p * m // q)


def classify_arc(state: NetworkState, arc: int) -> str:
    """Definition-1 label of an out-arc of an informed vertex."""
    topo = state.topo
    if not state.informed[topo.arc_src[arc]]:
        raise PreconditionViolation(f"arc {arc} does not leave an informed vertex")
    if not state.informed[topo.arc_dst[arc]]:
        return ACTIVE
    if state.passive[arc]:
        return PASSIVE
    return HYPERACTIVE


def _validate_batch(state: NetworkState, batch: SendBatch) -> None:
    arcs = batch.arcs
    if arcs.size == 0:
        return
    # Drivers emit ascending batches: then the ends bound the range and no arc repeats.
    ascending = (arcs[1:] > arcs[:-1]).all()
    lo, hi = (arcs[0], arcs[-1]) if ascending else (arcs.min(), arcs.max())
    if lo < 0 or hi >= state.topo.num_arcs:
        raise InvalidParameterError("batch references arcs outside the topology")
    if not ascending and np.unique(arcs).size != arcs.size:
        raise InvalidParameterError("batch sends more than one message per arc")
    if not state.informed[state.topo.arc_src[arcs]].all():
        raise InvalidParameterError("only informed vertices may send")


def execute_step(state: NetworkState, batch: SendBatch, adversary,
                 alpha: float) -> DeliveryReport:
    """Run one synchronous step: adversary kill, delivery, bookkeeping.

    An adversary returning a kill set over budget or not drawn from the batch
    aborts the run with AdversaryViolation; it is never clamped.  The work
    done grows with the batch size plus the degree of each newly informed
    vertex, not with the arc count.
    """
    _validate_batch(state, batch)
    m = batch.m
    budget = fault_budget(m, state.topo.edge_connectivity, alpha)
    ctx = StepContext(step_index=state.step_index, topo=state.topo, state=state)
    kills = np.asarray(adversary.decide(ctx, batch, budget), dtype=np.int64)
    if kills.size > budget:
        raise AdversaryViolation(
            f"{adversary.id} killed {kills.size} messages with budget {budget}")
    delivered_mask = np.ones(m, dtype=bool)
    if kills.size:
        if kills.min() < 0 or kills.max() >= m:
            raise AdversaryViolation(f"{adversary.id} killed a message that was not sent")
        delivered_mask[kills] = False
        lost_idx = np.flatnonzero(~delivered_mask)
        if lost_idx.size != kills.size:
            raise AdversaryViolation(f"{adversary.id} killed the same message twice")
    else:
        lost_idx = _EMPTY
    delivered_idx = np.flatnonzero(delivered_mask)
    new_informed = _deliver(state, batch, delivered_idx) if delivered_idx.size else _EMPTY
    state.step_index += 1
    return DeliveryReport(batch=batch, delivered_idx=delivered_idx, lost_idx=lost_idx,
                          budget=budget, new_informed=new_informed)


def _deliver(state: NetworkState, batch: SendBatch, delivered_idx: np.ndarray) -> np.ndarray:
    """Apply a step's deliveries; return the newly informed vertices.

    The cached (k, h, b) and active-arc count, if current, are carried across.

    h changes only on the arcs touched here: a newly passive arc between two
    informed vertices stops being hyperactive, and each newly informed vertex
    v makes hyperactive every non-passive arc between v and an informed vertex.
    Active arcs change only at such v: its in-arcs from earlier informed
    vertices stop being active and its out-arcs to uninformed ones start.
    """
    topo, informed, passive = state.topo, state.informed, state.passive
    darr = batch.arcs[delivered_idx]
    marked = topo.opp[darr]
    new_passive = marked[~passive[marked]]
    passive[new_passive] = True
    kinds = batch.kinds[delivered_idx]
    dsts = topo.arc_dst[darr[(kinds == INFO) | (kinds == INFO_CANDS)]]
    new_informed = np.unique(dsts[~informed[dsts]]) if dsts.size else _EMPTY

    counted = state._counts_version == state.version
    if counted:
        k, h, b, active = state._counts
        b += int(new_passive.size)
        h -= int(np.count_nonzero(informed[topo.arc_src[new_passive]]
                                  & informed[topo.arc_dst[new_passive]]))
    if new_informed.size:
        if counted:
            outs = topo.out_arcs_of(new_informed)
            far = topo.arc_dst[outs]
            # Arcs w->v from vertices informed earlier, before v joins ...
            earlier = informed[far]
            h += int(np.count_nonzero(earlier & ~passive[topo.opp[outs]]))
            active -= int(np.count_nonzero(earlier))
        informed[new_informed] = True
        if counted:
            # ... then arcs v->w to every informed w, v's fellow newcomers included.
            now = informed[far]
            h += int(np.count_nonzero(now & ~passive[outs]))
            active += int(outs.size - np.count_nonzero(now))
            k -= int(new_informed.size)
    state.version += 1
    if counted:
        state._counts = (k, h, b, active)
        state._counts_version = state.version
    return new_informed


# ---------------------------------------------------------------------------
# Traces

_COLUMNS = ("step", "k", "h", "b", "m_sent", "m_lost", "acks", "M")

# One JSONL record, byte for byte as json.dumps writes the dict of a row, and
# the same record after its step field.
_JSONL_ROW = "{" + ", ".join(f'"{name}": %d' for name in _COLUMNS) + "}\n"
_JSONL_TAIL = "".join(f', "{name}": %d' for name in _COLUMNS[1:]) + "}\n"
_JSONL_CHUNK = 1 << 16  # records formatted per write
_BLOCK = 1024  # rows converted to int64 at a time


@dataclass
class Segment:
    kind: str
    start: int  # index of the first record in the segment
    meta: dict = field(default_factory=dict)


class Trace:
    """Columnar per-step records plus run summary and segment markers.

    One record per time step, taken after the step: k/h/b/M describe the
    post-step state, m_sent/m_lost/acks the step's traffic.  Segments let
    validators find round and loop boundaries without guessing.

    An executed step stores one row; a run of fast-forwarded steps stores one
    row for its first step plus its length in ``_runs``, so memory grows with
    the executed steps and the inert blocks, not with the schedule.  Record
    indices, ``len`` and the columns still count steps.
    """

    def __init__(self, topo: Topology, track_boundary: bool = False):
        self.topo = topo
        self.m_coeff = 2 * (topo.n - 1) if topo.kind == COMPLETE else 2 * topo.d
        self.track_boundary = track_boundary
        self._blocks: list[np.ndarray] = []  # stored rows as int64 blocks, oldest first
        self._pending: list[tuple] = []  # rows not yet in a block
        self._rows = 0  # stored rows
        self._runs: list[tuple[int, int]] = []  # (stored row, steps it stands for)
        self._len = 0
        self.segments: list[Segment] = []
        self.summary: dict = {}

    def __len__(self) -> int:
        return self._len

    @property
    def _data(self) -> np.ndarray:
        """Stored rows: the columns, then the active-arc count if tracked."""
        if self._pending:
            self._seal()
        if len(self._blocks) != 1:
            self._blocks = [np.concatenate(self._blocks) if self._blocks
                            else np.empty((0, len(_COLUMNS) + self.track_boundary),
                                          dtype=np.int64)]
        return self._blocks[0]

    def _append(self, state: NetworkState, step: int, m_sent: int, m_lost: int,
                acks: int) -> None:
        k, h, b = state.counts()
        row = (step, k, h, b, m_sent, m_lost, acks, self.m_coeff * k + h)
        self._pending.append(row + (state.boundary(),) if self.track_boundary else row)
        self._rows += 1
        if len(self._pending) == _BLOCK:
            self._seal()

    def _seal(self) -> None:
        self._blocks.append(np.array(self._pending, dtype=np.int64))
        self._pending.clear()

    def mark(self, kind: str, **meta) -> Segment:
        seg = Segment(kind=kind, start=self._len, meta=meta)
        self.segments.append(seg)
        return seg

    def record(self, state: NetworkState, m_sent: int, m_lost: int, acks: int) -> None:
        self._append(state, state.step_index, m_sent, m_lost, acks)
        self._len += 1

    def record_step(self, state: NetworkState, report: DeliveryReport) -> None:
        self.record(state, report.batch.m, report.budget_used, report.acks_delivered)

    def record_inert(self, state: NetworkState, m_sent: int, count: int,
                     step_start: int) -> None:
        """Record ``count`` steps where every message is destroyed, as one run.

        Only valid when the caller has proven the steps cannot change state
        (m_sent <= c-1 and an exhaustive adversary kills the whole batch).
        """
        if count <= 0:
            return
        self._append(state, step_start + 1, m_sent, m_sent, 0)
        self._runs.append((self._rows - 1, count))
        self._len += count

    def _repeats(self) -> np.ndarray:
        """Steps each stored row stands for."""
        repeats = np.ones(self._data.shape[0], dtype=np.int64)
        rows, counts = zip(*self._runs)
        repeats[list(rows)] = counts
        return repeats

    def column(self, name: str) -> np.ndarray:
        col = self._data[:, _COLUMNS.index(name)]
        if not self._runs:
            return col
        repeats = self._repeats()
        col = np.repeat(col, repeats)
        if name == "step":
            # Each step of a run is one more than the step before it.
            col += np.arange(self._len) - np.repeat(np.cumsum(repeats) - repeats, repeats)
        return col

    def boundary_column(self) -> np.ndarray:
        if not self.track_boundary:
            raise InvalidParameterError("trace was not recorded with boundary tracking")
        col = self._data[:, len(_COLUMNS)]
        return np.repeat(col, self._repeats()) if self._runs else col

    @property
    def final_k(self) -> int:
        return int(self._data[-1, 1]) if self._len else self.topo.n - 1

    @property
    def final_h(self) -> int:
        return int(self._data[-1, 2]) if self._len else 0

    @property
    def total_steps(self) -> int:
        return self._len

    def first_complete_step(self) -> int:
        """First step index at which k reached its final value."""
        if not self._len:
            return 0
        k = self._data[:, 1]
        # The first step of a run is its stored step.
        return int(self._data[np.flatnonzero(k == k[-1])[0], 0])

    def to_jsonl(self, path) -> None:
        """One JSON line per step, then the summary line.

        Stored rows are formatted a chunk at a time, and a run's constant
        columns once for all of its steps.
        """
        data = self._data
        with open(path, "w") as fh:
            start = 0
            for row, count in self._runs + [(data.shape[0], 0)]:
                for i in range(start, row, _JSONL_CHUNK):
                    chunk = data[i:min(i + _JSONL_CHUNK, row), :len(_COLUMNS)]
                    fh.write(_JSONL_ROW * chunk.shape[0] % tuple(chunk.ravel().tolist()))
                if count:
                    first, *rest = data[row, :len(_COLUMNS)].tolist()
                    line = '{"step": %d' + _JSONL_TAIL % tuple(rest)
                    for s in range(first, first + count, _JSONL_CHUNK):
                        steps = range(s, min(s + _JSONL_CHUNK, first + count))
                        fh.write(line * len(steps) % tuple(steps))
                start = row + 1
            fh.write(json.dumps(self.summary))
            fh.write("\n")
