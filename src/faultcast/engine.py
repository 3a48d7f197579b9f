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
    """What one executed step did.

    ``apply_kills`` fills every field from what the delivery computes anyway,
    so each delivered message is gathered once.  Drivers, sessions and traces
    read these arrays and must not modify them.
    """

    batch: SendBatch
    delivered_idx: np.ndarray  # indices into the batch, ascending
    budget: int
    new_informed: np.ndarray  # intp: vertices the step informed, ascending
    delivered_arcs: np.ndarray  # the survivors' arcs, in batch order
    marked: np.ndarray  # intp: their opposite arcs, which the deliveries marked passive
    info_dsts: np.ndarray  # intp: the non-ack survivors' destinations, repeats kept
    acks_delivered: int

    @property
    def budget_used(self) -> int:
        return self.batch.m - int(self.delivered_idx.shape[0])

    @property
    def lost_idx(self) -> np.ndarray:
        """Indices of the killed messages, ascending; a run only counts them."""
        lost = np.ones(self.batch.m, dtype=bool)
        lost[self.delivered_idx] = False
        return np.flatnonzero(lost)


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


def execute_step(state: NetworkState, batch: SendBatch, adversary,
                 alpha: float) -> DeliveryReport:
    """Run one synchronous step: adversary kill, delivery, bookkeeping.

    An exhaustive adversary is not asked for a ``forced`` kill set.  A kill
    set over budget or not drawn from the batch aborts the run with
    AdversaryViolation; it is never clamped.  The work done grows with the
    batch size plus the degree of each newly informed vertex, not with the
    arc count.
    """
    check_batch(state, batch)
    m = batch.m
    budget = fault_budget(m, state.topo.edge_connectivity, alpha)
    if adversary.exhaustive and forced(m, budget):
        return apply_kills(state, batch, np.full(m, budget >= m), budget)
    ctx = StepContext(step_index=state.step_index, topo=state.topo, state=state)
    kills = np.asarray(adversary.decide(ctx, batch, budget), dtype=np.int64)
    killed = check_kill_rows(kills.reshape(1, -1), m, budget, adversary)[0]
    return apply_kills(state, batch, killed, budget)


def forced(m: int, budget: int) -> bool:
    """Whether an exhaustive adversary has one kill set for ``m`` messages:
    none when the budget is 0, all of them when it is at least m."""
    return not 0 < budget < m


def apply_kills(state: NetworkState, batch: SendBatch, killed: np.ndarray,
                budget: int) -> DeliveryReport:
    """Run one step whose (m,) mask of killed messages is already checked.

    Delivers the survivors, moves the state one step on and returns the
    filled report.  ``batch`` must pass ``check_batch``; ``budget`` is the
    step's budget, for the report.
    """
    delivered_idx = np.flatnonzero(~killed)
    report = DeliveryReport(batch=batch, delivered_idx=delivered_idx, budget=budget,
                            new_informed=_EMPTY, delivered_arcs=_EMPTY, marked=_EMPTY,
                            info_dsts=_EMPTY, acks_delivered=0)
    if delivered_idx.size:
        _deliver(state, report)
    state.step_index += 1
    return report


def check_batch(state: NetworkState, batch: SendBatch) -> None:
    """Raise InvalidParameterError unless informed vertices send at most one message per arc."""
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
    # Arc ids are source-major (see ``Topology.out_arcs_of``), so an ascending
    # batch's senders are its arcs // degree, cheaper than the arc_src gather.
    senders = arcs // state.topo.degree if ascending else state.topo.arc_src[arcs]
    if not state.informed[senders].all():
        raise InvalidParameterError("only informed vertices may send")


def check_kill_rows(kills: np.ndarray, m: int, budget: int, adversary,
                    rounds: int = 1, exhaustive: bool = False) -> np.ndarray:
    """Check ``rounds`` kill sets on one batch of ``m`` messages, one per row.

    Each row must hold at most ``budget`` distinct indices into the batch, and
    exactly min(m, budget) if ``exhaustive``; any other kill set raises
    AdversaryViolation.  Returns the (rounds, m) mask of killed messages.
    """
    if kills.ndim != 2 or kills.shape[0] != rounds:
        raise AdversaryViolation(
            f"{adversary.id} gave kill sets of shape {kills.shape} for {rounds} steps")
    width = kills.shape[1]
    if exhaustive and width != min(m, budget):
        raise AdversaryViolation(
            f"{adversary.id} is exhaustive but killed {width} of {m} messages "
            f"with budget {budget}")
    if width > budget:
        raise AdversaryViolation(f"{adversary.id} killed {width} messages with budget {budget}")
    killed = np.zeros((rounds, m), dtype=bool)
    if not width:
        return killed
    if kills.min() < 0 or kills.max() >= m:
        raise AdversaryViolation(f"{adversary.id} killed a message that was not sent")
    # One flat index scatters every row at once, faster than a 2-D index.
    flat = kills if rounds == 1 else kills + np.arange(0, rounds * m, m)[:, None]
    killed.reshape(-1)[flat.reshape(-1)] = True
    if np.count_nonzero(killed) != kills.size:
        raise AdversaryViolation(f"{adversary.id} killed the same message twice")
    return killed


def distinct_vertices(vertices: np.ndarray, n: int) -> np.ndarray:
    """The distinct entries of ``vertices`` (ids below n), ascending, as intp.

    A scatter into an n-sized mask: the same set as ``np.unique``, without the sort.
    """
    if vertices.size <= 1:
        return vertices.astype(np.intp)
    hit = np.zeros(n, dtype=bool)
    hit[vertices] = True
    return np.flatnonzero(hit)


def _deliver(state: NetworkState, report: DeliveryReport) -> None:
    """Apply a step's deliveries and fill the rest of its report.

    The cached (k, h, b) and active-arc count, if current, are carried across.

    h changes only on the arcs touched here.  A delivery over u->v marks v->u
    passive, and u is informed: the batch passed ``check_batch``, as
    ``apply_kills`` requires.  So a newly passive arc was hyperactive exactly
    when its receiver v was informed before the step.  Each newly informed
    vertex v makes hyperactive every non-passive arc between v and an
    informed vertex.  Active arcs change only at such v: its in-arcs from
    earlier informed vertices stop being active and its out-arcs to
    uninformed ones start.
    """
    topo, informed, passive = state.topo, state.informed, state.passive
    batch, delivered_idx = report.batch, report.delivered_idx
    darr = batch.arcs[delivered_idx]
    # A fancy index of the topology's int32 ids runs about twice as slowly as
    # one of intp ids or a ``take``; the report's ids are cast once, to intp.
    marked = topo.opp[darr].astype(np.intp)
    fresh = ~passive[marked]
    passive[marked] = True
    dsts = topo.arc_dst[darr].astype(np.intp)
    receiver_informed = informed[dsts]
    acks = batch.kinds[delivered_idx] == ACK
    acks_delivered = int(np.count_nonzero(acks))
    info_dsts = dsts[~acks] if acks_delivered else dsts
    new_informed = distinct_vertices(dsts[~(acks | receiver_informed)], topo.n)

    counted = state._counts_version == state.version
    if counted:
        k, h, b, active = state._counts
        b += int(np.count_nonzero(fresh))
        h -= int(np.count_nonzero(fresh & receiver_informed))
    if new_informed.size:
        if counted:
            outs = topo.out_arcs_of(new_informed)
            far = topo.arc_dst[outs]
            # Arcs w->v from vertices informed earlier, before v joins ...
            earlier = informed.take(far)
            h += int(np.count_nonzero(earlier & ~passive.take(topo.opp[outs])))
            active -= int(np.count_nonzero(earlier))
        informed[new_informed] = True
        if counted:
            # ... then arcs v->w to every informed w, v's fellow newcomers included.
            now = informed.take(far)
            h += int(np.count_nonzero(now & ~passive[outs]))
            active += int(outs.size - np.count_nonzero(now))
            k -= int(new_informed.size)
    state.version += 1
    if counted:
        state._counts = (k, h, b, active)
        state._counts_version = state.version
    report.delivered_arcs, report.marked = darr, marked
    report.info_dsts, report.acks_delivered = info_dsts, acks_delivered
    report.new_informed = new_informed


# ---------------------------------------------------------------------------
# Traces

_COLUMNS = ("step", "k", "h", "b", "m_sent", "m_lost", "acks", "M")

# One JSONL record, byte for byte as json.dumps writes the dict of a row, and
# the same record after its step field.
_JSONL_ROW = "{" + ", ".join(f'"{name}": %d' for name in _COLUMNS) + "}\n"
_JSONL_TAIL = "".join(f', "{name}": %d' for name in _COLUMNS[1:]) + "}\n"
_STEP_AT = len('{"step": ')  # offset of the step digits in a record
_JSONL_CHUNK = 1 << 16  # records formatted per write
_PIECE_DIGITS = 4  # a long run is written as reused pieces of 10**_PIECE_DIGITS lines
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

    An executed step stores one row; a block (see ``record_block``) stores its
    template's rows once, and a block of several repetitions is a run of
    period p, the entry (first stored row, p, steps) in ``_runs``.  So memory
    grows with the executed steps and the blocks, not with the schedule.
    Record indices, ``len`` and the columns still count steps.
    """

    def __init__(self, topo: Topology, track_boundary: bool = False):
        self.topo = topo
        self.m_coeff = 2 * (topo.n - 1) if topo.kind == COMPLETE else 2 * topo.d
        self.track_boundary = track_boundary
        self._blocks: list[np.ndarray] = []  # stored rows as int64 blocks, oldest first
        self._pending: list[tuple] = []  # rows not yet in a block
        self._rows = 0  # stored rows
        self._runs: list[tuple[int, int, int]] = []  # (first stored row, period, steps)
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

    def record_block(self, state: NetworkState, rows: list[tuple[int, int]],
                     repeats: int) -> None:
        """Record ``repeats`` repetitions of a template of steps after the current step.

        ``rows`` holds each template step's (m_sent, m_lost); no step of a
        block delivers an ack.  Its rows hold the steps of the first
        repetition.  Only valid when the caller has proven that no step of the
        block changes state.
        """
        for offset, (m_sent, m_lost) in enumerate(rows):
            self._append(state, state.step_index + 1 + offset, m_sent, m_lost, 0)
        if repeats > 1:
            self._runs.append((self._rows - len(rows), len(rows), len(rows) * repeats))
        self._len += len(rows) * repeats

    def stored(self) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """(columns, starts, repeats, period) of the stored rows.

        ``columns`` maps each column name, and "boundary" if tracked, to its
        stored values.  Row r stands for the ``repeats[r]`` records
        ``starts[r]``, ``starts[r] + period[r]``, ...; ``period`` is 1 outside runs.
        """
        data = self._data
        repeats, period, advance = np.ones((3, data.shape[0]), dtype=np.int64)
        for row, p, steps in self._runs:
            repeats[row:row + p] = steps // p
            period[row:row + p] = p
            advance[row + p - 1] = steps - p + 1  # records to the next row's first
        names = _COLUMNS + ("boundary",) if self.track_boundary else _COLUMNS
        columns = {name: data[:, i] for i, name in enumerate(names)}
        return columns, np.cumsum(advance) - advance, repeats, period

    def column(self, name: str) -> np.ndarray:
        col = self.stored()[0][name]
        if not self._runs:
            return col
        out = np.empty(self._len, dtype=col.dtype)
        rec = row = 0
        for first, p, steps in self._runs:
            out[rec:rec + first - row] = col[row:first]
            rec += first - row
            if name == "step":  # each step of a run is one more than the step before it
                out[rec:rec + steps] = np.arange(col[first], col[first] + steps)
            else:
                out[rec:rec + steps].reshape(-1, p)[:] = col[first:first + p]
            rec, row = rec + steps, first + p
        out[rec:] = col[row:]
        return out

    def boundary_column(self) -> np.ndarray:
        if not self.track_boundary:
            raise InvalidParameterError("trace was not recorded with boundary tracking")
        return self.column("boundary")

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
        # A row's stored step is the first step it stands for.
        return int(self._data[np.flatnonzero(k == k[-1])[0], 0])

    def to_jsonl(self, path) -> None:
        """One JSON line per step, then the summary line.

        Stored rows are formatted a chunk at a time.  A run is formatted from
        its template lines a piece at a time, and a long run is written from
        one reused piece whose high step digits are rewritten in place (see
        ``_write_run``).  Every line is ASCII, so the file is written as bytes.
        """
        data = self._data[:, :len(_COLUMNS)]
        with open(path, "wb") as fh:
            start = 0
            for row, p, steps in self._runs + [(data.shape[0], 0, 0)]:
                for i in range(start, row, _JSONL_CHUNK):
                    chunk = data[i:min(i + _JSONL_CHUNK, row)]
                    text = _JSONL_ROW * chunk.shape[0] % tuple(chunk.ravel().tolist())
                    fh.write(text.encode())
                if steps:
                    template = data[row:row + p].tolist()
                    _write_run(fh, template[0][0], steps,
                               [_JSONL_TAIL % tuple(rest) for _, *rest in template])
                start = row + p
            fh.write(json.dumps(self.summary).encode() + b"\n")


def _write_run(fh, first: int, count: int, tails: list[str]) -> None:
    """Write the lines of steps ``first .. first+count-1``; the line of step
    ``first + i`` ends in ``tails[i % p]``, and ``count`` is a multiple of p.

    When p divides U = 10**_PIECE_DIGITS, the whole pieces of U lines whose
    steps have as many digits as ``first`` come from one reused piece (see
    ``_write_pieces``).  Every other piece is one period, or whole periods of
    at most ``_JSONL_CHUNK`` lines whose steps have the same number of digits.
    """
    p = len(tails)
    piece = 10 ** _PIECE_DIGITS
    end = first + count
    while first < end:
        width_end = min(end, 10 ** len(str(first)))
        pieces = (width_end - first) // piece if piece % p == 0 else 0
        if pieces:
            _write_pieces(fh, first, pieces, tails)
            first += pieces * piece
        else:
            periods = max(1, (min(width_end, first + _JSONL_CHUNK) - first) // p)
            fh.write(_run_piece(first, periods, tails))
            first += periods * p


def _write_pieces(fh, first: int, pieces: int, tails: list[str]) -> None:
    """Write ``pieces`` pieces of U = 10**_PIECE_DIGITS lines from step
    ``first``, whose steps all have as many digits as ``first``; p divides U.

    Line i of piece j is line i of the first piece with j*U added to its step,
    so only the digits above the last ``_PIECE_DIGITS`` differ.  Within a
    piece they read one number before the carry line, the first whose step is
    a multiple of U, and one more from it on.  So the first piece is formatted
    once, and each further piece fills those digit columns with two constants
    each and writes the same buffer again.
    """
    p = len(tails)
    piece = 10 ** _PIECE_DIGITS
    buf = _run_piece(first, piece // p, tails)
    fh.write(buf)
    table = np.frombuffer(buf, dtype=np.uint8).reshape(piece // p, -1)
    digits = len(str(first))
    carry = -first % piece  # index of the carry line
    columns = []  # per line of a period: (first step column, periods before the carry line)
    at = _STEP_AT
    for i, tail in enumerate(tails):
        columns.append((at, (carry - i + p - 1) // p))
        at += _STEP_AT + digits + len(tail)
    for j in range(1, pieces):
        before = str(first // piece + j).encode()
        after = str((first + carry) // piece + j).encode()
        for col in range(digits - _PIECE_DIGITS):
            for at, split in columns:
                table[:split, at + col] = before[col]
                table[split:, at + col] = after[col]
        fh.write(buf)


def _run_piece(first: int, periods: int, tails: list[str]) -> bytearray:
    """The lines of ``periods`` periods from step ``first``; with more than
    one period, all with as many step digits as ``first``.

    The lines of the first period are repeated, and only the trailing step
    digits that change within the piece are rewritten.
    """
    p = len(tails)
    lines = [f'{{"step": {first + i}{tail}'.encode() for i, tail in enumerate(tails)]
    group = b"".join(lines)
    buf = bytearray(group) * periods
    table = np.frombuffer(buf, dtype=np.uint8).reshape(periods, len(group))
    at = _STEP_AT + len(str(first)) - 1  # offset of the line's last step digit
    for i, line in enumerate(lines):
        steps = np.arange(first + i, first + i + p * periods, p)
        lo, hi, digit = first + i, first + i + p * (periods - 1), at
        while lo != hi:  # the digits left of ``digit`` are the same on every line
            table[:, digit] = steps % 10 + ord("0")
            steps //= 10
            lo, hi, digit = lo // 10, hi // 10, digit - 1
        at += len(line)
    return buf
