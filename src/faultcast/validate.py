"""Trace validation: budget soundness, per-round inequalities, final bounds.

Each check walks a recorded trace and returns Violation records instead of
raising, so the harness can aggregate and strict mode can decide the exit
code.  The per-round and final checks of an analysis are errors only where
it applies: the trace's protocol claims a theorem (``protocols.PROTOCOLS``)
and the run is at or above n_min/d_min (``bounds.asserted``).  Elsewhere they
are informational (level "info"); everything else is "error".
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds
from .engine import Trace
from .errors import InvalidParameterError
from .protocols import ALMOST_COMPLETE, PROTOCOLS
from .topology import COMPLETE, HYPERCUBE

_TOL = 1e-9

ERROR = "error"
INFO = "info"


@dataclass
class Violation:
    check: str
    where: int  # record index (or segment start) in the trace
    message: str
    level: str = ERROR

    def __str__(self):
        return f"[{self.level}] {self.check} @ record {self.where}: {self.message}"


def _claim(trace: Trace):
    """The final claim of the trace's protocol (``protocols.PROTOCOLS``), None
    for a trace without a protocol id."""
    entry = PROTOCOLS.get(trace.summary.get("protocol"))
    return None if entry is None else entry.claim


def _level(trace: Trace, alpha: float, eps: float) -> str:
    """ERROR where the trace's protocol claims a theorem and the run is at or
    above n_min or d_min, else INFO."""
    asserted = _claim(trace) is not None and bounds.asserted(trace.topo, alpha, eps)
    return ERROR if asserted else INFO


def check_budget(trace: Trace, alpha: float) -> list[Violation]:
    """m_lost <= max{c-1, floor(alpha*m_sent)} on every recorded step.

    alpha is read as the exact decimal it is written as; the floor is taken
    in integers, in Python ints where int64 products could overflow.  A run
    repeats its template rows' traffic, so an over-budget row of a run fires
    on each of its steps.
    """
    c = trace.topo.edge_connectivity
    cols, starts, repeats, period = trace.stored()
    m_sent, m_lost = cols["m_sent"], cols["m_lost"]
    ratio = Fraction(str(alpha))
    if ratio.numerator * int(m_sent.max(initial=0)) > np.iinfo(np.int64).max:
        m_sent = m_sent.astype(object)
    budget = np.maximum(c - 1, m_sent * ratio.numerator // ratio.denominator)
    out = []
    for r in np.flatnonzero(m_lost > budget):
        message = f"lost {m_lost[r]} of {m_sent[r]} sent, budget {budget[r]}"
        out += [Violation("budget", i, message)
                for i in range(starts[r], starts[r] + repeats[r] * period[r], period[r])]
    return sorted(out, key=lambda v: v.where)


def check_monotone(trace: Trace) -> list[Violation]:
    """k never increases, passive count never decreases.

    A block's rows share one state, so only consecutive stored rows can
    differ; the change shows at the first record of the later row.
    """
    out = []
    cols, starts, _, _ = trace.stored()
    k, b = cols["k"], cols["b"]
    for r in np.flatnonzero(np.diff(k) > 0):
        out.append(Violation("monotone_k", int(starts[r + 1]), f"k rose {k[r]} -> {k[r + 1]}"))
    for r in np.flatnonzero(np.diff(b) < 0):
        out.append(Violation("monotone_b", int(starts[r + 1]), f"b fell {b[r]} -> {b[r + 1]}"))
    return out


def _stored_columns(trace: Trace):
    """The stored columns, and a map from record indices to their stored rows."""
    cols, starts, _, period = trace.stored()

    def row_of(records):
        # In a run, step back from its last template row to the record's own.
        rows = np.searchsorted(starts, records, side="right") - 1
        return rows - (starts[rows] - records) % period[rows]
    return cols, row_of


def _segment_spans(trace: Trace):
    """(segment, end) pairs with end = start of the next segment or trace length."""
    segs = trace.segments
    for i, seg in enumerate(segs):
        end = segs[i + 1].start if i + 1 < len(segs) else len(trace)
        yield seg, end


def _primary_rounds(trace: Trace, row_of):
    """(b_rec, pre_row, b_row) of each full round of each primary simple-round segment.

    ``b_rec`` is the record index of the round's step B; ``pre_row`` and
    ``b_row`` are the stored rows of the pre-round record and of step B.  A
    schedule-initial round has no pre-round record and is skipped.
    """
    for seg, end in _segment_spans(trace):
        if seg.kind != "simple_rounds" or not seg.meta.get("primary"):
            continue
        step_a = np.arange(seg.start, end - 1, 2)
        step_a = step_a[step_a > 0]
        yield from zip((step_a + 1).tolist(), row_of(step_a - 1), row_of(step_a + 1))


def check_kn_rounds(trace: Trace, alpha: float, eps: float) -> list[Violation]:
    """Complete-graph per-round checks on primary simple-round segments.

    While k > X*eps or h > X(n-2) (``bounds.almost_complete_limits``): the
    round's step B must deliver at least (1-alpha)^2 (k(n-k) + h) acks, and
    the measure M = 2(n-1)k + h must contract by a factor (1-c).  Both are
    Theorem 2's guarantees, errors where ``_level`` says so.  Both bounds are
    exact rationals in alpha, so a count that meets one exactly passes: the
    full budget often does.
    """
    if trace.topo.kind != COMPLETE:
        return []
    n = trace.topo.n
    k_limit, h_limit = bounds.almost_complete_limits(trace.topo, alpha, eps)
    q = 1 - Fraction(str(alpha))  # alpha read as check_budget reads it
    beta, shrink = q**2, 1 - min(q**2 / 4, q**3 / 2)  # (1-alpha)^2 and 1 - c
    level = _level(trace, alpha, eps)
    cols, row_of = _stored_columns(trace)
    k_col, h_col, m_col, acks_col = cols["k"], cols["h"], cols["M"], cols["acks"]
    out = []
    for b_rec, pre_row, b_row in _primary_rounds(trace, row_of):
        k, h = int(k_col[pre_row]), int(h_col[pre_row])
        if not (k > k_limit or h > h_limit):
            continue
        need_acks = beta * (k * (n - k) + h)
        if int(acks_col[b_row]) < need_acks:
            out.append(Violation("thm2_acks", b_rec,
                                 f"{acks_col[b_row]} acks < {float(need_acks):.3f} "
                                 f"(k={k}, h={h})", level))
        if int(m_col[b_row]) > shrink * int(m_col[pre_row]):
            out.append(Violation("thm2_measure", b_rec,
                                 f"M {m_col[pre_row]} -> {m_col[b_row]} exceeds "
                                 f"factor {float(shrink):.6f}", level))
    return out


def check_qd_rounds(trace: Trace, alpha: float, eps: float) -> list[Violation]:
    """Hypercube per-round checks: ack bound, passive growth, measure contraction.

    Ack bound (k > X/(1-eps) or h > X(d-1), ``bounds.almost_complete_limits``):
    step B delivers at least (1-alpha)^2 (h + boundary) acks.  Passive growth
    (k >= (2/3)2^d): passive count grows by beta*boundary per round, and
    multiplicatively by (1 + beta*lg3/d) once b >= d.  Measure contraction
    (ack-bound gate and k <= (2/3)2^d): M = 2dk + h shrinks by factor
    1 + beta*lg(2/3)/d.  lg 3 is irrational, so these bounds are computed in
    floats and met within ``_TOL``, unlike the exact K_n checks.
    """
    if trace.topo.kind != HYPERCUBE:
        return []
    d = trace.topo.d
    n = trace.topo.n
    cc = bounds.constants(alpha)
    k_limit, h_limit = bounds.almost_complete_limits(trace.topo, alpha, eps)
    level = _level(trace, alpha, eps)
    if not trace.track_boundary:
        raise InvalidParameterError("trace was not recorded with boundary tracking")
    cols, row_of = _stored_columns(trace)
    k_col, h_col, b_col, m_col = cols["k"], cols["h"], cols["b"], cols["M"]
    acks_col, bd_col = cols["acks"], cols["boundary"]
    lg3 = math.log2(3.0)
    rho = 1.0 + cc.beta * math.log2(2.0 / 3.0) / d
    out = []
    for b_rec, pre_row, b_row in _primary_rounds(trace, row_of):
        k, h = int(k_col[pre_row]), int(h_col[pre_row])
        b, bd = int(b_col[pre_row]), int(bd_col[pre_row])
        gate_ack = k > k_limit or h > h_limit
        if gate_ack:
            need = (1.0 - alpha) ** 2 * (h + bd)
            if acks_col[b_row] < need - _TOL:
                out.append(Violation("lemma4_acks", b_rec,
                                     f"{acks_col[b_row]} acks < {need:.3f} "
                                     f"(h={h}, boundary={bd})", level))
        if k >= (2.0 / 3.0) * n:
            if b_col[b_row] < b + cc.beta * bd - _TOL:
                out.append(Violation("lemma5_growth", b_rec,
                                     f"b {b} -> {b_col[b_row]} < b + beta*{bd}", level))
            if b >= d and b_col[b_row] < b * (1.0 + cc.beta * lg3 / d) - _TOL:
                out.append(Violation("lemma5_factor", b_rec,
                                     f"b {b} -> {b_col[b_row]} below factor "
                                     f"{1.0 + cc.beta * lg3 / d:.6f}", level))
        if gate_ack and k <= (2.0 / 3.0) * n:
            if m_col[b_row] > rho * m_col[pre_row] + _TOL:
                out.append(Violation("lemma6_measure", b_rec,
                                     f"M {m_col[pre_row]} -> {m_col[b_row]} exceeds "
                                     f"factor {rho:.6f}", level))
    return out


def check_nosod_iterations(trace: Trace, alpha: float, eps: float) -> list[Violation]:
    """Each executed L2-iteration informs a new vertex or shrinks h by (1-Y/2).

    The iteration starts from the state of the record before it; one at the
    trace's start has none and is skipped.  Applicable when that state has
    h' <= X(n-2) and at least one uninformed vertex; iterations skipped in a
    block of dead steps start from a frozen state with k = 0 and are not
    applicable by construction.  The shrink factor is an exact rational in
    alpha, so an h that meets it exactly passes.
    """
    if trace.topo.kind != COMPLETE:
        return []
    if bounds.constants(alpha).y <= 0.0:
        return []
    r = Fraction(str(alpha))  # alpha read as check_budget reads it
    shrink = 1 - (1 - r - 2 * r**2 + r**3) / 2  # 1 - Y/2
    _, h_limit = bounds.almost_complete_limits(trace.topo, alpha, eps)
    level = _level(trace, alpha, eps)
    cols, row_of = _stored_columns(trace)
    k_col, h_col = cols["k"], cols["h"]
    out = []
    for seg, end in _segment_spans(trace):
        if seg.kind != "nosod_iter":
            continue
        last = seg.start + seg.meta["steps"] - 1
        if seg.start < 1 or last >= end:
            continue
        pre, row = row_of(np.array([seg.start - 1, last]))
        k0, h0 = int(k_col[pre]), int(h_col[pre])
        if k0 < 1 or h0 > h_limit:
            continue
        informed_new = k_col[row] < k0
        shrunk = int(h_col[row]) <= shrink * h0
        if not (informed_new or shrunk):
            out.append(Violation("nosod_iteration", seg.start,
                                 f"iteration (l1={seg.meta['l1']}, l2={seg.meta['l2']}) "
                                 f"kept k={k0} and h {h0} -> {h_col[row]}", level))
    return out


def check_phase2_quorum(trace: Trace, alpha: float, eps: float) -> list[Violation]:
    """At least 2n/3 vertices qualify as candidate senders in every phase 2."""
    if trace.topo.kind != COMPLETE:
        return []
    n = trace.topo.n
    size_level = _level(trace, alpha, eps)
    out = []
    for seg in trace.segments:
        if seg.kind != "sod_phase2":
            continue
        # With a threshold of n-1 or more every vertex qualifies, at any size.
        level = ERROR if seg.meta["threshold"] >= n - 1 else size_level
        if seg.meta["qualifying"] < 2.0 * n / 3.0:
            out.append(Violation("phase2_quorum", seg.start,
                                 f"only {seg.meta['qualifying']} of {n} vertices "
                                 f"under threshold {seg.meta['threshold']}", level))
    return out


def check_final_bounds(trace: Trace, alpha: float, eps: float) -> list[Violation]:
    """The final state the trace's protocol claims: the topology's
    almost-complete limits, at the level ``_level`` gives, or a final k at
    every size, always an error."""
    claim = _claim(trace)
    if claim is None:
        return []
    if claim == ALMOST_COMPLETE:
        level = _level(trace, alpha, eps)
        limits = zip(("final_k", "final_h"), (trace.final_k, trace.final_h),
                     bounds.almost_complete_limits(trace.topo, alpha, eps))
    else:
        level, limits = ERROR, [("final_k", trace.final_k, claim)]
    return [Violation(name, len(trace) - 1, f"final {value} > {limit:.3f}", level)
            for name, value, limit in limits if value > limit + _TOL]


def validate_trace(trace: Trace, alpha: float | None = None,
                   eps: float | None = None) -> list[Violation]:
    """Run every applicable check; alpha/eps default to the trace summary.

    Without an eps in the summary, eps defaults to ``bounds.default_eps`` of
    the trace's topology; an eps outside its domain raises before any check.
    """
    alpha = trace.summary.get("alpha") if alpha is None else alpha
    if alpha is None:
        raise InvalidParameterError("validate_trace needs an alpha: none given or in the summary")
    if eps is None:
        eps = trace.summary.get("eps", bounds.default_eps(trace.topo.kind))
    bounds.check_eps(trace.topo.kind, eps)
    out = []
    out += check_budget(trace, alpha)
    out += check_monotone(trace)
    out += check_kn_rounds(trace, alpha, eps)
    out += check_qd_rounds(trace, alpha, eps)
    out += check_nosod_iterations(trace, alpha, eps)
    out += check_phase2_quorum(trace, alpha, eps)
    out += check_final_bounds(trace, alpha, eps)
    return out


def errors_only(violations: list[Violation]) -> list[Violation]:
    return [v for v in violations if v.level == ERROR]
