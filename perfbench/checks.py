"""Correctness checks applied to every config the benchmark runs.

The budget audit restates the paper's budget max{c-1, floor(alpha*m)} in exact
rational arithmetic instead of reusing the program's float formula, so it can
see the rounding defect the program's own validator shares.
"""

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from faultcast import bounds

COLUMNS = ("step", "k", "h", "b", "m_sent", "m_lost", "acks", "M")


@dataclass
class ConfigResult:
    """One config's verdict: the CSV row fields, the fingerprint, and what failed."""

    label: str
    row: dict
    fingerprint: str = ""
    sent: int = 0
    lost: int = 0
    short: int = 0
    problems: list = field(default_factory=list)

    def line(self, workload: str, tag: str) -> str:
        line = " ".join([f"config {workload} {tag} {self.label}"]
                        + [f"{k}={v}" for k, v in self.row.items()])
        if self.fingerprint:
            line += f" sent={self.sent} lost={self.lost} short={self.short} fp={self.fingerprint}"
        return line


def exact_budget(alpha: float, m, c: int = 1):
    """max{c-1, floor(alpha*m)} with alpha read as the exact decimal it was written as."""
    a = Fraction(str(alpha))
    return np.maximum(c - 1, np.asarray(m, dtype=np.int64) * a.numerator // a.denominator)


def audit_budget(trace, alpha: float, exhaustive: bool) -> tuple[int, int]:
    """(over-budget rows, budget-short rows) over every recorded row.

    A row is short when an exhaustive adversary destroyed fewer than
    min(m, exact budget) messages, which only the engine's float rounding
    can cause.
    """
    sent = trace.column("m_sent")
    lost = trace.column("m_lost")
    budget = exact_budget(alpha, sent, trace.topo.edge_connectivity)
    over = int(np.count_nonzero(lost > budget))
    short = int(np.count_nonzero(lost < np.minimum(sent, budget))) if exhaustive else 0
    return over, short


def fingerprint(trace) -> str:
    """sha256 over the trace columns, segments and summary."""
    h = hashlib.sha256()
    for name in COLUMNS:
        h.update(np.ascontiguousarray(trace.column(name), dtype="<i8").tobytes())
    if getattr(trace, "track_boundary", False):
        h.update(np.ascontiguousarray(trace.boundary_column(), dtype="<i8").tobytes())
    segments = [(s.kind, s.start, s.meta) for s in trace.segments]
    h.update(json.dumps(segments, sort_keys=True, default=str).encode())
    h.update(json.dumps(trace.summary, sort_keys=True, default=str).encode())
    return h.hexdigest()


def trace_row(trace, violations: int) -> dict:
    return {"steps": trace.total_steps, "first_complete": trace.first_complete_step(),
            "final_k": trace.final_k, "final_h": trace.final_h, "violations": violations}


def schedule_steps(protocol: str, topo, alpha: float, eps: float, declared: int) -> int:
    """Schedule length from the paper's closed forms; the driver's own count otherwise."""
    if protocol == "almost-kn":
        return 2 + 2 * bounds.rounds_kn(topo.n, alpha)
    if protocol == "hypercube":
        t1, t2 = bounds.rounds_hypercube(topo.d, alpha, eps)
        return 2 + 2 * (t1 + t2)
    if protocol == "nosod-complete":
        l1, l2, l3, l4 = bounds.l_params(topo.n, alpha, eps)
        return 2 + 2 * bounds.rounds_kn(topo.n, alpha) + l1 * (l2 * l3 + 2 * l4)
    return declared


def final_bound_problems(protocol: str, topo, alpha: float, eps: float, k: int, h: int) -> list:
    """Theorem-level final-state guarantees, asserted only above n_min / d_min."""
    x = bounds.constants(alpha).x
    if protocol == "almost-kn" and topo.n >= bounds.n_min(alpha, eps):
        limits = (("final_k", k, x * eps), ("final_h", h, x * (topo.n - 2)))
    elif protocol == "hypercube" and topo.d >= bounds.d_min(alpha, eps):
        limits = (("final_k", k, x / (1.0 - eps)), ("final_h", h, x * (topo.d - 1)))
    elif protocol in ("sod-complete", "nosod-complete"):
        limits = (("final_k", k, 0),)
    else:
        limits = ()
    return [f"{name} {value} > {limit:.3f}" for name, value, limit in limits
            if value > limit + 1e-9]


def check_trace(label: str, trace, protocol: str, alpha: float, eps: float,
                declared_steps: int, exhaustive: bool, errors: int) -> ConfigResult:
    """Every per-config check that reads one finished trace."""
    topo = trace.topo
    result = ConfigResult(label, trace_row(trace, errors), fingerprint(trace),
                          sent=int(trace.column("m_sent").sum()),
                          lost=int(trace.column("m_lost").sum()))
    over, result.short = audit_budget(trace, alpha, exhaustive)
    if errors:
        result.problems.append(f"{errors} validator errors")
    if over:
        result.problems.append(f"{over} over-budget steps")
    expected = schedule_steps(protocol, topo, alpha, eps, declared_steps)
    if trace.total_steps != expected:
        result.problems.append(f"schedule length {trace.total_steps} != {expected}")
    result.problems += final_bound_problems(protocol, topo, alpha, eps,
                                            trace.final_k, trace.final_h)
    return result


def useful_changes(trace) -> int:
    """State changes over the run: vertices informed plus arcs made passive."""
    if not len(trace):
        return 0
    return (trace.topo.n - 1 - trace.final_k) + int(trace.column("b")[-1])
