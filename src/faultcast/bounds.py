"""Closed-form constants and schedule lengths shared by protocols and checks,
the almost-complete limits the theorems leave (``almost_complete_limits``),
and the analysed domain every other module asks about: ``check_eps``,
``default_eps`` and ``asserted``.

All schedule lengths are rounded outward (ceil), so schedules can only be
longer than the analysis requires, never shorter.  Round budgets use exact
logarithm ratios rather than simplified inequalities.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import InvalidParameterError, UnsupportedAlphaError
from .topology import COMPLETE, HYPERCUBE, Topology


@dataclass(frozen=True)
class CoreConstants:
    alpha: float
    x: float  # 1 / (alpha (1 - alpha))
    beta: float  # (1 - alpha)^2
    c: float  # min{beta/4, (1-alpha)^3 / 2}, per-round measure contraction
    y: float  # 1 - alpha - 2 alpha^2 + alpha^3


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must be in (0, 1), got {alpha}")


def constants(alpha: float) -> CoreConstants:
    """The constants of alpha; an alpha in (0, 1) whose X overflows a float,
    below about 5.6e-309, raises InvalidParameterError."""
    _check_alpha(alpha)
    x = 1.0 / (alpha * (1.0 - alpha))
    if not math.isfinite(x):
        raise InvalidParameterError(f"alpha={alpha} gives X = 1/(alpha(1-alpha)) beyond the "
                                    "float range")
    beta = (1.0 - alpha) ** 2
    c = min(beta / 4.0, (1.0 - alpha) ** 3 / 2.0)
    y = 1.0 - alpha - 2.0 * alpha**2 + alpha**3
    return CoreConstants(alpha=alpha, x=x, beta=beta, c=c, y=y)


@contextmanager
def _float_range(name: str, size: int):
    """Raise InvalidParameterError where a closed form overflows a float at n or d = size."""
    try:
        yield
    except OverflowError as exc:
        shown = size if size < 2**32 else f"2^{math.log2(size):.0f}"
        raise InvalidParameterError(f"{name} = {shown} is beyond the float range") from exc


def _finite(name: str, value: float, alpha: float, eps: float) -> float:
    """``value``, or InvalidParameterError where it overflowed a float."""
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} is beyond the float range at alpha={alpha}, "
                                    f"eps={eps}")
    return value


def default_eps(kind: str) -> float:
    """The eps a run on topology ``kind`` takes when none is given."""
    return 2.0 if kind == COMPLETE else 0.5


def check_eps(kind: str, eps: float) -> None:
    """Raise unless eps lies in the domain of the bounds on topology ``kind``:
    (1, inf) for X*eps on K_n, (0, 1) for X/(1-eps) on Q_d."""
    if kind == COMPLETE and not 1.0 < eps < math.inf:
        raise InvalidParameterError(f"complete-graph eps must be in (1, inf), got {eps}")
    if kind == HYPERCUBE and not 0.0 < eps < 1.0:
        raise InvalidParameterError(f"hypercube eps must be in (0, 1), got {eps}")


def rounds_kn(n: int, alpha: float) -> int:
    """Simple-round count for the complete-graph almost-complete broadcast.

    ceil(log_{1/(1-c)} M1) with the a-priori measure bound M1 = 3n(n-1)
    (k <= n and h <= n(n-1) at the start).
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    c = constants(alpha).c
    with _float_range("n", n):
        m1 = 3.0 * n * (n - 1)
        return math.ceil(math.log(m1) / -math.log1p(-c))


def rounds_hypercube(d: int, alpha: float, eps: float | None = None) -> tuple[int, int]:
    """(T1, T2) simple-round counts for the two hypercube phases.

    T1 bounds the rounds needed to pass 2^d/3 informed vertices via passive-arc
    growth; T2 bounds the measure-contraction tail.  The contraction ratio is
    rho = 1 + beta*lg(2/3)/d < 1, and T2 is a log base 1/rho; if rho were not
    in (0, 1) the exhaustive fallback d*2^d is used.
    """
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    if eps is not None:
        check_eps(HYPERCUBE, eps)
    cc = constants(alpha)
    with _float_range("d", d):
        t1 = math.ceil(math.log2(d * 2**d / 3.0) * d / (cc.beta * math.log2(3.0)))
        rho = 1.0 + cc.beta * math.log2(2.0 / 3.0) / d
        if not 0.0 < rho < 1.0:
            t2 = d * 2**d
        else:
            t2 = math.ceil(math.log2(7.0 / 3.0 * d * 2**d) / math.log2(1.0 / rho))
    return t1, t2


def l_params(n: int, alpha: float, eps: float) -> tuple[int, int, int, int]:
    """(L1, L2, L3, L4) loop lengths for the no-sense-of-direction algorithm."""
    cc = constants(alpha)
    if cc.y <= 0.0:
        raise UnsupportedAlphaError(
            f"alpha={alpha} gives 1-alpha-2alpha^2+alpha^3 = {cc.y:.6g} <= 0"
        )
    if n < 3:
        raise InvalidParameterError(f"n must be >= 3, got {n}")
    l1 = math.ceil(_finite("L1 = X*eps", cc.x * eps, alpha, eps))
    with _float_range("n", n):
        l2 = math.ceil(math.log(cc.x * (n - 2)) / -math.log1p(-cc.y / 2.0))
    l3 = math.ceil(2.0 / cc.y) + 1
    l4 = rounds_kn(n, alpha)
    return l1, l2, l3, l4


def candidate_params(n: int, alpha: float, eps: float) -> tuple[int, int]:
    """(threshold, cap) of the sense-of-direction phase 2: a vertex with at
    most threshold = floor(3X(1+eps)) unmarked out-arcs reports them, and the
    candidate sets' size bound, 3X(1+eps), is capped by the graph size."""
    threshold = math.floor(_finite("3X(1+eps)", 3.0 * constants(alpha).x * (1.0 + eps),
                                   alpha, eps))
    return threshold, min(threshold, n - 1)


def f_root(n: int, alpha: float) -> float:
    """Smaller root (n - sqrt(n^2 - 4X(n-2))) / 2 of k^2 - nk + X(n-2) = 0."""
    x = constants(alpha).x
    disc = n * n - 4.0 * x * (n - 2)
    if disc < 0.0:
        raise InvalidParameterError(f"f(n) not real for n={n}, alpha={alpha}")
    return (n - math.sqrt(disc)) / 2.0


def kn_inequalities_hold(n: int, alpha: float, eps: float) -> bool:
    """The three proof inequalities behind the complete-graph round analysis."""
    x = constants(alpha).x
    if n * n < 4.0 * x * (n - 2):
        return False
    if not x * eps > f_root(n, alpha):
        return False
    a2 = alpha * (1.0 - alpha) ** 2
    return n >= (eps + a2) / a2


def n_min(alpha: float, eps: float) -> int:
    """Smallest n for which the complete-graph bound analysis applies.

    The scan for it starts just below the closed-form answer.  Every n below
    ceil((eps + a2)/a2), a2 = alpha(1-alpha)^2, fails the third inequality of
    ``kn_inequalities_hold``, in its own float expression.  In exact
    arithmetic every n >= 3 below r = 2X + 2 sqrt(X^2 - 2X) fails the first,
    and where 2X*eps < r, every n in [2X*eps, (X*eps^2 - 2)/(eps - 1)] fails
    the second.  Float rounding moves those two boundaries by far less than
    2%, so the scan starts at the third bound or 98% of the others, whichever
    is larger, and steps at most about 2% of n.  A start past the 10^7 cap
    raises at once.
    """
    check_eps(COMPLETE, eps)
    x = constants(alpha).x
    a2 = alpha * (1.0 - alpha) ** 2
    start = (eps + a2) / a2  # inf past the float range
    if start <= 10**7:  # then x < start and eps < start * a2 are small below
        r = 2.0 * x + 2.0 * math.sqrt(x * x - 2.0 * x)
        start = max(math.ceil(start), math.floor(0.98 * r))
        if 2.0 * x * eps < 0.96 * r:
            start = max(start, math.floor(0.98 * (x * eps * eps - 2.0) / (eps - 1.0)))
    n = start
    while n <= 10**7:
        if kn_inequalities_hold(n, alpha, eps):
            return n
        n += 1
    raise InvalidParameterError(f"no reasonable n_min for alpha={alpha}, eps={eps}")


def qd_inequalities_hold(d: int, alpha: float, eps: float) -> bool:
    """Case analysis behind the hypercube per-round delivery bound.

    Needs 0.6*2^(eps*d) >= X(d-1) (mid-range set sizes) and
    f(L) >= X(d-1) with L the guaranteed post-init informed count,
    L within the increasing range of f(x) = x(d - lg x).  From 2^1024 on,
    past the float range, a power of 2 is compared by its logarithm, and
    2^d / e exceeds every float.
    """
    cc = constants(alpha)
    if not (0.6 * 2 ** (eps * d) >= cc.x * (d - 1) if eps * d < 1024
            else math.log2(0.6) + eps * d >= math.log2(cc.x * (d - 1))):
        return False
    low = (1.0 - alpha) / 2.0 * (2 * d - 1)
    if low < 1.0 or (d < 1024 and low > 2**d / math.e):
        return False
    return low * (d - math.log2(low)) >= cc.x * (d - 1)


def d_min(alpha: float, eps: float) -> int:
    """Smallest d for which the hypercube bound analysis applies."""
    check_eps(HYPERCUBE, eps)
    d = 2
    while not qd_inequalities_hold(d, alpha, eps):
        d += 1
        if d > 10**4:
            raise InvalidParameterError(f"no reasonable d_min for alpha={alpha}, eps={eps}")
    return d


def asserted(topo: Topology, alpha: float, eps: float) -> bool:
    """Whether the paper's bounds hold for a run on ``topo``: n >= n_min on
    K_n, d >= d_min on Q_d.  An eps outside the domain raises (``check_eps``)."""
    if topo.kind == COMPLETE:
        return topo.n >= n_min(alpha, eps)
    return topo.d >= d_min(alpha, eps)


def almost_complete_limits(topo: Topology, alpha: float, eps: float) -> tuple[float, float]:
    """(k limit, h limit) an almost-complete broadcast leaves: (X*eps, X(n-2))
    on K_n (Theorem 2) and (X/(1-eps), X(d-1)) on Q_d (Theorem 3)."""
    x = constants(alpha).x
    if topo.kind == COMPLETE:
        return x * eps, x * (topo.n - 2)
    return x / (1.0 - eps), x * (topo.d - 1)


def bound_set(alpha: float, eps: float | None = None, n: int | None = None,
              d: int | None = None) -> dict:
    """Everything `sim bounds` prints: the constants, and the schedule lengths
    of K_n given n or of Q_d given d, for an eps in that topology's domain;
    eps defaults to its ``default_eps``.  Values that do not apply are None."""
    cc = constants(alpha)
    kind = HYPERCUBE if d is not None else COMPLETE
    eps = default_eps(kind) if eps is None else eps
    check_eps(kind, eps)
    out = dict(alpha=alpha, eps=eps, x=cc.x, beta=cc.beta, c=cc.c, y=cc.y, n=n, d=d,
               r_kn=None, t1=None, t2=None, l1=None, l2=None, l3=None, l4=None,
               n_min=None, d_min=None)
    if n is not None:
        out["r_kn"] = rounds_kn(n, alpha)
        out["n_min"] = n_min(alpha, eps)
        if cc.y > 0.0 and n >= 3:
            out["l1"], out["l2"], out["l3"], out["l4"] = l_params(n, alpha, eps)
    if d is not None:
        out["t1"], out["t2"] = rounds_hypercube(d, alpha)
        out["d_min"] = d_min(alpha, eps)
    return out
