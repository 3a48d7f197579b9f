"""Closed-form constants and schedule lengths, checked against independent
high-precision evaluation and hand-frozen values."""

import math
import time
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, strategies as st

from faultcast import bounds
from faultcast.errors import InvalidParameterError, UnsupportedAlphaError

getcontext().prec = 50


def _hp_constants(alpha: str):
    """Independent evaluation of the core constants with 50-digit decimals."""
    a = Decimal(alpha)
    one = Decimal(1)
    x = one / (a * (one - a))
    beta = (one - a) ** 2
    c = min(beta / 4, (one - a) ** 3 / 2)
    y = one - a - 2 * a**2 + a**3
    return x, beta, c, y


@pytest.mark.parametrize("alpha", ["0.5", "0.25", "0.55", "0.3", "0.7", "0.05", "0.95"])
def test_constants_match_high_precision(alpha):
    cc = bounds.constants(float(alpha))
    x, beta, c, y = _hp_constants(alpha)
    assert math.isclose(cc.x, float(x), rel_tol=1e-12)
    assert math.isclose(cc.beta, float(beta), rel_tol=1e-12)
    assert math.isclose(cc.c, float(c), rel_tol=1e-12)
    assert math.isclose(cc.y, float(y), rel_tol=1e-12, abs_tol=1e-15)


def test_constants_at_half():
    cc = bounds.constants(0.5)
    assert cc.x == 4.0
    assert cc.beta == 0.25
    assert cc.c == 0.0625
    assert cc.y == 0.125


def test_constants_quarter_and_055():
    cc = bounds.constants(0.25)
    assert math.isclose(cc.x, 16.0 / 3.0, rel_tol=1e-12)
    assert cc.beta == 0.5625
    assert math.isclose(cc.y, 0.640625, rel_tol=1e-12)
    assert math.isclose(bounds.constants(0.55).y, 0.011375, rel_tol=1e-9)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_x_at_least_four(alpha):
    assert bounds.constants(alpha).x >= 4.0 - 1e-12
    cc = bounds.constants(alpha)
    assert 0.0 < cc.beta < 1.0
    assert 0.0 < cc.c < 1.0


def test_alpha_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InvalidParameterError):
            bounds.constants(bad)


def test_rounds_kn_frozen_values():
    # Hand evaluation: c(0.5)=1/16, M1=3*64*63=12096; ln(12096)/-ln(15/16)=145.6.
    assert bounds.rounds_kn(64, 0.5) == 146
    # n=2: M1=6, ln 6 / -ln(15/16) = 27.76 -> 28.
    assert bounds.rounds_kn(2, 0.5) == 28


def test_rounds_kn_monotone():
    for n in (2, 3, 8, 50, 200):
        assert bounds.rounds_kn(2 * n, 0.5) > bounds.rounds_kn(n, 0.5)


def test_rounds_hypercube_frozen_value():
    t1, t2 = bounds.rounds_hypercube(8, 0.5)
    # lg(8*256/3)=lg(682.67)=9.415; *8/(0.25*lg3)=190.07 -> 191.
    assert t1 == 191
    assert t2 > 0


def test_rounds_hypercube_quadratic_shape():
    for d in range(2, 17):
        t1, t2 = bounds.rounds_hypercube(d, 0.5)
        assert t1 / d**2 < 12.0
        assert t2 / d**2 < 12.0


def test_rounds_hypercube_shrink_with_beta():
    # Smaller alpha -> larger beta -> shorter schedules.
    t1a, t2a = bounds.rounds_hypercube(8, 0.1)
    t1b, t2b = bounds.rounds_hypercube(8, 0.5)
    assert t1a < t1b and t2a < t2b


def test_rounds_hypercube_rho_fallback():
    # Force rho outside (0,1): beta*lg(3/2) >= d needs tiny alpha and tiny d is
    # not enough (beta < 1), so exercise the branch arithmetic directly.
    cc = bounds.constants(0.01)
    rho = 1.0 + cc.beta * math.log2(2.0 / 3.0) / 2
    if not 0.0 < rho < 1.0:
        _, t2 = bounds.rounds_hypercube(2, 0.01)
        assert t2 == 2 * 2**2


def test_l_params_frozen():
    assert bounds.l_params(64, 0.5, 2.0) == (8, 86, 17, 146)


def test_l1_independent_of_n():
    l1a = bounds.l_params(16, 0.5, 2.0)[0]
    l1b = bounds.l_params(4096, 0.5, 2.0)[0]
    assert l1a == l1b == 8


def test_l_params_rejects_alpha_06():
    with pytest.raises(UnsupportedAlphaError):
        bounds.l_params(64, 0.6, 2.0)


def test_f_root_example():
    # n=16, alpha=0.5: sqrt(256-224)=sqrt(32); f=(16-5.657)/2.
    assert math.isclose(bounds.f_root(16, 0.5), (16 - math.sqrt(32)) / 2, rel_tol=1e-12)


@pytest.mark.parametrize("alpha,eps,expected", [(0.5, 2.0, 17), (0.3, 2.0, 17), (0.7, 2.0, 33)])
def test_n_min_frozen(alpha, eps, expected):
    assert bounds.n_min(alpha, eps) == expected


@pytest.mark.parametrize("alpha, eps, expected", [
    (0.5, 1e6, 8_000_001),  # the third inequality's bound
    (1e-6, 2.0, 4_000_003),  # the first's: 2X + 2 sqrt(X^2 - 2X)
    (0.5, 1.000001, 2_000_022),  # the second's: (X eps^2 - 2)/(eps - 1)
    (0.5, 1.25e6, None), (0.5, 1e308, None), (0.5, math.nextafter(1.0, 2.0), None),
])
def test_n_min_scan_starts_at_the_closed_form(alpha, eps, expected):
    """The scan starts just below the closed-form n_min, so a large n_min is
    found, and one past the 10^7 cap rejected, at once."""
    start = time.perf_counter()
    if expected is None:
        with pytest.raises(InvalidParameterError, match="no reasonable n_min"):
            bounds.n_min(alpha, eps)
    else:
        assert bounds.n_min(alpha, eps) == expected
        assert not bounds.kn_inequalities_hold(expected - 1, alpha, eps)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("alpha", [1e-309, 5e-324])
def test_alpha_whose_x_overflows_is_a_typed_error(alpha):
    """Below about 5.6e-309, X = 1/(alpha(1-alpha)) is not a float; every
    closed form that reads it raises InvalidParameterError, not OverflowError."""
    for call in (bounds.constants, lambda a: bounds.l_params(16, a, 2.0),
                 lambda a: bounds.candidate_params(16, a, 2.0),
                 lambda a: bounds.n_min(a, 2.0), lambda a: bounds.rounds_kn(16, a)):
        with pytest.raises(InvalidParameterError, match="beyond the float range"):
            call(alpha)


@pytest.mark.parametrize("eps", [math.inf, math.nan, 1.0])
def test_n_min_rejects_eps_outside_its_domain(eps):
    """An infinite or NaN eps fails at once, not after the search for n_min."""
    with pytest.raises(InvalidParameterError, match=r"eps must be in \(1, inf\)"):
        bounds.n_min(0.5, eps)


@pytest.mark.parametrize("alpha,eps", [(0.5, 2.0), (0.3, 2.0), (0.7, 2.0)])
def test_n_min_inequalities_hold_above(alpha, eps):
    n0 = bounds.n_min(alpha, eps)
    for n in range(n0, n0 + 101):
        assert bounds.kn_inequalities_hold(n, alpha, eps)
    assert not bounds.kn_inequalities_hold(n0 - 1, alpha, eps)


def test_d_min_values():
    assert bounds.d_min(0.5, 0.5) == 13
    assert bounds.d_min(0.3, 0.5) == 14
    d0 = bounds.d_min(0.5, 0.5)
    for d in range(d0, d0 + 20):
        assert bounds.qd_inequalities_hold(d, 0.5, 0.5)


def test_float_overflow_is_a_typed_error():
    """A round count whose float arithmetic overflows raises
    InvalidParameterError, and the largest sizes below keep their counts."""
    assert bounds.rounds_kn(2**511, 0.5) == 10994
    assert bounds.rounds_hypercube(1012, 0.5) == (2606101, 4907603)
    assert bounds.l_params(2**511, 0.5, 2.0) == (8, 5510, 17, 10994)
    for call, match in ((lambda: bounds.rounds_kn(2**512, 0.5), "n = 2\\^512 "),
                        (lambda: bounds.rounds_kn(2**1100, 0.5), "n = 2\\^1100 "),
                        (lambda: bounds.l_params(2**1100, 0.5, 2.0), "n = 2\\^1100 "),
                        (lambda: bounds.rounds_hypercube(1013, 0.5), "d = 1013 "),
                        (lambda: bounds.rounds_hypercube(2000, 0.5), "d = 2000 ")):
        with pytest.raises(InvalidParameterError, match=match + "is beyond the float range"):
            call()


def test_eps_whose_loop_lengths_overflow_is_a_typed_error():
    """L1 = ceil(X*eps) and the phase-2 threshold floor(3X(1+eps)) of an eps
    near the float range are not integers: InvalidParameterError, not
    OverflowError."""
    for call in (bounds.l_params, bounds.candidate_params):
        with pytest.raises(InvalidParameterError, match="beyond the float range"):
            call(16, 0.5, 1e308)


def test_d_min_scan_past_the_float_range():
    """From 2^1024 on the d_min scan compares powers of 2 by their logarithms:
    a small eps finds its d_min past d = 1024, and a tiny alpha ends the scan
    with its typed error."""
    assert bounds.qd_inequalities_hold(2048, 0.5, 0.5)
    assert not bounds.qd_inequalities_hold(2048, 1e-300, 0.5)
    assert bounds.d_min(0.5, 0.01) == 1310
    with pytest.raises(InvalidParameterError, match="no reasonable d_min"):
        bounds.d_min(1e-12, 0.5)


def test_bound_set_json_shape():
    d = bounds.bound_set(0.5, 2.0, n=64)
    assert list(d) == ["alpha", "eps", "x", "beta", "c", "y", "n", "d", "r_kn", "t1", "t2",
                       "l1", "l2", "l3", "l4", "n_min", "d_min"]
    assert d["r_kn"] == 146 and d["n_min"] == 17 and d["l2"] == 86
    assert d["d"] is None and d["t1"] is None and d["d_min"] is None
    d2 = bounds.bound_set(0.5, 0.5, d=8)
    assert d2["t1"] == 191 and d2["n"] is None and d2["l1"] is None


def test_bound_set_fills_kn_lengths_only_in_the_kn_eps_domain():
    # L1 = ceil(X*eps) is only defined for 1 < eps < inf; eps = -1 once gave
    # the L1 of eps = 2.  An eps outside K_n's domain is rejected with n, as
    # one outside Q_d's is with d, so n and d never go together.
    with pytest.raises(InvalidParameterError, match=r"complete-graph eps .* got -1.0"):
        bounds.bound_set(0.5, -1.0, n=64)
    with pytest.raises(InvalidParameterError, match=r"hypercube eps .* got 2.0"):
        bounds.bound_set(0.5, 2.0, d=13)
    with pytest.raises(InvalidParameterError, match=r"complete-graph eps .* got 0.5"):
        bounds.bound_set(0.5, n=64, d=13)
    assert bounds.bound_set(0.5, n=64)["l1"] == 8
    assert bounds.bound_set(0.5, d=13)["d_min"] == 13
