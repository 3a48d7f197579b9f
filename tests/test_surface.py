"""The public surface in-process: every call returns or raises a SimError
within a fixed time, over alphas and eps at and past the float range.

The sizes stay small, so no call builds a large graph or starts a long run;
the search gets n <= 3 and a horizon of at most 50 steps.  Each test also
runs one explicit example of an input that once raised an untyped error or
ran for tens of seconds.
"""

import math

from hypothesis import example, given, settings, strategies as st

from faultcast import bounds
from faultcast.adversary import make_adversary
from faultcast.errors import SimError
from faultcast.harness import ExperimentConfig
from faultcast.protocols import PROTOCOLS
from faultcast.search import worst_case_search
from faultcast.topology import COMPLETE, HYPERCUBE, build_complete

ALPHAS = st.one_of(st.sampled_from([1e-309, 5e-324, 1 - 1e-16, 1e-6, 1e-5, 0.0, 1.0, math.nan,
                                    0.5]),
                   st.floats(-0.5, 1.5))
EPS = st.one_of(st.sampled_from([0.0, 1.0, math.nextafter(1.0, 2.0), 1.000001, math.nan,
                                 math.inf, 1e6, 1e308, 0.5, 2.0]),
                st.floats())
PROTOCOL_IDS = st.sampled_from([*PROTOCOLS, "no-such-protocol"])
SPECS = st.one_of(st.sampled_from(["random", "victim_guard", "ack_suppressor", "random:-1",
                                   "victim_guard:3", "victim_guard:99", "random:x", "bogus"]),
                  st.text(max_size=12))
# A call may take a few seconds on a slow host; the deadline bounds each one.
SURFACE = settings(deadline=5000, max_examples=60)


def _returns_or_raises_sim_error(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except SimError:
        pass


@SURFACE
@given(topology=st.sampled_from([COMPLETE, HYPERCUBE, "ring"]),
       size=st.lists(st.integers(-2, 40), max_size=3), alpha=st.lists(ALPHAS, max_size=3),
       eps=st.one_of(st.none(), EPS), protocol=st.one_of(st.none(), PROTOCOL_IDS),
       adversary=st.lists(SPECS, max_size=3), seeds=st.integers(-1, 3),
       horizon=st.one_of(st.none(), st.integers(-1, 100)))
@example(COMPLETE, [8], [1e-309], None, "nosod-complete", ["random"], 1, None)
def test_config_check(topology, size, alpha, eps, protocol, adversary, seeds, horizon):
    config = ExperimentConfig(topology=topology, size=size, alpha=alpha, eps=eps,
                              protocol=protocol, adversary=adversary, seeds=seeds,
                              horizon=horizon)
    _returns_or_raises_sim_error(config.check)


@SURFACE
@given(alpha=ALPHAS, eps=st.one_of(st.none(), EPS),
       n=st.one_of(st.none(), st.integers(-2, 64)), d=st.one_of(st.none(), st.integers(-1, 30)))
@example(0.5, 1e308, 8, None)
def test_bound_set(alpha, eps, n, d):
    _returns_or_raises_sim_error(bounds.bound_set, alpha, eps, n=n, d=d)


@SURFACE
@given(n=st.integers(-1, 3), protocol=PROTOCOL_IDS, alpha=ALPHAS,
       horizon=st.integers(-1, 50), eps=st.one_of(st.none(), EPS))
@example(3, "nosod-complete", 1e-5, 3, None)
def test_worst_case_search(n, protocol, alpha, horizon, eps):
    _returns_or_raises_sim_error(worst_case_search, n, protocol, alpha, horizon=horizon, eps=eps)


@SURFACE
@given(spec=SPECS, n=st.one_of(st.none(), st.integers(2, 8)), seed=st.integers(-1, 3))
@example("random", None, -1)
def test_make_adversary(spec, n, seed):
    topo = None if n is None else build_complete(n)
    _returns_or_raises_sim_error(make_adversary, spec, topo=topo, seed=seed)
