"""Topology construction, arc indexing, labeling, and edge boundaries."""


import numpy as np
import pytest
from hypothesis import given, strategies as st

from faultcast import topology
from faultcast.adversary import RandomAdversary
from faultcast.errors import InvalidParameterError
from faultcast.protocols import almost_complete_kn


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_complete_shape(n):
    topo = topology.build_complete(n)
    assert topo.num_arcs == n * (n - 1)
    assert topo.edge_connectivity == n - 1
    assert topo.degree == n - 1
    # opp is an involution that swaps endpoints.
    assert np.all(topo.opp[topo.opp] == np.arange(topo.num_arcs))
    assert np.all(topo.arc_src[topo.opp] == topo.arc_dst)
    assert np.all(topo.arc_dst[topo.opp] == topo.arc_src)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_hypercube_shape(d):
    topo = topology.build_hypercube(d)
    n = 1 << d
    assert topo.n == n
    assert topo.num_arcs == n * d
    assert topo.edge_connectivity == d
    assert np.all(topo.opp[topo.opp] == np.arange(topo.num_arcs))
    # Each arc flips exactly one bit.
    diff = topo.arc_src ^ topo.arc_dst
    assert np.all(diff & (diff - 1) == 0) and np.all(diff > 0)


def test_arc_id_consistency():
    for topo in (topology.build_complete(6), topology.build_hypercube(3)):
        for a in range(topo.num_arcs):
            u, v = int(topo.arc_src[a]), int(topo.arc_dst[a])
            assert topo.arc_id(u, v) == a
    kn = topology.build_complete(6)
    assert np.array_equal(topology.complete_arc_id(6, kn.arc_src, kn.arc_dst),
                          np.arange(kn.num_arcs))


def test_arc_id_rejects_non_arcs():
    kn = topology.build_complete(4)
    with pytest.raises(InvalidParameterError):
        kn.arc_id(2, 2)
    qd = topology.build_hypercube(3)
    with pytest.raises(InvalidParameterError):
        qd.arc_id(0, 3)  # Hamming distance 2


def test_out_arcs_of_covers_all_arcs():
    for topo in (topology.build_complete(5), topology.build_hypercube(3)):
        seen = np.concatenate([topo.out_arcs_of([v]) for v in range(topo.n)])
        assert sorted(seen) == list(range(topo.num_arcs))
        for v in range(topo.n):
            assert np.all(topo.arc_src[topo.out_arcs_of([v])] == v)


def test_port_seed_rejected():
    # No port order is kept, so the one keyword left for it accepts only None.
    with pytest.raises(InvalidParameterError, match="no port order is kept"):
        topology.build_complete(8, port_seed=1)
    with pytest.raises(InvalidParameterError, match="no port order is kept"):
        almost_complete_kn(8, 0.5, 2.0, RandomAdversary(0), port_seed=0)


@pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
def test_complete_arcs_match_per_vertex_loop(n):
    topo = topology.build_complete(n)
    dst = np.concatenate([np.delete(np.arange(n), u) for u in range(n)])
    assert np.array_equal(topo.arc_dst, dst)
    assert topo.arc_src.dtype == topo.arc_dst.dtype == topo.opp.dtype == np.int32


def test_chordal_labeling():
    assert topology.build_complete(7, chordal=True).labeling == topology.ChordalLabeling(7)
    assert topology.build_complete(7).labeling is None
    assert topology.build_hypercube(3).labeling is None


def test_edge_boundary_brute_force():
    topo = topology.build_hypercube(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = set(np.flatnonzero(rng.random(topo.n) < 0.5))
        brute = sum(1 for u in s for v in range(topo.n)
                    if v not in s and bin(u ^ v).count("1") == 1)
        assert topology.edge_boundary(topo, s) == brute


def test_edge_boundary_accepts_mask():
    topo = topology.build_complete(6)
    mask = np.zeros(6, dtype=bool)
    mask[:2] = True
    assert topology.edge_boundary(topo, mask) == 2 * 4


@pytest.mark.parametrize("length", [4, 7])
def test_edge_boundary_rejects_mask_of_wrong_length(length):
    # At length 7 the first five entries alone give a boundary of 4.
    topo = topology.build_complete(5)
    with pytest.raises(InvalidParameterError):
        topology.edge_boundary(topo, np.arange(length) == 0)


@pytest.mark.parametrize("s", [[0.5], [1.0, 2.0], ["1"]])
def test_edge_boundary_rejects_ids_that_are_not_integers(s):
    with pytest.raises(InvalidParameterError, match="need integers"):
        topology.edge_boundary(topology.build_complete(4), s)


def test_iso_lower_bound_subcubes_tight():
    # Subcubes achieve the isoperimetric bound k(d - lg k) exactly.
    for d in (3, 4):
        topo = topology.build_hypercube(d)
        for sub in range(d + 1):
            k = 1 << sub
            s = set(range(k))  # a sub-dimensional subcube
            assert topology.edge_boundary(topo, s) == pytest.approx(k * (d - np.log2(k)))


@given(st.integers(min_value=1, max_value=15))
def test_iso_bound_holds_on_random_sets_d4(bits):
    topo = topology.build_hypercube(4)
    rng = np.random.default_rng(bits)
    s = set(int(v) for v in rng.choice(16, size=bits, replace=False))
    k = len(s)
    assert topology.edge_boundary(topo, s) >= k * (4 - np.log2(k)) - 1e-9


def test_build_domain_errors():
    with pytest.raises(InvalidParameterError):
        topology.build_complete(1)
    with pytest.raises(InvalidParameterError):
        topology.build_hypercube(0)
