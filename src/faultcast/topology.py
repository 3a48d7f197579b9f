"""Network topologies: complete graphs and hypercubes.

Vertices are integers 0..n-1; a hypercube vertex is the value of its d-bit
string.  Every undirected edge is stored as two opposite arcs.  Arc ids are
canonical (source-major); per-vertex port order is a separate, optionally
seeded permutation so that protocols without sense of direction cannot exploit
id structure through port numbering.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnsupportedTopologyError

COMPLETE = "complete"
HYPERCUBE = "hypercube"


@dataclass(frozen=True)
class ChordalLabeling:
    """Arc labels by clockwise distance along the canonical Hamiltonian cycle 0,1,...,n-1.

    The label of arc u->v is (v-u) mod n; with the initiator at vertex 0,
    vertex ids coincide with distances from the initiator, so every vertex can
    resolve the destination id of any of its ports.
    """

    n: int

    def arc_label(self, u: int, v: int) -> int:
        if u == v:
            raise InvalidParameterError("no self-loop arcs")
        return (v - u) % self.n

    def dest(self, u: int, label: int) -> int:
        if not 1 <= label <= self.n - 1:
            raise InvalidParameterError(f"label {label} outside 1..{self.n - 1}")
        return (u + label) % self.n

    def labels_at(self, u: int):
        return [(v - u) % self.n for v in range(self.n) if v != u]


@dataclass(frozen=True)
class Topology:
    kind: str
    n: int
    d: int | None
    arc_src: np.ndarray  # int32[A]
    arc_dst: np.ndarray  # int32[A]
    opp: np.ndarray  # int32[A], index of the opposite arc
    out_arcs: np.ndarray  # int32[A], arc ids grouped by source in port order
    out_start: np.ndarray  # int32[n+1]
    edge_connectivity: int
    degree: int
    labeling: ChordalLabeling | None = None
    port_seed: int | None = None

    @property
    def num_arcs(self) -> int:
        return int(self.arc_src.shape[0])

    def out_slice(self, v: int) -> np.ndarray:
        """Out-arc ids of v in port order (port p -> out_slice(v)[p])."""
        return self.out_arcs[self.out_start[v]:self.out_start[v + 1]]

    def out_arcs_of(self, vertices: np.ndarray) -> np.ndarray:
        """Every out-arc of the given vertices, ascending for ascending vertices.

        Both topologies are regular with source-major arc ids, so the out-arcs
        of v are the ids v*degree ... v*degree + degree - 1.
        """
        first = np.asarray(vertices, dtype=np.int64) * self.degree
        return (first[:, None] + np.arange(self.degree)).ravel()

    def arc_id(self, u: int, v: int) -> int:
        if self.kind == COMPLETE:
            if u == v or not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidParameterError(f"no arc {u}->{v}")
            return u * (self.n - 1) + (v if v < u else v - 1)
        dim = (u ^ v).bit_length() - 1
        if u ^ v != 1 << dim or not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidParameterError(f"no arc {u}->{v}")
        return u * self.d + dim


def build_complete(n: int, port_seed: int | None = 0, chordal: bool = False) -> Topology:
    """K_n with n(n-1) arcs and edge connectivity n-1.

    Without ``chordal``, each vertex's port order is an independent seeded
    permutation of its out-arcs.  With ``chordal``, port p of vertex u leads to
    (u+p+1) mod n, i.e. ports are ordered by chordal label, and the labeling is
    attached.
    """
    if n < 2:
        raise InvalidParameterError(f"complete graph needs n >= 2, got {n}")
    src = np.repeat(np.arange(n, dtype=np.int32), n - 1)
    dst = np.empty(n * (n - 1), dtype=np.int32)
    for u in range(n):
        row = np.concatenate([np.arange(u, dtype=np.int32), np.arange(u + 1, n, dtype=np.int32)])
        dst[u * (n - 1):(u + 1) * (n - 1)] = row
    # arc_id(u, v) = u*(n-1) + (v if v < u else v-1); opposite swaps u and v
    opp = (dst.astype(np.int64) * (n - 1) + np.where(src < dst, src, src - 1)).astype(np.int32)

    out_start = np.arange(0, n * (n - 1) + 1, n - 1, dtype=np.int32)
    if chordal:
        out_arcs = np.empty(n * (n - 1), dtype=np.int32)
        for u in range(n):
            dests = (u + 1 + np.arange(n - 1)) % n
            out_arcs[u * (n - 1):(u + 1) * (n - 1)] = u * (n - 1) + np.where(dests < u, dests, dests - 1)
        labeling = ChordalLabeling(n)
        port_seed = None
    else:
        out_arcs = np.arange(n * (n - 1), dtype=np.int32)
        if port_seed is not None:
            rng = np.random.default_rng(port_seed)
            for u in range(n):
                block = out_arcs[u * (n - 1):(u + 1) * (n - 1)]
                rng.shuffle(block)
        labeling = None
    return Topology(
        kind=COMPLETE, n=n, d=None, arc_src=src, arc_dst=dst, opp=opp,
        out_arcs=out_arcs, out_start=out_start, edge_connectivity=n - 1,
        degree=n - 1, labeling=labeling, port_seed=port_seed,
    )


def build_hypercube(d: int) -> Topology:
    """Q_d: 2^d vertices labelled by bit strings, arcs between Hamming neighbours."""
    if d < 1:
        raise InvalidParameterError(f"hypercube needs d >= 1, got {d}")
    n = 1 << d
    src = np.repeat(np.arange(n, dtype=np.int32), d)
    dims = np.tile(np.arange(d, dtype=np.int32), n)
    dst = src ^ (np.int32(1) << dims)
    opp = (dst.astype(np.int64) * d + dims).astype(np.int32)
    out_arcs = np.arange(n * d, dtype=np.int32)  # port p = dimension p
    out_start = np.arange(0, n * d + 1, d, dtype=np.int32)
    return Topology(
        kind=HYPERCUBE, n=n, d=d, arc_src=src, arc_dst=dst, opp=opp,
        out_arcs=out_arcs, out_start=out_start, edge_connectivity=d, degree=d,
    )


def chordal_labels(topo: Topology) -> ChordalLabeling:
    """Chordal sense-of-direction labeling for a complete topology."""
    if topo.kind != COMPLETE:
        raise UnsupportedTopologyError("chordal labeling is defined on complete graphs only")
    return ChordalLabeling(topo.n)


def edge_boundary(topo: Topology, s) -> int:
    """Number of undirected edges with exactly one endpoint in s."""
    member = np.zeros(topo.n, dtype=bool)
    idx = np.asarray(list(s) if not isinstance(s, np.ndarray) else s)
    if idx.dtype == bool:
        member = idx
    elif idx.size:
        if idx.min() < 0 or idx.max() >= topo.n:
            raise InvalidParameterError("vertex set contains ids outside the topology")
        member[idx] = True
    return int(np.count_nonzero(member[topo.arc_src] & ~member[topo.arc_dst]))


def iso_lower_bound(k: int, d: int) -> float:
    """Isoperimetric lower bound k*(d - lg k) on the hypercube edge boundary.

    Comparison baseline only; never a substitute for the exact boundary.
    """
    if not 1 <= k <= (1 << d):
        raise InvalidParameterError(f"k={k} outside 1..2^{d}")
    return k * (d - np.log2(k))
