"""Network topologies: complete graphs and hypercubes.

Vertices are integers 0..n-1; a hypercube vertex is the value of its d-bit
string.  Every undirected edge is stored as two opposite arcs.  Arc ids are
canonical (source-major).  No port order is kept: every schedule sends on a
set of arcs (all out-arcs, or all unmarked ones), never on a port number, so
a run is the same under every port numbering.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

COMPLETE = "complete"
HYPERCUBE = "hypercube"


@dataclass(frozen=True)
class ChordalLabeling:
    """Arc labels by clockwise distance along the canonical Hamiltonian cycle 0,1,...,n-1.

    The label of arc u->v is (v-u) mod n; with the initiator at vertex 0,
    vertex ids coincide with distances from the initiator, so every vertex can
    resolve the destination id of any of its ports.  The schedules only ask
    whether a topology carries it.
    """

    n: int


@dataclass(frozen=True)
class Topology:
    kind: str
    n: int
    d: int | None
    arc_src: np.ndarray  # int32[A]
    arc_dst: np.ndarray  # int32[A]
    opp: np.ndarray  # int32[A], index of the opposite arc
    edge_connectivity: int
    degree: int
    labeling: ChordalLabeling | None = None

    @property
    def num_arcs(self) -> int:
        return int(self.arc_src.shape[0])

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
            return complete_arc_id(self.n, u, v)
        dim = (u ^ v).bit_length() - 1
        if u ^ v != 1 << dim or not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidParameterError(f"no arc {u}->{v}")
        return u * self.d + dim


def complete_arc_id(n: int, u, v):
    """Id of the K_n arc u->v (u != v): u*(n-1) + (v if v < u else v-1).

    Elementwise on arrays of sources and destinations that broadcast together.
    """
    return u * (n - 1) + v - (v > u)


def build_complete(n: int, port_seed: None = None, chordal: bool = False) -> Topology:
    """K_n with n(n-1) arcs and edge connectivity n-1.

    No port order is kept, as no schedule reads one; ``port_seed`` only
    accepts None.  With ``chordal``, the chordal labeling is attached.
    """
    if port_seed is not None:
        raise InvalidParameterError(f"port_seed must be None, got {port_seed}: "
                                    "no port order is kept")
    if n < 2:
        raise InvalidParameterError(f"complete graph needs n >= 2, got {n}")
    src = np.repeat(np.arange(n, dtype=np.int32), n - 1)
    # Arc u*(n-1) + j leads to j below u, and to j + 1 from u on.
    j = np.arange(n - 1, dtype=np.int32)
    dst = (j + (j >= np.arange(n, dtype=np.int32)[:, None])).ravel()
    opp = complete_arc_id(n, dst, src)
    return Topology(
        kind=COMPLETE, n=n, d=None, arc_src=src, arc_dst=dst, opp=opp,
        edge_connectivity=n - 1, degree=n - 1,
        labeling=ChordalLabeling(n) if chordal else None,
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
    return Topology(kind=HYPERCUBE, n=n, d=d, arc_src=src, arc_dst=dst, opp=opp,
                    edge_connectivity=d, degree=d)


def edge_boundary(topo: Topology, s) -> int:
    """Number of undirected edges with exactly one endpoint in s, given as
    vertex ids or as a boolean mask of length n."""
    member = np.zeros(topo.n, dtype=bool)
    idx = np.asarray(list(s) if not isinstance(s, np.ndarray) else s)
    if idx.dtype == bool:
        if idx.shape != (topo.n,):
            raise InvalidParameterError(f"vertex mask of shape {idx.shape}, need ({topo.n},)")
        member = idx
    elif idx.size:
        if not np.issubdtype(idx.dtype, np.integer):
            raise InvalidParameterError(f"vertex ids of dtype {idx.dtype}, need integers")
        if idx.min() < 0 or idx.max() >= topo.n:
            raise InvalidParameterError("vertex set contains ids outside the topology")
        member[idx] = True
    return int(np.count_nonzero(member[topo.arc_src] & ~member[topo.arc_dst]))
