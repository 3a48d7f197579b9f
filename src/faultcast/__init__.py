"""Simulator and verification harness for broadcasting in synchronous
point-to-point networks under adversarial fractional message loss with a
connectivity threshold: per step the adversary may destroy up to
max{c(G)-1, floor(alpha*m)} of the m messages sent."""

from . import bounds, validate
from .adversary import (AckSuppressor, AdversaryPolicy, RandomAdversary,
                        VictimGuard, make_adversary)
from .engine import (ACK, INFO, NetworkState, SendBatch, Trace, classify_arc,
                     execute_step, fault_budget)
from .errors import (AdversaryViolation, ConfigError, InvalidParameterError,
                     PreconditionViolation, ScheduleOverrun, SimError,
                     TooLargeError, UnsupportedAlphaError, UnsupportedTopologyError)
from .harness import ExperimentConfig, RunReport, run, run_protocol, verify_regressions
from .protocols import make_driver, simulate
from .search import SearchResult, worst_case_search
from .topology import (ChordalLabeling, Topology, build_complete,
                       build_hypercube, edge_boundary)
from .validate import validate_trace

__version__ = "0.1.0"
