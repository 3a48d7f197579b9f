"""The five workloads and the passes that run them.

A pass runs every config of a workload once, one after another (a closed loop
with one client). The untraced pass calls the program as a user would
(``harness.run``, or the oracle calls); the traced pass drives the same public
calls with the timing wrappers of ``probes`` and must reproduce the untraced
rows and fingerprints.
"""

import json
import tracemalloc
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from faultcast import bounds, harness, topology
from faultcast.adversary import make_adversary
from faultcast.engine import NetworkState
from faultcast.errors import ConfigError
from faultcast.harness import ExperimentConfig, verify_regressions
# _finalize builds the trace summary that harness.run writes; the traced pass
# calls it too, so that the summaries it fingerprints are the program's own.
from faultcast.protocols import _finalize, almost_complete_kn, make_driver, simulate
from faultcast.search import worst_case_search
from faultcast.topology import COMPLETE, HYPERCUBE
from faultcast.validate import ERROR, validate_trace

from .checks import ConfigResult, check_trace
from .probes import TimedAdversary, TimedDriver, state_class, trace_class

ADVERSARIES = ("random", "victim_guard", "ack_suppressor")


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    size: int  # n, or d for the hypercube
    alpha: float
    eps: float
    adversaries: tuple = ADVERSARIES
    export: bool = False  # JSONL and CSV output to a temporary directory
    oracle: bool = False

    @property
    def n(self) -> int:
        return 1 << self.size if self.protocol == "hypercube" else self.size

    def builder(self) -> tuple[str, list, dict]:
        """The topology call a run of this workload makes before its first step."""
        if self.protocol == "hypercube":
            return "build_hypercube", [self.size], {}
        if self.oracle:
            return "build_complete", [self.size], {"port_seed": None}
        return "build_complete", [self.size], {"chordal": self.protocol.startswith("sod")}

    def build_topology(self):
        name, args, kwargs = self.builder()
        return getattr(topology, name)(*args, **kwargs)

    def adversary_specs(self, seed: int) -> list[str]:
        """Adversary ids for a workload seed; the victim moves with the seed but
        never onto the initiator or vertex 1 (a sense-of-direction collector)."""
        victim = self.n - 1 - seed % (self.n - 2)
        specs = {"random": f"random:{seed}", "victim_guard": f"victim_guard:{victim}",
                 "ack_suppressor": f"ack_suppressor:{seed}"}
        return [specs[a] for a in self.adversaries]

    def config_labels(self, seed: int) -> list[str]:
        specs = self.adversary_specs(seed)
        if not self.oracle:
            return specs
        regressions = json.loads(harness.regression_file().read_text())
        return [e["name"] for e in regressions] + [f"search:K_{self.size}"] + specs

    def experiment(self, seed: int, out) -> ExperimentConfig:
        return ExperimentConfig(
            topology=HYPERCUBE if self.protocol == "hypercube" else COMPLETE,
            size=[self.size], alpha=[self.alpha], eps=self.eps, protocol=self.protocol,
            adversary=self.adversary_specs(seed), seeds=1,
            out=str(out) if self.export else None)

    def below_min(self, topo) -> bool:
        if topo.kind == HYPERCUBE:
            return topo.d < bounds.d_min(self.alpha, self.eps)
        return topo.n < bounds.n_min(self.alpha, self.eps)


FULL = {w.name: w for w in (
    Workload("kn-dense", "almost-kn", 512, 0.7, 2.0, export=True),
    Workload("qd-rounds", "hypercube", 13, 0.5, 0.5),
    Workload("sod-multiplex", "sod-complete", 256, 0.5, 2.0),
    Workload("nosod-export", "nosod-complete", 64, 0.55, 2.0, adversaries=("random",),
             export=True),
    Workload("oracle-k5", "almost-kn", 5, 0.5, 2.0, oracle=True),
)}

# The same workloads at tiny sizes, for the benchmark's own tests.
SMOKE = {name: replace(FULL[name], size=size) for name, size in (
    ("kn-dense", 16), ("qd-rounds", 5), ("sod-multiplex", 16), ("nosod-export", 8),
    ("oracle-k5", 3))}


@dataclass
class Pass:
    """One pass over a workload's configs."""

    verdict_s: float
    results: list  # ConfigResult per config
    traces: list  # (trace, exhaustive, validator errors, validator infos), traced pass only
    search: object = None  # SearchResult of the oracle instance


def run_pass(wl: Workload, seed: int, out: Path, rec=None) -> Pass:
    """One pass, untraced when ``rec`` is None; an exception fails every config."""
    try:
        if wl.oracle:
            return _oracle_pass(wl, seed, rec)
        return _harness_pass(wl, seed, out, rec) if rec else _harness_run(wl, seed, out)
    except Exception as exc:  # the benchmark reports a crashing config as failed
        traceback.print_exc()
        failed = [ConfigResult(label, {}, problems=[f"exception: {exc!r}"])
                  for label in wl.config_labels(seed)]
        return Pass(0.0, failed, [])


def _validate(trace, alpha, eps) -> tuple[int, int]:
    violations = validate_trace(trace, alpha, eps)
    errors = sum(v.level == ERROR for v in violations)
    return errors, len(violations) - errors


def _harness_run(wl: Workload, seed: int, out: Path) -> Pass:
    """harness.run as a user calls it.

    The run's traces are not returned by harness.run, so for the duration of
    the call a pass-through around the harness's ``simulate`` keeps a reference
    to each one for the checks made after the clock stops.
    """
    captured = []
    original = harness.simulate

    def keep(topo, driver, adversary, alpha, **kwargs):
        state, trace = original(topo, driver, adversary, alpha, **kwargs)
        captured.append((driver.total_steps, adversary.exhaustive, trace))
        return state, trace

    config = wl.experiment(seed, out)
    harness.simulate = keep
    try:
        t0 = perf_counter()
        report = harness.run(config)
        verdict = perf_counter() - t0
    finally:
        harness.simulate = original
    if len(captured) != len(report.rows):
        raise RuntimeError(f"kept {len(captured)} traces for {len(report.rows)} rows")
    results = [check_trace(row["adversary"], trace, wl.protocol, wl.alpha, wl.eps,
                           declared, exhaustive, row["violations"])
               for row, (declared, exhaustive, trace) in zip(report.rows, captured)]
    return Pass(verdict, results, [])


def _traced_simulate(rec, wl: Workload, topo, adversary, protocol: str, rounds=None):
    """Simulate one config through the timing wrappers and finalize its summary."""
    state = rec.call("engine.state_init", state_class(rec), topo)
    driver = rec.call("protocols.make_driver", make_driver, protocol, topo, wl.alpha,
                      wl.eps, state, rounds=rounds)
    trace = trace_class(rec)(topo, track_boundary=topo.kind == HYPERCUBE)
    rec.call("engine.simulate", simulate, topo, TimedDriver(driver, rec),
             TimedAdversary(adversary, rec), wl.alpha, state=state, trace=trace)
    rec.call("trace.summary", _finalize, trace, state, protocol, adversary, wl.alpha,
             wl.eps, topo, wl.below_min(topo))
    return trace, driver.total_steps


def _harness_pass(wl: Workload, seed: int, out: Path, rec) -> Pass:
    """The public calls of harness.run, one span each."""
    config = wl.experiment(seed, out)
    rows, results, traces = [], [], []
    t0 = perf_counter()
    rec.begin("harness.run")
    try:
        problems = config.check()
        if problems:
            raise ConfigError("; ".join(problems))
        if config.out is not None:
            out.mkdir(parents=True, exist_ok=True)
        topo = rec.call("topology.build", wl.build_topology)
        for spec in config.adversary:
            rec.config = spec
            adversary = rec.call("adversary.make", make_adversary, spec, topo=topo, seed=0)
            trace, declared = _traced_simulate(rec, wl, topo, adversary, config.protocol,
                                               rounds=config.horizon)
            errors, infos = rec.call("validate.validate", _validate, trace, wl.alpha, wl.eps)
            row = {"topology": config.topology, "size": wl.size, "alpha": wl.alpha,
                   "eps": config.eps, "protocol": config.protocol, "adversary": adversary.id,
                   "seed": 0, "steps": trace.total_steps,
                   "first_complete": trace.first_complete_step(), "final_k": trace.final_k,
                   "final_h": trace.final_h, "violations": errors}
            rows.append(row)
            if config.out is not None:
                stem = (f"{config.topology}_{wl.size}_{wl.alpha}_{config.protocol}"
                        f"_{adversary.id}_0").replace(":", "-")
                trace.to_jsonl(out / f"{stem}.jsonl")
            results.append((adversary, declared, trace, errors))
            traces.append((trace, adversary.exhaustive, errors, infos))
        if config.out is not None:
            report = harness.RunReport(rows=rows, violations=[], aggregates={})
            harness.write_csv(report, out / "summary.csv")
            harness.write_gnuplot(report, out / "summary.dat")
    finally:
        rec.end()
        rec.config = None
    verdict = perf_counter() - t0
    checked = [check_trace(adv.id, trace, wl.protocol, wl.alpha, wl.eps, declared,
                           adv.exhaustive, errors)
               for adv, declared, trace, errors in results]
    return Pass(verdict, checked, traces)


def _oracle_pass(wl: Workload, seed: int, rec=None) -> Pass:
    """verify_regressions, the exhaustive search on K_n, and each shipped
    adversary's almost-kn run on the same K_n, which must not outlast the oracle."""
    adversaries = [make_adversary(spec, seed=seed) for spec in wl.adversary_specs(seed)]
    heuristics = []
    t0 = perf_counter()
    if rec is None:
        regressions = verify_regressions()
        found = worst_case_search(wl.size, wl.protocol, wl.alpha)
        for adv in adversaries:
            trace = almost_complete_kn(wl.size, wl.alpha, wl.eps, adv, port_seed=None)
            heuristics.append((adv, trace, None))
    else:
        regressions = rec.call("harness.verify_regressions", verify_regressions)
        found = rec.call("search.search", worst_case_search, wl.size, wl.protocol, wl.alpha)
        for adv in adversaries:
            rec.config = adv.id
            topo = rec.call("topology.build", wl.build_topology)
            trace, declared = _traced_simulate(rec, wl, topo, adv, wl.protocol)
            heuristics.append((adv, trace, declared))
        rec.config = None
    verdict = perf_counter() - t0

    results = [ConfigResult(r["name"], {"expected": r["expected"], "got": r["got"]},
                            problems=[] if r["ok"] else ["oracle regression mismatch"])
               for r in regressions]
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    frozen = expected["oracle_worst_steps"][str(wl.size)]
    results.append(ConfigResult(
        f"search:K_{wl.size}",
        {"worst_steps": found.worst_steps, "nodes": found.nodes, "states": found.states},
        problems=[] if found.worst_steps == frozen else [f"oracle value != frozen {frozen}"]))
    traces = []
    for adv, trace, declared in heuristics:
        errors, infos = _validate(trace, wl.alpha, wl.eps)
        result = check_trace(adv.id, trace, wl.protocol, wl.alpha, wl.eps, declared,
                             adv.exhaustive, errors)
        if trace.final_k != 0 or trace.first_complete_step() > found.worst_steps:
            result.problems.append(f"completes at {trace.first_complete_step()} with k="
                                   f"{trace.final_k}, oracle says {found.worst_steps}")
        results.append(result)
        traces.append((trace, adv.exhaustive, errors, infos))
    return Pass(verdict, results, traces if rec else [], found)


def trace_peak_mb(wl: Workload, seed: int) -> float:
    """tracemalloc peak around simulate of the workload's first config.

    Kept out of the traced pass because tracemalloc slows every allocation,
    which would distort the layer times.
    """
    topo = wl.build_topology()
    spec = wl.adversary_specs(seed)[0]
    # harness.run gives every adversary its config seed, 0 in these workloads
    adversary = make_adversary(spec, topo=topo, seed=seed if wl.oracle else 0)
    state = NetworkState(topo)
    driver = make_driver(wl.protocol, topo, wl.alpha, wl.eps, state)
    tracemalloc.start()
    try:
        simulate(topo, driver, adversary, wl.alpha, state=state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6
