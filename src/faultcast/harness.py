"""Experiment runner: sweep grids, trace validation, exports, regressions.

A config (CLI flags or a JSON file with the same field names) expands into a
sorted grid of (size, alpha, adversary, seed) runs.  Each run executes one
protocol schedule, validates the trace, and contributes one CSV row; row order
is the sorted grid order, so identical configs produce byte-identical outputs.
"""

import csv
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import bounds
from .adversary import make_adversary
from .engine import NetworkState
from .errors import ConfigError
from .protocols import PROTOCOL_TOPOLOGIES, _finalize, below_min, make_driver, simulate
from .search import worst_case_search
from .topology import COMPLETE, HYPERCUBE, Topology, build_complete, build_hypercube
from .validate import errors_only, validate_trace

CSV_HEADER = ("topology", "size", "alpha", "eps", "protocol", "adversary", "seed",
              "steps", "first_complete", "final_k", "final_h", "violations")

DEFAULT_ADVERSARIES = ("random", "victim_guard", "ack_suppressor")


@dataclass
class ExperimentConfig:
    topology: str = COMPLETE
    size: list[int] = field(default_factory=lambda: [16])
    alpha: list[float] = field(default_factory=lambda: [0.5])
    eps: float | None = None  # default 2 on complete, 0.5 on hypercube
    protocol: str | None = None  # default almost-kn / hypercube
    adversary: list[str] = field(default_factory=lambda: list(DEFAULT_ADVERSARIES))
    seeds: int = 10
    out: str | None = None
    strict: bool = False
    horizon: int | None = None  # round-count override for simple-rounds

    def __post_init__(self):
        if isinstance(self.size, int):
            self.size = [self.size]
        if isinstance(self.alpha, (int, float)):
            self.alpha = [float(self.alpha)]
        if isinstance(self.adversary, str):
            self.adversary = [self.adversary]
        if self.eps is None:
            self.eps = 2.0 if self.topology == COMPLETE else 0.5
        if self.protocol is None:
            self.protocol = "almost-kn" if self.topology == COMPLETE else "hypercube"

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        return ExperimentConfig(**_json_fields(path))

    def check(self) -> list[str]:
        """All config errors at once, before anything runs."""
        problems = []
        if self.topology not in (COMPLETE, HYPERCUBE):
            problems.append(f"unknown topology {self.topology!r}")
        base = self.protocol.partition(":")[0]
        if (self.topology in (COMPLETE, HYPERCUBE)
                and self.topology not in PROTOCOL_TOPOLOGIES.get(base, ())):
            problems.append(f"protocol {self.protocol!r} not available on {self.topology}")
        for a in self.alpha:
            if not 0.0 < a < 1.0:
                problems.append(f"alpha {a} outside (0, 1)")
            elif base == "nosod-complete" and bounds.constants(a).y <= 0.0:
                problems.append(f"alpha {a} unsupported by nosod-complete (Y <= 0)")
        if self.topology == COMPLETE and base != "simple-rounds" and self.eps <= 1.0:
            problems.append(f"complete-graph eps must be > 1, got {self.eps}")
        if self.topology == HYPERCUBE and not 0.0 < self.eps < 1.0:
            problems.append(f"hypercube eps must be in (0, 1), got {self.eps}")
        for s in self.size:
            if self.topology == COMPLETE and s < 2:
                problems.append(f"complete graph size {s} < 2")
            if self.topology == HYPERCUBE and s < 1:
                problems.append(f"hypercube dimension {s} < 1")
        if self.seeds < 1:
            problems.append("seeds must be >= 1")
        return problems


def _json_fields(path) -> dict:
    """The fields a JSON config file sets, rejecting names that are not fields."""
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return raw


@dataclass
class RunReport:
    rows: list[dict]
    violations: list[tuple[dict, object]]  # (row, Violation), error level only
    aggregates: dict

    @property
    def ok(self) -> bool:
        return not self.violations


def _build_topology(config: ExperimentConfig, size: int) -> Topology:
    if config.topology == HYPERCUBE:
        return build_hypercube(size)
    chordal = config.protocol.startswith("sod")
    return build_complete(size, chordal=chordal)


def run(config: ExperimentConfig) -> RunReport:
    problems = config.check()
    if problems:
        raise ConfigError("; ".join(problems))

    out_dir = None
    if config.out is not None:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    bad = []
    for size in sorted(config.size):
        topo = _build_topology(config, size)
        for alpha in sorted(config.alpha):
            for adv_id in config.adversary:
                for seed in range(config.seeds):
                    adversary = make_adversary(adv_id, topo=topo, seed=seed)
                    state = NetworkState(topo)
                    driver = make_driver(config.protocol, topo, alpha, config.eps,
                                         state, rounds=config.horizon)
                    _, trace = simulate(topo, driver, adversary, alpha, state=state)
                    _finalize(trace, state, config.protocol, adversary, alpha,
                              config.eps, topo, below_min(topo, alpha, config.eps))
                    violations = errors_only(validate_trace(trace, alpha, config.eps))
                    row = {
                        "topology": config.topology,
                        "size": size,
                        "alpha": alpha,
                        "eps": config.eps,
                        "protocol": config.protocol,
                        "adversary": adversary.id,
                        "seed": seed,
                        "steps": trace.total_steps,
                        "first_complete": trace.first_complete_step(),
                        "final_k": trace.final_k,
                        "final_h": trace.final_h,
                        "violations": len(violations),
                    }
                    rows.append(row)
                    bad.extend((row, v) for v in violations)
                    if out_dir is not None:
                        stem = (f"{config.topology}_{size}_{alpha}_{config.protocol}"
                                f"_{adversary.id}_{seed}").replace(":", "-")
                        trace.to_jsonl(out_dir / f"{stem}.jsonl")

    aggregates = {}
    if rows:
        for col in ("steps", "first_complete", "final_k", "final_h"):
            values = [r[col] for r in rows]
            aggregates[col] = {"max": max(values), "mean": sum(values) / len(values)}
    report = RunReport(rows=rows, violations=bad, aggregates=aggregates)
    if out_dir is not None:
        write_csv(report, out_dir / "summary.csv")
        write_gnuplot(report, out_dir / "summary.dat")
    return report


def write_csv(report: RunReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(report.rows)


def write_gnuplot(report: RunReport, path) -> None:
    """Plot-ready data: one line per run, size as the sweep parameter."""
    with open(path, "w") as fh:
        fh.write("# param steps final_k final_h\n")
        for row in report.rows:
            fh.write(f"{row['size']} {row['steps']} {row['final_k']} {row['final_h']}\n")


def regression_file() -> Path:
    return Path(str(resources.files("faultcast") / "data" / "worst_case_regression.json"))


def verify_regressions(path=None) -> list[dict]:
    """Rerun the tiny-instance worst-case searches against their frozen values."""
    path = Path(path) if path is not None else regression_file()
    if not path.exists():
        raise ConfigError(
            f"regression file {path} missing; regenerate it with worst_case_search "
            "and freeze the results before shipping")
    entries = json.loads(path.read_text())
    results = []
    for entry in entries:
        got = worst_case_search(entry["n"], entry["protocol"], entry["alpha"],
                                horizon=entry.get("horizon"), eps=entry.get("eps", 2.0))
        results.append({
            "name": entry["name"],
            "expected": entry["worst_steps"],
            "got": got.worst_steps,
            "ok": got.worst_steps == entry["worst_steps"],
        })
    return results
