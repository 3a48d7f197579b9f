"""Experiment runner: sweep grids, trace validation, exports, regressions.

A config (CLI flags or a JSON file with the same field names) expands into a
sorted grid of (size, alpha, adversary, seed) runs.  Each run executes one
protocol schedule through ``run_protocol``, the package's one run path,
validates the trace, and contributes one CSV row; row order is the sorted
grid order, so identical configs produce byte-identical outputs.
"""

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import product
from pathlib import Path

from . import bounds
from .adversary import AdversaryPolicy, adversary_id, adversary_problem, make_adversary
from .engine import NetworkState, Trace
from .errors import ConfigError, InvalidParameterError
from .protocols import Driver, _finalize, build_topology, make_driver, protocol_entry, simulate
from .search import worst_case_search
from .topology import COMPLETE, HYPERCUBE, Topology
from .validate import errors_only, validate_trace

CSV_HEADER = ("topology", "size", "alpha", "eps", "protocol", "adversary", "seed",
              "steps", "first_complete", "final_k", "final_h", "violations")

DEFAULT_ADVERSARIES = ("random", "victim_guard", "ack_suppressor")

# Each field's type once ``__post_init__`` has run, a list for a list field;
# a bool is not a number here.
_FIELD_TYPES = {"topology": str, "size": [int], "alpha": [(int, float)], "eps": (int, float),
                "protocol": str, "adversary": [str], "seeds": int, "out": (str, type(None)),
                "strict": bool, "horizon": (int, type(None))}

# The same for the fields of a regression file entry; the first five are required.
_ENTRY_TYPES = {"name": str, "n": int, "protocol": str, "alpha": (int, float),
                "worst_steps": (int, float), "horizon": (int, type(None)), "eps": (int, float)}


def _has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_type(v, kind[0]) for v in value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


@dataclass
class ExperimentConfig:
    topology: str = COMPLETE
    size: list[int] = field(default_factory=lambda: [16])
    alpha: list[float] = field(default_factory=lambda: [0.5])
    eps: float | None = None  # default bounds.default_eps(topology)
    protocol: str | None = None  # default almost-kn / hypercube
    adversary: list[str] = field(default_factory=lambda: list(DEFAULT_ADVERSARIES))
    seeds: int = 10
    out: str | None = None
    strict: bool = False
    horizon: int | None = None  # round count of simple-rounds

    def __post_init__(self):
        if isinstance(self.size, int):
            self.size = [self.size]
        if isinstance(self.alpha, (int, float)):
            self.alpha = [float(self.alpha)]
        if isinstance(self.adversary, str):
            self.adversary = [self.adversary]
        if self.eps is None:
            self.eps = bounds.default_eps(self.topology)
        if self.protocol is None:
            self.protocol = "almost-kn" if self.topology == COMPLETE else "hypercube"

    def check(self) -> list[str]:
        """All config errors at once, before anything runs.

        A field of the wrong type is reported alone, as the other checks
        need the types.
        """
        problems = [f"{name} has the wrong type: {getattr(self, name)!r}"
                    for name, kind in _FIELD_TYPES.items()
                    if not _has_type(getattr(self, name), kind)]
        if problems:
            return problems
        problems.extend(f"{name} lists nothing" for name in ("size", "alpha", "adversary")
                        if not getattr(self, name))
        if self.topology not in (COMPLETE, HYPERCUBE):
            problems.append(f"unknown topology {self.topology!r}")
        try:
            entry = protocol_entry(self.protocol)
        except InvalidParameterError as exc:
            problems.append(str(exc))
            entry = None
        applies = entry is not None and self.topology in entry.topologies
        if entry is not None and not applies and self.topology in (COMPLETE, HYPERCUBE):
            problems.append(f"protocol {self.protocol!r} not available on {self.topology}")
        alphas = []
        for a in self.alpha:
            if 0.0 < a < 1.0:
                alphas.append(a)
            else:
                problems.append(f"alpha {a} outside (0, 1)")
        try:
            bounds.check_eps(self.topology, self.eps)
        except InvalidParameterError as exc:
            problems.append(str(exc))
            applies = False  # the closed forms need an eps in the domain
        sizes = []  # (n, d) of the valid sizes, d None on K_n
        for s in self.size:
            if self.topology == COMPLETE and s < 2:
                problems.append(f"complete graph size {s} < 2")
            elif self.topology == HYPERCUBE and s < 1:
                problems.append(f"hypercube dimension {s} < 1")
            elif self.topology in (COMPLETE, HYPERCUBE):
                sizes.append((1 << s, s) if self.topology == HYPERCUBE else (s, None))
        # The sizes and alphas the schedule's closed forms reject.
        found = []
        for n, d in sizes if applies else []:
            for a in alphas:
                try:
                    entry.steps(n, d, a, self.eps, self.horizon)
                except InvalidParameterError as exc:
                    found.append(f"protocol {self.protocol!r} unsupported: {exc}")
        problems.extend(dict.fromkeys(found))
        for spec in self.adversary:
            found = (adversary_problem(spec, n) for n, _ in sizes or [(None, None)])
            problems.extend(p for p in dict.fromkeys(found) if p)
        # Two runs with one key would write one JSONL file.
        runs = Counter((n if d is None else d, a, adversary_id(spec, n, seed), seed)
                       for (n, d), a, spec, seed in product(sizes, alphas, self.adversary,
                                                            range(self.seeds))
                       if not adversary_problem(spec, n))
        problems.extend(f"run repeated: size {s}, alpha {a}, adversary {i}, seed {seed}"
                        for (s, a, i, seed), count in runs.items() if count > 1)
        if self.seeds < 1:
            problems.append("seeds must be >= 1")
        if self.horizon is not None and not (entry is not None and entry.rounds):
            problems.append(f"horizon needs protocol simple-rounds, got {self.protocol!r}")
        if self.horizon is not None and self.horizon < 1:
            problems.append(f"horizon {self.horizon} < 1")
        return problems


def _read_json(path, what: str):
    """The value a JSON file holds; a file that cannot be read or is not JSON
    is a ConfigError naming it as ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"{what} {path} is not JSON: {exc}") from exc


def _json_fields(path) -> dict:
    """The fields a JSON config file sets, rejecting names that are not fields."""
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} holds {type(raw).__name__}, not a JSON object")
    unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return raw


def run_protocol(protocol: str, topo: Topology, alpha: float, eps: float,
                 adversary: AdversaryPolicy,
                 rounds: int | None = None) -> tuple[NetworkState, Driver, Trace]:
    """Run a protocol's full schedule from vertex 0 and write the trace summary;
    eps must pass ``bounds.check_eps``.  ``rounds`` is ``make_driver``'s."""
    below = not bounds.asserted(topo, alpha, eps)
    state = NetworkState(topo)
    driver = make_driver(protocol, topo, alpha, eps, state, rounds=rounds)
    _, trace = simulate(topo, driver, adversary, alpha, state=state)
    _finalize(trace, state, protocol, adversary, alpha, eps, topo, below)
    return state, driver, trace


@dataclass
class RunReport:
    rows: list[dict]
    violations: list[tuple[dict, object]]  # (row, Violation), error level only
    aggregates: dict

    @property
    def ok(self) -> bool:
        return not self.violations


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
        topo = build_topology(config.protocol, config.topology, size)
        for alpha in sorted(config.alpha):
            for adv_id in config.adversary:
                for seed in range(config.seeds):
                    adversary = make_adversary(adv_id, topo=topo, seed=seed)
                    _, _, trace = run_protocol(config.protocol, topo, alpha, config.eps,
                                               adversary, rounds=config.horizon)
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
    entries = _read_json(path, "regression file")
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ConfigError(f"regression file {path} is not a JSON list of objects")
    for i, entry in enumerate(entries):
        missing = [k for k in list(_ENTRY_TYPES)[:5] if k not in entry]
        if missing:
            raise ConfigError(f"regression entry {i} of {path} lacks {missing}")
        wrong = [k for k, kind in _ENTRY_TYPES.items()
                 if k in entry and not _has_type(entry[k], kind)]
        if wrong:
            raise ConfigError(f"regression entry {i} of {path} has the wrong type in {wrong}")
    results = []
    for entry in entries:
        got = worst_case_search(entry["n"], entry["protocol"], entry["alpha"],
                                horizon=entry.get("horizon"), eps=entry.get("eps"))
        results.append({
            "name": entry["name"],
            "expected": entry["worst_steps"],
            "got": got.worst_steps,
            "ok": got.worst_steps == entry["worst_steps"],
        })
    return results
