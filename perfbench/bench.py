"""One benchmark run of one workload: set-up, timed passes, checks, metrics."""

import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from .checks import useful_changes
from .metrics import UNITS
from .probes import Recorder
from .run import BLAS_VARS
from .workloads import Workload, run_pass, trace_peak_mb

# Runs in a fresh interpreter: what every `sim run` pays before its first step.
_SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import faultcast
from faultcast import topology
name, args, kwargs = json.loads(sys.argv[1])
getattr(topology, name)(*args, **kwargs)
print(time.perf_counter() - t0)
"""


@dataclass
class Outcome:
    """Human-readable lines plus the result object printed as the last line."""

    lines: list = field(default_factory=list)
    results: dict = field(default_factory=dict)  # ConfigResults by pass tag
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)

    def add(self, name: str, value, samples: int | None = None) -> None:
        self.metrics[name] = {"value": value, "unit": UNITS[name]}
        n = "" if samples is None else f" n={samples}"
        self.lines.append(f"metric {name} {value} {UNITS[name]}{n}")

    def count(self, passes, tag: str, workload: str) -> None:
        for p in passes:
            self.results.setdefault(tag, []).extend(p.results)
            for r in p.results:
                self.attempted += 1
                self.lines.append(r.line(workload, tag))
                if r.problems:
                    self.failed += 1
                    self.lines.append(f"FAIL {workload} {tag} {r.label}: "
                                      + "; ".join(r.problems))

    def result(self) -> dict:
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics}


def _commit(root: Path) -> str:
    """HEAD of the checkout's own .git, read from its files; "unknown" without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "commit": _commit(root)}


def measure_setup(root: Path, wl: Workload, repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE, json.dumps(wl.builder())],
                             env=env, cwd=root, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def measure(root: Path, wl: Workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = 7) -> Outcome:
    """One run: end-to-end metrics with ``trace`` off, per-layer metrics with it on."""
    outcome = Outcome()
    outcome.lines.append("env " + json.dumps(environment(root)))
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        if trace:
            _per_layer(outcome, root, wl, seed, Path(tmp))
        else:
            _end_to_end(outcome, root, wl, seed, seconds, Path(tmp), setup_repeats)
    return outcome


def _end_to_end(outcome: Outcome, root: Path, wl: Workload, seed: int, seconds: float,
                tmp: Path, setup_repeats: int) -> None:
    """Set-up, then whole untraced passes while another one fits in ``seconds``
    (at least one); the pass times' median is verdict_s."""
    setup = measure_setup(root, wl, setup_repeats)
    passes = []
    start = perf_counter()
    while True:
        began = perf_counter()
        out = tmp / f"untraced{len(passes)}"
        passes.append(run_pass(wl, seed, out))
        shutil.rmtree(out, ignore_errors=True)
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    outcome.count(passes, "untraced", wl.name)
    verdicts = [p.verdict_s for p in passes]
    outcome.add("verdict_s", statistics.median(verdicts), len(verdicts))
    outcome.add("setup_s", statistics.median(setup), len(setup))
    outcome.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 1)
    # fail_rate is 0 on a healthy program, so it is printed here and carried by the
    # result's attempted/failed keys rather than declared as a bounded metric.
    outcome.lines.append(f"metric fail_rate {outcome.failed / outcome.attempted} ratio "
                         f"n={outcome.attempted}")
    short = sum(r.short for r in passes[0].results)
    outcome.lines.append(f"metric engine.budget_short_steps {short} count "
                         f"n={len(passes[0].results)}")


def _per_layer(outcome: Outcome, root: Path, wl: Workload, seed: int, tmp: Path) -> None:
    """One untraced and one traced pass; the traced one must reproduce the first."""
    untraced = run_pass(wl, seed, tmp / "untraced")
    rec = Recorder()
    traced = run_pass(wl, seed, tmp / "traced", rec)
    export_bytes = sum(f.stat().st_size for f in (tmp / "traced").glob("*.jsonl"))
    _compare(untraced, traced)
    outcome.count([untraced], "untraced", wl.name)
    outcome.count([traced], "traced", wl.name)
    _layer_metrics(outcome, rec, untraced, traced, export_bytes, trace_peak_mb(wl, seed))
    spans = root / ".perfbench" / f"spans-{wl.name}-seed{seed}.jsonl"
    rec.write(spans)
    outcome.lines.append(f"spans {len(rec.spans)} written to {spans.relative_to(root)}")


def _compare(untraced, traced) -> None:
    """A traced config that does not reproduce its untraced row and fingerprint fails."""
    expected = {r.label: r for r in untraced.results}
    for r in traced.results:
        base = expected.get(r.label)
        if base is None or (base.row, base.fingerprint) != (r.row, r.fingerprint):
            r.problems.append("traced run diverged from the untraced run")


def _layer_metrics(outcome: Outcome, rec: Recorder, untraced, traced, export_bytes: int,
                   peak_mb: float) -> None:
    traces = traced.traces
    sent = sum(int(t.column("m_sent").sum()) for t, *_ in traces)
    steps = np.asarray(rec.step_us) if rec.step_us else np.zeros(1)
    found = traced.search
    search_s = rec.self_s["search.search"]
    add = outcome.add
    add("topology.build_s", rec.self_s["topology.build"])
    add("protocols.next_s", rec.self_s["protocols.next"])
    add("protocols.absorb_s", rec.self_s["protocols.absorb"])
    add("protocols.executed_steps", rec.counts["protocols.executed_steps"])
    add("protocols.inert_steps", rec.counts["protocols.inert_steps"])
    add("adversary.decide_s", rec.self_s["adversary.decide"])
    add("adversary.kills", rec.counts["adversary.kills"])
    add("adversary.decide_calls", rec.counts["adversary.decide_calls"])
    add("engine.step_s", rec.self_s["engine.simulate"])
    add("engine.step_p50_us", float(np.percentile(steps, 50)), len(rec.step_us))
    add("engine.step_p99_us", float(np.percentile(steps, 99)), len(rec.step_us))
    add("engine.counts_s", rec.self_s["engine.counts"])
    add("engine.messages_sent", sent)
    add("engine.messages_lost", sum(int(t.column("m_lost").sum()) for t, *_ in traces))
    add("engine.useful_ratio", sum(useful_changes(t) for t, *_ in traces) / max(sent, 1))
    add("engine.budget_short_steps", sum(r.short for r in traced.results))
    add("trace.record_s", rec.self_s["trace.record"])
    add("trace.rows", sum(len(t) for t, *_ in traces))
    add("trace.peak_mb", peak_mb)
    add("trace.export_s", rec.self_s["trace.export"])
    add("trace.export_mb", export_bytes / 1e6)
    add("validate.validate_s", rec.self_s["validate.validate"])
    add("validate.errors", sum(errors for _, _, errors, _ in traces))
    add("validate.infos", sum(infos for *_, infos in traces))
    add("harness.self_s", rec.layer_s("harness."))
    add("search.search_s", search_s)
    add("search.nodes", found.nodes if found else 0)
    add("search.states", found.states if found else 0)
    add("search.nodes_per_s", found.nodes / search_s if found and search_s else 0.0)
    add("bench.trace_overhead_frac", traced.verdict_s / untraced.verdict_s
        if untraced.verdict_s else 0.0)
    outcome.lines.append(f"metric verdict_s {untraced.verdict_s} s n=1 (untraced pass)")
