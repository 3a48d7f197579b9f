"""The benchmark's metric catalogue: name, unit, which direction is better, and
the prediction each per-layer metric carries (which end-to-end metric it
should move on which workload, and where it should stay flat).

BENCHMARK.json lists the same names and units; a test keeps the two equal.
"""

END_TO_END = (
    ("verdict_s", "s", "lower",
     "host seconds from the first call into the package after set-up to the last verdict"),
    ("setup_s", "s", "lower",
     "fresh-process import faultcast plus one build of the workload's topology, median of several"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of the workload's process"),
)

PER_LAYER = (
    ("topology.build_s", "s", "lower", "moves setup_s on kn-dense; flat elsewhere"),
    ("protocols.next_s", "s", "lower",
     "moves verdict_s on kn-dense (send scans) and sod-multiplex (lane dispatch); flat on nosod-export"),
    ("protocols.absorb_s", "s", "lower", "as protocols.next_s"),
    ("protocols.executed_steps", "count", "lower",
     "a multiplex fast-forward moves it on sod-multiplex; trace.rows must not change"),
    ("protocols.inert_steps", "count", "higher", "as protocols.executed_steps"),
    ("adversary.decide_s", "s", "lower", "moves verdict_s on kn-dense, where greedy batches are large"),
    ("adversary.kills", "count", "lower", "as adversary.decide_s"),
    ("adversary.decide_calls", "count", "lower", "as adversary.decide_s"),
    ("engine.step_s", "s", "lower",
     "self time of the simulate loop (batch checks, kill checks, delivery); moves verdict_s on "
     "kn-dense and sod-multiplex; oracle-k5 must not get worse"),
    ("engine.step_p50_us", "us", "lower", "engine.step_s per executed step, median"),
    ("engine.step_p99_us", "us", "lower", "engine.step_s per executed step, 99th percentile"),
    ("engine.counts_s", "s", "lower", "NetworkState.counts; moves verdict_s on kn-dense and sod-multiplex"),
    ("engine.messages_sent", "count", "lower", "sum of the m_sent trace column"),
    ("engine.messages_lost", "count", "lower", "sum of the m_lost trace column"),
    ("engine.useful_ratio", "ratio", "higher", "state changes (delta k + delta b) per message sent"),
    ("engine.budget_short_steps", "count", "lower",
     "steps where an exhaustive adversary killed fewer than min(m, exact budget); a count, not a failure"),
    ("trace.record_s", "s", "lower",
     "record, record_step and record_inert without counts; moves verdict_s on qd-rounds and nosod-export"),
    ("trace.rows", "count", "lower", "recorded rows; must not change under a simulator-only speed-up"),
    ("trace.peak_mb", "MB", "lower",
     "tracemalloc peak around simulate of the first config; moves peak_rss_mb on nosod-export"),
    ("trace.export_s", "s", "lower", "Trace.to_jsonl; moves verdict_s on nosod-export, flat elsewhere"),
    ("trace.export_mb", "MB", "lower", "JSONL bytes written; moves disk output on nosod-export"),
    ("validate.validate_s", "s", "lower", "validate_trace; should move nothing today"),
    ("validate.errors", "count", "lower", "error-level violations"),
    ("validate.infos", "count", "lower", "info-level violations"),
    ("harness.self_s", "s", "lower", "harness.run minus its children"),
    ("search.search_s", "s", "lower", "worst_case_search on the oracle instance; moves verdict_s on oracle-k5"),
    ("search.nodes", "count", "lower", "game-tree nodes expanded; as search.search_s"),
    ("search.states", "count", "lower", "memoised canonical states; as search.search_s"),
    ("search.nodes_per_s", "1/s", "higher", "search.nodes over search.search_s"),
    ("bench.trace_overhead_frac", "ratio", "lower", "traced verdict_s over untraced verdict_s"),
)

UNITS = {name: unit for name, unit, _, _ in END_TO_END + PER_LAYER}
