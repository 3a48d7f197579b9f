"""Timing wrappers for the traced run, recorded from outside the program.

Every wrapper reaches the program through the public arguments of
``protocols.simulate`` (driver, adversary, state, trace) or by wrapping a
public call made by the benchmark itself, so the program's code is unchanged.
Spans are kept in memory and written out when the run ends.
"""

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from faultcast.engine import NetworkState, Trace
from faultcast.protocols import BATCH


class Recorder:
    """Spans (name, start, end, parent, config) plus per-name self time and counters.

    A span's self time is its duration minus the time its child spans cover.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, config]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.step_us = []  # engine self time of each executed step
        self.config = None
        self._stack = []  # [span index, seconds covered by children]
        self._mark = (0.0, 0.0)

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.config])
        self._stack.append([len(self.spans) - 1, 0.0])

    def end(self) -> None:
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = perf_counter()
        duration = span[2] - span[1]
        self.self_s[span[0]] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    # Per-step engine time: simulate runs next -> execute_step (decide) ->
    # absorb -> record_step, so the engine's share of one executed step is the
    # time from the end of next to the start of record_step, minus the child
    # spans (decide, absorb) that closed in between.
    def step_begin(self) -> None:
        self._mark = (perf_counter(), self._stack[-1][1])

    def step_end(self) -> None:
        now, covered = perf_counter(), self._stack[-1][1]
        self.step_us.append(((now - self._mark[0]) - (covered - self._mark[1])) * 1e6)

    def layer_s(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, config in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "config": config}))
                fh.write("\n")


def state_class(rec: Recorder):
    """NetworkState subclass timing counts(); no new slots, so clones stay plain."""

    class TimedState(NetworkState):
        __slots__ = ()

        def counts(self):
            return rec.call("engine.counts", super().counts)

    return TimedState


def trace_class(rec: Recorder):
    """Trace subclass timing record*, and to_jsonl as the export layer."""

    class TimedTrace(Trace):
        def record(self, state, m_sent, m_lost, acks):
            rec.call("trace.record", super().record, state, m_sent, m_lost, acks)

        def record_step(self, state, report):
            rec.step_end()
            rec.call("trace.record", super().record_step, state, report)

        def record_inert(self, state, m_sent, count, step_start):
            rec.call("trace.record", super().record_inert, state, m_sent, count, step_start)

        def to_jsonl(self, path):
            rec.call("trace.export", super().to_jsonl, path)

    return TimedTrace


class TimedDriver:
    """Delegates to a driver, timing next/absorb and counting executed and inert steps."""

    def __init__(self, driver, rec: Recorder):
        self.inner = driver
        self.rec = rec

    @property
    def total_steps(self) -> int:
        return self.inner.total_steps

    def attach(self, trace) -> None:
        self.inner.attach(trace)

    def done(self) -> bool:
        return self.inner.done()

    def next(self, state, exhaustive):
        kind, val = self.rec.call("protocols.next", self.inner.next, state, exhaustive)
        if kind == BATCH:
            self.rec.counts["protocols.executed_steps"] += 1
            self.rec.step_begin()
        else:
            self.rec.counts["protocols.inert_steps"] += sum(count for _, count in val)
        return kind, val

    def absorb(self, state, report) -> None:
        self.rec.call("protocols.absorb", self.inner.absorb, state, report)


class TimedAdversary:
    """Delegates to an adversary policy, timing decide and counting kills."""

    def __init__(self, adversary, rec: Recorder):
        self.inner = adversary
        self.rec = rec
        self.id = adversary.id
        self.exhaustive = adversary.exhaustive

    def decide(self, ctx, batch, budget):
        kills = self.rec.call("adversary.decide", self.inner.decide, ctx, batch, budget)
        self.rec.counts["adversary.decide_calls"] += 1
        self.rec.counts["adversary.kills"] += int(np.size(kills))
        return kills
