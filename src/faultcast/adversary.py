"""Fault strategies: pluggable kill-set policies.

Every shipped policy is *exhaustive*: it kills exactly min(m, budget)
messages, and it draws nothing from its generator when that kill set is
forced, that is when it is empty or the whole batch.  A batch of at most c-1
messages dies whole, so drivers may skip ``decide`` on it (see
``faultcast.protocols``), and every skip records exactly the trace of a
stepped run.  A new exhaustive policy must keep both promises.  In a steady
round, where nothing is stepped, the run loop checks the kill-set size and
raises AdversaryViolation if it is short.
"""

import numpy as np

from .engine import ACK
from .errors import InvalidParameterError


class AdversaryPolicy:
    """Maps (step context, send batch, budget) to a kill set of batch indices."""

    id: str = "abstract"
    exhaustive: bool = True  # kills exactly min(m, budget)

    def decide(self, ctx, batch, budget: int) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"


class RandomAdversary(AdversaryPolicy):
    """Kills a uniform random subset of size exactly min(m, budget)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.id = f"random:{seed}"
        self._rng = np.random.default_rng(seed)

    def decide(self, ctx, batch, budget):
        ksize = min(batch.m, budget)
        if ksize in (0, batch.m):
            return np.arange(ksize, dtype=np.int64)
        return self._rng.permutation(batch.m)[:ksize].astype(np.int64)


class VictimGuard(AdversaryPolicy):
    """Starves one vertex: kills messages to the victim first, then acks, then random fill.

    Within the victim and ack classes, lowest arc id goes first.
    """

    def __init__(self, victim: int, seed: int = 0):
        self.victim = victim
        self.seed = seed
        self.id = f"victim_guard:{victim}"
        self._rng = np.random.default_rng(seed)

    def decide(self, ctx, batch, budget):
        ksize = min(batch.m, budget)
        if ksize in (0, batch.m):
            return np.arange(ksize, dtype=np.int64)
        dst = ctx.topo.arc_dst[batch.arcs]
        victim = dst == self.victim
        acks = ~victim & (batch.kinds == ACK)
        rest = np.flatnonzero(~victim & ~acks)
        self._rng.shuffle(rest)
        order = np.concatenate([np.flatnonzero(victim), np.flatnonzero(acks), rest])
        return order[:ksize].astype(np.int64)


class AckSuppressor(AdversaryPolicy):
    """Kills acknowledgements first, then info to uninformed vertices, then the rest.

    Acks die in arc-id order; the other classes are filled in seeded random
    order, so an all-info batch degenerates to a victimless random kill.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.id = f"ack_suppressor:{seed}"
        self._rng = np.random.default_rng(seed)

    def decide(self, ctx, batch, budget):
        ksize = min(batch.m, budget)
        if ksize in (0, batch.m):
            return np.arange(ksize, dtype=np.int64)
        acks = batch.kinds == ACK
        dst = ctx.topo.arc_dst[batch.arcs]
        to_uninformed = ~acks & ~ctx.state.informed[dst]
        fresh = np.flatnonzero(to_uninformed)
        self._rng.shuffle(fresh)
        rest = np.flatnonzero(~acks & ~to_uninformed)
        self._rng.shuffle(rest)
        order = np.concatenate([np.flatnonzero(acks), fresh, rest])
        return order[:ksize].astype(np.int64)


class FixedKillAdversary(AdversaryPolicy):
    """Plays one predetermined kill set; used by the exhaustive game search."""

    exhaustive = False
    id = "fixed"

    def __init__(self, kills):
        self.kills = np.asarray(kills, dtype=np.int64)

    def decide(self, ctx, batch, budget):
        return self.kills


def make_adversary(spec: str, topo=None, seed: int = 0) -> AdversaryPolicy:
    """Build a policy from a CLI string id: random | victim_guard[:v] | ack_suppressor."""
    name, _, arg = spec.partition(":")
    if name == "random":
        return RandomAdversary(seed=int(arg) if arg else seed)
    if name == "victim_guard":
        if arg:
            victim = int(arg)
        elif topo is not None:
            victim = topo.n - 1
        else:
            raise InvalidParameterError("victim_guard needs a victim or a topology")
        return VictimGuard(victim=victim, seed=seed)
    if name == "ack_suppressor":
        return AckSuppressor(seed=int(arg) if arg else seed)
    raise InvalidParameterError(f"unknown adversary id: {spec!r}")

