"""Fault strategies: pluggable kill-set policies.

Every shipped policy is *exhaustive*: it kills exactly min(m, budget)
messages.  Neither ``engine.execute_step`` nor a block of steps (see
``faultcast.protocols``) asks such a policy for a forced kill set, empty or
the whole batch (``engine.forced``), as for a batch of at most c-1 messages.
A shipped policy still draws nothing from its generator on one, since a
non-exhaustive wrapper asks it anyway; so every block records exactly the
trace of a stepped run.  A new exhaustive policy must keep both promises.

A block whose template is one simple round (a steady step A, then its
dead acks) is not stepped, and the run loop asks for many of its step-A
kill sets at once through ``decide_rounds``: their rows equal that many
successive ``decide`` calls, two steps apart, on the unchanged state, and
the policy's generator moves exactly as those calls would move it.  Any
other template with a drawn step, such as two multiplexed lanes' steady
rounds interleaved, gets its kill sets from ``decide``, one step at a time
in step order.  The run loop checks every row and raises AdversaryViolation
if one is short.  The default ``decide_rounds`` calls ``decide`` once per
round; a subclass of a shipped policy that changes the draw in ``decide``
must change it in ``decide_rounds`` too, or simple-round blocks will not
see the change.

A *speculative* block is a simple round whose step A sends to uninformed
vertices, its *watched* messages: the round changes nothing only if its
kill set kills all of them.  No structural rule can skip it, since some
kill set spares one.  So ``decide_rounds`` is given the watch mask and
returns its rows up to and including the first row that spares a watched
message, leaving the generator right after that row.  The rule is exact
because the run loop checks each drawn row, not every row the policy could
draw: the rows before the sparing one are recorded as a block, and the
sparing row is applied as a stepped step A would be.
"""

from dataclasses import replace

import numpy as np

from .engine import ACK, check_kill_rows
from .errors import InvalidParameterError


class AdversaryPolicy:
    """Maps (step context, send batch, budget) to a kill set of batch indices."""

    id: str = "abstract"
    exhaustive: bool = True  # kills exactly min(m, budget)

    def decide(self, ctx, batch, budget: int) -> np.ndarray:
        raise NotImplementedError

    def decide_rounds(self, ctx, batch, budget: int, rounds: int,
                      watch: np.ndarray | None = None) -> np.ndarray:
        """The (rounds, min(m, budget)) kill sets of ``rounds`` steady step As.

        Row r is ``decide`` at step ``ctx.step_index + 2r`` on the unchanged
        state.  Given ``watch``, an (m,) mask of watched messages, the rows
        end with the first one that spares a watched message, if any (see the
        module docstring).  Wrappers that define only ``decide`` may be
        passed here unbound.
        """
        ksize = min(batch.m, budget)
        out = np.empty((rounds, ksize), dtype=np.int64)
        for r in range(rounds):
            step_ctx = replace(ctx, step_index=ctx.step_index + 2 * r)
            row = np.asarray(self.decide(step_ctx, batch, budget), dtype=np.int64)
            if row.size != ksize or watch is not None:  # a bad row raises here
                killed = check_kill_rows(row.reshape(1, -1), batch.m, budget, self,
                                         exhaustive=True)
            out[r] = row
            if watch is not None and not killed[0, watch].all():
                return out[:r + 1]
        return out

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"


def _first_spare(rows: np.ndarray, watch: np.ndarray) -> int | None:
    """Index of the first row of kill sets that spares a watched message, or None."""
    spares = np.count_nonzero(watch[rows], axis=1) < np.count_nonzero(watch)
    return int(spares.argmax()) if spares.any() else None


class _OrderedPolicy(AdversaryPolicy):
    """Kills the first min(m, budget) messages of an order: the fixed classes
    of ``_classes`` as they are, then its shuffled classes, each shuffled by
    the policy's generator."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def _classes(self, ctx, batch) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(fixed classes, classes to shuffle), each a list of batch-index arrays."""
        raise NotImplementedError

    def decide(self, ctx, batch, budget):
        ksize = min(batch.m, budget)
        if ksize in (0, batch.m):
            return np.arange(ksize, dtype=np.int64)
        return self._order(*self._classes(ctx, batch))[:ksize]

    def decide_rounds(self, ctx, batch, budget, rounds, watch=None):
        ksize = min(batch.m, budget)
        if ksize in (0, batch.m):
            rows = np.arange(ksize, dtype=np.int64)[None].repeat(rounds, axis=0)
            spare = None if watch is None else _first_spare(rows, watch)
            return rows if spare is None else rows[:spare + 1]
        classes = self._classes(ctx, batch)
        if watch is None:
            return self._rows(classes, ksize, rounds)
        # Chunks of 1, 2, 4, ... rows.  A chunk with a sparing row is redrawn
        # up to that row from the generator state before it, so the generator
        # stops right after it, and the draws cost at most about twice the rows.
        out, size = [], 1
        while rounds:
            count = min(size, rounds)
            saved = self._rng.bit_generator.state
            rows = self._rows(classes, ksize, count)
            spare = _first_spare(rows, watch)
            if spare is not None and spare + 1 < count:
                self._rng.bit_generator.state = saved
                rows = self._rows(classes, ksize, spare + 1)
            out.append(rows)
            if spare is not None:
                break
            rounds -= count
            size *= 2
        return np.concatenate(out)

    def _rows(self, classes, ksize, rounds):
        """``rounds`` successive kill orders, each cut to its first ``ksize``."""
        fixed, shuffled = classes
        if sum(cls.size > 1 for cls in shuffled) > 1:
            # Round by round, as the draws of two classes interleave.
            return np.array([self._order(fixed, shuffled)[:ksize] for _ in range(rounds)])
        # One call per class shuffles each row in turn, as successive
        # permutations would; a class of at most one entry draws nothing.
        tiles = [cls[None].repeat(rounds, axis=0) for cls in shuffled]
        for tile in tiles:
            self._rng.permuted(tile, axis=1, out=tile)
        fixed = [np.broadcast_to(cls, (rounds, cls.size)) for cls in fixed]
        return np.concatenate(fixed + tiles, axis=1)[:, :ksize]

    def _order(self, fixed, shuffled):
        """One round's kill order: the fixed classes, then each shuffled class."""
        return np.concatenate(fixed + [self._rng.permutation(cls) for cls in shuffled])


class RandomAdversary(_OrderedPolicy):
    """Kills a uniform random subset of size exactly min(m, budget)."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.id = f"random:{seed}"

    def _classes(self, ctx, batch):
        return [], [np.arange(batch.m, dtype=np.int64)]


class VictimGuard(_OrderedPolicy):
    """Starves one vertex: kills messages to the victim first, then acks, then random fill.

    Within the victim and ack classes, lowest arc id goes first.
    """

    def __init__(self, victim: int, seed: int = 0):
        super().__init__(seed)
        self.victim = victim
        self.id = f"victim_guard:{victim}"

    def _classes(self, ctx, batch):
        victim = ctx.topo.arc_dst[batch.arcs] == self.victim
        acks = ~victim & (batch.kinds == ACK)
        return ([np.flatnonzero(victim), np.flatnonzero(acks)],
                [np.flatnonzero(~victim & ~acks)])


class AckSuppressor(_OrderedPolicy):
    """Kills acknowledgements first, then info to uninformed vertices, then the rest.

    Acks die in arc-id order; the other classes are filled in seeded random
    order, so an all-info batch degenerates to a victimless random kill.
    """

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.id = f"ack_suppressor:{seed}"

    def _classes(self, ctx, batch):
        acks = batch.kinds == ACK
        to_uninformed = ~acks & ~ctx.state.informed[ctx.topo.arc_dst[batch.arcs]]
        return [np.flatnonzero(acks)], [np.flatnonzero(to_uninformed),
                                        np.flatnonzero(~acks & ~to_uninformed)]


def adversary_problem(spec: str, n: int | None = None) -> str | None:
    """Why ``spec`` names no policy on a graph of ``n`` vertices, or None if it does."""
    name, _, arg = spec.partition(":")
    if arg and not arg.removeprefix("-").isdecimal():
        return f"adversary {spec!r}: {arg!r} is not an integer"
    if name not in ("random", "victim_guard", "ack_suppressor"):
        return f"unknown adversary id: {spec!r}"
    if name == "victim_guard" and arg and n is not None and not 0 <= int(arg) < n:
        return f"victim {int(arg)} outside 0..{n - 1}"
    if name != "victim_guard" and arg and int(arg) < 0:  # a generator seed
        return f"adversary {spec!r}: seed {int(arg)} < 0"
    return None


def make_adversary(spec: str, topo=None, seed: int = 0) -> AdversaryPolicy:
    """Build a policy from a CLI string id: random | victim_guard[:v] | ack_suppressor.

    Given a topology, a victim must be one of its vertices."""
    problem = adversary_problem(spec, None if topo is None else topo.n)
    if problem:
        raise InvalidParameterError(problem)
    name, _, arg = spec.partition(":")
    if name == "random":
        return RandomAdversary(seed=int(arg) if arg else seed)
    if name == "victim_guard":
        if not arg and topo is None:
            raise InvalidParameterError("victim_guard needs a victim or a topology")
        return VictimGuard(victim=int(arg) if arg else topo.n - 1, seed=seed)
    return AckSuppressor(seed=int(arg) if arg else seed)
