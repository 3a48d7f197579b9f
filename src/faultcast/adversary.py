"""Fault strategies: pluggable kill-set policies.

Every shipped policy is *exhaustive*: it kills exactly min(m, budget)
messages.  Neither ``engine.execute_step`` nor a block of steps (see
``faultcast.protocols``) asks such a policy for a forced kill set, empty or
the whole batch (``engine.forced``), as for a batch of at most c-1 messages.
A shipped policy still draws nothing from its generator on one, since a
non-exhaustive wrapper asks it anyway; so every block records exactly the
trace of a stepped run.  A new exhaustive policy must keep both promises.

A block repeats a template of p steps and steps nothing.  Its *drawn*
steps, the SendBatch steps whose kill set is not forced, get their kill sets
from ``decide_rounds``, a chunk of repetitions at a time: row r of a drawn
step's rows equals ``decide`` r*p steps on, on the unchanged state, and the
policy's generator moves exactly as those ``decide`` calls, in step order,
would move it.  The run loop checks every row and raises AdversaryViolation
if one is short.  The default ``decide_rounds`` calls ``decide`` once per
drawn step and repetition; a subclass of a shipped policy that changes the
draw in ``decide`` must change it in ``decide_rounds`` too, or blocks will
not see the change.

A *speculative* block is a simple round whose step A sends to uninformed
vertices, its *watched* messages: the round changes nothing only if its
kill set kills all of them.  No structural rule can skip it, since some
kill set spares one.  So ``decide_rounds`` is given the watch mask of that
lone drawn step and returns its rows up to and including the first row that
spares a watched message, leaving the generator right after that row.  The
rule is exact because the run loop checks each drawn row, not every row the
policy could draw: the rows before the sparing one are recorded as a block,
and the sparing row is applied as a stepped step A would be.
"""

from dataclasses import replace

import numpy as np

from .engine import ACK, check_kill_rows, forced
from .errors import InvalidParameterError

_NONE = np.empty(0, dtype=np.int64)  # an empty class of batch indices


class AdversaryPolicy:
    """Maps (step context, send batch, budget) to a kill set of batch indices."""

    id: str = "abstract"
    exhaustive: bool = True  # kills exactly min(m, budget)

    def decide(self, ctx, batch, budget: int) -> np.ndarray:
        raise NotImplementedError

    def decide_rounds(self, ctx, period: int, steps: list, rounds: int,
                      watch: np.ndarray | None = None) -> list[np.ndarray]:
        """One (rounds, min(m, budget)) array of kill sets per drawn step
        (offset, batch, budget) of a template of ``period`` steps.

        Row r is ``decide`` at step ``ctx.step_index + r*period + offset`` on
        the unchanged state.  Given ``watch``, the (m,) mask of a lone drawn
        step's watched messages, the rows end with the first one that spares
        one, if any (see the module docstring).  Wrappers that define only
        ``decide`` may be passed here unbound.
        """
        out = [np.empty((rounds, min(batch.m, budget)), dtype=np.int64)
               for _, batch, budget in steps]
        for r in range(rounds):
            for (offset, batch, budget), rows in zip(steps, out):
                step_ctx = replace(ctx, step_index=ctx.step_index + r * period + offset)
                row = np.asarray(self.decide(step_ctx, batch, budget))
                killed = check_kill_rows(row.reshape(1, -1), batch.m, budget, self,
                                         exhaustive=True)  # a bad row raises here
                rows[r] = row
                if watch is not None and not killed[0, watch].all():
                    return [rows[:r + 1]]
        return out

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"


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

    def decide_rounds(self, ctx, period, steps, rounds, watch=None):
        classes = [self._classes(ctx, batch) for _, batch, _ in steps]
        lengths = {cls.size for _, shuffled in classes for cls in shuffled if cls.size > 1}
        if len(lengths) > 1 or any(forced(batch.m, budget) for _, batch, budget in steps):
            # Classes of two lengths interleave their draws; a forced step draws nothing.
            return super().decide_rounds(ctx, period, steps, rounds, watch)
        if watch is None:
            return self._rows(classes, steps, rounds)
        # Chunks of 1, 2, 4, ... rows.  A chunk with a sparing row is redrawn
        # up to that row from the generator state before it, so the generator
        # stops right after it, and the draws cost at most about twice the rows.
        out, size = [], 1
        while rounds:
            count = min(size, rounds)
            saved = self._rng.bit_generator.state
            [rows] = self._rows(classes, steps, count)
            spares = np.count_nonzero(watch[rows], axis=1) < np.count_nonzero(watch)
            spare = int(spares.argmax()) if spares.any() else None
            if spare is not None and spare + 1 < count:
                self._rng.bit_generator.state = saved
                [rows] = self._rows(classes, steps, spare + 1)
            out.append(rows)
            if spare is not None:
                break
            rounds -= count
            size *= 2
        return [np.concatenate(out)]

    def _rows(self, classes, steps, rounds):
        """Each step's ``rounds`` successive kill orders, cut to min(m, budget).

        The shuffled classes of more than one entry, which share one length,
        are the rows of one tile in draw order (round, step, class), and one
        call shuffles it row by row, as successive permutations would; a
        class of at most one entry draws nothing.
        """
        drawn = [cls for _, shuffled in classes for cls in shuffled if cls.size > 1]
        if drawn:
            tile = np.tile(np.stack(drawn), (rounds, 1))
            self._rng.permuted(tile, axis=1, out=tile)
        out, k = [], iter(range(len(drawn)))
        for (fixed, shuffled), (_, batch, budget) in zip(classes, steps):
            parts = [np.broadcast_to(cls, (rounds, cls.size)) for cls in fixed]
            parts += [tile[next(k)::len(drawn)] if cls.size > 1
                      else np.broadcast_to(cls, (rounds, cls.size)) for cls in shuffled]
            rows = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            out.append(rows[:, :min(batch.m, budget)])
        return out

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

    Within the victim and ack classes, lowest arc id goes first; a batch is
    all acks or all info, so one of the last two classes is empty.
    """

    def __init__(self, victim: int, seed: int = 0):
        super().__init__(seed)
        self.victim = victim
        self.id = f"victim_guard:{victim}"

    def _classes(self, ctx, batch):
        victim = ctx.topo.arc_dst[batch.arcs] == self.victim
        first, rest = np.flatnonzero(victim), np.flatnonzero(~victim)
        return ([first, rest], [_NONE]) if batch.kind == ACK else ([first, _NONE], [rest])


class AckSuppressor(_OrderedPolicy):
    """Kills acknowledgements first, then info to uninformed vertices, then the rest.

    An ack batch dies in arc-id order.  An info batch's two classes are
    filled in seeded random order, a victimless random kill if all are informed.
    """

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.id = f"ack_suppressor:{seed}"

    def _classes(self, ctx, batch):
        if batch.kind == ACK:
            return [np.arange(batch.m, dtype=np.int64)], [_NONE, _NONE]
        to_uninformed = ~ctx.state.informed[ctx.topo.arc_dst[batch.arcs]]
        return [_NONE], [np.flatnonzero(to_uninformed), np.flatnonzero(~to_uninformed)]


def adversary_problem(spec: str, n: int | None = None) -> str | None:
    """Why ``spec`` names no policy on a graph of ``n`` vertices, or None if it does."""
    name, _, arg = spec.partition(":")
    if arg and not arg.removeprefix("-").isdecimal():
        return f"adversary {spec!r}: {arg!r} is not an integer"
    if name not in ("random", "victim_guard", "ack_suppressor"):
        return f"unknown adversary id: {spec!r}"
    if name == "victim_guard" and arg and n is not None and not 0 <= int(arg) < n:
        return f"victim {int(arg)} outside 0..{n - 1}"
    if arg and int(arg) < 0:  # a victim, or a generator seed
        what = "victim" if name == "victim_guard" else "seed"
        return f"adversary {spec!r}: {what} {int(arg)} < 0"
    return None


def adversary_id(spec: str, n: int | None = None, seed: int = 0) -> str:
    """The id, ``name:argument``, of the policy that ``spec`` names on a graph
    of ``n`` vertices with generator seed ``seed``: the victim of
    ``victim_guard`` defaults to n-1, the seed of the others to ``seed``."""
    problem = adversary_problem(spec, n)
    if problem:
        raise InvalidParameterError(problem)
    if seed < 0:
        raise InvalidParameterError(f"adversary seed {seed} < 0")
    name, _, arg = spec.partition(":")
    if arg or name != "victim_guard":
        return f"{name}:{int(arg) if arg else seed}"
    if n is None:
        raise InvalidParameterError("victim_guard needs a victim or a topology")
    return f"{name}:{n - 1}"


def make_adversary(spec: str, topo=None, seed: int = 0) -> AdversaryPolicy:
    """Build a policy from a CLI string id: random | victim_guard[:v] | ack_suppressor.

    Given a topology, a victim must be one of its vertices."""
    name, _, arg = adversary_id(spec, None if topo is None else topo.n, seed).partition(":")
    if name == "random":
        return RandomAdversary(seed=int(arg))
    if name == "victim_guard":
        return VictimGuard(victim=int(arg), seed=seed)
    return AckSuppressor(seed=int(arg))
