"""Stochastic pairwise-update dynamics for Pavlov-family strategies on a cycle.

n players sit on the vertices of a cycle; each is a cooperator (+1) or a
defector (-1).  At every step one edge is chosen uniformly at random and only
its two endpoints update:

    (+,+) -> (+,+)
    (+,-) -> (-,-)          (likewise (-,+))
    (-,-) -> rp:     each endpoint independently cooperates with prob. p
             srp:    both endpoints jointly cooperate with prob. p
             pavlov: deterministic (-,-) -> (+,+), i.e. rp/srp with p = 1

All vertex arithmetic is modulo n.  The all-cooperate state is absorbing for
every strategy; the all-defect state is absorbing only at p = 0.

Randomness contract (fixes trajectories for a given seed): two independent
PCG64 streams are spawned from ``SeedSequence(seed)``.  Stream 0 yields edge
indices, stream 1 yields uniforms in [0, 1).  A Bernoulli initial condition
consumes n uniforms from stream 1 before the first step.  Each update of a
(-,-) edge consumes two uniforms under rp/pavlov (left endpoint first) and
one under srp; mixed and (+,+) edges consume none.  "Cooperate" means
u < p strictly, so p = 0 never cooperates and p = 1 always does.
The seed must be a non-negative integer.  It is checked when the state is
built, and a stream builds its seed and generator only at its first refill.
Each stream is a buffer of refills and a cursor.  advance may draw a refill
before it needs its values, but a cursor moves only past values consumed,
so every draw is the one repeated step() calls would make.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

_BUF = 8192
# Most picks advance takes as one list of edges.  A chunk several times
# longer than a typical n = 100 run to absorption wastes its unread tail;
# dividing _BUF keeps full chunks of edges on refill boundaries, with no
# leftover to copy.
_CHUNK = _BUF // 2
_EMPTY = np.empty(0)


class StrategyKind(str, Enum):
    PAVLOV = "pavlov"
    RP = "rp"
    SRP = "srp"


class Outcome(str, Enum):
    ALL_PLUS = "all_plus"
    ALL_MINUS = "all_minus"
    CAPPED = "capped"


@dataclass(frozen=True)
class Strategy:
    """Strategy kind plus the forgiveness parameter p.

    p is the probability of cooperating after mutual defection.  The plain
    Pavlov strategy is the deterministic p = 1 case and is stored as such.
    """

    kind: StrategyKind
    p: float

    def __post_init__(self) -> None:
        # A plain string would skip the pavlov check below; frozen, so set directly.
        object.__setattr__(self, "kind", StrategyKind(self.kind))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.kind is StrategyKind.PAVLOV and self.p != 1.0:
            raise ValueError("pavlov is the p = 1 strategy; use rp/srp for p < 1")

    @classmethod
    def pavlov(cls) -> "Strategy":
        return cls(StrategyKind.PAVLOV, 1.0)

    @classmethod
    def rp(cls, p: float) -> "Strategy":
        return cls(StrategyKind.RP, p)

    @classmethod
    def srp(cls, p: float) -> "Strategy":
        return cls(StrategyKind.SRP, p)


# ---------------------------------------------------------------------------
# initial conditions


@dataclass(frozen=True)
class AllDefect:
    pass


@dataclass(frozen=True)
class AllCooperate:
    pass


@dataclass(frozen=True)
class SingleDefector:
    position: int = 0


@dataclass(frozen=True)
class Bernoulli:
    """Each site independently starts as a defector with probability q."""

    q: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")


@dataclass(frozen=True)
class Explicit:
    states: tuple[int, ...]


InitConfig = AllDefect | AllCooperate | SingleDefector | Bernoulli | Explicit


class _Stream:
    """One stream of the randomness contract: a refill buffer and a cursor.

    Stream 0 refills with edge indices in [0, n), stream 1 with uniforms,
    ``_BUF`` values per numpy call.  The stream's seed, built directly as the
    child ``SeedSequence(seed).spawn(2)[stream]``, and its PCG64 generator
    are built at the first refill, so a state that never steps pays for
    neither.  The buffer holds the values from the cursor on; values before
    the cursor are consumed.
    """

    __slots__ = ("_seed", "_stream", "_n", "_rng", "_buf", "_pos")

    def __init__(self, seed: int, stream: int, n: int) -> None:
        self._seed = seed
        self._stream = stream
        self._n = n
        self._rng: np.random.Generator | None = None
        self._buf = _EMPTY
        self._pos = 0

    def _refill(self) -> np.ndarray:
        if self._rng is None:
            child = np.random.SeedSequence(self._seed, spawn_key=(self._stream,))
            self._rng = np.random.Generator(np.random.PCG64(child))
        if self._stream == 0:
            return self._rng.integers(0, self._n, size=_BUF)
        return self._rng.random(_BUF)

    def window(self, k: int) -> np.ndarray:
        """The next k values in contract order, drawing refills as needed but consuming none."""
        pos = self._pos
        short = pos + k - len(self._buf)
        if short > 0:
            parts = [self._refill() for _ in range(-(-short // _BUF))]
            if pos < len(self._buf):
                parts.insert(0, self._buf[pos:])
            self._buf = parts[0] if len(parts) == 1 else np.concatenate(parts)
            self._pos = pos = 0
        return self._buf[pos : pos + k]

    def consume(self, k: int) -> None:
        """Move the cursor past the first k values of the last window."""
        self._pos += k

    def __iter__(self) -> _Stream:
        return self

    def __next__(self) -> int | float:
        """The next value as a plain ``int`` or ``float``, consumed."""
        pos = self._pos
        if pos == len(self._buf):
            self._buf = self._refill()
            pos = 0
        self._pos = pos + 1
        return self._buf.item(pos)


class CycleState:
    """Mutable state of one run: the +-1 vector plus cached bookkeeping.

    minus_count always equals the number of -1 entries in ``states``.  A
    state is confined to one worker at a time; distinct states may run in
    parallel freely.  ``_edges`` and ``_uniforms`` are its two streams; a
    state that never steps draws no refill and builds no ``SeedSequence``.
    """

    __slots__ = ("n", "states", "minus_count", "step_count", "_edges", "_uniforms")

    def __init__(self, n: int, states: list[int], seed: int) -> None:
        self.n = n
        self.states = states
        self.minus_count = states.count(-1)
        self.step_count = 0
        seed = operator.index(seed)  # checked at once; the streams start lazily
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self._edges = _Stream(seed, 0, n)
        self._uniforms = _Stream(seed, 1, n)

    def cooperator_fraction(self) -> float:
        return (self.n - self.minus_count) / self.n


def new_state(n: int, init: InitConfig, seed: int) -> CycleState:
    """Build a seeded state; identical (n, init, seed) give identical states."""
    if n < 3:
        raise ValueError(f"need n >= 3 players on the cycle, got {n}")
    if n > sys.maxsize:  # a list of n entries could not even be indexed
        raise ValueError(f"n = {n} does not fit an index-sized integer")
    if isinstance(init, AllDefect):
        states = [-1] * n
    elif isinstance(init, AllCooperate):
        states = [1] * n
    elif isinstance(init, SingleDefector):
        states = [1] * n
        states[init.position % n] = -1
    elif isinstance(init, Explicit):
        if len(init.states) != n:
            raise ValueError(
                f"explicit initial state has length {len(init.states)}, expected {n}"
            )
        if not set(init.states) <= {-1, 1}:
            raise ValueError("explicit initial state must consist of +-1 entries")
        states = list(init.states)
    elif isinstance(init, Bernoulli):
        states = [1] * n
    else:
        raise ValueError(f"unknown initial condition {init!r}")
    state = CycleState(n, states, seed)
    if isinstance(init, Bernoulli):
        # site i defects when the i-th uniform is below q, as n draws would decide
        defects = state._uniforms.window(n) < init.q
        state._uniforms.consume(n)
        state.states = np.where(defects, -1, 1).tolist()
        state.minus_count = int(np.count_nonzero(defects))
    return state


# ---------------------------------------------------------------------------
# single-edge update


def uniforms_drawn(left: int, right: int, strategy: Strategy) -> int:
    """Uniforms one update of the pair draws under the randomness contract.

    Zero unless both endpoints defect; then one under srp and two under
    rp/pavlov, left endpoint first.
    """
    if left == 1 or right == 1:
        return 0
    return 1 if strategy.kind is StrategyKind.SRP else 2


def edge_transition(
    left: int, right: int, strategy: Strategy, *uniforms: float
) -> tuple[int, int]:
    """New (left, right) pair after the edge plays one round.

    Pure function: all randomness enters through the uniforms, of which it
    reads the first uniforms_drawn(left, right, strategy) and ignores the rest.
    """
    if left == 1 or right == 1:
        return (1, 1) if left == right else (-1, -1)
    p = strategy.p
    if strategy.kind is StrategyKind.SRP:
        return (1, 1) if uniforms[0] < p else (-1, -1)
    return (1 if uniforms[0] < p else -1, 1 if uniforms[1] < p else -1)


def transition_branches(
    pair: tuple[int, int], strategy: Strategy
) -> list[tuple[tuple[int, int], float]]:
    """Every (new_pair, probability) the edge can move to in one round.

    Enumerates edge_transition with each drawn uniform either below p
    (weight p) or not (weight 1 - p), the stand-ins -1.0 and 1.0 deciding
    u < p alike for every p in [0, 1]; weights multiply in draw order.  A
    (-,-) pair lists all of its branches, zero-probability ones included, so
    the list's shape depends only on the strategy kind.
    """
    p = strategy.p
    outcomes = ((-1.0, p), (1.0, 1.0 - p))  # (stand-in uniform, its weight)
    return [
        (
            edge_transition(*pair, strategy, *(u for u, _ in draws)),
            math.prod((weight for _, weight in draws), start=1.0),
        )
        for draws in itertools.product(outcomes, repeat=uniforms_drawn(*pair, strategy))
    ]


@dataclass(frozen=True)
class StepOutcome:
    edge: int
    old_pair: tuple[int, int]
    new_pair: tuple[int, int]


def step(state: CycleState, strategy: Strategy) -> StepOutcome:
    """Advance the state by one uniformly chosen edge update."""
    n = state.n
    i = next(state._edges)
    j = i + 1
    if j == n:
        j = 0
    states = state.states
    a = states[i]
    b = states[j]
    uniforms = itertools.islice(state._uniforms, uniforms_drawn(a, b, strategy))
    na, nb = edge_transition(a, b, strategy, *uniforms)
    if na != a:
        states[i] = na
        state.minus_count += (a - na) // 2
    if nb != b:
        states[j] = nb
        state.minus_count += (b - nb) // 2
    state.step_count += 1
    return StepOutcome(edge=i, old_pair=(a, b), new_pair=(na, nb))


def advance(state: CycleState, strategy: Strategy, step_budget: int) -> Outcome | None:
    """Run at most step_budget further steps.

    Returns the absorbing outcome reached (all-plus always terminates; at
    p = 0 all-minus does too) or None if the budget ran out first.  The state
    is mutated in place and consumes randomness exactly as repeated step()
    calls would, so a budget <= 0 or an absorbed state consumes nothing.
    Absorption is tested before the loop and then only where minus_count
    changes: all-plus after a (-,-) edge fully cooperates, all-minus after
    a defection.

    The loop runs in chunks of at most ``_CHUNK`` picks.  A chunk iterates a
    list of the next picks and reads each (-,-) update's u < p tests from
    bytes compared in numpy: one flag per uniform under srp, and under rp
    one code per pair of uniforms, bit 0 for the left endpoint and bit 1 for
    the right.  The steps taken and the draws consumed are what the two
    iterators report as left over, so the cursors move by exactly that.
    """
    p = strategy.p
    n = state.n
    # minus_count reaches this only when all-minus absorbs, i.e. only at p = 0
    all_minus = n if p == 0.0 else n + 1
    mc = state.minus_count
    if mc == 0:
        return Outcome.ALL_PLUS
    if mc == all_minus:
        return Outcome.ALL_MINUS
    srp = strategy.kind is StrategyKind.SRP
    per_update = 1 if srp else 2
    states = state.states
    last = n - 1
    edges, uniforms = state._edges, state._uniforms
    outcome: Outcome | None = None
    budget = step_budget
    while budget > 0 and outcome is None:
        take = min(budget, _CHUNK)
        picks = iter(edges.window(take).tolist())
        below = (uniforms.window(per_update * take) < p).view(np.uint8)
        if not srp:
            below = below[0::2] | (below[1::2] << 1)
        draws = iter(below.tobytes())
        next_draw = draws.__next__
        for i in picks:
            j = 0 if i == last else i + 1
            a = states[i]
            if a != states[j]:  # mixed edge: the cooperator defects
                states[i] = states[j] = -1
                mc += 1
                if mc == all_minus:
                    outcome = Outcome.ALL_MINUS
                    break
            elif a == 1:  # (+,+) edge: a null pick
                continue
            # (-,-) edge: the u < p tests of its uniforms, in the documented order
            elif srp:
                if next_draw():
                    states[i] = states[j] = 1
                    mc -= 2
                    if mc == 0:
                        outcome = Outcome.ALL_PLUS
                        break
            else:
                code = next_draw()
                if code:
                    if code == 3:
                        states[i] = states[j] = 1
                        mc -= 2
                        if mc == 0:
                            outcome = Outcome.ALL_PLUS
                            break
                    elif code == 1:
                        states[i] = 1
                        mc -= 1
                    else:
                        states[j] = 1
                        mc -= 1
        taken = take - operator.length_hint(picks)
        edges.consume(taken)
        uniforms.consume(per_update * (len(below) - operator.length_hint(draws)))
        state.step_count += taken
        budget -= taken

    state.minus_count = mc
    return outcome


@dataclass(frozen=True)
class RunResult:
    steps_taken: int
    outcome: Outcome
    cooperator_fraction: float


def run_until_absorbed(
    n: int,
    init: InitConfig,
    strategy: Strategy,
    seed: int,
    max_steps: int,
) -> RunResult:
    """Play from the given initial condition until absorption or the cap."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    state = new_state(n, init, seed)
    outcome = advance(state, strategy, max_steps)
    return RunResult(
        steps_taken=state.step_count,
        outcome=outcome if outcome is not None else Outcome.CAPPED,
        cooperator_fraction=state.cooperator_fraction(),
    )


# ---------------------------------------------------------------------------
# run structure


def run_lengths(states: Sequence[int]) -> tuple[int, int, list[int]]:
    """The cycle's maximal runs from one scan of its boundaries.

    Returns (start, sign, lengths).  start is the first boundary, the
    lowest i with states[i] != states[i - 1], and sign is the state there.
    lengths lists every run from start around the cycle: signs alternate
    from one run to the next, and the last run wraps past n - 1.  A uniform
    cycle is the one run (0, states[0], [n]).
    """
    n = len(states)
    # states[i - 1] for every i, in order: a boundary is where the two differ
    starts = list(itertools.compress(range(n), map(operator.ne, states, [states[-1], *states])))
    if not starts:
        return 0, states[0], [n]
    first = starts[0]
    ends = starts[1:]
    ends.append(first + n)
    return first, states[first], list(map(operator.sub, ends, starts))

