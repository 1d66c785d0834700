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
built, and a stream builds its seed and generator only at its first draw.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

_BUF = 8192


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


def _draws(seed: int, stream: int, n: int) -> Iterator[memoryview]:
    """One stream of the randomness contract, as ``_BUF``-value refills.

    Stream 0 refills with edge indices in [0, n), stream 1 with uniforms.
    The stream's seed and PCG64 generator are built at its first draw, so a
    state that never steps pays for neither.  The seed is built directly as
    the child ``SeedSequence(seed).spawn(2)[stream]``, never spawned from a
    parent.  Each refill stays a numpy array; iterating its memoryview
    converts one value at a time to a plain ``int`` or ``float``, only when
    it is drawn.
    """
    child = np.random.SeedSequence(seed, spawn_key=(stream,))
    rng = np.random.Generator(np.random.PCG64(child))
    while True:
        yield memoryview(rng.integers(0, n, size=_BUF) if stream == 0 else rng.random(_BUF))


class CycleState:
    """Mutable state of one run: the +-1 vector plus cached bookkeeping.

    minus_count always equals the number of -1 entries in ``states``.  A
    state is confined to one worker at a time; distinct states may run in
    parallel freely.
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
        chain = itertools.chain.from_iterable
        self._edges: Iterator[int] = chain(_draws(seed, 0, n))
        self._uniforms: Iterator[float] = chain(_draws(seed, 1, n))

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
        q = init.q
        for i in range(n):
            if next(state._uniforms) < q:
                states[i] = -1
        state.minus_count = states.count(-1)
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
    calls would, so a budget <= 0 or an absorbed state draws nothing.
    Absorption is tested before the loop and then only where minus_count
    changes: all-plus after a (-,-) edge fully cooperates, all-minus after
    a defection.
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
    states = state.states
    last = n - 1
    next_uniform = state._uniforms.__next__
    outcome: Outcome | None = None
    steps = state.step_count
    for i in itertools.islice(state._edges, max(step_budget, 0)):
        steps += 1
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
        # (-,-) edge: consume uniforms in the documented order
        elif srp:
            if next_uniform() < p:
                states[i] = states[j] = 1
                mc -= 2
                if mc == 0:
                    outcome = Outcome.ALL_PLUS
                    break
        elif next_uniform() < p:
            states[i] = 1
            mc -= 1
            if next_uniform() < p:
                states[j] = 1
                mc -= 1
                if mc == 0:
                    outcome = Outcome.ALL_PLUS
                    break
        elif next_uniform() < p:
            states[j] = 1
            mc -= 1

    state.minus_count = mc
    state.step_count = steps
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


@dataclass(frozen=True)
class RunList:
    """Maximal alternating runs around the cycle, as (start, length) pairs.

    Runs are listed in increasing start order.  The uniform configurations
    carry a single pseudo-run covering the whole cycle.
    """

    plus_runs: tuple[tuple[int, int], ...]
    minus_runs: tuple[tuple[int, int], ...]
    is_all_plus: bool
    is_all_minus: bool


def runs_of(states: Sequence[int]) -> RunList:
    n = len(states)
    starts = [i for i in range(n) if states[i] != states[i - 1]]
    if not starts:
        if states[0] == 1:
            return RunList(((0, n),), (), True, False)
        return RunList((), ((0, n),), False, True)
    # Signs alternate from one run to the next; the last run wraps past n - 1.
    ends = starts[1:] + [starts[0] + n]
    runs = [(start, end - start) for start, end in zip(starts, ends)]
    if states[starts[0]] == 1:
        return RunList(tuple(runs[0::2]), tuple(runs[1::2]), False, False)
    return RunList(tuple(runs[1::2]), tuple(runs[0::2]), False, False)
