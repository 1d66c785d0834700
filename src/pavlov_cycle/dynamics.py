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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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


class CycleState:
    """Mutable state of one run: the +-1 vector plus cached bookkeeping.

    minus_count always equals the number of -1 entries in ``states``.  A
    state is confined to one worker at a time; distinct states may run in
    parallel freely.
    """

    __slots__ = (
        "n",
        "states",
        "minus_count",
        "step_count",
        "_edge_rng",
        "_u_rng",
        "_edge_buf",
        "_edge_pos",
        "_u_buf",
        "_u_pos",
    )

    def __init__(self, n: int, states: list[int], seed: int) -> None:
        edge_seq, u_seq = np.random.SeedSequence(seed).spawn(2)
        self.n = n
        self.states = states
        self.minus_count = states.count(-1)
        self.step_count = 0
        self._edge_rng = np.random.Generator(np.random.PCG64(edge_seq))
        self._u_rng = np.random.Generator(np.random.PCG64(u_seq))
        self._edge_buf: list[int] = []
        self._edge_pos = 0
        self._u_buf: list[float] = []
        self._u_pos = 0

    def _next_edge(self) -> int:
        if self._edge_pos >= len(self._edge_buf):
            self._edge_buf = self._edge_rng.integers(0, self.n, size=_BUF).tolist()
            self._edge_pos = 0
        i = self._edge_buf[self._edge_pos]
        self._edge_pos += 1
        return i

    def _next_uniform(self) -> float:
        if self._u_pos >= len(self._u_buf):
            self._u_buf = self._u_rng.random(_BUF).tolist()
            self._u_pos = 0
        u = self._u_buf[self._u_pos]
        self._u_pos += 1
        return u

    def cooperator_fraction(self) -> float:
        return (self.n - self.minus_count) / self.n

    def check_minus_count(self) -> bool:
        return self.minus_count == self.states.count(-1)


def new_state(n: int, init: InitConfig, seed: int) -> CycleState:
    """Build a seeded state; identical (n, init, seed) give identical states."""
    if n < 3:
        raise ValueError(f"need n >= 3 players on the cycle, got {n}")
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
        if any(s not in (-1, 1) for s in init.states):
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
            if state._next_uniform() < q:
                states[i] = -1
        state.minus_count = states.count(-1)
    return state


# ---------------------------------------------------------------------------
# single-edge update


def edge_transition(
    left: int, right: int, strategy: Strategy, u1: float, u2: float
) -> tuple[int, int]:
    """New (left, right) pair after the edge plays one round.

    Pure function: all randomness enters through the uniforms u1, u2.  Only a
    (-,-) pair reads them; srp reads u1 alone.
    """
    if left == 1:
        if right == 1:
            return (1, 1)
        return (-1, -1)
    if right == 1:
        return (-1, -1)
    p = strategy.p
    if strategy.kind is StrategyKind.SRP:
        return (1, 1) if u1 < p else (-1, -1)
    return (1 if u1 < p else -1, 1 if u2 < p else -1)


def transition_branches(
    pair: tuple[int, int], strategy: Strategy
) -> list[tuple[tuple[int, int], float]]:
    """Every (new_pair, probability) the edge can move to in one round.

    The distribution edge_transition samples when its uniforms are drawn
    as the randomness contract says.  A (-,-) pair lists all of its
    branches, zero-probability ones included, so the list's shape depends
    only on the strategy kind.
    """
    left, right = pair
    if left == 1 and right == 1:
        return [((1, 1), 1.0)]
    if left == 1 or right == 1:
        return [((-1, -1), 1.0)]
    p = strategy.p
    if strategy.kind is StrategyKind.SRP:
        return [((1, 1), p), ((-1, -1), 1.0 - p)]
    return [
        ((1, 1), p * p),
        ((1, -1), p * (1.0 - p)),
        ((-1, 1), (1.0 - p) * p),
        ((-1, -1), (1.0 - p) * (1.0 - p)),
    ]


@dataclass(frozen=True)
class StepOutcome:
    edge: int
    old_pair: tuple[int, int]
    new_pair: tuple[int, int]


def step(state: CycleState, strategy: Strategy) -> StepOutcome:
    """Advance the state by one uniformly chosen edge update."""
    n = state.n
    i = state._next_edge()
    j = i + 1
    if j == n:
        j = 0
    states = state.states
    a = states[i]
    b = states[j]
    if a == -1 and b == -1:
        u1 = state._next_uniform()
        u2 = u1 if strategy.kind is StrategyKind.SRP else state._next_uniform()
        na, nb = edge_transition(a, b, strategy, u1, u2)
    else:
        na, nb = edge_transition(a, b, strategy, 0.0, 0.0)
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
    calls would.
    """
    n = state.n
    p = strategy.p
    srp = strategy.kind is StrategyKind.SRP
    minus_absorbing = p == 0.0
    states = state.states
    mc = state.minus_count
    steps = state.step_count
    limit = steps + step_budget

    edge_buf = state._edge_buf
    epos = state._edge_pos
    u_buf = state._u_buf
    upos = state._u_pos
    edge_rng = state._edge_rng
    u_rng = state._u_rng
    outcome: Outcome | None = None

    while True:
        if mc == 0:
            outcome = Outcome.ALL_PLUS
            break
        if minus_absorbing and mc == n:
            outcome = Outcome.ALL_MINUS
            break
        if steps >= limit:
            break
        if epos >= len(edge_buf):
            edge_buf = edge_rng.integers(0, n, size=_BUF).tolist()
            epos = 0
        i = edge_buf[epos]
        epos += 1
        j = i + 1
        if j == n:
            j = 0
        a = states[i]
        if a == 1:
            if states[j] == -1:
                states[i] = -1
                mc += 1
        elif states[j] == 1:
            states[j] = -1
            mc += 1
        else:
            # (-,-) edge: consume uniforms in the documented order
            if upos >= len(u_buf):
                u_buf = u_rng.random(_BUF).tolist()
                upos = 0
            u1 = u_buf[upos]
            upos += 1
            if srp:
                if u1 < p:
                    states[i] = 1
                    states[j] = 1
                    mc -= 2
            else:
                if upos >= len(u_buf):
                    u_buf = u_rng.random(_BUF).tolist()
                    upos = 0
                u2 = u_buf[upos]
                upos += 1
                if u1 < p:
                    states[i] = 1
                    mc -= 1
                if u2 < p:
                    states[j] = 1
                    mc -= 1
        steps += 1

    state.minus_count = mc
    state.step_count = steps
    state._edge_buf = edge_buf
    state._edge_pos = epos
    state._u_buf = u_buf
    state._u_pos = upos
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


def extract_runs(state: CycleState) -> RunList:
    return runs_of(state.states)

