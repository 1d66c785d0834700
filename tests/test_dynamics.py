import itertools
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavlov_cycle.dynamics import (
    AllCooperate,
    AllDefect,
    Bernoulli,
    Explicit,
    Outcome,
    SingleDefector,
    Strategy,
    StrategyKind,
    advance,
    edge_transition,
    new_state,
    run_lengths,
    run_until_absorbed,
    step,
    transition_branches,
    uniforms_drawn,
)
from pavlov_cycle.dynamics import _BUF, _CHUNK
from pavlov_cycle.weights import build_weight_table, one_step_drift


# ---------------------------------------------------------------------------
# construction


def test_new_state_all_defect():
    s = new_state(5, AllDefect(), 1)
    assert s.states == [-1] * 5
    assert s.minus_count == 5
    assert s.step_count == 0


def test_new_state_single_defector():
    s = new_state(4, SingleDefector(2), 1)
    assert s.states == [1, 1, -1, 1]
    assert s.minus_count == 1


def test_new_state_bernoulli_degenerate():
    for seed in (0, 7, 123456):
        assert new_state(6, Bernoulli(0.0), seed).states == [1] * 6
        assert new_state(6, Bernoulli(1.0), seed).states == [-1] * 6


def test_new_state_bernoulli_is_seed_deterministic():
    a = new_state(50, Bernoulli(0.4), 99)
    b = new_state(50, Bernoulli(0.4), 99)
    assert a.states == b.states
    assert a.minus_count == a.states.count(-1)


def test_new_state_errors():
    with pytest.raises(ValueError):
        new_state(2, AllDefect(), 0)
    with pytest.raises(ValueError):
        new_state(4, Explicit((1, -1, 1)), 0)
    with pytest.raises(ValueError):
        new_state(3, Explicit((1, 0, 1)), 0)
    with pytest.raises(ValueError):
        new_state(5, AllCooperate(), -1)  # the seed is checked before any draw
    # [-1] * n raised OverflowError, which the CLI printed as a traceback;
    # 10^20 exceeds any index-sized integer, so nothing is allocated.
    for init in (AllDefect(), AllCooperate(), SingleDefector(0), Bernoulli(0.5)):
        with pytest.raises(ValueError, match="index-sized"):
            new_state(10**20, init, 0)


@pytest.mark.parametrize("seed", [1.5, None, "3", [1, 2]])
def test_new_state_rejects_a_seed_that_is_not_an_integer(seed):
    # SeedSequence would take None as "fresh OS entropy", a run no one can
    # repeat; a negative seed is rejected in test_new_state_errors
    with pytest.raises(TypeError):
        new_state(5, AllCooperate(), seed)


def _replay_streams(seed, n, count):
    """First count draws of each stream, straight from SeedSequence(seed).spawn(2)."""
    children = np.random.SeedSequence(seed).spawn(2)
    edges, uniforms = (np.random.Generator(np.random.PCG64(c)) for c in children)
    refills = -(-count // _BUF)
    return (
        np.concatenate([edges.integers(0, n, size=_BUF) for _ in range(refills)])[:count].tolist(),
        np.concatenate([uniforms.random(_BUF) for _ in range(refills)])[:count].tolist(),
    )


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**64 - 1, 2**70])
def test_streams_replay_the_spawned_seed_sequence(seed):
    n, count = 37, _BUF + 5  # past the first refill of each stream
    s = new_state(n, AllDefect(), seed)
    got = (list(itertools.islice(s._edges, count)), list(itertools.islice(s._uniforms, count)))
    assert got == _replay_streams(int(seed), n, count)


def test_drift_oracle_builds_no_seed_sequence(monkeypatch):
    real = np.random.SeedSequence
    built = []

    def counting(*args, **kwargs):
        built.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    table = build_weight_table("rp", 0.9, 1e-4, 10)
    state = new_state(10, Explicit((-1, -1, 1, -1, 1, 1, -1, -1, -1, 1)), 3)
    assert one_step_drift(state, table).satisfied
    assert built == []  # a state that never steps builds no seed
    uniform_seed = ((3,), {"spawn_key": (1,)})
    next(state._uniforms)  # the first draw of a stream builds its seed
    assert built == [uniform_seed]
    advance(state, Strategy.rp(0.3), 3 * _BUF)  # several refills of both streams
    assert built == [uniform_seed, ((3,), {"spawn_key": (0,)})]  # one per drawn stream


def test_streams_continue_across_advance_calls():
    n, seed = 37, 11
    state = new_state(n, AllDefect(), seed)
    edges = state._edges
    for budget in (100, 1, _BUF):  # the last call crosses a refill
        assert advance(state, Strategy.rp(0.3), budget) is None
        assert state._edges is edges
    assert state.step_count == _BUF + 101
    # one edge per step, then the next draw picks up where advance stopped
    assert next(state._edges) == _replay_streams(seed, n, _BUF + 102)[0][-1]
    whole = new_state(n, AllDefect(), seed)
    assert advance(whole, Strategy.rp(0.3), _BUF + 101) is None
    assert whole.states == state.states and next(whole._uniforms) == next(state._uniforms)


@pytest.mark.parametrize("n", [100, 10_000])
def test_streams_hand_out_plain_python_numbers(n):
    # numpy scalars would make every comparison in advance slow; the draws
    # just past the first buffer come from a refill
    s = new_state(n, AllDefect(), 5)
    for stream, kind in ((s._edges, int), (s._uniforms, float)):
        assert type(next(stream)) is kind
        assert {type(v) for v in itertools.islice(stream, _BUF)} == {kind}
        assert type(next(stream)) is kind


@pytest.mark.parametrize("n", [3, 37, _BUF + 3])
def test_bernoulli_start_matches_per_site_draws(n):
    # the start compares a window of n uniforms at once; it must defect
    # exactly where per-site draws would and leave the cursor just past them
    seed, q = 8, 0.4
    _, uniforms = _replay_streams(seed, n, n + 3)
    per_site = new_state(n, AllCooperate(), seed)
    want = [-1 if next(per_site._uniforms) < q else 1 for _ in range(n)]
    assert want == [-1 if u < q else 1 for u in uniforms[:n]]
    s = new_state(n, Bernoulli(q), seed)
    assert s.states == want and {type(x) for x in s.states} == {int}
    assert s.minus_count == want.count(-1)
    assert [next(s._uniforms) for _ in range(3)] == uniforms[n:]
    assert next(s._edges) == _replay_streams(seed, n, 1)[0][0]


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy.rp(1.2)
    with pytest.raises(ValueError):
        Strategy(StrategyKind.PAVLOV, 0.5)
    assert Strategy.pavlov().p == 1.0


def test_strategy_converts_kind():
    # a plain string used to skip the pavlov check
    with pytest.raises(ValueError, match="pavlov is the p = 1 strategy"):
        Strategy("pavlov", 0.5)
    with pytest.raises(ValueError):
        Strategy("tit-for-tat", 0.5)
    assert Strategy("srp", 0.5) == Strategy.srp(0.5)
    assert Strategy("srp", 0.5).kind is StrategyKind.SRP


# ---------------------------------------------------------------------------
# edge transitions


def test_edge_transition_deterministic_pairs():
    rp = Strategy.rp(0.3)
    assert edge_transition(1, 1, rp, 0.0, 0.0) == (1, 1)
    assert edge_transition(-1, 1, rp, 0.0, 0.0) == (-1, -1)
    assert edge_transition(1, -1, rp, 0.0, 0.0) == (-1, -1)


def test_edge_transition_rp_branches():
    rp = Strategy.rp(0.9)
    assert edge_transition(-1, -1, rp, 0.5, 0.95) == (1, -1)
    assert edge_transition(-1, -1, rp, 0.95, 0.5) == (-1, 1)
    assert edge_transition(-1, -1, rp, 0.1, 0.2) == (1, 1)
    assert edge_transition(-1, -1, rp, 0.95, 0.99) == (-1, -1)


def test_edge_transition_srp_joint():
    srp = Strategy.srp(0.9)
    assert edge_transition(-1, -1, srp, 0.5, 0.99) == (1, 1)
    assert edge_transition(-1, -1, srp, 0.95, 0.0) == (-1, -1)


def test_edge_transition_p0_self_loop():
    for strat in (Strategy.rp(0.0), Strategy.srp(0.0)):
        assert edge_transition(-1, -1, strat, 0.999, 0.999) == (-1, -1)


def test_edge_transition_p1_always_cooperates():
    for strat in (Strategy.rp(1.0), Strategy.srp(1.0), Strategy.pavlov()):
        assert edge_transition(-1, -1, strat, 0.9999999, 0.9999999) == (1, 1)


BRANCH_STRATEGIES = [Strategy.pavlov()] + [
    make(p) for make in (Strategy.rp, Strategy.srp) for p in (0.0, 0.25, 0.5, 0.75, 1.0)
]


@pytest.mark.parametrize("strat", BRANCH_STRATEGIES, ids=lambda s: f"{s.kind.value}-{s.p}")
def test_transition_branches_match_edge_transition(strat):
    # On a midpoint grid of 8 x 8 uniform pairs, u < p holds for exactly a
    # fraction p of each coordinate when p is a multiple of 1/4, so every
    # branch's share of the grid equals its probability exactly.
    grid = [(k + 0.5) / 8 for k in range(8)]
    for pair in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        branches = transition_branches(pair, strat)
        assert sum(prob for _, prob in branches) == pytest.approx(1.0, abs=1e-15)
        assert len({new for new, _ in branches}) == len(branches)
        counts = dict.fromkeys((new for new, _ in branches), 0)
        for u1 in grid:
            for u2 in grid:
                counts[edge_transition(*pair, strat, u1, u2)] += 1
        for new, prob in branches:
            assert counts[new] / 64 == pytest.approx(prob, abs=1e-15), (pair, new)


@pytest.mark.parametrize(
    "strat",
    [make(p) for make in (Strategy.rp, Strategy.srp) for p in (0.0, 0.3, 0.87, 1.0 - 2.0**-53, 1.0)]
    + [Strategy.pavlov()],
    ids=lambda s: f"{s.kind.value}-{s.p!r}",
)
def test_transition_branches_bit_for_bit(strat):
    # The enumeration of edge_transition must give exactly the floats of the
    # closed-form table, weights multiplied in draw order.
    p = strat.p
    if strat.kind is StrategyKind.SRP:
        mm = [((1, 1), p), ((-1, -1), 1.0 - p)]
    else:
        mm = [
            ((1, 1), p * p),
            ((1, -1), p * (1.0 - p)),
            ((-1, 1), (1.0 - p) * p),
            ((-1, -1), (1.0 - p) * (1.0 - p)),
        ]
    expected = {
        (1, 1): [((1, 1), 1.0)],
        (1, -1): [((-1, -1), 1.0)],
        (-1, 1): [((-1, -1), 1.0)],
        (-1, -1): mm,
    }
    for pair, branches in expected.items():
        got = transition_branches(pair, strat)
        assert [(new, prob.hex()) for new, prob in got] == [
            (new, prob.hex()) for new, prob in branches
        ], pair


@pytest.mark.parametrize(
    "strat", [Strategy.rp(0.37), Strategy.srp(0.37), Strategy.pavlov()], ids=["rp", "srp", "pavlov"]
)
@pytest.mark.parametrize(
    "states",
    [(-1, -1, -1), (1, -1, 1, -1), (1, 1, 1)],  # every edge (-,-), mixed, (+,+)
    ids=["minus-minus", "mixed", "plus-plus"],
)
def test_step_draws_uniforms_drawn(strat, states):
    # After one step the next uniform must be the one an independent replay
    # of stream 1 puts right after the uniforms_drawn count.
    seed = 11
    replay = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[1]))
    uniforms = replay.random(_BUF).tolist()
    s = new_state(len(states), Explicit(states), seed)
    out = step(s, strat)
    drawn = uniforms_drawn(*out.old_pair, strat)
    assert drawn == (0 if 1 in states else 1 if strat.kind is StrategyKind.SRP else 2)
    assert next(s._uniforms) == uniforms[drawn]


def test_rp_branch_frequencies():
    # >= 1e5 draws on a (-,-) edge, each branch within 4 standard errors
    p = 0.6
    rp = Strategy.rp(p)
    rng = np.random.default_rng(1234)
    n_draws = 100_000
    u = rng.random((n_draws, 2))
    counts = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
    for u1, u2 in u:
        counts[edge_transition(-1, -1, rp, u1, u2)] += 1
    expected = {
        (1, 1): p * p,
        (1, -1): p * (1 - p),
        (-1, 1): (1 - p) * p,
        (-1, -1): (1 - p) * (1 - p),
    }
    for pair, prob in expected.items():
        se = (prob * (1 - prob) / n_draws) ** 0.5
        assert abs(counts[pair] / n_draws - prob) < 4 * se, pair


def test_srp_branch_frequencies():
    p = 0.6
    srp = Strategy.srp(p)
    rng = np.random.default_rng(4321)
    n_draws = 100_000
    coop = 0
    for u1 in rng.random(n_draws):
        out = edge_transition(-1, -1, srp, u1, 0.0)
        assert out in ((1, 1), (-1, -1))
        coop += out == (1, 1)
    se = (p * (1 - p) / n_draws) ** 0.5
    assert abs(coop / n_draws - p) < 4 * se


# ---------------------------------------------------------------------------
# stepping


def test_step_all_plus_is_absorbing():
    s = new_state(12, AllCooperate(), 3)
    for strat in (Strategy.rp(0.4), Strategy.srp(0.9), Strategy.pavlov()):
        for _ in range(200):
            step(s, strat)
    assert s.states == [1] * 12
    assert s.minus_count == 0


def test_absorption_invariant_long():
    # 1e4 steps leave the all-plus state bit identical
    s = new_state(8, AllCooperate(), 5)
    before = list(s.states)
    for _ in range(10_000):
        step(s, Strategy.rp(0.7))
    assert s.states == before


def test_step_all_minus_absorbing_at_p0():
    s = new_state(9, AllDefect(), 2)
    for _ in range(500):
        step(s, Strategy.rp(0.0))
    assert s.states == [-1] * 9


def test_step_locality_and_conservation():
    s = new_state(17, Bernoulli(0.5), 10)
    strat = Strategy.rp(0.45)
    for _ in range(2000):
        before = list(s.states)
        out = step(s, strat)
        i, j = out.edge, (out.edge + 1) % 17
        for k in range(17):
            if k not in (i, j):
                assert s.states[k] == before[k]
        assert (s.states[i], s.states[j]) == out.new_pair
        assert (before[i], before[j]) == out.old_pair
        assert s.minus_count == s.states.count(-1)


def test_three_cycle_single_defector_enumeration():
    # (+,-,+): mixed edges collapse to --, the (+,+) edge leaves it unchanged
    reachable = {(-1, -1, 1), (1, -1, -1), (1, -1, 1)}
    seen = set()
    for seed in range(200):
        s = new_state(3, Explicit((1, -1, 1)), seed)
        step(s, Strategy.rp(0.5))
        seen.add(tuple(s.states))
    assert seen == reachable


def _absorbed(state, strat):
    """The outcome advance reports for a state it cannot move: all-plus, or all-minus at p = 0."""
    if state.minus_count == 0:
        return Outcome.ALL_PLUS
    if strat.p == 0.0 and state.minus_count == state.n:
        return Outcome.ALL_MINUS
    return None


def _steps_drawing(state, strat, budget):
    """step() at most ``budget`` times, stopping where advance stops; uniforms drawn."""
    drawn = 0
    for _ in range(budget):
        if _absorbed(state, strat):
            break
        drawn += uniforms_drawn(*step(state, strat).old_pair, strat)
    return drawn


def _step_until_absorbed(state, strat, budget):
    """step() at most ``budget`` times, stopping where advance stops; its outcome."""
    _steps_drawing(state, strat, budget)
    return _absorbed(state, strat)


TRAJECTORY_STARTS = {
    "all-defect": (23, AllDefect()),  # already absorbed at p = 0
    "all-cooperate": (23, AllCooperate()),  # already absorbed for every strategy
    "bernoulli": (12, Bernoulli(0.5)),  # absorbs within 5617 steps for every strategy below
}


@pytest.mark.parametrize(
    "start, budget",
    [(start, budget) for start in TRAJECTORY_STARTS for budget in (0, -1, 1, 4000)]
    + [("bernoulli", "absorbing"), ("bernoulli", "past")],
)
@pytest.mark.parametrize(
    "strat",
    [Strategy.rp(0.37), Strategy.srp(0.37), Strategy.pavlov(), Strategy.rp(0.0), Strategy.srp(0.0)],
    ids=["rp", "srp", "pavlov", "rp-p0", "srp-p0"],
)
def test_step_matches_advance_trajectories(strat, start, budget):
    # advance must stop exactly where a step() replay stops, with the same
    # outcome, and must draw nothing more: the next value of each stream agrees.
    n, init = TRAJECTORY_STARTS[start]
    if budget in ("absorbing", "past"):
        probe = new_state(n, init, 99)
        assert _step_until_absorbed(probe, strat, 10**5) is not None
        budget = probe.step_count + (budget == "past")
    a = new_state(n, init, 99)
    b = new_state(n, init, 99)
    outcome = advance(a, strat, budget)
    assert outcome is _step_until_absorbed(b, strat, budget)
    assert (a.states, a.step_count, a.minus_count) == (b.states, b.step_count, b.minus_count)
    assert next(a._edges) == next(b._edges)
    assert next(a._uniforms) == next(b._uniforms)


def _contract_replay(n, q, strategy, seed, steps):
    """Final states, and uniforms drawn, after a Bernoulli(q) start and ``steps`` updates.

    Draws straight from the randomness contract's two PCG64 streams, each
    refilled ``_BUF`` values at a time, independently of CycleState.
    """
    edge_rng, u_rng = (
        np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(2)
    )
    edges = (i for _ in itertools.count() for i in edge_rng.integers(0, n, size=_BUF).tolist())
    uniforms = (u for _ in itertools.count() for u in u_rng.random(_BUF).tolist())
    states = [-1 if next(uniforms) < q else 1 for _ in range(n)]
    drawn = n
    for _ in range(steps):
        i = next(edges)
        j = (i + 1) % n
        u1 = u2 = 0.0
        if states[i] == states[j] == -1:
            u1 = u2 = next(uniforms)
            drawn += 1
            if strategy.kind is not StrategyKind.SRP:
                u2 = next(uniforms)
                drawn += 1
        states[i], states[j] = edge_transition(states[i], states[j], strategy, u1, u2)
    return states, drawn


@pytest.mark.parametrize(
    "strat",
    [Strategy.rp(0.37), Strategy.srp(0.37), Strategy.pavlov(), Strategy.rp(0.0)],
    ids=["rp", "srp", "pavlov", "rp-p0"],
)
def test_step_matches_advance_across_refills(strat):
    # Budgets that do not divide the buffer size, then plain steps, so both
    # streams refill mid-advance and mid-step.  The replay catches a draw
    # skipped or repeated at a refill, which step and advance would share.
    n, q, seed = 20000, 0.9, 2024
    a = new_state(n, Bernoulli(q), seed)
    b = new_state(n, Bernoulli(q), seed)
    for budget in (7001, 9011, 12007, 8191):
        advance(a, strat, budget)
        limit = b.step_count + budget
        while b.step_count < limit and b.minus_count and not (strat.p == 0.0 and b.minus_count == n):
            step(b, strat)
        assert (a.states, a.step_count, a.minus_count) == (b.states, b.step_count, b.minus_count)
    for _ in range(6000):
        step(a, strat)
        step(b, strat)
    assert (a.states, a.step_count, a.minus_count) == (b.states, b.step_count, b.minus_count)
    states, uniforms = _contract_replay(n, q, strat, seed, b.step_count)
    assert states == b.states
    assert b.minus_count == states.count(-1)
    assert b.step_count > 3 * _BUF and uniforms > 3 * _BUF  # three refills of each stream


def _next_three(state):
    return [next(state._edges) for _ in range(3)], [next(state._uniforms) for _ in range(3)]


CHUNK_STRATEGIES = [make(p) for make in (Strategy.rp, Strategy.srp) for p in (0.0, 0.3, 1.0)]


@pytest.mark.parametrize(
    "budget", [_CHUNK - 1, _CHUNK, _CHUNK + 1, _BUF - 1, _BUF + 1, 3 * _BUF + 7]
)
@pytest.mark.parametrize("strat", CHUNK_STRATEGIES, ids=lambda s: f"{s.kind.value}-{s.p}")
def test_advance_chunks_match_step_and_replay(strat, budget):
    # Two advance calls against a step() loop, the second starting where the
    # first and three more draws left each stream's cursor.  None of these
    # runs absorbs within its budgets, so every chunk takes all of its picks.
    # After each call the next three draws of each stream, of both states,
    # are the replay's values at the counted positions.
    n, q, seed = 20000, 0.9, 17
    a = new_state(n, Bernoulli(q), seed)
    b = new_state(n, Bernoulli(q), seed)
    edges, uniforms = _replay_streams(seed, n, n + 4 * budget + 6)
    used_edges, used_uniforms = 0, n
    for _ in range(2):
        assert advance(a, strat, budget) is None
        drawn = _steps_drawing(b, strat, budget)
        assert (a.states, a.step_count, a.minus_count) == (b.states, b.step_count, b.minus_count)
        used_edges += budget
        used_uniforms += drawn
        want = (edges[used_edges : used_edges + 3], uniforms[used_uniforms : used_uniforms + 3])
        assert _next_three(a) == want == _next_three(b)
        used_edges += 3
        used_uniforms += 3


@pytest.mark.parametrize(
    "strat, n",
    [(Strategy.rp(0.6), 60), (Strategy.srp(0.45), 100), (Strategy.rp(0.0), 2000), (Strategy.srp(0.0), 2000)],
    ids=["rp", "srp", "rp-p0", "srp-p0"],
)
def test_advance_absorbs_inside_a_later_chunk(strat, n):
    # absorption past the first chunk and off a chunk boundary; the cursors
    # stop at the absorbing step, where a step() run and the replay stop
    seed = 5
    b = new_state(n, Bernoulli(0.5), seed)
    drawn = _steps_drawing(b, strat, 10**6)
    absorbed_at = b.step_count
    outcome = _absorbed(b, strat)
    assert outcome is not None and absorbed_at > _CHUNK and absorbed_at % _CHUNK
    a = new_state(n, Bernoulli(0.5), seed)
    assert advance(a, strat, 10 * absorbed_at) is outcome
    assert (a.states, a.step_count, a.minus_count) == (b.states, absorbed_at, b.minus_count)
    used_uniforms = n + drawn
    edges, uniforms = _replay_streams(seed, n, max(absorbed_at, used_uniforms) + 3)
    want = (edges[absorbed_at : absorbed_at + 3], uniforms[used_uniforms : used_uniforms + 3])
    assert _next_three(a) == want == _next_three(b)


# ---------------------------------------------------------------------------
# full runs


def test_run_starts_absorbed():
    r = run_until_absorbed(10, AllCooperate(), Strategy.rp(0.5), 0, 1000)
    assert r == type(r)(steps_taken=0, outcome=Outcome.ALL_PLUS, cooperator_fraction=1.0)


def test_run_all_defect_p0_absorbs_immediately():
    r = run_until_absorbed(10, AllDefect(), Strategy.rp(0.0), 0, 1000)
    assert r.steps_taken == 0
    assert r.outcome is Outcome.ALL_MINUS
    assert r.cooperator_fraction == 0.0


def test_defection_time_mean_single_defector():
    # sum of n-1 geometrics with success 2/n: mean n(n-1)/2 = 190 at n = 20
    n, reps = 20, 300
    times = [
        run_until_absorbed(n, SingleDefector(0), Strategy.rp(0.0), 1000 + i, 10**6).steps_taken
        for i in range(reps)
    ]
    mean = statistics.mean(times)
    sigma_mean = ((n - 1) * n * (n - 2) / 4 / reps) ** 0.5
    assert abs(mean - 190.0) < 5 * sigma_mean


def test_capped_run_reports_fraction():
    r = run_until_absorbed(50, AllDefect(), Strategy.rp(0.2), 7, 200_000)
    assert r.outcome is Outcome.CAPPED
    assert r.steps_taken == 200_000
    assert 0.05 < r.cooperator_fraction < 0.35


def test_identical_seeds_identical_runs():
    a = run_until_absorbed(40, AllDefect(), Strategy.srp(0.5), 123, 10**5)
    b = run_until_absorbed(40, AllDefect(), Strategy.srp(0.5), 123, 10**5)
    assert a == b


# ---------------------------------------------------------------------------
# run extraction


def test_extract_runs_all_minus_pseudo_run():
    assert run_lengths(new_state(7, AllDefect(), 0).states) == (0, -1, [7])


def test_extract_runs_all_plus_pseudo_run():
    assert run_lengths(new_state(5, AllCooperate(), 0).states) == (0, 1, [5])


def test_extract_runs_wraparound():
    # defectors at 1..2, then cooperators at 3, 4 and 0 across n - 1 -> 0
    assert run_lengths(new_state(5, Explicit((1, -1, -1, 1, 1)), 0).states) == (1, -1, [2, 3])


def test_extract_runs_alternating():
    assert run_lengths(new_state(4, Explicit((-1, 1, -1, 1)), 0).states) == (0, -1, [1, 1, 1, 1])


@pytest.mark.parametrize(
    "states, want",
    [
        ((1, 1, 1), (0, 1, [3])),
        ((-1, -1, -1, -1), (0, -1, [4])),
        ((-1, -1, 1, -1, 1, 1, 1), (0, -1, [2, 1, 1, 3])),  # boundary at index 0
        ((-1, 1, 1, -1, -1), (1, 1, [2, 3])),  # the defector run wraps n - 1 -> 0
        ((1, -1, 1), (1, -1, [1, 2])),
    ],
)
def test_run_lengths_scan_from_the_first_boundary(states, want):
    assert run_lengths(states) == want
    assert run_lengths(list(states)) == want


def _reference_runs(states):
    """Quadratic reference: a run start is any index differing from its predecessor."""
    n = len(states)
    runs = []
    for i in range(n):
        if states[i] != states[i - 1]:
            length = 1
            while length < n and states[(i + length) % n] == states[i]:
                length += 1
            runs.append((i, length, states[i]))
    return runs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=40))
def test_runs_match_reference_and_invariants(states):
    start, sign, lengths = run_lengths(states)
    n = len(states)
    assert sum(lengths) == n
    if len(set(states)) == 1:
        assert (start, sign, lengths) == (0, states[0], [n])
        return
    starts = itertools.accumulate(lengths[:-1], initial=start)
    # runs in increasing start order, alternating in sign, as many of each sign
    got = list(zip(starts, lengths, itertools.cycle((sign, -sign))))
    assert got == _reference_runs(states)
    assert len(lengths) % 2 == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=30),
    st.integers(min_value=0, max_value=2**32),
)
def test_minus_count_cache_stays_consistent(states, seed):
    s = new_state(len(states), Explicit(tuple(states)), seed)
    strat = Strategy.rp(0.5)
    for _ in range(50):
        step(s, strat)
        assert s.minus_count == s.states.count(-1)
