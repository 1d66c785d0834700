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
    extract_runs,
    new_state,
    run_until_absorbed,
    runs_of,
    step,
    transition_branches,
)


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


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy.rp(1.2)
    with pytest.raises(ValueError):
        Strategy(StrategyKind.PAVLOV, 0.5)
    assert Strategy.pavlov().p == 1.0


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
        assert s.check_minus_count()


def test_three_cycle_single_defector_enumeration():
    # (+,-,+): mixed edges collapse to --, the (+,+) edge leaves it unchanged
    reachable = {(-1, -1, 1), (1, -1, -1), (1, -1, 1)}
    seen = set()
    for seed in range(200):
        s = new_state(3, Explicit((1, -1, 1)), seed)
        step(s, Strategy.rp(0.5))
        seen.add(tuple(s.states))
    assert seen == reachable


def test_step_matches_advance_trajectories():
    for kind, p in [
        (StrategyKind.RP, 0.37),
        (StrategyKind.SRP, 0.37),
        (StrategyKind.RP, 0.0),
        (StrategyKind.PAVLOV, 1.0),
    ]:
        strat = Strategy(kind, p)
        a = new_state(23, AllDefect(), 99)
        b = new_state(23, AllDefect(), 99)
        advance(a, strat, 4000)
        while b.step_count < 4000:
            if b.minus_count == 0 or (p == 0.0 and b.minus_count == 23):
                break
            step(b, strat)
        assert a.states == b.states
        assert a.step_count == b.step_count


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
    r = extract_runs(new_state(7, AllDefect(), 0))
    assert r.is_all_minus and not r.is_all_plus
    assert r.minus_runs == ((0, 7),) and r.plus_runs == ()


def test_extract_runs_all_plus_pseudo_run():
    r = extract_runs(new_state(5, AllCooperate(), 0))
    assert r.is_all_plus and r.plus_runs == ((0, 5),) and r.minus_runs == ()


def test_extract_runs_wraparound():
    r = extract_runs(new_state(5, Explicit((1, -1, -1, 1, 1)), 0))
    assert r.minus_runs == ((1, 2),)
    assert r.plus_runs == ((3, 3),)


def test_extract_runs_alternating():
    r = extract_runs(new_state(4, Explicit((-1, 1, -1, 1)), 0))
    assert r.minus_runs == ((0, 1), (2, 1))
    assert r.plus_runs == ((1, 1), (3, 1))


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
    r = runs_of(states)
    n = len(states)
    if all(s == 1 for s in states):
        assert r.is_all_plus and r.plus_runs == ((0, n),)
        return
    if all(s == -1 for s in states):
        assert r.is_all_minus and r.minus_runs == ((0, n),)
        return
    ref = _reference_runs(states)
    got = sorted([(s, ln, 1) for s, ln in r.plus_runs] + [(s, ln, -1) for s, ln in r.minus_runs])
    assert got == sorted(ref)
    assert sum(ln for _, ln, _ in got) == n
    assert len(r.plus_runs) == len(r.minus_runs)
    # minus_runs lists the defector runs in increasing start order
    assert list(r.minus_runs) == [(s, ln) for s, ln, sign in sorted(ref) if sign == -1]


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
        assert s.check_minus_count()
