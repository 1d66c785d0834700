import dataclasses
import itertools
import json
import math
import os
import pickle

import numpy as np
import pytest

from pavlov_cycle import _native, weights
from pavlov_cycle.dynamics import (
    AllCooperate,
    Explicit,
    Strategy,
    StrategyKind,
    new_state,
    run_lengths,
    transition_branches,
)
from pavlov_cycle.weights import (
    MARGIN_TOL,
    DriftReport,
    InfeasibleParameterError,
    NoRootError,
    WeightTable,
    build_weight_table,
    certified_cutoff,
    check_constraints,
    find_crossover,
    min_feasible_p,
    one_step_drift,
    threshold_bisect,
    weight_recurrence,
    weight_table_rows,
)

# Exact roots of the diagnostic polynomials, frozen from a rational-arithmetic
# bisection of the recurrence run symbolically over Fractions (independent of
# the float implementation under test).
EXACT_H_ROOTS = {
    4: 0.897131867213,
    5: 0.877327387054,
    6: 0.871412188209,
    7: 0.870040452126,
    8: 0.869743182532,
}
EXACT_F_ROOTS = {
    3: 0.688892182534,
    4: 0.804521516885,
    5: 0.849866828524,
    6: 0.864102649564,
    7: 0.868287186373,
}
# Published 3-decimal cutoffs: largest p with h(l) <= 0, smallest p with f(l) >= 0.
PUBLISHED_H_BOUNDS = {4: 0.897, 5: 0.877, 6: 0.871, 7: 0.870, 8: 0.869}
PUBLISHED_F_BOUNDS = {3: 0.689, 4: 0.805, 5: 0.850, 6: 0.865, 7: 0.869}


# ---------------------------------------------------------------------------
# recurrence


def test_seed_values_any_p():
    for p in (0.0, 0.3, 0.9, 1.0):
        w = weight_recurrence("rp", p, 0.0, 3)
        assert w[0] == 0.0 and w[1] == 1.0 and w[2] == 1.0


def test_omega_dents_the_pair_weight():
    w = weight_recurrence("rp", 0.9, 0.01, 2)
    assert w[2] == pytest.approx(1.0 - 0.005, abs=1e-15)


def test_third_weight_hand_value():
    w = weight_recurrence("rp", 0.9, 0.0, 3)
    assert w[3] == pytest.approx(1.405, abs=1e-12)  # 1 + p^2/2


def test_p1_increments():
    # at p = 1: w2 = 1 and the next increments are 1/2 each
    w = weight_recurrence("rp", 1.0, 0.0, 5)
    assert w[2] == 1.0
    assert w[4] - w[3] == pytest.approx(0.5, abs=1e-15)


def _f_polys():
    return {
        0: lambda p: 1.0,
        1: lambda p: 0.0,
        2: lambda p: 0.5 * p**2,
        3: lambda p: -p + p**2 + p**3 - 0.5 * p**4,
        4: lambda p: -2 * p - 1.5 * p**2 + 5.5 * p**3 + 1.25 * p**4 - 3 * p**5 + 0.75 * p**6,
    }


def test_increments_match_polynomials_at_random_p():
    rng = np.random.default_rng(7)
    polys = _f_polys()
    for p in rng.random(20):
        w = weight_recurrence("rp", float(p), 0.0, 6)
        for ell, poly in polys.items():
            assert w[ell + 1] - w[ell] == pytest.approx(poly(p), abs=1e-12), (ell, p)


def test_ratio_differences_match_polynomials_at_random_p():
    rng = np.random.default_rng(8)
    for p in rng.random(20):
        w = weight_recurrence("rp", float(p), 0.0, 5)
        h2 = w[3] / 3 - w[2] / 2
        h3 = w[4] / 4 - w[3] / 3
        assert h2 == pytest.approx(-1 / 6 + p**2 / 6, abs=1e-12)
        assert h3 == pytest.approx(
            -1 / 12 - p / 4 + 5 / 24 * p**2 + p**3 / 4 - p**4 / 8, abs=1e-12
        )


def test_recurrence_validation():
    with pytest.raises(ValueError):
        weight_recurrence("rp", 1.5, 0.0, 5)
    with pytest.raises(ValueError):
        weight_recurrence("rp", 0.5, -1.0, 5)
    for omega in (math.nan, math.inf):  # nan used to pass the omega < 0 check
        with pytest.raises(ValueError, match="finite"):
            weight_recurrence("rp", 0.5, omega, 5)


# ---------------------------------------------------------------------------
# crossover detection


def test_crossover_at_the_proven_boundary():
    ell, slope = find_crossover("rp", 0.870)
    assert ell == 8
    w = weight_recurrence("rp", 0.870, 0.0, 8)
    assert slope == pytest.approx(w[8] / 8, abs=1e-15)


def test_crossover_p1_ties_count_as_decreasing():
    assert find_crossover("rp", 1.0) == (4, 0.5)


def test_no_crossover_below_threshold():
    assert find_crossover("rp", 0.5) is None
    assert find_crossover("rp", 0.869) is None
    assert find_crossover("rp", 0.0) is None


def test_crossover_bounded_by_eight_in_fast_region():
    for k in range(0, 131, 10):
        p = round(0.870 + 0.001 * k, 3)
        found = find_crossover("rp", p)
        assert found is not None and found[0] <= 8, p


def _full_recurrence(kind, p, omega, l_max):
    """w[0..l_max] built as one list, the way the recurrence was before it stopped early."""
    # pavlov, the p = 1 strategy, takes the rp recurrence
    kind = StrategyKind.RP if kind == "pavlov" else StrategyKind(kind)
    w = [0.0, 1.0]
    if l_max < 1:
        return w[: l_max + 1]
    if l_max >= 2:
        w.append((1.0 - 0.5 * omega) * w[1])
    prefix = w[0]
    if kind is StrategyKind.RP:
        a, b, c = p * (2.0 - p), p * (1.0 - p), p * p - 2.0 * p
        for ell in range(2, l_max):
            w.append(-a * prefix - b * w[ell - 1] - 0.5 * (ell * c - (c + 2.0) + omega) * w[ell])
            prefix += w[ell - 1]
    else:
        for ell in range(2, l_max):
            w.append(-p * prefix + 0.5 * (p * ell - p + 2.0 - omega) * w[ell])
            prefix += w[ell - 1]
    return w


def _full_scan(kind, p, omega):
    """(crossover and slope or None, length the scan stopped at, all 202 weights)."""
    w = _full_recurrence(kind, p, omega, weights._L_CAP + 1)
    for ell in range(1, weights._L_CAP + 1):
        if w[ell + 1] <= 0.0:
            return None, ell, w
        if w[ell + 1] * ell > w[ell] * (ell + 1):
            return (ell, w[ell] / ell), ell, w
    return None, weights._L_CAP, w


def _scan_counting_pulls(kind, p, omega):
    pulled = []

    def counted():
        for value in weights._recurrence(StrategyKind(kind), p, omega):
            pulled.append(value)
            yield value

    return weights._crossover_of(counted()), pulled


def test_crossover_matches_full_scan_on_thousandths_grid():
    stops = {"weight <= 0": 0, "crossover": 0, "cap": 0}
    for k in range(1001):
        p = k / 1000
        expected, stop, w = _full_scan("rp", p, 0.0)
        assert find_crossover("rp", p) == expected, p
        found, pulled = _scan_counting_pulls("rp", p, 0.0)
        # the scan reads w[stop + 1] to decide and nothing beyond it
        assert pulled == w[: stop + 2], p
        if expected is None:
            assert found is None
            stops["cap" if stop == weights._L_CAP and w[stop + 1] > 0.0 else "weight <= 0"] += 1
        else:
            assert found == (w[: stop + 1], *expected)
            stops["crossover"] += 1
    assert stops == {"weight <= 0": 869, "crossover": 131, "cap": 1}


@pytest.mark.parametrize("omega", [0.0, 1e-4])
@pytest.mark.parametrize("kind", ["rp", "srp"])
def test_weight_table_matches_full_scan(kind, omega):
    for k in range(129):
        p = k / 128
        expected, stop, w = _full_scan(kind, p, omega)
        found, pulled = _scan_counting_pulls(kind, p, omega)
        assert pulled == w[: stop + 2], p
        if expected is None:
            assert found is None
            with pytest.raises(InfeasibleParameterError):
                build_weight_table(kind, p, omega, 20)
            continue
        crossover, slope = expected
        table = build_weight_table(kind, p, omega, 20)
        assert (table.crossover, table.slope) == (crossover, slope), p
        assert table.w_hat == tuple(w[: crossover + 1]), p


@pytest.mark.parametrize("l_max", [-1, 0, 1, 2, 3, 201])
def test_weight_recurrence_is_the_full_list(l_max):
    for kind, ps in (("rp", (0.0, 0.3, 0.87, 1.0)), ("srp", (0.0, 0.3, 0.87, 1.0)), ("pavlov", (1.0,))):
        for p in ps:
            for omega in (0.0, 1e-4):
                got = weight_recurrence(kind, p, omega, l_max)
                want = _full_recurrence(kind, p, omega, l_max)
                # bit patterns, since p = 1 overflows to nan within 201 terms
                assert type(got) is list and np.array(got).tobytes() == np.array(want).tobytes()


def test_public_entry_points_refuse_a_bad_omega():
    # the kind and p are Strategy's to refuse (below)
    for omega in (-1.0, math.nan, math.inf):
        for call in (
            lambda: weight_recurrence("rp", 0.5, omega, 5),
            lambda: build_weight_table("rp", 0.9, omega, 20),
            lambda: min_feasible_p("srp", omega, 20),
        ):
            with pytest.raises(ValueError, match="omega must be finite"):
                call()


PUBLIC_ENTRY_POINTS = {
    "weight_recurrence": lambda kind, p: weight_recurrence(kind, p, 0.0, 5),
    "find_crossover": find_crossover,
    "build_weight_table": lambda kind, p: build_weight_table(kind, p, 1e-4, 20),
}


@pytest.mark.parametrize("call", PUBLIC_ENTRY_POINTS.values(), ids=PUBLIC_ENTRY_POINTS)
@pytest.mark.parametrize(
    "kind, p, message",
    [
        ("pavlov", 0.9, "pavlov is the p = 1 strategy"),
        ("pavlov", 0.5, "pavlov is the p = 1 strategy"),
        ("pavlov", 0.3, "pavlov is the p = 1 strategy"),
        ("rp", 1.5, "p must lie in"),
        ("srp", math.nan, "p must lie in"),
        ("xx", 0.5, "is not a valid StrategyKind"),
    ],
)
def test_public_entry_points_refuse_what_strategy_refuses(call, kind, p, message):
    # pavlov below p = 1 used to give the rp answer at that p
    with pytest.raises(ValueError, match=message):
        Strategy(kind, p)
    with pytest.raises(ValueError, match=message):
        call(kind, p)


@pytest.mark.parametrize("kind, message", [("pavlov", "pavlov is the p = 1 strategy"), ("xx", "not a valid")])
def test_min_feasible_p_refuses_a_kind_without_p_below_1(kind, message):
    # its search runs over p in [0, 1]; pavlov used to return rp's 0.8701
    with pytest.raises(ValueError, match=message):
        min_feasible_p(kind, 1e-4, 100)


def test_pavlov_table_is_the_rp_table_at_p_1():
    for omega in (0.0, 1e-4):
        pavlov = build_weight_table("pavlov", 1.0, omega, 40)
        rp = build_weight_table("rp", 1.0, omega, 40)
        assert pavlov == rp
        assert np.array(pavlov.weights).tobytes() == np.array(rp.weights).tobytes()
        assert np.array(check_constraints(pavlov).run_margins).tobytes() == np.array(
            check_constraints(rp).run_margins
        ).tobytes()
    assert find_crossover("pavlov", 1.0) == find_crossover("rp", 1.0)


# ---------------------------------------------------------------------------
# threshold roots


def test_ratio_series_roots_match_exact_oracle():
    for ell, exact in EXACT_H_ROOTS.items():
        root = threshold_bisect("h", ell, 1e-7)
        assert abs(root - exact) < 1e-6, ell


def test_increment_series_roots_match_exact_oracle():
    for ell, exact in EXACT_F_ROOTS.items():
        root = threshold_bisect("f", ell, 1e-7)
        assert abs(root - exact) < 1e-6, ell


def test_certified_bounds_reproduce_published_tables():
    for ell, bound in PUBLISHED_H_BOUNDS.items():
        assert certified_cutoff("h", ell, threshold_bisect("h", ell)) == pytest.approx(bound, abs=1e-12)
    for ell, bound in PUBLISHED_F_BOUNDS.items():
        assert certified_cutoff("f", ell, threshold_bisect("f", ell)) == pytest.approx(bound, abs=1e-12)


def test_no_root_cases():
    with pytest.raises(NoRootError):
        threshold_bisect("h", 1)  # identically -1/2
    with pytest.raises(NoRootError):
        threshold_bisect("h", 2)  # <= 0 on [0, 1], root only at p = 1
    with pytest.raises(NoRootError):
        threshold_bisect("h", 3)  # < 0 on [0, 1), 0 at p = 1
    with pytest.raises(NoRootError):
        threshold_bisect("f", 1)  # identically 0
    with pytest.raises(NoRootError):
        threshold_bisect("f", 2)  # p^2/2 >= 0 everywhere


def test_diagnostic_series_turn_positive_at_most_once():
    # threshold_bisect bisects [0, 1] with no scan for a bracket, which is
    # sound only while "series > 0" holds on an upper end of [0, 1].
    for series in ("h", "f"):
        for ell in range(1, 61):
            positive = [weights._series_value(series, ell, k / 1024) > 0.0 for k in range(1025)]
            assert positive == sorted(positive), (series, ell)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_threshold_bisect_rejects_bad_tol(tol):
    # nan and inf used to skip the bisection and return a grid midpoint
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        threshold_bisect("h", 5, tol)


@pytest.mark.parametrize("series, last", [("h", 195), ("f", 197)])
def test_series_overflow_shows_first_at_p_1(series, last):
    # threshold_bisect reads p = 1 first and refuses a NaN there.  That read is
    # enough: at the last length whose weights fit in a double, no probe of
    # the bisection's 1/1024 grid or certified_cutoff's 1/1000 grid is NaN.
    probes = {k / 1024 for k in range(1025)} | {k / 1000 for k in range(1001)}
    assert not any(math.isnan(weights._series_value(series, last, p)) for p in probes)
    assert math.isnan(weights._series_value(series, last + 1, 1.0))


@pytest.mark.parametrize("series, ell", [("h", 196), ("f", 198), ("h", 400)])
def test_threshold_bisect_refuses_lengths_past_double_range(series, ell):
    # These used to raise NoRootError, though both series have the root
    # 0.869672 there: NaN at p = 1 is not > 0.
    with pytest.raises(ValueError, match=f"at length {ell} overflows") as info:
        threshold_bisect(series, ell)
    assert not isinstance(info.value, NoRootError)


@pytest.mark.parametrize("series, ell", [("h", 8), ("f", 7)])
@pytest.mark.parametrize("offset", [-0.05, 0.05], ids=["low", "high"])
def test_certified_cutoff_walks_back_from_either_side(series, ell, offset):
    # A root off by 0.05 makes the walk cross 50 grid points, from below or above.
    root = threshold_bisect(series, ell)
    assert certified_cutoff(series, ell, root + offset) == certified_cutoff(series, ell, root)


def test_one_threshold_three_routes():
    # At omega = 0 the h root at l = 60, the p where the crossover first
    # exists and the smallest feasible p for n = 20 and 100 name one number;
    # srp has no diagnostic series, so only the last two apply.
    def onset(kind):
        return weights._bisect(lambda p: find_crossover(kind, p) is not None, 0.5, 1.0, 1e-15)[1]

    assert threshold_bisect("h", 60, 1e-15) == 0.869672358384975
    assert onset("rp") == 0.8696723583849755
    assert onset("srp") == 0.6981007391402239
    for kind in ("rp", "srp"):
        for n in (20, 100):
            assert min_feasible_p(kind, 0.0, n, 1e-15) == onset(kind), (kind, n)
    assert abs(threshold_bisect("h", 60, 1e-15) - onset("rp")) < 1e-14


# ---------------------------------------------------------------------------
# weight tables and constraints


def test_build_table_basic_invariants():
    t = build_weight_table("rp", 0.9, 0.0, 50)
    w = t.weights
    assert w == tuple(t.w_hat[ell] if ell <= t.crossover else t.slope * ell for ell in range(51))
    assert w[0] == 0.0 and w[1] == 1.0
    assert t.slope <= 1.0
    for ell in range(1, 50):
        assert w[ell + 1] / (ell + 1) <= w[ell] / ell + 1e-12  # ratio non-increasing
        assert w[ell + 1] >= w[ell] - 1e-12  # non-decreasing at omega = 0
        assert t.slope * ell <= w[ell] + 1e-12
        assert w[ell] <= ell + 1e-12


def test_weights_shorter_than_raw_weights():
    t = build_weight_table("rp", 0.87, 0.0, 5)  # crossover 8 lies beyond n
    assert t.crossover > t.n
    assert t.weights == t.w_hat[:6]


def test_cached_drift_terms_leave_table_identity_alone():
    fresh = build_weight_table("rp", 0.9, 1e-4, 12)
    used = build_weight_table("rp", 0.9, 1e-4, 12)
    state = new_state(12, Explicit((-1, -1, 1, -1, 1, 1, -1, -1, -1, 1, 1, -1)), 0)
    report = one_step_drift(state, used)  # fills the cached drift terms
    check_constraints(used)  # and the cached constraint report
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    restored = pickle.loads(pickle.dumps(used))
    assert restored == fresh and hash(restored) == hash(fresh)
    assert check_constraints(restored) == check_constraints(fresh)
    assert one_step_drift(state, restored) == report == one_step_drift(state, fresh)
    smaller = dataclasses.replace(used, n=8)
    assert smaller == dataclasses.replace(fresh, n=8)
    assert smaller.weights == used.weights[:9]
    assert one_step_drift(new_state(8, Explicit((-1, 1) * 4), 0), smaller) == one_step_drift(
        new_state(8, Explicit((-1, 1) * 4), 0), dataclasses.replace(fresh, n=8)
    )
    assert used.weights == fresh.weights
    assert one_step_drift(state, used) == report


def test_build_table_monotonicity_with_omega_slack():
    # with omega > 0 the pair weight dips by omega/2, so allow omega slack
    omega = 1e-4
    t = build_weight_table("rp", 0.9, omega, 50)
    w = t.weights
    for ell in range(1, 50):
        assert w[ell + 1] >= w[ell] - omega
        assert w[ell + 1] / (ell + 1) <= w[ell] / ell + 1e-12


def test_build_table_infeasible_below_threshold():
    with pytest.raises(InfeasibleParameterError):
        build_weight_table("rp", 0.5, 0.0, 50)


def test_constraints_feasible_at_reference_point():
    rep = check_constraints(build_weight_table("rp", 0.9, 0.01, 50))
    assert rep.feasible
    assert rep.run_margins[0] == pytest.approx(0.0, abs=1e-12)


def test_whole_cycle_margin_reduces_to_omega_below_2p():
    # with the top three weights on the linear tail the whole-cycle constraint
    # collapses to slope * (2p - omega)
    t = build_weight_table("rp", 0.9, 0.01, 50)
    rep = check_constraints(t)
    assert rep.run_margins[-1] == pytest.approx(t.slope * (2 * 0.9 - 0.01), rel=1e-12)


def test_feasibility_grid_small_omega():
    p = 0.870
    while p <= 1.0 + 1e-9:
        for n in (10, 50, 200):
            rep = check_constraints(build_weight_table("rp", round(p, 3), 1e-4, n))
            assert rep.feasible, (round(p, 3), n, rep.worst())
        p += 0.005


def test_srp_constraints_feasible_above_its_threshold():
    for p in (0.70, 0.75, 0.9, 1.0):
        rep = check_constraints(build_weight_table("srp", p, 1e-4, 60))
        assert rep.feasible, (p, rep.worst())


def _merge_margin_double_loop(table):
    """Reference: the scalar double loop over every merge l1 + l2 <= n."""
    w = table.weights
    n = table.n
    merge = math.inf
    for l1 in range(1, n):
        for l2 in range(l1, n - l1 + 1):
            slack = w[l1] + w[l2] - w[l1 + l2]
            if slack < merge:
                merge = slack
    return merge


def _merge_cases(n):
    if n == 3000:  # the certify table's size; its double loop takes about 0.5 s
        return [("rp", 0.9, 1e-4)]
    kinds = (("rp", (0.87, 0.9, 0.95, 1.0)), ("srp", (0.7, 0.8, 0.9, 1.0)))
    return [(kind, p, omega) for kind, ps in kinds for p in ps for omega in (0.0, 1e-4)]


@pytest.mark.parametrize("n", [3, 4, 5, 100, 1001, 3000])
def test_merge_margin_equals_double_loop(monkeypatch, n):
    # Both paths: the C kernel's merge_min where it can be built, and the
    # numpy loop that runs without a compiler.
    for kind, p, omega in _merge_cases(n):
        want = _merge_margin_double_loop(build_weight_table(kind, p, omega, n))
        got = check_constraints(build_weight_table(kind, p, omega, n)).merge_margin
        with monkeypatch.context() as patch:
            patch.setattr(_native, "load", lambda: None)
            ref = check_constraints(build_weight_table(kind, p, omega, n)).merge_margin
        assert (got.hex(), ref.hex()) == (want.hex(), want.hex()), (kind, p, omega)
        assert type(got) is float and type(ref) is float


def _constraints_by_formula(table):
    """Reference: the run-length inequalities (1, 2..n-1, n) as rp and srp algebra.

    The (-,-) branch probabilities are multiplied out by hand for each
    strategy kind.  The merge margin reads no branch probability and is the
    table's own, which test_merge_margin_equals_double_loop checks.
    """
    p = table.p
    omega = table.omega
    n = table.n
    w = table.weights
    delta = omega / n

    singleton = -(2.0 * w[2] - (2.0 - omega) * w[1])

    prefix = 0.0  # sum(w[0..l-2])
    internal = []
    if table.kind is StrategyKind.RP:
        c = p * p - 2.0 * p
        for ell in range(2, n):
            prefix += w[ell - 2]
            lhs = (
                2.0 * w[ell + 1]
                + 2.0 * p * (2.0 - p) * prefix
                + 2.0 * p * (1.0 - p) * w[ell - 1]
                + (ell * c - (c + 2.0) + omega) * w[ell]
            )
            internal.append(-lhs)
        nrun = -(
            p * p * w[n - 2]
            + 2.0 * p * (1.0 - p) * w[n - 1]
            + (p * p - 2.0 * p + delta) * w[n]
        )
    else:
        for ell in range(2, n):
            prefix += w[ell - 2]
            lhs = 2.0 * w[ell + 1] + 2.0 * p * prefix + (-p * ell + p - 2.0 + omega) * w[ell]
            internal.append(-lhs)
        nrun = -(p * w[n - 2] - p * w[n] + delta * w[n])

    return weights.ConstraintReport(
        run_margins=(singleton, *internal, nrun),
        merge_margin=check_constraints(table).merge_margin,
    )


def _formula_tables(n):
    grid = [k / 100 for k in range(101)]
    for kind, ps in (("rp", grid), ("srp", grid), ("pavlov", [1.0])):
        for p in ps:
            for omega in (0.0, 1e-4, 1e-2):
                try:
                    yield build_weight_table(kind, p, omega, n)
                except InfeasibleParameterError:
                    pass


@pytest.mark.parametrize("n", [3, 4, 5, 8, 100, 1001])
def test_constraints_match_the_per_kind_formulas(n):
    # The margins come from the drift's split terms; the closed forms add the
    # same terms in another order, so only the last digits may differ.
    checked = 0
    for table in _formula_tables(n):
        got = check_constraints(table)
        want = _constraints_by_formula(table)
        where = (table.kind.value, table.p, table.omega)
        for flag in ("feasible", "singleton_ok", "internal_ok", "nrun_ok", "merge_ok"):
            assert getattr(got, flag) == getattr(want, flag), (flag, where)
        assert got.run_margins[0].hex() == want.run_margins[0].hex(), where
        scale = 1e-13 * sum(map(abs, table.weights))
        assert len(got.run_margins) == len(want.run_margins) == n
        for a, b in zip(got.run_margins[1:], want.run_margins[1:]):
            assert type(a) is float and abs(a - b) <= scale, where
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("kind, p, omega", [("rp", 0.9, 1e-2), ("rp", 1.0, 0.0), ("srp", 0.8, 1e-4)])
def test_margins_are_the_drift_of_the_states_they_stand_for(kind, p, omega):
    # One defector run of length L < n: margin = n * (bound - expected_next);
    # the all-defect cycle (L = n): margin = bound - expected_next.
    n = 12
    table = build_weight_table(kind, p, omega, n)
    report = check_constraints(table)
    assert len(report.run_margins) == n
    for ell, margin in enumerate(report.run_margins[:-1], start=1):
        drift = one_step_drift(new_state(n, Explicit((-1,) * ell + (1,) * (n - ell)), 0), table)
        assert margin == pytest.approx(n * (drift.bound - drift.expected_next), abs=1e-12), ell
    drift = one_step_drift(new_state(n, Explicit((-1,) * n), 0), table)
    assert report.run_margins[-1] == pytest.approx(drift.bound - drift.expected_next, abs=1e-12)


def test_constraint_report_computed_once_per_table(monkeypatch, tmp_path):
    real = weights._evaluate_constraints
    evaluated = []
    monkeypatch.setattr(weights, "_evaluate_constraints", lambda t: evaluated.append(t) or real(t))
    table = build_weight_table("rp", 0.9, 1e-4, 30)
    report = check_constraints(table)
    assert check_constraints(table) is report
    rows = weight_table_rows(table)
    weights.write_weight_table_csv(table, str(tmp_path / "table.csv"))
    assert evaluated == [table]  # the CSV rows reuse the cached report
    assert report == real(table)
    assert [margin for *_, margin in rows] == list(report.run_margins)
    smaller = dataclasses.replace(table, n=20)  # a new table is checked afresh
    assert check_constraints(smaller) == real(smaller) != report
    assert len(evaluated) == 2


def test_huge_omega_cannot_build():
    # the omega term dominates the recurrence and drives weights negative
    with pytest.raises(InfeasibleParameterError):
        build_weight_table("rp", 0.9, 1.9, 50)


# ---------------------------------------------------------------------------
# one-step drift


def _drift_brute_force(state, table):
    """Reference: E[W(next state)] by enumerating every edge and outcome branch.

    Each successor configuration is materialized and its potential
    recomputed from its actual run structure, so run merges are priced at
    their true weight.  O(n^2) per call.
    """
    if state.n != table.n:
        raise ValueError(f"state has n = {state.n} but table has n = {table.n}")
    n = state.n
    states = state.states
    w = table.weights

    def pot(s):
        _, minus, _ = run_lengths(s)
        return sum(w[ell] for ell in minus)

    w0 = pot(states)
    bound = (1.0 - table.omega / n) * w0
    if state.minus_count == 0:
        return DriftReport(0.0, 0.0, 0.0, True)

    branches = transition_branches((-1, -1), Strategy(table.kind, table.p))

    total = 0.0
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        a, b = states[i], states[j]
        if a == 1 and b == 1:
            total += w0
        elif a == 1 or b == 1:
            succ = list(states)
            succ[i] = -1
            succ[j] = -1
            total += pot(succ)
        else:
            for (na, nb), prob in branches:
                if prob == 0.0:
                    continue
                if na == -1 and nb == -1:
                    total += prob * w0
                    continue
                succ = list(states)
                succ[i] = na
                succ[j] = nb
                total += prob * pot(succ)
    expected = total / n
    return DriftReport(
        state_potential=w0,
        expected_next=expected,
        bound=bound,
        satisfied=expected <= bound + MARGIN_TOL,
    )


DRIFT_CONFIGS = [
    (kind, p, omega)
    for kind, ps in (("rp", (0.87, 0.9, 1.0)), ("srp", (0.7, 1.0)))
    for p in ps
    for omega in (0.0, 1e-4)
]


def _assert_drift_matches(state, table):
    got = one_step_drift(state, table)
    ref = _drift_brute_force(state, table)
    where = (table.kind.value, table.p, table.omega, tuple(state.states))
    assert got.satisfied == ref.satisfied, where
    for field in ("state_potential", "expected_next", "bound"):
        assert math.isclose(getattr(got, field), getattr(ref, field), rel_tol=1e-12), (field, where)
    return got


def _drift_tables(n):
    tables = [build_weight_table(kind, p, omega, n) for kind, p, omega in DRIFT_CONFIGS]
    # No certificate exists at p = 0.5; with these hand-set weights about
    # half of all states do not contract, so satisfied is compared both ways.
    for kind in (StrategyKind.RP, StrategyKind.SRP):
        tables.append(WeightTable(kind, 0.5, 1e-4, n, w_hat=(0.0, 1.0, 1.0), crossover=2, slope=0.5))
    return tables


@pytest.mark.parametrize("n", range(3, 11))
def test_drift_matches_brute_force_on_every_state(n):
    tables = _drift_tables(n)
    for sts in itertools.product((-1, 1), repeat=n):
        state = new_state(n, Explicit(sts), 0)
        for table in tables:
            _assert_drift_matches(state, table)


DRIFT_EDGE_CASES = {
    "single-cooperator": (1, -1, -1, -1, -1, -1, -1),  # a merge makes the whole cycle
    "all-defect": (-1,) * 8,
    "alternating": (1, -1) * 4,
    "run-wraps-index-0": (-1, -1, 1, 1, -1, 1, -1, -1),
    "n3-lone-cooperator": (-1, 1, -1),
    "n3-lone-defector": (1, -1, 1),
}


@pytest.mark.parametrize("sts", DRIFT_EDGE_CASES.values(), ids=DRIFT_EDGE_CASES.keys())
def test_drift_edge_cases_match_brute_force(sts):
    n = len(sts)
    for table in _drift_tables(n):
        _assert_drift_matches(new_state(n, Explicit(sts), 0), table)


def test_drift_all_defect_closed_form():
    # every edge is (-,-): one cycle run of n - 2 (both cooperate), n - 1 (one) or n
    n = 8
    for kind, p, omega in DRIFT_CONFIGS:
        t = build_weight_table(kind, p, omega, n)
        w = t.weights
        if kind == "rp":
            want = p * p * w[n - 2] + 2 * p * (1 - p) * w[n - 1] + (1 - p) ** 2 * w[n]
        else:
            want = p * w[n - 2] + (1 - p) * w[n]
        got = one_step_drift(new_state(n, Explicit((-1,) * n), 0), t)
        assert got.expected_next == pytest.approx(want, rel=1e-12), (kind, p, omega)


def _criterion_4_states():
    """(index, n, p, states) of the 6000 random states of acceptance criterion 4."""
    rng = np.random.default_rng(20250808)
    index = 0
    for n in (10, 20, 40):
        for p in (0.87, 0.9, 0.95, 1.0):
            for _ in range(500):
                sts = rng.choice([-1, 1], size=n).tolist()
                while all(s == 1 for s in sts):
                    sts = rng.choice([-1, 1], size=n).tolist()
                yield index, n, p, sts
                index += 1


def test_drift_matches_brute_force_on_criterion_4_states():
    tables = {}
    for _, n, p, sts in _criterion_4_states():
        if (n, p) not in tables:
            tables[n, p] = build_weight_table("rp", p, 1e-4, n)
        assert _assert_drift_matches(new_state(n, Explicit(tuple(sts)), 0), tables[n, p]).satisfied


def _drift_pins():
    with open(os.path.join(os.path.dirname(__file__), "data", "drift_pins.json")) as fh:
        return json.load(fh)


def _pin_report(report):
    return (report.state_potential.hex(), report.expected_next.hex(), report.bound.hex())


def test_drift_golden_pins_on_criterion_4_states():
    # float.hex of every 300th criterion-4 report, frozen from the earlier
    # per-branch summation: the cached split terms must be added in the same
    # order, bit for bit
    pins = {pin["index"]: pin for pin in _drift_pins() if "index" in pin}
    assert len(pins) == 20
    for index, n, p, sts in _criterion_4_states():
        pin = pins.get(index)
        if pin is None:
            continue
        assert (pin["n"], pin["p"]) == (n, p)
        assert pin["states"] == "".join("-" if s == -1 else "+" for s in sts)
        rep = one_step_drift(new_state(n, Explicit(tuple(sts)), 0), build_weight_table("rp", p, 1e-4, n))
        assert _pin_report(rep) == (pin["state_potential"], pin["expected_next"], pin["bound"]), index


# float.hex of the reports on states whose run structure the boundary scan
# treats specially (a run across n - 1 -> 0, a boundary at index 0, a lone
# or last cooperator, all-minus, n = 3), for rp and srp; frozen before the
# oracle read the boundary scan
EDGE_PINS = [pin for pin in _drift_pins() if "case" in pin]


def test_drift_edge_pins_cover_both_kinds():
    assert len(EDGE_PINS) == 22
    assert {pin["kind"] for pin in EDGE_PINS} == {"rp", "srp"}


@pytest.mark.parametrize(
    "pin", EDGE_PINS, ids=[f"{pin['kind']}-{pin['case']}" for pin in EDGE_PINS]
)
def test_drift_golden_pins_on_edge_cases(pin):
    sts = tuple(-1 if c == "-" else 1 for c in pin["states"])
    assert len(sts) == pin["n"]
    table = build_weight_table(pin["kind"], pin["p"], pin["omega"], pin["n"])
    rep = one_step_drift(new_state(pin["n"], Explicit(sts), 0), table)
    assert _pin_report(rep) == (pin["state_potential"], pin["expected_next"], pin["bound"])


def test_drift_pins_hold_under_python312_sums(python312_sums):
    # From Python 3.12 the builtin sum() compensates float sums; the pins are
    # a left-to-right fold, which the drift oracle must not leave to sum().
    test_drift_golden_pins_on_criterion_4_states()
    for pin in EDGE_PINS:
        test_drift_golden_pins_on_edge_cases(pin)


def test_drift_all_plus_degenerate():
    t = build_weight_table("rp", 0.9, 1e-4, 10)
    r = one_step_drift(new_state(10, AllCooperate(), 0), t)
    assert r.state_potential == 0.0 and r.expected_next == 0.0 and r.satisfied


def test_drift_single_defector_equality():
    # two rim edges grow the singleton to a pair; equality with the bound
    t = build_weight_table("rp", 0.9, 0.01, 5)
    s = new_state(5, Explicit((1, 1, -1, 1, 1)), 0)
    r = one_step_drift(s, t)
    assert r.state_potential == pytest.approx(1.0, abs=1e-15)
    assert r.expected_next == pytest.approx(0.998, abs=1e-15)
    assert r.bound == pytest.approx(0.998, abs=1e-15)
    assert r.satisfied


def test_drift_merge_configuration_satisfied():
    # two defector runs separated by a lone cooperator: exercises run merging
    t = build_weight_table("rp", 0.9, 1e-4, 10)
    s = new_state(10, Explicit((-1, -1, 1, -1, -1, -1, 1, 1, 1, 1)), 0)
    r = one_step_drift(s, t)
    assert r.satisfied


def test_drift_on_random_states():
    rng = np.random.default_rng(11)
    for n in (10, 20):
        for p in (0.87, 1.0):
            t = build_weight_table("rp", p, 1e-4, n)
            for _ in range(100):
                sts = rng.choice([-1, 1], size=n).tolist()
                while all(x == 1 for x in sts):
                    sts = rng.choice([-1, 1], size=n).tolist()
                assert one_step_drift(new_state(n, Explicit(tuple(sts)), 0), t).satisfied


def test_potential_bounds():
    rng = np.random.default_rng(12)
    n = 30
    exact = build_weight_table("rp", 0.9, 0.0, n)
    dented = build_weight_table("rp", 0.9, 1e-4, n)
    for _ in range(200):
        sts = rng.choice([-1, 1], size=n).tolist()
        w_exact = exact.potential(sts)
        assert w_exact <= n + 1e-9
        if any(x == -1 for x in sts):
            assert w_exact >= 1.0 - 1e-12
            assert dented.potential(sts) >= 1.0 - 1e-4  # omega-scale dip allowed


def test_drift_rejects_mismatched_sizes():
    t = build_weight_table("rp", 0.9, 1e-4, 10)
    with pytest.raises(ValueError):
        one_step_drift(new_state(12, AllCooperate(), 0), t)


# ---------------------------------------------------------------------------
# feasibility threshold


def test_min_feasible_p_rp():
    p0 = min_feasible_p("rp", 1e-4, 100, 1e-3)
    assert abs(p0 - 0.870) <= 0.002


def test_min_feasible_p_srp():
    p0 = min_feasible_p("srp", 1e-4, 100, 1e-3)
    assert abs(p0 - 0.699) <= 0.005


# float.hex of min_feasible_p at tol 1e-3, 1e-15 and 1e-300, frozen from the
# 128-point grid scan that preceded its bisection of [0, 1].
MIN_FEASIBLE_P_PINS = {
    ("rp", 0.0): ("0x1.bd80000000000p-1", "0x1.bd45b202ff508p-1", "0x1.bd45b202ff505p-1"),
    ("rp", 1e-4): ("0x1.bd80000000000p-1", "0x1.bd5260009d920p-1", "0x1.bd5260009d91ap-1"),
    ("rp", 0.05): ("0x1.d580000000000p-1", "0x1.d54250624f540p-1", "0x1.d54250624f539p-1"),
    ("srp", 0.0): ("0x1.6580000000000p-1", "0x1.656d75c7d7648p-1", "0x1.656d75c7d7642p-1"),
    ("srp", 1e-4): ("0x1.6600000000000p-1", "0x1.6587ca4e688a0p-1", "0x1.6587ca4e6889dp-1"),
    ("srp", 0.05): ("0x1.9980000000000p-1", "0x1.990ff60b8e998p-1", "0x1.990ff60b8e991p-1"),
}
# The answer does not depend on n; tol 1e-300 is pinned at n = 10 only.
MIN_FEASIBLE_P_CASES = [
    (kind, omega, n, tol, want)
    for (kind, omega), pins in MIN_FEASIBLE_P_PINS.items()
    for n in (3, 10, 100)
    for tol, want in zip((1e-3, 1e-15, 1e-300), pins)
    if tol > 1e-300 or n == 10
]


def _feasible(kind, p, omega, n):
    try:
        return check_constraints(build_weight_table(kind, p, omega, n)).feasible
    except InfeasibleParameterError:
        return False


@pytest.mark.parametrize("kind, omega, n, tol, want", MIN_FEASIBLE_P_CASES)
def test_min_feasible_p_pins(kind, omega, n, tol, want):
    assert min_feasible_p(kind, omega, n, tol).hex() == want


@pytest.mark.parametrize("kind", ["rp", "srp"])
@pytest.mark.parametrize("omega, n", [(0.0, 10), (1e-4, 100), (0.05, 10), (0.3, 3)])
def test_feasibility_flips_at_most_once_in_p(kind, omega, n):
    # min_feasible_p bisects [0, 1], which finds the threshold only if
    # feasibility is false below it and true above (at omega = 0.3 it is
    # false on all of [0, 1]).
    grid = [_feasible(kind, k / 1000, omega, n) for k in range(1001)]
    flips = [k for k in range(1, 1001) if grid[k] != grid[k - 1]]
    assert grid == sorted(grid) and len(flips) == grid[-1], flips
    if not flips:
        with pytest.raises(InfeasibleParameterError):
            min_feasible_p(kind, omega, n)
    else:
        k = flips[0]
        assert (k - 1) / 1000 < min_feasible_p(kind, omega, n) < k / 1000 + 1e-3


def test_min_feasible_p_stops_at_adjacent_floats(monkeypatch):
    # tol = 1e-300 lies far below the spacing of floats near p0, so the
    # bisection can only end at adjacent floats.  It used to loop forever;
    # counting table builds turns a relapse into a failure, not a hang.
    build = weights.build_weight_table
    coarse = min_feasible_p("rp", 1e-4, 10, 1e-3)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls < 1000, "bisection does not terminate"
        return build(*args)

    monkeypatch.setattr(weights, "build_weight_table", counted)
    p0 = min_feasible_p("rp", 1e-4, 10, 1e-300)
    assert calls > 0, "the counter sees no table builds"
    assert p0 <= coarse <= p0 + 1e-3
    assert _feasible("rp", p0, 1e-4, 10) and not _feasible("rp", math.nextafter(p0, 0.0), 1e-4, 10)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
def test_min_feasible_p_rejects_bad_tol(tol):
    # nan used to return the first feasible grid point, 0.875
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        min_feasible_p("rp", 1e-4, 100, tol)


def test_pavlov_point_is_feasible():
    rep = check_constraints(build_weight_table("rp", 1.0, 1e-4, 100))
    assert rep.feasible


# ---------------------------------------------------------------------------
# serialization rows


def test_weight_table_rows_shape():
    t = build_weight_table("rp", 0.9, 1e-4, 12)
    rows = weight_table_rows(t)
    assert [r[0] for r in rows] == list(range(1, 13))
    for ell, raw, w, margin in rows:
        if ell <= t.crossover:
            assert raw == pytest.approx(t.w_hat[ell])
        else:
            assert raw is None
            assert w == pytest.approx(t.slope * ell)
        assert margin >= -1e-9
