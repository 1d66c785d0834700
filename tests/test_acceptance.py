"""Acceptance suite: one test per release criterion, each printing a
[criterion N] PASS/FAIL line with the measured numbers (run with -s to see
them live).  Criteria 7 and 8 check the second-order closed forms at their
declared tolerances: the known-order remainder (p^3, or p^{5/2} for the fast
eigenvalue pair) is removed by Richardson extrapolation between p and p/2,
and what is left -- delta*p^2 for a p^2 coefficient off by delta -- must
fall below the tolerance.  Their report lines print the raw deviation, the
fitted remainder constant and the extrapolated discrepancy of each quantity.
"""

import contextlib
import io
import math
import statistics
import time

import numpy as np
import pytest

from pavlov_cycle.cli import main
from pavlov_cycle.dynamics import Explicit, StrategyKind, new_state
from pavlov_cycle.experiments import (
    SweepConfig,
    defect_time_experiment,
    defect_time_variance,
    records_to_csv,
    run_sweep,
)
from pavlov_cycle.meanfield import (
    OdeConfig,
    closed_form_short_runs,
    closed_form_total,
    eigenvalue_check,
    integrate,
)
from pavlov_cycle.weights import (
    build_weight_table,
    find_crossover,
    min_feasible_p,
    one_step_drift,
)

WORKERS = 2
MASTER_SEED = 20250808


def _cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--quiet"])
    return code, buf.getvalue()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def _parse_threshold_table(out: str) -> dict[int, float]:
    bounds = {}
    for line in out.strip().splitlines()[1:]:
        ell, _, bound = line.split(",")
        if bound != "none":
            bounds[int(ell)] = float(bound)
    return bounds


def test_criterion_1_ratio_series_thresholds():
    published = {4: 0.897, 5: 0.877, 6: 0.871, 7: 0.870, 8: 0.869}
    t0 = time.perf_counter()
    code, out = _cli("thresholds", "--series", "h")
    elapsed = time.perf_counter() - t0
    got = _parse_threshold_table(out)
    ok = code == 0 and elapsed < 1.0
    for ell, want in published.items():
        ok = ok and ell in got and abs(got[ell] - want) <= 0.0005
    _report(1, ok, f"h-series bounds {got} vs published {published}, {elapsed:.2f}s")
    assert code == 0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    for ell, want in published.items():
        assert abs(got[ell] - want) <= 0.0005, (ell, got[ell], want)


def test_criterion_2_increment_series_thresholds():
    published = {3: 0.689, 4: 0.805, 5: 0.850, 6: 0.865, 7: 0.869}
    t0 = time.perf_counter()
    code, out = _cli("thresholds", "--series", "f", "--lmax", "7")
    elapsed = time.perf_counter() - t0
    got = _parse_threshold_table(out)
    ok = code == 0 and elapsed < 1.0
    for ell, want in published.items():
        ok = ok and ell in got and abs(got[ell] - want) <= 0.0005
    _report(2, ok, f"f-series bounds {got} vs published {published}, {elapsed:.2f}s")
    assert code == 0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    for ell, want in published.items():
        assert abs(got[ell] - want) <= 0.0005, (ell, got[ell], want)


def test_criterion_3_crossover_certificate():
    t0 = time.perf_counter()
    at_boundary = find_crossover("rp", 0.870)
    assert at_boundary is not None and at_boundary[0] == 8, at_boundary
    worst = 0
    for k in range(870, 1001):
        found = find_crossover("rp", k / 1000.0)
        assert found is not None, f"no crossover at p={k / 1000}"
        worst = max(worst, found[0])
        assert found[0] <= 8, (k / 1000.0, found)
    for k in range(0, 870):
        found = find_crossover("rp", k / 1000.0)
        assert found is None, (k / 1000.0, found)
    elapsed = time.perf_counter() - t0
    _report(
        3,
        elapsed < 5.0,
        f"crossover=8 at p=0.870, max over [0.870, 1.0] = {worst}, "
        f"none on [0, 0.869], {elapsed:.2f}s",
    )
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_4_drift_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    checked = 0
    worst_margin = math.inf
    for n in (10, 20, 40):
        for p in (0.87, 0.9, 0.95, 1.0):
            table = build_weight_table("rp", p, 1e-4, n)
            for _ in range(500):
                sts = rng.choice([-1, 1], size=n).tolist()
                while all(s == 1 for s in sts):
                    sts = rng.choice([-1, 1], size=n).tolist()
                rep = one_step_drift(new_state(n, Explicit(tuple(sts)), 0), table)
                worst_margin = min(worst_margin, rep.bound - rep.expected_next)
                assert rep.satisfied, (n, p, sts)
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        4,
        elapsed < 30.0,
        f"{checked} random states all contracting, worst margin {worst_margin:.2e}, {elapsed:.1f}s",
    )
    assert checked == 6000
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_5_feasibility_thresholds():
    t0 = time.perf_counter()
    p0_rp = min_feasible_p("rp", 1e-4, 100, 1e-3)
    p0_srp = min_feasible_p("srp", 1e-4, 100, 1e-3)
    elapsed = time.perf_counter() - t0
    ok = abs(p0_rp - 0.870) <= 0.002 and abs(p0_srp - 0.699) <= 0.005 and elapsed < 10.0
    _report(5, ok, f"rp p0={p0_rp:.4f} (want 0.870+-0.002), srp p0={p0_srp:.4f} (want 0.699+-0.005), {elapsed:.1f}s")
    assert abs(p0_rp - 0.870) <= 0.002, p0_rp
    assert abs(p0_srp - 0.699) <= 0.005, p0_srp
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def _defect_csv(stats) -> bytes:
    lines = ["n,rep,steps"]
    for rep, t in enumerate(stats.times):
        lines.append(f"{stats.n},{rep},{t}")
    return ("\n".join(lines) + "\n").encode()


def _run_defect_experiments():
    return {n: defect_time_experiment(n, 200, MASTER_SEED) for n in (50, 100)}


def test_criterion_6_defection_clock():
    t0 = time.perf_counter()
    details = []
    for n, stats in _run_defect_experiments().items():
        rel = abs(stats.mean_steps - stats.expected_steps) / stats.expected_steps
        sigma = math.sqrt(defect_time_variance(n))
        outside = sum(1 for t in stats.times if abs(t - stats.expected_steps) > 4 * sigma)
        details.append(f"n={n}: mean={stats.mean_steps:.1f}/{stats.expected_steps:.0f} "
                       f"rel={rel:.3%} outside4sigma={outside}")
        assert rel < 0.05, (n, stats.mean_steps)
        assert outside <= 2, (n, outside)
    elapsed = time.perf_counter() - t0
    _report(6, elapsed < 10.0, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def _second_order_discrepancy(d_p: float, d_half: float, k: float) -> float:
    """Richardson extrapolation in p of a deviation d(p) = delta*p^2 + C*p^k + ...

    From the deviations at p and p/2, cancels the C*p^k remainder and returns
    delta*p^2, the part owed to a wrong p^2 coefficient.
    """
    return (2.0**k * d_half - d_p) / (2.0**k / 4.0 - 1.0)


def _closed_form_deviations(traj, tau: float) -> list[float]:
    """Integrated minus closed-form P_0, P_1, P_2 and total mass at tau."""
    P = traj.state_at(tau).P
    closed = (*closed_form_short_runs(traj.p, tau), closed_form_total(traj.p, tau))
    return [float(n - c) for n, c in zip((*P[:3], P.sum()), closed)]


def test_criterion_7_mean_field_vs_closed_forms():
    t0 = time.perf_counter()
    p = 0.01
    traj = integrate(p, 10.0, OdeConfig(dt=1e-3, L=64))
    half = integrate(p / 2, 10.0, OdeConfig(dt=1e-3, L=64))
    failures = []
    details = []
    for tau in (1.0, 2.0, 5.0, 10.0):
        devs = _closed_form_deviations(traj, tau)
        devs_half = _closed_form_deviations(half, tau)
        for name, d, d_half in zip(("P_0", "P_1", "P_2", "sum"), devs, devs_half):
            e = _second_order_discrepancy(d, d_half, 3)
            details.append(f"tau={tau:g} {name}: d={d:.1e} d/p^3={d / p**3:.1f} E={e:.1e}")
            if abs(e) >= 1e-5:
                failures.append(f"tau={tau:g} {name}: E = {e:.2e}")
    max_tail = float(traj.tail_sums().max())
    tail_ok = max_tail < 5e-5
    elapsed = time.perf_counter() - t0
    _report(
        7,
        not failures and tail_ok and elapsed < 5.0,
        "; ".join(details) + f"; max_tail={max_tail:.2e} (<5e-5: {tail_ok}), {elapsed:.1f}s",
    )
    assert tail_ok, max_tail
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    assert not failures, "second-order discrepancy |E| >= 1e-5: " + "; ".join(failures)


def test_criterion_8_eigenvalue_series():
    t0 = time.perf_counter()
    failures = []
    details = []
    for p in (0.005, 0.01, 0.02):
        ec = eigenvalue_check(p)
        assert all(x < 0 for x in ec.numeric)
        assert len(set(ec.numeric)) == 3
        ec_half = eigenvalue_check(p / 2)
        # (root index, name, remainder order, tolerance); roots ascend
        roots = ((2, "slow", 3, 5e-5), (0, "fast-", 2.5, 1e-3), (1, "fast+", 2.5, 1e-3))
        for i, name, k, tol in roots:
            d = ec.numeric[i] - ec.series[i]
            d_half = ec_half.numeric[i] - ec_half.series[i]
            e = _second_order_discrepancy(d, d_half, k)
            details.append(f"p={p} {name}: d={d:.1e} d/p^{k:g}={d / p**k:.1f} E={e:.1e}")
            if abs(e) >= tol:
                failures.append(f"p={p} {name} root: E = {e:.2e} >= {tol:g}")
    elapsed = time.perf_counter() - t0
    _report(8, not failures and elapsed < 1.0, "; ".join(details) + f", {elapsed:.2f}s")
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    assert not failures, "second-order discrepancy of the series: " + "; ".join(failures)


def _phase_configs():
    high = SweepConfig(
        strategy_kind=StrategyKind.RP,
        n_list=(100,),
        p_list=(0.7, 0.8, 0.9, 1.0),
        reps=100,
        max_steps=1_000_000,
        master_seed=MASTER_SEED,
    )
    low = SweepConfig(
        strategy_kind=StrategyKind.RP,
        n_list=(100,),
        p_list=(0.1, 0.2, 0.3, 0.4),
        reps=100,
        max_steps=1_000_000,
        master_seed=MASTER_SEED,
    )
    return high, low


@pytest.fixture(scope="module")
def phase_records():
    high, low = _phase_configs()
    return run_sweep(high, workers=WORKERS), run_sweep(low, workers=WORKERS)


def test_criterion_9_phase_transition(phase_records):
    t0 = time.perf_counter()
    high_records, low_records = phase_records

    medians = {}
    for p in (0.7, 0.8, 0.9, 1.0):
        cell = [r for r in high_records if r.p == p]
        assert len(cell) == 100
        n_plus = sum(1 for r in cell if r.outcome.value == "all_plus")
        assert n_plus == 100, f"p={p}: only {n_plus}/100 reached all-cooperate under the cap"
        medians[p] = statistics.median(r.steps for r in cell)
    ps = sorted(medians)
    inversions = sum(1 for a, b in zip(ps, ps[1:]) if medians[b] > medians[a])
    assert inversions <= 1, medians

    fractions = {}
    for p in (0.1, 0.2, 0.3, 0.4):
        cell = [r for r in low_records if r.p == p]
        assert len(cell) == 100
        capped = sum(1 for r in cell if r.outcome.value == "capped")
        assert capped >= 95, f"p={p}: only {capped}/100 capped"
        fractions[p] = sum(r.coop_fraction for r in cell) / len(cell)
        assert abs(fractions[p] - p) <= 0.1, (p, fractions[p])
    elapsed = time.perf_counter() - t0
    _report(
        9,
        True,
        f"medians {medians} ({inversions} inversions), capped fractions ok, "
        f"mean coop fractions {fractions}, check {elapsed:.1f}s after sweep",
    )


def test_criterion_10_byte_identical_reruns(phase_records):
    t0 = time.perf_counter()
    high, low = _phase_configs()
    first_high, first_low = phase_records
    again_high = run_sweep(high, workers=WORKERS)
    again_low = run_sweep(low, workers=WORKERS)
    assert records_to_csv(again_high).encode() == records_to_csv(first_high).encode()
    assert records_to_csv(again_low).encode() == records_to_csv(first_low).encode()

    defect_first = {n: _defect_csv(s) for n, s in _run_defect_experiments().items()}
    defect_again = {n: _defect_csv(s) for n, s in _run_defect_experiments().items()}
    assert defect_first == defect_again
    elapsed = time.perf_counter() - t0
    _report(10, True, f"sweep and defection CSVs byte-identical across reruns, {elapsed:.1f}s")
