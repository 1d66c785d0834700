import ctypes
import math
import shutil
import subprocess

import numpy as np
import pytest

from pavlov_cycle import _native
from pavlov_cycle.dynamics import AllDefect, Strategy, advance, new_state
from pavlov_cycle.experiments import derive_seed
from pavlov_cycle.meanfield import (
    SAMPLE_STRIDE,
    IntegrationDivergedError,
    OdeConfig,
    RegimeError,
    _rk4_numpy,
    closed_form_short_runs,
    closed_form_total,
    eigenvalue_check,
    integrate,
    long_run_bound,
    rhs,
    tail_check,
)

# Decimal-arithmetic oracle values for the long-run bound formula
BOUND_N4000 = 1472253217.1551082
BOUND_N100000 = 1.4062515593571491


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_at_initial_condition():
    p = 0.3
    P = np.zeros(9)
    P[0] = 1.0
    d = rhs(P, p)
    assert d[0] == pytest.approx(-5 * p + 2 * p * p, abs=1e-15)
    assert d[1] == pytest.approx(2 * p * (1 - p), abs=1e-15)
    assert d[2] == pytest.approx(p * p, abs=1e-15)
    assert np.all(d[3:] == 0.0)


def test_rhs_p_to_zero_limit():
    P = np.array([0.8, 0.1, 0.05, 0.02, 0.01, 0.0])
    d = rhs(P, 0.0)
    assert d[0] == pytest.approx(-P[0] + P[1] + 1.0, abs=1e-15)
    for ell in range(1, 5):
        assert d[ell] == pytest.approx(-2 * P[ell] + 2 * P[ell + 1], abs=1e-15)
    assert d[5] == pytest.approx(-2 * P[5], abs=1e-15)


def test_rhs_p0_fixed_point():
    P = np.zeros(7)
    P[0] = 1.0
    d = rhs(P, 0.0)
    assert np.all(d == 0.0)


# ---------------------------------------------------------------------------
# integration


def test_integrate_zero_time_returns_initial_condition():
    traj = integrate(0.3, 0.0, OdeConfig(dt=1e-3, L=8))
    assert traj.taus.tolist() == [0.0]
    assert traj.P[0, 0] == 1.0
    assert np.all(traj.P[0, 1:] == 0.0)


def test_ode_config_validation():
    with pytest.raises(ValueError):
        OdeConfig(dt=0.02)
    with pytest.raises(ValueError):
        OdeConfig(L=2)
    with pytest.raises(ValueError):
        integrate(0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(1.0, 1.0)


def test_bounds_stay_in_unit_interval():
    for p in (0.01, 0.05):
        traj = integrate(p, 10.0, OdeConfig(dt=1e-3, L=32))
        assert np.all(traj.P >= 0.0)
        assert np.all(traj.P <= 1.0)


def test_closed_forms_at_zero_and_infinity():
    for p in (0.004, 0.01, 0.05):
        assert closed_form_short_runs(p, 0.0) == (1.0, 0.0, 0.0)
        assert closed_form_total(p, 0.0) == pytest.approx(1.0, abs=1e-15)
        p0, p1, p2 = closed_form_short_runs(p, 1e3)
        assert p0 == pytest.approx(1 - 4 * p + 18.5 * p * p, abs=1e-14)
        assert p1 == pytest.approx(p - 3.5 * p * p, abs=1e-14)
        assert p2 == pytest.approx(1.5 * p * p, abs=1e-14)
        assert closed_form_total(p, 1e3) == pytest.approx(1 - 3 * p + 16.5 * p * p, abs=1e-14)


def test_closed_forms_components_sum_to_total():
    # the three short-run series add up to the total-mass series exactly
    for p in (0.005, 0.01, 0.05):
        for tau in (0.0, 0.5, 1.0, 3.0, 10.0):
            s = sum(closed_form_short_runs(p, tau))
            assert s == pytest.approx(closed_form_total(p, tau), abs=1e-13)


def test_integration_tracks_closed_forms_at_third_order():
    # The second-order forms carry a genuine O(p^3) remainder with constant
    # ~85 for P_0; the integrated hierarchy must sit inside that envelope.
    for p, budget in ((0.005, 1.5e-5), (0.01, 1.1e-4)):
        traj = integrate(p, 10.0, OdeConfig(dt=1e-3, L=64))
        for tau in (1.0, 2.0, 5.0, 10.0):
            st = traj.state_at(tau)
            cf = closed_form_short_runs(p, tau)
            assert abs(st.P[0] - cf[0]) < budget
            assert abs(st.P[1] - cf[1]) < budget
            assert abs(st.P[2] - cf[2]) < budget
            assert abs(st.P.sum() - closed_form_total(p, tau)) < budget


def test_truncation_robustness_doubling_L():
    a = integrate(0.05, 10.0, OdeConfig(dt=1e-3, L=64))
    b = integrate(0.05, 10.0, OdeConfig(dt=1e-3, L=128))
    assert np.abs(a.state_at(10.0).P[:11] - b.state_at(10.0).P[:11]).max() < 1e-10


def test_step_robustness_halving_dt():
    a = integrate(0.05, 10.0, OdeConfig(dt=1e-3, L=32))
    b = integrate(0.05, 10.0, OdeConfig(dt=5e-4, L=32))
    assert np.abs(a.state_at(10.0).P - b.state_at(10.0).P).max() < 1e-9


# ---------------------------------------------------------------------------
# compiled kernel against the numpy reference loop

# (p, tau_end, L, dt, stride): tau_end = 0, end times off the sample
# grid, and the smallest and a large truncation order.
KERNEL_GRID = [
    (0.3, 0.0, 8, 1e-3, 10),
    (0.01, 10.0, 64, 1e-3, 10),
    (0.05, 1.2345, 3, 1e-3, 7),
    (0.02, 2.0, 128, 5e-3, 3),
    (0.9, 0.999, 16, 1e-2, 1),
    (0.005, 0.25, 5, 1e-3, 1000),
]


def _run_rk4(rk4, p, tau_end, L, dt, stride, start, out, work):
    """Call one of the two RK4 loops as integrate does; a copy of out."""
    out.fill(np.nan)
    assert rk4(p, dt, int(round(tau_end / dt)), stride, L, start, out, work) == 0
    return out.copy()


def _rk4_arrays(tau_end, L, dt, stride):
    """The all-defect start, an out table of integrate's shape and a work array."""
    n_steps = int(round(tau_end / dt))
    start = np.zeros(L + 1)
    start[0] = 1.0
    out = np.empty((-(-n_steps // stride), L + 1))
    return start, out, np.empty(6 * (L + 1))


@pytest.mark.parametrize("p, tau_end, L, dt, stride", KERNEL_GRID)
def test_kernel_matches_numpy_loop(p, tau_end, L, dt, stride):
    lib = _native.load()
    if lib is None:
        pytest.skip("no C compiler found, or the kernel could not be built or loaded")
    arrays = _rk4_arrays(tau_end, L, dt, stride)
    got = _run_rk4(lib.mf_rk4, p, tau_end, L, dt, stride, *arrays)
    ref = _run_rk4(_rk4_numpy, p, tau_end, L, dt, stride, *arrays)
    # P_0..P_2 never read a convolution sum of more than one term, so they
    # match bit for bit; the longer sums may be added in another order.
    assert np.array_equal(got[:, :3], ref[:, :3])
    big = np.abs(ref) > 1e-280
    np.testing.assert_allclose(got[big], ref[big], rtol=1e-12, atol=0.0)
    assert np.all(np.abs(got[~big]) <= 1e-270)


def test_kernel_reports_first_non_finite_step():
    lib = _native.load()
    if lib is None:
        pytest.skip("no C compiler found, or the kernel could not be built or loaded")
    L = 4
    start = np.zeros(L + 1)
    start[0] = 1.0
    work = np.empty(6 * (L + 1))
    out = np.zeros((3, L + 1))
    assert lib.mf_rk4(0.5, 1e-3, 3, 1, L, start, out, work) == 0
    start[3] = 1e300  # overflows within the first step
    assert lib.mf_rk4(0.5, 1e-3, 3, 1, L, start, out, work) == 1


def _scalar_rk4_rows(start, p, dt, n_steps, L):
    """_native.c's rhs and RK4 update, one Python float operation per C one."""
    c0 = 1.0 + 5.0 * p - 2.0 * p * p
    c1 = 2.0 * p * (1.0 - p)
    c2 = p * p

    def rhs_c(P):
        dP = [-c0 * P[0] + P[1] + 1.0, -2.0 * P[1] + 2.0 * P[2] + c1 * P[0]]
        for ell in range(2, L + 1):
            m = ell - 2
            half = 0.0
            for k in range((m + 1) // 2):  # k < m - k, ascending
                half += P[k] * P[m - k]
            conv = 2.0 * half
            if m % 2 == 0:
                conv += P[m // 2] * P[m // 2]
            nxt = P[ell + 1] if ell < L else 0.0
            dP.append(-2.0 * P[ell] + 2.0 * nxt + c1 * P[ell - 1] * P[0] + c2 * conv)
        return dP

    half, sixth = 0.5 * dt, dt / 6.0
    P = list(start)
    rows = []
    for _ in range(n_steps):
        k1 = rhs_c(P)
        k2 = rhs_c([a + half * b for a, b in zip(P, k1)])
        k3 = rhs_c([a + half * b for a, b in zip(P, k2)])
        k4 = rhs_c([a + dt * b for a, b in zip(P, k3)])
        P = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(P, k1, k2, k3, k4)]
        rows.append(P)
    return rows


@pytest.mark.parametrize("L", [3, 4, 5, 6, 7, 9, 13, 64])
def test_kernel_is_the_scalar_transcription_bit_for_bit(L):
    # Pins every P_l, not just P_0..P_2: the kernel computes four convolution
    # half-sums at a time, and each must still add its terms in ascending k,
    # then double, then add the middle square when m is even.  The grid puts
    # even and odd m in the one-at-a-time remainder after zero to three
    # blocks of four, and L = 64, the size certify integrates, runs 15.
    lib = _native.load()
    if lib is None:
        pytest.skip("no C compiler found, or the kernel could not be built or loaded")
    # Large p and dt so that a one-ulp change in a convolution sum reaches P.
    p, dt, n_steps = 0.9, 0.1, 50
    work = np.empty(6 * (L + 1))
    for seed in range(4):
        start = np.random.default_rng([L, seed]).uniform(0.05, 1.0, L + 1)
        start /= start.sum()  # a distribution, so the 50 steps stay finite
        out = np.zeros((n_steps, L + 1))
        assert lib.mf_rk4(p, dt, n_steps, 1, L, start, out, work) == 0
        assert out.tolist() == _scalar_rk4_rows(start.tolist(), p, dt, n_steps, L), seed


def test_integrate_without_kernel_is_the_numpy_loop(monkeypatch):
    monkeypatch.setattr(_native, "load", lambda: None)
    got = integrate(0.05, 0.505, OdeConfig(dt=1e-3, L=16))
    start, out, work = _rk4_arrays(0.505, 16, 1e-3, SAMPLE_STRIDE)
    ref = _run_rk4(_rk4_numpy, 0.05, 0.505, 16, 1e-3, SAMPLE_STRIDE, start, out, work)
    # 505 steps: a sample every 10th step, then the last one, off the grid
    assert SAMPLE_STRIDE == 10
    assert got.taus.tolist() == [0.0, *(k * 1e-3 for k in range(10, 505, 10)), 505 * 1e-3]
    assert np.array_equal(got.P[0], start)
    assert np.array_equal(got.P[1:], ref)


@pytest.mark.parametrize("path", ["kernel", "numpy"])
def test_integrate_raises_on_divergence(monkeypatch, path):
    # p = 0.99 at dt = 0.01 overflows at step 866 on both paths.
    if path == "numpy":
        monkeypatch.setattr(_native, "load", lambda: None)
    elif _native.load() is None:
        pytest.skip("no C compiler found, or the kernel could not be built or loaded")
    with pytest.raises(IntegrationDivergedError, match=r"at tau = 8\.66 \("):
        integrate(0.99, 100.0, OdeConfig(dt=0.01, L=200))


@pytest.mark.parametrize("tau_end", [math.inf, -math.inf, math.nan, 1e30, 1e308, 2.1e4])
def test_integrate_rejects_unbounded_tau_end_before_any_work(monkeypatch, tau_end):
    # 2.1e4 at dt = 1e-3, stride 10 and L = 64 asks for 2.1e6 rows of 65
    # values, just above the 2^27 limit.
    def no_load():
        raise AssertionError("the kernel was loaded before tau_end was checked")

    monkeypatch.setattr(_native, "load", no_load)
    with pytest.raises(ValueError, match="finite|sample table"):
        integrate(0.01, tau_end, OdeConfig(dt=1e-3, L=64))


NO_CC = shutil.which("cc") is None


@pytest.mark.skipif(NO_CC, reason="no C compiler found")
def test_kernel_builds_and_loads_where_a_compiler_is_found():
    # load() turns a build error into None and the kernel tests above then
    # skip, so this is the test a C source that does not compile fails.
    assert _native.load() is not None


@pytest.mark.skipif(NO_CC, reason="no C compiler found")
def test_kernel_source_compiles_without_warnings(tmp_path):
    # The real compile with the loader's flags also reports the warnings that
    # only code generation emits (-Wpsabi, -Wmaybe-uninitialized).
    for extra in (["-fsyntax-only"], [*_native._FLAGS, "-o", str(tmp_path / "kernel.so")]):
        proc = subprocess.run(
            ["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", *extra, _native._SOURCE],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (extra, proc.stderr)


CLONES = '__attribute__((target_clones("avx2", "default")))'


def _baseline_source(variant):
    """_native.c built with rhs in one baseline copy, as a CPU without AVX2 or
    a target without the clone attribute runs it."""
    with open(_native._SOURCE) as fh:
        source = fh.read()
    if variant == "attribute-stripped":
        assert source.count(CLONES) == 1
        return source.replace(CLONES, "")
    # The guard reads __x86_64__ after the system headers, which need it.
    return f"#include <math.h>\n#include <string.h>\n#undef __x86_64__\n{source}"


@pytest.mark.skipif(NO_CC, reason="no C compiler found")
@pytest.mark.parametrize("variant", ["attribute-stripped", "not-x86-64"])
def test_baseline_kernel_gives_the_loaded_kernels_bits(tmp_path, variant):
    lib = _native.load()
    assert lib is not None
    source, target = tmp_path / "kernel.c", tmp_path / "kernel.so"
    source.write_text(_baseline_source(variant))
    subprocess.run(["cc", *_native._FLAGS, "-o", str(target), str(source)], check=True, timeout=120)
    assert b"rhs.avx2" not in target.read_bytes()  # one copy of rhs, no clones
    baseline = ctypes.CDLL(str(target))
    baseline.mf_rk4.argtypes, baseline.mf_rk4.restype = lib.mf_rk4.argtypes, lib.mf_rk4.restype
    L, n_steps, stride = 64, 10_000, 10
    start = np.zeros(L + 1)
    start[0] = 1.0
    work = np.empty(6 * (L + 1))
    for p in (0.005, 0.01, 0.02):  # the certify integrations
        got, want = (np.zeros((n_steps // stride, L + 1)) for _ in range(2))
        assert baseline.mf_rk4(p, 1e-3, n_steps, stride, L, start, got, work) == 0
        assert lib.mf_rk4(p, 1e-3, n_steps, stride, L, start, want, work) == 0
        assert got.tobytes() == want.tobytes(), p


def test_load_without_compiler_returns_none(monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name, *args, **kwargs: None)
    _native.load.cache_clear()
    try:
        assert _native.load() is None
    finally:
        _native.load.cache_clear()


# ---------------------------------------------------------------------------
# eigenvalue expansion


def test_eigenvalues_near_zero_factorization():
    # cubic at p = 0 factors as (x+1)(x+2)^2
    ec = eigenvalue_check(1e-4)
    assert ec.numeric[2] == pytest.approx(-1.0, abs=1e-3)
    assert ec.numeric[0] == pytest.approx(-2.0, abs=0.05)
    assert ec.numeric[1] == pytest.approx(-2.0, abs=0.05)


def test_eigenvalues_match_series_at_measured_order():
    # remainders lead with 72 p^3 (slow root) and +-953/64 p^{5/2} (fast pair,
    # lower root first)
    for p in (0.005, 0.01, 0.02):
        ec = eigenvalue_check(p)
        assert all(x < 0 for x in ec.numeric)
        assert len(set(ec.numeric)) == 3
        assert abs(ec.numeric[2] - ec.series[2]) < 90 * p**3
        assert abs(ec.numeric[0] - ec.series[0]) < 30 * p**2.5
        assert abs(ec.numeric[1] - ec.series[1]) < 30 * p**2.5


def test_eigenvalues_refuse_a_repeated_root():
    # At p = 1e-20 the float coefficients are exactly those of (x+1)(x+2)^2;
    # numpy.roots would split the double root by rounding.
    with pytest.raises(RegimeError, match="three distinct real roots"):
        eigenvalue_check(1e-20)


def test_eigenvalue_regime_validation():
    with pytest.raises(RegimeError):
        eigenvalue_check(0.5)
    with pytest.raises(RegimeError):
        eigenvalue_check(0.0)


# ---------------------------------------------------------------------------
# tail behaviour


def test_tail_stays_third_order_small():
    traj = integrate(0.01, 10.0, OdeConfig(dt=1e-3, L=64))
    rep = tail_check(traj)
    assert rep.threshold == pytest.approx(0.5 * 0.01**2)
    assert rep.max_tail_sum < rep.threshold
    assert rep.sum_ok


def test_tail_is_monotone_and_geometric():
    traj = integrate(0.01, 5.0, OdeConfig(dt=1e-3, L=64))
    st = traj.state_at(5.0)
    for ell in range(3, 10):
        assert st.P[ell] > st.P[ell + 1]
    rep = tail_check(traj)
    assert rep.decay_ok
    assert 0.0 < rep.fit.ratio < 1.0 / (1.0 + 0.01**3)
    assert rep.fit.gamma > 0.0


def test_tail_zero_at_start():
    traj = integrate(0.02, 0.0, OdeConfig(dt=1e-3, L=16))
    assert traj.tail_sums()[0] == 0.0


def test_paper_style_tail_envelope_holds_with_fitted_gamma():
    traj = integrate(0.02, 8.0, OdeConfig(dt=1e-3, L=48))
    rep = tail_check(traj)
    base = 1.0 + 0.02**3
    for i in range(len(traj.taus)):
        for ell in range(3, 49):
            assert traj.P[i, ell] <= rep.fit.gamma / base**ell * (1 + 1e-12)


# ---------------------------------------------------------------------------
# long-run probability bound


def test_long_run_bound_frozen_values():
    assert long_run_bound(0.1, 4000, 1e6, 1.0) == pytest.approx(BOUND_N4000, rel=1e-9)
    assert long_run_bound(0.1, 100_000, 1e6, 1.0) == pytest.approx(BOUND_N100000, rel=1e-9)


def test_long_run_bound_monotonicity():
    assert long_run_bound(0.1, 4000, 2e6, 1.0) > long_run_bound(0.1, 4000, 1e6, 1.0)
    assert long_run_bound(0.1, 8000, 1e6, 1.0) < long_run_bound(0.1, 4000, 1e6, 1.0)


def test_long_run_bound_extreme_n_underflows_gracefully():
    assert long_run_bound(0.1, 4_000_000, 1e6, 1.0) < 1e-300


def test_long_run_bound_validation():
    with pytest.raises(ValueError):
        long_run_bound(0.1, 0, 1e6, 1.0)
    assert long_run_bound(0.1, 100, 0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# one-sided agreement with the exact process


def test_adjacent_defector_frequency_tracks_mean_field_to_first_order():
    # P_0 estimates the probability of two adjacent defectors.  The hierarchy
    # omits pair-creation flows from cooperator runs ending just left of the
    # probe position, so it sits slightly BELOW the exact process, by an O(p)
    # amount (measured excess between 0.4p and 2p for p <= 0.05).  Assert the
    # calibrated band: P_0 - noise <= empirical <= P_0 + 2.2p.
    p, n, reps = 0.05, 2000, 24
    strat = Strategy.rp(p)
    for tau in (0.5, 2.0):
        traj = integrate(p, tau, OdeConfig(dt=1e-3, L=32))
        estimate = float(traj.state_at(tau).P[0])
        freqs = []
        for rep in range(reps):
            state = new_state(n, AllDefect(), derive_seed(2024, 0, 0, rep))
            advance(state, strat, int(tau * n))
            s = state.states
            adj = sum(1 for i in range(n) if s[i - 1] == -1 and s[i] == -1)
            freqs.append(adj / n)
        mean = sum(freqs) / reps
        se = (sum((f - mean) ** 2 for f in freqs) / (reps - 1)) ** 0.5 / math.sqrt(reps)
        assert estimate - 5 * se <= mean <= estimate + 2.2 * p, (tau, mean, estimate, se)
