"""Mean-field estimates of cooperator-run probabilities in the slow regime.

For small forgiveness p, the chance that a cooperator run of length l starts
at a fixed position (conditioned on a defector to its left) is tracked by
P_l(tau), where tau = t/n is rescaled time; the hierarchy is derived as a
small-p upper bound and agrees with the exact process to first order in p.
Started from the all-defect configuration the estimates obey

    dP_0/dtau = -(1 + 5p - 2p^2) P_0 + P_1 + 1
    dP_1/dtau = -2 P_1 + 2 P_2 + 2p(1-p) P_0
    dP_l/dtau = -2 P_l + 2 P_{l+1} + 2p(1-p) P_{l-1} P_0
                + p^2 * sum_{k=0}^{l-2} P_k P_{l-2-k}          (l >= 2)

with P_0(0) = 1 and P_l(0) = 0 otherwise.  The module integrates a truncated
version of the hierarchy (closure P_{L+1} = 0), evaluates the second-order
closed forms the truncation is checked against, verifies the eigenvalue
expansion of the linearized short-run block, and quantifies the geometric
tail decay that makes long cooperator runs exponentially unlikely.

The truncation is harmless because the tail mass sum_{l>=3} P_l stays at
o(p^2); tail_check measures this on every trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _native


class IntegrationDivergedError(RuntimeError):
    """Non-finite values appeared; reduce dt or increase the truncation order."""


class RegimeError(ValueError):
    """The small-p expansion does not apply at the requested p."""


@dataclass(frozen=True)
class MeanFieldState:
    p: float
    L: int
    tau: float
    P: np.ndarray  # P_0..P_L


# integrate records every this many steps, and the last one.
SAMPLE_STRIDE = 10


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step integration settings; the closure is always P_{L+1} = 0."""

    dt: float = 1e-3
    L: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.dt <= 0.01:
            raise ValueError(f"dt must lie in (0, 0.01], got {self.dt}")
        if self.L < 3:
            raise ValueError(f"truncation order L must be >= 3, got {self.L}")


def rhs(P: np.ndarray, p: float) -> np.ndarray:
    """Time derivative of the truncated hierarchy at P_0..P_L."""
    L = len(P) - 1
    dP = np.empty_like(P)
    dP[0] = -(1.0 + 5.0 * p - 2.0 * p * p) * P[0] + P[1] + 1.0
    dP[1] = -2.0 * P[1] + 2.0 * P[2] + 2.0 * p * (1.0 - p) * P[0]
    shifted = np.zeros(L - 1)
    shifted[: L - 2] = P[3:]
    conv = np.convolve(P, P)[: L - 1]  # conv[l-2] = sum_k P_k P_{l-2-k}
    dP[2:] = (
        -2.0 * P[2:]
        + 2.0 * shifted
        + 2.0 * p * (1.0 - p) * P[1:-1] * P[0]
        + p * p * conv
    )
    return dP


@dataclass(frozen=True)
class Trajectory:
    p: float
    L: int
    taus: np.ndarray  # sampled times, shape (m,)
    P: np.ndarray  # sampled bounds, shape (m, L+1)

    def state_at(self, tau: float) -> MeanFieldState:
        """Sampled state nearest to tau (exact when tau sits on the sample grid)."""
        idx = int(np.argmin(np.abs(self.taus - tau)))
        return MeanFieldState(p=self.p, L=self.L, tau=float(self.taus[idx]), P=self.P[idx])

    def tail_sums(self) -> np.ndarray:
        """sum_{l>=3} P_l at every sampled time."""
        return self.P[:, 3:].sum(axis=1)


# Largest sample table integrate will fill, in float64 values (1 GiB).
_MAX_SAMPLE_DOUBLES = 2**27


def integrate(p: float, tau_end: float, config: OdeConfig | None = None) -> Trajectory:
    """Classical fixed-step 4th order integration from the all-defect start.

    Samples every SAMPLE_STRIDE steps; the final state is always
    included.  Raises ValueError, before any step, when tau_end is not
    finite or its samples would hold more than 2^27 values, and
    IntegrationDivergedError on non-finite values.  The steps run in the
    compiled kernel mf_rk4 of _native.c when it can be built, else in
    _rk4_numpy; both fill the same sample table and the two agree to
    rounding in the convolution sums.  The kernel forms each
    conv_m = sum_{k=0}^{m} P_k P_{m-k} from half its terms: the sum over
    k < m - k in ascending k, doubled, plus P_{m/2}^2 when m is even.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not math.isfinite(tau_end) or tau_end < 0.0:
        raise ValueError(f"tau_end must be finite and >= 0, got {tau_end}")
    config = config or OdeConfig()
    L, dt, stride = config.L, config.dt, SAMPLE_STRIDE
    # The table keeps up to n_steps // stride + 2 samples of L + 1 values.
    quotient = tau_end / dt  # inf when the division overflows
    rows = math.inf if math.isinf(quotient) else int(round(quotient)) // stride + 2
    if rows * (L + 1) > _MAX_SAMPLE_DOUBLES:
        raise ValueError(
            f"tau_end = {tau_end:g} at dt = {dt:g} needs a sample table of {rows:g} x {L + 1} "
            f"doubles, more than the limit of {_MAX_SAMPLE_DOUBLES}"
        )
    lib = _native.load()
    rk4 = _rk4_numpy if lib is None else lib.mf_rk4
    n_steps = int(round(quotient))
    steps = np.arange(stride, n_steps + 1, stride)
    if n_steps % stride:
        steps = np.append(steps, n_steps)
    taus = np.concatenate(([0.0], steps * dt))
    samples = np.zeros((len(taus), L + 1))
    samples[0, 0] = 1.0
    work = np.empty(6 * (L + 1))
    failed = rk4(p, dt, n_steps, stride, L, samples[0], samples[1:], work)
    if failed:
        raise IntegrationDivergedError(
            f"non-finite values at tau = {failed * dt:.6g} (p = {p}, L = {L}, dt = {dt})"
        )
    return Trajectory(p=p, L=L, taus=taus, P=samples)


def _rk4_numpy(
    p: float, dt: float, n_steps: int, stride: int, L: int,
    start: np.ndarray, out: np.ndarray, work: np.ndarray,
) -> int:
    """mf_rk4 in numpy: the reference loop, and the only path when no C compiler is found.

    Takes n_steps from start, writes every stride-th state and the last one
    to the successive rows of out, and returns the first step whose state is
    not finite, else 0.  L is len(start) - 1, and work goes unused: each
    step allocates its own arrays.  numpy's overflow and invalid-value
    warnings are silenced, as the return value reports a divergence.
    """
    P = start.copy()
    row = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k1 = rhs(P, p)
            k2 = rhs(P + 0.5 * dt * k1, p)
            k3 = rhs(P + 0.5 * dt * k2, p)
            k4 = rhs(P + dt * k3, p)
            P = P + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(P)):
                return step
            if step % stride == 0 or step == n_steps:
                out[row] = P
                row += 1
    return 0


# ---------------------------------------------------------------------------
# second-order closed forms (small p)


def closed_form_short_runs(p: float, tau: float) -> tuple[float, float, float]:
    """(P_0, P_1, P_2) from the second-order perturbative solution.

    Valid for small p; the dropped remainder is O(p^3) uniformly in tau (its
    coefficient for P_0 grows from about -12 at tau = 1 to about -88 as tau
    grows).
    """
    e1 = math.exp(-tau)
    e2 = math.exp(-2.0 * tau)
    p0 = (
        1.0
        + (-4.0 + 3.0 * e1 + e2) * p
        + (18.5 + (5.0 * e2 - 9.0 * e1) * tau + 2.0 * e2 * tau * tau - 31.0 * e1 + 12.5 * e2)
        * p
        * p
    )
    p1 = (1.0 - e2) * p + (-3.5 + 6.0 * e1 - 2.5 * e2 - e2 * tau - 2.0 * e2 * tau * tau) * p * p
    p2 = (1.5 - 1.5 * e2 - 2.0 * e2 * tau) * p * p
    return p0, p1, p2


def closed_form_total(p: float, tau: float) -> float:
    """Second-order closed form for the total bound mass sum_l P_l.

    The dropped remainder is O(p^3) uniformly in tau, as for the short runs.
    """
    e1 = math.exp(-tau)
    e2 = math.exp(-2.0 * tau)
    return (
        1.0
        - 3.0 * (1.0 - e1) * p
        + (2.0 * e2 * tau + 8.5 * e2 - 9.0 * e1 * tau - 25.0 * e1 + 16.5) * p * p
    )


# ---------------------------------------------------------------------------
# eigenvalue expansion of the linearized short-run block


@dataclass(frozen=True)
class EigenCheck:
    numeric: tuple[float, float, float]  # ascending
    series: tuple[float, float, float]  # matched order
    max_deviation: float


def eigenvalue_check(p: float) -> EigenCheck:
    """Numeric roots of the short-run characteristic cubic vs their series.

    The cubic is x^3 + (5+5p-2p^2) x^2 + (8+14p-2p^2) x + (4+12p-20p^2+28p^3-8p^4);
    its roots are real, distinct, and negative for small p, approaching
    {-1, -2, -2} as p -> 0.  Series (ascending order to match):

        -2 - 2 sqrt(p) - p + 11/4 p^{3/2} - 6 p^2
        -2 + 2 sqrt(p) - p - 11/4 p^{3/2} - 6 p^2
        -1 - 3p + 14 p^2

    The next terms, which the series drop, are +953/64 p^{5/2} and
    -953/64 p^{5/2} for the fast pair (in the order above) and 72 p^3 for the
    slow root, so the remainders are O(p^{5/2}) and O(p^3).  The numeric
    roots come from numpy.roots; RegimeError when the cubic's float
    coefficients do not give three distinct real roots.
    """
    if not 0.0 < p < 0.1:
        raise RegimeError(f"eigenvalue series applies for 0 < p < 0.1, got {p}")
    a2 = 5.0 + 5.0 * p - 2.0 * p * p
    a1 = 8.0 + 14.0 * p - 2.0 * p * p
    a0 = 4.0 + 12.0 * p - 20.0 * p * p + 28.0 * p**3 - 8.0 * p**4
    # Exact discriminant of the float cubic: positive iff its roots are real and distinct.
    b2, b1, b0 = map(Fraction, (a2, a1, a0))
    disc = (b2 * b1) ** 2 - 4 * b1**3 - 4 * b2**3 * b0 + 18 * b2 * b1 * b0 - 27 * b0 * b0
    roots = np.roots([1.0, a2, a1, a0])
    if disc <= 0 or roots.imag.any():
        raise RegimeError(
            f"cubic x^3 + {a2}x^2 + {a1}x + {a0} does not have three distinct real roots"
        )
    numeric = sorted(roots.real.tolist())
    if any(x >= 0.0 for x in numeric):
        raise RegimeError(f"expected negative roots at p = {p}, got {numeric}")
    sp = math.sqrt(p)
    series = sorted(
        [
            -1.0 - 3.0 * p + 14.0 * p * p,
            -2.0 - 2.0 * sp - p + 2.75 * p * sp - 6.0 * p * p,
            -2.0 + 2.0 * sp - p - 2.75 * p * sp - 6.0 * p * p,
        ]
    )
    dev = max(abs(n - s) for n, s in zip(numeric, series))
    return EigenCheck(numeric=tuple(numeric), series=tuple(series), max_deviation=dev)


# ---------------------------------------------------------------------------
# tail behaviour


@dataclass(frozen=True)
class TailFit:
    gamma: float  # smallest prefactor making P_l <= gamma / (1+p^3)^l on the data
    ratio: float  # fitted geometric ratio of P_l in l


@dataclass(frozen=True)
class TailReport:
    fit: TailFit
    max_tail_sum: float  # max over sampled tau of sum_{l>=3} P_l
    threshold: float  # the concrete check level 0.5 p^2
    sum_ok: bool
    decay_ok: bool  # fitted ratio at least as fast as 1/(1+p^3)


# The tail mass must stay below this multiple of p^2.
_TAIL_THRESHOLD_FACTOR = 0.5


def tail_check(trajectory: Trajectory) -> TailReport:
    """Verify the tail mass stays below 0.5 p^2 and decays geometrically.

    The geometric fit regresses log P_l on l over l >= 3 at the final sampled
    time, ignoring entries below 1e-280 to stay clear of underflow.  gamma is
    the smallest constant for which P_l <= gamma/(1+p^3)^l holds over every
    sampled time and l >= 3.
    """
    p = trajectory.p
    tails = trajectory.tail_sums()
    max_tail = float(tails.max())
    threshold = _TAIL_THRESHOLD_FACTOR * p * p

    base = 1.0 + p**3
    ells = np.arange(trajectory.P.shape[1])
    # gamma over all sampled times, tail lengths only
    scaled = trajectory.P[:, 3:] * np.power(base, ells[3:])
    gamma = float(scaled.max())

    last = trajectory.P[-1]
    mask = (ells >= 3) & (last > 1e-280)
    if mask.sum() >= 3:
        slope = np.polyfit(ells[mask], np.log(last[mask]), 1)[0]
        ratio = float(math.exp(slope))
    else:
        ratio = 0.0
    return TailReport(
        fit=TailFit(gamma=gamma, ratio=ratio),
        max_tail_sum=max_tail,
        threshold=threshold,
        sum_ok=max_tail < threshold,
        decay_ok=ratio < 1.0 / base,
    )


def long_run_bound(p: float, n: int, steps: float, gamma: float) -> float:
    """Bound on ever seeing a cooperator run of length n/4 within the given steps.

    Evaluates steps * n * gamma / (1+p^3)^(n/4), computed in log space so
    huge n do not underflow.  Meaningful (below 1) only once n is large.
    """
    if n <= 0 or steps < 0 or gamma <= 0:
        raise ValueError("need n > 0, steps >= 0, gamma > 0")
    if steps == 0:
        return 0.0
    log_bound = math.log(steps) + math.log(n) + math.log(gamma) - (n / 4.0) * math.log1p(p**3)
    return math.exp(log_bound)
