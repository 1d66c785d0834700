"""Run-weight certificates for fast convergence to cooperation.

The certificate machinery assigns a weight w(l) to every defector run of
length l and checks that the potential W(S) = sum of run weights contracts
in expectation by a factor (1 - omega/n) at every step.  Raw weights come
from a linear recurrence chosen so that the contraction inequality for an
internal run update holds with equality:

  rp:   w[l+1] = -p(2-p) * sum(w[0..l-2]) - p(1-p) w[l-1]
                 - (l(p^2-2p) - (p^2-2p+2) + omega) w[l] / 2
  srp:  w[l+1] = -p * sum(w[0..l-2]) + (pl - p + 2 - omega) w[l] / 2

with seeds w[0] = 0, w[1] = 1 and w[2] = (1 - omega/2) w[1] from the
singleton constraint.  Raw weights eventually grow without bound, so the
final table switches to a linear tail slope*l at the crossover length: the
first l where the per-length ratio w[l]/l stops decreasing.  The crossover
exists only for p above a strategy-dependent threshold; below it the table
is infeasible and no certificate exists on this route.

Everything here is a pure function of its arguments and safe to call from
parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import CycleState, StrategyKind, minus_run_lengths

MARGIN_TOL = 1e-9

_RATIO_SERIES = "h"
_INCREMENT_SERIES = "f"


class InfeasibleParameterError(ValueError):
    """No weight certificate exists at the requested parameters."""


class NoRootError(ValueError):
    """The requested series has no sign change in (0, 1)."""


def _normalize_kind(kind: StrategyKind | str) -> StrategyKind:
    kind = StrategyKind(kind)
    # The deterministic strategy is the p = 1 member of either family.
    if kind is StrategyKind.PAVLOV:
        return StrategyKind.RP
    return kind


def weight_recurrence(
    kind: StrategyKind | str, p: float, omega: float, l_max: int
) -> list[float]:
    """Raw weight sequence w[0..l_max] from the equality recurrence."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if omega < 0.0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    kind = _normalize_kind(kind)
    w = [0.0, 1.0]
    if l_max < 1:
        return w[: l_max + 1]
    if l_max >= 2:
        w.append((1.0 - 0.5 * omega) * w[1])
    prefix = w[0]  # sum(w[0..l-2]) maintained incrementally
    if kind is StrategyKind.RP:
        a = p * (2.0 - p)
        b = p * (1.0 - p)
        c = p * p - 2.0 * p
        for ell in range(2, l_max):
            nxt = -a * prefix - b * w[ell - 1] - 0.5 * (ell * c - (c + 2.0) + omega) * w[ell]
            w.append(nxt)
            prefix += w[ell - 1]
    else:
        for ell in range(2, l_max):
            nxt = -p * prefix + 0.5 * (p * ell - p + 2.0 - omega) * w[ell]
            w.append(nxt)
            prefix += w[ell - 1]
    return w


def _crossover_of(w: Sequence[float], l_cap: int) -> tuple[int, float] | None:
    for ell in range(1, l_cap + 1):
        if w[ell + 1] <= 0.0:
            return None
        if w[ell + 1] * ell > w[ell] * (ell + 1):  # w[l+1]/(l+1) > w[l]/l
            return ell, w[ell] / ell
    return None


def find_crossover(
    kind: StrategyKind | str, p: float, l_cap: int = 200
) -> tuple[int, float] | None:
    """First length where the ratio w[l]/l turns upward, with its value.

    Works on the omega = 0 raw sequence.  Returns (crossover, slope) where
    slope = w[crossover]/crossover, or None when the ratio keeps decreasing
    up to l_cap or a raw weight drops to <= 0 first.  An exactly flat step
    counts as still decreasing, which matters at p = 1.
    """
    if l_cap < 2:
        raise ValueError(f"l_cap must be >= 2, got {l_cap}")
    kind = _normalize_kind(kind)
    w = weight_recurrence(kind, p, 0.0, l_cap + 1)
    return _crossover_of(w, l_cap)


def _series_value(kind: StrategyKind, series: str, ell: int, p: float) -> float:
    w = weight_recurrence(kind, p, 0.0, ell + 1)
    if series == _RATIO_SERIES:
        return w[ell + 1] / (ell + 1) - w[ell] / ell
    if series == _INCREMENT_SERIES:
        return w[ell + 1] - w[ell]
    raise ValueError(f"series must be 'h' or 'f', got {series!r}")


def threshold_bisect(
    series: str,
    ell: int,
    tol: float = 1e-6,
    kind: StrategyKind | str = StrategyKind.RP,
) -> float:
    """Root in (0, 1) of the chosen diagnostic series at fixed run length.

    Series 'h' is the forward difference of the per-length ratio w[l]/l;
    series 'f' is the forward difference of the raw weights.  Both are
    evaluated from the omega = 0 recurrence, so each is a polynomial in p,
    negative below its threshold and positive above.  Raises NoRootError
    when no sign change exists (e.g. h at l = 1 is identically -1/2).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    kind = _normalize_kind(kind)
    grid = 64
    prev = _series_value(kind, series, ell, 0.0)
    for k in range(1, grid + 1):
        q = k / grid
        val = _series_value(kind, series, ell, q)
        if prev < 0.0 < val:
            lo, hi = (k - 1) / grid, q
            break
        prev = val
    else:
        raise NoRootError(f"series {series!r} at length {ell} has no root in (0, 1)")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _series_value(kind, series, ell, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def certified_cutoff(
    series: str,
    ell: int,
    root: float | None = None,
    kind: StrategyKind | str = StrategyKind.RP,
) -> float:
    """Tightest 3-decimal parameter bound for which the one-sided claim holds.

    For the ratio series the claim is "h(l) <= 0 for all p up to the bound"
    (largest such 3-dp value, i.e. the root rounded down); for the increment
    series it is "f(l) >= 0 from the bound up to 1" (smallest such 3-dp
    value, the root rounded up).  Both directions are re-verified against
    the series itself, so the result is a certified grid bound rather than a
    display rounding of the root.
    """
    kind = _normalize_kind(kind)
    if root is None:
        root = threshold_bisect(series, ell, 1e-6, kind)
    if series == _RATIO_SERIES:
        k = math.floor(root * 1000.0)
        while k > 0 and _series_value(kind, series, ell, k / 1000.0) > 0.0:
            k -= 1
        while k + 1 < 1000 and _series_value(kind, series, ell, (k + 1) / 1000.0) <= 0.0:
            k += 1
    else:
        k = math.ceil(root * 1000.0)
        while k < 1000 and _series_value(kind, series, ell, k / 1000.0) < 0.0:
            k += 1
        while k - 1 > 0 and _series_value(kind, series, ell, (k - 1) / 1000.0) >= 0.0:
            k -= 1
    return k / 1000.0


@dataclass(frozen=True)
class WeightTable:
    """Final weight function for a cycle of n players.

    w(l) equals the raw recurrence value up to the crossover and slope*l
    beyond it.  Crossover and slope are taken from the same omega-perturbed
    sequence as the stored raw weights: the omega term is amplified through
    the recurrence, so mixing an omega = 0 slope with omega > 0 raw weights
    would break subadditivity near the crossover.  With a consistent
    sequence the ratio w(l)/l is non-increasing and every constraint below
    the crossover holds with equality by construction.
    """

    kind: StrategyKind
    p: float
    omega: float
    n: int
    w_hat: tuple[float, ...]  # raw weights 0..crossover, at the table's omega
    crossover: int
    slope: float

    def weight(self, ell: int) -> float:
        if ell <= self.crossover:
            return self.w_hat[ell]
        return self.slope * ell

    def weight_array(self) -> list[float]:
        """w(0..n) as a list for O(1) lookups."""
        return [self.weight(ell) for ell in range(self.n + 1)]

    def potential(self, states: Sequence[int], minus_count: int | None = None) -> float:
        w = self.weight_array()
        return sum(w[ell] for ell in minus_run_lengths(states, minus_count))


def build_weight_table(
    kind: StrategyKind | str, p: float, omega: float, n: int, l_cap: int = 200
) -> WeightTable:
    """Construct the weight table, or raise InfeasibleParameterError."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if l_cap < 2:
        raise ValueError(f"l_cap must be >= 2, got {l_cap}")
    kind = _normalize_kind(kind)
    w = weight_recurrence(kind, p, omega, l_cap + 1)
    found = _crossover_of(w, l_cap)
    if found is None:
        raise InfeasibleParameterError(
            f"no weight certificate for {kind.value} at p = {p}, omega = {omega}: "
            f"the ratio w[l]/l never turns upward (searched l <= {l_cap})"
        )
    crossover, slope = found
    return WeightTable(
        kind=kind,
        p=p,
        omega=omega,
        n=n,
        w_hat=tuple(w[: crossover + 1]),
        crossover=crossover,
        slope=slope,
    )


# ---------------------------------------------------------------------------
# constraint verification


@dataclass(frozen=True)
class ConstraintReport:
    """Slack of every certificate inequality; nonnegative slack = satisfied.

    singleton covers the growth of an isolated defector, internal the update
    of an internal edge of a run of each length 2..n-1, nrun the all-defect
    cycle, and merge the subadditivity w[a] + w[b] >= w[a+b] that prices run
    merges across a lone cooperator.
    """

    singleton_margin: float
    internal_margins: tuple[float, ...]  # index 0 is run length 2
    nrun_margin: float
    merge_margin: float
    tol: float = MARGIN_TOL

    @property
    def singleton_ok(self) -> bool:
        return self.singleton_margin >= -self.tol

    @property
    def internal_ok(self) -> bool:
        return all(m >= -self.tol for m in self.internal_margins)

    @property
    def nrun_ok(self) -> bool:
        return self.nrun_margin >= -self.tol

    @property
    def merge_ok(self) -> bool:
        return self.merge_margin >= -self.tol

    @property
    def feasible(self) -> bool:
        return self.singleton_ok and self.internal_ok and self.nrun_ok and self.merge_ok

    def worst(self) -> float:
        return min(
            self.singleton_margin,
            min(self.internal_margins, default=math.inf),
            self.nrun_margin,
            self.merge_margin,
        )


def check_constraints(table: WeightTable) -> ConstraintReport:
    """Evaluate every certificate inequality numerically at the table's p, omega, n."""
    p = table.p
    omega = table.omega
    n = table.n
    w = table.weight_array()
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

    # min over 1 <= l1 <= l2, l1 + l2 <= n of w[l1] + w[l2] - w[l1 + l2], one
    # row of l2 at a time: the same IEEE operations as a scalar double loop.
    wa = np.asarray(w)
    merge = math.inf
    for l1 in range(1, n // 2 + 1):
        merge = min(merge, float((wa[l1] + wa[l1 : n - l1 + 1] - wa[2 * l1 : n + 1]).min()))

    return ConstraintReport(
        singleton_margin=singleton,
        internal_margins=tuple(internal),
        nrun_margin=nrun,
        merge_margin=merge,
    )


# ---------------------------------------------------------------------------
# exact one-step drift oracle


@dataclass(frozen=True)
class DriftReport:
    state_potential: float
    expected_next: float
    bound: float
    satisfied: bool


def one_step_drift(state: CycleState, table: WeightTable) -> DriftReport:
    """Exact E[W(next state)] by enumerating every edge and outcome branch.

    Brute force on purpose: each successor configuration is materialized and
    its potential recomputed from its actual run structure, so run merges are
    priced at their true weight.  O(n^2) per call.
    """
    if state.n != table.n:
        raise ValueError(f"state has n = {state.n} but table has n = {table.n}")
    n = state.n
    p = table.p
    states = state.states
    w = table.weight_array()

    def pot(s: list[int]) -> float:
        return sum(w[ell] for ell in minus_run_lengths(s))

    w0 = pot(states)
    bound = (1.0 - table.omega / n) * w0
    if state.minus_count == 0:
        return DriftReport(0.0, 0.0, 0.0, True)

    if table.kind is StrategyKind.SRP:
        branches = [((1, 1), p), ((-1, -1), 1.0 - p)]
    else:
        branches = [
            ((1, 1), p * p),
            ((1, -1), p * (1.0 - p)),
            ((-1, 1), (1.0 - p) * p),
            ((-1, -1), (1.0 - p) * (1.0 - p)),
        ]

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


# ---------------------------------------------------------------------------
# feasibility threshold in p


def min_feasible_p(
    kind: StrategyKind | str,
    omega: float,
    n: int,
    tol: float = 1e-3,
    l_cap: int = 200,
) -> float:
    """Smallest p (to within tol) with a crossover and all constraints feasible."""
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    kind = _normalize_kind(kind)

    def feasible(p: float) -> bool:
        try:
            table = build_weight_table(kind, p, omega, n, l_cap)
        except InfeasibleParameterError:
            return False
        return check_constraints(table).feasible

    grid = 128
    hi = None
    for k in range(grid + 1):
        q = k / grid
        if feasible(q):
            hi = q
            break
    if hi is None:
        raise InfeasibleParameterError(
            f"no feasible p in [0, 1] for {kind.value} at omega = {omega}, n = {n}"
        )
    lo = max(hi - 1.0 / grid, 0.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# CSV export (consumed by the command line front end)


def weight_table_rows(table: WeightTable) -> list[tuple[int, float | None, float, float]]:
    """Rows (ell, raw weight or None, w(ell), constraint slack at ell).

    The slack column maps run length to the inequality that mentions it:
    length 1 gets the singleton slack, 2..n-1 the internal slack, n the
    whole-cycle slack.
    """
    report = check_constraints(table)
    rows = []
    for ell in range(1, table.n + 1):
        raw = table.w_hat[ell] if ell <= table.crossover else None
        if ell == 1:
            margin = report.singleton_margin
        elif ell < table.n:
            margin = report.internal_margins[ell - 2]
        else:
            margin = report.nrun_margin
        rows.append((ell, raw, table.weight(ell), margin))
    return rows


def write_weight_table_csv(table: WeightTable, path: str) -> None:
    from .experiments import atomic_write_text  # local import avoids a cycle

    lines = ["ell,w_hat,w,margin"]
    for ell, raw, wval, margin in weight_table_rows(table):
        raw_s = "" if raw is None else repr(raw)
        lines.append(f"{ell},{raw_s},{wval!r},{margin!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
