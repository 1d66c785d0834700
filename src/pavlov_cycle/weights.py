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

import dataclasses
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _native
from .dynamics import CycleState, Strategy, StrategyKind, run_lengths, transition_branches
from .experiments import atomic_write_text, left_sum

MARGIN_TOL = 1e-9

# Longest run length searched for the crossover.
_L_CAP = 200

_RATIO_SERIES = "h"
_INCREMENT_SERIES = "f"
_CLAIM_SIDE = {_RATIO_SERIES: -1, _INCREMENT_SERIES: 1}  # the side of its bound each claim covers


class InfeasibleParameterError(ValueError):
    """No weight certificate exists at the requested parameters."""


class NoRootError(ValueError):
    """The requested series has no sign change in (0, 1)."""


def _checked_family(kind: StrategyKind | str, p: float, omega: float) -> StrategyKind:
    """The recurrence family of a public call whose arguments pass their checks.

    Strategy checks (kind, p); pavlov, the p = 1 strategy, takes rp's recurrence.
    """
    strategy = Strategy(kind, p)
    if not math.isfinite(omega) or omega < 0.0:
        raise ValueError(f"omega must be finite and >= 0, got {omega}")
    return StrategyKind.SRP if strategy.kind is StrategyKind.SRP else StrategyKind.RP


def _recurrence(family: StrategyKind, p: float, omega: float) -> Iterator[float]:
    """Raw weights w[0], w[1], ... from the equality recurrence, without end.

    Each term is computed when it is pulled, so a scan stops paying at the
    term that decides it.
    """
    prev = 1.0  # w[1]
    cur = (1.0 - 0.5 * omega) * prev  # w[2], from the singleton constraint
    yield 0.0
    yield prev
    yield cur
    prefix = 0.0  # sum(w[0..l-2]) maintained incrementally
    ell = 2
    if family is StrategyKind.RP:
        a = p * (2.0 - p)
        b = p * (1.0 - p)
        c = p * p - 2.0 * p
        while True:
            nxt = -a * prefix - b * prev - 0.5 * (ell * c - (c + 2.0) + omega) * cur
            yield nxt
            prefix += prev
            prev, cur = cur, nxt
            ell += 1
    else:
        while True:
            nxt = -p * prefix + 0.5 * (p * ell - p + 2.0 - omega) * cur
            yield nxt
            prefix += prev
            prev, cur = cur, nxt
            ell += 1


def weight_recurrence(
    kind: StrategyKind | str, p: float, omega: float, l_max: int
) -> list[float]:
    """Raw weight sequence w[0..l_max] from the equality recurrence."""
    return list(islice(_recurrence(_checked_family(kind, p, omega), p, omega), max(l_max + 1, 0)))


def _ratio_rise(w_ell: float, w_next: float, ell: int) -> float:
    """l(l+1) (w[l+1]/(l+1) - w[l]/l), > 0 exactly where the ratio w/l turns upward."""
    return w_next * ell - w_ell * (ell + 1)


def _crossover_of(raw: Iterator[float]) -> tuple[list[float], int, float] | None:
    """Pull raw weights until the crossover or a weight <= 0, whichever comes first.

    Returns (w[0..crossover], crossover, slope), or None.  Reads at most
    w[0.._L_CAP + 1], one term past the length it stops at.
    """
    w = [next(raw), next(raw)]
    for ell in range(1, _L_CAP + 1):
        nxt = next(raw)
        if nxt <= 0.0:
            return None
        if _ratio_rise(w[ell], nxt, ell) > 0.0:
            return w, ell, w[ell] / ell
        w.append(nxt)
    return None


def find_crossover(kind: StrategyKind | str, p: float) -> tuple[int, float] | None:
    """First length where the ratio w[l]/l turns upward, with its value.

    Works on the omega = 0 raw sequence.  Returns (crossover, slope) where
    slope = w[crossover]/crossover, or None when the ratio keeps decreasing
    up to length 200 or a raw weight drops to <= 0 first.  An exactly flat
    step counts as still decreasing, which matters at p = 1.
    """
    found = _crossover_of(_recurrence(_checked_family(kind, p, 0.0), p, 0.0))
    return None if found is None else found[1:]


def _series_value(series: str, ell: int, p: float) -> float:
    w = list(islice(_recurrence(StrategyKind.RP, p, 0.0), ell + 2))
    if series == _RATIO_SERIES:
        return _ratio_rise(w[ell], w[ell + 1], ell)  # sign of h(l), scaled by l(l+1)
    if series == _INCREMENT_SERIES:
        return w[ell + 1] - w[ell]
    raise ValueError(f"series must be 'h' or 'f', got {series!r}")


def _check_tol(tol: float) -> None:
    """Reject a bisection tolerance that is not finite and > 0 (a plain tol <= 0 lets nan pass)."""
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _bisect(pred: Callable[[float], bool], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi], with pred false at lo and true at hi, to width tol.

    Also stops once lo and hi are adjacent floats: the midpoint then rounds
    to one of them, so a tol below their spacing would loop forever.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def threshold_bisect(series: str, ell: int, tol: float = 1e-6) -> float:
    """Root in (0, 1) of the chosen rp diagnostic series at fixed run length.

    Series 'h' is the forward difference of the per-length ratio w[l]/l and
    'f' that of the raw weights, both from the rp omega = 0 recurrence: each
    is a polynomial in p, negative below its threshold and positive above.
    Bisects [0, 1] to width tol; raises NoRootError unless the series is > 0
    at p = 1 and < 0 at the final lower end (h at l = 1 is identically -1/2),
    and ValueError once the weights at p = 1 overflow (h from l = 196, f 198).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    _check_tol(tol)
    if math.isnan(top := _series_value(series, ell, 1.0)):
        raise ValueError(f"series {series!r} at length {ell} overflows a double at p = 1")
    if top > 0.0:
        lo, hi = _bisect(lambda q: _series_value(series, ell, q) > 0.0, 0.0, 1.0, tol)
        if _series_value(series, ell, lo) < 0.0:
            return 0.5 * (lo + hi)
    raise NoRootError(f"series {series!r} at length {ell} has no root in (0, 1)")


def certified_cutoff(series: str, ell: int, root: float) -> float:
    """Tightest 3-decimal rp parameter bound for which the one-sided claim holds.

    For the ratio series the claim is "h(l) <= 0 for all p up to the bound"
    (largest such 3-dp value, i.e. the root rounded down); for the increment
    series it is "f(l) >= 0 from the bound up to 1" (smallest such 3-dp
    value, the root rounded up).  Either is side * series >= 0 between one
    end of [0, 1] and the bound, re-verified against the series by one walk,
    so the result is a certified grid bound, not a display rounding.
    """
    side = _CLAIM_SIDE[series]
    end = 500 * (1 + side)  # the claim's end of the grid: p = 0 for h, 1 for f

    def holds(j: int) -> bool:  # the claim j grid steps in from that end
        return side * _series_value(series, ell, (end - side * j) / 1000.0) >= 0.0

    j = end - math.ceil(side * root * 1000.0)  # the root, rounded toward the end
    while j > 0 and not holds(j):
        j -= 1
    while j + 1 < 1000 and holds(j + 1):
        j += 1
    return (end - side * j) / 1000.0


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

    # The weights, the drift terms and the constraint report, computed on
    # first use and kept for the table's lifetime.
    # cached_property writes the instance __dict__ directly, which a frozen
    # dataclass allows; ==, hash and repr still see only the fields above.

    @cached_property
    def weights(self) -> tuple[float, ...]:
        """w(0..n): the raw weights up to the crossover, slope * l beyond it."""
        head = self.w_hat[: self.n + 1]
        return head + tuple(self.slope * ell for ell in range(len(head), self.n + 1))

    @cached_property
    def _weights_array(self) -> np.ndarray:
        """weights as a float64 array, for the numpy scans and the C library."""
        return np.array(self.weights, dtype=np.float64)

    @cached_property
    def _splits(self) -> tuple[tuple[int, int, float], ...]:
        """(a, b, prob) for each (-,-) outcome that is not (-,-) again."""
        return tuple(
            (int(na == -1), int(nb == -1), prob)
            for (na, nb), prob in transition_branches((-1, -1), Strategy(self.kind, self.p))
            if (na, nb) != (-1, -1)
        )

    @cached_property
    def _split_rows(self) -> np.ndarray:
        """Each (-,-) outcome's weight change over a run's internal edges, per length.

        Row i, column L - 1 holds prob * (prefix[L-1+a] + prefix[L-1+b] -
        (L-1) * w[L]) for the i-th (a, b, prob) of _splits and L = 1..n-1,
        with prefix[k] = w[0] + ... + w[k-1]: the scalar expression's IEEE
        operations, in its order.
        """
        w = self._weights_array
        prefix = np.concatenate(([0.0], np.cumsum(w)))
        lengths = np.arange(1, self.n)
        return np.array([
            prob * (prefix[lengths - 1 + a] + prefix[lengths - 1 + b] - (lengths - 1) * w[lengths])
            for a, b, prob in self._splits
        ], dtype=np.float64)

    @cached_property
    def _split_terms(self) -> tuple[tuple[float, ...], ...]:
        """_split_rows by run length: entry L holds column L - 1; entry 0 is empty."""
        return ((),) + tuple(zip(*self._split_rows.tolist()))

    @cached_property
    def _cycle_term(self) -> float:
        """Expected weight change of one (-,-) edge update in the all-defect cycle."""
        w, n = self.weights, self.n
        return left_sum(prob * (w[n - 2 + a + b] - w[n]) for a, b, prob in self._splits)

    @cached_property
    def _drift_args(self) -> tuple[int, int, int, float]:
        """_native's drift_sums arguments after (states, n): w, rows, nrows, cycle_term.

        w and rows are the addresses of _weights_array and _split_rows, which
        live as long as the table; __getstate__ keeps them out of a copy.
        """
        w, rows = self._weights_array, self._split_rows
        return w.ctypes.data, rows.ctypes.data, len(self._splits), self._cycle_term

    @cached_property
    def _constraints(self) -> ConstraintReport:
        return _evaluate_constraints(self)

    def __getstate__(self) -> dict[str, object]:
        """The fields alone: a copy or an unpickled table computes its own caches."""
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}

    def potential(self, states: Sequence[int]) -> float:
        """W(states): the weights of its defector runs, summed in increasing start order."""
        _, minus, _ = run_lengths(states)
        return left_sum(map(self.weights.__getitem__, minus))


def build_weight_table(kind: StrategyKind | str, p: float, omega: float, n: int) -> WeightTable:
    """Construct the weight table, or raise InfeasibleParameterError."""
    family = _checked_family(kind, p, omega)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    found = _crossover_of(_recurrence(family, p, omega))
    if found is None:
        raise InfeasibleParameterError(
            f"no weight certificate for {family.value} at p = {p}, omega = {omega}: "
            f"the ratio w[l]/l never turns upward (searched l <= {_L_CAP})"
        )
    w_hat, crossover, slope = found
    return WeightTable(
        kind=family,
        p=p,
        omega=omega,
        n=n,
        w_hat=tuple(w_hat),
        crossover=crossover,
        slope=slope,
    )


# ---------------------------------------------------------------------------
# constraint verification


@dataclass(frozen=True)
class ConstraintReport:
    """Slack of every certificate inequality; nonnegative slack = satisfied.

    run_margins[L - 1] is minus the one-step drift of a cycle holding one
    defector run of length L: n * (bound - expected_next) for L < n, and
    bound - expected_next, unscaled, for the all-defect cycle at L = n.
    merge_margin is the subadditivity w[a] + w[b] >= w[a+b] that prices run
    merges across a lone cooperator.
    """

    run_margins: tuple[float, ...]  # length n
    merge_margin: float

    @property
    def singleton_ok(self) -> bool:
        return _ok(self.run_margins[:1])

    @property
    def internal_ok(self) -> bool:
        return _ok(self.run_margins[1:-1])

    @property
    def nrun_ok(self) -> bool:
        return _ok(self.run_margins[-1:])

    @property
    def merge_ok(self) -> bool:
        return _ok((self.merge_margin,))

    @property
    def feasible(self) -> bool:
        return _ok((*self.run_margins, self.merge_margin))

    def worst(self) -> float:
        return min(*self.run_margins, self.merge_margin)


def _ok(margins: Sequence[float]) -> bool:
    return all(m >= -MARGIN_TOL for m in margins)


def check_constraints(table: WeightTable) -> ConstraintReport:
    """Evaluate every certificate inequality numerically at the table's p, omega, n.

    The report is computed once per table and handed out again on later calls.
    """
    return table._constraints


def _evaluate_constraints(table: WeightTable) -> ConstraintReport:
    n = table.n
    w = table._weights_array
    # One run of each length L = 1..n-1: its L - 1 internal edges split it,
    # and its two rim edges grow it to L + 1.
    margins = -(2.0 * w[2:] + table._split_rows.sum(axis=0) - (2.0 - table.omega) * w[1:n])
    nrun = -(table._cycle_term + table.omega / n * table.weights[n])

    # The merge margin in the C kernel where it can be built, else in numpy; same bits.
    lib = _native.load()
    merge = _merge_min_numpy(w, n) if lib is None else lib.merge_min(w, n)

    return ConstraintReport(run_margins=(*margins.tolist(), nrun), merge_margin=merge)


def _merge_min_numpy(w: np.ndarray, n: int) -> float:
    """min over 1 <= a <= b, a + b <= n of (w[a] + w[b]) - w[a + b], one row of b at a time.

    The reference of _native.c's merge_min: the same IEEE operations as a
    scalar double loop, and a minimum does not depend on the order it reads
    its values in.
    """
    merge = math.inf
    for a in range(1, n // 2 + 1):
        merge = min(merge, float((w[a] + w[a : n - a + 1] - w[2 * a : n + 1]).min()))
    return merge


# ---------------------------------------------------------------------------
# one-step drift


class DriftReport(NamedTuple):
    state_potential: float
    expected_next: float
    bound: float
    satisfied: bool


def one_step_drift(state: CycleState, table: WeightTable) -> DriftReport:
    """Exact E[W(next state)] over every edge and outcome branch, in O(n).

    An update changes only the defector runs next to its edge, so each
    branch is priced by the change in those runs' weights, with no
    successor state built:

    * a (-,-) edge at offset x of a run of length L splits the run into
      x + a and L - 2 - x + b, where a (b) is 1 when the left (right)
      endpoint stays a defector.  Summed over x = 0..L-2 the new weights
      are prefix[L - 1 + a] + prefix[L - 1 + b], with prefix[k] = w[0] +
      ... + w[k-1], so a run costs O(1): the table keeps these terms per
      length L, and the sum reads them in run order;
    * a mixed edge adds its cooperator to the run it faces (L -> L + 1).
      When that cooperator stands alone it merges the runs on both sides
      (LQ, LR -> LQ + 1 + LR), and when it is the last one the whole cycle
      becomes one run (n - 1 -> n);
    * the all-defect cycle loses one or two defectors from its single run;
    * (+,+) edges and (-,-) outcomes change nothing.

    The two sums, W(state) and n times the expected change, come from the C
    library's drift_sums where it can be built, else from
    _drift_sums_python, its reference; both add the same terms in the same
    order, so the report has the same bits either way.  Branch
    probabilities come from dynamics.transition_branches.  The O(n^2) brute
    force that rescans every successor lives in tests/test_weights.py as the
    reference both are checked against.
    """
    if state.n != table.n:
        raise ValueError(f"state has n = {state.n} but table has n = {table.n}")
    n = state.n
    lib = _native.load()
    if lib is None:
        w0, change = _drift_sums_python(state.states, table)
    else:
        states = array("b", state.states)  # held until the call returns
        if len(states) != n:
            raise ValueError(f"state has {len(states)} entries but n = {n}")
        sums = lib.drift_sums(states.buffer_info()[0], n, *table._drift_args)
        w0, change = sums.w0, sums.change
    expected = w0 + change / n
    bound = (1.0 - table.omega / n) * w0
    return DriftReport(w0, expected, bound, expected <= bound + MARGIN_TOL)


def _drift_sums_python(states: Sequence[int], table: WeightTable) -> tuple[float, float]:
    """(W(states), n times its expected one-step change): the reference of _native's drift_sums.

    The run lengths come from one boundary scan, dynamics.run_lengths, which
    potential and the trace snapshot read too.  W adds the defector runs'
    weights in increasing start order; the change adds their split terms in
    that order, then each cooperator run's rim terms in start order.
    """
    n = table.n
    w = table.weights
    sign, minus, plus = run_lengths(states)
    if not minus:
        return 0.0, 0.0
    w0 = left_sum(map(w.__getitem__, minus))
    if not plus:  # the all-defect cycle
        return w0, n * table._cycle_term
    change = left_sum(chain.from_iterable(map(table._split_terms.__getitem__, minus)))
    # Runs alternate in sign around the cycle from the first boundary, so
    # cooperator run k lies between the defector runs lefts[k] and rights[k].
    if sign == -1:
        lefts, rights = minus, minus[1:] + minus[:1]
    else:
        lefts, rights = minus[-1:] + minus[:-1], minus
    m = len(minus)
    for left, run, right in zip(lefts, plus, rights):
        if run > 1:
            change += w[left + 1] - w[left] + w[right + 1] - w[right]
        elif m > 1:
            change += 2.0 * (w[left + 1 + right] - w[left] - w[right])
        else:
            change += 2.0 * (w[n] - w[left])
    return w0, change


# ---------------------------------------------------------------------------
# feasibility threshold in p


def min_feasible_p(kind: StrategyKind | str, omega: float, n: int, tol: float = 1e-3) -> float:
    """Smallest p (to within tol) with a crossover and all constraints feasible.

    Bisects [0, 1] to width tol, as given, and returns the feasible end;
    raises InfeasibleParameterError unless p = 1 is feasible.
    """
    _check_tol(tol)
    # The search starts at p = 0, so pavlov, the p = 1 strategy, is refused.
    family = _checked_family(kind, 0.0, omega)

    def feasible(p: float) -> bool:
        try:
            table = build_weight_table(family, p, omega, n)
        except InfeasibleParameterError:
            return False
        return check_constraints(table).feasible

    if not feasible(1.0):
        raise InfeasibleParameterError(
            f"no feasible p in [0, 1] for {family.value} at omega = {omega}, n = {n}"
        )
    return _bisect(feasible, 0.0, 1.0, tol)[1]


# ---------------------------------------------------------------------------
# CSV export (consumed by the command line front end)


def weight_table_rows(table: WeightTable) -> list[tuple[int, float | None, float, float]]:
    """Rows (ell, raw weight or None, w(ell), ConstraintReport.run_margins[ell - 1])."""
    return [
        (ell, table.w_hat[ell] if ell <= table.crossover else None, table.weights[ell], margin)
        for ell, margin in enumerate(check_constraints(table).run_margins, start=1)
    ]


def write_weight_table_csv(table: WeightTable, path: str) -> None:
    lines = ["ell,w_hat,w,margin"]
    for ell, raw, wval, margin in weight_table_rows(table):
        raw_s = "" if raw is None else repr(raw)
        lines.append(f"{ell},{raw_s},{wval!r},{margin!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
