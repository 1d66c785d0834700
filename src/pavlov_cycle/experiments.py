"""Batch harnesses: absorption-time sweeps and the p = 0 defection clock.

Every run inside a batch draws its own seed from a fixed avalanche-quality
mix of (master_seed, n_index, p_index, rep_index), so results are bit
identical no matter how cells are ordered or spread across workers.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

from .dynamics import (
    AllDefect,
    InitConfig,
    Outcome,
    SingleDefector,
    Strategy,
    StrategyKind,
    run_until_absorbed,
)

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One splitmix64 scramble step (the usual constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Per-run seed: absorb each index into the running hash in order.

    Sequential absorption keeps the mix non-commutative, so swapping the
    n index against the rep index lands in an unrelated stream.
    """
    h = splitmix64(master_seed & _MASK64)
    for x in indices:
        h = splitmix64(h ^ (x & _MASK64))
    return h


def left_sum(terms: Iterable[float]) -> float:
    """0 + t0 + t1 + ..., one rounding per term, left to right.

    The float sums behind the pinned outputs (potentials, the drift oracle,
    a sweep cell's mean cooperation fraction) are this fold.  The builtin
    sum() is one only up to Python 3.11: from 3.12 it adds floats with
    Neumaier compensation, which moves their last bits.
    """
    total = 0
    for term in terms:
        total += term
    return total


# ---------------------------------------------------------------------------
# sweep configuration and records


@dataclass(frozen=True)
class SweepConfig:
    strategy_kind: StrategyKind
    n_list: tuple[int, ...]
    p_list: tuple[float, ...]
    reps: int = 100
    max_steps: int = 43_000_000
    master_seed: int = 0
    init: InitConfig = field(default_factory=AllDefect)

    def __post_init__(self) -> None:
        # n first: defect_time_experiment derives max_steps from it.
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        for n in self.n_list:
            if n < 3:
                raise ValueError(f"every n must be >= 3, got {n}")
        if not self.p_list:
            raise ValueError("p_list must not be empty")
        for p in self.p_list:
            Strategy(self.strategy_kind, p)
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0 <= self.master_seed <= _MASK64:  # derive_seed reads it mod 2^64
            raise ValueError(f"master_seed must be in [0, 2^64), got {self.master_seed}")


@dataclass(frozen=True)
class SweepRecord:
    strategy: str
    n: int
    p: float
    rep: int
    seed: int
    steps: int
    outcome: Outcome
    coop_fraction: float


def _run_block(args) -> list[SweepRecord]:
    config, n_idx, p_idx, rep_lo, rep_hi = args
    n = config.n_list[n_idx]
    p = config.p_list[p_idx]
    strategy = Strategy(config.strategy_kind, p)
    out = []
    for rep in range(rep_lo, rep_hi):
        seed = derive_seed(config.master_seed, n_idx, p_idx, rep)
        res = run_until_absorbed(n, config.init, strategy, seed, config.max_steps)
        out.append(
            SweepRecord(
                strategy=strategy.kind.value,
                n=n,
                p=p,
                rep=rep,
                seed=seed,
                steps=res.steps_taken,
                outcome=res.outcome,
                coop_fraction=res.cooperator_fraction,
            )
        )
    return out


def run_sweep(config: SweepConfig, workers: int = 1) -> list[SweepRecord]:
    """One record per (n, p, rep), in (n_index, p_index, rep) order.

    workers > 1 spreads blocks of reps over a process pool; the output is
    identical to the serial run because every rep owns a derived seed and
    pool.map, like the serial loop, returns blocks in submission order.
    """
    blocks = []
    block_size = max(1, config.reps // max(1, 4 * workers))
    for n_idx in range(len(config.n_list)):
        for p_idx in range(len(config.p_list)):
            for lo in range(0, config.reps, block_size):
                hi = min(lo + block_size, config.reps)
                blocks.append((config, n_idx, p_idx, lo, hi))
    if workers <= 1:
        results = [_run_block(b) for b in blocks]
    else:
        # The pool starts all of its processes at the first submit, so ask
        # for no more than there are blocks or CPUs.
        processes = min(workers, len(blocks), os.cpu_count() or 1)
        # Imported here: the pool loads multiprocessing, which serial runs never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_run_block, blocks, chunksize=1))
    return [rec for block in results for rec in block]


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class PhaseCell:
    strategy: str
    n: int
    p: float
    runs: int
    median_steps: float
    capped_fraction: float
    mean_coop_fraction: float


def phase_summary(records: list[SweepRecord]) -> list[PhaseCell]:
    """Per-(strategy, n, p) aggregates; medians because capped runs censor means."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, int, float], list[SweepRecord]] = {}
    for rec in records:
        groups.setdefault((rec.strategy, rec.n, rec.p), []).append(rec)
    cells = []
    for (strategy, n, p), group in sorted(groups.items()):
        steps = [r.steps for r in group]
        capped = sum(1 for r in group if r.outcome is Outcome.CAPPED)
        cells.append(
            PhaseCell(
                strategy=strategy,
                n=n,
                p=p,
                runs=len(group),
                median_steps=float(statistics.median(steps)),
                capped_fraction=capped / len(group),
                mean_coop_fraction=left_sum(r.coop_fraction for r in group) / len(group),
            )
        )
    return cells


# ---------------------------------------------------------------------------
# p = 0 defection clock


@dataclass(frozen=True)
class DefectTimeStats:
    """Measured absorption times to all-defect from a single defector at p = 0.

    expected_steps is the closed formula n(n-1)/2, never measured: each of
    the n-1 spreading events is geometric with success probability 2/n.
    deviation_band is the reported-only theoretical band constant*n^1.5*log n.
    """

    n: int
    reps: int
    mean_steps: float
    expected_steps: float
    deviation_band: float
    times: tuple[int, ...]


def defect_time_variance(n: int) -> float:
    """Exact variance of the absorption time: sum of n-1 geometric variances.

    Each stage has success probability 2/n, so variance n(n-2)/4 per stage.
    """
    return (n - 1) * n * (n - 2) / 4.0


_BAND_CONSTANT = 3.0  # DefectTimeStats.deviation_band = constant * n^1.5 * log n


def defect_time_experiment(n: int, reps: int, master_seed: int) -> DefectTimeStats:
    """reps runs of the rp sweep cell (n, p = 0) from one defector; rep r is seeded as in run_sweep."""
    # The expected time is n(n-1)/2; the cap 1000 n^2 is never hit in practice.
    config = SweepConfig(StrategyKind.RP, (n,), (0.0,), reps, 1000 * n * n, master_seed, SingleDefector(0))
    times = []
    for rec in _run_block((config, 0, 0, 0, reps)):
        if rec.outcome is not Outcome.ALL_MINUS:
            raise RuntimeError(f"defect-time run did not absorb (n={n}, rep={rec.rep})")
        times.append(rec.steps)
    return DefectTimeStats(
        n=n,
        reps=reps,
        mean_steps=sum(times) / reps,
        expected_steps=n * (n - 1) / 2.0,
        deviation_band=_BAND_CONSTANT * n**1.5 * math.log(n),
        times=tuple(times),
    )


# ---------------------------------------------------------------------------
# CSV serialization

CSV_HEADER = "strategy,n,p,rep,seed,steps,outcome,coop_fraction"


@contextlib.contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """A text handle on a temp file in path's directory, renamed to path on exit.

    Text can be written as it is made.  If the body raises, the temp file is
    removed and path is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                yield handle
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    """Write text via a temp file in the same directory, then rename into place."""
    with atomic_writer(path) as handle:
        handle.write(text)


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.strategy},{r.n},{r.p:.6f},{r.rep},{r.seed},{r.steps},"
            f"{r.outcome.value},{r.coop_fraction!r}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(records: list[SweepRecord], path: str) -> None:
    atomic_write_text(path, records_to_csv(records))


def parse_csv(path: str) -> list[SweepRecord]:
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not start with the sweep CSV header")
    records = []
    for line in lines[1:]:
        if not line:
            continue
        strategy, n, p, rep, seed, steps, outcome, frac = line.split(",")
        records.append(
            SweepRecord(
                strategy=strategy,
                n=int(n),
                p=float(p),
                rep=int(rep),
                seed=int(seed),
                steps=int(steps),
                outcome=Outcome(outcome),
                coop_fraction=float(frac),
            )
        )
    return records


def summary_to_csv(cells: list[PhaseCell]) -> str:
    lines = ["strategy,n,p,runs,median_steps,capped_fraction,mean_coop_fraction"]
    for c in cells:
        lines.append(
            f"{c.strategy},{c.n},{c.p:.6f},{c.runs},{c.median_steps!r},"
            f"{c.capped_fraction!r},{c.mean_coop_fraction!r}"
        )
    return "\n".join(lines) + "\n"
