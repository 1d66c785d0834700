"""The three benchmark workloads: inputs, timed body, output checks, traced extras.

Every input is a pure function of the workload seed and the size table.
Every call into the package goes through a module attribute
(``dynamics.advance``, never a name imported from it), so the traced run can
wrap the public functions from outside without changing the package.

lowp-capped  rp sweep at n = 100, p in {0.1..0.4}, all-defect start, capped
             at 10^6 steps, through ``run_sweep(workers=2)``, then summary,
             CSV round trip and charts.  Fixed work per run; the only
             workload that goes through the process pool.
absorb       serial runs to absorption: (a) many short n = 100 runs at
             p in {0.7..1.0}, where per-run fixed costs matter; (b) a few
             n = 10^4 runs where almost every pick is a (+,+) null event;
             (c) the p = 0 defection clock.
certify      the numeric layers only: threshold CLI, crossover grid,
             feasibility search, constraint check at n = 3000, the exact
             drift oracle on random states, and the mean-field hierarchy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from pavlov_cycle import charts, cli, dynamics, experiments, meanfield, weights
from pavlov_cycle.dynamics import (
    AllDefect,
    Explicit,
    InitConfig,
    Outcome,
    Strategy,
    StrategyKind,
)

DEFAULT_SEED = 20250808  # MASTER_SEED of the acceptance suite
HERE = os.path.dirname(os.path.abspath(__file__))
REFILL_SIZE = 8192  # draws per buffer refill in dynamics.CycleState


@dataclass(frozen=True)
class Sizes:
    lowp_p: tuple[float, ...]
    lowp_reps: int
    lowp_max_steps: int
    absorb_p: tuple[float, ...]
    absorb_reps: int
    big_n: int
    big_reps: int  # per strategy
    clock_n: int
    clock_reps: int
    lowp_replay: int  # steps replayed with step() per lowp-capped cell
    feasible_n: tuple[int, ...]
    table_n: int
    drift_n: tuple[int, ...]
    drift_p: tuple[float, ...]
    drift_states: int  # per (n, p)
    meanfield_p: tuple[float, ...]
    meanfield_tau: float


SIZES = {
    "full": Sizes(
        lowp_p=(0.1, 0.2, 0.3, 0.4),
        lowp_reps=4,
        lowp_max_steps=1_000_000,
        absorb_p=(0.7, 0.8, 0.9, 1.0),
        absorb_reps=250,
        big_n=10_000,
        big_reps=5,
        clock_n=100,
        clock_reps=200,
        lowp_replay=200_000,
        feasible_n=(100, 1000),
        table_n=3000,
        drift_n=(10, 20, 40),
        drift_p=(0.87, 0.9, 0.95, 1.0),
        drift_states=500,
        meanfield_p=(0.005, 0.01, 0.02),
        meanfield_tau=10.0,
    ),
    # A few seconds per workload; for the self-test only.
    "tiny": Sizes(
        lowp_p=(0.2, 0.4),
        lowp_reps=2,
        lowp_max_steps=20_000,
        absorb_p=(0.9, 1.0),
        absorb_reps=5,
        big_n=1000,
        big_reps=1,
        clock_n=30,
        clock_reps=200,
        lowp_replay=2000,
        feasible_n=(100,),
        table_n=300,
        drift_n=(10,),
        drift_p=(0.9,),
        drift_states=50,
        meanfield_p=(0.01,),
        meanfield_tau=1.0,
    ),
}

# Published 3-decimal bounds (paper; acceptance criteria 1 and 2).
PUBLISHED_H = {4: "0.897", 5: "0.877", 6: "0.871", 7: "0.870", 8: "0.869"}
PUBLISHED_F = {3: "0.689", 4: "0.805", 5: "0.850", 6: "0.865", 7: "0.869"}
# Feasibility thresholds at omega = 1e-4: (value, tolerance).
PUBLISHED_P0 = {"rp": (0.870, 0.002), "srp": (0.699, 0.005)}
OMEGA = 1e-4
CROSSOVER_GRID = 1001  # p = k/1000 for k = 0..1000, as in acceptance criterion 3


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.reasons) < 10:
                self.reasons.append(what)


@dataclass
class Outputs:
    """What one timed body produced; the check runs after the clock stops."""

    sim_s: float = 0.0  # wall time inside simulation calls
    steps: int = 0  # sum of steps_taken over every run
    runs: int = 0
    digest: str = ""  # sha256 of byte-stable outputs, "" when none
    info: dict[str, float] = field(default_factory=dict)  # recorded, never checked


@dataclass(frozen=True)
class Cell:
    """One (n, init, strategy, seed) run whose prefix the edge-class replay steps."""

    label: str
    n: int
    init: InitConfig
    strategy: Strategy
    seed: int
    prefix: int


def _sha256(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _expected_digest(name: str, seed: int, sizes: Sizes) -> str | None:
    """Stored sha256 of the workload's outputs for the stored seed at full size."""
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    if seed != expected["seed"] or sizes is not SIZES["full"]:
        return None
    return expected["sha256"].get(name)


class Workload:
    name = ""
    workers = 1
    rates: tuple[str, ...] = ()  # which of steps_per_s, runs_per_s apply

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        # Outputs must match this digest; without a stored one the first
        # body's digest becomes the reference, so reruns must be identical.
        self.reference = _expected_digest(self.name, seed, sizes)

    @property
    def ops(self) -> int:
        """Operations one body attempts (all count as failed if it raises)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def body(self, workdir: str) -> Outputs:
        raise NotImplementedError

    def check(self, out: Outputs, tally: Tally) -> None:
        raise NotImplementedError

    def check_digest(self, out: Outputs, tally: Tally) -> None:
        if self.reference is None:
            self.reference = out.digest
        tally.check(out.digest == self.reference, f"output sha256 {out.digest} != {self.reference}")

    def cells(self) -> list[Cell]:
        return []

    def replay(self, tracer, untraced: Outputs, tally: Tally) -> None:
        """Extra traced work after the traced body (none by default)."""

    def run_latencies(self, tracer) -> list[float]:
        """Per-run wall times in seconds, from the traced spans."""
        return []

    def pool_efficiency(self, tracer) -> float:
        return 0.0


# ---------------------------------------------------------------------------
# lowp-capped


@dataclass
class SweepOutputs(Outputs):
    records: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    parsed: list = field(default_factory=list)
    summary: str = ""
    chart: str = ""


class LowPCapped(Workload):
    name = "lowp-capped"
    workers = 2
    rates = ("steps_per_s",)

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.config = experiments.SweepConfig(
            strategy_kind=StrategyKind.RP,
            n_list=(100,),
            p_list=sizes.lowp_p,
            reps=sizes.lowp_reps,
            max_steps=sizes.lowp_max_steps,
            master_seed=seed,
        )

    @property
    def ops(self) -> int:
        c = self.config
        return len(c.p_list) * c.reps + len(c.p_list) + 3

    def warm_up(self) -> None:
        warm = experiments.SweepConfig(
            StrategyKind.RP, (100,), (0.2,), reps=self.workers, max_steps=10_000, master_seed=self.seed
        )
        experiments.run_sweep(warm, workers=self.workers)

    def body(self, workdir: str) -> SweepOutputs:
        t0 = time.perf_counter()
        records = experiments.run_sweep(self.config, workers=self.workers)
        sim_s = time.perf_counter() - t0
        cells = experiments.phase_summary(records)
        path = os.path.join(workdir, "records.csv")
        experiments.emit_csv(records, path)
        parsed = experiments.parse_csv(path)
        summary = experiments.summary_to_csv(cells)
        chart_path = os.path.join(workdir, "charts.svg")
        charts.render_phase_charts(cells, chart_path)
        with open(path) as handle:
            csv_text = handle.read()
        with open(chart_path) as handle:
            chart = handle.read()
        return SweepOutputs(
            sim_s=sim_s,
            steps=sum(r.steps for r in records),
            runs=len(records),
            digest=_sha256(csv_text),
            records=records,
            cells=cells,
            parsed=parsed,
            summary=summary,
            chart=chart,
        )

    def check(self, out: SweepOutputs, tally: Tally) -> None:
        cap = self.config.max_steps
        for r in out.records:
            tally.check(
                r.steps == cap and r.outcome is Outcome.CAPPED,
                f"p={r.p} rep={r.rep}: {r.outcome.value} after {r.steps} steps, want capped at {cap}",
            )
        for c in out.cells:
            tally.check(
                abs(c.mean_coop_fraction - c.p) <= 0.1,
                f"p={c.p}: mean cooperator fraction {c.mean_coop_fraction:.4f} not within 0.1 of p",
            )
        want_runs = len(self.config.p_list) * self.config.reps
        tally.check(
            len(out.records) == want_runs and out.parsed == out.records,
            "records.csv does not parse back to the sweep records",
        )
        tally.check(
            out.summary.count("\n") == len(out.cells) + 1 and out.chart.startswith("<svg"),
            "summary CSV or chart SVG malformed",
        )
        self.check_digest(out, tally)

    def cells(self) -> list[Cell]:
        c = self.config
        return [
            Cell(
                f"rp p={p} n=100",
                100,
                c.init,
                Strategy(c.strategy_kind, p),
                experiments.derive_seed(c.master_seed, 0, p_idx, 0),
                self.sizes.lowp_replay,
            )
            for p_idx, p in enumerate(c.p_list)
        ]

    def replay(self, tracer, untraced: SweepOutputs, tally: Tally) -> None:
        """Serial replay of every pool run, so per-run spans are visible.

        Same derive_seed seeds as run_sweep; the records must be byte
        identical to those of the untraced pool run.
        """
        c = self.config
        records = []
        with tracer.span("bench.replay"):
            for n_idx, n in enumerate(c.n_list):
                for p_idx, p in enumerate(c.p_list):
                    strategy = Strategy(c.strategy_kind, p)
                    for rep in range(c.reps):
                        seed = experiments.derive_seed(c.master_seed, n_idx, p_idx, rep)
                        with tracer.span("bench.replay_run", new_run=True):
                            state = dynamics.new_state(n, c.init, seed)
                            outcome = dynamics.advance(state, strategy, c.max_steps)
                        records.append(
                            experiments.SweepRecord(
                                strategy=c.strategy_kind.value,
                                n=n,
                                p=p,
                                rep=rep,
                                seed=seed,
                                steps=state.step_count,
                                outcome=outcome if outcome is not None else Outcome.CAPPED,
                                coop_fraction=state.cooperator_fraction(),
                            )
                        )
        tally.check(
            experiments.records_to_csv(records) == experiments.records_to_csv(untraced.records),
            "serial replay records differ from the untraced pool run",
        )

    def run_latencies(self, tracer) -> list[float]:
        return [sp.duration for sp in tracer.spans if sp.name == "bench.replay_run"]

    def pool_efficiency(self, tracer) -> float:
        serial = sum(self.run_latencies(tracer))
        pool = sum(sp.duration for sp in tracer.spans if sp.name == "experiments.run_sweep")
        return serial / (self.workers * pool) if pool else 0.0


# ---------------------------------------------------------------------------
# absorb


@dataclass
class AbsorbOutputs(Outputs):
    records: list = field(default_factory=list)  # parts (a) and (b)
    clock: experiments.DefectTimeStats | None = None


class Absorb(Workload):
    name = "absorb"
    rates = ("steps_per_s", "runs_per_s")

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        rp, srp = StrategyKind.RP, StrategyKind.SRP
        self.part_a = experiments.SweepConfig(
            rp, (100,), sizes.absorb_p, sizes.absorb_reps, 1_000_000, seed
        )
        # Distinct master seeds keep the parts' runs on unrelated streams.
        self.part_b = [
            experiments.SweepConfig(
                kind, (sizes.big_n,), (p,), sizes.big_reps, 40_000_000,
                experiments.derive_seed(seed, part),
            )
            for part, (kind, p) in enumerate([(rp, 0.9), (srp, 0.75)], start=1)
        ]
        self.clock_seed = experiments.derive_seed(seed, 3)
        self.sweep_runs = sum(len(c.p_list) * c.reps for c in [self.part_a, *self.part_b])

    @property
    def ops(self) -> int:
        return self.sweep_runs + 2

    def warm_up(self) -> None:
        dynamics.run_until_absorbed(100, AllDefect(), Strategy.rp(0.9), self.seed, 1_000_000)

    def body(self, workdir: str) -> AbsorbOutputs:
        t0 = time.perf_counter()
        records = experiments.run_sweep(self.part_a, workers=1)
        t1 = time.perf_counter()
        for config in self.part_b:
            records += experiments.run_sweep(config, workers=1)
        t2 = time.perf_counter()
        clock = experiments.defect_time_experiment(
            self.sizes.clock_n, self.sizes.clock_reps, self.clock_seed
        )
        t3 = time.perf_counter()
        times = "\n".join(map(str, clock.times))
        return AbsorbOutputs(
            sim_s=t3 - t0,
            steps=sum(r.steps for r in records) + sum(clock.times),
            runs=len(records) + clock.reps,
            digest=_sha256(experiments.records_to_csv(records), times),
            info={"part_a_s": t1 - t0, "part_b_s": t2 - t1, "part_c_s": t3 - t2},
            records=records,
            clock=clock,
        )

    def check(self, out: AbsorbOutputs, tally: Tally) -> None:
        for r in out.records:
            tally.check(
                r.outcome is Outcome.ALL_PLUS,
                f"{r.strategy} n={r.n} p={r.p} rep={r.rep}: {r.outcome.value} after {r.steps} steps",
            )
        clock = out.clock
        rel = abs(clock.mean_steps - clock.expected_steps) / clock.expected_steps
        tally.check(
            len(out.records) == self.sweep_runs and rel <= 0.05,
            f"{len(out.records)}/{self.sweep_runs} runs; clock mean {clock.mean_steps:.1f} "
            f"vs n(n-1)/2 = {clock.expected_steps:.0f}",
        )
        self.check_digest(out, tally)

    def cells(self) -> list[Cell]:
        """Rep 0 of every sweep cell, replayed whole: up to absorption."""
        cells = []
        for config in [self.part_a, *self.part_b]:
            for p_idx, p in enumerate(config.p_list):
                n = config.n_list[0]
                cells.append(
                    Cell(
                        f"{config.strategy_kind.value} p={p} n={n}",
                        n,
                        config.init,
                        Strategy(config.strategy_kind, p),
                        experiments.derive_seed(config.master_seed, 0, p_idx, 0),
                        config.max_steps,
                    )
                )
        return cells

    def run_latencies(self, tracer) -> list[float]:
        """Part (a): run_until_absorbed spans directly under run_sweep, at n = 100."""
        sweeps = {sp.id for sp in tracer.spans if sp.name == "experiments.run_sweep"}
        return [
            sp.duration
            for sp in tracer.spans
            if sp.name == "dynamics.run_until_absorbed" and sp.parent in sweeps and sp.attrs["n"] == 100
        ]

    def pool_efficiency(self, tracer) -> float:
        sweeps = {sp.id: sp.duration for sp in tracer.spans if sp.name == "experiments.run_sweep"}
        busy = sum(
            sp.duration
            for sp in tracer.spans
            if sp.name == "dynamics.run_until_absorbed" and sp.parent in sweeps
        )
        total = sum(sweeps.values())
        return busy / (self.workers * total) if total else 0.0


# ---------------------------------------------------------------------------
# certify


@dataclass
class CertifyOutputs(Outputs):
    cli: list = field(default_factory=list)  # (argv, exit code, stdout)
    crossovers: list = field(default_factory=list)  # find_crossover at k/1000
    p0: dict = field(default_factory=dict)  # (kind, n) -> min feasible p
    table_ok: bool = False
    drift_ok: list = field(default_factory=list)
    tails: list = field(default_factory=list)  # (p, TailReport)


class Certify(Workload):
    name = "certify"
    threshold_argv = (
        ("thresholds", "--series", "h"),
        ("thresholds", "--series", "f", "--lmax", "7"),
    )

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        # The random states of acceptance criterion 4, drawn from the seed.
        rng = np.random.default_rng(seed)
        self.drift_cases = []
        for n in sizes.drift_n:
            for p in sizes.drift_p:
                table = weights.build_weight_table("rp", p, OMEGA, n)
                for _ in range(sizes.drift_states):
                    sts = rng.choice([-1, 1], size=n).tolist()
                    while all(s == 1 for s in sts):
                        sts = rng.choice([-1, 1], size=n).tolist()
                    self.drift_cases.append((table, Explicit(tuple(sts))))

    @property
    def ops(self) -> int:
        s = self.sizes
        return (
            len(self.threshold_argv)
            + CROSSOVER_GRID
            + 2 * len(s.feasible_n)
            + 1
            + len(self.drift_cases)
            + len(s.meanfield_p)
        )

    def warm_up(self) -> None:
        table, init = self.drift_cases[0]
        weights.one_step_drift(dynamics.new_state(table.n, init, 0), table)
        meanfield.integrate(0.01, 0.01, meanfield.OdeConfig(dt=1e-3, L=64))

    def body(self, workdir: str) -> CertifyOutputs:
        s = self.sizes
        out = CertifyOutputs()
        for argv in self.threshold_argv:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([*argv, "--quiet"])
            out.cli.append((argv, code, buf.getvalue()))
        out.crossovers = [weights.find_crossover("rp", k / 1000.0) for k in range(CROSSOVER_GRID)]
        out.p0 = {
            (kind, n): weights.min_feasible_p(kind, OMEGA, n, 1e-3)
            for kind in PUBLISHED_P0
            for n in s.feasible_n
        }
        big = weights.build_weight_table("rp", 0.9, OMEGA, s.table_n)
        report = weights.check_constraints(big)
        rows = weights.weight_table_rows(big)
        out.table_ok = report.feasible and len(rows) == s.table_n
        out.drift_ok = [
            weights.one_step_drift(dynamics.new_state(table.n, init, 0), table).satisfied
            for table, init in self.drift_cases
        ]
        config = meanfield.OdeConfig(dt=1e-3, L=64)
        for p in s.meanfield_p:
            traj = meanfield.integrate(p, s.meanfield_tau, config)
            out.tails.append((p, meanfield.tail_check(traj)))
            # Criteria 7 and 8: deviations are recorded, never failed.
            final = traj.state_at(s.meanfield_tau)
            closed = meanfield.closed_form_short_runs(p, final.tau)
            total = meanfield.closed_form_total(p, final.tau)
            out.info[f"closed_form_dev_p{p}"] = max(abs(float(final.P[i]) - closed[i]) for i in range(3))
            out.info[f"closed_total_dev_p{p}"] = abs(float(final.P.sum()) - total)
            out.info[f"eigen_dev_p{p}"] = meanfield.eigenvalue_check(p).max_deviation
        return out

    def check(self, out: CertifyOutputs, tally: Tally) -> None:
        for (argv, code, text), published in zip(out.cli, (PUBLISHED_H, PUBLISHED_F)):
            bounds = dict(line.split(",")[0::2] for line in text.splitlines()[1:])
            bad = {ell: bounds.get(str(ell)) for ell, want in published.items() if bounds.get(str(ell)) != want}
            tally.check(code == 0 and not bad, f"{' '.join(argv)}: exit {code}, wrong bounds {bad}")
        for k, found in enumerate(out.crossovers):
            if k < 870:
                ok = found is None
            else:
                ok = found is not None and found[0] <= 8 and (k > 870 or found[0] == 8)
            tally.check(ok, f"find_crossover(rp, {k / 1000}) = {found}")
        for (kind, n), p0 in out.p0.items():
            want, tol = PUBLISHED_P0[kind]
            tally.check(abs(p0 - want) <= tol, f"min_feasible_p({kind}, n={n}) = {p0}, want {want}+-{tol}")
        tally.check(out.table_ok, f"weight table at n={self.sizes.table_n} infeasible or short")
        for ok in out.drift_ok:
            tally.check(ok, "a random state does not contract under one_step_drift")
        for p, tail in out.tails:
            tally.check(tail.sum_ok, f"p={p}: tail sum {tail.max_tail_sum:.3e} >= 0.5p^2")


WORKLOADS = {w.name: w for w in (LowPCapped, Absorb, Certify)}


def make(name: str, seed: int, sizes: Sizes) -> Workload:
    return WORKLOADS[name](seed, sizes)


# ---------------------------------------------------------------------------
# traced-run helpers


def install_spans(tracer) -> None:
    """Wrap every public call the workloads make into the package."""

    def steps_before(args, kwargs):
        return args[0].step_count

    def steps_after(args, kwargs, result, before):
        return {"steps": args[0].step_count - before}

    def file_bytes(args, kwargs, result, before):
        return {"bytes": os.path.getsize(args[1])}

    def rk4_steps(args, kwargs, result, before):
        config = args[2] if len(args) > 2 else meanfield.OdeConfig()
        return {"rk4_steps": int(round(args[1] / config.dt))}

    tracer.wrap(dynamics, "new_state", "dynamics.new_state")
    tracer.wrap(dynamics, "advance", "dynamics.advance", before=steps_before, after=steps_after)
    tracer.wrap(
        experiments, "run_until_absorbed", "dynamics.run_until_absorbed", new_run=True,
        after=lambda args, kwargs, result, before: {"n": args[0]},
    )
    for name in ("run_sweep", "phase_summary", "parse_csv", "summary_to_csv", "defect_time_experiment"):
        tracer.wrap(experiments, name, f"experiments.{name}")
    tracer.wrap(experiments, "emit_csv", "experiments.emit_csv", after=file_bytes)
    tracer.wrap(charts, "render_phase_charts", "charts.render_phase_charts", after=file_bytes)
    for name in ("threshold_bisect", "certified_cutoff"):
        tracer.wrap(weights, name, f"weights.{name}")
        tracer.wrap(cli, name, f"weights.{name}")  # cli's own binding
    for name in (
        "find_crossover",
        "min_feasible_p",
        "build_weight_table",
        "check_constraints",
        "weight_table_rows",
        "one_step_drift",
    ):
        tracer.wrap(weights, name, f"weights.{name}")
    tracer.wrap(meanfield, "integrate", "meanfield.integrate", after=rk4_steps)
    for name in ("tail_check", "eigenvalue_check", "closed_form_short_runs", "closed_form_total"):
        tracer.wrap(meanfield, name, f"meanfield.{name}")
    tracer.wrap(cli, "main", "cli.main", after=lambda args, kwargs, result, before: {"exit": result})


EDGE_CLASSES = ("pp_null", "mm_null", "mixed", "mm_coop")


def edge_class_replay(cells: list[Cell], tally: Tally) -> dict[str, dict[str, int]]:
    """Classify every pick of each cell's prefix with the reference step().

    Counts per cell: the four edge classes, steps, and uniforms drawn (two
    per (-,-) pick under rp, one under srp, by the randomness contract).
    The replay stops early at all-plus, where advance would stop too, and
    must end in the same state as advance over the same budget.
    """
    out = {}
    for cell in cells:
        counts = dict.fromkeys(EDGE_CLASSES, 0)
        state = dynamics.new_state(cell.n, cell.init, cell.seed)
        steps = 0
        while steps < cell.prefix and state.minus_count > 0:
            move = dynamics.step(state, cell.strategy)
            steps += 1
            if move.old_pair == (1, 1):
                counts["pp_null"] += 1
            elif move.old_pair != (-1, -1):
                counts["mixed"] += 1
            elif move.new_pair == (-1, -1):
                counts["mm_null"] += 1
            else:
                counts["mm_coop"] += 1
        mm = counts["mm_null"] + counts["mm_coop"]
        counts["uniforms"] = mm * (1 if cell.strategy.kind is StrategyKind.SRP else 2)
        counts["steps"] = steps
        fast = dynamics.new_state(cell.n, cell.init, cell.seed)
        dynamics.advance(fast, cell.strategy, steps)
        tally.check(
            fast.states == state.states
            and fast.step_count == state.step_count == steps
            and fast.minus_count == state.minus_count,
            f"{cell.label}: step() replay and advance disagree after {steps} steps",
        )
        out[cell.label] = counts
    return out


def refill_rates(seed: int, n: int = 100, refills: int = 400, trials: int = 3) -> tuple[float, float]:
    """Median draws per second of the two buffer refills advance performs.

    Edge refill: PCG64 ``integers(0, n, 8192).tolist()``; uniform refill:
    ``random(8192).tolist()``.  Together they bound any kernel that keeps
    the randomness contract.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    edge, uniform = [], []
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(refills):
            rng.integers(0, n, size=REFILL_SIZE).tolist()
        t1 = time.perf_counter()
        for _ in range(refills):
            rng.random(REFILL_SIZE).tolist()
        t2 = time.perf_counter()
        edge.append(refills * REFILL_SIZE / (t1 - t0))
        uniform.append(refills * REFILL_SIZE / (t2 - t1))
    return statistics.median(edge), statistics.median(uniform)
