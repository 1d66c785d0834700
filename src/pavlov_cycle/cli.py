"""Command line front end.

Subcommands map onto the library one to one: simulate (single trajectory),
sweep (batch grid from a JSON config), weights (certificate construction and
verification), thresholds (diagnostic-series roots), meanfield (truncated
hierarchy integration vs closed forms), defect-time (p = 0 absorption clock).

Exit codes: 0 success, 1 usage or config error, 2 infeasible certificate
parameters.  Every run echoes its fully resolved configuration to stderr as
JSON (suppressed by --quiet); sweep also writes it as a sidecar file.  All
file outputs are written atomically and contain no timestamps, so reruns
with identical arguments produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
from typing import Iterator, TextIO

from . import __version__
from .charts import render_phase_charts
from .dynamics import (
    AllCooperate,
    AllDefect,
    Bernoulli,
    InitConfig,
    Outcome,
    SingleDefector,
    Strategy,
    StrategyKind,
    advance,
    new_state,
    run_lengths,
)
from .experiments import (
    SweepConfig,
    atomic_write_text,
    atomic_writer,
    defect_time_experiment,
    defect_time_variance,
    emit_csv,
    phase_summary,
    run_sweep,
    summary_to_csv,
)
from .meanfield import (
    IntegrationDivergedError,
    OdeConfig,
    closed_form_short_runs,
    closed_form_total,
    integrate,
    tail_check,
)
from .weights import (
    InfeasibleParameterError,
    NoRootError,
    build_weight_table,
    certified_cutoff,
    check_constraints,
    check_tol,
    threshold_bisect,
    write_weight_table_csv,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would sys.exit(2)
        raise UsageError(message)


def _echo_config(args: argparse.Namespace, resolved: dict | None = None) -> None:
    """Echo the configuration to stderr as JSON, unless --quiet.

    By default the configuration is the parsed arguments themselves.
    """
    if resolved is None:
        resolved = {k: v for k, v in vars(args).items() if k not in ("func", "quiet")}
    if not args.quiet:
        print(json.dumps(resolved, sort_keys=True), file=sys.stderr)


def _parse_init(text: str) -> InitConfig:
    name, colon, arg = text.partition(":")
    if name in ("all-defect", "all-cooperate"):
        if colon:
            raise UsageError(f"init {name} takes no argument, got {text!r}")
        return AllDefect() if name == "all-defect" else AllCooperate()
    if name == "bernoulli" and not arg:
        raise UsageError("bernoulli init needs a defect probability, e.g. bernoulli:0.5")
    try:
        if name == "single-defector":
            return SingleDefector(int(arg) if arg else 0)
        if name == "bernoulli":
            return Bernoulli(float(arg))
    except ValueError as exc:  # int()/float() name only the argument
        raise UsageError(f"bad init {text!r}: {exc}") from None
    raise UsageError(f"unknown init {text!r}")


def _init_to_str(init: InitConfig) -> str:
    if isinstance(init, AllDefect):
        return "all-defect"
    if isinstance(init, AllCooperate):
        return "all-cooperate"
    if isinstance(init, SingleDefector):
        return f"single-defector:{init.position}"
    if isinstance(init, Bernoulli):
        return f"bernoulli:{init.q}"
    return repr(init)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.trace_every < 1:
        raise UsageError(f"--trace-every must be >= 1, got {args.trace_every}")
    if args.max_steps < 1:
        raise UsageError(f"--max-steps must be >= 1, got {args.max_steps}")
    strategy = Strategy(StrategyKind(args.strategy), args.p)
    init = _parse_init(args.init)
    _echo_config(args)
    state = new_state(args.n, init, args.seed)
    if args.trace:
        # Each row goes to disk as it is made, so memory does not grow with the run.
        def snapshot(out: TextIO) -> None:
            _, minus, plus = run_lengths(state.states)
            out.write(
                f"{state.step_count},{state.minus_count},{state.cooperator_fraction()!r},"
                f"{len(minus)},{len(plus)},{max(minus, default=0)},{max(plus, default=0)}\n"
            )

        with atomic_writer(args.trace) as out:
            out.write("step,minus_count,coop_fraction,minus_runs,plus_runs,longest_minus,longest_plus\n")
            snapshot(out)
            outcome = Outcome.CAPPED
            while outcome is Outcome.CAPPED and state.step_count < args.max_steps:
                budget = min(args.trace_every, args.max_steps - state.step_count)
                outcome = advance(state, strategy, budget)
                snapshot(out)
    else:
        outcome = advance(state, strategy, args.max_steps)
    print(
        f"outcome={outcome.value} steps={state.step_count} "
        f"coop_fraction={state.cooperator_fraction()!r}"
    )
    return 0


def _config_number(key: str, value: object, convert):
    """A JSON number from the sweep config through convert (int or float).

    An integer key takes an integral number, such as 1e4, and refuses 10.7,
    NaN or infinity rather than truncate it.
    """
    if type(value) not in (int, float):
        raise UsageError(f"sweep config {key} must be a number, got {value!r}")
    if convert is int and isinstance(value, float) and not value.is_integer():
        raise UsageError(f"sweep config {key} must be an integral number, got {value!r}")
    return convert(value)


def _config_numbers(key: str, value: object, convert) -> tuple:
    if not isinstance(value, list):
        raise UsageError(f"sweep config {key} must be a list of numbers, got {value!r}")
    return tuple(_config_number(key, v, convert) for v in value)


def _config_text(key: str, value: object) -> str:
    if not isinstance(value, str):
        raise UsageError(f"sweep config {key} must be a string, got {value!r}")
    return value


# Sweep config keys with a SweepConfig default, each with its parser.
_SWEEP_OPTIONAL = {
    "reps": lambda key, value: _config_number(key, value, int),
    "max_steps": lambda key, value: _config_number(key, value, int),
    "master_seed": lambda key, value: _config_number(key, value, int),
    "init": lambda key, value: _parse_init(_config_text(key, value)),
}
_SWEEP_KEYS = {"strategy", "n_list", "p_list", *_SWEEP_OPTIONAL}


@contextlib.contextmanager
def _output_dir(path: str) -> Iterator[None]:
    """Create path and its missing parents; if the body fails, remove what was created.

    A directory that already existed is never removed.
    """
    created = None
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        created, head = head, os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise


def cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config) as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise UsageError(f"sweep config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _SWEEP_KEYS
    if unknown:
        raise UsageError(f"unknown sweep config keys: {sorted(unknown)}")
    try:
        config = SweepConfig(
            strategy_kind=StrategyKind(_config_text("strategy", raw.get("strategy", "rp"))),
            n_list=_config_numbers("n_list", raw["n_list"], int),
            p_list=_config_numbers("p_list", raw["p_list"], float),
            # An absent key takes SweepConfig's default.
            **{key: parse(key, raw[key]) for key, parse in _SWEEP_OPTIONAL.items() if key in raw},
        )
    except KeyError as exc:
        raise UsageError(f"sweep config is missing {exc}") from exc
    resolved = {
        "command": "sweep",
        "strategy": config.strategy_kind.value,
        "n_list": list(config.n_list),
        "p_list": list(config.p_list),
        "reps": config.reps,
        "max_steps": config.max_steps,
        "master_seed": config.master_seed,
        "init": _init_to_str(config.init),
        "threads": args.threads,
    }
    _echo_config(args, resolved)
    with _output_dir(args.out_dir):
        records = run_sweep(config, workers=args.threads)
        cells = phase_summary(records)
        emit_csv(records, os.path.join(args.out_dir, "records.csv"))
        atomic_write_text(os.path.join(args.out_dir, "summary.csv"), summary_to_csv(cells))
        render_phase_charts(cells, os.path.join(args.out_dir, "charts.svg"))
        sidecar = dict(resolved)
        del sidecar["command"], sidecar["threads"]
        atomic_write_text(
            os.path.join(args.out_dir, "resolved_config.json"),
            json.dumps(sidecar, sort_keys=True, indent=2) + "\n",
        )
    print(f"wrote {len(records)} records to {args.out_dir}")
    return 0


def cmd_weights(args: argparse.Namespace) -> int:
    Strategy(StrategyKind(args.strategy), args.p)  # pavlov only at p = 1, as in simulate
    _echo_config(args)
    table = build_weight_table(args.strategy, args.p, args.omega, args.n)
    report = check_constraints(table)
    print(
        f"crossover={table.crossover} slope={table.slope!r} "
        f"feasible={report.feasible} worst_margin={report.worst()!r}"
    )
    print(
        f"singleton_ok={report.singleton_ok} internal_ok={report.internal_ok} "
        f"nrun_ok={report.nrun_ok} merge_ok={report.merge_ok}"
    )
    if args.out:
        write_weight_table_csv(table, args.out)
    if not report.feasible:
        print("constraint check failed: no drift certificate at these parameters", file=sys.stderr)
        return 2
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    if args.lmax < 1:
        raise UsageError(f"--lmax must be >= 1, got {args.lmax}")
    _echo_config(args)
    check_tol(args.tol)  # before the header, so a rejected --tol prints nothing
    print("ell,root,bound")
    for ell in range(1, args.lmax + 1):
        try:
            root = threshold_bisect(args.series, ell, args.tol)
        except NoRootError:
            print(f"{ell},none,none")
            continue
        bound = certified_cutoff(args.series, ell, root)
        print(f"{ell},{root:.6f},{bound:.3f}")
    return 0


def cmd_meanfield(args: argparse.Namespace) -> int:
    _echo_config(args)
    if args.csv_cols < 0:
        raise UsageError(f"--csv-cols must be >= 0, got {args.csv_cols}")
    config = OdeConfig(dt=args.dt, L=args.L)
    traj = integrate(args.p, args.tau_end, config)
    if args.out:
        k = min(args.csv_cols, args.L)
        header = "tau," + ",".join(f"P_{i}" for i in range(k + 1)) + ",sum_tail"
        rows = [header]
        tails = traj.tail_sums()
        for i, tau in enumerate(traj.taus):
            vals = ",".join(repr(float(v)) for v in traj.P[i, : k + 1])
            rows.append(f"{float(tau)!r},{vals},{float(tails[i])!r}")
        atomic_write_text(args.out, "\n".join(rows) + "\n")
    final = traj.state_at(args.tau_end)
    cf = closed_form_short_runs(args.p, final.tau)
    y = closed_form_total(args.p, final.tau)
    report = tail_check(traj)
    dev = max(abs(float(final.P[i]) - cf[i]) for i in range(3))
    print(
        f"tau={final.tau!r} P0={float(final.P[0])!r} P1={float(final.P[1])!r} "
        f"P2={float(final.P[2])!r}\n"
        f"max|P012-closed_form|={dev!r} |sum-closed_total|={abs(float(final.P.sum()) - y)!r}\n"
        f"max_tail_sum={report.max_tail_sum!r} (threshold {report.threshold!r}) "
        f"gamma={report.gamma!r} ratio={report.ratio!r}"
    )
    return 0


def cmd_defect_time(args: argparse.Namespace) -> int:
    _echo_config(args)
    stats = defect_time_experiment(args.n, args.reps, args.seed)
    sigma = math.sqrt(defect_time_variance(args.n))
    outside = sum(
        1 for t in stats.times if abs(t - stats.expected_steps) > 4.0 * sigma
    )
    print(
        f"n={stats.n} reps={stats.reps} mean_steps={stats.mean_steps!r} "
        f"expected={stats.expected_steps!r}\n"
        f"relative_error={abs(stats.mean_steps - stats.expected_steps) / stats.expected_steps!r} "
        f"outside_4sigma={outside} theory_band={stats.deviation_band!r}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="pavlov-cycle", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    common = _Parser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress the config echo on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trajectory", parents=[common])
    sim.add_argument("--n", type=int, required=True, help="number of players on the cycle")
    sim.add_argument("--p", type=float, default=1.0, help="forgiveness parameter (default 1)")
    sim.add_argument("--strategy", choices=[kind.value for kind in StrategyKind], default="rp")
    sim.add_argument(
        "--init",
        default="all-defect",
        help="all-defect | all-cooperate | single-defector[:POS] | bernoulli:Q (default all-defect)",
    )
    sim.add_argument("--max-steps", type=int, default=SweepConfig.max_steps,
                     help=f"step cap (default {SweepConfig.max_steps})")
    sim.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    sim.add_argument("--trace", default=None, help="write a run-structure CSV to this path")
    sim.add_argument("--trace-every", type=int, default=1000, help="trace sampling stride (default 1000)")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="run a (n, p, rep) grid from a JSON config", parents=[common])
    sw.add_argument("--config", required=True, help="JSON sweep config path")
    sw.add_argument("--out-dir", required=True, help="output directory")
    sw.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    sw.set_defaults(func=cmd_sweep)

    wt = sub.add_parser("weights", help="build and verify a drift certificate", parents=[common])
    wt.add_argument("--p", type=float, required=True)
    wt.add_argument("--omega", type=float, default=1e-4, help="contraction budget (default 1e-4)")
    wt.add_argument("--n", type=int, default=100, help="cycle size (default 100)")
    wt.add_argument("--strategy", choices=[kind.value for kind in StrategyKind], default="rp")
    wt.add_argument("--out", default=None, help="write the weight table CSV here")
    wt.set_defaults(func=cmd_weights)

    th = sub.add_parser("thresholds", help="roots of the ratio/increment diagnostic series", parents=[common])
    th.add_argument("--series", choices=["h", "f"], required=True,
                    help="h: ratio differences, f: weight increments")
    th.add_argument("--lmax", type=int, default=8, help="largest run length (default 8)")
    th.add_argument("--tol", type=float, default=1e-6, help="bisection tolerance (default 1e-6)")
    th.set_defaults(func=cmd_thresholds)

    mf = sub.add_parser("meanfield", help="integrate the truncated run-probability hierarchy", parents=[common])
    mf.add_argument("--p", type=float, required=True)
    mf.add_argument("--tau-end", type=float, default=10.0, help="rescaled end time (default 10)")
    mf.add_argument("--dt", type=float, default=1e-3, help="integration step (default 1e-3)")
    mf.add_argument("--L", type=int, default=64, help="truncation order (default 64)")
    mf.add_argument("--out", default=None, help="write the trajectory CSV here")
    mf.add_argument("--csv-cols", type=int, default=8, help="P columns in the CSV (default 8)")
    mf.set_defaults(func=cmd_meanfield)

    dt = sub.add_parser("defect-time", help="absorption clock at p = 0 from one defector", parents=[common])
    dt.add_argument("--n", type=int, required=True)
    dt.add_argument("--reps", type=int, default=200, help="repetitions (default 200)")
    dt.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    dt.set_defaults(func=cmd_defect_time)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleParameterError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, IntegrationDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # e.g. an n too large for the state's list
        print("error: out of memory", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
