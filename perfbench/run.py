"""Benchmark for the pavlov_cycle package.

Run from the repository root:

    python3 perfbench/run.py --workload lowp-capped --seed 20250808 --seconds 30 --trace 0

Workloads (see workloads.py): lowp-capped, absorb, certify.

--trace 0 builds the workload's inputs from --seed, warms up, then repeats
the timed body until --seconds have passed, checking every body's outputs.
It prints seven end-to-end metrics: setup_s (median over fresh interpreters
that import the package, build the inputs and tables and warm up), wall_s
(median body wall time), steps_per_s and runs_per_s (simulation workloads
only: median over bodies of steps or runs per second of simulation),
peak_rss_mb (this process plus each pool worker), ops_attempted and
ops_failed.  The result object carries the metrics BENCHMARK.json lists as
end_to_end; ops_attempted and ops_failed are its attempted and failed.

--trace 1 runs one untraced body, then one body with every public call into
the package wrapped in a span, and reports the per-layer metrics.  busy_s is
a layer's self time: its spans' durations minus the traced child spans.
Counts are exact.  lowp-capped also replays its pool runs serially, and the
simulation workloads replay their cells with the reference step() to count
edge classes.  A layer the workload never calls reads 0.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Results and spans are
written under .perfbench/ at the repository root.  Exit code 0 when a result
was printed, 2 when the package or BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5
SEVEN_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "runs_per_s": "runs/s",
    "peak_rss_mb": "MB",
    "ops_attempted": "count",
    "ops_failed": "count",
}


class MissingInputError(Exception):
    pass


def import_workloads():
    """Put the checkout's src/ on the path and import the workload module."""
    if not os.path.isfile(os.path.join(SRC, "pavlov_cycle", "__init__.py")):
        raise MissingInputError(f"package source not found under {SRC}")
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise MissingInputError(f"{path} not found")
    with open(path) as handle:
        return json.load(handle)


def machine_facts(workers: int, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": workers,
        "seed": seed,
    }


def timed_body(workload, workdir: str, tally):
    """One body: wall seconds and its outputs (None when it raised)."""
    t0 = time.perf_counter()
    try:
        out = workload.body(workdir)
    except Exception as exc:
        tally.check(False, f"body raised {exc!r}", workload.ops)
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    workload.check(out, tally)
    return wall, out


def guarded(tally, what: str, fn, *args, default=None):
    """fn(*args), counting an exception as one failed operation."""
    try:
        return fn(*args)
    except Exception as exc:
        tally.check(False, f"{what} raised {exc!r}")
        return default


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, with a pool, workers x the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0


def setup_seconds(name: str, seed: int, size: str) -> list[float]:
    """Wall time of fresh interpreters that only build and warm up the workload."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in sleeps of up to 50 ms.
        subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), name, str(seed), size], check=True)
        times.append(time.perf_counter() - t0)
    return times


def timed_run(workload, args, workdir: str, tally) -> tuple[dict, list[str]]:
    walls, outs = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, out = timed_body(workload, workdir, tally)
        walls.append(wall)
        if out is not None:
            outs.append(out)
    measured = time.perf_counter() - start
    # Read before the set-up probes, which are child processes too.
    rss = peak_rss_mb(workload.workers)
    setups = setup_seconds(workload.name, workload.seed, args.size)

    def rate(metric: str, attr: str) -> float | str:
        per_body = [getattr(o, attr) / o.sim_s for o in outs if o.sim_s > 0]
        return statistics.median(per_body) if metric in workload.rates and per_body else "n/a"

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "steps_per_s": rate("steps_per_s", "steps"),
        "runs_per_s": rate("runs_per_s", "runs"),
        "peak_rss_mb": rss,
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
    }
    lines = [
        f"bodies: {len(walls)} in {measured:.2f} s; wall_s each: " + " ".join(f"{w:.4f}" for w in walls),
        "set-up probes (s): " + " ".join(f"{s:.4f}" for s in setups),
    ]
    if outs:
        lines += [f"info {key} = {value!r}" for key, value in outs[-1].info.items()]
        if outs[-1].digest:
            lines.append(f"info output sha256 = {outs[-1].digest}")
    return values, lines


def traced_run(wl, workload, workdir: str, tally) -> tuple[dict, list[str]]:
    untraced_wall, untraced = timed_body(workload, workdir, tally)
    tracer = Tracer()
    wl.install_spans(tracer)
    try:
        with tracer.span("bench.body"):
            traced_wall, _ = timed_body(workload, workdir, tally)
        if untraced is None:
            tally.check(False, "untraced body raised; replay skipped")
        else:
            guarded(tally, "serial replay", workload.replay, tracer, untraced, tally)
    finally:
        tracer.restore()
    # Untraced from here on, so the replays add nothing to the layer metrics.
    edges = guarded(tally, "edge-class replay", wl.edge_class_replay, workload.cells(), tally, default={})
    refill = wl.refill_rates(workload.seed)
    values = layer_metrics(wl, workload, tracer, edges, refill)
    values["trace.overhead_s"] = traced_wall - untraced_wall

    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{workload.seed}.json")
    tracer.write(spans_path)
    lines = [
        f"untraced body {untraced_wall:.4f} s, traced body {traced_wall:.4f} s; "
        f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}",
        f"{'span':<36} {'calls':>7} {'total_s':>10} {'self_s':>10}",
    ]
    for name, row in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<36} {row['calls']:>7} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for label, c in edges.items():
        shares = " ".join(f"{k}={c[k] / c['steps']:.4f}" for k in wl.EDGE_CLASSES)
        lines.append(f"edge classes {label} ({c['steps']} steps): {shares}")
    return values, lines


def layer_metrics(wl, workload, tracer, edges: dict, refill: tuple[float, float]) -> dict:
    summary = tracer.summary()

    def busy(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def attr_sum(name: str, key: str) -> int:
        return sum(sp.attrs[key] for sp in tracer.spans if sp.name == name)

    totals = {key: sum(c[key] for c in edges.values()) for key in (*wl.EDGE_CLASSES, "uniforms", "steps")}

    def share(key: str) -> float:
        return totals[key] / totals["steps"] if totals["steps"] else 0.0

    edge_rate, uniform_rate = refill
    advance_steps = attr_sum("dynamics.advance", "steps")
    advance_rate = advance_steps / busy("dynamics.advance") if advance_steps else 0.0
    # Fastest step rate that still draws one edge and uniforms_per_step uniforms.
    ceiling = 1.0 / (1.0 / edge_rate + share("uniforms") / uniform_rate)
    runs_ms = sorted(1000.0 * s for s in workload.run_latencies(tracer))
    if len(runs_ms) > 1:
        p50, p99 = statistics.median(runs_ms), statistics.quantiles(runs_ms, n=100, method="inclusive")[98]
    else:
        p50 = p99 = runs_ms[0] if runs_ms else 0.0

    values = {
        "dynamics.new_state.calls": calls("dynamics.new_state"),
        "dynamics.advance.steps": advance_steps,
        "dynamics.advance.steps_per_s": advance_rate,
        "dynamics.advance.ceiling_ratio": advance_rate / ceiling,
        "dynamics.run_samples": len(runs_ms),
        "dynamics.run_p50_ms": p50,
        "dynamics.run_p99_ms": p99,
        "dynamics.rng.edge_refill_per_s": edge_rate,
        "dynamics.rng.uniform_refill_per_s": uniform_rate,
        "dynamics.uniforms_per_step": share("uniforms"),
        "experiments.pool.efficiency": workload.pool_efficiency(tracer),
        "experiments.emit_csv.bytes": attr_sum("experiments.emit_csv", "bytes"),
        "charts.render_phase_charts.bytes": attr_sum("charts.render_phase_charts", "bytes"),
        "weights.threshold_bisect.calls": calls("weights.threshold_bisect"),
        "weights.one_step_drift.calls": calls("weights.one_step_drift"),
        "meanfield.integrate.rk4_steps": attr_sum("meanfield.integrate", "rk4_steps"),
        "cli.main.nonzero_exits": sum(1 for sp in tracer.spans if sp.name == "cli.main" and sp.attrs["exit"]),
    }
    values.update({f"dynamics.edge_class.{key}_share": share(key) for key in wl.EDGE_CLASSES})
    for name in (
        "dynamics.new_state",
        "dynamics.advance",
        "experiments.run_sweep",
        "experiments.defect_time_experiment",
        "experiments.phase_summary",
        "experiments.emit_csv",
        "experiments.parse_csv",
        "charts.render_phase_charts",
        "weights.threshold_bisect",
        "weights.certified_cutoff",
        "weights.find_crossover",
        "weights.min_feasible_p",
        "weights.check_constraints",
        "weights.one_step_drift",
        "meanfield.integrate",
        "meanfield.tail_check",
        "meanfield.eigenvalue_check",
        "cli.main",
    ):
        values[f"{name}.busy_s"] = busy(name)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 20250808)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        wl = import_workloads()
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    workload = wl.make(args.workload, seed, wl.SIZES[args.size])
    facts = machine_facts(workload.workers, seed)
    print(f"pavlov-cycle benchmark: workload={workload.name} size={args.size} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    tally = wl.Tally()
    workdir = os.path.join(OUT_DIR, f"work-{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload.warm_up()
        if args.trace:
            values, lines = traced_run(wl, workload, workdir, tally)
        else:
            values, lines = timed_run(workload, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reported = spec["per_layer" if args.trace else "end_to_end"]
    printed = {m["name"]: m["unit"] for m in reported} if args.trace else SEVEN_UNITS
    for line in lines:
        print(line)
    for name, unit in printed.items():
        print(f"{name:<44} {values[name]!s:<24} {unit}")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    result_path = os.path.join(OUT_DIR, f"result-{workload.name}-seed{seed}-trace{args.trace}.json")
    with open(result_path, "w") as handle:
        json.dump({"machine": facts, "values": values, "failures": tally.reasons}, handle, indent=1)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
