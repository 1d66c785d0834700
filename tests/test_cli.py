import contextlib
import hashlib
import io
import json
import math
import os
import select
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pavlov_cycle
from pavlov_cycle import _native, cli, experiments
from pavlov_cycle.cli import main
from pavlov_cycle.dynamics import advance
from pavlov_cycle.weights import MARGIN_TOL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """Environment for a child interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(pavlov_cycle.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# thresholds


def test_thresholds_h_table(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--series", "h", "--quiet")
    assert code == 0
    rows = dict()
    lines = out.strip().splitlines()
    assert lines[0] == "ell,root,bound"
    for line in lines[1:]:
        ell, root, bound = line.split(",")
        rows[int(ell)] = (root, bound)
    assert rows[1] == ("none", "none")
    assert {ell: float(b) for ell, (_, b) in rows.items() if b != "none"} == {
        4: 0.897,
        5: 0.877,
        6: 0.871,
        7: 0.870,
        8: 0.869,
    }


def test_thresholds_f_table(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--series", "f", "--lmax", "7", "--quiet")
    assert code == 0
    bounds = {}
    for line in out.strip().splitlines()[1:]:
        ell, root, bound = line.split(",")
        if bound != "none":
            bounds[int(ell)] = float(bound)
    assert bounds == {3: 0.689, 4: 0.805, 5: 0.850, 6: 0.865, 7: 0.869}


@pytest.mark.parametrize(
    "series, digest",
    [
        ("h", "1650857df746c1045e87c16b1125fa96a8282fd7b8709bc1d01986e168a45349"),
        ("f", "dda6beac7d2facb0dc8508d9d66b5eb656b7c7c04eb9d51794edd4c4d9b6f9ff"),
    ],
    ids=["h", "f"],
)
def test_thresholds_table_to_length_60_is_pinned(capsys, series, digest):
    # Frozen from the search that first scanned a 1/64 grid for a bracket;
    # bisecting [0, 1] directly gives the same bytes.
    code, out, _ = run_cli(capsys, "thresholds", "--series", series, "--lmax", "60", "--quiet")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_thresholds_tol_below_float_spacing(capsys):
    # In a child process with a timeout: once the bisection interval held
    # adjacent floats its midpoint rounded to an end and the loop never ended.
    proc = subprocess.run(
        [
            sys.executable, "-m", "pavlov_cycle.cli", "thresholds", "--series", "f",
            "--lmax", "4", "--tol", "1e-17", "--quiet",
        ],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0
    code, out, _ = run_cli(capsys, "thresholds", "--series", "f", "--lmax", "4", "--quiet")
    assert code == 0

    def bounds(text):
        return [line.rsplit(",", 1)[1] for line in text.splitlines()]

    assert bounds(proc.stdout) == bounds(out)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_thresholds_rejects_non_finite_tol(capsys, tol):
    # both used to print 1/64-grid midpoints as roots and exit 0
    code, out, err = run_cli(capsys, "thresholds", "--series", "h", "--lmax", "5", "--tol", tol, "--quiet")
    assert code == 1
    assert err.startswith("error: tol must be finite")
    assert "0.898438" not in out


@pytest.mark.parametrize("tol", ["0", "nan"])
def test_thresholds_rejects_tol_before_its_header(capsys, tol):
    # The ell,root,bound header used to reach stdout before the error.
    code, out, err = run_cli(capsys, "thresholds", "--series", "h", "--tol", tol, "--quiet")
    assert code == 1
    assert out == ""
    assert err.startswith("error: tol must be finite")


@pytest.mark.parametrize("lmax", ["0", "-3"])
def test_thresholds_rejects_lmax_below_1(capsys, lmax):
    # Both used to print only the ell,root,bound header and exit 0.
    code, out, err = run_cli(capsys, "thresholds", "--series", "h", "--lmax", lmax)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--lmax must be >= 1" in err


@pytest.mark.parametrize("series", ["h", "f"])
@pytest.mark.parametrize("tol", ["0.5", "0.1", "0.05", "0.01"])
def test_thresholds_bound_column_does_not_depend_on_tol(capsys, series, tol):
    # A coarse root leaves certified_cutoff a long walk to the same grid bound.
    def bounds(*options):
        code, out, _ = run_cli(capsys, "thresholds", "--series", series, "--lmax", "60", "--quiet", *options)
        assert code == 0
        return [line.rsplit(",", 1)[1] for line in out.splitlines()]

    assert bounds("--tol", tol) == bounds()


@pytest.mark.parametrize(
    "series, lmax, digest",
    [
        ("h", "195", "4ec1f5b87e8b0de6c01359ff52f714f5b3522d118a89380923a61cf61adc0e8f"),
        ("f", "197", "f1b79d7627214a0f5bfb0a9da611940e69c67b15f5b2ff7d6681e3906f512ac7"),
    ],
    ids=["h", "f"],
)
def test_thresholds_table_to_the_last_representable_length_is_pinned(capsys, series, lmax, digest):
    # The longest tables whose weights at p = 1 still fit in a double.
    code, out, _ = run_cli(capsys, "thresholds", "--series", series, "--lmax", lmax, "--quiet")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("series, lmax", [("h", "196"), ("f", "198")])
def test_thresholds_past_double_range_exits_1(capsys, series, lmax):
    # The last row used to read "none,none" with exit 0, though the root exists.
    code, out, err = run_cli(capsys, "thresholds", "--series", series, "--lmax", lmax, "--quiet")
    assert (code, out) == (1, "")
    assert err == f"error: series '{series}' at length {lmax} overflows a double at p = 1\n"


# ---------------------------------------------------------------------------
# weights


def test_weights_feasible_writes_table(capsys, tmp_path):
    out_path = str(tmp_path / "table.csv")
    code, out, _ = run_cli(
        capsys, "weights", "--p", "0.9", "--strategy", "rp", "--out", out_path, "--quiet"
    )
    assert code == 0
    assert "feasible=True" in out
    lines = Path(out_path).read_text().splitlines()
    assert lines[0] == "ell,w_hat,w,margin"
    assert len(lines) == 101  # n defaults to 100


def test_weights_infeasible_exits_2(capsys):
    code, _, err = run_cli(capsys, "weights", "--p", "0.5", "--strategy", "rp", "--quiet")
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize("omega", ["nan", "inf"])
def test_weights_rejects_non_finite_omega(capsys, omega):
    # nan used to report "infeasible" with exit 2
    code, _, err = run_cli(capsys, "weights", "--p", "0.9", "--omega", omega, "--quiet")
    assert code == 1
    assert err.startswith("error: omega must be finite")


def test_weights_pavlov_rejects_p_below_1(capsys):
    # used to certify rp at p = 0.95 and exit 0
    code, out, err = run_cli(capsys, "weights", "--p", "0.95", "--strategy", "pavlov")
    assert code == 1
    assert out == ""
    assert err == "error: pavlov is the p = 1 strategy; use rp/srp for p < 1\n"
    code, out, _ = run_cli(capsys, "weights", "--p", "1", "--strategy", "pavlov", "--quiet")
    assert code == 0
    assert "feasible=True" in out


def test_weights_srp_near_its_threshold(capsys):
    code, out, _ = run_cli(capsys, "weights", "--p", "0.70", "--strategy", "srp", "--quiet")
    assert code == 0
    assert "feasible=True" in out


@pytest.mark.parametrize(
    "strategy, p",
    [("rp", "0.87"), ("rp", "0.871"), ("rp", "0.9"), ("rp", "0.95"), ("rp", "1"),
     ("srp", "0.70"), ("srp", "0.8"), ("srp", "0.95"), ("pavlov", "1")],
)
def test_weights_feasible_only_within_margin_tolerance(capsys, strategy, p):
    # feasible=True may print a slightly negative worst_margin (rp 0.95 gives
    # -7.1e-15): a margin counts as satisfied down to -MARGIN_TOL = -1e-9
    assert MARGIN_TOL == 1e-9
    code, out, _ = run_cli(capsys, "weights", "--p", p, "--strategy", strategy, "--quiet")
    fields = dict(item.split("=") for item in out.split())
    worst = float(fields["worst_margin"])
    assert fields["feasible"] == ("True" if worst >= -1e-9 else "False")
    assert code == (0 if fields["feasible"] == "True" else 2)


WEIGHTS_PINS = [
    (
        ["--strategy", "rp", "--p", "0.884"],
        "crossover=5 slope=0.40677213614995367 feasible=True worst_margin=-1.7763568394002505e-15",
        "3fa97df51547a8ab78df11131c070cdbadd8cf263a6de16f385c11b8bd7c2389",
    ),
    (
        ["--strategy", "rp", "--p", "0.95"],
        "crossover=4 slope=0.46338803402106227 feasible=True worst_margin=-7.105427357601002e-15",
        "ccafc8f97473c5087bdd6d3a3eab1b281c782a52be4302e53229c8ff7ca04d3f",
    ),
    (
        ["--strategy", "srp", "--p", "0.70"],
        "crossover=8 slope=0.3440341228232947 feasible=True worst_margin=-7.105427357601002e-15",
        "25af9d2d866035054249d04705199efe213872ed2c5ce027be06d715f19bdcf0",
    ),
    # The singleton margin -0.0 ties the merge margin 0.0: worst() keeps
    # the first of equal minima, so the order it reads them in shows.
    (
        ["--strategy", "srp", "--p", "0.812"],
        "crossover=4 slope=0.4338459317362187 feasible=True worst_margin=-0.0",
        "423ed7b2882dee4a2be11ad0b1a44c3bed95b6adf04a5371aaaf5781b594017c",
    ),
    (
        ["--strategy", "pavlov", "--p", "1"],
        "crossover=4 slope=0.49991875281246867 feasible=True worst_margin=-7.105427357601002e-15",
        "d2905b831527d6c8878af31115c15fdd8bb53a9451960bead4e1dd6fff02a58d",
    ),
    # n = 3: one internal length, whose margin is -0.0
    (
        ["--strategy", "rp", "--p", "0.9", "--n", "3"],
        "crossover=4 slope=0.4289090021780935 feasible=True worst_margin=-0.0",
        "59b08c7cf1990fefaf92915d980a3cc9e666701a40232c24b9b5e556c730bcfe",
    ),
]


@pytest.mark.parametrize("argv, summary, csv_sha256", WEIGHTS_PINS)
def test_weights_output_is_pinned(capsys, tmp_path, argv, summary, csv_sha256):
    # stdout and the --out bytes are the output contract: same arguments, same bytes
    out_path = tmp_path / "table.csv"
    code, out, err = run_cli(capsys, "weights", *argv, "--out", str(out_path), "--quiet")
    flags = "singleton_ok=True internal_ok=True nrun_ok=True merge_ok=True"
    assert (code, out, err) == (0, f"{summary}\n{flags}\n", "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_sha256


# ---------------------------------------------------------------------------
# simulate


def test_simulate_already_absorbed(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "10", "--p", "1", "--init", "all-cooperate", "--quiet"
    )
    assert code == 0
    assert "outcome=all_plus steps=0" in out


def test_simulate_rejects_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "10", "--seed", "-1", "--quiet")
    assert code == 1
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_simulate_deterministic(capsys):
    args = ("simulate", "--n", "30", "--p", "0.8", "--strategy", "rp", "--seed", "5", "--quiet")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_trace_file(capsys, tmp_path):
    trace = str(tmp_path / "trace.csv")
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n", "20", "--p", "0.9", "--seed", "3",
        "--trace", trace, "--trace-every", "50", "--quiet",
    )
    assert code == 0
    lines = Path(trace).read_text().splitlines()
    assert lines[0] == "step,minus_count,coop_fraction,minus_runs,plus_runs,longest_minus,longest_plus"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "20"
    last = lines[-1].split(",")
    assert "outcome=all_plus" in out
    assert last[1] == "0"


def test_simulate_bad_init(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "10", "--init", "zebra", "--quiet")
    assert code == 1
    assert "unknown init" in err


@pytest.mark.parametrize("init", ["single-defector:x", "single-defector:1.5", "bernoulli:abc", "bernoulli:2"])
def test_bad_init_argument_names_the_init(capsys, tmp_path, init):
    # int() and float() used to print only the argument: "could not convert string to float: 'abc'"
    code, out, err = run_cli(capsys, "simulate", "--n", "10", "--init", init, "--quiet")
    assert (code, out) == (1, "") and err.startswith(f"error: bad init {init!r}: ")
    cfg = _write_config(tmp_path, init=init)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet")
    assert (code, out) == (1, "") and err.startswith(f"error: bad init {init!r}: ")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("init", ["all-defect:junk", "all-cooperate:7", "all-defect:"])
def test_argument_free_init_refuses_an_argument(capsys, tmp_path, init):
    # the suffix used to be dropped, and a sweep's sidecar then echoed the bare name
    code, out, err = run_cli(capsys, "simulate", "--n", "10", "--init", init, "--quiet")
    assert (code, out) == (1, "") and err.startswith("error:") and "takes no argument" in err
    cfg = _write_config(tmp_path, init=init)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet")
    assert (code, out) == (1, "") and err.startswith("error:") and "takes no argument" in err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("every", ["0", "-5"])
def test_simulate_rejects_trace_every_below_1(tmp_path, every):
    # In a child process with a timeout: the defect this guards against is an
    # endless loop, which must fail the test rather than hang it.
    trace = tmp_path / "trace.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "pavlov_cycle.cli", "simulate", "--n", "20", "--p", "0.9",
            "--trace", str(trace), "--trace-every", every, "--quiet",
        ],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert "--trace-every must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not trace.exists()


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_simulate_rejects_max_steps_below_1(capsys, tmp_path, cap):
    # run_until_absorbed and sweep configs reject a cap below 1 too; simulate
    # used to print "outcome=capped steps=0" and exit 0.
    trace = tmp_path / "trace.csv"
    code, out, err = run_cli(
        capsys, "simulate", "--n", "20", "--p", "0.9", "--max-steps", cap, "--trace", str(trace), "--quiet"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--max-steps must be >= 1" in err
    assert not trace.exists()


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize(
    "stored, argv",
    [
        (
            "trace_rp_absorbed.csv",
            ["--n", "12", "--p", "0.6", "--strategy", "rp", "--init", "bernoulli:0.5",
             "--seed", "7", "--trace-every", "8"],
        ),
        (
            "trace_srp_capped.csv",
            ["--n", "12", "--p", "0.2", "--strategy", "srp", "--seed", "3",
             "--trace-every", "9", "--max-steps", "60"],
        ),
    ],
)
def test_simulate_trace_matches_stored(capsys, tmp_path, stored, argv):
    # The stored traces were written when every row was kept in memory and
    # joined at the end; streaming the rows must not change a byte.
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "simulate", *argv, "--trace", str(trace), "--quiet")
    assert code == 0
    with open(os.path.join(DATA, stored), "rb") as handle:
        assert trace.read_bytes() == handle.read()


def test_simulate_trace_memory_does_not_grow_with_snapshots(capsys, tmp_path):
    # The same run traced at every step and at every 10th: rows used to stay
    # in a list until the run ended, and 10x the snapshots raised the peak by
    # about 2.3 MB here.
    trace = str(tmp_path / "trace.csv")

    def peak(every):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                capsys, "simulate", "--n", "100", "--p", "0.3", "--seed", "1", "--max-steps", "20000",
                "--trace-every", str(every), "--trace", trace, "--quiet",
            )
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1), peak(10)  # warm-up: first-call allocations are not the run's
    sparse, dense = peak(10), peak(1)
    assert len(Path(trace).read_text().splitlines()) == 20002
    assert dense - sparse < 200_000, (sparse, dense)


def test_simulate_trace_leaves_no_file_when_run_raises(capsys, tmp_path, monkeypatch):
    calls = []

    def failing_advance(state, strategy, budget):
        calls.append(budget)
        if len(calls) == 3:
            raise ValueError("run failed")
        return advance(state, strategy, budget)

    monkeypatch.setattr(cli, "advance", failing_advance)
    trace = tmp_path / "trace.csv"
    code, out, err = run_cli(
        capsys, "simulate", "--n", "20", "--p", "0.3", "--trace", str(trace), "--trace-every", "5", "--quiet"
    )
    assert code == 1
    assert out == "" and err.startswith("error: run failed")
    assert os.listdir(tmp_path) == []  # neither the trace nor its temp file


@pytest.mark.parametrize("command", ["simulate", "defect-time", "sweep"])
def test_n_beyond_index_size_exits_1_without_traceback(tmp_path, command):
    # 10^20 fits no index-sized integer, so new_state rejects it before it
    # allocates anything; [-1] * n used to raise OverflowError with a traceback.
    if command == "sweep":
        config = tmp_path / "config.json"
        config.write_text('{"n_list": [1e20], "p_list": [0.5], "reps": 1}')
        argv = ["sweep", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    else:
        argv = [command, "--n", str(10**20)]
    proc = subprocess.run(
        [sys.executable, "-m", "pavlov_cycle.cli", *argv, "--quiet"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "index-sized" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, module, name",
    [("simulate", cli, "new_state"), ("defect-time", experiments, "run_until_absorbed"), ("sweep", experiments, "run_until_absorbed")],
)
def test_out_of_memory_exits_1_without_traceback(capsys, tmp_path, monkeypatch, command, module, name):
    # An n that fits an index but not memory fails in new_state's [-1] * n;
    # the patch raises in its place, so nothing large is allocated.
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(module, name, out_of_memory)
    if command == "sweep":
        argv = ["sweep", "--config", _write_config(tmp_path), "--out-dir", str(tmp_path / "out")]
    else:
        argv = [command, "--n", "10"]
    code, out, err = run_cli(capsys, *argv, "--quiet")
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_config_echo_on_stderr(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "10", "--init", "all-cooperate")
    assert code == 0
    echoed = json.loads(err.strip().splitlines()[0])
    assert echoed["command"] == "simulate"
    assert echoed["n"] == 10
    assert echoed["max_steps"] == 43_000_000  # default spelled out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["simulate", "--n", "10", "--p", "0.5", "--init", "all-cooperate"],
            {"command": "simulate", "init": "all-cooperate", "max_steps": 43_000_000, "n": 10,
             "p": 0.5, "seed": 0, "strategy": "rp", "trace": None, "trace_every": 1000},
        ),
        (
            ["weights", "--p", "0.9", "--n", "20"],
            {"command": "weights", "n": 20, "omega": 0.0001, "out": None, "p": 0.9, "strategy": "rp"},
        ),
        (
            ["thresholds", "--series", "f", "--lmax", "3"],
            {"command": "thresholds", "lmax": 3, "series": "f", "tol": 1e-06},
        ),
        (
            ["meanfield", "--p", "0.01", "--tau-end", "0.01"],
            {"command": "meanfield", "L": 64, "csv_cols": 8, "dt": 0.001, "out": None, "p": 0.01,
             "tau_end": 0.01},
        ),
        (
            ["defect-time", "--n", "5", "--reps", "3"],
            {"command": "defect-time", "n": 5, "reps": 3, "seed": 0},
        ),
    ],
)
def test_config_echo_lists_every_option(capsys, argv, expected):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert err.splitlines()[0] == json.dumps(expected, sort_keys=True)


# ---------------------------------------------------------------------------
# sweep


def _write_config(tmp_path, **overrides):
    cfg = {
        "strategy": "rp",
        "n_list": [20],
        "p_list": [0.3, 1.0],
        "reps": 4,
        "max_steps": 4000,
        "master_seed": 7,
        "init": "all-defect",
    }
    cfg.update(overrides)
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_sweep_outputs(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    out_dir = str(tmp_path / "out")
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--out-dir", out_dir, "--quiet")
    assert code == 0
    for name in ("records.csv", "summary.csv", "charts.svg", "resolved_config.json"):
        assert os.path.exists(os.path.join(out_dir, name)), name
    resolved = json.loads(Path(out_dir, "resolved_config.json").read_text())
    assert resolved["master_seed"] == 7
    assert resolved["init"] == "all-defect"
    records = Path(out_dir, "records.csv").read_text().splitlines()
    assert len(records) == 1 + 2 * 4


def test_sweep_reruns_byte_identical(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    d1, d2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert run_cli(capsys, "sweep", "--config", cfg, "--out-dir", d1, "--quiet")[0] == 0
    assert run_cli(capsys, "sweep", "--config", cfg, "--out-dir", d2, "--threads", "2", "--quiet")[0] == 0
    for name in ("records.csv", "summary.csv", "charts.svg"):
        a = Path(d1, name).read_bytes()
        b = Path(d2, name).read_bytes()
        assert a == b, name


SWEEP_DIGESTS = {
    "records.csv": "de1a8f71c71b86b9165cf53c9bdec7a61b816f80c3b048b814c9086139e32b30",
    "summary.csv": "2c975671e14f5aafdf04ed869248a369387da8da3c35fe665175932fba2e8f86",
    "charts.svg": "f0548c937ffd5859b0b0e7b2553cb4d4c1aa73aedcafa427e8ffab408789d8a2",
    "resolved_config.json": "a77d6e003f5c01407e9326a68b7a3dfdb2d1c27d9c3bd91a407830336732d93b",
}


def test_sweep_outputs_are_pinned(capsys, tmp_path):
    # Two n values, so the charts hold a legend and more than one colour.
    cfg = _write_config(tmp_path, n_list=[20, 30])
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "sweep", "--config", cfg, "--out-dir", str(out_dir), "--quiet")[0] == 0
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in SWEEP_DIGESTS}
    assert digests == SWEEP_DIGESTS


def test_pinned_outputs_hold_under_python312_sums(python312_sums, capsys, tmp_path):
    # From Python 3.12 the builtin sum() compensates float sums; the pins are
    # a left-to-right fold, which the weights and sweep outputs must not
    # leave to sum().
    for pin in WEIGHTS_PINS:
        test_weights_output_is_pinned(capsys, tmp_path, *pin)
    test_sweep_outputs_are_pinned(capsys, tmp_path)


def test_sweep_integer_key_takes_an_integral_float(capsys, tmp_path):
    d1, d2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert run_cli(capsys, "sweep", "--config", _write_config(tmp_path), "--out-dir", d1, "--quiet")[0] == 0
    cfg = _write_config(tmp_path, max_steps=4000.0)
    assert run_cli(capsys, "sweep", "--config", cfg, "--out-dir", d2, "--quiet")[0] == 0
    for name in ("records.csv", "resolved_config.json"):
        assert Path(d1, name).read_text() == Path(d2, name).read_text(), name


def test_sweep_unknown_key(capsys, tmp_path):
    cfg = _write_config(tmp_path, typo_key=1)
    code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--out-dir", str(tmp_path / "x"), "--quiet")
    assert code == 1
    assert "typo_key" in err


def test_sweep_missing_config_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--config", str(tmp_path / "none.json"), "--out-dir", str(tmp_path / "x"), "--quiet"
    )
    assert code == 1


def test_failed_sweep_removes_the_directories_it_created(capsys, tmp_path):
    # n = 10^20 fails in new_state, after the output directory was made.
    cfg = _write_config(tmp_path, n_list=[1e20])
    code, out, err = run_cli(capsys, "sweep", "--config", cfg, "--out-dir", str(tmp_path / "a" / "b"), "--quiet")
    assert code == 1 and out == "" and err.startswith("error:")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_failed_sweep_keeps_an_existing_directory(capsys, tmp_path):
    cfg = _write_config(tmp_path, n_list=[1e20])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "records.csv").write_text("earlier run\n")
    code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--out-dir", str(out_dir / "new"), "--quiet")
    assert code == 1 and err.startswith("error:")
    assert os.listdir(out_dir) == ["records.csv"]
    code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--out-dir", str(out_dir), "--quiet")
    assert code == 1 and err.startswith("error:")
    assert os.listdir(out_dir) == ["records.csv"]
    assert (out_dir / "records.csv").read_text() == "earlier run\n"


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sweep_refuses_a_master_seed_outside_64_bits(capsys, tmp_path, seed):
    cfg = _write_config(tmp_path, master_seed=seed)
    code, out, err = run_cli(capsys, "sweep", "--config", cfg, "--out-dir", str(tmp_path / "x"), "--quiet")
    assert (code, out) == (1, "")
    assert err == f"error: master_seed must be in [0, 2^64), got {seed}\n"
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize(
    "raw",
    [
        {"n_list": 5, "p_list": [0.5]},
        {"n_list": [20], "p_list": 0.5},
        {"n_list": [20], "p_list": [None]},
        {"n_list": ["20"], "p_list": [0.5]},
        {"n_list": [[20]], "p_list": [0.5]},
        {"n_list": [True], "p_list": [0.5]},
        {"n_list": [float("inf")], "p_list": [0.5]},
        {"n_list": [float("nan")], "p_list": [0.5]},
        {"n_list": [10.7], "p_list": [0.5]},
        {"n_list": [20], "p_list": [0.5], "reps": 2.9},
        {"n_list": [20], "p_list": [0.5], "master_seed": 1.5},
        {"n_list": [20], "p_list": [0.5], "reps": None},
        {"n_list": [20], "p_list": [0.5], "init": 5},
        {"n_list": [20], "p_list": [0.5], "strategy": ["rp"]},
        [20, 0.5],
        [[1, 2]],
        "rp",
        5,
        None,
    ],
)
def test_sweep_malformed_config_is_a_usage_error(capsys, tmp_path, raw):
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    code, _, err = run_cli(capsys, "sweep", "--config", path, "--out-dir", str(tmp_path / "x"), "--quiet")
    assert code == 1
    assert err.startswith("error: sweep config")
    assert not os.path.exists(tmp_path / "x")


# ---------------------------------------------------------------------------
# meanfield and defect-time


def test_meanfield_writes_trajectory(capsys, tmp_path):
    out = str(tmp_path / "traj.csv")
    code, text, _ = run_cli(
        capsys, "meanfield", "--p", "0.02", "--tau-end", "2", "--L", "16",
        "--out", out, "--csv-cols", "4", "--quiet",
    )
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "tau,P_0,P_1,P_2,P_3,P_4,sum_tail"
    assert "max_tail_sum=" in text
    assert hashlib.sha256(Path(out).read_bytes()).hexdigest() == (
        "1b72e1919f6e8f3bd6a72f4ddf97a4e25dbb82584a1e10652fa5e75426a6055a"
    )


def test_meanfield_rejects_negative_csv_cols(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code, _, err = run_cli(
        capsys, "meanfield", "--p", "0.02", "--tau-end", "0.1", "--out", str(out), "--csv-cols", "-1", "--quiet"
    )
    assert code == 1
    assert "--csv-cols must be >= 0" in err
    assert not out.exists()


def test_meanfield_csv_cols_zero_keeps_p0(capsys, tmp_path):
    out = str(tmp_path / "traj.csv")
    code, _, _ = run_cli(
        capsys, "meanfield", "--p", "0.02", "--tau-end", "0.1", "--out", out, "--csv-cols", "0", "--quiet"
    )
    assert code == 0
    assert Path(out).read_text().splitlines()[0] == "tau,P_0,sum_tail"


def test_meanfield_rejects_big_dt(capsys):
    code, _, err = run_cli(capsys, "meanfield", "--p", "0.02", "--dt", "0.5", "--quiet")
    assert code == 1


# Runs meanfield with the options argv[2:] in a child interpreter; argv[1]
# "numpy" patches the kernel loader to return None, so integrate takes its
# numpy loop.
MEANFIELD_CHILD = """
import sys
from pavlov_cycle import _native, cli
if sys.argv[1] == "numpy":
    _native.load = lambda: None
sys.exit(cli.main(["meanfield", *sys.argv[2:], "--quiet"]))
"""


def run_meanfield_child(path, *options):
    return subprocess.run(
        [sys.executable, "-c", MEANFIELD_CHILD, path, *options],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )


@pytest.mark.parametrize("path", ["kernel", "numpy"])
@pytest.mark.parametrize("tau_end", ["inf", "nan", "1e30"])
def test_meanfield_rejects_unbounded_tau_end(tau_end, path):
    # In a child process with a timeout: 1e30 looped until killed on the
    # numpy path, and inf ended in an OverflowError traceback.
    proc = run_meanfield_child(path, "--p", "0.01", "--tau-end", tau_end)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("path", ["kernel", "numpy"])
def test_meanfield_divergence_exits_1_without_traceback(path):
    # IntegrationDivergedError is a RuntimeError, which main once let through.
    proc = run_meanfield_child(path, "--p", "0.99", "--tau-end", "100", "--dt", "0.01", "--L", "200")
    assert proc.returncode == 1
    # Only that line: on the numpy path numpy's overflow warnings must not reach stderr.
    assert proc.stderr == "error: non-finite values at tau = 8.66 (p = 0.99, L = 200, dt = 0.01)\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "options",
    [("--p", "0.02", "--tau-end", "1", "--L", "16"), ("--p", "0.05", "--tau-end", "10", "--csv-cols", "64")],
    ids=["L16", "csv-cols-64"],
)
def test_meanfield_files_are_the_same_with_or_without_the_kernel(tmp_path, options):
    if _native.load() is None:
        pytest.skip("no C compiler found, or the kernel could not be built or loaded")
    kernel, numpy = (
        run_meanfield_child(path, *options, "--out", str(tmp_path / path)) for path in ("kernel", "numpy")
    )
    assert (kernel.returncode, numpy.returncode) == (0, 0), kernel.stderr + numpy.stderr
    assert kernel.stdout == numpy.stdout
    assert (tmp_path / "kernel").read_bytes() == (tmp_path / "numpy").read_bytes()


def test_defect_time_output(capsys):
    code, out, _ = run_cli(capsys, "defect-time", "--n", "30", "--reps", "20", "--seed", "1", "--quiet")
    assert code == 0
    assert "expected=435.0" in out  # 30*29/2
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d240da86489088df6fa28e89e0704f6fe3032be687e95fe69817596814bce35d"
    )


@pytest.mark.parametrize("n", ["2", "0"])
def test_defect_time_rejects_n_below_3(capsys, n):
    # The clock is a sweep cell, so SweepConfig checks n, before the 1000 n^2 step cap.
    code, out, err = run_cli(capsys, "defect-time", "--n", n, "--quiet")
    assert (code, out, err) == (1, "", f"error: every n must be >= 3, got {n}\n")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_defect_time_refuses_a_seed_outside_64_bits(capsys, seed):
    # Both used to run: -1 as 2^64 - 1 and 2^64 as 0, each echoed as given.
    code, out, err = run_cli(capsys, "defect-time", "--n", "20", "--reps", "5", "--seed", seed, "--quiet")
    assert (code, out) == (1, "")
    assert err == f"error: master_seed must be in [0, 2^64), got {seed}\n"


def test_defect_time_takes_the_largest_64_bit_seed(capsys):
    code, out, _ = run_cli(capsys, "defect-time", "--n", "20", "--reps", "5", "--seed", str(2**64 - 1), "--quiet")
    assert code == 0 and out.startswith("n=20 reps=5 mean_steps=")


# ---------------------------------------------------------------------------
# front-end behaviour


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "simulate")  # --n missing
    assert code == 1


def test_unknown_command_exit_1(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--help"]) == 0


def test_help_documents_defaults(capsys):
    main(["weights", "--help"])
    out = capsys.readouterr().out
    assert "1e-4" in out  # omega default
    main(["meanfield", "--help"])
    out = capsys.readouterr().out
    assert "1e-3" in out and "64" in out
    main(["simulate", "--help"])
    out = capsys.readouterr().out
    assert "43000000" in out


def run_into_closed_stdout(argv, unbuffered=False):
    """(exit code, stderr) of the CLI in a child whose stdout pipe has no reader."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pavlov_cycle.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_1_quietly(unbuffered):
    # A closed stdout used to print "error: [Errno 32] Broken pipe", or, with
    # stdout buffered, "Exception ignored ... BrokenPipeError" and exit 120.
    argv = ["defect-time", "--n", "20", "--reps", "5", "--quiet"]
    assert run_into_closed_stdout(argv, unbuffered) == (1, b"")


@pytest.mark.parametrize("argv", [["--help"], ["weights", "--help"], ["--version"]], ids=" ".join)
def test_help_into_a_closed_stdout_exits_1_quietly(argv):
    # argparse writes the text into stdout's buffer and exits; the buffer used
    # to meet the closed pipe only at interpreter exit, which printed
    # "Exception ignored ... BrokenPipeError" and exited 120.
    assert run_into_closed_stdout(argv) == (1, b"")


def test_trace_and_meanfield_outputs_byte_identical(capsys, tmp_path):
    t1, t2 = str(tmp_path / "t1.csv"), str(tmp_path / "t2.csv")
    for t in (t1, t2):
        assert run_cli(
            capsys, "simulate", "--n", "25", "--p", "0.85", "--seed", "9",
            "--trace", t, "--trace-every", "100", "--quiet",
        )[0] == 0
    assert Path(t1).read_bytes() == Path(t2).read_bytes()

    m1, m2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
    for m in (m1, m2):
        assert run_cli(
            capsys, "meanfield", "--p", "0.02", "--tau-end", "1", "--L", "16",
            "--out", m, "--quiet",
        )[0] == 0
    assert Path(m1).read_bytes() == Path(m2).read_bytes()


IMPORT_CHILD = """
import sys
import pavlov_cycle.experiments, pavlov_cycle.cli
print("concurrent.futures.process" in sys.modules, "multiprocessing" in sys.modules)
"""


def test_import_loads_no_process_pool():
    # Only run_sweep(workers > 1) needs the pool; serial runs and the other
    # commands should not pay for loading multiprocessing.
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHILD],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


# Runs one command in a child interpreter, then prints its exit code and
# which of the modules named after the command are loaded.
BUILD_TOOLS_CHILD = """
import sys
from pavlov_cycle import cli
code = cli.main(sys.argv[1].split() + ["--quiet"])
print(code, *(name for name in sys.argv[2:] if name in sys.modules))
"""


@pytest.mark.parametrize(
    "argv, modules",
    [
        # numpy.random imports hashlib itself (through secrets), so a run that
        # draws can leave out only the other two.
        ("simulate --n 20 --p 0.9", ["subprocess", "numpy.ctypeslib"]),
        ("thresholds --series f --lmax 2", ["hashlib", "subprocess", "numpy.ctypeslib"]),
    ],
    ids=["simulate", "thresholds"],
)
def test_runs_without_integrate_load_no_build_tools(argv, modules):
    # Only _native.load() needs the build tools; hashlib loads libcrypto.
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_TOOLS_CHILD, argv, *modules],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0"


# ---------------------------------------------------------------------------
# robustness: any argv ends in exit 0, 1 or 2


MALFORMED = ["nan", "1e999", "-0", "x", ""]
CONFIG_MALFORMED = [math.nan, math.inf, -0.0, "x", "", None, [math.nan], [math.inf], [-0.0], ["x"], []]

# Each subcommand's options with a few valid values, all small: n <= 40
# (200 for weights), L <= 32, at most 10^3 RK4 steps, --threads 1 or 2.
# "{tmp}" stands for the example's own directory, where every path points.
CLI_OPTIONS = {
    "simulate": {
        "--n": ["3", "10", "40"],
        "--max-steps": ["1", "100", "10000"],
        "--p": ["0", "0.3", "1"],
        "--strategy": ["pavlov", "rp", "srp"],
        "--init": [
            "all-defect",
            "all-cooperate",
            "single-defector:2",
            "bernoulli:0.5",
            *(f"{name}:{m}" for name in ("single-defector", "bernoulli") for m in MALFORMED),
        ],
        "--seed": ["0", "7"],
        "--trace": ["{tmp}/trace.csv", "{tmp}/"],
        "--trace-every": ["1", "1000"],
    },
    "sweep": {
        "--config": ["{tmp}/config.json"],
        "--out-dir": ["{tmp}/out", "{tmp}/config.json"],
        "--threads": ["1", "2"],
    },
    "weights": {
        "--p": ["0.5", "0.9", "1"],
        "--n": ["3", "20", "200"],
        "--omega": ["0", "1e-4", "0.5"],
        "--strategy": ["pavlov", "rp", "srp"],
        "--out": ["{tmp}/table.csv", "{tmp}/"],
    },
    "thresholds": {
        "--series": ["h", "f"],
        "--lmax": ["1", "8", "20"],
        "--tol": ["1e-6", "1e-3", "1e-300"],
    },
    "meanfield": {
        "--p": ["0.1", "0.5", "0.9"],
        "--tau-end": ["0", "0.5", "1"],
        "--dt": ["0.001", "0.01"],
        "--L": ["3", "8", "32"],
        "--csv-cols": ["0", "3", "40"],
        "--out": ["{tmp}/traj.csv", "{tmp}/"],
    },
    "defect-time": {
        "--n": ["3", "10", "40"],
        "--reps": ["1", "5"],
        "--seed": ["0", "3"],
    },
}
# The first options of each command are always passed, the rest may be: so
# simulate's step cap is at most 10^4, or malformed and refused.
ALWAYS_PASSED = {"simulate": 2, "sweep": 2, "weights": 1, "thresholds": 1, "meanfield": 1, "defect-time": 1}
CONFIG_VALUES = {
    "n_list": [[3], [10, 40]],
    "p_list": [[0.0], [0.5, 1.0]],
    "strategy": ["rp", "srp", "pavlov"],
    "reps": [1, 3],
    "master_seed": [0, 5],
    "init": ["all-defect", "bernoulli:0.5", "single-defector:1", "bernoulli:x"],
}


def _operand(draw, valid, malformed):
    """One of the valid values, or one time in four a malformed one."""
    return draw(st.sampled_from(malformed if draw(st.integers(0, 3)) == 0 else valid))


@st.composite
def _cli_case(draw):
    """(argv, sweep config or None): valid and malformed operands mixed."""
    command = draw(st.sampled_from(sorted(CLI_OPTIONS)))
    options = CLI_OPTIONS[command]
    flags = list(options)
    always = ALWAYS_PASSED[command]
    chosen = flags[:always] + draw(st.lists(st.sampled_from(flags[always:]), unique=True))
    argv = [command, "--quiet"]
    for flag in chosen:
        valid = options[flag]
        # a malformed path stays in the example's directory too
        path = valid[0].startswith("{tmp}")
        argv += [flag, _operand(draw, valid, [f"{{tmp}}/{m}" for m in MALFORMED] if path else MALFORMED)]
    if draw(st.integers(0, 7)) == 0:  # a flag with its operand missing
        argv.append(draw(st.sampled_from(flags)))
    config = None
    if command == "sweep":
        keys = ["n_list", "p_list"] + draw(st.lists(st.sampled_from(list(CONFIG_VALUES)[2:]), unique=True))
        config = {"max_steps": _operand(draw, [1, 100, 10_000], CONFIG_MALFORMED)}
        for key in keys:
            config[key] = _operand(draw, CONFIG_VALUES[key], CONFIG_MALFORMED)
    return argv, config


# Runs main() on each JSON argv line of stdin and answers with one JSON line,
# [exit code, what main wrote to stderr].  An exception that escapes main
# ends the process with its traceback on the process's own stderr.  The
# child runs under the suite's warning policy (pyproject.toml's
# filterwarnings): a DeprecationWarning escapes main as an error, and a file
# left open prints "Exception ignored ... ResourceWarning" on that stderr.
CHILD_WARNINGS = ["-W", "error::DeprecationWarning", "-W", "error::ResourceWarning"]
CLI_CHILD = r"""
import contextlib, io, json, sys
from pavlov_cycle.cli import main

for line in sys.stdin:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(json.loads(line))
    print(json.dumps([code, err.getvalue()]), flush=True)
"""


class CliChild:
    """One child interpreter that runs the argv property's examples, each under a timeout.

    A child that hangs is killed and the next example starts a new one.
    Its own stderr (a traceback, or a pool worker's) goes to a file.
    """

    def __init__(self, stderr_path: Path) -> None:
        self.stderr_path = stderr_path
        self.proc = None

    def run(self, argv: list[str], timeout: float = 60.0) -> tuple[int, str]:
        """(exit code, stderr) of main(argv) in the child; fails on a hang or a crash."""
        if self.proc is None:
            with open(self.stderr_path, "w") as stderr:
                self.proc = subprocess.Popen(
                    [sys.executable, *CHILD_WARNINGS, "-c", CLI_CHILD],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
                    text=True, env=child_env(),
                )
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            pytest.fail(f"no exit code for {argv} within {timeout} s:\n{self.stderr_path.read_text()}")
        code, err = json.loads(line)
        return code, err + self.stderr_path.read_text()

    def close(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait(timeout=60)
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None


@pytest.fixture(scope="module")
def cli_child(tmp_path_factory):
    child = CliChild(tmp_path_factory.mktemp("cli-child") / "stderr.txt")
    yield child
    child.close()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cli_case())
def test_any_argv_ends_in_an_exit_code(cli_child, case):
    # In a child process with a timeout, so that a hang fails this test
    # instead of stalling the suite, and a traceback printed anywhere shows.
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            Path(tmp, "config.json").write_text(json.dumps(config))  # NaN and Infinity included
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        code, err = cli_child.run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, (argv, err)
    assert "Exception ignored" not in err, (argv, err)
