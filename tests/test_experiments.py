import concurrent.futures
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from pavlov_cycle import experiments
from pavlov_cycle.charts import render_phase_charts
from pavlov_cycle.dynamics import Outcome, SingleDefector, StrategyKind
from pavlov_cycle.experiments import (
    CSV_HEADER,
    SweepConfig,
    atomic_write_text,
    defect_time_experiment,
    defect_time_variance,
    derive_seed,
    emit_csv,
    parse_csv,
    phase_summary,
    records_to_csv,
    run_sweep,
    splitmix64,
    summary_to_csv,
)

# Frozen outputs of the seed mix (also documented in the README): changing
# the derivation silently would invalidate every recorded experiment.
SEED_VECTORS = {
    (0, ()): 16294208416658607535,
    (0, (0, 0, 0)): 2391539541053276776,
    (0, (0, 0, 1)): 3048674281419798293,
    (0, (0, 1, 0)): 15703761562794949698,
    (0, (1, 0, 0)): 15114123258453576503,
    (42, (3, 1, 7)): 9994812248937947343,
}


def test_splitmix64_reference_values():
    # value at state 0 matches the reference implementation's first output
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 10451216379200822465
    assert splitmix64(2) == 10905525725756348110


def test_derive_seed_frozen_vectors():
    for (master, idxs), expected in SEED_VECTORS.items():
        assert derive_seed(master, *idxs) == expected


def test_readme_seed_vectors_are_the_code_and_the_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = {}
    for args, value in re.findall(r"derive_seed\(([\d, ]+)\) = (\d+)", readme):
        master, *idxs = map(int, args.split(","))
        documented[master, tuple(idxs)] = int(value)
        assert derive_seed(master, *idxs) == int(value), args
    assert documented == SEED_VECTORS


def test_derive_seed_order_sensitive_and_64bit():
    a = derive_seed(5, 1, 2, 3)
    b = derive_seed(5, 3, 2, 1)
    assert a != b
    assert 0 <= a < 2**64


def _tiny_config(**kw):
    base = dict(
        strategy_kind=StrategyKind.RP,
        n_list=(20,),
        p_list=(0.3, 1.0),
        reps=6,
        max_steps=5000,
        master_seed=11,
    )
    base.update(kw)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(reps=0)
    with pytest.raises(ValueError):
        _tiny_config(p_list=(1.2,))
    with pytest.raises(ValueError):
        _tiny_config(n_list=(2,))
    with pytest.raises(ValueError):
        _tiny_config(strategy_kind=StrategyKind.PAVLOV, p_list=(0.5,))


def test_config_converts_a_plain_string_kind():
    # "pavlov" as a string used to skip the p = 1 check, and run_sweep
    # then failed on str.value
    with pytest.raises(ValueError, match="pavlov is the p = 1 strategy"):
        SweepConfig("pavlov", (10,), (0.5,))
    records = run_sweep(SweepConfig("rp", (10,), (1.0,), reps=2, max_steps=1000))
    assert [r.strategy for r in records] == ["rp", "rp"]


def test_run_sweep_shape_and_invariants():
    config = _tiny_config()
    records = run_sweep(config)
    assert len(records) == 2 * 6
    keys = [(r.n, r.p, r.rep) for r in records]
    assert keys == [(20, p, rep) for p in (0.3, 1.0) for rep in range(6)]
    for r in records:
        assert r.steps <= config.max_steps
        if r.outcome is Outcome.CAPPED:
            assert r.steps == config.max_steps
        if r.outcome is Outcome.ALL_PLUS:
            assert r.coop_fraction == 1.0
        assert r.seed == derive_seed(11, 0, (0.3, 1.0).index(r.p), r.rep)


def test_run_sweep_deterministic_and_parallel_equivalent():
    config = _tiny_config(reps=8)
    serial = run_sweep(config, workers=1)
    again = run_sweep(config, workers=1)
    parallel = run_sweep(config, workers=2)
    assert serial == again == parallel


@pytest.mark.parametrize(("cpus", "expected"), [(8, 3), (2, 2), (None, 1)])
def test_run_sweep_pool_size_is_capped(monkeypatch, cpus, expected):
    # The pool starts all of its processes at the first submit; a fake pool
    # records the size asked for and runs the blocks in this process.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    config = _tiny_config(p_list=(0.3,), reps=3)  # three blocks of one rep
    serial = run_sweep(config)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    assert run_sweep(config, workers=64) == serial
    assert sizes == [expected]


def test_pavlov_cell_absorbs_fast():
    config = SweepConfig(
        strategy_kind=StrategyKind.PAVLOV,
        n_list=(50,),
        p_list=(1.0,),
        reps=5,
        max_steps=100_000,
        master_seed=3,
    )
    for r in run_sweep(config):
        assert r.outcome is Outcome.ALL_PLUS
        assert r.steps < 100_000


def test_phase_summary_all_capped_cell():
    config = _tiny_config(p_list=(0.1,), max_steps=2000, reps=5)
    cells = phase_summary(run_sweep(config))
    assert len(cells) == 1
    cell = cells[0]
    assert cell.median_steps == 2000.0
    assert cell.capped_fraction == 1.0
    assert 0.0 <= cell.mean_coop_fraction <= 1.0


def test_phase_summary_rejects_empty():
    with pytest.raises(ValueError):
        phase_summary([])


# ---------------------------------------------------------------------------
# defect-time experiment


def test_defect_time_statistics():
    stats = defect_time_experiment(50, 200, master_seed=12345)
    assert stats.expected_steps == 1225.0
    assert abs(stats.mean_steps - 1225.0) / 1225.0 < 0.05
    sigma = math.sqrt(defect_time_variance(50))
    outside = sum(1 for t in stats.times if abs(t - 1225.0) > 4 * sigma)
    assert outside <= 2
    assert len(stats.times) == 200


def test_defect_time_variance_formula():
    # sum of n-1 geometric variances with success probability 2/n
    n = 50
    q = 2 / n
    assert defect_time_variance(n) == pytest.approx((n - 1) * (1 - q) / q**2)


def test_defect_time_is_the_p0_sweep_cell():
    config = SweepConfig(StrategyKind.RP, (20,), (0.0,), 10, 1000 * 20 * 20, 9, SingleDefector(0))
    records = run_sweep(config)
    assert defect_time_experiment(20, 10, master_seed=9).times == tuple(r.steps for r in records)
    assert {r.outcome for r in records} == {Outcome.ALL_MINUS}


def test_defect_time_deterministic():
    a = defect_time_experiment(20, 10, master_seed=9)
    b = defect_time_experiment(20, 10, master_seed=9)
    assert a.times == b.times


# ---------------------------------------------------------------------------
# CSV round-trip


def test_csv_header_schema():
    assert CSV_HEADER == "strategy,n,p,rep,seed,steps,outcome,coop_fraction"


def test_csv_round_trip(tmp_path):
    config = _tiny_config(p_list=(0.25, 0.875))  # six-decimal-exact p values
    records = run_sweep(config)
    path = str(tmp_path / "records.csv")
    emit_csv(records, path)
    assert parse_csv(path) == records


def test_csv_formatting():
    config = _tiny_config(p_list=(0.3,), reps=1)
    text = records_to_csv(run_sweep(config))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "rp"
    assert fields[2] == "0.300000"  # p with six decimals
    assert not fields[4].startswith("-")  # seed printed unsigned
    assert fields[6] in ("all_plus", "all_minus", "capped")


def test_empty_record_list_gives_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_csv([], path)
    assert Path(path).read_text() == CSV_HEADER + "\n"
    assert parse_csv(path) == []


def test_parse_rejects_foreign_file(tmp_path):
    path = str(tmp_path / "bad.csv")
    atomic_write_text(path, "nope\n")
    with pytest.raises(ValueError):
        parse_csv(path)


def test_atomic_write_failure_mentions_path():
    with pytest.raises(OSError, match="no/such/dir"):
        atomic_write_text("/no/such/dir/file.txt", "x")


# ---------------------------------------------------------------------------
# charts


def test_charts_svg_well_formed_and_deterministic(tmp_path):
    config = _tiny_config(n_list=(20, 30), p_list=(0.25, 0.5, 1.0), reps=4)
    cells = phase_summary(run_sweep(config))
    p1 = str(tmp_path / "a.svg")
    p2 = str(tmp_path / "b.svg")
    render_phase_charts(cells, p1)
    render_phase_charts(cells, p2)
    data = Path(p1).read_bytes()
    assert data == Path(p2).read_bytes()
    root = ET.fromstring(data)
    assert root.tag.endswith("svg")
    body = data.decode()
    assert "polyline" in body
    assert "y = p" in body
    assert "n=20" in body and "n=30" in body


def test_charts_reject_empty(tmp_path):
    with pytest.raises(ValueError):
        render_phase_charts([], str(tmp_path / "x.svg"))


def test_summary_csv_shape():
    config = _tiny_config(reps=3)
    text = summary_to_csv(phase_summary(run_sweep(config)))
    lines = text.splitlines()
    assert lines[0] == "strategy,n,p,runs,median_steps,capped_fraction,mean_coop_fraction"
    assert len(lines) == 3  # header + two p cells


def test_monotone_forgiveness_medians():
    # median absorption time non-increasing in p on the fast side of the
    # transition (one inversion tolerated as sampling noise at 100 reps)
    config = SweepConfig(
        strategy_kind=StrategyKind.RP,
        n_list=(100,),
        p_list=(0.6, 0.7, 0.8, 0.9, 1.0),
        reps=100,
        max_steps=1_000_000,
        master_seed=555,
    )
    cells = {c.p: c.median_steps for c in phase_summary(run_sweep(config, workers=2))}
    ps = sorted(cells)
    inversions = sum(1 for a, b in zip(ps, ps[1:]) if cells[b] > cells[a])
    assert inversions <= 1, cells
