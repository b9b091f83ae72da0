import json
import os

import numpy as np
import pytest

import ocolc.cli
from ocolc.cli import main, load_trace_csv, read_config_file
from ocolc.oracle import OracleError, OracleResult


def run_cli(*args):
    return main(list(args))


def test_run_writes_trace_and_summary(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "400",
        "--beta", "0.5", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["T"] == 400
    assert summary["algo"] == "clipped-ogd"
    assert np.isfinite(summary["regret"])
    assert summary["agg_sum_clip"] >= 0.0
    assert summary["eta"] > 0 and summary["sigma"] > 0
    cols = load_trace_csv(out / "trace.csv")
    assert set(cols) == {"t", "fx", "g_max", "g_clip", "lambda_norm", "x_norm"}
    assert cols["t"].size == 400


def test_run_missing_T_is_usage_error(tmp_path, capsys):
    code = run_cli("run", "--problem", "toy", "--algo", "clipped-ogd", "--out", str(tmp_path))
    assert code == 2
    assert "T" in capsys.readouterr().err


def test_run_unknown_algo_is_usage_like_failure(tmp_path):
    code = run_cli(
        "run", "--problem", "toy", "--algo", "wat", "--T", "10", "--out", str(tmp_path)
    )
    assert code != 0


def test_run_strong_on_doubly_stochastic_uses_H1(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "run", "--problem", "doubly-stochastic", "--d", "4", "--algo", "strong",
        "--T", "50", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eta"] is None  # time-varying schedule, no constant stepsize
    assert summary["problem"] == "doubly-stochastic"


def test_run_per_constraint_columns(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "run", "--problem", "dispatch", "--algo", "clipped-ogd", "--T", "20",
        "--out", str(out), "--per-constraint-columns",
    )
    assert code == 0
    cols = load_trace_csv(out / "trace.csv")
    assert "g_1" in cols and "g_7" in cols


def test_trace_csv_roundtrip_bit_identical(tmp_path):
    from ocolc import AlgoConfig, run as run_algo, toy_problem
    from ocolc.cli import write_trace_csv

    tr = run_algo(toy_problem(), AlgoConfig("clipped-ogd", T=64), seed=9)
    path = tmp_path / "t.csv"
    write_trace_csv(tr, path)
    cols = load_trace_csv(path)
    assert np.array_equal(cols["fx"], tr.fx)
    assert np.array_equal(cols["g_max"], tr.g.max(axis=1))
    assert np.array_equal(cols["lambda_norm"], np.linalg.norm(tr.lam, axis=1))


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("# comment\nproblem=toy\nalgo=clipped-ogd\nT=60\nseed=3\n")
    out = tmp_path / "o"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["T"] == 60
    # explicit flag wins over the file
    assert run_cli("run", "--config", str(cfg), "--T", "30", "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["T"] == 30


def test_read_config_rejects_malformed(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("problem toy\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(cfg)


def test_sweep_cardinality_and_determinism(tmp_path):
    out = tmp_path / "o"
    args = (
        "sweep", "--problem", "toy", "--T-grid", "100,200",
        "--algos", "ogd,a-ogd,clipped-ogd", "--seeds", "2", "--out", str(out),
    )
    assert run_cli(*args) == 0
    body1 = (out / "sweep.csv").read_bytes()
    lines = body1.decode().strip().splitlines()
    assert len(lines) == 1 + 3 * 2 * 2  # header + algos * horizons * seeds
    assert lines[0] == "algo,T,seed,regret,sum_g,sum_clip,sum_clip_sq,max_step_violation"
    stats = (out / "sweep_stats.csv").read_text().strip().splitlines()
    assert len(stats) == 1 + 3 * 2
    # byte-identical on rerun
    assert run_cli(*args) == 0
    assert (out / "sweep.csv").read_bytes() == body1


def test_sweep_parallel_matches_serial(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = (
        "sweep", "--problem", "toy", "--T-grid", "100,200",
        "--algos", "clipped-ogd,ogd", "--seeds", "2",
    )
    assert run_cli(*base, "--out", str(out1)) == 0
    assert run_cli(*base, "--out", str(out2), "--jobs", "2") == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_oracle_caches(tmp_path, capsys):
    out = tmp_path / "o"
    args = ("oracle", "--problem", "toy", "--seed", "4", "--T", "150", "--out", str(out))
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert first.startswith("solved")
    assert run_cli(*args) == 0
    assert capsys.readouterr().out.startswith("cached")


def test_oracle_dispatch_residual(tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli(
        "oracle", "--problem", "dispatch", "--seed", "0", "--T", "100", "--out", str(out)
    )
    assert code == 0
    blobs = [f for f in os.listdir(out) if f.startswith("oracle-")]
    blob = json.loads((out / blobs[0]).read_text())
    assert blob["residual"] <= 1e-6


def test_dispatch_demand_csv_flag(tmp_path):
    demand = tmp_path / "d.csv"
    demand.write_text("t,demand\n" + "\n".join(f"{i},{30 + i % 5}" for i in range(40)) + "\n")
    out = tmp_path / "o"
    code = run_cli(
        "run", "--problem", "dispatch", "--demand-csv", str(demand),
        "--demand-rescale", "0.5", "--algo", "clipped-ogd", "--T", "30", "--out", str(out),
    )
    assert code == 0


def test_outdir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OCOLC_OUTDIR", str(tmp_path / "envout"))
    code = run_cli("run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "20")
    assert code == 0
    assert (tmp_path / "envout" / "summary.json").exists()


# ------------------------------------------------------------ oracle failures

DISPATCH_RUN = (
    "run", "--problem", "dispatch", "--algo", "clipped-ogd", "--T", "50", "--seed", "1",
    "--oracle-iters", "200",
)
ORACLE_COMMANDS = {
    "run": DISPATCH_RUN,
    "sweep": ("sweep", "--problem", "dispatch", "--algos", "ogd", "--T-grid", "30",
              "--seeds", "1", "--oracle-iters", "200"),
    "oracle": ("oracle", "--problem", "dispatch", "--T", "50", "--oracle-iters", "200"),
}


@pytest.mark.parametrize("command", sorted(ORACLE_COMMANDS))
@pytest.mark.parametrize("flag", [("--oracle-tol", "-1"), ("--oracle-tol", "0"),
                                  ("--oracle-iters", "0")])
def test_bad_oracle_settings_are_usage_errors(tmp_path, capsys, command, flag):
    code = run_cli(*ORACLE_COMMANDS[command], *flag, "--out", str(tmp_path))
    assert code == 2
    assert f"usage error: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_oracle_error_exits_1_with_message(tmp_path, capsys, monkeypatch, command):
    def fail(problem, seed, T, iters, tol):
        raise OracleError("feasibility 1e-3 > tol", OracleResult(np.zeros(3), 0.0, 1e-3))

    monkeypatch.setattr(ocolc.cli, "offline_value", fail)
    code = run_cli(*ORACLE_COMMANDS[command], "--out", str(tmp_path))
    assert code == 1
    assert "error: oracle failed: feasibility 1e-3 > tol" in capsys.readouterr().err


def test_run_over_corrupt_cache_recomputes(tmp_path, capsys):
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    assert run_cli(*DISPATCH_RUN, "--out", str(clean)) == 0
    assert run_cli(*DISPATCH_RUN, "--out", str(dirty)) == 0
    (entry,) = dirty.glob("oracle-*.json")
    entry.write_bytes(entry.read_bytes()[:40])  # truncated mid-file
    capsys.readouterr()
    assert run_cli(*DISPATCH_RUN, "--out", str(dirty)) == 0
    assert "warning: recomputing corrupt oracle cache entry" in capsys.readouterr().err
    assert (dirty / "summary.json").read_bytes() == (clean / "summary.json").read_bytes()
    assert entry.read_bytes() == next(clean.glob("oracle-*.json")).read_bytes()
    assert sorted(p.name for p in dirty.iterdir()) == sorted(p.name for p in clean.iterdir())


def test_oracle_over_corrupt_cache_recomputes(tmp_path, capsys):
    args = (*ORACLE_COMMANDS["oracle"], "--out", str(tmp_path))
    assert run_cli(*args) == 0
    (entry,) = tmp_path.glob("oracle-*.json")
    for corrupt in (b'{"key": {"T": 50, "iter', b'\xff\xfe', b'[1, 2]', b'{"value": 1.0}'):
        entry.write_bytes(corrupt)
        capsys.readouterr()
        assert run_cli(*args) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("solved")
        assert "warning: recomputing corrupt oracle cache entry" in captured.err
    assert run_cli(*args) == 0
    assert capsys.readouterr().out.startswith("cached")


# ------------------------------------------------------------ bad input

TOY_SWEEP = ("sweep", "--problem", "toy", "--algos", "ogd")
BAD_COUNTS = {
    "T-grid entry not an integer": (*TOY_SWEEP, "--T-grid", "50,x", "--seeds", "1"),
    "T-grid entry zero": (*TOY_SWEEP, "--T-grid", "0", "--seeds", "1"),
    "zero seeds": (*TOY_SWEEP, "--T-grid", "50", "--seeds", "0"),
    "negative seeds": (*TOY_SWEEP, "--T-grid", "50", "--seeds", "-2"),
    "zero jobs": (*TOY_SWEEP, "--T-grid", "50", "--seeds", "1", "--jobs", "0"),
    "oracle at T 0": ("oracle", "--problem", "toy", "--T", "0"),
    "run at T 0": ("run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "0"),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_bad_counts_are_usage_errors_before_any_oracle_call(tmp_path, capsys, monkeypatch, case):
    def fail(*args, **kwargs):
        raise AssertionError("oracle called on bad input")

    monkeypatch.setattr(ocolc.cli, "offline_value", fail)
    assert run_cli(*BAD_COUNTS[case], "--out", str(tmp_path)) == 2
    assert "usage error: --" in capsys.readouterr().err
    assert not list(tmp_path.glob("oracle-*.json"))


# ------------------------------------------------------ one metric reduction


def test_sweep_row_matches_run_summary(tmp_path):
    # sweep.csv's sum columns are the aggregated agg_* sums of summary.json,
    # to the last bit, for the same (algo, T, seed) cell
    from ocolc.cli import BASE_SWEEP_SEED, _fmt
    from ocolc.problems import derive_seed

    sweep_out, run_out = tmp_path / "sweep", tmp_path / "run"
    assert run_cli(
        "sweep", "--problem", "toy", "--algos", "clipped-ogd", "--T-grid", "150",
        "--seeds", "2", "--out", str(sweep_out),
    ) == 0
    seed = derive_seed(BASE_SWEEP_SEED, 1)
    assert run_cli(
        "run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "150",
        "--seed", str(seed), "--out", str(run_out),
    ) == 0
    header, *rows = (sweep_out / "sweep.csv").read_text().strip().splitlines()
    row = dict(zip(header.split(","), rows[1].split(",")))
    assert row["seed"] == str(seed)
    summary = json.loads((run_out / "summary.json").read_text())
    for column, key in (
        ("regret", "regret"),
        ("sum_g", "agg_sum_g"),
        ("sum_clip", "agg_sum_clip"),
        ("sum_clip_sq", "agg_sum_clip_sq"),
        ("max_step_violation", "max_step_violation"),
    ):
        assert row[column] == _fmt(summary[key]), column
