import json
import os
import subprocess
import sys
from pathlib import Path

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


def _trace_csv_per_field(trace, per_constraint):
    """The trace CSV as printed one field at a time with f"{x:.17g}"."""
    gmax = trace.g.max(axis=1)
    cols = {
        "t": trace.t.astype(float),
        "fx": trace.fx,
        "g_max": gmax,
        "g_clip": np.maximum(gmax, 0.0),
        "lambda_norm": np.linalg.norm(trace.lam, axis=1),
        "x_norm": np.linalg.norm(trace.x, axis=1),
    }
    if per_constraint:
        cols.update((f"g_{i + 1}", trace.g[:, i]) for i in range(trace.g.shape[1]))
    lines = [",".join(cols)]
    lines += [",".join(f"{col[r]:.17g}" for col in cols.values()) for r in range(trace.T)]
    return "".join(line + "\n" for line in lines).encode(), cols


@pytest.mark.parametrize("rows", [slice(None), slice(2, 3)], ids=["five-rows", "one-row"])
def test_trace_csv_prints_each_field_as_17g_and_reads_back_bitwise(tmp_path, rows):
    from ocolc import AlgoConfig
    from ocolc.algorithms import RunTrace
    from ocolc.cli import write_trace_csv

    tiny = 5e-324  # the smallest subnormal
    g = np.array([
        [-0.0, 1.5, -2.0],
        [np.inf, tiny, -tiny],
        [np.nan, 0.1, -np.inf],
        [1e308, -1e-310, 2.0 / 3.0],
        [-1e-300, -0.0, 0.0],
    ])[rows]
    T = len(g)
    trace = RunTrace(
        problem="toy", variant="clipped-ogd", seed=0, config=AlgoConfig("clipped-ogd", T=T),
        x=np.array([[-0.0, tiny], [3.0, -4.0], [np.inf, 1.0], [np.nan, 0.0], [1e-320, -0.0]])[rows],
        fx=np.array([-0.0, np.inf, np.nan, tiny, -np.inf])[rows],
        g=g, g_agg=g.max(axis=1, keepdims=True),
        lam=np.array([[0.0], [tiny], [1e150], [np.nan], [-0.0]])[rows],
        eta=None, sigma=None,
    )
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path, per_constraint=True)
    want, cols = _trace_csv_per_field(trace, per_constraint=True)
    assert path.read_bytes() == want
    got = load_trace_csv(path)
    assert list(got) == list(cols)
    for name, col in cols.items():
        assert np.ascontiguousarray(got[name]).tobytes() == col.tobytes(), name


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("# comment\nproblem=toy\nalgo=clipped-ogd\nT=60\nseed=3\n")
    out = tmp_path / "o"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["T"] == 60
    # explicit flag wins over the file
    assert run_cli("run", "--config", str(cfg), "--T", "30", "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["T"] == 30


@pytest.mark.parametrize("raw, columns", [("TRUE", True), ("yes", True), ("No", False), ("0", False)])
def test_config_file_booleans(tmp_path, raw, columns):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"per-constraint-columns={raw}\n")
    out = tmp_path / "o"
    assert run_cli("run", "--problem", "dispatch", "--algo", "clipped-ogd", "--T", "20",
                   "--config", str(cfg), "--out", str(out)) == 0
    assert ("g_1" in load_trace_csv(out / "trace.csv")) == columns


def test_config_file_bad_boolean_is_a_usage_error(tmp_path, capsys):
    # a misspelt true must not pass for false: the run would drop the g_i columns
    cfg = tmp_path / "c.txt"
    cfg.write_text("per-constraint-columns=ture\n")
    out = tmp_path / "o"
    assert run_cli("run", "--problem", "dispatch", "--algo", "clipped-ogd", "--T", "20",
                   "--config", str(cfg), "--out", str(out)) == 2
    assert "usage error: --per-constraint-columns" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("run", "bta"),  # a misspelt beta must not run at the default beta
    ("run", "T-grid"),  # a sweep setting
    ("sweep", "T"),  # a run setting
    # keys are matched exactly: an underscore is not a hyphen
    ("run", "demand_rescale"),
    ("run", "per_constraint_columns"),
    ("sweep", "T_grid"),
    # options that are no settings
    ("run", "help"),
    ("run", "config"),
])
def test_config_file_unknown_key_is_a_usage_error(tmp_path, capsys, command, key):
    cfg = tmp_path / "c.txt"
    cfg.write_text(f"problem=toy\n{key}=0.7\n")
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert f"usage error: --config: unknown setting {key!r} for 'ocolc {command}'" in capsys.readouterr().err
    assert not out.exists()


# the setting as a config entry -> the argv it is added to
ONE_PATH = {
    "T=ten": ("run", "--problem", "toy", "--algo", "clipped-ogd"),
    "T=0": ("run", "--problem", "toy", "--algo", "clipped-ogd"),
    "seed=-1": ("run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "10"),
    "beta=1.5": ("run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "10"),
    "aggregation=logsumexp": ("run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "10"),
    "T-grid=5,5": ("sweep", "--problem", "toy", "--algos", "ogd", "--seeds", "1"),
    "demand-rescale=0": ("oracle", "--problem", "dispatch", "--T", "10"),
    "oracle-tol=0": ("oracle", "--problem", "toy", "--T", "10"),
}


@pytest.mark.parametrize("entry", sorted(ONE_PATH))
def test_a_config_entry_and_its_flag_are_one_path(tmp_path, capsys, entry):
    # a config entry is parsed as its flag: the same one-line usage error
    key, _, value = entry.partition("=")
    (tmp_path / "c.cfg").write_text(entry + "\n")
    argv = ONE_PATH[entry]
    assert run_cli(*argv, "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path)) == 2
    from_file = capsys.readouterr().err
    assert run_cli(*argv, f"--{key}", value, "--out", str(tmp_path)) == 2
    from_flag = capsys.readouterr().err
    assert from_file == from_flag
    assert from_file.startswith(f"usage error: --{key}: ") and from_file.count("\n") == 1


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


SWEEP_TOY = ("sweep", "--problem", "toy", "--T-grid", "200,50,100", "--seeds", "2")


@pytest.mark.parametrize("jobs", [1, 2, 3], ids=lambda j: f"jobs{j}")
@pytest.mark.parametrize("algos", ["clipped-ogd,ogd,a-ogd", "ogd"], ids=["three-algos", "one-algo"])
def test_sweep_parallel_matches_serial(tmp_path, algos, jobs):
    # the reference computes each algorithm in its own serial sweep; its
    # rows, sorted by algorithm, are the rows of the mixed sweep
    want = {"sweep.csv": "", "sweep_stats.csv": ""}
    for algo in sorted(algos.split(",")):
        out = tmp_path / algo
        assert run_cli(*SWEEP_TOY, "--algos", algo, "--out", str(out)) == 0
        for name in want:
            header, *rows = (out / name).read_text().splitlines(keepends=True)
            want[name] = (want[name] or header) + "".join(rows)
    out = tmp_path / "mixed"
    assert run_cli(*SWEEP_TOY, "--algos", algos, "--jobs", str(jobs), "--out", str(out)) == 0
    for name, text in want.items():
        assert (out / name).read_text() == text, name


@pytest.mark.parametrize(
    "algos, first, second",
    [("ogd,mahdavi-ogd", "ogd", "mahdavi-ogd"), ("a-ogd,clipped-ogd,a-ogd", "a-ogd", "a-ogd")],
    ids=["alias", "same-name"],
)
def test_sweep_naming_one_algorithm_twice_is_a_usage_error(tmp_path, capsys, monkeypatch, algos, first, second):
    # ogd is mahdavi-ogd: each cell would be written, and counted in the
    # stats, once under each name
    def fail(*args, **kwargs):
        raise AssertionError("oracle called on bad input")

    monkeypatch.setattr(ocolc.cli, "offline_value", fail)
    assert run_cli(*SWEEP_TOY, "--algos", algos, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "usage error: --algos" in err and f"{first!r} and {second!r}" in err
    assert not list(tmp_path.iterdir())


def test_sweep_workers_never_exceed_the_cpu_count(tmp_path, monkeypatch):
    # SWEEP_TOY with three algorithms has 18 cells; on a 2-CPU host --jobs 64
    # gets 2 workers, and one cell or one CPU runs serially. The pool is a
    # stand-in that maps in this process, so no test starts a process
    import concurrent.futures

    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    three = (*SWEEP_TOY, "--algos", "clipped-ogd,ogd,a-ogd")
    one_cell = ("sweep", "--problem", "toy", "--T-grid", "50", "--seeds", "1", "--algos", "ogd")
    cases = [(three, 64, 2, [2]), (three, 2, 2, [2]), (three, 64, None, []), (one_cell, 64, 2, [])]
    for case, (argv, jobs, cpus, want) in enumerate(cases):
        pools.clear()
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert run_cli(*argv, "--jobs", str(jobs), "--out", str(tmp_path / str(case))) == 0
        assert pools == want, (argv, jobs, cpus)
    # the pool's rows and the serial rows
    assert (tmp_path / "0" / "sweep.csv").read_bytes() == (tmp_path / "2" / "sweep.csv").read_bytes()


def test_serial_sweep_is_one_kernel_call(tmp_path, monkeypatch):
    import ocolc.algorithms

    calls = []
    exact = ocolc.algorithms.advance

    def counted(problem, cfgs, seeds, **kw):
        calls.append(len(cfgs))
        return exact(problem, cfgs, seeds, **kw)

    monkeypatch.setattr(ocolc.algorithms, "advance", counted)
    assert run_cli(*SWEEP_TOY, "--algos", "clipped-ogd,ogd,a-ogd", "--out", str(tmp_path)) == 0
    assert calls == [18]


def test_importing_the_cli_leaves_multiprocessing_out():
    # the process pool is imported only for a sweep with --jobs > 1
    code = "import sys, ocolc.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    src = str(Path(ocolc.cli.__file__).resolve().parents[1])  # the ocolc under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_oracle_caches(tmp_path, capsys):
    out = tmp_path / "o"
    args = ("oracle", "--problem", "toy", "--seed", "4", "--T", "150", "--out", str(out))
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert first.startswith("solved")
    assert run_cli(*args) == 0
    assert capsys.readouterr().out.startswith("cached")


def test_dispatch_oracle_is_cached_across_seeds(tmp_path, capsys):
    # the dispatch stream ignores the seed: a second seed reads the first
    # seed's entry back, and the entry names its solver
    out = tmp_path / "o"
    for seed, tag in (("1", "solved"), ("2", "cached")):
        assert run_cli("oracle", "--problem", "dispatch", "--T", "60", "--seed", seed, "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(f"{tag}: dispatch seed={seed} T=60")
        assert printed.rstrip().endswith("solver=structural")
    (entry,) = out.glob("oracle-*.json")
    assert json.loads(entry.read_text())["solver"] == "structural"


@pytest.mark.parametrize("problem, first, second", [
    (("toy",), ("--oracle-iters", "5"), ("--oracle-iters", "6")),
    (("doubly-stochastic", "--d", "3"), ("--oracle-tol", "1e-3"), ()),
], ids=["toy", "doubly-stochastic"])
def test_exact_oracles_are_cached_across_penalty_settings(tmp_path, capsys, problem, first, second):
    # toy and doubly-stochastic answers are exact: the penalty settings
    # change nothing, so a second setting reads the first one's entry
    out = tmp_path / "o"
    for flags, tag in ((first, "solved"), (second, "cached")):
        argv = ("oracle", "--problem", *problem, "--T", "50", "--seed", "2", *flags, "--out", str(out))
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.startswith(f"{tag}: {problem[0]} seed=2 T=50")
    assert len(list(out.glob("oracle-*.json"))) == 1


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
    demand = write_demand(tmp_path / "d.csv")
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


def value_not_a_number(raw):
    """A cache entry with the right key whose value is a string."""
    return json.dumps(dict(json.loads(raw), value="abc")).encode()


def test_run_over_corrupt_cache_recomputes(tmp_path, capsys):
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    assert run_cli(*DISPATCH_RUN, "--out", str(clean)) == 0
    assert run_cli(*DISPATCH_RUN, "--out", str(dirty)) == 0
    (entry,) = dirty.glob("oracle-*.json")
    valid = entry.read_bytes()
    for corrupt in (valid[:40], value_not_a_number(valid)):  # truncated mid-file; a string value
        entry.write_bytes(corrupt)
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
    valid = entry.read_bytes()
    no_residual = json.dumps({k: v for k, v in json.loads(valid).items() if k != "residual"}).encode()
    for corrupt in (b'{"key": {"T": 50, "iter', b'\xff\xfe', b'[1, 2]', b'{"value": 1.0}',
                    no_residual, value_not_a_number(valid)):
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
TOY_RUN = ("run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "10")
# case -> (what the usage error names, from its flag on, argv); {tmp} is the
# test's directory
BAD_COUNTS = {
    "T-grid entry not an integer": ("T-grid", (*TOY_SWEEP, "--T-grid", "50,x", "--seeds", "1")),
    "T-grid entry zero": ("T-grid", (*TOY_SWEEP, "--T-grid", "0", "--seeds", "1")),
    "T-grid horizon repeated": ("T-grid", (*TOY_SWEEP, "--T-grid", "100,50,100", "--seeds", "2")),
    "zero seeds": ("seeds", (*TOY_SWEEP, "--T-grid", "50", "--seeds", "0")),
    "negative seeds": ("seeds", (*TOY_SWEEP, "--T-grid", "50", "--seeds", "-2")),
    "zero jobs": ("jobs", (*TOY_SWEEP, "--T-grid", "50", "--seeds", "1", "--jobs", "0")),
    "oracle at T 0": ("T", ("oracle", "--problem", "toy", "--T", "0")),
    "run at T 0": ("T", ("run", "--problem", "toy", "--algo", "clipped-ogd", "--T", "0")),
    "doubly-stochastic at d 0": (
        "d", ("run", "--problem", "doubly-stochastic", "--d", "0", "--algo", "clipped-ogd", "--T", "10"),
    ),
    "run at seed -1": ("seed", (*TOY_RUN, "--seed", "-1")),
    "oracle at seed -1": ("seed", ("oracle", "--problem", "toy", "--T", "10", "--seed", "-1")),
    "sweep at base seed -1": ("seed", (*TOY_SWEEP, "--T-grid", "50", "--seeds", "1", "--seed", "-1")),
    "beta above 1": ("beta", (*TOY_RUN, "--beta", "1.5")),
    "unknown algorithm": ("algo", ("run", "--problem", "toy", "--algo", "nope", "--T", "10")),
    "unknown algorithm in a sweep": (
        "algos", ("sweep", "--problem", "toy", "--algos", "ogd,nope", "--T-grid", "50", "--seeds", "1"),
    ),
    # a config whose Schedule the problem rejects, before the sweep's oracle
    "strong on a problem that is not strongly convex": (
        "algo", ("run", "--problem", "toy", "--algo", "strong", "--T", "5"),
    ),
    "strong with an eta": (
        "algo", ("run", "--problem", "doubly-stochastic", "--algo", "strong", "--T", "3", "--eta", "0.1"),
    ),
    "strong in a sweep on a problem that is not strongly convex": (
        "algos", ("sweep", "--problem", "toy", "--algos", "clipped-ogd,strong", "--T-grid", "5,10", "--seeds", "2"),
    ),
    # the Lagrangian follows from the variant: it is no setting
    "lagrangian in a config file": (
        "config: unknown setting 'lagrangian' for 'ocolc run'",
        ("run", "--problem", "toy", "--algo", "ogd", "--T", "50", "--config", "{tmp}/lag.cfg"),
    ),
    "lagrangian flag": (
        "lagrangian plain: unrecognized arguments for 'ocolc run'",
        (*TOY_RUN, "--lagrangian", "plain"),
    ),
    "logsumexp a-ogd in a config file": (
        "aggregation",
        ("run", "--problem", "toy", "--algo", "a-ogd", "--T", "50", "--config", "{tmp}/lse.cfg"),
    ),
    "per-constraint a-ogd in a sweep": (
        "aggregation",
        (*TOY_SWEEP, "--T-grid", "50", "--seeds", "1", "--algos", "a-ogd", "--aggregation", "per_constraint"),
    ),
    "config T not an integer": (
        "T", ("run", "--problem", "toy", "--algo", "clipped-ogd", "--config", "{tmp}/bad.cfg"),
    ),
    "demand CSV not numeric": (
        "demand-csv", ("oracle", "--problem", "dispatch", "--T", "10", "--demand-csv", "{tmp}/bad.csv"),
    ),
    "demand CSV with a nan": (
        "demand-csv", ("run", "--problem", "dispatch", "--algo", "clipped-ogd", "--T", "10",
                       "--demand-csv", "{tmp}/nan.csv"),
    ),
    "demand CSV with an inf": (
        "demand-csv", ("oracle", "--problem", "dispatch", "--T", "10", "--demand-csv", "{tmp}/inf.csv"),
    ),
    "zero demand rescale": (
        "demand-rescale", ("oracle", "--problem", "dispatch", "--T", "10", "--demand-rescale", "0"),
    ),
    "infinite demand rescale": (
        "demand-rescale", ("oracle", "--problem", "dispatch", "--T", "10", "--demand-rescale", "inf"),
    ),
    "negative eta": ("eta", (*TOY_RUN, "--eta", "-1", "--sigma", "-1")),
    "zero eta": ("eta", (*TOY_RUN, "--eta", "0")),
    "zero sigma": ("sigma", (*TOY_RUN, "--sigma", "0")),
    "infinite sigma in a sweep": ("sigma", (*TOY_SWEEP, "--T-grid", "50", "--seeds", "1", "--sigma", "inf")),
    "missing demand CSV": (
        "demand-csv", ("run", "--problem", "dispatch", "--algo", "clipped-ogd", "--T", "10",
                       "--demand-csv", "{tmp}/nope.csv"),
    ),
    "missing config file": ("config", (*TOY_RUN, "--config", "{tmp}/nope.cfg")),
    "dispatch sweep over seeds": (
        "seeds", ("sweep", "--problem", "dispatch", "--algos", "ogd", "--T-grid", "50", "--seeds", "3"),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_bad_counts_are_usage_errors_before_any_oracle_call(tmp_path, capsys, monkeypatch, case):
    def fail(*args, **kwargs):
        raise AssertionError("oracle called on bad input")

    monkeypatch.setattr(ocolc.cli, "offline_value", fail)
    (tmp_path / "bad.cfg").write_text("T=ten\n")
    (tmp_path / "lse.cfg").write_text("aggregation=logsumexp\n")
    (tmp_path / "lag.cfg").write_text("lagrangian = clipped\n")
    (tmp_path / "bad.csv").write_text("t,demand\n0,30\n1,x\n")
    (tmp_path / "nan.csv").write_text("t,demand\n0,30\n1,31\n2,nan\n")
    (tmp_path / "inf.csv").write_text("t,demand\n0,30\n1,31\n2,inf\n")
    key, argv = BAD_COUNTS[case]
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv), "--out", str(tmp_path)) == 2
    assert f"usage error: --{key}" in capsys.readouterr().err
    assert not list(tmp_path.glob("oracle-*.json"))


def test_logsumexp_is_no_aggregation(tmp_path, capsys):
    # logsumexp was removed: the flag and a leftover config entry both exit 2
    from ocolc.algorithms import AGGREGATIONS

    assert run_cli(*TOY_RUN, "--aggregation", "logsumexp", "--out", str(tmp_path)) == 2
    assert "--aggregation: invalid choice: 'logsumexp'" in capsys.readouterr().err
    (tmp_path / "lse.cfg").write_text("aggregation = logsumexp\n")
    assert run_cli(*TOY_RUN, "--config", str(tmp_path / "lse.cfg"), "--out", str(tmp_path)) == 2
    assert "usage error: --aggregation: invalid choice: 'logsumexp'" in capsys.readouterr().err
    assert not list(tmp_path.glob("oracle-*.json"))
    commands = next(a for a in ocolc.cli.build_parser()._actions if a.dest == "command").choices
    for command in ("run", "sweep"):
        (flag,) = [a for a in commands[command]._actions if a.dest == "aggregation"]
        assert tuple(flag.choices) == AGGREGATIONS


@pytest.mark.parametrize("flag, value", [
    ("--aggregation", "logsumexp"), ("--lagrangian", "plain"), ("--T", "ten"), ("--problem", "nope"),
])
def test_parser_errors_are_one_line_usage_errors(tmp_path, capsys, flag, value):
    # a value the parser rejects gets the form a config file's value gets:
    # one line naming the flag, with no usage block
    args = ["run", "--problem", "toy", "--algo", "ogd", "--T", "10", "--out", str(tmp_path)]
    assert run_cli(*args, flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag}") and err.count("\n") == 1
    assert "usage:" not in err
    assert run_cli(*args, "--help") == 0


def test_value_error_in_a_run_still_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("bad step")

    monkeypatch.setattr(ocolc.cli, "run", fail)
    assert run_cli(*TOY_RUN, "--out", str(tmp_path)) == 1
    assert "error: bad step" in capsys.readouterr().err


def test_overflowing_run_fails_in_one_line(tmp_path, capsys):
    # the step's finiteness test reports the overflow; numpy warns of nothing
    argv = ("run", "--problem", "dispatch", "--algo", "clipped-ogd", "--T", "10", "--eta", "1e307")
    assert run_cli(*argv, "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: run aborted at step 1: non-finite step\n"


def test_sweep_whose_norm_overflows_warns_of_nothing(tmp_path, capsys):
    argv = ("sweep", "--problem", "toy", "--algos", "clipped-ogd", "--T-grid", "10", "--seeds", "1",
            "--eta", "1e308")
    assert run_cli(*argv, "--out", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""


# ------------------------------------------------------- problem building


def write_demand(path):
    path.write_text("t,demand\n" + "\n".join(f"{i},{30 + i % 5}" for i in range(40)) + "\n")
    return path


@pytest.mark.parametrize("command", ["run", "oracle", "sweep"])
def test_demand_csv_is_read_once(tmp_path, monkeypatch, command):
    reads = []
    load = ocolc.cli.load_demand_csv
    monkeypatch.setattr(ocolc.cli, "load_demand_csv", lambda path: reads.append(path) or load(path))
    argv = {
        "run": DISPATCH_RUN,
        "oracle": ORACLE_COMMANDS["oracle"],
        "sweep": ORACLE_COMMANDS["sweep"][:4] + ("ogd,clipped-ogd",) + ORACLE_COMMANDS["sweep"][5:],
    }[command]
    demand = write_demand(tmp_path / "d.csv")
    assert run_cli(*argv, "--demand-csv", str(demand), "--out", str(tmp_path / "o")) == 0
    assert reads == [str(demand)]


# case -> (the cache entry's name, argv): toy and doubly-stochastic names as
# keyed by identity, seed and T, with no penalty settings, which their exact
# solvers never read (before, with iters and tol: c37ed1214ba3e6c418026104
# and 36fed091a81dfa978f012313); dispatch names as keyed by the exact solver,
# with no seed or penalty settings, so no penalty answer is read back as an
# exact one
CACHE_NAMES = {
    "toy": (
        "oracle-0489440bb6cb2932a246e335.json",
        ("oracle", "--problem", "toy", "--T", "20", "--seed", "3"),
    ),
    "doubly-stochastic": (
        "oracle-8941f617f33089bab88acf0a.json",
        ("oracle", "--problem", "doubly-stochastic", "--d", "3", "--T", "20"),
    ),
    "dispatch": (
        "oracle-9afbd55de062b6e2b044ac94.json",
        ("oracle", "--problem", "dispatch", "--T", "20", "--oracle-iters", "200"),
    ),
    "dispatch CSV": (
        "oracle-392f4c657686cacb122a901f.json",
        ("oracle", "--problem", "dispatch", "--T", "20", "--oracle-iters", "200",
         "--demand-csv", "{tmp}/d.csv", "--demand-rescale", "0.5"),
    ),
}


@pytest.mark.parametrize("case", sorted(CACHE_NAMES))
def test_oracle_cache_names_are_unchanged(tmp_path, case):
    write_demand(tmp_path / "d.csv")
    name, argv = CACHE_NAMES[case]
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv), "--out", str(tmp_path / "o")) == 0
    (entry,) = (tmp_path / "o").glob("oracle-*.json")
    assert entry.name == name


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
