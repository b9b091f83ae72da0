"""Tests of the benchmark itself: smoke runs and negative controls.

    python3 -m pytest -q perfbench/tests

Smoke runs drive ``run.py`` at minimal size and check the result line. The
negative controls show that the output checks can fail: a tampered trace
file, a perturbed reference and a failing acceptance check must each be
counted as a failed operation, and a bad span must stop the traced run.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import ocolc.cli  # noqa: E402
from run import per_layer  # noqa: E402
from ocolc.validation import AcceptanceSuite, CheckResult  # noqa: E402
from tracing import Probe, Tracer, TraceError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFS = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=600)


def test_spec_lists_workloads_the_benchmark_has():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.01",
                 "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "sweep-toy", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def run_once(name, refs=REFS, seed=3, tmp=None):
    """One smoke-size iteration in this process, then its output checks."""
    wl = WORKLOADS[name](seed, "smoke", tmp, refs)
    wl.prepare()
    out = tmp / "iter"
    out.mkdir()
    probe = Probe()
    probe.install()
    try:
        outcome = wl.execute(out, probe)
    finally:
        probe.uninstall()
    return wl.check(outcome)


@pytest.mark.parametrize("name", ["sweep-toy", "run-dispatch", "trace-ds"])
def test_clean_outputs_pass(name, tmp_path):
    checked = run_once(name, tmp=tmp_path)
    assert checked.failed == 0, checked.notes
    assert checked.attempted >= 3


@pytest.mark.parametrize("name", ["run-dispatch", "trace-ds"])
def test_tampered_trace_file_is_a_failed_operation(name, tmp_path, monkeypatch):
    write = ocolc.cli.write_trace_csv

    def write_then_tamper(trace, path, **kwargs):
        write(trace, path, **kwargs)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        fields = lines[5].split(",")
        fields[-1] = repr(float(fields[-1]) + 1e-9)  # one field, past the 9th digit
        lines[5] = ",".join(fields)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    monkeypatch.setattr(ocolc.cli, "write_trace_csv", write_then_tamper)
    checked = run_once(name, tmp=tmp_path)
    assert checked.failed == 1
    assert any("round-trip" in note for note in checked.notes)


@pytest.mark.parametrize("name,key", [("run-dispatch", "regret"),
                                      ("trace-ds", "offline_value")])
def test_perturbed_reference_is_a_failed_operation(name, key, tmp_path):
    refs = copy.deepcopy(REFS)
    refs[name]["smoke"]["3"][key] *= 1.0 + 1e-6
    checked = run_once(name, refs=refs, tmp=tmp_path)
    assert checked.failed == 1
    assert any(key in note for note in checked.notes)


def test_perturbed_sweep_row_is_a_failed_operation(tmp_path):
    refs = copy.deepcopy(REFS)
    refs["sweep-toy"]["smoke"]["3"]["rows"][4][3] += 1e-6  # one regret
    checked = run_once("sweep-toy", refs=refs, tmp=tmp_path)
    assert checked.failed == 1
    assert checked.checks_passed == checked.attempted - 1


def test_acceptance_counts_only_exact_checks_as_failures(tmp_path, monkeypatch):
    def passing(number):
        return lambda self: CheckResult(str(number), True, "")

    for number, name in enumerate(AcceptanceSuite.CHECKS, start=1):
        monkeypatch.setattr(AcceptanceSuite, name, passing(number))

    def raises(self):
        raise ValueError("need at least 3 points")

    monkeypatch.setattr(AcceptanceSuite, "check_theorem1_scaling", raises)  # statistical
    monkeypatch.setattr(AcceptanceSuite, "check_degeneration",
                        lambda self: CheckResult("11", False, "diverged"))  # exact
    checked = run_once("acceptance-quick", tmp=tmp_path)
    assert checked.attempted == 6
    assert checked.failed == 1
    assert checked.checks_passed == 9


def test_tracer_rejects_a_child_outside_its_parent():
    tracer = Tracer()
    parent = tracer.open("parent")
    child = tracer.open("child")
    tracer.close(child)
    tracer.close(parent)
    tracer.verify()
    tracer.spans[child][2] = tracer.spans[parent][2] + 1.0
    with pytest.raises(TraceError, match="outside its parent"):
        tracer.verify()


def test_tracer_rejects_negative_self_time():
    tracer = Tracer()
    parent = tracer.open("parent")
    tracer.close(tracer.open("child"))
    tracer.close(parent)
    tracer.spans[parent][4] += 1.0  # children claim more time than the parent had
    with pytest.raises(TraceError, match="negative self time"):
        tracer.verify()


def test_entry_point_self_time_counts_as_unattributed():
    tracer = Tracer()
    root = tracer.open("bench.iteration")
    main = tracer.open("cli.main")
    call = tracer.open("cli.write_trace_csv")
    for idx in (call, main, root):
        tracer.close(idx)
    # a 10 s iteration: 2 s in the benchmark itself, 4 s in cli.main's own
    # code and 4 s in one layer call
    tracer.spans[root][1:] = [0.0, 10.0, -1, 8.0]
    tracer.spans[main][1:] = [1.0, 9.0, root, 4.0]
    tracer.spans[call][1:] = [3.0, 7.0, main, 0.0]
    tracer.verify()
    records = [{"traced": False, "wall_s": 10.0}, {"traced": True, "wall_s": 10.0}]
    values = per_layer(records, tracer)
    assert values["cli.main_self_s"][0] == pytest.approx(4.0)
    assert values["bench.unattributed_share"][0] == pytest.approx(0.6)


def test_tracer_restores_every_wrapped_name():
    import ocolc.oracle
    import ocolc.validation

    before = (ocolc.cli.run, ocolc.cli.main, ocolc.oracle.offline_solve,
              ocolc.validation.run, AcceptanceSuite.__dict__["check_oracle_crosscheck"])
    tracer = Tracer()
    tracer.install()
    assert ocolc.cli.run is not before[0]
    tracer.uninstall()
    after = (ocolc.cli.run, ocolc.cli.main, ocolc.oracle.offline_solve,
             ocolc.validation.run, AcceptanceSuite.__dict__["check_oracle_crosscheck"])
    assert after == before
