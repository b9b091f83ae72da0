"""The four benchmark workloads: inputs, the timed call, and output checks.

Each workload makes its inputs from the benchmark seed, runs one iteration
through ocolc's public entry points (``execute``, the timed part) and then
checks the outputs (``check``, untimed). The program receives only the
generated inputs and the seed-derived arguments.

Stored references cover 16 input sets, so ``--seed`` selects input set
``seed % 16`` for the workloads compared against references. The acceptance
suite needs no reference: its base seed is the benchmark seed itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace as Outcome
from typing import List, NamedTuple

import numpy as np

REFERENCE_SLOTS = 16
REL_TOL = 1e-9  # room for a changed reduction order, not for a changed result
ABS_TOL = 1e-12

# acceptance checks that are exact invariants, counted as operations;
# checks 3-7 are statistical fits on a seed-dependent grid
EXACT_CHECKS = (1, 2, 8, 9, 10, 11)

SIZES = {
    "sweep-toy": {
        "full": {"t_grid": "1250,2500,5000,10000", "seeds": 2},
        "smoke": {"t_grid": "40,80,160", "seeds": 1},
    },
    "run-dispatch": {
        "full": {"T": 2880, "oracle_iters": 20000},
        "smoke": {"T": 200, "oracle_iters": 2000},
    },
    "acceptance-quick": {
        "full": {"t_grid": (250, 500, 1000, 2000, 4000), "toy_seeds": 3, "ds_seeds": 2},
        "smoke": {"t_grid": (125, 250, 500, 1000), "toy_seeds": 1, "ds_seeds": 1},
    },
    "trace-ds": {
        "full": {"T": 20000},
        "smoke": {"T": 300},
    },
}


def matches(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class Checked(NamedTuple):
    """Result of the output checks of one iteration."""

    attempted: int
    failed: int
    checks_passed: int
    notes: List[str]


def _quiet_main(argv):
    """ocolc.cli.main with its progress lines kept off the benchmark stdout."""
    import ocolc.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return ocolc.cli.main(argv)


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, work: Path, refs: dict):
        self.seed = seed
        self.slot = seed % REFERENCE_SLOTS
        self.size = size
        self.params = SIZES[self.name][size]
        self.work = work
        self.refs = refs.get(self.name, {}).get(size, {}).get(str(self.slot))

    def prepare(self) -> None:
        """Write generated inputs under the work directory (untimed)."""

    def build(self):
        """What a user builds before the first step: the problem or suite."""
        raise NotImplementedError

    def execute(self, out: Path, probe) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> Checked:
        raise NotImplementedError

    def reference(self, outcome: Outcome) -> dict:
        """Values stored in references.json for this input set."""
        raise NotImplementedError


# ------------------------------------------------------------- sweep-toy


class SweepToy(Workload):
    """In-process ``ocolc sweep --problem toy`` over three algorithms."""

    name = "sweep-toy"
    ALGOS = "ogd,a-ogd,clipped-ogd"

    def build(self):
        from ocolc.problems import toy_problem

        return toy_problem()

    def execute(self, out, probe):
        rc = _quiet_main([
            "sweep", "--problem", "toy", "--algos", self.ALGOS,
            "--T-grid", self.params["t_grid"], "--seeds", str(self.params["seeds"]),
            "--seed", str(self.slot), "--jobs", "1", "--out", str(out),
        ])
        return Outcome(rc=rc, out=out)

    @staticmethod
    def _rows(outcome):
        path = outcome.out / "sweep.csv"
        if outcome.rc != 0 or not path.exists():
            return []
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        rows = []
        for line in lines:
            algo, T, seed, *nums = line.split(",")
            rows.append([algo, int(T), int(seed)] + [float(v) for v in nums])
        return rows

    def check(self, outcome):
        got = {tuple(r[:3]): r[3:] for r in self._rows(outcome)}
        expected = self.refs["rows"]
        failed, notes = 0, []
        for row in expected:
            key, want = tuple(row[:3]), row[3:]
            have = got.get(key)
            if have is None or len(have) != len(want) or not all(map(matches, have, want)):
                failed += 1
                notes.append(f"sweep row {key}: got {have}, expected {want}")
        attempted = len(expected)
        return Checked(attempted, failed, attempted - failed, notes)

    def reference(self, outcome):
        return {"rows": self._rows(outcome)}


# ----------------------------------------------------- single CLI runs


class _SingleRun(Workload):
    """``ocolc run`` into a fresh directory, then the trace read back.

    Three operations per iteration: the run (exit code and regret), the
    oracle (offline value), and the trace round-trip, which must reproduce
    the in-memory trace bit for bit and the sums in summary.json exactly.
    """

    def argv(self, out):
        raise NotImplementedError

    def execute(self, out, probe):
        import ocolc.cli

        rc = _quiet_main(self.argv(out))
        trace = probe.last_trace
        probe.last_trace = None
        path = out / "trace.csv"
        cols = ocolc.cli.load_trace_csv(str(path)) if rc == 0 and path.exists() else None
        return Outcome(rc=rc, out=out, trace=trace, cols=cols)

    def _summary(self, outcome):
        path = outcome.out / "summary.json"
        if outcome.rc != 0 or not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def check(self, outcome):
        summary = self._summary(outcome)
        notes = []
        if summary is None:
            notes.append(f"run exited {outcome.rc} without a summary")
            return Checked(3, 3, 0, notes)
        failed = 0
        for key in ("regret", "offline_value"):
            if not matches(summary[key], self.refs[key]):
                failed += 1
                notes.append(f"{key} {summary[key]!r} != reference {self.refs[key]!r}")
        problem = roundtrip_problem(outcome.trace, outcome.cols, summary)
        if problem:
            failed += 1
            notes.append(f"trace round-trip: {problem}")
        return Checked(3, failed, 3 - failed, notes)

    def reference(self, outcome):
        summary = self._summary(outcome)
        return {"regret": summary["regret"], "offline_value": summary["offline_value"]}


def roundtrip_problem(trace, cols, summary):
    """Why the read-back trace differs from the run, or None if it matches.

    Every column must equal the in-memory trace bitwise, and summary.json's
    sums recomputed from the read-back columns must match exactly.
    """
    if trace is None or cols is None:
        return "no trace to compare"
    gmax = trace.g.max(axis=1)
    expected = {
        "t": trace.t.astype(float),
        "fx": trace.fx,
        "g_max": gmax,
        "g_clip": np.maximum(gmax, 0.0),
        "lambda_norm": np.linalg.norm(trace.lam, axis=1),
        "x_norm": np.linalg.norm(trace.x, axis=1),
    }
    for i in range(trace.g.shape[1]):
        expected[f"g_{i + 1}"] = trace.g[:, i]
    if list(cols) != list(expected):
        return f"columns {list(cols)} != {list(expected)}"
    for name, want in expected.items():
        if not np.array_equal(cols[name], want):
            bad = int(np.flatnonzero(cols[name] != want)[0])
            return f"column {name} row {bad}: {cols[name][bad]!r} != {want[bad]!r}"
    fx = np.ascontiguousarray(cols["fx"])
    g_max = np.ascontiguousarray(cols["g_max"])
    clip = np.maximum(g_max, 0.0)
    recomputed = {
        "regret": float(fx.sum() - summary["offline_value"]),
        "agg_sum_g": float(g_max.sum()),
        "agg_sum_clip": float(clip.sum()),
        "agg_sum_clip_sq": float((clip * clip).sum()),
    }
    for key, value in recomputed.items():
        if value != summary[key]:
            return f"{key} from the read-back trace {value!r} != summary {summary[key]!r}"
    return None


class RunDispatch(_SingleRun):
    """``ocolc run --problem dispatch`` on a demand CSV made from the seed."""

    name = "run-dispatch"

    def prepare(self):
        write_demand_csv(self.demand_path, self.slot)

    @property
    def demand_path(self):
        return self.work / f"demand-{self.slot}.csv"

    def build(self):
        from ocolc.problems import DispatchParams, dispatch_problem, load_demand_csv

        return dispatch_problem(DispatchParams(demand=load_demand_csv(self.demand_path)))

    def argv(self, out):
        return [
            "run", "--problem", "dispatch", "--algo", "clipped-ogd",
            "--T", str(self.params["T"]), "--per-constraint-columns",
            "--demand-csv", str(self.demand_path), "--seed", str(self.slot),
            "--oracle-iters", str(self.params["oracle_iters"]), "--out", str(out),
        ]


def write_demand_csv(path: Path, slot: int) -> None:
    """Ten days of 5-minute demand: the shape of the built-in synthetic
    fixture (diurnal sinusoid around 46 MW, amplitude 9 MW), with the noise
    drawn from the input set. The shape is fixed so every input set asks the
    dispatch oracle for the same amount of work."""
    slots_per_day, days = 288, 10
    t = np.arange(days * slots_per_day)
    phase = 2.0 * np.pi * (t % slots_per_day) / slots_per_day
    rng = np.random.default_rng(np.random.SeedSequence((slot, 0xD15)))
    demand = 46.0 + 9.0 * np.sin(phase - 0.5 * np.pi) + 1.5 * rng.standard_normal(t.size)
    demand = np.maximum(demand, 5.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("slot,demand_mw\n")
        for i, d in enumerate(demand):
            fh.write(f"{i},{float(d)!r}\n")


class TraceDS(_SingleRun):
    """Strongly convex doubly-stochastic run with per-constraint duals and
    all 45 constraint columns written to the trace."""

    name = "trace-ds"

    def build(self):
        from ocolc.problems import doubly_stochastic_problem

        return doubly_stochastic_problem(d=5)

    def argv(self, out):
        return [
            "run", "--problem", "doubly-stochastic", "--d", "5", "--algo", "strong",
            "--aggregation", "per_constraint", "--T", str(self.params["T"]),
            "--per-constraint-columns", "--seed", str(self.slot), "--out", str(out),
        ]


# ------------------------------------------------------ acceptance-quick


class AcceptanceQuick(Workload):
    """The ``ocolc validate --quick`` suite with the benchmark seed as its
    base seed; a fresh suite each iteration, so its cell cache starts empty."""

    name = "acceptance-quick"

    def build(self):
        from ocolc.validation import AcceptanceSuite

        return AcceptanceSuite(base_seed=self.seed, **self.params)

    def execute(self, out, probe):
        from ocolc.validation import CheckResult

        # AcceptanceSuite.run_all, except that a check which raises counts
        # as a failed check instead of ending the benchmark
        suite = self.build()
        results = []
        for name in suite.CHECKS:
            try:
                results.append(getattr(suite, name)())
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
        return Outcome(results=results)

    def check(self, outcome):
        failed, notes = 0, []
        for number, result in enumerate(outcome.results, start=1):
            if not result.passed:
                notes.append(result.line())
                if number in EXACT_CHECKS:
                    failed += 1
        passed = sum(bool(r.passed) for r in outcome.results)
        return Checked(len(EXACT_CHECKS), failed, passed, notes)


WORKLOADS = {cls.name: cls for cls in (SweepToy, RunDispatch, AcceptanceQuick, TraceDS)}
