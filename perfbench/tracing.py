"""Spans and counters recorded around the calls into each ocolc layer.

The benchmark replaces public names at the attribute each caller looks up
(``ocolc.cli.run``, ``ocolc.validation.offline_solve``, ...) with wrappers.
Every wrapped call records a span: name, start, end and the index of the
enclosing span. Spans stay in memory and are written out when the run ends.

Tracing lives in the benchmark's own files, so it sees only calls that cross
a module boundary. ``core`` and ``aggregation`` run inside a step and are
counted in the ``algorithms.run`` self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# a child's end may exceed its parent's by float rounding of the clock only
_CLOCK_SLACK = 1e-9

# short problem names in per-combination metric names, which are limited
# to 64 characters
COMBO_PROBLEM_NAMES = {"doubly-stochastic": "ds"}


class TraceError(RuntimeError):
    """A recorded span is inconsistent: negative self time or a child
    outside its parent."""


class Patcher:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Probe:
    """Always-on, per-run instrumentation: counts algorithm runs and steps
    and keeps the last trace the CLI ran, for the round-trip check.

    It wraps one call per run, never a per-step call, so it costs nothing
    measurable and is installed with tracing off too.
    """

    def __init__(self):
        self.runs = 0
        self.steps = 0
        self.last_trace = None
        self._patcher = Patcher()

    def install(self):
        import ocolc.cli
        import ocolc.validation

        for module, keep in ((ocolc.cli, True), (ocolc.validation, False)):
            self._patcher.set(module, "run", self._counting(module.run, keep))

    def uninstall(self):
        self._patcher.undo()

    def _counting(self, fn, keep_trace):
        @functools.wraps(fn)
        def wrapper(problem, cfg, seed):
            trace = fn(problem, cfg, seed)
            self.runs += 1
            self.steps += cfg.T
            if keep_trace:
                self.last_trace = trace
            return trace

        return wrapper


class Tracer:
    """Span recorder plus the counters measured at the same boundaries.

    A span is ``[name, start, end, parent, child_time]``; ``child_time`` is
    the summed duration of its direct children, which run one after another
    in this single-threaded program, so self time is duration minus it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = defaultdict(float)
        self.per_combo = defaultdict(lambda: [0.0, 0])  # key -> [self s, steps]
        self._patcher = Patcher()
        self._run_depth = 0

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise TraceError(f"span {span[0]} closed out of order")
        duration = span[2] - span[1]
        if span[3] >= 0:
            self.spans[span[3]][4] += duration
        return duration

    def self_time(self, idx: int) -> float:
        name, start, end, _, child_time = self.spans[idx]
        return (end - start) - child_time

    def verify(self) -> None:
        """Fail loudly on a span with negative self time or one that lies
        outside its parent."""
        if self._stack:
            raise TraceError(f"{len(self._stack)} spans still open")
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None or end < start:
                raise TraceError(f"span {idx} {name}: end {end} before start {start}")
            if self.self_time(idx) < -_CLOCK_SLACK:
                raise TraceError(f"span {idx} {name}: negative self time {self.self_time(idx)}")
            if parent >= 0:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                if start < p_start - _CLOCK_SLACK or end > p_end + _CLOCK_SLACK:
                    raise TraceError(
                        f"span {idx} {name} [{start}, {end}] outside its parent "
                        f"{self.spans[parent][0]} [{p_start}, {p_end}]"
                    )

    def wrap(self, fn, name, after=None, on_error=None):
        """Wrap ``fn`` so each call records a span; ``after(idx, result,
        args, kwargs)`` runs once the span is closed, ``on_error(exc)`` on a
        raise."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            self.close(idx)
            if after is not None:
                after(idx, result, args, kwargs)
            return result

        return wrapper

    def _span_at(self, owner, attr, name, after=None, on_error=None):
        self._patcher.set(owner, attr, self.wrap(getattr(owner, attr), name, after, on_error))

    def _count(self, key, amount=1.0):
        self.counts[key] += amount

    # ------------------------------------------------ layer boundaries

    def install(self):
        """Wrap every layer entry point the workloads reach."""
        import ocolc.algorithms
        import ocolc.cli
        import ocolc.oracle
        import ocolc.validation
        from ocolc.oracle import OracleError

        cli, val, orc = ocolc.cli, ocolc.validation, ocolc.oracle

        # problems: constructors, then the callables of each built spec
        for module in (cli, val):
            for ctor in ("toy_problem", "doubly_stochastic_problem", "dispatch_problem"):
                self._span_at(module, ctor, "problems.build",
                              after=lambda idx, spec, args, kw: self._instrument_spec(spec))

        # algorithms
        def after_run(idx, trace, args, kwargs):
            problem, cfg = args[0], args[1]
            self._count("algorithms.runs")
            self._count("algorithms.steps", cfg.T)
            self_s = self.self_time(idx)
            self._count("algorithms.step_self_s", self_s)
            key = COMBO_PROBLEM_NAMES.get(problem.name, problem.name)
            combo = self.per_combo[f"{key}.{cfg.variant}.{cfg.aggregation}"]
            combo[0] += self_s
            combo[1] += cfg.T
            if getattr(problem.constraint_values, "_perfbench_counted", False):
                self._count("problems.counted_steps", cfg.T)

        def run_error(exc):
            if isinstance(exc, ocolc.algorithms.RunError):
                self._count("algorithms.run_errors")

        for module in (cli, val):
            self._patcher.set(module, "run", self._run_span(module.run, after_run, run_error))
        self._span_at(val, "projected_ogd_run", "algorithms.projected_ogd_run")

        # oracle
        def oracle_error(exc):
            if isinstance(exc, OracleError):
                self._count("oracle.errors")

        def after_value(idx, res, args, kwargs):
            self._count("oracle.offline_value_calls")
            if res.info.get("solver") == "structural":
                self._count("oracle.structural_calls")

        def after_solve(idx, res, args, kwargs):
            self._count("oracle.penalty_calls")
            self._count("oracle.penalty_iters", res.info["iters"] * res.info["ramps"])

        for module in (cli, val):
            self._span_at(module, "offline_value", "oracle.offline_value", after_value, oracle_error)
        for module in (orc, val):
            self._span_at(module, "offline_solve", "oracle.offline_solve", after_solve, oracle_error)
            self._span_at(module, "project_birkhoff", "oracle.project_birkhoff",
                          lambda idx, res, args, kw: self._count("oracle.project_birkhoff_calls"))
        self._span_at(val, "grid_oracle", "oracle.grid_oracle")

        # metrics
        self._span_at(cli, "summarize", "metrics.summarize")
        self._span_at(val, "fit_slope", "metrics.fit_slope")

        # validation: one span per acceptance check, plus runs the suite made
        for number, check in enumerate(val.AcceptanceSuite.CHECKS, start=1):
            self._span_at(val.AcceptanceSuite, check, f"validation.check.{number:02d}")
        self._patcher.set(val, "run", self._counted(val.run, "validation.cell_runs"))

        # cli
        def after_write(idx, res, args, kwargs):
            trace = args[0]
            per_constraint = kwargs.get("per_constraint", args[2] if len(args) > 2 else False)
            columns = 6 + (trace.g.shape[1] if per_constraint else 0)
            self._count("cli.trace_fields", trace.T * columns)

        def after_load(idx, cols, args, kwargs):
            self._count("cli.fields_read", sum(len(v) for v in cols.values()))

        def after_cache(idx, res, args, kwargs):
            self._count("cli.oracle_cache_hits" if res[1] else "cli.oracle_cache_misses")

        self._span_at(cli, "main", "cli.main")
        self._span_at(cli, "build_problem", "cli.build_problem")
        self._span_at(cli, "load_demand_csv", "cli.load_demand_csv")
        self._span_at(cli, "cached_offline_value", "cli.cached_offline_value", after_cache)
        self._span_at(cli, "_sweep_cell", "cli.sweep_cell",
                      lambda idx, res, args, kw: self._count("cli.sweep_cells"))
        self._span_at(cli, "write_trace_csv", "cli.write_trace_csv", after_write)
        self._span_at(cli, "load_trace_csv", "cli.load_trace_csv", after_load)

    def uninstall(self):
        self._patcher.undo()

    def _run_span(self, fn, after, on_error):
        inner = self.wrap(fn, "algorithms.run", after, on_error)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._run_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._run_depth -= 1

        return wrapper

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _instrument_spec(self, spec):
        """Wrap the loss-stream and constraint callables of a built problem."""
        spec.losses = self.wrap(
            spec.losses, "problems.losses",
            lambda idx, fns, args, kw: self._count("problems.losses_built", len(fns)),
        )
        spec.mean_loss = self.wrap(spec.mean_loss, "problems.mean_loss")
        values = spec.constraint_values

        def counted_values(x):
            if self._run_depth:
                self.counts["problems.constraint_evals_in_runs"] += 1
            return values(x)

        counted_values._perfbench_counted = True
        spec.constraint_values = counted_values

    # ----------------------------------------------------------- summary

    def inclusive(self):
        """Seconds inside spans of each name, children included."""
        totals = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return totals
