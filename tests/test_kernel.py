"""The batched kernel and the array form of the problems.

Property tests: each built-in problem's array form equals hand-written
per-point closures bit for bit (the loss and constraint closures below, in
``reference.ClosureArrays``), and
a B-row kernel call equals B one-row run() calls bit for bit. The golden
digests pin run() itself to the earlier per-step code.
"""

import dataclasses
import functools
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ocolc.algorithms import (
    VARIANTS, AlgoConfig, Batch, RunError, _aggregate, _lagrangian_grad, advance, clipped_dual, run,
)
from ocolc.core import ConvexFn
from ocolc.problems import (
    dispatch_problem,
    doubly_stochastic_problem,
    permutation_batch,
    toy_costs,
    toy_problem,
)

from conftest import make_problem
from golden_cases import inline_problem
from reference import ClosureArrays, lagrangian_grad_x, max_aggregate, reference_run


@functools.lru_cache(maxsize=None)
def problem(name):
    if name.startswith("ds"):
        return doubly_stochastic_problem(d=int(name[2:]))
    return {"toy": toy_problem, "dispatch": dispatch_problem, "inline": inline_problem}[name]()


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# ------------------------------------------------ per-point reference losses
# The built-in per-step losses as the closures they were written as before
# ArrayForm.loss became their only definition. Their parameters come from the
# stream functions, never from an array form.


def toy_loss(c):
    return ConvexFn(lambda x: float(c @ x), lambda x: c)


def ds_loss(d, pos):
    y = np.zeros(d * d)
    y[pos] = 1.0
    return ConvexFn(lambda x: float(0.5 * np.sum((y - x) ** 2)), lambda x: x - y)


def dispatch_loss(p, d_t):
    def ev(x):
        s = x.sum()
        return float(0.5 * p.a @ (x * x) + p.b @ x + p.xi * (s - d_t) ** 2)

    def sg(x):
        return p.a * x + p.b + 2.0 * p.xi * (x.sum() - d_t)

    return ConvexFn(ev, sg)


def reference_losses(problem):
    """(seed, T) -> the T per-point loss closures of a built-in problem."""
    if problem.name == "toy":
        return lambda s, T: [toy_loss(c) for c in toy_costs(s, T)]
    if problem.name == "doubly-stochastic":
        d = problem.meta["d"]
        return lambda s, T: [ds_loss(d, perm + np.arange(d) * d) for perm in permutation_batch(s, T, d)]
    p = problem.meta["params"]
    return lambda s, T: [dispatch_loss(p, d_t) for d_t in p.demand[np.arange(T) % p.demand.size]]


# ------------------------------------------ per-point reference constraints
# The built-in constraints as per-point closures: toy's and dispatch's as
# they were written before ArrayForm.values/jacobian became their only
# definition, doubly-stochastic's written out here. A spec built from
# closures is its own reference.


def toy_constraints(l1_radius):
    g_l1 = ConvexFn(
        lambda x: float(np.abs(x).sum() - l1_radius),
        lambda x: np.sign(x),
    )
    return [g_l1]


def ds_constraints(d):
    """Row sums <= 1 and >= 1, column sums <= 1 and >= 1, then x >= 0. A
    column sum adds the rows of the matrix in order."""

    def rows(x):
        return x.reshape(d, d).sum(axis=1)

    def cols(x):
        return x.reshape(d, d).sum(axis=0)

    def indicator(i, axis):
        M = np.zeros((d, d))
        if axis == 0:
            M[i] = 1.0
        else:
            M[:, i] = 1.0
        return M.ravel()

    gs = []
    for sums, axis in ((rows, 0), (cols, 1)):
        gs += [
            ConvexFn(lambda x, i=i, s=sums: float(s(x)[i] - 1.0), lambda x, a=indicator(i, axis): a)
            for i in range(d)
        ]
        gs += [
            ConvexFn(lambda x, i=i, s=sums: float(1.0 - s(x)[i]), lambda x, a=0.0 - indicator(i, axis): a)
            for i in range(d)
        ]
    eye = np.eye(d * d)
    gs += [ConvexFn(lambda x, i=i: float(-x[i]), lambda x, i=i: 0.0 - eye[i]) for i in range(d * d)]
    return gs


def dispatch_constraints(p):
    n = p.x_max.size

    def emission(x):
        return float(p.d_coef @ (x * x) + p.e_coef @ x)

    gs = [
        ConvexFn(
            lambda x: emission(x) - p.e_max,
            lambda x: 2.0 * p.d_coef * x + p.e_coef,
        )
    ]
    eye = np.eye(n)
    gs += [  # x_i >= 0
        ConvexFn(lambda x, i=i: float(-x[i]), lambda x, i=i: 0.0 - eye[i])
        for i in range(n)
    ]
    gs += [  # x_i <= x_max_i
        ConvexFn(lambda x, i=i: float(x[i] - p.x_max[i]), lambda x, i=i: eye[i].copy())
        for i in range(n)
    ]
    return gs


def reference_constraints(problem):
    """The per-point constraint closures of a problem, never its own views."""
    if isinstance(problem.arrays, ClosureArrays):
        return problem.arrays.gs
    if problem.name == "toy":
        return toy_constraints(problem.meta["l1_radius"])
    if problem.name == "doubly-stochastic":
        return ds_constraints(problem.meta["d"])
    return dispatch_constraints(problem.meta["params"])


# ------------------------------------------------------ array form vs fns

BUILT_IN = ["toy", "dispatch"] + [f"ds{d}" for d in range(2, 10)]


def assert_array_form_matches(p, X, seed, start, constraint_rows=None):
    form = p.arrays
    fns = ClosureArrays(reference_constraints(p), reference_losses(p))
    stop = start + len(X)
    fx, grad = form.loss(X, form.params(seed, stop)[start:])
    fx_ref, grad_ref = fns.loss(X, fns.params(seed, stop)[start:])
    assert same_bits(fx, fx_ref)
    assert same_bits(grad, grad_ref)
    X = X[:constraint_rows]  # one closure call per constraint and row
    assert same_bits(form.values(X), fns.values(X))
    assert same_bits(form.jacobian(X), fns.jacobian(X))


def points(rng, rows, n):
    """Generic points at several scales, with some exact (signed) zeros."""
    X = rng.standard_normal((rows, n)) * rng.choice([0.1, 1.0, 10.0], size=(rows, 1))
    X[rng.random((rows, n)) < 0.05] = 0.0
    X[rng.random((rows, n)) < 0.05] = -0.0
    return X


# closure calls per problem on the many-points test: every one of toy's
# 20 000 rows, fewer rows as m grows
CONSTRAINT_CALLS = 20000


@pytest.mark.parametrize("name", BUILT_IN)
def test_array_form_matches_convexfn_path_on_many_points(name):
    # rounding differences show on a small share of generic points (about
    # 1 in 1000 for a scalar power), so this sweeps thousands of rows
    p = problem(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    X = points(rng, 20000 if p.n <= 9 else 2000, p.n)
    rows = CONSTRAINT_CALLS // p.m
    assert_array_form_matches(p, X, seed=11, start=int(rng.integers(0, 5000)), constraint_rows=rows)


@st.composite
def batch_points(draw):
    name = draw(st.sampled_from(BUILT_IN))
    p = problem(name)
    rows = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 0.3, 20.0]))
    elements = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    X = draw(hnp.arrays(np.float64, (rows, p.n), elements=elements)) * scale
    return p, X


@settings(max_examples=60, deadline=None)
@given(batch_points(), st.integers(0, 2**32 - 1), st.integers(0, 3000))
def test_array_form_matches_convexfn_path_at_edge_points(case, seed, start):
    # hypothesis favors zeros, signed zeros, ties and ball-boundary values
    p, X = case
    assert_array_form_matches(p, X, seed, start)


def reference_grad(p, f, x, lam, mode, clipped):
    """The per-point Lagrangian gradient on the reference closures."""
    gs = reference_constraints(p)
    fns = gs if mode == "per_constraint" else [max_aggregate(gs)]
    return lagrangian_grad_x(f, fns, x, lam, clipped)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["toy", "ds3", "ds9", "dispatch", "inline"]),
    st.sampled_from(["max", "per_constraint"]),
    st.integers(0, 2**32 - 1),
)
def test_lagrangian_gradient_matches_convexfn_path(name, mode, seed):
    # the kernel's gradient is the plain Lagrangian's at any duals, and the
    # clipped Lagrangian's at each row's own clipped-ogd duals, which are
    # zero wherever a constraint is satisfied: so no row needs the clip
    p = problem(name)
    rng = np.random.default_rng(seed)
    X = points(rng, 6, p.n) * (0.3 if name.startswith("ds") else 1.0)
    form = p.arrays
    params = form.params(seed % 1000, 6)
    losses = p.losses(seed % 1000, 6)
    fx, fgrad = form.loss(X, params)
    V = form.values(X)
    A = _aggregate(V, mode)
    # some rows with every dual zero, some with every dual positive
    active = rng.random(A.shape) < rng.choice([0.0, 0.3, 0.6, 1.0], size=(len(X), 1))
    lam = rng.uniform(0.0, 3.0, size=A.shape) * active
    got = _lagrangian_grad(form, X, V, lam, fgrad, mode)
    for b in range(len(X)):
        assert same_bits(got[b], reference_grad(p, losses[b], X[b], lam[b], mode, False)), "plain"
    lam = clipped_dual(A, rng.choice([1e-3, 0.1, 1.0, 10.0], size=(len(X), 1)))
    got = _lagrangian_grad(form, X, V, lam, fgrad, mode)
    for b in range(len(X)):
        assert same_bits(got[b], reference_grad(p, losses[b], X[b], lam[b], mode, True)), "clipped"


@pytest.mark.parametrize("name", ["toy", "ds3", "dispatch"])
def test_fn_arrays_keep_their_shapes_on_an_empty_batch(name):
    # the closure form of a built-in on an empty batch; a grid block whose
    # points all leave the ball is such a batch
    p = problem(name)
    form, fns = p.arrays, ClosureArrays(reference_constraints(p), reference_losses(p))
    X = np.empty((0, p.n))
    for got, want in zip(fns.loss(X, fns.params(0, 0)), form.loss(X, form.params(0, 0))):
        assert got.shape == want.shape
    for method in ("values", "jacobian"):
        assert getattr(fns, method)(X).shape == getattr(form, method)(X).shape, method


# ------------------------------------------------- B rows vs B run() calls

KINDS = [
    (v, a)
    for v, a in itertools.product(
        ("clipped-ogd", "strong-clipped-ogd", "mahdavi-ogd", "a-ogd"),
        ("max", "per_constraint"),
    )
    if not (v == "a-ogd" and a != "max")
]
ENGAGED = {"toy": (0.2, 4.0), "ds3": (0.05, 20.0), "dispatch": (0.01, 100.0), "inline": (0.1, 10.0)}

row_strategy = st.tuples(
    st.integers(1, 40),  # horizon
    st.integers(0, 3) | st.integers(0, 2**32 - 1),  # seed: rows may share a stream
    st.sampled_from([0.3, 0.5, 2.0 / 3.0]),  # beta
    st.sampled_from([0.25, 0.5]),  # alpha
    st.booleans(),  # engaged stepsize overrides
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["toy", "ds3", "dispatch", "inline"]),
    st.sampled_from(["max", "per_constraint"]),
    st.data(),
)
def test_batch_rows_equal_single_runs(name, aggregation, data):
    # rows share only the aggregation; the variant varies per row
    p = problem(name)
    kinds = [v for v, a in KINDS if a == aggregation and not (v == "strong-clipped-ogd" and p.H1 is None)]
    rows = data.draw(st.lists(st.tuples(st.sampled_from(kinds), row_strategy), min_size=1, max_size=6))
    cfgs, seeds = [], []
    for variant, (T, seed, beta, alpha, engaged) in rows:
        eta, sigma = ENGAGED[name] if engaged and variant != "strong-clipped-ogd" else (None, None)
        cfgs.append(AlgoConfig(variant, T=T, beta=beta, alpha=alpha, aggregation=aggregation,
                               eta_override=eta, sigma_override=sigma))
        seeds.append(seed)
    traces = advance(p, cfgs, seeds)
    for cfg, seed, got in zip(cfgs, seeds, traces):
        want = run(p, cfg, seed)
        assert got.variant == want.variant
        for field in ("t", "x", "fx", "g", "g_agg", "lam"):
            assert same_bits(getattr(got, field), getattr(want, field)), field
        assert (got.eta, got.sigma, got.meta) == (want.eta, want.sigma, want.meta)


# ------------------------------------- rows vs a per-point reference run
# The property tests above stop at T = 40, inside the kernel's first block
# of 256 steps, and compare kernel rows only with kernel rows. Here each row
# runs 600 steps, across two block edges, against ``reference_run``, which
# takes one point per step and writes each variant's stepsizes as scalar
# formulas. The inline problem's losses pull x out of the feasible set, so
# every variant's duals move.


def assert_reference_rows(p, cfgs, seeds):
    for cfg, seed, got in zip(cfgs, seeds, advance(p, cfgs, seeds)):
        x, lam = reference_run(p, cfg, seed)
        assert lam[256:].any(), "the duals must move after the first block"
        assert same_bits(got.x, x), (cfg, "x")
        assert same_bits(got.lam, lam), (cfg, "lam")


@pytest.mark.parametrize("variant,aggregation", KINDS)
def test_rows_equal_the_per_point_reference_across_block_edges(variant, aggregation):
    assert_reference_rows(problem("inline"), [AlgoConfig(variant, T=600, aggregation=aggregation)], [3])


def test_mixed_rows_equal_the_per_point_reference_across_block_edges():
    # all four variants, a-ogd at two betas, and a row that ends between
    # two block edges (the block then ends with it)
    cfgs = [AlgoConfig(v, T=600) for v in VARIANTS]
    cfgs += [AlgoConfig("a-ogd", T=600, beta=2.0 / 3.0), AlgoConfig("clipped-ogd", T=300, beta=0.3)]
    assert_reference_rows(problem("inline"), cfgs, [0, 1, 2, 3, 4, 5])


def test_advance_rejects_mixed_aggregations():
    # the dual width depends on the aggregation, so rows must share it
    p = dispatch_problem()
    cfgs = [AlgoConfig("clipped-ogd", T=5), AlgoConfig("clipped-ogd", T=5, aggregation="per_constraint")]
    with pytest.raises(ValueError, match="share an aggregation"):
        advance(p, cfgs, [0, 0])


def test_batch_makes_one_kernel_call_per_aggregation(monkeypatch):
    import ocolc.algorithms

    calls = []
    exact = ocolc.algorithms.advance

    def counted(problem, cfgs, seeds):
        calls.append(sorted({cfg.aggregation for cfg in cfgs}))
        return exact(problem, cfgs, seeds)

    monkeypatch.setattr(ocolc.algorithms, "advance", counted)
    p = toy_problem()
    cells = [
        (AlgoConfig(v, T=T, aggregation=a), seed)
        for v in ("clipped-ogd", "mahdavi-ogd", "a-ogd")
        for a in ("max", "per_constraint")
        if not (v == "a-ogd" and a != "max")
        for T in (5, 9)
        for seed in (1, 2)
    ]
    batch = Batch(p, cells)
    for cfg, seed in cells:
        run(batch, cfg, seed)
    assert calls == [["max"], ["per_constraint"]]


def test_failing_row_stops_alone():
    # the loss gradient is NaN at step 3 for seed 1 only
    def make_loss(seed, t):
        bad = seed == 1 and t == 2
        return ConvexFn(lambda x: float(x[0]), lambda x: np.array([np.nan if bad else 1.0]))

    g = ConvexFn(lambda x: float(x[0] - 0.5), lambda x: np.array([1.0]))
    p = make_problem(1, [g], make_loss=make_loss)
    cells = [(AlgoConfig("clipped-ogd", T=T), seed) for T in (4, 6) for seed in (0, 1, 2)]
    assert_fails_alone(p, cells, lambda cfg, seed: seed == 1, step=3)


def test_overflowing_row_stops_alone():
    # the gradient is finite, but eta = 1e307 times it overflows at step 1;
    # the other rows, of other horizons and both dual rules, run on
    cells = [
        (AlgoConfig("clipped-ogd", T=40), 0),
        (AlgoConfig("clipped-ogd", T=30, eta_override=1e307), 0),
        (AlgoConfig("mahdavi-ogd", T=20), 0),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        assert_fails_alone(problem("dispatch"), cells, lambda cfg, seed: cfg.eta_override, step=1)


def assert_fails_alone(p, cells, fails, step):
    """The cells for which fails(cfg, seed) holds raise RunError at `step`;
    every other cell's x and lam equal its one-row run bit for bit."""
    batch = Batch(p, cells)
    for cfg, seed in cells:
        if fails(cfg, seed):
            with pytest.raises(RunError, match="non-finite step") as ei:
                run(batch, cfg, seed)
            assert ei.value.step == step
        else:
            got, want = run(batch, cfg, seed), run(p, cfg, seed)
            assert same_bits(got.x, want.x) and same_bits(got.lam, want.lam)


def test_failing_row_leaves_aogd_schedules_aligned():
    # each row reads its own config's stepsize table: a-ogd's mu and theta
    # at its beta, mahdavi-ogd's constants; after a row fails mid-block, the
    # others must still get their own. The loss pushes x into violation, so
    # the duals move
    def make_loss(seed, t):
        bad = seed == 1 and t == 2
        return ConvexFn(lambda x: float(-x[0]), lambda x: np.array([np.nan if bad else -1.0 - seed]))

    g = ConvexFn(lambda x: float(x[0] - 0.5), lambda x: np.array([1.0]))
    p = make_problem(1, [g], make_loss=make_loss)
    cells = [
        (AlgoConfig(v, T=T, beta=beta), seed)
        for v in ("a-ogd", "mahdavi-ogd")
        for T in (6, 30)
        for beta in (0.3, 0.6)
        for seed in (0, 1, 2)
    ]
    batch = Batch(p, cells)
    for cfg, seed in cells:
        if seed == 1:
            with pytest.raises(RunError):
                run(batch, cfg, seed)
        else:
            got, want = run(batch, cfg, seed), run(p, cfg, seed)
            assert want.lam.any()
            assert same_bits(got.lam, want.lam) and same_bits(got.x, want.x)


def test_step_loop_reads_only_the_loss_gradient(monkeypatch):
    # each step calls grad alone; each returned trace gets one loss_value
    # call after the last step, and loss, which computes both, is never
    # called. Seed 1's gradient is NaN at step 3, so its row returns an
    # error and no loss values
    def make_loss(seed, t):
        bad = seed == 1 and t == 2
        return ConvexFn(lambda x: float(3.0 * x[0]), lambda x: np.array([np.nan if bad else 3.0]))

    g = ConvexFn(lambda x: float(x[0] - 0.5), lambda x: np.array([1.0]))
    p = make_problem(1, [g], make_loss=make_loss)
    form = p.arrays
    calls = []
    for name in ("loss", "loss_value", "grad"):
        def spy(X, P, name=name, exact=getattr(form, name)):
            calls.append((name, len(X)))
            return exact(X, P)

        monkeypatch.setattr(form, name, spy)
    traces = advance(p, [AlgoConfig("clipped-ogd", T=T) for T in (4, 6, 6)], [0, 1, 2])
    assert isinstance(traces[1], RunError) and traces[1].step == 3
    assert [name for name, _ in calls] == ["grad"] * 6 + ["loss_value"] * 2
    assert sorted(rows for name, rows in calls if name == "loss_value") == [4, 6]
    for trace in (traces[0], traces[2]):
        assert same_bits(trace.fx, 3.0 * trace.x[:, 0])


@pytest.mark.parametrize(
    "failing, steps", [({0, 1, 2}, 3), ({1, 2}, 4)], ids=["at-the-failure", "where-the-survivor-ends"]
)
def test_call_whose_rows_all_failed_stops(monkeypatch, failing, steps):
    # a failed row keeps its slot until its horizon, but the loop stops once
    # every live row has failed: at the failure itself, or where the last
    # row that still runs ends. The rows of seeds in `failing` fail at step 3
    def make_loss(seed, t):
        bad = seed in failing and t == 2
        return ConvexFn(lambda x: float(3.0 * x[0]), lambda x: np.array([np.nan if bad else 3.0]))

    g = ConvexFn(lambda x: float(x[0] - 0.5), lambda x: np.array([1.0]))
    p = make_problem(1, [g], make_loss=make_loss)
    calls = []
    exact = p.arrays.grad

    def counted(X, P):
        calls.append(len(X))
        return exact(X, P)

    monkeypatch.setattr(p.arrays, "grad", counted)
    traces = advance(p, [AlgoConfig("clipped-ogd", T=T) for T in (4, 6, 6)], [0, 1, 2])
    assert [isinstance(trace, RunError) for trace in traces] == [b in failing for b in range(3)]
    assert len(calls) == steps


def test_batch_hands_each_trace_out_once():
    # a caller that reduces each trace as it goes holds one at a time: the
    # batch keeps no trace it has handed out. A cell listed twice is handed
    # out twice
    p = toy_problem()
    a, b = (AlgoConfig("clipped-ogd", T=5), 1), (AlgoConfig("a-ogd", T=7), 2)
    batch = Batch(p, [a, b, a])
    first = weakref.ref(run(batch, *a))
    assert first() is not None
    second = run(batch, *a)
    assert second is first()
    del second
    assert first() is None
    other = weakref.ref(run(batch, *b))
    assert other() is None
    for cell in (a, b):
        with pytest.raises(KeyError, match="handed out already"):
            batch.trace(*cell)


def test_batch_stands_in_for_its_problem():
    p = toy_problem()
    cfg = AlgoConfig("clipped-ogd", T=5)
    batch = Batch(p, [(cfg, 3)])
    assert batch.name == "toy" and batch.dom is p.dom
    with pytest.raises(KeyError):
        batch.trace(AlgoConfig("clipped-ogd", T=6), 3)
    assert same_bits(run(batch, cfg, 3).x, run(p, cfg, 3).x)


# ------------------------------------------------------------ record memory

# the quick acceptance grid's doubly-stochastic call has horizons
# [4000] + [250] * 9; a quarter of that keeps the spread and runs in 1 s
# under tracemalloc instead of 3
UNEVEN = [1000] + [62] * 9


def test_records_are_not_padded_to_the_longest_row():
    # records padded to (B, T_max) would take 6.4 times the steps run here;
    # the traces are sum(T) rows of x, fx, g, g_agg and lam (k = 1). The
    # peak is 1.35 times them, 1.65 when g was recorded
    p = problem("ds5")
    cfgs = [AlgoConfig("strong-clipped-ogd", T=T) for T in UNEVEN]
    advance(p, [AlgoConfig("strong-clipped-ogd", T=1)], [0])  # lazy state of the problem, if any
    tracemalloc.start()
    try:
        advance(p, cfgs, list(range(len(cfgs))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    exact = sum(UNEVEN) * (p.n + p.m + 3) * 8
    assert peak <= 2 * exact, f"peak {peak / exact:.2f} times the exact records"


def test_traces_of_one_call_own_their_memory():
    # holding one trace must keep neither the records nor another trace alive
    p = problem("ds3")
    cfgs = [AlgoConfig("clipped-ogd", T=T) for T in (30, 7, 30, 12)]
    traces = advance(p, cfgs, [0, 1, 2, 3])
    arrays = [
        (j, getattr(tr, name)) for j, tr in enumerate(traces) for name in ("t", "x", "fx", "g", "g_agg", "lam")
    ]
    assert all(a.flags.owndata for _, a in arrays)
    for (j, a), (l, b) in itertools.combinations(arrays, 2):
        assert j == l or not np.shares_memory(a, b)


# sweep-toy's 24 cells (three algorithms, four horizons, two seeds) at an
# eighth of its horizons: tracemalloc makes the full size take 10 s
SWEEP_TOY_CELLS = [
    (AlgoConfig(v, T=T), seed)
    for v in ("mahdavi-ogd", "a-ogd", "clipped-ogd")
    for T in (156, 312, 625, 1250)
    for seed in (11, 12)
]


def test_merged_sweep_call_stays_near_its_traces(monkeypatch):
    # one kernel call over every algorithm's cells: the rows of a seed read
    # one loss stream, only x and lam are recorded, and the records are
    # gathered largest first. A trace stores x, fx, g, g_agg and lam; its t
    # is computed on access. The peak is 1.17 times the traces here; it was
    # 1.24 when fx and g were recorded and 1.41 when g_agg was too
    p = toy_problem()
    cfgs, seeds = map(list, zip(*SWEEP_TOY_CELLS))
    advance(p, [dataclasses.replace(cfgs[0], T=1)], seeds[:1])  # lazy state of the problem, if any
    streams = []
    params = p.arrays.params

    def counted(seed, T):
        streams.append(seed)
        return params(seed, T)

    monkeypatch.setattr(p.arrays, "params", counted)
    tracemalloc.start()
    try:
        traces = advance(p, cfgs, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(streams) == sorted(set(seeds))
    exact = sum(getattr(tr, name).nbytes for tr in traces for name in ("x", "fx", "g", "g_agg", "lam"))
    assert peak <= 1.33 * exact, f"peak {peak / exact:.2f} times the traces"
