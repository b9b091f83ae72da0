import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ocolc.oracle
from ocolc.core import ConvexFn
from ocolc.oracle import (
    KKT_TOL,
    OracleError,
    OracleResult,
    birkhoff_certificate,
    grid_oracle,
    offline_solve,
    offline_value,
    project_birkhoff,
)
from ocolc.problems import DispatchParams, doubly_stochastic_problem, dispatch_problem, toy_problem

from conftest import make_problem, perfbench_module


def _linear_loss(c):
    c = np.asarray(c, dtype=float)
    return ConvexFn(lambda x: float(c @ x), lambda x: c, eval_many=lambda X: X @ c)


# -------------------------------------------------------------- penalty


def test_offline_solve_toy_fixed_cost_vertex():
    # min 0.8 x1 + 0.6 x2 over the l1 ball attains -0.8 at the vertex (-1, 0)
    p = toy_problem()
    res = offline_solve(p, _linear_loss([0.8, 0.6]), iters=20000)
    assert res.residual <= 1e-6
    assert abs(res.value - (-0.8)) <= 1e-3
    grid = grid_oracle(p, _linear_loss([0.8, 0.6]), resolution=1e-3)
    assert abs(grid.value - (-0.8)) <= 1e-9
    assert abs(res.value - grid.value) <= 1e-3


def test_offline_solve_ds_single_permutation_target():
    # all Y_t equal to one permutation P: zero loss is attainable at X = P
    p = doubly_stochastic_problem(d=3)
    P = np.zeros((3, 3))
    P[[0, 1, 2], [1, 2, 0]] = 1.0
    f = ConvexFn(
        lambda x: float(0.5 * np.sum((x - P.ravel()) ** 2)), lambda x: x - P.ravel()
    )
    res = offline_solve(p, f, iters=4000)
    assert res.residual <= 1e-6
    assert res.value <= 1e-6
    np.testing.assert_allclose(res.x, P.ravel(), atol=1e-3)


def test_offline_solve_dispatch_interior_matches_normal_equations():
    # small demand keeps every constraint inactive: compare to the linear system
    p = dispatch_problem()
    pars = p.meta["params"]
    d_t = 18.0
    f = ConvexFn(
        lambda x: float(0.5 * pars.a @ (x * x) + pars.b @ x + pars.xi * (x.sum() - d_t) ** 2),
        lambda x: pars.a * x + pars.b + 2 * pars.xi * (x.sum() - d_t),
    )
    # stationarity: (diag(a) + 2 xi 11^T) x = 2 xi d 1 - b
    A = np.diag(pars.a) + 2 * pars.xi * np.ones((3, 3))
    x_exact = np.linalg.solve(A, 2 * pars.xi * d_t - pars.b)
    assert np.all(x_exact > 0) and np.all(x_exact < pars.x_max)  # interior
    res = offline_solve(p, f, iters=60000)
    np.testing.assert_allclose(res.x, x_exact, atol=1e-4)
    assert res.residual <= 1e-6


def test_offline_solve_deterministic():
    p = toy_problem()
    r1 = offline_solve(p, _linear_loss([0.3, 0.9]), iters=3000)
    r2 = offline_solve(p, _linear_loss([0.3, 0.9]), iters=3000)
    assert np.array_equal(r1.x, r2.x) and r1.value == r2.value


def test_offline_solve_infeasible_raises_with_best():
    g_impossible = ConvexFn(lambda x: 1.0, lambda x: np.zeros(2))
    p = make_problem(2, [g_impossible], R=1.0, G=1.0)
    with pytest.raises(OracleError) as ei:
        offline_solve(p, _linear_loss([1.0, 0.0]), iters=50, max_ramps=3)
    assert ei.value.best.residual >= 1.0


# ----------------------------------------------------------------- grid


def test_grid_oracle_toy_single_cost():
    p = toy_problem()
    res = grid_oracle(p, _linear_loss([1.0, 0.0]), resolution=1e-3)
    np.testing.assert_allclose(res.x, [-1.0, 0.0], atol=1e-9)
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_grid_oracle_infeasible_everywhere():
    g_impossible = ConvexFn(lambda x: 1.0, lambda x: np.zeros(2))
    p = make_problem(2, [g_impossible], R=1.0, G=1.0)
    with pytest.raises(ValueError, match="no feasible grid point"):
        grid_oracle(p, _linear_loss([1.0, 0.0]), resolution=0.1)


def test_grid_oracle_refinement_improves_or_ties():
    p = toy_problem()
    loss = _linear_loss([0.6, 0.8])
    coarse = grid_oracle(p, loss, resolution=0.2)
    fine = grid_oracle(p, loss, resolution=0.1)
    assert fine.value <= coarse.value


def test_grid_oracle_dimension_guard():
    p = doubly_stochastic_problem(d=2)  # n = 4 > 3
    with pytest.raises(ValueError, match="n <= 3"):
        grid_oracle(p, _linear_loss([1.0, 0.0, 0.0, 0.0]), resolution=0.1)


def _grid_oracle_whole(problem, loss, resolution):
    """Reference: the whole grid built at once, as grid_oracle did before it
    walked the grid in blocks. The blocked version must match it bit for bit."""
    R = problem.dom.radius
    steps = int(np.floor(2.0 * R / resolution)) + 1
    coords = -R + resolution * np.arange(steps)
    grids = np.meshgrid(*([coords] * problem.n), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    X = X[np.linalg.norm(X, axis=1) <= R]
    X = X[(problem.arrays.values(X) <= 0.0).all(axis=1)]
    if len(X) == 0:
        raise ValueError("no feasible grid point at this resolution")
    total = np.zeros(len(X))
    if loss.eval_many is not None:
        total += loss.eval_many(X)
    else:
        total += np.array([loss.eval(x) for x in X])
    i = int(np.argmin(total))
    return OracleResult(X[i], float(total[i]), 0.0, {"points": len(X)})


def _assert_same_grid_answer(problem, loss, resolution):
    got = grid_oracle(problem, loss, resolution)
    ref = _grid_oracle_whole(problem, loss, resolution)
    assert got.x.tobytes() == ref.x.tobytes()
    assert (got.value, got.residual, got.info) == (ref.value, ref.residual, ref.info)
    return got


def _slack_problem(n, R=1.0):
    g = ConvexFn(lambda x: -1.0, lambda x: np.zeros(n))
    return make_problem(n, [g], R=R)


def test_grid_oracle_memory_bounded_by_block():
    # check 8's grid: about 2M feasible points, 244 MiB when built at once
    p = toy_problem()
    fbar = p.mean_loss(1, 50)
    tracemalloc.start()
    try:
        grid_oracle(p, fbar, resolution=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("block", [1 << 16, 700, 50])
def test_grid_oracle_blocks_match_whole_grid(monkeypatch, block):
    monkeypatch.setattr(ocolc.oracle, "GRID_BLOCK", block)
    rng = np.random.default_rng(block)
    toy, disp = toy_problem(), dispatch_problem()
    for _ in range(8):
        _assert_same_grid_answer(toy, _linear_loss(rng.normal(size=2)), rng.uniform(0.004, 0.2))
    for seed in range(3):
        _assert_same_grid_answer(disp, disp.mean_loss(seed, 40), rng.uniform(1.5, 4.0))
    # losses without eval_many, one Python call per point
    p3 = _slack_problem(3)
    c = rng.normal(size=3)
    _assert_same_grid_answer(p3, ConvexFn(lambda x: float(np.sum((x - c) ** 2)), None), 0.15)


@pytest.mark.parametrize("k", [8, 9, 10])
def test_grid_oracle_minimiser_on_block_edge(monkeypatch, k):
    # 21 x 21 grid in blocks of 3 slices: slices 8 | 9 10 11 | 12 ...
    monkeypatch.setattr(ocolc.oracle, "GRID_BLOCK", 3 * 21)
    p = _slack_problem(2)
    coords = -1.0 + 0.1 * np.arange(21)
    target = np.array([coords[k], coords[4]])
    loss = ConvexFn(
        lambda x: float(np.sum((x - target) ** 2)),
        lambda x: 2 * (x - target),
        eval_many=lambda X: ((X - target) ** 2).sum(axis=1),
    )
    res = _assert_same_grid_answer(p, loss, 0.1)
    assert np.array_equal(res.x, target) and res.value == 0.0


def test_grid_oracle_tie_across_blocks_keeps_first(monkeypatch):
    monkeypatch.setattr(ocolc.oracle, "GRID_BLOCK", 3 * 21)
    p = _slack_problem(2)
    coords = -1.0 + 0.1 * np.arange(21)
    first, second = np.array([coords[5], coords[10]]), np.array([coords[14], coords[10]])

    def ev_many(X):
        return -((X == first).all(axis=1) | (X == second).all(axis=1)).astype(float)

    loss = ConvexFn(lambda x: float(ev_many(x[None])[0]), None, eval_many=ev_many)
    res = _assert_same_grid_answer(p, loss, 0.1)
    assert np.array_equal(res.x, first)
    # a loss equal everywhere: the first feasible grid point wins
    flat = ConvexFn(lambda x: 0.0, None, eval_many=lambda X: np.zeros(len(X)))
    res = _assert_same_grid_answer(p, flat, 0.1)
    assert np.array_equal(res.x, [-1.0, 0.0])
    # a loss of -0.0 everywhere sums to +0.0
    minus_zero = ConvexFn(lambda x: -0.0, None, eval_many=lambda X: np.full(len(X), -0.0))
    res = _assert_same_grid_answer(p, minus_zero, 0.1)
    assert np.copysign(1.0, res.value) == 1.0


@pytest.mark.parametrize(
    "problem",
    [toy_problem(), toy_problem(l1_radius=10), dispatch_problem(), doubly_stochastic_problem(d=3)],
    ids=["toy", "toy-l1-10", "dispatch", "ds3"],
)
def test_values_on_coordinate_major_view_match_c_rows(problem):
    # grid_oracle passes the transposed view of its (n, N) points
    rng = np.random.default_rng(problem.n)
    P = problem.dom.radius * rng.uniform(-1.0, 1.0, size=(problem.n, 5000))
    rows = np.ascontiguousarray(P.T)
    assert P.T.flags.f_contiguous and rows.flags.c_contiguous
    got, ref = problem.arrays.values(P.T), problem.arrays.values(rows)
    assert got.shape == ref.shape == (5000, problem.arrays.m)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("R", [1.0, dispatch_problem().dom.radius])
def test_ball_mask_sums_squares_in_norm_order(R):
    # points within a few ulps of the sphere, kept where the association of
    # the three squares changes their sum
    rng = np.random.default_rng(8)
    U = rng.normal(size=(20000, 3))
    X = R * U / np.linalg.norm(U, axis=1, keepdims=True)
    X *= 1.0 + rng.integers(-3, 4, size=(len(X), 1)) * 2.0**-52
    a, b, c = (X * X).T
    X = X[(a + b) + c != a + (b + c)]
    a, b, c = (X * X).T
    other = np.sqrt(a + (b + c)) <= R
    got = ocolc.oracle._in_ball(list(X.T), R)
    ref = np.linalg.norm(X, axis=1) <= R
    assert (got != other).sum() > 50  # the order decides these points
    assert np.array_equal(got, ref)


# -------------------------------------------------------------- Dykstra


def test_birkhoff_projection_d2_analytic():
    # Birkhoff(2) is the segment between I and the swap matrix
    M = np.array([[2.0, -1.0], [0.5, 0.3]])
    a = np.clip((2.0 + M[0, 0] - M[0, 1] - M[1, 0] + M[1, 1]) / 4.0, 0.0, 1.0)
    expected = np.array([[a, 1 - a], [1 - a, a]])
    np.testing.assert_allclose(project_birkhoff(M), expected, atol=1e-10)


def test_birkhoff_projection_fixed_point():
    Y = np.full((3, 3), 1.0 / 3.0)
    np.testing.assert_allclose(project_birkhoff(Y), Y, atol=0)


def test_birkhoff_projection_output_is_doubly_stochastic(rng):
    for _ in range(10):
        M = rng.normal(size=(4, 4))
        X = project_birkhoff(M)
        np.testing.assert_allclose(X.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(X.sum(axis=1), 1.0, atol=1e-9)
        assert X.min() >= -1e-12


def test_birkhoff_projection_shrinks_distance(rng):
    # projection is closer to M than any sampled doubly stochastic matrix
    M = rng.normal(size=(3, 3))
    X = project_birkhoff(M)
    for _ in range(50):
        Z = project_birkhoff(rng.normal(size=(3, 3)))
        assert np.linalg.norm(X - M) <= np.linalg.norm(Z - M) + 1e-9


def test_birkhoff_rejects_nonsquare():
    with pytest.raises(ValueError):
        project_birkhoff(np.ones((2, 3)))


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("seed", range(5))
def test_birkhoff_certificate_of_dykstra_on_random_targets(d, seed):
    M = np.random.default_rng(seed).uniform(-0.3, 1.2, size=(d, d))
    X = project_birkhoff(M)
    gap, residual = birkhoff_certificate(M, X)
    bound = 1e-9 * max(1.0, 0.5 * float(np.sum((X - M) ** 2)))
    assert abs(gap) <= bound and residual <= bound


@pytest.mark.parametrize("d", [4, 5, 9])
def test_birkhoff_certificate_of_the_ds_comparator(d):
    # the mean target of a permutation stream: what offline_value projects
    p = doubly_stochastic_problem(d=d)
    for seed in range(3):
        M = -p.mean_loss(seed, 500).subgrad(np.zeros(d * d)).reshape(d, d)
        gap, residual = birkhoff_certificate(M, offline_value(p, seed, 500).x.reshape(d, d))
        assert abs(gap) <= 1e-9 and residual <= 1e-9


def test_birkhoff_certificate_flags_a_feasible_point_off_the_optimum():
    M = np.random.default_rng(1).uniform(-0.3, 1.2, size=(4, 4))
    X = 0.99 * project_birkhoff(M) + 0.01 * np.eye(4)[::-1]
    gap, residual = birkhoff_certificate(M, X)
    # the gap bounds the excess loss from above
    excess = 0.5 * np.sum((X - M) ** 2) - 0.5 * np.sum((project_birkhoff(M) - M) ** 2)
    assert gap >= excess > 1e-5
    assert residual <= 1e-9


def test_birkhoff_certificate_flags_an_infeasible_point():
    M = np.random.default_rng(1).uniform(-0.3, 1.2, size=(4, 4))
    X = project_birkhoff(M)
    _, residual = birkhoff_certificate(M, X + 1e-2)
    assert residual == pytest.approx(0.04)
    # X[0, 0] = -0.05, with every row and column sum kept at 1
    X[:2, :2] += (X[0, 0] + 0.05) * np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert birkhoff_certificate(M, X)[1] >= 0.05


def test_penalty_vs_dykstra_cross_check():
    # the two independent routes agree on a d=4 off-polytope target
    d = 4
    p = doubly_stochastic_problem(d=d)
    rng = np.random.default_rng(5)
    M = rng.uniform(-0.3, 1.2, size=(d, d))
    f = ConvexFn(
        lambda x: float(0.5 * np.sum((x - M.ravel()) ** 2)), lambda x: x - M.ravel()
    )
    res = offline_solve(p, f, iters=30000)
    v_dyk = float(0.5 * np.sum((project_birkhoff(M) - M) ** 2))
    assert abs(res.value - v_dyk) <= 1e-4


# -------------------------------------------------------- offline_value


def test_offline_value_toy_matches_analytic():
    p = toy_problem()
    T = 400
    res = offline_value(p, seed=2, T=T)
    cbar = p.mean_loss(2, T).subgrad(np.zeros(2))
    assert res.value == pytest.approx(-T * np.abs(cbar).max(), rel=1e-12)
    assert res.residual <= 1e-12


def test_offline_value_ds_uses_projection_of_mean():
    p = doubly_stochastic_problem(d=3)
    res = offline_value(p, seed=7, T=200)
    X = res.x.reshape(3, 3)
    np.testing.assert_allclose(X.sum(axis=0), 1.0, atol=1e-9)
    np.testing.assert_allclose(X.sum(axis=1), 1.0, atol=1e-9)
    # cumulative optimum can never beat the per-step dispersion floor
    fbar = p.mean_loss(7, 200)
    assert res.value == pytest.approx(200 * fbar.eval(res.x), rel=1e-12)


def test_offline_value_dispatch_feasible():
    demand = np.full(50, 20.0)
    p = dispatch_problem(DispatchParams(demand=demand))
    res = offline_value(p, seed=0, T=50, iters=8000)
    assert res.residual <= 1e-6
    assert np.all(res.x >= -1e-9)


# ------------------------------------------------------- exact dispatch

SLACK_CAP = DispatchParams(demand=np.array([10.0, 14.0]))  # emission far below e_max
ACTIVE_CAP = DispatchParams(demand=np.array([45.0, 52.0]))
# demand beyond capacity, a costly first unit: every x_i meets a bound
BOX_BOUNDS = DispatchParams(b=np.array([60.0, 1.0, 0.6]), e_max=1e4, demand=np.array([80.0]))
EMISSION_LINEAR = DispatchParams(e_coef=np.array([0.5, 2.0, 1.0]), demand=np.array([40.0, 47.0]))
# with xi = 0 and b >= 0 nothing rewards output: x = 0, below any cap
NO_COUPLING = DispatchParams(xi=0.0, demand=np.array([40.0]))
# a linear emission alone (no quadratic term), which project_feasible must
# still shrink to the cap
LINEAR_ONLY = DispatchParams(a=np.ones(3), b=np.zeros(3), d_coef=np.zeros(3), e_coef=np.array([0.0, 0.0, 1.0]),
                             e_max=0.501, xi=1.0, x_max=np.ones(3), demand=np.array([3.0]))


@st.composite
def dispatch_params(draw):
    """Random generators with a > 0: caps from slack to tight, with and
    without linear emission terms and demand coupling."""
    n = draw(st.integers(1, 4))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    a, b, c, x_max = vec(0.01, 2.0), vec(0.0, 5.0), vec(0.0, 0.6), vec(0.5, 25.0)
    e = draw(st.sampled_from([np.zeros(n), vec(0.0, 3.0)]))
    xi = draw(st.sampled_from([0.0, draw(st.floats(0.01, 2.0))]))
    full = float(c @ (x_max * x_max) + e @ x_max)  # emission at full output
    e_max = draw(st.floats(0.01, 1.5)) * full + 1e-3
    demand = np.array(draw(st.lists(st.floats(0.5, 1.2 * float(x_max.sum())), min_size=1, max_size=6)))
    return DispatchParams(a=a, b=b, d_coef=c, e_coef=e, e_max=e_max, xi=xi,
                          x_max=x_max, demand=demand)


@settings(max_examples=60, deadline=None)
@given(dispatch_params(), st.integers(0, 2**32 - 1))
@example(SLACK_CAP, 0)
@example(ACTIVE_CAP, 1)
@example(BOX_BOUNDS, 2)
@example(EMISSION_LINEAR, 3)
@example(NO_COUPLING, 4)
@example(LINEAR_ONLY, 0)
def test_exact_dispatch_is_feasible_and_no_worse_than_feasible_points(params, seed):
    p = dispatch_problem(params)
    T = params.demand.size
    res = offline_value(p, 0, T)
    assert res.info["solver"] == "structural"
    assert p.constraint_values(res.x).max() <= 1e-9
    fbar = p.mean_loss(0, T)
    f = fbar.eval(res.x)
    slack = KKT_TOL * max(1.0, abs(f))
    rng = np.random.default_rng(seed)
    for z in rng.uniform(-0.2, 1.2, size=(100, p.n)) * params.x_max:
        assert f <= fbar.eval(p.project_feasible(z)) + slack
    # the penalty answer itself when it is feasible, else its projection
    pen = offline_solve(p, fbar, iters=300)
    assert f <= fbar.eval(p.project_feasible(pen.x)) + slack


def test_exact_dispatch_regimes():
    # the multiplier is 0 exactly when the cap is slack, and an active cap
    # is met to the last digits; the box bounds bind where the example says
    for params, slack_cap in ((SLACK_CAP, True), (ACTIVE_CAP, False), (EMISSION_LINEAR, False),
                              (NO_COUPLING, True)):
        d_bar = float(params.demand.mean())
        x, mu = ocolc.oracle.dispatch_kkt(params, d_bar)
        assert (mu == 0.0) == slack_cap
        emission = params.d_coef @ (x * x) + params.e_coef @ x
        assert emission <= params.e_max and (slack_cap or emission >= params.e_max * (1 - 1e-12))
    x, _ = ocolc.oracle.dispatch_kkt(BOX_BOUNDS, 80.0)
    assert x[0] == 0.0 and x[1] == BOX_BOUNDS.x_max[1]
    x, _ = ocolc.oracle.dispatch_kkt(NO_COUPLING, 40.0)
    assert not x.any()


@pytest.mark.parametrize("moved", ["mu", "x", "mu and x", "nu"])
def test_dispatch_certificate_negative_control(monkeypatch, moved):
    # a multiplier off the optimum, or a point moved off it, leaves a
    # stationarity gap or a residual; the Lagrangian's minimiser at a larger
    # multiplier is feasible and stationary but leaves the cap slack; a
    # coupling root off its equation makes every point the solver reaches
    # miss the Lagrangian's minimiser: each must raise, not return
    if moved == "nu":
        root = ocolc.oracle._coupling_root
        monkeypatch.setattr(ocolc.oracle, "_coupling_root",
                            lambda *args: (nu := root(*args)) + 1e-6 * max(1.0, abs(nu)))
    else:
        exact = ocolc.oracle.dispatch_kkt

        def off(p, d_bar):
            x, mu = exact(p, d_bar)
            if moved == "mu and x":
                return ocolc.oracle.dispatch_argmin(p, d_bar, 1.5 * mu), 1.5 * mu
            return (x, 1.01 * mu) if moved == "mu" else (x * 1.001, mu)

        monkeypatch.setattr(ocolc.oracle, "dispatch_kkt", off)
    with pytest.raises(OracleError, match="dispatch certificate failed"):
        offline_value(dispatch_problem(), 0, 200)


@pytest.mark.parametrize("slot", range(16))
def test_exact_dispatch_matches_the_full_size_benchmark_references(tmp_path, slot):
    # perfbench's run-dispatch references (T = 2880) hold the penalty
    # solver's answers at 20 000 iterations, which sit within the
    # benchmark's 1e-9 relative tolerance of the exact optimum
    wl_module = perfbench_module("workloads")
    refs = json.loads((Path(wl_module.__file__).parent / "references.json").read_text(encoding="utf-8"))
    wl = wl_module.WORKLOADS["run-dispatch"](slot, "full", tmp_path, refs)
    wl.prepare()
    res = offline_value(wl.build(), slot, wl.params["T"])
    assert res.info["solver"] == "structural"
    assert wl_module.matches(res.value, wl.refs["offline_value"])


def test_dispatch_with_a_zero_quadratic_cost_uses_the_penalty_solver():
    p = dispatch_problem(DispatchParams(a=np.array([0.2, 0.0, 0.14])))
    assert p.offline_solution is None
    assert offline_value(p, 0, 50, iters=200).info["solver"] == "penalty"


def test_dispatch_cap_out_of_reach_raises():
    with pytest.raises(OracleError, match="emission cap"):
        offline_value(dispatch_problem(DispatchParams(e_max=-1.0)), 0, 10)
