import numpy as np
import pytest

import ocolc.problems
from ocolc.core import ConvexFn
from ocolc.oracle import offline_value
from ocolc.problems import (
    DispatchParams,
    dispatch_problem,
    doubly_stochastic_problem,
    load_demand_csv,
    permutation_batch,
    project_l1_ball,
    synthetic_demand,
    toy_costs,
    toy_problem,
    toy_raw_costs,
)

from reference import ClosureProblem, fd_grad
from test_kernel import reference_constraints


# ----------------------------------------------------------- every problem

# n, m, R, G, H1 and whether A is set, written out from the built-ins; R and
# G are compared to 1e-13 relative, which covers a norm's rounding on other
# BLAS builds but no change of formula
CONSTANTS = {
    "toy": (lambda: toy_problem(), 2, 1, 1.0, 1.4142135623730951, None, False),
    "toy-l1-10": (lambda: toy_problem(l1_radius=10), 2, 1, 1.0, 1.4142135623730951, None, False),
    "ds3": (lambda: doubly_stochastic_problem(d=3), 9, 21, 3.0, 4.732050807568877, 1.0, True),
    "ds5": (lambda: doubly_stochastic_problem(d=5), 25, 45, 5.0, 7.23606797749979, 1.0, True),
    "dispatch": (lambda: dispatch_problem(), 3, 7, 33.8864279616486, 213.06221065499957, 0.12, False),
    "dispatch-rescale-2": (
        lambda: dispatch_problem(DispatchParams(demand_rescale=2.0)),
        3, 7, 33.8864279616486, 315.7878518327236, 0.12, False,
    ),
}


@pytest.mark.parametrize("name", CONSTANTS)
def test_built_in_constants(name):
    build, n, m, R, G, H1, affine = CONSTANTS[name]
    p = build()
    assert (p.n, p.m, p.H1, p.A is not None) == (n, m, H1, affine)
    assert p.R == pytest.approx(R, rel=1e-13) and p.G == pytest.approx(G, rel=1e-13)


def test_ball_radius_must_be_positive():
    for R in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="ball radius must be positive"):
            ClosureProblem(2, [], R=R)
    # a dispatch ball is 1.1 ||x_max||: zero capacities leave no ball
    with pytest.raises(ValueError, match="ball radius must be positive"):
        dispatch_problem(DispatchParams(x_max=np.zeros(3)))


def test_offline_value_reads_each_stream_once(monkeypatch):
    # the mean loss carries its exact minimiser, so one offline_value call
    # draws the toy and doubly-stochastic streams once and reads the
    # dispatch demand once
    draws = []
    stream_draws = ocolc.problems._stream_draws
    monkeypatch.setattr(ocolc.problems, "_stream_draws", lambda *a: draws.append(a) or stream_draws(*a))
    for p in (toy_problem(), doubly_stochastic_problem(d=3)):
        draws.clear()
        assert offline_value(p, 3, 40).info["solver"] == "structural"
        assert len(draws) == 1, p.name
    p = dispatch_problem()
    reads = []
    params = p.params
    monkeypatch.setattr(p, "params", lambda *a: reads.append(a) or params(*a))
    assert offline_value(p, 3, 40).info["solver"] == "structural"
    assert reads == [(3, 40)]


# --------------------------------------------------------------------- toy


def test_toy_costs_unit_norm():
    C = toy_costs(3, 500)
    np.testing.assert_allclose(np.linalg.norm(C, axis=1), 1.0, rtol=0, atol=1e-12)


def test_toy_center_strictly_feasible():
    p = toy_problem()
    assert p.constraint_values(np.zeros(2))[0] == -1.0


def test_toy_raw_cost_mean_monte_carlo():
    # uniform on [0, 1.2] x [0, 1] has mean (0.6, 0.5)
    raw = toy_raw_costs(11, 100_000)
    np.testing.assert_allclose(raw.mean(axis=0), [0.6, 0.5], atol=0.01)


def test_loss_params_row_t_independent_of_horizon():
    # row t of each built-in's params(seed, T) depends only on (seed, t):
    # it is the same for every horizon T > t
    for p in (toy_problem(), doubly_stochastic_problem(d=3), dispatch_problem()):
        whole = p.params(5, 100)
        for T in (1, 18, 99):
            assert np.array_equal(p.params(5, T), whole[:T]), p.name


def test_toy_subgradient_norms_within_G(rng):
    p = toy_problem()
    fs = p.losses(1, 50)
    for _ in range(1000):
        x = rng.uniform(-1, 1, size=2)
        x = x / max(1.0, np.linalg.norm(x))
        assert np.linalg.norm(p.jacobian(x[None])[0, 0]) <= p.G + 1e-12
        f = fs[int(rng.integers(0, 50))]
        assert np.linalg.norm(f.subgrad(x)) <= p.G + 1e-12


def test_project_l1_ball():
    np.testing.assert_allclose(project_l1_ball(np.array([0.2, -0.3])), [0.2, -0.3])
    got = project_l1_ball(np.array([2.0, 0.0]))
    np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)
    # projection is the closest feasible point: check against sampled candidates
    rng = np.random.default_rng(0)
    x = np.array([0.9, 0.8])
    px = project_l1_ball(x)
    assert np.abs(px).sum() <= 1.0 + 1e-12
    for _ in range(500):
        y = rng.uniform(-1, 1, size=2)
        y = y / max(1.0, np.abs(y).sum())
        assert np.linalg.norm(px - x) <= np.linalg.norm(y - x) + 1e-9


# ---------------------------------------------------- doubly stochastic


def test_permutation_batch_rows_are_permutations():
    P = permutation_batch(2, 200, 5)
    for row in P:
        assert sorted(row.tolist()) == [0, 1, 2, 3, 4]


def test_ds_loss_targets_are_permutation_matrices():
    p = doubly_stochastic_problem(d=4)
    f = p.losses(9, 3)[1]
    # recover Y from the gradient at 0: grad = x - y
    y = -f.subgrad(np.zeros(16))
    Y = y.reshape(4, 4)
    assert np.all((Y == 0.0) | (Y == 1.0))
    np.testing.assert_array_equal(Y.sum(axis=0), np.ones(4))
    np.testing.assert_array_equal(Y.sum(axis=1), np.ones(4))


def test_ds_uniform_matrix_feasible():
    d = 5
    p = doubly_stochastic_problem(d=d)
    x = np.full(d * d, 1.0 / d)
    vals = p.constraint_values(x)
    assert np.all(vals <= 1e-12)
    # nonnegativity holds strictly
    assert np.all(vals[4 * d :] < 0)


def test_ds_gradient_finite_difference():
    p = doubly_stochastic_problem(d=3)
    f = p.losses(4, 2)[0]
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=9)
    fd = fd_grad(f, x, h=1e-6)
    np.testing.assert_allclose(f.subgrad(x), fd, rtol=1e-6, atol=1e-7)


def test_ds_constraint_values_match_fns(rng):
    # the reference closures, not a view of the array form's own values
    p = doubly_stochastic_problem(d=3)
    gs = reference_constraints(p)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=9)
        vals = p.constraint_values(x)
        direct = np.array([g.eval(x) for g in gs])
        np.testing.assert_allclose(vals, direct, rtol=0, atol=1e-14)


def test_ds_subgradient_norms_within_G(rng):
    p = doubly_stochastic_problem(d=4)
    fs = p.losses(3, 10)
    R = p.R
    for _ in range(1000):
        x = rng.normal(size=16)
        x = x / np.linalg.norm(x) * rng.uniform(0, R)
        f = fs[int(rng.integers(0, 10))]
        assert np.linalg.norm(f.subgrad(x)) <= p.G + 1e-9
    assert np.linalg.norm(p.jacobian(np.zeros((1, 16)))[0], axis=1).max() <= p.G + 1e-9


def test_ds_dimension_guard():
    with pytest.raises(ValueError):
        doubly_stochastic_problem(d=1)


def test_ds_counts():
    d = 5
    p = doubly_stochastic_problem(d=d)
    assert p.n == d * d
    assert p.m == 4 * d + d * d
    assert p.H1 == 1.0
    assert p.R == d


# ------------------------------------------------------------- dispatch


def test_dispatch_origin():
    p = dispatch_problem()
    d1 = p.p.demand[0]
    f0 = p.losses(0, 1)[0]
    assert f0.eval(np.zeros(3)) == pytest.approx(0.5 * d1 * d1)
    assert np.all(p.constraint_values(np.zeros(3)) <= 0.0)


def test_dispatch_emission_at_ten_ten_ten():
    # 0.26*100 + 0.38*100 + 0.37*100 = 101 > 100 -> violation exactly 1
    p = dispatch_problem()
    vals = p.constraint_values(np.array([10.0, 10.0, 10.0]))
    assert vals[0] == pytest.approx(1.0, abs=1e-12)


def test_dispatch_gradients_finite_difference(rng):
    p = dispatch_problem()
    fs = p.losses(0, 5)
    for _ in range(20):
        x = rng.uniform(0, 15, size=3)
        f = fs[int(rng.integers(0, 5))]
        fd = fd_grad(f, x, h=1e-5)
        np.testing.assert_allclose(f.subgrad(x), fd, rtol=1e-6)
    # emission constraint too
    g0 = ConvexFn(lambda x: p.constraint_values(x)[0], lambda x: p.jacobian(x[None])[0, 0])
    x = rng.uniform(0, 15, size=3)
    np.testing.assert_allclose(g0.subgrad(x), fd_grad(g0, x, h=1e-5), rtol=1e-6)


def test_dispatch_subgradient_norms_within_G(rng):
    p = dispatch_problem()
    R = p.R
    fs = p.losses(0, 20)
    for _ in range(1000):
        x = rng.normal(size=3)
        x = x / np.linalg.norm(x) * rng.uniform(0, R)
        f = fs[int(rng.integers(0, 20))]
        assert np.linalg.norm(f.subgrad(x)) <= p.G + 1e-9
        assert np.linalg.norm(p.jacobian(x[None])[0], axis=1).max() <= p.G + 1e-9


def test_dispatch_demand_wraps_cyclically():
    demand = np.array([10.0, 20.0, 30.0])
    p = dispatch_problem(DispatchParams(demand=demand))
    fs = p.losses(0, 5)
    # f_t(0) = xi * d_t^2 identifies the demand in use
    assert fs[3].eval(np.zeros(3)) == pytest.approx(0.5 * 100.0)
    assert fs[4].eval(np.zeros(3)) == pytest.approx(0.5 * 400.0)


def test_dispatch_params_validation():
    with pytest.raises(ValueError):
        DispatchParams(a=np.array([-0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        DispatchParams(demand=np.array([]))
    with pytest.raises(ValueError):
        DispatchParams(demand=np.array([5.0, -1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            DispatchParams(demand=np.array([5.0, bad]))


def test_dispatch_rescale_recorded():
    demand = np.array([100.0, 200.0])
    p = dispatch_problem(DispatchParams(demand=demand, demand_rescale=0.25))
    assert p.p.demand_rescale == 0.25
    assert p.p.demand.max() == 50.0


def test_dispatch_project_feasible(rng):
    p = dispatch_problem()
    for _ in range(100):
        x = rng.uniform(-5, 30, size=3)
        y = p.project_feasible(x)
        assert np.all(p.constraint_values(y) <= 1e-9)


def test_dispatch_project_feasible_with_linear_emission_only(rng):
    # no quadratic emission term: the box point is scaled down to the cap
    p = dispatch_problem(DispatchParams(d_coef=np.zeros(3), e_coef=np.array([0.5, 2.0, 1.0]), e_max=5.0))
    for _ in range(100):
        y = p.project_feasible(rng.uniform(-5, 30, size=3))
        assert np.all(p.constraint_values(y) <= 1e-9)


# ----------------------------------------------------------- demand CSV


def test_load_demand_csv_basic(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("t,demand\n1,100.5\n2,98.0\n")
    np.testing.assert_array_equal(load_demand_csv(f), [100.5, 98.0])


def test_load_demand_csv_headerless(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("1,100.5\n2,98.0\n")
    np.testing.assert_array_equal(load_demand_csv(f), [100.5, 98.0])


def test_load_demand_csv_reports_bad_line(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("t,demand\n1,100.5\n2,oops\n")
    with pytest.raises(ValueError, match="line 3"):
        load_demand_csv(f)


def test_load_demand_csv_empty(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("")
    with pytest.raises(ValueError):
        load_demand_csv(f)


def test_load_demand_csv_synthetic_fixture_roundtrip(tmp_path):
    # 10 days of 5-minute slots = 2880 rows
    series = synthetic_demand()
    assert series.size == 2880
    f = tmp_path / "fixture.csv"
    lines = ["t,demand"] + [f"{i},{float(v)!r}" for i, v in enumerate(series)]
    f.write_text("\n".join(lines) + "\n")
    loaded = load_demand_csv(f)
    assert loaded.size == 2880
    np.testing.assert_array_equal(loaded, series)


def test_synthetic_demand_positive_and_diurnal():
    s = synthetic_demand()
    assert np.all(s > 0)
    # sinusoid should make the daily max clearly exceed the daily min
    assert s[:288].max() - s[:288].min() > 10.0
