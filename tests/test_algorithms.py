
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocolc.algorithms import (
    AlgoConfig,
    RunError,
    Schedule,
    advance,
    projected_ogd_run,
    run,
    tradeoff_eta,
)
from ocolc.core import ConvexFn
from ocolc.problems import toy_problem, doubly_stochastic_problem, dispatch_problem

from reference import ClosureProblem, per_step, scalar_steps, theorem1_params


def _one_d_problem(R=1.0, G=1.0, slope=1.0, H1=None, x0=0.0):
    """f(x) = slope * x, g(x) = x - 0.5 in one dimension, starting at x0."""
    g = ConvexFn(lambda x: float(x[0] - 0.5), lambda x: np.array([1.0]))

    def make_loss(seed, t):
        return ConvexFn(lambda x: float(slope * x[0]), lambda x: np.array([slope]))

    p = ClosureProblem(1, [g], per_step(make_loss), R=R, G=G, H1=H1)
    p.x0 = lambda: np.array([x0])
    return p


# ----------------------------------------------------------- parameters


def test_theorem1_params_example():
    sigma, eta = theorem1_params(m=1, G=1.0, R=1.0, alpha=0.5, T=10000)
    assert sigma == pytest.approx(2.0)
    assert eta == pytest.approx(7.0711e-3, rel=1e-4)


def test_theorem1_params_rejects_alpha_one():
    with pytest.raises(ValueError):
        theorem1_params(m=1, G=1.0, R=1.0, alpha=1.0, T=100)
    with pytest.raises(ValueError):
        theorem1_params(m=1, G=1.0, R=1.0, alpha=0.0, T=100)


def test_tradeoff_eta_matches_theorem1_at_half():
    _, eta1 = theorem1_params(m=1, G=1.0, R=1.0, alpha=0.5, T=10000)
    assert tradeoff_eta(m=1, G=1.0, R=1.0, beta=0.5, T=10000) == pytest.approx(eta1)


def test_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig("clipped-ogd", T=0)
    with pytest.raises(ValueError):
        AlgoConfig("clipped-ogd", T=10, beta=1.0)
    with pytest.raises(ValueError):
        AlgoConfig("clipped-ogd", T=10, alpha=0.0)
    with pytest.raises(ValueError):
        AlgoConfig("nope", T=10)
    with pytest.raises(ValueError, match="unknown aggregation 'logsumexp'"):
        AlgoConfig("clipped-ogd", T=10, aggregation="logsumexp")
    # a-ogd runs only in its published form
    with pytest.raises(ValueError, match="published form"):
        AlgoConfig("a-ogd", T=10, aggregation="per_constraint")
    # the Lagrangian follows from the variant, and is no setting
    assert AlgoConfig("clipped-ogd", T=10).lagrangian == "clipped"
    assert AlgoConfig("ogd", T=10).lagrangian == "plain"
    with pytest.raises(TypeError):
        AlgoConfig("mahdavi-ogd", T=10, lagrangian="clipped")
    for bad in (-1.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="eta_override"):
            AlgoConfig("clipped-ogd", T=10, eta_override=bad)
        with pytest.raises(ValueError, match="sigma_override"):
            AlgoConfig("mahdavi-ogd", T=10, sigma_override=bad)
    # aliases resolve
    assert AlgoConfig("ogd", T=10).variant == "mahdavi-ogd"
    assert AlgoConfig("strong", T=10).variant == "strong-clipped-ogd"


# ----------------------------------------------------------- hand steps


def _one_step(p, cfg):
    """The first kernel step of a run of cfg: the trace, whose row 0 is the
    start state, and the state after the step, its row 1."""
    (trace,) = advance(p, [cfg], [0])
    return trace, trace.x[1], trace.lam[1]


def test_clipped_ogd_hand_step():
    # f = x, g = x - 0.5, x_t = 0, lam = 0, eta = 0.1, sigma = 2
    p = _one_d_problem()
    cfg = AlgoConfig("clipped-ogd", T=10, eta_override=0.1, sigma_override=2.0)
    start, x, lam = _one_step(p, cfg)
    assert start.x[0, 0] == 0.0 and start.lam[0, 0] == 0.0
    assert x[0] == pytest.approx(-0.1, abs=1e-15)
    assert lam[0] == 0.0  # g(-0.1) = -0.6 < 0


def test_kernel_projects_step_whose_norm_overflows():
    # the step -eta * (3, 4) is finite but its squared norm overflows; the
    # kernel's ball projection must still land on the sphere, like project_ball
    p = ClosureProblem(
        2,
        [ConvexFn(lambda x: float(x[0] - 10.0), lambda x: np.array([1.0, 0.0]))],
        per_step(lambda s, t: ConvexFn(lambda x: float(3 * x[0] + 4 * x[1]), lambda x: np.array([3.0, 4.0]))),
        R=2.0,
    )
    cfg = AlgoConfig("clipped-ogd", T=10, eta_override=1e300, sigma_override=1.0)
    with np.errstate(over="ignore"):
        _, x, _ = _one_step(p, cfg)
    np.testing.assert_allclose(x, [-1.2, -1.6], rtol=1e-15)


def test_clipped_ogd_constant_loss_fixed_point():
    p = ClosureProblem(
        2,
        [ConvexFn(lambda x: float(x[0] - 0.5), lambda x: np.array([1.0, 0.0]))],
        per_step(lambda s, t: ConvexFn(lambda x: 1.0, lambda x: np.zeros(2))),
    )
    cfg = AlgoConfig("clipped-ogd", T=5)
    tr = run(p, cfg, seed=0)
    assert np.array_equal(tr.x, np.zeros((5, 2)))


def test_strong_schedule_values():
    # H1 = 1, m = 1, G = 2: eta_3 = 0.25, theta_3 = 0.25 * 2 * 4 = 2.0
    p = _one_d_problem(G=2.0, H1=1.0)
    etas, mus, thetas = Schedule(p, AlgoConfig("strong", T=10)).steps(1, 20)
    assert etas[0] == pytest.approx(0.5)  # 1/(2 H1)
    assert etas[2] == pytest.approx(0.25)
    assert thetas[2] == pytest.approx(2.0)
    assert all(b < a for a, b in zip(etas, etas[1:]))  # strictly decreasing


# (variant, beta, aggregation): a-ogd at the betas of the sweeps and
# checks, the others at both aggregations, which set m_eff
SCHEDULES = [("a-ogd", beta, "max") for beta in (0.3, 0.5, 0.6, 2.0 / 3.0)] + [
    (v, 0.5, a)
    for v in ("clipped-ogd", "strong-clipped-ogd", "mahdavi-ogd")
    for a in ("max", "per_constraint")
]


@pytest.mark.parametrize("variant,beta,aggregation", SCHEDULES)
def test_schedule_tables_equal_the_scalar_formulas(variant, beta, aggregation):
    # bit for bit, up to t = 40 000 and on ranges that start mid-stream; a-ogd's
    # powers are Python's scalar t ** e, which np.power does not match on
    # every step
    sched = Schedule(dispatch_problem(), AlgoConfig(variant, T=40000, beta=beta, aggregation=aggregation))
    for t0, t1 in ((1, 40001), (257, 513), (39990, 40001), (7, 8)):
        want = np.array([scalar_steps(sched, t) for t in range(t0, t1)]).T
        got = sched.steps(t0, t1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (t0, t1)


def test_strong_requires_H1():
    with pytest.raises(ValueError, match="H1"):
        Schedule(toy_problem(), AlgoConfig("strong", T=10))


def test_strong_feasible_iterate_zero_dual():
    p = _one_d_problem(H1=1.0, slope=0.0)
    _, _, lam = _one_step(p, AlgoConfig("strong", T=10))
    assert lam[0] == 0.0


def test_mahdavi_hand_step():
    # g = x - 0.5, x_t = 1, lam = 0, eta = 0.1, sigma = 2, plain Lagrangian:
    # lam' = Pi_{>=0}(0 + 0.1 * (0.5 - 0)) = 0.05
    p = _one_d_problem(R=2.0, slope=0.0, x0=1.0)
    cfg = AlgoConfig("mahdavi-ogd", T=10, eta_override=0.1, sigma_override=2.0)
    _, x, lam = _one_step(p, cfg)
    assert lam[0] == pytest.approx(0.05, abs=1e-15)
    assert x[0] == pytest.approx(1.0)  # zero loss, zero dual: x unchanged


def test_mahdavi_feasible_duals_stay_zero():
    p = _one_d_problem(slope=0.0)
    tr = run(p, AlgoConfig("mahdavi-ogd", T=10), seed=0)
    assert np.all(tr.lam == 0.0)


def test_aogd_hand_step_frozen():
    # schedule arithmetic done by hand: G=1, R=2, m_eff=1, alpha=.5, beta=.5,
    # T=16 -> eta0 = 1/sqrt(4) = 0.5, eta_x = eta0/T^.5 = 0.125,
    # sigma = 2 G^2 = 2, theta_1 = sigma*eta0 = 1, mu_1 = eta0 = 0.5;
    # from x=1 (g=0.5, lam=0, plain): lam' = 0.5*(0.5 - 1*0) = 0.25
    p = _one_d_problem(R=2.0, slope=0.0, x0=1.0)
    cfg = AlgoConfig("a-ogd", T=16)
    algo = Schedule(p, cfg)
    assert algo.eta0 == pytest.approx(0.5)
    assert algo.eta == pytest.approx(0.125)
    ((eta,), (mu,), (theta,)) = algo.steps(1, 2)
    assert eta == pytest.approx(0.125)
    assert theta == pytest.approx(1.0)  # theta_1
    assert mu == pytest.approx(0.5)  # mu_1
    _, _, lam = _one_step(p, cfg)
    assert lam[0] == pytest.approx(0.25, abs=1e-15)


def test_aogd_feasible_trajectory_keeps_zero_dual():
    p = _one_d_problem(slope=0.0)
    tr = run(p, AlgoConfig("a-ogd", T=20), seed=0)
    assert np.all(tr.lam == 0.0)


# ------------------------------------------------------------- run loop


def test_run_single_step():
    p = toy_problem()
    tr = run(p, AlgoConfig("clipped-ogd", T=1), seed=0)
    assert tr.T == 1
    assert np.array_equal(tr.x[0], np.zeros(2))
    assert np.all(tr.lam[0] == 0.0)


def test_run_deterministic_bitwise():
    p = toy_problem()
    cfg = AlgoConfig("clipped-ogd", T=400)
    a, b = run(p, cfg, seed=9), run(p, cfg, seed=9)
    for field in ("x", "fx", "g", "lam"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_run_lambda_identity_and_bounds():
    p = toy_problem()
    cfg = AlgoConfig("clipped-ogd", T=1000)
    tr = run(p, cfg, seed=3)
    # lambda identity on every row
    lhs = tr.lam[:, 0] * tr.sigma * tr.eta
    rhs = np.maximum(tr.g_agg[:, 0], 0.0)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
    # ball feasibility and dual nonnegativity
    assert np.linalg.norm(tr.x, axis=1).max() <= p.R * (1 + 1e-12)
    assert tr.lam.min() >= 0.0


def test_run_all_variants_respect_bounds():
    p = toy_problem()
    for variant in ("clipped-ogd", "mahdavi-ogd", "a-ogd"):
        tr = run(p, AlgoConfig(variant, T=500), seed=5)
        assert np.linalg.norm(tr.x, axis=1).max() <= p.R * (1 + 1e-12)
        assert tr.lam.min() >= 0.0
    ds = doubly_stochastic_problem(d=3)
    tr = run(ds, AlgoConfig("strong", T=500), seed=5)
    assert np.linalg.norm(tr.x, axis=1).max() <= ds.R * (1 + 1e-12)
    assert tr.lam.min() >= 0.0


def test_run_toy_follows_constraint_tightly():
    # qualitative check: after a burn-in of T/10 steps the per-step violation
    # of the l1 constraint stays small
    p = toy_problem()
    T = 8000
    tr = run(p, AlgoConfig("clipped-ogd", T=T, beta=0.5), seed=1)
    viol = np.maximum(tr.g_agg[T // 10 :, 0], 0.0)
    assert viol.max() <= 0.05


def test_run_abort_carries_step_index():
    def make_loss(seed, t):
        def sg(x):
            if t == 2:
                return np.array([np.nan])
            return np.array([1.0])

        return ConvexFn(lambda x: 0.0, sg)

    p = ClosureProblem(1, [ConvexFn(lambda x: float(x[0] - 10.0), lambda x: np.array([1.0]))], per_step(make_loss))
    with pytest.raises(RunError) as ei:
        run(p, AlgoConfig("clipped-ogd", T=5), seed=0)
    assert ei.value.step == 3  # t is 1-based; loss index 2 is step 3


@st.composite
def lambda_identity_cases(draw):
    """A problem, a reference.ClosureProblem with random affine or
    quadratic constraints and linear losses, or built in."""
    name = draw(st.sampled_from(["random", "toy", "ds3", "dispatch"]))
    if name == "toy":
        return toy_problem()
    if name == "ds3":
        return doubly_stochastic_problem(d=3)
    if name == "dispatch":
        return dispatch_problem()
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coef = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    gs = []
    for _ in range(m):
        c = np.array(draw(st.lists(coef, min_size=n, max_size=n)))
        b = draw(coef)
        if draw(st.booleans()):
            gs.append(ConvexFn(lambda x, c=c, b=b: float(x @ x + c @ x + b), lambda x, c=c: 2.0 * x + c))
        else:
            gs.append(ConvexFn(lambda x, c=c, b=b: float(c @ x + b), lambda x, c=c: c))

    def make_loss(seed, t):
        c = np.random.default_rng((seed, t)).standard_normal(n)
        return ConvexFn(lambda x: float(c @ x), lambda x: c)

    return ClosureProblem(n, gs, per_step(make_loss), R=draw(st.floats(0.5, 3.0)))


@settings(max_examples=60, deadline=None)
@given(
    lambda_identity_cases(),
    st.sampled_from(["max", "per_constraint"]),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.floats(1e-3, 1e2)),
    st.one_of(st.none(), st.floats(1e-3, 1e2)),
)
def test_lambda_identity_on_random_problems(p, aggregation, T, seed, eta, sigma):
    # the clipped-ogd dual is the explicit maximizer: lam sigma eta = [g]_+
    # at every step, within acceptance check 1's tolerance
    cfg = AlgoConfig("clipped-ogd", T=T, aggregation=aggregation, eta_override=eta, sigma_override=sigma)
    tr = run(p, cfg, seed)
    err = np.abs(tr.lam * tr.sigma * tr.eta - np.maximum(tr.g_agg, 0.0)).max()
    assert err <= 1e-12


def test_per_constraint_duals_on_dispatch():
    p = dispatch_problem()
    cfg = AlgoConfig("clipped-ogd", T=50, aggregation="per_constraint")
    tr = run(p, cfg, seed=0)
    assert tr.lam.shape == (50, p.m)
    lhs = tr.lam * tr.sigma * tr.eta
    np.testing.assert_allclose(lhs, np.maximum(tr.g, 0.0), atol=1e-12)


def test_degenerates_to_projected_ogd_bitwise():
    # slack constraint that never binds inside the ball: the clipped
    # algorithm must reproduce plain projected OGD exactly
    p_slack = toy_problem(l1_radius=10.0)
    cfg = AlgoConfig("clipped-ogd", T=300)
    tr = run(p_slack, cfg, seed=4)
    assert np.all(tr.lam == 0.0)
    ref = projected_ogd_run(p_slack, seed=4, T=300, eta=tr.eta)
    assert np.array_equal(tr.x, ref)

