import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ocolc.core import BallDomain, ConvexFn, project_ball
from ocolc.validation import central_differences

from reference import clip_pos, clipped_subgrad, fd_grad, lagrangian_grad_x

B2 = BallDomain(radius=1.0, dim=2)


def test_project_ball_interior_unchanged():
    x = np.array([0.3, 0.4])
    assert np.array_equal(project_ball(x, B2), x)


def test_project_ball_scales_onto_sphere():
    got = project_ball(np.array([3.0, 4.0]), B2)
    np.testing.assert_allclose(got, [0.6, 0.8], rtol=0, atol=1e-15)


def test_project_ball_origin_fixed():
    got = project_ball(np.zeros(3), BallDomain(radius=5.0, dim=3))
    assert np.array_equal(got, np.zeros(3))


def test_project_ball_rejects_nonfinite():
    with pytest.raises(ValueError):
        project_ball(np.array([np.nan, 0.0]), B2)
    with pytest.raises(ValueError):
        project_ball(np.array([np.inf, 0.0]), B2)


def test_project_ball_finite_vector_with_overflowing_norm():
    # ||x||^2 overflows to inf although x is finite: still a projection, not
    # the centre
    with np.errstate(over="ignore"):
        assert np.array_equal(project_ball(np.array([1e200, 0.0]), BallDomain(1, 2)), [1.0, 0.0])
        got = project_ball(np.array([-3e300, 4e300]), BallDomain(2.0, 2))
    np.testing.assert_allclose(got, [-1.2, 1.6], rtol=1e-15)


def test_project_ball_idempotent(rng):
    for _ in range(200):
        x = rng.normal(size=3) * 10
        dom = BallDomain(radius=float(rng.uniform(0.1, 5.0)), dim=3)
        once = project_ball(x, dom)
        twice = project_ball(once, dom)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)


def test_project_ball_nonexpansive(rng):
    # contraction property on >= 10^3 random pairs
    for _ in range(1000):
        x = rng.normal(size=4) * 5
        y = rng.normal(size=4) * 5
        px, py = project_ball(x, BallDomain(2.0, 4)), project_ball(y, BallDomain(2.0, 4))
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


@st.composite
def ball_and_points(draw):
    dim = draw(st.integers(1, 6))
    radius = draw(st.floats(1e-3, 1e3))
    points = hnp.arrays(float, dim, elements=st.floats(-1e6, 1e6))
    return BallDomain(radius=radius, dim=dim), draw(points), draw(points)


@settings(max_examples=300, deadline=None)
@given(ball_and_points())
def test_project_ball_idempotent_and_nonexpansive_property(case):
    # hypothesis favors zeros, ties and points on or near the sphere
    dom, x, y = case
    px, py = project_ball(x, dom), project_ball(y, dom)
    assert np.linalg.norm(px) <= dom.radius * (1.0 + 1e-12)
    np.testing.assert_allclose(project_ball(px, dom), px, rtol=1e-15, atol=1e-15 * dom.radius)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) * (1.0 + 1e-12) + 1e-12 * dom.radius


def test_clip_pos():
    assert clip_pos(-2.5) == 0.0
    assert clip_pos(0.0) == 0.0
    assert clip_pos(1.7) == 1.7


def _linear_constraint():
    # g(x) = x1 - 1
    return ConvexFn(lambda x: float(x[0] - 1.0), lambda x: np.array([1.0, 0.0]))


def test_clipped_subgrad_zero_when_feasible():
    g = _linear_constraint()
    assert np.array_equal(clipped_subgrad(g, np.zeros(2)), np.zeros(2))


def test_clipped_subgrad_passthrough_when_violated():
    g = _linear_constraint()
    assert np.array_equal(clipped_subgrad(g, np.array([2.0, 0.0])), [1.0, 0.0])


def test_clipped_subgrad_l1_sign_vector():
    g = ConvexFn(lambda x: float(np.abs(x).sum() - 1.0), lambda x: np.sign(x))
    x = np.array([0.8, 0.8])
    got = clipped_subgrad(g, x)
    assert np.array_equal(got, [1.0, 1.0])
    # away from kinks the sign vector is the true gradient
    fd = fd_grad(g, x, h=1e-6)
    np.testing.assert_allclose(got, fd, rtol=1e-6)


def test_clipped_subgrad_zero_iff_feasible(rng):
    g = ConvexFn(lambda x: float(np.abs(x).sum() - 1.0), lambda x: np.sign(x))
    for _ in range(300):
        x = rng.uniform(-1.5, 1.5, size=2)
        is_zero = np.all(clipped_subgrad(g, x) == 0.0)
        assert is_zero == (g.eval(x) <= 0.0)


def test_lagrangian_grad_zero_duals_is_loss_subgrad():
    f = ConvexFn(lambda x: float(0.5 * x @ x), lambda x: x)
    g = _linear_constraint()
    x = np.array([0.5, -0.2])
    got = lagrangian_grad_x(f, [g], x, np.zeros(1))
    assert np.array_equal(got, x)


def test_lagrangian_grad_feasible_ignores_duals():
    f = ConvexFn(lambda x: float(0.5 * x @ x), lambda x: x)
    g = _linear_constraint()
    x = np.array([0.5, -0.2])  # g(x) = -0.5 <= 0
    got = lagrangian_grad_x(f, [g], x, np.array([7.0]))
    assert np.array_equal(got, x)


def test_lagrangian_grad_hand_case():
    # f = 0.5||x||^2, g = x1 - 1, x = (2, 0), lambda = 3 -> (2,0) + (3,0)
    f = ConvexFn(lambda x: float(0.5 * x @ x), lambda x: x)
    g = _linear_constraint()
    x = np.array([2.0, 0.0])
    got = lagrangian_grad_x(f, [g], x, np.array([3.0]))
    np.testing.assert_allclose(got, [5.0, 0.0], rtol=0, atol=0)
    # cross-check against finite differences of f + 3*[g]_+ (smooth at x)
    lag = ConvexFn(
        lambda y: float(0.5 * y @ y + 3.0 * max(0.0, y[0] - 1.0)),
        lambda y: None,
    )
    fd = fd_grad(lag, x, h=1e-6)
    np.testing.assert_allclose(got, fd, rtol=1e-6)


def test_lagrangian_grad_rejects_negative_dual():
    f = ConvexFn(lambda x: 0.0, lambda x: np.zeros(2))
    with pytest.raises(ValueError):
        lagrangian_grad_x(f, [_linear_constraint()], np.zeros(2), np.array([-1e-9]))


def test_lagrangian_grad_norm_bound(rng):
    # ||grad|| <= G (1 + sum lam) with G bounding every member subgradient
    G = np.sqrt(2.0)
    f = ConvexFn(lambda x: float(np.abs(x).sum()), lambda x: np.sign(x))
    gs = [
        ConvexFn(lambda x: float(np.abs(x).sum() - 0.25), lambda x: np.sign(x)),
        ConvexFn(lambda x: float(x[0] - 0.1), lambda x: np.array([1.0, 0.0])),
    ]
    for _ in range(300):
        x = rng.uniform(-1, 1, size=2)
        lam = rng.uniform(0, 3, size=2)
        nrm = np.linalg.norm(lagrangian_grad_x(f, gs, x, lam))
        assert nrm <= G * (1.0 + lam.sum()) + 1e-12


# central_differences(f, X): the (B, k, n) Jacobians of a batched map
# f: (B, n) -> (B, k), one row per point


def test_finite_diff_quadratic():
    X = np.array([[1.0, 2.0], [-0.5, 0.0]])
    got = central_differences(lambda Y: 0.5 * np.sum(Y * Y, axis=1, keepdims=True), X, h=1e-5)
    np.testing.assert_allclose(got, X[:, None, :], atol=1e-6)


def test_finite_diff_linear():
    C = np.array([[0.3, -1.7, 2.0], [1.0, 0.0, -0.5]])  # two outputs
    X = np.array([[0.4, 0.1, -2.0], [3.0, -1.0, 0.5]])
    got = central_differences(lambda Y: Y @ C.T, X, h=1e-4)
    np.testing.assert_allclose(got, np.broadcast_to(C, (2, 2, 3)), atol=1e-9)


def test_finite_diff_at_minimum():
    y = np.array([0.2, -0.4, 1.0, 0.0])
    got = central_differences(lambda Y: 0.5 * np.sum((Y - y) ** 2, axis=1, keepdims=True), y[None], h=1e-6)
    np.testing.assert_allclose(got, np.zeros((1, 1, 4)), atol=1e-9)


def test_ball_domain_validation():
    with pytest.raises(ValueError):
        BallDomain(radius=0.0, dim=2)
    with pytest.raises(ValueError):
        BallDomain(radius=1.0, dim=0)
