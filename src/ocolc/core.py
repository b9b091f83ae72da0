"""Vector primitives: convex functions and the ball projection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


class ConvexFn:
    """A convex function with a subgradient oracle.

    Wraps an evaluator ``f(x) -> float`` and a subgradient map
    ``subgrad(x) -> ndarray``. ``eval_many``, if given, evaluates a batch of
    points (k, n) -> (k,) and must agree with ``eval`` row by row; it lets
    the grid oracle evaluate a loss without a Python call per point.
    """

    __slots__ = ("eval", "subgrad", "eval_many")

    def __init__(
        self,
        eval: Callable[[Vector], float],
        subgrad: Callable[[Vector], Vector],
        eval_many: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        self.eval = eval
        self.subgrad = subgrad
        self.eval_many = eval_many

    def __call__(self, x: Vector) -> float:
        return self.eval(x)


@dataclass(frozen=True)
class BallDomain:
    """Euclidean ball of given radius centered at the origin."""

    radius: float
    dim: int

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")


def project_ball(x: Vector, dom: BallDomain) -> Vector:
    """Euclidean projection onto the ball: rescale iff ||x|| exceeds the radius."""
    nrm = float(np.linalg.norm(x))
    if nrm <= dom.radius:
        return x
    if not math.isfinite(nrm):
        if not np.all(np.isfinite(x)):
            raise ValueError("cannot project non-finite vector")
        # finite, but the squared norm overflows: scale down before the norm
        x = x / np.max(np.abs(x))
        nrm = float(np.linalg.norm(x))
    return x * (dom.radius / nrm)

