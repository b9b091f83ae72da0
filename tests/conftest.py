import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ocolc.core import BallDomain, ConvexFn
from ocolc.problems import ProblemSpec

from reference import ClosureArrays

# every test run draws the same examples: derived from each test, not from
# the clock or from an example database an earlier run left behind
settings.register_profile("tier1", derandomize=True, database=None)
# fresh random examples on every run, for a separate search that Tier-1's
# result does not depend on: pytest --hypothesis-profile=random-search
settings.register_profile("random-search", derandomize=False, database=None)
settings.load_profile("tier1")


def make_problem(n, gs, R=1.0, G=1.0, H1=None, make_loss=None, name="inline"):
    """Assemble a minimal ProblemSpec for unit tests from per-point closures.

    make_loss(seed, t) -> ConvexFn; defaults to the zero loss. Streams built
    this way have no RNG, so determinism is trivial.
    """
    if make_loss is None:
        def make_loss(seed, t):
            return ConvexFn(lambda x: 0.0, lambda x: np.zeros(n))

    def losses(seed, T):
        return [make_loss(seed, t) for t in range(T)]

    def mean_loss(seed, T):
        fs = losses(seed, T)

        def ev(x):
            return sum(f.eval(x) for f in fs) / len(fs)

        def sg(x):
            out = np.zeros(n)
            for f in fs:
                out += f.subgrad(x)
            return out / len(fs)

        return ConvexFn(ev, sg)

    return ProblemSpec(
        name=name,
        n=n,
        dom=BallDomain(radius=R, dim=n),
        G=G,
        H1=H1,
        mean_loss=mean_loss,
        arrays=ClosureArrays(gs, losses),
    )


def perfbench_module(name):
    """A module of the benchmark harness, loaded from its file without
    adding ``perfbench/`` to the import path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
