import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# every test run draws the same examples: derived from each test, not from
# the clock or from an example database an earlier run left behind
settings.register_profile("tier1", derandomize=True, database=None)
# fresh random examples on every run, for a separate search that Tier-1's
# result does not depend on: pytest --hypothesis-profile=random-search
settings.register_profile("random-search", derandomize=False, database=None)
settings.load_profile("tier1")


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
