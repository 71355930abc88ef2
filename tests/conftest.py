import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from taucalc import SEMIGROUP, build_grid, linear_map  # noqa: E402


@pytest.fixture(scope="session")
def qgrid():
    """A moderate semigroup orbit of tau(x) = 0.5 x from base 1."""
    return build_grid(linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=30)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240824)


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child interpreter that imports taucalc from src/."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
