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


@pytest.fixture(scope="session")
def complex_xi_levels():
    """The xi-route chain of two levels from B0 = x^2, eta0 = 4 x^2, h = 1,
    f = 0 on the orbit of x -> x/2 from 1, with the complex step constant
    d = 1 + 0.5j: level 0 holds real data and a complex (g, d), level 1
    complex data (eta = 0.8 - 0.4j at the base)."""
    from taucalc import GridFunction, build_chain, make_level
    from taucalc import particular_gauge_xi

    grid = build_grid(linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=25)
    x, one = GridFunction.identity(grid), GridFunction.constant(grid, 1.0)
    d = 1.0 + 0.5j
    return build_chain(
        make_level(x * x, 4.0 * x * x, one, GridFunction.constant(grid, 0.0)),
        2, one, lambda lvl: (particular_gauge_xi(lvl, d, xi0=14.0)[1], 0.0, d))
