"""Session-scoped enumeration fixtures shared across test modules.

The larger sets are expensive enough to be worth computing once; every
consumer treats them as immutable.
"""

import pytest

from extremeforms.search import (
    BudgetExceeded,
    extreme_points,
    planar_extreme_points,
)


@pytest.fixture(scope="session")
def set22():
    return extreme_points(2, 2)


@pytest.fixture(scope="session")
def set32():
    return extreme_points(3, 2)


@pytest.fixture(scope="session")
def set23():
    return extreme_points(2, 3)


@pytest.fixture(scope="session")
def partial24():
    """The 320-point partial (2,4) set that a 25-basis budget reaches."""
    with pytest.raises(BudgetExceeded) as info:
        extreme_points(2, 4, budget=25)
    return info.value.partial


@pytest.fixture(scope="session")
def planar2():
    return planar_extreme_points(2)


@pytest.fixture(scope="session")
def planar3():
    return planar_extreme_points(3)


@pytest.fixture(scope="session")
def planar4():
    return planar_extreme_points(4)
