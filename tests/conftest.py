import pytest

from fracblow.pv import PVQuadratureConfig, normalization_constant


@pytest.fixture(scope="session")
def quad():
    return PVQuadratureConfig()


@pytest.fixture(scope="session")
def b1():
    return normalization_constant(1).value


@pytest.fixture(scope="session")
def b2():
    return normalization_constant(2).value
