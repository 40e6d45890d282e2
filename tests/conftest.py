import pytest

from fracblow.pv import PVQuadratureConfig


@pytest.fixture(scope="session")
def quad():
    return PVQuadratureConfig()

