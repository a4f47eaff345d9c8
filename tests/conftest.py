import pytest
from hypothesis import settings

from powertrack import Grid, preset

# Every property test runs without a per-example deadline (examples vary
# widely in size) and without an example database (runs stay independent).
settings.register_profile("powertrack", deadline=None, database=None)
settings.load_profile("powertrack")


@pytest.fixture(scope="session")
def ps1():
    return preset("PS1").params


@pytest.fixture(scope="session")
def ps2():
    return preset("PS2").params


@pytest.fixture(scope="session")
def ps3():
    return preset("PS3").params


@pytest.fixture(scope="session")
def ps_grid():
    """The lattice shared by PS1-PS3: speed 4, dx 0.1, horizon 1, Courant 1."""
    return Grid.make(4.0, 0.1, 1.0)
