import pytest

from igasolve import bench


@pytest.fixture(autouse=True)
def fresh_discretisation_memo():
    """Each test starts, and leaves, with no discretisation held by ``run_cell``,
    so counts of setup layers and reuse never depend on the test before."""
    bench._held.clear()
    yield
    bench._held.clear()
