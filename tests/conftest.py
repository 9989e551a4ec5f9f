import numpy as np
import pytest

from levyfield import grids
from levyfield.model import JumpLaw, SimpleKernel, WeightH


@pytest.fixture
def no_direct_sum(monkeypatch):
    """grids._direct_sum made to raise, for routing tests: the reference sum
    serves the tests alone.  A test module's own imported name keeps the
    real sum for its references."""

    def refuse(*args):
        raise AssertionError("the direct sum was reached")

    monkeypatch.setattr(grids, "_direct_sum", refuse)


@pytest.fixture
def bench_kernel() -> SimpleKernel:
    """The benchmark kernel: coefficients (1.3, 0.2, 0.1, 0.1) on a 2x2
    block of unit lattice cells."""
    return SimpleKernel(
        coeffs=np.array([1.3, 0.2, 0.1, 0.1]),
        offsets=np.array([[0, 0], [1, 0], [0, 1], [1, 1]]),
    )


@pytest.fixture
def h_linear() -> WeightH:
    return WeightH(beta=1.0, signed=True)


@pytest.fixture
def gaussian_law() -> JumpLaw:
    return JumpLaw.gaussian()


@pytest.fixture
def exponential_law() -> JumpLaw:
    return JumpLaw.exponential()
