"""Unit tests for the CUBLAS-subset layer."""

import numpy as np
import pytest

from repro.gpu import Cublas, DeviceError, SimulatedDevice


@pytest.fixture
def dev():
    return SimulatedDevice()


@pytest.fixture
def blas(dev):
    return Cublas(dev)


class TestDcopy:
    def test_copies(self, dev, blas, rng):
        a = dev.set_matrix(rng.normal(size=(6, 6)))
        b = dev.alloc((6, 6))
        blas.dcopy(a, b)
        np.testing.assert_array_equal(dev.get_matrix(b), dev.get_matrix(a))

    def test_shape_mismatch(self, dev, blas):
        with pytest.raises(DeviceError):
            blas.dcopy(dev.alloc((2, 2)), dev.alloc((3, 3)))

    def test_foreign_device_rejected(self, dev, blas):
        other = SimulatedDevice()
        with pytest.raises(DeviceError):
            blas.dcopy(other.alloc((2, 2)), dev.alloc((2, 2)))


class TestDscal:
    def test_whole_array(self, dev, blas, rng):
        host = rng.normal(size=(4, 5))
        a = dev.set_matrix(host)
        blas.dscal(2.5, a)
        np.testing.assert_allclose(dev.get_matrix(a), 2.5 * host)

    def test_single_row(self, dev, blas, rng):
        host = rng.normal(size=(4, 5))
        a = dev.set_matrix(host)
        blas.dscal(-3.0, a, row=2)
        expected = host.copy()
        expected[2] *= -3.0
        np.testing.assert_allclose(dev.get_matrix(a), expected)

    def test_row_out_of_range(self, dev, blas):
        with pytest.raises(DeviceError):
            blas.dscal(1.0, dev.alloc((3, 3)), row=3)

    def test_each_call_is_a_launch(self, dev, blas, rng):
        a = dev.set_matrix(rng.normal(size=(8, 8)))
        before = dev.kernel_launches
        for j in range(8):
            blas.dscal(2.0, a, row=j)
        assert dev.kernel_launches - before == 8  # the Algorithm 4 storm
