"""Bitwise checks of the numpy-only kernels against their scipy originals.

scipy is a test-only reference here: the package itself never imports it.
"""

import math

import numpy as np
import pytest

from paraflux.audit import _hardy_transform
from paraflux.testbank import _erf

special = pytest.importorskip("scipy.special")
signal = pytest.importorskip("scipy.signal")


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _smoothed_step_arguments():
    """Every erf argument smoothed_step evaluates at 16..512 points."""
    args = []
    P = 2.0 * math.pi
    a, b = P / 4.0, 3.0 * P / 4.0
    for size in (16, 32, 64, 128, 256, 512):
        x = np.arange(size) * (P / size)
        for w in (0.25, 0.5):
            for wrap in range(-2, 3):
                shift = wrap * P
                args.append((x - a + shift) / (math.sqrt(2.0) * w))
                args.append((x - b + shift) / (math.sqrt(2.0) * w))
    return np.concatenate(args)


def test_erf_matches_scipy_bitwise():
    dense = np.linspace(-30.0, 30.0, 600001)
    edges = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), 8.0,
                      -8.0, np.nextafter(8.0, 0.0), 5e-324, 1e-300])
    x = np.concatenate([dense, edges, _smoothed_step_arguments()])
    assert np.array_equal(_bits(_erf(x)), _bits(special.erf(x)))


@pytest.mark.parametrize("columns", [48, 6, 64])
def test_hardy_transform_matches_lfilter_bitwise(columns):
    rng = np.random.default_rng(columns)
    eps = np.abs(rng.standard_normal((200, columns)))
    eps[::3] = np.exp(2.0 * rng.standard_normal((len(eps[::3]), columns)))
    for gamma in (0.3, 0.5, 0.9):
        want = signal.lfilter([1.0], [1.0, -gamma], eps, axis=-1)
        assert np.array_equal(_bits(_hardy_transform(eps, gamma)),
                              _bits(want))
        one = eps[0]
        want = signal.lfilter([1.0], [1.0, -gamma], one)
        assert np.array_equal(_bits(_hardy_transform(one, gamma)),
                              _bits(want))
