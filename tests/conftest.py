"""Shared test oracles."""

import math

import numpy as np
import pytest

from jdsmooth.errors import DegenerateDesignError, SparseRegionError
from jdsmooth.kernels import KernelFamily, gamma_kernel, gaussian_kernel


def reference_curvature(triples, target, kernel, x):
    """The local cubic's second derivative at x, one point at a time.

    Pilot bandwidth 2h; weights from the scalar kernels (Gamma weight 0 at
    data below the support); each power sum is ``math.fsum`` of the
    iterated products k t t ..., k y t ... with t = (d - x) / max |d - x|
    over the weighted points; the 4x4 moment system goes to
    ``np.linalg.solve`` unless its singular values fall 12 decades apart.
    Raises what the estimator raises, with the same message.
    """
    h = 2.0 * kernel.bandwidth
    u, d = triples.weight_points, triples.design_points
    y = triples.response(target)
    if kernel.family is KernelFamily.GAMMA:
        if x < 0:
            raise ValueError(
                f"Gamma kernel evaluation point must be nonnegative, got {x!r}"
            )
        k = np.zeros(u.size)
        k[u >= 0] = gamma_kernel(u[u >= 0], x, h)
    else:
        k = gaussian_kernel(u, x, h)
    if not k.max() > 1e-300:
        raise SparseRegionError(x)
    dx = d - x
    scale = np.abs(dx[k > 0]).max()
    if not scale > 0:
        raise DegenerateDesignError(f"no design spread around x={x:g}")
    t = dx / scale
    powers, ky = [k], [k * y]
    for _ in range(6):
        powers.append(powers[-1] * t)
    for _ in range(3):
        ky.append(ky[-1] * t)
    s = [math.fsum(list(p)) for p in powers]
    moment = np.array([[s[a + b] for b in range(4)] for a in range(4)])
    sv = np.linalg.svd(moment, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise DegenerateDesignError(f"local cubic design is rank deficient at x={x:g}")
    coef = np.linalg.solve(moment, [math.fsum(list(p)) for p in ky])
    return float(2.0 * coef[2] / (scale * scale))


@pytest.fixture
def curvature_oracle():
    return reference_curvature
