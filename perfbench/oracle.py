"""Exact degree-N Bergman kernel of an ellipse, independent of metriclab.

For the ellipse with semi-axes a > b and foci +-c, c = sqrt(a^2 - b^2), the
Chebyshev polynomials of the second kind U_n(z/c) are orthogonal in the area
inner product, with squared norms

    h_n = pi c^2 (R^(2n+2) - R^(-2n-2)) / (4 (n + 1)),   R = (a + b) / c.

So K_N(z, z) = sum_{n <= N} |U_n(z/c)|^2 / h_n is the exact diagonal of the
degree-N kernel that a finite-degree fit approximates, and the metric density
rho_N = sqrt(d^2 log K_N / dz dzbar) follows from the same sums.
"""

import math

import numpy as np


def _chebyshev_u(x: np.ndarray, degree: int):
    """U_n(x) and dU_n/dx for n = 0..degree; arrays of shape x.shape + (N+1,)."""
    u = np.empty(x.shape + (degree + 1,), dtype=complex)
    du = np.empty_like(u)
    u[..., 0], du[..., 0] = 1.0, 0.0
    if degree >= 1:
        u[..., 1], du[..., 1] = 2.0 * x, 2.0
    for n in range(1, degree):
        u[..., n + 1] = 2.0 * x * u[..., n] - u[..., n - 1]
        du[..., n + 1] = 2.0 * u[..., n] + 2.0 * x * du[..., n] - du[..., n - 1]
    return u, du


def ellipse_kernel_oracle(a: float, b: float, degree: int, z):
    """(K_N(z, z), rho_N(z)) for the ellipse x^2/a^2 + y^2/b^2 < 1, a > b."""
    c = math.sqrt(a * a - b * b)
    R = (a + b) / c
    n = np.arange(degree + 1)
    h = math.pi * c * c * (R ** (2 * n + 2) - R ** (-2 * n - 2)) / (4 * (n + 1))
    u, du = _chebyshev_u(np.asarray(z, dtype=complex) / c, degree)
    p = u / np.sqrt(h)
    dp = du / (c * np.sqrt(h))
    K = np.sum(np.abs(p) ** 2, axis=-1)
    Kz = np.sum(dp * np.conj(p), axis=-1)
    Kzz = np.sum(np.abs(dp) ** 2, axis=-1)
    rho = np.sqrt((K * Kzz - np.abs(Kz) ** 2) / (K * K))
    return K, rho
