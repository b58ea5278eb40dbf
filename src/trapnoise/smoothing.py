"""Natural cubic smoothing splines with GCV-chosen smoothing.

Minimises sum_i ((y_i - f(x_i))/sigma_i)^2 + lam * int f''(x)^2 dx over
natural cubic splines with knots at the data.  Dense linear algebra is fine
at the data sizes involved (tens of points); the influence-matrix trace
feeds generalised cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import DomainError

__all__ = ["SmoothingSpline", "fit_smoothing_spline"]


def _bands(x: np.ndarray):
    """Reinsch matrices: R (curvature Gram) and Q (second-difference map)."""
    n = x.size
    h = np.diff(x)
    r = np.zeros((n - 2, n - 2))
    q = np.zeros((n, n - 2))
    for i in range(n - 2):
        r[i, i] = (h[i] + h[i + 1]) / 3.0
        if i + 1 < n - 2:
            r[i, i + 1] = r[i + 1, i] = h[i + 1] / 6.0
        q[i, i] = 1.0 / h[i]
        q[i + 1, i] = -1.0 / h[i] - 1.0 / h[i + 1]
        q[i + 2, i] = 1.0 / h[i + 1]
    return r, q


@dataclass
class SmoothingSpline:
    x: np.ndarray
    values: np.ndarray          # fitted knot values
    second_derivs: np.ndarray   # full length, zero at both ends (natural)
    lam: float
    gcv: float
    influence_trace: float

    def _segments(self, xq):
        xq = np.asarray(xq, dtype=float)
        idx = np.clip(np.searchsorted(self.x, xq) - 1, 0, self.x.size - 2)
        x0 = self.x[idx]
        x1 = self.x[idx + 1]
        h = x1 - x0
        a = (x1 - xq) / h
        b = (xq - x0) / h
        return idx, h, a, b

    def __call__(self, xq):
        idx, h, a, b = self._segments(xq)
        f0, f1 = self.values[idx], self.values[idx + 1]
        m0, m1 = self.second_derivs[idx], self.second_derivs[idx + 1]
        return (
            a * f0 + b * f1
            + ((a**3 - a) * m0 + (b**3 - b) * m1) * h**2 / 6.0
        )

    def derivative(self, xq):
        idx, h, a, b = self._segments(xq)
        f0, f1 = self.values[idx], self.values[idx + 1]
        m0, m1 = self.second_derivs[idx], self.second_derivs[idx + 1]
        return (
            (f1 - f0) / h
            - (3.0 * a**2 - 1.0) * h * m0 / 6.0
            + (3.0 * b**2 - 1.0) * h * m1 / 6.0
        )


def _solve_at(lam, w, k, y, r_mat, q):
    n = y.size
    a_mat = np.diag(w) + lam * k
    f = np.linalg.solve(a_mat, w * y)
    influence = np.linalg.solve(a_mat, np.diag(w))
    trace = float(np.trace(influence))
    rss = float(np.sum(w * (y - f) ** 2))
    denom = max(1.0 - trace / n, 1e-12)
    gcv = (rss / n) / denom**2
    gamma_int = np.linalg.solve(r_mat, q.T @ f)
    m = np.zeros(n)
    m[1:-1] = gamma_int
    return f, m, rss, trace, gcv


def fit_smoothing_spline(x, y, sigma=None, lam: float | None = None) -> SmoothingSpline:
    """Fit; ``lam=None`` selects smoothing by generalised cross-validation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise DomainError(f"need at least 4 points, got {x.size}")
    if np.any(np.diff(x) <= 0.0):
        raise DomainError("x must be strictly increasing")
    sigma = np.ones_like(y) if sigma is None else np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0):
        raise DomainError("sigma must be > 0")

    w = 1.0 / sigma**2
    r_mat, q = _bands(x)
    k = q @ np.linalg.solve(r_mat, q.T)

    if lam is not None:
        if lam < 0.0:
            raise DomainError(f"lam must be >= 0, got {lam}")
        f, m, rss, trace, gcv = _solve_at(lam, w, k, y, r_mat, q)
        return SmoothingSpline(x, f, m, lam, gcv, trace)

    lam_ref = np.trace(np.diag(w)) / max(np.trace(k), 1e-300)
    grid = lam_ref * np.logspace(-8.0, 8.0, 49)
    best = None
    for lam_try in grid:
        sol = _solve_at(lam_try, w, k, y, r_mat, q)
        if best is None or sol[4] < best[1][4]:
            best = (lam_try, sol)
    lam_best, (f, m, rss, trace, gcv) = best
    return SmoothingSpline(x, f, m, float(lam_best), gcv, trace)
