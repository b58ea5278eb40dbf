"""Natural cubic smoothing splines with GCV-chosen smoothing.

Minimises sum_i ((y_i - f(x_i))/sigma_i)^2 + lam * int f''(x)^2 dx over
natural cubic splines with knots at the data.  With R = L L^T and
C = L^-1 Q^T (Reinsch), one SVD G = sigma C^T = U S V^T gives everything:
the generalised cross-validation score (Craven & Wahba 1979) of every grid
lam in closed form, the fitted knot values and f'' at the knots, all without
a solve of W + lam K.  The fit is linear in y, and the spline keeps those
linear maps, so ``SmoothingSpline.refit`` fits new data vectors, or a whole
stack of them, at the same x, sigma and lam with no new factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import DomainError

__all__ = ["SmoothingSpline", "fit_smoothing_spline"]


def _bands(x: np.ndarray):
    """Reinsch matrices: R (curvature Gram) and Q (second-difference map)."""
    h = np.diff(x)
    off = np.diag(h[1:-1] / 6.0, 1)
    r = np.diag((h[:-1] + h[1:]) / 3.0) + off + off.T
    q = np.zeros((x.size, x.size - 2))
    i = np.arange(x.size - 2)
    q[i, i] = 1.0 / h[:-1]
    q[i + 1, i] = -1.0 / h[:-1] - 1.0 / h[1:]
    q[i + 2, i] = 1.0 / h[1:]
    return r, q


def _gcv(n: int, rho, z):
    """GCV score n |U diag(rho) z|^2 / trace(I - A)^2, broadcast over rho and z."""
    return (n * ((rho * z) ** 2).sum(axis=-1)
            / np.maximum(rho.sum(axis=-1), 1e-12 * n) ** 2)


@dataclass
class SmoothingSpline:
    x: np.ndarray
    values: np.ndarray          # fitted knot values, [..., knot] after a stacked refit
    second_derivs: np.ndarray   # same shape, zero at both ends (natural)
    lam: float
    gcv: float | np.ndarray     # a float, or one per refit data vector
    influence_trace: float
    # the fit at lam as maps of z = U^T (y / sigma), which refit applies to
    # new data; None on a spline built from given knot values
    sigma: np.ndarray | None = None
    u: np.ndarray | None = None
    rho: np.ndarray | None = None        # residual gains lam s^2 / (1 + lam s^2)
    curv_gain: np.ndarray | None = None  # s / (1 + lam s^2)
    curv_map: np.ndarray | None = None   # L^-T V

    def refit(self, y) -> SmoothingSpline:
        """Fit ``y``, one data vector or a stack along leading axes, at this
        spline's x, sigma and lam with no new factorisation or SVD."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1:] != self.x.shape or not np.isfinite(y).all():
            raise DomainError(f"y must be finite with {self.x.size} points on its "
                              f"last axis, got shape {y.shape}")
        # on y / sigma the residual map is U diag(rho) U^T, and f'' inside is
        # R^-1 Q^T f = L^-T G^T (f / sigma) = L^-T V diag(s / (1 + lam s^2)) z
        z = (y / self.sigma) @ self.u
        values = y - self.sigma * ((self.rho * z) @ self.u.T)
        second = np.zeros_like(values)
        second[..., 1:-1] = (self.curv_gain * z) @ self.curv_map.T
        return replace(self, values=values, second_derivs=second,
                       gcv=_gcv(self.x.size, self.rho, z)[()])

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
        f0, f1 = self.values[..., idx], self.values[..., idx + 1]
        m0, m1 = self.second_derivs[..., idx], self.second_derivs[..., idx + 1]
        return (
            a * f0 + b * f1
            + ((a**3 - a) * m0 + (b**3 - b) * m1) * h**2 / 6.0
        )

    def derivative(self, xq):
        idx, h, a, b = self._segments(xq)
        f0, f1 = self.values[..., idx], self.values[..., idx + 1]
        m0, m1 = self.second_derivs[..., idx], self.second_derivs[..., idx + 1]
        return (
            (f1 - f0) / h
            - (3.0 * a**2 - 1.0) * h * m0 / 6.0
            + (3.0 * b**2 - 1.0) * h * m1 / 6.0
        )


def fit_smoothing_spline(x, y, sigma=None, lam: float | None = None) -> SmoothingSpline:
    """Fit one data vector; ``lam=None`` selects smoothing by generalised cross-validation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise DomainError(f"need at least 4 points, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.all(np.diff(x) > 0.0)):
        raise DomainError("x must be finite and strictly increasing, y finite")
    sigma = np.ones_like(x) if sigma is None else np.asarray(sigma, dtype=float)
    if y.shape != x.shape or sigma.shape != x.shape:
        raise DomainError(f"x has {x.size} points, but y has shape {y.shape} "
                          f"and sigma {sigma.shape}")
    if not np.all((sigma > 0.0) & np.isfinite(sigma)):
        raise DomainError("sigma must be finite and > 0")
    if lam is not None and not 0.0 <= lam < np.inf:
        raise DomainError(f"lam must be finite and >= 0, got {lam}")

    n = x.size
    r_mat, q = _bands(x)
    # R = L L^T, C = L^-1 Q^T, K = C^T C and sigma K sigma = G G^T, G = sigma C^T.
    # The SVD of G gives its eigenpairs (U, s^2) with relative accuracy and
    # without the null space of K
    low = np.linalg.cholesky(r_mat)
    c = np.linalg.solve(low, q.T)
    lam_ref = np.sum(1.0 / sigma**2) / np.sum(c**2)     # sum(w) / trace(K)
    grid = lam_ref * np.logspace(-8.0, 8.0, 49) if lam is None else np.array([lam], float)
    u, s, vt = np.linalg.svd((c * sigma).T, full_matrices=False)
    z = (y / sigma) @ u
    ls2 = grid[:, None] * s**2
    rho = ls2 / (1.0 + ls2)
    best = int(np.argmin(_gcv(n, rho, z))) if lam is None else 0
    # refit fills in the knot values, f'' and the GCV score at lam
    maps = SmoothingSpline(x, None, None, float(grid[best]), None,
                           float(n - rho[best].sum()), sigma, u, rho[best],
                           s / (1.0 + ls2[best]), np.linalg.solve(low.T, vt.T))
    return maps.refit(y)
