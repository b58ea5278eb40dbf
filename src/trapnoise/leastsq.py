"""Damped least-squares (Levenberg-Marquardt) minimisation.

Residual functions return the weighted residual vector r(theta); the
objective is ||r||^2.  The Jacobian defaults to central finite differences
with a relative step of 1e-6.  Covariance at the optimum is
inv(J^T J) * chi2_red, the standard quote for sigma-weighted residuals;
``FitResult.errors`` clips its diagonal.  ``inference._fit`` is the one
library caller of ``levenberg_marquardt``, and ``inference._natural_fit``
alone maps those errors to the natural units of fitted logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import FitFailure

__all__ = ["FitFailure", "FitResult", "levenberg_marquardt", "fd_jacobian"]

_FD_STEP = 1e-6
_MAX_ITER = 200
_RSS_TOL = 1e-12
_STEP_TOL = 1e-12
_LAM0 = 1e-3


@dataclass
class FitResult:
    params: np.ndarray
    covariance: np.ndarray
    rss: float
    n_iter: int
    gradient_norm: float

    def errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def fd_jacobian(residual_fn, theta: np.ndarray, r0: np.ndarray) -> np.ndarray:
    jac = np.empty((r0.size, theta.size))
    for j in range(theta.size):
        step = _FD_STEP * max(abs(theta[j]), 1.0)
        up = theta.copy()
        up[j] += step
        dn = theta.copy()
        dn[j] -= step
        jac[:, j] = (np.asarray(residual_fn(up)) - np.asarray(residual_fn(dn))) / (
            2.0 * step
        )
    return jac


def levenberg_marquardt(
    residual_fn,
    theta0,
    jacobian=None,
) -> FitResult:
    theta = np.asarray(theta0, dtype=float).copy()
    r = np.asarray(residual_fn(theta), dtype=float)
    rss = float(r @ r)
    lam = _LAM0
    n_iter = 0
    grad_norm = np.inf

    for n_iter in range(1, _MAX_ITER + 1):
        jac = (
            jacobian(theta) if jacobian is not None else fd_jacobian(residual_fn, theta, r)
        )
        jtj = jac.T @ jac
        grad = jac.T @ r
        grad_norm = float(np.linalg.norm(grad))
        scale = np.diag(jtj).copy()
        scale[scale <= 0.0] = 1.0

        accepted = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(scale), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + delta
            r_trial = np.asarray(residual_fn(trial), dtype=float)
            # wild trial steps may overflow to inf; they simply lose the
            # comparison below, so keep the warning machinery quiet
            with np.errstate(over="ignore", invalid="ignore"):
                rss_trial = float(r_trial @ r_trial)
            if np.isfinite(rss_trial) and rss_trial <= rss:
                improvement = rss - rss_trial
                theta, r, rss = trial, r_trial, rss_trial
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break  # stuck at a (possibly non-smooth) local minimum
        if improvement <= _RSS_TOL * max(rss, 1e-300) or np.linalg.norm(
            delta
        ) <= _STEP_TOL * (np.linalg.norm(theta) + _STEP_TOL):
            break
    else:
        raise FitFailure(
            f"no convergence in {_MAX_ITER} iterations (rss {rss:.6e}, "
            f"|grad| {grad_norm:.3e})",
            theta, rss, _MAX_ITER,
        )

    jac = jacobian(theta) if jacobian is not None else fd_jacobian(residual_fn, theta, r)
    jtj = jac.T @ jac
    dof = max(r.size - theta.size, 1)
    try:
        cov = np.linalg.inv(jtj) * (rss / dof)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj) * (rss / dof)
    return FitResult(
        params=theta,
        covariance=cov,
        rss=rss,
        n_iter=n_iter,
        gradient_norm=float(np.linalg.norm(jac.T @ r)),
    )
