"""A verbatim copy of the :func:`trapnoise.quadrature.adaptive_gk` loop as it
was before it learnt to stop once its budget could no longer reach
tolerance; it stops only before a round that would pass ``max_evals``."""

import numpy as np

from trapnoise.quadrature import QuadratureFailure, QuadratureResult, _eval_panels


def adaptive_gk_budget_only(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-6,
    abs_tol: float = 0.0,
    max_evals: int = 2_000_000,
    breakpoints=None,
) -> QuadratureResult:
    if b <= a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    edges = [a, b] if breakpoints is None else sorted(
        {a, b, *(x for x in breakpoints if a < x < b)}
    )
    lows = np.array(edges[:-1], dtype=float)
    highs = np.array(edges[1:], dtype=float)
    values, errors = _eval_panels(f, lows, highs)
    evals = lows.size * 15

    while True:
        total = values.sum()
        total_err = float(errors.sum())
        if not np.isfinite(total_err):
            raise QuadratureFailure(
                f"non-finite error estimate over [{a}, {b}] after {evals} "
                f"evaluations ({lows.size} panels)",
                total, total_err, evals,
            )
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            return QuadratureResult(total, total_err, evals, lows.size)

        split = errors >= 0.25 * errors.max()
        lo, hi = lows[split], highs[split]
        if evals + 30 * lo.size > max_evals:
            raise QuadratureFailure(
                f"no convergence after {evals} evaluations over "
                f"[{a}, {b}]: error {total_err:.3e} > tol {tol:.3e} "
                f"({lows.size} panels; the next round's {30 * lo.size} "
                f"evaluations would pass max_evals={max_evals})",
                total, total_err, evals,
            )
        mids = 0.5 * (lo + hi)
        new_lows = np.concatenate([lo, mids])
        new_highs = np.concatenate([mids, hi])
        new_vals, new_errs = _eval_panels(f, new_lows, new_highs)
        evals += new_lows.size * 15
        keep = ~split
        values = np.concatenate([values[keep], new_vals])
        errors = np.concatenate([errors[keep], new_errs])
        lows = np.concatenate([lows[keep], new_lows])
        highs = np.concatenate([highs[keep], new_highs])
