"""Adaptive Gauss-Kronrod panel quadrature.

Integrands are evaluated in batches: ``f`` receives a numpy array of at
most ``15 * _CHUNK`` abscissae and must return an array of values (real or
complex) of one dtype for every call.  Each round bisects every panel whose
error is at least a quarter of the largest panel error, until the summed
error estimate passes.  ``max_evals`` is a hard cap: a round that would take
the evaluation count past it is not started, and QuadratureFailure is
raised instead, so ``evaluations <= max_evals`` whenever the initial panels
alone fit the budget.  The failure also comes early, as soon as the budget
left cannot reach tolerance: it pays for at most m more bisections, so when
the panel errors outside the m largest already exceed the tolerance, no
later round can converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import QuadratureFailure, require_above

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights sit on Kronrod nodes 1, 3, 5, 7, 9, 11, 13.
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)
# panels per integrand call: 4,080 nodes, 64 kB per complex temporary.  The
# size reaches the last bits of the rule sums: 272 keeps those of one call
# per round, where 273 or 274 moves an error estimate pinned in the tests
_CHUNK = 272


@dataclass
class QuadratureResult:
    value: complex | float
    error: float
    evaluations: int
    panels: int


def _eval_panels(f, lows: np.ndarray, highs: np.ndarray):
    """Kronrod and Gauss estimates plus error for a batch of panels."""
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    for i in range(0, lows.size, _CHUNK):
        part = slice(i, i + _CHUNK)
        # nodes shape (panels in the chunk, 15)
        nodes = mid[part, None] + half[part, None] * _XK[None, :]
        vals = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
        if i == 0:
            kronrod = np.empty(lows.shape, np.result_type(vals, _WK))
            gauss = np.empty_like(kronrod)
        kronrod[part] = vals @ _WK
        gauss[part] = vals[:, _GAUSS_IDX] @ _WG
    # plain |K15 - G7| is conservative; the floor stops panels whose
    # difference underflows from looking exactly converged.  An infinite sum,
    # even on a zero-width panel, gives a NaN error: adaptive_gk's failure
    with np.errstate(invalid="ignore"):
        kronrod, gauss = half * kronrod, half * gauss
        err = np.abs(kronrod - gauss)
    return kronrod, np.maximum(err, np.abs(kronrod) * 1e-16)


def adaptive_gk(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-6,
    abs_tol: float = 0.0,
    max_evals: int = 2_000_000,
    breakpoints=None,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b], finite with b > a, to the requested tolerance.

    ``breakpoints`` seeds the initial panel edges (useful when the integrand
    has known scales spanning decades).  Convergence criterion:
    sum of panel errors <= max(abs_tol, rel_tol * |integral|).  A NaN or
    infinite error estimate raises QuadratureFailure at once.

    Otherwise QuadratureFailure is raised before a round that would pass
    ``max_evals``, or once the tolerance is out of reach of the budget
    left.  That budget pays for m = (max_evals - evaluations) // 30 more
    bisections; a bisection at best takes its panel's error to zero and
    moves the integral by at most that error.  So when the errors outside
    the m largest sum to more than max(abs_tol, rel_tol * (|integral| +
    error)), the integral would fail later anyway, and fails now.
    """
    require_above(a, "lower limit", -np.inf)
    require_above(b, "upper limit", a)
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
            # a NaN panel error is never split, so the loop would not end
            raise QuadratureFailure(
                f"non-finite error estimate over [{a}, {b}] after {evals} "
                f"evaluations ({lows.size} panels)",
                total, total_err, evals,
            )
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol:
            return QuadratureResult(total, total_err, evals, lows.size)

        # bisect the panels near the current error maximum; a fixed
        # per-panel share rule splits ever more panels as the count grows
        split = errors >= 0.25 * errors.max()
        lo, hi = lows[split], highs[split]
        # the budget left pays for m more bisections (see the docstring)
        m = (max_evals - evals) // 30
        why = None
        if lo.size > m:
            why = (f"the next round's {30 * lo.size} evaluations would "
                   f"pass max_evals={max_evals}")
        elif m < errors.size:
            stuck = np.partition(errors, -m)[:-m].sum()
            reach = max(abs_tol, rel_tol * (abs(total) + total_err))
            if stuck > reach:
                why = (f"tolerance out of reach: the errors outside the {m} "
                       f"largest panels, the most the {max_evals - evals} "
                       f"evaluations left of max_evals={max_evals} can "
                       f"split, sum to {stuck:.3e} > {reach:.3e}")
        if why:
            raise QuadratureFailure(
                f"no convergence after {evals} evaluations over "
                f"[{a}, {b}]: error {total_err:.3e} > tol {tol:.3e} "
                f"({lows.size} panels; {why})",
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
