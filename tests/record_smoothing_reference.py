"""Record the GCV smoothing-spline oracle in tests/data/smoothing_gcv.json.

Each record is one dataset (x, y, sigma) and what mpmath makes of it at 60
significant digits, rounded once to doubles:

- ``lam``: the 49-point grid of ``fit_smoothing_spline``, lam_ref * 10^(k/3)
  for k = -24 .. 24, with lam_ref = sum(1/sigma^2) / trace(K);
- ``gcv``: the generalised cross-validation score n * rss / (n - trace)^2
  at every grid point;
- ``argmin`` and ``gap``: the grid index of the smallest score (the first,
  on a tie) and the relative margin of the runner-up over it;
- ``trace``, ``values`` and ``second_derivs``: the influence-matrix trace,
  the fitted knot values and f'' at the knots (zero at both ends) at the
  argmin.

The oracle takes the Reinsch form (Green & Silverman, ch. 2), not the
library's: with M = Q^T diag(sigma^2) Q and B = R + lam M, gamma = B^-1 Q^T y
is f'' at the interior knots, y - f = lam diag(sigma^2) Q gamma,
rss = lam^2 gamma^T M gamma and n - trace = lam trace(B^-1 M).

The datasets are seeded draws of sin(2x) plus Gaussian noise on uniform and
random knots, with equal and unequal sigma and 5 to 25 points, and the input
of the ``taf-alphas.csv`` golden: ln T, ln S_E and sigma_S / S_E of
``synth-power-seed3.csv``.  The tests read only the JSON file, so they need
no mpmath.

Run from the repository root, with trapnoise importable:

    python tests/record_smoothing_reference.py [--check]

With ``--check`` it writes nothing and exits 1 unless the JSON holds the
records this script computes.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import mpmath
import numpy as np

from oracle_records import check_records, write_records
from trapnoise.constants import noise_from_heating_rate, omega_from_hz

OUT = Path(__file__).parent / "data" / "smoothing_gcv.json"
GOLDEN = Path(__file__).parent / "data" / "golden" / "synth-power-seed3.csv"
DIGITS = 60
GRID = range(-24, 25)   # lam_ref * 10^(k/3), as np.logspace(-8, 8, 49)
INPUTS = ("name", "x", "y", "sigma")


def _synthetic(n: int, knots: str, sigmas: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if knots == "uniform":
        x = [3.0 * i / (n - 1) for i in range(n)]
    else:
        x = sorted(float(v) for v in rng.uniform(0.0, 3.0, n))
    if sigmas == "equal":
        sigma = [0.1] * n
    else:
        sigma = [float(mpmath.mpf(0.1) * mpmath.exp(v)) for v in rng.uniform(-1.5, 1.5, n)]
    noise = rng.standard_normal(n)
    y = [float(mpmath.sin(2 * mpmath.mpf(xi)) + mpmath.mpf(si) * mpmath.mpf(ei))
         for xi, si, ei in zip(x, sigma, noise)]
    return {"name": f"{knots}-{sigmas}-n{n}-seed{seed}", "x": x, "y": y, "sigma": sigma}


def _golden() -> dict:
    """ln T, ln S_E and sigma_S / S_E as ``loglog_spline_slope`` forms them."""
    with GOLDEN.open(newline="") as fh:
        rows = sorted((float(r["T_K"]), float(r["f_Hz"]), float(r["gamma_phps"]),
                       float(r["sigma_phps"])) for r in csv.DictReader(fh))
    x, y, sigma = [], [], []
    for t, f_hz, gamma, sigma_gamma in rows:
        s = noise_from_heating_rate(gamma, omega_from_hz(f_hz))
        x.append(float(mpmath.log(t)))
        y.append(float(mpmath.log(s)))
        sigma.append(noise_from_heating_rate(sigma_gamma, omega_from_hz(f_hz)) / s)
    return {"name": "golden-synth-power-seed3", "x": x, "y": y, "sigma": sigma}


def datasets() -> list[dict]:
    cases = [(n, knots, sigmas) for n in (5, 7, 9, 12, 16, 25)
             for knots in ("uniform", "random") for sigmas in ("equal", "unequal")]
    return [_synthetic(n, knots, sigmas, 100 + i)
            for i, (n, knots, sigmas) in enumerate(cases)] + [_golden()]


def _cholesky(a: list) -> list:
    """Lower factor L of a symmetric positive definite matrix, a = L L^T."""
    size = len(a)
    lower = [[mpmath.mpf(0)] * size for _ in range(size)]
    for j in range(size):
        lower[j][j] = mpmath.sqrt(a[j][j] - mpmath.fdot(lower[j][:j], lower[j][:j]))
        for i in range(j + 1, size):
            lower[i][j] = (a[i][j] - mpmath.fdot(lower[i][:j], lower[j][:j])) / lower[j][j]
    return lower


def _forward(lower: list, b: list) -> list:
    """L^-1 b."""
    u: list = []
    for i, row in enumerate(lower):
        u.append((b[i] - mpmath.fdot(row[:i], u)) / row[i])
    return u


def _backward(lower: list, b: list) -> list:
    """L^-T b."""
    size = len(b)
    v = [mpmath.mpf(0)] * size
    for i in reversed(range(size)):
        v[i] = (b[i] - mpmath.fdot((lower[k][i] for k in range(i + 1, size)),
                                   v[i + 1:])) / lower[i][i]
    return v


def oracle(data: dict) -> dict:
    """The record of one dataset, computed at ``mpmath.mp.dps`` digits."""
    mpf = mpmath.mpf
    x = [mpf(v) for v in data["x"]]
    y = [mpf(v) for v in data["y"]]
    sigma = [mpf(v) for v in data["sigma"]]
    n = len(x)
    m = n - 2
    h = [x[i + 1] - x[i] for i in range(n - 1)]
    r_mat = [[mpf(0)] * m for _ in range(m)]
    # (sigma Q)^T, m x n: row j holds column j of the second-difference map
    sq_t = [[mpf(0)] * n for _ in range(m)]
    for j in range(m):
        r_mat[j][j] = (h[j] + h[j + 1]) / 3
        if j + 1 < m:
            r_mat[j][j + 1] = r_mat[j + 1][j] = h[j + 1] / 6
        sq_t[j][j] = sigma[j] / h[j]
        sq_t[j][j + 1] = -sigma[j + 1] * (1 / h[j] + 1 / h[j + 1])
        sq_t[j][j + 2] = sigma[j + 2] / h[j + 1]
    m_mat = [[mpmath.fdot(a, b) for b in sq_t] for a in sq_t]   # Q^T diag(sigma^2) Q
    qty = [mpmath.fdot(row, (yi / si for yi, si in zip(y, sigma))) for row in sq_t]
    # trace(K) = trace(R^-1 Q^T Q) = ||L_R^-1 Q^T||_F^2
    r_low = _cholesky(r_mat)
    q_t = [[v / si for v, si in zip(row, sigma)] for row in sq_t]
    trace_k = sum(u**2 for col in zip(*q_t) for u in _forward(r_low, list(col)))
    lam_ref = sum(1 / si**2 for si in sigma) / trace_k

    def at(lam):
        """f'' inside, sigma Q gamma, n - trace and the GCV score at ``lam``."""
        low = _cholesky([[r + lam * mm for r, mm in zip(rr, mr)]
                         for rr, mr in zip(r_mat, m_mat)])
        gamma = _backward(low, _forward(low, qty))
        # trace(B^-1 M) = ||L_B^-1 (sigma Q)^T||_F^2
        n_minus_trace = lam * sum(u**2 for col in zip(*sq_t)
                                  for u in _forward(low, list(col)))
        sq_gamma = [mpmath.fdot(col, gamma) for col in zip(*sq_t)]
        rss = lam**2 * mpmath.fdot(sq_gamma, sq_gamma)
        return gamma, sq_gamma, n_minus_trace, n * rss / n_minus_trace**2

    lams = [float(lam_ref * mpmath.power(10, mpf(k) / 3)) for k in GRID]
    gcvs = [at(mpf(lam))[3] for lam in lams]
    best = min(range(len(gcvs)), key=lambda i: (gcvs[i], i))
    runner_up = min(g for i, g in enumerate(gcvs) if i != best)
    gamma, sq_gamma, n_minus_trace, _ = at(mpf(lams[best]))
    values = [yi - lams[best] * si * v for yi, si, v in zip(y, sigma, sq_gamma)]
    return {
        **{key: data[key] for key in INPUTS},
        "lam": lams,
        "gcv": [float(g) for g in gcvs],
        "argmin": best,
        "gap": float((runner_up - gcvs[best]) / gcvs[best]),
        "trace": float(n - n_minus_trace),
        "values": [float(v) for v in values],
        "second_derivs": [0.0, *(float(g) for g in gamma), 0.0],
    }


def main(argv: list[str]) -> int:
    mpmath.mp.dps = DIGITS
    fresh = datasets()
    if "--check" in argv:
        return check_records(OUT, fresh, oracle, lambda r: {k: r[k] for k in INPUTS})
    source = (f"mpmath {mpmath.__version__} Reinsch-form GCV at {DIGITS} digits, "
              f"by tests/record_smoothing_reference.py")
    write_records(OUT, source, [oracle(data) for data in fresh])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
