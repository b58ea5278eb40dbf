"""Record the chi^2 survival-function oracle in tests/data/chi2_sf.json.

Each record is [dof, x, P(chi^2_dof > x)], the probability computed by
mpmath's regularized upper incomplete gamma function Q(dof/2, x/2) at 50
significant digits and rounded once to a double.  The grid is every dof from
1 to 12 and a log grid of dof up to 300, crossed with a log grid of x from
1e-6 to 1e4, plus both sides of x = 1400, where ``chi2_sf`` changes its
summation, and a few dof from 1000 to 5000.  The tests read only the JSON
file, so they need no mpmath.

Run from the repository root:  python tests/record_chi2_sf_reference.py
With ``--check`` it writes nothing and exits 1 unless the JSON holds the
records this script computes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np

from oracle_records import check_records, write_records

OUT = Path(__file__).parent / "data" / "chi2_sf.json"
DIGITS = 50

DOFS = list(range(1, 13)) + sorted({int(round(v)) for v in np.geomspace(13, 300, 18)})
XS = [float(x) for x in np.geomspace(1e-6, 1e4, 67)]
# both sides of the switch at x = 1400, and below x = 1490, where e^(-x/2) underflows
XS += [float(np.nextafter(1400.0, 0.0)), 1400.0, 1450.0, 1489.0]
# large dof; where dof > x the largest term of the sum is not the last one
LARGE = [(dof, x) for dof in (1000, 2000, 5000)
         for x in (1400.0, 1450.0, 1500.0, 2000.0, 3000.0, 4000.0, 6000.0)]


def chi2_sf(x: float, dof: int) -> float:
    return float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                 regularized=True))


def record(dof: int, x: float) -> list:
    return [dof, x, chi2_sf(x, dof)]


def main(argv: list[str]) -> int:
    mpmath.mp.dps = DIGITS
    grid = [[dof, x] for dof in DOFS for x in XS] + [list(p) for p in LARGE]
    columns = ["dof", "x", "sf"]
    if "--check" in argv:
        return check_records(OUT, grid, lambda p: record(*p), lambda r: r[:2],
                             columns=columns)
    source = (f"mpmath {mpmath.__version__} gammainc(dof/2, x/2, inf, regularized=True) "
              f"at {DIGITS} digits, by tests/record_chi2_sf_reference.py")
    write_records(OUT, source, [record(*p) for p in grid], columns=columns)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
