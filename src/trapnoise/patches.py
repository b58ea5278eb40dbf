"""Patch-potential noise geometry over a grounded chip plane.

Each surface patch of area A at potential V contributes an axial field
K*V at the ion, with the gapless grounded-plane (dipole-layer) kernel

    K = 3 h da A / (2 pi R^5),   R^2 = da^2 + db^2 + h^2,

where h is the ion height and (da, db) the axial/transverse offsets of the
patch centre from the point below the ion.  Uncorrelated patch fluctuations
add as K^2, so a region's contribution is the kernel-squared sum
(3 h / 2 pi)^2 sum A^2 da^2 / R^10 over its patch tiling.  The noise
fraction zeta attributes the total to one target region versus the rest
as a function of the fluctuation-strength ratio.

A region's tiling is a grid of squares anchored at its (x_min, y_min)
corner whose last column and row keep their partial width.  Exact mode
sums every tile, in row blocks small enough to stay in cache, with R^10
built by multiplication.  The default hybrid mode sums directly only those
partial strips and a core of whole tiles around the ion; it integrates
the rest of the tiles in the continuum limit, corrected for the midpoint
rule through fourth order in the patch size (one polynomial in 1/R^2), so
its cost does not grow with the region's area.  Against exact mode it
agrees to 1e-10 relative on random scenes and to 4e-7 in the worst case
found: a strip one tile wide along the kernel's nodal line (da = 0) just
outside the core.

When the trap axis lies along a chip axis, as on real traps, da^2
depends on one tile coordinate only; the direct sums of both modes then
build it once per call instead of once per tile, with the same bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import DomainError, PatchBudgetError, require_above

__all__ = [
    "PlaneRegion",
    "PatchScene",
    "ZetaResult",
    "PatchBudgetError",
    "region_noise_integral",
    "zeta",
    "zeta_inverse",
]

_CHUNK = 32_768
_CORE_TILES = 128  # tiles from the ion to each side of the hybrid mode's direct core
_MAX_PATCHES = 250_000_000


@dataclass(frozen=True)
class PlaneRegion:
    """Axis-aligned rectangle on the chip plane with fluctuation weight."""

    rect: tuple[float, float, float, float]  # x_min, x_max, y_min, y_max
    weight: float = 1.0
    name: str = ""

    def __post_init__(self):
        for v in self.rect:
            require_above(v, "region rect", -math.inf)
        x0, x1, y0, y1 = self.rect
        if not (x1 > x0 and y1 > y0):
            raise DomainError(f"degenerate region rect {self.rect}")
        require_above(self.weight, "region weight", or_equal=True)


def _overlaps(a: PlaneRegion, b: PlaneRegion) -> bool:
    ax0, ax1, ay0, ay1 = a.rect
    bx0, bx1, by0, by1 = b.rect
    return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1


@dataclass(frozen=True)
class PatchScene:
    """Disjoint surface regions plus the ion pose above the plane, axis normalised."""

    regions: tuple[PlaneRegion, ...]
    ion_height: float
    ion_xy: tuple[float, float] = (0.0, 0.0)
    axial_dir: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        require_above(self.ion_height, "ion height")
        if not all(map(math.isfinite, self.ion_xy)):
            raise DomainError(f"ion position must be finite, got {self.ion_xy}")
        axis = self.axial_dir
        norm = math.hypot(*axis)
        lost = norm > 0.0 and not sys.float_info.min <= norm < math.inf
        if lost and all(map(math.isfinite, axis)):  # hypot over- or underflowed, so
            scale = max(map(abs, axis))  # scale by the larger component first
            axis = tuple(v / scale for v in axis)
            norm = math.hypot(*axis)
        require_above(norm, "|axial_dir|")  # NaN, inf and 0 fail here
        object.__setattr__(self, "axial_dir", tuple(v / norm for v in axis))
        for i, a in enumerate(self.regions):
            for b in self.regions[i + 1:]:
                if a.name == b.name:
                    raise DomainError(f"region name {a.name!r} is used twice")
                if _overlaps(a, b):
                    raise DomainError(
                        f"regions {a.name or i!r} and {b.name!r} overlap"
                    )

    def region(self, name: str) -> PlaneRegion:
        for r in self.regions:
            if r.name == name:
                return r
        names = ", ".join(r.name for r in self.regions)
        raise DomainError(f"no region named {name!r} (regions: {names})")


def _tile_count(lo: float, hi: float, step: float) -> int | float:
    """Tiles of side ``step`` across [lo, hi]; inf if the ratio overflows."""
    n = (hi - lo) / step - 1e-12
    return math.ceil(n) if math.isfinite(n) else math.inf


def _tiles(lo: float, hi: float, step: float):
    """Centres and widths of a grid anchored at ``lo``; the last cell keeps
    its true partial width."""
    edges = lo + step * np.arange(_tile_count(lo, hi, step) + 1)
    edges[-1] = hi
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


def _prefactor(h: float) -> float:
    """(3 h / 2 pi)^2, the squared kernel's factor at ion height ``h``."""
    return (3.0 * h / (2.0 * np.pi)) ** 2


def _direct_sum_k2(cx, wx, cy, wy, scene: PatchScene) -> float:
    """Sum of K^2 over the tiles with centres ``cx`` x ``cy`` and widths
    ``wx`` x ``wy``: (3 h / 2 pi)^2 sum_j wy_j^2 sum_i wx_i^2 da_ij^2 / s_ij^5.

    Rows go in blocks of about _CHUNK tiles, small enough that the three
    buffers every block reuses stay in a core's L2 cache; s^5 is built by
    multiplication.  Each row is reduced against wx^2 by a dot product,
    and the weighted row sums are added exactly by math.fsum, from a list
    of Python floats, which it reads faster than an array's numpy scalars.

    When the axial direction lies along a chip axis, da^2 is one row
    (dx ax)^2 or one column (dy ay)^2 for every tile, so it is built once
    per call and broadcast, and the blocks skip the add and square that
    form it tile by tile.  dx ax + (+-0) is exactly dx ax, so each tile
    and the sum keep the bits of the general loop.
    """
    h = scene.ion_height
    ax, ay = scene.axial_dir
    dx = cx - scene.ion_xy[0]
    dy = cy - scene.ion_xy[1]
    da2 = None
    if ax == 0.0 or ay == 0.0:
        da = dx * ax if ay == 0.0 else (dy * ay)[:, None]
        da2 = np.broadcast_to(np.multiply(da, da, out=da), (cy.size, cx.size))
    else:
        dx_a, dy_a = dx * ax, dy * ay
    # in place, as are the weighted row sums below: temporaries as long as
    # a strip fragment the heap and raise peak memory
    dx2h2, dy2 = dx * dx, dy * dy
    dx2h2 += h * h
    wx2 = wx * wx
    rows = max(1, _CHUNK // max(cx.size, 1))
    shape = (3, min(rows, cy.size), cx.size)
    # start the buffers on a 64-byte (cache-line) boundary: malloc only
    # promises 16 bytes, and a misaligned block runs up to 20 % slower
    raw = np.empty(math.prod(shape) + 8)
    start = (-raw.ctypes.data % 64) // 8
    bufs = raw[start : start + math.prod(shape)].reshape(shape)
    row_sums = np.empty(cy.size)
    for j0 in range(0, cy.size, rows):
        j1 = min(j0 + rows, cy.size)
        u, s, t = bufs[:, : j1 - j0]
        if da2 is None:
            np.add(dx_a, dy_a[j0:j1, None], out=u)
            np.multiply(u, u, out=u)
        np.add(dx2h2, dy2[j0:j1, None], out=s)
        np.multiply(s, s, out=t)
        np.multiply(t, t, out=t)
        np.multiply(t, s, out=t)
        np.divide(u if da2 is None else da2[j0:j1], t, out=u)
        np.dot(u, wx2, out=row_sums[j0:j1])
    row_sums *= wy * wy
    return _prefactor(h) * math.fsum(row_sums.tolist())


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _geom_edges(lo: float, hi: float, center: float, scale: float) -> np.ndarray:
    """Edges whose spacing grows geometrically away from ``center``."""
    edges = {lo, hi}
    step = scale
    x = max(center, lo)
    while x < hi:
        edges.add(x)
        x += step
        step *= 2.0
    step = scale
    x = min(center, hi)
    while x > lo:
        edges.add(x)
        x -= step
        step *= 2.0
    return np.array(sorted(e for e in edges if lo <= e <= hi))


def _gauss_nodes(lo: float, hi: float, center: float, scale: float):
    """Nodes and weights of 12-point Gauss-Legendre on each cell of
    ``_geom_edges``."""
    edges = _geom_edges(lo, hi, center, scale)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _midpoint_density(dx, dy, scene: PatchScene, patch_size: float):
    """da^2 s^-5 less the Euler-Maclaurin terms of the composite midpoint
    rule on tiles of side p, through O(p^4).

    Here s = dx^2 + dy^2 + h^2 and da = (dx, dy) . axial_dir.  Summed
    over whole tiles, p^2 f(centre) of f = da^2 s^-5 equals the integral
    of f - a lap(f) + a^2 (7/10 (f_xxxx + f_yyyy) + f_xxyy) over them,
    a = p^2 / 24, up to O(p^6).  Expanded symbolically, that is one
    polynomial in q = 1/s, q^5 (c4 + q (c3 + q (c2 + q (c1 + q c0)))),
    whose coefficients depend on da, rho^2 = dx^2 + dy^2 and the axis.
    """
    ax, ay = scene.axial_dir
    a = patch_size**2 / 24.0
    n2 = ax * ax + ay * ay
    da = dx * ax + dy * ay
    da2 = da * da
    dx2, dy2 = dx * dx, dy * dy
    rho2 = dx2 + dy2
    q = 1.0 / (rho2 + scene.ion_height**2)
    c0 = 2688.0 * a * a * da2 * (7.0 * rho2 * rho2 - 4.0 * dx2 * dy2)
    c1 = -672.0 * a * a * da * (23.0 * rho2 * da + 4.0 * (dx2 * dx * ax + dy2 * dy * ay))
    c2 = 24.0 * a * (a * (10.0 * n2 * rho2 + 162.0 * da2 - 24.0 * ax * ay * dx * dy)
                     - 5.0 * rho2 * da2)
    c3 = 60.0 * a * da2 - 104.0 * a * a * n2
    c4 = da2 - 2.0 * a * n2
    q2 = q * q
    return q2 * q2 * q * (c4 + q * (c3 + q * (c2 + q * (c1 + q * c0))))


def _continuum_k2(rect, scene: PatchScene, patch_size: float) -> float:
    """Kernel-squared sum over the whole tiles of side p = patch_size that
    fill ``rect``, as an integral with the midpoint-rule corrections.

    A tile contributes p^4 k^2 at its centre, k = 3 h da / (2 pi s^(5/2))
    being the kernel density (the kernel at unit area), so the sum is
    p^2 (3 h / 2 pi)^2 times the integral of ``_midpoint_density``, up to
    O(p^6) terms.  The integrand is smooth, so fixed-order Gauss-Legendre
    cells on a grid graded geometrically away from the ion integrate it to
    near machine accuracy.
    """
    h = scene.ion_height
    xs, wx = _gauss_nodes(rect[0], rect[1], scene.ion_xy[0], h)
    ys, wy = _gauss_nodes(rect[2], rect[3], scene.ion_xy[1], h)
    density = _midpoint_density(
        xs[None, :] - scene.ion_xy[0], ys[:, None] - scene.ion_xy[1], scene, patch_size
    )
    return patch_size**2 * _prefactor(h) * float(wy @ density @ wx)


def _core_span(lo: float, step: float, center: float, n: int) -> tuple[int, int]:
    """Tile indices [i0, i1) of the direct core along one axis: the ion
    +- _CORE_TILES tiles, snapped outward to the grid and clipped to the
    first ``n`` tiles."""
    u = (center - lo) / step
    return max(0, math.floor(u - _CORE_TILES)), min(n, math.ceil(u + _CORE_TILES))


def _subtract(rect, window):
    """rect minus window as up to four disjoint rectangles."""
    x0, x1, y0, y1 = rect
    wx0, wx1, wy0, wy1 = window
    out = []
    if y0 < wy0:
        out.append((x0, x1, y0, min(y1, wy0)))
    if y1 > wy1:
        out.append((x0, x1, max(y0, wy1), y1))
    mid_y0, mid_y1 = max(y0, wy0), min(y1, wy1)
    if mid_y1 > mid_y0:
        if x0 < wx0:
            out.append((x0, min(x1, wx0), mid_y0, mid_y1))
        if x1 > wx1:
            out.append((max(x0, wx1), x1, mid_y0, mid_y1))
    return out


def region_noise_integral(
    region: PlaneRegion,
    scene: PatchScene,
    patch_size: float,
    exact: bool = False,
) -> float:
    """Kernel-squared sum over the region's patch tiling.

    Tiles are squares of side ``patch_size`` anchored at the region's
    (x_min, y_min) corner; the last column and row keep their true partial
    width.  ``exact=True`` sums every tile.  The default hybrid mode sums
    directly the last column and row, and the whole tiles within
    _CORE_TILES tiles of the ion (snapped outward to the grid); it hands
    the rest of the whole tiles to ``_continuum_k2``.  On random scenes
    (ion heights 5-300 um, patches 0.5-20 um, tilted axes, ions up to
    0.5 mm off centre) it agrees with exact mode to 1e-10 relative; thin
    regions along the kernel's nodal line are the worst case, 4e-7.

    Raises PatchBudgetError if more than _MAX_PATCHES tiles, or more than
    a float can count, would be summed directly.
    """
    require_above(patch_size, "patch_size")
    x0, x1, y0, y1 = region.rect
    nx, ny = _tile_count(x0, x1, patch_size), _tile_count(y0, y1, patch_size)
    direct = nx * ny if exact else nx + ny
    if direct > _MAX_PATCHES:
        raise PatchBudgetError(
            f"{direct:.3g} directly summed patches exceed the budget of "
            f"{_MAX_PATCHES:.3g}; increase patch_size"
            + (" or use the hybrid mode" if exact else "")
        )
    cx, wx = _tiles(x0, x1, patch_size)
    cy, wy = _tiles(y0, y1, patch_size)
    if exact:
        return _direct_sum_k2(cx, wx, cy, wy, scene)

    # the whole-tile block is every tile but the last column and row
    nx, ny = nx - 1, ny - 1
    total = _direct_sum_k2(cx[nx:], wx[nx:], cy, wy, scene)
    total += _direct_sum_k2(cx[:nx], wx[:nx], cy[ny:], wy[ny:], scene)
    i0, i1 = _core_span(x0, patch_size, scene.ion_xy[0], nx)
    j0, j1 = _core_span(y0, patch_size, scene.ion_xy[1], ny)
    far = [(0, nx, 0, ny)] if nx > 0 and ny > 0 else []
    if i0 < i1 and j0 < j1:
        total += _direct_sum_k2(cx[i0:i1], wx[i0:i1], cy[j0:j1], wy[j0:j1], scene)
        far = _subtract(far[0], (i0, i1, j0, j1))
    for a0, a1, b0, b1 in far:
        rect = (x0 + patch_size * a0, x0 + patch_size * a1,
                y0 + patch_size * b0, y0 + patch_size * b1)
        total += _continuum_k2(rect, scene, patch_size)
    return total


def _share(f_ratio: float, i_target: float, rest: float) -> float:
    """f I_t / (f I_t + rest), as 1 / (1 + rest / (f I_t)), which rounds
    monotonically in f; zero at f = 0 even when every integral vanishes.

    Where rest / (f I_t) overflows, the share is below 1 / DBL_MAX, and
    f I_t / rest takes over, still monotone and still above zero."""
    require_above(f_ratio, "f_ratio", or_equal=True)
    if f_ratio == 0.0:
        return 0.0
    weighted = f_ratio * i_target
    if not weighted + rest > 0.0:
        raise DomainError("all weighted region integrals vanish")
    if weighted == 0.0:
        return 0.0
    ratio = rest / weighted
    return weighted / rest if math.isinf(ratio) else 1.0 / (1.0 + ratio)


@dataclass(frozen=True)
class ZetaResult:
    zeta: float
    f_ratio: float
    region_integrals: dict[str, float]
    target_integral: float
    weighted_rest: float

    def at(self, f_ratio: float) -> float:
        """zeta at another ratio, from the region integrals already summed."""
        return _share(f_ratio, self.target_integral, self.weighted_rest)


def _weighted_integrals(scene, target_name, patch_size, exact):
    target = scene.region(target_name)
    i_target = region_noise_integral(target, scene, patch_size, exact)
    integrals = {target_name: i_target}
    rest = 0.0
    for r in scene.regions:
        if r.name == target_name:
            continue
        val = region_noise_integral(r, scene, patch_size, exact)
        integrals[r.name] = val
        rest += r.weight * val
    return i_target, rest, integrals


def zeta(
    scene: PatchScene,
    f_ratio: float,
    patch_size: float,
    target_name: str = "ybco",
    exact: bool = False,
) -> ZetaResult:
    """Noise share of the target region when its fluctuation strength is
    ``f_ratio`` times that of the other regions (whose own weights apply).

    :meth:`ZetaResult.at` gives the share at further ratios."""
    i_target, rest, integrals = _weighted_integrals(
        scene, target_name, patch_size, exact
    )
    return ZetaResult(
        zeta=_share(f_ratio, i_target, rest),
        f_ratio=f_ratio,
        region_integrals=integrals,
        target_integral=i_target,
        weighted_rest=rest,
    )


def zeta_inverse(
    scene: PatchScene,
    target_zeta: float,
    patch_size: float,
    target_name: str = "ybco",
    exact: bool = False,
) -> float:
    """Fluctuation-strength ratio at which the target's share is target_zeta."""
    if not 0.0 < target_zeta < 1.0:
        raise DomainError(f"target zeta must be in (0, 1), got {target_zeta}")
    i_target, rest, _ = _weighted_integrals(scene, target_name, patch_size, exact)
    if not i_target > 0.0:
        raise DomainError(f"target region {target_name!r} integral vanishes")
    if not rest > 0.0:
        # zeta is 0 at f = 0 and 1 for every f > 0: no ratio reaches the target
        raise DomainError(
            f"the regions other than {target_name!r} carry no weighted noise"
        )
    return target_zeta / (1.0 - target_zeta) * rest / i_target
