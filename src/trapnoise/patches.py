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
built by multiplication.  The default hybrid mode integrates the tiles in
the continuum limit, corrected for the midpoint rule through fourth order
in the patch size: the whole tiles by the 2-D rule (one polynomial in
1/R^2), the partial last column and row by the 1-D rule along their
length.  It sums directly only a core of tiles near the ion, sized from
the first neglected term, of order (p / L)^6 at a distance L from the
ion: none unless a region edge comes within 120 patches of the ion or
the ion is less than 7 patches up.  So its cost stays flat as the
patches shrink.  Against exact mode it agrees to 3e-11 relative on random scenes,
patches up to half the ion height included, and to 2e-10 in the worst
case found: a region a dozen tiles wide straddling the kernel's nodal
line (da = 0).

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
_EDGE_REACH = 120.0  # patches from the ion beyond which a continuum edge may lie
_CLEAR_HEIGHT = 7.0  # patches up an ion must be for an edge-free core to be skipped
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
    """Tiles of side ``step`` across [lo, hi]; inf past 2^53 tiles, where a
    float no longer counts them exactly.

    The slack is relative: a last tile narrower than 1e-12 of the ratio
    is rounding, not a tile."""
    n = (hi - lo) / step * (1.0 - 1e-12)
    return math.ceil(n) if n < 2.0**53 else math.inf


def _tiles(lo: float, hi: float, step: float, first: int = 0, stop: int | None = None):
    """Centres and widths of tiles [first, stop) of a grid anchored at
    ``lo``; the last cell keeps its true partial width."""
    n = _tile_count(lo, hi, step)
    stop = n if stop is None else stop
    edges = lo + step * np.arange(first, stop + 1)
    if stop == n:
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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(14)


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
    """Nodes and weights of 14-point Gauss-Legendre on each cell of
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


def _midpoint_line_density(dx, dy, scene: PatchScene, patch_size: float, along: int):
    """da^2 s^-5 less the Euler-Maclaurin terms of the composite midpoint
    rule on a row of tiles of side p along x (``along`` = 0) or y (1),
    through O(p^4): the 1-D analogue of ``_midpoint_density``.

    With t the offset along the row and a the axial direction's component
    along it, p f(centre) of f = da^2 s^-5 summed over the row equals the
    integral of f - b f'' + 7/10 b^2 f'''' in t, b = p^2 / 24, up to
    O(p^6).  Expanded symbolically, that is q^5 (e4 + q (e3 + q (e2 + q (e1
    + q e0)))) in q = 1/s, whose coefficients depend on da, t and a.
    """
    a = scene.axial_dir[along]
    t = dx if along == 0 else dy
    b = patch_size**2 / 24.0
    da = dx * scene.axial_dir[0] + dy * scene.axial_dir[1]
    u = da * da
    at = a * da * t
    t2 = t * t
    q = 1.0 / (dx * dx + dy * dy + scene.ion_height**2)
    e0 = 18816.0 * b * b * u * t2 * t2
    e1 = -b * b * t2 * (7056.0 * u + 9408.0 * at)
    e2 = b * (b * (252.0 * u + 2016.0 * at + 1008.0 * a * a * t2) - 120.0 * u * t2)
    e3 = b * (10.0 * u + 40.0 * at - 84.0 * b * a * a)
    e4 = u - 2.0 * b * a * a
    q2 = q * q
    return q2 * q2 * q * (e4 + q * (e3 + q * (e2 + q * (e1 + q * e0))))


def _axis_rule(lo: float, hi: float, step: float, n: int, span, center: float,
               scale: float):
    """Nodes and weights that sum tiles [a, b) = ``span`` of the ``n``-tile
    grid along one axis, and whether they integrate whole tiles.

    The last tile, or a span no longer than one Gauss cell has nodes,
    gives its tile centres and squared widths, to be summed one by one;
    longer spans give ``_gauss_nodes`` with ``step`` times its weights."""
    a, b = span
    if b == n or b - a <= _GL_NODES.size:
        centres, widths = _tiles(lo, hi, step, a, b)
        return centres, widths * widths, False
    nodes, weights = _gauss_nodes(lo + step * a, lo + step * b, center, scale)
    return nodes, step * weights, True


def _block_k2(x_rule, y_rule, scene: PatchScene, patch_size: float) -> float:
    """Kernel-squared sum over a block of tiles given by one axis rule per
    axis.

    A tile of sides wx x wy contributes (wx wy)^2 (3 h / 2 pi)^2 f at its
    centre, f = da^2 s^-5.  Along an axis of whole tiles, p^2 f summed over
    the centres is p times the integral of f less its midpoint-rule
    corrections: ``_midpoint_density`` when both axes are whole, else
    ``_midpoint_line_density`` along the whole one.  The integrand is
    smooth, so fixed-order Gauss-Legendre cells on a grid graded
    geometrically away from the ion integrate it to near machine accuracy.
    Tiles summed one by one along both axes take f at their centres.
    """
    xs, wx, whole_x = x_rule
    ys, wy, whole_y = y_rule
    dx, dy = xs[None, :] - scene.ion_xy[0], ys[:, None] - scene.ion_xy[1]
    if whole_x and whole_y:
        density = _midpoint_density(dx, dy, scene, patch_size)
    else:
        step = patch_size if whole_x or whole_y else 0.0
        density = _midpoint_line_density(dx, dy, scene, step, 0 if whole_x else 1)
    return _prefactor(scene.ion_height) * float(wy @ density @ wx)


def _core_tiles(patch_size: float, height: float) -> int:
    """Tiles from the ion to each side of the hybrid mode's core window,
    which takes in every tile nearer the ion than _EDGE_REACH patches.

    The first term the midpoint corrections neglect is of order (p / L)^6
    of the sum at a continuum edge a distance L from the ion, below 1e-11
    beyond _EDGE_REACH patches."""
    reach = _EDGE_REACH**2 - (height / patch_size) ** 2
    return math.ceil(math.sqrt(reach)) if reach > 0.0 else 0


def _core(rect, scene: PatchScene, patch_size: float, nx: int, ny: int):
    """Tile spans (i0, i1, j0, j1) that the hybrid mode sums directly: the
    ``_core_tiles`` window about the ion, snapped outward to the grid and
    clipped to the ``nx`` x ``ny`` tiles, or (0, 0, 0, 0) for none.

    A window inside the whole tiles holds no continuum edge, so it is left
    to the continuum once the ion is _CLEAR_HEIGHT patches up, where the
    midpoint rule's error under it, of order exp(-2 pi h / p), is near
    1e-14."""
    x0, _, y0, _ = rect
    half = _core_tiles(patch_size, scene.ion_height)
    u = (scene.ion_xy[0] - x0) / patch_size
    v = (scene.ion_xy[1] - y0) / patch_size
    i0, i1 = max(0, math.floor(u - half)), min(nx, math.ceil(u + half))
    j0, j1 = max(0, math.floor(v - half)), min(ny, math.ceil(v + half))
    inside = 0 < i0 and i1 < nx - 1 and 0 < j0 and j1 < ny - 1
    if (half == 0 or i0 >= i1 or j0 >= j1
            or inside and scene.ion_height >= _CLEAR_HEIGHT * patch_size):
        return 0, 0, 0, 0
    return i0, i1, j0, j1


def _spans(n: int, core) -> list[tuple[int, int]]:
    """[a, b) spans of the ``n`` tiles, cut at the core's ends and before
    the last tile."""
    cuts = sorted({0, n - 1, n, *core})
    return list(zip(cuts, cuts[1:]))


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
    directly only the core that ``_core`` picks: none unless a region edge
    comes within _EDGE_REACH patches of the ion or the ion is less than
    _CLEAR_HEIGHT patches up, and never more than about 240 x 240 tiles.  ``_block_k2``
    takes the rest, in blocks cut at the core and before the last column
    and row: whole tiles by the 2-D midpoint-corrected integral, the last
    column and row by the 1-D one along their length, and spans of at most
    one Gauss cell's 14 nodes (the corner tile among them) tile by tile.
    So its cost stays flat as the patches shrink.  On random scenes (ion
    heights 5-300 um, patches 0.5-20 um and up to half the ion height,
    tilted axes, ions up to 0.5 mm off centre) it agrees with exact mode
    to 3e-11 relative; a region a dozen tiles wide straddling the kernel's
    nodal line is the worst case found, 2e-10.

    Raises DomainError unless patch_size > 0, and PatchBudgetError in
    either mode if a tile count along an axis passes 2^53, or if more than
    _MAX_PATCHES tiles would be summed directly (in exact mode only: the
    hybrid core stays far below).
    """
    require_above(patch_size, "patch_size")
    x0, x1, y0, y1 = region.rect
    nx, ny = _tile_count(x0, x1, patch_size), _tile_count(y0, y1, patch_size)
    if math.isinf(nx * ny):
        raise PatchBudgetError("the patch count overflows a float; increase patch_size")
    i0, i1, j0, j1 = (0, nx, 0, ny) if exact else _core(region.rect, scene, patch_size, nx, ny)
    direct = (i1 - i0) * (j1 - j0)
    if direct > _MAX_PATCHES:
        raise PatchBudgetError(
            f"{direct:.3g} directly summed patches exceed the budget of "
            f"{_MAX_PATCHES:.3g}; increase patch_size"
            + (" or use the hybrid mode" if exact else "")
        )
    total = 0.0
    if direct:
        total = _direct_sum_k2(*_tiles(x0, x1, patch_size, i0, i1),
                               *_tiles(y0, y1, patch_size, j0, j1), scene)
    if exact:
        return total
    # the integrand's poles lie at least the ion's distance from the region
    # off the real axis, so the Gauss cells can start that wide
    ix, iy = scene.ion_xy
    scale = math.hypot(scene.ion_height, max(x0 - ix, 0.0, ix - x1),
                       max(y0 - iy, 0.0, iy - y1))
    x_rules = [(s, _axis_rule(x0, x1, patch_size, nx, s, ix, scale))
               for s in _spans(nx, (i0, i1))]
    y_rules = [(s, _axis_rule(y0, y1, patch_size, ny, s, iy, scale))
               for s in _spans(ny, (j0, j1))]
    for (a0, a1), x_rule in x_rules:
        for (b0, b1), y_rule in y_rules:
            if not (i0 <= a0 and a1 <= i1 and j0 <= b0 and b1 <= j1):
                total += _block_k2(x_rule, y_rule, scene, patch_size)
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
