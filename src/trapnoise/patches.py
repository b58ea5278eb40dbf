"""Patch-potential noise geometry over a grounded chip plane.

Each surface patch of area A at potential V contributes an axial field
K*V at the ion, with the gapless grounded-plane (dipole-layer) kernel

    K = 3 h da A / (2 pi R^5),   R^2 = da^2 + db^2 + h^2,

where h is the ion height and (da, db) the axial/transverse offsets of the
patch centre from the point below the ion.  Uncorrelated patch fluctuations
add as K^2, so a region's contribution is the kernel-squared sum over its
patch tiling.  The noise fraction zeta attributes the total to one target
region versus the rest as a function of the fluctuation-strength ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DomainError

__all__ = [
    "PlaneRegion",
    "PatchScene",
    "ZetaResult",
    "PatchBudgetError",
    "axial_patch_kernel",
    "region_noise_integral",
    "zeta",
    "zeta_inverse",
]

_CHUNK = 1_000_000
_CORE_HALFWIDTH = 1.0e-3  # m, half-side of the hybrid mode's direct-sum window
_MAX_PATCHES = 250_000_000


class PatchBudgetError(RuntimeError):
    """Tiling would exceed the patch budget.

    Either coarsen patch_size, shrink the direct-summation core, or drop
    exact mode so the far field is integrated in the continuum limit.
    """


@dataclass(frozen=True)
class PlaneRegion:
    """Axis-aligned rectangle on the chip plane with fluctuation weight."""

    rect: tuple[float, float, float, float]  # x_min, x_max, y_min, y_max
    weight: float = 1.0
    name: str = ""

    def __post_init__(self):
        x0, x1, y0, y1 = self.rect
        if not (x1 > x0 and y1 > y0):
            raise DomainError(f"degenerate region rect {self.rect}")
        if self.weight < 0.0:
            raise DomainError(f"region weight must be >= 0, got {self.weight}")


def _overlaps(a: PlaneRegion, b: PlaneRegion) -> bool:
    ax0, ax1, ay0, ay1 = a.rect
    bx0, bx1, by0, by1 = b.rect
    return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1


@dataclass(frozen=True)
class PatchScene:
    """Disjoint surface regions plus the ion pose above the plane."""

    regions: tuple[PlaneRegion, ...]
    ion_height: float
    ion_xy: tuple[float, float] = (0.0, 0.0)
    axial_dir: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if self.ion_height <= 0.0:
            raise DomainError(f"ion height must be > 0, got {self.ion_height}")
        norm = math.hypot(*self.axial_dir)
        if abs(norm - 1.0) > 1e-9:
            raise DomainError(f"axial_dir must be a unit vector, |v| = {norm}")
        for i, a in enumerate(self.regions):
            for b in self.regions[i + 1:]:
                if _overlaps(a, b):
                    raise DomainError(
                        f"regions {a.name or i!r} and {b.name!r} overlap"
                    )

    def region(self, name: str) -> PlaneRegion:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(f"no region named {name!r}")


def _kernel(x, y, area, scene: PatchScene):
    """3 h da A / (2 pi R^5) for patches of area A centred at (x, y)."""
    dx = x - scene.ion_xy[0]
    dy = y - scene.ion_xy[1]
    da = dx * scene.axial_dir[0] + dy * scene.axial_dir[1]
    h = scene.ion_height
    r2 = dx * dx + dy * dy + h * h
    return 3.0 * h * da * area / (2.0 * np.pi * r2**2.5)


def axial_patch_kernel(centers, areas, scene: PatchScene):
    """Axial field per volt for patches at ``centers`` with ``areas``.

    ``centers`` is an (N, 2) array of patch centres; scalar input is fine.
    """
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    k = _kernel(c[:, 0], c[:, 1], np.asarray(areas, dtype=float), scene)
    return k if k.size > 1 else float(k[0])


def _tile_edges(lo: float, hi: float, step: float) -> np.ndarray:
    """Grid anchored at ``lo``; the last cell keeps its true partial width."""
    n = int(math.ceil((hi - lo) / step - 1e-12))
    edges = lo + step * np.arange(n + 1)
    edges[-1] = hi
    return edges


def _direct_sum_k2(rect, scene: PatchScene, patch_size: float) -> float:
    x0, x1, y0, y1 = rect
    ex = _tile_edges(x0, x1, patch_size)
    ey = _tile_edges(y0, y1, patch_size)
    nx, ny = ex.size - 1, ey.size - 1
    if nx * ny > _MAX_PATCHES:
        raise PatchBudgetError(
            f"{nx * ny:.3g} patches exceed the budget of {_MAX_PATCHES:.3g}; "
            "increase patch_size or use the hybrid far-field mode"
        )
    cx = 0.5 * (ex[:-1] + ex[1:])
    wx = np.diff(ex)
    cy = 0.5 * (ey[:-1] + ey[1:])
    wy = np.diff(ey)

    partials = []
    rows_per_chunk = max(1, _CHUNK // max(nx, 1))
    for j0 in range(0, ny, rows_per_chunk):
        j1 = min(j0 + rows_per_chunk, ny)
        area = wy[j0:j1][:, None] * wx[None, :]
        k = _kernel(cx[None, :], cy[j0:j1][:, None], area, scene)
        partials.append(float(np.sum(k * k)))
    return math.fsum(partials)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _geom_edges(lo: float, hi: float, center: float, scale: float) -> np.ndarray:
    """Edges whose spacing grows geometrically away from ``center``."""
    edges = {lo, hi}
    step = scale
    x = max(center, lo)
    while x < hi:
        x = min(center, hi) if x < center else x
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


def _continuum_k2(rect, scene: PatchScene, patch_size: float) -> float:
    """Continuum limit of the kernel-squared sum: patch_size^2 * int k^2 dA.

    The pointwise kernel density (the kernel at unit area) is smooth away
    from the ion, so fixed-order Gauss-Legendre cells on a geometrically
    graded grid integrate it to near machine accuracy.
    """
    x0, x1, y0, y1 = rect
    ex = _geom_edges(x0, x1, scene.ion_xy[0], scene.ion_height)
    ey = _geom_edges(y0, y1, scene.ion_xy[1], scene.ion_height)

    total = 0.0
    for i in range(ex.size - 1):
        hx = 0.5 * (ex[i + 1] - ex[i])
        mx = 0.5 * (ex[i + 1] + ex[i])
        xs = mx + hx * _GL_NODES
        for j in range(ey.size - 1):
            hy = 0.5 * (ey[j + 1] - ey[j])
            my = 0.5 * (ey[j + 1] + ey[j])
            ys = my + hy * _GL_NODES
            k_density = _kernel(xs[:, None], ys[None, :], 1.0, scene)
            w = _GL_WEIGHTS[:, None] * _GL_WEIGHTS[None, :]
            total += hx * hy * float(np.sum(w * k_density**2))
    return patch_size**2 * total


def _clip(rect, window):
    x0 = max(rect[0], window[0])
    x1 = min(rect[1], window[1])
    y0 = max(rect[2], window[2])
    y1 = min(rect[3], window[3])
    if x1 > x0 and y1 > y0:
        return (x0, x1, y0, y1)
    return None


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
    (x_min, y_min) corner; edge tiles keep their true partial area.  In the
    default hybrid mode only the core window (ion +- _CORE_HALFWIDTH) is
    summed directly and the remainder uses the continuum limit, which is
    accurate because the kernel density varies slowly many heights away
    from the ion.  ``exact=True`` forces full direct summation.
    """
    if patch_size <= 0.0:
        raise DomainError(f"patch_size must be > 0, got {patch_size}")
    if exact:
        return _direct_sum_k2(region.rect, scene, patch_size)
    window = (
        scene.ion_xy[0] - _CORE_HALFWIDTH, scene.ion_xy[0] + _CORE_HALFWIDTH,
        scene.ion_xy[1] - _CORE_HALFWIDTH, scene.ion_xy[1] + _CORE_HALFWIDTH,
    )
    total = 0.0
    core = _clip(region.rect, window)
    if core is not None:
        total += _direct_sum_k2(core, scene, patch_size)
    for rect in _subtract(region.rect, window):
        total += _continuum_k2(rect, scene, patch_size)
    return total


def _share(f_ratio: float, i_target: float, rest: float) -> float:
    """f I_t / (f I_t + rest); zero at f = 0 even when every integral vanishes."""
    if f_ratio < 0.0:
        raise DomainError(f"f_ratio must be >= 0, got {f_ratio}")
    if f_ratio == 0.0:
        return 0.0
    denom = f_ratio * i_target + rest
    if denom <= 0.0:
        raise DomainError("all weighted region integrals vanish")
    return f_ratio * i_target / denom


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
        integrals[r.name or f"region{id(r)}"] = val
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
    if i_target <= 0.0:
        raise DomainError(f"target region {target_name!r} integral vanishes")
    return target_zeta / (1.0 - target_zeta) * rest / i_target
