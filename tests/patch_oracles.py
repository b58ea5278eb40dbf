"""Reference forms of the patch kernel and of the midpoint-corrected
continuum density, written the direct way, for checking the fused sums in
:mod:`trapnoise.patches`."""

import math

import numpy as np

from trapnoise import patches
from trapnoise.patches import PatchScene


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


def direct_sum_k2_general(cx, wx, cy, wy, scene: PatchScene) -> float:
    """The general block loop of ``patches._direct_sum_k2``, forming da^2
    tile by tile for every axis; the fused sum, axis-aligned path included,
    must match it bit for bit."""
    h = scene.ion_height
    dx = cx - scene.ion_xy[0]
    dy = cy - scene.ion_xy[1]
    dx_a, dy_a = dx * scene.axial_dir[0], dy * scene.axial_dir[1]
    dx2h2, dy2 = dx * dx + h * h, dy * dy
    wx2 = wx * wx
    rows = max(1, patches._CHUNK // max(cx.size, 1))
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
        np.add(dx_a, dy_a[j0:j1, None], out=u)
        np.multiply(u, u, out=u)
        np.add(dx2h2, dy2[j0:j1, None], out=s)
        np.multiply(s, s, out=t)
        np.multiply(t, t, out=t)
        np.multiply(t, s, out=t)
        np.divide(u, t, out=u)
        np.dot(u, wx2, out=row_sums[j0:j1])
    return patches._prefactor(h) * math.fsum(row_sums * (wy * wy))


def midpoint_density_leibniz(dx, dy, scene: PatchScene, patch_size: float,
                             along: int | None = None):
    """da^2 s^-5 less the Euler-Maclaurin terms of the composite midpoint
    rule on tiles of side p, through O(p^4), term by term.

    Here s = dx^2 + dy^2 + h^2 and da = (dx, dy) . axial_dir.  The
    corrected integrand is f - ax f_xx - ay f_yy + 7/10 (ax^2 f_xxxx +
    ay^2 f_yyyy) + ax ay f_xxyy, f = da^2 s^-5, with ax = ay = p^2 / 24 for
    the 2-D rule; the 1-D rule along x (``along`` = 0) or y (1) keeps only
    that axis's a.  The derivatives follow from Leibniz's rule on u = da^2
    (u_x = 2 ax da, u_xx = 2 ax^2, u_xy = 2 ax ay) times g = s^-5, whose
    s-derivatives are g_k below.
    """
    ax, ay = scene.axial_dir
    da = dx * ax + dy * ay
    u = da * da
    s = dx * dx + dy * dy + scene.ion_height**2
    g0 = s**-5.0
    g1, g2 = -5.0 * g0 / s, 30.0 * g0 / s**2
    g3, g4 = -210.0 * g0 / s**3, 1680.0 * g0 / s**4
    gx, gy = 2.0 * dx * g1, 2.0 * dy * g1
    gxx, gyy = 4.0 * dx * dx * g2 + 2.0 * g1, 4.0 * dy * dy * g2 + 2.0 * g1
    gxy = 4.0 * dx * dy * g2
    gxxx = 8.0 * dx**3 * g3 + 12.0 * dx * g2
    gyyy = 8.0 * dy**3 * g3 + 12.0 * dy * g2
    gxxy = 8.0 * dx * dx * dy * g3 + 4.0 * dy * g2
    gxyy = 8.0 * dx * dy * dy * g3 + 4.0 * dx * g2
    gxxxx = 16.0 * dx**4 * g4 + 48.0 * dx * dx * g3 + 12.0 * g2
    gyyyy = 16.0 * dy**4 * g4 + 48.0 * dy * dy * g3 + 12.0 * g2
    gxxyy = 16.0 * dx * dx * dy * dy * g4 + 8.0 * (dx * dx + dy * dy) * g3 + 4.0 * g2

    f_xx = u * gxx + 4.0 * da * ax * gx + 2.0 * ax * ax * g0
    f_yy = u * gyy + 4.0 * da * ay * gy + 2.0 * ay * ay * g0
    f_xxxx = u * gxxxx + 8.0 * da * ax * gxxx + 12.0 * ax * ax * gxx
    f_yyyy = u * gyyyy + 8.0 * da * ay * gyyy + 12.0 * ay * ay * gyy
    f_xxyy = (u * gxxyy + 4.0 * da * (ax * gxyy + ay * gxxy)
              + 2.0 * (ax * ax * gyy + ay * ay * gxx) + 8.0 * ax * ay * gxy)
    a_x, a_y = (patch_size**2 / 24.0 if along in (None, k) else 0.0 for k in (0, 1))
    return (u * g0 - a_x * f_xx - a_y * f_yy
            + 0.7 * (a_x * a_x * f_xxxx + a_y * a_y * f_yyyy) + a_x * a_y * f_xxyy)
