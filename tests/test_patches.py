"""Patch-potential kernel, region tilings, and the noise-share ratio."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

from trapnoise import patches
from trapnoise.configio import load_scene, packaged_config
from trapnoise.constants import DomainError
from trapnoise.patches import (
    PatchBudgetError,
    PatchScene,
    PlaneRegion,
    ZetaResult,
    region_noise_integral,
    zeta,
    zeta_inverse,
)

from patch_oracles import (
    _kernel,
    axial_patch_kernel,
    direct_sum_k2_general,
    midpoint_density_leibniz,
)

H = 225e-6


def simple_scene(axial=(1.0, 0.0)) -> PatchScene:
    return PatchScene(
        regions=(
            PlaneRegion((-370e-6, 370e-6, -290e-6, 290e-6), name="inner"),
            PlaneRegion((370e-6, 2e-3, -290e-6, 290e-6), name="east"),
        ),
        ion_height=H,
        axial_dir=axial,
    )


# ---------------------------------------------------------------------------
# the kernel itself


def test_kernel_hand_value():
    scene = simple_scene()
    da, db, area = 100e-6, -50e-6, 4e-12
    r2 = da**2 + db**2 + H**2
    expected = 3.0 * H * da * area / (2.0 * math.pi * r2**2.5)
    assert axial_patch_kernel([(da, db)], [area], scene) == pytest.approx(
        expected, rel=1e-13
    )


def test_kernel_antisymmetric_along_axial_direction():
    scene = simple_scene()
    k_plus = axial_patch_kernel([(120e-6, 80e-6)], [1e-12], scene)
    k_minus = axial_patch_kernel([(-120e-6, 80e-6)], [1e-12], scene)
    assert k_plus == pytest.approx(-k_minus, rel=1e-13)


def test_kernel_vanishes_transverse_to_axial_direction():
    scene = simple_scene()
    assert axial_patch_kernel([(0.0, 150e-6)], [1e-12], scene) == 0.0


def test_kernel_respects_axial_rotation():
    # axial along y: roles of the two offsets swap
    scene_x = simple_scene(axial=(1.0, 0.0))
    scene_y = simple_scene(axial=(0.0, 1.0))
    k_x = axial_patch_kernel([(130e-6, 40e-6)], [1e-12], scene_x)
    k_y = axial_patch_kernel([(40e-6, 130e-6)], [1e-12], scene_y)
    assert k_x == pytest.approx(k_y, rel=1e-13)


def test_kernel_array_input():
    scene = simple_scene()
    centers = np.array([[100e-6, 0.0], [200e-6, 50e-6]])
    areas = np.array([1e-12, 2e-12])
    k = axial_patch_kernel(centers, areas, scene)
    assert k.shape == (2,)
    assert k[0] == pytest.approx(
        axial_patch_kernel([centers[0]], [areas[0]], scene), rel=1e-13
    )


def test_kernel_against_grounded_plane_potential_derivative():
    # independent route: the potential of a held patch on a grounded plane is
    # Phi(x) = (h / 2 pi) int dA / R^3; the axial field is -dPhi/dx_a.  For a
    # small patch this must match the point kernel up to O((patch/R)^2).
    scene = simple_scene()
    cx, cy, side = 300e-6, -200e-6, 2e-6

    def potential(x_ion):
        val, _ = integrate.dblquad(
            lambda yy, xx: 1.0 / ((xx - x_ion) ** 2 + cy**2 + H**2) ** 1.5,
            cx - side / 2, cx + side / 2,
            cy - side / 2, cy + side / 2,
            epsabs=1e-20, epsrel=1e-11,
        )
        return H * val / (2.0 * math.pi)

    step = 1e-7
    field = -(potential(step) - potential(-step)) / (2.0 * step)
    kernel = axial_patch_kernel([(cx, cy)], [side**2], scene)
    assert abs(kernel) == pytest.approx(abs(field), rel=1e-3)


# ---------------------------------------------------------------------------
# the fused kernels against their reference forms


@st.composite
def _poses(draw):
    """An ion at 5-300 um height, up to 0.5 mm off centre, with a tilted
    axial direction."""
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    offset = st.floats(-0.5e-3, 0.5e-3)
    return PatchScene(
        regions=(),
        ion_height=draw(st.floats(5e-6, 300e-6)),
        ion_xy=(draw(offset), draw(offset)),
        axial_dir=(math.cos(angle), math.sin(angle)),
    )


@st.composite
def _small_grids(draw):
    """Tile centres and widths along x and y of a rectangle within +-1 mm,
    up to 40 x 40 tiles, whose last column and row are partial."""
    axes = []
    for _ in range(2):
        lo = draw(st.floats(-1e-3, 1e-3))
        step = draw(st.floats(0.5e-6, 50e-6))
        whole = draw(st.integers(0, 39))
        axes += patches._tiles(lo, lo + step * (whole + draw(st.floats(0.01, 0.99))), step)
    return axes


def _fsum_of_oracle(cx, wx, cy, wy, scene):
    x, y = np.meshgrid(cx, cy)
    k = _kernel(x, y, np.outer(wy, wx), scene)
    return math.fsum((k * k).ravel())


@pytest.mark.parametrize("small_blocks", [False, True])
@settings(max_examples=200, deadline=None)
@given(grid=_small_grids(), scene=_poses(), data=st.data())
def test_direct_sum_matches_per_tile_kernel(small_blocks, grid, scene, data):
    # small blocks below one row's width hold a single row; larger ones
    # split the rows unevenly whenever their row count does not divide them
    cx, _, cy, _ = grid
    chunk = data.draw(st.integers(1, cx.size * cy.size)) if small_blocks else patches._CHUNK
    with mock.patch.object(patches, "_CHUNK", chunk):
        got = patches._direct_sum_k2(*grid, scene)
    assert got == pytest.approx(_fsum_of_oracle(*grid, scene), rel=1e-14, abs=0.0)


# both signs along each chip axis, and an axis a hair short of unit length,
# take the axis-aligned path; the tilted axis runs the general loop
_AXES = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.0, 1.0 - 1e-10),
         (0.6, 0.8)]


@pytest.mark.parametrize("axial", [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8)])
def test_direct_sum_is_bit_identical_at_every_heap_offset(axial):
    # the block buffers start on a 64-byte boundary whatever address the
    # allocator hands out, so the offset mod 64 cannot change a bit
    grid = (*patches._tiles(-300e-6, 310e-6, 1e-6),
            *patches._tiles(-200e-6, 205e-6, 1e-6))
    scene = simple_scene(axial)
    real_empty = np.empty
    sums = set()
    for shift in range(8):
        def shifted_empty(n):
            raw = real_empty(n + 16)
            start = (-raw.ctypes.data % 64) // 8 + shift
            return raw[start : start + n]

        with mock.patch.object(patches.np, "empty", shifted_empty):
            sums.add(patches._direct_sum_k2(*grid, scene))
    assert sums == {direct_sum_k2_general(*grid, scene)}


@pytest.mark.parametrize("axial", _AXES)
@settings(max_examples=60, deadline=None)
@given(grid=_small_grids(), pose=_poses(), data=st.data())
def test_direct_sum_keeps_the_bits_of_the_general_loop(axial, grid, pose, data):
    # off-centre ions, 1 to 40 tiles a side with a partial last tile, and
    # blocks from one row up to the whole grid
    cx, _, cy, _ = grid
    chunk = data.draw(st.integers(1, cx.size * cy.size) | st.just(patches._CHUNK))
    scene = replace(pose, axial_dir=axial)
    with mock.patch.object(patches, "_CHUNK", chunk):
        assert patches._direct_sum_k2(*grid, scene) == direct_sum_k2_general(*grid, scene)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "hybrid"])
@pytest.mark.parametrize("axial", _AXES)
def test_region_integrals_keep_the_bits_of_the_general_loop(axial, exact, monkeypatch):
    # 51 x 29 and 36 x 36 tiles, each with a partial last column and row,
    # under an off-centre ion right above a tile centre (da = +-0 there);
    # a 10-tile core reaches the edge of the first region, so hybrid mode
    # sums a core directly and integrates the rest
    monkeypatch.setattr(patches, "_core_tiles", lambda patch_size, height: 10)
    odd = PlaneRegion((-41.3e-6, 60e-6, -30e-6, 27.5e-6), name="odd")
    even = PlaneRegion((60e-6, 131e-6, -30e-6, 40.9e-6), name="even")
    cx, _ = patches._tiles(-41.3e-6, 60e-6, 2e-6)
    cy, _ = patches._tiles(-30e-6, 27.5e-6, 2e-6)
    scene = PatchScene((odd, even), ion_height=20e-6,
                       ion_xy=(float(cx[7]), float(cy[5])), axial_dir=axial)
    got = [region_noise_integral(r, scene, 2e-6, exact) for r in scene.regions]
    with mock.patch.object(patches, "_direct_sum_k2", direct_sum_k2_general):
        want = [region_noise_integral(r, scene, 2e-6, exact) for r in scene.regions]
    assert got == want and all(v > 0.0 for v in got)


@pytest.mark.parametrize("along", [None, 0, 1], ids=["2d", "along-x", "along-y"])
@settings(max_examples=200, deadline=None)
@given(scene=_poses(), patch=st.floats(0.5e-6, 20e-6),
       span=st.floats(1e-6, 1e-3), nodal=st.floats(-1e-3, 1e-3))
def test_midpoint_density_matches_leibniz_form(along, scene, patch, span, nodal):
    # a 41 x 41 grid about the ion, plus points on the nodal line da = 0;
    # the 2-D rule, and the 1-D rule along either axis
    ax, ay = scene.axial_dir
    u = span * np.linspace(-1.0, 1.0, 41)
    t = np.append(nodal * np.linspace(-1.0, 1.0, 41), 0.0)
    dx = np.concatenate([np.repeat(u, u.size), -ay * t])
    dy = np.concatenate([np.tile(u, u.size), ax * t])
    if along is None:
        got = patches._midpoint_density(dx, dy, scene, patch)
    else:
        got = patches._midpoint_line_density(dx, dy, scene, patch, along)
    want = midpoint_density_leibniz(dx, dy, scene, patch, along)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# region sums


def big_plane_scene(height=H) -> PatchScene:
    return PatchScene(
        regions=(PlaneRegion((-0.05, 0.05, -0.05, 0.05), name="plane"),),
        ion_height=height,
    )


def test_full_plane_sum_matches_closed_form():
    # continuum limit of sum K^2 over an unbounded plane: 3 a^2 / (32 pi h^4)
    scene = big_plane_scene()
    patch = 1e-6
    val = region_noise_integral(scene.regions[0], scene, patch)
    expected = 3.0 * patch**2 / (32.0 * math.pi * H**4)
    assert val == pytest.approx(expected, rel=1e-4)


def test_full_plane_sum_scales_as_inverse_fourth_power_of_height():
    heights = np.geomspace(100e-6, 400e-6, 4)
    vals = []
    for h in heights:
        scene = big_plane_scene(height=h)
        vals.append(region_noise_integral(scene.regions[0], scene, 1e-6))
    slope = np.polyfit(np.log(heights), np.log(vals), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.02)


def test_hybrid_matches_exact_summation(monkeypatch):
    scene = simple_scene()
    region = scene.region("inner")
    exact = region_noise_integral(region, scene, 2e-6, exact=True)
    # force a small direct core, though it touches no edge, so the hybrid
    # path actually mixes both modes
    monkeypatch.setattr(patches, "_core_tiles", lambda patch_size, height: 10)
    monkeypatch.setattr(patches, "_CLEAR_HEIGHT", math.inf)
    hybrid = region_noise_integral(region, scene, 2e-6)
    assert hybrid == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("patch_um", [2.0, 3.0, 7.0])
def test_hybrid_with_core_covering_region_is_exact(patch_um, monkeypatch):
    # with no continuum left, the core must tile the region exactly as
    # exact mode does
    scene = simple_scene(axial=(0.6, 0.8))
    monkeypatch.setattr(patches, "_core_tiles", lambda patch_size, height: 10**6)
    for region in scene.regions:
        exact = region_noise_integral(region, scene, patch_um * 1e-6, exact=True)
        hybrid = region_noise_integral(region, scene, patch_um * 1e-6)
        assert hybrid == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("width_um", [15.0, 20.0, 30.0])
def test_hybrid_thin_region_on_nodal_line(width_um):
    # a strip two or three tiles wide straddling da = 0, all of it outside
    # the core: there the kernel nearly vanishes, so the leading midpoint
    # correction alone leaves a relative error of 1e-5 to 1e-4
    half = 0.5 * width_um * 1e-6
    region = PlaneRegion((0.5e-3 - half, 0.5e-3 + half, -1e-3, -0.8e-3))
    scene = PatchScene(regions=(region,), ion_height=5e-6, ion_xy=(0.5e-3, 0.5e-3))
    exact = region_noise_integral(region, scene, 10e-6, exact=True)
    assert region_noise_integral(region, scene, 10e-6) == pytest.approx(exact, rel=1e-6)


@st.composite
def _tiled_scenes(draw):
    """One to three disjoint rectangles within +-1 mm, one per vertical band,
    with an ion pose and a patch size that keep exact mode under 3e6 tiles."""
    mm = 1e-3
    n = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.floats(-mm, mm), min_size=n - 1, max_size=n - 1)))
    frac = st.floats(0.0, 0.99)
    regions = []
    for i, (lo, hi) in enumerate(zip([-mm, *cuts], [*cuts, mm])):
        x0 = lo + (hi - lo) * draw(frac)
        x1 = hi - (hi - x0) * draw(frac)
        y0 = -mm + 2.0 * mm * draw(frac)
        y1 = mm - (mm - y0) * draw(frac)
        assume(x1 > x0 and y1 > y0)
        regions.append(PlaneRegion((x0, x1, y0, y1), name=f"r{i}"))
    # log-uniform from 0.5 to 20 um, so most sizes divide no side
    patch = 0.5e-6 * 40.0 ** draw(st.floats(0.0, 1.0))
    tiles = sum(
        math.ceil((x1 - x0) / patch) * math.ceil((y1 - y0) / patch)
        for x0, x1, y0, y1 in (r.rect for r in regions)
    )
    assume(tiles <= 3_000_000)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    offset = st.floats(-0.5 * mm, 0.5 * mm)
    scene = PatchScene(
        regions=tuple(regions),
        ion_height=draw(st.floats(5e-6, 300e-6)),
        ion_xy=(draw(offset), draw(offset)),
        axial_dir=(math.cos(angle), math.sin(angle)),
    )
    return scene, patch


@settings(max_examples=100, deadline=None)
@given(case=_tiled_scenes())
def test_hybrid_matches_exact_on_random_scenes(case):
    # random regions agree to 3e-11; a region a dozen tiles wide straddling
    # the nodal line, whose integral the da^2 factor suppresses, to 2e-10
    scene, patch = case
    for region in scene.regions:
        exact = region_noise_integral(region, scene, patch, exact=True)
        hybrid = region_noise_integral(region, scene, patch)
        assert hybrid == pytest.approx(exact, rel=1e-9)


@st.composite
def _framed_scenes(draw):
    """A window under the ion and four regions framing it out to +-1 mm,
    as on the packaged chip, with patches of 2-20 um and p/h up to 0.5."""
    mm = 1e-3
    patch = 2e-6 * 10.0 ** draw(st.floats(0.0, 1.0))
    a, b = draw(st.floats(50e-6, 400e-6)), draw(st.floats(50e-6, 400e-6))
    regions = (
        PlaneRegion((-a, a, -b, b), name="window"),
        PlaneRegion((-mm, mm, -mm, -b), name="south"),
        PlaneRegion((-mm, mm, b, mm), name="north"),
        PlaneRegion((-mm, -a, -b, b), name="west"),
        PlaneRegion((a, mm, -b, b), name="east"),
    )
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    scene = PatchScene(
        regions,
        ion_height=draw(st.floats(2.0 * patch, 300e-6)),
        ion_xy=(draw(st.floats(-a / 2, a / 2)), draw(st.floats(-b / 2, b / 2))),
        axial_dir=(math.cos(angle), math.sin(angle)),
    )
    return scene, patch


@settings(max_examples=30, deadline=None)
@given(case=_framed_scenes())
def test_hybrid_matches_exact_up_to_half_the_ion_height(case):
    scene, patch = case
    for region in scene.regions:
        exact = region_noise_integral(region, scene, patch, exact=True)
        assert region_noise_integral(region, scene, patch) == pytest.approx(exact, rel=1e-10)


def packaged_scene(height=H) -> PatchScene:
    return replace(load_scene(packaged_config("scenes", "ybco-chip")), ion_height=height)


@pytest.mark.parametrize("height", [225e-6, 50e-6])
@pytest.mark.parametrize("patch", [1e-6, 2e-6])
def test_hybrid_matches_exact_on_the_packaged_scene(height, patch):
    scene = packaged_scene(height)
    for region in scene.regions:
        exact = region_noise_integral(region, scene, patch, exact=True)
        assert region_noise_integral(region, scene, patch) == pytest.approx(exact, rel=1e-10)


def test_hybrid_direct_sum_does_not_grow_as_patches_shrink():
    # partial last columns and rows summed tile by tile would grow as 1/p,
    # to about 1e6 tiles at 0.02 um
    scene = packaged_scene()
    counts = []
    real = patches._direct_sum_k2

    def counting(cx, wx, cy, wy, scene):
        counts[-1] += cx.size * cy.size
        return real(cx, wx, cy, wy, scene)

    with mock.patch.object(patches, "_direct_sum_k2", counting):
        for patch in (2e-6, 0.5e-6, 0.02e-6):
            counts.append(0)
            zeta(scene, 1.0, patch)
    assert counts == sorted(counts, reverse=True)


def test_tiles_have_no_phantom_last_tile():
    # an absolute slack in the tile count falls below one ulp of the ratio
    # past about 4,500 tiles and leaves a last tile of width 0 or -3e-19 m
    scene = packaged_scene()
    for patch in np.geomspace(0.02e-6, 20e-6, 400):
        for region in scene.regions:
            x0, x1, y0, y1 = region.rect
            for lo, hi in ((x0, x1), (y0, y1)):
                _, widths = patches._tiles(lo, hi, patch)
                # the edges lo + k p carry rounding of a few ulp of |lo|
                noise = 4.0 * math.ulp(max(abs(lo), abs(hi)))
                assert noise < widths.min() and widths.max() <= patch + noise


def test_patch_size_convergence():
    # the kernel-squared sum scales as patch area; the normalized value
    # drifts only at the discretization level between 0.5 um and 2 um
    scene = simple_scene()
    region = scene.region("inner")
    per_area = [
        region_noise_integral(region, scene, p) / p**2
        for p in (0.5e-6, 2e-6)
    ]
    assert per_area[0] == pytest.approx(per_area[1], rel=5e-3)


def test_exact_mode_budget_error(monkeypatch):
    scene = big_plane_scene()
    monkeypatch.setattr(patches, "_MAX_PATCHES", 1_000_000)
    with pytest.raises(PatchBudgetError):
        region_noise_integral(scene.regions[0], scene, 1e-6, exact=True)


def test_hybrid_sums_nanometre_patches_within_the_budget(monkeypatch):
    # 1e8 tiles a side: the hybrid sums no strip directly, so a budget of
    # 100 direct tiles holds, and the sum keeps the continuum limit
    scene = big_plane_scene()
    monkeypatch.setattr(patches, "_MAX_PATCHES", 100)
    patch = 1e-9
    val = region_noise_integral(scene.regions[0], scene, patch)
    assert val == pytest.approx(3.0 * patch**2 / (32.0 * math.pi * H**4), rel=1e-4)


@pytest.mark.parametrize("patch", [2e-316, 1e-300, 1e-20])
@pytest.mark.parametrize("exact", [False, True], ids=["hybrid", "exact"])
def test_tile_count_past_float_range_is_a_budget_error(exact, patch):
    # 740 um / 2e-316 m overflows to inf tiles along each axis; 1e-300 m
    # and 1e-20 m give finite counts past 2^53, where floats stop counting
    scene = simple_scene()
    with pytest.raises(PatchBudgetError, match="patch count overflows a float"):
        region_noise_integral(scene.region("inner"), scene, patch, exact=exact)


def test_region_integral_rejects_bad_patch_size():
    scene = simple_scene()
    with pytest.raises(DomainError):
        region_noise_integral(scene.region("inner"), scene, 0.0)


# ---------------------------------------------------------------------------
# scene validation


def test_scene_rejects_overlapping_regions():
    with pytest.raises(DomainError):
        PatchScene(
            regions=(
                PlaneRegion((-1e-3, 1e-3, -1e-3, 1e-3), name="a"),
                PlaneRegion((0.0, 2e-3, -1e-3, 1e-3), name="b"),
            ),
            ion_height=H,
        )


def test_scene_rejects_a_repeated_region_name():
    # disjoint regions, so only the name is at fault
    with pytest.raises(DomainError, match="'a' is used twice"):
        PatchScene(
            regions=(
                PlaneRegion((-1e-3, 0.0, -1e-3, 1e-3), name="a"),
                PlaneRegion((0.0, 1e-3, -1e-3, 1e-3), name="a"),
            ),
            ion_height=H,
        )


def test_scene_normalises_a_non_unit_axial_direction():
    region = PlaneRegion((-1e-3, 1e-3, -1e-3, 1e-3), name="a")
    assert PatchScene((region,), H, axial_dir=(3.0, 4.0)).axial_dir == (0.6, 0.8)
    assert PatchScene((region,), H, axial_dir=[0.0, -2.5]).axial_dir == (0.0, -1.0)
    # a unit axis keeps its bits, and so does a scene rebuilt by replace
    scene = PatchScene((region,), H, axial_dir=(0.6, 0.8))
    assert replace(scene, ion_height=2 * H).axial_dir == (0.6, 0.8)


@pytest.mark.parametrize(
    "axial", [(1.7e308, 1.7e308), (-1.7e308, 1e308), (5e-324, 5e-324), (-1e-320, 3e-321)],
    ids=["overflow", "overflow-mixed", "subnormal", "subnormal-mixed"],
)
def test_scene_normalises_an_axis_at_the_ends_of_the_float_range(axial):
    # math.hypot overflows to inf above, and keeps too few bits below the
    # smallest normal float; the axis is scaled by its larger component first
    a, b = PatchScene((), H, axial_dir=axial).axial_dir
    assert abs(math.hypot(a, b) - 1.0) <= 2 * math.ulp(1.0)
    assert (math.copysign(1.0, a), math.copysign(1.0, b)) == tuple(
        math.copysign(1.0, v) for v in axial)


@pytest.mark.parametrize(
    "axial", [(0.0, 0.0), (-0.0, 0.0), (math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)]
)
def test_scene_rejects_a_zero_or_non_finite_axial_direction(axial):
    with pytest.raises(DomainError, match=r"^\|axial_dir\| must be (> 0|finite)"):
        PatchScene(regions=(), ion_height=H, axial_dir=axial)


@pytest.mark.parametrize("ion_xy", [(0.0, math.inf), (math.nan, 0.0)])
def test_scene_rejects_a_non_finite_ion_position(ion_xy):
    with pytest.raises(DomainError, match="ion position must be finite"):
        PatchScene(regions=(), ion_height=H, ion_xy=ion_xy)


def test_scene_region_lookup():
    scene = simple_scene()
    assert scene.region("east").name == "east"
    with pytest.raises(DomainError, match=r"^no region named 'nope' \(regions: inner, east\)$"):
        scene.region("nope")
    with pytest.raises(DomainError, match="no region named 'nope'"):
        zeta(scene, 1.0, 2e-6, target_name="nope")


def test_region_validation():
    with pytest.raises(DomainError):
        PlaneRegion((0.0, 0.0, -1e-3, 1e-3))
    with pytest.raises(DomainError):
        PlaneRegion((0.0, 1e-3, -1e-3, 1e-3), weight=-1.0)


# ---------------------------------------------------------------------------
# noise share


def test_zeta_limits_and_monotonicity():
    scene = simple_scene()
    assert zeta(scene, 0.0, 2e-6, target_name="inner").zeta == 0.0
    values = [
        zeta(scene, f, 2e-6, target_name="inner").zeta
        for f in (0.05, 0.3, 1.0, 5.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert 0.0 < values[0] < values[-1] < 1.0


def test_zeta_equal_strength_dominated_by_near_region():
    # the region directly beneath the ion carries most of the kernel weight
    scene = simple_scene()
    res = zeta(scene, 1.0, 2e-6, target_name="inner")
    assert res.zeta > 0.9
    assert set(res.region_integrals) == {"inner", "east"}


def test_zeta_result_at_matches_zeta():
    scene = simple_scene()
    ref = zeta(scene, 1.0, 2e-6, target_name="inner")
    for f in (0.0, 0.05, 0.3, 1.0, 5.0):
        assert ref.at(f) == zeta(scene, f, 2e-6, target_name="inner").zeta
    with pytest.raises(DomainError):
        ref.at(-0.5)


def test_zeta_zero_ratio_on_target_only_scene():
    # no other region: the share is 1 for any f > 0 and 0 at f = 0
    scene = PatchScene(
        regions=(PlaneRegion((-370e-6, 370e-6, -290e-6, 290e-6), name="inner"),),
        ion_height=H,
    )
    res = zeta(scene, 0.0, 2e-6, target_name="inner")
    assert res.zeta == 0.0
    assert res.at(0.5) == 1.0


def test_share_where_the_weighted_target_integral_is_zero_or_tiny():
    # a vanishing target integral gives 0 while the rest carries noise, and
    # a DomainError once every weighted integral vanishes; a ratio so small
    # that rest / (f I) overflows still gives a positive, monotone share
    silent = ZetaResult(0.0, 1.0, {}, target_integral=0.0, weighted_rest=2.0)
    assert silent.at(0.0) == silent.at(3.0) == 0.0
    empty = ZetaResult(0.0, 1.0, {}, target_integral=0.0, weighted_rest=0.0)
    assert empty.at(0.0) == 0.0
    with pytest.raises(DomainError):
        empty.at(3.0)
    ref = ZetaResult(0.0, 1.0, {}, target_integral=3.0, weighted_rest=2.0)
    tiny = [ref.at(f) for f in (5e-324, 1e-310, 2e-308 / 3.0, 1e-307, 1e-300)]
    assert 0.0 < tiny[0] and tiny == sorted(tiny)


def test_zeta_inverse_round_trip():
    scene = simple_scene()
    res = zeta(scene, 0.08, 2e-6, target_name="inner")
    f_back = zeta_inverse(scene, res.zeta, 2e-6, target_name="inner")
    assert f_back == pytest.approx(0.08, rel=1e-9)


@pytest.mark.parametrize("east_weight", [None, 0.0], ids=["target-alone", "rest-weight-0"])
def test_zeta_inverse_rejects_a_scene_whose_rest_carries_no_noise(east_weight):
    # zeta is 0 at f = 0 and 1 for every f > 0: no ratio reaches 0.5
    inner = PlaneRegion((-370e-6, 370e-6, -290e-6, 290e-6), name="inner")
    regions = (inner,) if east_weight is None else (
        inner, PlaneRegion((370e-6, 2e-3, -290e-6, 290e-6), east_weight, "east"))
    scene = PatchScene(regions=regions, ion_height=H)
    res = zeta(scene, 1.0, 5e-6, target_name="inner")
    assert (res.at(0.0), res.at(1e-9), res.at(1e9)) == (0.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="other than 'inner' carry no weighted noise"):
        zeta_inverse(scene, 0.5, 5e-6, target_name="inner")


def test_zeta_respects_region_weights():
    weighted = PatchScene(
        regions=(
            PlaneRegion((-370e-6, 370e-6, -290e-6, 290e-6), name="inner"),
            PlaneRegion((370e-6, 2e-3, -290e-6, 290e-6), name="east", weight=4.0),
        ),
        ion_height=H,
    )
    base = zeta(simple_scene(), 1.0, 2e-6, target_name="inner").zeta
    heavy = zeta(weighted, 1.0, 2e-6, target_name="inner").zeta
    assert heavy < base


def test_zeta_validation():
    scene = simple_scene()
    with pytest.raises(DomainError):
        zeta(scene, -0.5, 2e-6, target_name="inner")
    with pytest.raises(DomainError):
        zeta_inverse(scene, 1.5, 2e-6, target_name="inner")


# one reference sum serves every drawn ratio; 5 um patches keep it cheap
_SCENE_REF = zeta(simple_scene(), 1.0, 5e-6, target_name="inner")
_RATIO = st.floats(0.0, 1e6)


@settings(max_examples=300)
@given(f=_RATIO)
def test_zeta_at_is_a_share(f):
    share = _SCENE_REF.at(f)
    assert 0.0 <= share <= 1.0
    assert (share == 0.0) == (f == 0.0)


@settings(max_examples=300)
@given(f_a=_RATIO, f_b=_RATIO)
def test_zeta_at_is_non_decreasing(f_a, f_b):
    lo, hi = sorted((f_a, f_b))
    for a, b in ((lo, hi), (lo, math.nextafter(lo, math.inf))):
        assert _SCENE_REF.at(a) <= _SCENE_REF.at(b)


@settings(max_examples=50, deadline=None)
@given(share=st.floats(1e-6, 1.0 - 1e-6))
def test_zeta_inverse_inverts_zeta_at(share):
    f = zeta_inverse(simple_scene(), share, 5e-6, target_name="inner")
    assert _SCENE_REF.at(f) == pytest.approx(share, rel=1e-12)
