"""Plane-layered media: the stack reflection and the surface response integral.

Conventions
-----------
In-plane wavevector is written as u = q/k with k = omega/c.  Vertical
wavevector factors W = sqrt(eps - u^2) take the branch Im W >= 0 so that
evanescent phase factors decay.  :func:`stack_reflection` requires
a finite eps with Im eps >= 0 of every medium, as a passive medium has, and
raises :class:`DomainError` naming the medium otherwise; it folds
Im eps = -0.0 into +0.0.  Im(eps - u^2) is then >= +0, where the
principal root already lies on the Im W >= 0 branch.  Layer phase factors
use the physical vertical wavenumber k*W (rad/m) times the layer thickness
in metres.

The surface response g_parallel multiplies the blackbody field noise density
as S = S_bb * (1 + g_parallel) for the field component parallel to the
surface at height d above a laterally infinite stack.

Evaluation
----------
:func:`~trapnoise.quadrature.adaptive_gk` hands the g_parallel integrands
at most a few thousand nodes per call, however many panels a round splits.
The integrands and their reflection recursion work in buffers of that
size, which each :func:`greens_parallel` call allocates once: temporaries
made afresh in every integrand call go back to the system and fault back
in, which took about a fifth of the time of a call that fails.  Every
node's value is the same bit for bit as in one call over all of a round's
nodes, except that the W = 0 fallback of :func:`stack_reflection` is
chosen per call; each complex product keeps its operands and their order,
as products with fused multiply-add do not commute bit for bit, and none
is written over one of its own factors.  :func:`stack_reflection` runs
the same kernel in buffers it allocates on every call; so timed, the
kernel costs about 105 ns per node on sapphire-ybco and 160 ns on
sapphire-ybco-au (the benchmark probe's 2,000 nodes at 1 MHz and 80 K,
one BLAS thread, minimum of 40 calls).
The check of eps runs once per medium and call of :func:`stack_reflection`
or :func:`greens_parallel`, before any node is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import CONSTANTS, DegenerateInterfaceError, DomainError, require_above
from .materials import MaterialModel, TwoFluidSC, permittivity
from .quadrature import _CHUNK, adaptive_gk

__all__ = [
    "Layer",
    "LayerStack",
    "GreensResult",
    "DegenerateInterfaceError",
    "NoSuperconductorError",
    "stack_reflection",
    "fresnel_stack",
    "greens_parallel",
]

_ABS_TOL = 1e-5  # g units; errors far below 1 do not matter to 1 + g_parallel
_MAX_EVALS = 2_000_000  # per g_parallel call, split over its two integrals


class NoSuperconductorError(DomainError):
    """A stack operation needs a superconducting layer and found none."""


@dataclass(frozen=True)
class Layer:
    """One stratum: a material and its thickness (None marks the bulk)."""

    material: MaterialModel
    thickness: float | None = None

    def __post_init__(self):
        if self.thickness is not None:
            require_above(self.thickness, "layer thickness")


@dataclass(frozen=True)
class LayerStack:
    """Strata listed top (nearest the ion) to bottom (semi-infinite bulk)."""

    layers: tuple[Layer, ...]
    name: str = ""

    def __post_init__(self):
        if not self.layers:
            raise DomainError("stack needs at least one layer")
        if self.layers[-1].thickness is not None:
            raise DomainError("bottom layer must be semi-infinite (thickness None)")
        for lay in self.layers[:-1]:
            if lay.thickness is None:
                raise DomainError("only the bottom layer may be semi-infinite")

    def with_london_depth(self, lambda0: float) -> LayerStack:
        """This stack with the zero-temperature London depth of every
        :class:`TwoFluidSC` layer set to ``lambda0`` (m); other layers and
        all thicknesses are kept.  A stack without one raises
        :class:`NoSuperconductorError`."""
        if not any(isinstance(lay.material, TwoFluidSC) for lay in self.layers):
            raise NoSuperconductorError("the stack has no superconducting layer")
        return replace(self, layers=tuple(
            replace(lay, material=replace(lay.material, lambda0=lambda0))
            if isinstance(lay.material, TwoFluidSC)
            else lay
            for lay in self.layers
        ))


@dataclass(frozen=True)
class GreensResult:
    g_parallel: float
    error: float
    evaluations: int
    propagating: float
    evanescent: float


def _vertical(eps, u2, out):
    """W = sqrt(eps - u2) into ``out``, the principal root: Im W >= 0 as
    Im eps >= +0."""
    np.subtract(eps.real, u2, out=out.real)
    out.imag[...] = eps.imag
    return np.sqrt(out, out=out)


def _check_denominator(den, eps_a, eps_b, pol: str):
    if not den.all():
        raise DegenerateInterfaceError(
            f"{pol}-polarised Fresnel denominator vanished for "
            f"eps_a={eps_a!r}, eps_b={eps_b!r}"
        )


def _interface(eps_a, eps_b, wa, wb, rs, rp, scratch):
    """(Rs, Rp) of the a|b interface from its vertical wavevector factors,
    written into ``rs`` and ``rp``; eps_b wa and eps_a wb serve both den_p
    and the p numerator.  ``scratch`` holds three more buffers."""
    den_s, b_wa, den_p = scratch
    np.add(wa, wb, out=den_s)
    np.multiply(eps_b, wa, out=b_wa)
    a_wb = np.multiply(eps_a, wb, out=rp)
    np.add(b_wa, a_wb, out=den_p)
    _check_denominator(den_s, eps_a, eps_b, "s")
    _check_denominator(den_p, eps_a, eps_b, "p")
    np.divide(np.subtract(wa, wb, out=rs), den_s, out=rs)
    np.divide(np.subtract(b_wa, a_wb, out=rp), den_p, out=rp)


def _through_layer(r, big_r, ph, num, den):
    """R <- (r + R ph) / (1 + r R ph) in ``big_r``: the reflection of the
    interface r over a layer of phase ph, with two scratch buffers.  No
    complex product is written over one of its factors: numpy multiplies
    one element into a factor by another loop, with other last bits."""
    np.add(r, np.multiply(big_r, ph, out=num), out=num)
    np.multiply(np.multiply(r, big_r, out=den), ph, out=big_r)
    np.divide(num, np.add(1.0, big_r, out=big_r), out=big_r)


def _checked(eps_media):
    """The media as complex numbers once each passes the check of
    :func:`stack_reflection`; Im eps = -0.0 becomes +0.0."""
    for i, eps in enumerate(eps_media):
        require_above(eps.real, f"Re eps of medium {i}", -np.inf)
        require_above(eps.imag, f"Im eps of medium {i}", or_equal=True)
    # a lossless medium written with Im eps = -0.0 keeps the decaying branch
    return [complex(eps.real, eps.imag + 0.0) for eps in eps_media]


def _reflection(eps_media, thicknesses, u2, k, work):
    """(Rs, Rp) of checked media at u2; the recursion works in the ten
    complex buffers ``work``, each of u2's shape, and returns the first two."""
    lossless = [e.real for e in eps_media[1:-1] if e.imag == 0.0]
    if lossless and np.isin(u2, lossless).any():
        # W = 0 in a lossless finite layer, where the recursion gives 0/0
        return _admittance_reflection(eps_media, thicknesses, u2, k)
    rs, rp, w, w_below, ph, r_s, r_p, *scratch = work
    _vertical(eps_media[-1], u2, w_below)
    _vertical(eps_media[-2], u2, w)
    _interface(eps_media[-2], eps_media[-1], w, w_below, rs, rp, scratch)
    for i in range(len(eps_media) - 3, -1, -1):
        np.exp(np.multiply(2j * k * thicknesses[i], w, out=ph), out=ph)
        w_below, w = w, _vertical(eps_media[i], u2, w_below)
        _interface(eps_media[i], eps_media[i + 1], w, w_below, r_s, r_p, scratch)
        _through_layer(r_s, rs, ph, *scratch[:2])
        _through_layer(r_p, rp, ph, *scratch[:2])
    return rs, rp


def stack_reflection(eps_media, thicknesses, u, k):
    """Recursion over interfaces from the bulk up; media listed top to bulk.

    eps_media has N+1 entries (index 0 is the upper half-space) and
    thicknesses has N-1 entries for the interior finite media.  Each
    medium's W is computed once; only two are held at a time.  A medium
    with Im eps < 0, or with NaN or +-inf in either part, raises
    :class:`DomainError`.
    """
    eps_media = _checked(eps_media)
    u2 = np.asarray(u, dtype=float) ** 2
    work = [np.empty(np.shape(u2), dtype=complex) for _ in range(10)]
    rs, rp = _reflection(eps_media, thicknesses, u2, k, work)
    return rs[()], rp[()]  # a scalar u gives scalars


def _admittance_reflection(eps_media, thicknesses, u2, k):
    """(Rs, Rp) from the input admittance q = W (s) or W/eps (p) carried up
    through each finite layer: q <- (q - i W^2 g / e) / (1 - i q e g) with
    g = tan(k d W) / W, which is k d at W = 0, and e = 1 (s) or eps (p).
    Unlike the reflection recursion it stays finite where a layer's W = 0."""
    def vertical(eps):
        return _vertical(eps, u2, np.empty(np.shape(u2), dtype=complex))

    w = vertical(eps_media[-1])
    qs, qp = w, w / eps_media[-1]
    for eps, d in zip(eps_media[-2:0:-1], thicknesses[::-1]):
        w = vertical(eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(w == 0.0, k * d, np.tan(k * d * w) / w)
        qs = (qs - 1j * w * w * g) / (1.0 - 1j * qs * g)
        qp = (qp - 1j * w * w * g / eps) / (1.0 - 1j * qp * eps * g)
    w = vertical(eps_media[0])
    q0p = w / eps_media[0]
    return (w - qs) / (w + qs), (q0p - qp) / (q0p + qp)


def _media(stack: LayerStack, omega: float, temperature: float):
    """(eps_media, thicknesses) of a vacuum-terminated stack."""
    eps = [permittivity(lay.material, omega, temperature) for lay in stack.layers]
    return (1.0 + 0.0j, *eps), tuple(lay.thickness for lay in stack.layers[:-1])


def fresnel_stack(stack: LayerStack, u, omega: float, temperature: float):
    """(Rs, Rp) of a vacuum-terminated stack at normalised wavevector u."""
    eps_media, thicknesses = _media(stack, omega, temperature)
    return stack_reflection(eps_media, thicknesses, u, omega / CONSTANTS.c)


def greens_parallel(
    stack: LayerStack,
    omega: float,
    temperature: float,
    distance: float,
    rel_tol: float = 1e-6,
) -> GreensResult:
    """Surface response for the in-plane field at height ``distance``.

    g_parallel = (3/4) Re int_0^inf (u du / v) e^{2 i k d v}
                 [Rs(u) + (u^2 - 1) Rp(u)],  v = sqrt(1 - u^2), Im v >= 0.

    The propagating part (u in [0, 1]) is computed with u = sin(theta),
    which removes the 1/v endpoint singularity.  The evanescent part uses
    t = sqrt(u^2 - 1), giving int_0^inf e^{-2 k d t} Im[Rs + t^2 Rp] dt.
    """
    require_above(distance, "ion height")
    eps_media, thicknesses = _media(stack, omega, temperature)
    eps_media = _checked(eps_media)
    k = omega / CONSTANTS.c
    kd = k * distance
    require_above(kd, "k * ion height")  # a product that underflows to 0
    # adaptive_gk passes at most 15 * _CHUNK nodes per call
    cwork = np.empty((10, 15 * _CHUNK), dtype=complex)
    fwork = np.empty((3, 15 * _CHUNK))

    # the integrands work in buffers kept across their calls, and each
    # returns one, which the quadrature reads before its next call; every
    # product keeps its operand order, u e^{2ikd cos} (rs - cos^2 rp) and
    # e^{-2kdt} (rs + t^2 rp), and goes to a buffer that holds none of its
    # factors, so every node keeps its bits
    def integrand_prop(theta):
        work = list(cwork[:, :theta.size])
        u = np.sin(theta)
        cos = np.cos(theta)
        rs, rp = _reflection(eps_media, thicknesses, u**2, k, work)
        np.subtract(rs, np.multiply(cos**2, rp, out=work[2]), out=rs)
        wave = np.exp(np.multiply(2j * kd, cos, out=work[3]), out=work[3])
        return np.multiply(np.multiply(u, wave, out=work[4]), rs, out=work[5])

    def integrand_evan(t):
        tt, u2, decay = fwork[:, :t.size]
        work = list(cwork[:, :t.size])
        np.multiply(t, t, out=tt)
        np.sqrt(np.add(1.0, tt, out=u2), out=u2)  # u = sqrt(1 + t^2)
        np.square(u2, out=u2)
        rs, rp = _reflection(eps_media, thicknesses, u2, k, work)
        np.add(rs, np.multiply(tt, rp, out=work[2]), out=rs)
        np.exp(np.multiply(-2.0 * kd, t, out=decay), out=decay)
        return np.multiply(decay, rs, out=work[3])

    budget = _MAX_EVALS // 2
    res_p = adaptive_gk(
        integrand_prop, 0.0, np.pi / 2,
        rel_tol=rel_tol, abs_tol=_ABS_TOL / 2.0, max_evals=budget,
    )

    t_cap = max(37.0 / (2.0 * kd), 10.0)
    require_above(t_cap, "evanescent cut-off 37/(2 k d)")  # inf for a tiny kd
    scales = [np.sqrt(max(abs(e) - 1.0, 1e-6)) for e in eps_media]
    lo = min(1.0, 1e-3 / (2.0 * kd))
    n_dec = max(int(np.ceil(np.log10(t_cap / lo))) * 4, 8)
    breaks = set(np.geomspace(lo, t_cap, n_dec))
    breaks.update(s for s in scales if lo < s < t_cap)
    res_e = adaptive_gk(
        # .imag is a strided view; a contiguous copy sends the
        # quadrature's matmul down a path with other last bits
        lambda x: integrand_evan(x).imag, 0.0, t_cap,
        rel_tol=rel_tol, abs_tol=_ABS_TOL / 2.0, max_evals=budget,
        breakpoints=sorted(breaks),
    )

    prop = 0.75 * float(np.real(res_p.value))
    evan = 0.75 * float(np.real(res_e.value))
    err = 0.75 * (res_p.error + res_e.error)
    return GreensResult(
        g_parallel=prop + evan,
        error=err,
        evaluations=res_p.evaluations + res_e.evaluations,
        propagating=prop,
        evanescent=evan,
    )
