"""Reference reflections for :func:`trapnoise.layers.stack_reflection`,
kept apart from the kernel they check: the square root on the branch
Im W >= 0 (``branch_sqrt``), the single-interface Fresnel coefficients
(``fresnel_interface``), the explicit three- and four-layer reflections
written out in closed form, and a verbatim copy of the recursion as it was
before its evaluation was optimised."""

import numpy as np

from trapnoise.layers import DegenerateInterfaceError


def branch_sqrt(z):
    """Square root with Im >= 0 (ties resolved toward Re >= 0)."""
    w = np.sqrt(np.asarray(z, dtype=complex))
    flip = (w.imag < 0.0) | ((w.imag == 0.0) & (w.real < 0.0))
    return np.where(flip, -w, w)


def fresnel_interface(eps_a, eps_b, u):
    """(Rs, Rp) for a wave in medium a reflecting off medium b."""
    u2 = np.asarray(u, dtype=float) ** 2
    return _interface(eps_a, eps_b, branch_sqrt(eps_a - u2), branch_sqrt(eps_b - u2))


def _phase(eps, u2, k, thickness):
    w = branch_sqrt(eps - u2)
    return np.exp(2j * k * thickness * w)


def fresnel_three_layer(eps_a, eps_b, eps_c, t_b, u, k):
    """Explicit a|b|c reflection with finite middle layer of thickness t_b."""
    rs_ab, rp_ab = fresnel_interface(eps_a, eps_b, u)
    rs_bc, rp_bc = fresnel_interface(eps_b, eps_c, u)
    ph = _phase(eps_b, np.asarray(u, dtype=float) ** 2, k, t_b)
    rs = (rs_ab + rs_bc * ph) / (1.0 + rs_ab * rs_bc * ph)
    rp = (rp_ab + rp_bc * ph) / (1.0 + rp_ab * rp_bc * ph)
    return rs, rp


def fresnel_four_layer(eps_a, eps_b, eps_c, eps_d, t_b, t_c, u, k):
    """Explicit a|b|c|d reflection written as one rational expression."""
    u2 = np.asarray(u, dtype=float) ** 2
    ph_b = _phase(eps_b, u2, k, t_b)
    ph_c = _phase(eps_c, u2, k, t_c)
    out = []
    for pol in (0, 1):
        r_ab = fresnel_interface(eps_a, eps_b, u)[pol]
        r_bc = fresnel_interface(eps_b, eps_c, u)[pol]
        r_cd = fresnel_interface(eps_c, eps_d, u)[pol]
        num = r_ab + r_bc * ph_b + (r_ab * r_bc + ph_b) * r_cd * ph_c
        den = 1.0 + r_ab * r_bc * ph_b + (r_bc + r_ab * ph_b) * r_cd * ph_c
        out.append(num / den)
    return tuple(out)


# ---------------------------------------------------------------------------
# The reflection recursion as it was before its integrands were blocked and
# before it took the principal root of every medium, kept verbatim so that
# tests can require trapnoise.layers.stack_reflection to match it bit for
# bit wherever Im eps >= +0.


def _check_denominator(den, eps_a, eps_b, pol: str):
    if np.any(den == 0.0):
        raise DegenerateInterfaceError(
            f"{pol}-polarised Fresnel denominator vanished for "
            f"eps_a={eps_a!r}, eps_b={eps_b!r}"
        )


def _interface(eps_a, eps_b, wa, wb):
    """(Rs, Rp) of the a|b interface from its vertical wavevector factors."""
    den_s = wa + wb
    den_p = eps_b * wa + eps_a * wb
    _check_denominator(den_s, eps_a, eps_b, "s")
    _check_denominator(den_p, eps_a, eps_b, "p")
    rs = (wa - wb) / den_s
    rp = (eps_b * wa - eps_a * wb) / den_p
    return rs, rp


def reference_stack_reflection(eps_media, thicknesses, u, k):
    """Recursion over interfaces from the bulk up; media listed top to bulk.

    eps_media has N+1 entries (index 0 is the upper half-space) and
    thicknesses has N-1 entries for the interior finite media.  Each
    medium's W is computed once; only two are held at a time.
    """
    u2 = np.asarray(u, dtype=float) ** 2
    lossless = [e.real for e in eps_media[1:-1] if e.imag == 0.0]
    if lossless and np.isin(u2, lossless).any():
        # W = 0 in a lossless finite layer, where the recursion gives 0/0
        return reference_admittance_reflection(eps_media, thicknesses, u2, k)
    w_below = branch_sqrt(eps_media[-1] - u2)
    w = branch_sqrt(eps_media[-2] - u2)
    rs, rp = _interface(eps_media[-2], eps_media[-1], w, w_below)
    for i in range(len(eps_media) - 3, -1, -1):
        ph = np.exp(2j * k * thicknesses[i] * w)
        w_below, w = w, branch_sqrt(eps_media[i] - u2)
        r_s, r_p = _interface(eps_media[i], eps_media[i + 1], w, w_below)
        rs = (r_s + rs * ph) / (1.0 + r_s * rs * ph)
        rp = (r_p + rp * ph) / (1.0 + r_p * rp * ph)
    return rs, rp


def reference_admittance_reflection(eps_media, thicknesses, u2, k):
    """(Rs, Rp) from the input admittance q = W (s) or W/eps (p) carried up
    through each finite layer: q <- (q - i W^2 g / e) / (1 - i q e g) with
    g = tan(k d W) / W, which is k d at W = 0, and e = 1 (s) or eps (p).
    Unlike the reflection recursion it stays finite where a layer's W = 0."""
    w = branch_sqrt(eps_media[-1] - u2)
    qs, qp = w, w / eps_media[-1]
    for eps, d in zip(eps_media[-2:0:-1], thicknesses[::-1]):
        w = branch_sqrt(eps - u2)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(w == 0.0, k * d, np.tan(k * d * w) / w)
        qs = (qs - 1j * w * w * g) / (1.0 - 1j * qs * g)
        qp = (qp - 1j * w * w * g / eps) / (1.0 - 1j * qp * eps * g)
    w = branch_sqrt(eps_media[0] - u2)
    q0p = w / eps_media[0]
    return (w - qs) / (w + qs), (q0p - qp) / (q0p + qp)
