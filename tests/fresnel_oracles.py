"""Explicit three- and four-layer Fresnel reflections, written out in closed
form as reference values for the general recursion in
:func:`trapnoise.layers.stack_reflection`."""

import numpy as np

from trapnoise.layers import branch_sqrt, fresnel_interface


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
