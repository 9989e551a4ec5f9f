"""Reference values that tests check the library against and no pipeline needs."""

import numpy as np
from scipy import stats


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
