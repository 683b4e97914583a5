"""Modified Bessel functions of the second kind (McDonald functions) K0 and K1.

These enter the screened eikonal phase (through K0) and the momentum-transfer
kernel (through K1).  ``transfer`` calls them only through this module: to
build each atom's kick profile and in the references that judge it.
The evaluation is delegated to scipy's Cephes-based routines, wrapped with the
domain contract used throughout the package: strictly positive finite
arguments, and a hard zero once exp(-x) underflows, just above x = 746 (the
integrand tails then vanish naturally instead of raising).  A scalar gives a
float and an array gives an array; one bad element rejects the whole call.

Accuracy against the independent high-precision reference in
``molstrip.verification`` is better than 1e-12 relative on x in [1e-8, 700].
"""

import math

import numpy as np
from scipy import special as _sp

__all__ = ["bessel_k0", "bessel_k1"]


def _evaluate(kernel, x, name: str):
    x = np.asarray(x, dtype=float)
    # One check per call: nan fails both comparisons.
    if x.size and not (x.min() > 0.0 and x.max() < math.inf):
        bad = x[~((x > 0.0) & (x < math.inf))].flat[0]
        raise ValueError(f"{name} requires a positive finite argument, got {float(bad)!r}")
    return float(kernel(x)) if x.ndim == 0 else kernel(x)


def bessel_k0(x):
    """K0(x) for x > 0; returns 0.0 beyond the underflow threshold."""
    return _evaluate(_sp.k0, x, "bessel_k0")


def bessel_k1(x):
    """K1(x) for x > 0; returns 0.0 beyond the underflow threshold."""
    return _evaluate(_sp.k1, x, "bessel_k1")
