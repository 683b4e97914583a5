"""Modified Bessel functions of the second kind (McDonald functions) K0 and K1.

These enter the screened eikonal phase (through K0) and the momentum-transfer
kernel (through K1).  ``transfer`` calls them only through this module: to
build each atom's kick profile and in the references that judge it.

Both come from one numpy pass, ``_k0_k1``, over the integral representation
(DLMF 10.32.9, with cosh t - 1 written as 2 sinh^2(t/2) so nothing cancels)

    K_nu(x) = exp(-x) int_0^inf exp(-2 x sinh^2(t/2)) cosh(nu t) dt,

summed by the trapezoid rule with step h = min(0.2, 0.6/sqrt(x)).  The
integrand is entire, so the rule converges geometrically (Trefethen &
Weideman 2014, SIAM Rev. 56:385): its error is of order exp(-pi^2/h), 4e-22
at h = 0.2.  Each x stops after the block of 32 nodes that holds the node
where x (cosh t - 1) reaches 40; the nodes left out add less than 5e-17
relative.  The one seam is at x = 1e-9, at and below which the
leading terms of the ascending series, K0 = ln 2 - gamma - ln x and K1 = 1/x,
are exact to 1.1e-17 relative.  Past x = 1075 ln 2 = 745.13, where exp(-x)
rounds to 0, both are exactly 0.

The domain contract is used throughout the package: strictly positive finite
arguments, and the hard zero above (the integrand tails then vanish naturally
instead of raising).  The result has the shape of x, so a scalar gives a 0-d
array; one bad element rejects the whole call.

Against the 40-digit mpmath reference in ``molstrip.verification``, on 200
log-spaced x in [1e-8, 700] plus x = 1e-9, x = 2 and their neighbouring
doubles, K0 and K1 are both within 4.5e-16 relative (two ulp).
"""

import math

import numpy as np

__all__ = ["bessel_k0", "bessel_k1"]

_SMALL = 1e-9                           # closed forms at and below
_UNDERFLOW = 1075 * math.log(2.0)       # exp(-x) rounds to 0 past here
_LN2_MINUS_GAMMA = math.log(2.0) - 0.5772156649015329
_TAIL = 40.0                            # the last block reaches x (cosh t - 1) = _TAIL
_BLOCK = 32                             # nodes per pass: temporaries are (len(x), _BLOCK)


def _trapezoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K0 and K1 for _SMALL < x <= _UNDERFLOW by the trapezoid rule.

    Each pass sums a block of nodes for the x whose nodes reach it.  Which
    blocks an x takes, and so its bits, depend on that x alone.
    """
    h = np.minimum(0.2, 0.6 / np.sqrt(x))
    reach = np.arccosh(1.0 + _TAIL / x) / h     # the node where x (cosh t - 1) = _TAIL
    s0, s1 = np.full((2, len(x)), 0.5)
    for first in range(1, int(reach.max()) + 1, _BLOCK):
        rows = np.flatnonzero(reach >= first)
        t = h[rows, None] * np.arange(first, first + _BLOCK)
        # g = exp(-x (cosh t - 1)) in place, floored so that exp never underflows.
        g = np.sinh(0.5 * t)
        g *= g
        g *= -2.0 * x[rows, None]
        np.exp(np.maximum(g, -700.0, out=g), out=g)
        s0[rows] += g.sum(axis=1)
        g *= np.cosh(t, out=t)
        s1[rows] += g.sum(axis=1)
    scale = h * np.exp(-x)
    return scale * s0, scale * s1


def _k0_k1(x, name: str) -> tuple[np.ndarray, np.ndarray]:
    """K0(x) and K1(x) in one pass, each shaped as x; ValueError naming
    ``name`` unless every element is positive and finite."""
    x = np.asarray(x, dtype=float)
    # One check per call: nan fails both comparisons.
    if x.size and not (x.min() > 0.0 and x.max() < math.inf):
        bad = x[~((x > 0.0) & (x < math.inf))].flat[0]
        raise ValueError(f"{name} requires a positive finite argument, got {float(bad)!r}")
    flat = x.ravel()
    k0, k1 = np.zeros((2, flat.size))
    small = flat <= _SMALL
    k0[small] = _LN2_MINUS_GAMMA - np.log(flat[small])
    with np.errstate(over="ignore"):    # K1 = inf below x = 5.6e-309, as 1/x
        k1[small] = 1.0 / flat[small]
    mid = ~small & (flat <= _UNDERFLOW)
    if mid.any():
        k0[mid], k1[mid] = _trapezoid(flat[mid])
    return k0.reshape(x.shape), k1.reshape(x.shape)


def bessel_k0(x):
    """K0(x) for x > 0, shaped as x; 0.0 beyond the underflow threshold."""
    return _k0_k1(x, "bessel_k0")[0]


def bessel_k1(x):
    """K1(x) for x > 0, shaped as x; 0.0 beyond the underflow threshold."""
    return _k0_k1(x, "bessel_k1")[1]
