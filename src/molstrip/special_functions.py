"""Modified Bessel functions of the second kind (McDonald functions) K0 and K1.

These enter the screened eikonal phase (through K0) and the momentum-transfer
kernel (through K1).  ``transfer`` calls them only through this module: to
build each atom's kick profile and in the references that judge it.

Both come from one numpy pass, ``_k0_k1``:

* 0 < x <= 2: the ascending series (Abramowitz & Stegun 9.6.13 for K0 and
  9.6.11 with n = 1 for K1), 15 terms in x^2/4 summed by Horner;
* 2 < x <= 1075 ln 2 = 745.13, past which exp(-x) rounds to 0: Steed's
  continued fraction CF2 (Thompson & Barnett 1987, J. Comput. Phys. 64:490;
  the CF2 of Numerical Recipes' ``bessik``) with nu = 0.  Each x leaves the
  iteration once its next term is below one ulp of the sum; x just above 2
  takes the most terms, 76;
* beyond: exactly 0, without entering the fraction.

The domain contract is used throughout the package: strictly positive finite
arguments, and the hard zero above (the integrand tails then vanish naturally
instead of raising).  A scalar gives a float and an array gives an array; one
bad element rejects the whole call.

Against the 40-digit mpmath reference in ``molstrip.verification``, on 200
log-spaced x in [1e-8, 700] plus x = 2 and its neighbouring doubles, K0 is
within 3.4e-15 relative and K1 within 1.4e-15 (scipy's Cephes k0 and k1 reach
1.0e-15 and 6.7e-16 on the same grid).  The worst is the series near x = 2, where the
two parts of K0 cancel to a ninth of their size; there neighbouring doubles
are not ordered to the last ulp, but K is continuous and decreasing across
the seam at steps of 1e-13.
"""

import math

import numpy as np

__all__ = ["bessel_k0", "bessel_k1"]

_SERIES_MAX = 2.0
_UNDERFLOW = 1075 * math.log(2.0)       # exp(-x) rounds to 0 past here
_GAMMA_MINUS_LN2 = 0.5772156649015329 - math.log(2.0)   # Euler's gamma - ln 2
_CF_TERMS = 100                         # x just above 2 converges in 76


def _series_coefficients(terms: int = 15) -> np.ndarray:
    """Horner rows (highest power first) of the four sums in t = x^2 / 4:

        I0 = sum t^k / k!^2,                 P0 = sum H_k t^k / k!^2,
        2 I1 / x = sum t^k / (k! (k+1)!),    P1 = sum (H_k + H_{k+1}) t^k / (k! (k+1)!),

    H_k the harmonic numbers.  Each is an exact integer ratio, so correctly rounded.
    """
    lcm = math.lcm(*range(1, terms + 1))
    rows = []
    fact, h = 1, 0                      # k! and lcm H_k
    for k in range(terms):
        fact *= max(k, 1)
        h_next = h + lcm // (k + 1)
        sq, mixed = fact * fact, fact * fact * (k + 1)
        rows.append((1 / sq, h / (lcm * sq), 1 / mixed, (h + h_next) / (lcm * mixed)))
        h = h_next
    return np.array(rows[::-1]).T


_SERIES = _series_coefficients()


def _horner(coefficients: np.ndarray, t: np.ndarray) -> np.ndarray:
    acc = np.full_like(t, coefficients[0])
    for c in coefficients[1:]:
        acc *= t
        acc += c
    return acc


def _series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K0 = P0 - L I0 and K1 = 1/x + (x/2) (L (2 I1/x) - P1 / 2), L = ln(x/2) + gamma."""
    t = 0.25 * x * x
    i0, p0, i1, p1 = (_horner(c, t) for c in _SERIES)
    lg = np.log(x) + _GAMMA_MINUS_LN2
    with np.errstate(over="ignore"):    # K1 = inf below x = 5.6e-309, as 1/x
        inverse = 1.0 / x
    return p0 - lg * i0, inverse + 0.5 * x * (lg * i1 - 0.5 * p1)


def _steed(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K0 and K1 for 2 < x <= _UNDERFLOW by CF2 with nu = 0 (NR's variable names)."""
    s_end, h_end = np.empty((2, len(x)))
    left = np.arange(len(x))            # the x still iterating
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h, delh = d.copy(), d.copy()
    q1, q2 = np.zeros_like(x), np.ones_like(x)
    a, c = -0.25, 0.25
    q = np.full_like(x, c)
    s = 1.0 + q * delh
    for i in range(1, _CF_TERMS):
        a -= 2 * i
        c = -a * c / (i + 1.0)
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh *= b * d - 1.0
        h += delh
        dels = q * delh
        s += dels
        done = dels < np.finfo(float).eps * s      # every term is positive
        if done.any():
            s_end[left[done]] = s[done]
            h_end[left[done]] = h[done]
            keep = ~done
            left, b, d, h, delh, q1, q2, q, s = (
                v[keep] for v in (left, b, d, h, delh, q1, q2, q, s))
            if not left.size:
                break
    else:
        raise ArithmeticError(f"Steed's CF2 did not converge in {_CF_TERMS} terms")
    k0 = np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) / s_end
    return k0, k0 * (x + 0.5 - 0.25 * h_end) / x


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
    small = flat <= _SERIES_MAX
    k0[small], k1[small] = _series(flat[small])
    mid = ~small & (flat <= _UNDERFLOW)
    if mid.any():
        k0[mid], k1[mid] = _steed(flat[mid])
    return k0.reshape(x.shape), k1.reshape(x.shape)


def _one(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def bessel_k0(x):
    """K0(x) for x > 0; returns 0.0 beyond the underflow threshold."""
    return _one(_k0_k1(x, "bessel_k0")[0])


def bessel_k1(x):
    """K1(x) for x > 0; returns 0.0 beyond the underflow threshold."""
    return _one(_k0_k1(x, "bessel_k1")[1])
