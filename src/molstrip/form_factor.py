"""Hydrogenic sudden-kick matrix elements and the ionization probability W_ion.

Each projectile electron sits in a scaled 1s orbital with effective charge
Z_eff.  A sudden momentum transfer q acts as exp(-i q.r); everything depends
on (q, Z_eff) only through the scaled kick s = q / Z_eff, so all matrix
elements are computed once for hydrogen (Z = 1) with kick magnitude s.

The per-electron ionization probability is obtained as the complement of the
bound-state survival sum,

    W_ion(s) = 1 - sum_{nlm, n <= n_max} |<nlm| exp(-i s z) |1s>|^2 - tail,

where each shell's sum over l and m has an exact closed form (Bethe 1930,
Ann. Phys. 397:325; tabulated by Inokuti 1971, Rev. Mod. Phys. 43:297), and
the shells above n_max add a C/n^3 Rydberg tail fitted to the last three.  An
interpolation table makes W_ion cheap inside the impact-parameter quadrature
hot loop.  The table is a monotone piecewise-cubic Hermite interpolant (PCHIP;
Fritsch & Carlson 1980, SIAM J. Numer. Anal. 17:238) with the harmonic-mean
slopes of Fritsch & Butland 1984 (SIAM J. Sci. Stat. Comput. 5:300), evaluated
in numpy.  Its slopes, coefficients, interval choice and evaluation order
follow scipy.interpolate.PchipInterpolator, so it returns the same bits as
PchipInterpolator(s_grid, w_values, extrapolate=False) without importing
scipy.interpolate at start-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special as sp

__all__ = [
    "ProjectileSpec",
    "IonizationTable",
    "elastic_form_factor",
    "bound_survival_probability",
    "ionization_probability",
    "build_ionization_table",
    "check_table_params",
]

DEFAULT_N_MAX = 20

# Parameters of build_ionization_table: name -> (type, default, minimum, maximum).
# The maxima keep each (n_points, n_max) array of the build within 80 MB.
TABLE_LIMITS = {
    "s_max": (float, 20.0, 20.0, np.inf),
    "n_points": (int, 400, 200, 10_000),
    "n_max": (int, DEFAULT_N_MAX, 10, 1_000),
}
# The coarsest grid step s_max / (n_points - 1): that of the smallest grid the
# minimums allow.  Past it W_ion's error grows unseen (s_max 100 at 400 points
# moves a sigma by 10 %) while quad_error, which sees only the b-plane sum, stays small.
MAX_TABLE_STEP = TABLE_LIMITS["s_max"][2] / (TABLE_LIMITS["n_points"][2] - 1)


@dataclass(frozen=True)
class ProjectileSpec:
    """Few-electron projectile: nuclear charge, electron count, Z_eff.

    The default effective charge is Z_nucleus - N_P + 1, the charge an
    electron sees once one is removed; override via the z_eff argument.
    """

    Z_nucleus: float
    N_P: int
    z_eff: float | None = None

    def __post_init__(self):
        if not 1 <= self.N_P <= 3:
            raise ValueError(f"N_P must be 1..3, got {self.N_P}")
        if self.Z_nucleus - self.N_P < 1:
            raise ValueError(
                f"net charge Z-N_P must be >= 1, got {self.Z_nucleus - self.N_P}"
            )
        if self.z_eff is not None and self.z_eff <= 0:
            raise ValueError(f"z_eff must be positive, got {self.z_eff}")

    @property
    def Z_eff(self) -> float:
        if self.z_eff is not None:
            return self.z_eff
        return self.Z_nucleus - self.N_P + 1

    @property
    def net_charge(self) -> float:
        return self.Z_nucleus - self.N_P


def elastic_form_factor(q: float, z_eff: float) -> float:
    """|<1s| exp(-i q.r) |1s>| = (1 + q^2 / (4 Z_eff^2))^-2."""
    if q < 0:
        raise ValueError(f"q must be non-negative, got {q}")
    if z_eff <= 0:
        raise ValueError(f"z_eff must be positive, got {z_eff}")
    s = q / z_eff
    return (1.0 + 0.25 * s * s) ** -2


@lru_cache(maxsize=32)
def _shell_constants(n_max: int) -> tuple:
    """The s-independent factors of the shell sum for shells 2..n_max.

    Returns n^2, (n-1)^2, (n+1)^2, 2^8 n^7, (n^2-1)/3 and n-3 for n = 2..n_max,
    then the Rydberg-tail weights m^3 for the last three shells m and
    zeta(3, n_max + 1).  Each is computed by the same operations as inline, so
    cached and inline evaluation agree bitwise.
    """
    n = np.arange(2.0, n_max + 1.0)
    consts = (n * n, (n - 1.0) ** 2, (n + 1.0) ** 2, 2.0**8 * n**7,
              (n * n - 1.0) / 3.0, n - 3.0,
              np.arange(n_max - 2.0, n_max + 1.0) ** 3)
    for arr in consts:
        arr.setflags(write=False)
    return consts + (sp.zeta(3, n_max + 1),)


def _shell_probabilities(s_values: np.ndarray, n_max: int) -> np.ndarray:
    """P(1s -> shell n) for each s; shape (len(s), n_max), shells n = 1..n_max.

    Bethe's closed form summed over l and m: with
    k2 = s^2, a = (n-1)^2 + n^2 k2 and b = (n+1)^2 + n^2 k2,

        P_n = 2^8 n^7 k2 ((n^2 - 1)/3 + n^2 k2) a^(n-3) / b^(n+3),   n >= 2,

    and the elastic term P_1 = (1 + k2/4)^-4.
    """
    n2, a0, b0, c7, q0, e, _, _ = _shell_constants(n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = np.atleast_1d(np.asarray(s_values, dtype=float))[:, None] ** 2
        nk2 = n2 * k2
        a = a0 + nk2
        b = b0 + nk2
        # Each ratio is at most 1, so only b^4 can overflow, and 0 is then right.
        inelastic = c7 * (k2 / b) * ((q0 + nk2) / b) * (a / b) ** e / b**4
    # Where n^2 s^2 overflows, P_n ~ 256 / (n^3 s^8) is far below the least double.
    inelastic[np.isinf(b)] = 0.0
    return np.concatenate([(1.0 + 0.25 * k2) ** -4, inelastic], axis=1)


def _survival_batch(s_values: np.ndarray, n_max: int) -> np.ndarray:
    probs = _shell_probabilities(s_values, n_max)
    total = probs.sum(axis=1)
    if n_max >= 4:
        # Rydberg tail: fit C / n^3 to the last three shells (their mean, summed
        # in np.mean's order), then sum C / n^3 over n > n_max.
        *_, w, zeta = _shell_constants(n_max)
        c = (probs[:, -3] * w[0] + probs[:, -2] * w[1] + probs[:, -1] * w[2]) / 3.0
        total = total + c * zeta
    return np.minimum(np.maximum(total, 0.0), 1.0)


def bound_survival_probability(s: float, n_max: int = DEFAULT_N_MAX) -> float:
    """Probability that a kicked 1s electron lands in any bound state.

    Sums shells n <= n_max exactly, from Bethe's closed form for
    sum_{lm} |<nlm| exp(-i s z) |1s>|^2 (Bethe 1930, Ann. Phys. 397:325;
    Inokuti 1971, Rev. Mod. Phys. 43:297), and adds the C/n^3 Rydberg tail
    when n_max >= 4.
    """
    if not s >= 0:
        raise ValueError(f"s must be non-negative, got {s}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return float(_survival_batch(np.array([s]), n_max)[0])


def ionization_probability(s: float, n_max: int = DEFAULT_N_MAX) -> float:
    """W_ion(s) = 1 - P_bound(s); P_bound is already clipped to [0, 1]."""
    return 1.0 - bound_survival_probability(s, n_max)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited so the end keeps its shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> tuple:
    """Cubic coefficients (c0, c1, c2, c3) of PCHIP on each interval of x.

    On [x_i, x_i+1] the interpolant is c3 + c2 d + c1 d^2 + c0 d^3, d = s - x_i.
    Node slopes are the weighted harmonic mean of the neighbouring secants, zero
    where a secant is zero or the secants change sign (Fritsch & Butland 1984),
    and the one-sided three-point estimate at both ends; the coefficients are
    those of the cubic Hermite interpolant with those slopes.  Each step is the
    arithmetic of scipy.interpolate.PchipInterpolator, so the results agree
    bitwise.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1].copy()


@dataclass(frozen=True)
class IonizationTable:
    """Monotone-cubic (PCHIP) interpolation of W_ion on a uniform scaled-kick grid.

    The coefficients are built once from (s_grid, w_values); a lookup finds each
    interval by arithmetic on the uniform grid and evaluates the cubic in numpy.
    It returns the same bits as scipy's PchipInterpolator(s_grid, w_values,
    extrapolate=False), clipped to [0, 1].  Beyond s_max the table evaluates the
    closed-form shell sum directly, so it joins the grid continuously and stays
    right at any kick; s < 0 and nan give nan.
    """

    s_grid: np.ndarray
    w_values: np.ndarray
    n_max: int
    _pchip: tuple = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        x = self.s_grid
        n = x.size
        if (n < 3 or x[0] != 0.0
                or not np.allclose(np.diff(x), x[-1] / (n - 1), rtol=1e-9, atol=0.0)):
            raise ValueError("s_grid must be uniform from 0 with at least 3 points")
        # Right ends of the intervals; the last interval is closed at s_max.
        upper = np.append(x[1:-1], np.inf)
        coeffs = _pchip_coefficients(x, self.w_values)
        object.__setattr__(self, "_pchip", coeffs + (upper, (n - 1) / x[-1]))

    @property
    def s_max(self) -> float:
        return float(self.s_grid[-1])

    def _interpolate(self, s: np.ndarray) -> np.ndarray:
        """PCHIP at 0 <= s <= s_max, in scipy's interval choice and order."""
        c0, c1, c2, c3, upper, scale = self._pchip
        x = self.s_grid
        # The arithmetic guess is off by at most one interval; step it so that
        # x[i] <= s < x[i+1], as a binary search would.
        i = (s * scale).astype(np.intp)
        np.minimum(i, x.size - 2, out=i)
        i -= s < x[i]
        i += s >= upper[i]
        d = s - x[i]
        w = c3[i] + c2[i] * d
        d2 = d * d
        w += c1[i] * d2
        w += c0[i] * (d2 * d)
        return w

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        s_max = self.s_max
        out = np.full_like(s, np.nan)
        inside = (s >= 0.0) & (s <= s_max)
        out[inside] = self._interpolate(s[inside])
        big = s > s_max
        if big.any():
            out[big] = 1.0 - _survival_batch(s[big], self.n_max)
        np.minimum(np.maximum(out, 0.0, out=out), 1.0, out=out)
        return float(out[0]) if scalar else out


def check_table_params(s_max: float, n_points: int, n_max: int) -> None:
    """Raise ValueError, led by the parameter's name, for a table outside
    TABLE_LIMITS or with a grid step coarser than MAX_TABLE_STEP."""
    for name, value in (("s_max", s_max), ("n_points", n_points), ("n_max", n_max)):
        minimum, maximum = TABLE_LIMITS[name][2:]
        if not minimum <= value <= maximum:
            raise ValueError(f"{name} must lie in [{minimum:g}, {maximum:g}], got {value}")
    step = s_max / (n_points - 1)
    if step > MAX_TABLE_STEP:
        raise ValueError(f"s_max / (n_points - 1) = {step:.4g} must be <= {MAX_TABLE_STEP:.4g}: "
                         "W_ion is not accurate on a coarser grid; raise n_points or lower s_max")


def build_ionization_table(
    s_max: float = TABLE_LIMITS["s_max"][1],
    n_points: int = TABLE_LIMITS["n_points"][1],
    n_max: int = TABLE_LIMITS["n_max"][1],
) -> IonizationTable:
    """Tabulate W_ion on a uniform grid [0, s_max] for hot-loop interpolation."""
    check_table_params(s_max, n_points, n_max)
    s_grid = np.linspace(0.0, s_max, n_points)
    w = np.clip(1.0 - _survival_batch(s_grid, n_max), 0.0, 1.0)
    # Rounding in the shell sum must not break the monotone invariant.
    w = np.maximum.accumulate(w)
    return IonizationTable(s_grid=s_grid, w_values=w, n_max=n_max)
