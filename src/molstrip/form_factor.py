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
interpolation table on s in [0, 20] makes W_ion cheap inside the
impact-parameter quadrature hot loop.  The table is a monotone piecewise-cubic
Hermite interpolant (PCHIP; Fritsch & Carlson 1980, SIAM J. Numer. Anal.
17:238) with the harmonic-mean slopes of Fritsch & Butland 1984 (SIAM J. Sci.
Stat. Comput. 5:300), evaluated in numpy.
Its cubics are built and read by ``_HermiteSteps``, the piecewise Hermite on
unit steps that also holds each atom's quintic kick profile in ``transfer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ProjectileSpec",
    "IonizationTable",
    "ionization_probability",
    "build_ionization_table",
]

DEFAULT_N_MAX = 20
TABLE_S_MAX = 20.0      # the W_ion table's range; past it IonizationTable uses the closed form

# Parameters of build_ionization_table: name -> (type, default, minimum, maximum).
# s_max takes TABLE_S_MAX alone; it stays a key because generated configs write it.
# The least n_points caps the step at 20/199, past which W_ion's error grows unseen
# by quad_error.  The maxima keep each (n_points, n_max) array of the build within 80 MB.
TABLE_LIMITS = {
    "s_max": (float, TABLE_S_MAX, TABLE_S_MAX, TABLE_S_MAX),
    "n_points": (int, 400, 200, 10_000),
    "n_max": (int, DEFAULT_N_MAX, 10, 1_000),
}


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
        if not self.Z_nucleus - self.N_P >= 1:
            raise ValueError(f"N_P must leave a net charge Z - N_P >= 1, "
                             f"got {self.Z_nucleus - self.N_P}")
        if not self.Z_nucleus < np.inf:
            raise ValueError(f"Z_nucleus must be finite, got {self.Z_nucleus}")
        if self.z_eff is not None and not 0 < self.z_eff < np.inf:
            raise ValueError(f"Z_eff must be positive and finite, got {self.z_eff}")

    @property
    def Z_eff(self) -> float:
        if self.z_eff is not None:
            return self.z_eff
        return self.Z_nucleus - self.N_P + 1

    @property
    def net_charge(self) -> float:
        return self.Z_nucleus - self.N_P


def _zeta3(n: int) -> float:
    """Hurwitz zeta(3, n + 1) = sum_{k > n} k^-3.

    The first 20 terms, plus the Euler-Maclaurin tail from m = n + 21,

        sum_{k >= m} k^-3 = 1/(2m^2) + 1/(2m^3) + sum_j B_2j (2j + 1) / (2 m^(2j+2)),

    to j = 5; the next term is below 1e-18 of the sum.  Every term is an
    integer ratio, so the sum is formed exactly and rounded once: the result
    equals mpmath's zeta(3, n + 1) rounded to a double for every n in
    [10, 1000] (scipy's zeta is up to 3 ulp off; a math.fsum of the rounded
    terms up to 1 ulp).
    """
    m = n + 21
    terms = [(1, k**3) for k in range(n + 1, m)]
    terms += [(1, 2 * m**2), (1, 2 * m**3), (1, 4 * m**4), (-1, 12 * m**6),
              (1, 12 * m**8), (-3, 20 * m**10), (5, 12 * m**12)]
    den = math.lcm(*(d for _, d in terms))
    return sum(num * (den // d) for num, d in terms) / den


@lru_cache(maxsize=32)
def _shell_constants(n_max: int) -> tuple:
    """The s-independent factors of the shell sum for shells 2..n_max.

    Returns n^2, (n-1)^2, (n+1)^2, 2^8 n^7, (n^2-1)/3 and n-3 for n = 2..n_max,
    then the Rydberg-tail weights m^3 for the last three shells m and
    zeta(3, n_max + 1) from ``_zeta3``.
    """
    n = np.arange(2.0, n_max + 1.0)
    consts = (n * n, (n - 1.0) ** 2, (n + 1.0) ** 2, 2.0**8 * n**7,
              (n * n - 1.0) / 3.0, n - 3.0,
              np.arange(n_max - 2.0, n_max + 1.0) ** 3)
    for arr in consts:
        arr.setflags(write=False)
    return consts + (_zeta3(n_max),)


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


def ionization_probability(s: float, n_max: int = DEFAULT_N_MAX) -> float:
    """W_ion(s) = 1 - P_bound(s), P_bound being the probability that a kicked 1s
    electron lands in any bound state, clipped to [0, 1].

    P_bound sums shells n <= n_max exactly, from Bethe's closed form for
    sum_{lm} |<nlm| exp(-i s z) |1s>|^2 (Bethe 1930, Ann. Phys. 397:325;
    Inokuti 1971, Rev. Mod. Phys. 43:297), and adds the C/n^3 Rydberg tail
    when n_max >= 4.
    """
    if not s >= 0:
        raise ValueError(f"s must be non-negative, got {s}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return 1.0 - float(_survival_batch(np.array([s]), n_max)[0])


@dataclass(frozen=True)
class _HermiteSteps:
    """A piecewise cubic or quintic Hermite on unit steps: step i spans t in [i, i + 1].

    ``coef[:, i]`` holds step i's polynomial in t - i, top power first.
    """

    coef: np.ndarray

    @classmethod
    def fit(cls, y, y1, y2=None) -> "_HermiteSteps":
        """The Hermite matching node values y and t-derivatives y1 (and y2, for a quintic).

        What the left node's Taylor terms leave of the right node's value, slope
        (and curvature) fixes each step's top two (three) coefficients.
        """
        if y2 is None:
            dz = y[1:] - y[:-1] - y1[:-1]
            dz1 = y1[1:] - y1[:-1]
            return cls(np.stack([dz1 - 2.0 * dz, 3.0 * dz - dz1, y1[:-1], y[:-1]]))
        dz = y[1:] - y[:-1] - y1[:-1] - 0.5 * y2[:-1]
        dz1 = y1[1:] - y1[:-1] - y2[:-1]
        dz2 = y2[1:] - y2[:-1]
        return cls(np.stack([6.0 * dz - 3.0 * dz1 + 0.5 * dz2, -15.0 * dz + 7.0 * dz1 - dz2,
                             10.0 * dz - 4.0 * dz1 + 0.5 * dz2, 0.5 * y2[:-1], y1[:-1], y[:-1]]))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """The fit at t >= 0, past the last step on its polynomial; t is overwritten by t - i."""
        i = np.minimum(t.astype(np.intp), self.coef.shape[1] - 1)
        c = i.astype(float)             # then holds one coefficient row at a time
        t -= c
        z = self.coef[0].take(i)
        for row in self.coef[1:]:
            z *= t
            z += row.take(i, out=c, mode="clip")
        return z


def _end_slope(m0, m1):
    """One-sided three-point end slope, limited so the end keeps its shape."""
    d = 0.5 * (3.0 * m0 - m1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(y: np.ndarray) -> np.ndarray:
    """PCHIP node slopes per unit step (Fritsch & Butland 1984).

    Inside, the harmonic mean of the neighbouring secants, zero where a secant
    is zero or the secants change sign; at both ends the one-sided three-point
    estimate.
    """
    m = np.diff(y)
    d = np.zeros_like(y)
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore"):
        hmean = 2.0 / (1.0 / m[:-1] + 1.0 / m[1:])
    d[1:-1][~flat] = hmean[~flat]
    d[0] = _end_slope(m[0], m[1])
    d[-1] = _end_slope(m[-1], m[-2])
    return d


@dataclass(frozen=True)
class IonizationTable:
    """Monotone-cubic (PCHIP) interpolation of W_ion on the uniform grid
    ``s_grid = linspace(0, TABLE_S_MAX, len(w_values))``.

    The Hermite cubics are fitted once from w_values and their PCHIP slopes; a
    lookup is one Horner pass in s / step, clipped to [0, 1].  Beyond TABLE_S_MAX
    the table evaluates the closed-form shell sum directly, so it joins the grid
    continuously and stays right at any kick; s < 0 and nan give nan.
    """

    w_values: np.ndarray
    n_max: int
    _fit: _HermiteSteps = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fit = _HermiteSteps.fit(self.w_values, _pchip_slopes(self.w_values))
        object.__setattr__(self, "_fit", fit)

    @property
    def s_grid(self) -> np.ndarray:
        return np.linspace(0.0, TABLE_S_MAX, len(self.w_values))

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        # The fit runs on every point, clamped to the grid (nan to 0); the closed
        # form then overwrites s > TABLE_S_MAX, and nan overwrites s < 0 and nan.
        t = np.fmax(flat, 0.0)
        np.fmin(t, TABLE_S_MAX, out=t)
        t *= (len(self.w_values) - 1) / TABLE_S_MAX
        out = self._fit(t)
        big = flat > TABLE_S_MAX
        if big.any():
            out[big] = 1.0 - _survival_batch(flat[big], self.n_max)
        np.copyto(out, np.nan, where=~(flat >= 0.0))
        np.minimum(np.maximum(out, 0.0, out=out), 1.0, out=out)
        return out.reshape(s.shape)


def build_ionization_table(
    s_max: float = TABLE_S_MAX,
    n_points: int = TABLE_LIMITS["n_points"][1],
    n_max: int = TABLE_LIMITS["n_max"][1],
) -> IonizationTable:
    """Tabulate W_ion on a uniform grid [0, TABLE_S_MAX] for hot-loop interpolation.

    ValueError, led by the parameter's name, for a parameter outside TABLE_LIMITS.
    """
    for name, value in (("s_max", s_max), ("n_points", n_points), ("n_max", n_max)):
        minimum, maximum = TABLE_LIMITS[name][2:]
        if not minimum <= value <= maximum:
            raise ValueError(f"{name} must lie in [{minimum:g}, {maximum:g}], got {value}")
    # Rounding in the shell sum must not break the monotone invariant.
    s = np.linspace(0.0, TABLE_S_MAX, n_points)
    w = np.maximum.accumulate(1.0 - _survival_batch(s, n_max))
    return IonizationTable(w_values=w, n_max=n_max)
