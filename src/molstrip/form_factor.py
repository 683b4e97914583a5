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
hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp
from scipy.interpolate import PchipInterpolator

__all__ = [
    "ProjectileSpec",
    "IonizationTable",
    "elastic_form_factor",
    "bound_survival_probability",
    "ionization_probability",
    "build_ionization_table",
]

DEFAULT_N_MAX = 20


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


def _shell_probabilities(s_values: np.ndarray, n_max: int) -> np.ndarray:
    """P(1s -> shell n) for each s; shape (len(s), n_max), shells n = 1..n_max.

    Bethe's closed form summed over l and m: with
    k2 = s^2, a = (n-1)^2 + n^2 k2 and b = (n+1)^2 + n^2 k2,

        P_n = 2^8 n^7 k2 ((n^2 - 1)/3 + n^2 k2) a^(n-3) / b^(n+3),   n >= 2,

    and the elastic term P_1 = (1 + k2/4)^-4.
    """
    n = np.arange(2.0, n_max + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = np.atleast_1d(np.asarray(s_values, dtype=float))[:, None] ** 2
        nk2 = n * n * k2
        a = (n - 1.0) ** 2 + nk2
        b = (n + 1.0) ** 2 + nk2
        # Each ratio is at most 1, so only b^4 can overflow, and 0 is then right.
        inelastic = (2.0**8 * n**7 * (k2 / b) * (((n * n - 1.0) / 3.0 + nk2) / b)
                     * (a / b) ** (n - 3.0) / b**4)
    # Where n^2 s^2 overflows, P_n ~ 256 / (n^3 s^8) is far below the least double.
    inelastic[np.isinf(b)] = 0.0
    return np.concatenate([(1.0 + 0.25 * k2) ** -4, inelastic], axis=1)


def _rydberg_tail(shell_probs: np.ndarray, n_max: int) -> np.ndarray:
    """Extrapolate sum_{n > n_max} P_n by fitting C / n^3 to the last 3 shells."""
    ns = np.arange(n_max - 2, n_max + 1)
    c = np.mean(shell_probs[:, ns - 1] * ns[None, :] ** 3, axis=1)
    return c * sp.zeta(3, n_max + 1)


def _survival_batch(s_values: np.ndarray, n_max: int) -> np.ndarray:
    probs = _shell_probabilities(s_values, n_max)
    total = probs.sum(axis=1)
    if n_max >= 4:
        total = total + _rydberg_tail(probs, n_max)
    return np.clip(total, 0.0, 1.0)


def bound_survival_probability(s: float, n_max: int = DEFAULT_N_MAX) -> float:
    """Probability that a kicked 1s electron lands in any bound state.

    Sums shells n <= n_max exactly, from Bethe's closed form for
    sum_{lm} |<nlm| exp(-i s z) |1s>|^2 (Bethe 1930, Ann. Phys. 397:325;
    Inokuti 1971, Rev. Mod. Phys. 43:297), and adds the C/n^3 Rydberg tail
    when n_max >= 4.
    """
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return float(_survival_batch(np.array([s]), n_max)[0])


def ionization_probability(s: float, n_max: int = DEFAULT_N_MAX) -> float:
    """W_ion(s) = 1 - P_bound(s), clipped to [0, 1]."""
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s}")
    return float(np.clip(1.0 - _survival_batch(np.array([s]), n_max), 0.0, 1.0)[0])


@dataclass(frozen=True)
class IonizationTable:
    """Monotone-cubic interpolation of W_ion on a scaled-kick grid.

    Beyond s_max the table evaluates the closed-form shell sum directly, so it
    joins the grid continuously and stays right at any kick.
    """

    s_grid: np.ndarray
    w_values: np.ndarray
    n_max: int
    _interp: PchipInterpolator = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "_interp", PchipInterpolator(self.s_grid, self.w_values, extrapolate=False)
        )

    @property
    def s_max(self) -> float:
        return float(self.s_grid[-1])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        out = np.empty_like(s)
        inside = s <= self.s_max
        out[inside] = self._interp(s[inside])
        big = ~inside
        if np.any(big):
            out[big] = 1.0 - _survival_batch(s[big], self.n_max)
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out


def build_ionization_table(
    s_max: float = 20.0, n_points: int = 400, n_max: int = DEFAULT_N_MAX
) -> IonizationTable:
    """Tabulate W_ion on a uniform grid [0, s_max] for hot-loop interpolation."""
    if s_max < 20:
        raise ValueError(f"s_max must be >= 20, got {s_max}")
    if n_points < 200:
        raise ValueError(f"n_points must be >= 200, got {n_points}")
    if n_max < 10:
        raise ValueError(f"n_max must be >= 10, got {n_max}")
    s_grid = np.linspace(0.0, s_max, n_points)
    w = np.clip(1.0 - _survival_batch(s_grid, n_max), 0.0, 1.0)
    # Rounding in the shell sum must not break the monotone invariant.
    w = np.maximum.accumulate(w)
    return IonizationTable(s_grid=s_grid, w_values=w, n_max=n_max)
