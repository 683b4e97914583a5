"""Hydrogenic sudden-kick matrix elements and the ionization probability W_ion.

Each projectile electron sits in a scaled 1s orbital with effective charge
Z_eff.  A sudden momentum transfer q acts as exp(-i q.r); everything depends
on (q, Z_eff) only through the scaled kick s = q / Z_eff, so all matrix
elements are computed once for hydrogen (Z = 1) with kick magnitude s.

The per-electron ionization probability is obtained as the complement of the
bound-state survival sum,

    W_ion(s) = 1 - sum_{nlm, n <= n_max} |<nlm| exp(-i s z) |1s>|^2 - tail,

with the bound-bound integrals done by partial-wave expansion of the plane
wave (spherical Bessel j_l) and composite Gauss-Legendre radial quadrature,
and a C/n^3 Rydberg tail fitted to the last three shells.  An interpolation
table makes W_ion cheap inside the impact-parameter quadrature hot loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

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

# Radial quadrature: unit-width Gauss-Legendre panels out to R_MAX.  The
# integrands carry exp(-r (1 + 1/n)) from the 1s factor, so R_MAX = 60 leaves
# tails below 1e-26; 24 nodes per panel resolve j_l oscillations up to s ~ 40.
R_MAX = 60.0
PANEL_WIDTH = 1.0
NODES_PER_PANEL = 24

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


def _radial_grid() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    edges = np.arange(0.0, R_MAX + 0.5 * PANEL_WIDTH, PANEL_WIDTH)
    r = np.concatenate([
        0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])
    ])
    wt = np.concatenate([
        0.5 * (b - a) * w for a, b in zip(edges[:-1], edges[1:])
    ])
    return r, wt


def _hydrogen_radial(n: int, l: int, r: np.ndarray) -> np.ndarray:
    """Bound hydrogen radial function R_nl (Z = 1), normalized on r^2 dr."""
    rho = 2.0 * r / n
    norm = math.sqrt(
        (2.0 / n) ** 3 * math.factorial(n - l - 1) / (2.0 * n * math.factorial(n + l))
    )
    return norm * np.exp(-r / n) * rho**l * sp.eval_genlaguerre(n - l - 1, 2 * l + 1, rho)


@lru_cache(maxsize=4)
def _bound_kernels(n_max: int):
    """Precompute w(r) R_nl(r) R_10(r) r^2 for every shell up to n_max.

    Returns (r, kernels) where kernels[l] is an array of rows, one per n with
    n > l, ordered by increasing n.
    """
    r, wt = _radial_grid()
    r10 = _hydrogen_radial(1, 0, r)
    base = wt * r10 * r * r
    kernels = []
    for l in range(n_max):
        rows = [base * _hydrogen_radial(n, l, r) for n in range(l + 1, n_max + 1)]
        kernels.append(np.array(rows))
    return r, kernels


def _spherical_jn_orders(n_max: int, x: np.ndarray) -> np.ndarray:
    """j_l(x) for l = 0..n_max-1 at once; shape (n_max, len(x)).

    Bitwise equal to ``sp.spherical_jn(l, x)``: scipy's real-argument routine
    starts from j_0 = sin(x)/x and j_1 = (j_0 - cos(x))/x and steps up with
    j_{l+1} = (2l+1) j_l / x - j_{l-1} in this operation order, except where
    l >= x (l > 0) or x = 0, which it routes through J_{l+1/2}; those entries
    are taken from scipy directly.  Entries with l < x only ever depend on
    lower orders that are also below x, so the shared recurrence reproduces
    each of them exactly while costing O(n_max) per point instead of O(l)
    per element.
    """
    out = np.empty((n_max, x.size))
    # Entries that overflow or divide by zero are among those replaced below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        jm1 = np.sin(x) / x
        out[0] = jm1
        if n_max > 1:
            j = (jm1 - np.cos(x)) / x
            out[1] = j
            for l in range(1, n_max - 1):
                jm1, j = j, (2 * l + 1) * j / x - jm1
                out[l + 1] = j
    ells = np.arange(n_max)[:, None]
    direct = ((ells >= x[None, :]) & (ells > 0)) | (x[None, :] == 0.0)
    li, xi = np.nonzero(direct)
    out[li, xi] = sp.spherical_jn(li, x[xi])
    return out


def _shell_probabilities(s_values: np.ndarray, n_max: int) -> np.ndarray:
    """P(1s -> shell n) for each s; shape (len(s), n_max), shells n = 1..n_max."""
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    # Subnormal kicks underflow inside spherical_jn; they are exactly the
    # identity operator for every practical purpose.
    s_values = np.where(s_values < 1e-100, 0.0, s_values)
    r, kernels = _bound_kernels(n_max)
    out = np.zeros((s_values.size, n_max))
    for i, s in enumerate(s_values):
        # j_l(s r) for all l from one recurrence, bitwise equal to scipy's
        # spherical_jn (see _spherical_jn_orders); at s = 0 only l = 0
        # survives.  One s at a time keeps memory at (n_max, len(r)).
        jl = _spherical_jn_orders(n_max, s * r)
        for l in range(n_max):
            amps = kernels[l] @ jl[l]          # one entry per n = l+1..n_max
            out[i, l:] += (2 * l + 1) * amps * amps
    return out


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

    Sums shells n <= n_max exactly (partial-wave radial quadrature) and adds
    the C/n^3 Rydberg tail when n_max >= 4.
    """
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if s == 0.0:
        return 1.0    # identity operator: the electron stays in the ground state
    return float(_survival_batch(np.array([s]), n_max)[0])


def ionization_probability(s: float, n_max: int = DEFAULT_N_MAX) -> float:
    """W_ion(s) = 1 - P_bound(s), clipped to [0, 1]."""
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s}")
    if s == 0.0:
        return 0.0    # no kick, no ionization
    return float(np.clip(1.0 - _survival_batch(np.array([s]), n_max), 0.0, 1.0)[0])


@dataclass(frozen=True)
class IonizationTable:
    """Monotone-cubic interpolation of W_ion on a scaled-kick grid.

    Beyond s_max the elastic term alone survives, so the table returns
    1 - (1 + s^2/4)^-4 there.
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
            out[big] = 1.0 - (1.0 + 0.25 * s[big] ** 2) ** -4
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "w_ion"])
            for s, w in zip(self.s_grid, self.w_values):
                writer.writerow([f"{s:.9g}", f"{w:.9g}"])

    @classmethod
    def load_csv(cls, path, n_max: int = DEFAULT_N_MAX) -> "IonizationTable":
        rows = list(csv.DictReader(Path(path).open()))
        s = np.array([float(r["s"]) for r in rows])
        w = np.array([float(r["w_ion"]) for r in rows])
        return cls(s_grid=s, w_values=w, n_max=n_max)


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
    w[0] = 0.0
    # Iron out sub-1e-8 quadrature wiggles so the monotone invariant is exact.
    w = np.maximum.accumulate(w)
    return IonizationTable(s_grid=s_grid, w_values=w, n_max=n_max)


@lru_cache(maxsize=4)
def default_ionization_table(
    s_max: float = 20.0, n_points: int = 400, n_max: int = DEFAULT_N_MAX
) -> IonizationTable:
    """Process-wide cached table for the default parameters."""
    return build_ionization_table(s_max=s_max, n_points=n_points, n_max=n_max)
