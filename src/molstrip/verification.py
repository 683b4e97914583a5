"""Independent numerical oracles for cross-checking the main pipeline.

Three deliberately different routes back the production code:

* ``mc_cross_section`` — importance-sampled Monte-Carlo estimate of the
  impact-parameter integral, checking the adaptive quadrature; it draws by
  blocks and slices them itself for the kick, so its memory stays a few MB.
* ``continuum_ionization_oracle`` — W_ion(s) by integrating Bethe's closed
  form of the 1s -> continuum probability over all ejected-electron momenta,
  on panels of a constant 10-node Gauss-Legendre rule, checking the
  bound-state-complement route in ``form_factor`` for s in [1e-3, 30].  The
  two routes agree within 1e-13 relative on [1, 30], 5e-12 on [0.1, 1) and
  1.5e-9 down to 1e-3.
* ``bessel_reference`` — McDonald functions K0 and K1 from mpmath at 40
  digits, checking ``special_functions``.

These favor transparency over speed and are meant for tests.  They need
numpy and mpmath only; no module of the package imports scipy, and the
first two oracles load neither numpy.polynomial nor numpy.ma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .atomic_data import transverse_positions
from .cross_section import CollisionSystem, _binomial_channels
from .transfer import total_kick_magnitude

__all__ = [
    "McEstimate",
    "mc_cross_section",
    "continuum_ionization_oracle",
    "bessel_reference",
]


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo integral estimate with one-sigma statistical error."""

    value: float
    std_error: float


_MC_BLOCK = 1 << 16
# Points per slice of a block, so each temporary is 64 KiB.  One kick pass per
# 65,536-point block made a verify solve 0.63 against 0.58 s (medians, 2 vCPUs).
_MC_SLICE = 8192


def mc_cross_section(
    system: CollisionSystem,
    theta: float,
    n_samples: int = 10**6,
    seed: int = 0,
) -> list[McEstimate]:
    """Monte-Carlo sigma^{m+}(theta) at phi = 0, theta in [0, pi], one estimate per channel.

    Proposal: pick an atom uniformly, then an exponential radial step r around
    its projection with rate equal to the atom's softest screening exponent
    (heavier-tailed than the integrand, whose kick falls off at least twice
    as fast).  Sampling proceeds in fixed-size blocks with seeds spawned from
    the master seed, each drawing all its atoms, radii and angles in that
    order; the points, kicks, weights and sums are then formed one _MC_SLICE
    slice at a time and summed in order.  Results are bit-reproducible for a
    given seed and extensible (the first blocks of a longer run coincide).  A
    slice's points are two contiguous coordinate rows, which the kick reads as
    their (N, 2) transpose.  In the proposal density the sampled atom's
    distance is r itself.
    """
    for name, value, low in (("n_samples", n_samples, 10**4), ("seed", seed, 0)):
        if not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    geom, proj = system.geometry, system.projectile
    projections = transverse_positions(geom, theta)
    atoms = geom.atoms
    v = system.params.velocity_au
    n_atoms = len(atoms)
    n_p = proj.N_P

    lam = min(
        min(al for al, a in zip(atom.alpha, atom.A) if a != 0.0) for atom in atoms
    )
    px, py = projections.T.copy()
    # Offsets of atom i from atom (i + k) % n_atoms, for k = 1 .. n_atoms - 1.
    others = [(px - np.roll(px, -k), py - np.roll(py, -k)) for k in range(1, n_atoms)]

    n_blocks = math.ceil(n_samples / _MC_BLOCK)
    child_seeds = np.random.SeedSequence(seed).spawn(n_blocks)
    total, total_sq = np.zeros((2, n_p))
    radii, angles = np.empty((2, min(_MC_BLOCK, n_samples)))
    for blk in range(n_blocks):
        size = min(_MC_BLOCK, n_samples - blk * _MC_BLOCK)
        rng = np.random.default_rng(child_seeds[blk])
        sampled = rng.integers(0, n_atoms, size)
        # numpy draws exponential(1/lam) as (1/lam) E and uniform(0, 2 pi) as
        # 0 + 2 pi U, so these are those radii bit for bit and half those
        # angles (halving is exact), in buffers reused by every block.
        radius = rng.standard_exponential(out=radii[:size])
        radius *= 1.0 / lam
        half_angle = rng.random(out=angles[:size])
        half_angle *= math.pi
        for lo in range(0, size, _MC_SLICE):
            idx, r, t = (a[lo:lo + _MC_SLICE] for a in (sampled, radius, half_angle))
            # The step r (cos, sin) from the sampled atom, by t = tan(angle / 2)
            # in the angle's buffer: numpy 2 vectorizes float64 tan, not sin and cos.
            np.tan(t, out=t)
            x, y = pts = np.empty((2, len(r)))
            np.divide(r, 1.0 + t * t, out=y)
            np.multiply(1.0 - t * t, y, out=x)
            y *= 2.0 * t

            # sum_m exp(-lam d_m) / d_m in t's buffer, d_m >= 1e-12: d is r for
            # the sampled atom, then the others' distances in r's buffer.
            d = np.maximum(r, 1e-12, out=r)
            density = np.divide(np.exp(-lam * d, out=t), d, out=t)
            for ox, oy in others:
                np.add(x, ox.take(idx), out=d)
                np.sqrt(d * d + np.square(y + oy.take(idx)), out=d)
                np.maximum(d, 1e-12, out=d)
                density += np.exp(-lam * d) / d
            inv_density = np.divide(2.0 * math.pi * n_atoms / lam, density, out=density)

            x += px.take(idx)
            y += py.take(idx)
            q = total_kick_magnitude(projections, atoms, v, pts.T)
            w = _binomial_channels(system.table(q / proj.Z_eff), n_p)
            total += inv_density @ w
            total_sq += np.square(inv_density, out=inv_density) @ np.square(w, out=w)

    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean * mean, 0.0)
    std_err = np.sqrt(var / n_samples)
    return [McEstimate(value=float(mean[m]), std_error=float(std_err[m])) for m in range(n_p)]


# ---------------------------------------------------------------------------
# Continuum ionization oracle
# ---------------------------------------------------------------------------


# The 10-node Gauss-Legendre rule of each ejected-momentum panel, equal bit for
# bit to numpy.polynomial.legendre.leggauss(10) without importing it.
_GL_X = np.array([-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
                  -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
                  0.4333953941292472, 0.6794095682990244, 0.8650633666889845, 0.9739065285171717])
_GL_W = np.array([0.06667134430868814, 0.1494513491505804, 0.219086362515982,
                  0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
                  0.2692667193099965, 0.219086362515982, 0.1494513491505804, 0.06667134430868814])
# Smallest s accepted: the domain is where closure against the bound route is
# checked.  Below it the bound sum at n_max = 1000 drifts from the continuum
# (5.8e-8 relative at s = 1e-4, against 1.4e-9 at 1e-3).
_ORACLE_S_MIN = 1e-3
# Largest s accepted.  Past it the panel layout of _k_nodes degrades: the
# continuum is 2.3e-9 short of 1 - F^2 at s = 100 and about 1e-5 at 1000.
_ORACLE_S_MAX = 30.0


def _k_nodes(s: float):
    """Gauss-Legendre nodes and weights over the ejected-electron momentum k.

    12 panels on [0, 3] (soft electrons), panels at most 2 wide from 3 to
    max(3, s - 6), 0.5 wide from there to s + 6 (the quasi-free-recoil peak at
    k = s), and 30 geometric panels from s + 6 to 1000 (s + 6) for the k^-8
    tail: at most 77 panels, 770 nodes at s = 30.
    """
    peak_lo = max(3.0, s - 6.0)
    # Each run of edges stops short of the next run's first edge, so the
    # edges come sorted and distinct without np.unique (which imports numpy.ma).
    edges = np.concatenate([
        np.linspace(0.0, 3.0, 13)[:-1],
        np.linspace(3.0, peak_lo, math.ceil((peak_lo - 3.0) / 2.0) + 1)[:-1],
        np.linspace(peak_lo, s + 6.0, math.ceil((s + 6.0 - peak_lo) / 0.5) + 1)[:-1],
        np.geomspace(s + 6.0, 1000.0 * (s + 6.0), 31),
    ])
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (b - a) * _GL_X + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * _GL_W).ravel()


def continuum_ionization_oracle(s: float) -> float:
    """W_ion(s) from the direct continuum route.

    W = integral dk dW/dk over the ejected-electron momentum k, with Bethe's
    closed form of the hydrogen 1s -> continuum probability at kick s (Bethe
    1930, Ann. Phys. 397:325; Inokuti 1971, Rev. Mod. Phys. 43:297, Sec. 4),
    E = 1 + k^2:

      dW/dk = 2^8 k s^2 (s^2 + E/3) exp(-(2/k) atan2(2k, s^2 - k^2 + 1))
              / ([(s+k)^2 + 1]^3 [(s-k)^2 + 1]^3 (1 - exp(-2 pi/k))).

    The density is positive with no cancellation, and this route shares no
    code with the bound-shell sum in ``form_factor``.  Against
    ``ionization_probability(s, n_max=1000)`` it agrees within 1e-13
    relative on [1, 30], 5e-12 on [0.1, 1) and 1.5e-9 down to 1e-3, where
    the bound sum's tail is the inexact side.  ValueError unless
    _ORACLE_S_MIN <= s <= _ORACLE_S_MAX, i.e. s in [1e-3, 30], checked
    before any node is built.
    """
    if not _ORACLE_S_MIN <= s <= _ORACLE_S_MAX:     # nan fails too
        raise ValueError(f"s must lie within [{_ORACLE_S_MIN:g}, {_ORACLE_S_MAX:g}], got {s}")
    k, weights = _k_nodes(s)
    s2 = s * s
    density = (2.0**8 * k * s2 * (s2 + (1.0 + k * k) / 3.0)
               * np.exp(-2.0 / k * np.arctan2(2.0 * k, s2 - k * k + 1.0))
               / (((s + k) ** 2 + 1.0) ** 3 * ((s - k) ** 2 + 1.0) ** 3
                  * -np.expm1(-2.0 * math.pi / k)))
    w_total = float(weights @ density)
    if not np.isfinite(w_total):
        raise RuntimeError(f"continuum oracle failed to converge at s={s}")
    return w_total


# ---------------------------------------------------------------------------
# High-precision Bessel reference
# ---------------------------------------------------------------------------


def bessel_reference(x: float, order: int) -> float:
    """K_order(x) from mpmath's ``besselk`` at 40 significant digits.

    mpmath evaluates K with its own hypergeometric and asymptotic series,
    independent of the trapezoid sum in ``special_functions``.
    Relative accuracy far beyond 1e-14; test use only.
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"reference Bessel requires positive finite x, got {x!r}")
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    with mp.workdps(40):
        return float(mp.besselk(order, mp.mpf(x)))
