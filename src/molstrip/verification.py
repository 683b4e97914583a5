"""Independent numerical oracles for cross-checking the main pipeline.

Three deliberately different routes back the production code:

* ``mc_cross_section`` — importance-sampled Monte-Carlo estimate of the
  impact-parameter integral, checking the adaptive quadrature.
* ``continuum_ionization_oracle`` — W_ion(s) by direct integration of the
  squared 1s -> continuum matrix elements over all ejected-electron momenta
  (partial-wave Coulomb waves propagated by Numerov), checking the
  bound-state-complement route in ``form_factor``.  One outward Numerov
  sweep steps every (k node, partial wave) pair at once and accumulates the
  radial overlap integrals as it goes, so memory stays O(n_k l_max) beyond
  the (l, r) tables.
* ``bessel_reference`` — McDonald functions K0 and K1 from mpmath at 40
  digits, checking ``special_functions``.

These favor transparency over speed and are meant for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import special as sp

from .atomic_data import Orientation, transverse_positions
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


def mc_cross_section(
    system: CollisionSystem,
    theta: float,
    n_samples: int = 10**6,
    seed: int = 0,
) -> list[McEstimate]:
    """Monte-Carlo sigma^{m+}(theta) at phi = 0, one estimate per channel.

    Proposal: pick an atom uniformly, then an exponential radial step r around
    its projection with rate equal to the atom's softest screening exponent
    (heavier-tailed than the integrand, whose kick falls off at least twice
    as fast).  Sampling proceeds in fixed-size blocks with seeds spawned from
    the master seed, each drawing atoms, radii and angles in that order, summed
    in block order: bit-reproducible for a given seed and extensible (the first
    blocks of a longer run coincide).  A block's points are two contiguous
    coordinate rows, which the kick reads as their (N, 2) transpose.  In the
    proposal density the sampled atom's distance is r itself.
    """
    for name, value, low in (("n_samples", n_samples, 10**4), ("seed", seed, 0)):
        if not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    geom, proj = system.geometry, system.projectile
    projections = transverse_positions(geom, Orientation(theta))
    atoms = geom.atoms
    v = system.velocity
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
    for blk in range(n_blocks):
        size = min(_MC_BLOCK, n_samples - blk * _MC_BLOCK)
        rng = np.random.default_rng(child_seeds[blk])
        idx = rng.integers(0, n_atoms, size)
        r = rng.exponential(1.0 / lam, size)
        # The step r (cos, sin) from the sampled atom, by t = tan(angle / 2):
        # numpy 2 vectorizes float64 tan, but not sin and cos.
        t = np.tan(0.5 * rng.uniform(0.0, 2.0 * math.pi, size))
        x, y = pts = np.empty((2, size))
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
# Continuum-wave ionization oracle
# ---------------------------------------------------------------------------


def _coulomb_amplitude_log(l, eta):
    """log C_l(eta): regular Coulomb wave F_l ~ C_l rho^{l+1} at the origin.

    Elementwise over broadcast ``l`` and ``eta`` arrays.
    """
    lg = sp.loggamma(l + 1.0 + 1j * eta)
    return l * math.log(2.0) - 0.5 * math.pi * eta + lg.real - sp.gammaln(2 * l + 2)


def _start_indices(k_nodes, logc, h, n_r):
    """Radial index j0 at which Numerov takes over from the series, per (k, l).

    Numerov needs h^2 g << 1; the centrifugal term forces a start radius
    proportional to l, where the series (exact) seeds nodes j0 - 1 and j0.
    Three constraints pick j0:
     * at least 2l grid steps in, so h^2 g / 12 stays < ~1/48;
     * where the prefactor C_l rho^{l+1} is representable (log > -250) --
       it can underflow at small rho for large l while the wave is O(1)
       within the physical range;
     * for l >= 20, at ~0.4 of the classical turning point l/k: stepping
       through the deep barrier accumulates a relative amplitude error
       ~3e-5 per unit l, while the skipped inner tail is suppressed by
       exp(-0.65 l) and contributes nothing.
    """
    start = np.empty(logc.shape, dtype=int)
    for a, k in enumerate(k_nodes):
        for li in range(logc.shape[1]):
            rho_min = math.exp((-250.0 - logc[a, li]) / (li + 1.0))
            j_pref = int(math.ceil(rho_min / (k * h)))
            j_turn = int(0.4 * li / (k * h)) if li >= 20 else 0
            start[a, li] = min(max(1, 2 * li, j_pref, j_turn), n_r - 2)
    return start


def _coulomb_series_start(ls, eta, rho, logc, n_terms):
    """F_l(eta, rho) from the regular power series, elementwise.

    ``ls``, ``eta`` and ``logc`` broadcast to the trailing shape of ``rho``;
    one coefficient recurrence serves every leading slice of ``rho``.  The
    series converges for all rho; callers size n_terms to the largest
    evaluation point (roughly 1.5 rho + 20 terms) and keep rho below ~l so
    the partial sums stay cancellation-free.
    """
    c_prev = np.ones(rho.shape[1:])
    c_cur = eta / (ls + 1.0) * c_prev
    series = c_prev + c_cur * rho
    for n in range(2, n_terms):
        c_prev, c_cur = c_cur, (2.0 * eta * c_cur - c_prev) / (n * (n + 2.0 * ls + 1.0))
        series += c_cur * rho**n
    log_pref = logc + (ls + 1.0) * np.log(rho)
    # Deep under the centrifugal barrier the prefactor underflows; those
    # start values are zeroed (the start indices are chosen where this cannot
    # discard representable waves).
    return np.where(log_pref > -290.0, np.exp(np.maximum(log_pref, -290.0)) * series, 0.0)


_CHUNK = 64   # radial nodes per accumulation of the overlap integrals
_K_NODES_PER_PANEL = 10   # Gauss-Legendre nodes per ejected-momentum panel
_ORACLE_R_MAX = 30.0      # radial cutoff of the overlap integrals (a.u.)
# Largest s accepted.  The (l_max + 1, n_r) tables grow as s^2: at s = 30 each
# is 193 x 28,500 doubles (44 MB, three alive at once), at s = 1000 it would be 36 GB.
_ORACLE_S_MAX = 30.0


def _coulomb_overlaps(k_nodes, l_max, r, weight):
    """sum_j weight[j, l] F_l(-1/k, k r_j) for every (k, l): one Numerov sweep.

    The radial equation in r is u'' = [l(l+1)/r^2 - 2/r - k^2] u, the
    attractive hydrogen continuum problem; outward propagation of the
    regular solution is stable.  All k nodes and partial waves step together
    as one (n_k, l_max+1) array; each element is seeded from the series at
    its own start index and stays zero before it, since the recurrence maps
    two zero steps to zero.  ``weight`` is (n_r, l_max+1) with the
    quadrature weights folded in; the sums are accumulated every _CHUNK
    nodes, so no (n_k, l, n_r) array is formed.
    """
    n_r = len(r)
    h = r[1] - r[0]
    ls = np.arange(l_max + 1, dtype=float)
    k = k_nodes[:, None]
    eta = -1.0 / k
    logc = _coulomb_amplitude_log(ls, eta)
    start = _start_indices(k_nodes, logc, h, n_r)
    rho = k * r[np.stack([start - 1, start])]
    n_terms = max(60, int(1.5 * float(rho[1].max())) + 20)
    seed_values = _coulomb_series_start(ls, eta, rho, logc, n_terms)
    seeds = {}
    for (a, li), j0 in np.ndenumerate(start):
        seeds.setdefault(j0 - 1, []).append((a, li, seed_values[0, a, li]))
        seeds.setdefault(j0, []).append((a, li, seed_values[1, a, li]))

    # Numerov for u'' = g u:  (1 - t_{n+1}) u_{n+1} = 2 (1 + 5 t_n) u_n
    #                         - (1 - t_{n-1}) u_{n-1},  t = h^2 g / 12
    c12 = h * h / 12.0
    k2 = k * k
    cent = ls * (ls + 1.0) / r[:, None] ** 2 - 2.0 / r[:, None]
    buf = np.zeros((_CHUNK, len(k_nodes), l_max + 1))
    overlaps = np.zeros((len(k_nodes), l_max + 1))
    for j in (0, 1):
        for a, li, v in seeds.get(j, ()):
            buf[j, a, li] = v
    u_prev, u_cur = buf[0], buf[1]
    t_cur = c12 * (cent[1] - k2)
    one_p_prev, one_p_cur = 1.0 - c12 * (cent[0] - k2), 1.0 - t_cur
    for i in range(1, n_r - 1):
        j = i + 1
        t_next = c12 * (cent[j] - k2)
        one_p_next = 1.0 - t_next
        u_next = buf[j % _CHUNK]
        np.divide(2.0 * (1.0 + 5.0 * t_cur) * u_cur - one_p_prev * u_prev, one_p_next,
                  out=u_next)
        for a, li, v in seeds.get(j, ()):
            u_next[a, li] = v
        if j % _CHUNK == _CHUNK - 1:
            overlaps += np.einsum("jkl,jl->kl", buf, weight[j + 1 - _CHUNK:j + 1])
        u_prev, u_cur = u_cur, u_next
        t_cur, one_p_prev, one_p_cur = t_next, one_p_cur, one_p_next
    n_tail = n_r % _CHUNK
    if n_tail:
        overlaps += np.einsum("jkl,jl->kl", buf[:n_tail], weight[n_r - n_tail:])
    return overlaps


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n uniform nodes, as scipy's ``simpson``.

    Odd n: 1-4-2-...-4-1 times h/3.  Even n: that rule on the first n - 1
    nodes plus scipy's (Cartwright) correction for the last interval.
    """
    m = n if n % 2 else n - 1
    w = np.zeros(n)
    w[:m:2] = 2.0
    w[1:m:2] = 4.0
    w[0] = w[m - 1] = 1.0
    w *= h / 3.0
    if n % 2 == 0:
        w[-3:] += (-h / 12.0, 2.0 * h / 3.0, 5.0 * h / 12.0)
    return w


def _k_nodes(s: float):
    """Gauss-Legendre panels covering the ejected-electron momentum range.

    Fine panels near k = 0 (soft electrons) and around k = s (the
    quasi-free-recoil peak), with panels of width <= 2 bridging any gap in
    between so the full range [0, s + 8] is covered contiguously.
    """
    peak_lo = max(3.0, s - 6.0)
    mid = (
        np.linspace(3.0, peak_lo, max(2, int(math.ceil((peak_lo - 3.0) / 2.0)) + 1))
        if peak_lo > 3.0
        else np.empty(0)
    )
    edges = np.concatenate([
        np.linspace(0.0, 3.0, 7),
        mid,
        np.linspace(peak_lo, s + 8.0, 12),
    ])
    edges = np.unique(edges[edges >= 0.0])
    x, w = np.polynomial.legendre.leggauss(_K_NODES_PER_PANEL)
    ks, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        ks.append(0.5 * (b - a) * x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(ks), np.concatenate(ws)


def continuum_ionization_oracle(s: float) -> float:
    """W_ion(s) from the direct continuum route.

    W = sum_l (2l+1) integral dk |I_l(k)|^2 with
    I_l(k) = sqrt(2/pi) integral F_l(-1/k, kr) j_l(s r) R_10(r) r dr,
    the Coulomb waves normalized on the momentum scale.  Accuracy ~1e-4.
    ValueError unless 0 < s <= _ORACLE_S_MAX (30), checked before any table
    is allocated.
    """
    if not 0.0 < s <= _ORACLE_S_MAX:    # nan fails too
        raise ValueError(f"s must be positive and at most {_ORACLE_S_MAX:g}, got {s}")
    k_nodes, k_weights = _k_nodes(s)
    k_max = float(k_nodes.max())
    l_max = int(12 + 6.0 * s)

    h = min(0.04 / max(k_max, 1.0), 0.008)
    n_r = int(_ORACLE_R_MAX / h) + 1
    r = h * np.arange(1, n_r + 1)

    jl = sp.spherical_jn(np.arange(l_max + 1)[:, None], s * r[None, :])
    weight = jl * (2.0 * np.exp(-r) * r)[None, :]   # j_l(sr) R_10(r) r
    weight = np.ascontiguousarray((weight * _simpson_weights(n_r, h)).T)

    integrals = _coulomb_overlaps(k_nodes, l_max, r, weight)
    amp_sq = (k_weights[:, None] * integrals * integrals).sum(axis=0)
    w_total = float(np.sum((2.0 * np.arange(l_max + 1) + 1.0) * amp_sq) * (2.0 / math.pi))
    if not np.isfinite(w_total):
        raise RuntimeError(f"continuum oracle failed to converge at s={s}")
    return w_total


# ---------------------------------------------------------------------------
# High-precision Bessel reference
# ---------------------------------------------------------------------------


def _check_bessel_args(x: float, order: int) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise ValueError(f"reference Bessel requires positive finite x, got {x!r}")
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    return x


def bessel_reference(x: float, order: int) -> float:
    """K_order(x) from mpmath's ``besselk`` at 40 significant digits.

    mpmath evaluates K with its own hypergeometric and asymptotic series,
    independent of the trapezoid sum in ``special_functions``.
    Relative accuracy far beyond 1e-14; test use only.
    """
    x = _check_bessel_args(x, order)
    with mp.workdps(40):
        return float(mp.besselk(order, mp.mpf(x)))
