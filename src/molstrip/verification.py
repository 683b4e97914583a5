"""Independent numerical oracles for cross-checking the main pipeline.

Three deliberately different routes back the production code:

* ``mc_cross_section`` — importance-sampled Monte-Carlo estimate of the
  impact-parameter integral, checking the adaptive quadrature; it draws by
  blocks and slices them itself for the kick, so its memory stays a few MB.
* ``continuum_ionization_oracle`` — W_ion(s) by direct integration of the
  squared 1s -> continuum matrix elements over all ejected-electron momenta
  (partial-wave Coulomb waves propagated by Numerov), checking the
  bound-state-complement route in ``form_factor``, for s in [1e-3, 30].  One
  outward Numerov sweep steps every (k node, partial wave) pair at once and
  accumulates the radial overlap integrals as it goes, so memory stays
  O(n_k l_max) beyond the one (r, l) table of weighted j_l(s r).  Its
  special functions are numpy: j_l by Miller's downward recurrence, and the
  Coulomb normalization C_l from |Gamma(l+1+i eta)|^2 as a finite product;
  its momentum panels take a constant 10-node Gauss-Legendre rule.
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
# Continuum-wave ionization oracle
# ---------------------------------------------------------------------------


def _coulomb_amplitude_log(eta, l_max):
    """log C_l(eta), F_l ~ C_l rho^{l+1} at the origin: (len(eta), l_max + 1).

    C_l = 2^l e^{-pi eta/2} |Gamma(l+1+i eta)| / (2l+1)! (DLMF 33.2.5), with
    |Gamma(l+1+i eta)|^2 = (pi|eta| / sinh pi|eta|) prod_{n<=l} (n^2 + eta^2)
    (DLMF 5.4.3 and the recurrence).  With x = pi|eta| the first factor's log
    is ln 2x - x - log1p(-e^{-2x}), finite where sinh x overflows; the
    product is a cumulative sum of logs along l.
    """
    ls = np.arange(l_max + 1)
    x = math.pi * np.abs(eta)[:, None]
    log_gamma = np.zeros((len(eta), l_max + 1))
    np.cumsum(np.log(ls[1:] ** 2.0 + eta[:, None] ** 2), axis=1, out=log_gamma[:, 1:])
    log_gamma += np.log(2.0 * x) - x - np.log1p(-np.exp(-2.0 * x))
    log_fact = np.array([math.lgamma(2.0 * l + 2.0) for l in ls])
    return ls * math.log(2.0) - 0.5 * math.pi * eta[:, None] + 0.5 * log_gamma - log_fact


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
    ls = np.arange(logc.shape[1])
    kh = k_nodes[:, None] * h
    j_pref = np.ceil(np.exp((-250.0 - logc) / (ls + 1.0)) / kh)
    j_turn = np.where(ls >= 20, np.trunc(0.4 * ls / kh), 0.0)
    start = np.maximum(np.maximum(2 * ls, 1), np.maximum(j_pref, j_turn))
    return np.minimum(start, n_r - 2).astype(int)


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


_CHUNK = 64   # radial nodes per chunk of the oracle's Numerov sweep
# The 10-node Gauss-Legendre rule of each ejected-momentum panel, equal bit for
# bit to numpy.polynomial.legendre.leggauss(10) without importing it.
_GL_X = np.array([-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
                  -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
                  0.4333953941292472, 0.6794095682990244, 0.8650633666889845, 0.9739065285171717])
_GL_W = np.array([0.06667134430868814, 0.1494513491505804, 0.219086362515982,
                  0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
                  0.2692667193099965, 0.219086362515982, 0.1494513491505804, 0.06667134430868814])
_ORACLE_R_MAX = 30.0      # radial cutoff of the overlap integrals (a.u.)
# Smallest s accepted.  W_ion ~ 0.2834 s^2 falls towards the oracle's floor of
# 1.283e-12 (the l = 0 wave's numerical overlap with the 1s state), which is
# 4.5e-6 of W at s = 1e-3 and 4.5e-4 at 1e-4; below about 1e-5 only the floor
# is left.
_ORACLE_S_MIN = 1e-3
# Largest s accepted.  The (n_r, l_max + 1) table grows as s^2: at s = 30 it
# is 28,500 x 193 doubles (44 MB), at s = 1000 it would be 36 GB.
_ORACLE_S_MAX = 30.0


def _coulomb_overlaps(k_nodes, l_max, r, weight):
    """sum_j weight[j, l] F_l(-1/k, k r_j) for every (k, l): one Numerov sweep.

    The radial equation in r is u'' = [l(l+1)/r^2 - 2/r - k^2] u, the
    attractive hydrogen continuum problem; outward propagation of the
    regular solution is stable.  All k nodes and partial waves step together
    as one (n_k, l_max+1) array; each element is seeded from the series at
    its own start index and stays zero before it, since the recurrence maps
    two zero steps to zero.  ``weight`` is (n_r, l_max+1) with the
    quadrature weights folded in.  The sweep walks the radial grid one _CHUNK
    of nodes at a time, building that chunk's centrifugal rows and adding its
    sums, so no (n_k, l, n_r) or (n_r, l) array is formed.
    """
    n_r = len(r)
    h = r[1] - r[0]
    ls = np.arange(l_max + 1, dtype=float)
    k = k_nodes[:, None]
    eta = -1.0 / k
    logc = _coulomb_amplitude_log(eta[:, 0], l_max)
    start = _start_indices(k_nodes, logc, h, n_r)
    nodes = np.stack([start - 1, start])
    rho = k * r[nodes]
    n_terms = max(60, int(1.5 * float(rho[1].max())) + 20)
    seed_values = _coulomb_series_start(ls, eta, rho, logc, n_terms)
    # The series values in radial-node order, each with its flat (k, l)
    # position; node j seeds the run at[j]:at[j + 1].
    nodes = nodes.ravel()
    order = np.argsort(nodes, kind="stable")
    seed_pos, seed_val = order % start.size, seed_values.ravel()[order]
    at = np.searchsorted(nodes[order], np.arange(n_r + 1)).tolist()

    def seed(u, j):
        if at[j] < at[j + 1]:
            np.put(u, seed_pos[at[j]:at[j + 1]], seed_val[at[j]:at[j + 1]])

    # Numerov for u'' = g u:  (1 - t_{n+1}) u_{n+1} = 2 (1 + 5 t_n) u_n
    #                         - (1 - t_{n-1}) u_{n-1},  t = h^2 g / 12
    c12 = h * h / 12.0
    k2 = k * k
    buf = np.zeros((_CHUNK, len(k_nodes), l_max + 1))
    overlaps = np.zeros((len(k_nodes), l_max + 1))
    seed(buf[0], 0)
    seed(buf[1], 1)
    u_prev, u_cur = buf[0], buf[1]
    one_p_cur = None
    for lo in range(0, n_r, _CHUNK):
        # The chunk's rows of l(l+1)/r^2 - 2/r; nodes 0 and 1 only prime t.
        cent = ls * (ls + 1.0) / r[lo:lo + _CHUNK, None] ** 2
        cent -= 2.0 / r[lo:lo + _CHUNK, None]
        for j, row in enumerate(cent, start=lo):
            t_next = c12 * (row - k2)
            one_p_next = 1.0 - t_next
            if j > 1:
                u_next = buf[j - lo]
                np.divide(2.0 * (1.0 + 5.0 * t_cur) * u_cur - one_p_prev * u_prev, one_p_next,
                          out=u_next)
                seed(u_next, j)
                u_prev, u_cur = u_cur, u_next
            t_cur, one_p_prev, one_p_cur = t_next, one_p_cur, one_p_next
        overlaps += np.einsum("jkl,jl->kl", buf[:len(cent)], weight[lo:lo + _CHUNK])
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
        np.linspace(3.0, peak_lo, max(2, int(math.ceil((peak_lo - 3.0) / 2.0)) + 1))[:-1]
        if peak_lo > 3.0
        else np.empty(0)
    )
    # Each run of edges stops short of the next run's first edge, so the
    # edges come sorted and distinct without np.unique (which imports numpy.ma).
    edges = np.concatenate([np.linspace(0.0, 3.0, 7)[:-1], mid, np.linspace(peak_lo, s + 8.0, 12)])
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (b - a) * _GL_X + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * _GL_W).ravel()


def _oracle_grids(s: float):
    """Momentum nodes and weights, l_max and radial nodes of the W_ion(s) sums."""
    k_nodes, k_weights = _k_nodes(s)
    h = min(0.04 / max(float(k_nodes.max()), 1.0), 0.008)
    r = h * np.arange(1, int(_ORACLE_R_MAX / h) + 2)
    return k_nodes, k_weights, int(12 + 6.0 * s), r


def _spherical_jn_table(l_max: int, x: np.ndarray) -> np.ndarray:
    """j_l(x) for l = 0 .. l_max at every x > 0, as a (len(x), l_max + 1) array.

    Miller's algorithm (DLMF 3.6(iii)): j_{l-1} = (2l+1)/x j_l - j_{l+1}
    (DLMF 10.51.1) is stable downward for j_l, so it runs from f_{N+1} = 0,
    f_N = 1 with N = max(l_max, x_max) + 20 + 4 x_max^{1/3}, and each x's
    values are scaled to j0 = sin x / x or j1 = (j0 - cos x) / x, whichever
    is larger there.  A row is multiplied by 1e-250 whenever a value passes
    1e250.  x is read as at least 1e-40, which moves no j_l by more than
    1e-40 and keeps one step's growth, at most (2N+1)/x, below 1e58, so
    nothing overflows.
    """
    x = np.maximum(x, 1e-40)
    x_max = float(x.max())
    n_start = int(max(l_max, x_max) + 20.0 + 4.0 * x_max ** (1.0 / 3.0)) + 1
    table = np.empty((len(x), l_max + 1))
    inv_x = 1.0 / x
    f_next, f = np.zeros_like(x), np.ones_like(x)
    for l in range(n_start, 0, -1):
        f_next, f = f, (2.0 * l + 1.0) * inv_x * f - f_next
        if np.abs(f).max() > 1e250:
            big = np.abs(f) > 1e250
            np.multiply(f, 1e-250, out=f, where=big)
            np.multiply(f_next, 1e-250, out=f_next, where=big)
            if l <= l_max:
                table[big, l:] *= 1e-250
        if l <= l_max + 1:
            table[:, l - 1] = f
    j0 = np.sin(x) / x
    j1 = (j0 - np.cos(x)) / x
    first = np.abs(j0) >= np.abs(j1)
    table *= (np.where(first, j0, j1) / np.where(first, table[:, 0], table[:, 1]))[:, None]
    return table


def continuum_ionization_oracle(s: float) -> float:
    """W_ion(s) from the direct continuum route.

    W = sum_l (2l+1) integral dk |I_l(k)|^2 with
    I_l(k) = sqrt(2/pi) integral F_l(-1/k, kr) j_l(s r) R_10(r) r dr,
    the Coulomb waves normalized on the momentum scale.  Accuracy ~1e-4.
    ValueError unless _ORACLE_S_MIN <= s <= _ORACLE_S_MAX, i.e. s in
    [1e-3, 30], checked before any table is allocated.
    """
    if not _ORACLE_S_MIN <= s <= _ORACLE_S_MAX:     # nan fails too
        raise ValueError(f"s must lie within [{_ORACLE_S_MIN:g}, {_ORACLE_S_MAX:g}], got {s}")
    k_nodes, k_weights, l_max, r = _oracle_grids(s)
    # j_l(s r) R_10(r) r times Simpson's weights, in the (r, l) layout the
    # sweep reads.
    weight = _spherical_jn_table(l_max, s * r)
    weight *= (2.0 * np.exp(-r) * r * _simpson_weights(len(r), r[0]))[:, None]

    integrals = _coulomb_overlaps(k_nodes, l_max, r, weight)
    amp_sq = (k_weights[:, None] * integrals * integrals).sum(axis=0)
    w_total = float(np.sum((2.0 * np.arange(l_max + 1) + 1.0) * amp_sq) * (2.0 / math.pi))
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
