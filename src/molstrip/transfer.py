"""Screened multi-center momentum-transfer field.

Per target atom, the straight-line collision delivers a transverse kick to
each projectile electron,

    q_m(b) = (2 Z_m / v) sum_i alpha_i A_i K1(alpha_i b) b_hat,

which is minus the gradient of the per-electron eikonal phase

    chi_m(b) = (2 Z_m / v) sum_i A_i K0(alpha_i b).

The total kick at impact parameter b is the vector sum over atoms evaluated
at the per-atom impact parameters b - s_m (s_m = transverse atom positions).
chi is exposed as a diagnostic only; the cross-section path uses the kicks.
``total_kick_magnitude`` reads |q_m| / b from one table per atom, which
``kick_profile`` builds from its own K0 and K1 sums; the direct sum
``kick_magnitude`` judges the table (5e-12 relative) and serves beyond its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .atomic_data import HfsAtom
from .special_functions import bessel_k0, bessel_k1

__all__ = [
    "eikonal_phase_single",
    "kick_magnitude",
    "kick_profile",
    "total_kick_magnitude",
]

# Quadrature nodes must stay outside this radius of any atom projection; the
# kick clamps there (W_ion saturates at 1 well before).
MIN_IMPACT_RADIUS = 1e-6

PROFILE_NODES = 1000
_CHUNK = 8192       # points per pass of total_kick_magnitude: bounds its temporaries


def _check_positive(value: float, name: str) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def eikonal_phase_single(atom: HfsAtom, v: float, b: float) -> float:
    """Per-electron eikonal phase chi_m(b) of one screened atom (diagnostic)."""
    _check_positive(v, "velocity")
    _check_positive(b, "impact parameter")
    acc = sum(a * k for a, k in zip(atom.A, bessel_k0(np.multiply(atom.alpha, b))))
    return float(2.0 * atom.Z / v * acc)


def kick_magnitude(atom: HfsAtom, v: float, r: np.ndarray) -> np.ndarray:
    """|q_m| for an array of impact-parameter magnitudes, by the direct K1 sum."""
    r = np.maximum(np.asarray(r, dtype=float), MIN_IMPACT_RADIUS)
    acc = np.zeros_like(r)
    for a, al in zip(atom.A, atom.alpha):
        if a == 0.0:
            continue      # an unused term adds exactly +0.0; skip its K1 call
        acc += al * a * bessel_k1(al * r)
    return 2.0 * atom.Z / v * acc


@dataclass(frozen=True)
class KickProfile:
    """One atom's S1(r) / r, S1 = sum_i alpha_i A_i K1(alpha_i r), tabulated in u = ln r.

    z = ln(S1 / r) is a quintic Hermite with exact z', z'' at nodes u0 + i h;
    ``coef[:, i]`` is step i's quintic in t - i, t = (u - u0) / h, top power first.
    """

    u0: float
    h: float
    r_hi: float
    coef: np.ndarray = field(repr=False)

    def __call__(self, r2: np.ndarray) -> np.ndarray:
        """The profile at squared radii r2 <= r_hi^2, clamped below MIN_IMPACT_RADIUS; in place."""
        t = np.maximum(r2, MIN_IMPACT_RADIUS**2, out=r2)
        np.log(t, out=t)                # t = (ln(r2) / 2 - u0) / h
        t -= 2.0 * self.u0
        t /= 2.0 * self.h
        i = np.minimum(t.astype(np.intp), self.coef.shape[1] - 1)
        c = i.astype(float)             # then holds one coefficient row at a time
        t -= c
        z = self.coef[0].take(i)
        for row in self.coef[1:]:
            z *= t
            z += row.take(i, out=c, mode="clip")
        return np.exp(z, out=t)


@lru_cache(maxsize=32)
def kick_profile(atom: HfsAtom) -> KickProfile:
    """The atom's profile on [MIN_IMPACT_RADIUS, min(200, 600 / alpha_min)], where
    K1 is a normal double; one serves every v.  ValueError names Z if S1 <= 0.
    """
    terms = [(a, al) for a, al in zip(atom.A, atom.alpha) if a != 0.0]
    r_hi = min(200.0, 600.0 / min(al for _, al in terms))
    u0 = math.log(MIN_IMPACT_RADIUS)
    h = (math.log(r_hi) - u0) / (PROFILE_NODES - 1)
    r = np.exp(u0 + h * np.arange(PROFILE_NODES))
    # S0 = sum alpha^2 A K0 and S2 = sum alpha^3 A K1 give the derivatives.
    s1, s0, s2 = np.zeros((3, PROFILE_NODES))
    for a, al in terms:
        k1 = bessel_k1(al * r)
        s1 += al * a * k1
        s2 += al * al * al * a * k1
        s0 += al * al * a * bessel_k0(al * r)
    if not np.all(s1 > 0.0):
        raise ValueError(f"the screened kick of Z={atom.Z:g} is not positive at r = "
                         f"{r[np.argmin(s1 > 0.0)]:.3g} a.u.; the fit is unphysical")
    # With p = -r S0 / S1: dz/du = p - 2, d2z/du2 = p + r (r S2 - S0) / S1 - p^2;
    # times h and h^2 they are the t-derivatives.
    p = -r * s0 / s1
    z = np.log(s1 / r)
    z1 = h * (p - 2.0)
    z2 = h * h * (p + r * (r * s2 - s0) / s1 - p * p)
    # What the left node's Taylor terms leave of the right node's value, slope
    # and curvature fixes each step's t^3, t^4 and t^5 terms.
    dz = z[1:] - z[:-1] - z1[:-1] - 0.5 * z2[:-1]
    dz1 = z1[1:] - z1[:-1] - z2[:-1]
    dz2 = z2[1:] - z2[:-1]
    coef = np.stack([6.0 * dz - 3.0 * dz1 + 0.5 * dz2, -15.0 * dz + 7.0 * dz1 - dz2,
                     10.0 * dz - 4.0 * dz1 + 0.5 * dz2, 0.5 * z2[:-1], z1[:-1], z[:-1]])
    return KickProfile(u0=u0, h=h, r_hi=r_hi, coef=coef)


def total_kick_magnitude(projections, atoms, v: float, points: np.ndarray) -> np.ndarray:
    """|Q(b)| = |sum_m q_m(b - s_m)| for an (N, 2) array of b points.

    Each |q_m| / r comes from the atom's kick profile out to r_hi and from the
    direct sum beyond it, which also rejects nan and inf points.
    """
    points = np.asarray(points, dtype=float)
    terms = [(s_m, atom, kick_profile(atom), 2.0 * atom.Z / v)
             for s_m, atom in zip(np.asarray(projections, dtype=float), atoms)]
    out = np.empty(len(points))
    for lo in range(0, len(points), _CHUNK):
        chunk = points[lo:lo + _CHUNK]
        qx, qy = np.zeros((2, len(chunk)))
        for s_m, atom, profile, scale in terms:
            dx = chunk[:, 0] - s_m[0]
            dy = chunk[:, 1] - s_m[1]
            w = dx * dx                 # r^2, then |q_m| / r in place
            w += dy * dy
            near = w <= profile.r_hi**2
            if near.all():
                profile(w)
                w *= scale
            else:
                w[near] = profile(w[near]) * scale
                r = np.hypot(dx[~near], dy[~near])
                w[~near] = kick_magnitude(atom, v, r) / r
            dx *= w
            dy *= w
            qx += dx
            qy += dy
        np.hypot(qx, qy, out=out[lo:lo + len(chunk)])
    return out
