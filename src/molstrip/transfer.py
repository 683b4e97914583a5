"""Screened multi-center momentum-transfer field.

Per target atom, the straight-line collision delivers a transverse kick to
each projectile electron,

    q_m(b) = (2 Z_m / v) sum_i alpha_i A_i K1(alpha_i b) b_hat,

which is minus the gradient of the per-electron eikonal phase

    chi_m(b) = (2 Z_m / v) sum_i A_i K0(alpha_i b).

The total kick at impact parameter b is the vector sum over atoms evaluated
at the per-atom impact parameters b - s_m (s_m = transverse atom positions).
chi is exposed as a diagnostic only; the cross-section path uses the kicks.
``total_kick_magnitude`` reads |q_m| / b at every radius from one table per
atom, which ``kick_profile`` builds from its own K0 and K1 sums and which is 0
past its end (alpha_min r > 600, or r > 1e11 a.u.).  The direct sum
``kick_magnitude`` and the phase ``eikonal_phase_single`` are the references
that judge the table (5e-12 relative).  ``total_kick_magnitude`` takes all its
points in one stacked pass per distinct atom (one for N2, two for O-C-O);
``verification`` slices the Monte Carlo blocks for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .atomic_data import HfsAtom
from .form_factor import _HermiteSteps
from .special_functions import _k0_k1, bessel_k0, bessel_k1

__all__ = [
    "eikonal_phase_single",
    "kick_magnitude",
    "kick_profile",
    "total_kick_magnitude",
]

# Quadrature nodes must stay outside this radius of any atom projection; the
# kick clamps there (W_ion saturates at 1 well before).
MIN_IMPACT_RADIUS = 1e-6

# Every profile's nodes lie at ln r = u0 + i h, 1,000 of them on
# [MIN_IMPACT_RADIUS, 200] a.u. and as many more as the atom's reach needs.
_U0 = math.log(MIN_IMPACT_RADIUS)
_H = (math.log(200.0) - _U0) / 999
# The reach is capped so that alpha_min r and the node count (<= 2,047) stay
# finite for any alpha > 0.  The cap costs nothing: _outer_cutoff exits once an
# atom lies 2^33 = 8.6e9 a.u. from the molecule's centre in the b-plane, so no
# run that proceeds asks for the kick farther than about 2.1e10 a.u. from an atom.
_MAX_REACH = 1e11


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

    ``z`` is ln(S1 / r) as a quintic Hermite in t = (u - _U0) / _H with exact
    z', z'' at the nodes _U0 + i _H.
    """

    r_hi: float
    z: _HermiteSteps = field(repr=False)

    def __call__(self, r2: np.ndarray) -> np.ndarray:
        """The profile at squared radii r2, clamped below MIN_IMPACT_RADIUS and 0
        past r_hi; in place."""
        beyond = r2 > self.r_hi**2
        t = np.maximum(r2, MIN_IMPACT_RADIUS**2, out=r2)
        np.minimum(t, self.r_hi**2, out=t)
        np.log(t, out=t)                # t = (ln(r2) / 2 - _U0) / _H
        t -= 2.0 * _U0
        t /= 2.0 * _H
        np.exp(self.z(t), out=t)
        np.copyto(t, 0.0, where=beyond)
        return t


@lru_cache(maxsize=32)
def kick_profile(atom: HfsAtom) -> KickProfile:
    """The atom's profile from MIN_IMPACT_RADIUS to r_hi, the first node at or past
    min(600 / alpha_min, 1e11), where K1 is still a normal double; one serves
    every v.  ValueError names Z if S1 <= 0.
    """
    terms = [(a, al) for a, al in zip(atom.A, atom.alpha) if a != 0.0]
    reach = min(600.0 / min(al for _, al in terms), _MAX_REACH)
    r = np.exp(_U0 + _H * np.arange(math.ceil((math.log(reach) - _U0) / _H) + 1))
    # S0 = sum alpha^2 A K0 and S2 = sum alpha^3 A K1 give the derivatives.
    s1, s0, s2 = np.zeros((3, len(r)))
    for a, al in terms:
        k0, k1 = _k0_k1(al * r, "bessel_k1")
        s1 += al * a * k1
        s2 += al * al * al * a * k1
        s0 += al * al * a * k0
    if not np.all(s1 > 0.0):
        raise ValueError(f"the screened kick of Z={atom.Z:g} is not positive at r = "
                         f"{r[np.argmin(s1 > 0.0)]:.3g} a.u.; the fit is unphysical")
    # With p = -r S0 / S1: dz/du = p - 2, d2z/du2 = p + r (r S2 - S0) / S1 - p^2;
    # times h and h^2 they are the t-derivatives.
    p = -r * s0 / s1
    z = np.log(s1 / r)
    z1 = _H * (p - 2.0)
    z2 = _H * _H * (p + r * (r * s2 - s0) / s1 - p * p)
    return KickProfile(r_hi=float(r[-1]), z=_HermiteSteps.fit(z, z1, z2))


def total_kick_magnitude(projections, atoms, v: float, points: np.ndarray) -> np.ndarray:
    """|Q(b)| = |sum_m q_m(b - s_m)| for an (N, 2) array of b points.

    Each |q_m| / r is the atom's kick profile times 2 Z_m / v, 0 past the
    profile's r_hi.  ValueError if a point is nan or inf.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError("b-plane points must be finite")
    projections = np.asarray(projections, dtype=float)
    # One row per atom: dx, dy and r^2, then |q_m| / r in place.
    dx = points[:, 0] - projections[:, 0, None]
    dy = points[:, 1] - projections[:, 1, None]
    w = dx * dx
    w += dy * dy
    rows_of: dict = {}
    for row, atom in enumerate(atoms):
        rows_of.setdefault(atom, []).append(row)
    for atom, same in rows_of.items():
        if len(same) == len(w):
            kick_profile(atom)(w)
        else:
            w[same] = kick_profile(atom)(w[same])
    w *= np.array([[2.0 * atom.Z / v] for atom in atoms])
    dx *= w
    dy *= w
    qx, qy = np.zeros((2, len(points)))
    for row_x, row_y in zip(dx, dy):
        qx += row_x
        qy += row_y
    return np.hypot(qx, qy)
