"""Screened multi-center momentum-transfer field.

Per target atom, the straight-line collision delivers a transverse kick to
each projectile electron,

    q_m(b) = (2 Z_m / v) sum_i alpha_i A_i K1(alpha_i b) b_hat,

which is minus the gradient of the per-electron eikonal phase

    chi_m(b) = (2 Z_m / v) sum_i A_i K0(alpha_i b).

The total kick at impact parameter b is the vector sum over atoms evaluated
at the per-atom impact parameters b - s_m (s_m = transverse atom positions).
chi is exposed as a diagnostic only; the cross-section path uses the kicks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomic_data import HfsAtom
from .special_functions import bessel_k0, bessel_k1

__all__ = [
    "MomentumTransfer",
    "eikonal_phase_single",
    "momentum_transfer_single",
    "total_momentum_transfer",
    "kick_magnitude",
    "total_kick_magnitude",
]

# Quadrature nodes must stay outside this radius of any atom projection; the
# vectorized field clamps there (W_ion saturates at 1 well before).
MIN_IMPACT_RADIUS = 1e-6


@dataclass(frozen=True)
class MomentumTransfer:
    """Transverse momentum kick (a.u.) in the impact-parameter plane."""

    vector: tuple[float, float]

    @property
    def magnitude(self) -> float:
        return math.hypot(*self.vector)


def _check_positive(value: float, name: str) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def eikonal_phase_single(atom: HfsAtom, v: float, b: float) -> float:
    """Per-electron eikonal phase chi_m(b) of one screened atom (diagnostic)."""
    _check_positive(v, "velocity")
    _check_positive(b, "impact parameter")
    acc = sum(a * k for a, k in zip(atom.A, bessel_k0(np.multiply(atom.alpha, b))))
    return float(2.0 * atom.Z / v * acc)


def momentum_transfer_single(atom: HfsAtom, v: float, b) -> MomentumTransfer:
    """Kick q_m(b) from one atom; directed along b, magnitude ~ K1 sum."""
    _check_positive(v, "velocity")
    bx, by = float(b[0]), float(b[1])
    r = math.hypot(bx, by)
    _check_positive(r, "impact parameter magnitude")
    k1 = bessel_k1(np.multiply(atom.alpha, r))
    mag = 2.0 * atom.Z / v * sum(al * a * k for a, al, k in zip(atom.A, atom.alpha, k1))
    return MomentumTransfer(vector=(mag * bx / r, mag * by / r))


def total_momentum_transfer(projections, atoms, v: float, b) -> MomentumTransfer:
    """Vector sum of per-atom kicks at b_m = b - s_m."""
    qx = qy = 0.0
    b = np.asarray(b, dtype=float)
    for s_m, atom in zip(np.asarray(projections, dtype=float), atoms):
        q = momentum_transfer_single(atom, v, b - s_m)
        qx += q.vector[0]
        qy += q.vector[1]
    return MomentumTransfer(vector=(qx, qy))


def kick_magnitude(atom: HfsAtom, v: float, r: np.ndarray) -> np.ndarray:
    """|q_m| for an array of impact-parameter magnitudes (hot-loop path)."""
    r = np.maximum(np.asarray(r, dtype=float), MIN_IMPACT_RADIUS)
    acc = np.zeros_like(r)
    for a, al in zip(atom.A, atom.alpha):
        if a == 0.0:
            continue      # an unused term adds exactly +0.0; skip its K1 call
        acc += al * a * bessel_k1(al * r)
    return 2.0 * atom.Z / v * acc


def total_kick_magnitude(projections, atoms, v: float, points: np.ndarray) -> np.ndarray:
    """|Q(b)| = |sum_m q_m(b - s_m)| for an (N, 2) array of b points."""
    points = np.asarray(points, dtype=float)
    qx = np.zeros(points.shape[0])
    qy = np.zeros(points.shape[0])
    for s_m, atom in zip(np.asarray(projections, dtype=float), atoms):
        dx = points[:, 0] - s_m[0]
        dy = points[:, 1] - s_m[1]
        r = np.maximum(np.hypot(dx, dy), MIN_IMPACT_RADIUS)
        mag = kick_magnitude(atom, v, r)
        qx += mag * dx / r
        qy += mag * dy / r
    return np.hypot(qx, qy)
