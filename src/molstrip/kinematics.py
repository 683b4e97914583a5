"""Relativistic beam kinematics and validity-regime diagnostics.

Energies are given per nucleon (MeV/u) and converted to the projectile speed
in atomic units.  The regime checks are heuristics: they warn, never fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atomic_data import MoleculeGeometry

__all__ = ["CollisionParams", "RegimeCheck", "velocity_from_energy", "validate_regime"]

C_AU = 137.035999            # speed of light, atomic units
AMU_MEV = 931.494            # m_u c^2 in MeV
AMU_ME = AMU_MEV / 0.51099895  # nucleon mass in electron masses

# Heuristic thresholds for the diagnostics (see validate_regime).
SUDDEN_RATIO_MAX = 0.1
MIN_NET_CHARGE = 5
MIN_KL = 100.0
TAU_E_TARGET = 1.0   # outer-shell orbital period, a.u.
ATOM_SIZE_AU = 1.0   # characteristic neutral-atom size, a.u.


@dataclass(frozen=True)
class CollisionParams:
    """Beam kinematics derived from the kinetic energy per nucleon."""

    energy_mev_u: float
    gamma: float
    beta: float
    velocity_au: float


@dataclass(frozen=True)
class RegimeCheck:
    """One regime diagnostic: the quantity, what it must satisfy, and the verdict."""

    name: str
    label: str
    value: float
    requirement: str
    passed: bool
    message: str    # why the approximation is in doubt; empty when passed


def velocity_from_energy(energy_mev_u: float) -> CollisionParams:
    """Relativistic conversion MeV/u -> speed in a.u."""
    if not (energy_mev_u > 0) or math.isinf(energy_mev_u):
        raise ValueError(f"energy must be positive and finite, got {energy_mev_u}")
    gamma = 1.0 + energy_mev_u / AMU_MEV
    beta = math.sqrt(1.0 - 1.0 / (gamma * gamma))
    return CollisionParams(
        energy_mev_u=energy_mev_u,
        gamma=gamma,
        beta=beta,
        velocity_au=beta * C_AU,
    )


def validate_regime(params: CollisionParams, proj, geom: MoleculeGeometry) -> list[RegimeCheck]:
    """Check the sudden, high-charge, and eikonal heuristics, in that order.

    Sudden condition: the per-atom collision time (atom size over gamma*v)
    must be short against the projectile-electron period (~1 a.u. for the
    outer-shell estimate).  The molecular extent enters only the eikonal
    check k*L, where k is the projectile momentum per nucleon.
    """
    tau_c = ATOM_SIZE_AU / (params.gamma * params.velocity_au)
    net_charge = proj.net_charge
    kl = params.gamma * AMU_ME * params.velocity_au * max(geom.extent, ATOM_SIZE_AU)
    sudden = tau_c < SUDDEN_RATIO_MAX * TAU_E_TARGET
    charge = net_charge >= MIN_NET_CHARGE
    eikonal = kl >= MIN_KL
    return [
        RegimeCheck(
            "sudden", "sudden collision (tau_c/tau_e)", tau_c / TAU_E_TARGET,
            f"< {SUDDEN_RATIO_MAX:g}", sudden,
            "" if sudden else (
                f"sudden-approximation ratio tau_c/tau_e = {tau_c:.3g} >= "
                f"{SUDDEN_RATIO_MAX:g}: collision may not be sudden"
            ),
        ),
        RegimeCheck(
            "charge", "projectile net charge", float(net_charge),
            f">= {MIN_NET_CHARGE:g}", charge,
            "" if charge else (
                f"projectile net charge {net_charge:g} < {MIN_NET_CHARGE:g}: "
                "high-charge expansion may be inaccurate"
            ),
        ),
        RegimeCheck(
            "eikonal", "eikonal product k*L", kl, f">= {MIN_KL:g}", eikonal,
            "" if eikonal else (
                f"eikonal product k*L = {kl:.3g} < {MIN_KL:g}: straight-line "
                "approximation questionable"
            ),
        ),
    ]
