"""Orientation-dependent electron-loss cross sections.

At each impact parameter b the projectile electrons all receive the same
total kick Q(b), so with the per-electron ionization probability
p = W_ion(|Q|/Z_eff) the loss channels are binomial,

    P_m(b) = C(N_P, m) p^m (1 - p)^(N_P - m),

and sigma^{m+}(theta, phi) = integral P_m(b) d^2b.  The azimuthal average is
taken by symmetry (the full b-plane integral is invariant under rotations
about the beam): scans evaluate phi = 0 only, and phi_invariance_check, run
by ``molstrip validate``, tests the symmetry numerically.  delta(theta)
compares each orientation against the perpendicular one, and the chaotic
average integrates sigma(theta) with the isotropic weight, i.e. by
Gauss-Legendre in cos(theta) over [0, 1] using the theta -> pi - theta
symmetry.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .atomic_data import MoleculeGeometry, Orientation, transverse_positions
from .form_factor import IonizationTable, ProjectileSpec
from .kinematics import CollisionParams, RegimeCheck
from .quadrature import QuadratureError, integrate_b_plane
from .transfer import total_kick_magnitude

__all__ = [
    "AU_TO_CM2",
    "CrossSectionResult",
    "OrientationScan",
    "CollisionSystem",
    "cross_section_fixed",
    "delta_scan",
    "orientation_average",
    "phi_invariance_check",
]

AU_TO_CM2 = 2.8002852e-17      # a_0^2 in cm^2

# Outer cutoff: drop the domain where p falls below this fraction of its peak.
CUTOFF_FRACTION = 1e-8

# Gauss-Legendre nodes in cos(theta) for the chaotic-orientation average.
AVERAGE_NODES = 20


@dataclass(frozen=True)
class CrossSectionResult:
    """One loss channel: multiplicity m, cross section, quadrature error."""

    m: int
    sigma_au: float
    quad_error: float

    @property
    def sigma_cm2(self) -> float:
        return self.sigma_au * AU_TO_CM2


@dataclass(frozen=True)
class OrientationScan:
    """sigma and delta versus orientation angle, channels m = 1..N_P."""

    theta_grid: np.ndarray
    sigma_au: np.ndarray          # (n_theta, N_P)
    quad_error: np.ndarray        # (n_theta, N_P)
    delta: np.ndarray             # (n_theta, N_P)
    sigma_perp: np.ndarray        # (N_P,)


@dataclass(frozen=True)
class CollisionSystem:
    """A projectile-molecule-energy combination plus the W_ion table."""

    geometry: MoleculeGeometry
    projectile: ProjectileSpec
    params: CollisionParams
    table: IonizationTable

    @property
    def velocity(self) -> float:
        return self.params.velocity_au


def _binomial_channels(p: np.ndarray, n: int) -> np.ndarray:
    """Columns P_m for m = 1..n plus the per-electron p as the last column."""
    cols = [math.comb(n, m) * p**m * (1.0 - p) ** (n - m) for m in range(1, n + 1)]
    cols.append(p)
    return np.stack(cols, axis=1)


def _channel_field(projections, atoms, proj, v, table):
    z_eff = proj.Z_eff
    n = proj.N_P

    def integrand(points):
        q = total_kick_magnitude(projections, atoms, v, points)
        p = table(q / z_eff)
        return _binomial_channels(p, n)

    return integrand


def _outer_cutoff(projections, field_fn) -> float:
    """Radius beyond which the integrand is below CUTOFF_FRACTION of its peak.

    Raises QuadratureError when the integrand is still above that fraction at
    the last sample, 150 a.u. past the outermost atom.
    """
    projections = np.asarray(projections, dtype=float)
    outer = float(np.max(np.hypot(projections[:, 0], projections[:, 1])))
    direction = projections[np.argmax(np.hypot(projections[:, 0], projections[:, 1]))]
    norm = np.hypot(*direction)
    u = direction / norm if norm > 0 else np.array([1.0, 0.0])

    t = np.concatenate([np.geomspace(1e-4, 1.0, 40), np.linspace(1.1, 150.0, 600)])
    pts = u[None, :] * (outer + t)[:, None]
    p = field_fn(pts)[:, -1]      # the per-electron loss probability
    peak = float(p.max())
    if peak <= 0.0:
        return outer + 1.0
    if p[-1] > CUTOFF_FRACTION * peak:
        raise QuadratureError(
            f"outer cutoff not reached: at r = {outer + t[-1]:g} a.u. the integrand is "
            f"still {p[-1] / peak:.3g} of its peak (cutoff {CUTOFF_FRACTION:g})",
            values=None, errors=None, n_cells=0,
        )
    above = np.nonzero(p > CUTOFF_FRACTION * peak)[0]
    t_cut = t[above[-1]] if len(above) else 1.0
    return outer + float(t_cut) + 1.0


def _canonical_frame(geometry: MoleculeGeometry, projections: np.ndarray):
    """For a homonuclear diatomic, rotate projections onto the x axis.

    Returns (projections, quadrant), quadrant being whether the integrand is
    mirror-symmetric in both axes.
    """
    if not geometry.is_homonuclear_diatomic:
        return projections, False
    d = float(np.hypot(*projections[0]))
    if d == 0.0:
        return np.zeros_like(projections), True
    return np.array([[d, 0.0], [-d, 0.0]]), True


def cross_section_fixed(
    system: CollisionSystem,
    theta: float,
    phi: float = 0.0,
    rel_tol: float = 1e-3,
    use_symmetry: bool = True,
) -> list[CrossSectionResult]:
    """sigma^{m+}(theta, phi) for every channel m = 1..N_P.

    The integrand also carries the per-electron p as a last column, so the
    refinement resolves integral p(b) d^2b too; only the channels are returned.
    """
    geom, proj = system.geometry, system.projectile
    projections = transverse_positions(geom, Orientation(theta, phi))
    quadrant = False
    if use_symmetry:
        projections, quadrant = _canonical_frame(geom, projections)
    field_fn = _channel_field(projections, geom.atoms, proj, system.velocity, system.table)
    b_max = _outer_cutoff(projections, field_fn)
    values, errors = integrate_b_plane(
        field_fn,
        half_width=b_max,
        rel_tol=rel_tol,
        quadrant=quadrant,
        x_splits=np.asarray(projections)[:, 0],
        y_splits=np.asarray(projections)[:, 1],
    )
    return [
        CrossSectionResult(m=m, sigma_au=float(values[m - 1]), quad_error=float(errors[m - 1]))
        for m in range(1, proj.N_P + 1)
    ]


def phi_invariance_check(system: CollisionSystem, theta: float, rel_tol: float) -> RegimeCheck:
    """Check numerically that sigma does not depend on the azimuth phi.

    The scans evaluate phi = 0 only and take it as the azimuthal average.  This
    integrates two azimuths over the full b-plane, without the symmetric fast
    path; the value is the largest channel gap over its allowance
    3 (err_a + err_b) + 1e-12 |sigma|, and it must not exceed 1.
    """
    tol = max(rel_tol, 1e-3)
    a = cross_section_fixed(system, theta, 0.7, rel_tol=tol, use_symmetry=False)
    b = cross_section_fixed(system, theta, 2.3, rel_tol=tol, use_symmetry=False)
    ratio = 0.0
    for ra, rb in zip(a, b):
        allowance = 3.0 * (ra.quad_error + rb.quad_error) + 1e-12 * abs(ra.sigma_au)
        ratio = max(ratio, abs(ra.sigma_au - rb.sigma_au) / max(allowance, sys.float_info.min))
    passed = ratio <= 1.0
    return RegimeCheck(
        "azimuth", "azimuthal invariance (max gap/allowance)", ratio, "<= 1", passed,
        "" if passed else (
            f"sigma at phi = 0.7 and 2.3 (theta = {theta:.6g}) differ by {ratio:.3g} times "
            "the allowance: the phi = 0 shortcut does not hold"
        ),
    )


def delta_scan(
    system: CollisionSystem,
    theta_grid,
    rel_tol: float = 1e-3,
) -> OrientationScan:
    """sigma(theta) and delta(theta) over a grid in [0, pi/2].

    delta is measured against sigma at theta = pi/2, which is computed once;
    a grid point at pi/2 reuses it, so delta(pi/2) is exactly zero.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size == 0:
        raise ValueError("theta grid must be nonempty")
    if np.any(theta_grid < 0) or np.any(theta_grid > math.pi / 2 + 1e-12):
        raise ValueError("theta grid must lie within [0, pi/2]")

    perp = cross_section_fixed(system, math.pi / 2, rel_tol=rel_tol)
    sigma_perp = np.array([r.sigma_au for r in perp])
    if np.any(sigma_perp <= 0):
        raise ValueError("perpendicular cross section vanishes; degenerate system")

    at_perp = np.isclose(theta_grid, math.pi / 2)
    results = [perp if is_perp else cross_section_fixed(system, float(th), rel_tol=rel_tol)
               for th, is_perp in zip(theta_grid, at_perp)]
    sigma = np.array([[r.sigma_au for r in res] for res in results])
    err = np.array([[r.quad_error for r in res] for res in results])
    delta = sigma / sigma_perp[None, :] - 1.0
    delta[at_perp] = 0.0

    return OrientationScan(
        theta_grid=theta_grid,
        sigma_au=sigma,
        quad_error=err,
        delta=delta,
        sigma_perp=sigma_perp,
    )


def orientation_average(system: CollisionSystem, rel_tol: float = 1e-4) -> list[CrossSectionResult]:
    """Chaotic-orientation average: integral of sigma(theta) (1/2) sin(theta).

    Substituting c = cos(theta) and folding theta -> pi - theta reduces this
    to the plain mean of sigma over c in [0, 1], done by AVERAGE_NODES-point
    Gauss-Legendre.
    The reported error is the isotropic-weight sum of the per-node
    quadrature errors (the Gauss-Legendre truncation is spectrally small:
    sigma is analytic in c through its dependence on L^2 (1 - c^2)).
    """
    x, w = np.polynomial.legendre.leggauss(AVERAGE_NODES)
    c = 0.5 * (x + 1.0)
    w = 0.5 * w
    thetas = np.arccos(c)
    results = [cross_section_fixed(system, float(th), rel_tol=rel_tol) for th in thetas]
    sigma = np.array([[r.sigma_au for r in res] for res in results])
    err = np.array([[r.quad_error for r in res] for res in results])
    avg = w @ sigma
    avg_err = w @ err
    return [
        CrossSectionResult(m=m + 1, sigma_au=float(avg[m]), quad_error=float(avg_err[m]))
        for m in range(system.projectile.N_P)
    ]
