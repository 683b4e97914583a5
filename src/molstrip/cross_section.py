"""Electron-loss cross sections of an oriented molecule.

At each impact parameter b the projectile electrons all receive the same
total kick Q(b), so with the per-electron ionization probability
p = W_ion(|Q|/Z_eff) the loss channels are binomial,

    P_m(b) = C(N_P, m) p^m (1 - p)^(N_P - m),

and sigma^{m+}(theta, phi) = integral P_m(b) d^2b.  Every kick scales as
1/v, so F(b) = v |Q(b)| depends on the target and the orientation only:
systems that share geometry, projectile and W_ion table and differ in
energy are integrated together, one b-plane mesh per orientation with a
column per (energy, channel), F evaluated once per point and
p_E = W_ion(F / (v_E Z_eff)).  The mesh is refined until every column meets
the relative tolerance, so each energy's sigma does.  The azimuthal average
is taken by symmetry (the full b-plane integral is invariant under rotations
about the beam): scans evaluate phi = 0 only, and phi_invariance_check, run
by ``molstrip validate``, tests the symmetry numerically with two full-plane
integrals that carry every energy.  delta(theta) compares each orientation
against the perpendicular one, and the chaotic average integrates sigma(theta)
with the isotropic weight over [0, pi/2], using the theta -> pi - theta
symmetry, by Gauss-Legendre in u = sqrt(1 - cos(theta)), whose nodes crowd
towards theta = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .atomic_data import MoleculeGeometry, transverse_positions
from .form_factor import IonizationTable, ProjectileSpec
from .kinematics import CollisionParams, RegimeCheck
from .quadrature import QuadratureError, integrate_b_plane
from .transfer import MIN_IMPACT_RADIUS, total_kick_magnitude

__all__ = [
    "AU_TO_CM2",
    "CrossSectionResult",
    "OrientationScan",
    "CollisionSystem",
    "DegenerateSystemError",
    "check_theta_grid",
    "cross_section_fixed",
    "delta_scan",
    "orientation_average",
    "phi_invariance_check",
]

AU_TO_CM2 = 2.8002852e-17      # a_0^2 in cm^2

# Outer cutoff: drop the domain where p falls below this fraction of its peak.
CUTOFF_FRACTION = 1e-8

# The 20-node Gauss-Legendre rule on [-1, 1] of the chaotic-orientation average (in
# u, cos(theta) = 1 - u^2), equal bit for bit to numpy.polynomial.legendre.leggauss(20)
# without importing it.
_GL_X = np.array([-0.993128599185095, -0.9639719272779138, -0.912234428251326,
                  -0.8391169718222188, -0.7463319064601508, -0.636053680726515,
                  -0.5108670019508271, -0.37370608871541955, -0.22778585114164507,
                  -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
                  0.37370608871541955, 0.5108670019508271, 0.636053680726515,
                  0.7463319064601508, 0.8391169718222188, 0.912234428251326,
                  0.9639719272779138, 0.993128599185095])
_GL_W = np.array([0.017614007139150893, 0.040601429800386446, 0.06267204833410879,
                  0.08327674157670471, 0.1019301198172407, 0.1181945319615186,
                  0.1316886384491769, 0.1420961093183824, 0.14917298647260424,
                  0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
                  0.1420961093183824, 0.1316886384491769, 0.1181945319615186,
                  0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
                  0.040601429800386446, 0.017614007139150893])

# Offsets past the outermost atom at which _outer_cutoff probes p.
_PROBE_OFFSETS = np.concatenate([np.geomspace(1e-4, 1.0, 40), np.linspace(1.1, 150.0, 600)])


@dataclass(frozen=True)
class CrossSectionResult:
    """One loss channel: multiplicity m, cross section, quadrature error."""

    m: int
    sigma_au: float
    quad_error: float


@dataclass(frozen=True)
class OrientationScan:
    """sigma and delta versus orientation angle, channels m = 1..N_P."""

    theta_grid: np.ndarray
    sigma_au: np.ndarray          # (n_theta, N_P)
    quad_error: np.ndarray        # (n_theta, N_P)
    delta: np.ndarray             # (n_theta, N_P)
    sigma_perp: np.ndarray        # (N_P,)
    perp_error: np.ndarray        # (N_P,)


@dataclass(frozen=True)
class CollisionSystem:
    """A projectile-molecule-energy combination plus the W_ion table."""

    geometry: MoleculeGeometry
    projectile: ProjectileSpec
    params: CollisionParams
    table: IonizationTable


class DegenerateSystemError(ValueError):
    """A channel's sigma at theta = pi/2 is zero, so a ratio to it is undefined."""


def _as_systems(systems) -> tuple[CollisionSystem, ...]:
    """``systems`` as a nonempty tuple; ValueError unless they share geometry,
    projectile and table, so that one b-plane mesh serves them all.
    """
    systems = tuple(systems)
    if not systems:
        raise ValueError("at least one collision system is required")
    first = systems[0]
    for other in systems[1:]:
        if ((other.geometry, other.projectile) != (first.geometry, first.projectile)
                or other.table is not first.table):
            raise ValueError("collision systems must share geometry, projectile and table")
    return systems


def _binomial_channels(p: np.ndarray, n: int) -> np.ndarray:
    """P_m for m = 1..n along a new last axis."""
    q = 1.0 - p
    out = np.empty(p.shape + (n,))
    for m in range(1, n + 1):
        np.multiply(math.comb(n, m) * p**m, q ** (n - m), out=out[..., m - 1])
    return out


def _loss_probability(projections, atoms, proj, v, table):
    """p(b) = W_ion(|Q(b)| / Z_eff), the per-electron loss probability at b-plane points.

    ``v`` is one velocity, giving p of shape (n,), or a sequence, giving
    (n, len(v)).  The kick is evaluated once per point, at v = 1, and scaled.
    """
    scale = np.asarray(v, dtype=float) * proj.Z_eff

    def p(points):
        return table(np.divide.outer(total_kick_magnitude(projections, atoms, 1.0, points), scale))

    return p


def _outer_cutoff(projections, p_fn) -> tuple[float, float]:
    """(b_max, outer): the radius beyond which p is below CUTOFF_FRACTION of its
    peak for every column of p (the largest of the columns' radii), and the
    outermost atom's distance from the molecule's centre, along whose ray p is probed.

    Raises QuadratureError when p is still above that fraction at the last
    sample, 150 a.u. past the outermost atom, or when the b-plane coordinates
    there do not resolve MIN_IMPACT_RADIUS, where the kick is clamped.
    """
    radii = np.hypot(projections[:, 0], projections[:, 1])
    i = int(np.argmax(radii))
    outer = float(radii[i])
    if np.spacing(outer + 150.0) > MIN_IMPACT_RADIUS:
        raise QuadratureError(f"b-plane coordinates {outer:g} a.u. from the molecule's centre "
                              f"do not resolve {MIN_IMPACT_RADIUS:g} a.u.")
    u = projections[i] / outer if outer > 0 else np.array([1.0, 0.0])

    t = _PROBE_OFFSETS
    pts = u[None, :] * (outer + t)[:, None]
    p = p_fn(pts).reshape(len(t), -1)
    peak = p.max(axis=0)
    floor = CUTOFF_FRACTION * peak
    if np.any(p[-1] > floor):
        still = np.max(p[-1] / np.maximum(peak, sys.float_info.min))
        raise QuadratureError(
            f"outer cutoff not reached: at r = {outer + t[-1]:g} a.u. the integrand is "
            f"still {still:.3g} of its peak (cutoff {CUTOFF_FRACTION:g})")
    # A column whose p vanishes everywhere has no entry above its floor of 0.
    above = np.nonzero(np.any(p > floor, axis=1))[0]
    return outer + (float(t[above[-1]]) if len(above) else 0.0) + 1.0, outer


def cross_section_fixed(
    systems,
    theta: float,
    phi: float = 0.0,
    rel_tol: float = 1e-3,
    use_symmetry: bool = True,
):
    """sigma^{m+}(theta, phi) for every channel m = 1..N_P.

    ``systems`` is one CollisionSystem, for which the channel list is
    returned, or a sequence of systems that share geometry, projectile and
    table, for which one channel list per system is returned.  Either way one
    b-plane integral carries every (system, channel) column: the cutoff is
    the largest over the systems, and every column meets ``rel_tol``.
    """
    single = isinstance(systems, CollisionSystem)
    systems = _as_systems([systems] if single else systems)
    geom, proj = systems[0].geometry, systems[0].projectile
    projections = transverse_positions(geom, theta, phi)
    # Two equal atoms sit at +-d about the centre; with the bond on the x axis
    # the integrand is mirror-symmetric in both axes.
    quadrant = use_symmetry and len(geom.atoms) == 2 and geom.atoms[0] == geom.atoms[1]
    if quadrant:
        d = float(np.hypot(*projections[0]))
        projections = np.array([[d, 0.0], [-d, 0.0]])
    p_fn = _loss_probability(projections, geom.atoms, proj,
                             [s.params.velocity_au for s in systems], systems[0].table)
    b_max, outer = _outer_cutoff(projections, p_fn)
    # The integrand reaches b_max - outer past an atom.  An atom farther out lies in
    # an initial cell too wide for any node to see it, so edges at +- reach frame it.
    seeds, reach = projections, b_max - outer
    if b_max > 2.0 * reach:
        seeds = np.concatenate([seeds, seeds - reach, seeds + reach])
    values, errors = integrate_b_plane(
        lambda points: _binomial_channels(p_fn(points), proj.N_P).reshape(len(points), -1),
        half_width=b_max,
        rel_tol=rel_tol,
        quadrant=quadrant,
        x_splits=seeds[:, 0],
        y_splits=seeds[:, 1],
    )
    shape = (len(systems), proj.N_P)
    per_system = [[CrossSectionResult(m=m, sigma_au=float(sigma), quad_error=float(err))
                   for m, (sigma, err) in enumerate(zip(sigmas, errs), start=1)]
                  for sigmas, errs in zip(values.reshape(shape), errors.reshape(shape))]
    return per_system[0] if single else per_system


def _check_perp(systems, perp) -> None:
    """Raise DegenerateSystemError, naming energy and channel, for a sigma at pi/2 <= 0."""
    for system, channels in zip(systems, perp):
        for r in channels:
            if not r.sigma_au > 0:
                raise DegenerateSystemError(
                    f"degenerate system: sigma^{r.m}+ at theta = pi/2 vanishes at "
                    f"{system.params.energy_mev_u:.9g} MeV/u, so no ratio to it is defined")


def phi_invariance_check(systems, rel_tol: float):
    """Check numerically that sigma at theta = pi/2 does not depend on the azimuth phi.

    The scans evaluate phi = 0 only and take it as the azimuthal average.  This
    integrates two azimuths over the full b-plane, without the symmetric fast
    path, each in one cross_section_fixed call for all of ``systems``, which
    share geometry, projectile and table.  It returns one RegimeCheck per
    system, whose value is the largest channel gap over its allowance
    3 (err_a + err_b) + 1e-12 |sigma| and must not exceed 1.  A vanishing
    sigma, which would pass vacuously, raises DegenerateSystemError naming
    its energy.
    """
    systems = _as_systems(systems)
    theta, tol = math.pi / 2, max(rel_tol, 1e-3)
    a = cross_section_fixed(systems, theta, 0.7, rel_tol=tol, use_symmetry=False)
    _check_perp(systems, a)
    b = cross_section_fixed(systems, theta, 2.3, rel_tol=tol, use_symmetry=False)
    checks = []
    for channels_a, channels_b in zip(a, b):
        ratio = 0.0
        for ra, rb in zip(channels_a, channels_b):
            allowance = 3.0 * (ra.quad_error + rb.quad_error) + 1e-12 * abs(ra.sigma_au)
            ratio = max(ratio, abs(ra.sigma_au - rb.sigma_au) / max(allowance, sys.float_info.min))
        passed = ratio <= 1.0
        checks.append(RegimeCheck(
            "azimuth", "azimuthal invariance (max gap/allowance)", ratio, "<= 1", passed,
            "" if passed else f"sigma at phi = 0.7 and 2.3 (theta = {theta:.6g}) differ by "
            f"{ratio:.3g} times the allowance: the phi = 0 shortcut does not hold"))
    return checks


def check_theta_grid(theta_grid) -> np.ndarray:
    """``theta_grid`` as a float array; ValueError unless it is nonempty and
    lies within [0, pi/2], allowing 1e-12 of rounding past pi/2."""
    theta_grid = np.asarray(theta_grid, dtype=float)
    if not (theta_grid.size and np.all((theta_grid >= 0) & (theta_grid <= math.pi / 2 + 1e-12))):
        raise ValueError("theta grid must be nonempty and lie within [0, pi/2]")
    return theta_grid


def delta_scan(systems, theta_grid, rel_tol: float = 1e-3):
    """sigma(theta) and delta(theta) over a grid in [0, pi/2].

    ``systems`` is a sequence sharing geometry, projectile and table; it
    returns one OrientationScan per system from one cross_section_fixed call
    per angle.  delta is measured against sigma at theta = pi/2, computed
    once.  Raises DegenerateSystemError, naming the energy and the channel,
    when a channel's sigma at pi/2 is not positive.
    """
    systems = _as_systems(systems)
    theta_grid = check_theta_grid(theta_grid)
    perp = cross_section_fixed(systems, math.pi / 2, rel_tol=rel_tol)
    _check_perp(systems, perp)

    # Row 0 is sigma at pi/2; a grid point at pi/2 reuses it.
    results = [perp] + [perp if np.isclose(th, math.pi / 2)
                        else cross_section_fixed(systems, float(th), rel_tol=rel_tol)
                        for th in theta_grid]
    # (system, 1 + n_theta, channel)
    sigma = np.array([[[r.sigma_au for r in ch] for ch in res] for res in results]).swapaxes(0, 1)
    err = np.array([[[r.quad_error for r in ch] for ch in res] for res in results]).swapaxes(0, 1)
    return [OrientationScan(theta_grid=theta_grid, sigma_au=s[1:], quad_error=e[1:],
                            delta=s[1:] / s[0] - 1.0, sigma_perp=s[0], perp_error=e[0])
            for s, e in zip(sigma, err)]


def orientation_average(systems, rel_tol: float = 1e-3):
    """Chaotic-orientation average: integral of sigma(theta) (1/2) sin(theta).

    Folding theta -> pi - theta and substituting cos(theta) = 1 - u^2 turn this
    into the integral of 2 u sigma over u in [0, 1], done by 20-point
    Gauss-Legendre through delta_scan.  Returns one (channel list, scan) pair
    per system, the scan (with sigma at pi/2) being the one the average was
    taken over.  In u the nodes reach sigma's sharp feature near theta = 0,
    which no node of the same rule in cos(theta) sampled: for Fe24+ at
    10 MeV/u alone, m = 2, tol 1e-3, the relative correction is 0.000940
    against 0.000933 with 40 nodes (0.000525 in cos(theta)); on one mesh with
    100 and 1000 MeV/u, 0.000943 against 0.000934 (0.000526).
    The reported error is the isotropic-weight sum of the per-node b-plane
    quadrature errors only; no estimate of the Gauss-Legendre truncation is
    made yet.
    """
    x, w = _GL_X, _GL_W
    u = 0.5 * (x + 1.0)         # on [0, 1]; the weights become (w / 2) dc/du = w u
    scans = delta_scan(systems, 2.0 * np.arcsin(u / math.sqrt(2.0)), rel_tol=rel_tol)
    averages = []
    for scan in scans:
        avg, avg_err = (w * u) @ scan.sigma_au, (w * u) @ scan.quad_error
        averages.append(([CrossSectionResult(m=m, sigma_au=float(sigma), quad_error=float(err))
                          for m, (sigma, err) in enumerate(zip(avg, avg_err), start=1)], scan))
    return averages
