"""Acceptance gate: one test per acceptance criterion, one printed line each.

Each test prints ``ACCEPTANCE <n> (<name>): PASS|FAIL`` so the gate's outcome
is visible in any log, then asserts.
"""

import json
import math

import numpy as np
import pytest

from molstrip.atomic_data import HfsAtom, charge_density
from molstrip.cli import main as cli_main
from molstrip.cross_section import (
    _binomial_channels,
    _loss_probability,
    cross_section_fixed,
    delta_scan,
    orientation_average,
)
from molstrip.form_factor import ionization_probability
from molstrip.special_functions import bessel_k0, bessel_k1
from molstrip.transfer import eikonal_phase_single, total_kick_magnitude
from molstrip.verification import (
    bessel_reference,
    continuum_ionization_oracle,
    mc_cross_section,
)

ENERGIES = (10.0, 100.0, 1000.0)


def _report(capsys, number, name, failures):
    ok = not failures
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {failures}"


def test_criterion_1_multiplicity_effect_band(make_system, capsys):
    failures = []
    grid = np.linspace(0.0, math.pi / 2, 13)
    for energy in ENERGIES:
        scan = delta_scan([make_system(1, energy)], grid, rel_tol=1e-3)[0]
        delta = scan.delta[:, 0]
        if not 0.3 <= delta[0] <= 1.2:
            failures.append(f"E={energy}: delta(0)={delta[0]:.3f} outside [0.3, 1.2]")
        if np.any(delta < -0.01):
            failures.append(f"E={energy}: delta dips to {delta.min():.4f}")
        if np.any(np.diff(delta) > 0.01):
            failures.append(f"E={energy}: delta not non-increasing")
        tail = np.abs(delta[grid >= 0.6])
        if np.any(tail >= 0.05):
            failures.append(f"E={energy}: |delta|={tail.max():.3f} >= 0.05 at theta >= 0.6")
    _report(capsys, 1, "multiplicity-effect band", failures)


def test_criterion_2_channel_ordering(make_system, capsys):
    failures = []
    grid = [0.0, math.pi / 2]
    for n_electrons in (2, 3):
        for energy in ENERGIES:
            scan = delta_scan([make_system(n_electrons, energy)], grid, rel_tol=1e-3)[0]
            delta0 = scan.delta[0]
            if not np.all(np.diff(delta0) > 0):
                failures.append(
                    f"N_P={n_electrons}, E={energy}: delta(0)={np.round(delta0, 3)} "
                    "not increasing with channel"
                )
    _report(capsys, 2, "channel ordering", failures)


def test_criterion_3_chaotic_average(make_system, capsys):
    failures = []
    for energy in ENERGIES:
        system = make_system(1, energy)
        avg, scan = orientation_average([system], rel_tol=1e-4)[0]
        perp = scan.sigma_perp[0]
        rel = abs(avg[0].sigma_au - perp) / perp
        if rel >= 0.005:
            failures.append(f"E={energy}: |avg - perp|/perp = {rel:.4f} >= 0.005")
    _report(capsys, 3, "chaotic-orientation average", failures)


def test_criterion_4_oracle_equivalence(make_system, capsys):
    failures = []
    systems = [make_system(1, 10.0), make_system(2, 100.0), make_system(3, 10.0)]
    for system in systems:
        for theta in (0.0, 1.0):
            quad = cross_section_fixed(system, theta, rel_tol=1e-3)
            mc = mc_cross_section(system, theta, n_samples=10**6, seed=17)
            for q, m in zip(quad, mc):
                gap = abs(q.sigma_au - m.value)
                allowed = 3.0 * (q.quad_error + m.std_error)
                if gap > allowed:
                    failures.append(
                        f"N_P={system.projectile.N_P}, theta={theta}, m={q.m}: "
                        f"|quad - MC| = {gap:.3g} > {allowed:.3g}"
                    )
    for s in (0.1, 0.3, 1.0, 3.0, 10.0):
        gap = abs(continuum_ionization_oracle(s) - ionization_probability(s))
        if gap > 1e-3:
            failures.append(f"s={s}: W_ion routes differ by {gap:.2e} > 1e-3")
    _report(capsys, 4, "oracle equivalence", failures)


def test_criterion_5_structural_invariants(nitrogen, make_system, ionization_table,
                                           capsys):
    failures = []

    # Screening amplitudes must sum to one.
    try:
        HfsAtom(Z=7, A=(0.5, 0.3, 0.1), alpha=(1.0, 2.0, 3.0))
        failures.append("invalid amplitude sum accepted")
    except ValueError:
        pass

    # Charge density integrates to -Z.
    from scipy.integrate import quad as scipy_quad
    total, _ = scipy_quad(
        lambda r: 4.0 * math.pi * r * r * charge_density(nitrogen, r), 0.0, np.inf,
        limit=200,
    )
    if abs(total + nitrogen.Z) > 1e-8 * nitrogen.Z:
        failures.append(f"density integral {total:.10f} != -Z")

    # K0/K1 against the independent reference.
    for x in (1e-6, 0.01, 1.0, 100.0, 650.0):
        if abs(bessel_k0(x) / bessel_reference(x, 0) - 1.0) > 1e-12:
            failures.append(f"K0({x}) off reference")
        if abs(bessel_k1(x) / bessel_reference(x, 1) - 1.0) > 1e-12:
            failures.append(f"K1({x}) off reference")

    # Kick equals minus the phase gradient.
    rng = np.random.default_rng(23)
    for _ in range(20):
        r = rng.uniform(0.05, 10.0)
        h = 1e-5 * r
        grad = (
            eikonal_phase_single(nitrogen, 10.0, r + h)
            - eikonal_phase_single(nitrogen, 10.0, r - h)
        ) / (2 * h)
        kick = total_kick_magnitude([(0.0, 0.0)], [nitrogen], 10.0, np.array([[r, 0.0]]))[0]
        if abs(-grad / kick - 1.0) > 1e-5:
            failures.append(f"gradient relation fails at b={r:.3f}")

    # Azimuthal invariance and the transverse-separation law.
    system = make_system(1, 10.0)
    a = cross_section_fixed(system, 0.7, 0.7, rel_tol=1e-3, use_symmetry=False)[0]
    b = cross_section_fixed(system, 0.7, 2.3, rel_tol=1e-3, use_symmetry=False)[0]
    if abs(a.sigma_au - b.sigma_au) > 3.0 * (a.quad_error + b.quad_error):
        failures.append("azimuthal invariance violated")
    from molstrip.atomic_data import MoleculeGeometry
    from molstrip.cross_section import CollisionSystem
    theta = 0.5
    tilted = cross_section_fixed(system, theta, rel_tol=1e-3)[0]
    shrunk = CollisionSystem(
        MoleculeGeometry.diatomic(nitrogen, nitrogen, 2.07 * math.sin(theta)),
        system.projectile, system.params, ionization_table,
    )
    flat = cross_section_fixed(shrunk, math.pi / 2, rel_tol=1e-3)[0]
    if abs(tilted.sigma_au - flat.sigma_au) > 3.0 * (tilted.quad_error + flat.quad_error):
        failures.append("transverse-separation law violated")

    # Binomial channel normalization.
    from molstrip.form_factor import ProjectileSpec
    p = _loss_probability([(1.0, 0.0), (-1.0, 0.0)], system.geometry.atoms,
                          ProjectileSpec(26.0, 3), system.params.velocity_au, ionization_table)(
        np.array([[0.9, 0.4]]))
    cols = _binomial_channels(p, 3)[0]     # P_1..P_3
    if abs(cols.sum() + (1.0 - p[0]) ** 3 - 1.0) > 1e-12:
        failures.append("binomial channels not normalized")

    # Expected-loss sum rule; integral p d^2b is sigma^{1+} of one electron
    # with the same Z_eff, for which P_1 = p.
    tri = make_system(3, 10.0)
    results = cross_section_fixed(tri, 0.4, rel_tol=1e-3)
    single = CollisionSystem(tri.geometry, ProjectileSpec(26.0, 1, z_eff=tri.projectile.Z_eff),
                             tri.params, tri.table)
    loss = cross_section_fixed(single, 0.4, rel_tol=1e-3)[0]
    weighted = sum(r.m * r.sigma_au for r in results)
    weighted_err = sum(r.m * r.quad_error for r in results)
    if abs(weighted - 3.0 * loss.sigma_au) > 3.0 * (weighted_err + 3.0 * loss.quad_error) + 1e-12:
        failures.append("expected-loss sum rule violated")

    # W_ion range, zero point, small-s sum-rule bound, scaling law.
    samples = ionization_table(np.linspace(0.0, 25.0, 200))
    if ionization_table(0.0) != 0.0 or np.any(samples < 0) or np.any(samples > 1):
        failures.append("W_ion range invariant violated")
    for s in (0.02, 0.05, 0.1):
        inelastic = ionization_probability(s, n_max=1)     # 1 - F(s)^2
        if abs(inelastic / s**2 - 1.0) > 0.05:
            failures.append(f"small-s sum rule fails at s={s}")
    # p reads the kick only as |Q| / (v Z_eff): Z_eff 7 at v is Z_eff 21 at v / 3.
    def loss(z_eff, v):
        return _loss_probability([(1.0, 0.0), (-1.0, 0.0)], system.geometry.atoms,
                                 ProjectileSpec(26.0, 1, z_eff=z_eff), v, ionization_table)(
            np.array([[0.2, 0.1], [0.9, 0.4], [3.0, -2.0], [40.0, 1.0]]))

    p7, p21 = loss(7.0, system.params.velocity_au), loss(21.0, system.params.velocity_au / 3.0)
    if not np.all(p7 > 0) or not np.allclose(p7, p21, rtol=1e-12, atol=0.0):
        failures.append("scaling law fails")

    _report(capsys, 5, "structural invariants", failures)


def test_criterion_6_determinism(tmp_path, capsys):
    failures = []
    cfg = {
        "projectile": "Fe24+",
        "target": "N2",
        "energies_mev_u": [10.0],
        "theta_grid": {"points": 3},
        "tolerance": 1e-2,
        "table": {"s_max": 20.0, "n_points": 200, "n_max": 10},
        "seed": 42,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name in ("r1.csv", "r2.csv", "r3.csv"):
        out = tmp_path / name
        code = cli_main(["scan-theta", "--config", str(cfg_path), "--out", str(out)])
        if code != 0:
            failures.append(f"exit code {code} for {name}")
        else:
            outputs.append(out.read_bytes())
    if len(set(outputs)) > 1:
        failures.append("outputs differ across reruns")
    _report(capsys, 6, "byte-level determinism", failures)
