"""Integration engine: channel probabilities, sigma(theta), delta, averages."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molstrip import cross_section
from molstrip.atomic_data import HfsAtom, MoleculeGeometry
from molstrip.cross_section import (
    AU_TO_CM2,
    CollisionSystem,
    _binomial_channels,
    _loss_probability,
    cross_section_fixed,
    delta_scan,
    orientation_average,
)
from molstrip.form_factor import ProjectileSpec
from molstrip.kinematics import velocity_from_energy
from molstrip.quadrature import QuadratureError, integrate_b_plane

N2_BOND_LENGTH = 2.07


class ConstantTable:
    """Stub W_ion table returning a fixed per-electron probability."""

    def __init__(self, value):
        self.value = float(value)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if s.ndim == 0:
            return self.value
        return np.full(s.shape, self.value)


def loss_and_channels(b, atoms, proj, table):
    """p and the quadrature integrand's columns P_1..P_N_P at one impact parameter."""
    p = _loss_probability([(1.0, 0.0), (-1.0, 0.0)], atoms, proj, 20.0, table)(
        np.array([b], dtype=float))
    return p[0], _binomial_channels(p, proj.N_P)[0]


class TestLossProbabilities:
    def test_binomial_example(self, n2_geometry):
        p, cols = loss_and_channels((0.5, 0.5), n2_geometry.atoms, ProjectileSpec(26.0, 2),
                                    ConstantTable(0.5))
        assert p == pytest.approx(0.5)
        assert cols[0] == pytest.approx(0.5)   # P_1 = 2 p (1-p)
        assert cols[1] == pytest.approx(0.25)  # P_2 = p^2

    def test_far_impact_parameter_is_elastic(self, n2_geometry, ionization_table):
        p, cols = loss_and_channels((80.0, 0.0), n2_geometry.atoms, ProjectileSpec(26.0, 2),
                                    ionization_table)
        assert p < 1e-10
        assert 1.0 - cols.sum() == pytest.approx(1.0, abs=1e-9)   # P_0

    def test_single_electron_channel_equals_p(self, n2_geometry, ionization_table):
        p, cols = loss_and_channels((1.5, 0.3), n2_geometry.atoms, ProjectileSpec(26.0, 1),
                                    ionization_table)
        assert cols[0] == pytest.approx(p, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=3))
    def test_channels_normalized(self, n2_geometry, p, n_p):
        _, cols = loss_and_channels((0.7, 0.1), n2_geometry.atoms, ProjectileSpec(26.0, n_p),
                                    ConstantTable(p))
        assert cols.sum() + (1.0 - p) ** n_p == pytest.approx(1.0, abs=1e-12)
        assert np.all((0.0 <= cols) & (cols <= 1.0))

    @pytest.mark.parametrize("n_p", [1, 2, 3])
    def test_integrand_columns_are_the_channels(self, make_system, monkeypatch, n_p):
        # The integrand cross_section_fixed hands to the quadrature has one
        # column per channel m = 1..N_P and nothing else.
        shapes = []

        def spy(integrand, **kwargs):
            shapes.append(np.shape(integrand(np.array([[0.3, 0.2], [5.0, -1.0]]))))
            return integrate_b_plane(integrand, **kwargs)

        monkeypatch.setattr(cross_section, "integrate_b_plane", spy)
        results = cross_section_fixed(make_system(n_p, 100.0), 0.4, rel_tol=1e-2)
        assert shapes == [(2, n_p)]
        assert [r.m for r in results] == list(range(1, n_p + 1))


class TestCrossSectionResult:
    def test_unit_conversion(self):
        assert AU_TO_CM2 == pytest.approx(2.8002852e-17, rel=1e-9)


class TestFixedOrientation:
    def test_azimuth_is_a_pure_rotation(self, make_system):
        system = make_system(1, 10.0)
        a = cross_section_fixed(system, 0.5, 0.0, rel_tol=1e-3, use_symmetry=False)[0]
        b = cross_section_fixed(system, 0.5, 1.234, rel_tol=1e-3, use_symmetry=False)[0]
        assert abs(a.sigma_au - b.sigma_au) <= 3.0 * (a.quad_error + b.quad_error)

    def test_parallel_axis_equals_doubled_single_atom(self, nitrogen, make_system,
                                                      ionization_table):
        # theta = 0 stacks the two projections; an atom with doubled nuclear
        # charge (same screening shape) produces exactly twice the kick.
        system = make_system(1, 10.0)
        parallel = cross_section_fixed(system, 0.0, rel_tol=1e-3)[0]

        doubled = HfsAtom(Z=2.0 * nitrogen.Z, A=nitrogen.A, alpha=nitrogen.alpha)
        single = MoleculeGeometry(atoms=(doubled,), positions=((0.0, 0.0, 0.0),))
        mono = CollisionSystem(single, system.projectile, system.params, ionization_table)
        fused = cross_section_fixed(mono, 0.0, rel_tol=1e-3)[0]
        assert abs(parallel.sigma_au - fused.sigma_au) <= (
            3.0 * (parallel.quad_error + fused.quad_error)
        )

    @pytest.mark.parametrize("energy", [10.0, 1000.0])
    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2], ids=["0", "0.7", "pi/2"])
    def test_quadrant_matches_full_plane(self, make_system, energy, theta):
        # Every scan takes the quadrant path; the full plane at the same
        # (theta, phi = 0) judges it, channel by channel.
        system = make_system(3, energy)
        quadrant = cross_section_fixed(system, theta, rel_tol=1e-3)
        full = cross_section_fixed(system, theta, rel_tol=1e-3, use_symmetry=False)
        for q, f in zip(quadrant, full):
            assert abs(q.sigma_au - f.sigma_au) <= 3.0 * (q.quad_error + f.quad_error), q.m

    def test_theta_reflection_symmetry(self, make_system):
        system = make_system(1, 10.0)
        fwd = cross_section_fixed(system, 2.0, rel_tol=1e-3)[0]
        back = cross_section_fixed(system, math.pi - 2.0, rel_tol=1e-3)[0]
        assert abs(fwd.sigma_au - back.sigma_au) <= 3.0 * (fwd.quad_error + back.quad_error)

    def test_transverse_separation_law(self, nitrogen, make_system, ionization_table):
        theta = 0.5
        system = make_system(1, 10.0)
        tilted = cross_section_fixed(system, theta, rel_tol=1e-3)[0]

        shrunk_geom = MoleculeGeometry.diatomic(
            nitrogen, nitrogen, N2_BOND_LENGTH * math.sin(theta)
        )
        shrunk = CollisionSystem(shrunk_geom, system.projectile, system.params,
                                 ionization_table)
        perp = cross_section_fixed(shrunk, math.pi / 2, rel_tol=1e-3)[0]
        assert abs(tilted.sigma_au - perp.sigma_au) <= (
            3.0 * (tilted.quad_error + perp.quad_error)
        )

    def test_expected_loss_sum_rule(self, make_system):
        # integral p d^2b is sigma^{1+} of one electron with the same Z_eff (P_1 = p).
        system = make_system(3, 10.0)
        results = cross_section_fixed(system, 0.4, rel_tol=1e-3)
        single = replace(system, projectile=ProjectileSpec(26.0, 1, z_eff=system.projectile.Z_eff))
        loss = cross_section_fixed(single, 0.4, rel_tol=1e-3)[0]
        weighted = sum(r.m * r.sigma_au for r in results)
        weighted_err = sum(r.m * r.quad_error for r in results)
        target = system.projectile.N_P * loss.sigma_au
        assert abs(weighted - target) <= 3.0 * (weighted_err + 3.0 * loss.quad_error) + 1e-12

    def test_channels_positive_and_ordered(self, make_system):
        system = make_system(3, 10.0)
        results = cross_section_fixed(system, 0.4, rel_tol=1e-3)
        sigmas = [r.sigma_au for r in results]
        assert all(s > 0 for s in sigmas)
        assert sigmas[0] > sigmas[1] > sigmas[2]

    def test_perturbative_velocity_scaling(self, nitrogen, make_system, ionization_table):
        single = MoleculeGeometry(atoms=(nitrogen,), positions=((0.0, 0.0, 0.0),))
        slow = make_system(1, 10.0, geometry=single)
        fast = make_system(1, 100.0, geometry=single)
        loss_slow = cross_section_fixed(slow, 0.0, rel_tol=1e-3)[0].sigma_au   # N_P = 1: P_1 = p
        loss_fast = cross_section_fixed(fast, 0.0, rel_tol=1e-3)[0].sigma_au
        assert loss_fast < loss_slow

    def test_unreached_outer_cutoff_fails_loudly(self, make_system, ionization_table):
        # Screening this soft leaves a nearly bare Z = 50 Coulomb kick, so the
        # loss probability 150 a.u. out is still ~1e-7 of its peak, ten times
        # CUTOFF_FRACTION.
        soft = HfsAtom(Z=50.0, A=(0.3, 0.3, 0.4), alpha=(0.01, 0.011, 0.012))
        single = MoleculeGeometry(atoms=(soft,), positions=((0.0, 0.0, 0.0),))
        system = make_system(1, 10.0, geometry=single)
        with pytest.raises(QuadratureError, match=r"outer cutoff not reached: at r = 150"):
            cross_section_fixed(system, 0.0, rel_tol=1e-3)


class TestDeltaScan:
    def test_delta_zero_at_perpendicular(self, make_system):
        system = make_system(1, 10.0)
        scan = delta_scan(system, [0.3, math.pi / 2], rel_tol=1e-3)
        assert scan.delta[-1, 0] == 0.0
        assert scan.sigma_au[-1, 0] == pytest.approx(scan.sigma_perp[0], rel=1e-14)

    def test_grid_validation(self, make_system):
        system = make_system(1, 10.0)
        with pytest.raises(ValueError):
            delta_scan(system, [])
        with pytest.raises(ValueError):
            delta_scan(system, [-0.1])
        with pytest.raises(ValueError):
            delta_scan(system, [2.0])

    def test_degenerate_system_rejected(self, n2_geometry):
        system = CollisionSystem(
            n2_geometry, ProjectileSpec(26.0, 1), velocity_from_energy(10.0),
            ConstantTable(0.0),
        )
        with pytest.raises(ValueError, match="degenerate"):
            delta_scan(system, [0.0, math.pi / 2])


class TestPhiInvarianceProperty:
    def test_five_random_azimuth_pairs(self, make_system):
        system = make_system(1, 10.0)
        rng = np.random.default_rng(11)
        phis = rng.uniform(0.0, 2.0 * math.pi, 6)
        results = [
            cross_section_fixed(system, 0.7, float(phi), rel_tol=1e-3, use_symmetry=False)[0]
            for phi in phis
        ]
        for a, b in zip(results[:-1], results[1:]):
            assert abs(a.sigma_au - b.sigma_au) <= 3.0 * (a.quad_error + b.quad_error)


class TestOrientationAverage:
    def test_constant_sigma_for_single_atom(self, nitrogen, make_system):
        single = MoleculeGeometry(atoms=(nitrogen,), positions=((0.0, 0.0, 0.0),))
        system = make_system(1, 10.0, geometry=single)
        fixed = cross_section_fixed(system, 0.9, rel_tol=1e-3)[0]
        avg = orientation_average(system, rel_tol=1e-3)[0][0]
        assert abs(avg.sigma_au - fixed.sigma_au) <= 3.0 * (avg.quad_error + fixed.quad_error)

    def test_sigma_perp_is_the_perpendicular_integral(self, make_system):
        system = make_system(2, 100.0)
        _, scan = orientation_average(system, rel_tol=1e-3)
        perp = cross_section_fixed(system, math.pi / 2, rel_tol=1e-3)
        assert np.array_equal(scan.sigma_perp, [r.sigma_au for r in perp])
        assert np.array_equal(scan.perp_error, [r.quad_error for r in perp])

    def test_average_respects_mean_value_bound(self, make_system):
        system = make_system(1, 10.0)
        grid = np.linspace(0.0, math.pi / 2, 7)
        scan = delta_scan(system, grid, rel_tol=1e-3)
        avg = orientation_average(system, rel_tol=1e-3)[0][0]
        lo = scan.sigma_au[:, 0].min() - 3.0 * scan.quad_error[:, 0].max()
        hi = scan.sigma_au[:, 0].max() + 3.0 * scan.quad_error[:, 0].max()
        assert lo <= avg.sigma_au <= hi


class TestErrorHonesty:
    """The reported quad_error must bound the true error of every channel."""

    @pytest.mark.parametrize("energy", [10.0, 1000.0])
    @pytest.mark.parametrize("n_electrons", [1, 3])
    def test_quad_error_bounds_true_error(self, make_system, n_electrons, energy):
        system = make_system(n_electrons, energy)
        for theta in (0.0, 0.5, math.pi / 2):
            ref = cross_section_fixed(system, theta, rel_tol=1e-6)
            for tol in (1e-2, 1e-3):
                for r, r_ref in zip(cross_section_fixed(system, theta, rel_tol=tol), ref):
                    assert abs(r.sigma_au - r_ref.sigma_au) <= r.quad_error, (theta, tol, r.m)

    # sigma^{1+}, sigma^{2+} of Fe24+ on N2 from the nested 4x4/8x8 Gauss-Legendre
    # rule pair that preceded the Genz-Malik rule, at rel_tol 1e-7 (reported
    # errors at most 1.9e-9 au), so this leg does not judge the rule by itself.
    GAUSS_LEGENDRE_REFERENCE = {
        (10.0, 0.0): (0.0238740099037341, 0.006704105142935525),
        (10.0, 0.5): (0.015972724973083975, 0.003559385528392413),
        (10.0, math.pi / 2): (0.01593822926067819, 0.0035601449722209534),
        (100.0, 0.0): (0.004229188775426484, 0.0008298707891020882),
        (100.0, 0.5): (0.0026256009901680657, 0.0004213134975281632),
        (100.0, math.pi / 2): (0.002619384402723886, 0.0004213271158424704),
        (1000.0, 0.0): (0.001272520868287873, 0.00020263453409371778),
        (1000.0, 0.5): (0.0007670361269606115, 0.00010186630535141714),
        (1000.0, math.pi / 2): (0.000765511830520347, 0.00010186723682982666),
    }

    @pytest.mark.parametrize("energy, theta", sorted(GAUSS_LEGENDRE_REFERENCE))
    def test_quad_error_bounds_error_against_gauss_legendre(self, make_system, energy, theta):
        system = make_system(2, energy)
        for tol in (1e-2, 1e-3):
            results = cross_section_fixed(system, theta, rel_tol=tol)
            for r, ref in zip(results, self.GAUSS_LEGENDRE_REFERENCE[energy, theta]):
                assert abs(r.sigma_au - ref) <= r.quad_error, (tol, r.m)

    def test_evaluation_budget(self, make_system, monkeypatch):
        evals = []

        def counting(integrand, **kwargs):
            def counted(points):
                evals.append(len(points))
                return integrand(points)

            return integrate_b_plane(counted, **kwargs)

        monkeypatch.setattr("molstrip.cross_section.integrate_b_plane", counting)
        cross_section_fixed(make_system(1, 10.0), 0.5, rel_tol=1e-3)
        assert sum(evals) <= 40_000
        assert len(evals) <= 6        # integrand calls the Gauss-Legendre pair needed
