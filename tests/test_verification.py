"""Independent oracles: Monte-Carlo integration, continuum route, Bessel refs."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp
from scipy.integrate import simpson

from molstrip.form_factor import elastic_form_factor, ionization_probability
from molstrip.verification import (
    _simpson_weights,
    bessel_reference,
    bessel_reference_i,
    continuum_ionization_oracle,
    mc_cross_section,
)


class TestBesselReference:
    def test_pinned_values(self):
        assert bessel_reference(1.0, 0) == pytest.approx(0.42102443824070834, rel=1e-14)
        assert bessel_reference(1.0, 1) == pytest.approx(0.6019072301972346, rel=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.7, 2.0, 9.0, 31.0])
    def test_wronskian_identity(self, x):
        w = (
            bessel_reference(x, 1) * bessel_reference_i(x, 0)
            + bessel_reference(x, 0) * bessel_reference_i(x, 1)
        )
        assert w == pytest.approx(1.0 / x, rel=1e-12)

    def test_reference_i_against_scipy(self):
        for x in (0.5, 1.0, 4.0):
            assert bessel_reference_i(x, 0) == pytest.approx(sp.i0(x), rel=1e-13)
            assert bessel_reference_i(x, 1) == pytest.approx(sp.i1(x), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf")])
    def test_domain_x(self, bad):
        with pytest.raises(ValueError):
            bessel_reference(bad, 0)

    def test_domain_order(self):
        with pytest.raises(ValueError):
            bessel_reference(1.0, 2)
        with pytest.raises(ValueError):
            bessel_reference_i(1.0, -1)


class TestContinuumOracle:
    def test_domain(self):
        with pytest.raises(ValueError):
            continuum_ionization_oracle(0.0)
        with pytest.raises(ValueError):
            continuum_ionization_oracle(-1.0)

    def test_small_kick_subset_bound(self):
        s = 0.01
        w = continuum_ionization_oracle(s)
        inelastic = 1.0 - elastic_form_factor(s, 1.0) ** 2
        assert 0.0 < w <= inelastic * (1.0 + 1e-6)
        assert inelastic == pytest.approx(s * s, rel=0.01)

    def test_matches_bound_route_at_unit_kick(self):
        assert continuum_ionization_oracle(1.0) == pytest.approx(
            ionization_probability(1.0), abs=1e-3
        )

    @pytest.mark.parametrize(
        "s,expected",
        [
            (0.01, 2.8346738497282108e-05),
            (0.3, 0.02963684808509152),
            (1.0, 0.44645079952595196),
            (3.0, 0.988377950268629),
        ],
    )
    def test_pinned_values(self, s, expected):
        # Values of the one-k-at-a-time Numerov implementation; batching the
        # sweep over k only reorders floating-point sums.
        assert continuum_ionization_oracle(s) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 6004, 6745])
    def test_simpson_weights_match_scipy(self, n):
        h = 0.0044
        y = np.cos(0.37 * np.arange(n)) + 1.5
        assert _simpson_weights(n, h) @ y == pytest.approx(simpson(y, dx=h), rel=1e-13)

    def test_peak_memory_bound(self):
        # The sweep accumulates the radial integrals in chunks; a full
        # (n_k, l, n_r) wave array would take about 174 MB at s = 1.
        tracemalloc.start()
        try:
            continuum_ionization_oracle(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.slow
    def test_saturates_at_large_kick(self):
        assert continuum_ionization_oracle(30.0) == pytest.approx(1.0, abs=1e-3)


class TestMonteCarlo:
    def test_rejects_small_sample_counts(self, make_system):
        with pytest.raises(ValueError):
            mc_cross_section(make_system(1, 10.0), 0.5, n_samples=100)

    def test_deterministic_under_fixed_seed(self, make_system):
        system = make_system(2, 10.0)
        a = mc_cross_section(system, 0.8, n_samples=2 * 10**4, seed=3)
        b = mc_cross_section(system, 0.8, n_samples=2 * 10**4, seed=3)
        assert [e.value for e in a] == [e.value for e in b]
        assert [e.std_error for e in a] == [e.std_error for e in b]

    def test_zero_integrand_gives_zero(self, n2_geometry):
        from molstrip.cross_section import CollisionSystem
        from molstrip.form_factor import ProjectileSpec
        from molstrip.kinematics import velocity_from_energy

        class ZeroTable:
            def __call__(self, s):
                return np.zeros_like(np.asarray(s, dtype=float))

        system = CollisionSystem(
            n2_geometry, ProjectileSpec(26.0, 1), velocity_from_energy(10.0), ZeroTable()
        )
        est = mc_cross_section(system, 0.5, n_samples=10**4, seed=0)[0]
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_error_scales_as_inverse_sqrt_samples(self, make_system):
        system = make_system(1, 10.0)
        small = mc_cross_section(system, 0.8, n_samples=10**5, seed=1)[0]
        large = mc_cross_section(system, 0.8, n_samples=4 * 10**5, seed=1)[0]
        ratio = large.std_error / small.std_error
        assert ratio == pytest.approx(0.5, abs=0.1)

    def test_agrees_with_quadrature(self, make_system):
        from molstrip.cross_section import cross_section_fixed

        system = make_system(1, 10.0)
        quad = cross_section_fixed(system, 0.9, rel_tol=1e-3)[0]
        mc = mc_cross_section(system, 0.9, n_samples=4 * 10**5, seed=2)[0]
        assert abs(quad.sigma_au - mc.value) <= 3.0 * (quad.quad_error + mc.std_error)
