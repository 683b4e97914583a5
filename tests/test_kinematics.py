"""Beam kinematics and validity-regime diagnostics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molstrip.form_factor import ProjectileSpec
from molstrip.kinematics import (
    AMU_MEV,
    C_AU,
    validate_regime,
    velocity_from_energy,
)


class TestVelocityFromEnergy:
    @pytest.mark.parametrize(
        "energy,gamma,velocity",
        [
            (10.0, 1.010735, 19.92),
            (100.0, 1.107355, 58.86),
            (1000.0, 2.073551, 120.05),
        ],
    )
    def test_reference_energies(self, energy, gamma, velocity):
        # gamma pinned to 1e-5: reference digits assume a nucleon mass that
        # differs from the fixed 931.494 MeV in its last figure.
        params = velocity_from_energy(energy)
        assert params.gamma == pytest.approx(gamma, abs=1e-5)
        assert params.velocity_au == pytest.approx(velocity, abs=0.01)

    def test_kinematic_identities(self):
        params = velocity_from_energy(250.0)
        assert params.gamma == pytest.approx(1.0 + 250.0 / AMU_MEV, rel=1e-14)
        assert params.beta == pytest.approx(math.sqrt(1.0 - params.gamma**-2), rel=1e-14)
        assert params.velocity_au == pytest.approx(params.beta * C_AU, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("inf")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            velocity_from_energy(bad)

    def test_nonrelativistic_limit(self):
        for e in (0.001, 0.01, 0.1):
            classical = math.sqrt(2.0 * e / AMU_MEV) * C_AU
            assert velocity_from_energy(e).velocity_au == pytest.approx(classical, rel=1e-3)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e6), st.floats(min_value=1.01, max_value=2.0))
    def test_monotone_in_energy(self, e, factor):
        lo, hi = velocity_from_energy(e), velocity_from_energy(e * factor)
        assert hi.velocity_au > lo.velocity_au
        assert 0.0 < hi.beta < 1.0


def failed_checks(energy, proj, geometry):
    return [c for c in validate_regime(velocity_from_energy(energy), proj, geometry)
            if not c.passed]


class TestValidateRegime:
    def test_reference_system_is_clean(self, n2_geometry):
        proj = ProjectileSpec(Z_nucleus=26.0, N_P=1)
        for energy in (10.0, 100.0, 1000.0):
            assert failed_checks(energy, proj, n2_geometry) == []

    def test_every_check_is_reported(self, n2_geometry):
        proj = ProjectileSpec(Z_nucleus=7.0, N_P=3)  # net charge 4 < 5
        checks = validate_regime(velocity_from_energy(100.0), proj, n2_geometry)
        assert [c.name for c in checks] == ["sudden", "charge", "eikonal"]
        assert [c.passed for c in checks] == [True, False, True]
        assert checks[1].value == 4.0 and checks[1].requirement == ">= 5"
        assert [bool(c.message) for c in checks] == [False, True, False]

    def test_low_net_charge_warns(self, n2_geometry):
        proj = ProjectileSpec(Z_nucleus=7.0, N_P=3)  # net charge 4 < 5
        warnings = failed_checks(100.0, proj, n2_geometry)
        assert [w.name for w in warnings] == ["charge"]
        assert "charge" in warnings[0].message

    def test_slow_beam_fails_sudden_condition(self, n2_geometry):
        # Energy chosen so v ~ 1 a.u.: collision time ~ 1 >= 0.1.
        beta = 1.0 / C_AU
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        energy = AMU_MEV * (gamma - 1.0)
        proj = ProjectileSpec(Z_nucleus=26.0, N_P=1)
        names = [w.name for w in failed_checks(energy, proj, n2_geometry)]
        assert "sudden" in names

    def test_eikonal_product_warning(self, n2_geometry):
        proj = ProjectileSpec(Z_nucleus=26.0, N_P=1)
        names = [w.name for w in failed_checks(1e-7, proj, n2_geometry)]
        assert "eikonal" in names

    def test_warnings_never_raise(self, n2_geometry):
        proj = ProjectileSpec(Z_nucleus=6.0, N_P=1)
        result = failed_checks(1e-6, proj, n2_geometry)
        assert result and all(w.message for w in result)
