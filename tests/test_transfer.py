"""Screened momentum-transfer field: kicks, phase, gradient relation."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from molstrip.transfer import (
    MIN_IMPACT_RADIUS,
    eikonal_phase_single,
    kick_magnitude,
    momentum_transfer_single,
    total_kick_magnitude,
    total_momentum_transfer,
)


class TestEikonalPhase:
    def test_domain(self, nitrogen):
        with pytest.raises(ValueError):
            eikonal_phase_single(nitrogen, 10.0, 0.0)
        with pytest.raises(ValueError):
            eikonal_phase_single(nitrogen, 0.0, 1.0)
        with pytest.raises(ValueError, match="bessel_k0"):
            eikonal_phase_single(nitrogen, 10.0, math.inf)

    def test_positive_and_decreasing(self, nitrogen):
        grid = np.geomspace(1e-3, 30.0, 200)
        chi = np.array([eikonal_phase_single(nitrogen, 10.0, b) for b in grid])
        assert np.all(chi > 0)
        assert np.all(np.diff(chi) < 0)

    def test_decays_at_large_b(self, nitrogen):
        assert eikonal_phase_single(nitrogen, 10.0, 60.0) < 1e-20

    def test_doubling_velocity_halves_phase(self, nitrogen):
        b = 0.7
        assert eikonal_phase_single(nitrogen, 20.0, b) == pytest.approx(
            0.5 * eikonal_phase_single(nitrogen, 10.0, b), rel=1e-12
        )

    def test_log_singularity_at_small_b(self, nitrogen):
        # chi ~ (2Z/v)(-ln b + const): the offset from the pure log term
        # converges to a constant as b -> 0.
        v = 10.0
        pref = 2.0 * nitrogen.Z / v
        offsets = [
            eikonal_phase_single(nitrogen, v, b) - pref * (-math.log(b))
            for b in (1e-4, 1e-6, 1e-8)
        ]
        assert offsets[1] == pytest.approx(offsets[0], abs=1e-3)
        assert offsets[2] == pytest.approx(offsets[1], abs=1e-5)


class TestSingleAtomKick:
    def test_directed_along_b(self, nitrogen):
        q = momentum_transfer_single(nitrogen, 10.0, (0.3, 0.4))
        ratio = q.vector[1] / q.vector[0]
        assert ratio == pytest.approx(0.4 / 0.3, rel=1e-12)

    def test_unscreened_coulomb_limit(self, nitrogen):
        # K1(z) -> 1/z and sum A_i = 1 give |q| -> 2Z/(v b).
        v, b = 10.0, 1e-7
        q = momentum_transfer_single(nitrogen, v, (b, 0.0))
        assert q.magnitude * b == pytest.approx(2.0 * nitrogen.Z / v, rel=1e-5)

    def test_exponential_decay(self, nitrogen):
        q40 = momentum_transfer_single(nitrogen, 10.0, (40.0, 0.0)).magnitude
        q50 = momentum_transfer_single(nitrogen, 10.0, (50.0, 0.0)).magnitude
        assert q50 < q40 * math.exp(-5.0)

    def test_odd_under_reflection(self, nitrogen):
        q_pos = momentum_transfer_single(nitrogen, 10.0, (0.8, -0.5))
        q_neg = momentum_transfer_single(nitrogen, 10.0, (-0.8, 0.5))
        assert q_neg.vector[0] == pytest.approx(-q_pos.vector[0], rel=1e-12)
        assert q_neg.vector[1] == pytest.approx(-q_pos.vector[1], rel=1e-12)

    def test_zero_b_rejected(self, nitrogen):
        with pytest.raises(ValueError):
            momentum_transfer_single(nitrogen, 10.0, (0.0, 0.0))


class TestKickMagnitude:
    def test_equals_all_terms_sum_bitwise(self, hfs_table):
        # Zero-amplitude terms are skipped; they would add exactly +0.0.
        r = np.concatenate([[0.0, MIN_IMPACT_RADIUS], np.geomspace(1e-5, 80.0, 500)])
        for atom in hfs_table.values():
            rc = np.maximum(r, MIN_IMPACT_RADIUS)
            acc = np.zeros_like(rc)
            for a, al in zip(atom.A, atom.alpha):
                acc += al * a * sp.k1(al * rc)
            expected = 2.0 * atom.Z / 7.5 * acc
            assert np.array_equal(kick_magnitude(atom, 7.5, r), expected), atom.Z


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, nitrogen, bad):
        with pytest.raises(ValueError, match="bessel_k1"):
            kick_magnitude(nitrogen, 7.5, np.array([1.0, bad]))


class TestHydrogenRow:
    """The shipped H fit: A1 = -184.39 and A2 = 185.39 cancel in the K1 sum."""

    B = np.geomspace(1e-4, 40.0, 200)
    V = 10.0

    def test_cancellation_loses_no_precision(self, hfs_table):
        hydrogen = hfs_table[1]
        with mp.workdps(40):
            exact = [
                2 * mp.mpf(hydrogen.Z) / self.V * mp.fsum(
                    mp.mpf(al) * mp.mpf(a) * mp.besselk(1, mp.mpf(al) * mp.mpf(b))
                    for a, al in zip(hydrogen.A, hydrogen.alpha)
                )
                for b in self.B
            ]
            ref = np.array([float(x) for x in exact])
        rel = np.abs(kick_magnitude(hydrogen, self.V, self.B) / ref - 1.0)
        assert rel.max() <= 1e-12     # 1.1e-13 measured

    def test_matches_exact_hydrogen_screening(self, hfs_table):
        # H(1s) screening gives q(b) = (4/v) [K1(2b) + b K0(2b)] exactly; the fit's
        # two close exponents stand in for the b K0 term.
        b = self.B[self.B <= 10.0]
        exact = 4.0 / self.V * (sp.k1(2.0 * b) + b * sp.k0(2.0 * b))
        rel = np.abs(kick_magnitude(hfs_table[1], self.V, b) / exact - 1.0)
        assert rel.max() <= 2e-3      # 1.3e-3 measured


class TestTotalKick:
    def test_coincident_projections_double_the_kick(self, nitrogen):
        b = (1.3, 0.2)
        single = momentum_transfer_single(nitrogen, 10.0, b)
        total = total_momentum_transfer(
            [(0.0, 0.0), (0.0, 0.0)], [nitrogen, nitrogen], 10.0, b
        )
        assert total.vector[0] == pytest.approx(2.0 * single.vector[0], rel=1e-12)
        assert total.vector[1] == pytest.approx(2.0 * single.vector[1], rel=1e-12)

    def test_bisector_symmetry(self, nitrogen):
        # Projections at +-(1, 0); on the y axis (their perpendicular
        # bisector) the x components cancel.
        q = total_momentum_transfer(
            [(1.0, 0.0), (-1.0, 0.0)], [nitrogen, nitrogen], 10.0, (0.0, 2.0)
        )
        assert q.vector[0] == pytest.approx(0.0, abs=1e-14)
        assert q.vector[1] > 0.0

    def test_single_atom_reduces(self, nitrogen):
        b = (0.4, 0.9)
        total = total_momentum_transfer([(0.0, 0.0)], [nitrogen], 10.0, b)
        single = momentum_transfer_single(nitrogen, 10.0, b)
        assert total.vector == pytest.approx(single.vector, rel=1e-14)

    def test_point_reflection_equivariance(self, nitrogen):
        projections = [(1.035, 0.0), (-1.035, 0.0)]
        atoms = [nitrogen, nitrogen]
        for b in [(0.3, 0.8), (-1.4, 0.2), (2.0, -2.0)]:
            q = total_momentum_transfer(projections, atoms, 10.0, b)
            q_neg = total_momentum_transfer(projections, atoms, 10.0, (-b[0], -b[1]))
            assert q_neg.vector[0] == pytest.approx(-q.vector[0], rel=1e-12)
            assert q_neg.vector[1] == pytest.approx(-q.vector[1], rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_triangle_inequality(self, nitrogen, bx, by):
        projections = [(1.0, 0.0), (-1.0, 0.0)]
        b = (bx, by)
        if any(math.hypot(bx - sx, by - sy) < 1e-3 for sx, sy in projections):
            return
        total = total_momentum_transfer(projections, [nitrogen, nitrogen], 10.0, b)
        parts = sum(
            momentum_transfer_single(nitrogen, 10.0, (bx - sx, by - sy)).magnitude
            for sx, sy in projections
        )
        assert total.magnitude <= parts * (1.0 + 1e-12)

    def test_vectorized_magnitude_matches_scalar(self, nitrogen):
        projections = [(1.035, 0.0), (-1.035, 0.0)]
        atoms = [nitrogen, nitrogen]
        rng = np.random.default_rng(9)
        pts = rng.uniform(-4.0, 4.0, (50, 2))
        fast = total_kick_magnitude(projections, atoms, 10.0, pts)
        for i, b in enumerate(pts):
            slow = total_momentum_transfer(projections, atoms, 10.0, b).magnitude
            assert fast[i] == pytest.approx(slow, rel=1e-12)


class TestGradientRelation:
    def test_kick_is_minus_grad_phase(self, nitrogen):
        rng = np.random.default_rng(7)
        v = 12.5
        for _ in range(100):
            r = rng.uniform(0.05, 10.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            bx, by = r * math.cos(ang), r * math.sin(ang)
            h = 1e-5 * r
            gx = (
                eikonal_phase_single(nitrogen, v, math.hypot(bx + h, by))
                - eikonal_phase_single(nitrogen, v, math.hypot(bx - h, by))
            ) / (2 * h)
            gy = (
                eikonal_phase_single(nitrogen, v, math.hypot(bx, by + h))
                - eikonal_phase_single(nitrogen, v, math.hypot(bx, by - h))
            ) / (2 * h)
            q = momentum_transfer_single(nitrogen, v, (bx, by))
            assert -gx == pytest.approx(q.vector[0], rel=1e-5, abs=1e-12)
            assert -gy == pytest.approx(q.vector[1], rel=1e-5, abs=1e-12)
