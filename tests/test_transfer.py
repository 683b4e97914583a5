"""Screened momentum-transfer field: kicks, phase, gradient relation."""

import json
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from molstrip import cli, cross_section, quadrature, transfer, verification
from molstrip.atomic_data import HfsAtom, MoleculeGeometry
from molstrip.cross_section import cross_section_fixed
from molstrip.special_functions import bessel_k1
from molstrip.transfer import (
    MIN_IMPACT_RADIUS,
    eikonal_phase_single,
    kick_magnitude,
    kick_profile,
    total_kick_magnitude,
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


def _single_atom_kick(atom, v, points):
    return total_kick_magnitude([(0.0, 0.0)], [atom], v, np.asarray(points, dtype=float))


class TestSingleAtomKick:
    def test_unscreened_coulomb_limit(self, nitrogen):
        # K1(z) -> 1/z and sum A_i = 1 give |q| -> 2Z/(v b); b stays above the
        # MIN_IMPACT_RADIUS clamp.
        v, b = 10.0, 1e-5
        q = _single_atom_kick(nitrogen, v, [[b, 0.0]])[0]
        assert q * b == pytest.approx(2.0 * nitrogen.Z / v, rel=1e-5)

    def test_exponential_decay(self, nitrogen):
        q40, q50 = _single_atom_kick(nitrogen, 10.0, [[40.0, 0.0], [50.0, 0.0]])
        assert q50 < q40 * math.exp(-5.0)


class TestKickMagnitude:
    def test_equals_all_terms_sum_bitwise(self, hfs_table):
        # Zero-amplitude terms are skipped; they would add exactly +0.0.
        r = np.concatenate([[0.0, MIN_IMPACT_RADIUS], np.geomspace(1e-5, 80.0, 500)])
        for atom in hfs_table.values():
            rc = np.maximum(r, MIN_IMPACT_RADIUS)
            acc = np.zeros_like(rc)
            for a, al in zip(atom.A, atom.alpha):
                acc += al * a * bessel_k1(al * rc)
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


def _direct_total_kick(projections, atoms, v, b):
    """|sum_m q_m(b - s_m)| from the direct sum, each kick along b - s_m."""
    q = np.zeros(2)
    for s_m, atom in zip(np.asarray(projections, dtype=float), atoms):
        d = np.asarray(b, dtype=float) - s_m
        r = math.hypot(*d)
        q += kick_magnitude(atom, v, r) * d / r
    return math.hypot(*q)


class TestTotalKick:
    PAIR = [(1.0, 0.0), (-1.0, 0.0)]

    def test_coincident_projections_double_the_kick(self, nitrogen):
        b = [[1.3, 0.2]]
        single = _single_atom_kick(nitrogen, 10.0, b)[0]
        total = total_kick_magnitude([(0.0, 0.0), (0.0, 0.0)], [nitrogen, nitrogen], 10.0,
                                     np.array(b))[0]
        assert total == pytest.approx(2.0 * single, rel=1e-12)

    def test_bisector_symmetry(self, nitrogen):
        # On the y axis, the perpendicular bisector of (+-1, 0), the x components
        # of the two kicks cancel and the y components add: |Q| = 2 |q(r)| |y| / r.
        y = np.array([-3.0, 0.25, 0.5, 2.0, 7.0])
        r = np.hypot(1.0, y)
        q = total_kick_magnitude(self.PAIR, [nitrogen, nitrogen], 10.0,
                                 np.column_stack([np.zeros_like(y), y]))
        expected = 2.0 * kick_magnitude(nitrogen, 10.0, r) * np.abs(y) / r
        assert q == pytest.approx(expected, rel=1e-12)

    def test_point_reflection_equivariance(self, nitrogen):
        projections = [(1.035, 0.0), (-1.035, 0.0)]
        b = np.array([(0.3, 0.8), (-1.4, 0.2), (2.0, -2.0)])
        q = total_kick_magnitude(projections, [nitrogen, nitrogen], 10.0, b)
        q_neg = total_kick_magnitude(projections, [nitrogen, nitrogen], 10.0, -b)
        assert q_neg == pytest.approx(q, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_triangle_inequality(self, nitrogen, bx, by):
        if any(math.hypot(bx - sx, by - sy) < 1e-3 for sx, sy in self.PAIR):
            return
        total = total_kick_magnitude(self.PAIR, [nitrogen, nitrogen], 10.0,
                                     np.array([[bx, by]]))[0]
        r = np.array([math.hypot(bx - sx, by - sy) for sx, sy in self.PAIR])
        parts = kick_magnitude(nitrogen, 10.0, r).sum()
        assert total <= parts * (1.0 + 1e-12)

    def test_vectorized_magnitude_matches_scalar(self, nitrogen, hfs_table):
        # The reference sums the direct kicks q_m (b - s_m) / |b - s_m| point by
        # point.  The second, off-axis pair of unlike atoms also tests the y
        # offsets, which vanish for the canonical pair.
        cases = [([(1.035, 0.0), (-1.035, 0.0)], [nitrogen, nitrogen]),
                 ([(0.6, -0.8), (-0.3, 0.5)], [hfs_table[6], hfs_table[8]])]
        rng = np.random.default_rng(9)
        for projections, atoms in cases:
            pts = rng.uniform(-4.0, 4.0, (50, 2))
            fast = total_kick_magnitude(projections, atoms, 10.0, pts)
            for i, b in enumerate(pts):
                slow = _direct_total_kick(projections, atoms, 10.0, b)
                assert fast[i] == pytest.approx(slow, rel=1e-12)


def _per_atom_total_kick(projections, atoms, v, points):
    """|Q| as total_kick_magnitude summed it one atom at a time, with the
    profile's clip, log, Horner and exp spelled out; the stacked pass must
    match it bit for bit."""
    points = np.asarray(points, dtype=float)
    qx, qy = np.zeros((2, len(points)))
    for s_m, atom in zip(np.asarray(projections, dtype=float), atoms):
        profile = kick_profile(atom)
        dx = points[:, 0] - s_m[0]
        dy = points[:, 1] - s_m[1]
        r2 = dx * dx
        r2 += dy * dy
        t = np.log(np.clip(r2, MIN_IMPACT_RADIUS**2, profile.r_hi**2))
        t -= 2.0 * transfer._U0
        t /= 2.0 * transfer._H
        w = np.exp(profile.z(t))
        w[r2 > profile.r_hi**2] = 0.0
        w *= 2.0 * atom.Z / v
        dx *= w
        dy *= w
        qx += dx
        qy += dy
    return np.hypot(qx, qy)


class TestStackedKick:
    """The stacked pass gives the per-atom loop's bits on every path, including
    those the shipped N2 configs do not reach."""

    def cases(self, hfs_table):
        o, c, n = hfs_table[8], hfs_table[6], hfs_table[7]
        return {
            # A repeated atom and a distinct one: each profile reads a subset of rows.
            "O-C-O": ([(1.9, 0.7), (0.1, -0.05), (-1.7, -0.75)], [o, c, o]),
            "single": ([(0.4, -0.2)], [n]),
            "N2": ([(1.035, 0.0), (-1.035, 0.0)], [n, n]),
        }

    @pytest.mark.parametrize("name", ["O-C-O", "single", "N2"])
    def test_equals_per_atom_loop_bitwise(self, hfs_table, name):
        projections, atoms = self.cases(hfs_table)[name]
        r_hi = max(kick_profile(atom).r_hi for atom in atoms)
        rng = np.random.default_rng(17)
        pts = np.concatenate([
            rng.uniform(-6.0, 6.0, (200, 2)),
            rng.uniform(-1.5 * r_hi, 1.5 * r_hi, (50, 2)),       # many past r_hi
            [[2.0 * r_hi, 0.0], [0.5 * r_hi, -0.5 * r_hi]],
            np.asarray(projections, dtype=float),                # below MIN_IMPACT_RADIUS
        ])
        for v in (1.0, 19.9):
            fast = total_kick_magnitude(projections, atoms, v, pts)
            slow = _per_atom_total_kick(projections, atoms, v, pts)
            assert fast.tobytes() == slow.tobytes(), (name, v)
        assert fast[250] == 0.0         # (2 r_hi, 0) lies past every atom's r_hi


class TestKickProfile:
    """total_kick_magnitude reads each atom's tabulated profile; kick_magnitude judges it."""

    V = 7.5
    SOFT = HfsAtom(Z=3.0, A=(0.5, 0.5, 0.0), alpha=(0.2, 0.1, 1.0))
    STIFF = HfsAtom(Z=2.0, A=(0.5, 0.5, 0.0), alpha=(8.0, 5.0, 1.0))

    def _max_rel_error_to_r_hi(self, atom, n=100_000):
        r = np.geomspace(MIN_IMPACT_RADIUS, kick_profile(atom).r_hi, n)
        q = _single_atom_kick(atom, self.V, np.column_stack([r, np.zeros_like(r)]))
        rel = np.abs(q / kick_magnitude(atom, self.V, r) - 1.0)
        return rel.max(), rel[r <= 10.0].max()

    def test_matches_direct_sum_for_every_shipped_atom(self, hfs_table):
        for atom in hfs_table.values():
            # The first node at or past 600 / alpha_min: 305 a.u. for H, 406 for C and Au.
            assert 300.0 < kick_profile(atom).r_hi < 410.0, atom.Z
            rel, rel_near = self._max_rel_error_to_r_hi(atom)
            assert rel <= 5e-12, atom.Z            # 3.3e-12 measured
            assert rel_near <= 5e-13, atom.Z       # 2.2e-13 measured

    def test_soft_fit_reaches_600_over_alpha_min(self):
        profile = kick_profile(self.SOFT)
        assert 6000.0 <= profile.r_hi < 6000.0 * math.exp(transfer._H)
        rel, _ = self._max_rel_error_to_r_hi(self.SOFT)
        assert rel <= 5e-12                        # 3.6e-12 measured

    def test_direct_sum_beyond_the_table(self, hfs_table):
        # Past r_hi the direct sum is below 1e-250 of its value at 1 a.u., and
        # the profile gives exactly 0, out to any radius.
        for atom in [*hfs_table.values(), self.SOFT, self.STIFF]:
            r_hi = kick_profile(atom).r_hi
            r = np.array([r_hi * (1.0 + 1e-12), 1e9])
            direct = kick_magnitude(atom, self.V, r) / kick_magnitude(atom, self.V, 1.0)
            assert direct.max() < 1e-250, atom.Z
            points = np.array([[r[0], 0.0], [0.0, -r[0]], [1e9, 0.0], [0.0, 1e9],
                               [r_hi * (1.0 - 1e-12), 0.0]])
            q = _single_atom_kick(atom, self.V, points)
            assert np.array_equal(q[:4], np.zeros(4)), atom.Z
            assert q[4] > 0.0, atom.Z

    def test_stiff_fit_ends_before_k1_underflows(self):
        # alpha_min r = 1000 at r = 200: K1 is 0 there, so the table stops at the
        # first node past 600 / 5, where K1(alpha_min r) is still a normal double.
        profile = kick_profile(self.STIFF)
        assert 120.0 <= profile.r_hi < 120.0 * math.exp(transfer._H)
        assert sp.k1(5.0 * profile.r_hi) > np.finfo(float).tiny
        rel, _ = self._max_rel_error_to_r_hi(self.STIFF, 20_000)
        assert rel <= 5e-12                        # 2.8e-12 measured

    def test_one_node_spacing_for_every_atom(self, hfs_table):
        # The nodes on [MIN_IMPACT_RADIUS, 200] a.u. are the same 1,000 for every
        # atom; only how far they continue depends on the fit.
        step = (math.log(200.0) - math.log(MIN_IMPACT_RADIUS)) / 999
        assert (transfer._U0, transfer._H) == (math.log(MIN_IMPACT_RADIUS), step)
        for atom in [*hfs_table.values(), self.SOFT, self.STIFF]:
            profile = kick_profile(atom)
            nodes = profile.z.coef.shape[1] + 1
            assert profile.r_hi == pytest.approx(math.exp(transfer._U0 + (nodes - 1) * step),
                                                 rel=1e-15), atom.Z
        assert {kick_profile(atom).z.coef.shape[1] + 1 for atom in hfs_table.values()} \
            == {1022, 1028, 1031, 1037}

    def test_reach_is_capped_for_a_tiny_alpha(self):
        # 600 / alpha would be 6e302 a.u., where S1 underflows to 0; the cap at
        # 1e11 a.u. keeps the table near 2,000 nodes and the kick positive.
        atom = HfsAtom(Z=7.0, A=(0.1741, 0.8259, 0.0), alpha=(9.1943, 1e-300, 1.0))
        profile = kick_profile(atom)
        assert profile.z.coef.shape[1] + 1 <= 2050
        assert 1e11 <= profile.r_hi < 1e11 * math.exp(transfer._H)
        q = _single_atom_kick(atom, self.V, [[1e10, 0.0], [2e11, 0.0]])
        assert q[0] == pytest.approx(kick_magnitude(atom, self.V, 1e10), rel=5e-12)
        assert q[1] == 0.0

    def test_clamped_below_min_impact_radius(self, nitrogen):
        # As the direct sum: |q_m| / r is held at its MIN_IMPACT_RADIUS value.
        per_r = kick_magnitude(nitrogen, self.V, MIN_IMPACT_RADIUS) / MIN_IMPACT_RADIUS
        r = np.array([0.0, 1e-12, 1e-9, 0.5 * MIN_IMPACT_RADIUS, MIN_IMPACT_RADIUS])
        q = _single_atom_kick(nitrogen, self.V, np.column_stack([r, np.zeros_like(r)]))
        assert q[0] == 0.0
        assert q == pytest.approx(per_r * r, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_point_rejected(self, nitrogen, bad):
        # pytest turns a RuntimeWarning into an error, so none escapes either.
        pts = np.array([[0.3, 0.1], [bad, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="points must be finite"):
            total_kick_magnitude([(1.0, 0.0), (-1.0, 0.0)], [nitrogen, nitrogen], 10.0, pts)

    def test_empty_points(self, nitrogen):
        q = total_kick_magnitude([(1.0, 0.0)], [nitrogen], 10.0, np.empty((0, 2)))
        assert q.shape == (0,)

    def test_chunking_is_invisible(self, nitrogen):
        # The Monte Carlo oracle relies on a block giving the values of its slices.
        chunk = verification._MC_SLICE
        projections = [(1.035, 0.0), (-1.035, 0.0)]
        atoms = [nitrogen, nitrogen]
        pts = np.random.default_rng(3).uniform(-6.0, 6.0, (2 * chunk + 1, 2))
        whole = total_kick_magnitude(projections, atoms, 10.0, pts)
        parts = [total_kick_magnitude(projections, atoms, 10.0, pts[lo:lo + chunk])
                 for lo in (0, chunk, 2 * chunk)]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_call_sizes_stay_bounded(self, monkeypatch, tmp_path, make_system):
        # One stacked pass per call is cheap only while every caller bounds its batch.
        kick_sizes, integrand_sizes = [], []

        def kick(projections, atoms, v, points):
            kick_sizes.append(len(points))
            return total_kick_magnitude(projections, atoms, v, points)

        def integrate(integrand, **kwargs):
            def counted(points):
                integrand_sizes.append(len(points))
                return integrand(points)
            return quadrature.integrate_b_plane(counted, **kwargs)

        monkeypatch.setattr(cross_section, "total_kick_magnitude", kick)
        monkeypatch.setattr(cross_section, "integrate_b_plane", integrate)
        monkeypatch.setattr(verification, "total_kick_magnitude", kick)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "projectile": "Fe24+", "target": "N2", "energies_mev_u": [10.0, 100.0, 1000.0],
            "theta_grid": {"points": 3}, "tolerance": 1e-2,
        }))
        assert cli.main(["scan-theta", "--config", str(config),
                         "--out", str(tmp_path / "scan.csv")]) == 0
        verification.mc_cross_section(make_system(2, 100.0), 0.8, n_samples=70_000)
        assert integrand_sizes and kick_sizes[-1] == 70_000 - verification._MC_BLOCK
        assert max(kick_sizes) <= verification._MC_SLICE == 8192
        assert max(integrand_sizes) <= quadrature._CALL_CELLS * 17 == 2176

    def test_one_profile_per_distinct_atom(self, hfs_table, make_system):
        # The profile does not depend on v: three energies of CO build two.
        co = MoleculeGeometry.diatomic(hfs_table[6], hfs_table[8], 2.13)
        kick_profile.cache_clear()
        for energy in (10.0, 100.0, 1000.0):
            cross_section_fixed(make_system(1, energy, co), 0.7, rel_tol=1e-2)
        info = kick_profile.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert info.hits > 0

    def test_import_builds_no_profile(self, child_env):
        code = ("import molstrip.cli; from molstrip.transfer import kick_profile; "
                "print(kick_profile.cache_info().currsize)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=child_env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0"

    def test_sign_changing_fit_rejected(self):
        # Sum A = 1 and alpha > 0 pass HfsAtom, but the kick turns negative.
        atom = HfsAtom(Z=7.0, A=(-0.5, 1.5, 0.0), alpha=(1.0, 3.0, 1.0))
        assert kick_magnitude(atom, 10.0, np.array([1.0]))[0] < 0.0
        with pytest.raises(ValueError, match="Z=7 "):
            kick_profile(atom)


class TestGradientRelation:
    def test_kick_is_minus_grad_phase(self, nitrogen):
        # The production kick of one atom at the origin is the radial part of
        # -grad chi, taken by central differences along x and y.
        rng = np.random.default_rng(7)
        v = 12.5
        r = rng.uniform(0.05, 10.0, 100)
        ang = rng.uniform(0.0, 2.0 * math.pi, 100)
        points = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        kicks = _single_atom_kick(nitrogen, v, points)
        for (bx, by), rad, q in zip(points, r, kicks):
            h = 1e-5 * rad
            gx = (
                eikonal_phase_single(nitrogen, v, math.hypot(bx + h, by))
                - eikonal_phase_single(nitrogen, v, math.hypot(bx - h, by))
            ) / (2 * h)
            gy = (
                eikonal_phase_single(nitrogen, v, math.hypot(bx, by + h))
                - eikonal_phase_single(nitrogen, v, math.hypot(bx, by - h))
            ) / (2 * h)
            assert -gx == pytest.approx(q * bx / rad, rel=1e-5, abs=1e-12)
            assert -gy == pytest.approx(q * by / rad, rel=1e-5, abs=1e-12)
