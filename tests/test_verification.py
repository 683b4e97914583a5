"""Independent oracles: Monte-Carlo integration, continuum route, Bessel refs."""

import math
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from molstrip import verification
from molstrip.form_factor import ionization_probability
from molstrip.verification import (
    bessel_reference,
    continuum_ionization_oracle,
    mc_cross_section,
)


def _besseli(x, order):
    with mp.workdps(40):
        return float(mp.besseli(order, mp.mpf(x)))


class TestBesselReference:
    # K0 and K1 of the retired tanh-sinh integral of exp(-x cosh t) cosh(nu t),
    # which every earlier verdict of acceptance criterion 5 used.
    PINS = [
        (1e-8, 18.536612259610777, 99999999.9999999),
        (1e-6, 13.93144207362642, 999999.9999927843),
        (0.01, 4.721244730161095, 99.97389411829624),
        (100.0, 4.656628229175902e-45, 4.6798537356369095e-45),
        (650.0, 2.5125028846628393e-284, 2.51443483698632e-284),
        (700.0, 4.669776431685377e-306, 4.6731107967079664e-306),
    ]

    def test_pinned_values(self):
        assert bessel_reference(1.0, 0) == pytest.approx(0.42102443824070834, rel=1e-14)
        assert bessel_reference(1.0, 1) == pytest.approx(0.6019072301972346, rel=1e-14)
        for x, k0, k1 in self.PINS:
            assert bessel_reference(x, 0) == pytest.approx(k0, rel=1e-15)
            assert bessel_reference(x, 1) == pytest.approx(k1, rel=1e-15)

    @pytest.mark.parametrize("x", [0.1, 0.7, 2.0, 9.0, 31.0])
    def test_wronskian_identity(self, x):
        w = bessel_reference(x, 1) * _besseli(x, 0) + bessel_reference(x, 0) * _besseli(x, 1)
        assert w == pytest.approx(1.0 / x, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf")])
    def test_domain_x(self, bad):
        with pytest.raises(ValueError):
            bessel_reference(bad, 0)

    def test_domain_order(self):
        with pytest.raises(ValueError):
            bessel_reference(1.0, 2)


class TestContinuumOracle:
    def test_domain(self):
        with pytest.raises(ValueError):
            continuum_ionization_oracle(0.0)
        with pytest.raises(ValueError):
            continuum_ionization_oracle(-1.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, 30.000001, 1000.0])
    def test_rejects_nonfinite_or_too_large_s_before_allocating(self, s, monkeypatch):
        # inf used to die in _k_nodes with an unnamed OverflowError, and a
        # large finite s to allocate (l_max + 1) x n_r tables (36 GB at 1000).
        def no_tables(*args, **kwargs):
            raise AssertionError("no table may be built for a rejected s")

        monkeypatch.setattr(verification, "_k_nodes", no_tables)
        with pytest.raises(ValueError, match=r"s must lie within \[0.001, 30\], got"):
            continuum_ionization_oracle(s)

    @pytest.mark.parametrize("s", [1e-4, 1e-8, 1e-300])
    def test_rejects_s_below_its_floor_before_allocating(self, s, monkeypatch):
        # Below s = 1e-3 the bound sum at n_max = 1000, which the oracle is
        # there to check, itself drifts (5.8e-8 relative at s = 1e-4).
        def no_tables(*args, **kwargs):
            raise AssertionError("no table may be built for a rejected s")

        monkeypatch.setattr(verification, "_k_nodes", no_tables)
        with pytest.raises(ValueError, match=rf"s must lie within \[0.001, 30\], got {s!r}$"):
            continuum_ionization_oracle(s)

    def test_nonfinite_sum_raises(self, monkeypatch):
        def nan_weight(s):
            return np.array([1.0]), np.array([np.nan])

        monkeypatch.setattr(verification, "_k_nodes", nan_weight)
        with pytest.raises(RuntimeError, match="failed to converge at s=0.3"):
            continuum_ionization_oracle(0.3)

    def test_small_kick_subset_bound(self):
        s = 0.01
        w = continuum_ionization_oracle(s)
        inelastic = ionization_probability(s, n_max=1)     # 1 - F(s)^2
        assert 0.0 < w <= inelastic * (1.0 + 1e-6)
        assert inelastic == pytest.approx(s * s, rel=0.01)

    def test_matches_bound_route_at_unit_kick(self):
        assert continuum_ionization_oracle(1.0) == pytest.approx(
            ionization_probability(1.0), abs=1e-3
        )

    @pytest.mark.parametrize("s", [0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 30.0])
    def test_closure_with_bound_route(self, s):
        # Continuum plus bound shells is 1, and the two routes share no code.
        assert continuum_ionization_oracle(s) == pytest.approx(
            ionization_probability(s, n_max=1000), rel=1e-11
        )

    @pytest.mark.parametrize(
        "s,expected,numerov",
        [
            (0.01, 2.8346808815680791e-05, 2.8346738497282108e-05),
            (0.3, 0.029636900421091034, 0.02963684808509152),
            (1.0, 0.44645114451237033, 0.44645079952595196),
            (3.0, 0.98836624173510179, 0.988377950268629),
        ],
    )
    def test_pinned_values(self, s, expected, numerov):
        # `numerov` records the partial-wave Numerov oracle this replaced, whose
        # shown accuracy was 2e-5 (worst: 1.18e-5 at s = 3).
        w = continuum_ionization_oracle(s)
        assert w == pytest.approx(expected, rel=1e-12)
        assert w == pytest.approx(numerov, rel=2e-5)

    @pytest.mark.parametrize("s", [1e-3, 1.0, 30.0])
    def test_matches_mpmath_quadrature(self, s):
        # The same closed form, integrated by mpmath's adaptive quadrature at
        # 30 digits: this checks the panels, also at s = 1e-3, where closure
        # with the bound route holds only to 1.5e-9.  The worst is 7.2e-14
        # at s = 30.
        with mp.workdps(30):
            sm = mp.mpf(s)
            s2 = sm * sm

            def density(k):
                return (2**8 * k * s2 * (s2 + (1 + k * k) / 3)
                        * mp.exp(-2 / k * mp.atan2(2 * k, s2 - k * k + 1))
                        / (((sm + k) ** 2 + 1) ** 3 * ((sm - k) ** 2 + 1) ** 3
                           * -mp.expm1(-2 * mp.pi / k)))

            edges = [0, 1, 3] + ([sm - 6, sm, sm + 6] if s > 6 else [6]) + [mp.inf]
            ref = float(mp.quad(density, edges))
        assert continuum_ionization_oracle(s) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("s", [1e-3, 1.0, 30.0])
    def test_k_nodes_layout(self, s):
        # Sorted nodes with positive weights that span [0, 1000 (s + 6)], and
        # at most 77 panels of 10 nodes.
        k, weights = verification._k_nodes(s)
        assert len(k) == len(weights) <= 770
        assert np.all(np.diff(k) > 0) and k[0] > 0 and np.all(weights > 0)
        assert weights.sum() == pytest.approx(1000.0 * (s + 6.0), rel=1e-14)

    def test_panel_rule_is_leggauss_10(self):
        rule = (verification._GL_X.tobytes(), verification._GL_W.tobytes())
        assert rule == tuple(a.tobytes() for a in np.polynomial.legendre.leggauss(10))

    def test_peak_memory_bound(self):
        # The density is one numpy expression over the 500 momentum nodes at
        # s = 1: the peak is 31 kB.
        tracemalloc.start()
        try:
            continuum_ionization_oracle(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_saturates_at_large_kick(self):
        assert continuum_ionization_oracle(30.0) == pytest.approx(1.0, abs=1e-3)


def test_oracles_load_no_scipy(child_env):
    # The oracles are numpy and mpmath; importing scipy.special used to add
    # about 25 MB and 0.35 s to every verification run.  Neither do they load
    # numpy.polynomial (leggauss) or numpy.ma (np.unique): 12 modules.
    code = ("import sys\n"
            "from molstrip import verification\n"
            "from molstrip.atomic_data import MoleculeGeometry, builtin_hfs_table\n"
            "from molstrip.cross_section import CollisionSystem\n"
            "from molstrip.form_factor import ProjectileSpec, build_ionization_table\n"
            "from molstrip.kinematics import velocity_from_energy\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('scipy') or m in ('numpy.polynomial', 'numpy.ma'))\n"
            "print(loaded())\n"
            "verification.continuum_ionization_oracle(0.3)\n"
            "n = builtin_hfs_table()[7]\n"
            "system = CollisionSystem(MoleculeGeometry.diatomic(n, n, 2.07), ProjectileSpec(26.0, 1),\n"
            "                         velocity_from_energy(10.0), build_ionization_table())\n"
            "verification.mc_cross_section(system, 0.5, n_samples=10**4)\n"
            "print(loaded())\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]


class TestMonteCarlo:
    # (value, std_error) per channel from the sampler that built each block's
    # points with fancy indexing and column_stack and summed the weights along
    # axis 0; the draws are the same, so only rounding may differ.
    PINNED_N2 = [(0.0025821793071511387, 1.6984080666958585e-05),
                 (0.00043025981190693416, 9.23681114994964e-06)]
    PINNED_OCO = [(0.006441895746814048, 3.8226053748647856e-05),
                  (0.0007154601013669504, 1.4638242584218242e-05),
                  (0.0005229757664133108, 1.3669832322381309e-05)]

    @pytest.fixture(scope="class")
    def oco_system(self, hfs_table, make_system):
        """Fe23+ at 100 MeV/u on O-C-O with one oxygen 0.3 a.u. off the axis."""
        from molstrip.atomic_data import MoleculeGeometry

        geometry = MoleculeGeometry(
            atoms=(hfs_table[8], hfs_table[6], hfs_table[8]),
            positions=((0.0, 0.0, 2.2), (0.0, 0.0, 0.0), (0.0, 0.3, -2.2)),
        )
        return make_system(3, 100.0, geometry=geometry)

    def test_rejects_small_sample_counts(self, make_system):
        with pytest.raises(ValueError):
            mc_cross_section(make_system(1, 10.0), 0.5, n_samples=100)

    @pytest.mark.parametrize("kwargs,name", [
        ({"n_samples": 2e4}, "n_samples"),
        ({"n_samples": 10**4 - 1}, "n_samples"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
    ], ids=["float_n_samples", "small_n_samples", "negative_seed", "float_seed"])
    def test_bad_arguments_are_named(self, make_system, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            mc_cross_section(make_system(1, 10.0), 0.5, **kwargs)

    def test_pinned_diatomic(self, make_system):
        # 100,000 samples: one full 65,536-point block and one partial block.
        est = mc_cross_section(make_system(2, 100.0), 0.8, n_samples=100_000, seed=3)
        got = [(e.value, e.std_error) for e in est]
        for (value, err), (pin_value, pin_err) in zip(got, self.PINNED_N2, strict=True):
            assert value == pytest.approx(pin_value, rel=1e-12)
            assert err == pytest.approx(pin_err, rel=1e-12)

    def test_pinned_off_axis_triatomic(self, oco_system):
        from molstrip.cross_section import cross_section_fixed

        est = mc_cross_section(oco_system, 0.6, n_samples=10**5, seed=5)
        for e, (pin_value, pin_err) in zip(est, self.PINNED_OCO, strict=True):
            assert e.value == pytest.approx(pin_value, rel=1e-12)
            assert e.std_error == pytest.approx(pin_err, rel=1e-12)
        quad = cross_section_fixed(oco_system, 0.6, rel_tol=1e-3)
        for q, e in zip(quad, est, strict=True):
            assert abs(q.sigma_au - e.value) <= 3.0 * (q.quad_error + e.std_error)

    def test_peak_memory_bound(self, make_system):
        # Two full blocks.  Each block's draws sit in buffers allocated once
        # per call and the rest runs on 8,192-point slices: the peak is 2.4 MiB,
        # against 7.1 MiB when each block's arithmetic ran on the whole block.
        system = make_system(2, 100.0)
        mc_cross_section(system, 0.8, n_samples=10**4)     # kick profiles cached
        tracemalloc.start()
        try:
            mc_cross_section(system, 0.8, n_samples=2 * 65_536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

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
