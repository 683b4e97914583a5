"""Independent oracles: Monte-Carlo integration, continuum route, Bessel refs."""

import math
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import gammaln, loggamma, spherical_jn

from molstrip import verification
from molstrip.form_factor import ionization_probability
from molstrip.verification import (
    _simpson_weights,
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
        # Below s = 1e-3 the oracle's own floor of 1.283e-12 is more than 4.5e-6
        # of W_ion ~ 0.2834 s^2; below about 1e-5 it returned that floor for any s.
        def no_tables(*args, **kwargs):
            raise AssertionError("no table may be built for a rejected s")

        monkeypatch.setattr(verification, "_k_nodes", no_tables)
        with pytest.raises(ValueError, match=rf"s must lie within \[0.001, 30\], got {s!r}$"):
            continuum_ionization_oracle(s)

    def test_nonfinite_sum_raises(self, monkeypatch):
        def nan_overlaps(k_nodes, l_max, r, weight):
            return np.full((len(k_nodes), l_max + 1), np.nan)

        monkeypatch.setattr(verification, "_coulomb_overlaps", nan_overlaps)
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

    def test_centrifugal_rows_built_per_chunk(self):
        # The sweep builds each radial chunk's l(l+1)/r^2 - 2/r rows as it
        # reaches them: at s = 3 the peak is 5.9 MiB, against 7.8 MiB with the
        # whole (n_r, l) table.  The momentum nodes are built once first, so
        # whatever that first call loads is not counted; the constant rule
        # imports nothing, and the peak is 5.85 MiB cold or warm.
        verification._k_nodes(3.0)
        tracemalloc.start()
        try:
            continuum_ionization_oracle(3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.8 * 2**20

    @pytest.mark.slow
    def test_saturates_at_large_kick(self):
        assert continuum_ionization_oracle(30.0) == pytest.approx(1.0, abs=1e-3)


class TestOracleKernels:
    """The continuum oracle's numpy j_l and log C_l against scipy, on the
    oracle's own grids, and its momentum rule against numpy.polynomial; both
    are the reference here only."""

    def test_panel_rule_is_leggauss_10(self):
        rule = (verification._GL_X.tobytes(), verification._GL_W.tobytes())
        assert rule == tuple(a.tobytes() for a in np.polynomial.legendre.leggauss(10))

    @pytest.mark.parametrize("s", [0.01, 1.0, 3.0, pytest.param(30.0, marks=pytest.mark.slow)])
    def test_spherical_jn_matches_scipy(self, s):
        _, _, l_max, r = verification._oracle_grids(s)
        x = s * r
        table = verification._spherical_jn_table(l_max, x)
        assert table.shape == (len(r), l_max + 1)
        worst = max(np.abs(table[:, l] - spherical_jn(l, x)).max() for l in range(l_max + 1))
        assert worst <= 1e-14

    def test_spherical_jn_tiny_and_large_arguments(self):
        # Below 1e-40 x is read as 1e-40; values that pass 1e250 on the way
        # down are rescaled, so nothing overflows.
        x = np.array([1e-300, 1e-45, 1e-9, 1e-3, 0.5, 40.0, 200.0])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            table = verification._spherical_jn_table(60, x)
        assert np.array_equal(table[:2, 0], [1.0, 1.0])
        ref = spherical_jn(np.arange(61), x[:, None])
        assert np.abs(table - ref).max() <= 1e-14

    @pytest.mark.parametrize("s", [1.0, 30.0])
    def test_coulomb_log_normalization_matches_scipy(self, s):
        k_nodes, _, l_max, _ = verification._oracle_grids(s)
        eta = -1.0 / k_nodes
        ls = np.arange(l_max + 1)
        # log C_l with scipy's gamma functions; l ln 2 - pi eta / 2 is the
        # same on both sides.
        ref = (ls * math.log(2.0) - 0.5 * math.pi * eta[:, None]
               + loggamma(ls + 1.0 + 1j * eta[:, None]).real - gammaln(2 * ls + 2))
        got = verification._coulomb_amplitude_log(eta, l_max)
        # |log C_l| reaches 957 at s = 30, where one ulp is 1.1e-13 and scipy
        # itself lies 5.7e-13 from a 40-digit mpmath value: past |log C_l| = 50
        # the bound grows as 2e-15 |log C_l|.
        assert np.abs(got - ref).max() <= max(1e-13, 2e-15 * np.abs(ref).max())


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
