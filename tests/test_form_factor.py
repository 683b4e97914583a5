"""Hydrogenic sudden-kick matrix elements and the W_ion table."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from molstrip.form_factor import (
    TABLE_S_MAX,
    IonizationTable,
    ProjectileSpec,
    _HermiteSteps,
    _shell_probabilities,
    _survival_batch,
    _zeta3,
    build_ionization_table,
    ionization_probability,
)


class TestProjectileSpec:
    @pytest.mark.parametrize("n_p,z_eff", [(1, 26.0), (2, 25.0), (3, 24.0)])
    def test_default_effective_charge(self, n_p, z_eff):
        assert ProjectileSpec(26.0, n_p).Z_eff == pytest.approx(z_eff)

    def test_effective_charge_override(self):
        assert ProjectileSpec(26.0, 2, z_eff=25.5).Z_eff == pytest.approx(25.5)

    def test_net_charge(self):
        assert ProjectileSpec(26.0, 3).net_charge == pytest.approx(23.0)

    @pytest.mark.parametrize("n_p", [0, 4])
    def test_electron_count_range(self, n_p):
        with pytest.raises(ValueError):
            ProjectileSpec(26.0, n_p)

    def test_requires_positive_net_charge(self):
        for z in (3.0, float("nan")):
            with pytest.raises(ValueError, match="net charge"):
                ProjectileSpec(z, 3)
        with pytest.raises(ValueError, match="Z_nucleus must be finite, got inf"):
            ProjectileSpec(float("inf"), 2)

    def test_rejects_nonpositive_override(self):
        for z_eff in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="Z_eff"):
                ProjectileSpec(26.0, 1, z_eff=z_eff)


class TestElasticFormFactor:
    # The elastic term F(s)^2 = (1 + s^2/4)^-4 is what n_max = 1 keeps of P_bound.
    def test_normalization_at_zero_kick(self):
        assert 1.0 - ionization_probability(0.0, n_max=1) == 1.0

    def test_closed_form_at_twice_z(self):
        # |Q| = 2 Z_eff is s = 2, where F = 1/4.
        assert 1.0 - ionization_probability(2.0, n_max=1) == pytest.approx(0.25**2, rel=1e-14)


class TestShellProbabilities:
    @staticmethod
    def _partial_wave_route(n, s):
        """sum_l (2l+1) |int R_nl j_l(s r) R_10 r^2 dr|^2 by adaptive quadrature."""
        ells = np.arange(n)
        norm = np.sqrt((2.0 / n) ** 3 * sp.factorial(n - ells - 1)
                       / (2.0 * n * sp.factorial(n + ells)))

        def amplitudes(r):
            rho = 2.0 * r / n
            r_nl = norm * np.exp(-r / n) * rho**ells * sp.eval_genlaguerre(
                n - ells - 1, 2 * ells + 1, rho)
            return r_nl * sp.spherical_jn(ells, s * r) * 2.0 * np.exp(-r) * r * r

        # exp(-r (1 + 1/n)) r^(n+1) is below 1e-15 of its peak well before r = 80.
        amps, _ = integrate.quad_vec(amplitudes, 0.0, 80.0, epsabs=0.0, epsrel=1e-12,
                                     limit=2000)
        return float(np.sum((2 * ells + 1) * amps * amps))

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_closed_form_matches_partial_waves(self, n):
        for s in (0.1, 1.0, 5.0, 20.0):
            closed = _shell_probabilities(np.array([s]), n)[0, n - 1]
            assert closed == pytest.approx(self._partial_wave_route(n, s), rel=1e-10), s

    def test_default_table_matches_partial_wave_build(self):
        # W_ion of the default table as the partial-wave radial quadrature
        # (24-node Gauss-Legendre panels to r = 60) built it.
        expected = {
            1: 0.0007155779697947118, 2: 0.0029041301153196475,
            10: 0.09801275662108466, 40: 0.9155999170966576,
            100: 0.9995584469957798, 200: 0.9999973976943194,
            300: 0.9999998898625524, 399: 0.999999988423434,
        }
        w = build_ionization_table().w_values
        for i, value in expected.items():
            assert abs(w[i] - value) <= 5e-15, i

    @pytest.mark.parametrize("s", [80.0, 100.0, 150.0, 200.0])
    def test_large_kick_survival_is_elastic(self, s):
        assert abs(1.0 - ionization_probability(s) - (1.0 + 0.25 * s * s) ** -4) <= 1e-12

    @pytest.mark.parametrize("s", [1e100, 1e200, 1e308])
    def test_huge_kick_is_finite(self, s):
        assert ionization_probability(s) == 1.0


class TestBoundSurvival:
    def test_identity_at_zero_kick(self):
        assert 1.0 - ionization_probability(0.0, n_max=12) == pytest.approx(1.0, abs=1e-10)

    def test_vanishes_at_large_kick(self):
        assert 1.0 - ionization_probability(40.0) < 1e-3

    def test_elastic_only_matches_closed_form(self):
        # n_max = 1 keeps just the ground-state term, F(s)^2 = (1 + s^2/4)^-4.
        for s in (0.2, 1.0, 3.0, 7.0):
            expected = (1.0 + 0.25 * s * s) ** -4
            assert 1.0 - ionization_probability(s, n_max=1) == pytest.approx(expected, abs=1e-8)

    def test_domain(self):
        for s in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="s must be non-negative"):
                ionization_probability(s)
        for n_max in (0, -3):
            with pytest.raises(ValueError, match="n_max"):
                ionization_probability(1.0, n_max=n_max)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_is_a_probability(self, s):
        assert 0.0 <= 1.0 - ionization_probability(s, n_max=10) <= 1.0


class TestIonizationProbability:
    def test_zero_kick(self):
        assert ionization_probability(0.0) == 0.0

    def test_saturates_at_large_kick(self):
        assert ionization_probability(30.0) == pytest.approx(1.0, abs=1e-3)

    def test_subset_of_inelastic(self):
        # Ionization cannot exceed the total inelastic probability 1 - F^2.
        for s in np.linspace(0.05, 10.0, 30):
            bound_total = 1.0 - (1.0 + 0.25 * s * s) ** -4
            assert ionization_probability(s) <= bound_total + 1e-10

    def test_small_kick_sum_rule(self):
        # 1 - F^2 = s^2 + O(s^4) from the <r^2> moment of the 1s density.
        for s in (0.01, 0.05, 0.1):
            inelastic = ionization_probability(s, n_max=1)
            assert abs(inelastic / s**2 - 1.0) <= 0.05

    def test_shell_cutoff_convergence(self):
        for s in np.linspace(0.0, 20.0, 41):
            w10 = ionization_probability(s, n_max=10)
            w20 = ionization_probability(s, n_max=20)
            assert abs(w20 - w10) <= 5e-4


class TestIonizationTable:
    def test_grid_preconditions(self):
        with pytest.raises(ValueError):
            build_ionization_table(s_max=10.0)
        with pytest.raises(ValueError):
            build_ionization_table(n_points=100)
        with pytest.raises(ValueError):
            build_ionization_table(n_max=5)
        # The range is fixed: s_max is accepted only at TABLE_S_MAX, and is named otherwise.
        assert TABLE_S_MAX == 20.0
        for s_max in (25.0, 100.0, np.nextafter(20.0, 0.0)):
            with pytest.raises(ValueError, match=r"^s_max must lie in \[20, 20\], got "):
                build_ionization_table(s_max=s_max)
        for n_points in (200, 1000):
            table = build_ionization_table(20.0, n_points, 10)
            assert table.s_grid[-1] == TABLE_S_MAX and len(table.w_values) == n_points

    def test_zero_and_bounds(self, ionization_table):
        assert ionization_table(0.0) == 0.0
        assert np.all(ionization_table.w_values >= 0.0)
        assert np.all(ionization_table.w_values <= 1.0)
        assert np.all(np.diff(ionization_table.w_values) >= 0.0)
        assert ionization_table.w_values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_interpolation_matches_direct_evaluation(self, ionization_table):
        rng = np.random.default_rng(1234)
        s = rng.uniform(0.0, TABLE_S_MAX, 1000)
        direct = np.array([ionization_probability(v, ionization_table.n_max) for v in s])
        assert np.max(np.abs(ionization_table(s) - direct)) <= 1e-4

    def test_interpolation_stays_bracketed(self, ionization_table):
        grid, vals = ionization_table.s_grid, ionization_table.w_values
        rng = np.random.default_rng(5)
        idx = rng.integers(0, grid.size - 1, 200)
        frac = rng.uniform(0.0, 1.0, 200)
        s_mid = grid[idx] + frac * (grid[idx + 1] - grid[idx])
        w_mid = ionization_table(s_mid)
        lo = np.minimum(vals[idx], vals[idx + 1]) - 1e-12
        hi = np.maximum(vals[idx], vals[idx + 1]) + 1e-12
        assert np.all(w_mid >= lo) and np.all(w_mid <= hi)

    def test_beyond_grid_matches_closed_form(self, ionization_table):
        above = np.nextafter(TABLE_S_MAX, np.inf)
        assert abs(ionization_table(above) - ionization_table(TABLE_S_MAX)) <= 1e-15
        for s in (25.0, 80.0):
            assert abs(ionization_table(s) - ionization_probability(s)) <= 1e-15

    # The edges of the lookup's screening, next to ordinary kicks.
    EDGES = [math.nan, -1.0, -0.0, 0.0, 20.0, float(np.nextafter(20.0, math.inf)),
             1e300, math.inf, 1e-3, 0.37, 7.5, 19.99]

    def reference_lookup(self, table, s: float) -> float:
        """One point the way the lookup reads it: nan off the domain, the fit on
        [0, TABLE_S_MAX], the closed form past it, clipped to [0, 1]."""
        if not s >= 0.0:
            return math.nan
        if s > TABLE_S_MAX:
            w = 1.0 - _survival_batch(np.array([s]), table.n_max)[0]
        else:
            w = table._fit(np.array([s * ((len(table.w_values) - 1) / TABLE_S_MAX)]))[0]
        return min(max(w, 0.0), 1.0)

    def test_array_matches_elementwise_evaluation(self, ionization_table):
        s = np.array(self.EDGES).reshape(-1, 3)
        w = ionization_table(s)
        assert w.shape == s.shape
        expected = [self.reference_lookup(ionization_table, x) for x in s.ravel()]
        np.testing.assert_array_equal(w.ravel(), expected)
        assert np.array_equal(np.isnan(w), ~(s >= 0.0))
        for x, wx in zip(s.ravel(), w.ravel()):
            for scalar in (np.array(x), float(x)):
                out = ionization_table(scalar)
                assert isinstance(out, np.ndarray) and out.shape == ()
                np.testing.assert_array_equal(out, wx)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_monotone_and_clipped(self, ionization_table, s, ds):
        w_lo, w_hi = ionization_table(s), ionization_table(s + ds)
        assert 0.0 <= w_lo <= 1.0
        assert w_hi >= w_lo - 1e-9


class TestHermiteSteps:
    """The piecewise Hermite that holds both the W_ion table and the kick profiles."""

    @pytest.mark.parametrize("degree", [3, 5])
    def test_reproduces_a_polynomial_of_its_degree(self, degree):
        # p(t) = sum_k c_k (t / n)^k stays of order 1 on [0, n].
        n = 8
        coef = np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)
        poly = np.polynomial.Polynomial(coef)(np.polynomial.Polynomial([0.0, 1.0 / n]))
        nodes = np.arange(n + 1.0)
        derivs = [poly.deriv(k)(nodes) for k in range(1, (degree + 1) // 2)]
        fit = _HermiteSteps.fit(poly(nodes), *derivs)
        assert fit.coef.shape == (degree + 1, n)
        t = np.linspace(0.0, n, 4001)       # ends at t = n, the end of the last step
        assert np.abs(fit(t.copy()) - poly(t)).max() <= 1e-12
        # At an interior node the fraction is 0, so the lowest coefficient, the value, comes back.
        assert np.array_equal(fit(nodes[:-1].copy()), poly(nodes[:-1]))


# The default table, a fine grid, the coarsest grid allowed, and one between.
TABLE_CONFIGS = [
    {},
    {"s_max": 20.0, "n_points": 1000, "n_max": 20},
    {"s_max": 20.0, "n_points": 200, "n_max": 10},
    {"s_max": 20.0, "n_points": 300, "n_max": 15},
]


class TestPchipMatchesScipy:
    """The numpy PCHIP agrees with scipy's PchipInterpolator to rounding.

    It fits per unit step and scipy per unit of s, so about a third of the
    values differ, by at most 8.4e-16 relative (6 ulps) where measured.
    scipy.interpolate is the reference here only; the package never imports it.
    """

    RTOL = 1e-15

    @staticmethod
    def reference(table):
        from scipy.interpolate import PchipInterpolator

        pchip = PchipInterpolator(table.s_grid, table.w_values, extrapolate=False)
        return lambda s: np.clip(pchip(s), 0.0, 1.0)

    @pytest.mark.parametrize("params", TABLE_CONFIGS)
    def test_within_1e15_relative_on_the_grid(self, params):
        table = build_ionization_table(**params)
        grid = table.s_grid
        rng = np.random.default_rng(2024)
        s = np.concatenate([
            rng.uniform(0.0, TABLE_S_MAX, 10**6),
            grid,
            np.nextafter(grid[1:], -np.inf),
            np.nextafter(grid[:-1], np.inf),
            rng.uniform(0.0, 1e-3, 10**4),
        ])
        expected = self.reference(table)(s)
        assert np.all(np.abs(table(s) - expected) <= self.RTOL * expected)

    def test_scalars_and_edges(self, ionization_table):
        table, expected = ionization_table, self.reference(ionization_table)
        s_max = TABLE_S_MAX
        for s in (0.0, 0.37, 1e-300, s_max):
            value = table(s)
            assert np.shape(value) == ()        # a lookup keeps the shape of s
            assert abs(value - expected(s)) <= self.RTOL * expected(s)
        above = np.nextafter(s_max, np.inf)
        assert table(above) == ionization_probability(above, table.n_max)
        for s in (-1e-300, -1.0, -np.inf, np.nan):
            assert np.isnan(table(s))
        mixed = table(np.array([-1.0, np.nan, 0.5, s_max, 25.0]))
        assert np.isnan(mixed[:2]).all()
        assert mixed[2:4] == pytest.approx(expected(np.array([0.5, s_max])), rel=self.RTOL, abs=0.0)
        assert mixed[4] == ionization_probability(25.0, table.n_max)

    def test_limited_end_slope(self):
        # Secants +0.01 then -0.05: the three-point end slope 0.04 exceeds three
        # times the first secant, so both limit it to 3 m0.
        table = IonizationTable(w_values=np.array([0.9, 0.91, 0.86, 0.87, 0.88]), n_max=20)
        s = np.linspace(0.0, TABLE_S_MAX, 100_001)
        expected = self.reference(table)(s)
        assert np.all(np.abs(table(s) - expected) <= self.RTOL * expected)


def _survival_inline(s, n_max):
    """P_bound from the shell sum written out in full, as a bitwise reference;
    zeta(3, n_max + 1) comes from the production helper, tested on its own below."""
    n = np.arange(2.0, n_max + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = s[:, None] ** 2
        nk2 = n * n * k2
        a = (n - 1.0) ** 2 + nk2
        b = (n + 1.0) ** 2 + nk2
        inelastic = (2.0**8 * n**7 * (k2 / b) * (((n * n - 1.0) / 3.0 + nk2) / b)
                     * (a / b) ** (n - 3.0) / b**4)
    inelastic[np.isinf(b)] = 0.0
    probs = np.concatenate([(1.0 + 0.25 * k2) ** -4, inelastic], axis=1)
    ns = np.arange(n_max - 2, n_max + 1)
    tail = np.mean(probs[:, ns - 1] * ns[None, :] ** 3, axis=1) * _zeta3(n_max)
    return np.clip(probs.sum(axis=1) + tail, 0.0, 1.0)


@pytest.mark.parametrize("n_max", [10, 20])
def test_survival_batch_bitwise_equal_to_inline_sum(n_max):
    # Past TABLE_S_MAX, where the table calls it one batch at a time, and on the grid.
    s = np.array([np.nextafter(20.0, np.inf), 25.0, 60.0, 1e154, 1e300])
    grid = np.linspace(0.0, 40.0, 1001)
    assert np.array_equal(_survival_batch(grid, n_max), _survival_inline(grid, n_max))
    assert np.array_equal(_survival_batch(s, n_max), _survival_inline(s, n_max))
    for v in s:
        one = np.array([v])
        assert _survival_batch(one, n_max)[0] == _survival_inline(one, n_max)[0]


def test_zeta3_is_correctly_rounded():
    # Every n_max the table accepts; scipy's zeta(3, n + 1) is up to 3 ulp off.
    with mp.workdps(40):
        for n in range(10, 1001):
            exact = mp.zeta(3, n + 1)
            assert abs(mp.mpf(_zeta3(n)) - exact) <= 0.5 * math.ulp(float(exact)), n
