"""Adaptive 2-D quadrature over the impact-parameter plane."""

import math
import re

import numpy as np
import pytest

from molstrip import quadrature
from molstrip.quadrature import QuadratureError, integrate_b_plane


def gaussian(pts):
    return np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2))[:, None]


class TestKnownIntegrals:
    def test_gaussian_integrates_to_pi(self):
        values, errors = integrate_b_plane(gaussian, half_width=8.0, rel_tol=1e-6)
        assert values.shape == errors.shape == (1,)
        value, error = values[0], errors[0]
        assert value == pytest.approx(math.pi, rel=1e-6)
        assert abs(value - math.pi) <= 3.0 * error + 1e-9 * math.pi

    def test_disk_indicator_integrates_to_area(self):
        def disk(pts):
            return (pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 4.0).astype(float)[:, None]

        values, _ = integrate_b_plane(disk, half_width=3.0, rel_tol=1e-3)
        assert values[0] == pytest.approx(4.0 * math.pi, rel=1e-3)

    def test_quadrant_symmetry_fast_path_agrees(self):
        (full,), (err_full,) = integrate_b_plane(gaussian, half_width=8.0, rel_tol=1e-6)
        (quad,), (err_quad,) = integrate_b_plane(
            gaussian, half_width=8.0, rel_tol=1e-6, quadrant=True
        )
        assert quad == pytest.approx(full, abs=3.0 * (err_full + err_quad) + 1e-9)

    def test_offset_peak_with_seeded_splits(self):
        def shifted(pts):
            return np.exp(-((pts[:, 0] - 2.5) ** 2 + (pts[:, 1] + 1.0) ** 2))[:, None]

        values, _ = integrate_b_plane(
            shifted, half_width=10.0, rel_tol=1e-5, x_splits=(2.5,), y_splits=(-1.0,)
        )
        assert values[0] == pytest.approx(math.pi, rel=1e-5)


class TestGenzMalikRule:
    """The 17-node rule pair on a non-square cell away from the origin."""

    X0, Y0, DX, DY = 1.3, -0.7, 0.9, 2.1

    def weights(self):
        high = quadrature._WEIGHTS[:, 0]
        return {7: high, 5: high - quadrature._WEIGHTS[:, 1]}

    @pytest.mark.parametrize("degree", [7, 5])
    def test_integrates_monomials_exactly(self, degree):
        x = self.X0 + self.DX * quadrature._NODES[:, 0]
        y = self.Y0 + self.DY * quadrature._NODES[:, 1]
        w = self.weights()[degree] * self.DX * self.DY
        x1, y1 = self.X0 + self.DX, self.Y0 + self.DY
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                exact = ((x1 ** (i + 1) - self.X0 ** (i + 1)) / (i + 1)
                         * (y1 ** (j + 1) - self.Y0 ** (j + 1)) / (j + 1))
                assert w @ (x**i * y**j) == pytest.approx(exact, rel=1e-13), (i, j)

    def test_weights_sum_to_one_and_nodes_lie_inside(self):
        for w in self.weights().values():
            assert w.sum() == pytest.approx(1.0, rel=1e-15)
        assert np.all(self.weights()[5][13:] == 0.0)    # embedded: 13 of the 17 nodes
        assert quadrature._NODES.shape == (17, 2)
        assert np.all((quadrature._NODES > 0.0) & (quadrature._NODES < 1.0))


class TestNodePoints:
    @pytest.mark.parametrize("k", [1, 128, 129])
    def test_node_points_bitwise(self, k):
        # 129 cells take a second integrand call.
        rng = np.random.default_rng(k)
        rects = np.column_stack([rng.uniform(-80.0, 80.0, (k, 2)),
                                 rng.uniform(1e-4, 20.0, (k, 2))])
        seen = []

        def integrand(points):
            seen.append(points.copy())
            return np.ones((len(points), 1))

        quadrature._eval_cells(integrand, rects)
        parts = [rects[i:i + quadrature._CALL_CELLS]
                 for i in range(0, k, quadrature._CALL_CELLS)]
        assert len(seen) == len(parts) == (2 if k > quadrature._CALL_CELLS else 1)
        for points, part in zip(seen, parts):
            expected = part[:, None, 0:2] + part[:, None, 2:4] * quadrature._NODES
            assert points.tobytes() == expected.reshape(-1, 2).tobytes()


class TestVectorIntegrands:
    def test_componentwise_values_and_errors(self):
        def two_fields(pts):
            g = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2))
            return np.column_stack([g, 2.0 * g])

        values, errors = integrate_b_plane(two_fields, half_width=8.0, rel_tol=1e-5)
        assert values.shape == errors.shape == (2,)
        assert values[0] == pytest.approx(math.pi, rel=1e-5)
        assert values[1] == pytest.approx(2.0 * math.pi, rel=1e-5)


def failure_report(exc: QuadratureError) -> tuple[float, int]:
    """The achieved relative error and the cell count a refinement failure states."""
    match = re.search(r"achieved (\S+) with (\d+) cells", str(exc))
    assert match, str(exc)
    return float(match[1]), int(match[2])


class TestFailureModes:
    def test_domain_validation(self):
        # nan and inf used to fail as a QuadratureError, "achieved nan with 64 cells".
        def never(pts):
            raise AssertionError("the integrand must not be evaluated")

        for half_width in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="half_width must be positive and finite"):
                integrate_b_plane(never, half_width=half_width)

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-3, 1.0, 2.0, math.nan, math.inf, -math.inf])
    def test_bad_rel_tol_is_named_before_any_evaluation(self, rel_tol):
        # 0 and negative tolerances used to refine to the cell budget and nan
        # to fail as a QuadratureError; inf returned an unrefined estimate.
        def never(pts):
            raise AssertionError("the integrand must not be evaluated")

        with pytest.raises(ValueError, match=r"rel_tol must be finite and in \(0, 1\)"):
            integrate_b_plane(never, half_width=1.0, rel_tol=rel_tol)

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        def needle(pts):
            return 1.0 / (1e-8 + pts[:, 0] ** 2 + pts[:, 1] ** 2)[:, None]

        monkeypatch.setattr(quadrature, "_MAX_CELLS", 500)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_b_plane(needle, half_width=1.0, rel_tol=1e-10)
        achieved, n_cells = failure_report(excinfo.value)
        assert n_cells >= 64
        assert 1e-10 < achieved < math.inf

    def test_nonconvergence_respects_max_cells(self, monkeypatch):
        def needle(pts):
            return 1.0 / (1e-8 + pts[:, 0] ** 2 + pts[:, 1] ** 2)[:, None]

        for max_cells in (500, 501, 502):
            monkeypatch.setattr(quadrature, "_MAX_CELLS", max_cells)
            with pytest.raises(QuadratureError) as excinfo:
                integrate_b_plane(needle, half_width=1.0, rel_tol=1e-10)
            assert failure_report(excinfo.value)[1] <= max_cells


class TestDeterminism:
    def test_repeated_runs_bit_identical(self):
        a = integrate_b_plane(gaussian, half_width=8.0, rel_tol=1e-6)
        b = integrate_b_plane(gaussian, half_width=8.0, rel_tol=1e-6)
        assert np.array_equal(a, b)
