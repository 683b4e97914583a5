"""Adaptive 2-D quadrature over the impact-parameter plane."""

import math

import numpy as np
import pytest

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


class TestVectorIntegrands:
    def test_componentwise_values_and_errors(self):
        def two_fields(pts):
            g = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2))
            return np.column_stack([g, 2.0 * g])

        values, errors = integrate_b_plane(two_fields, half_width=8.0, rel_tol=1e-5)
        assert values.shape == errors.shape == (2,)
        assert values[0] == pytest.approx(math.pi, rel=1e-5)
        assert values[1] == pytest.approx(2.0 * math.pi, rel=1e-5)


class TestFailureModes:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            integrate_b_plane(gaussian, half_width=0.0)

    def test_nonconvergence_carries_best_estimate(self):
        def needle(pts):
            return 1.0 / (1e-8 + pts[:, 0] ** 2 + pts[:, 1] ** 2)[:, None]

        with pytest.raises(QuadratureError) as excinfo:
            integrate_b_plane(needle, half_width=1.0, rel_tol=1e-10, max_cells=500)
        err = excinfo.value
        assert err.n_cells >= 64
        assert np.all(np.asarray(err.values) > 0)
        assert np.all(np.asarray(err.errors) > 0)

    def test_nonconvergence_respects_max_cells(self):
        def needle(pts):
            return 1.0 / (1e-8 + pts[:, 0] ** 2 + pts[:, 1] ** 2)[:, None]

        for max_cells in (500, 501, 502):
            with pytest.raises(QuadratureError) as excinfo:
                integrate_b_plane(needle, half_width=1.0, rel_tol=1e-10, max_cells=max_cells)
            assert excinfo.value.n_cells <= max_cells


class TestDeterminism:
    def test_repeated_runs_bit_identical(self):
        a = integrate_b_plane(gaussian, half_width=8.0, rel_tol=1e-6)
        b = integrate_b_plane(gaussian, half_width=8.0, rel_tol=1e-6)
        assert np.array_equal(a, b)
