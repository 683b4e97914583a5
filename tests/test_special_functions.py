"""McDonald functions K0/K1: accuracy, asymptotes, identities, domain;
the package's imports and declared dependencies."""

import ast
import math
import re
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molstrip.special_functions import bessel_k0, bessel_k1
from molstrip.verification import bessel_reference

EULER_GAMMA = 0.5772156649015329


class TestPinnedValues:
    def test_k0_at_one(self):
        assert bessel_k0(1.0) == pytest.approx(0.42102443824070834, rel=1e-12)

    def test_k1_at_one(self):
        assert bessel_k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-8, 1e-4, 0.1, 1.0, 5.0, 30.0, 100.0, 400.0, 700.0])
    def test_against_reference(self, x):
        assert bessel_k0(x) == pytest.approx(bessel_reference(x, 0), rel=1e-12)
        assert bessel_k1(x) == pytest.approx(bessel_reference(x, 1), rel=1e-12)


class TestAsymptotes:
    def test_k0_small_argument_log(self):
        # K0(x) -> -ln(x/2) - gamma as x -> 0+
        for x in (1e-4, 1e-6, 1e-8):
            assert bessel_k0(x) - (-math.log(x / 2.0) - EULER_GAMMA) == pytest.approx(
                0.0, abs=1e-7
            )

    def test_k1_small_argument_pole(self):
        for x in (1e-4, 1e-6, 1e-8):
            assert x * bessel_k1(x) == pytest.approx(1.0, abs=1e-7)

    def test_k0_large_argument_expansion(self):
        x = 50.0
        asym = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1.0 - 1.0 / (8 * x))
        assert bessel_k0(x) == pytest.approx(asym, rel=5e-4)

    def test_underflow_returns_zero(self):
        assert bessel_k0(800.0) == 0.0
        assert bessel_k1(800.0) == 0.0


class TestIdentities:
    def test_wronskian_at_two(self):
        x = 2.0
        with mp.workdps(40):
            i0, i1 = float(mp.besseli(0, x)), float(mp.besseli(1, x))
        w = bessel_k1(x) * i0 + bessel_k0(x) * i1
        assert w == pytest.approx(1.0 / x, rel=1e-12)

    def test_k0_derivative_is_minus_k1(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(0.05, 20.0, 100)
        for x in xs:
            h = 1e-5 * x
            diff = (bessel_k0(x + h) - bessel_k0(x - h)) / (2 * h)
            assert diff == pytest.approx(-bessel_k1(x), rel=1e-6)


class TestShape:
    def test_positive_and_strictly_decreasing(self):
        grid = np.geomspace(1e-8, 700.0, 1200)
        k0 = np.array([bessel_k0(x) for x in grid])
        k1 = np.array([bessel_k1(x) for x in grid])
        assert np.all(k0 > 0)
        assert np.all(k1 > 0)
        assert np.all(np.diff(k0) < 0)
        assert np.all(np.diff(k1) < 0)

    def test_bit_reproducible(self):
        for x in (0.3, 2.0, 77.7):
            assert bessel_k0(x) == bessel_k0(x)
            assert bessel_k1(x) == bessel_k1(x)


class TestDomain:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonpositive_and_nonfinite(self, bad):
        for kernel in (bessel_k0, bessel_k1):
            message = f"{kernel.__name__} requires a positive finite argument"
            with pytest.raises(ValueError, match=message):
                kernel(bad)
            # One bad element rejects a whole array.
            with pytest.raises(ValueError, match=message):
                kernel(np.array([0.5, 2.0, bad, 3.0]))


class TestAccuracy:
    """The trapezoid sum, the closed forms at x <= 1e-9 and the seam between
    them against the 40-digit mpmath reference."""

    X = np.concatenate([np.geomspace(1e-8, 700.0, 200),
                        [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)],
                        [np.nextafter(1e-9, 0.0), 1e-9, np.nextafter(1e-9, 1.0)]])

    def test_within_2e15_of_reference(self):
        for kernel, order in ((bessel_k0, 0), (bessel_k1, 1)):
            values = kernel(self.X)
            worst = max(abs(v / bessel_reference(x, order) - 1.0) for x, v in zip(self.X, values))
            assert worst <= 2e-15, (order, worst)

    @pytest.mark.parametrize("x", [np.nextafter(1075 * math.log(2.0), np.inf), 745.2, 800.0,
                                   1e5, 1e300, np.finfo(float).max])
    def test_zero_past_underflow_without_warning(self, x):
        with np.errstate(all="raise"):
            assert bessel_k0(x) == bessel_k1(x) == 0.0
            assert np.array_equal(bessel_k0(np.array([x, 3.0]))[:1], [0.0])
            assert np.array_equal(bessel_k1(np.array([x, 3.0]))[:1], [0.0])

    def test_continuous_and_decreasing_across_the_seam(self):
        # Closed forms at x <= 1e-9, the trapezoid sum above.  Neighbouring
        # doubles move K by less than the sum's rounding, so the ordering is
        # checked at relative steps in x where K moves by ~1e-13: K1 ~ 1/x
        # moves as x, K0 ~ -ln x about twenty times less.
        for kernel, step in ((bessel_k0, 2e-12), (bessel_k1, 1e-13)):
            x = 1e-9 * (1.0 + np.arange(-10, 11) * step)
            assert x[10] == 1e-9
            values = kernel(x)
            assert np.all(np.diff(values) < 0.0)
            assert np.all(np.abs(np.diff(values) / values[1:]) > 0.5e-13)
            edge = kernel(np.array([np.nextafter(1e-9, 0.0), 1e-9, np.nextafter(1e-9, 1.0)]))
            assert edge == pytest.approx(edge[1], rel=1e-14, abs=0.0)

    def test_denormal_argument(self):
        # 1/x overflows below 5.6e-309: K1 is inf there, with no warning, and
        # K0 stays -ln(x/2) - gamma.
        assert bessel_k1(5e-324) == math.inf
        assert bessel_k0(5e-324) == pytest.approx(math.log(2.0) - math.log(5e-324) - EULER_GAMMA,
                                                   rel=1e-15)


class TestArrays:
    """An array in gives an array out, from the same pass as a scalar."""

    def test_scalar_gives_float(self):
        # A scalar gives a 0-d float64 array, bitwise the array route's element.
        for x in (2.0, 3, np.float64(0.25), np.array(1.5)):
            for kernel in (bessel_k0, bessel_k1):
                out = kernel(x)
                assert isinstance(out, np.ndarray) and out.shape == ()
                assert out == kernel(np.array([float(x), 7.25]))[0]
        assert bessel_k1(np.array(1.5)) == bessel_k1(np.array([1.5, 7.25]))[0]

    def test_shape_kept(self):
        x = np.array([1e-8, 1e-3, 0.5, 1.0, 7.25, 80.0, 700.0, 800.0])
        for kernel in (bessel_k0, bessel_k1):
            flat = kernel(x)
            assert np.array_equal(kernel(x.reshape(2, 4)), flat.reshape(2, 4))
            assert np.array_equal(flat, [kernel(v) for v in x])

    def test_empty_gives_empty(self):
        for kernel in (bessel_k0, bessel_k1):
            out = kernel(np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,)


def _imported_modules(tree):
    """Every module an absolute import statement in a parsed module names."""
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    return names + [n.module for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.level == 0]


class TestOneKernel:
    """The package, its oracles included, evaluates everything in numpy and
    mpmath; scipy serves only the tests, as a reference."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "molstrip"

    def test_detector_sees_every_spelling(self):
        # Relative imports name package modules and are left out.
        code = ("from scipy import special as sp\nimport scipy.special as ss\n"
                "from scipy.special import k1e\nimport scipy\n"
                "from . import cli\nfrom .transfer import x\n")
        assert _imported_modules(ast.parse(code)) == ["scipy.special", "scipy", "scipy",
                                                      "scipy.special"]

    def test_no_module_imports_scipy(self):
        modules = sorted(self.SRC.glob("*.py"))
        assert {self.SRC / "transfer.py", self.SRC / "verification.py"} <= set(modules)
        trees = {p.name: ast.parse(p.read_text()) for p in modules}
        importers = sorted(name for name, tree in trees.items()
                           if any(m.split(".")[0] == "scipy" for m in _imported_modules(tree)))
        assert importers == []


class TestDependencies:
    """pyproject.toml declares what the package and its tests import."""

    ROOT = Path(__file__).resolve().parents[1]

    @staticmethod
    def _names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}

    def test_runtime_dependencies_are_the_third_party_imports(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((self.ROOT / "pyproject.toml").read_text())["project"]
        imported = {m.split(".")[0] for p in (self.ROOT / "src" / "molstrip").glob("*.py")
                    for m in _imported_modules(ast.parse(p.read_text()))}
        third_party = imported - set(sys.stdlib_module_names)
        assert third_party == {"numpy", "mpmath"}
        assert self._names(project["dependencies"]) == third_party
        assert {"scipy", "pytest", "hypothesis"} <= self._names(
            project["optional-dependencies"]["test"])


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=700.0))
def test_k1_dominates_k0(x):
    # K1 > K0 > 0 on the whole domain (integral representations ordered).
    assert bessel_k1(x) > bessel_k0(x) > 0.0
