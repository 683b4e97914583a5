"""Target data model: screening, density, geometry projection, table loading."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from molstrip.atomic_data import (
    HfsAtom,
    HfsTableError,
    MoleculeGeometry,
    Orientation,
    builtin_hfs_table,
    charge_density,
    load_hfs_table,
    screening_function,
    transverse_positions,
)

N2_BOND_LENGTH = 2.07


class TestHfsAtomInvariants:
    def test_amplitudes_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            HfsAtom(Z=7, A=(0.5, 0.3, 0.1), alpha=(1.0, 2.0, 3.0))

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            HfsAtom(Z=7, A=(0.5, 0.3, 0.2), alpha=(1.0, -2.0, 3.0))

    def test_z_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="charge"):
            HfsAtom(Z=0.5, A=(1.0, 0.0, 0.0), alpha=(1.0, 1.0, 1.0))

    def test_sum_tolerance_accepts_rounding(self):
        HfsAtom(Z=7, A=(0.5, 0.3, 0.2 + 5e-7), alpha=(1.0, 2.0, 3.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_fields_rejected(self, bad):
        with pytest.raises(ValueError, match="Z must be finite"):
            HfsAtom(Z=bad, A=(0.5, 0.3, 0.2), alpha=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="A must be finite"):
            HfsAtom(Z=7, A=(0.5, bad, 0.2), alpha=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="alpha must be finite"):
            HfsAtom(Z=7, A=(0.5, 0.3, 0.2), alpha=(1.0, 2.0, bad))


class TestScreeningFunction:
    def test_unity_at_origin(self, synthetic_atom, nitrogen):
        assert screening_function(synthetic_atom, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert screening_function(nitrogen, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_decays_to_zero(self, synthetic_atom):
        assert screening_function(synthetic_atom, 100.0) < 1e-12

    def test_synthetic_atom_closed_form(self, synthetic_atom):
        expected = 0.5 * math.exp(-10.0) + 0.3 * math.exp(-4.0) + 0.2 * math.exp(-1.0)
        assert screening_function(synthetic_atom, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_negative_r_rejected(self, synthetic_atom):
        for r in (-0.1, math.nan):
            with pytest.raises(ValueError, match="r must be non-negative"):
                screening_function(synthetic_atom, r)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=1e-6, max_value=5.0))
    def test_strictly_decreasing(self, synthetic_atom, r, dr):
        assert screening_function(synthetic_atom, r + dr) < screening_function(synthetic_atom, r)


class TestChargeDensity:
    def test_strictly_negative(self, nitrogen):
        for r in (0.01, 0.5, 3.0):
            assert charge_density(nitrogen, r) < 0.0

    def test_domain(self, nitrogen):
        for r in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="r must be positive"):
                charge_density(nitrogen, r)

    def test_vanishes_at_infinity(self, nitrogen):
        assert abs(charge_density(nitrogen, 80.0)) < 1e-20

    def test_integrates_to_minus_z_for_all_shipped_atoms(self, hfs_table):
        for z, atom in hfs_table.items():
            total, _ = quad(
                lambda r: 4.0 * math.pi * r * r * charge_density(atom, r),
                0.0, np.inf, limit=200,
            )
            assert total == pytest.approx(-atom.Z, rel=1e-8), f"Z={z}"

    def test_alpha_rescaling_preserves_total_charge(self, synthetic_atom):
        scaled = HfsAtom(
            Z=synthetic_atom.Z,
            A=synthetic_atom.A,
            alpha=tuple(2.0 * a for a in synthetic_atom.alpha),
        )
        total, _ = quad(
            lambda r: 4.0 * math.pi * r * r * charge_density(scaled, r), 0.0, np.inf, limit=200
        )
        assert total == pytest.approx(-scaled.Z, rel=1e-8)


class TestOrientation:
    def test_angle_ranges(self):
        Orientation(0.0, 0.0)
        Orientation(math.pi, 6.2)
        with pytest.raises(ValueError):
            Orientation(-0.1)
        with pytest.raises(ValueError):
            Orientation(3.5)
        with pytest.raises(ValueError):
            Orientation(1.0, 2.0 * math.pi)


class TestMoleculeGeometry:
    def test_needs_an_atom(self):
        with pytest.raises(ValueError):
            MoleculeGeometry(atoms=(), positions=())

    def test_coincident_atoms_rejected(self, nitrogen):
        with pytest.raises(ValueError, match="coincide"):
            MoleculeGeometry(
                atoms=(nitrogen, nitrogen),
                positions=((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
            )

    def test_diatomic_constructor(self, nitrogen):
        geom = MoleculeGeometry.diatomic(nitrogen, nitrogen, N2_BOND_LENGTH)
        pos = np.asarray(geom.positions)
        assert pos[0] == pytest.approx([0.0, 0.0, N2_BOND_LENGTH / 2])
        assert pos[1] == pytest.approx([0.0, 0.0, -N2_BOND_LENGTH / 2])
        assert geom.is_homonuclear_diatomic
        assert geom.extent == pytest.approx(N2_BOND_LENGTH)

    def test_diatomic_rejects_nonpositive_bond(self, nitrogen):
        with pytest.raises(ValueError):
            MoleculeGeometry.diatomic(nitrogen, nitrogen, 0.0)

    def test_heteronuclear_not_flagged_homonuclear(self, nitrogen, synthetic_atom):
        geom = MoleculeGeometry.diatomic(nitrogen, synthetic_atom, 2.0)
        assert not geom.is_homonuclear_diatomic

    def test_single_atom_extent_zero(self, nitrogen):
        geom = MoleculeGeometry(atoms=(nitrogen,), positions=((0.0, 0.0, 0.0),))
        assert geom.extent == 0.0


class TestTransversePositions:
    def test_parallel_axis_projections_coincide(self, n2_geometry):
        proj = transverse_positions(n2_geometry, Orientation(0.0, 0.0))
        assert np.allclose(proj, 0.0, atol=1e-14)

    def test_perpendicular_separation_is_bond_length(self, n2_geometry):
        proj = transverse_positions(n2_geometry, Orientation(math.pi / 2, 0.0))
        assert np.linalg.norm(proj[0] - proj[1]) == pytest.approx(N2_BOND_LENGTH, rel=1e-12)

    def test_separation_at_45_degrees(self, n2_geometry):
        proj = transverse_positions(n2_geometry, Orientation(math.pi / 4, 0.0))
        assert np.linalg.norm(proj[0] - proj[1]) == pytest.approx(
            N2_BOND_LENGTH / math.sqrt(2.0), rel=1e-12
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )
    def test_separation_law(self, n2_geometry, theta, phi):
        proj = transverse_positions(n2_geometry, Orientation(theta, phi))
        sep = np.linalg.norm(proj[0] - proj[1])
        assert sep == pytest.approx(N2_BOND_LENGTH * abs(math.sin(theta)), abs=1e-10)


class TestHfsTableLoading:
    HEADER = "Z,A1,A2,A3,alpha1,alpha2,alpha3\n"

    def test_valid_file_roundtrip(self, tmp_path, nitrogen):
        path = tmp_path / "atoms.csv"
        path.write_text(
            self.HEADER
            + f"7,{nitrogen.A[0]},{nitrogen.A[1]},{nitrogen.A[2]},"
            + f"{nitrogen.alpha[0]},{nitrogen.alpha[1]},{nitrogen.alpha[2]}\n"
        )
        table = load_hfs_table(path)
        assert set(table) == {7}
        assert sum(table[7].A) == pytest.approx(1.0, abs=1e-6)

    def test_bad_amplitude_sum_names_entry(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text(self.HEADER + "7,0.5,0.3,0.1,1.0,2.0,3.0\n")
        with pytest.raises(HfsTableError, match="Z=7"):
            load_hfs_table(path)

    def test_empty_file_gives_empty_map(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("")
        assert load_hfs_table(path) == {}

    def test_missing_file(self, tmp_path):
        with pytest.raises(HfsTableError, match="cannot read"):
            load_hfs_table(tmp_path / "missing.csv")

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text(self.HEADER + "7,not_a_number,0.3,0.2,1,2,3\n")
        with pytest.raises(HfsTableError, match="line 2"):
            load_hfs_table(path)

    @pytest.mark.parametrize("row", [
        "nan,0.5,0.3,0.2,1.0,2.0,3.0", "inf,0.5,0.3,0.2,1.0,2.0,3.0",
        "7,nan,0.3,0.2,1.0,2.0,3.0", "7,0.5,0.3,inf,1.0,2.0,3.0",
        "7,0.5,0.3,0.2,nan,2.0,3.0", "7,0.5,0.3,0.2,1.0,2.0,inf",
    ])
    def test_nonfinite_entry_names_line(self, tmp_path, row):
        path = tmp_path / "atoms.csv"
        path.write_text(self.HEADER + "8,0.5,0.3,0.2,1.0,2.0,3.0\n" + row + "\n")
        with pytest.raises(HfsTableError, match="line 3 .*must be finite"):
            load_hfs_table(path)

    def test_duplicate_z_rejected(self, tmp_path):
        path = tmp_path / "atoms.csv"
        row = "7,0.5,0.3,0.2,1.0,2.0,3.0\n"
        path.write_text(self.HEADER + row + row)
        with pytest.raises(HfsTableError, match="duplicate"):
            load_hfs_table(path)

    def test_builtin_table_contains_nitrogen_and_validates(self):
        table = builtin_hfs_table()
        assert 7 in table
        for atom in table.values():
            assert sum(atom.A) == pytest.approx(1.0, abs=1e-6)
            assert all(a > 0 for a in atom.alpha)
