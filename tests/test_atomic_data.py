"""Target data model: HFS atoms, density, geometry projection, table loading."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from molstrip.atomic_data import (
    COLLINEAR_TOLERANCE,
    HfsAtom,
    HfsTableError,
    MoleculeGeometry,
    builtin_hfs_table,
    charge_density,
    load_hfs_table,
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

    def test_three_terms_required(self):
        with pytest.raises(ValueError, match="A and alpha: exactly 3 screening terms"):
            HfsAtom(Z=7, A=(0.5, 0.5), alpha=(1.0, 2.0))

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
    def test_angle_ranges(self, n2_geometry):
        transverse_positions(n2_geometry, 0.0, 0.0)
        transverse_positions(n2_geometry, math.pi, 6.2)
        with pytest.raises(ValueError, match="theta must lie in"):
            transverse_positions(n2_geometry, -0.1)
        with pytest.raises(ValueError, match="theta must lie in"):
            transverse_positions(n2_geometry, 3.5)
        with pytest.raises(ValueError, match="phi must lie in"):
            transverse_positions(n2_geometry, 1.0, 2.0 * math.pi)


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

    def test_one_position_per_atom(self, nitrogen):
        with pytest.raises(ValueError, match="atoms: one position per atom"):
            MoleculeGeometry(atoms=(nitrogen, nitrogen), positions=((0.0, 0.0, 1.0),))

    def test_three_coordinates_per_position(self, nitrogen):
        with pytest.raises(ValueError, match=r"atoms\[0\]\.position: expected 3 coordinates"):
            MoleculeGeometry(atoms=(nitrogen,), positions=((0.0, 1.0),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_position_names_the_atom(self, nitrogen, bad):
        # Used to be accepted, then fail in the kick with a message naming no atom.
        with pytest.raises(ValueError, match=r"atoms\[1\]\.position: coordinates must be finite"):
            MoleculeGeometry(
                atoms=(nitrogen, nitrogen),
                positions=((0.0, 0.0, 1.0), (0.0, 0.0, bad)),
            )

    def test_diatomic_constructor(self, nitrogen, make_system, quadrant_used):
        geom = MoleculeGeometry.diatomic(nitrogen, nitrogen, N2_BOND_LENGTH)
        pos = np.asarray(geom.positions)
        assert pos[0] == pytest.approx([0.0, 0.0, N2_BOND_LENGTH / 2])
        assert pos[1] == pytest.approx([0.0, 0.0, -N2_BOND_LENGTH / 2])
        system = make_system(geometry=geom)
        assert quadrant_used(system) is True
        assert quadrant_used(system, use_symmetry=False) is False
        assert geom.extent == pytest.approx(N2_BOND_LENGTH)

    @pytest.mark.parametrize("shift", [(0.0, 0.0, 0.5), (3.0, 0.0, 0.0), (0.0, 1e10, 0.0)],
                             ids=["0.5 along the bond", "3 along body x", "1e10 along body y"])
    def test_shifted_homonuclear_pair_takes_the_quadrant_path(self, nitrogen, make_system,
                                                              quadrant_used, shift):
        x, y, z = shift
        h = N2_BOND_LENGTH / 2
        geom = MoleculeGeometry(atoms=(nitrogen, nitrogen),
                                positions=((x, y, z + h), (x, y, z - h)))
        assert quadrant_used(make_system(geometry=geom)) is True

    def test_diatomic_rejects_nonpositive_bond(self, nitrogen):
        with pytest.raises(ValueError):
            MoleculeGeometry.diatomic(nitrogen, nitrogen, 0.0)

    def test_heteronuclear_not_flagged_homonuclear(self, nitrogen, synthetic_atom, make_system,
                                                   quadrant_used):
        geom = MoleculeGeometry.diatomic(nitrogen, synthetic_atom, 2.0)
        assert quadrant_used(make_system(geometry=geom)) is False

    def test_single_atom_extent_zero(self, nitrogen):
        geom = MoleculeGeometry(atoms=(nitrogen,), positions=((0.0, 0.0, 0.0),))
        assert geom.extent == 0.0


class TestTransversePositions:
    def test_parallel_axis_projections_coincide(self, n2_geometry):
        proj = transverse_positions(n2_geometry, 0.0, 0.0)
        assert np.allclose(proj, 0.0, atol=1e-14)

    def test_perpendicular_separation_is_bond_length(self, n2_geometry):
        proj = transverse_positions(n2_geometry, math.pi / 2, 0.0)
        assert np.linalg.norm(proj[0] - proj[1]) == pytest.approx(N2_BOND_LENGTH, rel=1e-12)

    def test_translation_drops_out_bit_for_bit(self, nitrogen, synthetic_atom):
        atoms = (nitrogen, synthetic_atom)
        far = MoleculeGeometry(atoms=atoms, positions=((3.0, 1e10, 1.0), (3.0, 1e10, -2.0)))
        centred = MoleculeGeometry(atoms=atoms, positions=((0.0, 0.0, 1.5), (0.0, 0.0, -1.5)))
        assert np.array_equal(transverse_positions(far, 0.7, 2.3),
                              transverse_positions(centred, 0.7, 2.3))

    def test_separation_at_45_degrees(self, n2_geometry):
        proj = transverse_positions(n2_geometry, math.pi / 4, 0.0)
        assert np.linalg.norm(proj[0] - proj[1]) == pytest.approx(
            N2_BOND_LENGTH / math.sqrt(2.0), rel=1e-12
        )

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )
    def test_separation_law(self, n2_geometry, theta, phi):
        proj = transverse_positions(n2_geometry, theta, phi)
        sep = np.linalg.norm(proj[0] - proj[1])
        assert sep == pytest.approx(N2_BOND_LENGTH * abs(math.sin(theta)), abs=1e-10)


class TestOnAxis:
    """MoleculeGeometry.on_axis: the atoms' own line turned onto body z."""

    def test_preset_comes_back_bit_for_bit(self, n2_geometry):
        assert n2_geometry.on_axis() == n2_geometry

    @pytest.mark.parametrize("first,second", [
        ((1.035, 0.0, 0.0), (-1.035, 0.0, 0.0)),
        ((0.0, -1.035, 0.0), (0.0, 1.035, 0.0)),
        ((3.0, 5.0, 1.535), (3.0, 5.0, -0.535)),
    ], ids=["along body x", "along body -y", "shifted along body z"])
    def test_pair_lands_on_the_preset(self, nitrogen, n2_geometry, first, second):
        # Atom a of the farthest pair (a, b), a < b, takes the positive end.
        written = MoleculeGeometry(atoms=(nitrogen, nitrogen), positions=(first, second))
        assert written.on_axis() == n2_geometry

    def test_signed_distances_from_the_mean_in_atom_order(self, hfs_table):
        # An asymmetric linear O-C-N along an oblique line, far from the origin.
        atoms = (hfs_table[8], hfs_table[6], hfs_table[7])
        s = np.array([2.19, 0.0, -1.5])
        d = np.array([1.0, -2.0, 0.5]) / math.sqrt(5.25)
        written = MoleculeGeometry(atoms=atoms,
                                   positions=tuple(tuple(40.0 + si * d) for si in s))
        axis = written.on_axis()
        assert axis.atoms == atoms
        got = np.array(axis.positions)
        assert np.array_equal(got[:, :2], np.zeros((3, 2)))
        assert got[:, 2] == pytest.approx(s - s.mean(), rel=1e-12, abs=1e-12)

    def test_single_atom_sits_at_the_origin(self, nitrogen):
        single = MoleculeGeometry(atoms=(nitrogen,), positions=((4.0, -1.0, 2.0),))
        assert single.on_axis().positions == ((0.0, 0.0, 0.0),)

    def test_bent_target_names_its_off_line_atom(self, hfs_table):
        # O-H-H: the H-H line runs through the mean 0.74 a.u. above O.
        bent = MoleculeGeometry(atoms=(hfs_table[8], hfs_table[1], hfs_table[1]),
                                positions=((0.0, 0.0, 0.0), (1.43, 0.0, 1.11),
                                           (-1.43, 0.0, 1.11)))
        with pytest.raises(ValueError, match=r"^atoms\[0\] lies 0\.74 a\.u\. off the line "
                                             r"through the atoms; .* within 1e-06 a\.u\."):
            bent.on_axis()

    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_collinearity_tolerance_on_both_sides(self, hfs_table, factor):
        # One O of an O-C-O moved 3 f tol sideways moves the mean, and the line
        # through it, by f tol: C is then the farthest off it, by f tol.
        shift = 3.0 * factor * COLLINEAR_TOLERANCE
        oco = MoleculeGeometry(atoms=(hfs_table[8], hfs_table[6], hfs_table[8]),
                               positions=((0.0, 0.0, 2.19), (0.0, 0.0, 0.0),
                                          (0.0, shift, -2.19)))
        if factor < 1.0:
            assert np.array(oco.on_axis().positions)[:, 2] == pytest.approx(
                [2.19, 0.0, -2.19], abs=1e-12)
        else:
            with pytest.raises(ValueError, match=r"^atoms\[1\] lies 1e-06 a\.u\. off"):
                oco.on_axis()


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

    # Comment and blank lines are counted: messages name the file's own lines.
    @pytest.mark.parametrize("text,message", [
        ("# HFS fits\n# Salvat\n" + HEADER + "7,0.5,0.3,0.1,1.0,2.0,3.0\n",
         r"line 4 \(Z=7\): screening amplitudes must sum to 1"),
        (HEADER + "8,0.5,0.3,0.2,1.0,2.0,3.0\n# next\n\n7,x,0.3,0.2,1.0,2.0,3.0\n",
         r"line 5: malformed entry"),
        ("# HFS fits\n\nZ,A1,A2,A3,alpha1,alpha2\n", r"line 3: the header must name"),
    ], ids=["comments-before-header", "comment-and-blank-between-rows", "header-after-comments"])
    def test_messages_name_physical_lines(self, tmp_path, text, message):
        path = tmp_path / "atoms.csv"
        path.write_text(text)
        with pytest.raises(HfsTableError, match=message):
            load_hfs_table(path)

    # A row "7.4,..." used to load as the entry for Z = 7 with atom.Z = 7.4,
    # and extra fields or columns were silently dropped.
    @pytest.mark.parametrize("rows,message", [
        ("7.4,0.5,0.3,0.2,1.0,2.0,3.0", r"line 2 \(Z=7.4\): Z must be an integer"),
        ("6.6,0.5,0.3,0.2,1.0,2.0,3.0\n7,0.5,0.3,0.2,1.0,2.0,3.0",
         r"line 2 \(Z=6.6\): Z must be an integer"),
        ("8,0.5,0.3,0.2,1.0,2.0,3.0\n7,0.5,0.3,0.2,1.0,2.0,3.0,9.0",
         r"line 3: 1 field\(s\) beyond the 7 columns"),
    ])
    def test_malformed_row_rejected(self, tmp_path, rows, message):
        path = tmp_path / "atoms.csv"
        path.write_text(self.HEADER + rows + "\n")
        with pytest.raises(HfsTableError, match=message):
            load_hfs_table(path)

    @pytest.mark.parametrize("header", ["Z,A1,A2,A3,alpha1,alpha2,alpha3,beta",
                                        "Z,A1,A2,A3,alpha1,alpha2,Z",
                                        "Z,A1,A2,A3,alpha1,alpha2"])
    def test_header_must_name_the_seven_columns(self, tmp_path, header):
        path = tmp_path / "atoms.csv"
        path.write_text(header + "\n7,0.5,0.3,0.2,1.0,2.0,3.0\n")
        with pytest.raises(HfsTableError, match="line 1: the header must name Z,A1,A2,A3,"):
            load_hfs_table(path)

    def test_integral_float_z_and_column_order_accepted(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("alpha1,alpha2,alpha3,A1,A2,A3,Z\n1.0,2.0,3.0,0.5,0.3,0.2,7.0\n")
        table = load_hfs_table(path)
        assert list(table) == [7]
        assert table[7] == HfsAtom(Z=7.0, A=(0.5, 0.3, 0.2), alpha=(1.0, 2.0, 3.0))

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
