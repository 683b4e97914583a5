"""Target-side data model.

Each target atom is described by the three-exponential Hartree-Fock-Slater
screening fit: Phi(r) = sum_i A_i exp(-alpha_i r) with sum_i A_i = 1, which
fixes both the screening function and the electronic charge density
rho(r) = -(Z / 4 pi r) sum_i A_i alpha_i^2 exp(-alpha_i r).

The numeric coefficients shipped in ``data/hfs_coefficients.csv`` are external
tabulated data (Salvat-style analytic screening fits), not produced here.

Geometry convention: the molecular body axis is the body-frame z axis; the
beam travels along the lab z axis; the lab orientation of the molecule is
R_z(phi) . R_y(theta), so theta is the angle between the molecular axis and
the beam.  The impact-parameter plane is the lab (x, y) plane, with its
origin at the projection of the atoms' mean position: only the atoms'
relative positions matter, so they may be given in any body frame.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "HfsAtom",
    "MoleculeGeometry",
    "HfsTableError",
    "charge_density",
    "transverse_positions",
    "load_hfs_table",
    "builtin_hfs_table",
]

SUM_A_TOLERANCE = 1e-6


class HfsTableError(ValueError):
    """Raised when an HFS coefficient file fails to load or validate."""


@dataclass(frozen=True)
class HfsAtom:
    """One neutral target atom in the 3-exponential HFS screening model."""

    Z: float
    A: tuple[float, float, float]
    alpha: tuple[float, float, float]

    def __post_init__(self):
        for name, values in (("Z", (self.Z,)), ("A", self.A), ("alpha", self.alpha)):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.Z < 1:
            raise ValueError(f"nuclear charge must be >= 1, got {self.Z}")
        if len(self.A) != 3 or len(self.alpha) != 3:
            raise ValueError("A and alpha: exactly 3 screening terms are required")
        if any(a <= 0 for a in self.alpha):
            raise ValueError(f"all alpha_i must be positive, got {self.alpha}")
        if abs(sum(self.A) - 1.0) > SUM_A_TOLERANCE:
            raise ValueError(
                f"screening amplitudes must sum to 1 (got {sum(self.A):.8f})"
            )


@dataclass(frozen=True)
class MoleculeGeometry:
    """Rigid point-atom molecule: atoms with body-frame positions (a.u.)."""

    atoms: tuple[HfsAtom, ...]
    positions: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise ValueError("atoms: a molecule needs at least one atom")
        if len(self.atoms) != len(self.positions):
            raise ValueError("atoms: one position per atom is required")
        for i, p in enumerate(self.positions):
            if len(p) != 3:
                raise ValueError(f"atoms[{i}].position: expected 3 coordinates, got {len(p)}")
            if not all(math.isfinite(c) for c in p):
                raise ValueError(f"atoms[{i}].position: coordinates must be finite, got {p}")
        pos = np.asarray(self.positions, dtype=float)
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                if np.array_equal(pos[i], pos[j]):
                    raise ValueError(f"atoms[{j}] coincides with atoms[{i}]")

    @classmethod
    def diatomic(cls, atom_a: HfsAtom, atom_b: HfsAtom, bond_length: float) -> "MoleculeGeometry":
        """Two atoms at +-L/2 on the body axis, midpoint at the origin."""
        if bond_length <= 0:
            raise ValueError(f"bond_length must be positive, got {bond_length}")
        h = 0.5 * bond_length
        return cls(atoms=(atom_a, atom_b), positions=((0.0, 0.0, h), (0.0, 0.0, -h)))

    @property
    def extent(self) -> float:
        """Largest internuclear distance (0 for a single atom)."""
        pos = np.asarray(self.positions, dtype=float)
        best = 0.0
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                best = max(best, math.dist(pos[i], pos[j]))
        return best


def charge_density(atom: HfsAtom, r: float) -> float:
    """Electronic charge density rho(r) < 0; integrates to -Z over all space."""
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    s = sum(a * al * al * math.exp(-al * r) for a, al in zip(atom.A, atom.alpha))
    return float(-atom.Z / (4.0 * math.pi * r) * s)


def transverse_positions(geom: MoleculeGeometry, theta: float, phi: float = 0.0) -> np.ndarray:
    """Atom positions about their mean, rotated to the lab frame and projected
    onto the b-plane.

    theta in [0, pi] and phi in [0, 2 pi) orient the molecular axis as in the
    module docstring.  Returns an (n_atoms, 2) array; the beam axis drops out.
    The +-L/2 ``diatomic`` has a mean of exactly 0, so it rotates bit for bit.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi must lie in [0, 2 pi), got {phi}")
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    ry = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    pos = np.asarray(geom.positions, dtype=float)
    lab = (pos - pos.mean(axis=0)) @ (rz @ ry).T
    return lab[:, :2].copy()


_COLUMNS = ("Z", "A1", "A2", "A3", "alpha1", "alpha2", "alpha3")


def _parse_row(row: dict, line_no: int) -> tuple[int, HfsAtom]:
    if None in row:                     # csv.DictReader files extra fields here
        raise HfsTableError(f"line {line_no}: {len(row[None])} field(s) beyond the "
                            f"{len(_COLUMNS)} columns")
    try:
        z_raw = row["Z"]
        z = float(z_raw)
        a = tuple(float(row[k]) for k in ("A1", "A2", "A3"))
        alpha = tuple(float(row[k]) for k in ("alpha1", "alpha2", "alpha3"))
    except (TypeError, ValueError) as exc:   # a short row leaves None fields
        raise HfsTableError(f"line {line_no}: malformed entry ({exc})") from exc
    try:
        atom = HfsAtom(Z=z, A=a, alpha=alpha)
    except ValueError as exc:
        raise HfsTableError(f"line {line_no} (Z={z_raw}): {exc}") from exc
    if not z.is_integer():
        raise HfsTableError(f"line {line_no} (Z={z_raw}): Z must be an integer")
    return int(z), atom


def load_hfs_table(path) -> dict[int, HfsAtom]:
    """Load a CSV of HFS screening coefficients keyed by atomic number.

    Expected header: ``Z,A1,A2,A3,alpha1,alpha2,alpha3``, and seven fields
    a row with an integer Z.  An empty file yields an empty map; any invalid
    entry raises HfsTableError naming it.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise HfsTableError(f"cannot read {path}: {exc}") from exc
    return _parse_hfs_csv(text)


def _parse_hfs_csv(text: str) -> dict[int, HfsAtom]:
    kept = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1)
            if ln.strip() and not ln.startswith("#")]
    if not kept:
        return {}
    # Messages name physical lines: the reader counts kept lines only.
    line_nos, lines = zip(*kept)
    reader = csv.DictReader(lines)
    if sorted(reader.fieldnames) != sorted(_COLUMNS):
        raise HfsTableError(f"line {line_nos[0]}: the header must name {','.join(_COLUMNS)} "
                            f"once each, got {','.join(reader.fieldnames)}")
    table: dict[int, HfsAtom] = {}
    for row in reader:
        line_no = line_nos[reader.line_num - 1]
        z, atom = _parse_row(row, line_no)
        if z in table:
            raise HfsTableError(f"line {line_no}: duplicate entry for Z={z}")
        table[z] = atom
    return table


def builtin_hfs_table() -> dict[int, HfsAtom]:
    """The coefficient table shipped with the package."""
    text = resources.files("molstrip.data").joinpath("hfs_coefficients.csv").read_text()
    return _parse_hfs_csv(text)
