"""Shared fixtures: atoms, geometries, the W_ion table, collision systems."""

import math
import os
from pathlib import Path

import pytest

from molstrip import cross_section
from molstrip.atomic_data import HfsAtom, MoleculeGeometry, builtin_hfs_table
from molstrip.cross_section import CollisionSystem
from molstrip.form_factor import ProjectileSpec, build_ionization_table
from molstrip.kinematics import velocity_from_energy

N2_BOND_LENGTH = 2.07

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child Python: this checkout's src leads PYTHONPATH, so
    the child imports the molstrip under test, whatever else is installed."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def hfs_table():
    return builtin_hfs_table()


@pytest.fixture(scope="session")
def nitrogen(hfs_table):
    return hfs_table[7]


@pytest.fixture(scope="session")
def synthetic_atom():
    """Fixture atom with easy-to-check coefficients (not a physical species)."""
    return HfsAtom(Z=5.0, A=(0.5, 0.3, 0.2), alpha=(10.0, 4.0, 1.0))


@pytest.fixture(scope="session")
def n2_geometry(nitrogen):
    return MoleculeGeometry.diatomic(nitrogen, nitrogen, N2_BOND_LENGTH)


@pytest.fixture(scope="session")
def ionization_table():
    return build_ionization_table()


@pytest.fixture(scope="session")
def make_system(n2_geometry, ionization_table):
    """Factory for projectile/energy combinations on the N2 target."""

    def factory(n_electrons: int = 1, energy_mev_u: float = 10.0,
                geometry: MoleculeGeometry = None) -> CollisionSystem:
        proj = ProjectileSpec(Z_nucleus=26.0, N_P=n_electrons)
        params = velocity_from_energy(energy_mev_u)
        return CollisionSystem(
            geometry=geometry if geometry is not None else n2_geometry,
            projectile=proj,
            params=params,
            table=ionization_table,
        )

    return factory


@pytest.fixture
def quadrant_used(monkeypatch):
    """The ``quadrant`` keyword cross_section_fixed passes to integrate_b_plane
    for a system at theta = pi/3; the integral itself is not run."""

    class Recorded(Exception):
        pass

    def record(integrand, **kwargs):
        raise Recorded(kwargs["quadrant"])

    monkeypatch.setattr(cross_section, "integrate_b_plane", record)

    def run(system, **kwargs):
        with pytest.raises(Recorded) as recorded:
            cross_section.cross_section_fixed(system, math.pi / 3, **kwargs)
        return recorded.value.args[0]

    return run
