"""Electron-loss cross sections of fast highly charged ions on molecules.

Sudden/eikonal treatment: each target atom delivers a screened transverse
momentum kick to the projectile electrons; loss probabilities follow from
hydrogenic sudden-collision matrix elements and the binomial channel model,
integrated over the impact-parameter plane for any molecular orientation.
"""

__version__ = "0.1.0"

from .atomic_data import (
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
from .cross_section import (
    AU_TO_CM2,
    CollisionSystem,
    CrossSectionResult,
    OrientationScan,
    cross_section_fixed,
    delta_scan,
    orientation_average,
    phi_invariance_check,
)
from .form_factor import (
    IonizationTable,
    ProjectileSpec,
    bound_survival_probability,
    build_ionization_table,
    elastic_form_factor,
    ionization_probability,
)
from .kinematics import CollisionParams, validate_regime, velocity_from_energy
from .special_functions import bessel_k0, bessel_k1
from .transfer import eikonal_phase_single, kick_magnitude, total_kick_magnitude

__all__ = [
    "__version__",
    "AU_TO_CM2",
    "CollisionParams",
    "CollisionSystem",
    "CrossSectionResult",
    "HfsAtom",
    "HfsTableError",
    "IonizationTable",
    "MoleculeGeometry",
    "Orientation",
    "OrientationScan",
    "ProjectileSpec",
    "bessel_k0",
    "bessel_k1",
    "bound_survival_probability",
    "build_ionization_table",
    "builtin_hfs_table",
    "charge_density",
    "cross_section_fixed",
    "delta_scan",
    "elastic_form_factor",
    "eikonal_phase_single",
    "ionization_probability",
    "kick_magnitude",
    "load_hfs_table",
    "orientation_average",
    "phi_invariance_check",
    "screening_function",
    "total_kick_magnitude",
    "transverse_positions",
    "validate_regime",
    "velocity_from_energy",
]
