"""Config-driven command line: theta scans, chaotic averages, table dumps.

All commands read a JSON config, write `#`-commented CSV (9 significant
digits), and echo the config into the output header so every file is
self-describing and byte-reproducible for a fixed config.

Exit codes: 0 success (regime warnings allowed), 2 config error or an
unwritable output path, 3 numerical non-convergence, a failed
azimuthal-invariance check or a perpendicular cross section of zero (delta
and the average's correction divide by it; the azimuthal check is vacuous).
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, cross_section
from .atomic_data import HfsAtom, MoleculeGeometry, builtin_hfs_table, load_hfs_table
from .cross_section import AU_TO_CM2, CollisionSystem, delta_scan, orientation_average
from .form_factor import TABLE_LIMITS, IonizationTable, ProjectileSpec, build_ionization_table
from .kinematics import validate_regime, velocity_from_energy
from .quadrature import QuadratureError
from .transfer import kick_profile

EXIT_CONFIG_ERROR = 2
EXIT_NO_CONVERGENCE = 3

MAX_THETA_POINTS = 10_000     # each point is one b-plane integral for all energies

PROJECTILE_PRESETS = {
    "Fe25+": (26.0, 1),
    "Fe24+": (26.0, 2),
    "Fe23+": (26.0, 3),
}

TARGET_PRESETS = {
    "N2": {"diatomic": {"Z": 7, "bond_length": 2.07}},
}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


# `seed` is reserved: checked to be an integer and read by no command; it stays
# accepted because the benchmark's generated configs write it.
CONFIG_FIELDS = frozenset({
    "projectile", "target", "energies_mev_u", "theta_grid", "tolerance", "table",
    "seed", "hfs_table",
})


@dataclass
class RunConfig:
    systems: list[CollisionSystem]     # one per energy, sharing geometry, projectile and table
    theta_grid: np.ndarray
    tolerance: float
    raw: dict


def _required(spec: dict, key: str, prefix: str = ""):
    if key not in spec:
        raise ConfigError(f"{prefix}{key}: missing required field")
    return spec[key]


def _built(prefix: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError re-raised as a ConfigError
    led by ``prefix``: the one place a model's message becomes a config error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _check_keys(spec: dict, known, prefix: str) -> None:
    for key in spec:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown field (known: {sorted(known)})")


def _number(name: str, value, kind: type = float, minimum: float = -math.inf):
    """`value` as `kind`, finite and >= minimum; a float field also takes an int.

    Anything else (a string, a bool, a non-integral number for an int field)
    is a ConfigError naming the field, never a silent conversion.
    """
    allowed = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")
    # abs() rather than math.isfinite, which overflows on a JSON integer past 1e308.
    finite = kind is int or abs(value) <= sys.float_info.max
    if not (finite and value >= minimum):
        bound = f" and >= {minimum:g}" if minimum > -math.inf else ""
        raise ConfigError(f"{name} must be finite{bound}, got {value!r}")
    return kind(value)


def _parse_projectile(spec) -> ProjectileSpec:
    if isinstance(spec, str):
        if spec not in PROJECTILE_PRESETS:
            raise ConfigError(
                f"projectile: unknown preset {spec!r} (known: {sorted(PROJECTILE_PRESETS)})"
            )
        z, n_p = PROJECTILE_PRESETS[spec]
        return ProjectileSpec(z, n_p)
    if not isinstance(spec, dict):
        raise ConfigError("projectile: expected a preset name or an object")
    _check_keys(spec, ("Z", "N_P", "Z_eff"), "projectile.")
    z_eff = spec.get("Z_eff")
    return _built(
        "projectile.", ProjectileSpec,
        Z_nucleus=_number("projectile.Z", _required(spec, "Z", "projectile.")),
        N_P=_number("projectile.N_P", _required(spec, "N_P", "projectile."), int),
        z_eff=None if z_eff is None else _number("projectile.Z_eff", z_eff),
    )


def _parse_target(spec, hfs: dict[int, HfsAtom]) -> MoleculeGeometry:
    if isinstance(spec, str):
        if spec not in TARGET_PRESETS:
            raise ConfigError(f"target: unknown preset {spec!r} (known: {sorted(TARGET_PRESETS)})")
        spec = TARGET_PRESETS[spec]
    if not isinstance(spec, dict):
        raise ConfigError("target: expected a preset name or an object")

    def atom_for(name: str, entry: dict) -> HfsAtom:
        z = _number(f"{name}.Z", _required(entry, "Z", name + "."), int)
        if z not in hfs:
            raise ConfigError(f"{name}.Z: no HFS coefficients for Z={z} in the atom table")
        _built("hfs_table: ", kick_profile, hfs[z])      # cached: built once per distinct atom
        return hfs[z]

    if "diatomic" in spec:
        _check_keys(spec, ("diatomic",), "target.")
        d = spec["diatomic"]
        if not isinstance(d, dict):
            raise ConfigError("target.diatomic: expected an object")
        _check_keys(d, ("Z", "bond_length"), "target.diatomic.")
        atom = atom_for("target.diatomic", d)
        bond = _number("target.diatomic.bond_length",
                       _required(d, "bond_length", "target.diatomic."))
        return _built("target.diatomic.", MoleculeGeometry.diatomic, atom, atom, bond)
    _check_keys(spec, ("atoms",), "target.")
    entries = _required(spec, "atoms", "target.")
    if not isinstance(entries, list):
        raise ConfigError("target.atoms: expected a list of objects")
    atoms, positions = [], []
    for i, a in enumerate(entries):
        name = f"target.atoms[{i}]"
        if not isinstance(a, dict):
            raise ConfigError(f"{name}: expected an object, got {a!r}")
        _check_keys(a, ("Z", "position"), name + ".")
        atoms.append(atom_for(name, a))
        pos = _required(a, "position", name + ".")
        if not isinstance(pos, list) or len(pos) != 3:
            raise ConfigError(f"{name}.position: expected 3 numbers, got {pos!r}")
        positions.append(tuple(_number(f"{name}.position", x) for x in pos))
    return _built("target.", MoleculeGeometry, atoms=tuple(atoms), positions=tuple(positions))


def _parse_theta_grid(spec) -> np.ndarray:
    if spec is None:
        spec = {}
    if isinstance(spec, dict):
        _check_keys(spec, ("points",), "theta_grid.")
        n = _number("theta_grid.points", spec.get("points", 31), int, 1)
        if n > MAX_THETA_POINTS:
            raise ConfigError(f"theta_grid.points must be <= {MAX_THETA_POINTS}, got {n}")
        return np.linspace(0.0, math.pi / 2, n)
    if not isinstance(spec, list):
        raise ConfigError("theta_grid: expected {\"points\": n} or a list of angles")
    if len(spec) > MAX_THETA_POINTS:
        raise ConfigError(f"theta_grid: at most {MAX_THETA_POINTS} angles, got {len(spec)}")
    angles = [_number("theta_grid", t) for t in spec]
    return _built("theta_grid: ", cross_section.check_theta_grid, angles)


def _parse_table(spec) -> IonizationTable:
    if not isinstance(spec, dict):
        raise ConfigError("table: expected an object")
    _check_keys(spec, TABLE_LIMITS, "table.")
    params = {key: _number(f"table.{key}", spec.get(key, default), kind, minimum)
              for key, (kind, default, minimum, _) in TABLE_LIMITS.items()}
    return _built("table.", build_ionization_table, **params)


def load_config(path, tolerance: float | None = None) -> RunConfig:
    """The run ``path`` describes; a ``tolerance`` given replaces the config's."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:     # bad JSON, or an integer past Python's 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    _check_keys(raw, CONFIG_FIELDS, "")
    if tolerance is not None:
        raw = {**raw, "tolerance": tolerance}

    hfs_path = raw.get("hfs_table")
    if hfs_path is not None and not (isinstance(hfs_path, str) and hfs_path):
        raise ConfigError(f"hfs_table: expected a path string, got {hfs_path!r}")
    hfs = (_built("hfs_table: ", load_hfs_table, hfs_path) if hfs_path is not None
           else builtin_hfs_table())

    energies = _required(raw, "energies_mev_u")
    if not isinstance(energies, (list, tuple)) or not energies:
        raise ConfigError("energies_mev_u: expected a nonempty list")
    energies = [_number("energies_mev_u", e) for e in energies]
    params = [_built("energies_mev_u: ", velocity_from_energy, e) for e in energies]

    tolerance = _number("tolerance", raw.get("tolerance", 1e-3))
    if not 1e-6 <= tolerance <= 1e-1:
        raise ConfigError(f"tolerance must lie in [1e-6, 1e-1], got {tolerance:g}")

    _number("seed", raw.get("seed", 0), int)

    projectile = _parse_projectile(_required(raw, "projectile"))
    geometry = _parse_target(_required(raw, "target"), hfs)
    theta_grid = _parse_theta_grid(raw.get("theta_grid"))
    table = _parse_table(raw.get("table", {}))
    return RunConfig(
        systems=[CollisionSystem(geometry, projectile, p, table) for p in params],
        theta_grid=theta_grid,
        tolerance=tolerance,
        raw=raw,
    )


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _header_lines(config: RunConfig, command: str) -> list[str]:
    echo = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return [f"# molstrip {__version__} {command}", f"# config = {echo}"]


def _energy_lines(system: CollisionSystem) -> list[str]:
    checks = validate_regime(system.params, system.projectile, system.geometry)
    lines = [
        f"# energy_mev_u = {_fmt(system.params.energy_mev_u)}",
        f"# velocity_au = {_fmt(system.params.velocity_au)}",
    ]
    lines += [f"# warning: {c.message}" for c in checks if not c.passed]
    return lines


def cmd_scan_theta(config: RunConfig, out) -> None:
    lines = _header_lines(config, "scan-theta")
    lines.append("theta_rad,channel_m,sigma_au,sigma_cm2,quad_error_au,delta")
    scans = delta_scan(config.systems, config.theta_grid, rel_tol=config.tolerance)
    for system, scan in zip(config.systems, scans):
        lines += _energy_lines(system)
        for i, theta in enumerate(scan.theta_grid):
            for m in range(1, system.projectile.N_P + 1):
                sigma = scan.sigma_au[i, m - 1]
                lines.append(",".join([
                    _fmt(theta), str(m), _fmt(sigma), _fmt(sigma * AU_TO_CM2),
                    _fmt(scan.quad_error[i, m - 1]), _fmt(scan.delta[i, m - 1]),
                ]))
    out.write("\n".join(lines) + "\n")


def cmd_average(config: RunConfig, out) -> None:
    lines = _header_lines(config, "average")
    lines.append("channel_m,sigma_avg_au,sigma_perp_au,relative_correction,"
                 "relative_correction_error,sigma_avg_cm2,sigma_perp_cm2")
    averages = orientation_average(config.systems, rel_tol=config.tolerance)
    for system, (avg, scan) in zip(config.systems, averages):
        lines += _energy_lines(system)
        for r, perp, perp_err in zip(avg, scan.sigma_perp, scan.perp_error):
            ratio = r.sigma_au / perp
            # First-order error of ratio - 1 from both quadrature errors.
            rel_err = (r.quad_error + ratio * perp_err) / perp
            lines.append(",".join([
                str(r.m), _fmt(r.sigma_au), _fmt(perp), _fmt(ratio - 1.0), _fmt(rel_err),
                _fmt(r.sigma_au * AU_TO_CM2), _fmt(perp * AU_TO_CM2),
            ]))
    out.write("\n".join(lines) + "\n")


def cmd_table(config: RunConfig, out) -> None:
    table = config.systems[0].table
    lines = _header_lines(config, "table")
    lines.append("s,w_ion")
    for s, w in zip(table.s_grid, table.w_values):
        lines.append(f"{_fmt(s)},{_fmt(w)}")
    out.write("\n".join(lines) + "\n")


def cmd_validate(config: RunConfig, out) -> int:
    # A failed azimuthal-invariance check means the phi = 0 scans are wrong for
    # this target, so it exits 3 where a regime check only warns.
    phi_checks = cross_section.phi_invariance_check(config.systems, config.tolerance)
    out.write(f"molstrip {__version__} validate\n")
    failed = []
    for system, phi_check in zip(config.systems, phi_checks):
        params = system.params
        out.write(
            f"\nenergy {_fmt(params.energy_mev_u)} MeV/u: "
            f"v = {_fmt(params.velocity_au)} a.u., gamma = {_fmt(params.gamma)}\n"
        )
        regime = validate_regime(params, system.projectile, system.geometry)
        for check in regime + [phi_check]:
            status = "pass" if check.passed else "WARN" if check in regime else "FAIL"
            out.write(
                f"  [{status}] {check.label} = {_fmt(check.value)} (want {check.requirement})\n"
            )
            if not check.passed:
                out.write(f"         {check.message}\n")
        if not phi_check.passed:
            failed.append(_fmt(params.energy_mev_u))
    if failed:
        print(f"azimuthal invariance check failed at {', '.join(failed)} MeV/u", file=sys.stderr)
    return EXIT_NO_CONVERGENCE if failed else 0


COMMANDS = {
    "scan-theta": (cmd_scan_theta, "cross sections and delta over an orientation grid"),
    "average": (cmd_average, "chaotic-orientation averaged cross sections"),
    "table": (cmd_table, "dump the scaled-kick ionization probability table"),
    "validate": (cmd_validate, "report the validity-regime diagnostics"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molstrip",
        description="Electron-loss cross sections of fast ions on molecules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--tolerance", type=float, default=None)
    return parser


def _output_dir_error(path: str) -> str | None:
    """Why ``path`` cannot take the output (it is a directory, or its directory
    is missing or not writable), or None; checked before a run so that no scan
    is computed only to be lost.  Creates nothing."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    directory = os.path.dirname(path) or path and "."     # "" has no directory
    if os.path.exists(path) or os.access(directory, os.W_OK | os.X_OK):
        return None
    return os.strerror(errno.EACCES if os.path.isdir(directory) else errno.ENOENT)


def _cannot_write(path: str, reason: str) -> int:
    print(f"config error: --out: cannot write {path!r}: {reason}", file=sys.stderr)
    return EXIT_CONFIG_ERROR


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.tolerance)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    reason = args.out is not None and _output_dir_error(args.out)
    if reason:
        return _cannot_write(args.out, reason)

    command = COMMANDS[args.command][0]

    # The command writes into a buffer, so a failed run leaves an existing
    # output file as it was.
    buf = io.StringIO()
    try:
        status = command(config, buf) or 0
    except QuadratureError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except cross_section.DegenerateSystemError as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    if args.out is None:
        sys.stdout.write(buf.getvalue())
        return status
    try:
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        return _cannot_write(args.out, exc.strerror)
    return status


if __name__ == "__main__":
    sys.exit(main())
