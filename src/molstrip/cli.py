"""Config-driven command line: theta scans, chaotic averages, table dumps.

All commands read a JSON config, write `#`-commented CSV (9 significant
digits), and echo the config into the output header so every file is
self-describing and byte-reproducible for a fixed config.

Exit codes: 0 success (regime warnings allowed), 2 config error or an
unwritable output path, 3 numerical non-convergence, a failed
azimuthal-invariance check or a perpendicular cross section of zero (delta
and the average's correction divide by it).
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
from .atomic_data import HfsAtom, HfsTableError, MoleculeGeometry, builtin_hfs_table, load_hfs_table
from .cross_section import AU_TO_CM2, CollisionSystem, delta_scan, orientation_average
from .form_factor import TABLE_LIMITS, ProjectileSpec, build_ionization_table, check_table_params
from .kinematics import validate_regime, velocity_from_energy
from .quadrature import QuadratureError
from .transfer import kick_profile

EXIT_CONFIG_ERROR = 2
EXIT_NO_CONVERGENCE = 3

MAX_THETA_POINTS = 10_000     # each point is a b-plane integral per energy

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
    "seed", "output", "hfs_table",
})


@dataclass
class RunConfig:
    projectile: ProjectileSpec
    geometry: MoleculeGeometry
    energies: list[float]
    theta_grid: np.ndarray
    tolerance: float
    table_params: dict
    output: str | None
    raw: dict


def _get(cfg: dict, key: str, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required config field '{key}'")
    return default


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
    try:
        z_eff = spec.get("Z_eff")
        return ProjectileSpec(
            Z_nucleus=_number("projectile.Z", spec["Z"]),
            N_P=_number("projectile.N_P", spec["N_P"], int),
            z_eff=None if z_eff is None else _number("projectile.Z_eff", z_eff),
        )
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"projectile: missing field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"projectile: {exc}") from exc


def _parse_target(spec, hfs: dict[int, HfsAtom]) -> MoleculeGeometry:
    if isinstance(spec, str):
        if spec not in TARGET_PRESETS:
            raise ConfigError(f"target: unknown preset {spec!r} (known: {sorted(TARGET_PRESETS)})")
        spec = TARGET_PRESETS[spec]
    if not isinstance(spec, dict):
        raise ConfigError("target: expected a preset name or an object")

    def atom_for(name: str, entry: dict) -> HfsAtom:
        z = _number(f"{name}.Z", entry.get("Z"), int)
        if z not in hfs:
            raise ConfigError(f"{name}.Z: no HFS coefficients for Z={z} in the atom table")
        try:
            kick_profile(hfs[z])      # cached: built once per distinct atom
        except ValueError as exc:
            raise ConfigError(f"hfs_table: {exc}") from exc
        return hfs[z]

    try:
        if "diatomic" in spec:
            _check_keys(spec, ("diatomic",), "target.")
            d = spec["diatomic"]
            if not isinstance(d, dict):
                raise ConfigError("target.diatomic: expected an object")
            _check_keys(d, ("Z", "bond_length"), "target.diatomic.")
            atom = atom_for("target.diatomic", d)
            bond = _number("target.diatomic.bond_length", d.get("bond_length"))
            try:
                return MoleculeGeometry.diatomic(atom, atom, bond)
            except ValueError as exc:
                raise ConfigError(f"target.diatomic.bond_length: {exc}") from exc
        _check_keys(spec, ("atoms",), "target.")
        entries = spec.get("atoms")
        if not isinstance(entries, list):
            raise ConfigError("target.atoms: expected a list of objects")
        atoms, positions = [], []
        for i, a in enumerate(entries):
            name = f"target.atoms[{i}]"
            if not isinstance(a, dict):
                raise ConfigError(f"{name}: expected an object, got {a!r}")
            _check_keys(a, ("Z", "position"), name + ".")
            atoms.append(atom_for(name, a))
            pos = a.get("position")
            if not isinstance(pos, list) or len(pos) != 3:
                raise ConfigError(f"{name}.position: expected 3 numbers, got {pos!r}")
            positions.append(tuple(_number(f"{name}.position", x) for x in pos))
        try:
            return MoleculeGeometry(atoms=tuple(atoms), positions=tuple(positions))
        except ValueError as exc:
            raise ConfigError(f"target.{exc}") from exc
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"target: {exc}") from exc


def _parse_theta_grid(spec) -> np.ndarray:
    if spec is None:
        spec = {"points": 31}
    if isinstance(spec, dict):
        _check_keys(spec, ("points",), "theta_grid.")
        n = _number("theta_grid.points", _get(spec, "points", 31), int, 1)
        if n > MAX_THETA_POINTS:
            raise ConfigError(f"theta_grid.points must be <= {MAX_THETA_POINTS}, got {n}")
        return np.linspace(0.0, math.pi / 2, n)
    if not isinstance(spec, list):
        raise ConfigError("theta_grid: expected {\"points\": n} or a list of angles")
    if len(spec) > MAX_THETA_POINTS:
        raise ConfigError(f"theta_grid: at most {MAX_THETA_POINTS} angles, got {len(spec)}")
    angles = [_number("theta_grid", t) for t in spec]
    try:
        return cross_section.check_theta_grid(angles)
    except ValueError as exc:
        raise ConfigError(f"theta_grid: {exc}") from exc


def _parse_table(spec) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError("table: expected an object")
    _check_keys(spec, TABLE_LIMITS, "table.")
    params = {key: _number(f"table.{key}", spec.get(key, default), kind, minimum)
              for key, (kind, default, minimum, _) in TABLE_LIMITS.items()}
    try:
        check_table_params(**params)
    except ValueError as exc:
        raise ConfigError(f"table.{exc}") from exc
    return params


def _path(name: str, value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{name}: expected a path string, got {value!r}")
    return value


def load_config(path, overrides: dict | None = None) -> RunConfig:
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
    overrides = overrides or {}
    merged = {**raw, **{k: v for k, v in overrides.items() if v is not None}}

    hfs_path = _path("hfs_table", merged.get("hfs_table"))
    try:
        hfs = load_hfs_table(hfs_path) if hfs_path else builtin_hfs_table()
    except HfsTableError as exc:
        raise ConfigError(f"hfs_table: {exc}") from exc

    energies = _get(merged, "energies_mev_u", required=True)
    if not isinstance(energies, (list, tuple)) or not energies:
        raise ConfigError("energies_mev_u: expected a nonempty list")
    energies = [_number("energies_mev_u", e) for e in energies]
    for e in energies:
        try:
            velocity_from_energy(e)
        except ValueError as exc:
            raise ConfigError(f"energies_mev_u: {exc}") from exc

    tolerance = _number("tolerance", _get(merged, "tolerance", 1e-3))
    if not 1e-6 <= tolerance <= 1e-1:
        raise ConfigError(f"tolerance must lie in [1e-6, 1e-1], got {tolerance:g}")

    _number("seed", _get(merged, "seed", 0), int)

    return RunConfig(
        projectile=_parse_projectile(_get(merged, "projectile", required=True)),
        geometry=_parse_target(_get(merged, "target", required=True), hfs),
        energies=energies,
        theta_grid=_parse_theta_grid(merged.get("theta_grid")),
        tolerance=tolerance,
        table_params=_parse_table(_get(merged, "table", {})),
        output=_path("output", merged.get("output")),
        raw=merged,
    )


def _build_systems(config: RunConfig) -> list[CollisionSystem]:
    table = build_ionization_table(**config.table_params)
    return [CollisionSystem(config.geometry, config.projectile, velocity_from_energy(e), table)
            for e in config.energies]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _header_lines(config: RunConfig, command: str) -> list[str]:
    # The output path does not affect the numbers; leaving it out keeps the
    # file byte-identical wherever it is written.
    echo_cfg = {k: v for k, v in config.raw.items() if k != "output"}
    echo = json.dumps(echo_cfg, sort_keys=True, separators=(",", ":"))
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
    systems = _build_systems(config)
    lines = _header_lines(config, "scan-theta")
    lines.append("theta_rad,channel_m,sigma_au,sigma_cm2,quad_error_au,delta")
    for system in systems:
        lines += _energy_lines(system)
        scan = delta_scan(system, config.theta_grid, rel_tol=config.tolerance)
        for i, theta in enumerate(scan.theta_grid):
            for m in range(1, system.projectile.N_P + 1):
                sigma = scan.sigma_au[i, m - 1]
                lines.append(",".join([
                    _fmt(theta), str(m), _fmt(sigma), _fmt(sigma * AU_TO_CM2),
                    _fmt(scan.quad_error[i, m - 1]), _fmt(scan.delta[i, m - 1]),
                ]))
    out.write("\n".join(lines) + "\n")


def cmd_average(config: RunConfig, out) -> None:
    systems = _build_systems(config)
    lines = _header_lines(config, "average")
    lines.append("channel_m,sigma_avg_au,sigma_perp_au,relative_correction,"
                 "relative_correction_error,sigma_avg_cm2,sigma_perp_cm2")
    for system in systems:
        lines += _energy_lines(system)
        avg, scan = orientation_average(system, rel_tol=config.tolerance)
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
    table = build_ionization_table(**config.table_params)
    lines = _header_lines(config, "table")
    lines.append("s,w_ion")
    for s, w in zip(table.s_grid, table.w_values):
        lines.append(f"{_fmt(s)},{_fmt(w)}")
    out.write("\n".join(lines) + "\n")


def cmd_validate(config: RunConfig, out) -> int:
    # A failed azimuthal-invariance check means the phi = 0 scans are wrong for
    # this target, so it exits 3 where a regime check only warns.
    systems = _build_systems(config)
    out.write(f"molstrip {__version__} validate\n")
    failed = []
    for system in systems:
        params = system.params
        out.write(
            f"\nenergy {_fmt(params.energy_mev_u)} MeV/u: "
            f"v = {_fmt(params.velocity_au)} a.u., gamma = {_fmt(params.gamma)}\n"
        )
        regime = validate_regime(params, config.projectile, config.geometry)
        phi_check = cross_section.phi_invariance_check(system, math.pi / 2, config.tolerance)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molstrip",
        description="Electron-loss cross sections of fast ions on molecules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("scan-theta", "cross sections and delta over an orientation grid"),
        ("average", "chaotic-orientation averaged cross sections"),
        ("table", "dump the scaled-kick ionization probability table"),
        ("validate", "report the validity-regime diagnostics"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path (default: config 'output' or stdout)")
        p.add_argument("--tolerance", type=float, default=None)
    return parser


def _output_dir_error(path: str) -> str | None:
    """Why ``path`` cannot take the output (it is a directory, or its directory
    is missing or not writable), or None; checked before a run so that no scan
    is computed only to be lost.  Creates nothing."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    directory = os.path.dirname(path) or "."
    if os.path.exists(path) or os.access(directory, os.W_OK | os.X_OK):
        return None
    return os.strerror(errno.EACCES if os.path.isdir(directory) else errno.ENOENT)


def _cannot_write(field: str, path: str, reason: str) -> int:
    print(f"config error: {field}: cannot write {path!r}: {reason}", file=sys.stderr)
    return EXIT_CONFIG_ERROR


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, overrides={"tolerance": args.tolerance})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    out_path = args.out or config.output
    field = "--out" if args.out else "output"
    reason = out_path and _output_dir_error(out_path)
    if reason:
        return _cannot_write(field, out_path, reason)

    command = {
        "scan-theta": cmd_scan_theta,
        "average": cmd_average,
        "table": cmd_table,
        "validate": cmd_validate,
    }[args.command]

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

    if not out_path:
        sys.stdout.write(buf.getvalue())
        return status
    try:
        with open(out_path, "w") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        return _cannot_write(field, out_path, exc.strerror)
    return status


if __name__ == "__main__":
    sys.exit(main())
