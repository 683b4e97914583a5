"""Config-driven command line: theta scans, chaotic averages, table dumps.

All commands read a JSON config, write `#`-commented CSV (9 significant
digits), and echo the config into the output header so every file is
self-describing and byte-reproducible for a fixed config and seed.

Exit codes: 0 success (regime warnings allowed), 2 config error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .atomic_data import HfsAtom, HfsTableError, MoleculeGeometry, builtin_hfs_table, load_hfs_table
from .cross_section import AU_TO_CM2, CollisionSystem, cross_section_theta, delta_scan, orientation_average
from .form_factor import ProjectileSpec, build_ionization_table
from .kinematics import validate_regime, velocity_from_energy
from .quadrature import QuadratureError

EXIT_CONFIG_ERROR = 2
EXIT_NO_CONVERGENCE = 3

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


CONFIG_FIELDS = frozenset({
    "projectile", "target", "energies_mev_u", "theta_grid", "tolerance", "table",
    "units", "seed", "threads", "output", "hfs_table",
})

# W_ion table parameters: (type, default, minimum), as build_ionization_table
# requires them.
TABLE_FIELDS = {
    "s_max": (float, 20.0, 20.0),
    "n_points": (int, 400, 200),
    "n_max": (int, 20, 10),
}


@dataclass
class RunConfig:
    projectile: ProjectileSpec
    geometry: MoleculeGeometry
    energies: list[float]
    theta_grid: np.ndarray
    tolerance: float = 1e-3
    table_params: dict = field(
        default_factory=lambda: {key: spec[1] for key, spec in TABLE_FIELDS.items()}
    )
    units: str = "au"
    seed: int = 0
    threads: int = 1
    output: str | None = None
    raw: dict = field(default_factory=dict)


def _get(cfg: dict, key: str, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required config field '{key}'")
    return default


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
    try:
        return ProjectileSpec(
            Z_nucleus=float(spec["Z"]),
            N_P=int(spec["N_P"]),
            z_eff=float(spec["Z_eff"]) if spec.get("Z_eff") is not None else None,
        )
    except KeyError as exc:
        raise ConfigError(f"projectile: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"projectile: {exc}") from exc


def _parse_target(spec, hfs: dict[int, HfsAtom]) -> MoleculeGeometry:
    if isinstance(spec, str):
        if spec not in TARGET_PRESETS:
            raise ConfigError(f"target: unknown preset {spec!r} (known: {sorted(TARGET_PRESETS)})")
        spec = TARGET_PRESETS[spec]
    if not isinstance(spec, dict):
        raise ConfigError("target: expected a preset name or an object")

    def atom_for(z) -> HfsAtom:
        z = int(z)
        if z not in hfs:
            raise ConfigError(f"target: no HFS coefficients for Z={z} in the atom table")
        return hfs[z]

    try:
        if "diatomic" in spec:
            d = spec["diatomic"]
            atom = atom_for(d["Z"])
            return MoleculeGeometry.diatomic(atom, atom, float(d["bond_length"]))
        atoms = spec["atoms"]
        return MoleculeGeometry(
            atoms=tuple(atom_for(a["Z"]) for a in atoms),
            positions=tuple(tuple(float(x) for x in a["position"]) for a in atoms),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"target: {exc}") from exc


def _parse_theta_grid(spec) -> np.ndarray:
    if spec is None:
        spec = {"points": 31}
    if isinstance(spec, dict):
        n = int(_get(spec, "points", 31))
        if n < 1:
            raise ConfigError(f"theta_grid.points must be >= 1, got {n}")
        return np.linspace(0.0, math.pi / 2, n)
    grid = np.asarray(spec, dtype=float)
    if grid.size == 0 or np.any(grid < 0) or np.any(grid > math.pi / 2 + 1e-12):
        raise ConfigError("theta_grid: explicit angles must be a nonempty list in [0, pi/2]")
    return grid


def _parse_table(spec) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError("table: expected an object")
    for key in spec:
        if key not in TABLE_FIELDS:
            raise ConfigError(f"table.{key}: unknown field (known: {sorted(TABLE_FIELDS)})")
    params = {}
    for key, (kind, default, minimum) in TABLE_FIELDS.items():
        value = spec.get(key, default)
        allowed = (int, float) if kind is float else int
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"table.{key}: expected {kind.__name__}, got {value!r}")
        if not (math.isfinite(value) and value >= minimum):
            raise ConfigError(f"table.{key} must be finite and >= {minimum:g}, got {value!r}")
        params[key] = kind(value)
    return params


def load_config(path, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    for key in raw:
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"{key}: unknown config field (known: {sorted(CONFIG_FIELDS)})")
    overrides = overrides or {}
    merged = {**raw, **{k: v for k, v in overrides.items() if v is not None}}

    hfs_path = merged.get("hfs_table")
    try:
        hfs = load_hfs_table(hfs_path) if hfs_path else builtin_hfs_table()
    except HfsTableError as exc:
        raise ConfigError(f"hfs_table: {exc}") from exc

    energies = _get(merged, "energies_mev_u", required=True)
    if not isinstance(energies, (list, tuple)) or not energies:
        raise ConfigError("energies_mev_u: expected a nonempty list")
    if any(not (float(e) > 0) for e in energies):
        raise ConfigError("energies_mev_u: all energies must be positive")

    tolerance = float(_get(merged, "tolerance", 1e-3))
    if not 1e-6 <= tolerance <= 1e-1:
        raise ConfigError(f"tolerance must lie in [1e-6, 1e-1], got {tolerance:g}")

    units = _get(merged, "units", "au")
    if units not in ("au", "cm2"):
        raise ConfigError(f"units must be 'au' or 'cm2', got {units!r}")

    table_params = _parse_table(_get(merged, "table", {}))

    threads = int(_get(merged, "threads", 1))
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    return RunConfig(
        projectile=_parse_projectile(_get(merged, "projectile", required=True)),
        geometry=_parse_target(_get(merged, "target", required=True), hfs),
        energies=[float(e) for e in energies],
        theta_grid=_parse_theta_grid(merged.get("theta_grid")),
        tolerance=tolerance,
        table_params=table_params,
        units=units,
        seed=int(_get(merged, "seed", 0)),
        threads=threads,
        output=merged.get("output"),
        raw=merged,
    )


def _build_systems(config: RunConfig):
    table = build_ionization_table(**config.table_params)
    systems = []
    for energy in config.energies:
        params = velocity_from_energy(energy)
        systems.append(CollisionSystem(config.geometry, config.projectile, params, table))
    return table, systems


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _header_lines(config: RunConfig, command: str) -> list[str]:
    # Threads and output path are execution details that do not affect the
    # numbers; excluding them keeps the file byte-identical across them.
    echo_cfg = {k: v for k, v in config.raw.items() if k not in ("threads", "output")}
    echo = json.dumps(echo_cfg, sort_keys=True, separators=(",", ":"))
    return [
        f"# molstrip {__version__} {command}",
        f"# config = {echo}",
        f"# seed = {config.seed}",
    ]


def _energy_lines(config: RunConfig, system: CollisionSystem) -> list[str]:
    warnings = validate_regime(system.params, system.projectile, system.geometry)
    lines = [
        f"# energy_mev_u = {_fmt(system.params.energy_mev_u)}",
        f"# velocity_au = {_fmt(system.params.velocity_au)}",
    ]
    lines += [f"# warning: {w}" for w in warnings]
    return lines


def cmd_scan_theta(config: RunConfig, out) -> None:
    _, systems = _build_systems(config)
    lines = _header_lines(config, "scan-theta")
    lines.append("theta_rad,channel_m,sigma_au,sigma_cm2,quad_error_au,delta")
    for system in systems:
        lines += _energy_lines(config, system)
        scan = delta_scan(
            system, config.theta_grid, rel_tol=config.tolerance, threads=config.threads
        )
        for i, theta in enumerate(scan.theta_grid):
            for m in range(1, system.projectile.N_P + 1):
                sigma = scan.sigma_au[i, m - 1]
                lines.append(
                    ",".join([
                        _fmt(theta), str(m), _fmt(sigma), _fmt(sigma * AU_TO_CM2),
                        _fmt(scan.quad_error[i, m - 1]), _fmt(scan.delta[i, m - 1]),
                    ])
                )
    out.write("\n".join(lines) + "\n")


def cmd_average(config: RunConfig, out) -> None:
    _, systems = _build_systems(config)
    lines = _header_lines(config, "average")
    columns = "channel_m,sigma_avg_au,sigma_perp_au,relative_correction"
    if config.units == "cm2":
        columns += ",sigma_avg_cm2,sigma_perp_cm2"
    lines.append(columns)
    for system in systems:
        lines += _energy_lines(config, system)
        perp = cross_section_theta(system, math.pi / 2, rel_tol=config.tolerance)
        avg = orientation_average(
            system, rel_tol=config.tolerance, check_phi=False, threads=config.threads
        )
        for r_avg, r_perp in zip(avg, perp):
            rel = r_avg.sigma_au / r_perp.sigma_au - 1.0
            row = [str(r_avg.m), _fmt(r_avg.sigma_au), _fmt(r_perp.sigma_au), _fmt(rel)]
            if config.units == "cm2":
                row += [_fmt(r_avg.sigma_cm2), _fmt(r_perp.sigma_cm2)]
            lines.append(",".join(row))
    out.write("\n".join(lines) + "\n")


def cmd_table(config: RunConfig, out) -> None:
    table, _ = _build_systems(config)
    lines = _header_lines(config, "table")
    lines.append("s,w_ion")
    for s, w in zip(table.s_grid, table.w_values):
        lines.append(f"{_fmt(s)},{_fmt(w)}")
    out.write("\n".join(lines) + "\n")


def cmd_validate(config: RunConfig, out) -> None:
    # Regime checks need only the kinematics: no W_ion table is built.
    from .kinematics import AMU_ME, ATOM_SIZE_AU, MIN_KL, MIN_NET_CHARGE, SUDDEN_RATIO_MAX

    out.write(f"molstrip {__version__} validate\n")
    for energy in config.energies:
        params = velocity_from_energy(energy)
        out.write(
            f"\nenergy {_fmt(params.energy_mev_u)} MeV/u: "
            f"v = {_fmt(params.velocity_au)} a.u., gamma = {_fmt(params.gamma)}\n"
        )
        warnings = {w.name: w for w in validate_regime(params, config.projectile, config.geometry)}
        tau_c = ATOM_SIZE_AU / (params.gamma * params.velocity_au)
        net = config.projectile.net_charge
        kl = params.gamma * AMU_ME * params.velocity_au * max(config.geometry.extent, ATOM_SIZE_AU)
        checks = [
            ("sudden collision (tau_c/tau_e)", tau_c, f"< {SUDDEN_RATIO_MAX:g}", "sudden"),
            ("projectile net charge", net, f">= {MIN_NET_CHARGE:g}", "charge"),
            ("eikonal product k*L", kl, f">= {MIN_KL:g}", "eikonal"),
        ]
        for label, ratio, requirement, name in checks:
            status = "WARN" if name in warnings else "pass"
            out.write(f"  [{status}] {label} = {_fmt(ratio)} (want {requirement})\n")
            if name in warnings:
                out.write(f"         {warnings[name].message}\n")


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
        p.add_argument("--units", choices=["au", "cm2"], default=None)
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, overrides={
            "units": args.units,
            "tolerance": args.tolerance,
            "threads": args.threads,
            "seed": args.seed,
        })
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    command = {
        "scan-theta": cmd_scan_theta,
        "average": cmd_average,
        "table": cmd_table,
        "validate": cmd_validate,
    }[args.command]

    out_path = args.out or config.output
    try:
        if out_path:
            with open(out_path, "w") as fh:
                command(config, fh)
        else:
            command(config, sys.stdout)
    except QuadratureError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
