"""The scan and verify workloads: set-up, timed solve, untimed check.

Each workload object is made from its seeded input.  ``setup()`` is the work
a user pays before the first result (a W_ion table for ``verify``),
``solve()`` is one timed pass and returns its raw outputs, and
``check()`` judges one pass's outputs and returns a ``Check``.  The
``digest`` of a pass covers every output value, so repeated passes and
repeated runs of the same code and seed must produce the same digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import env
import inputs
import tracing
from references import ReferenceStore


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)   # quad_error / |sigma - ref|

    def judge(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def build_table(params: dict):
    from molstrip import form_factor

    return form_factor.build_ionization_table(**params)


def n_electrons(projectile: str) -> int:
    from molstrip import cli

    return cli.PROJECTILE_PRESETS[projectile][1]


def collision_system(projectile: str, energy: float, table):
    """The CLI's projectile preset on its N2 target preset at one energy."""
    from molstrip import cli
    from molstrip.atomic_data import MoleculeGeometry, builtin_hfs_table
    from molstrip.cross_section import CollisionSystem
    from molstrip.form_factor import ProjectileSpec
    from molstrip.kinematics import velocity_from_energy

    diatomic = cli.TARGET_PRESETS["N2"]["diatomic"]
    atom = builtin_hfs_table()[diatomic["Z"]]
    geometry = MoleculeGeometry.diatomic(atom, atom, diatomic["bond_length"])
    return CollisionSystem(geometry, ProjectileSpec(*cli.PROJECTILE_PRESETS[projectile]),
                           velocity_from_energy(energy), table)


def _judge_sigma(check: Check, label: str, sigma: float, error: float, ref: float,
                 rel_tol: float) -> None:
    gap = abs(sigma - ref)
    check.judge(gap <= rel_tol * ref and error >= gap,
                f"{label}: sigma={sigma:.9g} ref={ref:.9g} quad_error={error:.3g}")
    if gap > 0:
        check.ratios.append(error / gap)


class Scan:
    """CLI ``scan-theta`` run in-process on a generated config."""

    name = "scan"
    projectile = inputs.SCAN_PROJECTILE

    def __init__(self, seed: int, smoke: bool):
        self.input = inputs.scan_input(seed, smoke)
        self.seed = seed
        tag = f"scan-{seed}{'-smoke' if smoke else ''}"
        self.config_path = env.WORK_DIR / f"{tag}.json"
        self.out_path = env.WORK_DIR / f"{tag}.csv"
        self.thetas = inputs.scan_thetas(self.input.theta_points)

    def setup(self) -> None:
        env.WORK_DIR.mkdir(parents=True, exist_ok=True)
        config = {
            "projectile": self.projectile,
            "target": "N2",
            "energies_mev_u": self.input.energies,
            "theta_grid": {"points": self.input.theta_points},
            "tolerance": self.input.tolerance,
            "table": self.input.table,
            "seed": self.seed,
        }
        self.config_path.write_text(json.dumps(config))

    def solve(self, span):
        from molstrip import cli

        self.out_path.unlink(missing_ok=True)
        with span(tracing.CLI):
            code = cli.main(["scan-theta", "--config", str(self.config_path),
                             "--out", str(self.out_path)])
        return code, self.out_path.read_bytes() if code == 0 else b""

    @property
    def n_ops(self) -> int:
        return len(self.input.energies) * len(self.thetas) * n_electrons(self.projectile)

    def prepare_check(self, refs: ReferenceStore) -> None:
        refs.ensure([(self.projectile, e, t) for e in self.input.energies for t in self.thetas],
                    self.input.table)

    def digest(self, output) -> str:
        return hashlib.sha256(output[1]).hexdigest()

    def check(self, output, refs: ReferenceStore) -> Check:
        code, csv_bytes = output
        n_p = n_electrons(self.projectile)
        check = Check()
        if code != 0:
            for _ in range(self.n_ops):
                check.judge(False, f"scan-theta exited with code {code}")
            return check
        blocks = []
        for line in csv_bytes.decode().splitlines():
            if line.startswith("# energy_mev_u = "):
                blocks.append((float(line.split("=", 1)[1]), []))
            elif line and not line.startswith("#") and not line.startswith("theta_rad"):
                blocks[-1][1].append(line.split(","))
        for i, energy in enumerate(self.input.energies):
            matches = i < len(blocks) and math.isclose(blocks[i][0], energy, rel_tol=1e-8)
            rows = blocks[i][1] if matches else []
            for j, theta in enumerate(self.thetas):
                ref = refs.sigma(self.projectile, energy, theta, self.input.table)
                for m in range(1, n_p + 1):
                    k = j * n_p + m - 1
                    label = f"E={energy:.6g} theta={theta:.4f} m={m}"
                    if k >= len(rows) or int(rows[k][1]) != m:
                        check.judge(False, f"{label}: row missing from the CSV")
                        continue
                    _judge_sigma(check, label, float(rows[k][2]), float(rows[k][4]),
                                 ref[m - 1], self.input.tolerance)
        return check


class Verify:
    """The independent oracles, judged by the acceptance-test bounds."""

    name = "verify"
    projectile = inputs.MC_PROJECTILE

    def __init__(self, seed: int, smoke: bool):
        self.input = inputs.verify_input(seed, smoke)

    def setup(self) -> None:
        self.system = collision_system(self.projectile, self.input.mc_energy,
                                       build_table(self.input.table))

    def solve(self, span):
        from molstrip import verification

        inp = self.input
        continuum = [verification.continuum_ionization_oracle(s) for s in inp.continuum_s]
        mc = [[(e.value, e.std_error) for e in verification.mc_cross_section(
                   self.system, theta, n_samples=inp.mc_samples, seed=inp.mc_seed)]
              for theta in inp.mc_thetas]
        bessel = [[verification.bessel_reference(x, order) for order in (0, 1)]
                  for x in inp.bessel_points]
        return continuum, mc, bessel

    @property
    def n_ops(self) -> int:
        inp = self.input
        return (len(inp.continuum_s) + len(inp.mc_thetas) * n_electrons(self.projectile)
                + 2 * len(inp.bessel_points))

    def digest(self, output) -> str:
        return _digest(output)

    def prepare_check(self, refs: ReferenceStore) -> None:
        """Production-route values the oracles are compared with (untimed)."""
        from molstrip.cross_section import cross_section_fixed
        from molstrip.form_factor import ionization_probability
        from molstrip.special_functions import bessel_k0, bessel_k1

        inp = self.input
        self.w_ion = [ionization_probability(s) for s in inp.continuum_s]
        self.quad = [[(r.sigma_au, r.quad_error)
                      for r in cross_section_fixed(self.system, theta, rel_tol=1e-3)]
                     for theta in inp.mc_thetas]
        self.kernels = [[bessel_k0(x), bessel_k1(x)] for x in inp.bessel_points]

    def check(self, output, refs: ReferenceStore) -> Check:
        continuum, mc, bessel = output
        inp = self.input
        check = Check()
        # Acceptance criterion 4: the two W_ion routes agree within 1e-3 ...
        for s, oracle, production in zip(inp.continuum_s, continuum, self.w_ion):
            gap = abs(oracle - production)
            check.judge(gap <= 1e-3, f"W_ion(s={s:.4f}): routes differ by {gap:.2e}")
        # ... and quadrature agrees with Monte Carlo within 3 (quad + MC) errors.
        for theta, estimates, quad in zip(inp.mc_thetas, mc, self.quad):
            for m, ((value, std), (sigma, error)) in enumerate(zip(estimates, quad), start=1):
                gap = abs(sigma - value)
                check.judge(gap <= 3.0 * (error + std),
                            f"MC theta={theta:.4f} m={m}: |quad - MC| = {gap:.3g}")
        # Acceptance criterion 5: K0/K1 within 1e-12 of the reference.
        for x, refs_x, kernels in zip(inp.bessel_points, bessel, self.kernels):
            for order, (ref, value) in enumerate(zip(refs_x, kernels)):
                check.judge(abs(value / ref - 1.0) <= 1e-12, f"K{order}({x:g}) off reference")
        return check


WORKLOADS = {cls.name: cls for cls in (Scan, Verify)}
