"""Command-line front end: configs, CSV output, exit codes, determinism."""

import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from molstrip.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NO_CONVERGENCE,
    MAX_THETA_POINTS,
    ConfigError,
    load_config,
    main,
)
from molstrip import cli, cross_section
from molstrip.cross_section import AU_TO_CM2, delta_scan

BASE_CONFIG = {
    "projectile": "Fe25+",
    "target": "N2",
    "energies_mev_u": [10.0],
    "theta_grid": {"points": 3},
    "tolerance": 1e-2,
    "table": {"s_max": 20.0, "n_points": 200, "n_max": 10},
    "seed": 0,
}

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.fixture
def config_path(tmp_path):
    def write(overrides=None, name="run.json"):
        cfg = {**BASE_CONFIG, **(overrides or {})}
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return write


def run_cli(args):
    return main(args)


def data_rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")
            and not ln[0].isalpha()]


class TestConfigLoading:
    def test_valid_config(self, config_path, quadrant_used):
        (system,) = load_config(config_path()).systems
        assert system.projectile.N_P == 1
        assert quadrant_used(system) is True
        assert system.params.energy_mev_u == 10.0

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"projectile": "U91+"}, "projectile"),
            ({"target": "CO2"}, "target"),
            ({"energies_mev_u": []}, "energies"),
            ({"energies_mev_u": [-5.0]}, "energies"),
            ({"tolerance": 0.5}, "tolerance"),
            ({"units": "barn"}, "units"),
            ({"theta_grid": [9.0]}, "theta_grid"),
            ({"threads": 0}, "threads"),
            ({"table": {"s_max": 10}}, "table.s_max"),
            ({"table": {"s_max": "20"}}, "table.s_max"),
            ({"table": {"s_max": float("inf")}}, "table.s_max"),
            ({"table": {"n_points": 100}}, "table.n_points"),
            ({"table": {"n_points": 400.5}}, "table.n_points"),
            ({"table": {"n_max": 5}}, "table.n_max"),
            ({"table": {"n_max": True}}, "table.n_max"),
            ({"table": {"smax": 20.0}}, "table.smax"),
            ({"table": [20.0, 400, 20]}, "table"),
            ({"tolerence": 1e-3}, "tolerence"),
            ({"threads": 1}, "threads"),
            ({"theta_grid": {"pts": 5}}, "theta_grid.pts"),
            ({"theta_grid": {"points": 2.7}}, "theta_grid.points"),
            ({"theta_grid": {"points": "x"}}, "theta_grid.points"),
            ({"theta_grid": [float("nan")]}, "theta_grid"),
            ({"tolerance": "abc"}, "tolerance"),
            ({"seed": "x"}, "seed"),
            ({"seed": 1.9}, "seed"),
            ({"energies_mev_u": ["a"]}, "energies_mev_u"),
            ({"energies_mev_u": [float("inf")]}, "energies_mev_u"),
            ({"energies_mev_u": [10**400]}, "energies_mev_u"),
            ({"projectile": {"Z": 26, "N_P": 2, "Zeff": 3}}, "projectile.Zeff"),
            ({"projectile": {"Z": 26, "N_P": 2.5}}, "projectile.N_P"),
            ({"target": {"diatomic": {"Z": 7, "bond_length": 2.0, "L": 1}}},
             "target.diatomic.L"),
            ({"output": "out.csv"}, "output: unknown field"),
            ({"hfs_table": 5}, "hfs_table: expected a path string"),
            ({"hfs_table": ""}, "hfs_table: expected a path string"),
            ({"target": {"atoms": [{"Z": 7, "position": [0.0, 0.0, 1.0]},
                                   {"Z": 7, "position": [0.0, 1.0]}]}},
             "target.atoms[1].position"),
            ({"target": {"atoms": [{"Z": 7, "position": [0.0, 0.0, 1.0, 0.0]}]}},
             "target.atoms[0].position"),
            ({"target": {"atoms": {"Z": 7}}}, "target.atoms: expected a list of objects"),
            ({"target": {"atoms": [5]}}, "target.atoms[0]: expected an object"),
            ({"target": {"atoms": [{"Z": 7, "position": 5}]}},
             "target.atoms[0].position: expected 3 numbers"),
            ({"target": {"atoms": [{"position": [0.0, 0.0, 1.0]}]}}, "target.atoms[0].Z"),
            ({"target": {"atoms": [{"Z": 99, "position": [0.0, 0.0, 1.0]}]}},
             "target.atoms[0].Z: no HFS coefficients"),
            ({"target": {"diatomic": 5}}, "target.diatomic: expected an object"),
            ({"target": {"diatomic": {"Z": 7}}}, "target.diatomic.bond_length"),
            ({"target": {"diatomic": {"Z": 7, "bond_length": 0}}},
             "target.diatomic.bond_length must be positive"),
            ({"target": {"diatomic": {"Z": 7, "bond_length": -1}}},
             "target.diatomic.bond_length must be positive"),
            ({"theta_grid": [-0.1]}, "theta_grid"),
            ({"theta_grid": []}, "theta_grid"),
            ({"theta_grid": {"points": 10**50}}, "theta_grid.points"),
            ({"theta_grid": {"points": 10**400}}, "theta_grid.points"),
            ({"table": {"n_points": 10**20}}, "table.n_points"),
            ({"table": {"n_points": 10**400}}, "table.n_points"),
            ({"table": {"n_max": 10**20}}, "table.n_max"),
            ({"table": {"n_max": 10**400}}, "table.n_max"),
            ({"projectile": 26}, "projectile: expected a preset name or an object"),
            ({"projectile": {"N_P": 2}}, "projectile.Z: missing required field"),
            ({"projectile": {"Z": 26, "N_P": 5}}, "projectile.N_P must be 1..3"),
            ({"projectile": {"Z": 3, "N_P": 3}}, "projectile.N_P must leave a net charge"),
            ({"projectile": {"Z": 26, "N_P": 2, "Z_eff": -1}}, "projectile.Z_eff"),
            ({"target": 7}, "target: expected a preset name or an object"),
            ({"target": {"atoms": [{"Z": 7, "position": [0.0, 0.0, 1.0]},
                                   {"Z": 7, "position": [0.0, 0.0, 1.0]}]}},
             "target.atoms[1] coincides with atoms[0]"),
            ({"theta_grid": "31"}, "theta_grid: expected"),
        ],
    )
    def test_invalid_fields_are_named(self, config_path, overrides, field):
        with pytest.raises(ConfigError, match="^" + re.escape(field)):
            load_config(config_path(overrides))

    def test_config_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([BASE_CONFIG]))
        with pytest.raises(ConfigError, match="^config: expected a JSON object$"):
            load_config(path)

    @pytest.mark.parametrize("theta_grid", ["absent", {}])
    def test_theta_grid_default(self, config_path, tmp_path, theta_grid):
        if theta_grid == "absent":
            path = tmp_path / "default.json"
            path.write_text(json.dumps({k: v for k, v in BASE_CONFIG.items()
                                        if k != "theta_grid"}))
        else:
            path = config_path({"theta_grid": theta_grid})
        grid = load_config(path).theta_grid
        assert len(grid) == 31
        assert (grid[0], grid[-1]) == (0.0, math.pi / 2)

    def test_integer_past_the_parser_limit(self, tmp_path):
        # Python refuses to parse a JSON integer of more than 4300 digits.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(BASE_CONFIG)[:-1] + ', "seed": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize("offset,accepted", [(2e-12, False), (5e-13, True)])
    def test_theta_rule_matches_delta_scan(self, config_path, capsys, make_system,
                                           offset, accepted):
        theta = math.pi / 2 + offset
        code = run_cli(["table", "--config", config_path({"theta_grid": [theta]})])
        err = capsys.readouterr().err
        if accepted:
            assert code == 0
            assert delta_scan([make_system(1, 10.0)], [theta])[0].delta[0, 0] == 0.0
        else:
            assert code == EXIT_CONFIG_ERROR and "theta_grid" in err
            with pytest.raises(ValueError, match="theta grid"):
                delta_scan([make_system(1, 10.0)], [theta])

    def test_table_defaults_and_types(self, config_path):
        table = load_config(config_path({"table": {"s_max": 20}})).systems[0].table
        assert (len(table.w_values), table.n_max, table.s_grid[-1]) == (400, 20, 20.0)

    def test_reserved_and_execution_fields_accepted(self, config_path):
        cfg = load_config(config_path({"seed": 7}))
        assert cfg.raw["seed"] == 7

    def test_missing_required_field(self, config_path, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"projectile": "Fe25+", "target": "N2"}))
        with pytest.raises(ConfigError, match="^energies_mev_u: missing required field$"):
            load_config(path)

    def test_explicit_projectile_and_target(self, config_path):
        cfg = load_config(config_path({
            "projectile": {"Z": 26, "N_P": 2, "Z_eff": 25.3},
            "target": {"diatomic": {"Z": 7, "bond_length": 2.0}},
        }))
        assert cfg.systems[0].projectile.Z_eff == pytest.approx(25.3)

    def test_custom_hfs_table(self, config_path, tmp_path):
        table = tmp_path / "atoms.csv"
        table.write_text(
            "Z,A1,A2,A3,alpha1,alpha2,alpha3\n7,0.1741,0.8259,0.0,9.1943,1.6642,1.0\n"
        )
        cfg = load_config(config_path({"hfs_table": str(table)}))
        assert cfg.systems[0].geometry.atoms[0].Z == 7


class TestExitCodes:
    def test_success(self, config_path, capsys):
        assert run_cli(["table", "--config", config_path()]) == 0
        capsys.readouterr()

    def test_missing_config_file(self, capsys):
        assert run_cli(["scan-theta", "--config", "/nonexistent.json"]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_field(self, config_path, capsys):
        code = run_cli(["scan-theta", "--config", config_path({"projectile": "Xe99+"})])
        assert code == EXIT_CONFIG_ERROR
        assert "projectile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,field",
        [({"table": {"s_max": 10}}, "table.s_max"), ({"tolerence": 1e-3}, "tolerence"),
         ({"units": "cm2"}, "units"), ({"table": {"s_max": 100}}, "table.s_max")],
    )
    def test_table_config_error(self, config_path, capsys, overrides, field):
        assert run_cli(["table", "--config", config_path(overrides)]) == EXIT_CONFIG_ERROR
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan-theta", "average", "table", "validate"])
    def test_table_range_other_than_20_fails_before_the_run(self, config_path, capsys,
                                                           monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("cross_section_fixed called")

        monkeypatch.setattr(cross_section, "cross_section_fixed", never)
        cfg = config_path({"table": {"s_max": 25}})
        assert run_cli([command, "--config", cfg]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: table.s_max must lie in [20, 20], got 25.0\n"

    @pytest.mark.parametrize("command", ["scan-theta", "average", "validate"])
    def test_energy_too_small_for_a_speed(self, config_path, capsys, command):
        assert run_cli([command, "--config", config_path({"energies_mev_u": [1e-14]})]) \
            == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: energies_mev_u: energy 1e-14 MeV/u is too small")

    def test_tiny_energy_with_a_speed_loads(self, config_path):
        # 1e-12 MeV/u is a speed of 6.5e-6 a.u.
        (system,) = load_config(config_path({"energies_mev_u": [1e-12]})).systems
        assert system.params.energy_mev_u == 1e-12

    def test_theta_list_past_the_cap_fails_before_the_run(self, config_path, capsys,
                                                          monkeypatch):
        def no_integrals(*args, **kwargs):
            raise AssertionError("cross_section_fixed was called")

        monkeypatch.setattr(cross_section, "cross_section_fixed", no_integrals)
        angles = [0.1] * (MAX_THETA_POINTS + 1)
        code = run_cli(["scan-theta", "--config", config_path({"theta_grid": angles})])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"config error: theta_grid: at most {MAX_THETA_POINTS} angles, "
            f"got {MAX_THETA_POINTS + 1}\n")
        # The cap itself is allowed.
        cfg = load_config(config_path({"theta_grid": [0.1] * MAX_THETA_POINTS}))
        assert len(cfg.theta_grid) == MAX_THETA_POINTS

    def test_unreached_outer_cutoff(self, config_path, tmp_path, capsys):
        atoms = tmp_path / "soft.csv"
        atoms.write_text("Z,A1,A2,A3,alpha1,alpha2,alpha3\n50,0.3,0.3,0.4,0.01,0.011,0.012\n")
        cfg = config_path({
            "hfs_table": str(atoms),
            "target": {"atoms": [{"Z": 50, "position": [0.0, 0.0, 0.0]}]},
        })
        assert run_cli(["scan-theta", "--config", cfg]) == EXIT_NO_CONVERGENCE
        assert "outer cutoff not reached" in capsys.readouterr().err

    def test_sign_changing_hfs_fit(self, config_path, tmp_path, capsys):
        # Sum A = 1 and alpha > 0 pass the loader, but the kick changes sign.
        atoms = tmp_path / "flip.csv"
        atoms.write_text("Z,A1,A2,A3,alpha1,alpha2,alpha3\n7,-0.5,1.5,0.0,1.0,3.0,1.0\n")
        cfg = config_path({"hfs_table": str(atoms)})
        assert run_cli(["scan-theta", "--config", cfg]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert re.search(r"hfs_table: .*Z=7 ", err)

    def test_denormal_alpha_hfs_entry(self, config_path, tmp_path, capsys):
        # 600 / 5e-324 overflows to inf; the capped kick table still meets
        # alpha r = 0 at its first node and rejects the fit.
        atoms = tmp_path / "tiny.csv"
        atoms.write_text("Z,A1,A2,A3,alpha1,alpha2,alpha3\n7,0.1741,0.8259,0.0,9.1943,5e-324,1.0\n")
        cfg = config_path({"hfs_table": str(atoms)})
        assert run_cli(["scan-theta", "--config", cfg]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: hfs_table: bessel_k1 requires a positive finite "
                       "argument, got 0.0\n")

    # A non-finite Z used to end in a traceback with exit 1, and a nan A or
    # alpha in a message naming no line.
    @pytest.mark.parametrize("field,row", [
        ("Z", "nan,0.1741,0.8259,0.0,9.1943,1.6642,1.0"),
        ("Z", "inf,0.1741,0.8259,0.0,9.1943,1.6642,1.0"),
        ("A", "7,nan,0.8259,0.0,9.1943,1.6642,1.0"),
        ("alpha", "7,0.1741,0.8259,0.0,9.1943,1.6642,inf"),
    ])
    def test_nonfinite_hfs_entry(self, config_path, tmp_path, capsys, field, row):
        atoms = tmp_path / "atoms.csv"
        atoms.write_text(f"Z,A1,A2,A3,alpha1,alpha2,alpha3\n{row}\n")
        cfg = config_path({"hfs_table": str(atoms)})
        assert run_cli(["scan-theta", "--config", cfg]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert re.search(rf"hfs_table: line 2 .*{field} must be finite", err)

    def test_non_integer_hfs_z(self, config_path, tmp_path, capsys):
        # Used to load as the Z = 7 entry with its kick scaled by 7.4.
        atoms = tmp_path / "atoms.csv"
        atoms.write_text("Z,A1,A2,A3,alpha1,alpha2,alpha3\n"
                         "7.4,0.1741,0.8259,0.0,9.1943,1.6642,1.0\n")
        cfg = config_path({"hfs_table": str(atoms)})
        assert run_cli(["scan-theta", "--config", cfg]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: hfs_table: line 2 (Z=7.4): Z must be an integer\n")

    @pytest.mark.parametrize("command", ["scan-theta", "average", "validate"])
    def test_vanishing_perpendicular_sigma(self, config_path, capsys, command):
        # Z_eff = 1e200 scales every kick to s ~ 1e-200, so p and each sigma are 0.
        # validate's azimuthal check would then compare zeros and pass vacuously.
        cfg = config_path({"projectile": {"Z": 26, "N_P": 2, "Z_eff": 1e200},
                           "energies_mev_u": [100.0]})
        assert run_cli([command, "--config", cfg]) == EXIT_NO_CONVERGENCE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("degenerate system: sigma^1+ at theta = pi/2 vanishes at 100 MeV/u, "
                       "so no ratio to it is defined\n")

    def test_failed_run_keeps_existing_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"good")
        cfg = config_path({"projectile": {"Z": 26, "N_P": 2, "Z_eff": 1e200},
                           "energies_mev_u": [100.0]})
        code = run_cli(["scan-theta", "--config", cfg, "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        capsys.readouterr()
        assert out.read_bytes() == b"good"

    def test_unwritable_output_path(self, config_path, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert run_cli(["table", "--config", config_path(), "--out", target]) \
            == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: --out: cannot write {target!r}: "
                       "No such file or directory\n")

    def test_missing_output_directory_fails_before_the_run(self, config_path, tmp_path,
                                                          capsys, monkeypatch):
        def no_integrals(*args, **kwargs):
            raise AssertionError("cross_section_fixed was called")

        monkeypatch.setattr(cross_section, "cross_section_fixed", no_integrals)
        target = str(tmp_path / "missing" / "x.csv")
        code = run_cli(["scan-theta", "--config", config_path(), "--out", target])
        assert code == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: --out: cannot write {target!r}: "
                       "No such file or directory\n")
        assert not (tmp_path / "missing").exists()

    def test_empty_output_path_fails_before_the_run(self, config_path, capsys, monkeypatch):
        def no_integrals(*args, **kwargs):
            raise AssertionError("cross_section_fixed was called")

        monkeypatch.setattr(cross_section, "cross_section_fixed", no_integrals)
        code = run_cli(["scan-theta", "--config", config_path(), "--out", ""])
        assert code == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: --out: cannot write '': No such file or directory\n"

    def test_write_failing_after_the_check(self, config_path, tmp_path, capsys, monkeypatch):
        # The pre-check passes, and the open itself fails: still exit 2, naming the path.
        monkeypatch.setattr(cli, "_output_dir_error", lambda path: None)
        target = str(tmp_path / "missing" / "x.csv")
        assert run_cli(["table", "--config", config_path(), "--out", target]) \
            == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: --out: cannot write {target!r}: "
                       "No such file or directory\n")

    def test_directory_as_output_fails_before_the_run(self, config_path, tmp_path, capsys,
                                                      monkeypatch):
        def no_integrals(*args, **kwargs):
            raise AssertionError("cross_section_fixed was called")

        monkeypatch.setattr(cross_section, "cross_section_fixed", no_integrals)
        target = str(tmp_path)
        code = run_cli(["scan-theta", "--config", config_path(), "--out", target])
        assert code == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: --out: cannot write {target!r}: Is a directory\n"

    @pytest.mark.parametrize("bond", [6000, 20700, 1e308])
    def test_far_apart_atoms(self, config_path, tmp_path, capsys, bond):
        # Two N atoms out of each other's reach: sigma_perp is twice one atom's
        # 0.00541113, or, past what the b-plane coordinates resolve, exit 3.
        cfg = config_path({"target": {"diatomic": {"Z": 7, "bond_length": bond}},
                           "theta_grid": [math.pi / 2], "tolerance": 1e-3, "table": {}})
        out = tmp_path / "far.csv"
        code = run_cli(["scan-theta", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        if bond == 1e308:
            assert code == EXIT_NO_CONVERGENCE
            assert "b-plane coordinates" in err
            return
        assert code == 0
        row = data_rows(out.read_text())[0].split(",")
        sigma, quad_error = float(row[2]), float(row[4])
        assert abs(sigma - 2 * 0.00541113) <= quad_error

    def test_flag_overrides_are_validated(self, config_path, capsys):
        code = run_cli(["table", "--config", config_path(), "--tolerance", "0.9"])
        assert code == EXIT_CONFIG_ERROR
        capsys.readouterr()

    def test_tolerance_flag_replaces_the_config_value(self, config_path, tmp_path):
        # The run and its echoed config are those of a config stating 5e-3.
        outs = [tmp_path / "flag.csv", tmp_path / "stated.csv"]
        flagged = config_path({"tolerance": 1e-2}, name="flag.json")
        stated = config_path({"tolerance": 5e-3}, name="stated.json")
        assert run_cli(["scan-theta", "--config", flagged, "--tolerance", "5e-3",
                        "--out", str(outs[0])]) == 0
        assert run_cli(["scan-theta", "--config", stated, "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("flag,value", [("--threads", "2"), ("--units", "cm2"),
                                            ("--seed", "0")])
    def test_removed_flags_are_rejected(self, config_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan-theta", "--config", config_path(), flag, value])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert flag in capsys.readouterr().err


class TestScanTheta:
    def test_output_schema(self, config_path, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan-theta", "--config", config_path(), "--out", str(out)]) == 0
        text = out.read_text()
        assert "theta_rad,channel_m,sigma_au,sigma_cm2,quad_error_au,delta" in text
        rows = data_rows(text)
        assert len(rows) == 3  # 3 theta points x 1 channel
        last = rows[-1].split(",")
        assert float(last[5]) == 0.0  # delta(pi/2) = 0

    def test_three_channels_for_lithium_like(self, config_path, tmp_path):
        out = tmp_path / "scan23.csv"
        cfg = config_path({"projectile": "Fe23+", "theta_grid": {"points": 2}})
        assert run_cli(["scan-theta", "--config", cfg, "--out", str(out)]) == 0
        rows = data_rows(out.read_text())
        assert len(rows) == 6  # 2 theta points x 3 channels
        assert sorted({r.split(",")[1] for r in rows}) == ["1", "2", "3"]

    def test_header_is_self_describing(self, config_path, tmp_path):
        out = tmp_path / "scan.csv"
        run_cli(["scan-theta", "--config", config_path(), "--out", str(out)])
        head = out.read_text().splitlines()
        assert head[0].startswith("# molstrip ")
        assert head[1].startswith("# config = ")
        assert any(ln.startswith("# velocity_au") for ln in head)

    @pytest.mark.parametrize("shift", [(0.0, 0.0, 0.5), (3.0, 0.0, 0.0), (0.0, 1e10, 0.0)],
                             ids=["0.5 along the bond", "3 along body x", "1e10 along body y"])
    def test_shifted_n2_prints_the_preset_rows(self, config_path, tmp_path, monkeypatch, shift):
        # Only the atoms' relative positions matter: the same rows from the same
        # number of integrand points, wherever the pair is written.
        points = []
        original = cross_section.integrate_b_plane

        def counting(integrand, **kwargs):
            def counted(p):
                points.append(len(p))
                return integrand(p)

            return original(counted, **kwargs)

        monkeypatch.setattr(cross_section, "integrate_b_plane", counting)

        def scan(target):
            points.clear()
            out = tmp_path / "scan.csv"
            assert run_cli(["scan-theta", "--config", config_path({"target": target}),
                            "--out", str(out)]) == 0
            return ([ln for ln in out.read_text().splitlines() if not ln.startswith("# config")],
                    sum(points))

        atoms = [{"Z": 7, "position": [shift[0], shift[1], shift[2] + z]}
                 for z in (1.035, -1.035)]
        assert scan({"atoms": atoms}) == scan("N2")


class TestAverage:
    def test_output_schema_and_units(self, config_path, tmp_path):
        out = tmp_path / "avg.csv"
        assert run_cli(["average", "--config", config_path(), "--out", str(out)]) == 0
        text = out.read_text()
        assert ("channel_m,sigma_avg_au,sigma_perp_au,relative_correction,"
                "relative_correction_error,sigma_avg_cm2,sigma_perp_cm2") in text
        rows = [r.split(",") for r in data_rows(text)]
        assert all(len(row) == 7 and float(row[4]) >= 0.0 for row in rows)
        for row in rows:
            for au, cm2 in ((row[1], row[5]), (row[2], row[6])):
                # Both columns are printed to 9 digits, so they agree to 1e-8.
                assert float(cm2) == pytest.approx(float(au) * AU_TO_CM2, rel=1e-8)


class TestTable:
    def test_table_dump(self, config_path, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli(["table", "--config", config_path(), "--out", str(out)]) == 0
        rows = [r.split(",") for r in data_rows(out.read_text())]
        assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0
        w = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(w, w[1:]))


class TestValidate:
    def test_clean_system_passes(self, config_path, capsys):
        assert run_cli(["validate", "--config",
                        config_path({"energies_mev_u": [1000.0]})]) == 0
        report = capsys.readouterr().out
        assert "[pass]" in report
        assert "[WARN]" not in report

    def test_low_charge_warns_but_exits_zero(self, config_path, capsys):
        cfg = config_path({"projectile": {"Z": 7, "N_P": 3}})
        assert run_cli(["validate", "--config", cfg]) == 0
        assert "[WARN]" in capsys.readouterr().out

    def test_every_energy_checks_azimuthal_invariance(self, config_path, capsys, monkeypatch):
        # Two full-plane integrals, one per azimuth, carry all three energies.
        integrals = []
        honest = cross_section.integrate_b_plane

        def counted(integrand, **kwargs):
            integrals.append(kwargs["half_width"])
            return honest(integrand, **kwargs)

        monkeypatch.setattr(cross_section, "integrate_b_plane", counted)
        cfg = config_path({"energies_mev_u": [10.0, 100.0, 1000.0]})
        assert run_cli(["validate", "--config", cfg]) == 0
        assert len(integrals) == 2
        report = capsys.readouterr().out
        assert [b.count("azimuthal invariance") for b in report.split("\nenergy ")[1:]] == [1] * 3
        assert report.count("[pass] azimuthal invariance") == 3

    def test_phi_dependent_sigma_exits_3(self, config_path, tmp_path, capsys, monkeypatch):
        honest = cross_section.cross_section_fixed

        def skewed(systems, theta, phi=0.0, rel_tol=1e-3, use_symmetry=True):
            # sigma of the 10 MeV/u system alone grows with phi.
            results = honest(systems, theta, phi, rel_tol=rel_tol, use_symmetry=use_symmetry)
            return [[replace(r, sigma_au=r.sigma_au * (1.0 + 0.1 * phi)) for r in channels]
                    if system.params.energy_mev_u == 10.0 else channels
                    for system, channels in zip(systems, results)]

        monkeypatch.setattr(cross_section, "cross_section_fixed", skewed)
        cfg = config_path({"energies_mev_u": [10.0, 100.0, 1000.0]})
        assert run_cli(["validate", "--config", cfg]) == EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        blocks = captured.out.split("\nenergy ")[1:]
        assert ["[FAIL] azimuthal invariance" in b for b in blocks] == [True, False, False]
        assert captured.err == "azimuthal invariance check failed at 10 MeV/u\n"

        # The failing report is still written to the output file.
        out = tmp_path / "report.txt"
        code = run_cli(["validate", "--config", cfg, "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        assert "[FAIL] azimuthal invariance" in out.read_text()
        assert capsys.readouterr().out == ""


class TestShippedConfigs:
    def test_configs_are_shipped(self):
        assert SHIPPED_CONFIGS

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_loads_and_validates_cleanly(self, path, capsys):
        systems = load_config(path).systems
        assert [s.params.energy_mev_u for s in systems] == [10.0, 100.0, 1000.0]
        assert run_cli(["validate", "--config", str(path)]) == 0
        report = capsys.readouterr().out
        assert report.count("[pass]") == 12 and "[WARN]" not in report


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestShippedOutputs:
    """``scan-theta`` and ``average`` on the shipped configs reproduce
    ``tests/golden/<config>_<command>.csv`` byte for byte.

    A change that moves these numbers on purpose regenerates the files, with
    ``molstrip <command> --config configs/<config>.json --out
    tests/golden/<config>_<command>.csv`` for each pair, and lists every moved
    value, old -> new, in CHANGES.md.
    """

    @pytest.mark.parametrize("command", ["scan-theta", "average"])
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_matches_golden_file(self, path, command, tmp_path):
        out = tmp_path / "out.csv"
        assert run_cli([command, "--config", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{path.stem}_{command}.csv").read_bytes()


class TestDeterminism:
    def test_byte_identical_reruns(self, config_path, tmp_path):
        cfg = config_path()
        outs = []
        for name in ("a.csv", "b.csv", "c.csv"):
            out = tmp_path / name
            assert run_cli(["scan-theta", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestEntryPoint:
    def test_module_invocation(self, config_path, child_env):
        result = subprocess.run(
            [sys.executable, "-m", "molstrip.cli", "table", "--config", config_path()],
            capture_output=True, text=True, env=child_env,
        )
        assert result.returncode == 0
        assert "s,w_ion" in result.stdout

    def test_commands_load_neither_scipy_nor_numpy_ma(self, config_path, tmp_path, child_env):
        # The CLI evaluates everything in numpy: importing scipy.special alone
        # cost about 0.3 s and 25 MB at start-up.  mpmath and
        # molstrip.verification serve only the test oracles, and scipy only
        # the tests.  numpy.ma, which np.unique imports, cost about 1 MB.
        code = ("import sys, molstrip.cli\n"
                "def loaded():\n"
                "    return sorted(m for m in sys.modules if m.startswith(('scipy', 'mpmath'))\n"
                "                  or m in ('molstrip.verification', 'numpy.ma')\n"
                "                  or m.startswith('numpy.ma.'))\n"
                "print(loaded())\n"
                "for i, command in enumerate(['scan-theta', 'average', 'table', 'validate']):\n"
                "    code = molstrip.cli.main([command, '--config', sys.argv[1],\n"
                "                              '--out', f'{sys.argv[2]}/{i}.csv'])\n"
                "    print(command, code, loaded())\n")
        result = subprocess.run([sys.executable, "-c", code, config_path(), str(tmp_path)],
                                capture_output=True, text=True, env=child_env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "scan-theta 0 []", "average 0 []",
                                              "table 0 []", "validate 0 []"]
