"""What the benchmark's tracing relies on, checked without running the benchmark.

``perfbench/tracing.py`` rebinds molstrip module attributes while a pass runs,
and counts one orientation point per call of
``cross_section.cross_section_fixed`` on the symmetric path.  The workloads
import molstrip names directly.  A rename or a changed call pattern would
break those counters silently, so these tests keep them in the tier-1 suite.
"""

import ast
import importlib
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from molstrip import cli, cross_section, form_factor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CONFIG = {
    "projectile": "Fe24+",
    "target": "N2",
    "energies_mev_u": [10.0],
    "theta_grid": {"points": 3},
    "tolerance": 1e-2,
    "table": {"s_max": 20.0, "n_points": 200, "n_max": 10},
}


def _dotted(node):
    """['mod', 'attr', ...] for a chain of attribute accesses on a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) and parts else None


def _benchmark_names():
    """(module, attribute path) for every molstrip name the benchmark reaches:
    its imports, the attributes it reads off molstrip modules, and the
    attributes it rebinds."""
    found = set()
    for source in ("tracing.py", "workloads.py", "references.py"):
        nodes = list(ast.walk(ast.parse((PERFBENCH / source).read_text())))
        modules = {}     # local name -> molstrip module
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "molstrip":
                modules.update({a.name: f"molstrip.{a.name}" for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("molstrip."):
                found.update((node.module, a.name) for a in node.names)
        for node in nodes:
            path = _dotted(node)
            if path and path[0] in modules:
                found.add((modules[path[0]], ".".join(path[1:])))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "rebind":
                owner = _dotted(node.args[0]) or [node.args[0].id]
                attr = ".".join([*owner[1:], node.args[1].value])
                found.add((modules[owner[0]], attr))
    return sorted(found)


@pytest.mark.parametrize("module,attr", _benchmark_names(), ids=lambda x: x)
def test_benchmark_name_exists(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(obj, part), f"{module}.{attr}"
        obj = getattr(obj, part)


def test_rebinding_targets_are_found():
    names = _benchmark_names()
    assert ("molstrip.cross_section", "cross_section_fixed") in names
    assert ("molstrip.form_factor", "IonizationTable.__call__") in names


def _scan_config_keys():
    """The keys of the config dict that ``Scan.setup`` writes."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    scan = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Scan")
    setup = next(n for n in scan.body if isinstance(n, ast.FunctionDef) and n.name == "setup")
    config = next(n.value for n in ast.walk(setup)
                  if isinstance(n, ast.Assign) and isinstance(n.value, ast.Dict)
                  and getattr(n.targets[0], "id", None) == "config")
    return {key.value for key in config.keys}


def test_cli_accepts_every_benchmark_config_key():
    keys = _scan_config_keys()
    assert {"seed", "table", "tolerance"} <= keys
    assert keys <= cli.CONFIG_FIELDS


def _benchmark_tables():
    """The table settings ``inputs.py`` defines, by name."""
    tree = ast.parse((PERFBENCH / "inputs.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) in ("DEFAULT_TABLE", "SMOKE_TABLE")}


@pytest.mark.parametrize("name", ["DEFAULT_TABLE", "SMOKE_TABLE"])
def test_cli_accepts_the_benchmark_table_settings(name):
    table = _benchmark_tables()[name]
    assert table.keys() == form_factor.TABLE_LIMITS.keys()
    form_factor.build_ionization_table(**table)


@pytest.fixture
def fixed_calls(monkeypatch):
    """Arguments of every cross_section_fixed call, defaults filled in."""
    calls = []
    original = cross_section.cross_section_fixed
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(cross_section, "cross_section_fixed", recording)
    return calls


def _run(tmp_path, command, config=CONFIG):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0


def _assert_symmetric_path(calls, thetas):
    assert all(c["use_symmetry"] and c["phi"] == 0.0 for c in calls)
    assert sorted(c["theta"] for c in calls) == pytest.approx(sorted(thetas), abs=1e-15)


def test_scan_theta_calls_each_theta_once_on_the_symmetric_path(tmp_path, fixed_calls):
    _run(tmp_path, "scan-theta")
    _assert_symmetric_path(fixed_calls, np.linspace(0.0, math.pi / 2, 3))


def test_average_calls_each_node_once_on_the_symmetric_path(tmp_path, fixed_calls):
    _run(tmp_path, "average")
    u = 0.5 * (np.polynomial.legendre.leggauss(20)[0] + 1.0)
    nodes = 2.0 * np.arcsin(u / math.sqrt(2.0))
    _assert_symmetric_path(fixed_calls, [math.pi / 2, *nodes])


# Three energies share one b-plane mesh per orientation.
CONFIG_3E = {**CONFIG, "energies_mev_u": [10.0, 100.0, 1000.0]}


def test_three_energy_scan_calls_each_theta_once(tmp_path, fixed_calls):
    _run(tmp_path, "scan-theta", CONFIG_3E)
    _assert_symmetric_path(fixed_calls, np.linspace(0.0, math.pi / 2, 3))


def test_three_energy_average_calls_each_node_once(tmp_path, fixed_calls):
    _run(tmp_path, "average", CONFIG_3E)
    u = 0.5 * (np.polynomial.legendre.leggauss(20)[0] + 1.0)
    nodes = 2.0 * np.arcsin(u / math.sqrt(2.0))
    _assert_symmetric_path(fixed_calls, [math.pi / 2, *nodes])


def test_shared_mesh_evaluates_at_most_half_the_points(tmp_path, monkeypatch):
    points = []
    original = cross_section.integrate_b_plane

    def counting(integrand, **kwargs):
        def counted(p):
            points.append(len(p))
            return integrand(p)

        return original(counted, **kwargs)

    monkeypatch.setattr(cross_section, "integrate_b_plane", counting)
    _run(tmp_path, "scan-theta", CONFIG_3E)
    shared = sum(points)
    points.clear()
    for energy in CONFIG_3E["energies_mev_u"]:
        _run(tmp_path, "scan-theta", {**CONFIG, "energies_mev_u": [energy]})
    assert shared <= 0.5 * sum(points)


@pytest.mark.parametrize("command", ["scan-theta", "average", "table", "validate"])
def test_each_command_builds_one_table_through_the_cli_name(tmp_path, monkeypatch, command):
    # The benchmark counts table builds by rebinding cli.build_ionization_table.
    builds = []
    original = cli.build_ionization_table

    def counting(*args, **kwargs):
        builds.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "build_ionization_table", counting)
    _run(tmp_path, command, CONFIG_3E)
    assert builds == [CONFIG["table"]]
