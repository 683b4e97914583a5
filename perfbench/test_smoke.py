"""Smoke tests of the benchmark at toy size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs with ``--smoke`` (3 theta, tol 1e-2, a 200-point table
with n_max 10, one continuum call at s = 0.3, 1e4 Monte Carlo samples), once
untraced and once traced.  Each run must emit exactly the metrics
``BENCHMARK.json`` names, judge every output, and find nothing wrong.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_OPS = {"scan": 6, "verify": 13}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_and_checks_outputs(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for spec in expected:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    # One judged operation per output value of each pass, plus determinism.
    assert result["attempted"] >= MIN_OPS[workload] + 1
    assert result["failed"] == 0 and result["correct"] is True


def test_scan_check_rejects_a_wrong_cross_section():
    sys.path.insert(0, str(BENCH_DIR))
    import env

    env.add_source_path()
    from references import ReferenceStore
    from workloads import Scan, n_electrons

    scan = Scan(seed=0, smoke=True)
    refs = ReferenceStore()
    scan.prepare_check(refs)
    n_p = n_electrons(scan.projectile)
    energy = scan.input.energies[0]

    def csv(rows):
        lines = [f"# energy_mev_u = {energy:.9g}"] + [",".join(row) for row in rows]
        return "\n".join(lines).encode()

    rows = []
    for theta in scan.thetas:
        ref = refs.sigma(scan.projectile, energy, theta, scan.input.table)
        for m in range(1, n_p + 1):
            sigma = ref[m - 1]
            rows.append([f"{theta:.9g}", str(m), f"{sigma:.9g}", "0", f"{1e-6 * sigma:.9g}", "0"])
    assert scan.check((0, csv(rows)), refs).failed == 0

    rows[0][2] = f"{1.5 * float(rows[0][2]):.9g}"
    check = scan.check((0, csv(rows)), refs)
    assert check.failed == 1 and check.attempted == len(rows)
    assert scan.check((3, b""), refs).failed == len(rows)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = _run("--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
