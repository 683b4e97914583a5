"""Reference cross sections the scan workload is judged against.

A reference is sigma^{m+}(theta) at rel_tol 1e-6, 1000x tighter than the
tolerance the scan requests (1e-3), for one (projectile, energy,
theta, W_ion table) point.  ``references.json`` ships every point the seeded
workloads can ask for, computed with the seed-state integrator, so later
changes are judged against numbers their own integrator did not produce.
Points not shipped (smoke sizes, other tables) are computed in the untimed
check phase and cached under ``work/``.

Fill the shipped file with ``python3 perfbench/references.py``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import env

REF_REL_TOL = 1e-6
SHIPPED = env.BENCH_DIR / "references.json"
CACHE = env.WORK_DIR / "references.json"


def key(projectile: str, energy: float, theta: float, table: dict) -> str:
    return (f"{projectile}|E{energy!r}|T{theta!r}|"
            f"S{float(table['s_max'])!r},{int(table['n_points'])},{int(table['n_max'])}")


def _load(path: Path) -> dict:
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)["entries"]


def _save(path: Path, entries: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump({"ref_rel_tol": REF_REL_TOL, "entries": entries}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class ReferenceStore:
    """Shipped references plus a cache of points computed on demand."""

    def __init__(self, shipped: Path = SHIPPED, cache: Path = CACHE):
        self.cache_path = cache
        self.entries = {**_load(shipped), **_load(cache)}
        self._cached = _load(cache)
        self._tables = {}
        self.computed = 0

    def _table(self, params: dict):
        from workloads import build_table

        tkey = tuple(sorted(params.items()))
        if tkey not in self._tables:
            self._tables[tkey] = build_table(params)
        return self._tables[tkey]

    def ensure(self, points, table: dict) -> None:
        """Compute and cache every (projectile, energy, theta) point not yet known."""
        from molstrip.cross_section import cross_section_fixed
        from workloads import collision_system

        missing = [p for p in points if key(*p, table) not in self.entries]
        for projectile, energy, theta in missing:
            system = collision_system(projectile, energy, self._table(table))
            results = cross_section_fixed(system, theta, 0.0, rel_tol=REF_REL_TOL)
            entry = [[r.sigma_au, r.quad_error] for r in results]
            self.entries[key(projectile, energy, theta, table)] = entry
            self._cached[key(projectile, energy, theta, table)] = entry
            self.computed += 1
        if missing:
            _save(self.cache_path, self._cached)

    def sigma(self, projectile: str, energy: float, theta: float, table: dict) -> list[float]:
        return [value for value, _ in self.entries[key(projectile, energy, theta, table)]]


def grid_points() -> list[tuple[str, float, float]]:
    """Every point a full-size seeded scan can request."""
    from inputs import ENERGY_GRID, SCAN_PROJECTILE, scan_thetas

    return [(SCAN_PROJECTILE, e, t) for e in ENERGY_GRID for t in scan_thetas(13)]


def main() -> int:
    env.pin_threads()
    env.add_source_path()
    from inputs import DEFAULT_TABLE

    points = grid_points()
    store = ReferenceStore(shipped=SHIPPED, cache=SHIPPED)
    for start in range(0, len(points), 21):
        store.ensure(points[start:start + 21], DEFAULT_TABLE)
        print(f"{min(start + 21, len(points))}/{len(points)} points", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
