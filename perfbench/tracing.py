"""Spans and counters recorded around calls into each molstrip module.

Nothing under ``src/`` changes: ``installed(tracer)`` rebinds the module
attributes each caller looks up at call time and restores them on exit.

* ``cross_section.integrate_b_plane``; the integrand passed into it is
  wrapped too, which counts evaluation points and batches;
* ``cross_section.total_kick_magnitude`` (b-plane integrand and outer
  cutoff) and ``verification.total_kick_magnitude`` (Monte Carlo);
* ``IonizationTable.__call__``;
* ``form_factor.build_ionization_table`` and the name ``cli`` binds;
* ``cross_section.cross_section_fixed`` (``use_symmetry=False`` marks the
  phi-invariance check);
* the oracles ``continuum_ionization_oracle``, ``mc_cross_section`` and
  ``bessel_reference``.

Spans stay in memory, each with its parent, and are written out at the end.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

# Span record fields.
NAME, PARENT, START, END, POINTS, FLAG = range(6)

KICK = "transfer.total_kick_magnitude"
LOOKUP = "form_factor.IonizationTable.__call__"
BUILD = "form_factor.build_ionization_table"
QUAD = "quadrature.integrate_b_plane"
INTEGRAND = "cross_section.integrand"
FIXED = "cross_section.cross_section_fixed"
CONTINUUM = "verification.continuum_ionization_oracle"
MC = "verification.mc_cross_section"
BESSEL = "verification.bessel_reference"
CLI = "cli.main"
PASS = "bench.solve"


class Tracer:
    """In-memory span list; nesting follows the call stack (one thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._quad_depth = 0

    @contextlib.contextmanager
    def span(self, name: str, points: int = 0, flag: str = ""):
        record = [name, self._stack[-1] if self._stack else -1, perf_counter(), None,
                  points, flag]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, points=None, flag=None):
        """Return fn recorded as a span; points/flag map the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = points(args, kwargs) if points else 0
            with self.span(name, n, flag(args, kwargs) if flag else ""):
                return fn(*args, **kwargs)

        return traced

    def wrap_quadrature(self, fn, error_type):
        tracer = self

        @functools.wraps(fn)
        def traced(integrand, **kwargs):
            def counted(points):
                with tracer.span(INTEGRAND, len(points)):
                    return integrand(points)

            with tracer.span(QUAD) as record:
                tracer._quad_depth += 1
                try:
                    return fn(counted, **kwargs)
                except error_type:
                    record[FLAG] = "failed"
                    raise
                finally:
                    tracer._quad_depth -= 1

        return traced

    def wrap_cutoff_kick(self, fn):
        """Kick calls from cross_section outside quadrature are cutoff probes."""
        tracer = self

        @functools.wraps(fn)
        def traced(projections, atoms, v, points):
            flag = "" if tracer._quad_depth else "cutoff"
            with tracer.span(KICK, len(points), flag):
                return fn(projections, atoms, v, points)

        return traced

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "points", "flag"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _first_size(args, kwargs):
    return int(np.size(args[1]))


def _kick_points(args, kwargs):
    return len(args[3])


def _phi_flag(args, kwargs):
    use_symmetry = kwargs.get("use_symmetry", args[4] if len(args) > 4 else True)
    return "" if use_symmetry else "phi_check"


def _mc_samples(args, kwargs):
    return int(kwargs.get("n_samples", args[3] if len(args) > 3 else 10**6))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind the traced module attributes for the duration of the block."""
    from molstrip import cli, cross_section, form_factor, quadrature, verification

    originals = []

    def rebind(owner, attr, new):
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    build = form_factor.build_ionization_table
    rebind(cross_section, "integrate_b_plane",
           tracer.wrap_quadrature(cross_section.integrate_b_plane, quadrature.QuadratureError))
    rebind(cross_section, "total_kick_magnitude",
           tracer.wrap_cutoff_kick(cross_section.total_kick_magnitude))
    rebind(verification, "total_kick_magnitude",
           tracer.wrap(verification.total_kick_magnitude, KICK, _kick_points))
    rebind(form_factor.IonizationTable, "__call__",
           tracer.wrap(form_factor.IonizationTable.__call__, LOOKUP, _first_size))
    rebind(form_factor, "build_ionization_table", tracer.wrap(build, BUILD))
    rebind(cli, "build_ionization_table", tracer.wrap(cli.build_ionization_table, BUILD))
    rebind(cross_section, "cross_section_fixed",
           tracer.wrap(cross_section.cross_section_fixed, FIXED, flag=_phi_flag))
    rebind(verification, "continuum_ionization_oracle",
           tracer.wrap(verification.continuum_ionization_oracle, CONTINUUM))
    rebind(verification, "mc_cross_section",
           tracer.wrap(verification.mc_cross_section, MC, _mc_samples))
    rebind(verification, "bessel_reference",
           tracer.wrap(verification.bessel_reference, BESSEL))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from one traced pass."""
    spans = tracer.spans
    child_time = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]

    total = defaultdict(float)       # inclusive seconds per (name, flag)
    own = defaultdict(float)         # self seconds per name
    calls = defaultdict(int)
    points = defaultdict(int)
    for i, rec in enumerate(spans):
        duration = rec[END] - rec[START]
        key = (rec[NAME], rec[FLAG])
        total[key] += duration
        own[rec[NAME]] += duration - child_time[i]
        calls[key] += 1
        points[key] += rec[POINTS]

    def seconds(name, flag=None):
        return sum(v for (n, f), v in total.items() if n == name and (flag is None or f == flag))

    def count(table, name, flag=None):
        return sum(v for (n, f), v in table.items() if n == name and (flag is None or f == flag))

    kick_points = count(points, KICK)
    kick_s = seconds(KICK)
    lookup_points = count(points, LOOKUP)
    lookup_s = seconds(LOOKUP)
    integrals = count(calls, QUAD)
    evals = count(points, INTEGRAND)
    return {
        "transfer.kick_points": kick_points,
        "transfer.kick_s": kick_s,
        "transfer.kick_ns_per_pt": 1e9 * kick_s / kick_points if kick_points else 0.0,
        "quadrature.integrals": integrals,
        "quadrature.evals": evals,
        "quadrature.evals_per_integral": evals / integrals if integrals else 0.0,
        "quadrature.batches": count(calls, INTEGRAND),
        "quadrature.self_s": own[QUAD],
        "quadrature.failures": count(calls, QUAD, "failed"),
        "form_factor.table_builds": count(calls, BUILD),
        "form_factor.table_build_s": seconds(BUILD),
        "form_factor.lookup_points": lookup_points,
        "form_factor.lookup_s": lookup_s,
        "form_factor.lookup_ns_per_pt": 1e9 * lookup_s / lookup_points if lookup_points else 0.0,
        "cross_section.theta_points": count(calls, FIXED, ""),
        "cross_section.phi_check_integrals": count(calls, FIXED, "phi_check"),
        "cross_section.phi_check_s": seconds(FIXED, "phi_check"),
        "cross_section.cutoff_points": count(points, KICK, "cutoff"),
        "cross_section.self_s": own[FIXED] + own[INTEGRAND],
        "verification.continuum_calls": count(calls, CONTINUUM),
        "verification.continuum_s": seconds(CONTINUUM),
        "verification.mc_samples": count(points, MC),
        "verification.mc_s": seconds(MC),
        "verification.bessel_ref_calls": count(calls, BESSEL),
        "verification.bessel_ref_s": seconds(BESSEL),
        "cli.self_s": own[CLI],
    }


DETERMINISTIC = (
    "quadrature.evals",
    "quadrature.batches",
    "transfer.kick_points",
    "cross_section.cutoff_points",
)
