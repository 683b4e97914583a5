"""molstrip benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
A run has three phases:

* set-up, timed: the import of ``molstrip.cli`` (median of child processes
  that import it cold) plus the workload's own set-up (median of repeats;
  a W_ion table build for ``verify``);
* solve, timed: whole passes over the seeded inputs, repeated while one
  more still fits in ``--seconds``; ``solve_s`` is the median pass;
* check, untimed: every pass is judged against the references and oracle
  bounds, and every pass must give the same output digest as the others
  and as earlier runs of the same code and seed (``work/determinism.json``).

With ``--trace 1`` one more pass runs with the module attributes rebound to
recording wrappers (``tracing.py``); the per-layer metrics come from it and
its spans are written to ``work/``.  ``--smoke`` shrinks every workload to a
toy size.  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import env

SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import molstrip.cli; "
                "print(time.perf_counter() - t)")


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def time_imports(repeats: int) -> list[float]:
    """Cold-import times of molstrip.cli, each in a fresh interpreter.

    One unmeasured import first leaves the bytecode caches written.
    """
    samples = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=env.ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(done.stdout.strip()))
    return samples


def fingerprint() -> str:
    """Hash of the program and benchmark sources, for the determinism record."""
    digest = hashlib.sha256()
    paths = [*(env.SRC / "molstrip").rglob("*"), *env.BENCH_DIR.glob("*.py")]
    for path in sorted(p for p in paths if p.suffix in (".py", ".csv") and p.is_file()):
        digest.update(str(path.relative_to(env.ROOT)).encode())
        digest.update(path.read_bytes())
    import numpy
    import scipy

    digest.update(f"{numpy.__version__} {scipy.__version__}".encode())
    return digest.hexdigest()


def remember(key: str, record: dict) -> list[str]:
    """Compare with, then update, what earlier runs of this key produced."""
    path = env.WORK_DIR / "determinism.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.is_file() else {}
    before = known.get(key, {})
    mismatches = [name for name, value in record.items()
                  if name in before and before[name] != value]
    known[key] = {**before, **record}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return mismatches


def run_pass(workload, span):
    """One timed solve; an exception is an output that fails every check."""
    start = perf_counter()
    try:
        output = workload.solve(span)
    except Exception as exc:          # the benchmark reports, never hides, a failure
        output = exc
    return perf_counter() - start, output


def judge(workload, output, refs):
    from workloads import Check

    if isinstance(output, Exception):
        check = Check()
        for _ in range(workload.n_ops):
            check.judge(False, f"solve raised {output!r}")
        return check
    return workload.check(output, refs)


def null_span(name):
    return contextlib.nullcontext()


def run(args) -> dict:
    env.add_source_path()
    import_samples = time_imports(SETUP_REPEATS)

    import molstrip
    import molstrip.cli  # noqa: F401  (the import the set-up time measures)
    env.check_imported(molstrip)

    import tracing
    from references import ReferenceStore
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setup_samples.append(perf_counter() - start)
    setup_s = statistics.median(import_samples) + statistics.median(setup_samples)

    times, outputs = [], []
    start = perf_counter()
    # Start another pass only while a typical one still fits in --seconds.
    while not times or perf_counter() - start + statistics.median(times) <= args.seconds:
        elapsed, output = run_pass(workload, null_span)
        times.append(elapsed)
        outputs.append(output)
        if isinstance(output, Exception):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solve_s = statistics.median(times)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            with tracer.span(tracing.PASS):
                workload.setup()
                traced_s, output = run_pass(workload, tracer.span)
        outputs.append(output)

    # Check phase (untimed).
    refs = ReferenceStore()
    workload.prepare_check(refs)
    checks = [judge(workload, output, refs) for output in outputs]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = sorted({p for c in checks for p in c.problems})

    digests = [workload.digest(o) if not isinstance(o, Exception) else repr(o)
               for o in outputs]
    record = {"digest": digests[0]}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        record["counters"] = {name: layers[name] for name in tracing.DETERMINISTIC}
    key = f"{args.workload}|{args.seed}|{'smoke' if args.smoke else 'full'}|{fingerprint()}"
    mismatches = remember(key, record)
    attempted += 1
    if len(set(digests)) > 1 or mismatches:
        failed += 1
        problems.append(f"not deterministic: passes {sorted(set(digests))}, "
                        f"differs from earlier runs in {mismatches}")

    if tracer is None:
        metrics = {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": peak_rss_mb}
    else:
        ratios = checks[-1].ratios
        metrics = {
            **layers,
            "quadrature.err_overstatement_p50": statistics.median(ratios) if ratios else 0.0,
            "cli.import_s": statistics.median(import_samples),
            "trace.overhead_s": traced_s - solve_s,
        }
        tracer.dump(env.WORK_DIR / f"trace-{args.workload}-{args.seed}.json")

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "input": vars(workload.input),
        "environment": env.environment(),
        "import_s": import_samples,
        "setup_s": setup_samples,
        "pass_s": times,
        "references_computed": refs.computed,
        "problems": problems[:20],
    }
    return {
        "details": details,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in metric_units(args.trace).items()},
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    env.pin_threads()
    args = parse_args(argv)
    try:
        outcome = run(args)
    except env.MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome["details"], default=str))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
