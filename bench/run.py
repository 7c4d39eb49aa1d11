"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-ref --seed 0 --seconds 30 --trace 0

Run from the root of a metriclab checkout; the package is imported from
its ``src/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a separate
traced run with ``--trace 1``.  The lines before it list every metric with
its unit.  The full record of the run (environment, configs and their
sha256, fingerprints, samples, failures) and, for a traced run, its spans
go to ``.bench_out/<workload>-s<seed>-t<trace>/``.
"""

import os

# Fixed BLAS and OpenMP thread counts, set before NumPy loads: one thread
# keeps the reduction order, and so the fingerprints, the same on every run.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory() -> bool:
    """Have glibc's allocator keep freed memory for reuse instead of returning it to the system.

    By default it unmaps or trims freed blocks of a few MB, so every training
    step on (16, 16) batches faults its index-sized temporaries back in:
    300,000 to 500,000 page faults a run, whose cost on a virtual machine
    varies from run to run.  Kept, the blocks are reused: the faults drop to
    about 100 and the compute is unchanged.  Returns whether both settings took.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return bool(libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)) and bool(libc.mallopt(M_MMAP_THRESHOLD, 32 << 20))


def environment(cpus: list[int], kept_freed_memory: bool) -> dict:
    """Machine and library facts recorded with every result; ``cpus`` were available to it."""
    import numpy
    import scipy

    env = {
        "nproc": len(cpus),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "malloc_keeps_freed_memory": kept_freed_memory,
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            env["cpu_model"] = models[0]
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified":
            env[f"l{level}_per_core"] = size
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = ROOT / "src"
    if not (src / "metriclab" / "__init__.py").is_file() or not (ROOT / "configs" / "reference.json").is_file():
        print(f"bench: no metriclab checkout at {ROOT} (need src/metriclab and configs/reference.json)",
              file=sys.stderr)
        return 2
    # The benchmark and its set-up probes run on one CPU, so the reference
    # computation (tracing.reference_ms) times the CPU the measured work ran on.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    kept_freed_memory = keep_freed_memory()
    sys.path.insert(0, str(src))
    import workloads  # imports metriclab, so only after the checkout is known to be there
    from layers import LAYER_METRICS

    if args.workload not in workloads.PLANS:
        parser.error(f"--workload must be one of {', '.join(workloads.PLANS)}")

    out_dir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    run = workloads.Run(args.workload, args.seed, args.seconds, ROOT, out_dir)
    try:
        if args.trace:
            metrics, record = workloads.run_traced(run, out_dir)
            units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        else:
            metrics, record = workloads.run_e2e(run)
            units = workloads.E2E_METRICS
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    tally = run.tally
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        plan=vars(run.plan), environment=environment(cpus, kept_freed_memory), metrics=metrics,
        attempted=tally.attempted, failed=tally.failed, failed_ratio=tally.failed_ratio,
        failures=tally.failures, known_defects=run.known_defects,
        worst_gradcheck_rel_error=run.worst_gradcheck)
    (out_dir / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n",
                                         encoding="utf-8")

    for failure in tally.failures:
        print(f"FAILED {failure}")
    for note in run.known_defects:
        print(f"known defect (not counted): {note}")
    print(f"{args.workload} seed {args.seed}: {tally.attempted} operations, {tally.failed} failed "
          f"(failed_ratio {tally.failed_ratio:.4g})")
    if "fingerprint_sha256" in record:
        print(f"fingerprint {record['fingerprint_sha256']}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics.get(name, float('nan')):>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
