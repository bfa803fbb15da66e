"""End-to-end benchmark of qsysid CLI jobs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {fisher-d8,semigroup-d4-d8,screen-mixed}
                         --seed N --seconds S --trace {0,1}

A job is one CLI invocation without interpreter start and file I/O: a
generated JSON config text through ``cli.parse_config``, ``cli.run`` and
``cli.format_report(report, "json")``.  One client runs jobs back to back in
this process (a closed loop), with BLAS/OpenMP pinned to one thread.  Only
the job itself is timed; generating its input and checking its report happen
outside the timed window.

``--trace 0`` times jobs for at least S seconds (and until at least ten jobs
lie beyond the 90th percentile) and reports the end-to-end metrics.
``--trace 1`` runs jobs untraced for S/2 seconds, runs the same jobs again
under cProfile, and reports the per-layer metrics of ``layers``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
record the environment, the inputs, every metric by name and unit, and the
failed jobs by kind.
"""
from __future__ import annotations

import os

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
if __name__ == "__main__":
    # must precede the first numpy import, which sizes the BLAS thread pool
    os.environ.update(PINNED_THREADS)

import argparse
import collections
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import layers
from checks import verify
from workloads import ROTATIONS, WORKLOADS, make_job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
MIN_TAIL = 10  # samples beyond the reported 90th percentile
MAX_LOOP_S = 120.0  # hard stop on a loop, so that a run ends within its time limit

# A recorded defect of the seed program: Simpson quadrature at the CLI-default
# t grid and quad_steps 400 misses the exact finite-time covariance (ROADMAP
# item 3).  Such jobs are counted in ``failed`` but do not make the run
# incorrect; any other failure does.
KNOWN_DEFECT = ("cov-converge", "].finite:")


def load_cli():
    """Import ``qsysid.cli`` from this checkout's ``src``; None when it is absent."""
    if not (SRC / "qsysid" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from qsysid import cli

    if Path(cli.__file__).resolve().parent != SRC / "qsysid":
        return None
    return cli


def import_seconds() -> float:
    """Seconds a fresh interpreter spends in ``import qsysid.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_THREADS)
    code = "import time; t = time.perf_counter(); import qsysid.cli; print(repr(time.perf_counter() - t))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def execute(cli, job):
    """Run one job; return (seconds, report text or None, error or None)."""
    t0 = time.perf_counter()
    try:
        text = cli.format_report(cli.run(cli.parse_config(job.text)), "json")
    except Exception as exc:  # a job that raises is a failed job; the loop goes on
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, text, None


class Tally:
    """Attempted, failed and unexpected-failure counts, with failures grouped by job kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.by_kind = collections.Counter()
        self.example = {}
        self.rejected_draws = 0

    def add(self, job, text, error):
        self.attempted += 1
        self.rejected_draws += job.rejected_draws
        problems = [error] if error is not None else verify(job, text)
        if problems:
            kind, check = KNOWN_DEFECT
            self.failed += 1
            self.unexpected += not (job.kind.startswith(kind) and all(check in p for p in problems))
            self.by_kind[job.kind] += 1
            self.example.setdefault(job.kind, problems[0])


def p90(times) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def run_loop(cli, workload, seed, seconds, tally, min_tail=0, max_loop_s=MAX_LOOP_S, between=None):
    """Run jobs 0, 1, ... in whole rotations until ``seconds`` of job time (and the tail) are reached.

    ``between(times)``, when given, runs untimed after each rotation.
    """
    rotation = len(ROTATIONS[workload])
    times = []
    start = time.perf_counter()
    index = 0
    while True:
        job = make_job(workload, seed, index)
        elapsed, text, error = execute(cli, job)
        times.append(elapsed)
        tally.add(job, text, error)
        index += 1
        if index % rotation:
            continue
        if between is not None:
            between(times)
        if time.perf_counter() - start > max_loop_s:
            break
        if sum(times) >= seconds and (not min_tail or sum(t > p90(times) for t in times) >= min_tail):
            break
    return times


def warm_up(cli, workload, seed):
    """One untimed rotation, so lazy imports and first-call costs are paid before timing."""
    for index in range(len(ROTATIONS[workload])):
        execute(cli, make_job(workload, seed, index))


def environment() -> dict:
    def blas(mod):
        deps = mod.__config__.CONFIG.get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
    }


def end_to_end(cli, workload, seed, seconds, tally):
    setup = []

    def sample_setup(times):
        # spread the import samples over the loop: the machine's speed drifts
        # over seconds, and the samples should see the same drift as the jobs
        if len(setup) < SETUP_SAMPLES and sum(times) >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(import_seconds())

    import_seconds()  # warm-up: byte-compiles the sources of a fresh checkout
    warm_up(cli, workload, seed)
    times = run_loop(cli, workload, seed, seconds, tally, MIN_TAIL, between=sample_setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds())
    cut = p90(times)
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_ms.p50": (1e3 * statistics.median(times), "ms"),
        "job_ms.p90": (1e3 * cut, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = [
        f"jobs {len(times)}, samples beyond p90 {sum(t > cut for t in times)}, job seconds {sum(times):.3f}",
        f"setup_s samples {[round(s, 4) for s in setup]}",
    ]
    return metrics, notes


def traced(cli, workload, seed, seconds, tally):
    warm_up(cli, workload, seed)
    # the traced pass repeats these jobs at up to twice the cost, so stop early
    times = run_loop(cli, workload, seed, seconds / 2.0, tally, max_loop_s=MAX_LOOP_S / 3.0)
    jobs = (make_job(workload, seed, i) for i in range(len(times)))
    stats, traced_wall = layers.profile(lambda job: execute(cli, job), jobs)
    per_job = layers.aggregate(stats, layers.LayerMap(str(SRC / "qsysid")), len(times))
    per_job[layers.OVERHEAD] = traced_wall / sum(times)
    metrics = {name: (value, layers.UNITS[name]) for name, value in per_job.items()}
    notes = [f"jobs {len(times)} untraced ({sum(times):.3f} s), then traced ({traced_wall:.3f} s)"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    cli = load_cli()
    if cli is None:
        print(f"bench: no qsysid sources under {SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    tally = Tally()
    run = traced if args.trace else end_to_end
    metrics, notes = run(cli, args.workload, args.seed, args.seconds, tally)

    print(f"inputs: workload {args.workload}, seed {args.seed}, {tally.attempted} jobs, "
          f"{tally.rejected_draws} rejected ergodic draws")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} ratio ({tally.failed} of {tally.attempted} jobs)")
    for kind, count in sorted(tally.by_kind.items()):
        print(f"failed {kind}: {count} jobs, e.g. {tally.example[kind]}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
