"""Benchmark for hardcoreboost: one workload per process, closed loop, one client.

Usage, from the repository root:

    python3 bench/run.py --workload {hardcore,train,sweep,certify} \
        --seed N --seconds S --trace {0,1}

The package is imported from ./src of the same checkout.  Inputs are
generated from --seed.  Jobs run one after another for --seconds, and
every job's output is checked; set-up runs SETUP_REPEATS times, spread
through the run, and its median is reported.  With --trace 0 the last
stdout line carries the end-to-end metrics.  With --trace 1 whole passes
over the input pool alternate untraced and traced, and the per-layer
metrics are reported; the spans are written to
bench/.work/spans-<workload>.csv when the run ends.
The line before the result holds every set-up and job time, in reference
and in wall seconds, the tail percentile and the environment.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy is imported: single-threaded BLAS/OpenMP, and the
# package's own thread pool left at its default.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)
os.environ.pop("HARDCOREBOOST_THREADS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, JobFailure, digest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 5
TAIL_BEYOND = 10

# The host's speed changes in phases of seconds to minutes, by half or more.
# Each set-up and job is bracketed by a short fixed kernel of interpreter and
# numpy work, and its time is reported in reference seconds: wall seconds *
# REFERENCE_CALIBRATION_S / (mean of the two kernel timings around it), the
# time it would take at the speed where the kernel takes that long.
REFERENCE_CALIBRATION_S = 0.003

# Per-layer metrics of the traced run, as (span, statistics).  Calls, self
# time and counts are per traced job; max_vars is a maximum.
LAYER_METRICS = (
    ("lp.solve", ("calls", "self_s", "simplex_iters", "max_vars")),
    ("hardcore.compute_hardcore", ("self_s",)),
    ("hardcore.separator_certificate", ("self_s",)),
    ("hardcore.verify_dichotomy", ("self_s",)),
    ("hardcore.bounded_representation", ("self_s",)),
    ("optimize.coordinate_descent", ("self_s", "iterations")),
    ("optimize.subgradient_descent", ("self_s", "iterations")),
    ("optimize.suboptimality_certificate", ("self_s",)),
    ("losses.subgradient", ("calls", "self_s", "elements")),
    ("losses.value_saturated", ("calls", "self_s", "saturated_calls")),
    ("losses.conjugate", ("calls", "self_s", "elements")),
    ("risk.load_sample_csv", ("calls", "self_s")),
    ("risk.margins", ("calls", "self_s")),
    ("risk.surrogate_risk", ("calls", "self_s")),
    ("hypotheses.parse_class_spec", ("self_s",)),
    ("hypotheses.materialize", ("self_s",)),
    ("experiments.consistency_sweep", ("self_s",)),
    ("experiments.LatticeNoiseWorld.sample", ("self_s",)),
    ("experiments.LatticeNoiseWorld.classification_risk", ("self_s",)),
    ("_scalar.golden_min", ("calls", "self_s")),
    ("_scalar.bisect_root", ("calls", "self_s")),
    ("bounds.constants_from_certificate", ("self_s",)),
    ("bounds.full_risk_bound", ("self_s",)),
    ("cli.run", ("self_s",)),
)
UNITS = {"calls": "count/job", "self_s": "s/job", "simplex_iters": "count/job",
         "max_vars": "count", "iterations": "count/job", "elements": "count/job",
         "saturated_calls": "count/job"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def calibration_s() -> float:
    """Median of three timings of a fixed mix of interpreter and numpy work."""
    v = np.linspace(-3.0, 3.0, 2000)
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(160):
            z = v * (0.1 * (i % 7))
            acc += float(np.exp(z[z > 0]).sum()) + float(v @ z)
            for j in range(100):
                acc += j * 0.5
        timings.append(time.perf_counter() - start)
    return sorted(timings)[1]


def timed(fn, *args):
    """Run fn(*args); returns (reference seconds, wall seconds, result)."""
    before = calibration_s()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    kernel_s = 0.5 * (before + calibration_s())
    return wall * REFERENCE_CALIBRATION_S / kernel_s, wall, result


def import_package():
    """Import hardcoreboost afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "hardcoreboost" or n.startswith("hardcoreboost.")]:
        del sys.modules[name]
    hb = importlib.import_module("hardcoreboost")
    importlib.import_module("hardcoreboost.cli")
    if os.path.dirname(os.path.abspath(hb.__file__)) != os.path.join(SRC, "hardcoreboost"):
        raise ImportError(f"hardcoreboost resolved to {hb.__file__}, not {SRC}")
    return hb


def setup(workload, seed, workdir):
    """One set-up: import, generate and write inputs, one warm-up job."""
    hb = import_package()
    pool = workload.make_pool(np.random.default_rng(seed), workdir)
    return hb, pool, workload.run(hb, pool[0])


class Runner:
    """Runs one workload's jobs and keeps what their outputs showed.

    digests maps a pool index to the sha256 of its first output; a later
    run of the same input with other bytes fails as non-deterministic.
    accuracy maps a pool index to the value its check returned.
    """

    def __init__(self, workload):
        self.wl = workload
        self.digests: dict[int, str] = {}
        self.accuracy: dict[int, float] = {}

    def check(self, hb, i, inp, result, what) -> bool:
        """Check one job's output; a failure is reported and returns False."""
        try:
            raw, accuracy = self.wl.check(hb, inp, result)
            d = digest(raw)
            if self.digests.setdefault(i, d) != d:
                raise JobFailure(f"input {i}: output bytes differ from an earlier run")
        except (JobFailure, OSError, ValueError, KeyError) as exc:
            print(f"{what} failed its check: {exc}", file=sys.stderr)
            return False
        self.accuracy[i] = accuracy
        return True

    def job(self, hb, pool, k, tracer=None):
        """Run pool entry k % len(pool), traced when a tracer is given.

        Returns (reference seconds, wall seconds, ok); the output check runs
        after timing.
        """
        i = k % len(pool)

        def attempt():
            try:
                return True, self.wl.run(hb, pool[i])
            except Exception as exc:  # a failed job is counted and the loop goes on
                print(f"job {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                return False, None

        if tracer is not None:
            tracer.job = k
            tracer.enable(True)
        seconds, wall, (ok, result) = timed(attempt)
        if tracer is not None:
            tracer.enable(False)
        return seconds, wall, ok and self.check(hb, i, pool[i], result, f"job {k}")


def loop(runner, hb, pool, seconds, k=0, min_jobs=0, tracer=None):
    """Closed loop over the pool from job k for `seconds`, and on until job
    min_jobs; returns [(reference seconds, wall seconds, ok, traced)].

    With a tracer, whole passes over the pool alternate untraced and traced,
    so both sides see the same inputs, and the loop stops only at the end
    of a pass.
    """
    jobs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or k < min_jobs or tracer is not None and k % len(pool):
        traced = tracer is not None and (k // len(pool)) % 2 == 1
        jobs.append((*runner.job(hb, pool, k, tracer if traced else None), traced))
        k += 1
    return jobs


def tail(times):
    """Job time at the highest percentile with TAIL_BEYOND jobs above it.

    Returns (seconds, percentile, jobs above it); with too few jobs the
    fastest one is used and fewer jobs lie above it.
    """
    ordered = sorted(times)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * rank / len(ordered), len(ordered) - 1 - rank


def environment():
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "env": {**THREAD_ENV, "HARDCOREBOOST_THREADS": None},
    }


def end_to_end_metrics(setups, jobs, runner, pool_size):
    """setups holds (reference seconds, wall seconds) per set-up."""
    times = [t for t, _, _, _ in jobs]
    by_input = {}
    for k, (t, _, ok, _) in enumerate(jobs):
        if ok:
            by_input.setdefault(k % pool_size, []).append(t)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setups), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        # completed jobs per second over an even mix of the pool's inputs
        "jobs_per_s": (1.0 / statistics.fmean(statistics.fmean(t) for t in by_input.values())
                       if by_input else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "excess_risk": (statistics.fmean(runner.accuracy.values())
                        if runner.accuracy else None, "risk"),
    }
    info = {
        "jobs": len(times),
        "job_tail_s": tail_s,
        "job_tail_percentile": tail_pct,
        "jobs_beyond_tail": beyond,
        "each_setup_s": [t for t, _ in setups],
        "each_setup_wall_s": [wall for _, wall in setups],
        "each_job_s": times,
        "each_job_wall_s": [wall for _, wall, _, _ in jobs],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def layer_metrics(tracer, jobs):
    traced = [t for t, _, _, on in jobs if on]
    untraced = [t for t, _, _, on in jobs if not on]
    # self times are wall seconds; the traced jobs' median factor makes them
    # reference seconds
    scale = statistics.median(t / wall for t, wall, _, on in jobs if on)
    per_job = 1.0 / len(traced)
    out = {}
    for span, stat_names in LAYER_METRICS:
        stats = tracer.stats.get(span, {})
        for stat in stat_names:
            value = stats.get(stat, 0)
            # metric names start with a letter, so `_scalar` loses its "_"
            if stat != "max_vars":
                value *= per_job * (scale if stat == "self_s" else 1.0)
            out[f"{span.lstrip('_')}.{stat}"] = {"value": value, "unit": UNITS[stat]}

    def total(span, key):
        return tracer.stats.get(span, {}).get(key, 0)

    derived = {
        "hardcore.core_frac": (total("hardcore.compute_hardcore", "core_points")
                               / max(total("hardcore.compute_hardcore", "points"), 1), "1"),
        "optimize.truncated_steps": (per_job * (
            total("optimize.coordinate_descent", "truncated_steps")
            + total("optimize.subgradient_descent", "truncated_steps")), "count/job"),
        "hypotheses.materialize.nnz_frac": (total("hypotheses.materialize", "nnz")
                                            / max(total("hypotheses.materialize", "entries"), 1),
                                            "1"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                "1"),
    }
    out.update({k: {"value": v, "unit": u} for k, (v, u) in derived.items()})
    return out, {"traced_jobs": len(traced), "untraced_jobs": len(untraced)}


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "hardcoreboost")):
        print(f"no package source at {SRC}/hardcoreboost", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    workdir = os.path.join(WORK, f"inputs-{os.getpid()}")
    try:
        metrics, info, correct, attempted, failed = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed, environment=environment())
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure(args, workdir):
    """Set up and run the timed loop; returns the result.

    So that set-up times sample the host's speed phases as job times do,
    an untraced run sets up SETUP_REPEATS times, each set-up followed by an
    equal share of the timed loop; the loop goes on through the pool in
    order across shares.  A traced run sets up once.
    """
    wl = WORKLOADS[args.workload]
    runner = Runner(wl)
    tracer = Tracer() if args.trace else None
    shares = 1 if tracer else SETUP_REPEATS
    setups, jobs, warmup_failures = [], [], 0
    for share in range(1, shares + 1):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        seconds, wall, (hb, pool, warmup) = timed(setup, wl, args.seed, workdir)
        setups.append((seconds, wall))
        # the warm-up joins the determinism record of pool entry 0
        warmup_failures += not runner.check(hb, 0, pool[0], warmup, "warm-up")
        installed = tracer.install() if tracer else []
        # a share that overran its time shortens the next one
        left = args.seconds * share / shares - sum(wall for _, wall, _, _ in jobs)
        # every input runs at least once, and a traced run holds one traced pass
        min_jobs = (2 if tracer else 1) * len(pool) if share == shares else 0
        jobs += loop(runner, hb, pool, left, len(jobs), min_jobs, tracer)
    failed = sum(not ok for _, _, ok, _ in jobs)
    unreached = []
    if tracer:
        unreached = [s for s in wl.reaches if s not in installed or tracer.stats[s]["calls"] == 0]
        if unreached:
            print(f"declared layers recorded no calls: {unreached}", file=sys.stderr)
        metrics, info = layer_metrics(tracer, jobs)
        info["spans"] = tracer.write_spans(os.path.join(WORK, f"spans-{args.workload}.csv"))
        info["unreached"] = unreached
    else:
        metrics, info = end_to_end_metrics(setups, jobs, runner, len(pool))
    correct = failed == 0 and warmup_failures == 0 and not unreached
    return metrics, info, correct, len(jobs), failed


if __name__ == "__main__":
    sys.exit(main())
