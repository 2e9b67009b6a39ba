"""Benchmark of qcat: one workload per run, in a fresh single-threaded process.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a qcat checkout; qcat is imported from ``src/``. Jobs
run in-process through ``qcat.cli.main`` (argv set, stdout captured,
``SystemExit`` caught), so a job costs what the subcommand costs and not
the interpreter start-up, which ``setup_s`` measures on its own. The run
repeats whole rounds of the workload's jobs until ``--seconds`` have been
timed, checks every output outside the timed region, and prints one JSON
line last: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced replay (see ``tracing.py``) with ``--trace 1``. End-to-end
times are scaled to a reference host speed by probes around every timed
step (see ``calibrate.py``), so that the host's drift does not show as a
change of qcat.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
SETUP_INTERPRETERS = 9


def setup_seconds() -> float:
    """Median over fresh interpreters of the time to run ``import qcat``,
    each bracketed by host-speed probes and scaled to the reference host."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    before = calibrate.probe()
    for _ in range(SETUP_INTERPRETERS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import qcat"], env=env, cwd=ROOT, check=True)
        t = perf_counter() - t0
        after = calibrate.probe()
        times.append(calibrate.scale(t, before, after))
        before = after
    return statistics.median(times)


def measure(jobs, seconds: float) -> dict:
    """Whole rounds of ``jobs`` until ``seconds`` of wall time have passed
    since the first timed job; job times are those of the reference host
    (``calibrate``)."""
    from workloads import run_job

    run_job(jobs[0])  # untimed warm-up
    outcomes, times = [], []
    t_end = perf_counter() + seconds
    while perf_counter() < t_end:
        for job in jobs:
            outcome, t = run_job(job, calibrated=True)
            outcomes.append(outcome)
            times.append(t)
    passed = [t for o, t in zip(outcomes, times) if o == "ok"]
    return {
        "attempted": len(outcomes),
        "failed": outcomes.count("failed"),
        "correct": "wrong" not in outcomes,
        "jobs_per_s": len(passed) / sum(times),
        "job_p50_s": statistics.median(passed) if passed else float("nan"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sprinkle", "exact", "ingest", "cauchy"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qcat" / "__init__.py").is_file():
        print(f"error: no qcat sources under {SRC}; run from a qcat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(SRC / "qcat", quiet=1)

    import workloads

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            import tracing

            spans = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            result = tracing.traced_run(args.workload, args.seed, args.seconds, work, spans)
        else:
            setup = setup_seconds()
            jobs = workloads.ROUNDS[args.workload](args.seed, work)
            m = measure(jobs, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "jobs_per_s": (m["jobs_per_s"], "1/s"),
                "job_p50_s": (m["job_p50_s"], "s"),
                "setup_s": (setup, "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            print(f"host probe: median {statistics.median(calibrate.PROBES) * 1e3:.2f} ms over "
                  f"{len(calibrate.PROBES)} probes, reference "
                  f"{calibrate.REFERENCE_PROBE_S * 1e3:.2f} ms", file=sys.stderr)
            result = {k: m[k] for k in ("correct", "attempted", "failed")}
            result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
