"""deltawell benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process runs one job at a time (closed loop, one client).

``--trace 0`` measures the end-to-end metrics: ``setup_s`` from fresh
interpreters, then an untimed warm-up, then whole job decks until the
timed job time reaches ``--seconds``.  ``--trace 1`` runs the seed's
first deck once untraced and twice traced, checks that every count of
the two traced passes agrees exactly, and reports the per-layer metrics
of the first traced pass plus the tracing overhead.  Every job's output
is checked outside the timed region.

The metric names and units are read from BENCHMARK.json.  The last line
of standard output is the result object; the line before it records the
run context, the sample counts and any failed job.  Exit code 2 means the
program could not be found, 3 a benchmark error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_SEED = 0
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def cap_threads():
    """Cap the BLAS and OpenMP pools at the usable CPU count; must run
    before numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_context() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(),
        "load": "one process, one job at a time (closed loop, one client)",
    }


class Runner:
    """Runs and checks jobs, keeping the attempted count and the failures."""

    def __init__(self, workload, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.attempted = 0
        self.failures: list = []

    def run(self, job, reference=None, tracer=None, job_id=None) -> tuple[float, bool]:
        """Run one job; return its wall time and whether it passed its checks."""
        import jobs

        self.attempted += 1
        if tracer is not None:
            tracer.job = job_id
            tracer.active = True
        start = time.perf_counter()
        try:
            out = self.workload.run(job, self.tmp)
            error = None
        except Exception as exc:  # a failed job is counted, never fatal
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if error:
            problems = [error]
        else:
            problems, digest = self.workload.check(job, out)
            if reference is not None and not problems:
                problems = jobs.compare_to_reference(digest, reference)
        if problems:
            self.failures.append({"kind": job.kind, "spec": str(job.spec)[:200], "problems": problems})
        return elapsed, not problems

    def warm_up(self):
        for job in self.workload.minimal():
            self.run(job)


def measure_setup(name: str, tmp: Path) -> list[float]:
    """Wall times of fresh interpreters that import deltawell.cli and run
    the workload's minimal jobs."""
    cmd = [sys.executable, str(HERE / "setup_job.py"), name, str(tmp)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up process failed: {proc.stderr.strip()[-300:]}")
    return samples


def timed_run(runner: Runner, rng, seconds: float, reference) -> tuple[dict, dict]:
    setup = measure_setup(runner.workload.name, runner.tmp)
    runner.warm_up()
    results = []
    decks = 0
    while sum(t for t, _ in results) < seconds:
        for pos, job in enumerate(runner.workload.deck(rng)):
            ref = reference[pos] if reference and decks == 0 else None
            results.append(runner.run(job, ref))
        decks += 1
    times = [t for t, _ in results]
    passed = [t for t, ok in results if ok]
    failed = len(runner.failures)
    values = {
        "jobs_per_s": len(passed) / sum(times),
        "job_p50_s": statistics.median(passed or times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (runner.attempted - failed) / runner.attempted,
    }
    detail = {
        "timed_jobs": len(times),
        "decks": decks,
        "timed_s": sum(times),
        "job_s": times,
        "setup_samples_s": setup,
        "failed_frac": failed / runner.attempted,
    }
    return values, detail


def traced_run(runner: Runner, rng, reference, spans_path: Path) -> tuple[dict, dict]:
    import tracing

    runner.warm_up()
    deck = runner.workload.deck(rng)

    def one_pass(tracer=None):
        return [
            runner.run(job, reference[pos] if reference else None, tracer, pos)[0]
            for pos, job in enumerate(deck)
        ]

    untraced = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        origin = time.perf_counter()
        traced = one_pass(tracer)
        first = tracing.summarize(tracer.spans)
        tracer.write(spans_path, origin)
        tracer.reset()
        one_pass(tracer)
        second = tracing.summarize(tracer.spans)
    finally:
        tracer.uninstall()
    mismatched = [k for k in tracing.count_keys(first) if first[k] != second[k]]
    if mismatched:
        raise BenchmarkError(
            "counts differ between two traced passes: "
            + ", ".join(f"{k} {first[k]} vs {second[k]}" for k in mismatched[:5])
        )
    first["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    detail = {
        "deck_jobs": len(deck),
        "untraced_s": sum(untraced),
        "traced_s": sum(traced),
        "spans": str(spans_path.relative_to(ROOT)),
        "failed_frac": len(runner.failures) / runner.attempted,
    }
    return first, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_threads()
    if not (SRC / "deltawell" / "__init__.py").is_file():
        print(f"error: no deltawell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import deltawell
    import jobs

    if Path(deltawell.__file__).resolve().parent != (SRC / "deltawell").resolve():
        print(f"error: imported deltawell from {deltawell.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {sorted(jobs.WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = jobs.WORKLOADS[args.workload]
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[workload.name]

    rng = jobs.deck_rng(workload.name, args.seed)
    tmp = ROOT / ".bench_tmp" / f"{workload.name}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    runner = Runner(workload, tmp)
    try:
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
            values, detail = traced_run(runner, rng, reference, spans_path)
            wanted = spec["per_layer"]
        else:
            values, detail = timed_run(runner, rng, args.seconds, reference)
            wanted = spec["end_to_end"]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(runner.failures)
    detail.update(workload=workload.name, seed=args.seed, failures=runner.failures[:10])
    print(json.dumps({"context": run_context(), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
