"""Benchmark entry point for grasspin.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports ``grasspin`` from ``src/`` of the
same checkout, generates the workload's inputs from the seed, validates
them, and then runs jobs one after another, on one thread with BLAS pinned
to one thread, for S seconds (and at least as many jobs as the tail
percentile needs).  Every job's output is checked.

Job and set-up times are normalized to a fixed host speed with the
reference kernel of ``hostspeed.py``, timed right before and after each
job, because the shared host's own speed drifts by tens of percent between
runs; the raw wall times are printed beside them.

The untraced run splits its S seconds over ``WORKERS`` fresh interpreters,
started one after another, never two at once, and pools their job times.
The same jobs can run up to a fifth slower in one interpreter than in the
next while the reference kernel reads the same in both, so the cause is
the interpreter's own state, not the host; with one interpreter per run
that would decide which of two levels a run reports.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` interleaves
traced and untraced jobs and prints the per-layer metrics, then the layer
micro-timings.  The metric names and units come from BENCHMARK.json.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, the environment record
and the recorded spans are also written under ``.bench_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import json
import math
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

POOL_SIZE = 240            # generated inputs per run; jobs cycle through them
SETUP_REPEATS = 7          # fresh interpreters timed for setup_s
SETUP_KERNEL_REPEATS = 9   # reference kernel calls timed before and after each
TRACED_MIN_EACH = 20       # traced and untraced jobs, each, in a traced run
WORKERS = 5                # interpreters sharing an untraced run's seconds
HARD_LIMIT_S = 140.0       # the job loops together never run longer than this


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class JobRecord:
    wall: float       # raw wall time
    norm: float       # wall time normalized to the reference host speed
    kernel: float     # mean reference kernel time around the job
    traced: bool
    kind: str         # the job's field kind
    outcome: object   # workloads.Outcome
    root: int = -1    # index of the job's root span, traced jobs only


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(loadavg) -> dict:
    import scipy

    return {
        "commit": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": [round(v, 2) for v in loadavg],
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_grasspin() -> None:
    if not (SRC / "grasspin" / "__init__.py").is_file():
        raise BenchError(f"no grasspin package under {SRC}")
    sys.path.insert(0, str(SRC))
    import grasspin

    if Path(grasspin.__file__).resolve().parent != (SRC / "grasspin").resolve():
        raise BenchError(f"grasspin imported from {grasspin.__file__}, not from {SRC}")


def measure_setup(workload, first_config: str) -> tuple[float, float]:
    """Median normalized and median raw wall time of fresh interpreters
    doing the workload's set-up."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), first_config,
           ",".join(str(n) for n in workload.algebras)]
    norms, raws = [], []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.kernel_time(SETUP_KERNEL_REPEATS)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        raw = time.perf_counter() - t0
        raws.append(raw)
        norms.append(hostspeed.normalize(raw, before, hostspeed.kernel_time(SETUP_KERNEL_REPEATS)))
    return statistics.median(norms), statistics.median(raws)


def table_build_s(workload) -> float:
    """Time to build the workload's algebras afresh (median of 5 each)."""
    from grasspin.grassmann import GrassmannAlgebra

    total = 0.0
    for n in workload.algebras:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            GrassmannAlgebra(n)
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total


class Runner:
    """Runs and checks jobs; counts every attempt and every failure."""

    def __init__(self, workload, jobs, out_path: str, tracer=None):
        self.workload = workload
        self.jobs = jobs
        self.out_path = out_path
        self.tracer = tracer
        self.failures: list[str] = []

    def execute(self, job, traced: bool) -> JobRecord:
        from workloads import Outcome

        tracer = self.tracer if traced else None
        root = -1
        before = hostspeed.kernel_time()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.install()
                t0 = time.perf_counter()
                result, root = tracer.call("job", self.workload.run, job, self.out_path)
            else:
                result = self.workload.run(job, self.out_path)
            wall = time.perf_counter() - t0
            after = hostspeed.kernel_time()
            outcome = self.workload.check(job, result, self.out_path)
        except Exception as err:  # a crashing job is a failed job, not a crashed run
            wall = time.perf_counter() - t0
            after = hostspeed.kernel_time()
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
            outcome = Outcome(False, 0, {}, f"{type(err).__name__}: {err}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not outcome.ok:
            self.failures.append(f"job {job.index}: {outcome.detail}")
        return JobRecord(wall, hostspeed.normalize(wall, before, after), 0.5 * (before + after),
                         traced, job.kind, outcome, root)

    def measure(self, seconds: float, min_jobs: int, limit: float, first: int,
                traced_share: bool) -> tuple[JobRecord, list[JobRecord]]:
        """Warm-up, then jobs from pool index ``first`` on until ``seconds``
        have passed and ``min_jobs`` are done, or ``limit`` seconds.

        The warm-up runs the first job once, untimed.  Its timed rerun must
        give the same CSV bytes (the CLI determinism contract).  With
        ``traced_share`` jobs are traced in alternate pairs, so that tracing
        does not line up with a workload that alternates inputs.
        """
        warm = self.execute(self.jobs[first % len(self.jobs)], traced=False)
        records = []
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= min_jobs) or elapsed >= limit:
                break
            job = self.jobs[(first + i) % len(self.jobs)]
            records.append(self.execute(job, traced_share and i % 4 >= 2))
            i += 1
        if self.workload.is_cli and warm.outcome.csv != records[0].outcome.csv:
            index = self.jobs[first % len(self.jobs)].index
            self.failures.append(f"job {index}: CSV bytes differ between two runs of one config")
        return warm, records


def run_workers(workload, seed: int, seconds: float, work: Path) -> tuple[list, list, list, float]:
    """The untraced job loop, split over ``WORKERS`` fresh interpreters run
    one after another.  Returns the warm-up records, the timed records, the
    failures and the largest peak RSS (MB) of any worker."""
    from quantiles import min_samples_for

    min_jobs = math.ceil(min_samples_for(90) / WORKERS)
    warms, records, failures, rss = [], [], [], 0.0
    for part in range(WORKERS):
        out = work / f"worker{part}.json"
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--worker", str(work),
               "--workload", workload.name, "--seed", str(seed),
               "--seconds", repr(seconds / WORKERS), "--part", str(part),
               "--min-jobs", str(min_jobs), "--limit", repr(HARD_LIMIT_S / WORKERS)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, cwd=ROOT)
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"worker {part} exited with code {proc.returncode}")
        done = json.loads(out.read_text())
        warms.append(record_from(done["warm"]))
        records += [record_from(r) for r in done["records"]]
        failures += done["failures"]
        rss = max(rss, done["peak_rss_mb"])
    return warms, records, failures, rss


def record_from(d: dict) -> JobRecord:
    from workloads import Outcome

    return JobRecord(**{**d, "outcome": Outcome(**d["outcome"])})


def worker(args) -> None:
    """One share of an untraced run: loads the parent's pickled jobs, runs
    them and writes the records as JSON next to them."""
    import_grasspin()
    from workloads import WORKLOADS

    work = Path(args.worker)
    with open(work / "jobs.pkl", "rb") as fh:
        jobs = pickle.load(fh)
    runner = Runner(WORKLOADS[args.workload], jobs, str(work / f"out{args.part}.csv"))
    first = args.part * len(jobs) // WORKERS
    warm, records = runner.measure(args.seconds, args.min_jobs, args.limit, first, False)

    def plain(r: JobRecord) -> dict:
        d = asdict(r)
        d["outcome"]["csv"] = None
        return d

    done = {"warm": plain(warm), "records": [plain(r) for r in records],
            "failures": runner.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    (work / f"worker{args.part}.json").write_text(json.dumps(done))


def worst(records, key: str) -> float:
    values = [r.outcome.checks[key] for r in records if key in r.outcome.checks]
    return max(values) if values else 0.0


def check_metrics(records, attempted: int, failed: int) -> dict:
    oracle = [r.outcome.checks["oracle_s"] for r in records if "oracle_s" in r.outcome.checks]
    return {
        "check.failed_frac": failed / attempted,
        "check.constraint_max": worst(records, "constraint_max"),
        "check.level_dev_max": worst(records, "level_dev_max"),
        "check.stationarity_max": worst(records, "stationarity_max"),
        "check.stationarity_even_max": worst(records, "stationarity_even_max"),
        "check.maxwell_max": worst(records, "maxwell_max"),
        "check.oracle_dev_max": worst(records, "oracle_dev_max"),
        "check.invariant_drift_max": worst(records, "invariant_drift_max"),
        "check.oracle_p50_s": statistics.median(oracle) if oracle else 0.0,
        "workload.const_field_frac": sum(r.kind == "constant" for r in records) / len(records),
    }


def end_to_end(records, setup: tuple[float, float], rss: float) -> tuple[dict, list[str]]:
    from quantiles import TooFewSamples, percentile, tail_percentile

    walls = [r.norm for r in records]
    raw = [r.wall for r in records]
    steps = sum(r.outcome.steps for r in records)
    try:
        p90 = tail_percentile(walls, 90)
    except TooFewSamples as err:
        raise BenchError(f"job_p90_s: {err}") from err
    metrics = {
        "setup_s": setup[0],
        "job_p50_s": percentile(walls, 50),
        "job_p90_s": p90,
        "steps_per_s": steps / sum(walls),
        "peak_rss_mb": rss,
    }
    notes = [f"samples: {len(walls)} timed jobs in {WORKERS} interpreters, {steps} RK4 steps, "
             f"{sum(raw):.3f} s of raw job time",
             f"raw: setup {setup[1]:.4g} s, job p50 {percentile(raw, 50):.4g} s, "
             f"p90 {percentile(raw, 90):.4g} s, steps {steps / sum(raw):.5g} 1/s; "
             f"reference kernel p50 {percentile([r.kernel for r in records], 50):.4g} s "
             f"(nominal {hostspeed.REF_S:g} s)"]
    return metrics, notes


def per_layer(tracer, records, workload, seed: int) -> tuple[dict, list[str]]:
    from quantiles import percentile
    from spans import in_subtrees, self_times

    import micro

    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n = len(traced)
    metrics = {}
    for name, (calls, secs) in tracer.totals().items():
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.self_s"] = secs / n
    counts = tracer.counts
    for key in ("grassmann.mul.pair_products", "super_dynamics.integrate_super.steps",
                "bmt.integrate_bmt.steps", "bmt.oracle.fine_steps"):
        metrics[key] = counts.get(key, 0.0) / n
    even_calls = metrics.get("polynomials.eval_even.calls", 0.0) * n
    metrics["polynomials.eval_even.soul_frac"] = (
        counts.get("polynomials.eval_even.soul_calls", 0.0) / even_calls if even_calls else 0.0)
    slots = counts.get("super_dynamics.all_slots", 0.0)
    metrics["super_dynamics.active_coeff_frac"] = (
        counts.get("super_dynamics.active_slots", 0.0) / slots if slots else 0.0)
    metrics["grassmann.table_build_s"] = table_build_s(workload)

    # Accounting: the self times in each job's span tree add up to its wall
    # time; the job span's own self time is the part no layer covers.
    _, parent, t0, t1 = tracer.arrays()
    roots = [r.root for r in traced]
    selft = self_times(parent, t1 - t0)
    wall = float(np.sum(t1[roots] - t0[roots]))
    covered = float(np.sum(selft[in_subtrees(parent, roots)]))
    uncovered = float(np.sum(selft[roots]))
    p50_traced = percentile([r.norm for r in traced], 50)
    p50_plain = percentile([r.norm for r in plain], 50)
    metrics["trace.overhead_frac"] = (p50_traced - p50_plain) / p50_plain
    metrics["trace.layer_frac"] = (wall - uncovered) / wall
    metrics["trace.jobs"] = float(n)
    metrics["host.kernel_p50_s"] = percentile([r.kernel for r in records], 50)
    accounting_err = abs(covered - wall) / wall
    notes = [f"traced jobs {n}, untraced jobs {len(plain)}, spans {tracer.n_spans}",
             f"job wall {wall:.4f} s = layer self {wall - uncovered:.4f} s "
             f"+ untraced remainder {uncovered:.4f} s (accounting error {accounting_err:.1e})"]
    if accounting_err > 1e-9:
        raise BenchError(f"span self times do not add up to job time ({accounting_err:.1e})")

    micro_values = micro.measure(seed)
    metrics.update(micro_values)
    notes += micro.baseline_report(micro_values)
    return metrics, notes


def select(spec_metrics: list[dict], available: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in available]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": float(available[m["name"]]), "unit": m["unit"]}
            for m in spec_metrics}


def run(args) -> dict:
    loadavg = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_grasspin()
    import inputs
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(loadavg)
    print("env " + json.dumps(env, sort_keys=True))

    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        jobs = workload.generate(np.random.default_rng(args.seed), POOL_SIZE)
        inputs.write_and_validate(jobs, str(work))
        if args.trace:
            tracer = Tracer()
            runner = Runner(workload, jobs, str(work / "out.csv"), tracer)
            warm, records = runner.measure(args.seconds, 2 * TRACED_MIN_EACH, HARD_LIMIT_S,
                                           0, traced_share=True)
            warms, failures = [warm], runner.failures
        else:
            setup = measure_setup(workload, jobs[0].path)
            with open(work / "jobs.pkl", "wb") as fh:
                pickle.dump(jobs, fh)
            warms, records, failures, rss = run_workers(workload, args.seed, args.seconds, work)
        attempted = len(warms) + len(records)
        failed = len(failures)

        checks = check_metrics(warms + records, attempted, failed)
        if args.trace:
            available, notes = per_layer(tracer, records, workload, args.seed)
            available.update(checks)
            metrics = select(spec["per_layer"], available)
            tracer.save(str(out_dir / f"{tag}-spans.npz"))
        else:
            available, notes = end_to_end(records, setup, rss)
            metrics = select(spec["end_to_end"], available)
            notes += [f"{k} = {v:.4g}" for k, v in checks.items()]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in notes + failures[:20]:
        print(note)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"env": env, "args": vars(args), "result": result, "all_metrics": available,
              "job_walls": [r.wall for r in records], "job_norms": [r.norm for r in records],
              "kernel_times": [r.kernel for r in records], "failures": failures}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grasspin benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one worker's share of an untraced run (see run_workers).
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--min-jobs", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--limit", type=float, default=HARD_LIMIT_S, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args)
        return 0
    try:
        result = run(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
