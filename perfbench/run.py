"""The charp benchmark: certificate jobs in a closed loop, checked one by one.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports charp from ``src/`` there.
One caller runs the workload's jobs in a closed loop: each job starts only
after the previous one has finished and its output has been checked.  The
jobs run in a fresh worker process (``worker.py``); the checks run here, so
they are neither timed nor counted in the worker's memory.

``--trace 0`` measures for S seconds of job time and prints the end-to-end
metrics.  Times are reported in reference seconds: each job's (and each
set-up's) wall time times REFERENCE_CAL over the mean of the calibration
loops the worker ran just before and after it.  On a shared machine the
speed drifts by 20% and more over minutes; the calibration loop shares no
code with charp, so the scaling takes the drift out and leaves any change
to charp in.  The raw wall-clock figures are printed on a
``#`` line.  ``--trace 1`` runs a fixed number of jobs twice, in two fresh
workers, untraced and traced, and prints the per-layer metrics of the traced
one: a fixed job list makes the counts repeat exactly.  The last line of
standard output is one JSON object; lines before it start with ``#``.

``--record-reference`` rewrites ``reference.json``: the report digests of
the first jobs of the reference seed, and the witness rows of every map the
witness jobs use, each checked against fresh M_k samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from checks import REFERENCE, Checker, digest, load_reference, witness_key, witness_rows
from workloads import WITNESS_UNITS, WORKLOADS, Workload, dense_family

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 8  # fresh set-up-only processes; the first only warms the bytecode caches
TRACE_JOBS = 20  # jobs in each pass of a traced run (two rounds)
REFERENCE_SEED = 0
REFERENCE_JOBS = 400  # recorded digests per workload; a run checks as many as it reaches
REFERENCE_CAL = 0.003  # seconds of worker.calibrate() that define a reference second


class WorkerFailed(RuntimeError):
    pass


class Worker:
    """A fresh workload process, driven one job at a time over its pipes."""

    def __init__(self, workload, seed, *, trace=False, setup_only=False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        # bytecode caches on, as in an installed package; the first of the
        # set-up starts writes them
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.setup_only = setup_only
        try:
            self.hello = self._read()
        except Exception:
            self.kill()
            raise

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerFailed(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def _send(self, line):
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as e:
            raise WorkerFailed(f"worker exited with code {self.proc.wait()}") from e

    def next(self):
        self._send("next")
        return self._read()

    def close(self):
        """Stop the worker and return its last message."""
        final = None
        if not self.setup_only:
            self._send("stop")
            final = self._read()
        self.proc.stdin.close()
        if self.proc.wait(timeout=60) != 0:
            raise WorkerFailed(f"worker exited with code {self.proc.returncode}")
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Run:
    """Jobs of one workload through one worker, each checked before the next."""

    def __init__(self, workload, seed, reference, trace=False):
        self.stream = Workload(workload, seed)
        self.checker = Checker(workload, seed, reference)
        self.worker = Worker(workload, seed, trace=trace)
        self.times, self.scaled, self.digests, self.failures = [], [], [], []
        self.final = None

    def step(self):
        i = len(self.times)
        res = self.worker.next()
        why = self.checker.check(i, self.stream.job(i), res)
        self.times.append(res["t"])
        self.scaled.append(res["t"] * REFERENCE_CAL / res["cal"])
        self.digests.append(digest(res["report"]))
        if why is not None:
            self.failures.append(i)
            print(f"# job {i} failed: {why}", file=sys.stderr)

    def finish(self):
        self.final = self.worker.close()
        return self

    @property
    def busy(self):
        return sum(self.times)

    @property
    def scaled_busy(self):
        return sum(self.scaled)


def run_jobs(workload, seed, reference, *, seconds=None, count=None, trace=False):
    run = Run(workload, seed, reference, trace)
    try:
        while run.busy < seconds if count is None else len(run.times) < count:
            run.step()
        return run.finish()
    finally:
        run.worker.kill()


def setup_times(workload, seed):
    """Set-up seconds of fresh workers, after one unmeasured start that
    leaves the bytecode caches written."""
    times = []
    for i in range(SETUP_RUNS):
        w = Worker(workload, seed, setup_only=True)
        try:
            w.close()
        finally:
            w.kill()
        if i:
            times.append(scaled_setup(w.hello))
    return times


def scaled_setup(hello):
    return hello["setup_s"] * REFERENCE_CAL / hello["cal"]


def environment(backend):
    return f"backend={backend} python={platform.python_version()} nproc={os.cpu_count()}"


def timed(workload, seed, seconds, reference):
    setups = setup_times(workload, seed)
    run = run_jobs(workload, seed, reference, seconds=seconds)
    setups.append(scaled_setup(run.worker.hello))
    lat = run.scaled
    p90 = statistics.quantiles(lat, n=10)[8]
    attempted, failed = len(lat), len(run.failures)
    raw = run.times
    print(
        f"# {workload} seed={seed} jobs={attempted} above_p90={sum(t > p90 for t in lat)} "
        f"{environment(run.worker.hello['backend'])}"
    )
    print(
        f"# wall clock: busy_s={run.busy:.3f} jobs_per_s={(attempted - failed) / run.busy:.4f} "
        f"job_p50_s={statistics.median(raw):.5f} job_p90_s={statistics.quantiles(raw, n=10)[8]:.5f}"
    )
    metrics = {
        "jobs_per_s": ((attempted - failed) / run.scaled_busy, "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (p90, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run.final["rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(workload, seed, reference, count=TRACE_JOBS):
    plain = run_jobs(workload, seed, reference, count=count)
    trace = run_jobs(workload, seed, reference, count=count, trace=True)
    differ = [i for i, (a, b) in enumerate(zip(plain.digests, trace.digests)) if a != b]
    for i in differ:
        print(f"# job {i} failed: traced report differs from the untraced one", file=sys.stderr)
    failed = len(set(plain.failures) | set(trace.failures) | set(differ))
    # self times in reference seconds, like the end-to-end times
    scale = trace.scaled_busy / trace.busy
    metrics = {
        k: {"value": v * scale if u == "s" else v, "unit": u} for k, (v, u) in trace.final["trace"].items()
    }
    metrics["trace.overhead_ratio"] = {"value": trace.scaled_busy / plain.scaled_busy, "unit": "ratio"}
    print(f"# {workload} seed={seed} traced jobs={count} {environment(trace.worker.hello['backend'])}")
    return count, failed, metrics


def record_reference():
    """Rewrite reference.json from the current program (checked as it goes)."""
    import charp

    ref = {
        "seed": REFERENCE_SEED,
        "recorded_with": environment(charp.backend_name),
        "witness": {witness_key(m): witness_rows(charp, m, (1, 2)) for m in dense_family(5, WITNESS_UNITS)},
        "digests": {},
    }
    for workload in WORKLOADS:
        run = run_jobs(workload, REFERENCE_SEED, ref, count=REFERENCE_JOBS)
        if run.failures:
            raise WorkerFailed(f"{workload}: jobs {run.failures} failed their checks")
        ref["digests"][workload] = run.digests
        print(f"# recorded {workload}: {len(run.digests)} jobs in {run.busy:.1f} s", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="charp benchmark: closed-loop certificate jobs")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "charp" / "__init__.py").is_file():
        print(f"no charp sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        reference = load_reference()
        if args.trace:
            attempted, failed, metrics = traced(args.workload, args.seed, reference)
        else:
            attempted, failed, metrics = timed(args.workload, args.seed, args.seconds, reference)
    except WorkerFailed as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
