"""The workload process: one fresh interpreter runs one workload's jobs.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only] [--trace]

It imports charp from ``src/`` of the checkout, builds the workload's maps
from the seed and parses every literal; that is the set-up it reports.  Then
it runs jobs in stream order, one per ``next`` line read from stdin, and
answers each with one JSON line: the job's wall time, its calibration time,
its exit code (None when it raised), the error text and the report it
printed.  ``stop`` (or end
of input) ends the loop; the last line holds the peak RSS and, with
--trace, the per-layer metrics, and the spans are written under
``perfbench/out/``.

A job is timed from the call into charp to its return; formatting a
witness report happens after the clock stops.  Each job (and the set-up) is
bracketed by two runs of ``calibrate``, a fixed loop of integer and dict
work that shares no code with charp; run.py divides by their mean to
take out the machine's speed, which on a shared machine drifts by 20% and
more over minutes.  Module-global caches are never reset, as they are not
for a user's process; run.py starts a fresh worker for each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def calibrate() -> float:
    """Seconds taken by a fixed interpreter workload independent of charp."""
    t0 = perf_counter()
    table = {}
    x = 0
    for _ in range(8000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + (x >> 7)
    return perf_counter() - t0


def emit(stream, obj):
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def run_job(charp, job, tracer, index):
    """Run one job; returns (seconds, exit code or None, error, report)."""
    from workloads import MAX_WINDOW, WINDOW

    out = io.StringIO()
    rc, error, rows = None, "", None
    if tracer is not None:
        tracer.start_job(index)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            if job.kind == "witness":
                m = job.map
                f = charp.DynamicalSeries.from_spec(m.p, dict(m.coeffs), m.lam, WINDOW, MAX_WINDOW)
                rows = charp.divergence_witness(f, job.ks)
                rc = 0
            else:
                rc = charp.cli.main(job.argv())
    except Exception as e:  # a job that raises is a failed job, not a failed run
        error = f"{type(e).__name__}: {e}"
    else:
        error = err.getvalue().strip()
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.end_job()
    report = out.getvalue()
    if rows is not None:
        report = "".join(f"k={k} d={d} val={v} slope={s}\n" for k, d, v, s in rows)
    return dt, rc, error, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    proto = sys.stdout

    before = calibrate()
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import charp
    import charp.cli  # noqa: F401  (binds charp.cli and charp.lemma_lab)
    from workloads import Workload

    wl = Workload(args.workload, args.seed)
    for m in wl.maps:
        charp.make_lambda(charp.PrimeContext(m.p), m.lam)
        for _i, lit in m.coeffs:
            charp.parse_laurent(m.p, lit)
    setup_s = perf_counter() - t0
    cal = (before + calibrate()) / 2
    emit(proto, {"setup_s": setup_s, "cal": cal, "backend": charp.backend_name})
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(charp)
    index = 0
    for line in sys.stdin:
        if line.strip() != "next":
            break
        before = calibrate()
        dt, rc, error, report = run_job(charp, wl.job(index), tracer, index)
        cal = (before + calibrate()) / 2
        emit(proto, {"t": dt, "cal": cal, "rc": rc, "error": error, "report": report})
        index += 1
    final = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        final["trace"] = tracer.metrics()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json")
    emit(proto, final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
