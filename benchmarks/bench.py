"""Corpus, kernel and layer timings of charp checkouts, side by side, in one JSON file.

    python benchmarks/bench.py --out BENCH.json                          # this checkout alone
    python benchmarks/bench.py --out BENCH.json parent=../parent change=.

Each argument LABEL=ROOT names a checkout; its ``src`` directory is put on
PYTHONPATH.  The checkouts are measured in alternation, one run of each per
round with the order reversed every round, so that a machine that drifts
over minutes moves every side alike.  Every row is the median of RUNS
(5) rounds.

* Corpus rows run one charp command line end to end in a fresh interpreter
  and record its wall time (process start included), its in-process time
  (the call to ``charp.cli.main`` alone, timed inside the child), its peak
  RSS and a sha256 of its stdout, so that the sides can be checked to print
  the same bytes.  The tier-1 row is the wall time of the checkout's own
  test suite.
* Kernel rows time the coefficient kernel of ``charp.field`` in a child
  interpreter per side and round: ``_mul``, ``_inv``, ``LaurentElement.dot``,
  ``+``, ``-`` and ``scale`` on fixed seeded operands at p = 5, and ``*``,
  ``dot`` and ``inverse`` at p = 4294967311, whose products need 16-byte
  limbs, and ``+`` there, whose sums fit 8-byte limbs, with the number of
  calls behind each time.  ``dot`` at p = 5 is timed on fresh operands and
  on operands already used once, as DP nodes and numerators are used again.
* Layer rows time the recurrence cold, every process-wide cache of charp
  cleared and a fresh map built before each pass (not timed): one level
  sweep ``phi(4, 0, 4 * 5^4)`` on the z^5 map at p = 5, and ``numerator``
  over a fixed list of windows on the high-shift map ``{1: t^10, 4: t}``.
  Each also records how many numerators its table built and how many DP
  nodes it stored, so that a change in time can be traced to a change in
  work.

Timings are taken as the machine is; nothing on it is tuned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

CORPUS = [
    ("verdict quadratic p=5 Kmax=3", ["analyze", "--p", "5", "--a", "1:1", "--Kmax", "3"]),
    ("verdict z^5 p=5 Kmax=4", ["analyze", "--p", "5", "--a", "4:1", "--Kmax", "4"]),
    ("verdict z^5 p=5 Kmax=5", ["analyze", "--p", "5", "--a", "4:1", "--Kmax", "5"]),
    ("verdict z^7 p=7 Kmax=3", ["analyze", "--p", "7", "--a", "6:1", "--Kmax", "3"]),
    ("verdict high-shift {1: t^10, 4: t} p=5 Kmax=3", ["analyze", "--p", "5", "--a", "1:t^10,4:t", "--Kmax", "3"]),
    ("b_coeffs quadratic p=5 N=200", ["bseries", "--p", "5", "--a", "1:1", "--N", "200"]),
    ("lemma suite seed=0 budget=400", ["lemmas", "--seed", "0", "--budget", "400"]),
]
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
RUNS = 5  # rounds behind every row
KERNEL_PASSES = 10  # passes over each kernel case in one sample
LARGE_P = 4294967311  # the least prime past 2**32
# a corpus child: charp.cli.main on argv, its own duration on the last line of stderr
TIMED_CLI = (
    "import sys, time\n"
    "from charp.cli import main\n"
    "start = time.perf_counter()\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(time.perf_counter() - start, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.pop("CHARP_WINDOW", None)
    return env


def run_child(args, root: Path):
    """Run the interpreter with args in root; returns (seconds, peak RSS in
    MB, stdout, stderr, exit code)."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=root, env=child_env(root), stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)  # this child's own peak RSS
        seconds = time.perf_counter() - start
        err.seek(0)
        return seconds, usage.ru_maxrss / 1024, out, err.read(), os.waitstatus_to_exitcode(status)


def rounds(sides: dict):
    """(label, root) in alternating order: A B, B A, A B, ..."""
    labels = list(sides)
    for i in range(RUNS):
        for label in labels if i % 2 == 0 else labels[::-1]:
            yield label, sides[label]


def corpus_rows(sides: dict) -> dict:
    rows = {label: [] for label in sides}
    for name, argv in CORPUS:
        got = {label: ([], [], [], set()) for label in sides}
        for label, root in rounds(sides):
            seconds, mb, out, err, code = run_child(["-c", TIMED_CLI, *argv], root)
            if code != 0:
                raise SystemExit(f"{label}: {name}: exit code {code}")
            times, inside, rss, digests = got[label]
            times.append(seconds)
            inside.append(float(err.splitlines()[-1]))
            rss.append(mb)
            digests.add(hashlib.sha256(out).hexdigest())
        for label, (times, inside, rss, digests) in got.items():
            if len(digests) != 1:
                raise SystemExit(f"{label}: {name}: stdout differs between runs")
            rows[label].append(
                {
                    "row": name,
                    "kind": "corpus",
                    "command": "charp " + " ".join(argv),
                    "wall_s": statistics.median(times),
                    "in_process_s": statistics.median(inside),
                    "peak_rss_mb": statistics.median(rss),
                    "stdout_sha256": digests.pop(),
                    "runs": RUNS,
                }
            )
            print(
                f"# {label}: {name}: {statistics.median(times):.3f} s wall, {statistics.median(inside):.3f} s "
                f"in-process, {statistics.median(rss):.1f} MB",
                file=sys.stderr,
            )
    times = {label: [] for label in sides}
    summary = {}
    for label, root in rounds(sides):
        seconds, _mb, out, _err, code = run_child(TIER1, root)
        if code != 0:
            raise SystemExit(f"{label}: tier-1 tests failed (exit code {code})")
        times[label].append(seconds)
        summary[label] = out.decode().strip().splitlines()[-1]
    for label in sides:
        wall = statistics.median(times[label])
        rows[label].append({"row": "tier-1 tests", "kind": "corpus", "wall_s": wall, "result": summary[label], "runs": RUNS})
        print(f"# {label}: tier-1: {wall:.1f} s ({summary[label]})", file=sys.stderr)
    return rows


def kernel_sample() -> list:
    """One sample of every kernel and layer case, as (name, kind, calls,
    what, seconds per call, counts); charp is imported from PYTHONPATH."""
    from charp import combinat, field, recurrence
    from charp.field import LaurentElement, _inv, _mul
    from charp.recurrence import DynamicalSeries, LevelTable

    def operands(p, rng):
        def vec(n):
            return [rng.randrange(p) for _ in range(n)]

        def units(n):
            return [rng.randrange(1, p)] + vec(n - 1)

        def node(width):
            # a truncated element like a DP node or a numerator of the window
            v = rng.randrange(0, 8)
            return LaurentElement(p, v, units(width), v + width)

        return vec, units, node

    p = 5
    rng = random.Random(7)
    vec, units, node = operands(p, rng)
    large_node = operands(LARGE_P, random.Random(11))[2]

    muls = [(vec(64), vec(64)) for _ in range(50)] + [(vec(256), vec(256)) for _ in range(10)]
    invs = [(units(64), 64) for _ in range(20)] + [(units(256), 256) for _ in range(5)]
    dot_specs = [[(rng.randrange(1, p), 64) for _ in range(8)] for _ in range(40)]
    sums = [(node(64), node(64)) for _ in range(200)]

    def fresh_dots():
        return [[(c, node(w), node(w)) for c, w in spec] for spec in dot_specs]

    reused = fresh_dots()
    large_muls = [(large_node(64), large_node(64)) for _ in range(20)]
    large_sums = [(large_node(64), large_node(64)) for _ in range(200)]
    large_invs = [large_node(64) for _ in range(10)]

    def large_dots():
        return [[(c, large_node(64), large_node(64)) for c in range(1, 9)] for _ in range(10)]

    def time_mul():
        for a, b in muls:
            _mul(a, b, p, len(a))

    def time_inv():
        for a, n in invs:
            _inv(a, p, n)

    def time_dot(dots):
        for triples in dots:
            LaurentElement.dot(p, triples)

    def time_add():
        for x, y in sums:
            x + y

    def time_sub():
        for x, y in sums:
            x - y

    def time_scale():
        for x, _y in sums:
            x.scale(3)

    def time_large_mul():
        for x, y in large_muls:
            x * y

    def time_large_dot(dots):
        for triples in dots:
            LaurentElement.dot(LARGE_P, triples)

    def time_large_inv():
        for x in large_invs:
            x.inverse(64)

    def time_large_add():
        for x, y in large_sums:
            x + y

    def cold_table(p, coeffs):
        """A fresh table of a fresh map, with every process-wide cache of
        charp (lru_cache functions and the shared multipliers) cleared."""
        for module in (combinat, field, recurrence):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
        return LevelTable(DynamicalSeries.from_spec(p, coeffs))

    numerator_windows = [(r, r + d) for r in range(0, 200, 4) for d in range(1, 61)]

    def time_sweep(table):
        table.phi(4, 0, 4 * 5**4)

    def time_numerators(table):
        for r, s in numerator_windows:
            table.numerator(r, s)

    def layer_counts(table):
        return {
            "numerators_built": len(table._num),
            "dp_nodes": sum(len(st["g"]) for st in table._dp.values()),
        }

    cases = [
        ("_mul", time_mul, None, len(muls), "truncated products, 50 of length 64 and 10 of length 256"),
        ("_inv", time_inv, None, len(invs), "Newton inverses, 20 to 64 and 5 to 256 coefficients"),
        ("dot fresh operands", time_dot, fresh_dots, len(dot_specs), "8 products of length-64 windows per call, on operands built anew (not timed)"),
        ("dot reused operands", time_dot, lambda: reused, len(dot_specs), "the same calls on operands already used once"),
        ("+", time_add, None, len(sums), "sums of two length-64 windows"),
        ("-", time_sub, None, len(sums), "differences of two length-64 windows"),
        ("scale", time_scale, None, len(sums), "length-64 windows times 3"),
        (f"* p={LARGE_P}", time_large_mul, None, len(large_muls), "products of two length-64 windows"),
        (f"dot p={LARGE_P}", time_large_dot, large_dots, 10, "8 products of length-64 windows per call, on operands built anew (not timed)"),
        (f"inverse p={LARGE_P}", time_large_inv, None, len(large_invs), "inverses of length-64 windows to 64 coefficients"),
        (f"+ p={LARGE_P}", time_large_add, None, len(large_sums), "sums of two length-64 windows"),
    ]
    layers = [
        ("level sweep z^5 p=5", time_sweep, lambda: cold_table(5, {4: 1}), 1, "phi(4, 0, 4 * 5^4) on a cold table"),
        (
            "numerator high-shift p=5",
            time_numerators,
            lambda: cold_table(5, {1: "t^10", 4: "t"}),
            len(numerator_windows),
            "numerator(r, r + d) on a cold table, r = 0, 4, ..., 196 and d = 1..60",
        ),
    ]
    time_dot(reused)  # the operands have been used once
    out = []
    for kind, rows in (("kernel", cases), ("layer", layers)):
        for name, fn, make, calls, what in rows:
            seconds = 0.0
            for _ in range(KERNEL_PASSES):
                args = () if make is None else (make(),)
                start = time.perf_counter()
                fn(*args)
                seconds += time.perf_counter() - start
            counts = layer_counts(*args) if kind == "layer" else None
            out.append((name, kind, calls, what, seconds / KERNEL_PASSES / calls, counts))
    return out


def kernel_rows(sides: dict) -> dict:
    samples = {label: {} for label in sides}
    meta = {}
    for label, root in rounds(sides):
        _s, _mb, out, _err, code = run_child([str(Path(__file__).resolve()), "--kernel-sample"], root)
        if code != 0:
            raise SystemExit(f"{label}: kernel sample failed (exit code {code})")
        for name, kind, calls, what, per_call, counts in json.loads(out):
            samples[label].setdefault(name, []).append(per_call)
            meta[label, name] = (kind, calls, what, counts)
    rows = {}
    for label, by_name in samples.items():
        rows[label] = []
        for name, values in by_name.items():
            kind, calls, what, counts = meta[label, name]
            us = statistics.median(values) * 1e6
            row = {"row": name, "kind": kind, "what": what, "calls": calls, "us_per_call": us, "runs": RUNS}
            if counts is not None:
                row["counts"] = counts
            rows[label].append(row)
            print(f"# {label}: {name}: {us:.1f} us/call", file=sys.stderr)
    return rows


def describe(root: Path):
    return subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True
    ).stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sides", nargs="*", metavar="LABEL=ROOT", help="checkouts to measure (default: change=this one)")
    ap.add_argument("--out", type=Path, help="the JSON file to write (required unless --kernel-sample)")
    ap.add_argument("--kernel-sample", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.kernel_sample:
        print(json.dumps(kernel_sample()))
        return 0
    if args.out is None:
        ap.error("--out is required")
    sides = {}
    for spec in args.sides or [f"change={HERE.parent}"]:
        label, sep, root = spec.partition("=")
        if not sep or not label:
            ap.error(f"expected LABEL=ROOT, got {spec!r}")
        sides[label] = Path(root).resolve()
    kernel = kernel_rows(sides)
    corpus = corpus_rows(sides)
    data = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "runs": RUNS,
        "order": "alternating rounds",
        "sides": {
            label: {"root_commit": describe(root), "rows": kernel[label] + corpus[label]}
            for label, root in sides.items()
        },
    }
    tmp = args.out.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    tmp.replace(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
