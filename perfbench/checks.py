"""Output checks, run by run.py between jobs and outside the timed region.

Every check holds for every seed:

* analyze: the report echoes the job's config; levels run 0..L without a
  gap; M_lo <= M_hi on each level; the verdict agrees with the dominance
  flags; a map of the linearizable family is never reported non-linearizable.
* bseries: every pooled map's conjugacy residual, at the largest N the
  workload uses, vanishes on its certified window, and each printed row equals
  val_mu(b_n) and val_mu(b_n)/n of that verified prefix.
* witness: the slopes drop by at least p^(tau-1)/u per level, each equals
  val_b/n, and the rows equal the reference rows, whose slopes were checked
  against M_k/u (from fresh Mk_point samples) when the reference was recorded.
* lemmas: the summary reports fail=0 and counts every case line.

For the reference seed, each report's digest must also equal the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from workloads import BSERIES_N, MAX_WINDOW, WINDOW

REFERENCE = Path(__file__).resolve().parent / "reference.json"
FIXTURE_CASES = 180  # suite cases before its seeded random maps
CASE_LINE = re.compile(r"\] (pass|fail|skip)( \(.*\))?$")


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()[:16]


def witness_key(m) -> str:
    return f"{m.lam}|{m.a_spec}"


def _slope(text):
    return math.inf if text == "inf" else Fraction(text)


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def witness_rows(charp, m, ks):
    """Witness rows for map m, checked against fresh M_k samples: each slope
    is M_k/u with d the smallest minimizer, and val_b/n equals the slope."""
    def fresh():
        return charp.DynamicalSeries.from_spec(m.p, dict(m.coeffs), m.lam, WINDOW, MAX_WINDOW)

    f = fresh()
    rows = charp.divergence_witness(f, ks)
    g = fresh()
    u, p = g.u, g.p
    for k, d, val, slope in rows:
        samples = {dd: charp.Mk_point(g, k, 0, dd * p**k) for dd in range(1, p)}
        best = min(samples.values())
        if slope != best / u or d != min(dd for dd, v in samples.items() if v == best):
            raise AssertionError(f"witness k={k} of {witness_key(m)}: ({d}, {slope}) vs M_k={best}")
        if Fraction(val) / (u * d * p**k) != slope:
            raise AssertionError(f"witness k={k} of {witness_key(m)}: val/n != slope")
    return [f"k={k} d={d} val={v} slope={s}" for k, d, v, s in rows]


class Checker:
    """Checks the jobs of one workload run in order; returns None or a reason."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.reference = reference
        self.digests = reference.get("digests", {}).get(workload, []) if reference.get("seed") == seed else []
        self._prefixes = {}  # map -> {n: (val, slope) or None}

    def check(self, index, job, res) -> str | None:
        if res["rc"] != 0:
            return f"exit {res['rc']}: {res['error']}"
        report = res["report"]
        lines = report.splitlines()
        try:
            why = getattr(self, "_" + job.kind)(job, lines)
        except Exception as e:  # a report that cannot be read or verified fails its job
            why = f"check raised {type(e).__name__}: {e}"
        if why is None and index < len(self.digests) and digest(report) != self.digests[index]:
            why = "report differs from the recorded reference"
        return why

    # -- per kind -------------------------------------------------------------

    def _header(self, job, lines, keys):
        echoed = {}
        for line in lines:
            if line.startswith("# ") and " = " in line:
                k, v = line[2:].split(" = ", 1)
                echoed[k] = v
        want = {"window": str(WINDOW), "max_window": str(MAX_WINDOW)}
        if job.map is not None:
            want.update(p=str(job.map.p), a=job.map.a_spec)
            want["lambda"] = job.map.lam
        want.update((k, str(getattr(job, k))) for k in keys)
        bad = {k: echoed.get(k) for k, v in want.items() if echoed.get(k) != v}
        return f"header does not echo the job: {bad}" if bad else None

    def _analyze(self, job, lines):
        why = self._header(job, lines, ["Kmax"])
        if why:
            return why
        levels = [ln.split() for ln in lines if ln.startswith("level ")]
        if [lv[1] for lv in levels] != [f"k={k}" for k in range(len(levels))]:
            return "levels are not numbered 0..L"
        dominant = []
        for lv in levels:
            fields = dict(x.split("=", 1) for x in lv[2:] if x.startswith(("M_lo=", "M_hi=", "dominant=")))
            if _slope(fields["M_lo"]) > _slope(fields["M_hi"]):
                return f"M_lo > M_hi on {' '.join(lv)}"
            dominant.append(fields.get("dominant") == "true")
        last = lines[-1]
        top = len(levels) - 1
        if last == f"verdict=inconclusive Kmax={job.Kmax}":
            ok = top == job.Kmax and not any(dominant)
        elif last == f"verdict=non-linearizable k={top}":
            ok = dominant[-1] and not any(dominant[:-1]) and job.expect != "inconclusive"
        else:
            ok = False
        return None if ok else f"verdict line {last!r} disagrees with the levels or the family"

    def _bseries(self, job, lines):
        why = self._header(job, lines, ["N"])
        if why:
            return why
        body = [ln for ln in lines if not ln.startswith("#")]
        if not body or body[0] != "n,val_mu_bn,slope" or len(body) != job.N + 1:
            return "bseries output is not a CSV of N rows"
        want = self._bseries_reference(job.map)
        for n, row in enumerate(body[1:], 1):
            cells = row.split(",")
            got = None if cells[1:] == ["", ""] else (Fraction(cells[1]), Fraction(cells[2]))
            if cells[0] != str(n) or got != want[n]:
                return f"row {row!r} differs from the verified prefix {want[n]}"
        return None

    def _bseries_reference(self, m):
        """val_mu(b_n) and slopes for n <= the workload's largest N, from a
        prefix whose conjugacy residual vanishes (computed once per map)."""
        got = self._prefixes.get(m)
        if got is None:
            import charp

            top = max(BSERIES_N)
            f = charp.DynamicalSeries.from_spec(m.p, dict(m.coeffs), m.lam, WINDOW, MAX_WINDOW)
            table = f.table()
            residual = charp.conjugacy_residual(f, top, table)
            if not all(x.is_zero_within_window() for x in residual):
                raise AssertionError(f"conjugacy residual of {m} does not vanish")

            def vals():
                b = charp.b_coeffs(f, top, table)
                return [f.multiplier.val_mu(b[n]) for n in range(1, top + 1)]

            got = {n: (None if v == math.inf else (v, v / n)) for n, v in enumerate(charp.run_certified(table, vals), 1)}
            self._prefixes[m] = got
        return got

    def _witness(self, job, lines):
        rows = [dict(x.split("=", 1) for x in ln.split()) for ln in lines]
        if [int(r["k"]) for r in rows] != list(job.ks):
            return "witness levels differ from the request"
        m = job.map
        p = m.p
        u = math.gcd(*(i for i, _ in m.coeffs))
        tau = 0
        while u % p ** (tau + 1) == 0:
            tau += 1
        gap = Fraction(p**tau, p) / u
        slopes = [Fraction(r["slope"]) for r in rows]
        for r, s in zip(rows, slopes):
            if Fraction(r["val"]) / (u * int(r["d"]) * p ** int(r["k"])) != s:
                return f"val/n != slope in {r}"
        for (k0, s0), (k1, s1) in zip(zip(job.ks, slopes), zip(job.ks[1:], slopes[1:])):
            if s1 > s0 - gap * (k1 - k0):
                return f"witness slopes fail to drop between k={k0} and k={k1}"
        want = self.reference.get("witness", {}).get(witness_key(m))
        if want is None:
            return "no reference witness for this map"
        if lines != want[: len(lines)]:
            return "witness rows differ from the reference (checked against M_k/u)"
        return None

    def _lemmas(self, job, lines):
        why = self._header(job, lines, ["seed", "budget"])
        if why:
            return why
        summary = [ln for ln in lines if ln.startswith("summary ")]
        if len(summary) != 1:
            return "no summary line"
        fields = dict(x.split("=", 1) for x in summary[0].split()[1:])
        counts = [int(fields[k]) for k in ("pass", "fail", "skip")]
        cases = sum(1 for ln in lines if CASE_LINE.search(ln))
        if fields["seed"] != str(job.seed) or counts[1] != 0:
            return f"suite reports {summary[0]!r}"
        # a budget within the fixture cases runs exactly that many
        expected = job.budget if job.budget <= FIXTURE_CASES else cases
        if sum(counts) != cases or cases != expected or cases > job.budget:
            return f"suite counts {counts} do not match {cases} case lines at budget {job.budget}"
        return None
