"""Command-line front end.

Three subcommands:

* analyze:  run the dominance check and print the per-level slope report
             with the final verdict line;
* bseries:  print the conjugacy-coefficient valuations as CSV;
* lemmas:   run the verification suite and print its report.

Coefficients are given as ``--a "i:<Laurent literal>[,i:<literal>...]"``
where the index i is the one in f(z) = z*(lambda + sum a_i z^i), so a_i
multiplies z^(i+1).  Off-by-one here is the classic mistake: ``--a "1:1"``
is the quadratic map lambda*z + z^2.

A config file (one ``key = value`` per line, same keys as the flags) can be
given with --config; explicit flags win over the file.  CHARP_WINDOW
overrides the default window when --window is absent.

Exit codes: 0 any verdict, 2 bad config, 3 precision exhausted, 4 internal
invariant violation.  Output is byte-stable for a fixed config.  With --out
the report is written to a temporary file next to the target and renamed
over it only when the command returns, so a failed run leaves no partial
report and an existing file untouched.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import criterion, lemma_lab
from .errors import (
    CharpError,
    ConfigError,
    DegenerateLinearMap,
    PrecisionExhausted,
)
from .field import LaurentElement, parse_laurent
from .recurrence import DynamicalSeries, b_coeffs, run_certified

INF = math.inf

_DEFAULTS = {
    "p": 5,
    "lambda": "1 + t",
    "a": "",
    "Kmax": 3,
    "N": 20,
    "window": 64,
    "max_window": 8192,
    "seed": 0,
    "budget": 400,
}

_INT_KEYS = {"p", "Kmax", "N", "window", "max_window", "seed", "budget"}


@dataclass(frozen=True)
class JobConfig:
    p: int
    lambda_spec: str
    a_spec: str
    Kmax: int
    N: int
    window: int
    max_window: int
    seed: int
    budget: int

    def header_lines(self):
        return [
            f"# p = {self.p}",
            f"# lambda = {self.lambda_spec}",
            f"# a = {self.a_spec}",
            f"# Kmax = {self.Kmax}",
            f"# N = {self.N}",
            f"# window = {self.window}",
            f"# max_window = {self.max_window}",
            f"# seed = {self.seed}",
            f"# budget = {self.budget}",
        ]

    @classmethod
    def from_mapping(cls, values: dict) -> "JobConfig":
        merged = dict(_DEFAULTS)
        for k, v in values.items():
            if v is None:
                continue
            if k not in merged:
                raise ConfigError(f"unknown config key {k!r}")
            merged[k] = v
        try:
            for k in _INT_KEYS:
                merged[k] = int(merged[k])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"non-integer value: {e}") from e
        if merged["Kmax"] < 1:
            raise ConfigError("Kmax must be >= 1")
        if merged["N"] < 0:
            raise ConfigError("N must be >= 0")
        if not (0 < merged["window"] <= merged["max_window"]):
            raise ConfigError("need 0 < window <= max_window")
        return cls(
            p=merged["p"],
            lambda_spec=str(merged["lambda"]),
            a_spec=str(merged["a"]),
            Kmax=merged["Kmax"],
            N=merged["N"],
            window=merged["window"],
            max_window=merged["max_window"],
            seed=merged["seed"],
            budget=merged["budget"],
        )

    @classmethod
    def from_header_lines(cls, lines) -> "JobConfig":
        values = {}
        for line in lines:
            line = line.strip()
            if not line.startswith("#"):
                continue
            body = line.lstrip("#").strip()
            if "=" not in body:
                continue
            k, v = body.split("=", 1)
            values[k.strip()] = v.strip()
        return cls.from_mapping(values)


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                k, v = line.split("=", 1)
                values[k.strip()] = v.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return values


def build_map(cfg: JobConfig) -> DynamicalSeries:
    coeffs: dict[int, LaurentElement] = {}
    spec = cfg.a_spec.strip()
    if spec:
        for item in spec.split(","):
            if ":" not in item:
                raise ConfigError(f"bad coefficient entry {item!r}: want i:<literal>")
            idx_s, lit = item.split(":", 1)
            try:
                idx = int(idx_s)
            except ValueError as e:
                raise ConfigError(f"bad coefficient index {idx_s!r}") from e
            try:
                coeffs[idx] = parse_laurent(cfg.p, lit)
            except ValueError as e:
                raise ConfigError(f"bad Laurent literal {lit!r}: {e}") from e
    try:
        return DynamicalSeries.from_spec(
            cfg.p, coeffs, cfg.lambda_spec, cfg.window, cfg.max_window
        )
    except (ValueError, CharpError) as e:
        if isinstance(e, CharpError) and not isinstance(e, ConfigError):
            raise
        raise ConfigError(str(e)) from e


def fmt_slope(v) -> str:
    """Rationals as num/den (integers bare), +inf as 'inf'."""
    if v == INF:
        return "inf"
    return str(Fraction(v))


def cmd_analyze(cfg: JobConfig, out) -> int:
    f = build_map(cfg)
    for line in cfg.header_lines():
        print(line, file=out)
    try:
        report = criterion.verdict(f, cfg.Kmax)
    except DegenerateLinearMap:
        print("verdict=trivially-linearizable", file=out)
        return 0
    for lvl in report.levels:
        if lvl.k == 0:
            print(f"level k=0 M_lo={fmt_slope(lvl.lo)} M_hi={fmt_slope(lvl.hi)}", file=out)
            continue
        samples = " ".join(f"d={s.d}:{fmt_slope(s.value)}" for s in lvl.samples)
        print(
            f"level k={lvl.k} {samples} M_lo={fmt_slope(lvl.lo)} "
            f"M_hi={fmt_slope(lvl.hi)} dominant={'true' if lvl.dominant else 'false'}",
            file=out,
        )
    if report.non_linearizable:
        print(f"verdict=non-linearizable k={report.level}", file=out)
    else:
        print(f"verdict=inconclusive Kmax={report.level}", file=out)
    return 0


def cmd_bseries(cfg: JobConfig, out) -> int:
    f = build_map(cfg)
    for line in cfg.header_lines():
        print(line, file=out)
    print("n,val_mu_bn,slope", file=out)
    table = f.table()

    def rows():
        b = b_coeffs(f, cfg.N, table)
        lines = []
        for n in range(1, cfg.N + 1):
            bn = b[n]
            if bn.is_exact_zero():
                lines.append(f"{n},,")
                continue
            v = f.multiplier.val_mu(bn)
            lines.append(f"{n},{fmt_slope(v)},{fmt_slope(v / n)}")
        return lines

    for line in run_certified(table, rows):
        print(line, file=out)
    return 0


def cmd_lemmas(cfg: JobConfig, out) -> int:
    report = lemma_lab.run_suite(cfg.seed, cfg.budget)
    for line in cfg.header_lines():
        print(line, file=out)
    for line in report.format_lines():
        print(line, file=out)
    for line in report.summary_csv():
        print(line, file=out)
    return 0 if report.ok else 1


def _write_report(path: str, fn, cfg: JobConfig) -> int:
    """Run fn into a temporary file beside path, then rename it to path."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            code = fn(cfg, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return code


def _add_common(sp):
    sp.add_argument("--config", help="key = value file; flags override it")
    sp.add_argument("--p", type=int, help="the prime (odd, >= 3)")
    sp.add_argument("--lambda", dest="lambda_", metavar="LIT", help="multiplier literal, default '1 + t'")
    sp.add_argument("--a", help="coefficients 'i:<Laurent literal>,...' (a_i multiplies z^(i+1))")
    sp.add_argument("--Kmax", type=int, help="dominance levels to try (default 3)")
    sp.add_argument("--N", type=int, help="conjugacy prefix length for bseries")
    sp.add_argument("--window", type=int, help="starting t-precision window")
    sp.add_argument("--max-window", dest="max_window", type=int, help="window escalation cap")
    sp.add_argument("--seed", type=int, help="suite seed")
    sp.add_argument("--budget", type=int, help="max suite cases")
    sp.add_argument("--out", help="write the report here instead of stdout")


def _collect(args) -> JobConfig:
    values: dict = {}
    if args.config:
        values.update(_parse_config_file(args.config))
    flag_map = {
        "p": args.p,
        "lambda": args.lambda_,
        "a": args.a,
        "Kmax": args.Kmax,
        "N": args.N,
        "window": args.window,
        "max_window": args.max_window,
        "seed": args.seed,
        "budget": args.budget,
    }
    if args.window is None and "window" not in values:
        env = os.environ.get("CHARP_WINDOW")
        if env is not None:
            values["window"] = env
    for k, v in flag_map.items():
        if v is not None:
            values[k] = v
    return JobConfig.from_mapping(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="charp",
        description="Non-linearizability certificates for z*(lambda + sum a_i z^i) over F_p((t))",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("bseries", cmd_bseries), ("lemmas", cmd_lemmas)):
        sp = sub.add_parser(name)
        _add_common(sp)
        sp.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = _collect(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.out:
            return _write_report(args.out, args.fn, cfg)
        return args.fn(cfg, sys.stdout)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except PrecisionExhausted as e:
        print(f"precision exhausted: {e}; raise --max-window", file=sys.stderr)
        return 3
    except (CharpError, AssertionError) as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
