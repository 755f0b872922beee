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

Each config key is a field of JobConfig, declared there once with its
default and --help text: p, lambda, a, Kmax, N, window, max_window, seed,
budget.  A key is set by its flag (--key, "_" written as "-"), by a
``key = value`` line of a --config file, or by its default; flags win over
the file, and CHARP_WINDOW overrides the default window when neither sets
it.  Every report starts with one ``# key = value`` line per key, in this
order, which JobConfig.from_header_lines reads back.

Exit codes: 0 any verdict, 2 bad config, 3 precision exhausted, 4 internal
invariant violation.  Output is byte-stable for a fixed config.  With --out
the report is written to a temporary file next to the target and renamed
over it only when the command returns, so a failed run leaves no partial
report and an existing file untouched.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import criterion, lemma_lab
from .errors import (
    CharpError,
    ConfigError,
    DegenerateLinearMap,
    PrecisionExhausted,
)
from .field import DEFAULT_WINDOW, MAX_WINDOW, LaurentElement, parse_laurent
from .recurrence import DynamicalSeries, b_coeffs, run_certified

INF = math.inf


def _key(default, help, key=None, metavar=None):
    """A JobConfig field with its default and --help text.  Its config key
    is ``key``, or the field's own name when that is None; its flag is
    --key with "_" written as "-", and takes the type of the default."""
    return field(default=default, metadata={"key": key, "help": help, "metavar": metavar})


@dataclass(frozen=True)
class JobConfig:
    """The settings of one job.  The fields are the config keys, in the
    order of the report header."""

    p: int = _key(5, "the prime (odd, >= 3)")
    lambda_spec: str = _key("1 + t", "multiplier literal, default '1 + t'", "lambda", "LIT")
    a_spec: str = _key("", "coefficients 'i:<Laurent literal>,...' (a_i multiplies z^(i+1))", "a")
    Kmax: int = _key(3, "dominance levels to try (default 3)")
    N: int = _key(20, "conjugacy prefix length for bseries")
    window: int = _key(DEFAULT_WINDOW, "starting t-precision window")
    max_window: int = _key(MAX_WINDOW, "window escalation cap")
    seed: int = _key(0, "suite seed")
    budget: int = _key(400, "max suite cases")

    def __post_init__(self):
        if self.Kmax < 1:
            raise ConfigError("Kmax must be >= 1")
        if self.N < 0:
            raise ConfigError("N must be >= 0")
        if not (0 < self.window <= self.max_window):
            raise ConfigError("need 0 < window <= max_window")

    def header_lines(self):
        return [f"# {k} = {getattr(self, f.name)}" for k, f in _KEYS.items()]

    @classmethod
    def from_mapping(cls, values: dict) -> "JobConfig":
        """The job of a config-key -> value mapping; keys it lacks or maps
        to None take their defaults."""
        given = {}
        for k, v in values.items():
            if v is None:
                continue
            if k not in _KEYS:
                raise ConfigError(f"unknown config key {k!r}")
            given[k] = v
        try:
            typed = {_KEYS[k].name: type(_KEYS[k].default)(v) for k, v in given.items()}
        except (TypeError, ValueError) as e:
            raise ConfigError(f"non-integer value: {e}") from e
        return cls(**typed)

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


# config key -> JobConfig field, in header order
_KEYS = {f.metadata["key"] or f.name: f for f in fields(JobConfig)}


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
    for k, f in _KEYS.items():
        flag = "--" + k.replace("_", "-")
        sp.add_argument(flag, type=type(f.default), metavar=f.metadata["metavar"], help=f.metadata["help"])
    sp.add_argument("--out", help="write the report here instead of stdout")


def _collect(args) -> JobConfig:
    values: dict = {}
    if args.config:
        values.update(_parse_config_file(args.config))
    if args.window is None and "window" not in values:
        env = os.environ.get("CHARP_WINDOW")
        if env is not None:
            values["window"] = env
    for k in _KEYS:
        v = getattr(args, k)
        if v is not None:
            values[k] = v
    return JobConfig.from_mapping(values)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every main() call reuses it."""
    parser = argparse.ArgumentParser(
        prog="charp",
        description="Non-linearizability certificates for z*(lambda + sum a_i z^i) over F_p((t))",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("bseries", cmd_bseries), ("lemmas", cmd_lemmas)):
        sp = sub.add_parser(name)
        _add_common(sp)
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
