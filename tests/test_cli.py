"""Command line: verdict lines, CSV output, config handling, determinism."""

import hashlib
import io
import re
import subprocess
import sys

import pytest

from charp.cli import _KEYS, JobConfig, _parser, build_map, main
from charp.field import LaurentElement, _shared_multiplier
from charp.recurrence import DynamicalSeries, b_coeffs

from conftest import child_env


def run_cli(argv):
    """Run main() with stdout captured; returns (exit_code, text)."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


class TestAnalyze:
    def test_quadratic_certifies_at_level_one(self):
        code, out = run_cli(["analyze", "--p", "5", "--a", "1:1", "--Kmax", "1"])
        assert code == 0
        assert out.rstrip().endswith("verdict=non-linearizable k=1")
        assert "level k=1" in out and "dominant=true" in out

    def test_linearizable_family_inconclusive(self):
        code, out = run_cli(["analyze", "--p", "5", "--a", "4:1"])
        assert code == 0
        assert out.rstrip().endswith("verdict=inconclusive Kmax=3")

    def test_two_term_family(self):
        code, out = run_cli(["analyze", "--p", "5", "--a", "1:1,4:t^10", "--Kmax", "2"])
        assert code == 0
        assert "verdict=non-linearizable" in out

    def test_degenerate_map(self):
        code, out = run_cli(["analyze", "--p", "5", "--a", ""])
        assert code == 0
        assert "verdict=trivially-linearizable" in out

    def test_precision_exhausted_exit_code(self, capsys):
        code, _ = run_cli(
            ["analyze", "--p", "5", "--a", "1:1,4:2*t^-2",
             "--window", "1", "--max-window", "1", "--Kmax", "1"]
        )
        assert code == 3

    def test_escalation_tries_the_cap(self):
        # doubling 3 overshoots the cap 4: the last step goes to 4 itself,
        # where the tuned cancellation certifies
        code, out = run_cli(
            ["analyze", "--p", "5", "--a", "1:1,4:2*t^-2",
             "--window", "3", "--max-window", "4", "--Kmax", "1"]
        )
        assert code == 0
        assert out.rstrip().endswith("verdict=non-linearizable k=1")

    def test_escalating_job_output(self):
        # windows 1 -> 2 -> 4 under a cap of 16; the per-gap solution data
        # kept across the escalations must not change a byte
        code, out = run_cli(
            ["analyze", "--p", "5", "--a", "1:1,4:2*t^-2",
             "--window", "1", "--max-window", "16", "--Kmax", "1"]
        )
        assert code == 0
        assert out == (
            "# p = 5\n"
            "# lambda = 1 + t\n"
            "# a = 1:1,4:2*t^-2\n"
            "# Kmax = 1\n"
            "# N = 20\n"
            "# window = 1\n"
            "# max_window = 16\n"
            "# seed = 0\n"
            "# budget = 400\n"
            "level k=0 M_lo=-1 M_hi=-1\n"
            "level k=1 d=1:-1 d=2:-6/5 d=3:-1 d=4:-19/20 M_lo=-9/5 M_hi=-6/5 dominant=true\n"
            "verdict=non-linearizable k=1\n"
        )

    def test_exhaustion_happens_at_the_cap(self, capsys):
        code, _ = run_cli(
            ["analyze", "--p", "5", "--a", "1:1,4:2*t^-2",
             "--window", "1", "--max-window", "3", "--Kmax", "1"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == "precision exhausted: window cap 3 reached (at 3); raise --max-window\n"


class TestBseries:
    def test_quadratic_rows(self):
        code, out = run_cli(["bseries", "--p", "5", "--a", "1:1", "--N", "5"])
        assert code == 0
        lines = out.splitlines()
        assert "n,val_mu_bn,slope" in lines
        assert "1,-1,-1" in lines
        assert "5,-8,-8/5" in lines

    def test_even_support_leaves_odd_rows_empty(self):
        code, out = run_cli(["bseries", "--p", "5", "--a", "2:1", "--N", "6"])
        assert code == 0
        lines = out.splitlines()
        for n in (1, 3, 5):
            assert f"{n},," in lines

    def test_escalating_rows_are_pinned(self):
        # b_n under escalation from window 1: sha256 of stdout recorded while
        # b_coeffs still summed b_l * Phi(l, n) by its own loop
        code, out = run_cli(
            ["bseries", "--p", "5", "--a", "1:1,4:2*t^-2",
             "--window", "1", "--max-window", "64", "--N", "40"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0940531ed077f49f4170b90816319564495c199ae706d9e2e284a9142e640cfa"
        )

    def test_large_prime(self):
        # primality, factorial tables and the packed kernel (16-byte limbs
        # here) all scale with the digits of p, not with p
        code, out = run_cli(["bseries", "--p", "100000000000031", "--a", "1:1", "--N", "6"])
        assert code == 0
        assert "6,-6,-1" in out.splitlines()

    def test_exhaustion_exit_code(self, capsys):
        code, out = run_cli(
            ["bseries", "--p", "5", "--a", "1:1,4:2*t^-2",
             "--window", "2", "--max-window", "4", "--N", "40"]
        )
        assert code == 3
        assert "window cap 4 reached (at 4)" in capsys.readouterr().err

    def test_empty_support_gives_the_identity(self):
        f = DynamicalSeries.from_spec(5, {})
        b = b_coeffs(f, 4)
        assert b[0] == LaurentElement.one(5)
        assert all(b[n].is_exact_zero() for n in range(1, 5))


class TestLemmas:
    def test_small_budget_green(self):
        code, out = run_cli(["lemmas", "--p", "5", "--budget", "40", "--seed", "0"])
        assert code == 0
        assert "summary seed=0" in out
        assert "fail=0" in out
        assert "check,pass,fail,skip" in out

    def test_zero_budget(self):
        code, out = run_cli(["lemmas", "--budget", "0"])
        assert code == 0
        assert "summary seed=0 pass=0 fail=0 skip=0" in out


class TestConfigHandling:
    def test_malformed_literal(self, capsys):
        code, _ = run_cli(["analyze", "--p", "5", "--a", "1:zz"])
        assert code == 2

    def test_bad_coefficient_entry(self):
        code, _ = run_cli(["analyze", "--p", "5", "--a", "nope"])
        assert code == 2

    def test_bad_prime(self):
        code, _ = run_cli(["analyze", "--p", "6", "--a", "1:1"])
        assert code == 2

    def test_prime_beyond_the_primality_range(self):
        code, _ = run_cli(["analyze", "--p", str(2**89 - 1), "--a", "1:1"])
        assert code == 2

    def test_config_file_merge(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("p = 5\na = 1:1\nKmax = 1\n")
        code, out = run_cli(["analyze", "--config", str(cfg)])
        assert code == 0
        assert "verdict=non-linearizable k=1" in out

    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("p = 5\na = 4:1\nKmax = 2\n")
        code, out = run_cli(["analyze", "--config", str(cfg), "--a", "1:1", "--Kmax", "1"])
        assert code == 0
        assert "verdict=non-linearizable k=1" in out

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("nope = 1\n")
        code, _ = run_cli(["analyze", "--config", str(cfg)])
        assert code == 2

    def test_env_window_override(self, monkeypatch):
        monkeypatch.setenv("CHARP_WINDOW", "128")
        code, out = run_cli(["analyze", "--p", "5", "--a", "1:1", "--Kmax", "1"])
        assert code == 0
        assert "# window = 128" in out

    def test_flag_beats_env_window(self, monkeypatch):
        monkeypatch.setenv("CHARP_WINDOW", "128")
        code, out = run_cli(
            ["analyze", "--p", "5", "--a", "1:1", "--Kmax", "1", "--window", "32"]
        )
        assert code == 0
        assert "# window = 32" in out

    def test_header_round_trip(self):
        code, out = run_cli(["analyze", "--p", "5", "--a", "1:1,2:t^3", "--Kmax", "2"])
        assert code == 0
        cfg = JobConfig.from_header_lines(out.splitlines())
        assert cfg.p == 5
        assert cfg.a_spec == "1:1,2:t^3"
        assert cfg.Kmax == 2
        again = JobConfig.from_header_lines(cfg.header_lines())
        assert again == cfg

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.txt"
        code, out = run_cli(
            ["analyze", "--p", "5", "--a", "1:1", "--Kmax", "1", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert "verdict=non-linearizable k=1" in target.read_text()
        assert [x.name for x in tmp_path.iterdir()] == ["report.txt"]

    def test_out_file_untouched_on_failure(self, tmp_path):
        argv = ["analyze", "--p", "5", "--a", "1:1,4:2*t^-2",
                "--window", "1", "--max-window", "1", "--Kmax", "1"]
        fresh = tmp_path / "fresh.txt"
        code, _ = run_cli(argv + ["--out", str(fresh)])
        assert code == 3
        assert list(tmp_path.iterdir()) == []
        kept = tmp_path / "kept.txt"
        kept.write_text("previous report\n")
        code, _ = run_cli(argv + ["--out", str(kept)])
        assert code == 3
        assert kept.read_text() == "previous report\n"
        assert [x.name for x in tmp_path.iterdir()] == ["kept.txt"]


# a value other than the default for every config key, as its header prints it
KEY_VALUES = {
    "p": "7",
    "lambda": "1 + t^2",
    "a": "1:1,2:t",
    "Kmax": "2",
    "N": "5",
    "window": "32",
    "max_window": "128",
    "seed": "3",
    "budget": "0",
}


class TestConfigKeys:
    def test_every_key_has_a_test_value(self):
        assert list(KEY_VALUES) == list(_KEYS)

    @pytest.mark.parametrize("key", list(_KEYS))
    def test_key_by_flag_and_by_config_file(self, key, tmp_path, monkeypatch):
        monkeypatch.delenv("CHARP_WINDOW", raising=False)
        value = KEY_VALUES[key]
        assert value != str(_KEYS[key].default)
        cfg_file = tmp_path / "job.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        base = ["lemmas"] if key == "budget" else ["lemmas", "--budget", "0"]
        for extra in (["--" + key.replace("_", "-"), value], ["--config", str(cfg_file)]):
            code, out = run_cli(base + extra)
            assert code == 0
            assert f"# {key} = {value}" in out.splitlines()
            cfg = JobConfig.from_header_lines(out.splitlines())
            assert str(getattr(cfg, _KEYS[key].name)) == value
            assert JobConfig.from_header_lines(cfg.header_lines()) == cfg

    @pytest.mark.parametrize("key", [k for k, f in _KEYS.items() if isinstance(f.default, int)])
    def test_int_key_rejects_a_non_integer(self, key, tmp_path, capsys):
        cfg_file = tmp_path / "job.cfg"
        cfg_file.write_text(f"{key} = 3x\n")
        code, out = run_cli(["lemmas", "--config", str(cfg_file)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("config error: non-integer value")
        code, out = run_cli(["lemmas", "--" + key.replace("_", "-"), "3x"])
        assert (code, out) == (2, "")
        assert "invalid int value: '3x'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "bseries", "lemmas"])
    def test_flag_set_is_pinned(self, command):
        code, out = run_cli([command, "--help"])
        assert code == 0
        assert re.findall(r"\[(--[\w-]+)", out) == [
            "--config", "--p", "--lambda", "--a", "--Kmax", "--N",
            "--window", "--max-window", "--seed", "--budget", "--out",
        ]
        assert "--lambda LIT" in out

    @pytest.mark.parametrize("argv, err", [
        (["--Kmax", "0"], "Kmax must be >= 1"),
        (["--N", "-1"], "N must be >= 0"),
        (["--window", "0"], "need 0 < window <= max_window"),
        (["--window", "65", "--max-window", "64"], "need 0 < window <= max_window"),
    ])
    def test_out_of_range_values_are_config_errors(self, argv, err, capsys):
        code, out = run_cli(["lemmas", "--budget", "0"] + argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"config error: {err}\n"

    def test_window_defaults_are_the_library_defaults(self):
        cfg = JobConfig.from_mapping({})
        ctx = DynamicalSeries.from_spec(5, {1: 1}).ctx
        assert (cfg.window, cfg.max_window) == (ctx.default_window, ctx.max_window)


class TestDeterminism:
    def test_byte_identical_repeats_in_process(self):
        for argv in (
            ["analyze", "--p", "5", "--a", "1:1,2:2", "--Kmax", "2"],
            ["bseries", "--p", "5", "--a", "1:1", "--N", "12"],
            ["lemmas", "--budget", "60", "--seed", "1"],
        ):
            a = run_cli(argv)
            b = run_cli(argv)
            assert a == b

    def test_byte_identical_subprocess(self):
        cmd = [sys.executable, "-m", "charp.cli", "bseries", "--p", "5", "--a", "1:1", "--N", "8"]
        a = subprocess.run(cmd, capture_output=True, env=child_env())
        b = subprocess.run(cmd, capture_output=True, env=child_env())
        assert a.returncode == 0
        assert a.stdout == b.stdout


class TestParserReuse:
    # main() builds its parser once per process; a parse must leave nothing
    # behind that the next call could see

    GOOD = ["analyze", "--p", "5", "--a", "1:1,2:2", "--Kmax", "2"]

    def test_bad_flags_fail_alike_twice(self, capsys):
        errs = []
        for _ in range(2):
            code, out = run_cli(["analyze", "--p", "5", "--bogus", "1"])
            assert (code, out) == (2, "")
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "unrecognized arguments: --bogus 1" in errs[0]

    def test_bad_call_leaves_no_trace(self, capsys):
        _parser.cache_clear()
        alone = run_cli(self.GOOD)
        # the last one parses, then fails its range check
        for bad in (
            ["analyze", "--Kmax", "x"],
            ["lemmas", "--out"],
            [],
            ["analyze", "--window", "1", "--max-window", "1", "--Kmax", "0"],
        ):
            assert run_cli(bad)[0] == 2
            assert run_cli(self.GOOD) == alone, bad

    @pytest.mark.parametrize("command", [[], ["analyze"], ["bseries"], ["lemmas"]])
    def test_help_is_the_fresh_parser_help(self, command, monkeypatch, capsys):
        # the help of a parser built afresh, as main() built one per call
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            _parser.__wrapped__().parse_args(command + ["--help"])
        assert exit_.value.code == 0
        fresh = capsys.readouterr().out
        run_cli(["lemmas", "--p", "x"])
        for _ in range(2):
            assert run_cli(command + ["--help"]) == (0, fresh)


# sha256 of the stdout of the north-star corpus, recorded before the
# lambda-only values moved onto the shared multiplier; any change to these
# bytes is a change to a verdict, a slope or the report format
ESCALATING = ["analyze", "--p", "5", "--a", "1:1,4:2*t^-2",
              "--window", "1", "--max-window", "16", "--Kmax", "1"]
QUADRATIC = ["analyze", "--p", "5", "--a", "1:1", "--Kmax", "3"]
SUITE = ["lemmas", "--seed", "0", "--budget", "400"]
# a second suite seed (pass=309 fail=0 skip=2), recorded before Phi and psi
# were memoized on the table: its random maps read the memoized Phi
SUITE_17 = ["lemmas", "--seed", "17", "--budget", "400"]
CORPUS = [
    (QUADRATIC, "be23951640ec8c2b3024e641c1cf3c36d510473e688f43ba0444f6f9a25e3430"),
    (["analyze", "--p", "5", "--a", "4:1", "--Kmax", "4"],
     "a6168ee4ad521f2793f1191f026c9c33db9206ef9b0c6ccb117ccdbcfe7dc63b"),
    (["analyze", "--p", "5", "--a", "4:1", "--Kmax", "5"],
     "ca0f0634174ab1deef8e39f1e196963e617056c875264b594a8064a24ac49eec"),
    (["analyze", "--p", "7", "--a", "6:1", "--Kmax", "3"],
     "3232171eada3fba85e2fd3171559a9c505801a461897e74c8d350d1e2f5b1843"),
    (["analyze", "--p", "5", "--a", "1:t^10,4:t", "--Kmax", "3"],
     "61e134927c6139ecc0fe5d1f1aceb167aadc015959877f0010bb2c398f1bded1"),
    (["bseries", "--p", "5", "--a", "1:1", "--N", "200"],
     "fe20c1931fcc3b4aaaf679c57ed4a67281facf3deaa1dc73e16867c9c555aae2"),
    (SUITE, "f876647d20f3db1da3da809739bcd96f58e1625ace1f3e12dac502492def94bd"),
    (SUITE_17, "4e08bc0e44f97e959a5eb6bca0001e7859b14edad05f0d77b49dd4f403dc7097"),
    (ESCALATING, "075ffee688906d0976952b7c5d5ea3e70bcddc932d1e3548a64e09ca20ee691f"),
]
DIGEST = {tuple(argv): digest for argv, digest in CORPUS}


def stdout_digest(argv):
    code, out = run_cli(argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


class TestCorpusDigests:
    @pytest.mark.parametrize("argv, digest", CORPUS, ids=[" ".join(a) for a, _ in CORPUS])
    def test_stdout_is_pinned(self, argv, digest, monkeypatch):
        monkeypatch.delenv("CHARP_WINDOW", raising=False)
        assert stdout_digest(argv) == digest

    def test_shared_multipliers_are_invisible(self, monkeypatch):
        # the escalating job widens the window of the multiplier 1 + t that
        # the default-window job shares; neither may see the other's values
        monkeypatch.delenv("CHARP_WINDOW", raising=False)
        _shared_multiplier.cache_clear()
        for argv in (ESCALATING, QUADRATIC, ESCALATING, SUITE, QUADRATIC):
            assert stdout_digest(argv) == DIGEST[tuple(argv)], argv


class TestBuildMap:
    def test_indexing_convention(self):
        # a_i multiplies z^(i+1): "1:1" is the quadratic map
        cfg = JobConfig.from_mapping({"p": 5, "a": "1:1"})
        f = build_map(cfg)
        assert f.support == (1,)
