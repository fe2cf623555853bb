"""CLI contract: rows, determinism, manifests, exit codes, precedence."""

import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import expsumlab
from expsumlab.bounds import GridReport
from expsumlab.cli import _shell_grid, build_parser, run
from expsumlab.lattice import divisor_summatory, hyperbolic_count
from expsumlab.processes import SeedSpec


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def loop_shell_grid(D, cap):
    """The E grid of `shell --mode both|brute|fast` by a literal loop of x *= ratio."""
    lo, hi = math.ceil(Fraction(D)), math.floor(Fraction(D) ** 2)
    if hi - lo + 1 <= cap:
        return [float(e) for e in range(lo, hi + 1)]
    ratio = (hi / lo) ** (1.0 / max(cap - 1, 1))
    out = {float(lo), float(hi)}
    x = float(lo)
    for _ in range(cap):
        out.add(float(min(max(round(x), lo), hi)))
        x *= ratio
    return sorted(out)


class TestBasicCommands:
    def test_divisor_row(self, capsys):
        code, out = run_capture(["divisor", "--x", "10"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["summatory"] == "27"
        assert float(rows[0]["error"]) == pytest.approx(
            27 - 10 * 2.302585092994046 - (2 * 0.5772156649015329 - 1) * 10, abs=1e-9
        )

    def test_divisor_sums_once_per_x(self, capsys, monkeypatch):
        import expsumlab.cli as cli_mod
        import expsumlab.lattice as lattice_mod

        calls = []
        original = lattice_mod.divisor_summatories

        def counted(n):
            calls.append(n.tolist())
            return original(n)

        monkeypatch.setattr(cli_mod, "divisor_summatories", counted)
        monkeypatch.setattr(lattice_mod, "divisor_summatories", counted)
        code, out = run_capture(["divisor", "--x", "1,10,100,12345.5,1e6,1e10,1e12"], capsys)
        assert code == 0
        assert calls == [[1, 10, 100, 12345, 10**6, 10**10, 10**12]]  # one kernel call for every x
        # the rows printed when the error term summed D(x) a second time
        assert out == (
            "x,summatory,error\n"
            "1,1,0.84556867019693427\n"
            "10,27,2.4298357720288819\n"
            "100,482,6.0398484208842689\n"
            "12345.5,118209,-5.0665253752681565\n"
            "1000000,13970034,92.112232661485905\n"
            "10000000000,231802823220,622.56477117538452\n"
            "1000000000000,27785452449086,3354.3873901367188\n"
        )

    def test_divisor_rows_keep_input_order(self, capsys, monkeypatch):
        import expsumlab.cli as cli_mod
        import expsumlab.lattice as lattice_mod

        calls = []
        original = lattice_mod.divisor_summatories

        def counted(n):
            calls.append(n.tolist())
            return original(n)

        monkeypatch.setattr(cli_mod, "divisor_summatories", counted)
        code, out = run_capture(["divisor", "--x", "1e12,10,1000.5,10,3"], capsys)
        assert code == 0
        assert calls == [[3, 10, 10, 1000, 10**12]]
        rows = [(r["x"], int(r["summatory"])) for r in parse_csv(out)]
        assert rows == [
            ("1000000000000", divisor_summatory(1e12)),
            ("10", 27),
            ("1000.5", divisor_summatory(1000.5)),
            ("10", 27),
            ("3", 5),
        ]

    @pytest.mark.parametrize("xs,code", [("5,0.5", 1), ("1e19,abc", 2), ("abc,1e19", 1), ("10,inf", 2)])
    def test_divisor_first_bad_x_decides_the_exit(self, xs, code, capsys):
        assert run(["divisor", "--x", xs]) == code

    def test_shell_both_rows_agree(self, capsys):
        code, out = run_capture(["shell", "--d", "3", "--D", "4", "--mode", "both"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 13  # integers 4..16
        assert all(row["equal"] == "true" for row in rows)

    def test_shell_sup_mode(self, capsys):
        code, out = run_capture(["shell", "--d", "3", "--D", "8", "--mode", "sup"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["sup_ratio"]) == pytest.approx(
            int(rows[0]["sup_count"]) / 8 ** (2 / 3)
        )

    def test_shell_sup_list_matches_single_runs(self, capsys):
        code, out = run_capture(["shell", "--d", "3", "--D", "10,20", "--mode", "sup"], capsys)
        assert code == 0
        singles = []
        for D in ("10", "20"):
            single_code, single = run_capture(["shell", "--d", "3", "--D", D, "--mode", "sup"], capsys)
            assert single_code == 0
            singles.extend(parse_csv(single))
        assert parse_csv(out) == singles

    def test_shell_list_needs_sup_mode(self, capsys):
        code = run(["shell", "--d", "3", "--D", "10,20", "--mode", "both"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_hyperbolic_rows(self, capsys):
        code, out = run_capture(["hyperbolic", "--d", "3", "--x", "7,1000,12345.9"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["x"]) for r in rows] == [7.0, 1000.0, 12345.9]
        for row in rows:
            x = float(row["x"])
            count = hyperbolic_count(3, x)
            assert row["d"] == "3"
            assert int(row["count"]) == count
            assert float(row["ratio"]) == count / x ** (2 / 3)

    def test_repcount_table(self, capsys):
        code, out = run_capture(["repcount", "--n", "2", "--d", "2", "--M", "5"], capsys)
        rows = parse_csv(out)
        got = {int(r["m"]): int(r["count"]) for r in rows}
        assert got[25] == 2
        assert sum(got.values()) == 25

    def test_repcount_squares(self, capsys):
        code, out = run_capture(
            ["repcount", "--n", "2", "--d", "1", "--M", "2", "--squares"], capsys
        )
        assert parse_csv(out)[0]["diophantine"] == "6"

    def test_greenruzsa_values(self, capsys):
        code, out = run_capture(["greenruzsa", "--base", "5", "--digits", "2"], capsys)
        values = [int(r["value"]) for r in parse_csv(out)]
        assert values == [0, 1, 3, 5, 6, 8, 15, 16, 18]

    def test_greenruzsa_sparsity(self, capsys):
        code, out = run_capture(
            ["greenruzsa", "--base", "7", "--digits", "4", "--sparsity", "50", "--seed", "3"],
            capsys,
        )
        rows = parse_csv(out)
        assert len(rows) == 50
        assert all(r["ok"] == "true" for r in rows)

    def test_majorant_row(self, capsys):
        code, out = run_capture(
            ["majorant", "--freqs", "1,2,3", "--p", "4", "--restarts", "2"], capsys
        )
        row = parse_csv(out)[0]
        assert float(row["ratio"]) == pytest.approx(1.0, abs=1e-6)
        assert float(row["base_moment"]) == 19.0

    def test_majorant_non_even_p(self, capsys):
        code, out = run_capture(
            ["majorant", "--freqs", "0,1,3", "--p", "3", "--restarts", "1"], capsys
        )
        row = parse_csv(out)[0]
        assert code == 0 and row["p"] == "3"
        # {0, 1, 3} is the Green-Ruzsa set on which the p=3 majorant property fails
        assert float(row["best_moment"]) > float(row["base_moment"])
        assert float(row["ratio"]) > 1.0

    def test_majorant_fractional_p(self, capsys):
        code, out = run_capture(
            ["majorant", "--freqs", "0,1,3", "--p", "2.5", "--restarts", "1"], capsys
        )
        row = parse_csv(out)[0]
        assert code == 0 and row["p"] == "2.5"
        assert float(row["ratio"]) >= 1.0

    def test_majorant_float_even_p_same_bytes(self, capsys):
        argv = ["majorant", "--freqs", "0,1,3", "--restarts", "2", "--seed", "5", "--p"]
        code_int, out_int = run_capture(argv + ["4"], capsys)
        code_float, out_float = run_capture(argv + ["4.0"], capsys)
        assert code_int == code_float == 0
        assert out_float == out_int
        assert parse_csv(out_int)[0]["p"] == "4"

    def test_moment_exact_rows(self, capsys):
        code, out = run_capture(
            ["moment", "--process", "walk", "--p", "4", "--sizes", "4,8", "--mode", "exact"], capsys
        )
        rows = parse_csv(out)
        assert code == 0
        assert [float(r["mean"]) for r in rows] == pytest.approx([70.0, 821.5], rel=1e-13)
        assert all(r["samples"] == "0" and r["std_error"] == "0" for r in rows)
        assert rows[1]["descriptor"] == "walk/identity/p=4/|A|=8/exact"

    @pytest.mark.parametrize("flag", [["--samples", "5"], ["--seed", "5"]])
    def test_moment_exact_rejects_sampling_flags(self, flag, capsys):
        argv = ["moment", "--process", "poisson", "--p", "4", "--sizes", "8", "--mode", "exact"]
        assert run(argv + flag) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["majorant", "--freqs", "1,2", "--p", "4", "--samples", "5"],
            ["majorant", "--genericity", "--freqs", "1,2", "--p", "4", "--sizes", "4", "--samples", "2"],
            ["moment", "--process", "poisson", "--pmf", "1:1", "--p", "4", "--sizes", "4", "--samples", "2"],
            ["moment", "--process", "walk", "--p", "6", "--mode", "exact", "--sizes", "4", "--seed", "5"],
            ["moment", "--process", "walk", "--pmf", "1:1", "--p", "3", "--sizes", "4"],
            ["shell", "--d", "3", "--D", "50", "--mode", "sup", "--E", "50"],
            ["shell", "--d", "3", "--D", "50", "--E", "50", "--e-samples", "7"],
            ["majorant", "--freqs", "1,2,4", "--p", "4", "--epsilon", "9"],
            ["majorant", "--freqs", "1,2,4", "--p", "4", "--sizes", "3"],
            ["majorant", "--freqs", "1,2,4", "--p", "4", "--process", "walk"],
            ["majorant", "--freqs", "1,2,4", "--p", "4", "--map", "power:2"],
            # --seed where nothing is drawn
            ["shell", "--d", "3", "--D", "20", "--seed", "5"],
            ["divisor", "--x", "10", "--seed", "5"],
            ["hyperbolic", "--d", "3", "--x", "1000", "--seed", "5"],
            ["repcount", "--n", "2", "--d", "2", "--M", "5", "--seed", "5"],
            ["slope", "--input", "moments.csv", "--seed", "5"],
            ["greenruzsa", "--base", "7", "--digits", "2", "--seed", "5"],
        ],
    )
    def test_ignored_flags_exit_one(self, argv, capsys):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --")

    def test_seed_from_env_or_config_stays_allowed(self, tmp_path, capsys, monkeypatch):
        # only an explicit --seed is refused; EXPSUM_SEED and --config apply to every subcommand
        argv = ["divisor", "--x", "10,1000"]
        code, plain = run_capture(argv, capsys)
        assert code == 0
        monkeypatch.setenv("EXPSUM_SEED", "5")
        assert run_capture(argv, capsys) == (0, plain)
        monkeypatch.delenv("EXPSUM_SEED")
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("seed = 5\n")
        assert run_capture(argv + ["--config", str(cfg)], capsys) == (0, plain)

    def test_majorant_has_no_iid_process(self, capsys):
        # genericity has no --pmf to draw i.i.d. values from
        assert run(["majorant", "--genericity", "--process", "iid", "--sizes", "4", "--samples", "2"]) == 1
        assert "invalid choice: 'iid'" in capsys.readouterr().err

    def test_late_defaults_print_the_same_rows(self, capsys):
        # the flags refused where unused take their defaults only after that check
        given = ["--e-samples", "2048"]
        for argv in (["shell", "--d", "3", "--D", "20", "--mode", "sup"], ["shell", "--d", "3", "--D", "50"]):
            assert run_capture(argv, capsys) == run_capture(argv + given, capsys)
        argv = ["majorant", "--genericity", "--p", "4", "--samples", "2", "--restarts", "1"]
        given = ["--process", "poisson", "--map", "identity", "--sizes", "8,16,32,64", "--epsilon", "0.2"]
        assert run_capture(argv, capsys) == run_capture(argv + given, capsys)

    def test_config_samples_stay_a_fallback(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("samples = 3\n")
        assert run(["majorant", "--freqs", "1,2", "--p", "4", "--config", str(cfg)]) == 0
        capsys.readouterr()
        argv = ["majorant", "--genericity", "--p", "4", "--sizes", "4", "--restarts", "1"]
        code, out = run_capture(argv + ["--config", str(cfg)], capsys)
        assert code == 0 and parse_csv(out)[0]["samples"] == "3"

    def test_json_format(self, capsys):
        code, out = run_capture(["divisor", "--x", "10,100", "--format", "json"], capsys)
        rows = json.loads(out)
        assert rows[0]["summatory"] == 27
        assert len(rows) == 2


class TestDeterminism:
    ARGS = [
        "moment",
        "--process",
        "poisson",
        "--map",
        "power:1",
        "--p",
        "4",
        "--sizes",
        "16,32",
        "--samples",
        "50",
        "--seed",
        "42",
    ]

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(self.ARGS + ["--out", str(out1)]) == 0
        assert run(self.ARGS + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_digest_matches(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(self.ARGS + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["subcommand"] == "moment"
        assert manifest["master_seed"] == 42


class TestSlope:
    def test_slope_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "moments.csv"
        run(self.make_args(str(data)))
        capsys.readouterr()
        code, out = run_capture(["slope", "--input", str(data)], capsys)
        assert code == 0
        slope = float(parse_csv(out)[0]["slope"])
        assert 2.5 < slope < 3.5

    def test_missing_column_exits_one(self, tmp_path, capsys):
        data = tmp_path / "moments.csv"
        data.write_text("size,mean\n16,100.0\n32,800.0\n")
        code = run(["slope", "--input", str(data), "--x-col", "nope"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "'nope'" in err

    def test_short_row_exits_one(self, tmp_path, capsys):
        data = tmp_path / "moments.csv"
        data.write_text("size,mean\n16,100.0\n32\n")
        code = run(["slope", "--input", str(data)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "line 3" in err

    @staticmethod
    def make_args(out):
        return [
            "moment",
            "--process",
            "poisson",
            "--map",
            "identity",
            "--p",
            "4",
            "--sizes",
            "16,32,64",
            "--samples",
            "100",
            "--seed",
            "7",
            "--out",
            out,
        ]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["nonsense"]) == 1
        # --tol was accepted and ignored; it is no longer a flag
        assert run(["divisor", "--x", "10", "--tol", "1e-8"]) == 1
        capsys.readouterr()

    def test_samples_only_where_read(self, capsys):
        # only moment and majorant draw samples
        assert run(["divisor", "--x", "10", "--samples", "5"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags",
        [["--mode", "even"], ["--mode", "quadrature"], ["--nodes", "64"], ["--mode", "exact", "--seed", "5"]],
    )
    def test_moment_method_comes_from_p(self, flags, capsys):
        # only auto and exact remain; argparse refusals print usage, so only the code is checked
        assert run(["moment", "--process", "poisson", "--p", "3", "--sizes", "8"] + flags) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["moment", "--process", "poisson", "--p", "4", "--sizes", ","],
            ["majorant", "--genericity", "--p", "3", "--sizes", ","],
            ["majorant", "--freqs", ",", "--p", "4"],
            ["majorant", "--freqs", ",", "--p", "3"],
            ["greenruzsa", "--base", "7", "--digits", "2", "--sparsity", "0"],
            ["greenruzsa", "--base", "7", "--digits", "2", "--sparsity", "-3"],
        ],
    )
    def test_no_rows_asked_for_exits_one(self, argv, capsys):
        # an empty list or a sample count below 1 is refused, not answered with no rows
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_trailing_comma_is_skipped(self, capsys):
        argv = ["moment", "--process", "poisson", "--p", "4", "--samples", "3", "--sizes"]
        assert run_capture(argv + ["4,8,"], capsys) == run_capture(argv + ["4,8"], capsys)

    def test_missing_required(self, capsys):
        assert run(["shell", "--d", "3"]) == 1
        capsys.readouterr()

    def test_guard_maps_to_two(self, capsys):
        assert run(["repcount", "--n", "3", "--d", "9", "--M", "50"]) == 2
        err = capsys.readouterr().err
        assert "guard" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["moment", "--process", "poisson", "--p", "1000000", "--sizes", "4", "--samples", "1"], 2),
            (["moment", "--process", "poisson", "--p", "1000001", "--sizes", "4", "--samples", "1"], 2),
            (["moment", "--process", "iid", "--pmf", "3:1", "--p", "1e12", "--sizes", "1", "--samples", "1"], 2),
            (["majorant", "--freqs", "0,1,3", "--p", "1000000", "--restarts", "1"], 2),
            (["majorant", "--freqs", "0,1,3", "--p", "1000001", "--restarts", "1"], 2),
            (["majorant", "--freqs", "5", "--p", "1e12", "--restarts", "1"], 2),
            (["moment", "--process", "poisson", "--p", "inf", "--sizes", "4", "--samples", "1"], 1),
            (["moment", "--process", "poisson", "--p", "nan", "--sizes", "4", "--samples", "1"], 1),
            (["majorant", "--freqs", "0,1,3", "--p", "inf", "--restarts", "1"], 1),
            (["majorant", "--freqs", "0,1,3", "--p", "nan", "--restarts", "1"], 1),
        ],
    )
    def test_extreme_p_fails_fast(self, argv, code, capsys):
        started = time.perf_counter()
        assert run(argv) == code
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p=" in captured.err

    def test_divisor_past_guard_exits_two(self, capsys):
        # the O(sqrt x) sum would run over 2^31 divisors; refuse at once
        assert run(["divisor", "--x", "1e19"]) == 2
        assert "2^62" in capsys.readouterr().err

    def test_divisor_call_past_guard_exits_two(self, capsys):
        # each x is below 2^62, but the three sums would run over 6e9 divisors
        start = time.perf_counter()
        assert run(["divisor", "--x", "4e18,4e18,4e18"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "2^31" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["shell", "--d", "2", "--D", "10", "--E", "1e12", "--mode", "brute"],  # about 5e11 rows
            ["shell", "--d", "3", "--D", "1e6", "--E", "1e18", "--mode", "both"],
            ["hyperbolic", "--d", "2", "--x", "1e20"],
        ],
    )
    def test_shell_rows_past_guard_exit_two(self, argv, capsys):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("numeric guard:") and "search rows" in err

    def test_majorant_mean_past_float64_exits_two(self, capsys):
        # 3^645 passes check_power, but the quadrature mean over the nodes overflows
        assert run(["majorant", "--freqs", "0,1,3", "--p", "645", "--restarts", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "numeric guard: the p=645 quadrature mean exceeds the float64 range\n"
        assert captured.out == ""

    def test_majorant_mean_past_float64_prints_one_line(self, tmp_path):
        # in a fresh process, where no test harness captures warnings, numpy's
        # overflow warning must not reach stderr ahead of the guard line
        argv = ["majorant", "--freqs", "0,1,3", "--p", "645", "--restarts", "1"]
        done = subprocess.run(
            [sys.executable, "-m", "expsumlab.cli", *argv],
            capture_output=True, text=True, env=_entry_point_env(), cwd=tmp_path,
        )
        assert done.returncode == 2
        assert done.stderr == "numeric guard: the p=645 quadrature mean exceeds the float64 range\n"
        assert done.stdout == ""

    def test_shell_sup_past_guard_exits_two(self, capsys):
        # the sweep would enumerate about 10^12 differences; refuse at once
        assert run(["shell", "--d", "2", "--D", "1000000", "--mode", "sup"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric guard:") and "Traceback" not in err

    def test_shell_sup_without_integer_e_exits_one(self, capsys):
        assert run(["shell", "--d", "3", "--D", "1.2", "--mode", "sup"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no integer E") and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["both", "brute", "fast"])
    @pytest.mark.parametrize(
        "D, message", [("1.2", "no integer E lies in [D, D^2] for D = 1.2"), ("0.5", "D must be at least 1")]
    )
    def test_shell_grid_without_integer_e_exits_one(self, capsys, mode, D, message):
        # an empty grid is refused with the sup's message; it printed nothing and exited 0
        for argv_mode in (mode, "sup"):
            assert run(["shell", "--d", "2", "--D", D, "--mode", argv_mode]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")

    # a NaN flag exits 1 and an infinite one 2, with the flag named, not Python's conversion text
    NON_FINITE = [
        ("nan", 1, "error: {flag} must be a number, got nan\n"),
        ("inf", 2, "numeric guard: {flag} inf exceeds the supported range\n"),
    ]

    @pytest.mark.parametrize("value, code, message", NON_FINITE)
    @pytest.mark.parametrize(
        "flag, argv", [("--D", "--D {v} --mode both"), ("--D", "--D 10,{v} --mode sup"), ("--E", "--D 10 --E {v}")]
    )
    def test_shell_non_finite_flag_is_named(self, capsys, flag, argv, value, code, message):
        assert run(["shell", "--d", "3", *argv.format(v=value).split()]) == code
        assert capsys.readouterr() == ("", message.format(flag=flag))

    @pytest.mark.parametrize("value, code, message", NON_FINITE)
    def test_hyperbolic_non_finite_x_is_named(self, capsys, value, code, message):
        assert run(["hyperbolic", "--d", "3", "--x", f"1000,{value}"]) == code
        assert capsys.readouterr() == ("", message.format(flag="--x"))

    @pytest.mark.parametrize("value, code, message", NON_FINITE)
    def test_divisor_non_finite_x_is_named(self, capsys, value, code, message):
        assert run(["divisor", "--x", f"10,{value}"]) == code
        assert capsys.readouterr() == ("", message.format(flag="--x"))

    @pytest.mark.parametrize("mode", ["both", "brute", "fast", "sup"])
    def test_shell_without_e_samples_exits_one(self, capsys, mode):
        assert run(["shell", "--d", "3", "--D", "100", "--mode", mode, "--e-samples", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    @pytest.mark.parametrize("D", [1.0, 2.5, 7.0, 10.0, 37.3, 100.0, 1234.5, 7420.073315001679, 1e5, 1e7])
    @pytest.mark.parametrize("cap", [1, 2, 3, 50, 2048])
    def test_shell_grid_matches_loop(self, D, cap):
        # at D = 1e7 and cap = 2048 the last x_i rounds past D^2 and is clamped;
        # at D = 7420.07... the float D * D rounds up to 55057488, past floor(D^2)
        assert _shell_grid(D, cap) == loop_shell_grid(D, cap)

    def test_shell_one_e_sample_gives_grid_ends(self, capsys):
        # the geometric sequence is its first point; the grid keeps both ends
        argv = ["shell", "--d", "3", "--D", "100", "--mode", "fast", "--e-samples", "1"]
        code, out = run_capture(argv, capsys)
        assert code == 0
        assert [row["E"] for row in parse_csv(out)] == ["100", "10000"]

    def test_domain_error_maps_to_one(self, capsys):
        assert run(["shell", "--d", "1", "--D", "4", "--E", "5"]) == 1
        capsys.readouterr()

    def test_verify_quick_passes(self, capsys):
        assert run(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        rows = parse_csv(out)
        assert all(r["ok"] == "true" for r in rows)
        names = {r["check"] for r in rows}
        assert "shell_oracle" in names and "divisor_oracle" in names

    def test_verify_failure_exits_three(self, capsys, monkeypatch):
        import expsumlab.cli as cli_mod

        def broken(quick=False, seed=None):
            return [GridReport("robbins", False, 10, "robbins n=3")]

        monkeypatch.setattr(cli_mod, "verification_suite", broken)
        assert run(["verify", "--quick"]) == 3
        err = capsys.readouterr().err
        assert "robbins" in err


class TestPrecedence:
    def test_env_seed_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EXPSUM_SEED", "123")
        out = tmp_path / "env.csv"
        run(
            [
                "moment", "--process", "poisson", "--map", "identity", "--p", "2",
                "--sizes", "4", "--samples", "5", "--out", str(out),
            ]
        )
        manifest = json.loads((tmp_path / "env.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 123

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSUM_SEED", "123")
        out = tmp_path / "flag.csv"
        run(
            [
                "moment", "--process", "poisson", "--map", "identity", "--p", "2",
                "--sizes", "4", "--samples", "5", "--seed", "9", "--out", str(out),
            ]
        )
        manifest = json.loads((tmp_path / "flag.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 9

    @pytest.mark.parametrize(
        "flag, env, config, expected",
        [
            (["--seed", "0"], None, "", 0),
            ([], "0", "", 0),
            ([], None, "seed = 0\n", 0),
            ([], None, "", 20240),
            (["--seed", "5"], "0", "", 5),
        ],
        ids=["flag", "env", "config", "default", "flag-beats-env"],
    )
    def test_verify_seed(self, flag, env, config, expected, tmp_path, capsys, monkeypatch):
        import expsumlab.cli as cli_mod

        seeds = []

        def recording(quick=False, seed=None):
            seeds.append(seed)
            return []

        monkeypatch.setattr(cli_mod, "verification_suite", recording)
        if env is None:
            monkeypatch.delenv("EXPSUM_SEED", raising=False)
        else:
            monkeypatch.setenv("EXPSUM_SEED", env)
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(config)
        assert run(["verify", "--quick", "--config", str(cfg), *flag]) == 0
        capsys.readouterr()
        assert seeds == [SeedSpec(expected)]

    def test_config_file_lowest(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EXPSUM_SEED", raising=False)
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("# settings\nseed = 77\n")
        out = tmp_path / "cfg.csv"
        run(
            [
                "moment", "--process", "poisson", "--map", "identity", "--p", "2",
                "--sizes", "4", "--samples", "5", "--config", str(cfg), "--out", str(out),
            ]
        )
        manifest = json.loads((tmp_path / "cfg.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 77

    def test_nothing_drawn_takes_no_ambient_seed(self, tmp_path, capsys, monkeypatch):
        # exact rows print seed 0 with or without EXPSUM_SEED or a config seed
        monkeypatch.delenv("EXPSUM_SEED", raising=False)
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("seed = 9\n")
        argv = ["moment", "--process", "poisson", "--p", "4", "--sizes", "8", "--mode", "exact"]
        code, plain = run_capture(argv, capsys)
        assert code == 0 and parse_csv(plain)[0]["seed"] == "0"
        assert run_capture(argv + ["--config", str(cfg)], capsys) == (0, plain)
        monkeypatch.setenv("EXPSUM_SEED", "7")
        assert run_capture(argv, capsys) == (0, plain)
        out = tmp_path / "divisor.csv"
        assert run(["divisor", "--x", "10", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "divisor.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 0

    def test_config_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("seed = 77\nthreads = 2\n")
        assert run(["divisor", "--x", "10", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: unknown key 'threads'\n"


PROJECT_ROOT = Path(__file__).resolve().parents[1]


def _readme_cli_examples():
    """Every ``expsumlab ...`` command in README's sh blocks, as argv lists."""
    text = (PROJECT_ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["expsumlab"]:
                commands.append(words[1:])
    return commands


def test_readme_examples_parse(capsys):
    commands = _readme_cli_examples()
    assert len(commands) >= 13
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: expsumlab {shlex.join(argv)}")


def test_cached_parser_prints_what_fresh_parsers_print(capsys, monkeypatch):
    import expsumlab.cli as cli

    assert build_parser() is build_parser()
    calls = [
        ["divisor", "--x", "10,1000"],
        ["moment", "--process", "poisson", "--p", "4", "--sizes", "4,8", "--samples", "5", "--seed", "3"],
        ["moment", "--process", "poisson", "--p", "4", "--bogus", "1"],  # a parse failure: exit 1
        ["moment", "--process", "walk", "--p", "2", "--sizes", "5", "--samples", "3"],
        ["repcount", "--n", "2", "--d", "2", "--M", "30", "--squares"],
        ["majorant", "--freqs", "0,1,3", "--p", "4", "--restarts", "1"],
        ["moment", "--help"],
        ["divisor", "--x", "10,1000", "--format", "json"],
    ]

    def outputs():
        results = []
        for argv in calls:
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    cached = outputs()
    assert [code for code, _, _ in cached] == [0, 0, 1, 0, 0, 0, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert outputs() == cached


def _declared_console_script(name):
    """The ``module:attr`` target that pyproject.toml declares for ``name``."""
    try:
        import tomllib
    except ImportError:  # Python 3.10: tomllib arrived in 3.11
        tomllib = pytest.importorskip("tomli")
    with open(PROJECT_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _entry_point_env():
    # Put the package this test imported first on the path, whatever the
    # working directory and however PYTHONPATH was given to pytest.
    env = dict(os.environ)
    paths = [str(Path(expsumlab.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_console_entry_point(tmp_path):
    # The `expsumlab` script is only put on PATH by an install, and the suite
    # runs from source without one. So resolve the declared target the way a
    # console-script wrapper does and call it in a fresh interpreter.
    target = _declared_console_script("expsumlab")
    env = _entry_point_env()

    def run_in_fresh_process(cmd):
        return subprocess.run(cmd, capture_output=True, env=env, cwd=tmp_path)

    def call_target(*argv):
        code = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"sys.argv = {['expsumlab', *argv]!r}\n"
            f"entry = EntryPoint(name='expsumlab', value={target!r}, group='console_scripts')\n"
            "sys.exit(entry.load()())\n"
        )
        return run_in_fresh_process([sys.executable, "-c", code])

    proc = call_target("divisor", "--x", "10")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[1].startswith("10,27,")

    # README: `python -m expsumlab.cli` is equivalent to the script.
    via_module = run_in_fresh_process(
        [sys.executable, "-m", "expsumlab.cli", "divisor", "--x", "10"]
    )
    assert via_module.returncode == 0, via_module.stderr.decode()
    assert via_module.stdout == proc.stdout

    helped = call_target("--help")
    assert helped.returncode == 0
    assert helped.stdout.decode().startswith("usage: expsumlab")

    # main() must hand run()'s exit code to the process.
    missing = call_target("slope", "--input", str(tmp_path / "missing.csv"))
    assert missing.returncode == 1
    assert b"error:" in missing.stderr

    script = shutil.which("expsumlab")
    if script is not None:
        installed = run_in_fresh_process([script, "divisor", "--x", "10"])
        assert installed.returncode == 0, installed.stderr.decode()
        assert installed.stdout == proc.stdout


def test_exact_counts_import_no_fractions():
    """The shell and divisor commands check their windows on integers: neither
    `fractions` nor the `decimal` it pulls in (about 0.4 MB) is imported."""
    script = """
import contextlib, io, sys
from expsumlab.cli import run

commands = [
    ["verify", "--quick"],
    ["shell", "--d", "3", "--D", "100", "--mode", "both"],
    ["shell", "--d", "3", "--D", "10,20,50", "--mode", "sup"],
    ["divisor", "--x", "10,1e7"],
]
with contextlib.redirect_stdout(io.StringIO()):
    assert [run(argv) for argv in commands] == [0] * len(commands)
loaded = sorted({"fractions", "decimal"} & set(sys.modules))
assert not loaded, f"imported {loaded}"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr[-2000:]
