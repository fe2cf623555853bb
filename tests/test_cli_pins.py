"""The CLI's pinned outputs: whole outputs by sha256, one row, three counts and exit codes.

Each command runs in process through ``cli.run``; its captured stdout is
what ``python -m expsumlab.cli <argv>`` prints.  The two time-bounded
refusals run in a fresh process, killed at 10 s.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from expsumlab.cli import run


def stdout_of(argv, capsys):
    code = run(shlex.split(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


SHA256 = [
    # the shell grids' rows, counts and search work
    ("shell --d 3 --D 100 --mode both", "60f1a7488e384c93f214bdb8b2edeaf3e0514b4c6f812297c76d5998e05ee3cb"),
    ("shell --d 4 --D 100 --mode both", "1c3457b494a7dd40f48ad05e1a423912deb6b91bd357be78e66d2d7bdfa9bbd8"),
    # the sup rows and the divisor sums
    ("shell --d 3 --D 10,20,50 --mode sup", "4e7d60be079f660750c92194b6c3bc0e0e7f590e840a4dd7f7c4a9bad458f1ee"),
    (
        "divisor --x 10,1000,100000,1e7,1e9,1e11,1e14",
        "91fb0d7cafd00cfc6667fea82961cbfd261c1603a74e6f0a5aae9d4714cae84f",
    ),
    # the two-sided counts R_3(x)
    ("hyperbolic --d 3 --x 1000,10000", "51230b7cc67cde07197e782b1ebbd3657dbc26cf37b74a1e8285b67e100fc602"),
    # Monte Carlo ladders, counted per rung in blocks
    (
        "moment --process walk --map identity --p 4 --sizes 16,32,64,256 --samples 60 --seed 5",
        "15a6b08330aa6c24bb67639a6f302c682e6b533358badbbebdf86975e13f7c24",
    ),
    (
        "moment --process poisson --map power:2 --p 4 --sizes 16,32,64,256 --samples 60 --seed 5",
        "2acc282b97ef6392bdcb6d384b282816b67d73599338438bfbba193a57f696d4",
    ),
    (
        "moment --process poisson --map identity --p 2 --sizes 16,32,64,256 --samples 60 --seed 5",
        "a645cdc5c09cb13bd6243cd91f59c6d05079ea2e9b50f82a5a8626e876443339",
    ),
    # exact means, whose node counts come from the Poisson cutoff's scalar pmf reads
    (
        "moment --mode exact --process poisson --map identity --p 4 --sizes 16,32,64",
        "f002171db9972832e168b595ca8f92787284839d1921814f485baaa6d596c488",
    ),
    (
        "moment --mode exact --process poisson --map power:2 --p 4 --sizes 8,16",
        "c4be7e0dccfcda7cd4c813876a813a01c8d835c34c4f74ae825f583efe34b9be",
    ),
    # the p=3 Green-Ruzsa search row
    ("majorant --freqs 0,1,3 --p 3 --restarts 1", "37e8e07a9cea51126fe36a5f896fd8917b999cfcbd9cc8f17bc7ef8d27c6649d"),
    # verify's rows
    ("verify", "5127c33cb0e4fb530e9ad094ea6eefdbbbdc876d12ecbcfcb54cd9996f6e9365"),
    ("verify --quick", "a8f6cba82e16b6cac8216b534b5cd1f3d340e369f781530b6583285a076cff1f"),
]


@pytest.mark.parametrize("argv, digest", SHA256, ids=[argv for argv, _ in SHA256])
def test_output_sha256(argv, digest, capsys):
    assert hashlib.sha256(stdout_of(argv, capsys).encode()).hexdigest() == digest


def test_even_p_majorant_row(capsys):
    # even p is answered by the theorem: base = best = 28, ratio 1
    out = stdout_of("majorant --freqs 1,4,9,16 --p 4 --restarts 2", capsys)
    assert out.splitlines()[-1] == "1;4;9;16,4,28,28,1,2"


@pytest.mark.parametrize(
    "flags, count",
    [
        ("--n 2 --d 2 --M 150", "80838"),  # self-convolution of unit counts: no count bits
        ("--n 3 --d 3 --M 40", "447718"),  # then a table convolved with the profile, counts above 1
        ("--n 2 --d 5 --M 200", "79800"),  # 40-bit words
    ],
)
def test_packed_sparse_counts(flags, count, capsys):
    # sparse convolutions sort packed words; the counts must not depend on the CPU's sort
    row = stdout_of(f"repcount {flags} --squares", capsys).splitlines()[-1]
    assert row.split(",")[3] == count


@pytest.mark.parametrize(
    "argv, code",
    [
        ("moment --process poisson --map power:3 --p 4 --sizes 16,32 --samples 2", 0),
        # --seed where nothing is drawn
        ("divisor --x 10 --seed 5", 1),
        ("greenruzsa --base 7 --digits 2 --seed 5", 1),
        ("moment --process poisson --p 4 --sizes 8 --mode exact --seed 5", 1),
        # a shell grid with no integer E in [D, D^2], and a sparsity sample count below 1
        ("shell --d 2 --D 1.2 --mode both", 1),
        ("greenruzsa --base 7 --digits 2 --sparsity 0", 1),
    ],
)
def test_exit_code(argv, code, capsys):
    assert run(shlex.split(argv)) == code
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # an extreme p, and about 5e11 brute search rows
        "majorant --freqs 0,1,3 --p 1000000 --restarts 1",
        "shell --d 2 --D 10 --E 1e12 --mode brute",
    ],
)
def test_refused_within_ten_seconds(argv):
    # refused before any work; a fresh process is killed at 10 s, so a hang fails here
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "expsumlab.cli", *shlex.split(argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("numeric guard:")
