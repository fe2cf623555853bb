"""Reproducible experiment runner, and the only one the package has.

Every library surface is exposed as a subcommand emitting CSV (default) or
JSON rows.  A ladder is one subcommand over a comma list (``moment --sizes``,
``shell --mode sup --D``, ``divisor --x``, ``hyperbolic --x``), and ``slope``
fits its growth exponent.  ``verify`` prints one row per report of
``bounds.verification_suite``.  Floats are serialized with 17 significant
digits so files round-trip exactly.  When ``--out`` is given, a JSON
manifest (subcommand, argv, master seed, version, timestamps, sha256 of the
data) is written next to the output file.  Identical argv + seed produce
byte-identical data rows.

Seed precedence: ``--seed`` > the EXPSUM_SEED environment variable > a
key=value config file passed with ``--config``, whose only keys are ``seed``
and ``samples``.  Without any of them the seed is 0, except for ``verify``,
whose default is 20240.  ``--samples`` (``moment`` and ``majorant``) falls
back to the config file, then to 200.  ``moment`` and ``majorant`` read
their method from p: exact counts and the theorem at even p, quadrature and
the phase search otherwise.  A flag that the chosen mode would ignore exits
1: ``--seed`` on ``shell``, ``divisor``, ``hyperbolic``, ``repcount``,
``slope``, ``greenruzsa`` without ``--sparsity`` and ``moment --mode
exact``, which draw nothing, ``--samples`` with ``moment --mode exact``,
``--pmf`` unless the process is iid, ``shell --E`` with ``--mode sup`` and
``--e-samples`` with ``--E``, ``majorant --freqs`` with ``--genericity`` and
``--samples``, ``--process``, ``--map``, ``--sizes`` or ``--epsilon``
without it.
One exception: ``majorant`` at even p does not read ``--restarts``, nor
``--seed`` with ``--freqs``, since the even-p ratio is exactly 1 and no
search runs.  ``--restarts`` is still validated (at least 1) and echoed in
the row; neither is refused, because scripts and the benchmark pass them at
every p.

Exit codes: 0 success, 1 usage error, 2 numeric guard or overflow,
3 verification suite failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import verification_suite
from .errors import GuardError
from .lattice import (
    divisor_error,
    divisor_floor,
    divisor_summatories,
    greenruzsa_generate,
    representation_count,
    diophantine_count,
    sparsity_count,
)
from .majorant import genericity_experiment, majorant_ratio
from .moments import (
    ExperimentSpec,
    TimeMap,
    _even_degree,
    exact_even_moment,
    mc_even_moment,
    mc_general_moment,
    slope_fit,
)
from .processes import Pmf, SeedSpec


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render(rows: list[dict], fmt: str) -> bytes:
    if fmt == "json":
        text = json.dumps(rows, indent=2, default=_fmt) + "\n"
        return text.encode()
    buf = io.StringIO()
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
    return buf.getvalue().encode()


def _emit(rows: list[dict], args, started: str) -> None:
    data = _render(rows, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        manifest = {
            "subcommand": args.subcommand,
            "argv": args.raw_argv,
            "master_seed": args.seed,
            "version": __version__,
            "started": started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "output": os.path.basename(args.out),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(data.decode())


def _parse_int_list(text: str) -> list[int]:
    """The integers of a comma list; empty tokens, as after a trailing comma, are skipped."""
    values = [int(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError(f"{text!r} lists no integer")
    return values


def _parse_map(text: str) -> TimeMap:
    if text == "identity":
        return TimeMap("identity")
    if text.startswith("power:"):
        return TimeMap("power", d=int(text.split(":", 1)[1]))
    if text.startswith("arith:"):
        return TimeMap("arith", r=float(text.split(":", 1)[1]))
    raise ValueError(f"unknown time map {text!r} (use identity, power:D, arith:R)")

def _parse_pmf(text: str | None) -> Pmf | None:
    if text is None:
        return None
    pairs = []
    for tok in text.split(","):
        v, p = tok.split(":")
        pairs.append((int(v), float(p)))
    return Pmf(tuple(sorted(pairs)))


def _config_values(path: str | None) -> dict[str, str]:
    values: dict[str, str] = {}
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                key = key.strip().lower()
                if key not in ("seed", "samples"):
                    raise ValueError(f"{path}: unknown key {key!r}")
                values[key] = val.strip()
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    parser.add_argument("--out", type=str, default=None, help="output path (stdout if absent)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--config", type=str, default=None, help="key=value config file")


@functools.cache  # built once per process; parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsumlab",
        description="Random exponential sums, moment experiments, and lattice counting.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("moment", help="moment experiments over a size ladder, Monte Carlo or exact")
    p.add_argument("--process", choices=("poisson", "walk", "iid"), required=True)
    p.add_argument("--map", dest="time_map", default="identity", help="identity | power:D | arith:R")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--sizes", type=str, required=True, help="comma list, A = {1..size}")
    p.add_argument("--pmf", type=str, default=None, help="iid pmf as v:p,v:p")
    p.add_argument("--mode", choices=("auto", "exact"), default="auto")
    p.add_argument("--samples", type=int, default=None, help="Monte Carlo samples")
    _add_common(p)

    p = sub.add_parser("shell", help="shell counts |k^d - j^d - E| < D")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--D", type=str, required=True, help="comma list with --mode sup, else one value")
    p.add_argument("--E", type=float, default=None, help="single E (default: grid over [D, D^2])")
    p.add_argument("--mode", choices=("both", "brute", "fast", "sup"), default="both")
    p.add_argument("--e-samples", type=int, default=None, dest="e_samples", help="default 2048")
    _add_common(p)

    p = sub.add_parser("divisor", help="divisor summatory function and its error term")
    p.add_argument("--x", type=str, required=True, help="comma list of evaluation points")
    _add_common(p)

    p = sub.add_parser("hyperbolic", help="two-sided counts R_d(x) = #{0 < |k|^d - |j|^d <= x}")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", type=str, required=True, help="comma list of evaluation points")
    _add_common(p)

    p = sub.add_parser("repcount", help="representation counts of sums of d-th powers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--squares", action="store_true", help="emit sum of squared counts instead")
    _add_common(p)

    p = sub.add_parser("greenruzsa", help="digit-restricted sets and their sparsity")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--sparsity", type=int, default=None, help="sample this many (center, radius) pairs")
    _add_common(p)

    p = sub.add_parser("majorant", help="phase-optimized majorant ratios")
    p.add_argument("--freqs", type=str, default=None, help="comma list of frequencies")
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--genericity", action="store_true")
    p.add_argument("--process", choices=("poisson", "walk"), default=None, help="default poisson")
    p.add_argument("--map", dest="time_map", default=None, help="default identity")
    p.add_argument("--sizes", type=str, default=None, help="default 8,16,32,64")
    p.add_argument("--epsilon", type=float, default=None, help="default 0.2")
    p.add_argument("--samples", type=int, default=None, help="genericity samples per size")
    _add_common(p)

    p = sub.add_parser("verify", help="run the full inequality and oracle suite")
    p.add_argument("--quick", action="store_true", help="smaller grids for smoke testing")
    _add_common(p)

    p = sub.add_parser("slope", help="log-log slope fit over a moment output file")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--x-col", type=str, default="size")
    p.add_argument("--y-col", type=str, default="mean")
    _add_common(p)

    return parser


def _reject_ignored_flags(args) -> None:
    """Raise ValueError for a flag given on the command line that the mode would not read."""
    draws = args.subcommand in ("moment", "majorant", "verify") or getattr(args, "sparsity", None) is not None
    if args.seed is not None and not draws:
        raise ValueError(f"--seed is unused: {args.subcommand} draws no random numbers here")
    if args.subcommand == "moment":
        if args.mode == "exact" and (args.samples is not None or args.seed is not None):
            raise ValueError("--mode exact samples nothing: drop --samples and --seed")
        if args.pmf is not None and args.process != "iid":
            raise ValueError(f"--pmf is unused: --process {args.process} draws no i.i.d. values")
    elif args.subcommand == "shell":
        if args.E is not None and args.mode == "sup":
            raise ValueError("--E is unused with --mode sup, which sweeps its own E grid")
        if args.E is not None and args.e_samples is not None:
            raise ValueError("--e-samples is unused with --E, which counts one E")
    elif args.subcommand == "majorant":
        if args.genericity and args.freqs is not None:
            raise ValueError("--freqs is unused with --genericity, which draws its own sets")
        given = (args.samples, args.process, args.time_map, args.sizes, args.epsilon)
        for flag, value in zip(("--samples", "--process", "--map", "--sizes", "--epsilon"), given):
            if not args.genericity and value is not None:
                raise ValueError(f"{flag} is unused without --genericity")


# Set after _reject_ignored_flags, which must see only the flags given.
_LATE_DEFAULTS = {
    "shell": {"e_samples": 2048},
    "majorant": {"process": "poisson", "time_map": "identity", "sizes": "8,16,32,64", "epsilon": 0.2},
}


def _resolve_settings(args) -> None:
    late = _LATE_DEFAULTS.get(args.subcommand, {})
    vars(args).update((name, value) for name, value in late.items() if getattr(args, name) is None)
    config = _config_values(args.config)
    if args.seed is None:
        env = os.environ.get("EXPSUM_SEED")
        if env is not None:
            args.seed = int(env)
        elif "seed" in config:
            args.seed = int(config["seed"])
        else:
            args.seed = 20240 if args.subcommand == "verify" else 0
    if "samples" in vars(args) and args.samples is None and getattr(args, "mode", None) != "exact":
        args.samples = int(config.get("samples", 200))


def _cmd_moment(args) -> tuple[list[dict], int]:
    time_map = _parse_map(args.time_map)
    pmf = _parse_pmf(args.pmf)
    exact = args.mode == "exact"
    rows = []
    for size in _parse_int_list(args.sizes):
        spec = ExperimentSpec(
            process=args.process,
            index_set=tuple(range(1, size + 1)),
            time_map=time_map,
            p=args.p,
            samples=1 if exact else args.samples,
            seed=SeedSpec(args.seed, size),
            pmf=pmf,
        )
        if exact:
            est = exact_even_moment(spec)
        elif _even_degree(args.p):
            est = mc_even_moment(spec)
        else:
            est = mc_general_moment(spec)
        rows.append(
            {
                "process": args.process,
                "map": time_map.label(),
                "p": args.p,
                "size": size,
                "samples": est.n_samples,
                "mean": est.mean,
                "std_error": est.std_error,
                "seed": args.seed,
                "descriptor": est.descriptor,
            }
        )
    return rows, 0


def _shell_grid(D: float, cap: int) -> list[float]:
    from .shell import _e_range, _geometric  # the shell counts load only with a shell or hyperbolic command

    lo, hi = _e_range(D)
    if hi - lo + 1 <= cap:
        return [float(e) for e in range(lo, hi + 1)]
    grid = np.clip(np.rint(_geometric(lo, hi, cap)), lo, hi)
    return sorted({float(lo), float(hi), *grid.tolist()})


def _cmd_shell(args) -> tuple[list[dict], int]:
    from .shell import shell_counts, shell_sup_ratio

    if args.e_samples < 1:
        raise ValueError("--e-samples must be at least 1")
    d_values = [float(tok) for tok in args.D.split(",")]
    rows = []
    if args.mode == "sup":
        for D in d_values:
            count, ratio, argmax_e = shell_sup_ratio(args.d, D, args.e_samples)
            rows.append(
                {
                    "d": args.d,
                    "D": D,
                    "sup_count": count,
                    "sup_ratio": ratio,
                    "argmax_E": argmax_e,
                    "e_samples": args.e_samples,
                }
            )
        return rows, 0
    if len(d_values) != 1:
        raise ValueError(f"shell --mode {args.mode} takes one --D value; a list needs --mode sup")
    (D,) = d_values
    grid = [args.E] if args.E is not None else _shell_grid(D, args.e_samples)
    rows = [{"E": e} for e in grid]
    for method in ("brute", "fast"):
        if args.mode in (method, "both"):
            counts, work = shell_counts(args.d, grid, [D] * len(grid), method)
            for row, count, steps in zip(rows, counts.tolist(), work.tolist()):
                row[method] = count
                row[f"work_{method}"] = steps
    if args.mode == "both":
        for row in rows:
            row["equal"] = row["brute"] == row["fast"]
    return rows, 0


def _cmd_divisor(args) -> tuple[list[dict], int]:
    xs, floors = [], []
    for tok in args.x.split(","):  # each x is parsed and checked in turn, so the first bad one raises
        xs.append(float(tok))
        floors.append(divisor_floor(xs[-1]))
    order = sorted(range(len(xs)), key=floors.__getitem__)  # one kernel call wants nondecreasing x
    ordered = divisor_summatories(np.array([floors[i] for i in order], dtype=np.int64)).tolist()
    sums = dict(zip(order, ordered))
    return [{"x": x, "summatory": sums[i], "error": divisor_error(x, sums[i])} for i, x in enumerate(xs)], 0


def _cmd_hyperbolic(args) -> tuple[list[dict], int]:
    from .shell import hyperbolic_count

    rows = []
    for tok in args.x.split(","):
        x = float(tok)
        count = hyperbolic_count(args.d, x)
        rows.append({"d": args.d, "x": x, "count": count, "ratio": count / x ** (2.0 / args.d)})
    return rows, 0


def _cmd_repcount(args) -> tuple[list[dict], int]:
    if args.squares:
        total = diophantine_count(args.n, args.d, args.M)
        return [{"n": args.n, "d": args.d, "M": args.M, "diophantine": total}], 0
    table = representation_count(args.n, args.d, args.M)
    rows = [{"m": m, "count": c} for m, c in sorted(table.counts.items())]
    return rows, 0


def _cmd_greenruzsa(args) -> tuple[list[dict], int]:
    values = greenruzsa_generate(args.base, args.digits)
    if args.sparsity is None:
        return [{"value": v} for v in values], 0
    if args.sparsity < 1:
        raise ValueError("--sparsity must be at least 1")
    gen = SeedSpec(args.seed).generator(0)
    exponent = math.log(3) / math.log(args.base)
    rows = []
    for _ in range(args.sparsity):
        center = int(gen.integers(0, values[-1] + 2))
        radius = int(gen.integers(1, max(2, values[-1])))
        count = sparsity_count(values, center, radius)
        bound = 24.0 * radius**exponent
        rows.append(
            {
                "center": center,
                "radius": radius,
                "count": count,
                "bound": bound,
                "ok": count <= bound,
            }
        )
    return rows, 0


def _cmd_majorant(args) -> tuple[list[dict], int]:
    if args.genericity:
        points = genericity_experiment(
            process=args.process,
            time_map=_parse_map(args.time_map),
            sizes=_parse_int_list(args.sizes),
            p=args.p,
            epsilon=args.epsilon,
            samples=args.samples,
            restarts=args.restarts,
            seed=SeedSpec(args.seed),
        )
        rows = [
            {
                "size": pt.size,
                "probability": pt.probability,
                "std_error": pt.std_error,
                "samples": pt.samples,
                "threshold": pt.threshold,
            }
            for pt in points
        ]
        return rows, 0
    if not args.freqs:
        raise ValueError("majorant needs --freqs unless --genericity is given")
    freqs = _parse_int_list(args.freqs)
    result = majorant_ratio(freqs, args.p, args.restarts, SeedSpec(args.seed))
    rows = [
        {
            "freqs": ";".join(str(f) for f in freqs),
            "p": args.p,
            "base_moment": result.base_moment,
            "best_moment": result.best_moment,
            "ratio": result.ratio,
            "restarts": result.restarts,
        }
    ]
    return rows, 0


def _cmd_verify(args) -> tuple[list[dict], int]:
    reports = verification_suite(quick=args.quick, seed=SeedSpec(args.seed))
    rows = [
        {"check": r.name, "ok": r.ok, "checked": r.checked, "detail": r.detail}
        for r in reports
    ]
    failures = [r["check"] for r in rows if not r["ok"]]
    for name in failures:
        print(f"verification failure: {name}", file=sys.stderr)
    return rows, (3 if failures else 0)


def _cmd_slope(args) -> tuple[list[dict], int]:
    with open(args.input, newline="") as fh:
        reader = csv.DictReader(fh)
        for col in (args.x_col, args.y_col):
            if col not in (reader.fieldnames or ()):
                raise ValueError(f"{args.input} has no column {col!r}")
        points = []
        for row in reader:
            if row[args.x_col] is None or row[args.y_col] is None:
                raise ValueError(f"{args.input} line {reader.line_num} is shorter than its header")
            points.append((float(row[args.x_col]), float(row[args.y_col])))
    fit = slope_fit(points)
    rows = [
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual": fit.residual,
            "points": len(points),
        }
    ]
    return rows, 0


_DISPATCH = {
    "moment": _cmd_moment,
    "shell": _cmd_shell,
    "divisor": _cmd_divisor,
    "hyperbolic": _cmd_hyperbolic,
    "repcount": _cmd_repcount,
    "greenruzsa": _cmd_greenruzsa,
    "majorant": _cmd_majorant,
    "verify": _cmd_verify,
    "slope": _cmd_slope,
}


def run(argv: list[str]) -> int:
    started = datetime.now(timezone.utc).isoformat()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    args.raw_argv = list(argv)
    try:
        _reject_ignored_flags(args)
        _resolve_settings(args)
        rows, code = _DISPATCH[args.subcommand](args)
    except (GuardError, OverflowError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(rows, args, started)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
