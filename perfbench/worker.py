"""One pass of one workload, in a fresh process.

Started by ``run.py`` once per pass; not meant to be run by hand.  It imports
expsumlab from the checkout's ``src``, builds the job list from the seed and
prints ``ready <jobs>`` -- the end of set-up.  With ``--setup-only`` it stops
there.  Otherwise it runs the job list once, in order, and writes
``paths.PASS_RECORD``: the pass time, the peak resident memory, each job's
error or output digest and, with ``--traced``, the per-layer metrics.  With
``--check`` it then runs every job's oracle on its output, after the peak
memory is read and outside the timed pass.

A fresh process per pass means no pass finds what an earlier one left in a
process-wide cache, as a researcher running one CLI experiment would not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

from paths import OUT, PASS_RECORD, ROOT, SRC

sys.path.insert(0, str(SRC))

import numpy  # noqa: E402  (imports from the checkout's src)
import expsumlab  # noqa: E402
from expsumlab import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, canonical  # noqa: E402

JOB_TIMEOUT_S = 30  # per job and per oracle; a hang fails the job, not the run
ADDRESS_SPACE_LIMIT = 3 << 30  # a runaway allocation fails its job instead of the host


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so the CLI's handlers pass it on."""


def _alarm(signum, frame):
    raise JobTimeout


def _bounded(fn, *args):
    """fn(*args) under the per-job alarm: (value, None) or (None, reason)."""
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        return fn(*args), None
    except JobTimeout:
        return None, f"timed out after {JOB_TIMEOUT_S} s"
    except Exception as exc:  # a failing job is counted, and the run goes on
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class CliFailure(Exception):
    pass


def _run_cli(argv: tuple[str, ...], path: Path) -> bytes:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.run([*argv, "--out", str(path)])
    if code != 0:
        raise CliFailure(f"exit code {code}: {sink.getvalue().strip()[-300:]}")
    data = path.read_bytes()
    manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text())
    if manifest["sha256"] != hashlib.sha256(data).hexdigest():
        raise CliFailure("manifest sha256 does not match the data")
    return data


def run_pass(jobs, work_dir: Path, tracer=None):
    """The job list once: (wall seconds, [(output, failure)], CLI bytes)."""
    results = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        if job.call is not None:
            results.append(_bounded(lambda: canonical(job.call())))
        else:
            results.append(_bounded(_run_cli, job.argv, work_dir / f"{job.name}.csv"))
    wall = time.perf_counter() - start
    cli_bytes = sum(len(out) for job, (out, _) in zip(jobs, results) if job.call is None and out)
    return wall, results, cli_bytes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(expsumlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"expsumlab imported from {expsumlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    jobs = WORKLOADS[args.workload](args.seed)
    print(f"ready {len(jobs)}", flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    work_dir = OUT / f"jobs-{args.workload}"
    work_dir.mkdir(parents=True, exist_ok=True)
    if args.traced:
        with Tracer() as tracer:
            origin = time.perf_counter()
            wall, results, cli_bytes = run_pass(jobs, work_dir, tracer)
    else:
        wall, results, _ = run_pass(jobs, work_dir)
    record = {
        "numpy": numpy.__version__,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": [
            {"name": job.name, "error": error, "sha256": None if error else hashlib.sha256(out).hexdigest()}
            for job, (out, error) in zip(jobs, results)
        ],
    }
    if args.traced:
        record["layers"] = {**tracer.layer_metrics(), "cli.bytes_out": cli_bytes}
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with spans_path.open("w") as fh:
            for span in tracer.span_records(origin):
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    if args.check:
        for entry, job, (out, error) in zip(record["jobs"], jobs, results):
            if error is None:
                reason, oracle_error = _bounded(job.check, out)
                entry["verdict"] = oracle_error or reason
    PASS_RECORD.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
