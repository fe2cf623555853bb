"""Benchmark entry point for expsumlab.

    python3 perfbench/run.py --workload mc-ladder --seed 1 --seconds 44 --trace 0

Run from the root of a checkout.  The workload runs in passes, one at a
time, each in a fresh worker process (``worker.py``) on the checkout's
``src``, until ``--seconds`` are used; set-up is timed on every start of that
process.  With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are printed, with ``--trace 1`` the per-layer metrics.  The
last line of output is one JSON object: correct, attempted, failed, metrics.
A fuller record, with the environment, goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from paths import OUT, PASS_RECORD, ROOT, SRC

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("mc-ladder", "majorant-search", "exact-counts")
MIN_PASSES = {0: 3, 1: 4}  # by --trace, when time allows; traced runs alternate kinds
READY_TIMEOUT_S = 60
RUN_LIMIT_S = 170  # every run must end within 180 s
# One process, one BLAS thread: at most nproc threads on the box.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupError(RuntimeError):
    pass


def start_worker(argv: list[str], env: dict) -> tuple[subprocess.Popen, float, int]:
    """Start the worker; return it, its set-up time and its job count."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    proc.stdout.close()
    if not line.startswith("ready "):
        proc.kill()
        proc.wait()
        raise SetupError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup, int(line.split()[1])


def environment(numpy_version: str | None) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "blas_threads": THREAD_ENV,
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(argv: list[str], env: dict, deadline: float) -> tuple[float, int, dict | None]:
    """One pass in a fresh worker: its set-up time, job count and record (None if it died)."""
    PASS_RECORD.unlink(missing_ok=True)
    proc, setup, jobs = start_worker(argv, env)
    try:
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.returncode == 0 and PASS_RECORD.is_file():
        return setup, jobs, json.loads(PASS_RECORD.read_text())
    return setup, jobs, None


def measure(args, env, deadline: float) -> dict:
    """Passes in fresh workers until --seconds are used; their failures and summary.

    Each pass is preceded by a set-up-only start, so set-up is sampled twice
    per pass across the whole run.  The first pass also runs the oracles;
    every later pass must reproduce its outputs byte for byte.
    """
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, passes, failures = [], [], []
    start = time.perf_counter()
    while True:
        proc, setup, _jobs = start_worker([*base, "--setup-only"], env)
        proc.wait()
        setups.append(setup)
        traced = bool(args.trace) and len(passes) % 2 == 1
        flags = (["--traced"] if traced else []) + ([] if passes else ["--check"])
        pass_start = time.perf_counter()
        setup, jobs, record = run_pass([*base, *flags], env, deadline)
        setups.append(setup)
        taken = time.perf_counter() - pass_start
        index = len(passes)
        if record is None:
            failures += [[index, f"job {j}", "worker died or overran, with no result"] for j in range(jobs)]
            record = {"wall_s": taken, "peak_rss_mb": 0.0, "jobs": []}
        passes.append({"traced": traced, "setup_s": setup, **record})
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES[args.trace] and now - start + taken > args.seconds:
            break
        if now + taken > deadline:
            break  # the next pass could not end in time

    failures += check_outputs(passes)
    untraced = [p for p in passes if not p["traced"]]
    result = {
        "numpy": passes[0].get("numpy"),
        "jobs": jobs,
        "attempted": len(passes) * jobs,
        "failures": failures,
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "setup_samples_s": setups,
        "setup_s": statistics.median(setups),
        "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s", "peak_rss_mb")} for p in passes],
    }
    if args.trace:
        result["layers"], result["unsteady_counts"] = layer_summary(passes)
        result["spans_file"] = next((p["spans_file"] for p in passes if "spans_file" in p), None)
    return result


def check_outputs(passes: list[dict]) -> list[list]:
    """[pass, job, reason] for every failed job run.

    The first pass's output of each job is checked by its oracle; every
    other pass must give the same output.
    """
    first = {job["name"]: job for job in passes[0]["jobs"]}
    failures = []
    for index, p in enumerate(passes):
        for job in p["jobs"]:
            ref = first.get(job["name"], {"sha256": None})
            if job["error"] is not None:
                reason = job["error"]
            elif ref["sha256"] is None:
                reason = "unchecked: the job failed in the first pass"
            elif job["sha256"] != ref["sha256"]:
                reason = "output differs from the first pass's output"
            else:
                reason = ref.get("verdict")
            if reason:
                failures.append([index, job["name"], reason])
    return failures


def layer_summary(passes: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced passes, and any count that did not repeat."""
    traced = [p["layers"] for p in passes if p["traced"] and "layers" in p]
    if not traced:
        return {}, []
    first = traced[0]
    unsteady = [
        name
        for name, value in first.items()
        if not name.endswith("_s") and any(other[name] != value for other in traced[1:])
    ]
    summary = {
        name: statistics.median(layers[name] for layers in traced) if name.endswith("_s") else value
        for name, value in first.items()
    }
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    summary["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return summary, unsteady


def report(spec: dict, args, result: dict) -> dict:
    """Print the metrics and return the final JSON object."""
    failed = len(result["failures"])
    if args.trace:
        section, values = spec["per_layer"], result["layers"]
    else:
        section = spec["end_to_end"]
        values = {name: result[name] for name in ("wall_s", "setup_s", "peak_rss_mb")}
    # An empty table means the worker died; otherwise every listed metric must exist.
    metrics = {m["name"]: {"value": float(values[m["name"]] if values else 0.0), "unit": m["unit"]} for m in section}
    walls = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(result['passes'])} passes of {result['jobs']} jobs, "
          f"{failed} of {result['attempted']} job runs failed (failed_frac {failed / max(1, result['attempted']):.4f})")
    if walls:
        print(f"  untraced pass wall: median {statistics.median(walls):.4f} s, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s, n={len(walls)}")
    print(f"  set-up samples (s): {', '.join(f'{s:.4f}' for s in result['setup_samples_s'])}")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    for p, job, reason in result["failures"][:10]:
        print(f"  FAILED pass {p} job {job}: {reason}")
    for name in result.get("unsteady_counts", []):
        print(f"  COUNT DID NOT REPEAT between traced passes: {name}")
    correct = failed == 0 and not result.get("unsteady_counts")
    return {"correct": correct, "attempted": max(1, result["attempted"]), "failed": failed, "metrics": metrics}


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description="expsumlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "expsumlab" / "__init__.py").is_file():
        print(f"perfbench: no expsumlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {**os.environ, **THREAD_ENV}
    OUT.mkdir(exist_ok=True)
    try:
        result = measure(args, env, start + RUN_LIMIT_S)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    final = report(spec, args, result)
    env_record = environment(result.get("numpy"))
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env_record.items()))
    record = {**result, "result": final, "environment": env_record}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
