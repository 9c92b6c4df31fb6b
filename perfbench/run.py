"""Benchmark of the uhat package in the checkout this is run from.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every end-to-end metric
    python3 perfbench/run.py --record                 # re-record expected reports

Run from the root of a checkout: `src/uhat` is imported from there, never
from an installed copy.  Each workload runs in its own fresh worker process
under a fixed PYTHONHASHSEED, one job at a time.  The last line printed is
one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`).
`--workload all` prints a table of every end-to-end metric per workload and
exits non-zero when any job failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HASH_SEED = "0"
WORKER_TIMEOUT_S = 175
OUT_DIR = HERE / "out"

# name -> unit; bounds live in BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "worst_job_s": "s", "peak_rss_mb": "MB"}


def checkout_root():
    root = Path.cwd()
    if not (root / "src" / "uhat" / "__init__.py").is_file() or not (root / "scenarios").is_dir():
        sys.exit(f"error: {root} is not a uhat checkout (needs src/uhat and scenarios/)")
    return root


def git_commit(root):
    """HEAD of the checkout's git repository; None without one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def source_digest(root):
    """SHA-256 over the package sources, naming the code even without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "uhat").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_worker(root, workload, seed, seconds, trace, record=False):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if record:
        cmd.append("--record")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"error: the {workload} worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"error: the {workload} worker exited with code {proc.returncode}")
    if record:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(root, seed, result):
    return {
        "workload": result["workload"],
        "seed": seed,
        "python": result["python"],
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "src_sha256": source_digest(root),
        "pythonhashseed": result["pythonhashseed"],
        "jobs": result["jobs"],
    }


def one_workload(root, args):
    result = run_worker(root, args.workload, args.seed, args.seconds, args.trace)
    env = environment(root, args.seed, result)
    if args.trace:
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        metrics = {n: {"value": result["layers"][n], "unit": u} for n, u in units.items()}
    else:
        metrics = {n: {"value": result[n], "unit": u} for n, u in END_TO_END.items()}
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"environment": env, "result": result}, indent=1))
    print("environment " + json.dumps(env))
    for failure in result["failures"]:
        print("failure " + json.dumps(failure))
    print(f"details in {record_path.relative_to(root)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


def all_workloads(root, args):
    rows, any_failed = [], False
    for workload in WORKLOADS:
        result = run_worker(root, workload, args.seed, args.seconds, 0)
        print("environment " + json.dumps(environment(root, args.seed, result)))
        for failure in result["failures"]:
            print(f"{workload} failure " + json.dumps(failure))
        for name, unit in END_TO_END.items():
            rows.append((workload, name, f"{result[name]:.6g}", unit))
        failed, attempted = result["failed"], result["attempted"]
        ratio = f"{failed / attempted:.6g}"
        rows.append((workload, "failed_ratio", ratio, f"({failed}/{attempted} jobs)"))
        any_failed = any_failed or result["failed"] > 0
    print(f"{'workload':<12}{'metric':<14}{'value':>12}  unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<12}{name:<14}{value:>12}  {unit}")
    return 1 if any_failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-record the expected reports")
    args = ap.parse_args()
    root = checkout_root()
    if args.record:
        for workload in WORKLOADS:
            run_worker(root, workload, args.seed, args.seconds, 0, record=True)
        print(f"recorded expected reports in {(HERE / 'expected').relative_to(root)}")
        return 0
    if args.workload == "all":
        return all_workloads(root, args)
    one_workload(root, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
