"""Runs one workload of the uhat benchmark in this (fresh) process.

Started by `run.py` under a fixed PYTHONHASHSEED, from the root of a
checkout.  Prints one JSON object with the measurements as its last line.

Set-up (import `uhat` afresh and prepare the inputs) is repeated
SETUP_REPEATS times and its median reported.  Jobs then run in batches, one
after another, until the next batch would overrun the time given.  Times
reported end to end are scaled to REFERENCE_S, see `Probe`.  With
`--trace 1` the first half of that time runs traced; the second half runs
untraced, as the reference for the tracing overhead, on the jobs that still
fit before TRACE_DEADLINE_S.  Every job is checked after its batch: it fails
if it raised, returned an unexpected exit code, reported a false
certificate flag, or produced a report other than the one recorded in
`expected/`.  Job reports and spans go to OUT_DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 9
MAX_LISTED_FAILURES = 20
# Seconds after start by which a traced run's untraced reference must end;
# the whole run has to finish within 180 s, and a sweep batch takes 45-85 s.
TRACE_DEADLINE_S = 150
# Reported times are seconds on a machine where `reference` takes this long.
REFERENCE_S = 0.05
# Seconds between the probes taken while a piece of work runs.
PROBE_EVERY_S = 1.0


def reference():
    """Seconds this machine takes for a fixed piece of rational arithmetic.

    The probe uses none of `uhat`, so no change to the package moves it.
    """
    t0 = time.perf_counter()
    terms, acc = {}, Fraction(0)
    for i in range(1, 6000):
        key = (i % 7, i % 11, i % 13)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i, i % 17 + 1)
        acc += terms[key] / (i % 5 + 1)
    return time.perf_counter() - t0


class Probe:
    """Times work and scales it by the machine speed measured meanwhile.

    The speed of a shared virtual machine drifts by up to a third for
    minutes at a time.  `reference` runs before and after each timed piece
    of work and every PROBE_EVERY_S while it runs (from a SIGALRM handler,
    so the process stays single-threaded).  The work's time on `clock`,
    which leaves out the probes taken inside work, is scaled by REFERENCE_S
    over the mean of all these probes, which cancels the drift.  On a 2-vCPU VM this
    cut the quartile spread of 20 s medians of the identities batch from
    0.17 to 0.04; the probes inside keep a one-minute sweep job from being
    scaled by the speed of two moments only.
    """

    def __init__(self):
        self.last = reference()
        self.probes = [self.last]
        self.inside = []  # probes inside the work being timed
        self.inside_s = 0.0  # seconds of every probe taken inside work so far
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        seconds = reference()
        self.inside.append(seconds)
        self.inside_s += seconds

    def clock(self):
        """`time.perf_counter` less the probes taken inside work; spans use it too."""
        return time.perf_counter() - self.inside_s

    def timed(self, work):
        """Run `work()`; returns its result, the error it raised, raw and scaled seconds."""
        self.inside = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = self.clock()
        try:
            result, error = work(), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        signal.setitimer(signal.ITIMER_REAL, 0)
        raw = self.clock() - t0
        now = reference()
        speeds = [self.last, *self.inside, now]
        self.probes += [*self.inside, now]
        self.last = now
        return result, error, raw, raw * REFERENCE_S / statistics.mean(speeds)


def measure_setup(workload, root, seed, out_dir, probe):
    def setup():
        wl.forget_uhat()
        return wl.WORKLOADS[workload](wl.import_uhat(), root, seed, out_dir)

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        jobs, error, seconds, seconds_scaled = probe.timed(setup)
        if error:
            raise SystemExit(f"set-up of {workload} failed:\n{error}")
        raw.append(seconds)
        scaled.append(seconds_scaled)
    return raw, scaled, jobs


class Runner:
    def __init__(self, expected, probe):
        self.expected = expected
        self.probe = probe
        self.attempted = 0
        self.failures = []
        # traced -> job -> seconds, raw and scaled
        self.raw_times = {False: defaultdict(list), True: defaultdict(list)}
        self.job_times = {False: defaultdict(list), True: defaultdict(list)}
        self.first_spans = []  # spans of the first traced batch

    def batch(self, jobs, tracer=None):
        """Run each job once; returns the batch's raw and scaled time."""
        traced = tracer is not None
        results = []
        raw_wall = scaled_wall = 0.0
        for job in jobs:
            if traced:
                tracer.start_job(job.name)
            raw, error, seconds, scaled = self.probe.timed(job.run)
            results.append((job, raw, error))
            self.raw_times[traced][job.name].append(seconds)
            self.job_times[traced][job.name].append(scaled)
            raw_wall += seconds
            scaled_wall += scaled
        for job, raw, error in results:
            self.check(job, raw, error, traced)
        return raw_wall, scaled_wall

    def check(self, job, raw, error, traced):
        self.attempted += 1
        problems = [error] if error else []
        if not error:
            try:
                codes, flags, report = job.outcome(raw)
            except Exception:
                problems.append(traceback.format_exc(limit=3))
            else:
                problems += self._compare(job, codes, flags, wl.canonical(report))
        if problems:
            self.failures.append({"job": job.name, "traced": traced, "problems": problems})

    def _compare(self, job, codes, flags, report):
        problems = [f"flag {k} is {v!r}" for k, v in flags.items() if v is not True]
        expected = self.expected.get(job.name)
        if expected is None:
            problems.append("no expected report recorded for this job")
        else:
            if codes != expected["exit_codes"]:
                problems.append(f"exit codes {codes}, expected {expected['exit_codes']}")
            if report != wl.canonical(expected["report"]):
                problems.append("report differs from the recorded one")
        return problems

    def phase(self, jobs, seconds, tracer=None):
        """Whole batches until the next one would overrun `seconds` (at least one).

        Returns the raw and the scaled time of each batch, and with a tracer
        each traced batch's layer metrics.
        """
        raw_walls, walls, layers = [], [], []
        start = time.perf_counter()
        while True:
            raw_wall, wall = self.batch(jobs, tracer)
            raw_walls.append(raw_wall)
            walls.append(wall)
            if tracer:
                spans, counts = tracer.take_batch()
                layers.append(tracing.layer_metrics(spans, counts, raw_wall))
                if len(walls) == 1:
                    self.first_spans = spans
            if time.perf_counter() - start + raw_wall > seconds:
                return raw_walls, walls, layers

    def medians(self, traced, raw=False):
        times = (self.raw_times if raw else self.job_times)[traced]
        return {name: statistics.median(ts) for name, ts in times.items()}


def trace_layers(runner, jobs, seconds, started):
    """Per-layer metrics: half the time traced, then an untraced reference.

    The reference runs the cheapest jobs that still fit before
    TRACE_DEADLINE_S (at least one), and `trace.overhead_ratio` compares the
    traced and untraced time of those jobs.
    """
    tracer = tracing.Tracer(runner.probe.clock)
    tracer.install()
    raw_walls, _, layers = runner.phase(jobs, seconds / 2, tracer)
    tracer.uninstall()
    traced_s = runner.medians(traced=True)
    traced_raw_s = runner.medians(traced=True, raw=True)
    room = TRACE_DEADLINE_S - (time.perf_counter() - started)
    chosen = set()
    for job in sorted(jobs, key=lambda j: traced_raw_s[j.name]):
        cost = 1.25 * traced_raw_s[job.name]  # margin for drift in machine speed
        if chosen and cost > room:
            break
        chosen.add(job.name)
        room -= cost
    runner.phase([job for job in jobs if job.name in chosen], seconds / 2)
    untraced_s = runner.medians(traced=False)
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["trace.overhead_ratio"] = sum(traced_s[n] for n in chosen) / sum(untraced_s.values())
    return {
        "traced_batch_walls_raw_s": raw_walls,
        "layers": metrics,
        "patched": tracer.patched,
        "absent_spans": tracer.absent,
        "overhead_reference_jobs": sorted(untraced_s),
    }


def record(jobs, path):
    """Write the reports of one batch as the expected ones (flags must hold)."""
    out = {}
    for job in jobs:
        raw = job.run()
        codes, flags, report = job.outcome(raw)
        bad = [k for k, v in flags.items() if v is not True]
        if bad:
            raise SystemExit(f"{job.name}: refusing to record, false flags {bad}")
        out[job.name] = {"exit_codes": codes, "report": json.loads(wl.canonical(report))}
    path.write_text(json.dumps({"jobs": out}, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    started = time.perf_counter()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    json_dir = OUT_DIR / "json" / args.workload
    json_dir.mkdir(parents=True, exist_ok=True)

    probe = Probe()
    setup_raw, setup_times, jobs = measure_setup(args.workload, root, args.seed, json_dir, probe)
    random.Random(args.seed).shuffle(jobs)
    expected_path = HERE / "expected" / f"{args.workload}.json"
    if args.record:
        record(jobs, expected_path)
        return
    runner = Runner(json.loads(expected_path.read_text())["jobs"], probe)
    result = {
        "workload": args.workload,
        "python": sys.version.split()[0],
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "jobs": [job.info for job in jobs],
        "setup_runs_raw_s": setup_raw,
        "setup_runs_s": setup_times,
        "setup_s": statistics.median(setup_times),
    }
    if args.trace:
        result.update(trace_layers(runner, jobs, args.seconds, started))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(runner.first_spans))
        result["home_spans_missing"] = [
            n
            for n in tracing.SPAN_NAMES
            if tracing.home_workload(n) == args.workload and not result["layers"][f"{n}.calls"]
        ]
    else:
        raw_walls, walls, _ = runner.phase(jobs, args.seconds)
        medians = runner.medians(traced=False)
        worst = max(medians, key=medians.get)
        result.update(
            batch_walls_raw_s=raw_walls,
            batch_walls_s=walls,
            wall_s=statistics.median(walls),
            job_medians_s=medians,
            worst_job=worst,
            worst_job_s=medians[worst],
        )
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:MAX_LISTED_FAILURES],
        reference_probe_median_s=statistics.median(probe.probes),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
