"""Self-test of the uhat benchmark; run from the root of a checkout.

    python3 perfbench/selftest.py

Runs every workload once traced and once untraced, each briefly, and
asserts that:

- every job passes its correctness gate in both runs;
- every span listed in `tracing.SPANS` exists and fires on the workload it
  is expected to dominate (`tracing.HOME`);
- the traced run's reports equal the untraced ones: both runs compare every
  report with the one recorded in `expected/`, so passing both gates shows
  it;
- the metrics printed are exactly those `BENCHMARK.json` names.

The sweep's traced run alone takes about two minutes, as its batch holds
the four-variable instance.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    details = HERE / "out" / f"{workload}-seed1-trace{trace}.json"
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(details.read_text())["result"]


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in bench["per_layer"]]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    problems = []
    for workload in WORKLOADS:
        line, _ = run(workload, 0)
        if not line["correct"]:
            problems.append(f"{workload}: untraced run not correct")
        if list(line["metrics"]) != end_to_end:
            problems.append(f"{workload}: untraced metrics differ from BENCHMARK.json")
        line, result = run(workload, 1)
        if not line["correct"]:
            problems.append(f"{workload}: traced run not correct")
        if result["absent_spans"]:
            problems.append(f"{workload}: spans not found {result['absent_spans']}")
        if result["home_spans_missing"]:
            problems.append(f"{workload}: spans did not fire {result['home_spans_missing']}")
        if list(line["metrics"]) != per_layer:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json")
        print(f"{workload}: checked ({line['attempted']} job runs)")
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
