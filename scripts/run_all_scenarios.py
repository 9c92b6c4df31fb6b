"""Run every scenario through `uhat analyze` and then its route.

The route follows the analysis: `uhat quotient` when the constant-rank
condition holds, `uhat blowup --with-quotient` otherwise.  Each scenario
gets a one-line summary read from the JSON reports; a route counts as
verified when its command exits 0.  The exit code is 1 when a route fails
to verify; a blow-up blocked by the stratum condition (exit 1 with a `wuu`
entry in its report) is reported but is not a failure.

Usage: python scripts/run_all_scenarios.py [scenario-dir]
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from uhat.cli import main as uhat


def report(argv, out):
    """Run one `uhat` command, its printed tree discarded: (exit code, JSON report)."""
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = uhat(argv + ["--json", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else {}


def failure(code, rep):
    return rep.get("bound_exhausted") or rep.get("refused") or f"exit code {code}"


def run(path, tmp):
    t0 = time.perf_counter()
    scenario = ["--scenario", str(path)]
    code, analysis = report(["analyze", *scenario], tmp / "analyze.json")
    row = {"scenario": path.name, "k": tuple(analysis.get("k_vector", ()))}
    if code:
        row.update(route="analyze", verified=False, result=failure(code, analysis))
    elif analysis["cdrs"]["holds"]:
        code, rep = report(["quotient", *scenario], tmp / "route.json")
        row.update(route="quotient", verified=code == 0)
        if "verification" in rep:
            row["result"] = (
                f"A^U on {tuple(rep['final_generators'])}, fibre dim {rep['affine_dimension']}"
            )
    else:
        code, rep = report(["blowup", *scenario, "--with-quotient"], tmp / "route.json")
        row.update(route="blowup+quotient", verified=code == 0)
        if "wuu" in rep:
            row.update(
                route="blocked",
                verified=None,
                result="weight-zero stratum misses the minimal-rank locus",
            )
        elif "chart_quotient" in rep:
            quotient = rep["chart_quotient"]
            row["result"] = (
                f"a = {rep['distinguished_element']}; chart A^U on "
                f"{tuple(quotient['final_generators'])}, fibre dim {quotient['affine_dimension']}"
            )
    if "result" not in row:
        row["result"] = failure(code, rep)
    row["seconds"] = round(time.perf_counter() - t0, 2)
    return row


def main():
    where = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    )
    with tempfile.TemporaryDirectory() as tmp:
        rows = [run(p, pathlib.Path(tmp)) for p in sorted(where.glob("*.uhat"))]
    width = max(len(r["scenario"]) for r in rows)
    for r in rows:
        print(
            f"{r['scenario']:<{width}}  route={r['route']:<16} verified={r['verified']}  "
            f"k={r['k']}  [{r['seconds']}s]"
        )
        print(f"{'':<{width}}  {r['result']}")
    if any(r["verified"] is False for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
