"""The benchmark's workloads: how each is set up, its jobs and their reports.

Each workload is a fixed batch of jobs, run one after another in a single
process.  A job's `run` is the timed part; `outcome` turns what it returned
into (exit codes, certificate flags, report), which the worker checks
outside the timed region.

- `scenarios`: every file in `scenarios/` through `uhat analyze` and then
  its route, via `uhat.cli.main` with `--json`: `quotient` when the
  constant-rank condition holds, `blowup --with-quotient` otherwise.
- `sweep`: the first SWEEP_COUNT random rank-dropping two-weight actions
  from generator seed SWEEP_SEED, each through centre, construct_b,
  build_chart, verify_chart_cdrs and beta_check.  The seventh is the first
  four-variable instance, whose chart syzygy computation dominates.
- `identities`: `uhat identities` at the sizes in IDENTITY_JOBS, with the
  workload seed choosing the random weight tuples (the report does not
  depend on them).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from types import SimpleNamespace

import sweepgen

MODULES = ("rings", "lie", "infinitesimal", "quotient", "blowup", "scenario", "cli")

SWEEP_SEED = 1
SWEEP_COUNT = 7

IDENTITY_JOBS = {
    "letters3-total6": ["--letters", "3", "--max-total", "6"],
    "letters4-total5": ["--letters", "4", "--max-total", "5"],
    "letters2-total9": ["--letters", "2", "--max-total", "9"],
    "comult8": ["--letters", "2", "--max-total", "4", "--comult-degree", "8"],
}


def forget_uhat():
    """Drop every loaded `uhat` module so the next import starts afresh."""
    for key in [k for k in sys.modules if k == "uhat" or k.startswith("uhat.")]:
        del sys.modules[key]


def import_uhat():
    return SimpleNamespace(**{m: importlib.import_module(f"uhat.{m}") for m in MODULES})


def canonical(report):
    """Reports compare as JSON with sorted keys, so key order never counts."""
    plain = json.loads(json.dumps(report, default=str))
    return json.dumps(plain, sort_keys=True)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli(cli, argv, json_path):
    """Run one `uhat` command in-process; its printed tree is discarded."""
    json_path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--json", str(json_path)])


class ScenarioJob:
    def __init__(self, uhat, path, out_dir):
        self.cli = uhat.cli
        self.path = path
        self.name = path.rsplit("/", 1)[-1].removesuffix(".uhat")
        self.info = {"name": self.name, "file": path}
        self.analyze_json = out_dir / f"{self.name}.analyze.json"
        self.route_json = out_dir / f"{self.name}.route.json"

    def run(self):
        code = _cli(self.cli, ["analyze", "--scenario", self.path], self.analyze_json)
        if _read_json(self.analyze_json)["cdrs"]["holds"]:
            argv = ["quotient", "--scenario", self.path]
        else:
            argv = ["blowup", "--scenario", self.path, "--with-quotient"]
        return [code, _cli(self.cli, argv, self.route_json)], argv[0]

    def outcome(self, raw):
        codes, route = raw
        routed = _read_json(self.route_json)
        if route == "quotient":
            flags = {"verification.ok": routed["verification"]["ok"]}
        else:
            chart = routed.get("chart_cdrs", {})
            flags = {
                "chart_cdrs.holds": chart.get("holds"),
                "chart_cdrs.certificate_ok": chart.get("certificate_ok"),
                "chart_quotient.verification_ok": routed.get("chart_quotient", {}).get(
                    "verification_ok"
                ),
            }
        return codes, flags, {"analyze": _read_json(self.analyze_json), route: routed}


class SweepJob:
    def __init__(self, uhat, index, ring, table):
        self.uhat = uhat
        self.ring = ring
        self.table = table
        self.name = f"sweep-{index}"
        self.info = {"name": self.name, "variables": list(ring.names)}

    def run(self):
        rings, lie, bl = self.uhat.rings, self.uhat.lie, self.uhat.blowup
        # A fresh action per run, so nothing cached on it carries over.
        lie_algebra = lie.GradedLieAlgebra([2, 1], [["a1"], ["b1"]])
        action = lie.DerivationAction(rings.PresentedAlgebra(self.ring), lie_algebra, self.table)
        cd = bl.centre(action)
        els = bl.construct_b(action, cd)
        chart = bl.build_chart(action, cd, els)
        chart_report = bl.verify_chart_cdrs(chart)
        beta_ok = True
        for level, bs in els.per_level.items():
            w = action.lie.weights[level - 1]
            for mu in range(len(bs)):
                for p in action.lie.pbw_monomials_of_weight(w, exact=True):
                    beta_ok = beta_ok and bl.beta_check(action, cd, els, level, mu, p)
        return cd, els, chart, chart_report, beta_ok

    def outcome(self, raw):
        cd, els, chart, chart_report, beta_ok = raw
        flags = {
            "chart_cdrs.holds": chart_report["holds"],
            "chart_cdrs.certificate_ok": chart_report["certificate_ok"],
            "beta_check": beta_ok,
        }
        report = {
            "variables": list(self.ring.names),
            "k_vector": list(cd.k_vector),
            "distinguished_element": str(cd.a),
            "centre_ideal": [str(g) for g in cd.centre_ideal.generators],
            "elements": {
                f"level_{i}": [str(b) for b in bs] for i, bs in sorted(els.per_level.items())
            },
            "chart_generators": [[n, str(g)] for n, g in chart.generators],
            "chart_relations": [str(g) for g in chart.algebra.relations.generators],
            "chart_cdrs": chart_report,
            "beta_check": beta_ok,
        }
        return [], flags, report


class IdentitiesJob:
    def __init__(self, uhat, name, args, seed, out_dir):
        self.cli = uhat.cli
        self.name = name
        self.argv = ["identities", *args, "--seed", str(seed)]
        self.info = {"name": name, "argv": self.argv}
        self.json_path = out_dir / f"{name}.json"

    def run(self):
        return [_cli(self.cli, self.argv, self.json_path)]

    def outcome(self, raw):
        report = _read_json(self.json_path)
        return raw, {"identities.ok": report["ok"]}, report


def setup_scenarios(uhat, root, seed, out_dir):
    """Load, build and validate every scenario file."""
    jobs = []
    for path in sorted((root / "scenarios").glob("*.uhat")):
        rel = path.relative_to(root).as_posix()
        uhat.scenario.load_scenario(rel).build()
        jobs.append(ScenarioJob(uhat, rel, out_dir))
    if not jobs:
        raise RuntimeError("no scenario files found under scenarios/")
    return jobs


def setup_sweep(uhat, root, seed, out_dir):
    """Generate the fixed batch of sweep actions."""
    jobs = []
    gen_seed = SWEEP_SEED
    for index in range(SWEEP_COUNT):
        ring, table, gen_seed = sweepgen.sample(uhat, gen_seed)
        jobs.append(SweepJob(uhat, index, ring, table))
    if not any(len(job.ring.names) == 4 for job in jobs):
        raise RuntimeError("the sweep batch lost its four-variable instance")
    return jobs


def setup_identities(uhat, root, seed, out_dir):
    """Build the Lie algebras `uhat identities` checks the coefficient laws on."""
    lie = uhat.lie
    algebras = [
        lie.GradedLieAlgebra([1], [["e"]]),
        lie.GradedLieAlgebra([1], [["e1", "e2"]]),
        lie.GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}}),
    ]
    for algebra in algebras:
        if list(algebra.structure_violations()):
            raise RuntimeError("a built-in Lie algebra is malformed")
    return [IdentitiesJob(uhat, n, a, seed, out_dir) for n, a in IDENTITY_JOBS.items()]


WORKLOADS = {
    "scenarios": setup_scenarios,
    "sweep": setup_sweep,
    "identities": setup_identities,
}
