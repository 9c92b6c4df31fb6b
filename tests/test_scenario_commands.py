"""Golden reports of every scenario through every scenario subcommand.

`scenario_commands.json` holds, for each of the 6 shipped scenarios and
each of `analyze`, `quotient`, `blowup` and `blowup --with-quotient`, the
exit code, stdout, stderr and JSON report of the command, run from the
repository root on `scenarios/<name>.uhat`.  A change that keeps every
report byte-identical leaves each run equal to its record.  To re-record
after a deliberate change of a report:

    PYTHONPATH=src python tests/test_scenario_commands.py --record

The same commands, with sweep-script instances, also drive two checks of
the Groebner layer's memos over everything the program builds: each
S-pair remainder's lead entry, which the charts of the nilpotent sweep
family check as well, and that no polynomial changes after construction.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from uhat import rings
from uhat.rings import Polynomial

from conftest import nilpotent_sweep_sample, sweep_script
from oracles import lead_entry_reference

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "scenario_commands.json"
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.uhat"))
COMMANDS = ("analyze", "quotient", "blowup", "blowup --with-quotient")


def run(name, command):
    """{exit, stdout, stderr, report} of `uhat <command> --scenario scenarios/<name>.uhat`."""
    from uhat.cli import main

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "report.json"
        argv = command.split() + ["--scenario", f"scenarios/{name}.uhat", "--json", str(path)]
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        report = path.read_text(encoding="utf-8") if path.exists() else None
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "report": report}


def record():
    runs = {f"{name} {command}": run(name, command) for name in SCENARIOS for command in COMMANDS}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def test_every_scenario_command_has_a_record():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(SCENARIOS) == 6
    assert sorted(golden) == sorted(f"{n} {c}" for n in SCENARIOS for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_command_matches_its_record(name, command):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{name} {command}"]
    assert run(name, command) == golden


def run_sweep(count, quotients):
    """Blow up and verify the first `count` sweep-script instances from seed 1.

    With `quotients`, each chart's staged quotient is built and verified too.
    """
    from uhat.blowup import build_chart, centre, construct_b, verify_chart_cdrs
    from uhat.quotient import staged_quotient, verify_quotient

    seed = 1
    for _ in range(count):
        action, seed = sweep_script().sample(seed)
        cd = centre(action)
        chart = build_chart(action, cd, construct_b(action, cd))
        rep = verify_chart_cdrs(chart)
        assert rep["holds"] and rep["certificate_ok"], action.ring.names
        if quotients:
            assert verify_quotient(staged_quotient(chart.action))["ok"], action.ring.names


def test_every_pair_remainder_carries_its_reference_entry(monkeypatch):
    # `pair_normal_form` hands Buchberger and the module loop each nonzero
    # remainder with the lead entry built from its integer numerators; it
    # must equal the entry derived from the remainder's Fraction terms
    from uhat.blowup import VerificationFailed, build_chart, centre, construct_b

    checked = 0
    real_pair_normal_form = rings.pair_normal_form

    def pair_normal_form(f, g, lead):
        nonlocal checked
        r = real_pair_normal_form(f, g, lead)
        if r:
            assert r._entry is not None and r._entry[5] is r.ring
            assert r._entry[:5] == lead_entry_reference(r)[:5], r
            checked += 1
        return r

    monkeypatch.setattr(rings, "pair_normal_form", pair_normal_form)
    for name in SCENARIOS:
        for command in COMMANDS:
            run(name, command)
    run_sweep(40, quotients=False)
    # the first 20 charts of the family with u^2 = 0, refused ones included
    seed = 1
    for _ in range(20):
        action, seed = nilpotent_sweep_sample(seed)
        cd = centre(action)
        with contextlib.suppress(VerificationFailed):
            build_chart(action, cd, construct_b(action, cd))
    assert checked > 500


def test_no_polynomial_changes_after_construction(monkeypatch):
    # the memoised lead monomial and lead entry hold only while a
    # polynomial's terms never change: every polynomial built by the 24
    # commands and by 10 sweep instances with their chart quotients keeps
    # the terms it was constructed with
    made = []
    real_init = Polynomial.__init__

    def init(self, ring, terms, prune=True):
        real_init(self, ring, terms, prune)
        made.append((self, dict(self.terms)))

    monkeypatch.setattr(Polynomial, "__init__", init)
    for name in SCENARIOS:
        for command in COMMANDS:
            run(name, command)
    run_sweep(10, quotients=True)
    changed = [str(p) for p, terms in made if p.terms != terms]
    assert changed == [] and len(made) > 10000


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
