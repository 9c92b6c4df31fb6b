"""Golden reports of every scenario through every scenario subcommand.

`scenario_commands.json` holds, for each of the 6 shipped scenarios and
each of `analyze`, `quotient`, `blowup` and `blowup --with-quotient`, the
exit code, stdout, stderr and JSON report of the command, run from the
repository root on `scenarios/<name>.uhat`.  A change that keeps every
report byte-identical leaves each run equal to its record.  To re-record
after a deliberate change of a report:

    PYTHONPATH=src python tests/test_scenario_commands.py --record
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
