import argparse
import collections
import gc
import itertools
import json
import math
import os
import pathlib
import random
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import uhat.lie
from uhat import cli
from uhat.cli import _comult_lemma_failures, main
from uhat.lie import GradedLieAlgebra, comult_coefficients
from uhat.rings import GradedRing
from uhat.quotient import DEGREE_BOUND
from uhat.scenario import (
    ScenarioError,
    load_scenario,
    parse_polynomial,
    parse_scenario,
)

from oracles import comult_lemma_failures_reference

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


# -- polynomial expressions


def test_parse_polynomial_basics():
    R = GradedRing(["x", "y"], [0, -1])
    p = parse_polynomial("2*x^2*y - 1/3", R)
    assert str(p) == "2*x^2*y - 1/3"
    assert parse_polynomial("-(x + y)", R) == -(R.var("x") + R.var("y"))
    assert parse_polynomial("0", R).is_zero()


def test_parse_polynomial_errors_carry_position():
    R = GradedRing(["x"], [0])
    with pytest.raises(ScenarioError) as err:
        parse_polynomial("x + w", R, line=12)
    assert err.value.line == 12
    with pytest.raises(ScenarioError):
        parse_polynomial("x ^ y", R)
    with pytest.raises(ScenarioError):
        parse_polynomial("1/0", R)


def test_polynomial_round_trip():
    R = GradedRing(["x", "y", "z"], [0, -1, -2])
    for text in ["x", "x - y", "2*x^3 - 1/2*y*z + 7", "-x + y^2"]:
        p = parse_polynomial(text, R)
        assert parse_polynomial(str(p), R) == p


# -- scenario files


def test_fixture_files_parse_and_build():
    for path in sorted(SCENARIOS.glob("*.uhat")):
        scenario = load_scenario(path)
        action = scenario.build()
        assert action.validate() == []


def test_scenario_sources_are_parsed_once(monkeypatch):
    import uhat.scenario as sc

    parsed = []
    genuine = sc.parse_polynomial

    def counting(text, ring, *position):
        parsed.append(text)
        return genuine(text, ring, *position)

    monkeypatch.setattr(sc, "parse_polynomial", counting)
    path = SCENARIOS / "heisenberg_scaled.uhat"
    scenario = load_scenario(path)
    scenario.build()
    brackets = path.read_text().count("\nbracket ")
    assert brackets == 1
    sources = brackets + len(scenario.relations)
    sources += sum(len(row) for row in scenario.action_table.values())
    assert len(parsed) == sources


def test_semantic_error_names_the_vector():
    bad = """
[ring]
variables: x:0, y:-1

[lie]
weight 1: xi

[action]
xi.y = y
"""
    scenario = parse_scenario(bad)
    with pytest.raises(ScenarioError) as err:
        scenario.build()
    assert "action-weight" in str(err.value)


def test_syntax_error_positions():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[ring]\nvariables: x:zero\n")
    assert err.value.line == 2
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[ring]\nvariables: x:1\n")
    assert "positive weight" in str(err.value)


def test_empty_lie_block_is_valid():
    text = """
[ring]
variables: x:0

[lie]

[action]
"""
    scenario = parse_scenario(text)
    action = scenario.build()
    assert action.lie.dim == 0
    assert action.validate() == []


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[nope]\n")


def test_inhomogeneous_relation_rejected():
    text = """
[ring]
variables: x:0, y:-1

[relations]
x + y

[lie]
weight 1: xi

[action]
xi.y = x
"""
    scenario = parse_scenario(text)
    with pytest.raises(ScenarioError) as err:
        scenario.build()
    assert "weight-homogeneous" in str(err.value)


def test_homogeneous_relation_accepted():
    text = """
[ring]
variables: x:0, y:-1

[relations]
x^3 - x^2

[lie]
weight 1: xi

[action]
xi.y = x
"""
    scenario = parse_scenario(text)
    action = scenario.build()
    assert action.validate() == []


# -- CLI behaviour


def run_cli(*args):
    return main(list(args))


def run_cli_process(*args, hash_seed=0):
    """Run `python -m uhat.cli` in a fresh interpreter with the source tree importable."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, "-m", "uhat.cli", *args], capture_output=True, text=True, env=env
    )


def test_analyze_ok(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "analyze", "--scenario", str(SCENARIOS / "one_weight.uhat"), "--json", str(out)
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["ss_eq_s"]["holds"] is False
    assert data["cdrs"]["holds"] is False
    assert data["wuu"]["holds"] is True


def test_quotient_refuses_failing_chart(capsys):
    code = run_cli("quotient", "--scenario", str(SCENARIOS / "one_weight.uhat"))
    assert code == 1
    out = capsys.readouterr().out
    assert "blowup" in out


def test_blowup_refuses_holding_chart(capsys):
    code = run_cli("blowup", "--scenario", str(SCENARIOS / "one_weight_free.uhat"))
    assert code == 1
    out = capsys.readouterr().out
    assert "quotient" in out


NILPOTENT_HEAD = """[ring]
variables: x:0, u:0, y0:-1, z0:-2, z1:-2
[relations]
u^2
[lie]
weight 2: a1
weight 1: b1
[action]
"""


@pytest.mark.parametrize(
    "action, reason",
    [
        # every level-1 minor is a multiple of x*u, so a = x^2*u is nilpotent
        (
            "a1.z1 = -x*u\nb1.y0 = -x\nb1.z0 = u*y0\nb1.z1 = -u*y0 + 2*y0\n",
            "the witness product is nilpotent modulo the relations: the chart is empty",
        ),
        ("a1.z0 = x*u\na1.z1 = x\nb1.y0 = x*u\n", "the witness product is zero modulo the relations"),
    ],
    ids=["nilpotent", "zero"],
)
def test_blowup_refuses_a_witness_product_with_an_empty_chart(tmp_path, capsys, action, reason):
    path = tmp_path / "nilpotent.uhat"
    path.write_text(NILPOTENT_HEAD + action)
    assert run_cli("analyze", "--scenario", str(path)) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("blowup", "--scenario", str(path), "--with-quotient", "--json", str(report)) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"refused: {reason}\n")
    # the refusal writes its report, as the other refusals do
    assert json.loads(report.read_text()) == {
        "command": "blowup",
        "scenario": str(path),
        "refused": reason,
    }


def test_missing_file_is_input_error():
    assert run_cli("analyze", "--scenario", "/nonexistent/file") == 2


def test_directory_as_scenario_is_input_error(tmp_path, capsys):
    assert run_cli("analyze", "--scenario", str(tmp_path)) == 2
    out = capsys.readouterr()
    assert out.err.startswith("input error") and not out.out


def test_non_utf8_scenario_is_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.uhat"
    bad.write_bytes("[ring]\n# poids \xe9\nvariables: x:0\n".encode("latin-1"))
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    assert run_cli("analyze", "--scenario", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "UTF-8" in err, err


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "--scenario", str(SCENARIOS / "one_weight_free.uhat")),
        ("identities", "--letters", "1", "--max-total", "1", "--comult-degree", "1"),
    ],
    ids=["analyze", "identities"],
)
def test_json_path_that_is_a_directory_is_input_error(tmp_path, capsys, args):
    assert run_cli(*args, "--json", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("input error")


@pytest.mark.parametrize("combo", ["-c", "c"], ids=["antisymmetric", "conflicting"])
def test_reversed_bracket_is_a_duplicate_at_its_line(combo):
    head = "[ring]\nvariables: x:0\n\n[lie]\nweight 2: c\nweight 1: a, b\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(head + f"bracket [a, b] = c\nbracket [b, a] = {combo}\n")
    assert str(err.value) == "duplicate bracket [b, a] (line 8)"


def test_second_order_line_is_a_duplicate_at_its_line(tmp_path, capsys):
    text = "[ring]\norder: lex\norder: weighted:1,2\nvariables: x:0, y:-1\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == "duplicate ring order (line 3)"
    bad = tmp_path / "bad.uhat"
    bad.write_text(text + "\n[lie]\nweight 1: xi\n\n[action]\nxi.y = x\n")
    assert run_cli("analyze", "--scenario", str(bad)) == 2
    assert "duplicate ring order (line 3)" in capsys.readouterr().err


def test_bad_scenario_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.uhat"
    bad.write_text("[ring]\nvariables: x:0\n\n[lie]\nweight 1: xi\n\n[action]\nxi.x = x\n")
    assert run_cli("analyze", "--scenario", str(bad)) == 2
    # malformed [ring] entries are reported with their line, not a traceback
    tail = "\n[lie]\nweight 1: xi\n\n[action]\nxi.x = y\n"
    for ring in [
        "order: foo\nvariables: x:0, y:-1, z:-2\n",
        "order: weighted:\nvariables: x:0, y:-1, z:-2\n",
        "order: weighted:1,-2,0\nvariables: x:0, y:-1, z:-2\n",
        "order: weighted:1\nvariables: x:0, y:-1, z:-2\n",
        "variables: x:0, y:-1, y:-2\n",
        "variables: x:0, y:-1, @e0:-2\n",
        "order: elim:7\nvariables: x:0, y:-1, z:-2\n",
        "order: pot1:degrevlex\nvariables: x:0, y:-1, z:-2\n",
        "order: degrevlex:junk\nvariables: x:0, y:-1, z:-2\n",
        "variables: :0, y:-1\n",
        "variables: x y:0\n",
        "variables: 1x:0, y:-1\n",
    ]:
        bad.write_text("[ring]\n" + ring + tail)
        capsys.readouterr()
        assert run_cli("analyze", "--scenario", str(bad)) == 2, ring
        err = capsys.readouterr().err
        assert err.startswith("input error") and "(line 2)" in err, err
    # so are brackets the Lie algebra rejects, at its [lie] header, and a
    # bracket given twice, at its second line
    head = "[ring]\nvariables: x:0, y:-1, z:-2\n\n[lie]\nweight 2: xi1\nweight 1: xi2\n"
    for lie, line in [
        ("bracket [xi2, xi2] = xi1\n", 4),
        ("bracket [xi1, xi2] = 0\nbracket [xi2, xi1] = xi1\n", 8),
        ("bracket [xi1, xi2] = 0\nbracket [xi1, xi2] = 0\n", 8),
    ]:
        bad.write_text(head + lie + "\n[action]\nxi2.y = x\n")
        capsys.readouterr()
        assert run_cli("analyze", "--scenario", str(bad)) == 2, lie
        err = capsys.readouterr().err
        assert err.startswith("input error") and f"(line {line})" in err, err
    # and so is a basis vector name that a bracket combination cannot read back
    for name in ["a b", "2a"]:
        bad.write_text(head.replace("weight 1: xi2", f"weight 1: xi2, {name}") + "\n[action]\nxi2.y = x\n")
        capsys.readouterr()
        assert run_cli("analyze", "--scenario", str(bad)) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("input error") and "(line 6)" in err, err
    # a section the format does not have is reported with its line
    bad.write_text(head + "\n[options]\npbw_bound = 6\n")
    capsys.readouterr()
    assert run_cli("analyze", "--scenario", str(bad)) == 2
    err = capsys.readouterr().err
    assert err == "input error: unknown section [options] (line 8)\n", err


def test_zero_denominator_in_a_bracket_is_input_error(tmp_path, capsys):
    text = "[ring]\nvariables: x:0\n\n[lie]\nweight 2: a\nweight 1: b\nbracket [a, b] = 1/0 a\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (7, 20)  # the column of the "0" in its line
    bad = tmp_path / "bad.uhat"
    bad.write_text(text)
    assert run_cli("analyze", "--scenario", str(bad)) == 2
    assert "zero denominator (line 7, column 20)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        # a bracket combination is a linear polynomial in the basis vectors
        ("bracket [a, b] = c - - d\n", "unexpected character '-' (line 7, column 22)"),
        ("bracket [a, b] = c d\n", "trailing input 'd' (line 7, column 20)"),
        ("bracket [a, b] = c +\n", "unexpected end of expression (line 7, column 21)"),
        ("bracket [a, b] = - - c\n", "unexpected character '-' (line 7, column 20)"),
        (
            "bracket [a, b] = c + 1\n",
            "bracket combination 'c + 1' is not linear in the basis vectors (line 7, column 18)",
        ),
        (
            "bracket [a, b] = c*d\n",
            "bracket combination 'c*d' is not linear in the basis vectors (line 7, column 18)",
        ),
        # '²'.isdigit() holds, but int('²') raises: numbers take decimal digits only
        ("[relations]\nx - ²\n", "unexpected character '²' (line 8, column 5)"),
        ("[action]\nb.y = ²*x\n", "unexpected character '²' (line 8, column 7)"),
        ("[action]\nb.y = x^²\n", "expected an integer exponent (line 8, column 9)"),
        ("bracket [a, b] = ²*c\n", "unexpected character '²' (line 7, column 18)"),
    ],
    ids=[
        "bracket-doubled-sign",
        "bracket-juxtaposed-names",
        "bracket-dangling-operator",
        "bracket-leading-doubled-sign",
        "bracket-constant-term",
        "bracket-quadratic-term",
        "superscript-in-relation",
        "superscript-in-action-entry",
        "superscript-exponent",
        "superscript-in-bracket",
    ],
)
def test_malformed_expression_is_input_error_at_its_column(tmp_path, capsys, entry, message):
    text = "[ring]\nvariables: x:0, y:-1\n\n[lie]\nweight 2: c, d\nweight 1: a, b\n" + entry
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message
    bad = tmp_path / "bad.uhat"
    bad.write_text(text)
    assert run_cli("analyze", "--scenario", str(bad)) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


# one line of this scenario at a time takes a random fragment in place of its default
FUZZED_SCENARIO = """[ring]
variables: x:0, y:-1, w:{weight}
[relations]
{relation}
[lie]
weight {block}
weight 1: b
bracket [a, b] = {bracket}
[action]
b.y = {action}
"""
FUZZ_DEFAULTS = {
    "weight": "-2",
    "relation": "",
    "block": "2: a",
    "bracket": "0",
    "action": "x",
}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(FUZZ_DEFAULTS)), st.text("xywab019 +-*/^():,²٣½é", max_size=8))
def test_scenario_parser_raises_only_scenario_errors(slot, fragment):
    text = FUZZED_SCENARIO.format(**{**FUZZ_DEFAULTS, slot: fragment})
    try:
        parse_scenario(text).build()
    except ScenarioError:
        pass


def test_action_entry_diagnostic_gives_the_column_of_the_line():
    head = "[ring]\nvariables: x:0, y:-1\n\n[lie]\nweight 1: b\n\n[action]\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(head + "  b.y =  x + 1/0  # comment\n")
    assert (err.value.line, err.value.column) == (8, 16)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(head + "b.y = x + w\n")
    assert (err.value.line, err.value.column) == (8, 11)


@pytest.mark.parametrize(
    "section, line",
    [
        ("[action]\na.y = x^99999999999\n", 7),
        ("[relations]\nx^4294967296\n", 7),
        ("[action]\na.y = x^2147483648 * x^2147483648\n", 7),
    ],
    ids=["action-entry", "relation", "product"],
)
def test_exponent_past_the_bound_is_input_error(tmp_path, capsys, section, line):
    head = "[ring]\nvariables: x:0, y:-1\n\n[lie]\nweight 1: a\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(head + section)
    assert err.value.line == line and "not below 2**32" in str(err.value)
    bad = tmp_path / "bad.uhat"
    bad.write_text(head + section)
    for command in ("analyze", "quotient", "blowup"):
        capsys.readouterr()
        assert run_cli(command, "--scenario", str(bad)) == 2, command
        assert capsys.readouterr().err.startswith("input error"), command


@pytest.mark.parametrize(
    "entries, message",
    [
        ("bracket [a, q] = a\n", "unknown basis vector 'q' in bracket (line 7)"),
        ("bracket [b, d] = a\nbracket [a, b] = q\n", "unknown name 'q' (line 8, column 18)"),
        (
            "\n[action]\nb.y = x\n\nc.y = x\nc.x = y\n",
            "unknown basis vector 'c' in action table (line 11)",
        ),
    ],
    ids=["bracket-argument", "bracket-combination", "action-row"],
)
def test_unknown_basis_vector_diagnostic_gives_its_line(entries, message):
    head = "[ring]\nvariables: x:0, y:-1\n\n[lie]\nweight 2: a\nweight 1: b, d\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(head + entries)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "entries",
    [
        "degree_bound = 8",
        "degree_bound = -3",
        "degree_bound = 8\ndegree_bound = 8",
        "reduced = true",
        "sample_count = 20",
        "j_search_degree = 0",
        "seed = 1",
        "seed = 1\nseed = 1",
    ],
    ids=[
        "degree_bound", "negative-degree_bound", "repeated-degree_bound",
        "reduced", "sample_count", "j_search_degree", "seed", "repeated-seed",
    ],
)
def test_option_error_is_input_error_at_its_line(tmp_path, capsys, entries):
    # the search bound is the --degree-bound flag alone: an [options]
    # section, whatever it holds, is unknown at its header's line
    text = "[ring]\nvariables: x:0, y:-1\n\n[lie]\nweight 1: xi\n\n[action]\nxi.y = x\n"
    text += f"\n[options]\n{entries}\n"
    message = "unknown section [options] (line 10)"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message
    bad = tmp_path / "bad.uhat"
    bad.write_text(text)
    assert run_cli("analyze", "--scenario", str(bad)) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "lie, message",
    [
        ("weight 0: a\n", "grading weights must be positive"),
        ("weight 1: a\nweight 2: b\n", "grading weights must be strictly decreasing"),
        ("weight 1: a, a\n", "basis names must be distinct"),
    ],
    ids=["weight-zero", "increasing-weights", "repeated-name"],
)
def test_lie_block_error_gives_its_header_line(tmp_path, capsys, lie, message):
    text = "[ring]\nvariables: x:0, y:-1\n\n[lie]\n" + lie
    message = f"bad lie block: {message} (line 4)"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message
    bad = tmp_path / "bad.uhat"
    bad.write_text(text)
    assert run_cli("analyze", "--scenario", str(bad)) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_readme_scenario_example_parses_and_builds():
    # the documented format is the parsed one: README's one example builds
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert readme.count("```ini\n") == 1
    parse_scenario(readme.split("```ini\n")[1].split("```")[0]).build()


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # every `uhat ...` line of README's "Command line" block exits 0, so a
    # flag that leaves the CLI cannot stay in the docs; files land in tmp_path
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n")[1].split("```sh\n")[1].split("```")[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("uhat ")]
    assert len(commands) == 4
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [str(ROOT / a) if a.startswith("scenarios/") else a for a in argv[1:]]
        assert main(argv) == 0, argv


def test_negative_degree_bound_flag_is_input_error(capsys):
    path = str(SCENARIOS / "one_weight_free.uhat")
    assert run_cli("quotient", "--scenario", path, "--degree-bound", "-3") == 2
    assert capsys.readouterr().err.startswith("input error: --degree-bound")


def test_bound_exhaustion_exit_code(tmp_path):
    # slices of the free fixture need degree 1; a zero bound cannot find them
    code = run_cli(
        "quotient",
        "--scenario",
        str(SCENARIOS / "one_weight_free.uhat"),
        "--degree-bound",
        "0",
    )
    assert code == 3


@pytest.mark.parametrize("command", ["analyze", "blowup"])
def test_computed_exponent_past_the_bound_is_bound_exhaustion(tmp_path, capsys, command):
    # every exponent parses, but the ss=s minor (and the blow-up's witness
    # minor) is x^8589934590, past the 2**32 packing bound
    path = tmp_path / "overflow.uhat"
    path.write_text(
        "[ring]\nvariables: x:0, y:-1, z:-2\n\n[lie]\nweight 2: a\nweight 1: b\n\n"
        "[action]\na.z = x^4294967295\nb.y = x^4294967295\nb.z = y\n"
    )
    assert run_cli(command, "--scenario", str(path)) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("bound exhausted: ") and out.err.count("\n") == 1, out.err


@pytest.mark.parametrize(
    "command, name, extra, code, keys",
    [
        ("quotient", "one_weight", [], 1, ["refused", "hint", "cdrs"]),
        ("blowup", "one_weight_free", [], 1, ["refused", "hint"]),
        (
            "quotient",
            "one_weight_free",
            ["--degree-bound", "0"],
            3,
            ["bound_exhausted", "bound", "condition_ok"],
        ),
        ("blowup", "one_weight", ["--degree-bound", "0"], 3, ["bound_exhausted", "bound"]),
    ],
)
def test_refusal_and_bound_reports_keep_their_keys(tmp_path, command, name, extra, code, keys):
    out = tmp_path / "report.json"
    path = str(SCENARIOS / f"{name}.uhat")
    assert run_cli(command, "--scenario", path, *extra, "--json", str(out)) == code
    data = json.loads(out.read_text())
    assert list(data) == ["command", "scenario", *keys]
    assert data["command"] == command and data["scenario"] == path


def test_blowup_exits_1_when_the_chart_quotient_fails_verification(tmp_path, monkeypatch):
    import uhat.quotient as qt

    monkeypatch.setattr(qt, "verify_quotient", lambda chain: {"ok": False})
    out = tmp_path / "blow.json"
    code = run_cli(
        "blowup",
        "--scenario",
        str(SCENARIOS / "two_weight.uhat"),
        "--with-quotient",
        "--json",
        str(out),
    )
    assert code == 1
    assert json.loads(out.read_text())["chart_quotient"]["verification_ok"] is False


def test_exhausted_chart_quotient_reports_like_every_exhaustion(tmp_path, monkeypatch, capsys):
    # blowup searches witness minors, not slices, so the one slice search
    # is the chart quotient's, and it runs out
    import uhat.quotient as qt

    def exhausted(action, level, degree_bound):
        raise qt.BoundExhausted(
            f"no slice functions of degree <= {degree_bound} at level {level}",
            degree_bound,
            condition_ok=True,
        )

    monkeypatch.setattr(qt, "find_slices", exhausted)
    out = tmp_path / "blow.json"
    path = str(SCENARIOS / "one_weight.uhat")
    assert run_cli("blowup", "--scenario", path, "--with-quotient", "--json", str(out)) == 3
    printed = capsys.readouterr()
    assert printed.err == ""
    assert "bound_exhausted: no slice functions of degree <= 8 at level 1" in printed.out
    data = json.loads(out.read_text())
    assert list(data) == ["command", "scenario", "bound_exhausted", "bound", "condition_ok"]
    assert (data["bound"], data["condition_ok"]) == (DEGREE_BOUND, True)


def test_chart_generators_skip_base_ring_names(tmp_path):
    # a base variable named t0 pushes the chart's members to t1 and t2
    text = (SCENARIOS / "one_weight.uhat").read_text(encoding="utf-8")
    path = tmp_path / "t0.uhat"
    path.write_text(text.replace("x:0", "t0:0").replace("xi.y = x", "xi.y = t0"))
    out = tmp_path / "blow.json"
    assert run_cli("blowup", "--scenario", str(path), "--with-quotient", "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert [g["name"] for g in data["chart_generators"]] == ["t1", "t2"]
    assert data["chart_cdrs"]["holds"] and data["chart_cdrs"]["certificate_ok"]
    assert data["chart_quotient"]["verification_ok"] is True


def test_non_invariant_projection_exits_1(monkeypatch):
    # an induced image that does not descend to the invariant ring (the
    # induced action rewrites none) is a failed check, not an exhausted
    # search bound
    import uhat.quotient as qt

    monkeypatch.setattr(qt.QuotientStage, "rewrite", lambda self, p: None)
    assert run_cli("quotient", "--scenario", str(SCENARIOS / "heisenberg_free.uhat")) == 1


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run_cli(
            "blowup",
            "--scenario",
            str(SCENARIOS / "two_weight.uhat"),
            "--json",
            str(out),
        )
    assert a.read_bytes() == b.read_bytes()


def test_reports_are_identical_across_hash_seeds(tmp_path):
    # each command of the route, in fresh interpreters: stdout and JSON bytes
    for argv in (
        ["analyze", "--scenario", str(SCENARIOS / "heisenberg_free.uhat")],
        ["quotient", "--scenario", str(SCENARIOS / "heisenberg_free.uhat")],
        ["blowup", "--with-quotient", "--scenario", str(SCENARIOS / "heisenberg_scaled.uhat")],
    ):
        outs = []
        for hash_seed in (0, 1):
            out = tmp_path / f"seed{hash_seed}.json"
            proc = run_cli_process(*argv, "--json", str(out), hash_seed=hash_seed)
            assert proc.returncode == 0, (argv, proc.stderr)
            outs.append((proc.stdout, out.read_bytes()))
        assert outs[0] == outs[1], argv


def test_each_relative_map_is_built_once(tmp_path, monkeypatch):
    import uhat.infinitesimal as inf

    built = []  # keeps every action alive, so ids stay unique
    genuine = inf.relative_map

    def counting(action, i):
        built.append((action, i))
        return genuine(action, i)

    monkeypatch.setattr(inf, "relative_map", counting)
    code = run_cli(
        "blowup",
        "--scenario",
        str(SCENARIOS / "two_weight.uhat"),
        "--with-quotient",
        "--json",
        str(tmp_path / "blowup.json"),
    )
    assert code == 0
    keys = [(id(action), i) for action, i in built]
    assert len({action_id for action_id, _ in keys}) > 1  # base, chart and induced actions
    assert len(keys) == len(set(keys))


def test_quotient_command_reports_chain(tmp_path):
    out = tmp_path / "chain.json"
    code = run_cli(
        "quotient", "--scenario", str(SCENARIOS / "heisenberg_free.uhat"), "--json", str(out)
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["affine_dimension"] == 3
    assert data["final_generators"] == []
    assert data["verification"]["ok"] is True


def test_blowup_with_quotient_chains(tmp_path):
    out = tmp_path / "blow.json"
    code = run_cli(
        "blowup",
        "--scenario",
        str(SCENARIOS / "two_weight.uhat"),
        "--with-quotient",
        "--json",
        str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["chart_cdrs"]["holds"] is True
    assert data["chart_quotient"]["verification_ok"] is True
    assert data["chart_quotient"]["final_generators"] == ["x"]


def test_identities_command():
    assert run_cli("identities", "--max-total", "2", "--letters", "2", "--comult-degree", "2") == 0


@pytest.mark.parametrize("flag", ["--letters", "--max-total", "--comult-degree"])
def test_negative_identities_count_is_input_error(capsys, flag):
    small = ["--letters", "1", "--max-total", "1", "--comult-degree", "1"]
    assert run_cli("identities", *small, flag, "0") == 0
    capsys.readouterr()
    assert run_cli("identities", *small, flag, "-1") == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"input error: {flag} must be >= 0") and not out.out


def test_identities_report_is_pinned_across_hash_seeds(tmp_path):
    # the README example: 20/70/170 (k, weight tuple) checks, and the comult
    # tables' entries for the additive line, plane and Heisenberg group
    outs = []
    for hash_seed in (0, 1):
        out = tmp_path / f"seed{hash_seed}.json"
        args = ("identities", "--max-total", "4", "--letters", "3", "--comult-degree", "4")
        proc = run_cli_process(*args, "--json", str(out), hash_seed=hash_seed)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    data = json.loads(outs[0])
    assert data["ok"] is True
    checked = {n: v["checked"] for n, v in data["weighted_bracket"].items()}
    assert checked == {"letters_1": 20, "letters_2": 70, "letters_3": 170}
    assert not any(v["failures"] for v in data["weighted_bracket"].values())
    entries = {g: v["entries"] for g, v in data["comult"].items()}
    assert entries == {"additive": 15, "additive_2": 70, "heisenberg": 330}
    assert not any(v["failures"] for v in data["comult"].values())


def test_identities_comult_degree_8_entries_are_pinned(tmp_path):
    out = tmp_path / "report.json"
    args = ("--letters", "2", "--max-total", "4", "--comult-degree", "8", "--json", str(out))
    assert run_cli("identities", *args) == 0
    data = json.loads(out.read_text())
    entries = {g: v["entries"] for g, v in data["comult"].items()}
    assert entries == {"additive": 45, "additive_2": 495, "heisenberg": 6435}
    assert not any(v["failures"] for v in data["comult"].values())


def test_identities_checks_every_k_once_per_weight_tuple(tmp_path):
    # k with zero entries are decided through their support instances, and
    # each still counts as checked: 5 weight tuples times C(5 + n, n) - 1 ks
    out = tmp_path / "report.json"
    args = ("--letters", "4", "--max-total", "5", "--comult-degree", "1", "--json", str(out))
    assert run_cli("identities", *args) == 0
    data = json.loads(out.read_text())
    checked = {n: v["checked"] for n, v in data["weighted_bracket"].items()}
    assert checked == {f"letters_{n}": 5 * (math.comb(5 + n, n) - 1) for n in range(1, 5)}
    assert data["ok"] is True


def test_comult_lemma_failures_name_each_broken_law():
    table = comult_coefficients(GradedLieAlgebra([1], [["e1", "e2"]]), 2)
    assert _comult_lemma_failures(table, 2) == []
    table[(2, 0)][((1, 0), (0, 0))] = Fraction(5)  # below the degree bound, and a right counit
    table[(0, 2)][((0, 0), (0, 2))] = Fraction(3)  # counit
    table[(1, 1)][((0, 1), (1, 0))] = Fraction(0)  # a step that must be nonzero
    table[(1, 1)][((1, 0), (1, 0))] = Fraction(6)  # a step that must be zero
    table[(1, 1)][((1, 0), (0, 1))] = Fraction(4)  # a step with the wrong value
    assert _comult_lemma_failures(table, 2) == [
        {"kind": "counit", "alpha": (0, 2), "gamma": (0, 2), "value": "3"},
        {"kind": "degree-bound", "alpha": (2, 0), "beta": (1, 0), "gamma": (0, 0)},
        {"kind": "counit", "alpha": (2, 0), "beta": (1, 0), "value": "5"},
        {"kind": "e_j-trichotomy", "alpha": (1, 1), "beta": (0, 1), "j": 0},
        {"kind": "e_j-trichotomy", "alpha": (1, 1), "beta": (1, 0), "j": 0},
        {"kind": "e_j-value", "alpha": (1, 1), "beta": (1, 0), "j": 0, "value": "6", "expected": 2},
        {"kind": "e_j-value", "alpha": (1, 1), "beta": (1, 0), "j": 1, "value": "4", "expected": 1},
    ]


def test_comult_lemma_failures_read_an_absent_counit_entry_as_zero():
    table = comult_coefficients(GradedLieAlgebra([1], [["e1", "e2"]]), 2)
    del table[(1, 1)][((0, 0), (1, 1))]
    assert _comult_lemma_failures(table, 2) == [
        {"kind": "counit", "alpha": (1, 1), "gamma": (1, 1), "value": "0"},
    ]


def test_comult_lemma_failures_check_the_right_counit():
    # c^alpha_{beta,0} = delta(beta, alpha), an absent c^alpha_{alpha,0} read as 0
    table = comult_coefficients(GradedLieAlgebra([1], [["e1", "e2"]]), 2)
    table[(1, 1)][((1, 1), (0, 0))] = Fraction(5)
    assert _comult_lemma_failures(table, 2) == [
        {"kind": "counit", "alpha": (1, 1), "beta": (1, 1), "value": "5"},
    ]
    del table[(1, 1)][((1, 1), (0, 0))]
    assert _comult_lemma_failures(table, 2) == [
        {"kind": "counit", "alpha": (1, 1), "beta": (1, 1), "value": "0"},
    ]


def test_comult_lemma_failures_read_an_absent_step_as_zero():
    # with every key of beta = (0, 1) gone, no beta of the row is alpha - e_0
    table = comult_coefficients(GradedLieAlgebra([1], [["e1", "e2"]]), 2)
    row = table[(1, 1)]
    for beta, gamma in [key for key in row if key[0] == (0, 1)]:
        del row[beta, gamma]
    assert _comult_lemma_failures(table, 2) == [
        {"kind": "e_j-trichotomy", "alpha": (1, 1), "beta": (0, 1), "j": 0},
    ]


def test_comult_lemma_failures_match_the_plain_loop_on_mutated_tables():
    # overwritten and added entries keep every key the plain loop reads, so
    # both must give the same failures in the same order
    rng = random.Random(35)
    values = [Fraction(v) for v in (0, 1, 2, 3, -1)] + [Fraction(1, 2)]
    groups = [
        GradedLieAlgebra([1], [["e"]]),
        GradedLieAlgebra([1], [["e1", "e2"]]),
        GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}}),
    ]
    kinds = collections.Counter()
    for lie in groups:
        n = lie.dim
        units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
        for degree in range(5):
            for _ in range(30):
                table = comult_coefficients(lie, degree)
                indices = list(table)
                for _ in range(rng.randint(1, 4)):
                    row = table[rng.choice(indices)]
                    if rng.random() < 0.5:
                        key = rng.choice(list(row))
                    else:
                        key = (rng.choice(indices), rng.choice(indices + units))
                    row[key] = rng.choice(values)
                failures = _comult_lemma_failures(table, n)
                assert failures == comult_lemma_failures_reference(table, n)
                kinds.update(f["kind"] for f in failures)
    # every law is broken somewhere over the 450 tables
    assert kinds == {"counit": 453, "e_j-value": 131, "e_j-trichotomy": 44, "degree-bound": 27}


def test_identities_bracket_memo_lasts_one_run(monkeypatch, capsys):
    memos = []
    genuine = uhat.lie.free_complete_bracket

    def spy(word, memo=None):
        if not any(m is memo for m in memos):
            memos.append(memo)
        return genuine(word, memo)

    monkeypatch.setattr(uhat.lie, "free_complete_bracket", spy)
    for _ in range(2):
        assert run_cli("identities", "--letters", "2", "--max-total", "3", "--comult-degree", "1") == 0
    # one memo per run: a second run in the same process starts from an empty memo
    assert len(memos) == 2 and None not in memos


@pytest.mark.parametrize("flag", ["--degree-bound", "--pbw-bound", "--weight-samples"])
def test_identities_rejects_scenario_bounds(flag):
    # the bounds configure scenario computations; identities has none to bound,
    # and it draws a fixed number of weight tuples
    with pytest.raises(SystemExit) as exc:
        main(["identities", flag, "1"])
    assert exc.value.code == 2


def test_analyze_rejects_degree_bound():
    # analyze searches for neither slices nor witness minors
    path = str(SCENARIOS / "one_weight.uhat")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--scenario", path, "--degree-bound", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["analyze", "quotient", "blowup"])
def test_seed_flag_is_identities_only(command):
    # a scenario report depends on its scenario file alone: the stratum
    # check's witness point comes from one fixed generator
    path = str(SCENARIOS / "one_weight_free.uhat")
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", path, "--seed", "3"])
    assert exc.value.code == 2


def test_identities_takes_a_seed():
    small = ["--letters", "1", "--max-total", "1", "--comult-degree", "1"]
    assert main(["identities", *small, "--seed", "3"]) == 0


def test_console_entry_point_runs():
    proc = run_cli_process("analyze", "--scenario", str(SCENARIOS / "one_weight_free.uhat"))
    assert proc.returncode == 0
    assert "ss_eq_s" in proc.stdout


def test_cli_leaves_no_reference_cycles():
    # the shared parser is built by the warm-up call; after it, a command
    # leaves nothing for the cyclic collector.  --json stays out: the
    # stdlib's indented json.dump encodes through recursive closures that
    # leave cycles of their own
    small = ["--letters", "2", "--max-total", "2", "--comult-degree", "2"]
    commands = [
        (["analyze", "--scenario", str(SCENARIOS / "one_weight.uhat")], 0),
        # a refusal: one_weight fails the constant-rank condition
        (["quotient", "--scenario", str(SCENARIOS / "one_weight.uhat")], 1),
        (["blowup", "--scenario", str(SCENARIOS / "heisenberg_scaled.uhat"), "--with-quotient"], 0),
        (["identities", *small], 0),
    ]
    assert main(commands[0][0]) == 0
    gc.collect()
    gc.disable()
    try:
        for argv, code in commands:
            assert main(argv) == code, argv
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_option_has_help():
    # walk the top-level parser and each subcommand's parser
    parsers = [cli._parser()]
    undocumented = []
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.option_strings and action.dest != "help" and not action.help:
                undocumented.append((parser.prog, action.option_strings))
    assert undocumented == []


def test_shared_parser_carries_nothing_between_calls(monkeypatch, capsys):
    assert cli._parser() is cli._parser()
    seen = []
    genuine = cli._load

    def spy(args):
        seen.append(args)
        return genuine(args)

    monkeypatch.setattr(cli, "_load", spy)
    path = str(SCENARIOS / "one_weight_free.uhat")
    run_cli("blowup", "--scenario", path, "--degree-bound", "3", "--with-quotient")
    run_cli("blowup", "--scenario", path)
    assert (seen[0].degree_bound, seen[0].with_quotient) == (3, True)
    assert (seen[1].degree_bound, seen[1].with_quotient) == (DEGREE_BOUND, False)
    capsys.readouterr()
    # a usage error between two identical calls leaves their reports equal
    analyze = ["analyze", "--scenario", str(SCENARIOS / "one_weight.uhat")]
    assert main(analyze) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(analyze) == 0
    assert capsys.readouterr().out == first


VERDICTS = (
    ("k_vector",),
    ("ss_eq_s", "holds"),
    ("cdrs", "holds"),
    ("chart_cdrs", "holds"),
    ("verification", "ok"),
    ("chart_quotient", "verification_ok"),
    ("affine_dimension",),
    ("chart_quotient", "affine_dimension"),
)


def route_reports(path, tmp_path):
    """Exit code and JSON report ({} when none is written) of analyze,
    quotient and blowup --with-quotient on one scenario file, run in-process."""
    out = {}
    for command in (["analyze"], ["quotient"], ["blowup", "--with-quotient"]):
        report = tmp_path / "report.json"
        report.unlink(missing_ok=True)
        code = run_cli(*command, "--scenario", str(path), "--json", str(report))
        out[command[0]] = (code, json.loads(report.read_text()) if report.exists() else {})
    return out


def route_verdicts(path, tmp_path):
    """Exit code and `VERDICTS` fields (None where absent) of each command of
    `route_reports`."""
    out = {}
    for command, (code, data) in route_reports(path, tmp_path).items():
        fields = []
        for keys in VERDICTS:
            value = data
            for key in keys:
                value = value.get(key) if isinstance(value, dict) else None
            fields.append(value)
        out[command] = (code, fields)
    return out


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.uhat")), ids=lambda p: p.stem)
def test_verdicts_do_not_depend_on_the_monomial_order(path, tmp_path, capsys):
    # Fitting ideals, unit tests and quotients are ideal-theoretic, so the
    # order only changes which bases are printed, never a verdict
    text = path.read_text()
    assert text.count("order: degrevlex\n") == 1
    nvars = load_scenario(path).ring.nvars
    want = route_verdicts(path, tmp_path)
    assert want["analyze"][0] == 0 and want["analyze"][1][0] is not None
    for order in ("lex", "weighted:" + ",".join(["1"] * nvars)):
        other = tmp_path / path.name
        other.write_text(text.replace("order: degrevlex\n", f"order: {order}\n"))
        assert load_scenario(other).ring.order == order
        assert route_verdicts(other, tmp_path) == want, order


def random_scenario_text(rng):
    """A graded scenario text: 2-4 variables of weight 0, -1 or -2, one basis
    vector for each of one to three Lie weights from 3, 2, 1, weight-homogeneous
    action entries of at most two terms of degree <= 2, and sometimes one
    relation.  It may still fail validation (the derivations need not commute)."""
    names = [f"x{i}" for i in range(rng.randint(2, 4))]
    weight = {v: rng.choice((0, -1, -2)) for v in names}
    monomials = collections.defaultdict(list)  # weight -> its monomials of degree <= 2
    for d in range(3):
        for m in itertools.combinations_with_replacement(names, d):
            monomials[sum(weight[v] for v in m)].append("*".join(m) or "1")

    def combination(w):
        terms = rng.sample(monomials[w], min(len(monomials[w]), rng.randint(1, 2)))
        return " + ".join(f"{rng.choice((1, -1, 2, '1/2'))}*{t}" for t in terms)

    lie = sorted(rng.sample((3, 2, 1), rng.randint(1, 3)), reverse=True)
    lines = ["[ring]", "variables: " + ", ".join(f"{v}:{weight[v]}" for v in names)]
    if rng.random() < 0.3:
        lines += ["[relations]", combination(rng.choice((0, -1, -2)))]
    lines += ["[lie]", *(f"weight {w}: v{w}" for w in lie), "[action]"]
    for w in lie:
        for v in names:
            if monomials[weight[v] + w] and rng.random() < 0.6:
                lines.append(f"v{w}.{v} = {combination(weight[v] + w)}")
    return "\n".join(lines) + "\n"


def test_random_valid_scenarios_keep_the_route_consistent(tmp_path, capsys):
    # every command runs on every valid text, and their verdicts agree: a
    # quotient exactly where the constant-rank condition holds, and a
    # verified blow-up chart exactly where it fails and the stratum
    # condition holds
    kinds = collections.Counter()
    for seed in range(200):
        text = random_scenario_text(random.Random(seed))
        try:
            parse_scenario(text).build()
        except ScenarioError:
            continue
        path = tmp_path / "random.uhat"
        path.write_text(text)
        reports = route_reports(path, tmp_path)
        (a_code, analyze), (q_code, _), (b_code, blowup) = reports.values()
        cdrs, wuu = analyze["cdrs"]["holds"], analyze["wuu"]["holds"]
        assert a_code == 0, text
        assert q_code == (0 if cdrs else 1), text
        assert b_code == (0 if wuu and not cdrs else 1), text
        if b_code == 0:
            assert blowup["chart_cdrs"]["holds"] and blowup["chart_cdrs"]["certificate_ok"], text
            assert blowup["chart_quotient"]["verification_ok"], text
            assert blowup["k_vector"] == analyze["k_vector"], text
        kinds["relation" if "[relations]" in text else "free", cdrs, b_code] += 1
    capsys.readouterr()
    # the texts reach each branch: with and without a relation, quotients,
    # repairs and blocked blow-ups
    assert sum(kinds.values()) >= 150, kinds
    assert kinds["free", True, 1] and kinds["relation", True, 1], kinds
    assert kinds["free", False, 0] and kinds["relation", False, 0], kinds
    assert kinds["free", False, 1] + kinds["relation", False, 1], kinds
