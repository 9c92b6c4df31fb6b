import json
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from uhat import rings
from uhat.cli import main
from uhat.rings import GradedRing, Ideal, PresentedAlgebra, determinant
from uhat.lie import DerivationAction, GradedLieAlgebra
from uhat.infinitesimal import check_cdrs, kernel_generators
from uhat.quotient import DEGREE_BOUND
from uhat.scenario import load_scenario, parse_polynomial, parse_scenario
from uhat.blowup import (
    BElements,
    NoBlowupNeeded,
    VerificationFailed,
    beta_check,
    build_chart,
    centre,
    check_wuu,
    construct_b,
    E_operator,
    j_membership,
    verify_chart_cdrs,
    witness_point,
)

from conftest import (
    blowup_charts,
    heisenberg_scaled,
    nilpotent_sweep_sample,
    one_weight_free,
    one_weight_jump,
    random_two_level_action,
    rank_drop_pair,
    sweep_script,
    two_weight_chain,
)
from oracles import saturation_relations, verify_determinantal_sum, verify_snake_exactness


# -- WUU


def test_wuu_jump_fixture(ga_jump):
    ok, info = check_wuu(ga_jump)
    assert ok
    assert info["k_vector"] == (0,)
    assert "witness" not in info  # the check only decides
    point = witness_point(ga_jump)
    assert point is not None
    assert point["y"] == 0


def test_wuu_two_weight(chain3):
    ok, info = check_wuu(chain3)
    assert ok and info["k_vector"] == (0, 0)


def jump_at(root, relation):
    """a.y = x - root on Q[x, y] (weights 0, -1), modulo x^2 - 4 with `relation`."""
    R = GradedRing(["x", "y"], [0, -1])
    x = R.var("x")
    A = PresentedAlgebra(R, Ideal(R, [x**2 - 4] if relation else []))
    act = DerivationAction(A, GradedLieAlgebra([1], [["a"]]), {"a": {"y": x - root}})
    assert act.validate() == []
    return act


@pytest.mark.parametrize(
    "root, relation", [(1, False), (2, True)], ids=["random-trials", "relation-skip"]
)
def test_wuu_witness_search_past_the_first_trial(root, relation):
    # trial 0's all-ones point drops the pairing's rank when root = 1 and
    # violates x^2 - 4 when root = 2, so the witness comes from the random
    # trials of the one fixed generator
    assert witness_point(jump_at(root, relation)) == {"x": -2, "y": 0}


def test_cli_witness_is_the_library_witness(tmp_path):
    # the random-trials input as a scenario file: `uhat analyze` reports the
    # witness point that witness_point finds
    path = tmp_path / "jump.uhat"
    path.write_text("[ring]\nvariables: x:0, y:-1\n[lie]\nweight 1: a\n[action]\na.y = x - 1\n")
    out = tmp_path / "analyze.json"
    assert main(["analyze", "--scenario", str(path), "--json", str(out)]) == 0
    point = witness_point(jump_at(1, False))
    assert json.loads(out.read_text())["wuu"]["witness"] == {n: str(v) for n, v in point.items()}


def test_wuu_fails_when_product_is_negative_weight():
    # xi.z = y gives Fit_0 = <y>, entirely of negative weight, so the
    # minimal-rank locus misses the weight-zero stratum
    R = GradedRing(["x", "y", "z"], [0, -1, -2])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi"]])
    act = DerivationAction(A, L, {"xi": {"z": R.var("y")}})
    assert act.validate() == []
    ok, info = check_wuu(act)
    assert not ok


# -- centre data


def test_centre_one_weight(ga_jump):
    cd = centre(ga_jump)
    assert cd.k_vector == (0,)
    w = cd.witnesses[0]
    assert [str(f) for f in w.functions] == ["y"]
    assert str(w.a) == "x"
    assert sorted(str(g) for g in cd.centre_ideal.generators) == ["x", "y"]


def test_centre_two_weight(chain3):
    cd = centre(chain3)
    assert cd.k_vector == (0, 0)
    assert [str(w.a) for w in cd.witnesses] == ["x", "x"]
    assert str(cd.a) == "x^2"
    assert sorted(str(g) for g in cd.centre_ideal.generators) == ["x^2", "y", "z"]
    assert [str(g) for g in cd.product_ideal.groebner()] == ["x^2"]


def level_one_trivial():
    """two_weight_chain with xi1 acting by zero: level 1 needs no split rows."""
    R = GradedRing(["x", "y", "z"], [0, -1, -2])
    L = GradedLieAlgebra([2, 1], [["xi1"], ["xi2"]])
    return DerivationAction(PresentedAlgebra(R), L, {"xi2": {"z": R.var("y"), "y": R.var("x")}})


def test_centre_witnesses_are_in_level_order():
    # the blow-up reads the level-i witness at index i - 1, including the
    # levels that need no split rows
    actions = [two_weight_chain(), heisenberg_scaled(), level_one_trivial()]
    seed = 1
    for _ in range(6):
        action, seed = sweep_script().sample(seed)
        actions.append(action)
    needs = []
    for action in actions:
        cd = centre(action)
        assert len(cd.witnesses) == action.lie.nlevels
        for i in range(1, action.lie.nlevels + 1):
            assert cd.witnesses[i - 1].level == i, action.ring.names
        needs += [w.need for w in cd.witnesses]
    assert 0 in needs and 2 in needs
    trivial = centre(level_one_trivial())
    assert [(w.need, str(w.a)) for w in trivial.witnesses] == [(0, "1"), (1, "x")]


def test_centre_short_circuits_when_condition_holds(ga_free):
    with pytest.raises(NoBlowupNeeded):
        centre(ga_free)


# -- sweep membership


def test_j_membership_examples(chain3):
    cd = centre(chain3)
    R = chain3.ring
    ok, _ = j_membership(chain3, cd.centre_ideal, R.var("x") * R.var("y"))
    assert ok
    bad, witness = j_membership(chain3, cd.centre_ideal, R.var("y"))
    assert not bad
    assert witness["pbw"] == (0, 1) and witness["value"] == "x"


def test_j_membership_trivial_member(chain3):
    cd = centre(chain3)
    R = chain3.ring
    ok, _ = j_membership(chain3, cd.centre_ideal, R.var("z") * R.var("y"))
    assert ok  # in the ideal with all derivatives staying inside


def test_j_membership_is_an_ideal(chain3):
    cd = centre(chain3)
    R = chain3.ring
    members = [R.var("x") * R.var("y"), R.var("x") ** 2, R.var("z") * R.var("x")]
    for g in members:
        assert j_membership(chain3, cd.centre_ideal, g)[0]
    assert j_membership(chain3, cd.centre_ideal, members[0] + members[1])[0]
    assert j_membership(chain3, cd.centre_ideal, members[0] * R.var("z"))[0]
    # accepted elements lie inside the centre ideal itself
    test = Ideal(R, list(cd.centre_ideal.generators))
    for g in members:
        assert test.contains(g)


# -- determinantal operators


def test_witness_pairing_is_the_evaluated_split_matrix():
    # the pairing each witness keeps is xi_r . f over its split rows r and
    # functions f, and its determinant is the witness minor
    for label, action, chart in blowup_charts():
        for w in chart.centre_data.witnesses:
            matrix = [[action.apply_basis(r, f) for f in w.functions] for r in w.split_rows]
            assert [list(row) for row in w.pairing] == matrix, (label, w.level)
            if w.split_rows:
                assert action.algebra.nf(determinant(matrix)) == w.a, (label, w.level)
            else:
                assert w.pairing == () and w.a == action.ring.one()


def test_E_operator_single_entry(chain3):
    cd = centre(chain3)
    w1 = cd.witnesses[0]
    xi2 = chain3.lie.index("xi2")
    out = E_operator(chain3, w1, 0, [chain3.apply_basis(xi2, f) for f in w1.functions])
    assert str(out) == "y"  # xi2 . z


def test_E_operator_repeated_row_is_delta(chain3):
    cd = centre(chain3)
    w2 = cd.witnesses[1]
    row = [chain3.apply_basis(w2.split_rows[0], f) for f in w2.functions]
    val = E_operator(chain3, w2, 0, row)
    assert chain3.algebra.equal(val, w2.a)


def test_E_operator_scalar(chain3):
    cd = centre(chain3)
    w1 = cd.witnesses[0]
    out = E_operator(chain3, w1, 0, [f * 7 for f in w1.functions])
    assert out == chain3.ring.var("z") * 7


def test_determinantal_sum_fixture(chain3):
    cd = centre(chain3)
    w2 = cd.witnesses[1]
    R = chain3.ring
    # h = y, A = xi2: both sides equal x * x
    assert verify_determinantal_sum(chain3, w2, R.var("y"), {chain3.lie.index("xi2"): Fraction(1)})


def test_determinantal_sum_trivial_cases(chain3):
    cd = centre(chain3)
    w2 = cd.witnesses[1]
    R = chain3.ring
    # h with all derivatives zero on the level
    assert verify_determinantal_sum(chain3, w2, R.zero(), {chain3.lie.index("xi2"): Fraction(1)})
    # h a witness function: Cramer expansion collapses to matrix identities
    assert verify_determinantal_sum(chain3, w2, w2.functions[0], {chain3.lie.index("xi2"): Fraction(1)})


def test_determinantal_sum_randomized(chain3):
    cd = centre(chain3)
    rng = random.Random(9)
    R = chain3.ring
    w2 = cd.witnesses[1]
    monos = chain3.algebra.standard_monomials(weight=-1, max_degree=4)
    for _ in range(8):
        h = R.zero()
        for m in monos:
            if rng.random() < 0.5:
                h = h + R.monomial(m, rng.randint(-3, 3))
        assert verify_determinantal_sum(
            chain3, w2, h, {chain3.lie.index("xi2"): Fraction(rng.randint(1, 3))}
        )


# -- the recursive elements


def test_b_elements_one_weight(ga_jump):
    cd = centre(ga_jump)
    els = construct_b(ga_jump, cd)
    assert [str(b) for b in els.per_level[1]] == ["y"]
    got = ga_jump.apply_basis(0, els.per_level[1][0])
    assert ga_jump.algebra.equal(got, cd.a)


def test_b_elements_two_weight(chain3):
    cd = centre(chain3)
    els = construct_b(chain3, cd)
    R = chain3.ring
    assert chain3.algebra.equal(els.per_level[2][0], R.var("y"))
    b1 = els.per_level[1][0]
    assert chain3.algebra.equal(b1, 2 * R.var("x") * R.var("z") - R.var("y") ** 2)
    assert chain3.algebra.equal(chain3.apply_basis(0, b1), 2 * R.var("x") ** 2)
    assert chain3.apply_pbw((0, 2), b1).is_zero()


def test_b_elements_empty_when_no_split():
    act = rank_drop_pair()
    cd = centre(act)
    els = construct_b(act, cd)
    assert len(els.per_level[1]) == 1  # need = 2 - 1 = 1 here
    # a genuinely empty case: trivial second vector only
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi"]])
    act2 = DerivationAction(A, L, {"xi": {"y": R.var("y") * 0}})
    rep = check_cdrs(act2)
    assert rep["levels"][1]["k"] == 1  # zero matrix of rank 1


def test_b_verification_catches_tampering(chain3):
    cd = centre(chain3)
    els = construct_b(chain3, cd)
    bad = BElements({1: [els.per_level[1][0] + chain3.ring.var("y")], 2: els.per_level[2]})
    from uhat.blowup import verify_b_properties

    with pytest.raises(VerificationFailed):
        verify_b_properties(chain3, cd, bad)


def test_beta_check_single_letter_reduces_to_delta(chain3):
    cd = centre(chain3)
    els = construct_b(chain3, cd)
    assert beta_check(chain3, cd, els, 2, 0, (0, 1))


def test_beta_check_exhaustive_two_weight(chain3):
    cd = centre(chain3)
    els = construct_b(chain3, cd)
    lie = chain3.lie
    for level in (1, 2):
        w = lie.weights[level - 1]
        for mu in range(len(els.per_level[level])):
            for p in lie.pbw_monomials_of_weight(w, exact=True):
                assert beta_check(chain3, cd, els, level, mu, p)


def test_beta_check_heisenberg_scaled():
    act = heisenberg_scaled()
    cd = centre(act)
    els = construct_b(act, cd)
    lie = act.lie
    # pinned by hand: b2 = (x*p, x*q), b1 = 2x^2 c - x^2 p q
    R = act.ring
    x, p, q, c = (R.var(n) for n in "xpqc")
    got2 = {str(b) for b in els.per_level[2]}
    assert got2 == {"x*p", "x*q"}
    assert act.algebra.equal(els.per_level[1][0], 2 * x**2 * c - x**2 * p * q)
    for level in (1, 2):
        w = lie.weights[level - 1]
        for mu in range(len(els.per_level[level])):
            for pexp in lie.pbw_monomials_of_weight(w, exact=True):
                assert beta_check(act, cd, els, level, mu, pexp)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_b_suite_on_random_two_level_scenarios(seed):
    action = random_two_level_action(seed)
    cd = centre(action)
    els = construct_b(action, cd)  # verifies the three properties exactly
    lie = action.lie
    for level, bs in els.per_level.items():
        w = lie.weights[level - 1]
        for mu in range(len(bs)):
            for p in lie.pbw_monomials_of_weight(w, exact=True):
                assert beta_check(action, cd, els, level, mu, p)


# -- charts


def test_chart_one_weight(ga_jump):
    cd = centre(ga_jump)
    els = construct_b(ga_jump, cd)
    chart = build_chart(ga_jump, cd, els)
    numerators = {name: str(g) for name, g in chart.generators}
    assert numerators == {"t0": "x", "t1": "y"}
    rels = [str(g) for g in chart.algebra.relations.generators]
    assert "x*t1 - y" in rels and "t0 - 1" in rels
    # the extended action: xi.(y/x) = 1
    img = chart.action.apply_basis(0, chart.algebra.ring.var("t1"))
    assert chart.algebra.equal(img, chart.algebra.ring.one())
    rep = verify_chart_cdrs(chart)
    assert rep["holds"] and rep["certificate_ok"]


def test_chart_two_weight(chain3):
    cd = centre(chain3)
    els = construct_b(chain3, cd)
    chart = build_chart(chain3, cd, els)
    numerators = {str(g) for _, g in chart.generators}
    assert "x*y" in numerators and "-y^2 + 2*x*z" in numerators
    rep = verify_chart_cdrs(chart)
    assert rep["holds"] and rep["certificate_ok"]
    for level in (1, 2):
        assert rep["levels"][level]["fit_below_zero"]
        assert rep["levels"][level]["fit_unit"]
        assert rep["levels"][level]["k"] == cd.k_vector[level - 1]


def test_chart_two_weight_kernel_generators_are_pinned(chain3):
    # the syzygy generating set depends on module_groebner's pair order, and
    # the recorded reports print minors built from it: a change shows here.
    # The level-1 map is (0, 0, x, 0, 2, 0), so column 5 is its dead
    # cofactor position: no generator is led there, and entries there are
    # reduced modulo the chart relations (t0 - 1 among them)
    cd = centre(chain3)
    chart = build_chart(chain3, cd, construct_b(chain3, cd))
    got = [tuple(str(p) for p in v) for v in kernel_generators(chart.action, 1)]
    assert got == [
        ("1", "0", "0", "0", "0", "0"),
        ("0", "1", "0", "0", "0", "0"),
        ("0", "0", "1", "0", "-1/2*x", "0"),
        ("0", "0", "-t2", "0", "1/2*y", "0"),
        ("0", "0", "-t1", "0", "-1/2*y*t2 + z", "0"),
        ("0", "0", "t0 - 1", "0", "0", "0"),
        ("0", "0", "0", "1", "0", "0"),
        ("0", "0", "0", "0", "0", "1"),
    ]


def test_chart_quotient_slices_match_hand_values(chain3):
    # stage 1 on the chart: the slice is half the fraction (2xz - y^2)/x^2;
    # stage 2 pairs the y/x fraction against the weight-one vector
    cd = centre(chain3)
    els = construct_b(chain3, cd)
    chart = build_chart(chain3, cd, els)
    from uhat.quotient import staged_quotient

    chain = staged_quotient(chart.action)
    cring = chart.algebra.ring
    stage1 = chain.stages[0]
    assert stage1.slices.functions == (cring.var("t1") * Fraction(1, 2),)
    # xi2 . (y/x) = 1 on the chart
    t_frac = next(n for n, g in chart.generators if str(g) == "x*y")
    img = chart.action.apply_basis(chain3.lie.index("xi2"), cring.var(t_frac))
    assert chart.algebra.equal(img, cring.one())
    assert chain.affine_dimension == 2
    assert chain.final_algebra.ring.names == ("x",)


def test_chart_derivations_commute_with_inclusion(chain3):
    cd = centre(chain3)
    els = construct_b(chain3, cd)
    chart = build_chart(chain3, cd, els)
    cring = chart.algebra.ring
    for i in range(chain3.lie.dim):
        for name in chain3.ring.names:
            base_img = chain3.image_of_generator(i, name).map_ring(cring)
            chart_img = chart.action.apply_basis(i, cring.var(name))
            assert chart.algebra.equal(base_img, chart_img)


def test_chart_trivial_blowup_is_identity():
    # J generated by a alone: the chart is the original algebra
    act = one_weight_jump()
    cd = centre(act)
    empty = BElements({1: []})
    chart = build_chart(act, cd, empty)
    assert [str(g) for _, g in chart.generators] == ["x"]
    rels = [str(g) for g in chart.algebra.relations.generators]
    assert rels == ["t0 - 1"]


def test_chart_rank_drop_pair_passes_with_k_one():
    act = rank_drop_pair()
    cd = centre(act)
    els = construct_b(act, cd)
    chart = build_chart(act, cd, els)
    rep = verify_chart_cdrs(chart)
    assert rep["holds"] and rep["certificate_ok"]
    assert rep["levels"][1]["k"] == 1


def test_chart_heisenberg_scaled_full_pipeline():
    act = heisenberg_scaled()
    cd = centre(act)
    els = construct_b(act, cd)
    chart = build_chart(act, cd, els)
    rep = verify_chart_cdrs(chart)
    assert rep["holds"] and rep["certificate_ok"]
    # and the repaired chart admits the staged quotient
    from uhat.quotient import staged_quotient, verify_quotient

    chain = staged_quotient(chart.action)
    assert verify_quotient(chain)["ok"]
    assert chain.affine_dimension == 3
    assert chain.final_algebra.ring.names == ("x",)


def test_seeded_chart_elimination_matches_the_plain_saturation():
    # build_chart seeds its elimination with t0 - 1 for a*t0 - nf(a),
    # adjoins the inverse to a's reduced form and divides the other
    # generators by their monomial content in a's variables; the reduced
    # basis must be that of the plain saturation, on the shipped charts, on
    # the same scenarios under lex and weighted orders, whose chart ring is
    # still degrevlex, and on the first 40 sweep-script instances from seed 1
    charts = []
    for name in ("one_weight", "two_weight", "rank_drop_pair", "heisenberg_scaled"):
        path = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.uhat"
        scenario = load_scenario(path)
        charts.append((name, scenario.build()))
        text = path.read_text(encoding="utf-8")
        assert "order: degrevlex\n" in text
        for order in ("lex", "weighted:" + ",".join(["1"] * scenario.ring.nvars)):
            action = parse_scenario(text.replace("order: degrevlex\n", f"order: {order}\n")).build()
            assert action.ring.order == order
            charts.append((f"{name} {order}", action))
    seed = 1
    for i in range(40):
        action, seed = sweep_script().sample(seed)
        charts.append((f"sweep_{i}", action))
    for label, action in charts:
        cd = centre(action, DEGREE_BOUND)
        chart = build_chart(action, cd, construct_b(action, cd))
        assert chart.generators[0] == ("t0", action.algebra.nf(cd.a)), label
        rels = list(chart.algebra.relations.generators)
        assert rels == saturation_relations(action, chart), label
        assert chart.algebra.ring.order == "degrevlex", label


@pytest.mark.parametrize(
    "a1_z0, b1_y0, b1_z0",
    [
        ("x^2 - x", "x", "y0"),
        ("x^3 - x^2", "x^2 - x", "2*y0"),
        ("x^2*(x - 1)", "x*(x + 1)", "y0"),
    ],
)
def test_chart_of_a_witness_product_with_monomial_content(a1_z0, b1_y0, b1_z0):
    # each witness product is a power of x times a non-monomial factor, so
    # build_chart adjoins its inverse to a reduced form and divides the
    # other generators by their powers of x; the chart relations must be
    # those of the plain saturation by a itself, and the chart must verify
    R = GradedRing(["x", "y0", "z0"], [0, -1, -2])
    L = GradedLieAlgebra([2, 1], [["a1"], ["b1"]])
    table = {"a1": {"z0": a1_z0}, "b1": {"y0": b1_y0, "z0": b1_z0}}
    table = {v: {g: parse_polynomial(p, R) for g, p in row.items()} for v, row in table.items()}
    action = DerivationAction(PresentedAlgebra(R), L, table)
    assert action.validate() == [] and not check_cdrs(action)["holds"]
    cd = centre(action)
    assert len(cd.a.terms) > 1 and all(m[0] for m in cd.a.terms), str(cd.a)
    chart = build_chart(action, cd, construct_b(action, cd))
    assert list(chart.algebra.relations.generators) == saturation_relations(action, chart)
    rep = verify_chart_cdrs(chart)
    assert rep["holds"] and rep["certificate_ok"]


def test_chart_first_generator_is_the_normal_form_of_the_witness_product():
    # build_chart refuses a zero witness product and then registers nf(a)
    # first, so a is always a chart member: t0 = nf(a)/a
    for label, action, chart in blowup_charts():
        assert chart.generators[0] == ("t0", action.algebra.nf(chart.centre_data.a)), label


def test_chart_derivation_tables_validate():
    for label, _, chart in blowup_charts():
        assert chart.action.validate() == [], label


def test_chart_kernels_are_complete_to_degree_two():
    # every degree <= 2 kernel vector of each chart level lies in the span
    # of the computed syzygy generators
    for label, _, chart in blowup_charts():
        for i in range(1, chart.action.lie.nlevels + 1):
            assert verify_snake_exactness(chart.action, i, degree=2), (label, i)


def test_blowup_repairs_every_failing_fixture():
    # on every fixture where the condition fails and WUU holds, the chart passes
    builds = (one_weight_jump, two_weight_chain, rank_drop_pair, heisenberg_scaled, level_one_trivial)
    for build in builds:
        action = build()
        assert not check_cdrs(action)["holds"]
        assert check_wuu(action)[0]
        cd = centre(action)
        els = construct_b(action, cd)
        chart = build_chart(action, cd, els)
        rep = verify_chart_cdrs(chart)
        assert rep["holds"] and rep["certificate_ok"], build.__name__


# S-pairs `buchberger` reduces during `blowup --with-quotient`; the plain
# smallest-lcm selection reduced 1144 and 134 while each quotient stage
# still ran `eliminate` on a graph ideal, and reading the stage relations
# off the slice ideal instead took the counts from 251 and 58 to 229 and
# 48; stopping `groebner_basis` at a constant, seeding the chart
# elimination with t0 - 1 and keeping each stage's reduced relations as
# its basis took them to 170 and 27; adjoining the chart's inverse to the
# witness product's reduced form and dividing the other generators of
# that elimination by their monomial content took them to the pinned counts
@pytest.mark.parametrize(
    "name, pinned, lcm_order",
    [("heisenberg_scaled", 44, 1144), ("two_weight", 15, 134)],
    ids=["heisenberg_scaled", "two_weight"],
)
def test_buchberger_s_pair_count_is_pinned(monkeypatch, capsys, name, pinned, lcm_order):
    reduced, inside = 0, False
    real_buchberger, real_pair_normal_form = rings.buchberger, rings.pair_normal_form

    def buchberger(*args, **kwargs):
        nonlocal inside
        inside = True
        try:
            return real_buchberger(*args, **kwargs)
        finally:
            inside = False

    def pair_normal_form(f, g, lead):
        nonlocal reduced
        reduced += inside
        return real_pair_normal_form(f, g, lead)

    monkeypatch.setattr(rings, "buchberger", buchberger)
    monkeypatch.setattr(rings, "pair_normal_form", pair_normal_form)
    path = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.uhat"
    assert main(["blowup", "--scenario", str(path), "--with-quotient"]) == 0
    capsys.readouterr()
    assert reduced == pinned < lcm_order


# determinants `minors_ideal_generators` expands for one command; listing the
# minors through zero rows and columns as well expanded 1532, 17 and 32
@pytest.mark.parametrize(
    "name, command, pinned, every_minor",
    [
        ("heisenberg_scaled", "blowup --with-quotient", 82, 1532),
        ("heisenberg_scaled", "analyze", 7, 17),
        ("two_weight", "blowup --with-quotient", 12, 32),
    ],
    ids=[
        "heisenberg_scaled-blowup --with-quotient",
        "heisenberg_scaled-analyze",
        "two_weight-blowup --with-quotient",
    ],
)
def test_fitting_minor_count_is_pinned(monkeypatch, capsys, name, command, pinned, every_minor):
    calls = 0
    real_determinant = rings.determinant

    def determinant(rows):
        nonlocal calls
        calls += 1
        return real_determinant(rows)

    monkeypatch.setattr(rings, "determinant", determinant)
    path = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.uhat"
    assert main([*command.split(), "--scenario", str(path)]) == 0
    capsys.readouterr()
    assert calls == pinned < every_minor


def test_random_sweep_slice_blows_up_and_verifies():
    # the first 40 instances of the sweep script from seed 1
    seed = 1
    for _ in range(40):
        action, seed = sweep_script().sample(seed)
        cd = centre(action)
        els = construct_b(action, cd)
        rep = verify_chart_cdrs(build_chart(action, cd, els))
        assert rep["holds"] and rep["certificate_ok"], action.ring.names
        for level, bs in els.per_level.items():
            w = action.lie.weights[level - 1]
            for mu in range(len(bs)):
                for p in action.lie.pbw_monomials_of_weight(w, exact=True):
                    assert beta_check(action, cd, els, level, mu, p), (action.ring.names, level, mu)


def test_nilpotent_sweep_family_refuses_or_verifies_its_chart():
    # the first 20 instances of the sweep family with u^2 = 0 from seed 1:
    # a witness product that is nilpotent or zero modulo the relations is
    # refused, and every other chart is nonempty, has the relations of the
    # plain saturation and verifies, with its certificate and its staged
    # quotient; the split is pinned
    from uhat.quotient import staged_quotient, verify_quotient

    outcomes = Counter()
    seed = 1
    for _ in range(20):
        action, seed = nilpotent_sweep_sample(seed)
        cd = centre(action)
        els = construct_b(action, cd)
        try:
            chart = build_chart(action, cd, els)
        except VerificationFailed as exc:
            outcomes[exc.args[0]] += 1
            continue
        assert not chart.algebra.is_empty(), action.ring.names
        rels = list(chart.algebra.relations.generators)
        assert rels == saturation_relations(action, chart), action.ring.names
        rep = verify_chart_cdrs(chart)
        assert rep["holds"] and rep["certificate_ok"], action.ring.names
        assert verify_quotient(staged_quotient(chart.action))["ok"], action.ring.names
        outcomes["verified"] += 1
    assert outcomes == {
        "the witness product is nilpotent modulo the relations: the chart is empty": 11,
        "the witness product is zero modulo the relations": 1,
        "verified": 8,
    }


# S-pairs `module_groebner` reduces during `blowup --with-quotient`, over all
# its calls, and how many of them leave a nonzero remainder; its pairs are
# taken last in, first out.  The chart relations that `syzygy_kernel` puts
# in the dead cofactor position pair up among themselves (45 and 6 pairs),
# and each such pair reduces to zero
@pytest.mark.parametrize(
    "name, calls, pinned, nonzero",
    [("heisenberg_scaled", 2, 126, 6), ("two_weight", 2, 27, 4)],
    ids=["heisenberg_scaled", "two_weight"],
)
def test_module_groebner_s_pair_count_is_pinned(monkeypatch, capsys, name, calls, pinned, nonzero):
    counts = {"calls": 0, "pairs": 0, "nonzero": 0}
    inside = False
    real_module_groebner, real_pair_normal_form = rings.module_groebner, rings.pair_normal_form

    def module_groebner(gens, ring, rank):
        nonlocal inside
        counts["calls"] += 1
        inside = True
        try:
            return real_module_groebner(gens, ring, rank)
        finally:
            inside = False

    def pair_normal_form(f, g, lead):
        r = real_pair_normal_form(f, g, lead)
        if inside:
            counts["pairs"] += 1
            counts["nonzero"] += bool(r)
        return r

    monkeypatch.setattr(rings, "module_groebner", module_groebner)
    monkeypatch.setattr(rings, "pair_normal_form", pair_normal_form)
    path = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.uhat"
    assert main(["blowup", "--scenario", str(path), "--with-quotient"]) == 0
    capsys.readouterr()
    assert counts == {"calls": calls, "pairs": pinned, "nonzero": nonzero}
