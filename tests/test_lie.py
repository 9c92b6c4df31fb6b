import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uhat import rings
from uhat.blowup import build_chart, centre, construct_b, verify_chart_cdrs
from uhat.quotient import staged_quotient, verify_quotient
from uhat.rings import GradedRing, Ideal, Polynomial, PresentedAlgebra
from uhat.lie import (
    DerivationAction,
    GradedLieAlgebra,
    comult_coefficients,
    free_complete_bracket,
    group_law,
    pbw_word,
    verify_commutator_identity,
    verify_weighted_bracket_identity,
)

from conftest import (
    heisenberg_free,
    heisenberg_scaled,
    one_weight_jump,
    sweep_script,
    two_weight_chain,
)
from oracles import coaction_expand, leibniz_reference, right_nullspace, validate_reference


# -- validation


def test_valid_fixture_reports_nothing(ga_jump):
    assert ga_jump.validate() == []


def test_weight_violation_reported():
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi"]])
    bad = DerivationAction(A, L, {"xi": {"y": R.var("y")}})
    report = bad.validate()
    assert report and report[0]["kind"] == "action-weight"
    assert report[0]["expected_weight"] == 0


def test_bracket_weight_violation_reported():
    L = GradedLieAlgebra([1], [["a", "b"]], {("a", "b"): {"b": 1}})
    bad = L.structure_violations()
    assert bad and bad[0]["kind"] == "bracket-weight"


def test_bracket_into_a_missing_weight_is_reported_once():
    # weights 3 and 1 have no weight 2, so [p, q] = c is reported through
    # its one component, not again for the missing weight space
    L = GradedLieAlgebra([3, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})
    assert L.structure_violations() == [
        {
            "kind": "bracket-weight",
            "pair": ("p", "q"),
            "component": "c",
            "expected_weight": 2,
            "actual_weight": 3,
        }
    ]


def test_relations_preservation_checked():
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R, Ideal(R, [R.var("x") ** 2]))
    L = GradedLieAlgebra([1], [["xi"]])
    act = DerivationAction(A, L, {"xi": {"y": R.var("x")}})
    assert act.validate() == []  # xi kills the relation x^2


def test_bracket_compatibility_violation():
    # claiming an abelian bracket while the derivations do not commute
    R = GradedRing(["x", "y", "z"], [0, -1, -2])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([2, 1], [["a"], ["b"]])
    act = DerivationAction(
        A, L, {"a": {"z": R.var("x")}, "b": {"y": R.var("x"), "z": R.var("y") * 2}}
    )
    # [a,b] = 0 must hold; check the composed action difference explicitly
    g = R.var("z")
    lhs = act.apply_basis(0, act.apply_basis(1, g)) - act.apply_basis(1, act.apply_basis(0, g))
    assert lhs.is_zero()  # both composites vanish here, so this one is valid
    assert act.validate() == []


def test_validate_compares_normal_forms_as_the_algebra_would():
    # validate compares sums of normal forms as polynomials; it must report
    # exactly what deciding each check in the algebra reports, on the
    # heisenberg_scaled chart, the first 10 sweep actions and the chart
    # with one table entry doubled
    base = heisenberg_scaled()
    cd = centre(base)
    chart = build_chart(base, cd, construct_b(base, cd)).action
    actions = [chart]
    seed = 1
    for _ in range(10):
        action, seed = sweep_script().sample(seed)
        actions.append(action)
    table = {name: dict(row) for name, row in chart.table.items()}
    table["e_p"]["p"] = table["e_p"]["p"] * 2
    broken = DerivationAction(chart.algebra, chart.lie, table)
    actions.append(broken)
    for action in actions:
        assert action.validate() == validate_reference(action)
    kinds = {e["kind"] for e in broken.validate()}
    assert kinds == {"relations-not-preserved", "bracket-compatibility"}
    assert all(action.validate() == [] for action in actions[:-1])


# -- derivations and PBW monomials


def test_apply_derivation_leibniz(ga_jump):
    R = ga_jump.ring
    assert ga_jump.apply_basis(0, R.var("y") ** 2) == 2 * R.var("x") * R.var("y")
    assert ga_jump.apply_basis(0, R.var("x")).is_zero()


def test_leibniz_terms_that_cancel_leave_no_term():
    # D(x - y) with Dx = Dy = z: the two Leibniz terms cancel in the sum
    R = GradedRing(["x", "y", "z"], [-1, -1, 0])
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    L = GradedLieAlgebra([1], [["d"]])
    act = DerivationAction(PresentedAlgebra(R), L, {"d": {"x": z, "y": z}})
    for p in (x - y, x * z - y * z, (x - y) ** 2):
        got = act.apply_basis(0, p)
        assert got.terms == {} and got == leibniz_reference(act, 0, p), p
    assert act.apply_basis(0, x * y - y) == x * z + y * z - z


def test_apply_derivation_fixture_invariant(chain3):
    R = chain3.ring
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    assert chain3.apply_basis(1, 2 * x * z - y**2).is_zero()


def test_apply_pbw_nilpotency(ga_jump):
    R = ga_jump.ring
    assert ga_jump.apply_pbw((2,), R.var("y")).is_zero()
    assert ga_jump.apply_pbw((0,), R.var("y")) == R.var("y")


def test_apply_pbw_fixture(chain3):
    R = chain3.ring
    assert chain3.apply_pbw((0, 2), R.var("z")) == R.var("x")


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
def test_apply_pbw_composes_with_single_steps(coeffs):
    act = two_weight_chain()
    R = act.ring
    monos = []
    for d in range(3):
        monos.extend(R.monomials_of_degree(d))
    p = R.zero()
    for m, c in zip(monos, coeffs):
        p = p + R.monomial(m, c)
    via_pbw = act.apply_pbw((1, 1), p)
    stepped = act.apply_basis(0, act.apply_basis(1, p))
    assert via_pbw == stepped


@pytest.mark.parametrize("bound", [4, rings.MEMO_BOUND], ids=["cleared", "full"])
def test_memoised_derivatives_match_the_leibniz_rule(monkeypatch, bound):
    # apply_basis on random polynomials, in two shuffled rounds so the second
    # is answered by the action's memo where it still holds the entry; with
    # room for 4 entries the memo is cleared many times and still answers
    # exactly.  The heisenberg_scaled chart has relations, so its
    # derivatives are reduced; the sweep actions are free
    monkeypatch.setattr(rings, "MEMO_BOUND", bound)
    rng = random.Random(bound)
    base = heisenberg_scaled()
    cd = centre(base)
    actions = [build_chart(base, cd, construct_b(base, cd)).action]
    seed = 1
    for _ in range(3):
        action, seed = sweep_script().sample(seed)
        actions.append(action)
    for action in actions:
        ring = action.ring
        monos = [m for d in range(4) for m in ring.monomials_of_degree(d)]
        polys = [ring.zero()] + [ring.var(name) for name in ring.names]
        for _ in range(12):
            terms = rng.sample(monos, rng.randint(1, 4))
            coeffs = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for _ in terms]
            polys.append(Polynomial(ring, dict(zip(terms, coeffs))))
        calls = [(i, p) for i in range(action.lie.dim) for p in polys]
        for _ in range(2):
            for i, p in rng.sample(calls, len(calls)):
                got = action.apply_basis(i, p)
                assert got == leibniz_reference(action, i, p), (i, p)
                assert action.apply_basis(i, p) is got
                # an equal copy of p is answered from the same entry
                assert action.apply_basis(i, Polynomial(ring, dict(p.terms))) is got
                assert len(action._derivatives) <= bound
    # two actions built from one scenario file share no memo
    a, b = heisenberg_scaled(), heisenberg_scaled()
    assert a._derivatives is not b._derivatives
    before = dict(b._derivatives)
    p = a.ring.var(a.ring.names[-1]) ** 3
    got = a.apply_basis(0, p)
    assert a._derivatives[(0, p)] is got and b._derivatives == before


def test_shared_derivatives_and_hashes_survive_the_blowup_route():
    # every derivative the route memoises is shared by all its callers, and
    # every hash is cached on its polynomial; after heisenberg_scaled's whole
    # blow-up route each memo entry must still equal a fresh computation and
    # each cached hash that of the current terms, so no caller mutated a
    # shared result
    base = heisenberg_scaled()
    cd = centre(base)
    chart = build_chart(base, cd, construct_b(base, cd))
    rep = verify_chart_cdrs(chart)
    assert rep["holds"] and rep["certificate_ok"]
    chain = staged_quotient(chart.action)
    assert verify_quotient(chain)["ok"]
    actions = [base] + [stage.action_in for stage in chain.stages]
    assert actions[1] is chart.action
    polys = []
    for action in actions:
        assert action._derivatives
        for (i, p), d in action._derivatives.items():
            assert d == leibniz_reference(action, i, p), (i, p)
            polys += [p, d]
    route_rings = [action.ring for action in actions]
    polys += [
        o
        for o in gc.get_objects()
        if isinstance(o, Polynomial) and any(o.ring is r for r in route_rings)
    ]
    hashed = [p for p in polys if p._hash is not None]
    assert hashed
    for p in hashed:
        assert p._hash == hash(frozenset(p.terms.items())), p


# -- complete brackets


def test_complete_bracket_identity_on_singletons():
    L = GradedLieAlgebra([1], [["xi"]])
    assert L.complete_bracket_word((0,)) == {0: Fraction(1)}


def test_complete_bracket_abelian_vanishes():
    L = GradedLieAlgebra([1], [["a", "b"]])
    assert L.complete_bracket_word((0, 1)) == {}
    assert L.complete_bracket_word(pbw_word((2, 1))) == {}


def test_complete_bracket_heisenberg_sign():
    L = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})
    assert L.complete_bracket_word((1, 2)) == {0: Fraction(1)}
    assert L.complete_bracket_word((2, 1)) == {0: Fraction(-1)}


def test_complete_bracket_preserves_weight():
    L = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})
    el = L.complete_bracket_word(pbw_word((0, 1, 1)))
    assert {L.weight_of(i) for i in el} == {2}


# -- the free-algebra identities


def test_weighted_bracket_identity_base_cases():
    ok, _ = verify_weighted_bracket_identity(1, [Fraction(5)], (1,))
    assert ok
    ok, _ = verify_weighted_bracket_identity(2, [2, 1], (1, 1))
    assert ok
    ok, _ = verify_weighted_bracket_identity(2, [3, 1], (2, 1))
    assert ok
    ok, _ = verify_weighted_bracket_identity(2, [Fraction(3, 2), Fraction(1, 3)], (2, 1))
    assert ok


def test_commutator_identity_base_cases():
    ok, _ = verify_commutator_identity(1, (0,))
    assert ok
    ok, _ = verify_commutator_identity(1, (1,))
    assert ok
    ok, _ = verify_commutator_identity(2, (1, 1))
    assert ok


def _commutator_bracket(word):
    """Reference: ad_{a_1} ... ad_{a_{m-1}}(a_m) by iterated commutators a X - X a."""
    el = {(word[-1],): 1}
    for a in reversed(word[:-1]):
        out = {}
        for w, c in el.items():
            out[(a,) + w] = out.get((a,) + w, 0) + c
            out[w + (a,)] = out.get(w + (a,), 0) - c
        el = {w: c for w, c in out.items() if c}
    return el


def _closed_form_bracket(word):
    """Reference: Reutenauer's closed form (*Free Lie Algebras*, 1993).

    The sum over subsets I of {1..m-1} of (-1)^(m-1-|I|) times the letters
    of I in order, then a_m, then the other letters in reverse order.
    """
    *head, last = word
    out = {}
    for picks in itertools.product((True, False), repeat=len(head)):
        left = tuple(a for a, p in zip(head, picks) if p)
        right = tuple(a for a, p in zip(reversed(head), reversed(picks)) if not p)
        w = left + (last,) + right
        out[w] = out.get(w, 0) + (-1) ** len(right)
    return {w: c for w, c in out.items() if c}


def test_free_complete_bracket_matches_commutator_recursion():
    rng = random.Random(11)
    memo = {}
    words = [(0, 1), (0, 0), (1, 0, 1)]
    while len(words) < 300:
        letters = rng.randint(1, 3)
        words.append(tuple(rng.randrange(letters) for _ in range(rng.randint(1, 8))))
    assert sum(len(set(w)) < len(w) for w in words) > 100  # repeated letters are covered
    for word in words:
        expected = _commutator_bracket(word)
        assert _closed_form_bracket(word) == expected, word
        assert free_complete_bracket(word) == expected, word
        assert free_complete_bracket(word, memo) == expected, word
    assert free_complete_bracket((0, 1)) == {(0, 1): 1, (1, 0): -1}
    assert free_complete_bracket((0, 0)) == {}
    assert all(type(c) is int for b in memo.values() for c in b.values())


@pytest.mark.parametrize(
    "weights",
    [[(3, 1), (1, 1), (9, 4)], [(Fraction(3, 2), Fraction(1, 3)), (Fraction(-1, 2), Fraction(5))]],
    ids=["int", "Fraction"],
)
def test_identities_fail_on_a_wrong_memoised_bracket(weights):
    # [a_0, a_1] with a stray word: every check that reads it must fail, also
    # once the weighted expansion at k is cached for the later weight tuples
    wrong = {(0, 1): 1, (1, 0): -1, (1, 1): 1}
    for k in [(1, 1), (2, 1), (1, 2)]:
        assert all(verify_weighted_bracket_identity(2, w, k, memo={})[0] for w in weights)
        memo = {(0, 1): wrong}
        for w in weights:
            ok, info = verify_weighted_bracket_identity(2, w, k, memo=memo)
            assert not ok and info["lhs"] != info["rhs"], (k, w)
    for k in [(0,), (1,), (2,)]:
        assert verify_commutator_identity(1, k, memo={})[0]
        # y is letter 1 here, so (0, 1) is [x, y], a suffix of [x^k y]] for k >= 1
        assert verify_commutator_identity(1, k, memo={(0, 1): wrong})[0] == (k == (0,))


def _ks_up_to(n, total):
    """Every k of n entries with 0 < |k| <= total."""
    return [k for k in itertools.product(range(total + 1), repeat=n) if 0 < sum(k) <= total]


def test_memoised_verdicts_equal_the_direct_ones():
    # with a memo, a k with zero entries is decided through its support
    # instance; the verdicts must be those of the direct expansion
    rng = random.Random(27)
    memo = {}
    for n in range(1, 5):
        tuples = [tuple(rng.randint(1, 9) for _ in range(n)) for _ in range(3)]
        tuples.append(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))
        for k in _ks_up_to(n, 5):
            for w in tuples:
                direct = verify_weighted_bracket_identity(n, w, k, 5)
                assert verify_weighted_bracket_identity(n, w, k, 5, memo) == direct == (True, None)
            direct = verify_commutator_identity(n, k, 5)
            assert verify_commutator_identity(n, k, 5, memo) == direct == (True, None)
    # one verdict per support instance k' and identity, kept under k' alone
    supports = {tuple(ki for ki in k if ki) for n in range(1, 5) for k in _ks_up_to(n, 5)}
    verdicts = {key: v for key, v in memo.items() if isinstance(key[0], str)}
    assert verdicts == {(kind, ks): True for kind in ("weighted", "commutator") for ks in supports}


@pytest.mark.parametrize("fraction", [False, True], ids=["int", "Fraction"])
def test_a_wrong_support_bracket_fails_every_instance_on_that_support(fraction):
    # [a_0, a_1] with a stray word, planted for the two-letter supports; a k
    # on letters i < j reads it through its support instance, although its
    # own expansion brackets a_i with a_j
    wrong = {(0, 1): 1, (1, 0): -1, (1, 1): 1}
    rng = random.Random(5)
    for n in range(2, 5):
        memo = {(0, 1): wrong}
        for k in _ks_up_to(n, 4):
            supp = [i for i, ki in enumerate(k) if ki]
            w = tuple(rng.randint(1, 9) for _ in range(n))
            if fraction:
                w = tuple(Fraction(wi, rng.randint(1, 4)) for wi in w)
            ok, info = verify_weighted_bracket_identity(n, w, k, memo=memo)
            if len(supp) == 1:
                assert ok, k
                continue
            if len(supp) == 2:
                assert not ok, (k, w)
                # the report keeps k's own letters
                assert info["k"] == k and info["weights"] == list(w)
                assert {a for word in info["lhs"] for a in word} == set(supp)
                assert (info["lhs"] != info["rhs"]) == (supp == [0, 1])
            assert verify_weighted_bracket_identity(n, w, k)[0], k
    for n in range(1, 5):
        # y is letter 1 on a one-letter support, so (0, 1) is [x, y] there
        memo = {(0, 1): wrong}
        for k in _ks_up_to(n, 4):
            ok, info = verify_commutator_identity(n, k, memo=memo)
            if sum(1 for ki in k if ki) == 1:
                assert not ok and info["k"] == k, k
                assert all(word[-1] == n for word in info["lhs"])
            assert verify_commutator_identity(n, k)[0], k


# -- coaction expansion


def test_coaction_additive_fixture(ga_jump):
    R = ga_jump.ring
    comps = dict(coaction_expand(ga_jump, R.var("y")))
    assert comps[(0,)] == R.var("y")
    assert comps[(1,)] == R.var("x")
    assert len(comps) == 2


def test_coaction_invariant_is_grouplike(ga_jump):
    R = ga_jump.ring
    comps = dict(coaction_expand(ga_jump, R.var("x")))
    assert comps == {(0,): R.var("x")}


def test_coaction_two_level_fixture(chain3):
    R = chain3.ring
    comps = dict(coaction_expand(chain3, R.var("z")))
    assert comps[(0, 0)] == R.var("z")
    assert comps[(0, 1)] == R.var("y")
    assert comps[(0, 2)] == R.var("x") * Fraction(1, 2)
    assert comps[(1, 0)] == R.var("x")


def test_coaction_components_in_uea_span(chain3):
    # every component must be a rational combination of the pbw derivatives
    R = chain3.ring
    f = R.var("z") ** 2 + R.var("y")
    comps = coaction_expand(chain3, f)
    bound = -f.min_weight()
    span = []
    for p in chain3.lie.pbw_monomials_of_weight(bound, exact=False):
        v = chain3.apply_pbw(p, f)
        if not v.is_zero():
            span.append(v)
    monos = sorted({m for q in span for m in q.terms})
    rows = [[q.terms.get(m, Fraction(0)) for q in span] for m in monos]
    for _, comp in comps:
        if comp.is_zero():
            continue
        rhs = [comp.terms.get(m, Fraction(0)) for m in monos]
        from uhat.rings import solve_linear

        assert solve_linear(rows, rhs) is not None


# -- comultiplication coefficients


def test_comult_additive_is_binomial():
    L = GradedLieAlgebra([1], [["e"]])
    table = comult_coefficients(L, 4)
    from math import comb

    for k in range(5):
        entry = table[(k,)]
        for (beta, gamma), c in entry.items():
            assert c == comb(k, beta[0])
            assert beta[0] + gamma[0] == k


def _check_table_against_law_products(L, degree):
    """Compare the table with the bounded products of the law's polynomials.

    Returns the number of product terms the bound drops.
    """
    n = L.dim
    ring, law = group_law(L)
    table = comult_coefficients(L, degree)
    alphas = [a for a in itertools.product(range(degree + 1), repeat=n) if sum(a) <= degree]
    assert sorted(table) == alphas
    dropped = 0
    for alpha in alphas:
        product = ring.one()
        for m, a in zip(law, alpha):
            product = product * m**a
        expected = {
            (m[:n], m[n:]): c
            for m, c in product.terms.items()
            if sum(m[:n]) <= degree and sum(m[n:]) <= degree
        }
        assert table[alpha] == expected, alpha
        assert all(type(c) is Fraction for c in table[alpha].values())
        dropped += len(product.terms) - len(expected)
    return dropped


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_comult_table_matches_polynomial_products(degree):
    # the table's integer products against products of the law's polynomials;
    # every Heisenberg law monomial has s- and t-degree at most 1, so none leaves the bound
    L = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})
    assert _check_table_against_law_products(L, degree) == 0


@pytest.mark.parametrize("degree, dropped", [(0, 0), (1, 2), (2, 15), (3, 74), (4, 272)])
def test_comult_table_filters_the_rows_that_can_leave_the_bound(degree, dropped):
    # [p, q] = c and [p, c] = z: a law monomial of s- or t-degree 2 (reach 2,
    # with a -1/2 coefficient), so rows with 2|alpha| above the bound are filtered
    L = GradedLieAlgebra(
        [3, 2, 1], [["z"], ["c"], ["p", "q"]], {("p", "q"): {"c": 1}, ("p", "c"): {"z": 1}}
    )
    _, law = group_law(L)
    assert max(max(sum(m[:4]), sum(m[4:])) for p in law for m in p.terms) == 2
    assert Fraction(-1, 2) in law[0].terms.values()
    assert _check_table_against_law_products(L, degree) == dropped


def test_comult_counit_axiom():
    L = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})
    table = comult_coefficients(L, 3)
    zero = (0, 0, 0)
    for alpha, entry in table.items():
        for (beta, gamma), c in entry.items():
            if beta == zero:
                assert c == (1 if gamma == alpha else 0)
            if gamma == zero:
                assert c == (1 if beta == alpha else 0)


def test_comult_degree_bound():
    L = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})
    table = comult_coefficients(L, 3)
    for alpha, entry in table.items():
        for (beta, gamma), c in entry.items():
            if c:
                assert sum(alpha) <= sum(beta) + sum(gamma)


def test_comult_single_step_trichotomy():
    L = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})
    n = 3
    table = comult_coefficients(L, 3)
    for alpha, entry in table.items():
        for j in range(n):
            ej = tuple(1 if t == j else 0 for t in range(n))
            betas = {bg[0] for bg in entry} | {
                tuple(a - e for a, e in zip(alpha, ej))
            }
            for beta in betas:
                if any(b < 0 for b in beta) or sum(alpha) != sum(beta) + 1:
                    continue
                c = entry.get((beta, ej), Fraction(0))
                if alpha == tuple(b + e for b, e in zip(beta, ej)):
                    assert c == 1 + beta[j]
                else:
                    assert c == 0


def test_comult_multiplicativity():
    L = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})
    table = comult_coefficients(L, 4)
    n = 3
    import itertools

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    a1 = (1, 0, 0)
    a2 = (0, 1, 1)
    target = table[add(a1, a2)]
    for (beta, gamma), c in target.items():
        total = Fraction(0)
        for (b1, g1), c1 in table[a1].items():
            b2 = tuple(x - y for x, y in zip(beta, b1))
            g2 = tuple(x - y for x, y in zip(gamma, g1))
            if any(v < 0 for v in b2) or any(v < 0 for v in g2):
                continue
            total += c1 * table[a2].get((b2, g2), Fraction(0))
        assert total == c


def test_comult_mixed_block_coefficient_forces_zero():
    # c^{e_j}_{beta, e_j} nonzero forces beta = 0 by the degree bound
    L = GradedLieAlgebra([1], [["e1", "e2"]])
    table = comult_coefficients(L, 2)
    for j, ej in enumerate([(1, 0), (0, 1)]):
        entry = table[ej]
        for (beta, gamma), c in entry.items():
            if gamma == ej and c:
                assert beta == (0, 0)


# -- the group law machinery


def test_group_law_additive_two_dim():
    L = GradedLieAlgebra([1], [["e1", "e2"]])
    ring, law = group_law(L)
    assert str(law[0]) in ("s0 + t0", "t0 + s0")
    assert str(law[1]) in ("s1 + t1", "t1 + s1")


def test_group_law_heisenberg_twist():
    L = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})
    ring, law = group_law(L)
    # c-coordinate picks up the commutator correction, p/q stay additive
    assert law[1] == ring.var("s1") + ring.var("t1")
    assert law[2] == ring.var("s2") + ring.var("t2")
    # xi_q xi_p = xi_p xi_q - xi_c, so s_q t_p enters the c-coordinate with sign -1
    s0, s2, t0, t1 = (ring.var(v) for v in ("s0", "s2", "t0", "t1"))
    assert law[0] == -s2 * t1 + s0 + t0
    assert str(law[0]) == "-s2*t1 + s0 + t0"


@pytest.mark.parametrize(
    "brackets",
    [{("p", "q"): {"p": 1}}, {("p", "c"): {"q": 1}}],
    ids=["pq_is_p", "pc_is_q"],
)
def test_group_law_refuses_brackets_that_break_the_grading(brackets):
    # [p, q] = p once gave a non-associative law and [p, c] = q an additive one
    lie = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], brackets)
    assert lie.structure_violations()
    with pytest.raises(ValueError):
        group_law(lie)


@pytest.mark.parametrize(
    "lie",
    [
        GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}}),
        GradedLieAlgebra(
            [3, 2, 1], [["z"], ["c"], ["p", "q"]], {("p", "q"): {"c": 1}, ("p", "c"): {"z": 1}}
        ),
    ],
    ids=["heisenberg", "three_step"],
)
def test_group_law_is_associative_with_unit(lie):
    ring, law = group_law(lie)
    n = lie.dim
    R = GradedRing([f"{x}{i}" for x in "rst" for i in range(n)], [0] * 3 * n)
    r, s, t = ([R.var(f"{x}{i}") for i in range(n)] for x in "rst")

    def m(a, b):
        values = {**{f"s{i}": a[i] for i in range(n)}, **{f"t{i}": b[i] for i in range(n)}}
        return [p.substitute(values, R) for p in law]

    assert m(m(r, s), t) == m(r, m(s, t))
    zero = [0] * n
    assert m(s, zero) == s
    assert m(zero, t) == t
