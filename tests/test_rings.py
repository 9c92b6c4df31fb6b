import gc
import math
import pathlib
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uhat.rings import (
    EXP_BITS,
    FreeModuleMap,
    GradedRing,
    Ideal,
    LeadIndex,
    Polynomial,
    PresentedAlgebra,
    _decode,
    _encode,
    _position_ring,
    _update_pairs,
    buchberger,
    determinant,
    eliminate,
    groebner_basis,
    lead_entry,
    matrix_rank,
    minors_ideal_generators,
    module_groebner,
    normal_form_list,
    pair_normal_form,
    reduce_groebner,
    solve_linear,
    sparse_system,
    syzygy_kernel,
    unit_certificate,
)
from uhat import rings
from uhat.lie import GradedLieAlgebra, comult_coefficients
from uhat.scenario import parse_polynomial

from oracles import (
    integer_terms,
    lead_entry_reference,
    module_normal_form,
    reduce_groebner_reference,
    right_nullspace,
    substitute_per_term,
)


R2 = GradedRing(["x", "y"], [0, -1])
X, Y = R2.var("x"), R2.var("y")
R3 = GradedRing(["x", "y", "z"], [0, -1, -2])
HEISENBERG = GradedLieAlgebra([2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}})


def poly_from_coeffs(ring, coeffs, max_deg=3):
    monos = []
    for d in range(max_deg + 1):
        monos.extend(ring.monomials_of_degree(d))
    p = ring.zero()
    for m, c in zip(monos, coeffs):
        p = p + ring.monomial(m, c)
    return p


small_coeffs = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=10)


# -- Groebner bases


def test_zero_ideal_has_empty_basis():
    assert groebner_basis([R2.zero()]) == []
    assert Ideal(R2, []).groebner() == []


def test_unit_ideal_basis_is_one():
    gb = groebner_basis([X, X + 1])
    assert gb == [R2.one()]
    assert Ideal(R2, [X, X + 1]).is_unit()


def test_hand_buchberger_oracle():
    # computed by hand: S(x^2-y, xy-1) -> y^2-x, all further pairs reduce to 0
    gb = groebner_basis([X**2 - Y, X * Y - 1])
    assert gb == [X**2 - Y, X * Y - 1, Y**2 - X]


def test_normal_form_members_and_nonmembers():
    I = Ideal(R2, [X])
    assert I.normal_form(X**2).is_zero()
    assert I.normal_form(Y) == Y
    J = Ideal(R2, [X**2 - Y])
    assert J.normal_form(X * Y - 1) == X * Y - 1


def test_is_unit_examples():
    assert Ideal(R2, [X, 1 - X]).is_unit()
    assert not Ideal(R2, [X * Y]).is_unit()
    R1 = GradedRing(["x"], [0])
    assert not Ideal(R1, [R1.var("x") ** 2 + 1]).is_unit()


def test_unit_certificate_is_exact():
    gens = [X, R2.one() - X]
    cert = unit_certificate(gens)
    total = R2.zero()
    for c, g in zip(cert, gens):
        total = total + c * g
    assert total == R2.one()
    assert unit_certificate([X * Y, Y]) is None


def test_unit_certificate_matches_is_unit_on_random_ideals():
    # None exactly when the reduced basis is not [1]; otherwise the cofactors
    # sum to 1 exactly
    rng = random.Random(19)
    rings = [GradedRing(["x", "y"], [0, 0]), GradedRing(["x", "y", "z"], [0, 0, 0])]
    units = 0
    for _ in range(80):
        ring = rng.choice(rings)
        gens = [
            sum(
                (
                    ring.monomial(tuple(rng.randint(0, 2) for _ in ring.names), rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 3))
                ),
                ring.zero(),
            )
            for _ in range(rng.randint(2, 4))
        ]
        cert = unit_certificate(gens)
        assert (cert is not None) == Ideal(ring, gens).is_unit(), gens
        if cert is not None:
            units += 1
            assert sum((q * g for q, g in zip(cert, gens)), ring.zero()) == ring.one(), gens
    assert 0 < units < 80  # both outcomes occur


def test_unit_certificate_uses_the_first_constant_generator():
    gens = [X * Y, X + 1, R2.const(3), R2.const(-2), Y]
    z = R2.zero()
    assert unit_certificate(gens) == [z, z, R2.const(Fraction(1, 3)), z, z]


def test_results_do_not_change_when_the_inputs_are_scaled():
    # the kernel reduces with primitive integer index entries, so scaling a
    # generator g_i by c_i != 0 leaves the reduced basis as it is and
    # divides its cofactor by c_i
    ring = GradedRing(["x", "y", "z"], [0, 0, 0])
    rng = random.Random(41)
    units = 0
    for _ in range(200):
        gens = random_ideal(rng, ring, 4, rng.choice([1, 2]))
        cs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in gens]
        scaled = [g * c for g, c in zip(gens, cs)]
        assert groebner_basis(scaled) == groebner_basis(gens), gens
        cert = unit_certificate(gens)
        got = unit_certificate(scaled)
        if cert is None:
            assert got is None, gens
        else:
            units += 1
            assert got == [q * (1 / c) for q, c in zip(cert, cs)], gens
    assert 20 < units < 180  # both outcomes occur


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_groebner_and_normal_form_match_sympy(order):
    sympy = pytest.importorskip("sympy")

    ring = GradedRing(["x", "y", "z"], [0, 0, 0], order)
    syms = sympy.symbols("x y z")
    sorder = {"degrevlex": "grevlex", "lex": "lex"}[order]
    monos = [m for d in range(3) for m in ring.monomials_of_degree(d)]

    def rand_poly(rng, nterms):
        return sum(
            (ring.monomial(m, rng.choice([-3, -2, -1, 1, 2, 3])) for m in rng.sample(monos, nterms)),
            ring.zero(),
        )

    def to_sympy(p):
        coeffs = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
        return sympy.Poly.from_dict(coeffs, *syms, domain="QQ").as_expr()

    def from_sympy(expr):
        terms = sympy.Poly(expr, *syms, domain="QQ").terms()
        return sum((ring.monomial(m, Fraction(int(c.p), int(c.q))) for m, c in terms), ring.zero())

    rng = random.Random(11)
    for _ in range(39):
        gens = [rand_poly(rng, rng.randint(2, 3)) for _ in range(rng.randint(2, 3))]
        gb = groebner_basis(gens)
        oracle = sympy.groebner([to_sympy(g) for g in gens], *syms, order=sorder, domain="QQ")
        assert gb == [from_sympy(e) for e in oracle.exprs], gens
        p = rand_poly(rng, 4)
        _, rem = sympy.reduced(to_sympy(p), oracle.exprs, *syms, order=sorder, domain="QQ")
        assert normal_form_list(p, LeadIndex(gb)) == from_sympy(rem), (gens, p)


def plain_normal_form(p, basis):
    """Reference reduction: the first basis element whose lead divides wins."""
    rem = p.ring.zero()
    while p:
        m, c = p.lm(), p.lc()
        g = next((g for g in basis if g and all(a <= b for a, b in zip(g.lm(), m))), None)
        if g is None:
            rem = rem + p.ring.monomial(m, c)
            p = p - p.ring.monomial(m, c)
        else:
            p = p - g.term_mul(c / g.lc(), tuple(b - a for a, b in zip(g.lm(), m)))
    return rem


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_normal_form_list_matches_plain_reduction(order):
    # random generator lists are not Groebner bases, so the remainder depends
    # on which divisor reduces each term; module vectors are encoded over
    # the position ring, where a lead in another position never divides, so
    # the kernel scans only the popped term's position bucket and must still
    # take the first divisor of the whole list
    ring = GradedRing(["x", "y", "z", "w"], [0, -1, -1, -2], order)
    monos = [m for d in range(4) for m in ring.monomials_of_degree(d)]
    rng = random.Random(5)

    def rand_poly(nterms):
        terms = {m: Fraction(rng.choice([-3, -1, 1, 2])) for m in rng.sample(monos, nterms)}
        return Polynomial(ring, terms)

    mrings = {rank: _position_ring(ring, rank) for rank in (1, 3, 5)}

    def rand_vector(rank):
        positions = rng.sample(range(rank), min(rank, 2))
        return _encode({pos: rand_poly(2) for pos in positions}, mrings[rank], rank)

    order_matters = 0
    for _ in range(60):
        basis = [rand_poly(rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
        p = rand_poly(6) * rand_poly(2)
        got = normal_form_list(p, LeadIndex(basis))
        assert got == plain_normal_form(p, basis), (basis, p)
        order_matters += got != plain_normal_form(p, basis[::-1])
        # a remainder, and zero, are irreducible: returned themselves
        for r in (plain_normal_form(p, basis), ring.zero()):
            assert normal_form_list(r, LeadIndex(basis)) is r
        for rank, mring in mrings.items():
            vbasis = [rand_vector(rank) for _ in range(rng.randint(2, 4))]
            v = rand_vector(rank) * rand_poly(2).map_ring(mring)
            got = normal_form_list(v, LeadIndex(vbasis))
            assert got == plain_normal_form(v, vbasis), (vbasis, v)
            order_matters += got != plain_normal_form(v, vbasis[::-1])
            for r in (plain_normal_form(v, vbasis), mring.zero()):
                assert normal_form_list(r, LeadIndex(vbasis)) is r
    assert order_matters > 40


def test_lead_index_grown_by_appends_matches_plain_reduction():
    # a Buchberger loop calls LeadIndex.add once per new basis element; after each
    # call the index must reduce exactly as the list it stands for, and
    # reducing must leave it holding the buckets built from the whole basis.
    # A plain ring has the one bucket 0; over the position ring each lead
    # position has its own bucket, which lists the elements led there in
    # basis order; lex grows the same kind of bases under another order
    base = GradedRing(["x", "y", "z"], [0, -1, -2], "degrevlex")
    lex = GradedRing(base.names, base.weights, "lex")
    monos = [m for d in range(4) for m in base.monomials_of_degree(d)]
    n = base.nvars
    rng = random.Random(8)

    for ring, rank in ((base, 0), (base, 3), (lex, 0)):
        mring = _position_ring(ring, rank) if rank else ring

        def rand_poly(nterms):
            terms = {m: Fraction(rng.choice([-2, -1, 1, 3])) for m in rng.sample(monos, nterms)}
            return Polynomial(ring, terms)

        def rand_element(nterms):
            if not rank:
                return rand_poly(nterms)
            positions = rng.sample(range(rank), rng.randint(1, 2))
            return _encode({pos: rand_poly(nterms) for pos in positions}, mring, rank)

        most_buckets = 0
        for _ in range(20):
            basis, lead = [], LeadIndex()
            for _ in range(rng.randint(2, 6)):
                g = rand_element(rng.randint(1, 3))
                basis.append(g)
                assert lead.add(g) == lead_entry(g)
                for _ in range(3):
                    p = rand_element(5) * rand_poly(2).map_ring(mring)
                    assert normal_form_list(p, lead) == plain_normal_form(p, basis), (basis, p)
                assert lead.buckets == LeadIndex(basis).buckets
            parts = {g.lm()[n:] for g in basis}
            assert set(lead.buckets) == {mring.pack((0,) * n + part) for part in parts}
            for part in parts:
                bucket = lead.buckets[mring.pack((0,) * n + part)]
                assert bucket == [lead_entry(g) for g in basis if g.lm()[n:] == part]
            most_buckets = max(most_buckets, len(lead.buckets))
        assert most_buckets == (rank or 1)


def test_lead_index_reduces_by_a_divisor_appended_later():
    # x*y has no divisor among y^2; once x - y is appended, x*y goes to y^2
    # and then to zero; appending y leaves x*y with x - y, the first
    # divisor in basis order
    lead = LeadIndex([Y * Y])
    assert normal_form_list(X * Y, lead) == X * Y
    lead.add(X - Y)
    assert normal_form_list(X * Y, lead) == R2.zero()
    lead.add(Y)
    assert normal_form_list(X * Y + Y, lead) == plain_normal_form(X * Y + Y, [Y * Y, X - Y, Y])


def tuple_lcm(a, b):
    return tuple(map(max, a, b))


def quadratic_update_pairs(G, pairs, t):
    """The Gebauer-Moeller update with the pairwise rescan, as a reference."""
    lt = G[t].lm()
    cand = [(i, tuple_lcm(G[i].lm(), lt)) for i in range(t)]
    kept = []
    for pos, (i, L) in enumerate(cand):
        if all(x == 0 or y == 0 for x, y in zip(G[i].lm(), lt)):
            continue
        drop = False
        for pos2, (j, L2) in enumerate(cand):
            if pos2 == pos:
                continue
            if L2 == L and pos2 < pos:
                drop = True
                break
            if L2 != L and all(a <= b for a, b in zip(L2, L)):
                drop = True
                break
        if not drop:
            kept.append((i, t, L))
    out = []
    for i, j, L in pairs:
        divides = all(a <= b for a, b in zip(lt, L))
        if not divides or tuple_lcm(G[i].lm(), lt) == L or tuple_lcm(G[j].lm(), lt) == L:
            out.append((i, j, L))
    out.extend(kept)
    return out


def check_update_pairs(ring, leads):
    """Grow a monomial basis with these leads; after each append the word
    update's pending pairs, unpacked, equal the reference's list, and the
    new ones come last."""
    G, words, pairs, ref = [], [], {}, []
    for t, exp in enumerate(leads):
        G.append(ring.monomial(exp))
        words.append(ring.pack(exp))
        new = _update_pairs(words, pairs, ring.guard)
        ref = quadratic_update_pairs(G, ref, t)
        got = [(i, j, ring.unpack(L)) for (i, j), L in pairs.items()]
        assert got == ref, leads[: t + 1]
        assert [(i, t, ring.unpack(L)) for i, L in new] == ref[len(ref) - len(new) :]


def test_update_pairs_matches_quadratic_rescan():
    # small exponents on four variables repeat lcms and give coprime leads
    ring = GradedRing(["x", "y", "z", "w"], [0, 0, 0, 0])
    rng = random.Random(3)
    repeats = coprime = 0
    for _ in range(40):
        nleads = rng.randint(4, 14)
        leads = [tuple(rng.choice([0, 0, 1, 2]) for _ in range(4)) for _ in range(nleads)]
        for t, exp in enumerate(leads):
            lcms = [tuple_lcm(e, exp) for e in leads[:t]]
            repeats += len(lcms) - len(set(lcms))
            coprime += sum(all(a == 0 or b == 0 for a, b in zip(e, exp)) for e in leads[:t])
        check_update_pairs(ring, leads)
    assert repeats > 100 and coprime > 100


@pytest.mark.parametrize("nvars", [3, 5])
def test_update_pairs_is_exact_near_the_exponent_bound(nvars):
    # fields at and just below 2**32 - 1 take the word lcm's guard-bit
    # comparison and the divisibility test to their edge
    top_exp = 2**EXP_BITS - 1
    ring = GradedRing([f"x{k}" for k in range(nvars)], [0] * nvars)
    values = [0, 1, 2**31, top_exp - 1, top_exp]
    rng = random.Random(nvars)
    for _ in range(30):
        leads = [tuple(rng.choice(values) for _ in range(nvars)) for _ in range(rng.randint(3, 9))]
        check_update_pairs(ring, leads)


def primitive(p):
    """p scaled to integer coefficients with content 1 and a positive lead coefficient."""
    if not p:
        return p
    return Polynomial(p.ring, {m: Fraction(c) for m, c in integer_terms(p).items()}, False)


def list_min_buchberger(gens, keep=None, stop=None):
    """Buchberger taking min(pairs, key=rank) from a list, with the tuple update,
    keeping every basis element primitive, as a reference."""
    G, entries, lead, excess, rank = [], [], LeadIndex(), [], {}
    pairs = []

    def add(g, sugar):
        nonlocal pairs
        t = len(G)
        G.append(g)
        entries.append(lead.add(g))
        excess.append(sugar - sum(g.lm()))
        pairs = quadratic_update_pairs(G, pairs, t)
        for pair in reversed(pairs):  # the new pairs (i, t, L) come last
            i, j, L = pair
            if j != t:
                break
            rank[pair] = (sum(L) + max(excess[i], excess[t]), g.ring.key(L))
        return stop is not None and stop(g)

    for g in gens:
        if g and add(primitive(g), g.total_degree()):
            return G
    while pairs:
        pair = min(pairs, key=rank.__getitem__)
        pairs.remove(pair)
        i, j, _ = pair
        r = rings.pair_normal_form(entries[i], entries[j], lead)
        if r and (keep is None or keep(r)) and add(primitive(r), rank[pair][0]):
            return G
    return G


@pytest.fixture
def s_pairs(monkeypatch):
    """The lead words of each S-pair `pair_normal_form` reduces, in order."""
    seen = []
    real = rings.pair_normal_form

    def recording(f, g, lead):
        seen.append((f[0], g[0]))
        return real(f, g, lead)

    monkeypatch.setattr(rings, "pair_normal_form", recording)
    return seen


def assert_same_run(s_pairs, gens, keep=None, stop=None):
    """Both loops reduce the same S-pairs in the same order and return the
    same basis list, element for element up to a constant factor; returns
    that basis."""
    s_pairs.clear()
    got = buchberger(gens, keep, stop)
    heap_order = list(s_pairs)
    s_pairs.clear()
    assert [primitive(g) for g in got] == list_min_buchberger(gens, keep, stop), gens
    assert heap_order == s_pairs, gens
    return got


def random_ideal(rng, ring, ngens, max_exp):
    """Two to `ngens` polynomials of up to three terms."""
    return [
        sum(
            (
                ring.monomial(
                    tuple(rng.randint(0, max_exp) for _ in ring.names), rng.choice([-3, -1, 1, 2])
                )
                for _ in range(rng.randint(1, 3))
            ),
            ring.zero(),
        )
        for _ in range(rng.randint(2, ngens))
    ]


@pytest.mark.parametrize("order", ["degrevlex", "lex", "weighted:3,1,2,1", "elim:1", "elim:2"])
def test_buchberger_matches_list_min_reference(s_pairs, order):
    # the heap takes the pairs in the order min over the pair list does
    ring = GradedRing(["x", "y", "z", "w"], [0, 0, 0, 0], order)
    rng = random.Random(sum(map(ord, order)))
    sizes = []
    for _ in range(25):
        sizes.append(len(assert_same_run(s_pairs, random_ideal(rng, ring, 4, 2))))
    assert max(sizes) > 6


@pytest.mark.parametrize("nvars", [3, 5])
def test_buchberger_pair_order_is_exact_near_the_exponent_bound(s_pairs, nvars):
    # monomials with fields near 2**32 - 1: every S-pair reduces to zero,
    # and the pairs are taken by lcm degrees past 2**33 - 1, which a degree
    # read off a word as word % (2**33 - 1) would wrap
    top_exp = 2**EXP_BITS - 1
    ring = GradedRing([f"x{k}" for k in range(nvars)], [0] * nvars)
    values = [0, 1, 2**31, top_exp - 1, top_exp]
    rng = random.Random(nvars)
    reduced = top = 0
    for _ in range(20):
        exps = [tuple(rng.choice(values) for _ in range(nvars)) for _ in range(rng.randint(3, 9))]
        assert_same_run(s_pairs, [ring.monomial(e) for e in exps])
        reduced += len(s_pairs)
        top = max([top] + [sum(tuple_lcm(a, b)) for a in exps for b in exps])
    assert reduced > 50 and top >= 2**33 - 1


def test_buchberger_matches_list_min_reference_on_scaled_ideals(s_pairs):
    # exponents scaled by 2**30: an ideal whose computation keeps every
    # exponent below 4 stays below the bound, and its basis is the scaled
    # basis of the unscaled ideal; the others raise OverflowError in both
    # loops
    scale = 2**30
    ring = GradedRing(["x", "y", "z", "w"], [0, 0, 0, 0])

    def scaled(g):
        return Polynomial(ring, {tuple(scale * e for e in m): c for m, c in g.terms.items()})

    rng = random.Random(31)
    done = 0
    for _ in range(30):
        gens = random_ideal(rng, ring, 3, 2)
        big = [scaled(g) for g in gens]
        try:
            got = assert_same_run(s_pairs, big)
        except OverflowError:
            with pytest.raises(OverflowError):
                list_min_buchberger(big)
            continue
        assert got == [scaled(g) for g in buchberger(gens)], gens
        done += 1
    assert done >= 10


def test_buchberger_matches_list_min_reference_with_keep_and_stop(s_pairs):
    # the position-ring vectors `unit_certificate` passes, with its keep and stop
    rng = random.Random(23)
    stopped = 0
    for ring in (GradedRing(["x", "y"], [0, 0]), GradedRing(["x", "y", "z"], [0, 0, 0])):
        n = ring.nvars
        for _ in range(20):
            gens = random_ideal(rng, ring, 4, 2)
            rank = len(gens) + 1
            mring = _position_ring(ring, rank)
            live = [(i, g) for i, g in enumerate(gens) if g]
            vecs = [_encode({0: g, i + 1: ring.one()}, mring, rank) for i, g in live]
            keep = lambda r: r.lm()[n]
            stop = lambda g: not any(g.lm()[:n])
            stopped += stop(assert_same_run(s_pairs, vecs, keep, stop)[-1])
    assert 0 < stopped < 40


def per_element_reduce_groebner(G):
    """`reduce_groebner` with a fresh index of the other elements for each one, as a reference."""
    if not G:
        return []
    key = G[0].ring.key
    G = sorted((g.monic() for g in G if g), key=lambda g: key(g.lm()))
    minimal = []
    for g in G:
        if not any(all(a <= b for a, b in zip(h.lm(), g.lm())) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        r = normal_form_list(g, LeadIndex(minimal[:i] + minimal[i + 1 :]))
        if r:
            reduced.append(r.monic())
    return sorted(reduced, key=lambda g: key(g.lm()), reverse=True)


@pytest.mark.parametrize("order", ["degrevlex", "lex", "elim:2"])
def test_reduce_groebner_matches_per_element_indexes(order):
    # on Groebner bases and on arbitrary lists, where tails still reduce
    # by the first other lead that divides them
    ring = GradedRing(["x", "y", "z"], [0, 0, 0], order)
    rng = random.Random(sum(map(ord, order)))
    for _ in range(30):
        gens = random_ideal(rng, ring, 5, 2)
        for G in (gens, buchberger(gens)):
            assert reduce_groebner(G) == per_element_reduce_groebner(G), G


@pytest.mark.parametrize("order", ["degrevlex", "lex", "weighted:3,0,2", "elim:1", "elim:2"])
def test_lead_entry_matches_the_fraction_formula(order):
    # plain polynomials and vectors over position rings with 1 to 3
    # positions; one-term elements, Fraction coefficients, negative leads
    # and exponents up to 2**32 - 1, where the span's word lcm meets the
    # guard bits
    base = GradedRing(["x", "y", "z"], [0, -1, -2], order)
    exps = [0, 1, 2, 3, 2**31, 2**EXP_BITS - 2, 2**EXP_BITS - 1]
    rng = random.Random(sum(map(ord, order)))

    def rand_poly(nterms):
        terms = {
            tuple(rng.choice(exps) if rng.random() < 0.3 else rng.randint(0, 3) for _ in range(3)):
            Fraction(rng.choice([-6, -3, -1, 1, 2, 4]), rng.choice([1, 2, 3, 9]))
            for _ in range(nterms)
        }
        return Polynomial(base, terms)

    singles = near_bound = 0
    for rank in (0, 1, 2, 3):
        ring = _position_ring(base, rank) if rank else base
        for _ in range(40):
            if rank:
                positions = rng.sample(range(rank), rng.randint(1, rank))
                g = _encode({pos: rand_poly(rng.randint(1, 3)) for pos in positions}, ring, rank)
            else:
                g = rand_poly(rng.randint(1, 5))
            if not g:
                continue
            entry = lead_entry(g)
            assert entry[:5] == lead_entry_reference(g)[:5], g
            assert entry[5] is ring
            singles += len(g.terms) == 1
            near_bound += any(e >= 2**31 for m in g.terms for e in m)
        # an exponent of 2**32 raises in the lead and in the tail, on every call
        top = (2**EXP_BITS,) + (0,) * (ring.nvars - 1)
        for terms in ({top: Fraction(1)}, {top: Fraction(1), (0, 1, 0) + (0,) * rank: Fraction(2)}):
            if rank:
                terms = {m[: ring.nvars - 1] + (1,): c for m, c in terms.items()}
            g = Polynomial(ring, terms)
            for _ in range(2):
                with pytest.raises(OverflowError):
                    lead_entry(g)
            with pytest.raises(OverflowError):
                lead_entry_reference(g)
    assert singles > 10 and near_bound > 40


class Tracked(Polynomial):
    """A polynomial that a weak reference can watch."""

    __slots__ = ("__weakref__",)


def test_lead_entry_is_memoised_without_a_reference_cycle():
    # the entry is computed once and names the ring, not the polynomial:
    # with the cycle collector off, a basis element is freed as soon as its
    # last reference goes, after a Groebner basis or a reduced basis is
    # computed from it and while an index of it lives
    ring = GradedRing(["x", "y", "z"], [0, -1, -2])
    x, y, z = (ring.var(n) for n in ring.names)
    g = x * y - z
    assert lead_entry(g) is lead_entry(g) and lead_entry(g)[5] is ring
    gc.disable()
    try:
        for use in (groebner_basis, reduce_groebner, LeadIndex):
            g = Tracked(ring, {(1, 1, 0): Fraction(2), (0, 0, 1): Fraction(-1, 3)})
            freed = weakref.finalize(g, lambda: None)
            kept = use([g, x**2 - y, y * z])
            assert g._entry is not None, use.__name__
            del g
            assert not freed.alive, use.__name__
            del kept
    finally:
        gc.enable()


@pytest.mark.parametrize("order", ["degrevlex", "lex", "weighted:3,0,2", "elim:2"])
def test_reduce_groebner_matches_monic_interreduction(order):
    # unreduced lists and Groebner bases with repeated leads, non-monic
    # elements, Fraction coefficients and zeros; the same elements, terms
    # and order as interreducing monic copies
    ring = GradedRing(["x", "y", "z"], [0, -1, -2], order)
    rng = random.Random(sum(map(ord, order)) + 1)
    repeated = 0
    for _ in range(40):
        gens = random_ideal(rng, ring, 5, 2)
        for G in (gens, buchberger([g for g in gens if g])):
            G = list(G)
            for g in list(G):
                if g and rng.random() < 0.5:
                    c = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
                    low = ring.monomial((0, 0, 0), Fraction(rng.choice([-1, 1]), 3))
                    G.insert(rng.randrange(len(G) + 1), g * c + (low if g.lm() != (0, 0, 0) else 0))
                    repeated += 1
            G.append(ring.zero())
            got, want = reduce_groebner(G), reduce_groebner_reference(G)
            assert got == want, G
            assert [str(g) for g in got] == [str(g) for g in want]
    assert repeated > 40


def term_mul_s_polynomial(f, g):
    """The S-polynomial as two scaled copies, a negation and a sum, as a reference."""
    lf, lg = f.lm(), g.lm()
    L = tuple_lcm(lf, lg)
    qf = tuple(b - a for a, b in zip(lf, L))
    qg = tuple(b - a for a, b in zip(lg, L))
    return f.term_mul(1 / f.lc(), qf) - g.term_mul(1 / g.lc(), qg)


def test_pair_normal_form_matches_term_mul_formula():
    # plain pairs, and module vectors encoded over the position ring, where
    # leads share a position; shared lower terms cancel in both.  Fraction
    # coefficients keep f, g and the basis from being primitive, so the
    # kernel's integer scaling must leave the S-polynomial and its remainder
    # exactly as the Fraction formula gives them
    ring = GradedRing(["x", "y", "z"], [0, -1, -2])
    monos = [m for d in range(4) for m in ring.monomials_of_degree(d)]
    rng = random.Random(13)

    def rand_poly(nterms):
        coeffs = [
            Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3])) for _ in range(nterms)
        ]
        return Polynomial(ring, dict(zip(rng.sample(monos, nterms), coeffs)))

    rank = 3
    mring = _position_ring(ring, rank)
    cancelled = reduced = 0
    for _ in range(80):
        f, g = rand_poly(rng.randint(1, 5)), rand_poly(rng.randint(1, 5))
        common = rand_poly(2)
        f, g = f + common * f.lc(), g + common * g.lc()
        if not (f and g):
            continue
        basis = [rand_poly(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        want = term_mul_s_polynomial(f, g)
        assert pair_normal_form(lead_entry(f), lead_entry(g), LeadIndex()) == want, (f, g)
        lead = LeadIndex(basis + [f, g])
        got = pair_normal_form(lead_entry(f), lead_entry(g), lead)
        assert got == normal_form_list(want, lead), (f, g, basis)
        # a nonzero remainder carries the entry built from its integers
        assert not got or got._entry[:5] == lead_entry_reference(got)[:5], (f, g, basis)
        cancelled += len(want.terms) < len(f.terms) + len(g.terms) - 2
        reduced += got != want
        vf = _encode({0: f, rng.randrange(1, rank): rand_poly(2)}, mring, rank)
        vg = _encode({0: g, rng.randrange(1, rank): rand_poly(2)}, mring, rank)
        assert vf.lm()[-rank:] == vg.lm()[-rank:]
        vbasis = [_encode({pos: rand_poly(2)}, mring, rank) for pos in rng.sample(range(rank), 2)]
        vlead = LeadIndex(vbasis + [vf, vg])
        want = term_mul_s_polynomial(vf, vg)
        assert pair_normal_form(lead_entry(vf), lead_entry(vg), LeadIndex()) == want, (vf, vg)
        got = pair_normal_form(lead_entry(vf), lead_entry(vg), vlead)
        assert got == normal_form_list(want, vlead), (vf, vg, vbasis)
        assert not got or got._entry[:5] == lead_entry_reference(got)[:5], (vf, vg, vbasis)
    assert cancelled > 20 and reduced > 20


def pop_filter_module_groebner(gens, ring, rank):
    """`module_groebner` forming every pair and skipping, when popped, the
    pairs whose leads lie in different positions, as a reference."""
    mring = _position_ring(ring, rank)
    n = ring.nvars
    G = [g for g in (_encode(v, mring, rank) for v in gens) if g]
    lead = LeadIndex(G)
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        i, j = pairs.pop()
        if G[i].lm()[n:] != G[j].lm()[n:]:
            continue
        r = normal_form_list(term_mul_s_polynomial(G[i], G[j]), lead)
        if r:
            G.append(r)
            lead.add(r)
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return G


def random_module_inputs():
    """60 random (gens, rank): vectors of ranks 1 to 3 over R2, entries of
    degree <= 2.  Two variables keep the criterion-free loops small; some
    inputs of this kind still run away (see `CHANGES.md`), and this stream
    has none."""
    monos = [m for d in range(3) for m in R2.monomials_of_degree(d)]
    rng = random.Random(21)

    def rand_poly(nterms):
        terms = {m: Fraction(rng.choice([-2, -1, 1, 3])) for m in rng.sample(monos, nterms)}
        return Polynomial(R2, terms)

    for _ in range(60):
        rank = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(2, 4)):
            positions = rng.sample(range(rank), rng.randint(1, rank))
            gens.append({pos: rand_poly(rng.randint(1, 2)) for pos in positions})
        yield gens, rank


def test_module_groebner_matches_pop_time_position_filter():
    # the basis list itself, not only the module it spans, fixes which
    # syzygy generators are returned, so it must come out element for element
    grown = 0
    for gens, rank in random_module_inputs():
        got = module_groebner(gens, R2, rank)
        assert got == pop_filter_module_groebner(gens, R2, rank), gens
        grown += len(got) > len(gens)
    assert grown > 20


def flat_module_groebner(gens, ring, rank):
    """`module_groebner` reducing each S-polynomial by `plain_normal_form`
    over the whole basis list, with no lead index, as a reference."""
    mring = _position_ring(ring, rank)
    n = ring.nvars
    G = [g for g in (_encode(v, mring, rank) for v in gens) if g]
    pos = [g.lm()[n:] for g in G]
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G)) if pos[i] == pos[j]]
    while pairs:
        i, j = pairs.pop()
        r = plain_normal_form(term_mul_s_polynomial(G[i], G[j]), G)
        if r:
            t = len(G)
            G.append(r)
            pos.append(r.lm()[n:])
            pairs.extend((k, t) for k in range(t) if pos[k] == pos[t])
    return G


def test_module_groebner_matches_flat_plain_reduction():
    # the bucketed index must pick, for every term, the first divisor in
    # basis order over the flat list, so the basis comes out element for
    # element; rank 1 is left out, as it has the one bucket
    grown = 0
    for gens, rank in random_module_inputs():
        if rank == 1:
            continue
        got = module_groebner(gens, R2, rank)
        assert got == flat_module_groebner(gens, R2, rank), gens
        grown += len(got) > len(gens)
    assert grown > 15


def test_pair_normal_form_refuses_leads_in_different_positions():
    # their S-polynomial would have terms in two positions, which no bucket
    # of a lead index holds
    mring = _position_ring(R2, 2)
    f = _encode({0: X + Y}, mring, 2)
    g = _encode({1: X * Y + 1}, mring, 2)
    assert f.lm()[2:] == (1, 0) and g.lm()[2:] == (0, 1)
    with pytest.raises(ValueError):
        pair_normal_form(lead_entry(f), lead_entry(g), LeadIndex([f, g]))
    same = _encode({0: X * X}, mring, 2)
    assert pair_normal_form(lead_entry(f), lead_entry(same), LeadIndex()) == term_mul_s_polynomial(f, same)


@settings(max_examples=40, deadline=None)
@given(small_coeffs, small_coeffs, small_coeffs)
def test_normal_form_is_additive_and_multiplicative(ca, cb, ci):
    p = poly_from_coeffs(R2, ca)
    q = poly_from_coeffs(R2, cb)
    gen = poly_from_coeffs(R2, ci)
    I = Ideal(R2, [gen])
    nf = I.normal_form
    assert nf(p + q) == nf(nf(p) + nf(q))
    assert nf(p * q) == nf(nf(p) * nf(q))


@settings(max_examples=25, deadline=None)
@given(st.permutations([0, 1, 2]), small_coeffs, small_coeffs, small_coeffs)
def test_groebner_determinism_under_permutation(perm, ca, cb, cc):
    gens = [poly_from_coeffs(R2, c) for c in (ca, cb, cc)]
    gb1 = groebner_basis(gens)
    gb2 = groebner_basis([gens[i] for i in perm])
    assert gb1 == gb2


# -- elimination


def test_eliminate_substitution_oracle():
    R3 = GradedRing(["t", "x", "y"], [0, 0, -1])
    t, x, y = (R3.var(n) for n in "txy")
    E = eliminate(Ideal(R3, [t - x**2, t - y]), ["x", "y"])
    sub = E.ring
    assert E.groebner() == [sub.var("x") ** 2 - sub.var("y")]


def test_eliminate_matches_sympy_lex_elimination():
    # the block order is where sugar reorders pairs most; whatever the order,
    # the kept part must be the reduced grevlex basis of the intersection
    sympy = pytest.importorskip("sympy")

    names = ["a", "b", "c", "d"]
    ring = GradedRing(names, [0, 0, 0, 0])
    syms = sympy.symbols(names)
    monos = [m for d in range(3) for m in ring.monomials_of_degree(d)]
    rng = random.Random(17)

    def rand_poly(nvars):
        support = [m for m in monos if not any(m[nvars:])]
        terms = {m: rng.choice([-2, -1, 1, 3]) for m in rng.sample(support, rng.randint(2, 3))}
        return Polynomial(ring, terms)

    def to_sympy(p):
        coeffs = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
        return sympy.Poly.from_dict(coeffs, *syms, domain="QQ").as_expr()

    def from_sympy(expr, sub, gens):
        terms = sympy.Poly(expr, *gens, domain="QQ").terms()
        return sum((sub.monomial(m, Fraction(int(c.p), int(c.q))) for m, c in terms), sub.zero())

    nonzero = 0
    for _ in range(30):
        nvars = rng.choice([3, 4])
        keep = sorted(rng.sample(names[:nvars], rng.randint(1, nvars - 1)), key=names.index)
        drop = [n for n in names[:nvars] if n not in keep]
        gens = [rand_poly(nvars) for _ in range(rng.randint(2, 3))]
        E = eliminate(Ideal(ring, gens), keep)
        dsyms = [syms[names.index(n)] for n in drop]
        ksyms = [syms[names.index(n)] for n in keep]
        lex = sympy.groebner([to_sympy(g) for g in gens], *dsyms, *ksyms, order="lex", domain="QQ")
        inside = [e for e in lex.exprs if not e.free_symbols & set(dsyms)]
        oracle = []
        if inside:
            oracle = sympy.groebner(inside, *ksyms, order="grevlex", domain="QQ").exprs
        expected = [from_sympy(e, E.ring, ksyms) for e in oracle]
        assert list(E.generators) == expected, (gens, keep)
        assert E.groebner() == expected
        nonzero += bool(expected) and not E.is_unit()
    assert nonzero > 10, nonzero


def test_eliminate_trivial_cases():
    E = eliminate(Ideal(R2, [X]), ["y"])
    assert E.groebner() == []
    E = eliminate(Ideal(R2, [R2.one()]), ["y"])
    assert E.is_unit()


@pytest.mark.parametrize("k", range(5))
def test_eliminate_kept_elements_are_a_reduced_basis(k):
    # elim:k is degrevlex on the kept block, so the kept elements of the
    # reduced basis are the reduced basis of the intersection, in its order
    names = ["x", "y", "z", "w"]
    ring = GradedRing(names, [0, -1, 0, -2])
    rng = random.Random(60 + k)
    proper = 0
    for _ in range(20):
        drop = rng.sample(names, k)
        # a dropped variable minus a few terms each, so the intersection is rarely zero
        gens = random_ideal(rng, ring, 3, 2)[: rng.randint(1, 3)]
        gens += [ring.var(v) - random_ideal(rng, ring, 2, 1)[0] for v in drop]
        E = eliminate(Ideal(ring, gens), [n for n in names if n not in drop])
        assert E.ring.names == tuple(n for n in names if n not in drop)
        kept = list(E.generators)
        assert groebner_basis(kept) == kept
        assert E.groebner() == kept
        proper += bool(kept) and not E.is_unit()
    assert proper >= (5 if k < 4 else 0), proper


def test_substitute_into_another_ring_with_constant_values():
    S = GradedRing(["u"], [-1])
    u = S.var("u")
    p = X**2 * Y - 3 * Y + 2
    assert p.substitute({"x": Fraction(1, 2), "y": u + 1}, S) == (u + 1) * Fraction(-11, 4) + 2
    # a constant polynomial lands in the target ring even when nothing is substituted
    assert R2.const(5).substitute({}, S) == S.const(5)
    assert (X * Y).substitute({"x": 0, "y": u}, S).is_zero()


def test_substitute_matches_the_per_term_reference():
    # Fraction coefficients, values that are polynomials, nonzero and zero
    # constants or the zero polynomial, and exponents up to 4 that repeat
    # across terms, so each value's powers are shared
    src = GradedRing(["x", "y", "z"], [0, -1, -2])
    dst = GradedRing(["u", "v"], [0, -1])
    rng = random.Random(31)
    src_monos = [m for d in range(6) for m in src.monomials_of_degree(d) if max(m) <= 4]
    dst_monos = [m for d in range(3) for m in dst.monomials_of_degree(d)]

    def coeff():
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4]))

    def value():
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice([0, 3, Fraction(-2, 3)])
        if kind == 1:
            return dst.zero()
        picked = rng.sample(dst_monos, rng.randint(1, 3))
        return Polynomial(dst, {m: coeff() for m in picked})

    constant = 0
    for _ in range(60):
        p = Polynomial(src, {m: coeff() for m in rng.sample(src_monos, rng.randint(1, 8))})
        values = {name: value() for name in src.names}
        got = p.substitute(values, dst)
        assert got == substitute_per_term(p, values, dst), (p, values)
        assert all(c.__class__ is Fraction and c for c in got.terms.values())
        constant += any(not isinstance(v, Polynomial) for v in values.values())
    assert constant > 20
    with pytest.raises(ValueError):
        X.substitute({"x": R3.var("x")}, dst)


# -- the unit ideal


@pytest.mark.parametrize("order", ["degrevlex", "lex", "weighted:3,1,2", "elim:1"])
def test_groebner_basis_stopped_at_one_is_the_full_reduced_basis(order):
    # random ideals, and each made the unit ideal by adding g*q + c for one
    # of its generators g: the stopped run gives what the full run reduces to
    ring = GradedRing(["x", "y", "z"], [0, 0, 0], order)
    rng = random.Random(sum(map(ord, order)))
    units = proper = 0
    for _ in range(25):
        gens = random_ideal(rng, ring, 4, 2)
        q = random_ideal(rng, ring, 2, 1)[0]
        for G in (gens, gens + [gens[0] * q + rng.choice([-2, 1, 3])]):
            want = reduce_groebner(buchberger([g for g in G if g]))
            assert groebner_basis(G) == want, G
            units += want == [ring.one()]
            proper += want != [ring.one()]
    assert units >= 25 and proper >= 10, (units, proper)


def test_groebner_basis_matches_the_full_run_on_every_command_ideal(monkeypatch, capsys):
    # every ideal that the 24 scenario commands build, unit and proper
    from uhat import quotient
    from uhat.cli import main

    real = rings.groebner_basis
    seen = {"unit": 0, "proper": 0}

    def checked(gens):
        gens = list(gens)
        got = real(gens)
        assert got == reduce_groebner(buchberger([g for g in gens if g])), gens
        seen["unit" if got and not any(got[0].lm()) else "proper"] += 1
        return got

    monkeypatch.setattr(rings, "groebner_basis", checked)
    monkeypatch.setattr(quotient, "groebner_basis", checked)
    scenarios = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(scenarios.glob("*.uhat")):
        for command in (["analyze"], ["quotient"], ["blowup"], ["blowup", "--with-quotient"]):
            main(command + ["--scenario", str(path)])
    capsys.readouterr()
    assert seen["unit"] >= 20 and seen["proper"] >= 80, seen


# -- products


def fraction_product(p, q):
    """Reference: p * q term by term in Fractions, zero sums dropped at the end."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_product_matches_term_by_term_fractions():
    ring = GradedRing(["x", "y", "z"], [0, -1, -2])
    x, y = ring.var("x"), ring.var("y")
    rng = random.Random(29)

    def rand_poly():
        # few monomials and coefficients, so products often cancel
        terms = {
            tuple(rng.randint(0, 1) for _ in range(3)): Fraction(
                rng.choice([-3, -1, 1, 3]), rng.choice([1, 2, 9])
            )
            for _ in range(rng.randint(1, 6))
        }
        return Polynomial(ring, terms)

    polys = [ring.zero(), ring.one(), ring.const(Fraction(-2, 3)), x - y, x + y]
    polys += [x * Fraction(1, 2) - y * Fraction(1, 3)] + [rand_poly() for _ in range(40)]
    cancelled = 0
    for p in polys:
        for q in polys:
            got = p * q
            assert got.terms == fraction_product(p, q), (p, q)
            assert all(type(c) is Fraction and c for c in got.terms.values())
            sums = {tuple(a + b for a, b in zip(m1, m2)) for m1 in p.terms for m2 in q.terms}
            cancelled += len(sums) > len(got.terms)
    assert cancelled > 20, cancelled
    assert ((x - y) * (x + y)).terms == {(2, 0, 0): 1, (0, 2, 0): -1}


@pytest.mark.parametrize("n", [0, 1, 2, 7, 24])
def test_binomial_power_coefficients(n):
    assert ((X + Y) ** n).terms == {(i, n - i): math.comb(n, i) for i in range(n + 1)}
    half, third = X * Fraction(1, 2), Y * Fraction(-1, 3)
    assert ((half + third) ** n).terms == {
        (i, n - i): math.comb(n, i) * Fraction(1, 2) ** i * Fraction(-1, 3) ** (n - i)
        for i in range(n + 1)
    }


# -- weight decomposition


def test_weight_decompose_examples():
    p = X + Y
    comp = p.weight_decompose()
    assert set(comp) == {0, -1}
    assert comp[0] == X and comp[-1] == Y
    assert R2.zero().weight_decompose() == {}
    q = X * Y**2
    assert q.weight_decompose() == {-2: q}


@settings(max_examples=40, deadline=None)
@given(small_coeffs, small_coeffs)
def test_weight_decompose_is_a_ring_grading(ca, cb):
    p = poly_from_coeffs(R2, ca)
    q = poly_from_coeffs(R2, cb)
    pc, qc = p.weight_decompose(), q.weight_decompose()
    prod = (p * q).weight_decompose()
    for w, comp in prod.items():
        total = R2.zero()
        for u, pu in pc.items():
            qv = qc.get(w - u)
            if qv is not None:
                total = total + pu * qv
        assert comp == total


# -- syzygies


def test_syzygy_scaled_projection():
    zero = R3.zero()
    fmap = FreeModuleMap(3, 1, ((zero, zero, R3.var("x")),))
    ker = syzygy_kernel(fmap)
    vectors = {tuple(str(p) for p in v) for v in ker}
    assert vectors == {("1", "0", "0"), ("0", "1", "0")}


def test_syzygy_zero_and_identity_maps():
    zero = R2.zero()
    one = R2.one()
    ker = syzygy_kernel(FreeModuleMap(2, 1, ((zero, zero),)))
    assert {tuple(str(p) for p in v) for v in ker} == {("1", "0"), ("0", "1")}
    assert syzygy_kernel(FreeModuleMap(1, 1, ((one,),))) == []


def test_syzygy_soundness_random():
    rng = random.Random(7)
    for _ in range(6):
        rows = 2
        cols = 3
        mat = tuple(
            tuple(
                poly_from_coeffs(R2, [rng.randint(-2, 2) for _ in range(4)], max_deg=1)
                for _ in range(cols)
            )
            for _ in range(rows)
        )
        fmap = FreeModuleMap(cols, rows, mat)
        for v in syzygy_kernel(fmap):
            for i in range(rows):
                total = R2.zero()
                for j in range(cols):
                    total = total + mat[i][j] * v[j]
                assert total.is_zero()


def lifo_kernel(fmap, relations):
    """`syzygy_kernel` without its dead-position rule, as a reference: no
    relations are put in the dead position, and every element supported on
    the cofactor block is returned, sorted by its first nonzero entry."""
    r, s = fmap.codomain_rank, fmap.domain_rank
    ring = fmap.matrix[0][0].ring
    gens = [
        {**{i: row[j] for i, row in enumerate(fmap.matrix) if row[j]}, r + j: ring.one()}
        for j in range(s)
    ]
    gens += [{i: f} for f in relations for i in range(r)]
    out = []
    for g in module_groebner(gens, ring, r + s):
        v = _decode(g, ring)
        if min(v) >= r:
            out.append([v.get(r + j, ring.zero()) for j in range(s)])
    return sorted(out, key=lambda v: next((j, ring.key(p.lm())) for j, p in enumerate(v) if p))


def dead_position_maps(seed, count, constant=True, basis=True):
    """`count` random (map, relations, dead column) over Q[x,y] or Q[x,y,z].

    A map has 1 or 2 rows and 2 to 4 columns of entries of degree <= 2.
    The dead column is the last nonzero one: every column after it is
    zero.  It holds a nonzero constant in one row, or with `constant`
    false, only multiples of x, so that its position is not dead.  The
    relations are one or two random polynomials, replaced by their reduced
    Groebner basis (as `kernel_generators` passes them) unless `basis` is
    false.
    """
    rng = random.Random(seed)
    for _ in range(count):
        ring = rng.choice((R2, R3))
        monos = [m for d in range(3) for m in ring.monomials_of_degree(d)]

        def rand_poly(nterms):
            terms = {m: Fraction(rng.choice([-2, -1, 1, 3])) for m in rng.sample(monos, nterms)}
            return Polynomial(ring, terms)

        rows, cols = rng.randint(1, 2), rng.randint(2, 4)
        dead = rng.randrange(cols)
        mat = [
            [rand_poly(rng.randint(1, 2)) if j <= dead and rng.random() < 0.7 else ring.zero()
             for j in range(cols)]
            for _ in range(rows)
        ]
        mat[rng.randrange(rows)][dead] = ring.const(rng.choice([-2, 1, 3]))
        if not constant:
            for row in mat:
                row[dead] = row[dead] * ring.var("x")
        relations = [rand_poly(rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        if basis:
            relations = groebner_basis(relations)
        yield FreeModuleMap(cols, rows, tuple(map(tuple, mat))), relations, dead


@pytest.mark.parametrize(
    "seed, basis", [(20, True), (24, True), (35, True), (28, False), (49, False)]
)
def test_syzygy_kernel_omits_exactly_the_generators_led_in_the_dead_position(seed, basis):
    # the LIFO kernel's generators led in the dead column are zero modulo
    # the relations; the kernel is the others, in order, each equal to its
    # LIFO counterpart before the dead column and after it, and equal
    # modulo the relations in it, whether or not the relations are a
    # Groebner basis.  The seeds are ones whose LIFO reference runs finish
    # quickly (CHANGES.md names inputs on which it runs away)
    dropped = 0
    for fmap, relations, dead in dead_position_maps(seed, 100, basis=basis):
        algebra = PresentedAlgebra(fmap.matrix[0][0].ring, relations)
        lifo = lifo_kernel(fmap, relations)
        led_dead = [next(j for j, p in enumerate(v) if p) == dead for v in lifo]
        got = syzygy_kernel(fmap, relations)
        assert len(got) == led_dead.count(False), fmap
        for v, w in zip(got, [w for w, d in zip(lifo, led_dead) if not d]):
            assert v[:dead] == w[:dead] and v[dead + 1:] == w[dead + 1:], fmap
            assert algebra.equal(v[dead], w[dead]), fmap
        for w, d in zip(lifo, led_dead):
            assert not d or all(algebra.is_zero(p) for p in w), fmap
        dropped += led_dead.count(True)
    assert dropped > 100


@pytest.mark.parametrize("seed", [20, 51, 59])
def test_syzygy_kernel_is_the_lifo_kernel_without_a_constant_in_the_last_live_column(seed):
    # the rule needs the constant: without it a generator led in that
    # column need not be zero modulo the relations, and none is dropped
    led_last = 0
    for fmap, relations, dead in dead_position_maps(seed, 100, constant=False):
        lifo = lifo_kernel(fmap, relations)
        assert syzygy_kernel(fmap, relations) == lifo, fmap
        led_last += sum(next(j for j, p in enumerate(v) if p) == dead for v in lifo)
    assert led_last > 100


def test_syzygy_completeness_against_linear_enumeration():
    # map (p, q) -> p*y - q*x has kernel generated by (x, y)
    fmap = FreeModuleMap(2, 1, ((Y, -X),))
    ker = syzygy_kernel(fmap)
    gens = [{j: v[j] for j in range(2) if v[j]} for v in ker]
    lead = LeadIndex(module_groebner(gens, R2, 2))
    # everything in the kernel of bounded degree must reduce to zero
    monos = []
    for d in range(3):
        monos.extend(R2.monomials_of_degree(d))
    # brute force: c = (c0, c1) with unknown coefficients over monos
    import itertools

    for c0m in monos:
        for c1m in monos:
            p0 = R2.monomial(c0m)
            p1 = R2.monomial(c1m)
            val = p0 * Y - p1 * X
            if val.is_zero():
                v = {0: p0, 1: p1}
                assert not module_normal_form(v, lead, R2, 2)


def test_module_membership():
    gens = [{0: X}, {1: Y}]
    lead = LeadIndex(module_groebner(gens, R2, 2))
    assert not module_normal_form({0: X * Y}, lead, R2, 2)
    assert module_normal_form({0: Y}, lead, R2, 2)


# -- determinants and minors


def test_determinant_small():
    assert determinant([[X, Y], [Y, X]]) == X**2 - Y**2
    assert determinant([[X]]) == X


def test_minors_conventions():
    mat = [[X, Y], [Y, X]]
    assert minors_ideal_generators(mat, 3) == []
    twos = minors_ideal_generators(mat, 2)
    assert twos == [X**2 - Y**2]
    ones = minors_ideal_generators(mat, 1)
    assert len(ones) == 4


# -- presented algebras


def test_presented_algebra_normal_forms():
    A = PresentedAlgebra(R2, Ideal(R2, [X * X - Y]))
    assert A.nf(X**2) == Y
    assert A.equal(X**2, Y)
    assert not A.is_empty()
    assert PresentedAlgebra(R2, Ideal(R2, [R2.one()])).is_empty()


def test_algebra_ideal_carries_the_relations():
    R = GradedRing(["x"], [0])
    x = R.var("x")
    A = PresentedAlgebra(R, [x * x - x])
    assert A.ideal([]).contains(x * x - x)
    assert A.ideal([x - 1, x]).is_unit()
    # x is a zero divisor, not a unit, in Q[x]/(x^2 - x)
    assert not A.ideal([x]).is_unit()


def test_algebra_ideal_is_joined_once_per_generator_tuple():
    R = GradedRing(["x", "y"], [0, -1])
    x, y = R.var("x"), R.var("y")
    A = PresentedAlgebra(R, [x * x - x])
    joined = A.ideal([y, x])
    assert A.ideal(iter([y, x])) is joined
    assert A.ideal([x, y]) is not joined  # another tuple, though the same ideal
    assert joined.generators == (y, x, x * x - x)
    assert joined.contains(x * y)


def test_standard_monomials_by_weight():
    A = PresentedAlgebra(R2)
    ms = A.standard_monomials(weight=-1, max_degree=3)
    # x^a * y with a <= 2
    assert set(ms) == {(0, 1), (1, 1), (2, 1)}


# -- exact linear algebra


def test_rank_nullspaces_solve():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert matrix_rank(rows) == 1
    rn = right_nullspace(rows)
    assert len(rn) == 1 and rn[0][0] * 1 + rn[0][1] * 2 == 0
    sol = solve_linear([[Fraction(1), Fraction(1)]], [Fraction(3)])
    assert sol == [Fraction(3), Fraction(0)]
    assert solve_linear([[Fraction(0)]], [Fraction(1)]) is None


def test_sparse_system_rows_and_index():
    # repeated keys within one column sum; keys are indexed in first-seen order
    rows, index = sparse_system([[("a", 1), ("b", 2), ("a", 3)], {"b": Fraction(1, 2)}.items()])
    assert index == {"a": 0, "b": 1}
    assert rows == [[4, 0], [2, Fraction(1, 2)]]
    assert solve_linear(rows, [Fraction(4), Fraction(3)]) == [1, 2]
    # a right-hand-side key that no column has is a zero row: 1 there has no solution
    rows, index = sparse_system([[("a", 1)], [("a", 1)]], ["c"])
    assert index == {"c": 0, "a": 1}
    assert rows == [[0, 0], [1, 1]]
    assert solve_linear(rows, [Fraction(1), Fraction(0)]) is None
    assert solve_linear(rows, [Fraction(0), Fraction(2)]) == [2, 0]
    # no equation at all: one zero row, so every unknown is free
    rows, index = sparse_system([[], []])
    assert index == {} and rows == [[0, 0]]
    assert right_nullspace(rows) == [[1, 0], [0, 1]]


# -- monomial orders


def test_lex_and_weighted_orders():
    Rlex = GradedRing(["x", "y"], [0, -1], "lex")
    p = Rlex.var("x") + Rlex.var("y") ** 3
    assert p.lm() == (1, 0)
    Rw = GradedRing(["x", "y"], [0, -1], "weighted:1,3")
    q = Rw.var("x") ** 2 + Rw.var("y")
    assert q.lm() == (0, 1)  # weight 3 beats weight 2


WEIGHTS = (3, 1000, 0, 17)


def old_grevlex_key(seq):
    return (sum(seq), tuple(-e for e in seq[:0:-1]))


def old_elim_key(k):
    return lambda e: (old_grevlex_key(e[:k]), old_grevlex_key(e[k:]))


OLD_KEYS = {
    "degrevlex": lambda n: old_grevlex_key,
    "lex": lambda n: tuple,
    "weighted": lambda n: lambda e: (sum(w * x for w, x in zip(WEIGHTS, e)), old_grevlex_key(e)),
    **{f"elim:{k}": (lambda k: lambda n: old_elim_key(k))(k) for k in range(5)},
}


def old_position_key(base, n):
    return lambda e: (e[n:], base(e[:n]))


@pytest.mark.parametrize(
    "nvars, order",
    [
        (n, order)
        for n in (0, 1, 2, 4)
        for order in OLD_KEYS
        if int(order.partition(":")[2] or 0) <= n
    ],
)
@pytest.mark.parametrize("rank", [0, 2], ids=["plain", "position"])
def test_packed_key_orders_as_the_tuple_keys(nvars, order, rank):
    # the tuple keys the orders had before they became weight matrices; the
    # integer key must order every pair of exponent tuples the same way,
    # up to exponents just below the bound.  Over the position ring the
    # tuples are module terms, one position variable with exponent 1, which
    # are all that its one position row orders as the old tuple key did
    tag = order if order != "weighted" else "weighted:" + ",".join(map(str, WEIGHTS[:nvars]))
    ring = GradedRing([f"v{i}" for i in range(nvars)], [0] * nvars, tag)
    old = OLD_KEYS[order](nvars)
    if rank:
        old = old_position_key(old, nvars)
        ring = _position_ring(ring, rank)
    top = 2**EXP_BITS - 1
    rng = random.Random(f"{nvars} {order} {rank}")
    values = [0, 0, 1, 2, 3, top, top - 1, top - 2]
    exps = []
    for _ in range(70):
        if exps and rng.random() < 0.4:  # a permutation ties every degree row
            e = list(rng.choice(exps)[:nvars])
            rng.shuffle(e)
        else:
            e = [
                rng.choice(values) if rng.random() < 0.8 else rng.randrange(top)
                for _ in range(nvars)
            ]
        if rank:
            e += [0] * rank
            e[nvars + rng.randrange(rank)] = 1
        exps.append(tuple(e))
    keys = [ring.key(e) for e in exps]
    olds = [old(e) for e in exps]
    for a in range(len(exps)):
        for b in range(len(exps)):
            want = (olds[a] > olds[b]) - (olds[a] < olds[b])
            assert (keys[a] > keys[b]) - (keys[a] < keys[b]) == want, (exps[a], exps[b])
    if ring.nvars:
        # linear: the key of a term times a base monomial is the sum of the keys
        base = exps[1][:nvars] + (0,) * rank
        assert ring.key(tuple(map(sum, zip(exps[0], base)))) == keys[0] + ring.key(base)


@pytest.mark.parametrize("rank", [1, 2, 5, 9])
def test_position_ring_packs_one_position_field(rank):
    # every position shares one word field, holding position k as k + 1,
    # and one key row; words round-trip at the exponent bound, and within a
    # position one subtraction tests divisibility of the base exponents
    base = GradedRing(["x", "y", "z"], [0, -1, -2], "degrevlex")
    n = base.nvars
    ring = _position_ring(base, rank)
    assert bin(ring.guard).count("1") == n + 1
    assert len(rings.order_rows(ring.order, ring.nvars)) == 1 + len(rings.order_rows("degrevlex", n))
    top = 2**EXP_BITS - 1
    rng = random.Random(rank)
    values = [0, 1, 2, top - 1, top]

    def term(pos):
        e = [rng.choice(values) for _ in range(n)] + [0] * rank
        e[n + pos] = 1
        return tuple(e)

    for pos in range(rank):
        e = term(pos)
        w = ring.pack(e)
        assert ring.unpack(w) == e
        assert w & ring.positions == (pos + 1) << (EXP_BITS + 1) * n
        assert not w & ring.guard
    no_position = (top,) * n + (0,) * rank
    assert ring.unpack(ring.pack(no_position)) == no_position
    divides = 0
    for _ in range(200):
        pos = rng.randrange(rank)
        a, b = term(pos), term(pos)
        want = all(x <= y for x, y in zip(a, b))
        assert (not (ring.pack(b) - ring.pack(a)) & ring.guard) == want, (a, b)
        divides += want
    assert divides > 10
    with pytest.raises(ValueError):
        ring.pack((0,) * n + (2,) + (0,) * (rank - 1))  # @e0^2
    if rank > 1:
        with pytest.raises(ValueError):
            ring.pack((0,) * n + (1, 1) + (0,) * (rank - 2))  # @e0*@e1


def test_exponent_bound_raises_instead_of_wrapping():
    ring = GradedRing(["x", "y"], [0, -1], "lex")
    x, y = ring.var("x"), ring.var("y")
    top = 2**EXP_BITS - 1
    assert ring.unpack(ring.pack((top, 5))) == (top, 5)
    with pytest.raises(OverflowError):
        ring.pack((2**EXP_BITS, 0))
    with pytest.raises(OverflowError):
        normal_form_list(ring.monomial((0, 2**EXP_BITS)), LeadIndex([x]))
    # x - y^top leads with x under lex: reducing x gives y^top, x*y would give y^(top + 1)
    g = x - ring.monomial((0, top))
    assert normal_form_list(x, LeadIndex([g])) == ring.monomial((0, top))
    with pytest.raises(OverflowError):
        normal_form_list(x * y, LeadIndex([g]))
    # the S-polynomial of g and x*y - 1 is 1 - y^(top + 1)
    with pytest.raises(OverflowError):
        pair_normal_form(lead_entry(g), lead_entry(x * y - 1), LeadIndex())
    # the same reductions of vectors in position 1 of a position ring, beside
    # a lead in position 0, whose bucket the position-1 terms never scan
    mring = _position_ring(ring, 2)
    vg = _encode({1: g}, mring, 2)
    vlead = LeadIndex([_encode({0: x}, mring, 2), vg])
    assert normal_form_list(_encode({1: x}, mring, 2), vlead) == _encode(
        {1: ring.monomial((0, top))}, mring, 2
    )
    with pytest.raises(OverflowError):
        normal_form_list(_encode({1: x * y}, mring, 2), vlead)
    with pytest.raises(OverflowError):
        pair_normal_form(
            lead_entry(vg), lead_entry(_encode({1: x * y - 1}, mring, 2)), LeadIndex()
        )


def direct_codes(ring, e):
    """(key, word) of e by their formulas: key(e) = sum e_j * cols[j]; base
    exponent j in bits (EXP_BITS + 1) * j, position k as k + 1 above them."""
    n = ring._nbase
    word = sum(x << (EXP_BITS + 1) * j for j, x in enumerate(e[:n]))
    if 1 in e[n:]:
        word += (e.index(1, n) - n + 1) << (EXP_BITS + 1) * n
    return sum(x * c for x, c in zip(e, ring._cols)), word


@pytest.mark.parametrize("bound", [4, rings.MEMO_BOUND], ids=["cleared", "full"])
def test_memoised_codes_match_the_direct_formulas(monkeypatch, bound):
    # key, pack and unpack on random tuples, each twice so the second call
    # is answered by the ring's memo; with room for 4 entries every memo is
    # cleared many times and still answers exactly
    monkeypatch.setattr(rings, "MEMO_BOUND", bound)
    rng = random.Random(bound)
    top = 2**EXP_BITS - 1
    base = GradedRing(["x", "y", "z", "w"], [0, -1, -2, -1], "degrevlex")
    orders = [base, GradedRing(base.names, base.weights, "lex")]
    orders += [GradedRing(base.names, base.weights, o) for o in ("weighted:3,1,2,1", "elim:2")]
    orders += [_position_ring(base, 3)]
    for ring in orders:
        n, rank = ring._nbase, ring.nvars - ring._nbase
        exps = []
        for _ in range(60):
            e = [rng.choice([0, 1, 2, 3, top]) for _ in range(n)] + [0] * rank
            if rank and rng.random() < 0.8:
                e[n + rng.randrange(rank)] = 1
            exps.append(tuple(e))
        for _ in range(2):
            for e in rng.sample(exps, len(exps)):
                key, word = direct_codes(ring, e)
                assert (ring.key(e), ring.pack(e), ring.unpack(word)) == (key, word, e)
                assert max(map(len, (ring._keys, ring._words, ring._tuples))) <= bound
        assert all(type(k) is tuple for k in [*ring._keys, *ring._words])


def test_rejected_tuples_raise_on_every_call():
    # pack stores nothing it rejects, so the second call raises as the first
    ring = _position_ring(GradedRing(["x", "y"], [0, -1]), 2)
    for e, error in [((2**EXP_BITS, 0, 0, 0), OverflowError), ((0, 1, 1, 1), ValueError)]:
        for _ in range(2):
            with pytest.raises(error):
                ring.pack(e)
            assert e not in ring._words


def test_code_memos_are_not_shared_between_equal_rings():
    a, b = GradedRing(["x", "y"], [0, -1]), GradedRing(["x", "y"], [0, -1])
    assert a == b
    a.key((1, 2)), a.pack((1, 2)), a.unpack(a.pack((1, 2)))
    assert (b._keys, b._words, b._tuples) == ({}, {}, {})


@pytest.mark.parametrize(
    "names, order",
    [
        (["x", "y", "z"], "weighted:1"),
        (["x"], "weighted:1,2"),
        (["x", "y"], "elim:5"),
        (["x", "y"], "elim:-1"),
        (["x"], "weighted:-1"),
        (["x"], "degrevlex:junk"),
        (["x"], "lex:3"),
        (["x", "y"], "weighted:1, 2"),
        (["x", "y"], "pot3:lex"),
    ],
)
def test_ring_rejects_an_order_that_misfits_its_variables(names, order):
    with pytest.raises(ValueError):
        GradedRing(names, [0] * len(names), order)


def test_extended_weighted_ring_gives_new_variables_weight_zero():
    R = GradedRing(["x", "y"], [0, -1], "weighted:1,3")
    assert R.extended(["t"], [0]).order == "weighted:1,3,0"


def test_extended_position_ring_is_refused():
    # new variables would follow the positions, and the order would take
    # the last `rank` variables, new ones among them, as the positions
    mring = _position_ring(GradedRing(["x", "y"], [0, -1]), 2)
    with pytest.raises(ValueError):
        mring.extended(["t"], [0])


# -- fitting chain helper sanity (increasing chain)


def test_fitting_chain_is_increasing():
    from uhat.infinitesimal import fitting_chain_from_matrix

    A = PresentedAlgebra(R2)
    chain = fitting_chain_from_matrix(A, ((R2.zero(), X),), 1)
    assert chain.ideal(-1).generators == ()
    assert [str(g) for g in chain.ideal(0).generators] == ["x"]
    assert chain.ideal(1).is_unit()


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_polynomial("x^2 - 3*y + 1/2", R2),
        lambda: HEISENBERG.pbw_monomials_of_weight(6, exact=False),
        lambda: determinant([[X, Y], [Y, X + 1]]),
        lambda: comult_coefficients(HEISENBERG, 4),
    ],
    ids=["parse_polynomial", "pbw_monomials_of_weight", "determinant", "comult_coefficients"],
)
def test_recursive_helpers_leave_no_reference_cycles(call):
    """Without the cyclic collector, 100 calls leave nothing for it to free."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()
