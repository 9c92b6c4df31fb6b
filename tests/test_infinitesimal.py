import random
from fractions import Fraction

import pytest

from uhat.rings import GradedRing, Ideal, PresentedAlgebra, groebner_basis
from uhat.lie import DerivationAction, GradedLieAlgebra
from uhat.infinitesimal import (
    _nonzero_minors,
    check_cdrs,
    check_ss_eq_s,
    fitting_chain_from_matrix,
    infinitesimal_matrix,
    kernel_generators,
    min_nonzero_fitting,
    relative_map,
    relative_stabiliser_dim,
    validate_point,
)

from conftest import heisenberg_free, one_weight_free, one_weight_jump, rank_drop_pair, two_weight_chain
from oracles import enumerate_kernel_linear, every_nonzero_minor, verify_snake_exactness


# -- matrices


def test_matrix_of_jump_fixture(ga_jump):
    m = infinitesimal_matrix(ga_jump)
    assert [[str(p) for p in row] for row in m] == [["0", "x"]]


def test_matrix_of_trivial_action():
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi"]])
    act = DerivationAction(A, L, {"xi": {}})
    m = infinitesimal_matrix(act)
    assert all(p.is_zero() for row in m for p in row)


def test_matrix_of_filtration_piece(chain3):
    m = infinitesimal_matrix(chain3, 1)
    assert [[str(p) for p in row] for row in m] == [["0", "0", "x"]]


def test_matrix_entries_have_coherent_weight(chain3):
    m = infinitesimal_matrix(chain3)
    ring = chain3.ring
    for row, lie_idx in zip(m, chain3.lie.filtration_indices(chain3.lie.nlevels), strict=True):
        w = chain3.lie.weight_of(lie_idx)
        for entry, name in zip(row, ring.names, strict=True):
            if entry.is_zero():
                continue
            comps = entry.weight_decompose()
            assert set(comps) == {ring.weights[ring.index(name)] + w}


# -- relative maps


def test_relative_map_level_one_is_free(chain3):
    pairing = relative_map(chain3, 1)
    assert len(pairing) == 1
    assert len(kernel_generators(chain3, 0)) == 3  # free on dx, dy, dz
    assert [str(p) for p in pairing[0]] == ["0", "0", "x"]


def test_relative_map_level_two(chain3):
    pairing = relative_map(chain3, 2)
    gens = {tuple(str(p) for p in g) for g in kernel_generators(chain3, 1)}
    assert gens == {("1", "0", "0"), ("0", "1", "0")}
    values = sorted(str(p) for p in pairing[0])
    assert values == ["0", "x"]


def test_relative_map_zero_dimensional_level():
    R = GradedRing(["x"], [0])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([], [])
    act = DerivationAction(A, L, {})
    assert act.lie.nlevels == 0


def test_empty_weight_block_is_vacuous():
    # a declared weight with no basis vectors: rank-zero relative map
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([2, 1], [[], ["b"]])
    act = DerivationAction(A, L, {"b": {"y": R.one()}})
    assert act.validate() == []
    pairing = relative_map(act, 1)
    assert pairing == ()
    chain = fitting_chain_from_matrix(A, pairing, 0)
    assert min_nonzero_fitting(chain) == 0 and chain.ideal(0).is_unit()
    assert relative_stabiliser_dim(act, 1, {"x": Fraction(1), "y": Fraction(2)}) == 0
    rep = check_cdrs(act)
    assert rep["holds"]


# -- fitting chains


def test_fitting_chain_of_row(ga_jump):
    chain = fitting_chain_from_matrix(ga_jump.algebra, relative_map(ga_jump, 1), 1)
    assert chain.ideal(-1).generators == ()
    assert [str(g) for g in chain.ideal(0).generators] == ["x"]
    assert chain.ideal(1).is_unit()
    assert min_nonzero_fitting(chain) == 0


def test_fitting_chain_zero_matrix():
    R = GradedRing(["x"], [0])
    A = PresentedAlgebra(R)
    chain = fitting_chain_from_matrix(A, ((R.zero(), R.zero()), (R.zero(), R.zero())), 2)
    assert chain.ideal(0).generators == ()
    assert chain.ideal(1).generators == ()
    assert chain.ideal(2).is_unit()
    assert min_nonzero_fitting(chain) == 2


def test_fitting_chain_identity_matrix():
    R = GradedRing(["x"], [0])
    A = PresentedAlgebra(R)
    one, zero = R.one(), R.zero()
    chain = fitting_chain_from_matrix(A, ((one, zero), (zero, one)), 2)
    for k in range(0, 3):
        assert chain.ideal(k).is_unit()
    assert min_nonzero_fitting(chain) == 0


def test_fitting_presentation_invariance_randomized():
    rng = random.Random(11)
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)

    def rand_poly(deg=2):
        p = R.zero()
        for d in range(deg + 1):
            for m in R.monomials_of_degree(d):
                if rng.random() < 0.4:
                    p = p + R.monomial(m, rng.randint(-3, 3))
        return p

    for _ in range(4):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        mat = [[rand_poly() for _ in range(cols)] for _ in range(rows)]
        chain = fitting_chain_from_matrix(A, tuple(tuple(r) for r in mat), rows)
        extra_cols = []
        for _ in range(3):
            combo = [rand_poly(1) for _ in range(cols)]
            extra_cols.append(
                [sum((mat[i][j] * combo[j] for j in range(cols)), R.zero()) for i in range(rows)]
            )
        big = [list(mat[i]) + [col[i] for col in extra_cols] for i in range(rows)]
        chain2 = fitting_chain_from_matrix(A, tuple(tuple(r) for r in big), rows)
        for k in range(-1, rows + 1):
            assert chain.ideal(k).groebner() == chain2.ideal(k).groebner()


def test_nonzero_minors_skip_zero_rows_and_columns_exactly():
    # x^2 = x, so normal forms drop minors that are nonzero polynomials
    rng = random.Random(22)
    R = GradedRing(["x", "y"], [0, 0])
    x, y = R.var("x"), R.var("y")
    A = PresentedAlgebra(R, Ideal(R, [x * x - x]))
    pool = [R.zero(), R.one(), x, y, x - 1, x * y, x + y]

    def with_zero_lines(core, nrows, ncols):
        # the core's entries in order, at random row and column positions
        rs = sorted(rng.sample(range(nrows), len(core)))
        cs = sorted(rng.sample(range(ncols), len(core[0])))
        mat = [[R.zero()] * ncols for _ in range(nrows)]
        for r, row in zip(rs, core):
            for c, entry in zip(cs, row):
                mat[r][c] = entry
        return tuple(map(tuple, mat))

    zero = ((R.zero(),) * 3,) * 2
    for size in range(1, 4):
        assert _nonzero_minors(A, zero, size) == []
    # one live column under the 2 x 2 minors of a 2 x 4 matrix
    thin = with_zero_lines([[x], [y]], 2, 4)
    assert _nonzero_minors(A, thin, 2) == [] and _nonzero_minors(A, thin, 1) == [x, y]
    maximal_nonzero = 0
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        core = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
        mat = with_zero_lines(core, rows + rng.randint(0, 1), cols + rng.randint(0, 3))
        # up to one past the row count; len(mat) gives the maximal minors of check_ss_eq_s
        for size in range(1, len(mat) + 2):
            assert _nonzero_minors(A, mat, size) == every_nonzero_minor(A, mat, size), (mat, size)
        maximal_nonzero += bool(_nonzero_minors(A, mat, len(mat)))
    assert maximal_nonzero >= 5


def test_fitting_surjection_monotonicity(ga_jump):
    # quotient the target by adding new relation columns: Fit_k only grows
    pairing = relative_map(ga_jump, 1)
    chain = fitting_chain_from_matrix(ga_jump.algebra, pairing, 1)
    R = ga_jump.ring
    bigger_rows = (pairing[0] + (R.var("y"),),)
    chain2 = fitting_chain_from_matrix(ga_jump.algebra, bigger_rows, 1)
    for k in range(-1, 2):
        small = Ideal(R, list(chain.ideal(k).generators))
        for g in small.generators:
            assert Ideal(
                R, list(chain2.ideal(k).generators)
            ).contains(g)


# -- stabilisers at points


def test_stabiliser_rank_jump(ga_jump):
    assert relative_stabiliser_dim(ga_jump, 1, {"x": Fraction(1), "y": Fraction(0)}) == 0
    assert relative_stabiliser_dim(ga_jump, 1, {"x": Fraction(0), "y": Fraction(0)}) == 1


def test_stabiliser_trivial_action_is_everything():
    R = GradedRing(["x"], [0])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi"]])
    act = DerivationAction(A, L, {"xi": {}})
    assert relative_stabiliser_dim(act, 1, {"x": Fraction(2)}) == 1


def test_point_violating_relation_rejected():
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R, Ideal(R, [R.var("x") ** 2 - R.var("x")]))
    L = GradedLieAlgebra([1], [["xi"]])
    act = DerivationAction(A, L, {"xi": {"y": R.var("x")}})
    with pytest.raises(ValueError):
        relative_stabiliser_dim(act, 1, {"x": Fraction(2), "y": Fraction(0)})


def test_relative_stabiliser_dim_names_a_missing_coordinate(ga_jump):
    with pytest.raises(ValueError, match="point lacks coordinates y"):
        relative_stabiliser_dim(ga_jump, 1, {"x": Fraction(1)})


def test_validate_point_names_a_missing_coordinate():
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R, Ideal(R, [R.var("x") ** 2 - R.var("x")]))
    with pytest.raises(ValueError, match="point lacks coordinates y"):
        validate_point(A, {"x": Fraction(2)})


def test_relative_stabiliser_dim_refuses_a_level_out_of_range(ga_jump):
    point = {"x": Fraction(1), "y": Fraction(0)}
    for level in (0, 2):
        with pytest.raises(ValueError, match=f"level {level} out of range"):
            relative_stabiliser_dim(ga_jump, level, point)


def test_relative_stabiliser_dims(chain3):
    assert relative_stabiliser_dim(chain3, 2, {"x": Fraction(1), "y": Fraction(0), "z": Fraction(0)}) == 0
    assert relative_stabiliser_dim(chain3, 2, {"x": Fraction(0), "y": Fraction(0), "z": Fraction(0)}) == 1


def test_point_ideal_coherence_on_random_points(chain3):
    rng = random.Random(3)
    for _ in range(20):
        point = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for n in chain3.ring.names}
        for level in (1, 2):
            # the cross-check inside raises on any mismatch with the chain
            relative_stabiliser_dim(chain3, level, point)


# -- condition checks


def test_ss_eq_s_free_translation(ga_free):
    ok, cert = check_ss_eq_s(ga_free)
    assert ok and "unit_combination" in cert


def test_ss_eq_s_jump_fixture(ga_jump):
    ok, cert = check_ss_eq_s(ga_jump)
    assert not ok
    assert cert["fit0_generators"] == ["x"]


def test_ss_eq_s_zero_dimensional_group():
    R = GradedRing(["x"], [0])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([], [])
    act = DerivationAction(A, L, {})
    ok, cert = check_ss_eq_s(act)
    assert ok and cert.get("vacuous")


def test_ss_eq_s_certificate_is_exact(ga_free):
    ok, cert = check_ss_eq_s(ga_free)
    combo = cert["unit_combination"]
    from uhat.scenario import parse_polynomial

    total = ga_free.ring.zero()
    for gen_text, cof_text in combo.items():
        total = total + parse_polynomial(gen_text, ga_free.ring) * parse_polynomial(
            cof_text, ga_free.ring
        )
    assert ga_free.algebra.equal(total, ga_free.ring.one())


def test_ss_eq_s_rejects_a_wrong_certificate(ga_free, monkeypatch):
    import uhat.infinitesimal as inf

    genuine = inf.unit_certificate
    monkeypatch.setattr(inf, "unit_certificate", lambda gens: [c * 2 for c in genuine(gens)])
    with pytest.raises(RuntimeError):
        check_ss_eq_s(ga_free)


def test_ss_eq_s_implies_trivial_stabilisers(ga_free):
    rng = random.Random(5)
    for _ in range(10):
        point = {n: Fraction(rng.randint(-4, 4)) for n in ga_free.ring.names}
        assert relative_stabiliser_dim(ga_free, 1, point) == 0


def test_cdrs_reports(ga_free, ga_jump, chain3):
    assert check_cdrs(ga_free)["holds"]
    rep = check_cdrs(ga_jump)
    assert not rep["holds"]
    assert rep["levels"][1]["k"] == 0
    rep3 = check_cdrs(chain3)
    assert not rep3["holds"]
    assert not rep3["levels"][1]["fit_unit"] and not rep3["levels"][2]["fit_unit"]


def test_cdrs_empty_chart_is_vacuous():
    R = GradedRing(["x"], [0])
    A = PresentedAlgebra(R, Ideal(R, [R.one()]))
    L = GradedLieAlgebra([1], [["xi"]])
    act = DerivationAction(A, L, {"xi": {}})
    rep = check_cdrs(act)
    assert rep["holds"] and rep.get("empty_chart")


def test_cdrs_rank_drop_pair():
    act = rank_drop_pair()
    rep = check_cdrs(act)
    assert rep["levels"][1]["k"] == 1
    assert rep["levels"][1]["fit_below_zero"]
    assert not rep["levels"][1]["fit_unit"]


# -- snake exactness


def test_snake_exactness_level_one_is_cokernel(chain3):
    assert verify_snake_exactness(chain3, 1, degree=2)


def test_snake_exactness_level_two(chain3):
    assert verify_snake_exactness(chain3, 2, degree=2)


def test_snake_exactness_zero_action():
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([2, 1], [["a"], ["b"]])
    act = DerivationAction(A, L, {})
    assert verify_snake_exactness(act, 1, degree=1)
    assert verify_snake_exactness(act, 2, degree=1)


def test_snake_exactness_heisenberg():
    act = heisenberg_free()
    assert verify_snake_exactness(act, 2, degree=2)


def test_kernel_enumeration_matches_syzygies(chain3):
    # degree-0 coefficients: kernel of (0 0 x) has dx, dy and nothing else
    vecs = enumerate_kernel_linear(chain3, 1, 0)
    strs = {tuple(str(p) for p in v) for v in vecs}
    assert ("1", "0", "0") in strs and ("0", "1", "0") in strs
    assert all(v[2].is_zero() for v in vecs)


def test_kernel_enumeration_is_pinned(chain3):
    # degree <= 1 coefficients of dx and dy, in unknown order
    vecs = [tuple(str(p) for p in v) for v in enumerate_kernel_linear(chain3, 1, 1)]
    assert vecs == [
        ("1", "0", "0"),
        ("x", "0", "0"),
        ("y", "0", "0"),
        ("z", "0", "0"),
        ("0", "1", "0"),
        ("0", "x", "0"),
        ("0", "y", "0"),
        ("0", "z", "0"),
    ]
