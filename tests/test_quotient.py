import dataclasses
import functools
import random
from fractions import Fraction

import pytest

from uhat.rings import GradedRing, Ideal, PresentedAlgebra
from uhat.lie import DerivationAction, GradedLieAlgebra
from uhat.infinitesimal import check_cdrs
from uhat.blowup import build_chart, centre, construct_b
from uhat.quotient import (
    DEGREE_BOUND,
    BoundExhausted,
    QuotientChain,
    SliceSet,
    StageError,
    _derivative_table,
    dixmier_project,
    find_slices,
    invariant_presentation,
    staged_quotient,
    verify_quotient,
)

from uhat.scenario import load_scenario

from conftest import (
    SCENARIOS,
    blowup_charts,
    heisenberg_free,
    one_weight_free,
    one_weight_jump,
    sweep_script,
    two_weight_chain,
)
from oracles import graph_ideal_relations


# -- slices


def test_find_slices_free_translation(ga_free):
    s = find_slices(ga_free, 1, 4)
    assert len(s.functions) == 1
    assert str(s.functions[0]) == "y"


def test_find_slices_full_stabiliser_is_empty():
    R = GradedRing(["x"], [0])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi"]])
    act = DerivationAction(A, L, {"xi": {}})
    s = find_slices(act, 1, 4)
    assert s.functions == () and s.split == ()


def test_find_slices_failure_reports_bound(ga_jump):
    with pytest.raises(BoundExhausted) as err:
        find_slices(ga_jump, 1, 3)
    assert err.value.bound == 3
    assert err.value.condition_ok is False  # the Fitting ideal is not a unit


# -- the projection


def test_projection_kills_slices(ga_free):
    s = find_slices(ga_free, 1, 4)
    R = ga_free.ring
    assert dixmier_project(ga_free, s.split, s.functions, R.var("y")).is_zero()


def test_projection_fixes_invariants(ga_free):
    s = find_slices(ga_free, 1, 4)
    R = ga_free.ring
    g = R.var("x") ** 3 + 2 * R.var("x")
    assert dixmier_project(ga_free, s.split, s.functions, g) == g


def test_projection_idempotent_and_kills_derivation(ga_free):
    s = find_slices(ga_free, 1, 4)
    R = ga_free.ring
    rng = random.Random(2)
    monos = []
    for d in range(4):
        monos.extend(R.monomials_of_degree(d))
    for _ in range(10):
        g = R.zero()
        for m in monos:
            if rng.random() < 0.5:
                g = g + R.monomial(m, rng.randint(-3, 3))
        pg = dixmier_project(ga_free, s.split, s.functions, g)
        assert dixmier_project(ga_free, s.split, s.functions, pg) == pg
        assert ga_free.apply_basis(0, pg).is_zero()


def test_projection_is_multiplicative(ga_free):
    s = find_slices(ga_free, 1, 4)
    R = ga_free.ring
    g, h = R.var("x") + R.var("y"), R.var("y") ** 2 - 1
    pg = dixmier_project(ga_free, s.split, s.functions, g)
    ph = dixmier_project(ga_free, s.split, s.functions, h)
    pgh = dixmier_project(ga_free, s.split, s.functions, g * h)
    assert pgh == pg * ph


def test_projection_precondition_violation_reported(ga_jump):
    R = ga_jump.ring
    with pytest.raises(StageError):
        invariant_presentation(ga_jump, SliceSet(1, (0,), (R.var("y"),)))


# -- random commuting-slice instances via triangular automorphisms


class TriangularInstance:
    """Conjugate of coordinate derivations by an explicit automorphism.

    The automorphism is a composition of elementary moves u_i -> u_i + h
    with h free of u_1..u_i, so it has an exact inverse; the conjugated
    derivations commute and admit the conjugated coordinates as slices.
    """

    def __init__(self, r, extra, moves, ring):
        self.r = r
        self.ring = ring
        self.moves = moves  # list of (var index, shift polynomial)

    def forward(self, p):
        for idx, shift in self.moves:
            name = self.ring.names[idx]
            p = p.substitute(
                {n: (self.ring.var(n) + shift if n == name else self.ring.var(n)) for n in self.ring.names},
                self.ring,
            )
        return p

    def backward(self, p):
        for idx, shift in reversed(self.moves):
            name = self.ring.names[idx]
            p = p.substitute(
                {n: (self.ring.var(n) - shift if n == name else self.ring.var(n)) for n in self.ring.names},
                self.ring,
            )
        return p

    def derivation(self, i):
        def act(p):
            fwd = self.forward(p)
            out = self.ring.zero()
            name = self.ring.names[i]
            vi = self.ring.index(name)
            for m, c in fwd.terms.items():
                if m[vi]:
                    lowered = list(m)
                    lowered[vi] -= 1
                    out = out + self.ring.monomial(tuple(lowered), c * m[vi])
            return self.backward(out)

        return act

    def slices(self):
        return [self.backward(self.ring.var(self.ring.names[i])) for i in range(self.r)]


def make_triangular_instance(seed, r, extra):
    rng = random.Random(seed)
    names = [f"u{i}" for i in range(r)] + [f"s{i}" for i in range(extra)]
    ring = GradedRing(names, [0] * (r + extra))
    moves = []
    for i in range(r):
        later = names[i + 1 :]
        if not later:
            continue
        shift = ring.zero()
        for _ in range(2):
            v = rng.choice(later)
            w = rng.choice(later)
            shift = shift + ring.var(v) * ring.var(w) * rng.randint(-2, 2)
            shift = shift + ring.var(v) * rng.randint(-2, 2)
        moves.append((i, shift))
    return TriangularInstance(r, extra, moves, ring)


def conjugated_action(inst):
    """Package the conjugated derivations as a derivation action."""
    ring = inst.ring
    A = PresentedAlgebra(ring)
    L = GradedLieAlgebra([1], [[f"d{i}" for i in range(inst.r)]])
    table = {}
    for i in range(inst.r):
        act = inst.derivation(i)
        table[f"d{i}"] = {n: act(ring.var(n)) for n in ring.names}
    return DerivationAction(A, L, table)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_triangular_instances_satisfy_projection_laws(seed):
    rng = random.Random(seed * 31)
    r = rng.randint(1, 3)
    extra = rng.randint(1, 2)
    inst = make_triangular_instance(seed, r, extra)
    action = conjugated_action(inst)
    fns = tuple(inst.slices())
    split = tuple(range(r))
    R = inst.ring
    for mu in range(r):
        for nu, f in enumerate(fns):
            want = R.one() if mu == nu else R.zero()
            assert action.apply_basis(mu, f) == want
    monos = []
    for d in range(3):
        monos.extend(R.monomials_of_degree(d))
    for _ in range(10):
        g = R.zero()
        for m in monos:
            if rng.random() < 0.35:
                g = g + R.monomial(m, rng.randint(-2, 2))
        pg = dixmier_project(action, split, fns, g)
        assert dixmier_project(action, split, fns, pg) == pg
        for mu in range(r):
            assert action.apply_basis(mu, pg).is_zero()
        # exact roundtrip: g rebuilt from projected derivatives and slices
        from uhat.quotient import _derivative_table
        import math

        total = R.zero()
        for n, deriv in _derivative_table(action, split, g).items():
            if deriv.is_zero():
                continue
            piece = dixmier_project(action, split, fns, deriv)
            coeff = Fraction(1, math.prod(math.factorial(e) for e in n))
            fn = R.one()
            for f, e in zip(fns, n):
                fn = fn * f**e
            total = total + piece * fn * coeff
        assert total == g


# -- invariant presentations and the staged quotient


def test_invariant_presentation_free_translation(ga_free):
    s = find_slices(ga_free, 1, 4)
    stage = invariant_presentation(ga_free, s)
    assert list(stage.inclusion) == ["x"]
    assert str(stage.inclusion["x"]) == "x"
    assert stage.algebra_out.relations.generators == ()
    # y = f1, so its reconstruction evaluates back to y
    R = ga_free.ring
    assert stage.reconstructed["y"] == R.var("y")
    # x is invariant and y is not, so only x rewrites over the invariants
    assert str(stage.rewrite(R.var("x") ** 2 - 3)) == "x^2 - 3"
    assert stage.rewrite(R.var("y")) is None


def test_reconstruction_pieces_are_projected_derivatives():
    # the piece for n, xi^n . x over the new generators mapped back through
    # the inclusion, is the Dixmier projection of xi^n . x, modulo the
    # stage's input relations
    chains = [
        staged_quotient(load_scenario(SCENARIOS / f"{name}.uhat").build())
        for name in ("heisenberg_free", "one_weight_free")
    ]
    chains += [staged_quotient(chart.action) for _, _, chart in blowup_charts()]
    checked = 0
    for chain in chains:
        for stage in chain.stages:
            action, split, fns = stage.action_in, stage.slices.split, stage.slices.functions
            ring = action.ring
            for name in ring.names:
                for deriv in _derivative_table(action, split, ring.var(name)).values():
                    if deriv.is_zero():
                        continue
                    want = dixmier_project(action, split, fns, deriv)
                    got = deriv.substitute(stage.values, stage.algebra_out.ring)
                    assert action.algebra.equal(got.substitute(stage.inclusion, ring), want)
                assert action.algebra.equal(stage.reconstructed[name], ring.var(name))
                checked += 1
    assert checked == 120


def test_staged_quotient_free_translation(ga_free):
    chain = staged_quotient(ga_free)
    assert len(chain.stages) == 1
    assert chain.final_algebra.ring.names == ("x",)
    assert chain.affine_dimension == 1
    assert verify_quotient(chain)["ok"]


def test_staged_quotient_refuses_jump(ga_jump):
    with pytest.raises(StageError):
        staged_quotient(ga_jump)


def test_staged_quotient_trivial_levels():
    # every vector acts by zero: all stages trivial, quotient is the ring
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([2, 1], [["a"], ["b"]])
    act = DerivationAction(A, L, {})
    chain = staged_quotient(act)
    assert chain.affine_dimension == 0
    assert set(chain.final_algebra.ring.names) == {"x", "y"}
    assert verify_quotient(chain)["ok"]


def test_staged_quotient_heisenberg():
    chain = staged_quotient(heisenberg_free())
    assert len(chain.stages) == 2
    assert chain.final_algebra.ring.names == ()
    assert chain.affine_dimension == 3
    assert verify_quotient(chain)["ok"]
    # stage count and fibre dimension match the sliced directions
    assert sum(len(st.slices.functions) for st in chain.stages) == 3


def test_verify_quotient_detects_corruption(ga_free):
    chain = staged_quotient(ga_free)
    stage = chain.stages[0]
    stage.inclusion["x"] = stage.action_in.ring.var("y")  # no longer invariant
    rep = verify_quotient(chain)
    assert not rep["ok"]
    assert any(f["kind"] == "not-invariant" for f in rep["failures"])


def test_verify_quotient_detects_corrupted_reconstruction(ga_free):
    stage = invariant_presentation(ga_free, find_slices(ga_free, 1, 4))
    # a stage's fields are fixed once it is built
    with pytest.raises(dataclasses.FrozenInstanceError):
        stage.reconstructed = {}
    stage.reconstructed["y"] = ga_free.ring.zero()
    rep = verify_quotient(QuotientChain(ga_free, [stage]))
    assert rep["failures"] == [{"stage": 1, "kind": "reconstruction", "generator": "y"}]


def test_stage_tables_are_built_once(ga_free):
    chain = staged_quotient(ga_free)
    stage = chain.stages[0]
    split = stage.slices.split
    y = ga_free.ring.var("y")
    # the table is rebuilt on each call, from the action's derivative memo:
    # each entry past n = 0 is the object apply_basis memoised
    table = _derivative_table(ga_free, split, y)
    for n, deriv in table.items():
        if any(n):
            j = next(i for i, e in enumerate(n) if e)
            prev = tuple(e - (i == j) for i, e in enumerate(n))
            if not table[prev].is_zero():
                assert deriv is ga_free.apply_basis(split[j], table[prev])
    assert _derivative_table(ga_free, split, y) == table
    # the stage carries every generator's evaluated reconstruction
    assert set(stage.reconstructed) == {"x", "y"}
    assert stage.reconstructed["y"] == y
    assert verify_quotient(chain)["ok"]


@functools.cache
def route_chains():
    """(label, chain): each shipped scenario's quotient route, then sweep chart quotients.

    A scenario whose constant-rank condition fails is quotiented on its
    blow-up chart, as `blowup --with-quotient` does; the sweep charts are
    those of the first 40 sweep-script instances from seed 1.
    """
    chains = []
    for path in sorted(SCENARIOS.glob("*.uhat")):
        action = load_scenario(path).build()
        if not check_cdrs(action)["holds"]:
            cd = centre(action, DEGREE_BOUND)
            action = build_chart(action, cd, construct_b(action, cd)).action
        chains.append((path.stem, staged_quotient(action, DEGREE_BOUND)))
    seed = 1
    for i in range(40):
        action, seed = sweep_script().sample(seed)
        cd = centre(action)
        chart = build_chart(action, cd, construct_b(action, cd))
        chains.append((f"sweep_{i}", staged_quotient(chart.action)))
    return chains


def test_stage_relations_match_graph_ideal_elimination():
    # the slice-ideal image and the graph-ideal elimination have the same
    # reduced basis, in the same order
    stages = nonempty = 0
    for label, chain in route_chains():
        assert verify_quotient(chain)["ok"], label
        for stage in chain.stages:
            rels = list(stage.algebra_out.relations.generators)
            assert rels == graph_ideal_relations(stage), label
            stages += 1
            nonempty += bool(rels)
    assert (len(route_chains()), stages, nonempty) == (46, 89, 54)


def test_stage_relations_come_from_the_slices():
    # the slice y - x*z projects y onto x*z, a new generator, so the image of
    # the slice is the one relation; the input has none
    R = GradedRing(["x", "y", "z"], [0, -1, -1])
    x, y, z = (R.var(n) for n in "xyz")
    lie = GradedLieAlgebra([1], [["xi"]])
    act = DerivationAction(PresentedAlgebra(R), lie, {"xi": {"y": R.one()}})
    stage = invariant_presentation(act, SliceSet(1, (0,), (y - x * z,)))
    assert stage.inclusion == {"x": x, "y": x * z, "z": z}
    rels = list(stage.algebra_out.relations.generators)
    assert [str(g) for g in rels] == ["x*z - y"]
    assert rels == graph_ideal_relations(stage)
    assert verify_quotient(QuotientChain(act, [stage]))["ok"]


def test_stage_relations_vanish_on_the_inclusion():
    for label, chain in route_chains():
        for stage in chain.stages:
            algebra = stage.action_in.algebra
            for rel in stage.algebra_out.relations.generators:
                assert algebra.is_zero(rel.substitute(stage.inclusion, algebra.ring)), label


def test_staged_quotient_with_positive_k():
    # one weight, two vectors, one acting by zero: coker has rank 1, so the
    # split leaves a genuine stabiliser direction that must also kill the
    # invariants
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi1", "xi2"]])
    act = DerivationAction(A, L, {"xi1": {"y": R.one()}})
    rep = check_cdrs(act)
    assert rep["holds"] and rep["levels"][1]["k"] == 1
    chain = staged_quotient(act)
    assert chain.affine_dimension == 1
    assert chain.final_algebra.ring.names == ("x",)
    assert verify_quotient(chain)["ok"]
    # the slice pairs only against the acting vector
    assert chain.stages[0].slices.split == (0,)


def test_quotient_with_relations():
    # relations x*y: the free direction survives, invariants present the base
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R, Ideal(R, [R.var("x") ** 2 - R.var("x")]))
    L = GradedLieAlgebra([1], [["xi"]])
    act = DerivationAction(A, L, {"xi": {"y": R.one()}})
    assert act.validate() == []
    chain = staged_quotient(act)
    assert verify_quotient(chain)["ok"]
    out = chain.final_algebra
    assert out.ring.names == ("x",)
    assert [str(g) for g in out.relations.generators] == ["x^2 - x"]
