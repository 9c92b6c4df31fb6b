"""Staged invariant-ring quotients along the weight filtration.

Each stage finds slice functions for the top remaining weight, retracts onto
the invariant subring with the alternating-sign projection, presents that
subring by the image of the slice ideal and rebuilds the induced action of
the remaining filtration.  Iterating exhibits the chart as an affine space over the full
invariant ring.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from uhat.rings import (
    GradedRing,
    Ideal,
    Polynomial,
    PresentedAlgebra,
    determinant,
    groebner_basis,
    solve_linear,
    sparse_system,
)
from uhat.lie import DerivationAction, GradedLieAlgebra, multi_range
from uhat.infinitesimal import check_cdrs, level_data


DEGREE_BOUND = 8  # default search bound for slices and witness minors


class BoundExhausted(Exception):
    """Search failed within a configured degree bound (not a refutation)."""

    def __init__(self, message, bound, condition_ok=None):
        super().__init__(message)
        self.bound = bound
        self.condition_ok = condition_ok


class StageError(Exception):
    pass


@dataclass(frozen=True)
class SliceSet:
    """Slice functions for one filtration level.

    `split` lists the Lie basis indices acting freely (the complement of the
    stabiliser directions); `functions[nu]` satisfies xi_mu . f_nu =
    delta_{mu nu} exactly for mu, nu over the split.
    """

    weight: int
    split: tuple
    functions: tuple


def find_slices(action, level, degree_bound):
    """Solve xi_mu . f_nu = delta_{mu nu} inside the weight -w_i slice.

    Tries basis splits in a fixed order and degrees from 1 upward, taking the
    first exact solution of the resulting rational linear system.  Raises
    BoundExhausted when nothing is found within the bound; the exception
    records whether the level Fitting ideal is a unit, which distinguishes a
    too-small bound from a failing condition.
    """
    algebra = action.algebra
    lie = action.lie
    rows = lie.level_indices(level - 1)
    w = lie.weights[level - 1]
    data = level_data(action)[level]
    need = len(rows) - data.k
    if need == 0:
        return SliceSet(w, (), ())
    for deg in range(1, degree_bound + 1):
        monos = algebra.standard_monomials(weight=-w, max_degree=deg)
        if not monos:
            continue
        for split in itertools.combinations(rows, need):
            fns = _solve_slice_system(action, split, monos)
            if fns is not None:
                return SliceSet(w, split, tuple(fns))
    raise BoundExhausted(
        f"no slice functions of degree <= {degree_bound} at level {level}",
        degree_bound,
        condition_ok=data.unit_ideal.is_unit(),
    )


def _solve_slice_system(action, split, monos):
    """Exact linear solve for all slice functions over the given monomials.

    Equation (mi, mm) reads off the coefficient of mm in xi_mu . f for
    mu = split[mi]; f_nu asks for 1 at (nu, constant) and 0 elsewhere.
    """
    ring = action.ring
    one = (0,) * ring.nvars
    columns = [
        [
            ((mi, mm), c)
            for mi, mu in enumerate(split)
            for mm, c in action.apply_basis(mu, ring.monomial(m)).terms.items()
        ]
        for m in monos
    ]
    rows, index = sparse_system(columns, [(nu, one) for nu in range(len(split))])
    fns = []
    for nu in range(len(split)):
        rhs = [Fraction(0)] * len(rows)
        rhs[index[(nu, one)]] = Fraction(1)
        sol = solve_linear(rows, rhs)
        if sol is None:
            return None
        fns.append(Polynomial(ring, dict(zip(monos, sol))))
    return fns


def _check_projection_preconditions(action, split, functions):
    algebra = action.algebra
    ring = action.ring
    problems = []
    for a, b in itertools.combinations(split, 2):
        for var in ring.names:
            g = ring.var(var)
            comm = action.apply_basis(a, action.apply_basis(b, g)) - action.apply_basis(
                b, action.apply_basis(a, g)
            )
            if not algebra.is_zero(comm):
                problems.append(("non-commuting", a, b, var))
    for mi, mu in enumerate(split):
        for ni, f in enumerate(functions):
            want = ring.one() if mi == ni else ring.zero()
            if not algebra.equal(action.apply_basis(mu, f), want):
                problems.append(("slice-identity", mu, ni))
    return problems


def _derivative_table(action, split, g):
    """All iterated derivatives xi^n . g over the split, indexed by n.

    The table is memoised on the action under (split, g), as `level_data`
    is, so callers must not mutate it.
    """
    key = (tuple(split), g)
    if key in action._derivative_tables:
        return action._derivative_tables[key]
    table = {(0,) * len(split): action.algebra.nf(g)}
    d = 0
    while True:
        d += 1
        alive = False
        for n in multi_range((d,) * len(split)):
            if sum(n) != d:
                continue
            j = next(i for i, e in enumerate(n) if e)
            prev = tuple(e - (1 if i == j else 0) for i, e in enumerate(n))
            if table.get(prev) is None or table[prev].is_zero():
                val = action.ring.zero()
            else:
                val = action.apply_basis(split[j], table[prev])
            table[n] = val
            if not val.is_zero():
                alive = True
        if not alive:
            break
    action._derivative_tables[key] = table
    return table


def dixmier_project(action, split, functions, g):
    """Retraction onto the joint kernel of the split derivations.

    pi(g) = sum_n ((-1)^{|n|}/n!) (xi^n . g) f^n, a finite sum by graded
    nilpotency.  With commuting derivations and exact slice identities this
    is a ring homomorphism fixing invariants and killing the slices.
    """
    pieces = [(n, d) for n, d in _derivative_table(action, split, g).items() if not d.is_zero()]
    return action.algebra.nf(_slice_sum(pieces, functions, -1, action.ring))


def _slice_sum(pieces, functions, sign, ring):
    """sum over (n, piece) of (sign^{|n|}/n!) piece f^n, f the slice functions."""
    total = ring.zero()
    for n, piece in pieces:
        coeff = Fraction(sign ** sum(n), math.prod(math.factorial(e) for e in n))
        fn = ring.one()
        for f, e in zip(functions, n):
            if e:
                fn = fn * f**e
        total = total + piece * fn * coeff
    return total


@dataclass(frozen=True)
class QuotientStage:
    """One stage of the chain: the slices of a level and the invariant ring they cut out.

    `values` gives, for each input generator, what its projection equals
    over the ring of `algebra_out`: a new generator (its own or an earlier
    duplicate's) or a constant.  `reconstructed` gives each generator's
    reconstruction sum_n (1/n!) pi(xi^n . x) f^n, evaluated in the input
    algebra; the slice theorem makes it equal the generator.
    """

    slices: SliceSet
    action_in: DerivationAction
    algebra_out: PresentedAlgebra
    inclusion: dict  # new generator name -> representative polynomial in action_in.algebra
    values: dict  # input generator -> its projection over algebra_out.ring
    reconstructed: dict  # input generator -> its evaluated reconstruction in action_in.algebra

    def rewrite(self, p):
        """p over the new generators if substituting back gives p (p is invariant), else None.

        The projection is a ring homomorphism fixing the invariants, so an
        invariant p equals p evaluated at `values`.
        """
        algebra = self.action_in.algebra
        expr = p.substitute(self.values, self.algebra_out.ring)
        if algebra.equal(expr.substitute(self.inclusion, algebra.ring), p):
            return expr
        return None


@dataclass
class QuotientChain:
    action: DerivationAction
    stages: list = field(default_factory=list)

    @property
    def final_algebra(self):
        if self.stages:
            return self.stages[-1].algebra_out
        return self.action.algebra

    @property
    def affine_dimension(self):
        return sum(len(s.slices.functions) for s in self.stages)


def invariant_presentation(action, slices):
    """Present the invariant ring of one level as a `QuotientStage`, with reconstruction.

    Generators are the projections of the ring generators (the projection is
    a ring homomorphism onto the invariants, so these always generate).
    Each generator's reconstruction, sum_n (1/n!) pi(xi^n . x) f^n, is
    evaluated back in the input algebra while its derivative table is at hand.

    Relations are the image of the slice ideal.  The preconditions give
    commuting locally nilpotent xi_i with xi_i . f_j = delta_ij, so by the
    slice theorem (induction on the slices, one at a time) the algebra R is
    R^xi[f_1..f_r] and the projection pi is a ring retraction onto R^xi with
    kernel (f).  The map k[x] -> R^xi, x -> pi(x), therefore has kernel
    I + (f), I the input relations.  Substituting `values` maps k[x] onto
    the new ring k[t], so the kernel of k[t] -> R, t_v -> pi(x_v), is the
    image of I + (f): the ideal that eliminating the t from the graph ideal
    I + (t_v - pi(x_v)) would give, with the same reduced basis.
    """
    algebra = action.algebra
    ring = action.ring
    split, functions = slices.split, slices.functions
    problems = _check_projection_preconditions(action, split, functions)
    if problems:
        raise StageError(f"projection preconditions violated: {problems}")

    images = {}
    values = {}  # generator -> name of the generator of its projection, or a constant
    for name in ring.names:
        p = dixmier_project(action, split, functions, ring.var(name))
        if not any(sum(m) for m in p.terms):
            values[name] = p.terms.get((0,) * ring.nvars, 0)
            continue
        dup = next((q_name for q_name, q in images.items() if p == q), None)
        if dup is None:
            images[name] = p
        values[name] = dup or name
    weights = [next(iter(rep.weight_decompose()), 0) for rep in images.values()]
    out_ring = GradedRing(list(images), weights)
    values = {name: out_ring.var(v) if isinstance(v, str) else v for name, v in values.items()}
    # the projection's kernel is the slice ideal, so the relations and the
    # slices, with each generator's projection substituted, present the
    # image; their reduced basis serves the stage's ideal as its basis
    rels = groebner_basis(
        [g.substitute(values, out_ring) for g in [*algebra.relations.generators, *functions]]
    )

    # pi is a ring homomorphism sending each generator to its value, so the
    # projection of xi^n . x is the derivative over the new generators, read
    # back through the images
    reconstructed = {}
    for name in ring.names:
        table = _derivative_table(action, split, ring.var(name))
        pieces = ((n, deriv.substitute(values, out_ring)) for n, deriv in table.items())
        pieces = [(n, expr.substitute(images, ring)) for n, expr in pieces if not expr.is_zero()]
        reconstructed[name] = algebra.nf(_slice_sum(pieces, functions, 1, ring))
    out = PresentedAlgebra(out_ring, Ideal.of_basis(out_ring, rels))
    return QuotientStage(slices, action, out, images, values, reconstructed)


def _induced_action(stage):
    """Descend the remaining filtration to the invariant presentation."""
    action = stage.action_in
    lie = action.lie
    if lie.nlevels <= 1:
        return None
    sub_basis = [lie.basis_names[i] for l in range(1, lie.nlevels) for i in lie.level_indices(l)]
    blocks = [[lie.basis_names[i] for i in lie.level_indices(l)] for l in range(1, lie.nlevels)]
    keep = set(sub_basis)
    brackets = {}
    for a in sub_basis:
        for b in sub_basis:
            ia, ib = lie.index(a), lie.index(b)
            if ia >= ib:
                continue
            combo = {
                lie.basis_names[k]: v
                for k, v in lie.bracket_basis(ia, ib).items()
                if lie.basis_names[k] in keep
            }
            if combo:
                brackets[(a, b)] = combo
    sub_lie = GradedLieAlgebra(lie.weights[1:], blocks, brackets)
    table = {}
    for name in sub_basis:
        i = lie.index(name)
        row = {}
        for new_name, rep in stage.inclusion.items():
            img = action.apply_basis(i, rep)
            if action.algebra.is_zero(img):
                continue
            expr = stage.rewrite(img)
            if expr is None:
                raise StageError(
                    f"induced image {name}.{new_name} does not descend to the invariant ring"
                )
            row[new_name] = expr
        table[name] = row
    return DerivationAction(stage.algebra_out, sub_lie, table)


def staged_quotient(action, degree_bound=DEGREE_BOUND):
    """Iterate the one-level quotient over the whole weight filtration.

    Requires the constant-rank condition on the input; the induced action is
    re-validated and re-checked at every stage, and any failure aborts with
    the stage index.
    """
    if any(w > 0 for w in action.ring.weights):
        raise StageError("chart weights must all be nonpositive")
    if not check_cdrs(action)["holds"]:
        raise StageError("constant-rank condition fails; run the blow-up first")
    chain = QuotientChain(action)
    current = action
    while current is not None and current.lie.nlevels > 0:
        if current.algebra.is_empty():
            break
        stage_level = len(chain.stages) + 1
        if stage_level > 1 and not check_cdrs(current)["holds"]:
            raise StageError(f"induced action at stage {stage_level} lost the constant-rank condition")
        slices = find_slices(current, 1, degree_bound)
        stage = invariant_presentation(current, slices)
        violations = [
            name
            for name in current.ring.names
            if not current.algebra.equal(stage.reconstructed[name], current.ring.var(name))
        ]
        if violations:
            raise StageError(f"reconstruction failed at stage {stage_level} for {violations}")
        induced = _induced_action(stage)
        if induced is not None:
            bad = induced.validate()
            if bad:
                raise StageError(f"induced action invalid at stage {stage_level}: {bad[:1]}")
        chain.stages.append(stage)
        current = induced
    return chain


def verify_quotient(chain):
    """Independent checks of a computed quotient chain.

    Confirms that every invariant generator is killed by the whole level
    (not only the split directions), that the slice pairing determinant is
    the unit certificate, and that the reconstruction identities hold
    exactly.  Failures are reported, not raised.
    """
    failures = []
    for number, stage in enumerate(chain.stages, 1):
        action = stage.action_in
        algebra = action.algebra
        level_rows = action.lie.level_indices(0)
        for name, rep in stage.inclusion.items():
            for mu in level_rows:
                img = action.apply_basis(mu, rep)
                if not algebra.is_zero(img):
                    failures.append(
                        {
                            "stage": number,
                            "kind": "not-invariant",
                            "generator": name,
                            "vector": action.lie.basis_names[mu],
                            "image": str(img),
                        }
                    )
        fs = stage.slices.functions
        if fs:
            rows = [[action.apply_basis(mu, f) for f in fs] for mu in stage.slices.split]
            det = algebra.nf(determinant(rows))
            if det != algebra.ring.one():
                failures.append({"stage": number, "kind": "slice-determinant", "det": str(det)})
        for name in action.ring.names:
            if not algebra.equal(stage.reconstructed[name], action.ring.var(name)):
                failures.append({"stage": number, "kind": "reconstruction", "generator": name})
    return {"ok": not failures, "failures": failures, "affine_dimension": chain.affine_dimension}
