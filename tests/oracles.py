"""Independent oracles that the tests use to cross-check the package.

Each function recomputes from definitions something the tool decides by
other means: the coaction by its nilpotent expansion, the determinantal
sum by cofactor expansion, the kernel of a pairing matrix by linear algebra
on bounded-degree coefficients, the exactness of the snake sequence by
module membership, the nonzero minors of a matrix by reducing every
minor, the relations of a quotient stage by graph-ideal elimination,
the relations of a blow-up chart by the plain saturation, a
substitution term by term, a derivative by the Leibniz rule with no
memo, an action's relation and bracket checks in the algebra, a lead
entry from Fraction terms, a
reduced basis by interreducing monic copies and the comultiplication
lemma failures by the plain loop over each row; `right_nullspace` is the
exact linear algebra the kernel oracle solves with, and `term_mul` the
product by one term that it and the reference reductions build.  No
command runs them, and the package checks each certificate where it
emits it, so they live here rather than in `uhat`.
"""

import math
from fractions import Fraction
from math import gcd

from uhat.blowup import E_operator
from uhat.infinitesimal import infinitesimal_matrix, level_data, pair_coordinates
from uhat.rings import (
    GradedRing,
    Ideal,
    LeadIndex,
    Polynomial,
    _decode,
    _encode,
    _position_ring,
    eliminate,
    minors_ideal_generators,
    module_groebner,
    normal_form_list,
    numerators,
    rref,
    sparse_system,
)


def term_mul(p, coeff, exp):
    """p times the term coeff x^exp."""
    if coeff == 0:
        return p.ring.zero()
    return Polynomial(
        p.ring,
        {tuple(a + b for a, b in zip(m, exp)): c * coeff for m, c in p.terms.items()},
        False,
    )


def column_span(rows, relations):
    """The columns of `rows` as vectors {row: entry}, then f*e_i per nonzero relation f, row i."""
    ncols = len(rows[0]) if rows else 0
    out = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]
    out.extend({i: f} for f in relations if f for i in range(len(rows)))
    return out


def right_nullspace(rows):
    """Basis of {x : M x = 0} as column vectors (lists of Fractions)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for rowi, pc in enumerate(pivots):
            v[pc] = -red[rowi][fc]
        basis.append(v)
    return basis


def every_nonzero_minor(algebra, rows, size):
    """Nonzero normal forms of all size x size minors of `rows`, zero rows and columns included."""
    minors = (algebra.nf(m) for m in minors_ideal_generators(rows, size))
    return [m for m in minors if m]


def graph_ideal_relations(stage):
    """The relations of a quotient stage's invariant ring, by graph-ideal elimination.

    Eliminates the input generators from the graph ideal I + (t_v - pi(x_v))
    of the stage's inclusion, I the input relations, and returns the kept
    elements over the stage's out ring.  The new generators may reuse input
    names, so the graph ideal carries reserved internal names for them.
    """
    algebra = stage.action_in.algebra
    out_ring = stage.algebra_out.ring
    internal = [f"@{t}" for t in range(out_ring.nvars)]
    ring = algebra.ring
    big = GradedRing(ring.names + tuple(internal), ring.weights + out_ring.weights)
    graph = [g.map_ring(big) for g in algebra.relations.generators]
    graph += [
        big.var(iname) - stage.inclusion[name].map_ring(big)
        for iname, name in zip(internal, out_ring.names)
    ]
    kept = eliminate(Ideal(big, graph), internal).generators
    rename = {iname: out_ring.var(name) for iname, name in zip(internal, out_ring.names)}
    return [g.substitute(rename, out_ring) for g in kept]


def saturation_relations(action, chart):
    """The relations of a blow-up chart of `action`, by the plain saturation.

    Eliminates @inv from I + (a t_i - g_i) + (a @inv - 1), I the relations
    of `action`, with one generator a t_i - g_i for every chart member
    (t_i, g_i), the first one too.  Unlike `build_chart`, it inverts a
    itself and divides no generator by its monomial content.
    """
    ring = chart.algebra.ring
    big = GradedRing(ring.names + ("@inv",), ring.weights + (0,))
    a = chart.centre_data.a.map_ring(big)
    gens = [g.map_ring(big) for g in action.algebra.relations.generators]
    gens += [a * big.var(name) - g.map_ring(big) for name, g in chart.generators]
    gens.append(a * big.var("@inv") - big.one())
    return list(eliminate(Ideal(big, gens), ring.names).generators)


def substitute_per_term(p, values, ring):
    """`p.substitute(values, ring)` term by term: const(c) times each value's power, summed."""
    total = ring.zero()
    for m, c in p.terms.items():
        part = ring.const(c)
        for name, e in zip(p.ring.names, m):
            if e:
                val = values[name]
                part = part * (val if isinstance(val, Polynomial) else ring.const(val)) ** e
        total = total + part
    return total


def leibniz_reference(action, i, p):
    """`action.apply_basis(i, p)` with no memo: the Leibniz rule term by term, then nf.

    The sum, over each term c x^m of p and each variable x_v with e = m_v
    > 0, of c e x^(m - e_v) times the image of x_v under basis vector i.
    """
    ring = action.ring
    total = ring.zero()
    for m, c in p.terms.items():
        for v, name in enumerate(ring.names):
            e = m[v]
            if e:
                lowered = m[:v] + (e - 1,) + m[v + 1 :]
                total = total + ring.monomial(lowered, c * e) * action.image_of_generator(i, name)
    return action.algebra.nf(total)


def validate_reference(action):
    """`action.validate()` with its relation and bracket checks decided in the algebra.

    Every derivative comes from `leibniz_reference`, and each check reduces
    its difference again by `algebra.is_zero` or `algebra.equal`; the
    structure and weight entries, which reduce nothing, are `validate`'s.
    """
    algebra, lie, ring = action.algebra, action.lie, action.ring
    checked = ("relations-not-preserved", "bracket-compatibility")
    report = [e for e in action.validate() if e["kind"] not in checked]

    def apply(i, p):
        return leibniz_reference(action, i, p)

    for rel in algebra.relations.generators:
        for i, name in enumerate(lie.basis_names):
            img = apply(i, rel)
            if not algebra.is_zero(img):
                report.append(
                    {
                        "kind": "relations-not-preserved",
                        "vector": name,
                        "relation": str(rel),
                        "image": str(img),
                    }
                )
    for a in range(lie.dim):
        for b in range(a + 1, lie.dim):
            combo = lie.bracket_basis(a, b)
            for var in ring.names:
                g = ring.var(var)
                lhs = apply(a, apply(b, g)) - apply(b, apply(a, g))
                rhs = sum((apply(i, g) * c for i, c in combo.items() if c), ring.zero())
                if not algebra.equal(lhs, rhs):
                    report.append(
                        {
                            "kind": "bracket-compatibility",
                            "pair": (lie.basis_names[a], lie.basis_names[b]),
                            "generator": var,
                            "difference": str(lhs - rhs),
                        }
                    )
    return report


def integer_terms(p):
    """Terms of a nonzero p scaled to integers with content 1 and a positive lead coefficient."""
    terms = numerators(p)[1]
    content = gcd(*terms.values())
    if terms[p.lm()] < 0:
        content = -content
    return {m: c // content for m, c in terms.items()}


def lead_entry_reference(g):
    """`lead_entry(g)` from g's Fraction terms, with g itself as its last field.

    The span packs each base variable's largest exponent, read off the
    transposed exponent tuples.
    """
    ring = g.ring
    lm = g.lm()
    terms = integer_terms(g)
    lc = terms.pop(lm)
    tail = [(ring.key(m), ring.pack(m), c) for m, c in terms.items()]
    n = ring._nbase
    span = ring.pack(tuple([max(col) for col in zip(*g.terms)][:n] + [0] * (ring.nvars - n)))
    return (ring.pack(lm), ring.key(lm), lc, tail, span, g)


def reduce_groebner_reference(G):
    """`reduce_groebner(G)` by interreducing monic copies of the elements.

    Each element is made monic, those whose lead an earlier lead divides
    are dropped, and each tail is rebuilt as a polynomial and reduced by
    the index of all the kept elements.
    """
    if not G:
        return []
    ring = G[0].ring
    key = ring.key
    G = sorted((g.monic() for g in G if g), key=lambda g: key(g.lm()))
    minimal, words = [], []
    for g in G:
        w = ring.pack(g.lm())
        if all((w - v) & ring.guard for v in words):
            minimal.append(g)
            words.append(w)
    lead = LeadIndex(minimal)
    reduced = []
    for g in minimal:
        lm = g.lm()
        tail = {m: c for m, c in g.terms.items() if m != lm}
        rem = normal_form_list(Polynomial(ring, tail, False), lead)
        reduced.append(Polynomial(ring, {lm: g.terms[lm], **rem.terms}, False))
    return sorted(reduced, key=lambda g: key(g.lm()), reverse=True)


def module_normal_form(v, lead, ring, rank):
    """Remainder of the vector v under `lead`, the `LeadIndex` of an encoded basis."""
    return _decode(normal_form_list(_encode(v, _position_ring(ring, rank), rank), lead), ring)


def coaction_expand(action, f):
    """Expansion of g.f over exponential coordinates of the second kind.

    Returns the finite list of pairs (alpha, f_alpha) with
    f_alpha = (1/alpha!) xi^alpha . f, so the zeroth component is f itself
    and the expansion is exact by nilpotency of the graded action.
    """
    f = action.algebra.nf(f)
    lie = action.lie
    if f.is_zero():
        return [((0,) * lie.dim, f)]
    bound = max(0, -f.min_weight())
    out = []
    for alpha in lie.pbw_monomials_of_weight(bound, exact=False):
        comp = action.apply_pbw(alpha, f)
        if alpha == (0,) * lie.dim or not comp.is_zero():
            fact = math.prod(math.factorial(a) for a in alpha)
            out.append((alpha, comp * Fraction(1, fact)))
    return sorted(out)


def verify_determinantal_sum(action, witness, h, lie_element):
    """Check sum_mu (xi_mu . h) E_mu(A) = (A . h) a^(i) exactly."""
    row = [action.apply_vector(lie_element, f) for f in witness.functions]
    lhs = action.ring.zero()
    for mu, r in enumerate(witness.split_rows):
        lhs = lhs + action.apply_basis(r, h) * E_operator(action, witness, mu, row)
    rhs = action.apply_vector(lie_element, h) * witness.a
    return action.algebra.equal(lhs, rhs)


def enumerate_kernel_linear(action, upto_level, degree):
    """Degree-bounded kernel vectors of the filtration pairing, by linear algebra.

    Independent oracle for syzygy completeness: unknowns are the rational
    coefficients of each coordinate polynomial up to the degree bound, and
    the pairing conditions reduce to an exact linear system in them.
    """
    algebra = action.algebra
    ring = action.ring
    mat = infinitesimal_matrix(action, upto_level)
    ncols = ring.nvars
    monos = [m for d in range(degree + 1) for m in ring.monomials_of_degree(d)]
    # unknown (j, m) is the coefficient of m in coordinate j; equation
    # (ri, mm) is the coefficient of mm in the pairing with row ri
    columns = [
        [
            ((ri, mm), c)
            for ri, row in enumerate(mat)
            for mm, c in algebra.nf(term_mul(row[j], Fraction(1), m)).terms.items()
        ]
        for j in range(ncols)
        for m in monos
    ]
    rows, _ = sparse_system(columns)
    n = len(monos)
    return [
        tuple(Polynomial(ring, dict(zip(monos, vec[j * n : (j + 1) * n]))) for j in range(ncols))
        for vec in right_nullspace(rows)
    ]


def verify_snake_exactness(action, i, degree=2):
    """Exactness of coker(relative map) -> Q(u_i) -> Q(u_{i-1}) -> 0, truncated.

    Surjectivity on the right is by construction; the content checked here
    is that the kernel of the projection is exactly the image of the
    relative cokernel, i.e. that the computed kernel generators are
    complete up to the degree bound.
    """
    algebra = action.algebra
    ring = action.ring
    lie = action.lie
    mat_i = infinitesimal_matrix(action, i)
    rows_prev = len(lie.filtration_indices(i - 1))
    rows_all = len(mat_i)
    r_i = rows_all - rows_prev
    pairing = level_data(action)[i].pairing
    rels = algebra.relations.groebner()
    # spans of the full pairing in A^{rows_all} and of the relative pairing in A^{r_i}
    big = LeadIndex(module_groebner(column_span(mat_i, rels), ring, rows_all))
    small = LeadIndex(module_groebner(column_span(pairing, rels), ring, r_i))

    # image of the relative cokernel lies in the kernel of the projection
    for column in zip(*pairing):
        v = {rows_prev + mu: p for mu, p in enumerate(column) if p}
        if module_normal_form(v, big, ring, rows_all):
            return False

    # completeness: every degree-bounded kernel vector pairs into the span
    level_rows = lie.level_indices(i - 1)
    for coords in enumerate_kernel_linear(action, i - 1, degree):
        vals = [pair_coordinates(action, coords, mu) for mu in level_rows]
        v = {pos: val for pos, val in enumerate(vals) if val}
        if v and module_normal_form(v, small, ring, r_i):
            return False
    return True


def comult_lemma_failures_reference(table, n):
    """The degree-bound, counit and single-step failures of a comultiplication table.

    The plain loop: a degree pass and a counit pass (left counit, else right
    counit) over each row, then the trichotomy for every unit e_j and every
    beta one below alpha, comparing alpha with beta + e_j.  It reads only the
    keys a row has, so unlike `cli._comult_lemma_failures` it misses an
    absent counit or step entry.
    """
    failures = []
    zero = (0,) * n
    for alpha, entry in table.items():
        for (beta, gamma), c in entry.items():
            if c and sum(alpha) > sum(beta) + sum(gamma):
                failures.append({"kind": "degree-bound", "alpha": alpha, "beta": beta, "gamma": gamma})
        for (beta, gamma), c in entry.items():
            if beta == zero and c != (1 if gamma == alpha else 0):
                failures.append({"kind": "counit", "alpha": alpha, "gamma": gamma, "value": str(c)})
            elif beta != zero and gamma == zero and c != (1 if beta == alpha else 0):
                failures.append({"kind": "counit", "alpha": alpha, "beta": beta, "value": str(c)})
    units = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    for alpha, entry in table.items():
        below = sum(alpha) - 1
        betas = [beta for beta in {bg[0] for bg in entry} if sum(beta) == below]
        for j, ej in enumerate(units):
            for beta in betas:
                c = entry.get((beta, ej), 0)
                if bool(c) != (alpha == tuple(b + e for b, e in zip(beta, ej))):
                    failures.append({"kind": "e_j-trichotomy", "alpha": alpha, "beta": beta, "j": j})
                if c and c != 1 + beta[j]:
                    failures.append(
                        {
                            "kind": "e_j-value",
                            "alpha": alpha,
                            "beta": beta,
                            "j": j,
                            "value": str(c),
                            "expected": 1 + beta[j],
                        }
                    )
    return failures
