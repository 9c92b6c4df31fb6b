"""One-step blow-up producing constant relative stabiliser dimensions.

The centre is cut out by the sweep ideal of the locus where the minimal
Fitting ideals vanish inside the weight-zero stratum.  Determinantal
witnesses give a distinguished degree-one element `a`; row-replacement
determinants build the recursive elements whose chart differentials carry a
unit pairing block, which is what makes the blown-up chart pass the
constant-rank condition.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from uhat.rings import (
    GradedRing,
    Ideal,
    Polynomial,
    PresentedAlgebra,
    determinant,
    matrix_rank,
)
from uhat.rings import eliminate as ring_eliminate
from uhat.lie import DerivationAction, binom_multi, multi_range, pbw_word
from uhat.infinitesimal import check_cdrs, infinitesimal_matrix, level_data, validate_point
from uhat.quotient import DEGREE_BOUND, BoundExhausted


class NoBlowupNeeded(Exception):
    pass


class VerificationFailed(Exception):
    pass


def negative_weight_variables(ring):
    return [n for n, w in zip(ring.names, ring.weights) if w < 0]


@dataclass(frozen=True)
class LevelWitness:
    """Row subset and weight-homogeneous functions behind one minor a^(i)."""

    level: int  # 1-based
    weight: int
    split_rows: tuple  # lie basis indices, length r_i - k_i
    functions: tuple  # Polynomial, weight -w_i
    pairing: tuple  # row per split row r: xi_r . f for each function f
    a: Polynomial  # the minor a^(i), the determinant of the pairing; one when it is empty

    @property
    def need(self):
        return len(self.split_rows)


@dataclass
class CentreData:
    k_vector: tuple
    witnesses: list  # LevelWitness per level, level i at index i - 1
    product_ideal: Ideal  # product of the minimal nonzero Fitting ideals
    centre_ideal: Ideal  # product ideal + negative weight part

    @property
    def a(self):
        return self.a_product(1)

    def a_product(self, lo, hi=None):
        """Product of the witness minors of the levels lo <= level < hi."""
        out = self.product_ideal.ring.one()
        for w in self.witnesses[lo - 1 : None if hi is None else hi - 1]:
            out = out * w.a
        return out


@dataclass
class BElements:
    per_level: dict  # level -> list of Polynomial


# ---------------------------------------------------------------------------
# the Weak Unipotent Upstairs condition


def k_vector(action):
    """The minimal nonzero Fitting index k_i of every level."""
    return tuple(d.k for d in level_data(action).values())


def product_fitting_ideal(action, start=1):
    """Product of the minimal nonzero Fitting ideals of the levels >= start."""
    gens = [action.ring.one()]
    for i, d in level_data(action).items():
        if i >= start:
            gens = [action.algebra.nf(g * h) for g in gens for h in d.fit_k.generators]
            gens = [g for g in gens if g]
    return Ideal(action.ring, gens)


WITNESS_TRIALS = 20  # sampled points before the witness search gives up


def check_wuu(action):
    """Whether the weight-zero stratum meets the minimal-rank locus.

    Decided exactly: the product of the minimal nonzero Fitting ideals must
    not be contained in relations + negative-weight part.  When it holds,
    the info names the first product generator outside that part.
    """
    algebra = action.algebra
    ring = action.ring
    if algebra.is_empty():
        return True, {"empty_chart": True, "k_vector": ()}
    ks = k_vector(action)
    prod = product_fitting_ideal(action)
    stratum = algebra.ideal(ring.var(n) for n in negative_weight_variables(ring))
    nonzero = [g for g in prod.generators if not stratum.contains(g)]
    info = {"k_vector": ks, "product_generators": [str(g) for g in prod.generators]}
    if not nonzero:
        return False, info
    info["weight_zero_generator"] = str(nonzero[0])
    return True, info


def witness_point(action):
    """A rational point of the weight-zero locus with the minimal stabiliser dimensions.

    Searched among `WITNESS_TRIALS` points: the all-ones point, then points
    drawn from `random.Random(1)`, so the point depends on the action
    alone.  None when no trial has the expected stabiliser pattern.
    """
    rng = random.Random(1)
    ring = action.ring
    neg = set(negative_weight_variables(ring))
    # the stabiliser of u_i at a point has dimension k_1 + ... + k_i there,
    # the corank of u_i's pairing matrix evaluated at the point
    targets = list(itertools.accumulate(k_vector(action)))
    mats = [infinitesimal_matrix(action, i) for i in range(1, action.lie.nlevels + 1)]
    for trial in range(WITNESS_TRIALS):
        # ring-variable order keeps the report independent of set hashing
        point = {
            n: Fraction(0) if n in neg else Fraction(rng.randint(-3, 3) if trial else 1)
            for n in ring.names
        }
        if validate_point(action.algebra, point):
            continue
        if all(
            len(mat) - matrix_rank([[p.evaluate(point) for p in row] for row in mat]) == target
            for mat, target in zip(mats, targets)
        ):
            return point
    return None


# ---------------------------------------------------------------------------
# centre of the blow-up


def _witness_minors(action, weight, rows, need, degree_bound):
    """The nonzero `need`-minors modulo the relations, as (split, functions, matrix, minor).

    In the order the centre tries them: by degree up to `degree_bound`,
    then by function set among the standard monomials of weight -`weight`,
    then by split rows of `rows`.
    """
    algebra = action.algebra
    for deg in range(1, degree_bound + 1):
        monos = algebra.standard_monomials(weight=-weight, max_degree=deg)
        cands = [action.ring.monomial(m) for m in monos]
        for fns in itertools.combinations(cands, need):
            for split in itertools.combinations(rows, need):
                mat = [[action.apply_basis(mu, f) for f in fns] for mu in split]
                minor = algebra.nf(determinant(mat))
                if minor:
                    yield split, fns, mat, minor


def centre(action, degree_bound=DEGREE_BOUND):
    """Select determinantal witnesses and assemble the centre ideal.

    Witness functions are enumerated degree by degree among the standard
    monomials of the level weight, over all row subsets of the level basis;
    the first nonzero minor modulo the relations wins, and the basis is
    reordered so the chosen minor sits in the top-left block.
    """
    ring = action.ring
    cdrs = check_cdrs(action)
    if cdrs["holds"]:
        raise NoBlowupNeeded("constant-rank condition already holds; no blow-up needed")
    witnesses = []
    for i, d in level_data(action).items():
        w = action.lie.weights[i - 1]
        rows = action.lie.level_indices(i - 1)
        need = len(rows) - d.k
        if need == 0:
            witnesses.append(LevelWitness(i, w, (), (), (), ring.one()))
            continue
        found = next(_witness_minors(action, w, rows, need, degree_bound), None)
        if found is None:
            raise BoundExhausted(
                f"no nonzero witness minor of degree <= {degree_bound} at level {i}",
                degree_bound,
            )
        split, fns, mat, minor = found
        if minor.weight_decompose().keys() - {0}:
            raise VerificationFailed(f"witness minor at level {i} is not weight zero")
        if not d.unit_ideal.contains(minor):
            raise VerificationFailed(
                f"witness minor at level {i} does not lie in its Fitting ideal"
            )
        witnesses.append(LevelWitness(i, w, split, fns, tuple(map(tuple, mat)), minor))
    prod = product_fitting_ideal(action)
    centre_ideal = Ideal(
        ring,
        [g for g in prod.generators]
        + [ring.var(n) for n in negative_weight_variables(ring)],
    )
    return CentreData(k_vector(action), witnesses, prod, centre_ideal)


# ---------------------------------------------------------------------------
# the sweep ideal membership oracle


def j_membership(action, ideal, g):
    """Whether every iterated derivative of g lies in the ideal.

    The test set is the finite family of PBW monomials whose weight does not
    exceed the negative of the minimal weight of g; grading nilpotency kills
    everything beyond.  Returns (bool, witness) with the failing monomial
    and value on the negative side.
    """
    algebra = action.algebra
    test = algebra.ideal(ideal.generators)
    g = algebra.nf(g)
    bound = max(0, -g.min_weight())
    for p in action.lie.pbw_monomials_of_weight(bound, exact=False):
        val = action.apply_pbw(p, g)
        if not test.contains(val):
            return False, {"pbw": p, "value": str(val)}
    return True, None


# ---------------------------------------------------------------------------
# determinantal operators


def E_operator(action, witness, mu, row):
    """Row-replacement determinant against the witness functions.

    Row mu of the witness pairing matrix is replaced by `row`, one value per
    witness function: the images A . f of a Lie element A, or w * f for a
    scalar weight w.
    """
    rows = list(witness.pairing)
    rows[mu] = row
    return action.algebra.nf(determinant(rows))


# ---------------------------------------------------------------------------
# the recursive elements and their certificates


def construct_b(action, centre_data):
    """Build the level elements by the top-down determinantal recursion.

    For the lowest weight the element is the scalar-row determinant; higher
    levels correct by the lower elements so that the split pairing stays
    diagonal.  All three certificate properties are verified exactly, and a
    failure raises VerificationFailed naming the property.
    """
    algebra = action.algebra
    lie = action.lie
    n = lie.nlevels
    witnesses = centre_data.witnesses
    per_level = {}
    for i in range(n, 0, -1):
        wit = witnesses[i - 1]
        fns = wit.functions
        scaled = [f * lie.weights[i - 1] for f in fns]
        out = []
        for mu in range(wit.need):
            total = E_operator(action, wit, mu, scaled)
            total = total * centre_data.a_product(i + 1)
            for ip in range(i + 1, n + 1):
                wip = witnesses[ip - 1]
                between = centre_data.a_product(i + 1, ip)
                for mup, r in enumerate(wip.split_rows):
                    row = [action.apply_basis(r, f) for f in fns]
                    coeff = E_operator(action, wit, mu, row)
                    total = total - coeff * between * per_level[ip][mup]
            out.append(algebra.nf(total))
        per_level[i] = out
    elements = BElements(per_level)
    verify_b_properties(action, centre_data, elements)
    return elements


def verify_b_properties(action, centre_data, elements):
    """The three exact certificates behind the chart unit block.

    The derivative certificate checks every PBW monomial of the level weight.
    """
    algebra = action.algebra
    lie = action.lie
    for i, bs in elements.per_level.items():
        wit = centre_data.witnesses[i - 1]
        w = lie.weights[i - 1]
        suffix = centre_data.a_product(i)
        for nu, b in enumerate(bs):
            comps = b.weight_decompose()
            if set(comps) - {-w}:
                raise VerificationFailed(f"element at level {i} is not weight -{w}")
            for pos, mu in enumerate(wit.split_rows):
                want = suffix * w if pos == nu else algebra.ring.zero()
                got = action.apply_basis(mu, b)
                if not algebra.equal(got, want):
                    raise VerificationFailed("diagonal pairing identity failed")
        membership = algebra.ideal(product_fitting_ideal(action, start=i).generators)
        for b in bs:
            for p in lie.pbw_monomials_of_weight(w, exact=True):
                if not membership.contains(action.apply_pbw(p, b)):
                    raise VerificationFailed("derivative left the suffix Fitting product")
        prefix = centre_data.a_product(1, i)
        for b in bs:
            if not j_membership(action, centre_data.centre_ideal, prefix * b)[0]:
                raise VerificationFailed("scaled element fails the sweep membership")


def beta_values(action, centre_data, level, mu, p):
    """The recursion computing xi^p applied to the level element.

    Follows the complete-bracket expansion: the top term uses the weight of
    the last nonzero block of p, and lower levels are corrected through the
    binomial sum over weight-graded submonomials.
    """
    lie = action.lie
    witnesses = centre_data.witnesses
    wit = witnesses[level - 1]
    fns = wit.functions
    n = lie.nlevels
    last_level = max(lie.levels[idx] for idx, e in enumerate(p) if e)
    w_last = lie.weights[last_level]
    bracket = lie.complete_bracket_word(pbw_word(p))
    row = [action.apply_vector(bracket, f) for f in fns]
    total = E_operator(action, wit, mu, row) * w_last
    if level == n:
        return action.algebra.nf(total)
    total = total * centre_data.a_product(level + 1)
    for ip in range(level + 1, n + 1):
        wip = witnesses[ip - 1]
        between = centre_data.a_product(level + 1, ip)
        target = lie.weights[ip - 1]
        for q in multi_range(p):
            if lie.pbw_weight(q) != target:
                continue
            binom = binom_multi(p, q)
            pq = tuple(pe - qe for pe, qe in zip(p, q))
            for mup in range(wip.need):
                word = pbw_word(pq) + (wip.split_rows[mup],)
                br = lie.complete_bracket_word(word)
                coeff = E_operator(action, wit, mu, [action.apply_vector(br, f) for f in fns])
                if coeff.is_zero():
                    continue
                beta_sub = beta_values(action, centre_data, ip, mup, q)
                total = total - coeff * between * beta_sub * binom
    return action.algebra.nf(total)


def beta_check(action, centre_data, elements, level, mu, p):
    """Compare the recursion against the direct iterated derivative."""
    lie = action.lie
    if lie.pbw_weight(p) != lie.weights[level - 1]:
        raise ValueError("the monomial weight must match the level weight")
    direct = action.apply_pbw(p, elements.per_level[level][mu])
    via_beta = beta_values(action, centre_data, level, mu, p)
    return action.algebra.equal(direct, via_beta)


# ---------------------------------------------------------------------------
# charts of the blow-up


@dataclass
class BlowupChart:
    centre_data: CentreData
    generators: list  # (chart name, base polynomial g) with t = g/a
    algebra: PresentedAlgebra
    action: DerivationAction
    scaled_b_names: dict = field(default_factory=dict)  # level -> list of chart names


def _content(p):
    """Exponent tuple of the largest monomial dividing every term of a nonzero p."""
    return tuple(map(min, zip(*p.terms)))


def _divided(p, exp):
    """p divided by the monomial of exponent `exp`, which divides every term of p."""
    return Polynomial(
        p.ring, {tuple(e - d for e, d in zip(m, exp)): c for m, c in p.terms.items()}, False
    )


def build_chart(action, centre_data, elements):
    """Present the affine blow-up chart at the witness product.

    Chart generators are fractions g/a for the canonical sweep members (the
    witness product itself and the prefix-scaled level elements), closed
    under the basis derivations, and named t0, t1, ... in order, skipping
    the base ring's names.  Relations come from saturating the graph
    ideal by `a` through an adjoined inverse: the ideal I + (a t_i - g_i) +
    (a @inv - 1) of k[x, t, @inv], with @inv eliminated.  A witness product
    that is zero or nilpotent modulo the relations raises
    VerificationFailed: its chart is empty and repairs nothing.

    Eliminating @inv from J + (b @inv - 1) gives the saturation J : b^oo,
    and two cheaper inputs give the same one.  The inverse is adjoined to
    a_red = (a / m) * v_1 ... v_s instead of a, m the largest monomial
    dividing every term of a and v_1, ..., v_s the variables of m: a
    divides a power of a_red and a_red a power of a, so J : a^oo =
    J : a_red^oo.  Every other generator is divided by the largest monomial
    in v_1, ..., v_s dividing all its terms: if n q lies in J and n divides
    a power of a, then q lies in J : a^oo, so the saturation is unchanged.
    Its reduced basis is canonical, so the chart relations are those of
    the plain saturation.
    """
    algebra = action.algebra
    ring = action.ring
    lie = action.lie
    a = centre_data.a

    members = []
    lookup = {}  # monic numerator -> (member name, leading coefficient)
    fresh = (f"t{k}" for k in itertools.count() if f"t{k}" not in ring._index)

    def push(g):
        """Register g/a as a chart generator; returns (name, scale) with
        g = scale * member."""
        g = algebra.nf(g)
        if g.is_zero():
            return None
        key = g.monic()
        if key in lookup:
            name, lc = lookup[key]
            return name, g.lc() / lc
        name = next(fresh)
        members.append((name, g))
        lookup[key] = (name, g.lc())
        return name, Fraction(1)

    if algebra.is_zero(a):
        raise VerificationFailed("the witness product is zero modulo the relations")
    push(a)
    scaled_names = {}
    for i, bs in sorted(elements.per_level.items()):
        prefix = centre_data.a_product(1, i)
        names = []
        for b in bs:
            names.append(push(prefix * b))
        scaled_names[i] = names

    # close the member list under the basis derivations so the extended
    # action is expressible on chart generators: xi.t_g = scale * t_{xi.g}
    derived = {}  # (basis index, member name) -> (name, scale) of its derivative
    frontier = list(members)
    while frontier:
        name, g = frontier.pop()
        for idx in range(lie.dim):
            img = action.apply_basis(idx, g)
            if img.is_zero():
                continue
            before = len(members)
            derived[idx, name] = push(img)
            if len(members) > before:
                frontier.append(members[-1])

    for name, g in members:
        if not j_membership(action, centre_data.centre_ideal, g)[0]:
            raise VerificationFailed(f"chart member {name} fails sweep membership")

    tnames = [name for name, _ in members]
    tweights = []
    for _, g in members:
        comps = g.weight_decompose()
        if len(comps) != 1:
            raise VerificationFailed("chart members must be weight homogeneous")
        tweights.append(next(iter(comps)))
    if any(w > 0 for w in tweights):
        raise VerificationFailed("chart weights must be nonpositive")

    inv = "@inv"
    # plain degrevlex: the elimination maps every generator into its own
    # block order, and its result ring is degrevlex, so nothing reads big's order
    big = GradedRing(ring.names + (*tnames, inv), ring.weights + (*tweights, 0))
    gens = [g.map_ring(big) for g in algebra.relations.generators]
    a_big = a.map_ring(big)
    for name, g in members:
        gens.append(a_big * big.var(name) - g.map_ring(big))
    cont = _content(a_big)
    gens = [_divided(g, [e if c else 0 for c, e in zip(cont, _content(g))]) for g in gens]
    a_red = _divided(a_big, [max(c - 1, 0) for c in cont])
    gens.append(a_red * big.var(inv) - big.one())
    saturated = ring_eliminate(Ideal(big, gens), list(ring.names) + tnames)
    chart_ring = saturated.ring
    chart_algebra = PresentedAlgebra(chart_ring, saturated)
    if chart_algebra.is_empty():
        # 1 lies in the saturation exactly when a_red, which has the
        # radical of a, is nilpotent modulo the relations
        raise VerificationFailed(
            "the witness product is nilpotent modulo the relations: the chart is empty"
        )

    table = {}
    for bi, bname in enumerate(lie.basis_names):
        row = {}
        for var in ring.names:
            img = action.image_of_generator(bi, var)
            if img:
                row[var] = img.map_ring(chart_ring)
        for name, _ in members:
            if (bi, name) in derived:
                target, scale = derived[bi, name]
                row[name] = chart_ring.var(target) * scale
        table[bname] = row
    chart_action = DerivationAction(chart_algebra, lie, table)

    chart = BlowupChart(
        centre_data=centre_data,
        generators=members,
        algebra=chart_algebra,
        action=chart_action,
        scaled_b_names=scaled_names,
    )
    a_name = members[0][0]
    if not chart_algebra.equal(chart_ring.var(a_name), chart_ring.one()):
        raise VerificationFailed("the chart does not trivialise its own witness product")
    return chart


def verify_chart_cdrs(chart):
    """Constant-rank report on the chart plus the constructive certificate.

    Beyond re-running the Fitting checks, the scaled-element chart columns
    are paired against the split rows and must produce the level weight
    times the identity, exactly.
    """
    report = check_cdrs(chart.action)
    report["k_vector_base"] = chart.centre_data.k_vector
    report["certificates"] = {}
    algebra = chart.algebra
    ring = chart.algebra.ring
    ok_cert = True
    for level, names in chart.scaled_b_names.items():
        wit = chart.centre_data.witnesses[level - 1]
        w = wit.weight
        mat = []
        good = True
        for pos, mu in enumerate(wit.split_rows):
            row = []
            for nu, (name, scale) in enumerate(names):
                val = chart.action.apply_basis(mu, ring.var(name)) * scale
                row.append(str(val))
                want = ring.const(w) if pos == nu else ring.zero()
                if not algebra.equal(val, want):
                    good = False
            mat.append(row)
        report["certificates"][level] = {"pairing": mat, "unit_block": good}
        ok_cert = ok_cert and good
    for i, k in enumerate(chart.centre_data.k_vector, start=1):
        if i in report.get("levels", {}) and report["levels"][i]["k"] != k:
            report["holds"] = False
            report["levels"][i]["k_mismatch"] = True
    report["certificate_ok"] = ok_cert
    return report
