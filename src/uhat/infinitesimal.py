"""Infinitesimal actions, Fitting chains and the chart-level conditions.

The infinitesimal action of a filtration piece pairs ring differentials
against derivation values.  Relative maps along the weight filtration are
presented by matrices over the algebra; their Fitting ideals decide the
"semistability equals stability" and constant-relative-stabiliser-dimension
conditions on an affine chart, and evaluation at rational points recovers
stabiliser dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

from uhat.rings import (
    FreeModuleMap,
    Ideal,
    matrix_rank,
    minors_ideal_generators,
    syzygy_kernel,
    unit_certificate,
)


@dataclass(frozen=True)
class FittingChain:
    target_rank: int
    ideals: dict  # k -> Ideal (generators stored as normal forms)

    def ideal(self, k):
        return self.ideals[max(-1, min(k, self.target_rank))]


def infinitesimal_matrix(action, upto_level=None):
    """Pairing matrix of the filtration subspace u_i on the chart algebra.

    One row per Lie basis vector of u_i, in weight order, one column per
    ring generator (the differentials of the presentation).
    """
    lie = action.lie
    if upto_level is None:
        upto_level = lie.nlevels
    names = action.ring.names
    return tuple(
        tuple(action.image_of_generator(i, g) for g in names)
        for i in lie.filtration_indices(upto_level)
    )


def kernel_generators(action, upto_level):
    """Generators of ker(differentials -> u_i-pairings) over the algebra.

    For level zero the kernel is the full differential module, free on the
    generator differentials.  Otherwise the generators come from module
    syzygies of the pairing matrix, computed modulo the relations ideal.
    """
    ring = action.ring
    n = ring.nvars
    if upto_level == 0 or not action.lie.filtration_indices(upto_level):
        return [tuple(ring.one() if i == j else ring.zero() for j in range(n)) for i in range(n)]
    mat = infinitesimal_matrix(action, upto_level)
    fmap = FreeModuleMap(n, len(mat), mat)
    rels = action.algebra.relations.groebner()
    return [tuple(v) for v in syzygy_kernel(fmap, rels)]


def pair_coordinates(action, coords, mu):
    """nf(sum_g c_g * (xi_mu . g)): generator-differential coordinates paired with mu."""
    val = action.ring.zero()
    for c, g in zip(coords, action.ring.names):
        if c:
            val = val + c * action.image_of_generator(mu, g)
    return action.algebra.nf(val)


def relative_map(action, i):
    """The map from the level-(i-1) kernel into the level-i dual block.

    It is presented by its pairing matrix: entry [mu][j] pairs the j-th
    generator of `kernel_generators(action, i - 1)` with the mu-th basis
    vector of level i, so the target rank is the number of rows.
    """
    lie = action.lie
    if not 1 <= i <= lie.nlevels:
        raise ValueError(f"level {i} out of range")
    domain = kernel_generators(action, i - 1)
    return tuple(
        tuple(pair_coordinates(action, gen, mu) for gen in domain)
        for mu in lie.level_indices(i - 1)
    )


def _nonzero_minors(algebra, rows, size):
    """Normal forms of the size x size minors of `rows` that are not zero, in order.

    The minors are listed over the nonzero rows and columns only.  The skip
    is exact: a minor through a zero row or column is zero, so its normal
    form would be dropped anyway, and `itertools.combinations` over the
    remaining indices yields the remaining minors in their order over the
    whole matrix.
    """
    cols = [col for col in zip(*rows) if any(col)]
    live = [row for row in zip(*cols) if any(row)]
    minors = (algebra.nf(m) for m in minors_ideal_generators(live, size))
    return [m for m in minors if m]


def fitting_chain_from_matrix(algebra, rows, target_rank):
    """Fitting ideals of the cokernel presented by the given matrix."""
    ring = algebra.ring
    ideals = {}
    for k in range(-1, target_rank + 1):
        size = target_rank - k
        ideals[k] = Ideal(ring, _nonzero_minors(algebra, rows, size) if size > 0 else [ring.one()])
    return FittingChain(target_rank, ideals)


@dataclass(frozen=True)
class LevelData:
    """Relative map of one filtration level and what its Fitting chain decides.

    `k` is the minimal index with a nonzero Fitting ideal, and `unit_ideal`
    is Fit_k plus the relations; it keeps its Groebner basis once computed,
    for the unit test and for later membership tests.
    """

    pairing: tuple  # the relative map's matrix, from `relative_map`
    chain: FittingChain
    k: int
    unit_ideal: Ideal

    @property
    def fit_k(self):
        return self.chain.ideal(self.k)


def level_data(action):
    """Level -> LevelData for every filtration level, built once per action.

    The result is memoised on the action, so neither the action nor its
    algebra may be mutated afterwards.
    """
    if action._level_data is None:
        algebra = action.algebra
        data = {}
        for i in range(1, action.lie.nlevels + 1):
            pairing = relative_map(action, i)
            chain = fitting_chain_from_matrix(algebra, pairing, len(pairing))
            k = min_nonzero_fitting(chain)
            data[i] = LevelData(pairing, chain, k, algebra.ideal(chain.ideal(k).generators))
        action._level_data = data
    return action._level_data


def min_nonzero_fitting(chain):
    """Smallest k with a nonzero Fitting ideal (modulo the relations)."""
    for k in range(0, chain.target_rank + 1):
        if chain.ideal(k).generators:
            return k
    return chain.target_rank


def validate_point(algebra, point):
    """Check a rational point against the relations; return violations.

    Raises ValueError when the point lacks a coordinate of the ring.
    """
    missing = [n for n in algebra.ring.names if n not in point]
    if missing:
        raise ValueError(f"point lacks coordinates {', '.join(missing)}")
    bad = []
    for rel in algebra.relations.generators:
        v = rel.evaluate(point)
        if v != 0:
            bad.append((rel, v))
    return bad


def relative_stabiliser_dim(action, i, point):
    """Dimension of the relative stabiliser at a point, with a Fitting check.

    The returned value is the corank of the evaluated pairing matrix; as a
    runtime self-check it is compared against the vanishing pattern of the
    Fitting chain at the point (dim > k iff every generator of Fit_k
    vanishes there).
    """
    if not 1 <= i <= action.lie.nlevels:
        raise ValueError(f"level {i} out of range")
    bad = validate_point(action.algebra, point)
    if bad:
        raise ValueError(f"point violates relation {bad[0][0]} (value {bad[0][1]})")
    d = level_data(action)[i]
    if not d.pairing:
        return 0
    dim = len(d.pairing) - matrix_rank([[p.evaluate(point) for p in row] for row in d.pairing])
    for k in range(-1, d.chain.target_rank + 1):
        vanish = all(g.evaluate(point) == 0 for g in d.chain.ideal(k).generators)
        if (dim > k) != vanish:
            raise RuntimeError(
                f"Fitting/corank mismatch at level {i}, k={k}: dim={dim}, vanishing={vanish}"
            )
    return dim


def check_ss_eq_s(action):
    """Whether semistability coincides with stability on the chart.

    True iff the zeroth Fitting ideal of the full infinitesimal action is
    the unit ideal modulo relations.  The certificate is either an exact
    cofactor expression of 1 over the maximal minors and the relations, or
    the nonunit generators of the ideal.
    """
    algebra = action.algebra
    if algebra.is_empty():
        return True, {"empty_chart": True}
    mat = infinitesimal_matrix(action)
    if not mat:
        return True, {"vacuous": True, "detail": "zero-dimensional group"}
    minors = _nonzero_minors(algebra, mat, len(mat))
    gens = minors + list(algebra.relations.generators)
    cert = unit_certificate(gens) if minors else None
    if cert is not None:
        total = sum((c * g for c, g in zip(cert, gens)), algebra.ring.zero())
        if total != algebra.ring.one():
            raise RuntimeError(f"ss=s certificate combines to {total}, not 1")
        return True, {
            "unit_combination": {str(g): str(c) for g, c in zip(gens, cert) if not c.is_zero()}
        }
    return False, {"fit0_generators": [str(m) for m in minors]}


def check_cdrs(action):
    """Per-level constant-rank report for the relative maps.

    Each level reports k_i and whether Fit_{k_i - 1} vanishes while
    Fit_{k_i} is the unit ideal; the condition holds iff both do at every
    level.  Empty charts and zero-dimensional groups are vacuous successes.
    """
    algebra = action.algebra
    report = {"holds": True, "levels": {}}
    if algebra.is_empty():
        report["empty_chart"] = True
        return report
    if action.lie.nlevels == 0:
        report["vacuous"] = True
        return report
    for i, d in level_data(action).items():
        below = d.chain.ideal(d.k - 1).generators
        below_zero = not below
        unit = d.unit_ideal.is_unit()
        report["levels"][i] = {
            "k": d.k,
            "fit_below_zero": below_zero,
            "fit_unit": unit,
            "fit_k_generators": [str(g) for g in d.fit_k.generators],
            "fit_below_generators": [str(g) for g in below],
        }
        if not (below_zero and unit):
            report["holds"] = False
    return report
