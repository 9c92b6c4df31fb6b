"""Graded Lie algebras, derivation actions, PBW words and the group law.

The Lie algebras here carry a one-parameter grading with strictly positive
weights, so every derivation action on a non-positively graded algebra is
nilpotent and all exponential series terminate.  The module also provides
the free-algebra identities used by the blow-up recursion and the
comultiplication coefficient table of the unipotent group in exponential
coordinates of the second kind.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from uhat import rings
from uhat.rings import GradedRing, Polynomial, numerator_product, numerators


# ---------------------------------------------------------------------------
# free associative algebra (for the bracket identities)

# An element of the free associative algebra is a map word-tuple -> coefficient;
# the identity checks add terms into one such map per side and compare them.


def free_complete_bracket(word, memo=None):
    """[a_1, [a_2, ... a_m]] in the free associative algebra, as {word: int}.

    Built from the suffix bracket B = [a_2, ... a_m]] as a_1 B - B a_1, so
    every suffix of `word` is bracketed once.  `memo` maps words to their
    brackets; pass one dict to share the suffixes between calls.  The
    returned map may be the memo's own, so it is read only.
    """
    if not word:
        raise ValueError("complete bracket needs at least one letter")
    if memo is None:
        memo = {}
    out = memo.get(word)
    if out is not None:
        return out
    if len(word) == 1:
        out = {word: 1}
    else:
        head, suffix = word[:1], word[1:]
        inner = free_complete_bracket(suffix, memo)
        out = {head + w: c for w, c in inner.items()}
        _add_bracket_term(out, inner, head, -1)
        out = _nonzero(out)
    memo[word] = out
    return out


def _add_bracket_term(out, bracket, tail, coeff):
    """out += coeff * bracket * tail, in place."""
    for w, c in bracket.items():
        key = w + tail
        out[key] = out.get(key, 0) + coeff * c


def _nonzero(terms):
    return {w: c for w, c in terms.items() if c}


def multi_range(k):
    """Every multi-index s with 0 <= s <= k componentwise, in product order."""
    return itertools.product(*(range(ki + 1) for ki in k))


def binom_multi(k, s):
    """The multi-binomial C(k, s) = prod C(k_i, s_i)."""
    return math.prod(math.comb(ki, si) for ki, si in zip(k, s))


def _weighted_parts(k, memo):
    """[B_0, ..., B_{n-1}] for n = len(k), as {word: int} maps.

    B_i sums C(k,s) [y^s]] y^{k-s} over the 0 < s <= k whose last nonzero
    index is i, so the weighted identity's right side is sum_i w_i B_i.
    `memo` is passed to `free_complete_bracket`.
    """
    parts = [{} for _ in k]
    for s in multi_range(k):
        if any(s):
            last = max(i for i, si in enumerate(s) if si)
            tail = pbw_word(tuple(ki - si for ki, si in zip(k, s)))
            bracket = free_complete_bracket(pbw_word(s), memo)
            _add_bracket_term(parts[last], bracket, tail, binom_multi(k, s))
    return [_nonzero(part) for part in parts]


def _weighted_sides(weights, k, parts):
    """Both sides of the weighted identity at k, from its parts."""
    lhs = _nonzero({pbw_word(k): sum(ki * wi for ki, wi in zip(k, weights))})
    rhs = {}
    for wi, part in zip(weights, parts):
        _add_bracket_term(rhs, part, (), wi)
    return lhs, _nonzero(rhs)


def _support(k):
    """The indices of the nonzero entries of k, in order."""
    return [i for i, ki in enumerate(k) if ki]


def verify_weighted_bracket_identity(n, weights, k, degree_cap=8, memo=None):
    """Check (sum k_i w_i) y^k = sum_{0<s<=k} C(k,s) w_max(s) [y^s]] y^{k-s}.

    Exact expansion in the free algebra on n letters; coefficients stay
    integers for integer weights.  Returns (ok, info) where info carries
    both sides, as {word: coefficient} maps, on failure.

    With `memo` (passed to `free_complete_bracket`), k is decided through
    its support instance k': the nonzero entries of k, on letters
    0..n'-1.  Only letters with k_i > 0 occur on either side, and the
    order-preserving relabelling j -> supp[j] maps the words of the k'
    instance onto those of k term by term, so the verdicts agree.  The
    identity holds for every weight tuple exactly when each part B_i of
    k' (`_weighted_parts`) is k'_i y^k'; that verdict is kept in `memo`
    under ("weighted", k'), which no word equals, as words hold only
    letters.  When it fails, the weight tuple is checked on the support
    instance, and a failing k is expanded again on its own letters for
    `info`.
    """
    k = tuple(k)
    if sum(k) > degree_cap:
        raise ValueError("degree cap exceeded")
    if memo is None:
        lhs, rhs = _weighted_sides(weights, k, _weighted_parts(k, {}))
        ok = lhs == rhs
    else:
        supp = _support(k)
        ks = tuple(k[i] for i in supp)
        key = ("weighted", ks)
        if key not in memo:
            word = pbw_word(ks)
            memo[key] = _weighted_parts(ks, memo) == [{word: ki} for ki in ks]
        ok = memo[key]
        if not ok:
            ws = [weights[i] for i in supp]
            lhs, rhs = _weighted_sides(ws, ks, _weighted_parts(ks, memo))
            ok = lhs == rhs
        if not ok:
            lhs, rhs = _weighted_sides(weights, k, _weighted_parts(k, memo))
    return ok, None if ok else {"k": k, "weights": list(weights), "lhs": lhs, "rhs": rhs}


def _commutator_sides(k, y, memo):
    """Both sides of the commutator identity at k, with y the given letter."""
    lhs = {pbw_word(k) + (y,): 1}
    rhs = {}
    for s in multi_range(k):
        bracket_word = pbw_word(tuple(ki - si for ki, si in zip(k, s))) + (y,)
        _add_bracket_term(rhs, free_complete_bracket(bracket_word, memo), pbw_word(s), binom_multi(k, s))
    return lhs, _nonzero(rhs)


def verify_commutator_identity(n, k, degree_cap=8, memo=None):
    """Check x^k y = sum_{0<=s<=k} C(k,s) [x^{k-s} y]] x^s in the free algebra.

    The letter y is represented by index n (after the x letters 0..n-1).
    With `memo` (passed to `free_complete_bracket`), k is decided through
    its support instance as in `verify_weighted_bracket_identity`, with y
    relabelled to n'; the verdict is kept under ("commutator", k').
    """
    k = tuple(k)
    if sum(k) > degree_cap:
        raise ValueError("degree cap exceeded")
    if memo is None:
        lhs, rhs = _commutator_sides(k, n, {})
        ok = lhs == rhs
    else:
        ks = tuple(k[i] for i in _support(k))
        key = ("commutator", ks)
        if key not in memo:
            lhs, rhs = _commutator_sides(ks, len(ks), memo)
            memo[key] = lhs == rhs
        ok = memo[key]
        if not ok:
            lhs, rhs = _commutator_sides(k, n, memo)
    return ok, None if ok else {"k": k, "lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# graded Lie algebras


class GradedLieAlgebra:
    """Lie algebra graded by strictly decreasing positive weights.

    `basis` is one ordered list of names per weight; the flat concatenation
    fixes the PBW order.  Structure constants are stored antisymmetrically
    for index pairs i < j.
    """

    def __init__(self, weights, basis, brackets=None):
        self.weights = tuple(int(w) for w in weights)
        if any(w <= 0 for w in self.weights):
            raise ValueError("grading weights must be positive")
        if any(a <= b for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError("grading weights must be strictly decreasing")
        if len(basis) != len(self.weights):
            raise ValueError("one basis block per weight required")
        self.basis_names = tuple(n for block in basis for n in block)
        if len(set(self.basis_names)) != len(self.basis_names):
            raise ValueError("basis names must be distinct")
        self.levels = tuple(i for i, block in enumerate(basis) for _ in block)
        self._index = {n: i for i, n in enumerate(self.basis_names)}
        self._bk = {}
        for (a, b), combo in (brackets or {}).items():
            i, j = self._index[a], self._index[b]
            combo = {self._index[c]: Fraction(v) for c, v in combo.items() if v}
            if i == j:
                if combo:
                    raise ValueError(f"bracket [{a},{a}] must vanish")
                continue
            if i > j:
                i, j = j, i
                combo = {k: -v for k, v in combo.items()}
            if (i, j) in self._bk and self._bk[(i, j)] != combo:
                raise ValueError(f"conflicting brackets for ({a},{b})")
            self._bk[(i, j)] = combo

    @property
    def dim(self):
        return len(self.basis_names)

    @property
    def nlevels(self):
        return len(self.weights)

    def index(self, name):
        return self._index[name]

    def weight_of(self, i):
        return self.weights[self.levels[i]]

    def level_indices(self, level):
        return [i for i, l in enumerate(self.levels) if l == level]

    def filtration_indices(self, upto_level):
        """Indices of the filtration subspace spanned by weights >= w_{upto_level}."""
        return [i for i, l in enumerate(self.levels) if l < upto_level]

    def bracket_basis(self, i, j):
        """[xi_i, xi_j] as a map basis index -> Fraction."""
        if i == j:
            return {}
        if i < j:
            return dict(self._bk.get((i, j), {}))
        return {k: -v for k, v in self._bk.get((j, i), {}).items()}

    def bracket(self, u, v):
        """Bracket of two elements given as maps basis index -> Fraction."""
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                for k, s in self.bracket_basis(i, j).items():
                    val = out.get(k, 0) + ci * cj * s
                    if val:
                        out[k] = val
                    else:
                        del out[k]
        return out

    def structure_violations(self):
        """Antisymmetry/weight/Jacobi defects, each with a witness."""
        out = []
        for (i, j), combo in self._bk.items():
            wi, wj = self.weight_of(i), self.weight_of(j)
            target = wi + wj
            for k, c in combo.items():
                if self.weight_of(k) != target:
                    out.append(
                        {
                            "kind": "bracket-weight",
                            "pair": (self.basis_names[i], self.basis_names[j]),
                            "component": self.basis_names[k],
                            "expected_weight": target,
                            "actual_weight": self.weight_of(k),
                        }
                    )
        for a, b, c in itertools.combinations(range(self.dim), 3):
            total = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                term = self.bracket({x: Fraction(1)}, self.bracket_basis(y, z))
                for k, v in term.items():
                    s = total.get(k, 0) + v
                    if s:
                        total[k] = s
                    else:
                        del total[k]
            if total:
                out.append(
                    {
                        "kind": "jacobi",
                        "triple": tuple(self.basis_names[i] for i in (a, b, c)),
                        "defect": {self.basis_names[k]: str(v) for k, v in total.items()},
                    }
                )
        return out

    def complete_bracket_word(self, word):
        """Iterated bracket [a_1,...,a_m]] of basis letters, as an element."""
        if not word:
            raise ValueError("complete bracket needs at least one letter")
        el = {word[-1]: Fraction(1)}
        for i in range(len(word) - 2, -1, -1):
            el = self.bracket({word[i]: Fraction(1)}, el)
        return el

    def pbw_weight(self, exp):
        return sum(self.weight_of(i) * e for i, e in enumerate(exp))

    def pbw_monomials_of_weight(self, weight, exact=True):
        """All PBW exponent tuples of given weight (or of weight <= weight), sorted.

        Prefixes grow one index at a time, each paired with the weight it
        leaves, so no prefix overshoots the weight and the list stays sorted.
        """
        prefixes = [((), weight)]
        for i in range(self.dim):
            w = self.weight_of(i)
            prefixes = [
                (exp + (e,), rem - e * w) for exp, rem in prefixes for e in range(rem // w + 1)
            ]
        return [exp for exp, rem in prefixes if rem == 0 or not exact]


def pbw_word(exp):
    out = []
    for i, e in enumerate(exp):
        out.extend([i] * e)
    return tuple(out)


# ---------------------------------------------------------------------------
# derivation actions


class DerivationAction:
    """Action of a graded Lie algebra on a presented algebra by derivations.

    `table[name][var]` is the image of the ring generator `var` under the
    basis vector `name`; missing entries are zero.  Images are stored as
    normal forms modulo the relations, and everything the action returns is
    reduced, so callers need not reduce it again.  The per-level analysis
    and every derivative `apply_basis` returns are memoised on the action,
    so an action and its algebra are not mutated after construction, and a
    returned polynomial, shared by every caller, is read only.  The
    derivative memo is the one cache of derivatives: the quotient's
    derivative tables are rebuilt from it on each use.  It is cleared at
    `rings.MEMO_BOUND` entries, like the ring code memos.
    """

    def __init__(self, algebra, lie, table):
        self.algebra = algebra
        self.lie = lie
        ring = algebra.ring
        self.table = {}
        for name in lie.basis_names:
            row = {}
            for var, img in (table.get(name) or {}).items():
                if var not in ring._index:
                    raise ValueError(f"unknown ring generator {var!r}")
                img = algebra.nf(img)
                if img:
                    row[var] = img
            self.table[name] = row
        self._level_data = None  # filled once by infinitesimal.level_data
        self._derivatives = {}  # (i, p) -> apply_basis(i, p), filled by apply_basis

    @property
    def ring(self):
        return self.algebra.ring

    def image_of_generator(self, i, var):
        return self.table[self.lie.basis_names[i]].get(var, self.ring.zero())

    def apply_basis(self, i, p):
        """Leibniz extension of basis vector i applied to a polynomial, memoised under (i, p).

        Every Leibniz term c e x^(m - e_v) D(x_v) is added into one term
        dict, the sums that cancel are dropped, and one polynomial is built
        and reduced.
        """
        memo = self._derivatives
        out = memo.get((i, p))
        if out is not None:
            return out
        ring = self.ring
        row = self.table[self.lie.basis_names[i]]
        used = [(ring.index(v), img.terms) for v, img in row.items()]
        terms = {}
        for m, c in p.terms.items():
            for vi, image in used:
                e = m[vi]
                if e:
                    lowered = m[:vi] + (e - 1,) + m[vi + 1 :]
                    s = c * e
                    for mi, ci in image.items():
                        t = tuple(map(add, mi, lowered))
                        terms[t] = terms.get(t, 0) + ci * s
        out = Polynomial(ring, {m: c for m, c in terms.items() if c}, False)
        if len(memo) >= rings.MEMO_BOUND:
            memo.clear()
        out = memo[(i, p)] = self.algebra.nf(out)
        return out

    def apply_vector(self, vec, p):
        """Apply a Lie element {basis index: coefficient}; a sum of normal forms is reduced."""
        out = self.ring.zero()
        for i, c in vec.items():
            if c:
                out = out + self.apply_basis(i, p) * c
        return out

    def apply_pbw(self, exp, p):
        """Apply a PBW monomial (rightmost factor first), with nilpotency cut."""
        p = self.algebra.nf(p)
        if p.is_zero():
            return p
        if self.lie.pbw_weight(exp) + p.min_weight() > 0:
            return self.ring.zero()
        for i in reversed(pbw_word(exp)):
            p = self.apply_basis(i, p)
            if p.is_zero():
                break
        return p

    def validate(self):
        """All structural invariants, each violation reported with a witness.

        Both sides of each check are sums of `apply_basis` and
        `apply_vector` results, which are normal forms, and so is any sum of
        them, so they are compared as polynomials without reducing again.
        """
        report = list(self.lie.structure_violations())
        ring = self.ring
        lie = self.lie
        for i, name in enumerate(lie.basis_names):
            w = lie.weight_of(i)
            for var, img in self.table[name].items():
                expected = ring.weights[ring.index(var)] + w
                comps = img.weight_decompose()
                if set(comps) - {expected}:
                    report.append(
                        {
                            "kind": "action-weight",
                            "vector": name,
                            "generator": var,
                            "expected_weight": expected,
                            "actual_weights": sorted(comps),
                        }
                    )
        for rel in self.algebra.relations.generators:
            for i, name in enumerate(lie.basis_names):
                img = self.apply_basis(i, rel)
                if not img.is_zero():
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
                    lhs = self.apply_basis(a, self.apply_basis(b, g)) - self.apply_basis(
                        b, self.apply_basis(a, g)
                    )
                    rhs = self.apply_vector(combo, g)
                    if lhs != rhs:
                        report.append(
                            {
                                "kind": "bracket-compatibility",
                                "pair": (lie.basis_names[a], lie.basis_names[b]),
                                "generator": var,
                                "difference": str(lhs - rhs),
                            }
                        )
        return report


# ---------------------------------------------------------------------------
# the group law in exponential coordinates of the second kind


def _straighten(lie, word, cache):
    """PBW normal form of a word of basis letters, as a map pbw-exponent -> Fraction.

    Repeatedly applies x_j x_i -> x_i x_j + [x_j, x_i] on out-of-order
    adjacent pairs; terminates because each swap removes an inversion and
    each bracket shortens the word.  `cache` maps words to their normal
    forms, which are read only.
    """
    if word in cache:
        return cache[word]
    k = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), None)
    if k is None:
        exp = [0] * lie.dim
        for i in word:
            exp[i] += 1
        out = {tuple(exp): Fraction(1)}
    else:
        out = dict(_straighten(lie, word[:k] + (word[k + 1], word[k]) + word[k + 2 :], cache))
        for idx, c in lie.bracket_basis(word[k], word[k + 1]).items():
            for e, v in _straighten(lie, word[:k] + (idx,) + word[k + 2 :], cache).items():
                s = out.get(e, 0) + c * v
                if s:
                    out[e] = s
                else:
                    del out[e]
    cache[word] = out
    return out


def group_law(lie):
    """Multiplication polynomials m_i(s, t) in second-kind coordinates.

    g(c) = exp(c_1 xi_1) ... exp(c_n xi_n) is sum_alpha (c^alpha / alpha!) xi^alpha
    in PBW order, so m_i(s, t) is the xi_i coefficient of g(s) g(t): each
    pair of PBW exponents (alpha, beta) puts 1/(alpha! beta!) times the xi_i
    coefficient of the straightened xi^alpha xi^beta at s^alpha t^beta.
    Graded brackets keep the weight of a word, so only pairs within the top
    weight can reach a basis vector; an algebra whose brackets break the
    grading or the Jacobi identity raises ValueError.
    """
    violations = lie.structure_violations()
    if violations:
        raise ValueError(f"group law needs a graded Lie algebra: {violations[0]}")
    n = lie.dim
    if n == 0:
        return GradedRing([], []), []
    names = [f"s{i}" for i in range(n)] + [f"t{i}" for i in range(n)]
    ring = GradedRing(names, [0] * 2 * n)
    cap = lie.weights[0]  # the top weight, as the weights strictly decrease
    exps = [(e, lie.pbw_weight(e)) for e in lie.pbw_monomials_of_weight(cap, exact=False)]
    units = {tuple(int(j == i) for j in range(n)): i for i in range(n)}
    terms = [{} for _ in range(n)]
    cache = {}
    for alpha, wa in exps:
        for beta, wb in exps:
            if wa + wb > cap:
                continue
            fact = math.prod(map(math.factorial, alpha + beta))
            for e, c in _straighten(lie, pbw_word(alpha) + pbw_word(beta), cache).items():
                if e in units:
                    terms[units[e]][alpha + beta] = c / fact
    return ring, [Polynomial(ring, t) for t in terms]


def comult_coefficients(lie, degree_bound):
    """Comultiplication table c^alpha_{beta,gamma} up to the degree bound.

    Computed from the exact group law: mu*(u^alpha) is the product of the
    multiplication polynomials, read off in the two coordinate blocks.
    The products stay integer numerators over one denominator
    (`rings.numerator_product`), and equal entries share one Fraction.
    Each monomial of row alpha is a product of |alpha| law monomials, so
    with `reach` the largest s- or t-degree of a law monomial only the rows
    with |alpha| * reach above the bound can leave it and are filtered.
    Returns a map alpha -> {(beta, gamma): Fraction}.
    """
    ring, law = group_law(lie)
    n = lie.dim
    law = [numerators(m) for m in law]
    reach = max((max(sum(m[:n]), sum(m[n:])) for _, nums in law for m in nums), default=0)
    table = {}
    _fill_comult_rows(table, law, n, degree_bound, reach, {}, (), (1, {(0,) * ring.nvars: 1}))
    return table


def _fill_comult_rows(table, law, n, degree_bound, reach, fractions, alpha, p):
    """Add every row of the table whose index extends the prefix alpha, with product p.

    `law` and p are (den, {monomial: numerator}) pairs; `fractions` maps
    den -> numerator -> its Fraction for one table.  A module function, not
    a closure: a recursive closure is a reference cycle that would keep each
    table alive until the cyclic collector runs.
    """
    if len(alpha) == n:
        den, nums = p
        if sum(alpha) * reach > degree_bound:
            nums = {
                m: c
                for m, c in nums.items()
                if sum(m[:n]) <= degree_bound and sum(m[n:]) <= degree_bound
            }
        shared = fractions.setdefault(den, {})
        # numerators are nonzero, so a Fraction found in `shared` is truthy
        table[alpha] = {
            (m[:n], m[n:]): shared.get(c) or shared.setdefault(c, Fraction(c, den))
            for m, c in nums.items()
        }
        return
    i = len(alpha)
    for a in range(degree_bound - sum(alpha) + 1):
        if a:
            # p(alpha + a e_i) = p(alpha + (a - 1) e_i) * m_i, i being its last nonzero index
            p = numerator_product(p, law[i])
        _fill_comult_rows(table, law, n, degree_bound, reach, fractions, alpha + (a,), p)
