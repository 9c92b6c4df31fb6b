"""Exact rational multivariate polynomials over weight-graded rings.

Everything downstream (derivation actions, Fitting ideals, invariant rings,
blow-up charts) computes over these primitives: sparse polynomials with
Fraction coefficients, Groebner bases with optional cofactor tracing, module
syzygies, block-order elimination and exact linear algebra over the
rationals.  Values are immutable after construction; operations are pure.
Reduction runs on packed monomials (one integer order key and one exponent
word each) with integer numerators over a common denominator.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from operator import add, mul


# ---------------------------------------------------------------------------
# monomial orders


EXP_BITS = 32  # exponents below 2**EXP_BITS pack exactly; larger ones raise OverflowError


def _grevlex_rows(n, lo, hi):
    """Degrevlex rows on variables lo..hi-1 of n: their degree, then -e_{hi-1}, ..., -e_{lo+1}."""
    if lo == hi:
        return []
    rows = [[int(lo <= j < hi) for j in range(n)]]
    return rows + [[-int(j == i) for j in range(n)] for i in range(hi - 1, lo, -1)]


def order_rows(tag, n):
    """Weight matrix of the monomial order `tag` on n variables.

    e precedes f when the first row r with r.e != r.f has r.e < r.f.  A tag
    is `degrevlex`, `lex`, `weighted:w1,...,wn` (nonnegative weights, then
    degrevlex), `elim:k` (degrevlex on the first k variables, then on the
    rest) or, from `_position_ring`, `pot{rank}:{tag}`: one position row
    with weights rank, ..., 1 on the last rank variables @e0, ..., so a term
    in position 0 leads, then `tag` on the others.  The position row orders
    module terms, which carry at most one position variable with exponent
    1; it ties products of positions such as @e0*@e2 and @e1^2.
    ValueError unless `tag` is spelled exactly so and fits n variables.
    """
    kind, _, arg = tag.partition(":")
    if tag == "degrevlex":
        return _grevlex_rows(n, 0, n)
    if tag == "lex":
        return [[int(j == i) for j in range(n)] for i in range(n)]
    if kind == "weighted":
        w = [int(x) for x in arg.split(",")] if arg else []
        if len(w) != n or min(w, default=0) < 0 or ",".join(map(str, w)) != arg:
            raise ValueError(f"order {tag!r} needs one nonnegative weight per variable ({n})")
        return [w] + _grevlex_rows(n, 0, n)
    if kind == "elim":
        k = int(arg)
        if not 0 <= k <= n or str(k) != arg:
            raise ValueError(f"order {tag!r} needs a block within the {n} variables")
        return _grevlex_rows(n, 0, k) + _grevlex_rows(n, k, n)
    if kind.startswith("pot"):
        rank = int(kind[3:])
        if not 0 <= rank <= n or f"pot{rank}" != kind:
            raise ValueError(f"order {tag!r} needs its {rank} positions among the {n} variables")
        base = order_rows(arg, n - rank)
        return [[0] * (n - rank) + list(range(rank, 0, -1))] + [r + [0] * rank for r in base]
    raise ValueError(f"unknown monomial order {tag!r}")


# ---------------------------------------------------------------------------
# graded rings and polynomials


class GradedRing:
    """Polynomial ring with named variables carrying integer weights.

    A `pot{rank}:` ring (see `_position_ring`) ends in rank position
    variables.  Its exponent words and order keys are exact on module terms
    only: tuples whose position part holds at most one 1.
    """

    def __init__(self, names, weights, order="degrevlex"):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(names) != len(weights):
            raise ValueError("one weight per variable required")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.names = names
        self.weights = weights
        self.order = order
        self._index = {n: i for i, n in enumerate(names)}
        # key(e) = sum e_j * cols[j]: column j of the weight rows in balanced
        # fields, each wider than twice the largest |row . e| for exponents
        # below 2**EXP_BITS, so comparing keys compares the rows
        # lexicographically
        rows = order_rows(order, len(names))
        width = max((sum(map(abs, r)) for r in rows), default=0).bit_length() + EXP_BITS + 1
        self._cols = tuple(
            sum(r[j] << (width * (len(rows) - 1 - i)) for i, r in enumerate(rows))
            for j in range(len(names))
        )
        # exponent words: base exponent e_j in bits (EXP_BITS + 1) * j
        # onwards; in a `pot{rank}:` ring, position k is the value k + 1 of
        # one field above them; every field has a guard bit above it
        rank = int(order[3 : order.index(":")]) if order.startswith("pot") else 0
        self._nbase = nbase = len(names) - rank
        self._shifts = tuple((EXP_BITS + 1) * j for j in range(nbase))
        self._top = top = (EXP_BITS + 1) * nbase
        self._units = tuple(1 << s for s in self._shifts) + tuple(
            (k + 1) << top for k in range(rank)
        )
        self.guard = sum(1 << (s + EXP_BITS) for s in self._shifts + ((top,) if rank else ()))
        # the position field; word & positions is a term's position part, 0
        # in every other ring
        self.positions = ((1 << EXP_BITS) - 1) << top if rank else 0
        # the position part of the tuple of a word, by its position field
        self._parts = ((0,) * rank,) + tuple(
            tuple(int(j == k) for j in range(rank)) for k in range(rank)
        )
        # memos of `key`, `pack` and `unpack`: exponent tuple -> key, tuple
        # -> word, word -> tuple; each cleared at MEMO_BOUND entries
        self._keys, self._words, self._tuples = {}, {}, {}

    @property
    def nvars(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, GradedRing)
            and self.names == other.names
            and self.weights == other.weights
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.weights, self.order))

    def __repr__(self):
        vs = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"GradedRing({vs}; {self.order})"

    def index(self, name):
        return self._index[name]

    def key(self, e):
        """Order key of an exponent tuple: an integer, larger for a later monomial.

        It is linear in e, so key(a + b) = key(a) + key(b).  Keys are
        memoised on the ring.
        """
        k = self._keys.get(e)
        if k is None:
            memo = self._keys
            if len(memo) >= MEMO_BOUND:
                memo.clear()
            k = memo[e] = sum(map(mul, e, self._cols))
        return k

    def pack(self, e):
        """Exponent word of e, every guard bit clear.

        OverflowError past the exponent bound; ValueError when e has more
        than one position variable or a position exponent above 1.  For
        words a and b of this ring in one position, a divides b iff
        (b - a) & guard == 0, and a + b is the word of the product unless
        it sets a guard bit or a and b both have a position.  Words are
        memoised on the ring, and a rejected tuple is not, so it raises
        again on every call.
        """
        w = self._words.get(e)
        if w is None:
            if max(e, default=0) >> EXP_BITS:
                raise OverflowError(f"exponent of {e} not below 2**{EXP_BITS}")
            if sum(e[self._nbase :]) > 1:
                raise ValueError(f"{e} is not a module term: positions sum above 1")
            memo = self._words
            if len(memo) >= MEMO_BOUND:
                memo.clear()
            w = memo[e] = sum(map(mul, e, self._units))
        return w

    def unpack(self, w):
        """Exponent tuple of a word of this ring, memoised on the ring."""
        e = self._tuples.get(w)
        if e is None:
            memo = self._tuples
            if len(memo) >= MEMO_BOUND:
                memo.clear()
            mask = (1 << EXP_BITS) - 1
            e = tuple([(w >> s) & mask for s in self._shifts]) + self._parts[w >> self._top]
            memo[w] = e
        return e

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name):
        exp = [0] * self.nvars
        exp[self.index(name)] = 1
        return Polynomial(self, {tuple(exp): Fraction(1)})

    def monomial(self, exp, coeff=1):
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {tuple(exp): coeff})

    def monomial_weight(self, exp):
        return sum(w * e for w, e in zip(self.weights, exp))

    def extended(self, names, weights):
        """New ring with extra variables appended.

        It keeps this ring's order, a weighted order giving the new
        variables weight 0.  ValueError on a `pot{rank}:` ring, whose last
        rank variables must stay its positions.
        """
        order = self.order
        if order.startswith("pot"):
            raise ValueError(f"cannot append variables after the positions of {order!r}")
        if order.startswith("weighted:"):
            order += ",0" * len(names)
        return GradedRing(
            self.names + tuple(names),
            self.weights + tuple(int(w) for w in weights),
            order,
        )

    def monomials_of_degree(self, deg):
        """All exponent tuples of total degree exactly deg."""
        if self.nvars == 0:
            return [()] if deg == 0 else []
        out = []
        for c in itertools.combinations_with_replacement(range(self.nvars), deg):
            e = [0] * self.nvars
            for i in c:
                e[i] += 1
            out.append(tuple(e))
        return out


class Polynomial:
    """Sparse polynomial: map from exponent tuple to nonzero Fraction.

    `_lm` memoises the leading monomial, `_entry` the `lead_entry` and
    `_hash` the hash; all three rely on the terms never changing after
    construction.
    """

    __slots__ = ("ring", "terms", "_lm", "_entry", "_hash")

    def __init__(self, ring, terms, prune=True):
        self.ring = ring
        if prune:
            self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}
        else:
            self.terms = terms
        self._lm = None
        self._entry = None
        self._hash = None

    # -- basic structure

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def lm(self):
        """Leading monomial under the ring order (None for zero)."""
        if self._lm is None and self.terms:
            self._lm = max(self.terms, key=self.ring.key)
        return self._lm

    def lc(self):
        m = self.lm()
        return self.terms[m] if m is not None else Fraction(0)

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def monic(self):
        c = self.lc()
        if c in (0, 1):
            return self
        return Polynomial(self.ring, {m: v / c for m, v in self.terms.items()}, False)

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()}, False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()}, False)
        den, out = numerator_product(numerators(self), numerators(self._coerce(other)))
        return Polynomial(self.ring, {m: Fraction(c, den) for m, c in out.items()}, False)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def term_mul(self, coeff, exp):
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(
            self.ring,
            {tuple(a + b for a, b in zip(m, exp)): c * coeff for m, c in self.terms.items()},
            False,
        )

    # -- grading

    def weight_decompose(self):
        """Split into lambda-homogeneous components: weight -> Polynomial."""
        parts = {}
        for m, c in self.terms.items():
            w = self.ring.monomial_weight(m)
            parts.setdefault(w, {})[m] = c
        return {w: Polynomial(self.ring, t, False) for w, t in sorted(parts.items())}

    def min_weight(self):
        return min((self.ring.monomial_weight(m) for m in self.terms), default=0)

    # -- maps

    def evaluate(self, values):
        """Evaluate at a point given as name -> Fraction."""
        vec = [Fraction(values[n]) for n in self.ring.names]
        total = Fraction(0)
        for m, c in self.terms.items():
            total += c * prod((v**e for v, e in zip(vec, m)), start=Fraction(1))
        return total

    def map_ring(self, ring, name_map=None):
        """Reinterpret in another ring by variable name (injective on support)."""
        idx = []
        for i, n in enumerate(self.ring.names):
            target = name_map.get(n, n) if name_map else n
            idx.append(ring.index(target) if target in ring._index else None)
        out = {}
        for m, c in self.terms.items():
            e = [0] * ring.nvars
            for i, p in enumerate(m):
                if p:
                    if idx[i] is None:
                        raise ValueError(f"variable {self.ring.names[i]} not in target ring")
                    e[idx[i]] += p
            me = tuple(e)
            out[me] = out.get(me, 0) + c
        return Polynomial(ring, out)

    def substitute(self, values, ring):
        """Substitute values for variables, by name, into `ring`.

        Each value is a polynomial over `ring` or a constant.  Each value's
        powers are computed once per call, as integer numerators over a
        denominator (`numerators`, `numerator_product`), and every term's
        product is added into one dict over the lcm of their denominators,
        so no Fraction is built before the result's coefficients.
        """
        zero = (0,) * ring.nvars
        one = (1, {zero: 1})
        powers = {}  # variable index -> [value^0, value^1, ...] as (den, numerators)
        parts = []
        for m, c in self.terms.items():
            part = (c.denominator, {zero: c.numerator})
            for i, e in enumerate(m):
                if e:
                    ladder = powers.get(i)
                    if ladder is None:
                        val = values[self.ring.names[i]]
                        if not isinstance(val, Polynomial):
                            val = ring.const(val)
                        elif val.ring != ring:
                            raise ValueError("polynomials from different rings")
                        ladder = powers[i] = [one, numerators(val)]
                    while len(ladder) <= e:
                        ladder.append(numerator_product(ladder[-1], ladder[1]))
                    part = numerator_product(part, ladder[e])
            parts.append(part)
        den = lcm(*(d for d, _ in parts))
        out = {}
        for d, nums in parts:
            s = den // d
            for m, a in nums.items():
                out[m] = out.get(m, 0) + a * s
        return Polynomial(ring, {m: Fraction(a, den) for m, a in out.items() if a}, False)

    # -- display

    def sorted_terms(self):
        key = self.ring.key
        return sorted(self.terms.items(), key=lambda mc: key(mc[0]), reverse=True)

    def __repr__(self):
        return self.__str__()

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            sign = "-" if c < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out


# ---------------------------------------------------------------------------
# division and Buchberger


def _word_lcm(a, b, guard):
    """Exponent word of lcm(a, b) for words a and b: the larger field of each variable.

    (a | guard) - b keeps a field's guard bit iff a's field is at least b's,
    as no field borrows from the next, and g - (g >> EXP_BITS) widens each
    kept bit to a mask of its field.  Exact for all words below the bound;
    in a position ring, for words in one position.
    """
    g = ((a | guard) - b) & guard
    return b ^ ((a ^ b) & (g - (g >> EXP_BITS)))


def lead_entry(g):
    """One entry of a lead index: (lead word, lead key, lc, tail, span, ring).

    lc and the tail's (key, word, coefficient) triples are the terms of a
    nonzero g scaled to integers with content 1 and lc > 0, the tail in the
    order of g's terms; a reducer scaled by a nonzero constant leaves every
    remainder as it is.  span is the word of each base variable's largest
    exponent in g: the `_word_lcm` of its term words, exact per field as
    every field has its own guard bit, with the position part masked off.
    So x^q * g stays below the exponent bound iff span + word(q) sets no
    guard bit, for a base monomial x^q.  An exponent of 2**EXP_BITS or more
    raises OverflowError from `pack`.

    The entry is computed once and memoised on g, as g never changes; it
    holds g's ring, not g, so no polynomial and its entry form a cycle.
    `_reduce` sets the entry of a remainder it builds from its own integers.
    """
    entry = g._entry
    if entry is None:
        ring = g.ring
        key, pack = ring.key, ring.pack
        lm = g.lm()
        nums = numerators(g)[1]
        lc = nums.pop(lm)
        tail = [(key(m), pack(m), c) for m, c in nums.items()]
        entry = g._entry = _scaled_entry(ring, pack(lm), key(lm), lc, tail)
    return entry


def _scaled_entry(ring, lw, lk, lc, tail):
    """The `lead_entry` of lead numerator lc at (lw, lk) plus the tail's (key, word, numerator)s.

    Every numerator is divided by their content, signed so the lead is
    positive, and the span is folded from the words.
    """
    guard = ring.guard
    content = gcd(lc, *(c for _, _, c in tail))
    if lc < 0:
        content = -content
    span = lw
    for _, w, _ in tail:
        span = _word_lcm(span, w, guard)
    tail = [(k, w, c // content) for k, w, c in tail]
    return (lw, lk, lc // content, tail, span & ~ring.positions, ring)


MEMO_BOUND = 2**14
"""Entries a memo holds before it is cleared.

It bounds a `GradedRing`'s `key`, `pack` and `unpack` memos and a
`DerivationAction`'s derivative memo (`lie.DerivationAction.apply_basis`).
The three full ring memos of a 10-variable ring take about 6 MB together,
most of it the tuples that `unpack` builds.  No ring's memo of the
benchmark sweep's seven instances or of the 6 scenarios through analyze,
quotient and blowup (with and without its quotient) holds more than 273
entries, and no action's derivative memo of the benchmark's scenarios or
sweep batch more than 35, so the bound only caps other inputs.
"""


class LeadIndex:
    """Lead entries of a basis, bucketed by the position part of each lead.

    `LeadIndex(basis)` indexes the nonzero elements of `basis` in list
    order, and `add(g)` appends the `lead_entry` of one more nonzero g and
    returns it, so callers never build entries themselves.  Entries are
    memoised on their polynomials, so indexing an element that another
    index holds, or a remainder that `pair_normal_form` returned, derives
    nothing again; an entry names its ring, not its polynomial, so the
    index keeps no element alive.

    `buckets` maps the position part of each lead word (`ring.positions`)
    to the `lead_entry` of every element led in that position, in basis
    order; a ring without positions has the one bucket 0.  All positions
    share one word field, so a lead in a lower position would pass the
    divisibility test on a word in a higher one: a word is tested only
    against its own bucket.
    """

    __slots__ = ("buckets",)

    def __init__(self, basis=()):
        self.buckets = {}
        for g in basis:
            if g:
                self.add(g)

    def add(self, g):
        """Append the entry of a nonzero g to its position's bucket; return the entry."""
        entry = lead_entry(g)
        self.buckets.setdefault(entry[0] & g.ring.positions, []).append(entry)
        return entry


def _check_span(ring, span, q):
    if (span + q) & ring.guard:
        raise OverflowError(f"a reduction makes an exponent of 2**{EXP_BITS} or more")


def _reduce(ring, work, den, lead, encode=False):
    """The reduction kernel: remainder of the pending terms over `den` under `lead`.

    `work` holds one record per pending term: it maps the negated order key
    of the term to [integer numerator over the common denominator `den`,
    exponent word].  The lead term is popped from a heap of those negated
    keys; stale heap entries of terms that cancelled are skipped.  Every
    term has one position part (see `_encode`), and a lead in another
    position never divides it, so only the bucket of the popped word's
    position is scanned: the reducer is its first entry, in basis order,
    whose lead word divides the popped one.  The exponent bound is checked
    only when x^q times the reducer's span sets a guard bit.  Reducing
    numerator a by an entry with lead coefficient c scales every pending
    numerator and `den` by c / gcd(a, c), then subtracts a / gcd(a, c)
    times x^q times the entry's tail, so the lead cancels and every
    numerator stays an integer; c = 1 needs no gcd.  Keys are linear, so a
    new term's negated key is -(tail key) - key(popped) + key(lead).  A
    remainder term keeps the denominator of the moment it was popped; only
    remainder terms are decoded back to exponent tuples and Fractions.

    With `encode`, a nonzero remainder also gets its `lead_entry` from
    these integers, so no caller re-derives it.  Its terms are popped in
    decreasing key order, and each denominator divides the last one, D, as
    `den` only grows by factors: the numerators over D are a * (D / d), the
    lead is the first term and the keys are the negated popped ones.
    """
    guard, positions, buckets = ring.guard, ring.positions, lead.buckets
    heap = list(work)
    heapify(heap)
    rem = []
    while heap:
        k = heappop(heap)
        record = work.pop(k, None)
        if record is None:
            continue
        a, m = record
        for entry in buckets.get(m & positions, ()):
            if not (m - entry[0]) & guard:
                break
        else:
            rem.append((k, m, a, den))
            continue
        lw, lk, lc, tail, span, _ = entry
        q = m - lw
        if (span + q) & guard:
            _check_span(ring, span, q)
        if lc != 1:
            h = gcd(a, lc)
            if h != lc:
                s = lc // h
                den *= s
                for record in work.values():
                    record[0] *= s
            a //= h
        dk = k + lk
        for tk, tw, tc in tail:
            t = dk - tk
            record = work.get(t)
            if record is None:
                assert t > k
                work[t] = [-a * tc, tw + q]
                heappush(heap, t)
            else:
                c = record[0] - a * tc
                if c:
                    record[0] = c
                else:
                    del work[t]
    unpack = ring.unpack
    out = Polynomial(ring, {unpack(w): Fraction(a, d) for _, w, a, d in rem}, False)
    if encode and rem:
        D = rem[-1][3]
        (lk, lw, lc), *tail = [(-k, w, a * (D // d)) for k, w, a, d in rem]
        out._lm = unpack(lw)
        out._entry = _scaled_entry(ring, lw, lk, lc, tail)
    return out


def normal_form_list(p, lead):
    """Remainder of p under full reduction by a lead index, first divisor first.

    `lead` is a `LeadIndex`: one `lead_entry` per basis element, bucketed
    by the position part of its lead; a Buchberger loop calls its `add`
    whenever it appends to its basis, so no call rebuilds it.  Each term is
    reduced by the first divisor in basis order among the leads in its
    position.  So the remainder depends on the basis order, unless the
    index holds a Groebner basis, when it is the unique normal form.
    p is packed into integer numerators over the lcm of its denominators
    and reduced by `_reduce`.  When p is zero, or no lead in the bucket of
    a term's position divides that term's word (the test `_reduce`
    applies), p is already reduced and is returned itself, so callers
    must not mutate the result.
    """
    if not lead.buckets:
        return p
    ring = p.ring
    guard, positions, buckets = ring.guard, ring.positions, lead.buckets
    for m in p.terms:
        w = ring.pack(m)
        if any(not (w - entry[0]) & guard for entry in buckets.get(w & positions, ())):
            break
    else:
        return p
    den, nums = numerators(p)
    work = {-ring.key(m): [a, ring.pack(m)] for m, a in nums.items()}
    return _reduce(ring, work, den, lead)


def pair_normal_form(f, g, lead):
    """Remainder under `lead` of the S-polynomial of the lead entries f and g.

    S = (L / lt f) f - (L / lt g) g for L = lcm(lm f, lm g).  With the
    entries' integer terms, lead coefficients cf and cg and h = gcd(cf, cg),
    it is cg/h (L / lm f) f - cf/h (L / lm g) g over the denominator
    cf cg / h; the two leads cancel, so only the tails are added.  Leads in
    different positions raise ValueError: their S-polynomial would have
    terms in two positions, which no bucket of `lead` holds.
    """
    wf, kf, cf, tail_f, span_f, ring = f
    wg, kg, cg, tail_g, span_g, _ = g
    if (wf ^ wg) & ring.positions:
        raise ValueError("S-pair of leads in different positions")
    wl = _word_lcm(wf, wg, ring.guard)
    kl = ring.key(ring.unpack(wl))
    h = gcd(cf, cg)
    work = {}
    sides = (
        (tail_f, span_f, wl - wf, kf - kl, cg // h),
        (tail_g, span_g, wl - wg, kg - kl, -cf // h),
    )
    for tail, span, q, dk, s in sides:
        _check_span(ring, span, q)
        for tk, tw, tc in tail:
            t = dk - tk
            record = work.get(t)
            if record is None:
                work[t] = [s * tc, tw + q]
            else:
                c = record[0] + s * tc
                if c:
                    record[0] = c
                else:
                    del work[t]
    return _reduce(ring, work, cf // h * cg, lead, encode=True)


def numerators(p):
    """(den, {monomial: numerator}): p = sum(num x^m) / den, den the lcm of p's denominators."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}


def numerator_product(a, b):
    """The product of two (den, {monomial: numerator}) pairs, in the same form.

    Integer numerators multiply over the product of the two denominators,
    so a caller builds one Fraction per output term, or none at all;
    cancelled terms are dropped.
    """
    (da, left), (db, right) = a, b
    out = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return da * db, {m: c for m, c in out.items() if c}


def _update_pairs(words, pairs, guard):
    """Gebauer-Moeller pair update after appending the element t led by words[t].

    `words` are the basis's lead words, t the last index, and `pairs` maps
    each pending pair (i, j) to its `_word_lcm`, in the order the pairs were
    formed.  A new pair (i, t) is kept unless lm_i and lm_t are coprime
    (their lcm word is the sum of theirs), an earlier i has the same lcm,
    or another new lcm properly divides it (chain criterion).  A proper
    divisor has no larger field, so its word is a smaller integer, and each
    lcm is tested only against the smaller ones.  An old pair (i, j) with
    lcm L is deleted when lm_t divides L and neither lcm(lm_i, lm_t) nor
    lcm(lm_j, lm_t) equals L.  Divisibility is the kernel's test: a divides
    b iff (b - a) & guard == 0.  The kept new pairs are added to `pairs` in
    increasing i and returned as (i, L).  In a position ring every lead
    must lie in one position, as in `unit_certificate`: the one position
    field makes the lcm and the divisibility test of two words in
    different positions meaningless.
    """
    t = len(words) - 1
    b = words[t]
    lcms = [_word_lcm(a, b, guard) for a in words[:t]]
    first = {}
    for i, L in enumerate(lcms):
        first.setdefault(L, i)
    ranked = sorted(first)
    new = []
    for L, i in first.items():
        if L == words[i] + b:
            continue
        for L2 in itertools.islice(ranked, bisect.bisect_left(ranked, L)):
            if not (L - L2) & guard:
                break
        else:
            new.append((i, L))
    for i, j in [ij for ij, L in pairs.items() if not (L - b) & guard]:
        if pairs[i, j] not in (lcms[i], lcms[j]):
            del pairs[i, j]
    pairs.update(((i, t), L) for i, L in new)
    return new


def buchberger(gens, keep=None, stop=None):
    """Groebner basis via Buchberger with Gebauer-Moeller pair pruning.

    Every S-pair is reduced through one `LeadIndex`, appended to as the
    basis grows.  Its entries are primitive over the integers, so
    coefficient growth stays bounded; elements are returned unscaled.
    Pairs are selected by sugar (Giovini, Mora, Niesi, Robbiano &
    Traverso, "One sugar cube, please", 1991), ties broken by the smallest
    lcm and then by the pair formed first.  Each pair enters a heap keyed by (sugar, lcm key, t, i)
    when `_update_pairs` forms it as (i, t), so the key is computed once; a
    pair the update later deletes leaves the pending `pairs` at once and the
    heap when it is popped.  The selection order changes which basis comes
    out but not its reduced form, which is canonical.

    A nonzero remainder r joins the basis only if `keep(r)` holds, and the
    basis is returned as soon as `stop(g)` holds for an appended element g,
    which is then its last element.
    """
    G, entries, lead, excess = [], [], LeadIndex(), []
    words, pairs, heap = [], {}, []

    def add(g, sugar):
        """Append g and its pairs; True when the loop should stop."""
        t = len(G)
        ring = g.ring
        G.append(g)
        entries.append(lead.add(g))
        words.append(entries[t][0])
        excess.append(sugar - sum(g.lm()))  # sugar above the lead's degree
        for i, L in _update_pairs(words, pairs, ring.guard):
            e = ring.unpack(L)
            heappush(heap, (sum(e) + max(excess[i], excess[t]), ring.key(e), t, i))
        return stop is not None and stop(g)

    for g in gens:
        if g and add(g, g.total_degree()):
            return G
    while heap:
        sugar, _, j, i = heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue  # deleted by an update after it was formed
        r = pair_normal_form(entries[i], entries[j], lead)
        if r and (keep is None or keep(r)) and add(r, sugar):
            return G
    return G


def reduce_groebner(G):
    """Minimal reduced Groebner basis, canonically sorted.

    The nonzero elements are sorted stably by the lead key of their
    `lead_entry`, and each one whose lead word an earlier kept lead divides
    is dropped.  The tail of each one left is reduced straight from its
    entry's integer tail over the denominator lc, which reads the element
    as monic, against one `LeadIndex` of them all: tail terms lie below
    their element's lead, so it never divides one, and the first divisor in
    basis order is that of an index of the other elements.  The kept leads
    are distinct and ascending, so the reduced elements are returned in
    reverse.
    """
    G = [g for g in G if g]
    minimal, words = [], []
    for g in sorted(G, key=lambda g: lead_entry(g)[1]):
        w = lead_entry(g)[0]
        if all((w - v) & g.ring.guard for v in words):
            minimal.append(g)
            words.append(w)
    lead = LeadIndex(minimal)
    reduced = []
    for g in minimal:
        _, _, lc, tail, _, ring = lead_entry(g)
        rem = _reduce(ring, {-k: [c, w] for k, w, c in tail}, lc, lead)
        reduced.append(Polynomial(ring, {g.lm(): Fraction(1), **rem.terms}, False))
    return reduced[::-1]


def groebner_basis(gens):
    """Reduced Groebner basis of the ideal `gens` generate, canonically sorted.

    Buchberger stops at the first nonzero constant it appends: the ideal is
    then the unit ideal, whose reduced basis is [1].
    """
    G = buchberger([g for g in gens if g], stop=_is_constant)
    if G and _is_constant(G[-1]):
        return [G[-1].ring.one()]
    return reduce_groebner(G)


def _is_constant(g):
    return not any(g.lm())


def unit_certificate(gens):
    """If <gens> is the unit ideal, return cofactors q with sum(q_i*g_i) = 1.

    Runs `buchberger` on the module vectors (g_i, e_{i+1}), so position i+1
    of every basis element carries its cofactor of g_i.  Only remainders led
    in position 0 are kept (the others are syzygies), and the loop stops at
    the first element whose position-0 part is a constant c; its cofactors
    divided by c are returned.  Returns None when the ideal is proper.
    """
    gens = list(gens)
    live = [(i, g) for i, g in enumerate(gens) if g]
    if not live:
        return None
    ring = live[0][1].ring
    n = ring.nvars
    rank = len(gens) + 1
    mring = _position_ring(ring, rank)
    G = buchberger(
        [_encode({0: g, i + 1: ring.one()}, mring, rank) for i, g in live],
        keep=lambda r: r.lm()[n],
        stop=lambda g: not any(g.lm()[:n]),
    )
    if any(G[-1].lm()[:n]):
        return None
    v = _decode(G[-1].monic(), ring)  # lc(G[-1]) is the constant c
    return [v.get(i + 1, ring.zero()) for i in range(len(gens))]


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Ideal with a lazily computed reduced Groebner basis and its lead index.

    The index is built once and serves every `normal_form` call.
    """

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = tuple(g for g in generators)
        self._gb = None
        self._lead = None

    @classmethod
    def of_basis(cls, ring, basis):
        """The ideal of a reduced Groebner basis, which serves as its basis unchanged."""
        out = cls(ring, basis)
        out._gb = list(basis)
        return out

    def groebner(self):
        if self._gb is None:
            self._gb = groebner_basis(self.generators)
        return self._gb

    def normal_form(self, p):
        if self._lead is None:
            self._lead = LeadIndex(self.groebner())
        return normal_form_list(p, self._lead)

    def contains(self, p):
        return self.normal_form(p).is_zero()

    def is_unit(self):
        gb = self.groebner()
        return len(gb) == 1 and sum(gb[0].lm()) == 0

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inner})"


def eliminate(ideal, keep):
    """Intersection of `ideal` with the subring on the `keep` variables.

    Internally permutes the variables so the discarded block comes first and
    runs Buchberger under a block elimination order.  That order is degrevlex
    on the kept block, so the kept elements of the reduced basis are already
    the reduced basis of the result, in its order, and serve as its Groebner
    basis.
    """
    ring = ideal.ring
    keep = list(keep)
    drop = [n for n in ring.names if n not in keep]
    names = [n for n in ring.names if n in keep]
    work = GradedRing(
        drop + names,
        [ring.weights[ring.index(n)] for n in drop + names],
        f"elim:{len(drop)}",
    )
    gb = groebner_basis([g.map_ring(work) for g in ideal.generators])
    sub = GradedRing(names, [ring.weights[ring.index(n)] for n in names])
    kept = []
    for g in gb:
        if all(all(m[i] == 0 for i in range(len(drop))) for m in g.terms):
            kept.append(g.map_ring(sub))
    return Ideal.of_basis(sub, kept)


# ---------------------------------------------------------------------------
# presented algebras


class PresentedAlgebra:
    """Quotient of a graded polynomial ring by a relations ideal.

    Elements are plain Polynomials; `nf` gives the canonical representative,
    so equality in the algebra is normal-form comparison.  The ideals that
    `ideal` joins are memoised on the algebra, so it is not mutated after
    construction.
    """

    def __init__(self, ring, relations=None):
        self.ring = ring
        if relations is None:
            relations = Ideal(ring, [])
        elif not isinstance(relations, Ideal):
            relations = Ideal(ring, list(relations))
        self.relations = relations
        self._ideals = {}  # generator tuple -> its joined Ideal, filled by `ideal`

    def nf(self, p):
        return self.relations.normal_form(p)

    def is_zero(self, p):
        return self.nf(p).is_zero()

    def equal(self, p, q):
        return self.is_zero(p - q)

    def is_empty(self):
        """Unit relations ideal: the empty chart."""
        return self.relations.is_unit()

    def ideal(self, gens):
        """The ideal that `gens` generate in the algebra, as an ideal of the ring.

        Its generators are `gens` followed by the relations.  The same
        generator tuple gives the same `Ideal`, so its Groebner basis is
        computed once.
        """
        gens = tuple(gens)
        if gens not in self._ideals:
            self._ideals[gens] = Ideal(self.ring, gens + self.relations.generators)
        return self._ideals[gens]

    def standard_monomials(self, weight, max_degree):
        """Monomials of one lambda-weight not divisible by any leading relation monomial.

        Up to `max_degree` they form a basis of that weight's
        finite-dimensional slice of the algebra.
        """
        ring = self.ring
        leads = [ring.pack(g.lm()) for g in self.relations.groebner()]
        out = []
        for d in range(max_degree + 1):
            for m in ring.monomials_of_degree(d):
                if ring.monomial_weight(m) != weight:
                    continue
                w = ring.pack(m)
                if all((w - l) & ring.guard for l in leads):
                    out.append(m)
        return out

    def __repr__(self):
        return f"PresentedAlgebra({self.ring!r}, {self.relations!r})"


# ---------------------------------------------------------------------------
# free module maps, module Groebner bases and syzygies


@dataclass(frozen=True)
class FreeModuleMap:
    """Map of free modules given by a matrix of polynomials (rows x cols)."""

    domain_rank: int
    codomain_rank: int
    matrix: tuple  # tuple of rows, each a tuple of Polynomial

    def __post_init__(self):
        if len(self.matrix) != self.codomain_rank:
            raise ValueError("row count must equal codomain rank")
        for row in self.matrix:
            if len(row) != self.domain_rank:
                raise ValueError("column count must equal domain rank")


def _position_ring(ring, rank):
    """`ring` plus one position variable @e0..@e{rank-1} per coordinate.

    A free-module vector {pos: p} is the polynomial sum(p * @e{pos}), so the
    polynomial reduction kernel and its S-pairs serve modules too (Moeller &
    Mora).  The order compares the position part first, position 0 highest,
    and then the base exponents: position over term.  Every term of an
    encoded vector has exactly one position variable, with exponent 1, and
    the kernel keeps it one per term, as it multiplies only by base
    monomials and `pair_normal_form` refuses leads in different positions.
    So all positions share one word field, holding position k as k + 1,
    and one key row, with weights rank, ..., 1 (see `GradedRing`): a word
    has the base ring's fields plus one, a key its rows plus one, and the
    ring's `positions` mask reads the position off a word.
    """
    return GradedRing(
        ring.names + tuple(f"@e{k}" for k in range(rank)),
        ring.weights + (0,) * rank,
        f"pot{rank}:{ring.order}",
    )


def _encode(v, mring, rank):
    """The vector {pos: p} over `_position_ring`: each term of p times @e{pos}.

    So each term carries one position variable with exponent 1, the one
    position part by which `LeadIndex` buckets its leads.
    """
    terms = {}
    for pos, p in v.items():
        unit = (0,) * pos + (1,) + (0,) * (rank - pos - 1)
        for m, c in p.terms.items():
            terms[m + unit] = c
    return Polynomial(mring, terms, False)


def _decode(p, ring):
    """{pos: poly over ring} of an encoded vector, without zero entries."""
    n = ring.nvars
    parts = {}
    for e, c in p.terms.items():
        parts.setdefault(e.index(1, n) - n, {})[e[:n]] = c
    return {pos: Polynomial(ring, t, False) for pos, t in parts.items()}


def module_groebner(gens, ring, rank):
    """Buchberger for submodules of a free module, position-over-term order.

    `gens` are vectors {pos: poly}; the basis is returned encoded over the
    position ring, as `_encode` writes a vector.
    Only pairs whose leads share a position are formed; they are taken last
    in, first out, and this order fixes which syzygy generators
    `syzygy_kernel` returns.  Each S-polynomial is reduced by the basis
    leads in its own position only, first divisor in basis order, through
    one `LeadIndex` that grows with the basis.
    """
    mring = _position_ring(ring, rank)
    G = [g for g in (_encode(v, mring, rank) for v in gens) if g]
    lead = LeadIndex()
    entries = [lead.add(g) for g in G]
    pos = [e[0] & mring.positions for e in entries]  # position part of each lead
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G)) if pos[i] == pos[j]]
    while pairs:
        i, j = pairs.pop()
        r = pair_normal_form(entries[i], entries[j], lead)
        if r:
            t = len(G)
            G.append(r)
            entries.append(lead.add(r))
            pos.append(entries[t][0] & mring.positions)
            pairs.extend((k, t) for k in range(t) if pos[k] == pos[t])
    return G


def syzygy_kernel(fmap, relations=None):
    """Generators of the kernel of a free-module map over R or R/relations.

    Standard elimination computation: track cofactors in extra positions and
    keep the Groebner elements supported entirely on the cofactor block.
    The module is spanned by column j plus e_{r+j} for each column j, then
    f*e_i for each nonzero relation f and each row i, then f*e_p for each
    f when the map has a dead cofactor position p, in that order.
    Returns a list of vectors (length = domain rank).

    Over R/relations the kernel omits every generator led in the dead
    position p = r + j: j is the last column with a nonzero entry, and some
    entry of column j is a nonzero constant c (one term of exponent zero;
    a `weighted:` order need not put constants last, so this is not read
    off a lead).  A vector led at p has no image part and no earlier
    cofactor, so its cofactor a of column j has c*a, hence a, in the
    relations, and the unit vectors e_{r+j'} of the zero columns j' > j
    clear every later position: it is zero modulo the relations.  Each
    f*e_p lies in the module (f times the generator of column j, less f
    times column j, which the f*e_i span).  When the relations are a
    Groebner basis, as `kernel_generators` passes them, the f*e_p reduce
    every entry at p to its normal form, so no remainder is led at p and
    the only pairs there are theirs, which reduce to zero: the loop never
    builds the vectors that are dropped.  Otherwise the remainders led at
    p complete the basis there.  Terms before p are popped before any term
    at p and reduced only by leads before p, so the pairs outside p are
    reduced in the same order as without the f*e_p, every other generator
    agrees with that run's before p, and its entry at p differs by an
    element of the relations.  Without relations no nonzero vector is led
    at p.
    """
    r, s = fmap.codomain_rank, fmap.domain_rank
    if s == 0:
        return []
    ring = next((row[0].ring for row in fmap.matrix), None)
    if ring is None:
        raise ValueError("empty map needs at least one entry to fix the ring")
    gens = [
        {**{i: row[j] for i, row in enumerate(fmap.matrix) if row[j]}, r + j: ring.one()}
        for j in range(s)
    ]
    gens += [{i: f} for f in relations or () if f for i in range(r)]
    live = [j for j in range(s) if any(row[j] for row in fmap.matrix)]
    column = [row[live[-1]] for row in fmap.matrix] if live else []
    dead = None
    if any(p and not p.total_degree() for p in column):  # a nonzero constant
        dead = r + live[-1]
        gens += [{dead: f} for f in relations or () if f]
    out = []
    for g in module_groebner(gens, ring, r + s):
        v = _decode(g, ring)
        if min(v) >= r and min(v) != dead:
            out.append([v.get(r + j, ring.zero()) for j in range(s)])
    # deterministic ordering: by leading data of the cofactor vector
    def sortkey(vec):
        for j, p in enumerate(vec):
            if p:
                return (j, ring.key(p.lm()))
        return (s, ())

    out.sort(key=sortkey)
    return out


# ---------------------------------------------------------------------------
# determinants

def determinant(rows):
    """Exact determinant of a square matrix of polynomials (cofactor expansion)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty determinant is a convention, handle at call site")
    return _cofactor_expansion(rows, 0, tuple(range(n)), {})


def _cofactor_expansion(rows, r, cs, memo):
    """Minor of rows r, r+1, ... on columns cs, expanded along row r; memo maps (r, cs) to it."""
    if len(cs) == 1:
        return rows[r][cs[0]]
    key = (r, cs)
    if key in memo:
        return memo[key]
    total = rows[r][cs[0]].ring.zero()
    sign = 1
    for k, c in enumerate(cs):
        entry = rows[r][c]
        if entry:
            sub = _cofactor_expansion(rows, r + 1, cs[:k] + cs[k + 1 :], memo)
            total = total + entry * sub * sign
        sign = -sign
    memo[key] = total
    return total


def minors_ideal_generators(matrix, size):
    """All size x size minors of a matrix (list of rows of Polynomials)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if size <= 0 or size > nrows or size > ncols:
        return []
    out = []
    for rs in itertools.combinations(range(nrows), size):
        for cs in itertools.combinations(range(ncols), size):
            out.append(determinant([[matrix[i][j] for j in cs] for i in rs]))
    return out


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def matrix_rank(rows):
    return len(rref(rows)[1])


def sparse_system(columns, keys=()):
    """Dense rows of the linear system with the given sparse columns.

    `columns[j]` lists the (equation key, coefficient) pairs of unknown j,
    such as a dict's items(); repeated keys sum.  `keys` are indexed first,
    so a right-hand side may name a key that no column has.  Returns
    (rows, index), index mapping each key to its row.  Without any equation
    there is one zero row, so every unknown stays free.
    """
    index = {}
    for key in keys:
        index.setdefault(key, len(index))
    entries = [
        (index.setdefault(key, len(index)), j, c) for j, col in enumerate(columns) for key, c in col
    ]
    rows = [[Fraction(0)] * len(columns) for _ in range(max(len(index), 1))]
    for i, j, c in entries:
        rows[i][j] += c
    return rows, index


def solve_linear(rows, rhs):
    """One exact solution of M x = rhs (free variables zero), or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None  # inconsistent: pivot in the constant column
    x = [Fraction(0)] * ncols
    for rowi, pc in enumerate(pivots):
        x[pc] = red[rowi][ncols]
    return x
