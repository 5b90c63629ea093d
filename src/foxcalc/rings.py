"""Coefficient rings Z and Z_p with Laurent variables modulo t_i^k_i - 1.

A RingSpec fixes a modulus p (0 meaning Z, otherwise prime) and an ordered
list of variables with orders k_i >= 0 (0 meaning infinite order).
Exponents of finite-order variables are reduced to least nonnegative
residues, so every variable is a unit (t_i * t_i^(k_i-1) = 1).  An element
has one of two representations, picked from the number of variables:

  - one variable: dense, a run (v, coefficients), the element
    t^v (c_0 + c_1 t + ... + c_n t^n) with c_0 and c_n nonzero, behind the
    RingElement interface.  It overrides only what the Fox walk,
    reduce_matrix, det and render use; its sums and products are
    run_addmul, the one a + q b on runs, which smith.py shares: it aligns
    them, and convolves short or sparse runs (Knuth, TAOCP vol. 2, section
    4.6) and multiplies long dense ones as one integer product, by
    Kronecker substitution.  An element whose exponents span more than
    DEGREE_CAP is refused.
  - none or several variables: a map from exponent vectors to nonzero
    coefficients.

The RingElement constructor is the one place exponents and coefficients
are reduced: arithmetic builds raw runs or term maps, and the constructor
folds, merges and trims them.

Also provides matrices over such rings, division-free determinants and
minors, an E_d-preserving unit-pivot reduction, and gcd of Laurent
polynomials over genuine (all orders 0) Laurent rings, by smith.zp_divisors
over Z_p in one variable and by sympy otherwise.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, gcd, prod
from operator import add

DET_CAP = 10
DEGREE_CAP = 10**6  # of a dense univariate polynomial, t^k - 1 included
MINOR_CAP = 10**5  # q x q minors of one t x s matrix, C(t, q) * C(s, q)
FINITE_SIZE_CAP = 2**16  # elements of a finite ring in several variables, its ideals spans


class RingError(ValueError):
    pass


def is_prime(p):
    """Whether p is prime, by Miller-Rabin to the first twelve prime bases:
    exact below 3.18 * 10^23, a strong probable-prime test above."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """The ring (Z or Z_p)[t_1^±, ..., t_r^±] / (t_i^k_i - 1 for k_i > 0)."""

    modulus: int
    variables: tuple  # of (name, order)

    def __post_init__(self):
        if self.modulus != 0 and not is_prime(self.modulus):
            raise RingError(f"modulus must be 0 or prime, got {self.modulus}")
        names = [n for n, _ in self.variables]
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names")
        for _, k in self.variables:
            if k < 0:
                raise RingError("variable order must be >= 0")

    @property
    def nvars(self):
        return len(self.variables)

    def is_finite(self):
        return self.modulus > 0 and all(k > 0 for _, k in self.variables)

    def monomial_count(self):
        if not all(k > 0 for _, k in self.variables):
            raise RingError("ring is infinite")
        return prod(k for _, k in self.variables)

    def size(self):
        return self.modulus ** self.monomial_count()

    def reduce_exps(self, exps):
        return tuple(
            e % k if k > 0 else e for e, (_, k) in zip(exps, self.variables)
        )

    def reduce_coeff(self, c):
        return c % self.modulus if self.modulus else c

    def zero(self):
        return RingElement(self, {})

    def one(self):
        return self.monomial((0,) * self.nvars, 1)

    def monomial(self, exps, coeff=1):
        return RingElement(self, {tuple(exps): coeff})

    def from_int(self, c):
        return self.monomial((0,) * self.nvars, c)

    def all_monomials(self):
        """All exponent vectors of a finite-orders spec, graded-lex order."""
        ranges = [range(k) for _, k in self.variables]
        return sorted(itertools.product(*ranges), key=lambda e: (sum(e), e))


def ring_make(p, variables):
    return RingSpec(p, tuple(variables))


def term_key(exps):
    """Graded then lexicographic order on exponent vectors."""
    return (sum(exps), exps)


class RingElement:
    """An element of a RingSpec's ring, treated as immutable.

    RingElement(spec, terms) is the only constructor, and the only place
    anything is reduced.  terms maps exponent vectors to coefficients; over
    one variable it may instead be a run (valuation, coefficients), the
    coefficient of t^(valuation + i) at position i.  A spec with one
    variable gets a dense element, any other spec this term map.
    """

    __slots__ = ("spec", "_terms")

    def __new__(cls, spec, terms):
        return object.__new__(_DenseElement if spec.nvars == 1 else cls)

    def __init__(self, spec, terms):
        self.spec = spec
        clean = {}
        for exps, c in terms.items():
            exps = spec.reduce_exps(exps)
            c = spec.reduce_coeff(clean.get(exps, 0) + c)
            if c:
                clean[exps] = c
            elif exps in clean:
                del clean[exps]
        self._terms = clean

    @property
    def terms(self):
        """The nonzero terms, {exponent vector: coefficient}."""
        return self._terms

    def __reduce__(self):  # copy and pickle through the one constructor
        return RingElement, (self.spec, self.terms)

    def _check(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise RingError("ring spec mismatch")

    def _add_scaled(self, other, sign):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + sign * c
        return RingElement(self.spec, terms)

    def __add__(self, other):
        return self._add_scaled(other, 1)

    def __neg__(self):
        return RingElement(self.spec, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._add_scaled(other, -1)

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return RingElement(self.spec, terms)

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * self.spec.nvars: 1}

    def is_unit_monomial(self):
        """True if the element is a single term with unit coefficient."""
        if len(self.terms) != 1:
            return False
        ((_, c),) = self.terms.items()
        return c in (1, -1) if self.spec.modulus == 0 else True

    def unit_inverse(self):
        """Inverse of a unit monomial."""
        if not self.is_unit_monomial():
            raise RingError("not a unit monomial")
        ((exps, c),) = self.terms.items()
        p = self.spec.modulus
        cinv = c if p == 0 else pow(c, -1, p)
        return self.spec.monomial(tuple(-e for e in exps), cinv)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_key(kv[0]))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, tuple(self.sorted_terms())))

    def min_exps(self):
        """Per-variable minimum exponent over all terms (zero element: zeros)."""
        if not self.terms:
            return (0,) * self.spec.nvars
        return tuple(min(e[i] for e in self.terms) for i in range(self.spec.nvars))

    def shift_to_origin(self):
        """Multiply by the unit monomial making every minimum exponent 0."""
        lows = self.min_exps()
        if not any(lows):
            return self
        return self * self.spec.monomial(tuple(-l for l in lows))

    def render(self):
        """Canonical string: terms ascending in graded-lex order, e.g. '1+t'."""
        names = [n for n, _ in self.spec.variables]
        return _render_terms(
            (c, "".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e))
            for exps, c in self.sorted_terms()
        )


class _DenseElement(RingElement):
    """An element of a one-variable ring: t^valuation times the polynomial
    with coefficients coeffs, lowest degree first.  The first and last
    coefficients are nonzero (the zero element: valuation 0, no
    coefficients), and at finite order k every exponent lies in [0, k)."""

    __slots__ = ("valuation", "coeffs")

    def __init__(self, spec, terms):
        self.spec = spec
        k, p = spec.variables[0][1], spec.modulus
        if isinstance(terms, dict):  # {(e,): c}, its exponents folded, as a run
            exps = [e % k if k else e for (e,) in terms]
            lo, hi = min(exps, default=0), max(exps, default=-1)
            check_degree(hi - lo)
            cs = [0] * (hi - lo + 1)
            for e, c in zip(exps, terms.values()):
                cs[e - lo] += c
            terms = lo, cs
        val, cs = _trimmed(*terms, p)
        if k and cs and (val < 0 or val + len(cs) > k):
            q = val // k
            if (val + len(cs) - 1) // k == q:  # within one period: a shift
                val -= q * k
            else:
                check_degree(k - 1)
                cs = [0] * (val % k) + list(cs)
                val, cs = _trimmed(0, [sum(cs[i::k]) for i in range(k)], p)
        if len(cs) > DEGREE_CAP + 1:
            check_degree(len(cs) - 1)
        self.valuation, self.coeffs = val, cs

    @property
    def run(self):
        return self.valuation, self.coeffs

    @property
    def terms(self):
        return dict(self.sorted_terms())

    def _add_scaled(self, other, sign):
        self._check(other)
        (va, a), (vb, b) = self.run, other.run
        if a and b:  # refused before the sum's span is allocated
            check_degree(max(va + len(a), vb + len(b)) - min(va, vb) - 1)
        return RingElement(self.spec, run_addmul(self.run, (0, (sign,)), other.run))

    def __mul__(self, other):
        self._check(other)
        n, k = len(self.coeffs) + len(other.coeffs) - 2, self.spec.variables[0][1]
        check_degree(min(n, k - 1) if k else n)  # refused before the product is formed
        return RingElement(self.spec, run_addmul((0, ()), self.run, other.run))

    def is_zero(self):
        return not self.coeffs

    def is_unit_monomial(self):
        return len(self.coeffs) == 1 and (self.spec.modulus > 0 or self.coeffs[0] in (1, -1))

    def sorted_terms(self):
        val = self.valuation
        return [((val + i,), c) for i, c in enumerate(self.coeffs) if c]

    def render(self):
        n = self.spec.variables[0][0]
        return _render_terms(
            (c, n if e == 1 else f"{n}^{e}" if e else "")
            for e, c in enumerate(self.coeffs, self.valuation)
            if c
        )


def _render_terms(terms):
    """(coefficient, monomial text) pairs, '' the text of 1, as '0' or as
    signed terms, e.g. '1+t-2t^2'."""
    s = "".join(
        f"+{m}" if c == 1 and m else f"-{m}" if c == -1 and m else f"{c:+}{m}" for c, m in terms
    )
    return s[1:] if s[:1] == "+" else s or "0"


KRONECKER_MIN = 16  # terms of the shorter of q and b, and nonzero ones of both, for _kron


def run_addmul(a, q, b):
    """a + q b on runs, untrimmed.  Below KRONECKER_MIN terms in the shorter
    of q and b it convolves over that one; from there it takes q b by
    _kron if both hold KRONECKER_MIN nonzero coefficients, and otherwise
    convolves over the one with fewer."""
    (va, ca), (vq, cq), (vb, cb) = a, q, b
    if len(cq) > len(cb):
        cq, cb = cb, cq
    if not cq:
        return a
    lo, hi = vq + vb, vq + vb + len(cq) + len(cb) - 1
    if ca:
        lo, hi = min(lo, va), max(hi, va + len(ca))
    out = [0] * (hi - lo)
    out[va - lo : va - lo + len(ca)] = ca
    if len(cq) >= KRONECKER_MIN:
        nq, nb = len(cq) - cq.count(0), len(cb) - cb.count(0)
        if nq >= KRONECKER_MIN and nb >= KRONECKER_MIN:
            cq, cb = (1,), _kron(cq, cb)  # the product, added in one pass
        elif nb < nq:
            cq, cb = cb, cq
    n = len(cb)
    for i, x in enumerate(cq, vq + vb - lo):
        if x:
            out[i : i + n] = map(add, out[i : i + n], map(x.__mul__, cb))
    return lo, out


def _kron(x, y):
    """The coefficients of x y by Kronecker substitution (von zur Gathen and
    Gerhard, Modern Computer Algebra, section 8.4): each run packed into one
    integer, w bytes a coefficient, w wide enough for every coefficient of
    the product and its sign, the two multiplied once and read back."""
    bound = min(len(x), len(y)) * max(map(abs, x)) * max(map(abs, y))
    w, n = (bound.bit_length() + 8) // 8, len(x) + len(y) - 1
    half = 1 << (8 * w - 1)

    def pack(cs):  # the positive part minus the negative part, each by bytes
        zero = bytes(w)
        pos = b"".join([c.to_bytes(w, "little") if c > 0 else zero for c in cs])
        neg = b"".join([(-c).to_bytes(w, "little") if c < 0 else zero for c in cs])
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    # each slot of the product, biased by half, lies in [0, 2^(8w))
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    out = (pack(x) * pack(y) + bias).to_bytes(n * w, "little")
    return [int.from_bytes(out[i : i + w], "little") - half for i in range(0, n * w, w)]


def check_degree(d):
    if d > DEGREE_CAP:
        raise RingError(f"polynomial degree {d} over DEGREE_CAP = {DEGREE_CAP}")


def _trimmed(val, cs, p):
    """The run with coefficients reduced mod p (p > 0) and zero ends cut."""
    if p:
        cs = [c % p for c in cs]
    if cs and cs[0] and cs[-1]:
        return val, tuple(cs)
    hi = len(cs)
    while hi and not cs[hi - 1]:
        hi -= 1
    if not hi:
        return 0, ()
    lo = 0
    while not cs[lo]:
        lo += 1
    return val + lo, tuple(cs[lo:hi])


@dataclass(frozen=True)
class RingMatrix:
    """A t x s matrix of ring elements, thought of as infinitely zero-padded.

    declared_rows / declared_cols are the logical t and s used by the
    elementary-ideal conventions; the zero padding is never materialized.
    """

    spec: RingSpec
    entries: tuple  # of row tuples
    declared_rows: int
    declared_cols: int

    @classmethod
    def build(cls, spec, rows):
        rows = tuple(tuple(r) for r in rows)
        for r in rows:
            for e in r:
                if e.spec != spec:
                    raise RingError("matrix entry spec mismatch")
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise RingError("ragged matrix")
        return cls(spec, rows, len(rows), ncols)

    @functools.cached_property
    def zp_generators(self):
        """smith.zp_generators of the entries, one variable over Z_p: one
        elimination, or one set of ranks, per matrix, on first use."""
        from .smith import zp_generators
        k, p = self.spec.variables[0][1], self.spec.modulus
        return zp_generators([[e.run for e in row] for row in self.entries], k, p)


def det(spec, rows):
    """Division-free determinant: the one full-size minor of the square
    matrix rows, a list of equal-length tuples of RingElement."""
    n = len(rows)
    if n == 0:
        return spec.one()
    if any(len(r) != n for r in rows):
        raise RingError("determinant of non-square matrix")
    return minors(RingMatrix(spec, tuple(map(tuple, rows)), n, n), n)[0]


def minors(m, q):
    """All q x q minors drawn from the declared rows and columns.

    Ordered lexicographically by (row subset, column subset), so for q = 1
    the entries row by row.  Empty if q exceeds either dimension.  More than
    MINOR_CAP of them, or q over DET_CAP, raises RingError.  Each minor is
    a Laplace expansion along its first row, skipping zero entries; a
    memo keyed by (rows, columns) computes each smaller minor once for all
    the minors of the call that reach it, and drops each as the row subsets
    pass its first row.
    """
    if q < 1:
        raise RingError("minor size must be >= 1")
    t, s = m.declared_rows, m.declared_cols
    if q > t or q > s:
        return []
    count = comb(t, q) * comb(s, q)
    if count > MINOR_CAP:
        raise RingError(f"{count} minors of size {q} over MINOR_CAP = {MINOR_CAP}")
    if q == 1:
        return [e for row in m.entries for e in row]
    if q > DET_CAP:
        raise RingError(f"determinant size {q} over DET_CAP = {DET_CAP}")
    entries, zero, memo = m.entries, m.spec.zero(), {}

    def minor(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        if (rows, cols) not in memo:
            total, row = zero, entries[rows[0]]
            for pos, j in enumerate(cols):
                a = row[j]
                if not a.is_zero():
                    sub = minor(rows[1:], cols[:pos] + cols[pos + 1 :])
                    total = total + a * sub if pos % 2 == 0 else total - a * sub
            memo[rows, cols] = total
        return memo[rows, cols]

    subsets, out = itertools.combinations, []
    for first in range(t - q + 1):
        # the minors left read only rows after first: drop the memo's others
        for key in [key for key in memo if key[0][0] <= first]:
            del memo[key]
        out += [
            minor((first, *r), c)
            for r in subsets(range(first + 1, t), q - 1)
            for c in subsets(range(s), q)
        ]
    return out


def reduce_matrix(m):
    """Shrink a matrix by elementary operations preserving all E_d.

    Repeatedly finds a unit-monomial entry, clears its row and column by
    row/column additions, and deletes both (the inverse of the bordering
    operation).  declared_rows and declared_cols drop together, so every
    E_d of the result equals E_d of the input.
    """
    rows = [list(r) for r in m.entries]
    while True:
        pivot = None
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if e.is_unit_monomial():
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        inv = rows[i][j].unit_inverse()
        for i2 in range(len(rows)):
            if i2 != i and not rows[i2][j].is_zero():
                factor = rows[i2][j] * inv
                rows[i2] = [
                    a if b.is_zero() else a - factor * b
                    for a, b in zip(rows[i2], rows[i])
                ]
        del rows[i]
        for row in rows:
            del row[j]
    if rows:
        return RingMatrix(m.spec, tuple(tuple(r) for r in rows), len(rows), len(rows[0]))
    return RingMatrix(m.spec, (), 0, m.declared_cols - m.declared_rows)


def poly_gcd(a, b):
    """gcd up to units on a genuine Laurent ring (p = 0 or prime, orders 0).

    The result is normalized: minimum exponent 0 in every variable, and over
    Z the leading coefficient (last term in graded-lex order) positive.
    """
    spec = a.spec
    if a.spec != b.spec:
        raise RingError("ring spec mismatch")
    if any(k != 0 for _, k in spec.variables):
        raise RingError("gcd needs all variable orders 0")
    if a.is_zero() and b.is_zero():
        return spec.zero()
    if not spec.nvars:
        return spec.from_int(gcd(a.terms.get((), 0), b.terms.get((), 0)))
    if spec.nvars == 1 and spec.modulus:  # Euclid: Delta_1 of the 1 x 2 matrix (a b)
        from .smith import zp_divisors
        return RingElement(spec, (0, zp_divisors([[a.run, b.run]], spec.modulus)[0]))
    import sympy
    symbols = [sympy.Symbol(n) for n, _ in spec.variables]
    options = {"modulus": spec.modulus} if spec.modulus else {}
    fa, fb = (
        sympy.Poly.from_dict(e.shift_to_origin().terms, *symbols, **options)
        for e in (a, b)
    )
    g = fa.gcd(fb).as_dict()
    result = RingElement(spec, {tuple(map(int, e)): int(c) for e, c in g.items()})
    return normalize_sign(result.shift_to_origin())


def normalize_sign(elem):
    """Make the last (graded-lex greatest) coefficient positive over Z."""
    if elem.spec.modulus or elem.is_zero():
        return elem
    if elem.sorted_terms()[-1][1] < 0:
        return -elem
    return elem


def content_gcd(elems):
    """gcd of several ring elements, folding poly_gcd pairwise."""
    out = None
    for e in elems:
        out = e if out is None else poly_gcd(out, e)
        if out.is_one():
            return out
    return out
