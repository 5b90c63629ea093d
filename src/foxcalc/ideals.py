"""Finitely generated ideals in the four ring regimes the tables need.

Normalization dispatches on the ring spec:

  (a) one variable over Z_p: Z_p[t^±1] and Z_p[t]/(t^k - 1), quotients of
      the PID Z_p[t].  The ideal is (g), g monic with g(0) != 0, at order k
      a divisor of t^k - 1: the gcd of the generators by smith.zp_divisors,
      folded by smith.zp_fold.  Membership is division by g.  A render is
      g at infinite order, else a greedy, then irredundant, generating set
      of the elements, tested by division and gcd against g.
  (b) finite rings in several variables: the ideal is a Z_p-subspace of
      the monomial basis, row reduced by smith.zp_rref from the generators'
      coefficient vectors, whose monomial multiples permute their entries;
      membership is whether a vector leaves the rank as it is.  A render
      is a greedy, then irredundant, generating set of span vectors.
  (c) Z, Z[t^±1] and Z[t]/(t^k - 1): the reduced strong Groebner basis
      over Z[t], from S- and gcd-polynomials, of the generators shifted to
      polynomials, with t^k - 1 adjoined at order k.  Over the Laurent ring
      the same queue saturates it by t, so that it is the unique preimage
      of the Laurent ideal.  Reduction brings each coefficient into [0, m),
      m the least |lc| of the elements of no higher degree, up a staircase
      of those elements, so full reduction takes exactly the members to
      zero; one budget meters the whole normalization.  Polynomials are
      coefficient runs, as in rings.py, and the data is a tuple of runs.
      A render lists the basis's images in the ring, each once and none
      that is zero, so t^k - 1 is not printed.
  (d) anything else: generators only, rendered shifted, sign-normalized,
      sorted and each once, unless ideal_from finds them ZERO or UNIT.

Every normal form but GENERATORS_ONLY is unique, so equality is decided by
comparing them; with a GENERATORS_ONLY side it falls back to probing in
finite quotients and is three-valued.  An ideal in UNIT form carries no
normal-form data.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from math import gcd

from .rings import FINITE_SIZE_CAP, RingElement, RingSpec, RingError, check_degree
from .rings import _trimmed, normalize_sign, ring_make, run_addmul, term_key
from .smith import zp_code_search, zp_divisors, zp_fold, zp_lift, zp_rem, zp_rref

DISPLAY_SIZE_CAP = 2**12  # elements of a finite ideal whose generating set is searched
GROEBNER_WORK_CAP = 3 * 10**7  # coefficient operations of one strong_groebner, per 64-bit word
PROBES = ((2, 2), (2, 3), (3, 2), (3, 4), (5, 2))


class NormalForm(enum.Enum):
    ZERO = "zero"
    UNIT = "unit"
    PRINCIPAL = "principal"
    FINITE_SET = "finite_set"
    GB = "gb"
    GENERATORS_ONLY = "generators_only"


class Comparison(enum.Enum):
    EQUAL_PROVEN = "equal-proven"
    UNEQUAL_PROVEN = "unequal-proven"
    UNDETERMINED = "undetermined"


class UndecidableError(RingError):
    pass


# ---------------------------------------------------------------------------
# Polynomials over Z: runs (valuation, coefficients), the valuation >= 0,
# trimmed by rings._trimmed(v, cs, 0).


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def zp_reduce(f, basis, work=None):
    """Fully reduce the run f by a set of Z[t] runs (Euclidean on coefficients).

    Each coefficient, from the top down, is brought into [0, |lc|) by each
    element of no higher degree in turn, by degree, then |lc|, then basis
    order, so it ends in [0, m), m the least of their |lc|.  Only an element
    whose |lc| is below that of every element before it can move it: these
    form a staircase, and a coefficient already in [0, m) costs one test.
    Going up the staircase, the lowest element takes the largest quotient,
    so the coefficients below stay near the size of the |lc|s; by the top
    step alone they could grow by a factor at every degree.  On a strong
    basis the result is the unique normal form.  Works in place on one
    list, f's coefficients from degree 0; a subtraction reads only the
    nonzero coefficients of the basis element.  work: None, or a one-item
    list holding what is left of a budget, which each subtraction of
    q t^i g charges, before it is made, (deg g + 1) * (1 + bits(q) // 64).
    """
    cs = [0] * f[0] + list(f[1])
    stairs = []  # (degree, |lc|, lc, nonzero (exponent - degree, coefficient) pairs)
    for v, gs in sorted(basis, key=lambda g: (g[0] + len(g[1]), abs(g[1][-1]))):
        if not stairs or abs(gs[-1]) < stairs[-1][1]:
            dg = v + len(gs) - 1
            pairs = [(i - dg, x) for i, x in enumerate(gs, v) if x]
            stairs.append((dg, abs(gs[-1]), gs[-1], pairs))
    top = len(cs) - 1
    for k in range(len(stairs) - 1, -1, -1):
        low, least = stairs[k][:2]
        for d in range(top, low - 1, -1):
            if 0 <= cs[d] < least:
                continue
            for dg, m, lc, pairs in stairs[: k + 1]:  # up the staircase
                c = cs[d]
                if 0 <= c < m:
                    continue
                q = (c - c % m) // lc
                if work is not None:
                    _charge(work, (dg + 1) * (1 + q.bit_length() // 64))
                for i, x in pairs:  # cs -= q t^(d - deg g) g
                    cs[d + i] -= q * x
        top = min(top, low - 1)
    return _trimmed(0, cs, 0)


def _charge(work, n):
    """Take n coefficient operations from the budget work, a one-item list."""
    work[0] -= n
    if work[0] < 0:
        raise RingError(
            f"Groebner basis over GROEBNER_WORK_CAP = {GROEBNER_WORK_CAP} coefficient operations"
        )


def _pair_polys(f, g, work):
    """The S-polynomial (lcm of leading coefficients) and the G-polynomial
    (Bezout combination reaching their gcd) of the runs f and g, untrimmed:
    s t^(d - deg f) f + q t^(d - deg g) g, d the larger degree, each by one
    run_addmul, which reads both runs.  Both are charged to the budget work
    before they are formed, 2 (len f + len g) times 1 + (bits(lc f) +
    bits(lc g)) // 64, so that coefficients past a machine word cost more."""
    (vf, fs), (vg, gs) = f, g
    df, dg, a, b = vf + len(fs) - 1, vg + len(gs) - 1, fs[-1], gs[-1]
    _charge(work, 2 * (len(fs) + len(gs)) * (1 + (a.bit_length() + b.bit_length()) // 64))
    d, l = max(df, dg), a * b // gcd(a, b)
    _, u, w = _ext_gcd(a, b)
    return [
        run_addmul((vf + d - df, [s * x for x in fs]), (d - dg, (q,)), g)
        for s, q in ((l // a, -(l // b)), (u, w))
    ]


def _positive(run):
    """A trimmed run with its leading coefficient made positive."""
    v, cs = run
    return (v, tuple(-c for c in cs)) if cs and cs[-1] < 0 else run


def _colon_t(basis):
    """Generators of (J : t) modulo J, for J generated by basis in Z[t].

    t*f = sum h_i g_i forces sum h_i(0) g_i(0) = 0, so J : t is J plus
    (sum l_i g_i)/t over the integer syzygies l of the constant terms g_i(0).
    One syzygy per element, against a running Bezout combination acc with
    acc(0) = a = gcd of the constant terms so far, spans them all.  Each
    combination scales acc and is formed by one run_addmul; a run with no
    constant term (v, cs) divided by t is (v - 1, cs).
    """
    out, acc, a = [], (0, ()), 0
    for g in basis:
        g0 = 0 if g[0] else g[1][0]
        h, u, w = _ext_gcd(a, g0)
        if h == 0:  # g(0) = 0 and no constant term so far
            out.append(g)
            continue
        out.append(run_addmul((acc[0], [g0 // h * x for x in acc[1]]), (0, (-(a // h),)), g))
        acc, a = run_addmul((acc[0], [u * x for x in acc[1]]), (0, (w,)), g), h
    return [(v - 1, cs) for v, cs in (_trimmed(*q, 0) for q in out) if cs]


def strong_groebner(gens, saturate=False):
    """Reduced strong Groebner basis of an ideal of Z[t] (univariate), of
    runs, by increasing degree; with saturate, of its saturation by t.

    Incremental: the queue is worked smallest leading term first, which
    keeps coefficients small.  It starts with each distinct generator once,
    up to sign.  Each polynomial taken from it is fully reduced by the
    current basis and dropped if it reduces to zero.  A remainder r, whose
    leading term no basis element's divides, sends back to the queue every
    basis element whose leading term r's divides, so the basis stays
    minimal, and queues its S- and G-polynomials with each element that
    stays.  Terminates because leading terms strictly improve.  With
    saturate, whenever the queue empties the basis J is strong, and the
    remainders by J of the generators of (J : t) over J (see _colon_t) are
    queued, until none is left: the result is J : t^inf.  All the work, the
    reductions' subtractions (see zp_reduce) and the S- and G-polynomials
    (see _pair_polys), is charged to one budget of GROEBNER_WORK_CAP.
    """
    basis, queue, work = [], [], [GROEBNER_WORK_CAP]

    def push(f):
        v, cs = _trimmed(*f, 0)
        if cs:
            heapq.heappush(queue, (v + len(cs) - 1, abs(cs[-1]), (v, cs)))

    for g in dict.fromkeys(_positive(_trimmed(*g, 0)) for g in gens):
        push(g)
    while queue:
        r = _positive(zp_reduce(heapq.heappop(queue)[2], basis, work))
        if r[1]:
            (v, cs), stay = r, []
            d, lc = v + len(cs) - 1, cs[-1]
            for g in basis:  # r's leading term divides g's: g goes back to the queue
                if d <= g[0] + len(g[1]) - 1 and g[1][-1] % lc == 0:
                    push(g)
                else:
                    stay.append(g)
                    for f in _pair_polys(r, g, work):
                        push(f)
            basis = stay + [r]
        if saturate and not queue:
            for q in _colon_t(basis):
                push(zp_reduce(q, basis, work))
    # fully interreduce for a canonical presentation; in a minimal strong
    # basis no element's leading term reduces, so each stays positive
    reduced = [zp_reduce(g, basis[:i] + basis[i + 1 :], work) for i, g in enumerate(basis)]
    return tuple(sorted(reduced, key=lambda g: (g[0] + len(g[1]), g)))


# ---------------------------------------------------------------------------
# Finite-ring linear algebra (Z_p vectors on the monomial basis).


def _monomial_index(spec):
    """A finite spec's monomials, graded-lex, and the position of each."""
    monomials = spec.all_monomials()
    return monomials, {m: i for i, m in enumerate(monomials)}


def _elem_to_vector(elem, index):
    vec = [0] * len(index)
    for exps, c in elem.terms.items():
        vec[index[exps]] = c
    return vec


def _shifts(spec):
    """Multiplication by each monomial m permutes a vector's entries: entry
    j of the product is the entry at the position of (monomial j) / m."""
    monomials, index = _monomial_index(spec)
    return [
        [index[spec.reduce_exps([a - b for a, b in zip(e, m)])] for e in monomials]
        for m in monomials
    ]


def _in_span(vec, basis, pivots, p):
    return len(zp_rref([*basis, vec], p)[1]) == len(pivots)


def _vector_span(vectors, shifts, p):
    """Echelon rows and pivots of the ideal the Z_p vectors generate, given
    the spec's _shifts."""
    return zp_rref([[vec[i] for i in perm] for vec in vectors for perm in shifts], p)


def finite_ideal_span(spec, gens):
    """Echelon rows and pivots of the ideal generated by gens in a finite spec."""
    _, index = _monomial_index(spec)
    vectors = [_elem_to_vector(g, index) for g in gens]
    return _vector_span(vectors, _shifts(spec), spec.modulus)


# ---------------------------------------------------------------------------
# Ideal objects.


@dataclass(frozen=True)
class Ideal:
    spec: RingSpec
    generators: tuple
    normal_form: NormalForm = NormalForm.GENERATORS_ONLY
    data: tuple = ()  # normal-form payload (monic generator, GB of runs or span basis)

    def is_zero(self):
        return self.normal_form is NormalForm.ZERO

    def is_unit(self):
        return self.normal_form is NormalForm.UNIT


def ideal_from(spec, gens):
    gens = tuple(g for g in gens if not g.is_zero())
    for g in gens:
        if g.spec != spec:
            raise RingError("ideal generator spec mismatch")
    if not gens:
        return Ideal(spec, (), NormalForm.ZERO)
    if any(g.is_unit_monomial() for g in gens):
        return Ideal(spec, gens, NormalForm.UNIT)
    return Ideal(spec, gens)


def principal_ideal(spec, g):
    """(g) in normal form, one variable over Z_p, g the coefficients of its
    generator as smith.zp_elementary yields them: () for (0), (1,) for (1),
    else monic with a nonzero constant term, at a finite order k a divisor
    of t^k - 1 of degree below k."""
    if not g:
        return Ideal(spec, (), NormalForm.ZERO)
    gens = (RingElement(spec, (0, g)),)
    if len(g) == 1:
        return Ideal(spec, gens, NormalForm.UNIT)
    return Ideal(spec, gens, NormalForm.PRINCIPAL, (g,))


def _to_zpoly(elem):
    """A ring element in one variable or none as a Z[t] run, shifted."""
    if elem.spec.nvars == 0:
        return _trimmed(0, (elem.terms.get((), 0),), 0)
    return 0, elem.coeffs


def ideal_normalize(ideal):
    """Populate the normal form; idempotent.  A UNIT ideal carries no data,
    so it is returned as it is."""
    if ideal.normal_form in (NormalForm.ZERO, NormalForm.UNIT) or ideal.data:
        return ideal
    spec, gens = ideal.spec, ideal.generators
    if not gens:
        return Ideal(spec, (), NormalForm.ZERO)
    if spec.nvars == 1 and spec.modulus:
        k, p = spec.variables[0][1], spec.modulus
        g = next(iter(zp_divisors([[zp_lift(e.run, k) for e in gens]], p)), ())
        return principal_ideal(spec, zp_fold(g, k, p))
    if spec.is_finite():
        if spec.monomial_count() > FINITE_SIZE_CAP or spec.size() > FINITE_SIZE_CAP:
            raise RingError(f"finite ring over FINITE_SIZE_CAP = {FINITE_SIZE_CAP}")
        basis, pivots = finite_ideal_span(spec, gens)
        if len(basis) == spec.monomial_count():
            return Ideal(spec, gens, NormalForm.UNIT)
        if not basis:
            return Ideal(spec, (), NormalForm.ZERO)
        return Ideal(spec, gens, NormalForm.FINITE_SET, (basis, pivots))
    if spec.nvars <= 1:  # Z, or one variable over Z
        k = spec.variables[0][1] if spec.nvars else 0
        check_degree(k)
        quot = [(0, (-1,) + (0,) * (k - 1) + (1,))] if k else []  # t^k - 1
        laurent = spec.nvars == 1 and not k  # saturated by t: the unique preimage in Z[t]
        gb = strong_groebner([_to_zpoly(g) for g in gens] + quot, saturate=laurent)
        if gb == ((0, (1,)),):
            return Ideal(spec, gens, NormalForm.UNIT)
        if not gb:
            return Ideal(spec, (), NormalForm.ZERO)
        return Ideal(spec, gens, NormalForm.GB, (gb,))
    return Ideal(spec, gens, NormalForm.GENERATORS_ONLY)


def ideal_contains(ideal, elem):
    """Exact membership, but in a GENERATORS_ONLY ideal."""
    ideal = ideal_normalize(ideal)
    if elem.spec != ideal.spec:
        raise RingError("spec mismatch")
    if elem.is_zero():
        return True
    nf = ideal.normal_form
    if nf is NormalForm.ZERO:
        return False
    if nf is NormalForm.UNIT:
        return True
    if nf is NormalForm.PRINCIPAL:  # g | f, as g(0) != 0 and, at order k, g | t^k - 1
        return not zp_rem(elem.coeffs, ideal.data[0], ideal.spec.modulus)[1]
    if nf is NormalForm.FINITE_SET:
        _, index = _monomial_index(ideal.spec)
        return _in_span(_elem_to_vector(elem, index), *ideal.data, ideal.spec.modulus)
    if nf is NormalForm.GB:
        # in a strong basis, full reduction takes exactly the members to zero
        return not zp_reduce(_to_zpoly(elem), ideal.data[0])[1]
    raise UndecidableError("membership undecidable in this ring regime")


def ideal_compare(a, b):
    """Three-valued equality: exact unless either ideal normalizes to
    GENERATORS_ONLY, probed then.

    Every other normal form is unique (ZERO, UNIT, monic generator, RREF
    span, reduced strong basis of the saturated ideal), so equal ideals
    have equal (normal_form, data).
    """
    if a.spec != b.spec:
        raise RingError("spec mismatch")
    a, b = ideal_normalize(a), ideal_normalize(b)
    if NormalForm.GENERATORS_ONLY not in (a.normal_form, b.normal_form):
        eq = (a.normal_form, a.data) == (b.normal_form, b.data)
        return Comparison.EQUAL_PROVEN if eq else Comparison.UNEQUAL_PROVEN
    return probe_compare(a, b)


def ideal_equals(a, b):
    cmp = ideal_compare(a, b)
    if cmp is Comparison.UNDETERMINED:
        raise UndecidableError("equality undetermined by probing")
    return cmp is Comparison.EQUAL_PROVEN


def probe_compare(a, b):
    """Compare two multivariate ideals through finite quotients.

    Unequal in some probe proves inequality; agreement in every probe is
    reported as undetermined ("consistent").
    """
    spec = a.spec
    if spec.modulus != 0:
        return Comparison.UNDETERMINED
    for p, k in PROBES:
        pspec, mapper = _probe_map(spec, p, k)
        span_a = finite_ideal_span(pspec, [mapper(g) for g in a.generators])
        span_b = finite_ideal_span(pspec, [mapper(g) for g in b.generators])
        if span_a != span_b:
            return Comparison.UNEQUAL_PROVEN
    return Comparison.UNDETERMINED


def _probe_map(spec, p, k):
    """Ring map from spec into Z_p with every variable forced to finite order."""
    orders = tuple(k if kk == 0 else gcd(kk, k) for _, kk in spec.variables)
    pspec = ring_make(p, tuple((n, o) for (n, _), o in zip(spec.variables, orders)))

    def mapper(elem):
        return RingElement(pspec, dict(elem.terms))

    return pspec, mapper


# ---------------------------------------------------------------------------
# Display.


def _elem_sort_key(elem):
    return tuple((term_key(e), c) for e, c in elem.sorted_terms())


def minimal_generating_set(ideal):
    """Irredundant generating set of a FINITE_SET ideal, or of a PRINCIPAL
    one at a finite order, canonical order: greedy over the nonzero
    elements in canonical order, then one pass that drops each generator
    the ones still kept already generate.  Elements are Z_p vectors, spans
    their echelon rows and pivots, or, for (g), cofactors and gcds as
    smith.zp_code_search gives them; only the generators returned become
    ring elements."""
    ideal = ideal_normalize(ideal)
    spec, basis = ideal.spec, ideal.data[0]
    p, principal = spec.modulus, ideal.normal_form is NormalForm.PRINCIPAL  # basis: g
    n = spec.variables[0][1] + 1 - len(basis) if principal else len(basis)
    if n >= DISPLAY_SIZE_CAP.bit_length() or p**n > DISPLAY_SIZE_CAP:  # 2^n > the cap
        raise RingError(
            f"finite ideal of {p}^{n} elements over DISPLAY_SIZE_CAP = {DISPLAY_SIZE_CAP}"
        )
    if principal:
        elems, span, inside, whole = zp_code_search(basis, spec.variables[0][1], p)
        make = lambda f: RingElement(spec, run_addmul((0, ()), (0, f), (0, basis)))
    else:
        monomials, _ = _monomial_index(spec)
        shifts = _shifts(spec)
        elems = []
        for combo in itertools.product(range(p), repeat=len(basis)):
            vec = [0] * len(monomials)
            for c, row in zip(combo, basis):
                vec = [(a + c * b) % p for a, b in zip(vec, row)]
            if any(vec):
                elems.append(vec)
        # positions follow graded-lex order, the order of term_key, so this
        # is the order of _elem_sort_key on the elements
        elems.sort(key=lambda vec: [(i, c) for i, c in enumerate(vec) if c])
        span, whole = (lambda vs: _vector_span(vs, shifts, p)), ideal.data
        inside = lambda vec, s: _in_span(vec, *s, p)
        make = lambda vec: RingElement(spec, {m: c for m, c in zip(monomials, vec) if c})
    out, s = [], span([])
    for v in elems:
        if not inside(v, s):
            out.append(v)
            s = span(out)
            if s == whole:
                break
    for v in tuple(out):
        rest = [x for x in out if x != v]
        if rest and span(rest) == whole:
            out = rest
    return tuple(map(make, out))


def render_ideal(ideal):
    """Canonical string form: (0), (1), or (g1,g2,...)."""
    ideal = ideal_normalize(ideal)
    nf = ideal.normal_form
    if nf is NormalForm.ZERO:
        return "(0)"
    if nf is NormalForm.UNIT:
        return "(1)"
    if nf is NormalForm.PRINCIPAL and not ideal.spec.variables[0][1]:
        return "(" + RingElement(ideal.spec, (0, ideal.data[0])).render() + ")"
    if nf is NormalForm.GB:
        # the basis can hold t^k - 1, which is zero in the ring, and over
        # Z[t]/(t^k - 1) two of its elements can have the same image
        spec = ideal.spec
        images = dict.fromkeys(
            (RingElement(spec, g) if spec.nvars else spec.from_int(g[1][0])).render()
            for g in ideal.data[0]
        )
        return "(" + ",".join(r for r in images if r != "0") + ")"
    if nf in (NormalForm.FINITE_SET, NormalForm.PRINCIPAL):
        gens = minimal_generating_set(ideal)
        return "(" + ",".join(g.render() for g in gens) + ")"
    gens = dict.fromkeys(normalize_sign(g.shift_to_origin()) for g in ideal.generators)
    return "(" + ",".join(g.render() for g in sorted(gens, key=_elem_sort_key)) + ")"
