"""Laurent quotient rings, determinants, minors, and matrix reduction."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foxcalc
from foxcalc.ideals import ideal_normalize, render_ideal
from foxcalc.rings import (
    RingElement,
    RingError,
    RingMatrix,
    content_gcd,
    det,
    is_prime,
    minors,
    normalize_sign,
    poly_gcd,
    reduce_matrix,
    ring_make,
    run_addmul,
    _trimmed,
)
from foxcalc import smith
from foxcalc.smith import zp_divisors, zp_fold, zp_generators, zp_lift

Z2T = ring_make(2, (("t", 2),))
ZT = ring_make(0, (("t", 0),))


def rand_elem(rng, spec, nterms=3, span=3):
    out = spec.zero()
    for _ in range(nterms):
        exps = tuple(rng.randrange(-span, span + 1) for _ in spec.variables)
        out = out + spec.monomial(exps, rng.randrange(-4, 5))
    return out


def test_finite_ring_reduces_exponents_and_coefficients():
    t3 = Z2T.monomial((3,))
    assert t3 == Z2T.monomial((1,))
    assert Z2T.from_int(2).is_zero()


def test_one_plus_t_squares_to_zero_mod_2():
    f = Z2T.one() + Z2T.monomial((1,))
    assert (f * f).is_zero()


def test_ring_axioms_random():
    rng = random.Random(5)
    for spec in (Z2T, ZT, ring_make(0, (("x", 0), ("y", 3)))):
        for _ in range(100):
            a, b, c = (rand_elem(rng, spec) for _ in range(3))
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)
            assert a * spec.one() == a
            assert (a + (-a)).is_zero()


# Reference arithmetic: every product's exponents folded as it is formed,
# and each result folded and merged again by the constructor, as RingElement
# did before its constructor became the only place that reduces.


def _ref_reduce_exps(spec, exps):
    return tuple(e % k if k > 0 else e for e, (_, k) in zip(exps, spec.variables))


def _ref_fold(spec, terms):
    clean = {}
    for exps, c in terms.items():
        exps = _ref_reduce_exps(spec, exps)
        c = clean.get(exps, 0) + c
        c = c % spec.modulus if spec.modulus else c
        if c:
            clean[exps] = c
        elif exps in clean:
            del clean[exps]
    return clean


def _ref_add(spec, a, b):
    terms = dict(a)
    for e, c in b.items():
        terms[e] = terms.get(e, 0) + c
    return _ref_fold(spec, terms)


def _ref_sub(spec, a, b):
    return _ref_add(spec, a, _ref_fold(spec, {e: -c for e, c in b.items()}))


def _ref_mul(spec, a, b):
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = _ref_reduce_exps(spec, tuple(x + y for x, y in zip(e1, e2)))
            terms[e] = terms.get(e, 0) + c1 * c2
    return _ref_fold(spec, terms)


def _ref_render(spec, terms):
    """The render of a folded term map: terms ascending in graded-lex order."""
    names = [n for n, _ in spec.variables]
    pieces = []
    for exps, c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        mono = "".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e != 0)
        pieces.append(str(c) if not mono else {1: mono, -1: f"-{mono}"}.get(c, f"{c}{mono}"))
    if not pieces:
        return "0"
    return pieces[0] + "".join(p if p.startswith("-") else "+" + p for p in pieces[1:])


@st.composite
def ring_and_term_maps(draw):
    """A ring Z or Z_p in one or two variables, and two raw term maps whose
    exponents in [-12, 12] wrap past every finite order (order 1 folds every
    exponent to 0)."""
    p = draw(st.sampled_from((0, 2, 3, 5)))
    orders = draw(st.lists(st.sampled_from((0, 1, 2, 3, 5)), min_size=1, max_size=2))
    spec = ring_make(p, tuple(zip("tu", orders)))
    exps = st.tuples(*[st.integers(-12, 12)] * len(orders))
    terms = st.dictionaries(exps, st.integers(-9, 9), max_size=6)
    return spec, draw(terms), draw(terms)


@settings(max_examples=400, deadline=None)
@given(ring_and_term_maps())
def test_arithmetic_matches_fold_every_product_reference(case):
    spec, ta, tb = case
    a, b = RingElement(spec, ta), RingElement(spec, tb)
    ra, rb = _ref_fold(spec, ta), _ref_fold(spec, tb)
    assert a.terms == ra and b.terms == rb
    assert (a + b).terms == _ref_add(spec, ra, rb)
    assert (a - b).terms == _ref_sub(spec, ra, rb)
    assert (a * b).terms == _ref_mul(spec, ra, rb)


@settings(max_examples=400, deadline=None)
@given(ring_and_term_maps())
def test_element_queries_match_fold_reference(case):
    # one variable is the dense element, two the term map; both must answer
    # every query as the folded term map does
    spec, ta, tb = case
    a, b = RingElement(spec, ta), RingElement(spec, tb)
    ra, rb = _ref_fold(spec, ta), _ref_fold(spec, tb)
    p = spec.modulus
    assert a.sorted_terms() == sorted(ra.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    assert a.render() == _ref_render(spec, ra)
    assert a.is_zero() == (not ra)
    assert a.is_one() == (ra == {(0,) * spec.nvars: 1})
    unit = len(ra) == 1 and (p > 0 or set(ra.values()) <= {1, -1})
    assert a.is_unit_monomial() == unit
    if unit:
        ((exps, c),) = ra.items()
        inverse = {tuple(-e for e in exps): c if p == 0 else pow(c, -1, p)}
        assert a.unit_inverse().terms == _ref_fold(spec, inverse)
    else:
        with pytest.raises(RingError):
            a.unit_inverse()
    lows = [min((e[i] for e in ra), default=0) for i in range(spec.nvars)]
    shifted = {tuple(e - l for e, l in zip(exps, lows)): c for exps, c in ra.items()}
    assert a.shift_to_origin().terms == _ref_fold(spec, shifted)
    assert a.min_exps() == tuple(lows)
    assert (a == b) == (ra == rb)
    # the same element from another raw map: exponents moved by twice each
    # order, coefficients by the modulus
    other = {
        tuple(e + 2 * k for e, (_, k) in zip(exps, spec.variables)): c + p
        for exps, c in ta.items()
    }
    twin = RingElement(spec, other)
    assert twin == a and hash(twin) == hash(a) and twin.terms == ra
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)


def _ref_run_addmul(a, q, b, p):
    """a + q b on term maps {exponent: coefficient}, reduced mod p > 0."""
    terms = {}
    for e, c in enumerate(a[1], a[0]):
        terms[e] = terms.get(e, 0) + c
    for e1, c1 in enumerate(q[1], q[0]):
        for e2, c2 in enumerate(b[1], b[0]):
            terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
    return {e: c % p if p else c for e, c in terms.items() if (c % p if p else c)}


# runs (valuation, coefficients), negative valuations, empty and single-term
# runs and zero ends included, q and b of either length
runs = st.tuples(st.integers(-9, 9), st.lists(st.integers(-9, 9), max_size=7))


@settings(max_examples=500, deadline=None)
@given(runs, runs, runs, st.sampled_from((0, 2, 3, 5)))
def test_run_addmul_matches_term_map_reference(a, q, b, p):
    # the one a + q b of the dense element and the Smith elimination,
    # reduced and trimmed afterwards as smith.py does
    lo, out = run_addmul(a, q, b)
    assert {lo + i: c for i, c in enumerate(out) if c} == _ref_run_addmul(a, q, b, 0)
    val, cs = _trimmed(lo, out, p)
    assert not cs or (cs[0] and cs[-1])
    assert {val + i: c for i, c in enumerate(cs) if c} == _ref_run_addmul(a, q, b, p)


@st.composite
def long_runs(draw):
    """Runs of 0 to 80 terms, on both sides of KRONECKER_MIN in length and
    in nonzero terms: dense, sparse or with zero ends, coefficients up to
    2^64 in size, or reduced mod p as the Smith elimination keeps them."""
    n = draw(st.integers(0, 80))
    size = draw(st.sampled_from((1, 9, 2**64)))
    density = draw(st.sampled_from((0.05, 0.6, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cs = [rng.randint(-size, size) if rng.random() < density else 0 for _ in range(n)]
    return draw(st.integers(-12, 12)), cs


@settings(max_examples=300, deadline=None)
@given(long_runs(), long_runs(), long_runs(), st.sampled_from((0, 2, 3, 5)), st.booleans())
def test_run_addmul_long_runs_match_term_map_reference(a, q, b, p, reduced):
    # the short path, the Kronecker product of two long dense runs, and the
    # convolution over the sparser of two long runs, each against the reference
    if reduced and p:
        a, q, b = ((v, [c % p for c in cs]) for v, cs in (a, q, b))
    lo, out = run_addmul(a, q, b)
    assert {lo + i: c for i, c in enumerate(out) if c} == _ref_run_addmul(a, q, b, 0)
    val, cs = _trimmed(lo, out, p)
    assert not cs or (cs[0] and cs[-1])
    assert {val + i: c for i, c in enumerate(cs) if c} == _ref_run_addmul(a, q, b, p)


def test_run_addmul_widest_products():
    # constant runs: the middle coefficient of the product, min(n, m) c d,
    # meets the Kronecker slot's bound (with c = d = 2 and 32 to 63 terms it
    # needs all 8 bits of a byte, so the slot needs a second for its sign)
    for n, m in itertools.product(range(14, 81, 5), (16, 33, 64)):
        for c, d in ((1, 1), (2, 2), (2, -2), (-9, -9), (2**64, -(2**64)), (2**64 - 1,) * 2):
            q, b = (0, [c] * n), (-3, [d] * m)
            lo, out = run_addmul((0, ()), q, b)
            assert {lo + i: x for i, x in enumerate(out) if x} == _ref_run_addmul(
                (0, ()), q, b, 0
            )


def test_dense_element_span_over_degree_cap_refused():
    with pytest.raises(RingError, match="polynomial degree 1000001 over DEGREE_CAP = 1000000"):
        RingElement(ZT, {(0,): 1, (10**6 + 1,): 1})
    with pytest.raises(RingError, match="DEGREE_CAP"):
        ZT.one() + ZT.monomial((10**6 + 1,))
    # at order 10^9, t^-1 is t^(10^9 - 1): with 1 it spans the whole order
    big = ring_make(0, (("t", 10**9),))
    assert (big.monomial((-1,)) * big.monomial((2,))).render() == "t"
    with pytest.raises(RingError, match="DEGREE_CAP"):
        big.monomial((-1,)) + big.one()
    with pytest.raises(RingError, match="DEGREE_CAP"):
        RingElement(big, {(-1,): 1, (0,): 1})


def test_dense_product_over_degree_cap_refused_before_convolving():
    # a convolution of 600,001 by 600,001 terms would take hours
    a = RingElement(ZT, (0, (1,) * 600001))
    with pytest.raises(RingError, match="polynomial degree 1200000 over DEGREE_CAP = 1000000"):
        a * a
    # at an order k <= DEGREE_CAP the product folds into [0, k) and is kept
    spec = ring_make(0, (("t", 10**6),))
    b = RingElement(spec, {(0,): 1, (600000,): 1})
    assert (b * b).sorted_terms() == [((0,), 1), ((200000,), 1), ((600000,), 2)]


def test_unit_monomial_inverse():
    u = ZT.monomial((-4,), -1)
    assert u.is_unit_monomial()
    assert u * u.unit_inverse() == ZT.one()
    assert not (ZT.one() + ZT.monomial((1,))).is_unit_monomial()
    assert not ZT.from_int(2).is_unit_monomial()


def test_render_ascending():
    one, t = ZT.one(), ZT.monomial((1,))
    assert (one - t + t * t).render() == "1-t+t^2"
    assert (one + t).render() == "1+t"
    assert ZT.zero().render() == "0"
    assert ZT.from_int(-3).render() == "-3"
    assert ZT.monomial((-2,), 1).render() == "t^-2"



@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([0, 2, 3, 5, 7]),
    st.sampled_from([0, 0, 1, 2, 3, 7]),
    st.sampled_from(["t", "u", "x1", "s_2"]),
    st.integers(-12, 12),
    st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-40, 40)), max_size=12),
)
def test_dense_render_matches_term_map_render(p, k, name, val, coeffs):
    # the one-pass render of a run against the generic render of its terms,
    # the same terms in a term map (a second variable at exponent 0), and
    # the tests' own reference
    spec = ring_make(p, ((name, k),))
    e = RingElement(spec, (val, coeffs))
    wide = ring_make(p, ((name, k), ("z", 0)))
    terms = RingElement(wide, {(d, 0): c for (d,), c in e.terms.items()})
    assert e.render() == RingElement.render(e) == terms.render() == _ref_render(spec, e.terms)


def perm_det(spec, rows):
    n = len(rows)
    total = spec.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = spec.one() if inversions % 2 == 0 else -spec.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def test_det_matches_permutation_oracle():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(1, 5)
        spec = rng.choice((ZT, Z2T))
        rows = [[rand_elem(rng, spec, 2, 2) for _ in range(n)] for _ in range(n)]
        assert det(spec, rows) == perm_det(spec, rows)


def test_det_multiplicative_2x2():
    rng = random.Random(19)
    for _ in range(50):
        a = [[rand_elem(rng, ZT, 2, 2) for _ in range(2)] for _ in range(2)]
        b = [[rand_elem(rng, ZT, 2, 2) for _ in range(2)] for _ in range(2)]
        prod = [
            [sum((a[i][k] * b[k][j] for k in range(2)), ZT.zero()) for j in range(2)]
            for i in range(2)
        ]
        assert det(ZT, prod) == det(ZT, a) * det(ZT, b)


def test_det_cap_enforced():
    rows = [[ZT.one()] * 11 for _ in range(11)]
    with pytest.raises(RingError):
        det(ZT, rows)


def test_det_cap_message_names_budget():
    rows = [[ZT.one()] * 11 for _ in range(11)]
    with pytest.raises(RingError, match="determinant size 11 over DET_CAP = 10"):
        det(ZT, rows)


def test_minor_count(monkeypatch):
    import foxcalc.rings as rings

    rng = random.Random(23)
    m = RingMatrix.build(
        ZT, [[rand_elem(rng, ZT, 1, 1) for _ in range(4)] for _ in range(3)]
    )
    assert len(list(minors(m, 2))) == 3 * 6  # C(3,2) * C(4,2)
    assert len(list(minors(m, 3))) == 1 * 4
    want = [det(ZT, [(e,)]) for row in m.entries for e in row]
    monkeypatch.setattr(rings, "det", None)  # the size-1 minors are the entries, row by row
    assert minors(m, 1) == want


def test_minor_cap_refuses_before_enumerating(monkeypatch):
    import foxcalc.rings as rings

    m = RingMatrix.build(ZT, [[ZT.one() + ZT.monomial((1,))] * 7 for _ in range(21)])
    with pytest.raises(RingError, match="379848 minors of size 6 over MINOR_CAP = 100000"):
        minors(m, 6)
    monkeypatch.setattr(rings, "det", None)  # not one minor is taken
    with pytest.raises(RingError, match="MINOR_CAP"):
        minors(m, 6)


@st.composite
def sparse_matrices(draw):
    """A t x s matrix, t, s <= 5, over Z[t^±1], Z_3[t]/(t^4 - 1) or
    Z[u^±1, v^±1], zero entries drawn often."""
    specs = (ZT, ring_make(3, (("t", 4),)), ring_make(0, (("u", 0), ("v", 0))))
    spec = draw(st.sampled_from(specs))
    t, s = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(-2, 2)] * spec.nvars)
    terms = st.one_of(st.just({}), st.dictionaries(exps, st.integers(-3, 3), max_size=3))
    rows = [[RingElement(spec, draw(terms)) for _ in range(s)] for _ in range(t)]
    return RingMatrix.build(spec, rows)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_minors_match_permutation_expansion(m):
    # every minor of the shared expansion, in order, against the permutation
    # expansion of its own submatrix; det is the full-size minor
    t, s = m.declared_rows, m.declared_cols
    for q in range(1, min(t, s) + 1):
        want = [
            perm_det(m.spec, [[m.entries[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(t), q)
            for cols in itertools.combinations(range(s), q)
        ]
        assert minors(m, q) == want
    if t == s:
        assert det(m.spec, m.entries) == perm_det(m.spec, m.entries)


def test_minors_compute_each_sub_minor_once(monkeypatch):
    # a j-minor reached by the first-row expansions of the 3-minors of a 4 x 5
    # matrix has its rows among the last 4 - 3 + j; with no zero entry each
    # costs j products, sum over j = 2..3 of j C(4 - 3 + j, j) C(5, j) = 180,
    # where a determinant per minor makes 9 for each of the 40
    import foxcalc.rings as rings

    rng = random.Random(31)
    entry = lambda: ZT.from_int(rng.randrange(1, 9)) + ZT.monomial((rng.randrange(1, 3),))
    m = RingMatrix.build(ZT, [[entry() for _ in range(5)] for _ in range(4)])
    want = minors(m, 3)
    products, mul = [0], rings._DenseElement.__mul__

    def counted(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(rings._DenseElement, "__mul__", counted)
    assert minors(m, 3) == want
    assert products[0] <= sum(j * comb(4 - 3 + j, j) * comb(5, j) for j in (2, 3)) == 180


def test_reduce_matrix_preserves_elementary_ideals():
    from foxcalc.catalog import theta_alpha, theta_presentation
    from foxcalc.ideals import ideal_equals
    from foxcalc.invariants import elementary_ideal, minors_ideal, twisted_matrix
    from foxcalc.maps import lemma36_rho

    rng = random.Random(29)
    other_specs = (
        ring_make(3, (("t", 0),)),  # Z_3[t^+-1]
        ring_make(2, (("t", 3),)),  # Z_2[t]/(t^3 - 1)
        ring_make(3, (("t", 2),)),  # Z_3[t]/(t^2 - 1)
    )
    matrices = []
    for specs in ((ZT, Z2T),) * 25 + (other_specs,) * 30:
        spec = rng.choice(specs)
        t_, s_ = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [
            [rand_elem(rng, spec, rng.randrange(3), 1) for _ in range(s_)]
            for _ in range(t_)
        ]
        matrices.append(RingMatrix.build(spec, rows))
    for n in (5, 7):  # the twisted matrices of Theorem 3.7, over Z_2[t^+-1]
        pres = theta_presentation(n)
        matrices.append(twisted_matrix(pres, theta_alpha(pres, n), lemma36_rho(pres, n)))
    for m in matrices:
        r = reduce_matrix(m)
        for d in range(m.declared_cols + 1):
            a = minors_ideal(m, d)
            b = minors_ideal(r, d)
            assert ideal_equals(a, b), (d, [[e.render() for e in row] for row in m.entries])
            assert ideal_equals(a, elementary_ideal(m, d)), d


def test_poly_gcd_basic():
    t, one = ZT.monomial((1,)), ZT.one()
    f = one - t + t * t
    g = poly_gcd(f * (one + t), f * (t + t * t))
    # gcd defined up to unit; normalised form has constant term and
    # positive trailing coefficient
    assert g == normalize_sign((f * (one + t)).shift_to_origin())
    assert poly_gcd(ZT.from_int(4), ZT.from_int(6)) == ZT.from_int(2)
    assert poly_gcd(ZT.zero(), f) == normalize_sign(f)


def _ref_poly_gcd(a, b):
    """poly_gcd through sympy expressions: RingElement -> expression -> Poly
    -> expression -> Poly -> RingElement, the route it took before it read
    sympy's dict form.  Needs at least one variable."""
    import sympy

    spec = a.spec
    if a.is_zero() and b.is_zero():
        return spec.zero()
    symbols = sympy.symbols([n for n, _ in spec.variables])
    if spec.nvars == 1:
        symbols = [symbols[0]]

    def to_expr(elem):
        expr = sympy.Integer(0)
        for exps, c in elem.shift_to_origin().terms.items():
            mono = sympy.Integer(c)
            for sym, e in zip(symbols, exps):
                mono *= sym**e
            expr += mono
        return expr

    ea, eb = to_expr(a), to_expr(b)
    if spec.modulus:
        g = sympy.gcd(
            sympy.Poly(ea, *symbols, modulus=spec.modulus),
            sympy.Poly(eb, *symbols, modulus=spec.modulus),
        ).as_expr()
    else:
        g = sympy.gcd(ea, eb)
    poly = sympy.Poly(sympy.expand(g), *symbols)
    terms = {tuple(int(e) for e in exps): int(c) for exps, c in poly.terms()}
    return normalize_sign(RingElement(spec, terms).shift_to_origin())


@st.composite
def gcd_operands(draw):
    """Two elements of Z, Z_2 or Z_3 [t^±1] or [t^±1, u^±1] sharing a random
    factor; either may be zero or a constant."""
    p = draw(st.sampled_from((0, 2, 3)))
    nvars = draw(st.integers(1, 2))
    spec = ring_make(p, (("t", 0), ("u", 0))[:nvars])
    exps = st.tuples(*[st.integers(-2, 3)] * nvars)
    elems = st.one_of(
        st.just({}),
        st.integers(-6, 6).map(lambda c: {(0,) * nvars: c}),
        st.dictionaries(exps, st.integers(-4, 4), max_size=4),
    )
    f, g, h = (RingElement(spec, draw(elems)) for _ in range(3))
    if f.is_zero():
        f = spec.one()
    return f * g, f * h


@settings(max_examples=200, deadline=None)
@given(gcd_operands())
def test_poly_gcd_matches_expression_route_reference(pair):
    a, b = pair
    assert poly_gcd(a, b) == _ref_poly_gcd(a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    *[st.lists(st.integers(0, 6), max_size=12)] * 3,
    st.integers(-4, 4),
)
def test_poly_gcd_over_zp_matches_sympy(p, fa, fb, ff, shift):
    """One variable over Z_p goes through zp_divisors, not sympy."""
    spec = ring_make(p, (("t", 0),))
    f = RingElement(spec, (shift, ff)) if any(c % p for c in ff) else spec.one()
    a, b = (RingElement(spec, (0, cs)) * f for cs in (fa, fb))
    assert poly_gcd(a, b) == _ref_poly_gcd(a, b)


def test_poly_gcd_over_zp_leaves_sympy_unloaded():
    src = str(Path(foxcalc.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "from foxcalc.rings import RingElement, poly_gcd, ring_make\n"
        "spec = ring_make(3, (('t', 0),))\n"
        "a, b = RingElement(spec, (2, (1, 2, 1))), RingElement(spec, (-1, (2, 2)))\n"
        "print(poly_gcd(a, b).render(), 'sympy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "1+t False"  # (1 + t)^2 and -(1 + t) / t


def test_zp_divisors_of_a_diagonal_needing_the_fold():
    # diag(t - 1, t + 1) over Z_3: gcd 1, so Delta_1 = 1 and Delta_2 = t^2 - 1;
    # the elimination reaches them only by adding one row to the other
    rows = [[(0, (2, 1)), (0, ())], [(0, ()), (0, (1, 1))]]
    assert zp_divisors(rows, 3) == [(1,), (2, 0, 1)]
    # a power of t is a unit: Delta_1 of (t^3 (1 + t), t^-2 (1 + t)^2) is 1 + t
    assert zp_divisors([[(3, (1, 1)), (-2, (1, 2, 1))]], 3) == [(1, 1)]
    assert zp_divisors([[(0, ()), (0, ())], [(5, ()), (0, ())]], 2) == []


def _ref_divisors(rows, p):
    """Delta_1, ..., Delta_r of a matrix of runs, each the monic gcd over
    GF(p), taken by sympy, of its q x q minors by rings.minors over
    Z_p[t^±1], cut to a nonzero constant term; the first zero one ends the
    list, at the rank."""
    import sympy

    t, spec = sympy.Symbol("t"), ring_make(p, (("t", 0),))
    m = RingMatrix.build(spec, [[RingElement(spec, run) for run in row] for row in rows])
    out = []
    for q in range(1, min(len(rows), len(rows[0])) + 1):
        g = sympy.Poly(0, t, modulus=p)
        for minor in minors(m, q):
            g = g.gcd(sympy.Poly(minor.coeffs[::-1] or [0], t, modulus=p))
        if g.is_zero:
            break
        out.append(_trimmed(0, [int(c) for c in g.monic().all_coeffs()[::-1]], p)[1])
    return out


@st.composite
def smith_matrices(draw):
    """(p, rows of runs): up to 4 x 6 over Z_p, with zero rows and columns,
    repeated rows, and a unit in a column whose other entries span up to
    40, the shape on which clearing the unit's column fills most."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    coeffs = st.integers(0, p - 1)
    short = st.tuples(st.integers(-3, 3), st.lists(coeffs, max_size=4))
    rows = [[draw(short) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [(0, ())] * ncols
    if draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[c] = (0, ())
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = list(rows[draw(st.integers(0, nrows - 1))])
    if draw(st.booleans()):
        c, r = draw(st.integers(0, ncols - 1)), draw(st.integers(0, nrows - 1))
        long = st.tuples(st.integers(-40, 0), st.lists(coeffs, min_size=1, max_size=41))
        for i, row in enumerate(rows):
            row[c] = (draw(st.integers(-3, 3)), (draw(st.integers(1, p - 1)),)) if i == r else draw(long)
    return p, [[_trimmed(*run, p) for run in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(smith_matrices())
def test_zp_divisors_match_determinantal_divisors(case):
    # the elimination's Delta_q against the gcds of the q x q minors, with
    # no zp_divisors on the reference's side: not by poly_gcd, which calls it
    p, rows = case
    assert zp_divisors(rows, p) == _ref_divisors(rows, p)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(1, 40),
    st.lists(st.integers(0, 6), min_size=1, max_size=40),
    st.integers(-50, 50),
)
def test_zp_lift_and_fold_match_references(p, k, cs, v):
    # the lift of a folded run folds back to it and spans least among the
    # lifts, k less the longest cyclic gap between its exponents
    spec = ring_make(p, (("t", k),))
    run = RingElement(spec, (v, cs)).run
    lifted = zp_lift(run, k)
    assert RingElement(spec, lifted).run == run
    exps = [e for (e,), _ in RingElement(spec, run).sorted_terms()]
    least = min(max((e - f) % k for e in exps) for f in exps) if exps else 0
    assert max(len(lifted[1]) - 1, 0) == least
    # the fold is gcd(g, t^k - 1), () when that is t^k - 1, by one division
    # or, with DEGREE_CAP at 0, by square and multiply
    g = zp_divisors([[lifted]], p)[0] if lifted[1] else ()
    if len(g) < 2:
        assert zp_fold(g, k, p) == g
        return
    (h,) = zp_divisors([[(0, g), (0, (p - 1,) + (0,) * (k - 1) + (1,))]], p)
    want = () if len(h) == k + 1 else h
    cap = smith.DEGREE_CAP
    try:
        for smith.DEGREE_CAP in (cap, 0):
            assert zp_fold(g, k, p) == want
    finally:
        smith.DEGREE_CAP = cap


@st.composite
def split_order_rows(draw):
    """(p, k, ncols, rows): rows of runs mod p lifting a matrix of up to 4 x 5
    over Z_p[t]/(t^k - 1), p in {3, 5, 7, 11, 13} and k | p - 1, k = 1
    included: zero rows, repeated rows, and cells of up to k slots at
    valuations -2k..2k, as the Fox walk lifts them, dense ones filling
    every exponent mod k."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    k = draw(st.sampled_from([k for k in range(1, p) if not (p - 1) % k]))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    cell = st.tuples(st.integers(-2 * k, 2 * k), st.lists(st.integers(0, p - 1), max_size=k))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "repeat")))
        if kind == "zero":
            rows.append([(0, ())] * ncols)
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append([_trimmed(*draw(cell), p) for _ in range(ncols)])
    return p, k, ncols, rows


@settings(max_examples=400, deadline=None)
@given(split_order_rows())
def test_zp_generators_by_ranks_match_laurent_smith(case):
    # at k | p - 1 a matrix of at least k cells gets E_d from its ranks at
    # the k-th roots of unity, the chain-ring route at m = 1, with no Smith
    # elimination; the reference is Delta_q of the least-span lifts folded
    # by zp_fold
    p, k, ncols, rows = case
    spec = ring_make(p, (("t", k),))
    lifts = [[zp_lift(RingElement(spec, run).run, k) for run in row] for row in rows]
    deltas = zp_divisors(lifts, p)
    with mock.patch.object(smith, "zp_divisors", wraps=smith.zp_divisors) as divisors:
        generator = zp_generators(rows, k, p)
    assert divisors.called == (len(rows) * ncols < k)
    for q in range(1, ncols + 2):
        want = zp_fold(deltas[q - 1], k, p) if q <= len(deltas) else ()
        assert generator(q) == want, q


@st.composite
def chain_ring_rows(draw):
    """(p, k1, m, ncols, rows): rows of runs mod p of a matrix of up to 3 x 4
    over Z_p[t]/(t^k - 1) at a split order k = k1 m, p in {2, 3, 5, 7},
    k1 | p - 1 and m in {1, p, p^2}: zero rows, repeated rows, and rows
    times (t - z)^j, z^k1 = 1 and j in 1..m, so that invariant factors
    (t - z)^e occur with every e from 0 to m."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    k1 = draw(st.sampled_from([d for d in range(1, p) if not (p - 1) % d]))
    m = draw(st.sampled_from((1, p, p * p)))
    k = k1 * m
    roots = [z for z in range(1, p) if pow(z, k1, p) == 1]
    nrows, ncols = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    terms = st.dictionaries(st.integers(-k, 2 * k), st.integers(1, p - 1), max_size=3)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("drawn", "zero", "repeat", "times")))
        if kind == "zero":
            rows.append([(0, ())] * ncols)
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            row = []
            for _ in range(ncols):
                cell = draw(terms)
                lo = min(cell, default=0)
                row.append(_trimmed(lo, [cell.get(e, 0) for e in range(lo, max(cell, default=-1) + 1)], p))
            if kind == "times":  # (t - z)^j = sum of C(j, i) (-z)^(j - i) t^i
                z, j = draw(st.sampled_from(roots)), draw(st.integers(1, m))
                factor = (0, tuple(comb(j, i) * pow(-z, j - i, p) for i in range(j + 1)))
                row = [_trimmed(*run_addmul((0, ()), run, factor), p) for run in row]
            rows.append(row)
    return p, k1, m, ncols, rows


@settings(max_examples=150, deadline=None)
@given(chain_ring_rows())
def test_chain_ring_route_matches_laurent_smith(case):
    # at a split order k = k1 m, E_d is read off one elimination over
    # Z_p[u]/(u^m) at each k1-th root of unity; the reference is Delta_q of
    # the least-span lifts folded by zp_fold.  zp_generators takes that route
    # when the matrix has at least k m cells.
    p, k1, m, ncols, rows = case
    k, spec = k1 * m, ring_make(p, (("t", k1 * m),))
    folded = [[RingElement(spec, run).run for run in row] for row in rows]
    deltas = zp_divisors([[zp_lift(run, k) for run in row] for row in folded], p)
    generator = smith._by_chain_rings(rows, k1, m, p)
    for q in range(1, ncols + 2):
        want = zp_fold(deltas[q - 1], k, p) if q <= len(deltas) else ()
        assert generator(q) == want, q
    with mock.patch.object(smith, "zp_divisors", wraps=smith.zp_divisors) as divisors:
        zp_generators(folded, k, p)
    assert divisors.called == (len(rows) * ncols < k * m)


def _outcome(compute):
    """An ideal's normal form and render, or the RingError that stopped it."""
    try:
        ideal = compute()
    except RingError as exc:
        return str(exc)
    try:
        rendered = render_ideal(ideal)
    except RingError as exc:
        rendered = str(exc)
    return ideal.normal_form, ideal.data, rendered


@st.composite
def zp_matrices(draw):
    """A matrix of up to 5 x 6 over Z_p[t^±1] or Z_p[t]/(t^k - 1), p in
    {2, 3, 5, 7} and k in 0..6, with zero rows and rows repeating another
    row, or a multiple of it by a constant or a power of t."""
    p, k = draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(0, 6))
    spec = ring_make(p, (("t", k),))
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    terms = st.dictionaries(st.tuples(st.integers(-3, 3)), st.integers(1, p - 1), max_size=3)
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "repeat", "multiple")))
        if kind == "zero":
            rows.append([spec.zero()] * ncols)
        elif kind in ("repeat", "multiple") and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            unit = spec.monomial((draw(st.integers(-2, 2)),), draw(st.integers(1, p - 1)))
            rows.append(row if kind == "repeat" else [unit * e for e in row])
        else:
            rows.append([RingElement(spec, draw(terms)) for _ in range(ncols)])
    return RingMatrix(spec, tuple(map(tuple, rows)), nrows, ncols)


@settings(max_examples=300, deadline=None)
@given(zp_matrices())
def test_zp_elementary_ideals_match_minors_reference(m):
    from foxcalc.invariants import elementary_ideal, minors_ideal

    reduced = reduce_matrix(m)
    for d in range(m.declared_cols + 2):
        got = _outcome(lambda: elementary_ideal(m, d))
        assert got == _outcome(lambda: ideal_normalize(minors_ideal(reduced, d))), d


def test_content_gcd():
    t, one = ZT.monomial((1,)), ZT.one()
    g = content_gcd([ZT.from_int(2) * (one + t), ZT.from_int(3) * (one + t)])
    assert g == one + t


def test_normalize_sign():
    t, one = ZT.monomial((1,)), ZT.one()
    assert normalize_sign(one - t) == -one + t  # graded-lex leading coeff > 0
    assert normalize_sign(-one + t) == -one + t
    assert normalize_sign(one + t) == one + t


def test_is_prime_matches_sympy():
    import sympy

    # strong pseudoprimes to the first 4 to 9 prime bases, Mersenne primes,
    # a semiprime of two of them and primes near 10^18
    big = [3215031751, 2152302898747, 3474749660383, 341550071728321,
           3825123056546413051, 2**61 - 1, 2**89 - 1, (2**31 - 1) * (2**61 - 1),
           10**18 + 3, 10**18 + 9]
    for p in list(range(-5, 20000)) + big:
        assert is_prime(p) == sympy.isprime(p), p


def test_ring_modulus_1_rejected():
    # Z_1 is the zero ring, where every ideal would render as (0)
    with pytest.raises(RingError):
        ring_make(1, (("t", 0),))


def test_import_leaves_sympy_unloaded():
    src = str(Path(foxcalc.__file__).resolve().parent.parent)
    code = "import sys, foxcalc; print('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
