"""Ideal normalization, membership, and comparison in the quotient rings."""

import itertools
import random
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foxcalc.ideals as ideals_module
from foxcalc.catalog import theta_alpha, theta_presentation
from foxcalc.ideals import (
    Comparison,
    NormalForm,
    UndecidableError,
    _colon_t,
    _ext_gcd,
    _to_zpoly,
    finite_ideal_span,
    ideal_compare,
    ideal_contains,
    ideal_equals,
    ideal_from,
    ideal_normalize,
    minimal_generating_set,
    principal_ideal,
    probe_compare,
    render_ideal,
    strong_groebner,
    zp_reduce,
)
from foxcalc.invariants import alexander_matrix, elementary_ideal, minors_ideal
from foxcalc.maps import abelian_map
from foxcalc.presentations import parse_presentation
from foxcalc.rings import FINITE_SIZE_CAP, RingElement, RingError, _trimmed, ring_make, term_key
from foxcalc.smith import zp_rref

ZT = ring_make(0, (("t", 0),))
Z2T = ring_make(2, (("t", 2),))


def _t(spec=ZT):
    return spec.monomial((1,))


# ---------------------------------------------------------------------------
# Strong Groebner bases over Z[t].  The engine works on runs (valuation,
# coefficients); the references and the tests below on dense coefficient
# tuples (c_0, ..., c_d), no trailing 0, with their own arithmetic.


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _neg(a):
    return tuple(-c for c in a)


def _scale_shift(a, c, k):
    """c * t^k * a"""
    if c == 0 or not a:
        return ()
    return _trim([0] * k + [c * x for x in a])


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _deg(a):
    return len(a) - 1


def _lc(a):
    return a[-1]


def _run(cs):
    """A coefficient tuple as a Z[t] run."""
    return _trimmed(0, cs, 0)


def _dense(run):
    """A Z[t] run as a coefficient tuple."""
    v, cs = run
    return (0,) * v + cs


def reduce_tuples(f, basis, work=None):
    """zp_reduce on coefficient tuples."""
    return _dense(zp_reduce(_run(f), [_run(g) for g in basis], work))


def groebner_tuples(gens):
    """strong_groebner on coefficient tuples."""
    return tuple(map(_dense, strong_groebner([_run(g) for g in gens])))


def rand_zpoly(rng, deg=4, span=5):
    return tuple(rng.randrange(-span, span + 1) for _ in range(rng.randrange(1, deg + 2)))


def rand_combination(rng, gens):
    """A random Z[t]-linear combination of the generators."""
    acc = ()
    for g in gens:
        mult = rand_zpoly(rng, deg=2, span=3)
        acc = _add(acc, _mul(g, mult))
    return acc


def test_groebner_membership_closed_under_combinations():
    rng = random.Random(41)
    for _ in range(80):
        gens = [rand_zpoly(rng) for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        basis = groebner_tuples(gens)
        for g in gens:
            assert not reduce_tuples(g, basis)
        for _ in range(5):
            assert not reduce_tuples(rand_combination(rng, gens), basis)


def test_groebner_idempotent():
    rng = random.Random(43)
    for _ in range(40):
        gens = [rand_zpoly(rng) for _ in range(2)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        b1 = groebner_tuples(gens)
        b2 = groebner_tuples(list(b1))
        assert b1 == b2


def test_groebner_known_examples():
    # (2, t) is proper: 1 is not a member, 3t + 2 is
    basis = groebner_tuples([(2,), (0, 1)])
    assert reduce_tuples((1,), basis)
    assert not reduce_tuples((2, 3), basis)
    # (t - 1, t + 1) contains 2, hence equals (2, t + 1)
    basis = groebner_tuples([(-1, 1), (1, 1)])
    assert not reduce_tuples((2,), basis)
    assert reduce_tuples((1,), basis)


def buchberger_reference(gens):
    """Strong Groebner basis of an ideal of Z[t] by the plain Buchberger loop:
    every input in the basis first, every pair's S- and G-polynomial reduced
    by the whole basis, nothing dropped until the end.  It reduces by this
    file's zp_reduce_scan_reference, not by the zp_reduce it checks."""
    basis = [_trim(g) for g in gens if _trim(g)]
    basis = [g if _lc(g) > 0 else _neg(g) for g in basis]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        df, dg = _deg(f), _deg(g)
        a, b = _lc(f), _lc(g)
        d = max(df, dg)
        l = a * b // gcd(a, b)
        spoly = _add(
            _scale_shift(f, l // a, d - df),
            _neg(_scale_shift(g, l // b, d - dg)),
        )
        _, u, v = _ext_gcd(a, b)
        gpoly = _add(_scale_shift(f, u, d - df), _scale_shift(g, v, d - dg))
        for cand in (spoly, gpoly):
            cand = zp_reduce_scan_reference(cand, basis)
            if cand:
                if _lc(cand) < 0:
                    cand = _neg(cand)
                for k in range(len(basis)):
                    pairs.append((k, len(basis)))
                basis.append(cand)
    keep = []
    for g in sorted(basis, key=lambda g: (_deg(g), _lc(g), g)):
        if any(_deg(h) <= _deg(g) and _lc(g) % _lc(h) == 0 for h in keep):
            continue
        keep.append(g)
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = zp_reduce_scan_reference(g, others) if others else g
        if r:
            if _lc(r) < 0:
                r = _neg(r)
            reduced.append(r)
    reduced.sort(key=lambda g: (_deg(g), g))
    return tuple(reduced)


zpolys = st.lists(st.integers(-20, 20), min_size=1, max_size=9).map(_trim)


@settings(max_examples=100, deadline=None)
@given(st.lists(zpolys, min_size=1, max_size=8), st.integers(0, 6))
def test_strong_groebner_matches_buchberger_reference(gens, k):
    # k > 0 adjoins t^k - 1, as the finite-order regime does
    if k:
        gens = gens + [(-1,) + (0,) * (k - 1) + (1,)]
    assert groebner_tuples(gens) == buchberger_reference(gens)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        zpolys.filter(bool),
        min_size=1,
        max_size=6,
        unique_by=lambda g: g if _lc(g) > 0 else _neg(g),
    ),
    st.data(),
)
def test_strong_groebner_reduces_each_distinct_generator_once(gens, data):
    # the generators repeated, negated and reordered give the basis of the
    # generators once, which is the reference's, for no more work
    extra = data.draw(st.lists(st.tuples(st.sampled_from(gens), st.booleans()), max_size=8))
    noisy = gens + [_neg(g) if negate else g for g, negate in extra]
    noisy = data.draw(st.permutations(noisy))
    original = ideals_module._charge

    def metered(polys):
        """strong_groebner of polys, and the work it charged."""
        total = [0]

        def charge(work, n):
            total[0] += n
            original(work, n)

        with mock.patch.object(ideals_module, "_charge", charge):
            return strong_groebner([_run(g) for g in polys]), total[0]

    basis, once = metered(gens)
    noisy_basis, many = metered(noisy)
    assert noisy_basis == basis
    assert tuple(map(_dense, basis)) == buchberger_reference(gens)
    assert many <= once


def zp_reduce_reference(f, basis):
    """zp_reduce as it was before it worked in place: it rebuilt the whole
    polynomial at every step, quadratic in the degree."""
    f = _trim(f)
    frozen = {}
    while f:
        d, c = _deg(f), _lc(f)
        for g in basis:
            if _deg(g) <= d:
                r = c % abs(_lc(g))
                if r != c:
                    q = (c - r) // _lc(g)
                    f = _add(f, _neg(_scale_shift(g, q, d - _deg(g))))
                    break
        else:
            frozen[d] = c
            f = _trim(f[:-1])
    if not frozen:
        return ()
    res = [0] * (max(frozen) + 1)
    for d, c in frozen.items():
        res[d] = c
    return _trim(res)


def zp_reduce_scan_reference(f, basis):
    """zp_reduce as it was before it tested a coefficient against the least
    |lc| that reaches it: for every coefficient it scans the whole basis for
    the first element that leaves it outside [0, |lc|)."""
    cs = list(f)
    for d in range(len(cs) - 1, -1, -1):
        c = cs[d]
        while c:
            g = next((g for g in basis if _deg(g) <= d and c % abs(_lc(g)) != c), None)
            if g is None:
                break
            shift, q = d - _deg(g), (c - c % abs(_lc(g))) // _lc(g)
            for j, x in enumerate(g):
                cs[shift + j] -= q * x
            c = cs[d]
    return _trim(cs)


def zp_top_reduces_to_zero_reference(f, basis):
    """Membership by top reduction: each leading term must be divided
    exactly by the leading term of a basis element, as it was tested before
    membership became full reduction to zero."""
    f = _trim(f)
    while f:
        d, c = _deg(f), _lc(f)
        for g in basis:
            if _deg(g) <= d and c % _lc(g) == 0:
                f = _add(f, _neg(_scale_shift(g, c // _lc(g), d - _deg(g))))
                break
        else:
            return False
    return True


def zp_reduce_staircase_reference(f, basis, work=None):
    """zp_reduce's rule, rebuilding the whole polynomial at every step and
    subtracting every coefficient of the element, zeros too: from the top
    down, each element of degree at most d, by degree, then |lc|, then the
    basis order, brings the coefficient at degree d into [0, |lc|) when it
    lies outside; each subtraction of q t^i g is charged (deg g + 1) *
    (1 + bits(q) // 64) to work before it is made."""
    f = _trim(f)
    for d in range(len(f) - 1, -1, -1):
        for g in sorted((g for g in basis if _deg(g) <= d), key=lambda g: (_deg(g), abs(_lc(g)))):
            c = f[d] if d < len(f) else 0
            if 0 <= c < abs(_lc(g)):
                continue
            q = (c - c % abs(_lc(g))) // _lc(g)
            if work is not None:
                work[0] -= (_deg(g) + 1) * (1 + q.bit_length() // 64)
                if work[0] < 0:
                    raise RingError("over GROEBNER_WORK_CAP")
            f = _add(f, _neg(_scale_shift(g, q, d - _deg(g))))
    return f


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-50, 50), max_size=14),
    st.lists(zpolys.filter(bool), max_size=4),
)
def test_zp_reduce_matches_reference(f, basis):
    # f as drawn, trailing zeros included; on a basis in arbitrary order the
    # remainder depends on the reducer chosen, here the staircase's
    assert reduce_tuples(f, basis) == zp_reduce_staircase_reference(f, basis)
    # on a strong basis, in either order, every rule reaches the one normal
    # form: the reference from before zp_reduce worked in place agrees
    gb = groebner_tuples(basis)
    for strong in (gb, gb[::-1]):
        assert reduce_tuples(f, strong) == zp_reduce_reference(f, strong)
    # on a strong basis, membership is full reduction to zero
    assert (not reduce_tuples(f, gb)) == zp_top_reduces_to_zero_reference(f, gb)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-60, 60), max_size=24),
    st.lists(zpolys.filter(bool), min_size=1, max_size=5),
    st.sampled_from([(), (2,), (3,), (6,)]),
)
def test_zp_reduce_matches_scan_reference(f, gens, constant):
    # a strong basis, with a constant as over Z_p, in either order: the
    # scan for the first element that reduces a coefficient reaches the
    # normal form too
    gb = groebner_tuples(gens + ([constant] if constant else []))
    for basis in (gb, gb[::-1]):
        assert reduce_tuples(f, basis) == zp_reduce_scan_reference(f, basis)
    # the raw generators in the order drawn, a constant first or not: the
    # choice of reducer is the staircase's
    for basis in (gens, [constant] + gens if constant else gens):
        assert reduce_tuples(f, basis) == zp_reduce_staircase_reference(f, basis)


sparse_zpolys = (
    st.lists(st.just(0) | st.integers(-20, 20), min_size=1, max_size=12).map(_trim).filter(bool)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-60, 60) | st.integers(-(2**140), 2**140), max_size=24),
    st.lists(sparse_zpolys, min_size=1, max_size=4),
    st.none() | st.integers(0, 300),
    st.booleans(),
)
def test_sparse_zp_reduce_matches_dense_reference(f, gens, budget, strong):
    # the same remainder, or the same refusal, with the same work left, where
    # a quotient past 64 bits costs more
    basis = groebner_tuples(gens) if strong else gens
    results = []
    for reduce in (reduce_tuples, zp_reduce_staircase_reference):
        work = None if budget is None else [budget]
        try:
            results.append((reduce(f, basis, work), work))
        except RingError:
            results.append(("refused", work))
    assert results[0] == results[1]


def test_strong_groebner_matches_reference_on_theta_ideals():
    for n in range(3, 13):
        pres = theta_presentation(n)
        m = alexander_matrix(pres, theta_alpha(pres, n))
        ideal = minors_ideal(m, n - 1)
        polys = [_dense(_to_zpoly(g)) for g in ideal.generators]
        assert groebner_tuples(polys) == buchberger_reference(polys), n


# ---------------------------------------------------------------------------
# Ideal objects.


def test_zero_and_unit_normal_forms():
    assert ideal_from(ZT, ()).is_zero()
    assert ideal_from(ZT, (ZT.zero(),)).is_zero()
    assert ideal_from(ZT, (ZT.one(),)).is_unit()
    # a unit monomial generates the whole Laurent ring
    assert ideal_from(ZT, (ZT.monomial((-3,), -1),)).is_unit()


def test_univariate_ideal_equality_up_to_units():
    t, one = _t(), ZT.one()
    f = one - t + t * t
    a = ideal_from(ZT, (f,))
    b = ideal_from(ZT, (ZT.monomial((-2,), -1) * f,))
    assert ideal_equals(a, b)
    assert not ideal_equals(a, ideal_from(ZT, (one + t,)))


def test_ideal_contains_univariate():
    t, one = _t(), ZT.one()
    ideal = ideal_from(ZT, (ZT.from_int(3), one + t))
    assert ideal_contains(ideal, ZT.from_int(3))
    assert ideal_contains(ideal, (one + t) * (one - t))
    assert ideal_contains(ideal, ZT.from_int(3) * t + one + t)
    assert not ideal_contains(ideal, one)
    assert not ideal_contains(ideal, t)


def test_ideal_compare_trichotomy_univariate():
    t, one = _t(), ZT.one()
    a = ideal_from(ZT, (ZT.from_int(2), one - t + t * t))
    b = ideal_from(ZT, (one - t + t * t, ZT.from_int(2) * t))
    assert ideal_compare(a, b) is Comparison.EQUAL_PROVEN
    c = ideal_from(ZT, (ZT.from_int(2),))
    assert ideal_compare(a, c) is Comparison.UNEQUAL_PROVEN


def test_finite_ring_ideal_span():
    one, t = Z2T.one(), Z2T.monomial((1,))
    basis, _ = finite_ideal_span(Z2T, (one + t,))
    # the ideal (1+t) in Z_2[t]/(t^2-1) is {0, 1+t}: a 1-dimensional span
    assert len(basis) == 1
    ideal = ideal_from(Z2T, (one + t,))
    assert ideal_contains(ideal, one + t)
    assert not ideal_contains(ideal, one)
    assert ideal_equals(ideal, ideal_from(Z2T, (one + t, (one + t) * t)))


def test_minimal_generating_set_finite():
    one, t = Z2T.one(), Z2T.monomial((1,))
    ideal = ideal_from(Z2T, (one + t, (one + t) * t, Z2T.zero()))
    gens = minimal_generating_set(ideal)
    assert [g.render() for g in gens] == ["1+t"]


def test_render_ideal():
    one, t = Z2T.one(), Z2T.monomial((1,))
    assert render_ideal(ideal_from(Z2T, ())) == "(0)"
    assert render_ideal(ideal_from(Z2T, (one,))) == "(1)"
    assert render_ideal(ideal_from(Z2T, (one + t,))) == "(1+t)"


def test_render_ideal_omits_basis_elements_zero_in_ring():
    # over Z[t]/(t^3 - 1) the reduced Z[t] basis of (3 - 3t) keeps t^3 - 1,
    # which is zero in the ring, so it is not printed
    spec = ring_make(0, (("t", 3),))
    ideal = ideal_normalize(ideal_from(spec, (spec.from_int(3) * (spec.one() - _t(spec)),)))
    assert ideal.data == ((_run((-3, 3)), _run((-1, 0, 0, 1))),)
    assert render_ideal(ideal) == "(-3+3t)"


def test_render_ideal_skips_repeated_images():
    # over Z[t]/(t^3 - 1) the basis {4, 2 + 2t, t^3 + 3} of (2 + 2t) maps 4
    # and t^3 + 3 alike, and so does the basis {2, t^3 + 1} of (2)
    spec = ring_make(0, (("t", 3),))
    two = spec.from_int(2)
    ideal = ideal_normalize(ideal_from(spec, (two + two * _t(spec),)))
    assert ideal.data == ((_run((4,)), _run((2, 2)), _run((3, 0, 0, 1))),)
    assert render_ideal(ideal) == "(4,2+2t)"
    assert render_ideal(ideal_from(spec, (two,))) == "(2)"


def test_quotient_ring_univariate_equality():
    # over Z[t]/(t^3 - 1) the variable is a unit, so (t - 1) = (t^2 - t)
    spec = ring_make(0, (("t", 3),))
    one, t = spec.one(), spec.monomial((1,))
    a = ideal_from(spec, (t - one,))
    b = ideal_from(spec, (spec.monomial((2,)) - t,))  # t*(t - 1)
    assert ideal_equals(a, b)


def test_probe_compare_multivariate():
    spec = ring_make(0, (("x", 0), ("y", 0)))
    x, y, one = spec.monomial((1, 0)), spec.monomial((0, 1)), spec.one()
    a = ideal_from(spec, (x - one, y - one))
    b = ideal_from(spec, (x - one, y - one, (x - one) * y))
    assert probe_compare(a, b) in (Comparison.EQUAL_PROVEN, Comparison.UNDETERMINED)
    c = ideal_from(spec, (x - one,))
    assert probe_compare(a, c) is Comparison.UNEQUAL_PROVEN


def test_several_variables_compare_zero_and_unit_by_normal_form():
    # (0) and (1) are normal forms in every ring: compared exactly, where
    # (1) against (u) and (0) against (0) were probed, and undetermined
    for p in (0, 3):
        spec = ring_make(p, (("u", 0), ("t", 0)))
        zero, one = ideal_from(spec, ()), ideal_from(spec, (spec.one(),))
        u = ideal_from(spec, (spec.monomial((1, 0)),))
        assert ideal_equals(one, u)
        assert ideal_compare(zero, ideal_from(spec, ())) is Comparison.EQUAL_PROVEN
        assert ideal_compare(zero, one) is Comparison.UNEQUAL_PROVEN
    # a side of generators only is probed: (u - 1) is proper mod 2, and
    # (u - 1) against (u - 1, 2u - 2) agrees in every probe
    spec = ring_make(0, (("u", 0), ("t", 0)))
    u, one = spec.monomial((1, 0)), spec.one()
    a = ideal_from(spec, (u - one,))
    assert ideal_compare(a, ideal_from(spec, (one,))) is Comparison.UNEQUAL_PROVEN
    b = ideal_from(spec, (u - one, spec.from_int(2) * (u - one)))
    assert ideal_compare(a, b) is Comparison.UNDETERMINED
    with pytest.raises(UndecidableError):
        ideal_equals(a, b)


def test_multivariate_exact_equality_undecidable_raises():
    spec = ring_make(0, (("x", 0), ("y", 0)))
    x, y, one = spec.monomial((1, 0)), spec.monomial((0, 1)), spec.one()
    a = ideal_from(spec, (x - one, y - one))
    b = ideal_from(spec, (x - one, y - one))
    with pytest.raises(UndecidableError):
        ideal_equals(a, b)


def test_generators_only_render_is_normalized_then_sorted():
    # each generator is shifted and sign-normalized before the sort, and
    # printed once, so the units the generators carry do not show
    spec = ring_make(0, (("t", 0), ("u", 0)))
    t, u, one = spec.monomial((1, 0)), spec.monomial((0, 1)), spec.one()
    for gens, want in [
        ((one - u, t - one), "(-1+u,-1+t)"),
        ((u - one, t - one), "(-1+u,-1+t)"),
        ((t - one, one - t), "(-1+t)"),
    ]:
        assert render_ideal(ideal_from(spec, gens)) == want
    # E_1 of the commutator under x -> t, y -> u is (1 - u, t - 1)
    pres = parse_presentation("< x, y | x y x^-1 y^-1 >")
    m = alexander_matrix(pres, abelian_map(pres, ((1, 0), (0, 1)), (("t", 0), ("u", 0))))
    assert render_ideal(elementary_ideal(m, 1)) == "(-1+u,-1+t)"


# ---------------------------------------------------------------------------
# Normal forms: saturation of Laurent ideals, comparison, the UNIT shortcut.


def _rand_elem(rng, spec, nterms=3, span=3, lo=0, hi=3):
    terms = {(rng.randint(lo, hi),): rng.randint(-span, span) for _ in range(nterms)}
    return RingElement(spec, terms)


def test_laurent_ideal_is_saturated():
    # (2, t + 2) is proper in Z[t] but holds the unit t of Z[t, t^-1]
    t = _t()
    ideal = ideal_from(ZT, (ZT.from_int(2), t + ZT.from_int(2)))
    assert ideal_normalize(ideal).is_unit()
    assert ideal_compare(ideal, ideal_from(ZT, (ZT.one(),))) is Comparison.EQUAL_PROVEN
    # (4, 2t + 4) = (4, 2t) in Z[t], and t is a unit: the Laurent ideal is (2)
    two, four = ZT.from_int(2), ZT.from_int(4)
    assert render_ideal(ideal_from(ZT, (four, two * t + four))) == "(2)"
    # (4, 2t + 4, t^2 + 4) = (4, 2t, t^2) needs two rounds: J : t = (2, t), then (1)
    assert render_ideal(ideal_from(ZT, (four, two * t + four, t * t + four))) == "(1)"
    # a basis with no constant term at all: (2t, t^2) : t^inf = (1)
    assert strong_groebner([_run((0, 2)), _run((0, 0, 1))], saturate=True) == (_run((1,)),)


def saturate_reference(gb):
    """The saturation as it was before it ran in the engine's queue: the
    whole engine restarted on gb and the colon elements that do not reduce
    to zero, until none is left."""
    while True:
        new = [q for q in _colon_t(gb) if zp_reduce(q, gb)[1]]
        if not new:
            return gb
        gb = strong_groebner(gb + tuple(new))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), zpolys.filter(bool)), min_size=1, max_size=5))
def test_saturation_in_one_queue_matches_restarts(shifted):
    # generators t^j g, so that t divides some of them
    gens = [_run((0,) * j + g) for j, g in shifted]
    assert strong_groebner(gens, saturate=True) == saturate_reference(strong_groebner(gens))


def test_laurent_ideal_normalized_by_one_engine_call():
    # theta:8's E_7 = (3, 1 + t) over Z[t^±1], and (4, 2t + 4, t^2 + 4), whose
    # saturation takes two rounds of colon elements: one strong_groebner call
    # each, and it saturates
    pres = theta_presentation(8)
    t, two, four = _t(), ZT.from_int(2), ZT.from_int(4)
    cases = (
        (minors_ideal(alexander_matrix(pres, theta_alpha(pres, 8)), 7), "(3,1+t)"),
        (ideal_from(ZT, (four, two * t + four, t * t + four)), "(1)"),
    )
    for ideal, want in cases:
        with mock.patch.object(ideals_module, "strong_groebner", wraps=strong_groebner) as engine:
            assert render_ideal(ideal) == want
        assert engine.call_count == 1
        assert engine.call_args.kwargs == {"saturate": True}


def test_saturation_charges_colon_reductions():
    # every reduction in the engine, the colon elements' included, is charged
    # to its one budget: (4, 2t + 4, t^2 + 4) : t^inf = (1)
    colons, calls = [], []

    def colon(basis):
        out = _colon_t(basis)
        colons.extend(out)
        return out

    def metered(f, basis, work=None):
        calls.append((f, work is not None))
        return zp_reduce(f, basis, work)

    gens = [_run((4,)), _run((4, 2)), _run((4, 0, 1))]
    with (
        mock.patch.object(ideals_module, "_colon_t", colon),
        mock.patch.object(ideals_module, "zp_reduce", metered),
    ):
        assert strong_groebner(gens, saturate=True) == (_run((1,)),)
    assert colons and set(colons) <= {f for f, _ in calls}
    assert all(charged for _, charged in calls)


def test_laurent_membership_matches_shift_reference():
    # f lies in the Laurent ideal I iff t^N f lies in the Z[t] ideal J of the
    # shifted generators, for N past the saturation index of J
    n = 64
    rng = random.Random(47)
    for _ in range(150):
        gens = [_rand_elem(rng, ZT, lo=-2) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = ideal_from(ZT, tuple(gens))
        j = groebner_tuples([_dense(_to_zpoly(g)) for g in gens])
        combo = ZT.zero()
        for g in gens:
            combo = combo + g * _rand_elem(rng, ZT, lo=-2)
        for f in (combo, _rand_elem(rng, ZT, lo=-2), ZT.one(), _t()):
            if f.is_zero():
                continue
            want = zp_top_reduces_to_zero_reference((0,) * n + _dense(_to_zpoly(f)), j)
            assert ideal_contains(ideal, f) == want, ([g.render() for g in gens], f)


def _rand_ideal(rng, spec):
    gens = tuple(_rand_elem(rng, spec) for _ in range(rng.randint(1, 3)))
    return ideal_from(spec, gens)


def _two_way_reference(a, b):
    eq = all(ideal_contains(b, g) for g in a.generators) and all(
        ideal_contains(a, g) for g in b.generators
    )
    return Comparison.EQUAL_PROVEN if eq else Comparison.UNEQUAL_PROVEN


@pytest.mark.parametrize(
    "spec",
    [
        ring_make(2, (("t", 3),)),  # finite
        ring_make(3, (("t", 2),)),  # finite
        ring_make(2, (("t", 0),)),  # field_univariate
        ring_make(3, (("t", 0),)),  # field_univariate
        ZT,  # z_univariate, Laurent
        ring_make(0, (("t", 3),)),  # z_univariate, t^3 - 1 adjoined
    ],
    ids=lambda spec: f"p{spec.modulus}k{spec.variables[0][1]}",
)
def test_ideal_compare_matches_two_way_membership(spec):
    rng = random.Random(53)
    for _ in range(60):
        a = _rand_ideal(rng, spec)
        # an equal ideal, generated differently, and an unrelated one
        combos = []
        for _ in range(2):
            c = spec.zero()
            for g in a.generators:
                c = c + g * _rand_elem(rng, spec)
            combos.append(c)
        shifted = tuple(g * spec.monomial((rng.randint(0, 2),)) for g in a.generators)
        same = ideal_from(spec, shifted + tuple(combos))
        other = _rand_ideal(rng, spec)
        for b in (same, other, ideal_from(spec, ()), ideal_from(spec, (spec.one(),))):
            want = _two_way_reference(ideal_normalize(a), ideal_normalize(b))
            assert ideal_compare(a, b) is want
        assert ideal_compare(a, same) is Comparison.EQUAL_PROVEN


def test_ideal_normalize_unit_does_no_work(monkeypatch):
    def fail(*args):
        raise AssertionError("normal form recomputed for a UNIT ideal")

    for name in ("finite_ideal_span", "strong_groebner"):
        monkeypatch.setattr(ideals_module, name, fail)
    for spec in (Z2T, ring_make(2, (("t", 0),)), ZT, ring_make(0, (("t", 3),))):
        t = spec.monomial((1,))
        ideal = ideal_from(spec, (t * t + t, spec.monomial((-1,)), t + spec.one()))
        assert ideal.is_unit()
        assert ideal_normalize(ideal) is ideal
        assert render_ideal(ideal) == "(1)"
        whole = ideal_from(spec, (spec.one(),))
        assert ideal_compare(ideal, whole) is Comparison.EQUAL_PROVEN


# ---------------------------------------------------------------------------
# Z_p[t^±1] through the monic gcd, against GF(p) Euclid.


def gfp_gcd_reference(a, b, p):
    """The monic gcd over GF(p) by Euclid's algorithm, as Z_p[t^±1] ideals
    were normalized before they went through the Z[t] strong basis."""
    a, b = _trim(c % p for c in a), _trim(c % p for c in b)
    while b:
        a, b = b, gfp_rem_reference(a, b, p)
    if a:
        inv = pow(_lc(a), -1, p)
        a = _trim((c * inv) % p for c in a)
    return a


def gfp_rem_reference(a, b, p):
    """a mod b over GF(p), for a and b reduced mod p, b nonzero."""
    r, db = list(a), _deg(b)
    inv = pow(_lc(b), -1, p)
    for d in range(len(r) - 1, db - 1, -1):
        f = r[d] * inv % p
        if f:
            for j, y in enumerate(b):
                r[d - db + j] = (r[d - db + j] - f * y) % p
    return _trim(r)


def _gcd_of(gens, p):
    g = ()
    for e in gens:
        g = gfp_gcd_reference(g, _dense(_to_zpoly(e)), p)
    return g


def _render_reference(spec, g):
    if not g:
        return "(0)"
    if _deg(g) == 0:
        return "(1)"
    return "(" + RingElement(spec, {(d,): c for d, c in enumerate(g) if c}).render() + ")"


laurent_terms = st.dictionaries(st.tuples(st.integers(-3, 4)), st.integers(0, 8), max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(laurent_terms, min_size=1, max_size=4),
    st.lists(laurent_terms, min_size=1, max_size=3),
    laurent_terms,
    st.integers(-3, 3),
)
def test_zp_laurent_ideals_match_gfp_gcd_reference(p, terms_a, terms_b, terms_f, shift):
    # generators may be zero (empty terms, or all coefficients 0 mod p) or
    # unit monomials (one term); a shifted copy of the first is added too
    spec = ring_make(p, (("t", 0),))
    gens_a = [RingElement(spec, terms) for terms in terms_a]
    gens_a.append(gens_a[0] * spec.monomial((shift,)))
    a = ideal_from(spec, tuple(gens_a))
    b = ideal_from(spec, tuple(RingElement(spec, terms) for terms in terms_b))
    f = RingElement(spec, terms_f)
    ga, gb = _gcd_of(gens_a, p), _gcd_of(b.generators, p)
    assert render_ideal(a) == _render_reference(spec, ga)
    assert render_ideal(b) == _render_reference(spec, gb)
    fpoly = _dense(_to_zpoly(f))
    want = not fpoly if not ga else not gfp_rem_reference(fpoly, ga, p)
    assert ideal_contains(a, f) == want
    want = Comparison.EQUAL_PROVEN if ga == gb else Comparison.UNEQUAL_PROVEN
    assert ideal_compare(a, b) is want
    # the same ideal, generated by shifted multiples and a combination
    same = tuple(g * spec.monomial((shift,)) for g in gens_a) + (f * gens_a[0],)
    assert ideal_compare(a, ideal_from(spec, same)) is Comparison.EQUAL_PROVEN


def test_minimal_generating_set_is_irredundant():
    # greedy order keeps the first of each pair, which the second generates:
    # 1+t+t^2 = (t-1)^2 = (1+2t)^2 over Z_3, 1+t+t^2+t^3 = (1+t)(1+t^2) over Z_2
    for p, k, gens, want in [
        (3, 3, ("1+t+t^2", "1+2t"), "1+2t"),
        (2, 4, ("1+t+t^2+t^3", "1+t^2"), "1+t^2"),
    ]:
        spec = ring_make(p, (("t", k),))
        one, t = spec.one(), spec.monomial((1,))
        elems = {
            "1+t+t^2": one + t + t * t,
            "1+2t": one + t + t,
            "1+t+t^2+t^3": one + t + t * t + t * t * t,
            "1+t^2": one + t * t,
        }
        ideal = ideal_from(spec, tuple(elems[g] for g in gens))
        assert render_ideal(ideal) == f"({want})"
        assert [g.render() for g in minimal_generating_set(ideal)] == [want]


# Element-based references: the finite span, the enumeration of its elements,
# their sort key and the greedy as they were before the finite regime worked
# on Z_p vectors, multiplying ring elements by every monomial.


def _ref_vector(elem, index):
    vec = [0] * len(index)
    for exps, c in elem.terms.items():
        vec[index[exps]] = c
    return vec


def _ref_reduce_by(row, basis, pivots, p):
    for prow, pcol in zip(basis, pivots):
        f = row[pcol]
        if f:
            row = [(a - f * b) % p for a, b in zip(row, prow)]
    return row


def _ref_rref(vectors, p):
    """The row reduction of the finite regime before smith.zp_rref: an
    echelon form, then a sort by pivot and a back-substitution."""
    basis, pivots = [], []
    for row in vectors:
        row = _ref_reduce_by(row, basis, pivots, p)
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        basis.append([(c * inv) % p for c in row])
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    basis, pivots = [basis[i] for i in order], [pivots[i] for i in order]
    for i in range(len(basis)):
        for j in range(len(basis)):
            if j != i and basis[i][pivots[j]]:
                f = basis[i][pivots[j]]
                basis[i] = [(a - f * b) % p for a, b in zip(basis[i], basis[j])]
    return tuple(tuple(r) for r in basis), tuple(pivots)


@st.composite
def zp_row_lists(draw):
    """Up to 8 rows of up to 10 entries in [0, p), p from 2 to 11, then up
    to 2 more, each a row plus a multiple of a row: repeated rows among them."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(st.integers(0, p - 1))
        rows.append([(x + c * y) % p for x, y in zip(a, b)])
    return p, rows


@settings(max_examples=400, deadline=None)
@given(zp_row_lists())
def test_zp_rref_matches_two_phase_reference(case):
    p, rows = case
    assert zp_rref(rows, p) == _ref_rref(rows, p)


def _ref_finite_ideal_span(spec, gens):
    monomials = spec.all_monomials()
    index = {m: i for i, m in enumerate(monomials)}
    vectors = [_ref_vector(g * spec.monomial(m), index) for g in gens for m in monomials]
    return _ref_rref(vectors, spec.modulus)


def _ref_finite_elements(spec, basis):
    p = spec.modulus
    monomials = spec.all_monomials()
    elems = []
    for combo in itertools.product(range(p), repeat=len(basis)):
        vec = [0] * len(monomials)
        for c, row in zip(combo, basis):
            vec = [(a + c * bcomp) % p for a, bcomp in zip(vec, row)]
        elems.append(RingElement(spec, {m: c for m, c in zip(monomials, vec) if c}))
    return elems


def _ref_elem_sort_key(elem):
    return tuple((term_key(e), c) for e, c in elem.sorted_terms())


def _ref_greedy(spec, basis):
    """Greedy over the nonzero elements with one running span, then the
    pass that drops redundant generators."""
    index = {m: i for i, m in enumerate(spec.all_monomials())}
    elems = [e for e in _ref_finite_elements(spec, basis) if not e.is_zero()]
    elems.sort(key=_ref_elem_sort_key)
    out, span = [], ((), ())
    for e in elems:
        if _ref_in_span(_ref_vector(e, index), *span, spec.modulus):
            continue
        out.append(e)
        span = _ref_finite_ideal_span(spec, out)
        if span[0] == basis:
            break
    for e in tuple(out):
        rest = [g for g in out if g != e]
        if rest and _ref_finite_ideal_span(spec, rest)[0] == basis:
            out = rest
    return tuple(out)


# Reference greedy: a fresh span per candidate and one more span per pick, as
# minimal_generating_set did before it kept one running span; and the unit
# test by reducing the vector of 1.


def _ref_minimal_generating_set(ideal):
    spec = ideal.spec
    basis, _ = _ref_finite_ideal_span(spec, ideal.generators)
    elems = [e for e in _ref_finite_elements(spec, basis) if not e.is_zero()]
    elems.sort(key=_ref_elem_sort_key)
    index = {m: i for i, m in enumerate(spec.all_monomials())}
    out = []
    for e in elems:
        span = _ref_finite_ideal_span(spec, out)
        if out and _ref_in_span(_ref_vector(e, index), *span, spec.modulus):
            continue
        out.append(e)
        if _ref_finite_ideal_span(spec, out)[0] == basis:
            break
    for e in tuple(out):
        rest = [g for g in out if g != e]
        if rest and _ref_finite_ideal_span(spec, rest)[0] == basis:
            out = rest
    return tuple(out)


def _ref_in_span(vec, basis, pivots, p):
    row = list(vec)
    for prow, pcol in zip(basis, pivots):
        if row[pcol] % p:
            f = row[pcol] % p
            row = [(a - f * b) % p for a, b in zip(row, prow)]
    return all(c % p == 0 for c in row)


def _ref_is_unit(spec, gens):
    monomials = spec.all_monomials()
    basis, pivots = _ref_finite_ideal_span(spec, gens)
    one_vec = [0] * len(monomials)
    one_vec[monomials.index((0,) * spec.nvars)] = 1
    return _ref_in_span(one_vec, basis, pivots, spec.modulus)


@st.composite
def finite_cyclic_ideals(draw):
    """Generators of an ideal of Z_p[t]/(t^k - 1), p in {2, 3, 5}, k in 2..6,
    often sharing a factor (t - 1)(t - a)... so that the ideal is proper."""
    p = draw(st.sampled_from((2, 3, 5)))
    k = draw(st.integers(2, 6))
    spec = ring_make(p, (("t", k),))
    exps = st.tuples(st.integers(0, k - 1))
    elems = st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=k)
    gens = [RingElement(spec, terms) for terms in draw(st.lists(elems, min_size=1, max_size=3))]
    if draw(st.booleans()):
        roots = [1] + draw(st.lists(st.integers(1, p - 1), max_size=2))
        for a in roots:
            gens = [g * (_t(spec) - spec.from_int(a)) for g in gens]
    return spec, tuple(gens)


@settings(max_examples=150, deadline=None)
@given(finite_cyclic_ideals())
def test_minimal_generating_set_matches_greedy_reference(case):
    spec, gens = case
    ideal = ideal_normalize(ideal_from(spec, gens))
    nonzero = [g for g in gens if not g.is_zero()]
    assert ideal.is_unit() == (bool(nonzero) and _ref_is_unit(spec, nonzero))
    if ideal.is_zero() or ideal.is_unit():
        return
    want = _ref_minimal_generating_set(ideal_from(spec, gens))
    assert minimal_generating_set(ideal) == want
    assert render_ideal(ideal) == "(" + ",".join(g.render() for g in want) + ")"


# Several variables: every finite ring Z_p[x_1..x_r]/(x_i^k_i - 1) with p in
# {2, 3, 5}, r in 1..3 and k_i in 2..4 that is within FINITE_SIZE_CAP.
FINITE_RINGS = [
    ring_make(p, tuple((f"x{i}", k) for i, k in enumerate(ks)))
    for p in (2, 3, 5)
    for r in (1, 2, 3)
    for ks in itertools.product(range(2, 5), repeat=r)
    if p ** prod(ks) <= ideals_module.FINITE_SIZE_CAP
]


def _variable(spec, i):
    return spec.monomial(tuple(int(j == i) for j in range(spec.nvars)))


@st.composite
def finite_multivariate_ideals(draw):
    """A ring of FINITE_RINGS, generators of an ideal there, often sharing
    factors x_i - a so that the ideal is proper, and three more elements."""
    spec = draw(st.sampled_from(FINITE_RINGS))
    p = spec.modulus
    exps = st.tuples(*(st.integers(0, k - 1) for _, k in spec.variables))
    elems = st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=3)
    elems = elems.map(lambda terms: RingElement(spec, terms))
    gens = draw(st.lists(elems, min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(1, p - 1))
        factor = _variable(spec, draw(st.integers(0, spec.nvars - 1))) - spec.from_int(a)
        gens = [g * factor for g in gens]
    return spec, tuple(gens), draw(st.lists(elems, min_size=3, max_size=3))


@settings(max_examples=150, deadline=None)
@given(finite_multivariate_ideals())
def test_finite_multivariate_ideals_match_element_reference(case):
    spec, gens, (f, h1, h2) = case
    p = spec.modulus
    ideal = ideal_from(spec, gens)
    nonzero = [g for g in gens if not g.is_zero()]
    basis, pivots = _ref_finite_ideal_span(spec, nonzero)
    if not nonzero:
        assert render_ideal(ideal) == "(0)"
    elif len(basis) == spec.monomial_count():
        assert render_ideal(ideal) == "(1)"
    elif p ** len(basis) > ideals_module.DISPLAY_SIZE_CAP:
        with pytest.raises(RingError, match="DISPLAY_SIZE_CAP"):
            render_ideal(ideal)
    else:
        want = _ref_greedy(spec, basis)
        assert minimal_generating_set(ideal) == want
        assert render_ideal(ideal) == "(" + ",".join(g.render() for g in want) + ")"
    index = {m: i for i, m in enumerate(spec.all_monomials())}
    combo = gens[0] * h1 + gens[-1] * h2
    for elem in (combo, f, h1 * f):
        want = _ref_in_span(_ref_vector(elem, index), basis, pivots, p)
        assert ideal_contains(ideal, elem) == want
    shifted = tuple(g * _variable(spec, i % spec.nvars) for i, g in enumerate(gens))
    for other in (shifted + (combo,), gens[1:] + (f,), (f, h1)):
        span = _ref_finite_ideal_span(spec, [g for g in other if not g.is_zero()])
        want = Comparison.EQUAL_PROVEN if span == (basis, pivots) else Comparison.UNEQUAL_PROVEN
        assert ideal_compare(ideal, ideal_from(spec, other)) is want


def _ref_probe_compare(a, b):
    for p, k in ideals_module.PROBES:
        pspec, mapper = ideals_module._probe_map(a.spec, p, k)
        span_a = _ref_finite_ideal_span(pspec, [mapper(g) for g in a.generators])
        span_b = _ref_finite_ideal_span(pspec, [mapper(g) for g in b.generators])
        if span_a != span_b:
            return Comparison.UNEQUAL_PROVEN
    return Comparison.UNDETERMINED


@st.composite
def integral_multivariate_ideal_pairs(draw):
    """Two ideals over Z in one to three variables of order 0, 2, 3 or 4;
    the second is often the first with a multiple of a generator added."""
    orders = draw(st.lists(st.sampled_from((0, 2, 3, 4)), min_size=1, max_size=3))
    spec = ring_make(0, tuple((f"x{i}", k) for i, k in enumerate(orders)))
    exps = st.tuples(*(st.integers(-1, 2) for _ in orders))
    elems = st.dictionaries(exps, st.integers(-2, 2), min_size=1, max_size=3)
    elems = elems.map(lambda terms: RingElement(spec, terms))
    a = draw(st.lists(elems, min_size=1, max_size=2))
    if draw(st.booleans()):
        b = a + [a[0] * draw(elems)]
    else:
        b = draw(st.lists(elems, min_size=1, max_size=2))
    return ideal_from(spec, tuple(a)), ideal_from(spec, tuple(b))


@settings(max_examples=60, deadline=None)
@given(integral_multivariate_ideal_pairs())
def test_probe_compare_matches_element_reference(pair):
    a, b = pair
    assert probe_compare(a, b) is _ref_probe_compare(a, b)


@st.composite
def one_variable_zp_ideals(draw):
    """(spec, gens, others): 1 to 3 generators of an ideal of Z_p[t^±1] or of
    Z_p[t]/(t^k - 1) within FINITE_SIZE_CAP, p <= 7, often sharing factors
    t - a so that the ideal is proper, and three more elements."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    finite = st.sampled_from([k for k in range(1, 17) if p**k <= FINITE_SIZE_CAP])
    spec = ring_make(p, (("t", draw(st.one_of(st.just(0), finite))),))
    exps = st.tuples(st.integers(-3, 5))
    elems = st.dictionaries(exps, st.integers(0, p - 1), max_size=4)
    elems = elems.map(lambda terms: RingElement(spec, terms))
    nonzero = st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=4)
    gens = draw(st.lists(st.one_of(elems, nonzero.map(lambda terms: RingElement(spec, terms))),
                         min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        factor = _t(spec) - spec.from_int(draw(st.integers(1, p - 1)))
        gens = [g * factor for g in gens]
    return spec, tuple(gens), draw(st.lists(elems, min_size=3, max_size=3))


def _render_outcome(render):
    try:
        return render()
    except RingError as exc:
        return type(exc), str(exc)


def _one_variable_zp_reference(spec, gens):
    """(normal form, membership test, render) of the ideal by the references
    that stay: the span over Z_p at a finite order, rendered by the greedy
    over ring elements, and else the strong basis of Z[t] with p adjoined,
    saturated by t, rendered by its images, as Z_p[t^±1] was normalized
    before its normal form became the monic generator."""
    p, nonzero = spec.modulus, [g for g in gens if not g.is_zero()]
    if spec.is_finite():
        basis, pivots = finite_ideal_span(spec, nonzero)
        index = {m: i for i, m in enumerate(spec.all_monomials())}

        def member(f):
            return _ref_in_span(_ref_vector(f, index), basis, pivots, p)

        def render():
            if len(basis) in (0, spec.monomial_count()):
                return "(0)" if not basis else "(1)"
            if p ** len(basis) > ideals_module.DISPLAY_SIZE_CAP:
                raise RingError(
                    f"finite ideal of {p}^{len(basis)} elements"
                    f" over DISPLAY_SIZE_CAP = {ideals_module.DISPLAY_SIZE_CAP}"
                )
            return "(" + ",".join(g.render() for g in _ref_greedy(spec, basis)) + ")"

        return (basis, pivots), member, render
    gb = strong_groebner([_to_zpoly(g) for g in nonzero] + [(0, (p,))], saturate=True)

    def render():
        images = dict.fromkeys(RingElement(spec, g).render() for g in gb)
        return "(" + (",".join(r for r in images if r != "0") or "0") + ")"

    return gb, lambda f: not zp_reduce(_to_zpoly(f), gb)[1], render


@settings(max_examples=200, deadline=None)
@given(one_variable_zp_ideals())
def test_principal_ideal_matches_ideal_normalize(case):
    # the monic generator g as normal form, against the spans and the strong
    # bases it replaced: renders, membership, comparison; and (g) built by
    # principal_ideal, as from a Smith generator, is the normalized ideal
    spec, gens, (f, h1, h2) = case
    ideal = ideal_from(spec, gens)
    want, member, render = _one_variable_zp_reference(spec, gens)
    assert _render_outcome(lambda: render_ideal(ideal)) == _render_outcome(render)
    got = ideal_normalize(ideal)
    g = got.data[0] if got.normal_form is NormalForm.PRINCIPAL else () if got.is_zero() else (1,)
    for single in (principal_ideal(spec, g), ideal_from(spec, (RingElement(spec, (0, g)),))):
        single = ideal_normalize(single)
        assert (single.normal_form, single.data) == (got.normal_form, got.data)
    combo = gens[0] * h1 + gens[-1] * h2
    for elem in (combo, f, h1 * f):
        assert ideal_contains(ideal, elem) == member(elem)
    shifted = tuple(g * spec.monomial((i,)) for i, g in enumerate(gens))
    for other in (shifted + (combo,), gens[1:] + (f,), (f, h1)):
        same = _one_variable_zp_reference(spec, other)[0] == want
        expect = Comparison.EQUAL_PROVEN if same else Comparison.UNEQUAL_PROVEN
        assert ideal_compare(ideal, ideal_from(spec, other)) is expect
