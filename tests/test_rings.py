"""Laurent quotient rings, determinants, minors, and matrix reduction."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import foxcalc
from foxcalc.rings import (
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
)

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


def test_minor_count():
    rng = random.Random(23)
    m = RingMatrix.build(
        ZT, [[rand_elem(rng, ZT, 1, 1) for _ in range(4)] for _ in range(3)]
    )
    assert len(list(minors(m, 2))) == 3 * 6  # C(3,2) * C(4,2)
    assert len(list(minors(m, 3))) == 1 * 4


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
