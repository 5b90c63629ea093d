"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line on the real terminal (bypassing
pytest capture) and then asserts, so a red criterion is visible both in the
printed summary and in the pytest exit status.
"""

import itertools
import random
import re

from foxcalc import verify
from foxcalc.catalog import (
    YOSHIKAWA_KEYS,
    catalog_lookup,
    theta_alpha,
    theta_presentation,
    theta_wirtinger_alpha,
    theta_wirtinger_presentation,
)
from foxcalc.fox import ONE, ZERO, GroupRingElement, fox_derive
from foxcalc.ideals import (
    Comparison,
    ideal_contains,
    ideal_equals,
    ideal_from,
    ideal_normalize,
    probe_compare,
)
from foxcalc.invariants import (
    alexander_matrix,
    alexander_polynomial,
    elementary_ideal,
    handlebody_invariant,
    minors_ideal,
    surfacelink_invariant,
    twisted_matrix,
)
from foxcalc.maps import (
    abelian_map,
    conjugacy_classes,
    cyclic_map,
    enumerate_epis,
    enumerate_homs,
)
from foxcalc.presentations import Word, parse_presentation
from foxcalc.rings import RingMatrix, det, ring_make


def report(capsys, line):
    with capsys.disabled():
        print(line)


def finish(capsys, num, label, failures):
    status = "PASS" if not failures else f"FAIL ({'; '.join(map(str, failures))})"
    report(capsys, f"CRITERION {num} [{label}]: {status}")
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_1_case_table(capsys):
    failures = []
    for n in range(3, 25):
        if not verify.check_theorem34(n):
            failures.append(f"n={n}")
    finish(capsys, 1, "untwisted theta-curve case table, n=3..24", failures)


def test_criterion_2_finite_cyclic_target(capsys):
    failures = []
    for n in range(3, 13):
        if not verify.check_remark34(n):
            failures.append(f"n={n}")
    finish(capsys, 2, "E_(n-1) over Z[t]/(t^n-1) equals (1-t+t^2)", failures)


def test_criterion_3_twisted_theta_ideals(capsys):
    failures = []
    for n in (5, 7, 11, 13):
        if not verify.check_theorem37(n):
            failures.append(f"n={n}")
    finish(capsys, 3, "twisted ideals over Z_2: (0), (1+t), (1)", failures)


def test_criterion_4_representation_family(capsys):
    failures = []
    for n in range(5, 36):
        if n % 6 in (1, 5) and not verify.check_lemma36(n):
            failures.append(f"n={n}")
    finish(capsys, 4, "SL(2;Z_2) family valid for n=1,5 mod 6, 5<=n<=35", failures)


# ---------------------------------------------------------------------------
# Criterion 5: the 23 surface-link rows, compared as multisets.

GOLDEN_ROWS = {
    "0_1": "{(0,1)_3}",
    "2_1^1": "{(0,1)_3}",
    "2_1^-1": "{(1)_1,(1+t,1)_1}",
    "6_1^0,1": "{(0,1)_4,(0,0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "7_1^0,-2": "{(0,1)_2,(0,0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "8_1": "{(0,1)_2,(0,0,1)_1,(0,0,1+t,1)_1}",
    "8_1^1,1": "{(0,1)_4,(0,0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "8_1^-1,-1": "{(0,1)_3,(0,0,1+t,1)_1}",
    "9_1": "{(0,1)_4}",
    "9_1^0,1": "{(0,1)_4,(0,0,0,1)_2,(0,0,1+t,1)_3}",
    "9_1^1,-2": "{(0,1)_3,(0,1+t,1)_1,(0,0,1+t,1)_1}",
    "10_1": "{(0,1)_2,(0,0,1+t,1)_1}",
    "10_2": "{(0,1)_4}",
    # 10_3 is published as {(0,1)_4} (the same as 10_2), which no table of
    # this group can be: its homs to SL(2;Z_2) = S_3 fall into 3 classes.
    # Table 2's E_1 = (1+t+t^2, 2) (criterion 6) is (1) modulo (3, t+1), so
    # there is no epimorphism onto S_3.  (Directly: x1, x2 are conjugate, so
    # an epimorphism sends them to distinct transpositions, which the
    # relator x1^3 x2 x1^-3 x2^-1 makes commute.)  As G^ab = Z, every hom is
    # x1, x2 -> a for some a in S_3: trivial, transposition, 3-cycle.
    # Every rho factors through G^ab, so the twisted matrix is the Alexander
    # matrix, rows (f, -f) and (g, -g) with f = 1-x+x^2, g = 1-x^3, taken at
    # X = rho(x)t over Z_2[t]/(t^2-1).  Adding column 1 to column 2 leaves
    # the one block column [f(X); g(X)] beside a zero one:
    #   trivial, transposition: det f(X) = t^2 = 1, so the row is (0,1);
    #   3-cycle w (w^2+w+1 = 0): f(X) = w(1+t), g(X) = (1+t)I, and
    #   (1+t)^2 = 0, so E_1 = E_2 = (0), E_3 = (1+t), E_4 = (1).
    "10_3": "{(0,1)_2,(0,0,1+t,1)_1}",
    "10_1^1": "{(0,1)_2,(0,0,1)_1,(0,0,1+t,1)_1}",
    "10_1^0,1": "{(0,1)_3,(0,0,1)_2,(0,0,0,1)_3,(0,0,1+t,1)_2}",
    "10_2^0,1": "{(0,1)_3,(0,0,1)_2,(0,0,0,1)_2,(0,0,1+t,1)_3}",
    "10_1^1,1": "{(0,1)_4,(0,0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "10_1^0,0,1": "{(0,0,0,1)_16,(0,0,0,0,1)_4,(0,0,0,1+t,1)_8,(0,0,0,0,1+t,1)_3}",
    "10_1^0,-2": "{(0,0,1)_2,(0,0,1+t,1)_3}",
    "10_2^0,-2": "{(0,0,1)_2,(0,0,1+t,1)_3}",
    "10_1^-1,-1": "{(0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "10_1^-2,-2": "{(0,1)_3,(0,0,1+t,1)_1}",
}

_ROW_RE = re.compile(r"\(([^)]*)\)_(\d+)")


def parse_rows(text):
    return sorted(
        (tuple(entries.split(",")), int(mult))
        for entries, mult in _ROW_RE.findall(text)
    )


def test_criterion_5_surface_link_table(capsys):
    assert sorted(GOLDEN_ROWS) == sorted(YOSHIKAWA_KEYS)
    failures = []
    for key in YOSHIKAWA_KEYS:
        pres = catalog_lookup(f"yoshikawa:{key}").presentation
        table = surfacelink_invariant(pres)
        if table.as_multiset() != parse_rows(GOLDEN_ROWS[key]):
            failures.append(f"{key}: computed {table.render()}")
    finish(capsys, 5, "23 surface-link rows byte-exact as multisets", failures)


# ---------------------------------------------------------------------------
# Criterion 6: spot checks of the untwisted ideal and polynomial columns.

ZX = ring_make(0, (("x", 0),))


def _zx(coeffs):
    """Dense coefficient list, low to high, in Z[x,x^-1]."""
    out = ZX.zero()
    for e, c in enumerate(coeffs):
        out = out + ZX.monomial((e,), c)
    return out


UNIVARIATE_IDEALS = {
    "8_1": [_zx([1, -1, 1])],
    "9_1": [_zx([-2, 1])],
    "10_1": [_zx([1, -3, 1])],
    "10_2": [_zx([1, 1]), ZX.from_int(3)],
    "10_3": [_zx([1, 1, 1]), ZX.from_int(2)],
    "10_1^1": [_zx([1, -1, 1])],
}

# rows with a torsion-free abelianization: "cyclic" rows abelianize to Z
# (all generators to x), "free" rows keep one variable per generator.
# Expected polynomial given as exponent-vector terms, None for zero.
POLYNOMIAL_ROWS = [
    ("0_1", "cyclic", {(0,): 1}),
    ("2_1^1", "cyclic", {(0,): 1}),
    ("8_1", "cyclic", {(0,): 1, (1,): -1, (2,): 1}),
    ("9_1", "cyclic", {(0,): -2, (1,): 1}),
    ("10_1", "cyclic", {(0,): 1, (1,): -3, (2,): 1}),
    ("10_2", "cyclic", {(0,): 1}),
    ("10_3", "cyclic", {(0,): 1}),
    ("10_1^1", "cyclic", {(0,): 1, (1,): -1, (2,): 1}),
    ("6_1^0,1", "free", {(0, 0): 1}),
    ("8_1^1,1", "free", {(0, 0): 1}),
    ("9_1^0,1", "free", {(0, 0): -1, (0, 1): 1}),
    ("10_1^0,1", "free", {(0, 0): 1, (1, 1): 1}),
    ("10_2^0,1", "free", {(0, 0): 1, (1, 0): 1}),
    ("10_1^1,1", "free", {(0, 0): 1}),
    ("10_1^0,0,1", "free", None),
]

# multivariate ideal rows: key -> (variable orders, generator builder)
MULTIVARIATE_ROWS = {
    "6_1^0,1": ((0, 0), lambda sp: (_mono(sp, 0) - sp.one(), _mono(sp, 1) - sp.one())),
    "7_1^0,-2": ((0, 2), lambda sp: (_mono(sp, 0) + sp.one(), _mono(sp, 1) - sp.one())),
    "8_1^-1,-1": (
        (2, 2),
        lambda sp: (_mono(sp, 0) + sp.one(), _mono(sp, 1) + sp.one(), sp.from_int(2)),
    ),
    "9_1^1,-2": (
        (2, 0),
        lambda sp: (_mono(sp, 0) + sp.one(), _mono(sp, 1) + sp.one(), sp.from_int(2)),
    ),
    "10_1^0,-2": (
        (0, 2),
        lambda sp: (
            sp.from_int(2) * _mono(sp, 0) + _mono(sp, 1) - sp.one(),
            sp.from_int(4),
        ),
    ),
    "10_2^0,-2": (
        (0, 2),
        lambda sp: (
            sp.from_int(2) * _mono(sp, 0) + _mono(sp, 1) - sp.one(),
            sp.from_int(4),
            sp.from_int(2) * _mono(sp, 0) * _mono(sp, 0) + sp.from_int(2),
        ),
    ),
    "10_1^-1,-1": (
        (2, 2),
        lambda sp: (_mono(sp, 0) + sp.one(), _mono(sp, 1) + sp.one(), sp.from_int(4)),
    ),
}


def _mono(spec, i):
    exps = [0] * spec.nvars
    exps[i] = 1
    return spec.monomial(tuple(exps))


def _free_abelian_alpha(pres, orders=None):
    orders = orders or (0,) * pres.s
    variables = tuple((name, k) for name, k in zip(pres.generators, orders))
    images = tuple(
        tuple(1 if i == j else 0 for j in range(pres.s)) for i in range(pres.s)
    )
    return abelian_map(pres, images, variables)


def _first_ideal(pres, alpha):
    m = alexander_matrix(pres, alpha)
    return m.spec, minors_ideal(m, 1)


def test_criterion_6_table2_spot_checks(capsys):
    failures = []
    # (a) univariate rows proven equal over Z[x, x^-1]
    for key, gens in UNIVARIATE_IDEALS.items():
        pres = catalog_lookup(f"yoshikawa:{key}").presentation
        alpha = cyclic_map(pres, (1,) * pres.s, 0, var="x")
        _, e1 = _first_ideal(pres, alpha)
        if not ideal_equals(e1, ideal_from(ZX, tuple(gens))):
            failures.append(f"6a {key}")
    # (b) polynomial column, up to unit
    for key, mode, want_terms in POLYNOMIAL_ROWS:
        pres = catalog_lookup(f"yoshikawa:{key}").presentation
        if mode == "cyclic":
            alpha = cyclic_map(pres, (1,) * pres.s, 0, var="x")
        else:
            alpha = _free_abelian_alpha(pres)
        got = alexander_polynomial(pres, alpha)
        if want_terms is None:
            ok = got.is_zero()
        else:
            spec = got.spec
            want = spec.zero()
            for exps, c in want_terms.items():
                want = want + spec.monomial(exps, c)
            ok = got == want
        if not ok:
            failures.append(f"6b {key}: got {got.render()}")
    # (c) multivariate rows consistent under finite-quotient probing,
    # and a deliberately perturbed ideal is proven different
    for key, (orders, mk) in MULTIVARIATE_ROWS.items():
        pres = catalog_lookup(f"yoshikawa:{key}").presentation
        alpha = _free_abelian_alpha(pres, orders)
        spec, e1 = _first_ideal(pres, alpha)
        if probe_compare(e1, ideal_from(spec, mk(spec))) is Comparison.UNEQUAL_PROVEN:
            failures.append(f"6c {key}")
    pres = catalog_lookup("yoshikawa:10_1^0,-2").presentation
    spec, e1 = _first_ideal(pres, _free_abelian_alpha(pres, (0, 2)))
    mutated = ideal_from(spec, (_mono(spec, 0) - spec.one(), spec.from_int(4)))
    if probe_compare(e1, mutated) is not Comparison.UNEQUAL_PROVEN:
        failures.append("6c mutation not detected")
    finish(capsys, 6, "ideal and polynomial column spot checks", failures)


def test_criterion_7_free_group_matrix_table(capsys):
    failures = []
    pres = parse_presentation("< x, y | >")
    table = handlebody_invariant(pres, p=2, k=2, d=4)
    if table.render() != "{(1,1,1)_11}":
        failures.append(f"got {table.render()}")
    finish(capsys, 7, "rank-2 free group matrix-form invariant", failures)


def test_criterion_8_enumeration_oracles(capsys):
    failures = []
    cases = [
        ("< x, y | >", 36, 11, 3),
        ("< x | x^2 >", 4, 2, 1),
        # The epi count for the trefoil group is published as 3.  Its relator
        # has exponent sums (1, -1), so a map to Z_2 must send x1 and x2 to
        # the same element, and the only surjection is x1, x2 -> 1: 1 epi.
        ("< x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1 >", 12, 4, 1),
    ]
    for text, nhoms, nclasses, nepis in cases:
        pres = parse_presentation(text)
        homs = enumerate_homs(pres, n=2, p=2)
        if len(homs) != nhoms:
            failures.append(f"{text}: {len(homs)} homs, expected {nhoms}")
        classes = conjugacy_classes(homs)
        if len(classes) != nclasses:
            failures.append(f"{text}: {len(classes)} classes, expected {nclasses}")
        if sum(size for _, size in classes) != len(homs):
            failures.append(f"{text}: class sizes do not partition the homs")
        epis = enumerate_epis(pres, 2)
        if len(epis) != nepis:
            failures.append(f"{text}: {len(epis)} epis, expected {nepis}")
    finish(capsys, 8, "hom/class/epi counts vs brute force", failures)


# ---------------------------------------------------------------------------
# Criterion 9: property suites.


def _rand_word(rng, maxlen, ngens=3):
    letters = tuple(
        (rng.randrange(ngens), rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randrange(maxlen + 1))
    )
    return Word(letters)


def _perm_det(spec, rows):
    n = len(rows)
    total = spec.zero()
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = spec.one() if inv % 2 == 0 else -spec.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def test_criterion_9_property_suites(capsys):
    failures = []
    rng = random.Random(20260823)

    # Fox fundamental identity, 1000 random words of length <= 20
    gens = [GroupRingElement.from_word(Word(((i, 1),))) for i in range(3)]
    for _ in range(1000):
        w = _rand_word(rng, 20)
        total = ZERO
        for i in range(3):
            total = total + fox_derive(w, i) * (gens[i] - ONE)
        if total != GroupRingElement.from_word(w) - ONE:
            failures.append(f"fox identity at {w.letters}")
            break

    # determinant vs permutation-sum oracle, up to 5x5
    zt = ring_make(0, (("t", 0),))
    z2t = ring_make(2, (("t", 2),))
    for _ in range(1000):
        spec = rng.choice((zt, z2t))
        n = rng.randrange(1, 6)
        rows = [
            [
                spec.monomial((rng.randrange(-1, 2),), rng.randrange(-2, 3))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        if det(spec, rows) != _perm_det(spec, rows):
            failures.append(f"det oracle at n={n}")
            break

    # ascending chain E_d <= E_{d+1}, random matrices over a finite ring
    for _ in range(1000):
        t_, s_ = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [
            [
                z2t.monomial((rng.randrange(2),), rng.randrange(2))
                + z2t.monomial((0,), rng.randrange(2))
                for _ in range(s_)
            ]
            for _ in range(t_)
        ]
        m = RingMatrix.build(z2t, rows)
        chain = [
            ideal_normalize(minors_ideal(m, d))
            for d in range(s_ + 1)
        ]
        for lower, upper in zip(chain, chain[1:]):
            if not all(ideal_contains(upper, g) for g in lower.generators):
                failures.append(f"chain broken, {t_}x{s_}")
                break
        else:
            continue
        break

    # presentation invariance: one-relator vs Wirtinger theta presentations
    for n in range(3, 8):
        p1 = theta_presentation(n)
        m1 = alexander_matrix(p1, theta_alpha(p1, n))
        p2 = theta_wirtinger_presentation(n)
        a2 = theta_wirtinger_alpha(p2, n, [1] * (n - 1) + [1 - n])
        m2 = alexander_matrix(p2, a2)
        for d in range(3 * n + 1):
            if not ideal_equals(elementary_ideal(m1, d), elementary_ideal(m2, d)):
                failures.append(f"invariance n={n} d={d}")
                break

    # conjugation invariance of twisted ideals over all of SL(2;Z_2)
    from foxcalc.maps import matrix_group_elements

    pres = parse_presentation("< x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1 >")
    alpha = cyclic_map(pres, (1, 1), 2)
    for rho, _ in conjugacy_classes(enumerate_homs(pres, n=2, p=2)):
        base = [
            elementary_ideal(twisted_matrix(pres, alpha, rho), d) for d in range(5)
        ]
        for b in matrix_group_elements(2, 2):
            conj = rho.conjugate(b)
            for d, want in enumerate(base):
                got = elementary_ideal(twisted_matrix(pres, alpha, conj), d)
                if not ideal_equals(got, want):
                    failures.append(f"conjugation d={d}")
    finish(capsys, 9, "randomized property suites", failures)
