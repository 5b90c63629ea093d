"""Alexander matrices, elementary ideals, and the two table builders."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxcalc import maps
from foxcalc.catalog import (
    YOSHIKAWA_KEYS,
    catalog_lookup,
    theta_alpha,
    theta_presentation,
    theta_wirtinger_alpha,
    theta_wirtinger_presentation,
)
from foxcalc.fox import fox_derive
from foxcalc.ideals import ideal_contains, ideal_equals, ideal_from, ideal_normalize
from foxcalc.ideals import principal_ideal, render_ideal
from foxcalc.invariants import (
    InvariantTable,
    TableKind,
    _fox_matrix,
    _fox_rows,
    _merge_rows,
    _skeleton,
    _table,
    alexander_matrix,
    alexander_polynomial,
    elementary_ideal,
    handlebody_invariant,
    least_sorted_rows,
    minors_ideal,
    surfacelink_invariant,
    twisted_matrix,
)
from foxcalc.maps import (
    MapError,
    MatrixRep,
    abelian_map,
    cyclic_map,
    enumerate_epis,
    hom_classes,
    lemma36_rho,
    matrix_group_elements,
    twins,
)
from foxcalc.presentations import Presentation, Word, parse_presentation
from foxcalc.rings import RingElement, RingError, RingMatrix, content_gcd, normalize_sign
from foxcalc.rings import reduce_matrix, ring_make
from foxcalc.smith import by_shape, zp_divisors, zp_elementary

ZT = ring_make(0, (("t", 0),))


def test_alexander_matrix_of_commutator():
    # <x, y | xyx^-1y^-1>, x,y -> t: row = (1 - t, t - 1)
    pres = parse_presentation("< x, y | x y x^-1 y^-1 >")
    alpha = cyclic_map(pres, (1, 1), 0)
    m = alexander_matrix(pres, alpha)
    one, t = m.spec.one(), m.spec.monomial((1,))
    assert m.entries[0][0] == one - t
    assert m.entries[0][1] == t - one


def test_alexander_matrix_dimensions():
    pres = theta_presentation(6)
    m = alexander_matrix(pres, theta_alpha(pres, 6))
    assert (m.declared_rows, m.declared_cols) == (1, 6)


def test_elementary_ideal_conventions():
    pres = parse_presentation("< x, y | x y x^-1 y^-1 >")
    m = alexander_matrix(pres, cyclic_map(pres, (1, 1), 0))
    # s=2, t=1: E_0 needs 2-minors of a 1-row matrix -> (0)
    assert ideal_normalize(minors_ideal(m, 0)).is_zero()
    # d >= s -> whole ring
    assert elementary_ideal(m, 2).is_unit()
    assert elementary_ideal(m, 5).is_unit()


def test_elementary_ideals_over_rings_with_no_variables():
    # x, y -> 1: the Fox matrix is [[2, -2], [4, 0]], with determinant 8
    pres = parse_presentation("< x, y | x^2 y^-2, x^4 >")
    alpha = abelian_map(pres, ((), ()), ())
    for p, want in [
        (0, ["(8)", "(2)", "(1)", "(1)"]),
        (2, ["(0)", "(0)", "(1)", "(1)"]),  # Z_2, a finite ring
        (3, ["(1)", "(1)", "(1)", "(1)"]),
    ]:
        m = alexander_matrix(pres, alpha, p)
        assert [render_ideal(elementary_ideal(m, d)) for d in range(4)] == want, p


def test_ideal_chain_is_ascending():
    # E_d is contained in E_{d+1} for the theta-curve matrices
    for n in (3, 4, 5):
        pres = theta_presentation(n)
        m = alexander_matrix(pres, theta_alpha(pres, n))
        ideals = [
            ideal_normalize(minors_ideal(m, d))
            for d in range(n + 1)
        ]
        for lower, upper in zip(ideals, ideals[1:]):
            for g in lower.generators:
                assert ideal_contains(upper, g)


def test_ideal_chain_ascending_random_matrices():
    rng = random.Random(37)
    spec = ring_make(2, (("t", 2),))
    for _ in range(40):
        t_, s_ = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [
            [
                spec.monomial((rng.randrange(2),), rng.randrange(2))
                + spec.monomial((0,), rng.randrange(2))
                for _ in range(s_)
            ]
            for _ in range(t_)
        ]
        m = RingMatrix.build(spec, rows)
        ideals = [
            ideal_normalize(minors_ideal(m, d))
            for d in range(s_ + 1)
        ]
        for lower, upper in zip(ideals, ideals[1:]):
            for g in lower.generators:
                assert ideal_contains(upper, g)


def test_presentation_invariance_theta_vs_wirtinger():
    # one-relator and Wirtinger presentations of the same group share
    # their whole elementary ideal sequence
    for n in (3, 4, 5):
        p1 = theta_presentation(n)
        m1 = alexander_matrix(p1, theta_alpha(p1, n))
        p2 = theta_wirtinger_presentation(n)
        a2 = theta_wirtinger_alpha(p2, n, [1] * (n - 1) + [1 - n])
        m2 = alexander_matrix(p2, a2)
        for d in range(3 * n + 1):
            assert ideal_equals(elementary_ideal(m1, d), elementary_ideal(m2, d)), (n, d)


def test_twisted_matrix_trivial_rep_reduces_to_untwisted():
    pres = parse_presentation("< x | x^2 >")
    alpha = cyclic_map(pres, (1,), 2)
    ident = ((1, 0), (0, 1))
    rho = MatrixRep(pres, 2, 2, (ident,))
    m = twisted_matrix(pres, alpha, rho)
    spec = m.spec
    one_plus_t = spec.one() + spec.monomial((1,))
    assert m.entries[0][0] == one_plus_t
    assert m.entries[1][1] == one_plus_t
    assert m.entries[0][1].is_zero() and m.entries[1][0].is_zero()


def test_twisted_matrix_swap_rep():
    pres = parse_presentation("< x | x^2 >")
    alpha = cyclic_map(pres, (1,), 2)
    rho = MatrixRep(pres, 2, 2, (((0, 1), (1, 0)),))
    m = twisted_matrix(pres, alpha, rho)
    spec = m.spec
    one, t = spec.one(), spec.monomial((1,))
    assert [[e for e in row] for row in m.entries] == [[one, t], [t, one]]


def test_twisted_matrix_theta5_first_column_block():
    # d(r)/dx_1 block: t^(-4) [[t + t^4, 1 + t], [1, t + t^4]] over Z_2
    n = 5
    pres = theta_presentation(n)
    m = twisted_matrix(pres, theta_alpha(pres, n), lemma36_rho(pres, n))
    spec = m.spec
    tm = lambda e: spec.monomial((e,))
    scale = tm(-4)
    expected = [
        [scale * (tm(1) + tm(4)), scale * (spec.one() + tm(1))],
        [scale * spec.one(), scale * (tm(1) + tm(4))],
    ]
    for a in range(2):
        for b in range(2):
            assert m.entries[a][b] == expected[a][b]


def test_conjugation_invariance_of_twisted_ideals():
    # conjugate representations give the same twisted ideal sequence
    pres = parse_presentation("< x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1 >")
    alpha = cyclic_map(pres, (1, 1), 2)
    from foxcalc.maps import conjugacy_classes, enumerate_homs

    for rho, _ in conjugacy_classes(enumerate_homs(pres, n=2, p=2)):
        base = [
            elementary_ideal(twisted_matrix(pres, alpha, rho), d)
            for d in range(2 * pres.s + 1)
        ]
        for b in matrix_group_elements(2, 2):
            conj = rho.conjugate(b)
            for d, want in enumerate(base):
                got = elementary_ideal(twisted_matrix(pres, alpha, conj), d)
                assert ideal_equals(got, want)


def test_alexander_polynomial_trefoil_like():
    pres = parse_presentation("< x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1 >")
    alpha = cyclic_map(pres, (1, 1), 0)
    g = alexander_polynomial(pres, alpha)
    one, t = ZT.one(), ZT.monomial((1,))
    assert g == one - t + t * t


def test_alexander_polynomial_zero_for_deficiency_two():
    pres = parse_presentation("< x, y, z | y^-1 x^-1 z x y z^-1 >")
    alpha = cyclic_map(pres, (1, 1, 1), 0)
    assert alexander_polynomial(pres, alpha).is_zero()


def test_alexander_polynomial_over_zp_is_monic():
    # one minor, which content_gcd used to return as it was (4+2t), and two
    # minors, whose sympy gcd is monic (1+t)
    z5t = ring_make(5, (("t", 0),))
    one, t = z5t.one(), z5t.monomial((1,))
    pres = parse_presentation("< x, y | x y^2 x^-1 y^-1 >")
    g = alexander_polynomial(pres, abelian_map(pres, ((1,), (0,)), (("t", 0),)), 5)
    assert g == z5t.from_int(2) + t
    pres = parse_presentation("< x, y | x^2 y^-2 >")
    assert alexander_polynomial(pres, cyclic_map(pres, (1, 1), 0), 5) == one + t


def _minors_alexander_polynomial(pres, alpha, modulus):
    """alexander_polynomial as it was over Z_p in one variable before it read
    E_1's generator: the gcd of the (s-1)-minors, made monic, the reference."""
    m = alexander_matrix(pres, alpha, modulus=modulus)
    ideal = minors_ideal(reduce_matrix(m), 1)
    if ideal.is_zero():
        return m.spec.zero()
    g = normalize_sign(content_gcd(ideal.generators).shift_to_origin())
    return g * m.spec.from_int(pow(g.sorted_terms()[-1][1], -1, modulus))


@st.composite
def killed_presentations(draw):
    """1 to 4 generators sent to t^a, a in {-2, -1, 1, 2} and 1 for the
    first, and 1 to 3 relators of up to 4 letters, exponents in -3..3, each
    closed by a power of the first generator so that alpha kills it."""
    s = draw(st.integers(1, 4))
    images = [1] + draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=s - 1, max_size=s - 1))
    letters = st.tuples(st.integers(0, s - 1), st.integers(-3, 3).filter(bool))
    relators = []
    for word in draw(st.lists(st.lists(letters, min_size=1, max_size=4), min_size=1, max_size=3)):
        total = sum(e * images[g] for g, e in word)
        relators.append(Word(tuple(word + [(0, -total)])))
    pres = Presentation(tuple(f"x{i}" for i in range(s)), tuple(relators))
    return pres, cyclic_map(pres, images, 0)


@settings(max_examples=300, deadline=None)
@given(killed_presentations(), st.sampled_from([2, 3]))
def test_alexander_polynomial_over_zp_matches_minors_route(case, p):
    pres, alpha = case
    try:
        want = _minors_alexander_polynomial(pres, alpha, p)
    except RingError:  # DET_CAP or MINOR_CAP: the minors route has no answer
        return
    assert alexander_polynomial(pres, alpha, p) == want


def test_alexander_polynomial_over_z3_past_det_cap():
    # x_i^2 x_(i+1)^-2 for i = 1..11: E_1 from one elimination, where the
    # minors route stopped at an 11 x 11 determinant
    names = [f"x{i}" for i in range(1, 13)]
    rels = ", ".join(f"{a}^2 {b}^-2" for a, b in zip(names, names[1:]))
    pres = parse_presentation(f"< {', '.join(names)} | {rels} >")
    alpha = cyclic_map(pres, (1,) * 12, 0)
    with pytest.raises(RingError, match="DET_CAP"):
        _minors_alexander_polynomial(pres, alpha, 3)
    assert alexander_polynomial(pres, alpha, 3).render() == "1+2t+t^2+t^9+2t^10+t^11"


@pytest.mark.parametrize(
    "source, k", [("< x, y | x^3 >", 3), ("< x, y | x y x^-1 y^-1 >", 4)]
)
def test_alexander_polynomial_refuses_finite_orders(source, k):
    # one generator of E_1 was returned as it was, two met poly_gcd's refusal
    pres = parse_presentation(source)
    with pytest.raises(RingError, match="gcd needs all variable orders 0"):
        alexander_polynomial(pres, cyclic_map(pres, (1, 1), k))


def test_theorem37_unreduced_reference():
    # E_{2n-2} from every 2x2 minor of the unreduced twisted matrix, the
    # reference for verify's reduced path
    from foxcalc.verify import check_theorem37

    for n in (5, 7):
        pres = theta_presentation(n)
        m = twisted_matrix(pres, theta_alpha(pres, n), lemma36_rho(pres, n))
        target = ideal_from(m.spec, (m.spec.one() + m.spec.monomial((1,)),))
        assert ideal_equals(minors_ideal(m, 2 * n - 2), target), n
        assert check_theorem37(n), n


def test_surfacelink_invariant_unknotted_sphere():
    pres = parse_presentation("< x | >")
    table = surfacelink_invariant(pres)
    assert table.render() == "{(0,1)_3}"


def test_surfacelink_rows_sorted_and_merged():
    pres = parse_presentation("< x, y | x y x y^-1, x^2 >")
    table = surfacelink_invariant(pres)
    rows = table.rows
    assert sum(mult for _, mult in rows) == 5  # five conjugacy classes
    lengths = [len(entries) for entries, _ in rows]
    assert lengths == sorted(lengths)


def _minors_entry(m, d):
    """A table entry through the unit-pivot reduction and the minors."""
    return render_ideal(ideal_normalize(minors_ideal(reduce_matrix(m), d)))[1:-1]


def _table_outcome(build):
    try:
        return build().render()
    except MapError as exc:  # alpha does not kill a relator
        return str(exc)


def _reference_surfacelink(pres, p, k, n=2):
    """surfacelink_invariant from the minors of each reduced twisted matrix."""
    alpha = cyclic_map(pres, (1,) * pres.s, k)
    rows = []
    for rho, _ in hom_classes(pres, n=n, p=p):
        m, entries = twisted_matrix(pres, alpha, rho), []
        for d in range(1, n * pres.s + 1):
            entries.append(_minors_entry(m, d))
            if entries[-1] == "1":
                break
        rows.append(tuple(entries))
    rows.sort(key=lambda r: (len(r), r))
    merged = [(row, sum(1 for r in rows if r == row)) for row in dict.fromkeys(rows)]
    return InvariantTable(TableKind.ROW_FORM, tuple(merged), 0)


@pytest.mark.parametrize("key", YOSHIKAWA_KEYS)
def test_surfacelink_invariant_matches_minors_reference(key):
    pres = catalog_lookup(f"yoshikawa:{key}").presentation
    for p in (2, 3):
        for k in (0, 2, 3):
            want = _table_outcome(lambda: _reference_surfacelink(pres, p, k))
            assert _table_outcome(lambda: surfacelink_invariant(pres, p=p, k=k)) == want, (p, k)


@pytest.mark.parametrize("source", ["theta:3", "yoshikawa:8_1", "yoshikawa:10_1^0,0,1"])
def test_handlebody_invariant_matches_minors_reference(source):
    pres = catalog_lookup(source).presentation
    for k, d in ((2, 1), (2, 2), (3, 2), (2, 4)):
        epis = enumerate_epis(pres, k)
        rows = [
            tuple(_minors_entry(twisted_matrix(pres, alpha, rho), d) for alpha in epis)
            for rho, _ in hom_classes(pres, n=2, p=2)
        ]
        best = least_sorted_rows(rows, len(epis))
        merged = tuple((row, best.count(row)) for row in dict.fromkeys(best))
        want = InvariantTable(TableKind.MATRIX_FORM, merged, len(epis))
        assert handlebody_invariant(pres, k=k, d=d) == want, (k, d)


def test_handlebody_invariant_free_group():
    pres = parse_presentation("< x, y | >")
    table = handlebody_invariant(pres)
    assert table.render() == "{(1,1,1)_11}"
    assert table.columns == 3


@pytest.mark.parametrize("source", ["< x, y | >", "< x, y, z | >"])
def test_shape_decided_handlebody_tables_walk_no_relator(source, monkeypatch):
    # with no relators the shape decides every E_d (q = 2 s - d > 0 rows, or
    # q <= 0): the table evaluates one row, of one class, and walks nothing
    from foxcalc import invariants

    pres, walks, calls = parse_presentation(source), [], []
    fox_rows, elementary = invariants._fox_rows, invariants.zp_elementary

    def walking(*args):  # a generator: appends once the walk is read
        walks.append(args)
        yield from fox_rows(*args)

    def counting(*args):
        calls.append(args)
        return elementary(*args)

    classes = {p: hom_classes(pres, p=p) for p in (3, 5)}
    monkeypatch.setattr(invariants, "hom_classes", lambda pres, n, p: classes[p])
    for p, k in itertools.product((3, 5), (2, 3, 4)):
        epis = enumerate_epis(pres, k)
        # over SL(2;Z_5) at k = 3 and 4 the rank 3 free group has 29,288
        # classes by 26 and 56 epis: every entry (0), as q = 6 - d > 0 rows,
        # where the per-entry reference takes about 15 s
        per = None
        if pres.s == 2 or p == 3 or k == 2:
            (entries, render), ds = _table(ring_make(p, (("t", k),))), range(1, 5)
            per = [
                [render(tuple(entries(pres, a, rho, ds))) for a in epis]
                for rho, _ in classes[p]
            ]
        for d in range(1, 5):
            assert by_shape(2 * pres.t, 2 * pres.s, d) is not None
            if per is None:
                want = ((("0",) * len(epis), len(classes[p])),)
            else:
                raw = [tuple(cell[d - 1] for cell in row) for row in per]
                want = _merge_rows(least_sorted_rows(raw, len(epis)))
            monkeypatch.setattr(invariants, "_fox_rows", walking)
            monkeypatch.setattr(invariants, "zp_elementary", counting)
            assert handlebody_invariant(pres, p=p, k=k, d=d).rows == want, (p, k, d)
            monkeypatch.setattr(invariants, "_fox_rows", fox_rows)
            monkeypatch.setattr(invariants, "zp_elementary", elementary)
            assert len(calls) == len(epis), (p, k, d)
            calls.clear()
    assert walks == []



def test_one_elimination_per_matrix(monkeypatch):
    # E_d asked one d at a time of one matrix costs one Smith elimination;
    # none where the shape decides every d asked; a fresh, equal matrix pays
    # for its own
    from foxcalc import smith

    calls, divisors = [], smith.zp_divisors

    def counting(rows, p):
        calls.append(p)
        return divisors(rows, p)

    monkeypatch.setattr(smith, "zp_divisors", counting)
    pres = theta_presentation(5)
    alpha, rho = theta_alpha(pres, 5), lemma36_rho(pres, 5)
    m = twisted_matrix(pres, alpha, rho)
    ds = range(m.declared_cols + 2)
    got = [render_ideal(elementary_ideal(m, d)) for d in ds]
    assert got == ["(0)"] * 8 + ["(1+t)"] + ["(1)"] * 3  # Theorem 3.7 at n = 5
    assert len(calls) == 1
    fresh = twisted_matrix(pres, alpha, rho)
    assert fresh == m
    shaped = [d for d in ds if by_shape(m.declared_rows, m.declared_cols, d) is not None]
    assert shaped == [*range(8), 10, 11]  # 2 x 10: only E_8 and E_9 need the elimination
    assert [render_ideal(elementary_ideal(fresh, d)) for d in shaped] == ["(0)"] * 8 + ["(1)"] * 2
    assert len(calls) == 1
    assert render_ideal(elementary_ideal(fresh, 8)) == "(1+t)"
    assert len(calls) == 2


def test_row_render_keeps_parentheses_of_several_generators():
    table = InvariantTable(
        TableKind.ROW_FORM, ((("0", "1+t+t^2", "1+2t,1+t", "1"), 1),), 0
    )
    assert table.render() == "{(0,1+t+t^2,(1+2t,1+t),1)_1}"
    # the stored entries, and so the JSON and the row order, keep no parentheses
    assert table.to_json()["rows"][0]["entries"][2] == "1+2t,1+t"


def brute_force_least_sorted_rows(rows, columns):
    best = None
    for perm in itertools.permutations(range(columns)):
        candidate = sorted(tuple(row[j] for j in perm) for row in rows)
        if best is None or candidate < best:
            best = candidate
    return best


@st.composite
def tables(draw):
    columns = draw(st.integers(0, 7))
    entry = st.sampled_from(draw(st.sampled_from(["0", "01", "012", "0123"])))
    row = st.tuples(*[entry] * columns)
    rows = draw(st.lists(row, max_size=8))
    if rows and draw(st.booleans()):  # duplicate rows
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations(rows)), columns


@settings(max_examples=250, deadline=None)
@given(tables())
def test_least_sorted_rows_matches_permutation_brute_force(table):
    rows, columns = table
    assert least_sorted_rows(rows, columns) == brute_force_least_sorted_rows(rows, columns)


def test_least_sorted_rows_matches_brute_force_on_dense_binary_tables():
    # ties between partial tables are common here, which random tables of
    # few rows rarely reach
    rng = random.Random(7)
    for _ in range(1500):
        columns = rng.randint(2, 5)
        rows = [tuple(rng.choice("01") for _ in range(columns)) for _ in range(rng.randint(3, 8))]
        want = brute_force_least_sorted_rows(rows, columns)
        assert least_sorted_rows(rows, columns) == want, rows


def test_least_sorted_rows_edge_cases():
    assert least_sorted_rows([], 0) == []
    assert least_sorted_rows([], 5) == []
    assert least_sorted_rows([(), ()], 0) == [(), ()]
    assert least_sorted_rows([("0",) * 7] * 5, 7) == [("0",) * 7] * 5


def test_least_sorted_rows_symmetric_tables_stay_small(monkeypatch):
    # every column permutation of these keeps the rows: without jumping back
    # the search would reach every one of them
    from foxcalc import invariants

    monkeypatch.setattr(invariants, "CANON_NODE_CAP", 2000)
    for c in (8, 12, 16):
        identity = [tuple("1" if i == j else "0" for j in range(c)) for i in range(c)]
        assert least_sorted_rows(identity, c) == sorted(identity)
    monkeypatch.setattr(invariants, "CANON_NODE_CAP", 10)
    with pytest.raises(MapError, match="CANON_NODE_CAP = 10"):
        least_sorted_rows(identity, 16)


def test_table_json_mirror():
    pres = parse_presentation("< x | >")
    table = surfacelink_invariant(pres)
    js = table.to_json()
    assert js["rows"] == [{"entries": ["0", "1"], "multiplicity": 3}]


def fox_reference(pres, alpha, rho, modulus):
    """Rows of the (rho tensor alpha)-image of the Fox Jacobian, mapping each
    term of fox_derive by the word_image methods; rho None is the trivial
    1x1 representation."""
    n = rho.n if rho else 1
    spec = ring_make(modulus, alpha.variables)
    rows = []
    for rel in pres.relators:
        blocks = []
        for j in range(pres.s):
            images = [
                (alpha.word_image(w), rho.word_image(w) if rho else ((1,),), c)
                for w, c in fox_derive(rel, j).terms.items()
            ]
            block = [[{} for _ in range(n)] for _ in range(n)]
            for exps, mat, c in images:
                for a in range(n):
                    for b in range(n):
                        terms = block[a][b]
                        terms[exps] = terms.get(exps, 0) + c * mat[a][b]
            blocks.append(block)
        for a in range(n):
            rows.append(
                [RingElement(spec, block[a][b]) for block in blocks for b in range(n)]
            )
    return rows


@st.composite
def fox_cases(draw):
    """Maps defined on the free group, so any words may serve as relators:
    one or two variables of order 0, 2, 3 or 5 with steps -3..3, or one of
    order 1, 7 or 1,000 with steps up to +-1,000, steps 0 and -1 drawn often,
    whose columns span a multiple of the order, or the order or more."""
    s = draw(st.integers(1, 2))
    names = ("x", "y")[:s]
    if draw(st.booleans()):
        variables = (("t", draw(st.sampled_from([1, 7, 1000]))),)
        exps = st.tuples(st.sampled_from([0, -1]) | st.integers(-1000, 1000))
    else:
        orders = draw(st.lists(st.sampled_from([0, 2, 3, 5]), min_size=1, max_size=2))
        variables = tuple(zip(("t", "u"), orders))
        exps = st.tuples(*[st.integers(-3, 3)] * len(variables))
    alpha = abelian_map(
        Presentation(names, ()),
        draw(st.lists(exps, min_size=s, max_size=s)),
        variables,
    )
    letter = st.tuples(st.integers(0, s - 1), st.integers(-1000, 1000).filter(bool))
    words = st.lists(st.lists(letter, min_size=1, max_size=6), min_size=1, max_size=2)
    pres = Presentation(names, tuple(Word(tuple(w)) for w in draw(words)))
    target = draw(st.sampled_from([None, (2, True), (3, True), (3, False)]))
    if target is None:
        return pres, alpha, None, draw(st.sampled_from([0, 2, 3]))
    p, special = target
    elements = matrix_group_elements(2, p, special)
    images = draw(st.lists(st.sampled_from(elements), min_size=s, max_size=s))
    rho = MatrixRep(Presentation(names, ()), p, 2, tuple(images), special)
    return pres, alpha, rho, p


@pytest.mark.parametrize(
    "word, steps, k",
    [
        ([(0, -1), (1, 1), (0, 1), (1, -1)], (1, 1), 1000),  # columns across 0, a multiple of k
        ([(0, 1500), (1, -1500)], (1, 1), 1000),  # a period and 500 terms of each letter
        ([(0, 999), (1, -2), (0, -999), (1, 2)], (-1, 0), 1000),  # steps -1 and 0
        ([(0, 2147483647), (1, -2147483647)], (1, 1), 7),  # 2^31 - 1 terms in 7 slots
        ([(0, 1001), (1, 3)], (-3, 500), 1000),  # stride 3 mod 1000, not a rotation
    ],
)
def test_fox_matrix_long_letters_fold_as_the_reference(word, steps, k):
    # the walk folds a column's terms mod k only where they span k or more,
    # adding each residue class of a long letter by slices
    free = Presentation(("x", "y"), ())
    alpha = abelian_map(free, [(d,) for d in steps], (("t", k),))
    pres = Presentation(("x", "y"), (Word(tuple(word)),))
    rho = MatrixRep(free, 3, 2, (((1, 1), (0, 1)), ((0, 1), (2, 0))))
    count = sum(abs(e) for _, e in word)
    if count < 10**4:  # fox_derive lists every term
        assert [list(r) for r in alexander_matrix(pres, alpha, 3).entries] == fox_reference(
            pres, alpha, None, 3
        )
        assert [list(r) for r in twisted_matrix(pres, alpha, rho).entries] == fox_reference(
            pres, alpha, rho, 3
        )
    else:  # x^m y^-m: the row (1 + t + ... + t^(m-1), -(the same)), m mod k folded
        q, r = divmod(count // 2, k)
        spec = ring_make(3, (("t", k),))
        run = RingElement(spec, (0, [q + (i < r) for i in range(k)]))
        assert alexander_matrix(pres, alpha, 3).entries == ((run, -run),)


@settings(max_examples=80, deadline=None)
@given(fox_cases())
def test_fox_matrix_matches_fox_derive_reference(case):
    pres, alpha, rho, modulus = case
    if rho is None:
        m = alexander_matrix(pres, alpha, modulus)
    else:
        m = twisted_matrix(pres, alpha, rho)
    n = rho.n if rho else 1
    assert (m.declared_rows, m.declared_cols) == (n * pres.t, n * pres.s)
    assert [list(row) for row in m.entries] == fox_reference(pres, alpha, rho, modulus)


@settings(max_examples=80, deadline=None)
@given(fox_cases())
def test_alexander_matrix_matches_the_checked_trivial_rep(case):
    # the trivial representation alexander_matrix walks with, unchecked, is
    # the one MatrixRep builds and checks against every relator
    pres, alpha, _, modulus = case
    checked = MatrixRep(pres, 2, 1, (((1,),),) * pres.s)
    want = _fox_matrix(pres, alpha, checked, modulus)
    assert alexander_matrix(pres, alpha, modulus) == want


def test_alexander_matrix_walks_no_relator_through_the_group(monkeypatch):
    def word(self, letters, images):
        raise AssertionError("_IndexedGroup.word called")

    pres = theta_presentation(7)
    alpha = theta_alpha(pres, 7)
    want = alexander_matrix(pres, alpha)
    monkeypatch.setattr(maps._IndexedGroup, "word", word)
    assert alexander_matrix(pres, alpha) == want
    with pytest.raises(AssertionError):  # as the checked MatrixRep would
        MatrixRep(pres, 2, 1, (((1,),),) * pres.s)


@st.composite
def gl_fusion_cases(draw):
    """2- and 3-generator presentations whose relators have exponent sum 0,
    so every generator may go to t, with a target SL(2;Z_p); 3 generators
    only over Z_3, where the free group still has few classes."""
    p = draw(st.sampled_from([3, 5]))
    s = draw(st.integers(2, 3 if p == 3 else 2))
    letter = st.tuples(st.integers(0, s - 1), st.sampled_from([-2, -1, 1, 2]))
    relators = []
    for word in draw(st.lists(st.lists(letter, min_size=1, max_size=5), max_size=2)):
        total = sum(e for _, e in word)
        relators.append(Word(tuple(word) + (((0, -total),) if total else ())))
    names = ("x", "y", "z")[:s]
    return Presentation(names, tuple(relators)), p, draw(st.sampled_from([0, 2, 3, 4]))


def every_class_generators(pres, alpha, rho, ds):
    """The ring and the zp_elementary generators of E_d of the twisted matrix
    of one class, on the Fox walk of that very class, with no row lent."""
    spec = ring_make(rho.p, alpha.variables)
    rows = list(_fox_rows(_skeleton(pres, alpha), rho, rho.p))
    divisors = lambda: zp_divisors(rows, rho.p)
    return spec, list(zp_elementary(spec, divisors, rho.n * pres.t, rho.n * pres.s, ds))


def every_class_entries(pres, alpha, rho, ds):
    """E_d of the twisted matrix of one class, as table entries."""
    spec, gens = every_class_generators(pres, alpha, rho, ds)
    return [render_ideal(principal_ideal(spec, g))[1:-1] for g in gens]


def brute_force_least_conjugate(group, images):
    rows = [group.conjugates(x) for x in images]
    return min(tuple(row[b] for row in rows) for b in group.everything)


@settings(max_examples=40, deadline=None)
@given(gl_fusion_cases(), st.randoms(use_true_random=False))
def test_tables_per_gl_class_match_every_class_reference(case, rng):
    # a row is evaluated once per orbit of SL-classes under GL-conjugation
    # and the central twists, and lent to the class's twins; the reference
    # evaluates every class
    pres, p, k = case
    classes = hom_classes(pres, p=p)
    group = classes[0][0].indexed()[0]
    reps = {rho.indexed()[1] for rho, _ in classes}
    for rho, _ in classes:
        images = rho.indexed()[1]
        assert group.least_conjugate(images) == images
        b = rng.randrange(len(group.elements))
        conjugated = tuple(group.conjugates(x)[b] for x in images)
        assert group.least_conjugate(conjugated) == images
        for twin, _ in twins(rho):
            assert twin in reps and twin != images
            assert group.least_conjugate(twin) == twin
    for x in rng.sample(range(len(group.elements)), 6):
        images = (x, rng.randrange(len(group.elements)), rng.randrange(len(group.elements)))
        assert group.least_conjugate(images) == brute_force_least_conjugate(group, images)

    alpha = cyclic_map(pres, (1,) * pres.s, k)
    rows = []
    for rho, _ in classes:
        entries = every_class_entries(pres, alpha, rho, range(1, 2 * pres.s + 1))
        rows.append(tuple(entries[: entries.index("1") + 1]))
    rows.sort(key=lambda r: (len(r), r))
    assert surfacelink_invariant(pres, p=p, k=k).rows == _merge_rows(rows)

    k, d = max(k, 2), rng.choice([1, 2])
    epis = enumerate_epis(pres, k)
    raw = [
        tuple(every_class_entries(pres, alpha, rho, (d,))[0] for alpha in epis)
        for rho, _ in classes
    ]
    want = _merge_rows(least_sorted_rows(raw, len(epis)))
    assert handlebody_invariant(pres, p=p, k=k, d=d).rows == want


@st.composite
def central_twist_cases(draw):
    """A gl_fusion_cases presentation, alpha exponents in -2..2 that kill its
    relators mod k, and zeta in Z_p^* with zeta^2 = 1 and zeta^k = 1."""
    pres, p, k = draw(gl_fusion_cases())
    sums = [rel.exponent_sums(pres.s) for rel in pres.relators]

    def image(a, es):
        v = sum(x * e for x, e in zip(a, es))
        return v % k if k else v

    killing = [
        a
        for a in itertools.product(range(-2, 3), repeat=pres.s)
        if not any(image(a, es) for es in sums)
    ]
    exponents = draw(st.sampled_from(killing))
    zetas = [z for z in range(1, p) if z * z % p == 1 and (not k or pow(z, k, p) == 1)]
    return pres, p, cyclic_map(pres, exponents, k), draw(st.sampled_from(zetas))


@settings(max_examples=40, deadline=None)
@given(central_twist_cases(), st.randoms(use_true_random=False))
def test_central_twist_maps_t_to_zeta_t(case, rng):
    # rho zeta^alpha sends generator g to zeta^alpha(x_g) rho(x_g): its
    # twisted matrix is rho's with t -> zeta t, and so are its E_d; twins
    # pairs each other class of rho's orbit with such a zeta
    pres, p, alpha, zeta = case
    classes = hom_classes(pres, p=p)
    reps = {rho.indexed()[1]: rho for rho, _ in classes}
    group, ds = classes[0][0].indexed()[0], range(1, 2 * pres.s + 1)

    def at_zeta_t(spec, gens, z):
        runs = ((0, tuple(c * z**i % p for i, c in enumerate(g))) for g in gens)
        return [render_ideal(ideal_from(spec, (RingElement(spec, r),)))[1:-1] for r in runs]

    for rho, _ in rng.sample(classes, min(4, len(classes))):
        spec, gens = every_class_generators(pres, alpha, rho, ds)
        images = tuple(
            tuple(tuple(c * pow(zeta, e, p) % p for c in row) for row in m)
            for m, (e,) in zip(rho.images, alpha.images)
        )
        twisted = MatrixRep(pres, p, 2, images)
        assert every_class_entries(pres, alpha, twisted, ds) == at_zeta_t(spec, gens, zeta)
        for twin, z in twins(rho, alpha):
            assert twin in reps and twin != rho.indexed()[1]
            assert group.least_conjugate(twin) == twin
            want = at_zeta_t(spec, gens, z)
            assert every_class_entries(pres, alpha, reps[twin], ds) == want


def test_gl_twins_fuse_the_paper_tables_rows(monkeypatch):
    # the 46 Table 3 operations of the benchmark's paper-tables workload
    # evaluate 436 rows for their 1,081 classes: all 147 over SL(2;Z_2),
    # which has no twins, and 289 for the 934 classes over SL(2;Z_3), lent
    # across GL-conjugation and the central twist by -1
    from foxcalc import invariants

    counts = {"classes": 0, "rows": 0}
    fuse = invariants._per_orbit

    def counting(classes, row, alpha=None):
        counts["classes"] += len(classes)

        def counted(rho):
            counts["rows"] += 1
            return row(rho)

        return fuse(classes, counted, alpha)

    monkeypatch.setattr(invariants, "_per_orbit", counting)
    seen = []
    for p in (2, 3):
        for key in YOSHIKAWA_KEYS:
            surfacelink_invariant(catalog_lookup(f"yoshikawa:{key}").presentation, p=p)
        seen.append(dict(counts))
    assert seen == [{"classes": 147, "rows": 147}, {"classes": 1081, "rows": 436}]
