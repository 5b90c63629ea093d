"""Abelianizations, SL(2;Z_p) representations, and their enumeration."""

import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foxcalc.maps import (
    MapError,
    MatrixRep,
    _indexed_group,
    abelian_map,
    conjugacy_classes,
    cyclic_map,
    enumerate_epis,
    enumerate_homs,
    hom_classes,
    lemma36_rho,
    mat_det,
    mat_identity,
    mat_inv,
    mat_mul,
    matrix_group_elements,
)
from foxcalc.presentations import Presentation, Word, parse_presentation


def burnside_class_count(elements, p, s):
    """Number of conjugation orbits on s-tuples: (1/|G|) sum |C(g)|^s."""
    total = 0
    for g in elements:
        cent = sum(
            1
            for h in elements
            if mat_mul(g, h, p) == mat_mul(h, g, p)
        )
        total += cent**s
    assert total % len(elements) == 0
    return total // len(elements)


def test_sl2z2_has_six_elements():
    els = matrix_group_elements(2, 2)
    assert len(els) == 6
    # closed under product and inverse
    for a in els:
        assert mat_inv(a, 2) in els
        for b in els:
            assert mat_mul(a, b, 2) in els


def test_free_group_hom_counts_match_burnside():
    for p, s in itertools.product((2, 3), (1, 2, 3)):
        els = matrix_group_elements(2, p)
        names = ", ".join(f"g{i}" for i in range(s))
        pres = parse_presentation(f"< {names} | >")
        homs = enumerate_homs(pres, n=2, p=p)
        assert len(homs) == len(els) ** s
        classes = conjugacy_classes(homs)
        assert len(classes) == burnside_class_count(els, p, s)
        assert sum(size for _, size in classes) == len(homs)


def test_matrix_group_elements_rejects_non_prime_moduli():
    for p in (0, 1, 4, 6, 9, -3):
        with pytest.raises(MapError):
            matrix_group_elements(2, p)
    with pytest.raises(MapError):
        enumerate_homs(parse_presentation("< x | x^2 >"), n=2, p=4)


def test_huge_exponents_reduce_by_element_order():
    # 100001 is prime to 12, the exponent of SL(2;Z_3), so x^100001 = y^100001
    # forces x = y: one hom per element.
    pres = parse_presentation("< x, y | x^100001 y^-100001 >")
    homs = enumerate_homs(pres, n=2, p=3)
    assert len(homs) == 24
    assert all(h.images[0] == h.images[1] for h in homs)


# ---------------------------------------------------------------------------
# Indexed group against plain matrix arithmetic.


@functools.cache
def ref_power(m, e, p):
    """m^e by repeated squaring with mat_mul."""
    if e < 0:
        return ref_power(mat_inv(m, p), -e, p)
    out, base = mat_identity(len(m)), m
    while e:
        if e & 1:
            out = mat_mul(out, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return out


def ref_word_image(images, word, p):
    out = mat_identity(len(images[0]))
    for g, e in word.letters:
        out = mat_mul(out, ref_power(images[g], e, p), p)
    return out


def ref_homs(pres, elements, p):
    ident = mat_identity(2)
    return [
        images
        for images in itertools.product(elements, repeat=pres.s)
        if all(ref_word_image(images, rel, p) == ident for rel in pres.relators)
    ]


def ref_classes(homs, elements, p):
    """(representative, size) by conjugating each unseen hom's matrices."""
    position = {h: i for i, h in enumerate(homs)}
    seen, out = set(), []
    for i, h in enumerate(homs):
        if i in seen:
            continue
        orbit = {
            position[tuple(mat_mul(mat_mul(b, m, p), mat_inv(b, p), p) for m in h)]
            for b in elements
        }
        seen |= orbit
        out.append((homs[min(orbit)], len(orbit)))
    return out


def ref_mat_det(a, p):
    """The determinant mod p, expanded over all n! permutations, each
    signed by the parity of its cycle decomposition."""
    n, total = len(a), 0
    for perm in itertools.permutations(range(n)):
        sign, seen = 1, [False] * n
        for i in range(n):
            j, length = i, 0
            while not seen[j]:
                seen[j], j, length = True, perm[j], length + 1
            if length and length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total % p


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n).map(tuple), min_size=n, max_size=n
    ).map(tuple)
)


@settings(max_examples=200, deadline=None)
@given(square_matrices, st.sampled_from([2, 3, 5, 7]))
def test_mat_det_matches_permutation_expansion(a, p):
    assert mat_det(a, p) == ref_mat_det(a, p)


def brute_force_conjugation(group):
    """conj[y][b]: the index of b y b^-1, by matrix arithmetic."""
    p, elements = group.p, group.elements
    inverses = [mat_inv(b, p) for b in elements]
    return [
        [group.index[mat_mul(mat_mul(b, y, p), b_inv, p)] for b, b_inv in zip(elements, inverses)]
        for y in elements
    ]


@pytest.mark.parametrize("p, special", [(2, True), (3, True), (5, True), (3, False)])
def test_orbit_table_matches_brute_force(p, special):
    # H: the whole group and every stabilizer a search on three generators
    # reaches
    group = _indexed_group(2, p, special)
    conj = brute_force_conjugation(group)
    subgroups, level = {group.everything}, [group.everything]
    for _ in range(2):
        level = list(dict.fromkeys(h for sub in level for h in group.orbits(sub)[0].values()))
        subgroups.update(level)
    for sub in subgroups:
        stabilizers, leaders = group.orbits(sub)
        members = set(sub)
        least = [min(row[b] for b in sub) for row in conj]
        assert list(stabilizers) == sorted(set(least))
        assert sorted(leaders) == list(range(len(conj)))
        for y, (x, b) in leaders.items():
            assert x == least[y] and b in members and conj[y][b] == x
        for x, stabilizer in stabilizers.items():
            assert stabilizer == tuple(b for b in sub if conj[x][b] == x)


exponents = st.one_of(
    st.integers(-4, 4), st.integers(-(10**6), 10**6)
).filter(bool)


@st.composite
def presentations_and_words(draw):
    s = draw(st.integers(1, 2))
    letter = st.tuples(st.integers(0, s - 1), exponents)
    words = st.lists(letter, min_size=1, max_size=3).map(lambda ls: Word(tuple(ls)))
    relators = draw(st.lists(words, min_size=1, max_size=2))
    return Presentation(("x", "y")[:s], tuple(relators)), draw(words)


@settings(max_examples=30, deadline=None)
@given(
    target=st.sampled_from([(2, True), (3, True), (3, False)]),
    case=presentations_and_words(),
)
def test_indexed_group_matches_matrix_arithmetic(target, case):
    p, special = target
    pres, word = case
    elements = matrix_group_elements(2, p, special)
    homs = enumerate_homs(pres, n=2, p=p, special=special)
    want = ref_homs(pres, elements, p)
    assert [h.images for h in homs] == want
    classes = conjugacy_classes(homs)
    assert [(r.images, size) for r, size in classes] == ref_classes(want, elements, p)
    for h in homs:
        assert h.word_image(word) == ref_word_image(h.images, word, p)


def test_involution_group_homs():
    pres = parse_presentation("< x | x^2 >")
    homs = enumerate_homs(pres, n=2, p=2)
    assert len(homs) == 4  # identity plus the three involutions
    assert len(conjugacy_classes(homs)) == 2


def test_hom_enumeration_checks_relators():
    pres = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1, x^3 y x^-3 y^-1 >")
    homs = enumerate_homs(pres, n=2, p=2)
    ident = mat_identity(2)
    for h in homs:
        for rel in pres.relators:
            assert h.word_image(rel) == ident


def test_class_representative_is_least_member():
    pres = parse_presentation("< x | x^2 >")
    homs = enumerate_homs(pres, n=2, p=2)
    order = {h.images: i for i, h in enumerate(homs)}
    for rep, size in conjugacy_classes(homs):
        orbit = {rep.conjugate(b).images for b in matrix_group_elements(2, 2)}
        assert order[rep.images] == min(order[o] for o in orbit)
        assert size == len(orbit)


@pytest.mark.parametrize("source, p", [("< x, y | x y x y^-1 x^-1 y^-1 >", 3), ("< x, y | >", 2)])
def test_search_made_reps_equal_validated_reps(source, p):
    # hom_classes and enumerate_homs skip MatrixRep's relator walk for homs
    # the search has checked
    pres = parse_presentation(source)
    reps = [rep for rep, _ in hom_classes(pres, n=2, p=p)] + enumerate_homs(pres, n=2, p=p)
    for rep in reps:
        validated = MatrixRep(pres, p, 2, rep.images)
        assert rep == validated and hash(rep) == hash(validated)
        assert rep.indexed() == validated.indexed()


def test_enumerate_epis_counts_and_order():
    f2 = parse_presentation("< x, y | >")
    epis = enumerate_epis(f2, 2)
    assert [tuple(i[0] for i in e.images) for e in epis] == [(0, 1), (1, 0), (1, 1)]
    z2 = parse_presentation("< x | x^2 >")
    assert len(enumerate_epis(z2, 2)) == 1
    z3gen = parse_presentation("< x | x^3 >")
    assert len(enumerate_epis(z3gen, 2)) == 0  # x must map to 0, not onto


def test_enumerate_epis_budget(monkeypatch):
    # the k^s assignments are counted before any is tried
    from foxcalc import maps

    f2 = parse_presentation("< x, y | >")
    monkeypatch.setattr(maps, "HOM_SEARCH_NODE_CAP", 9)
    assert len(enumerate_epis(f2, 3)) == 8
    with pytest.raises(MapError, match="HOM_SEARCH_NODE_CAP = 9"):
        enumerate_epis(f2, 4)


def test_abelian_map_rejects_unkilled_relator():
    pres = parse_presentation("< x, y | x^2 y >")
    with pytest.raises(MapError):
        cyclic_map(pres, (1, 1), 0)
    # but x -> t, y -> t^-2 is fine
    cyclic_map(pres, (1, -2), 0)


def test_abelian_map_word_image_respects_orders():
    pres = parse_presentation("< x, y | y^2 >")
    alpha = abelian_map(pres, ((1, 0), (0, 1)), (("x", 0), ("y", 2)))
    w = pres.relators[0]
    assert alpha.word_image(w) == (0, 0)


def test_matrix_rep_validates_relators():
    pres = parse_presentation("< x | x^2 >")
    swap = ((0, 1), (1, 0))
    shear = ((1, 1), (0, 1))  # also an involution mod 2
    MatrixRep(pres, 2, 2, (swap,))
    MatrixRep(pres, 2, 2, (shear,))
    pres3 = parse_presentation("< x | x^3 >")
    with pytest.raises(MapError):
        MatrixRep(pres3, 2, 2, (swap,))
    with pytest.raises(MapError, match="not invertible"):
        MatrixRep(pres, 2, 2, (((1, 1), (1, 1)),))
    with pytest.raises(MapError, match="not in SL"):
        MatrixRep(pres, 3, 2, (((2, 0), (0, 1)),))
    MatrixRep(pres, 3, 2, (((2, 0), (0, 1)),), special=False)
    MatrixRep(pres, 3, 2, (((-1, 3), (0, 5)),))  # entries reduced mod p
    with pytest.raises(MapError, match="not invertible"):
        MatrixRep(pres, 2, 2, (swap,)).conjugate(((1, 1), (1, 1)))


def test_conjugate_is_still_a_representation():
    pres = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")
    for h in enumerate_homs(pres, n=2, p=2):
        for b in matrix_group_elements(2, 2):
            h.conjugate(b)  # constructor re-validates the relators


def test_lemma36_family_n5():
    from foxcalc.catalog import theta_presentation

    a = ((0, 1), (1, 1))
    b = ((0, 1), (1, 0))
    c = ((1, 0), (1, 1))
    rho = lemma36_rho(theta_presentation(5), 5)
    assert rho.images == (a, a, a, b, c)
    rho = lemma36_rho(theta_presentation(7), 7)
    assert rho.images == (a, a, a, b, c, b, c)


def test_lemma36_rejects_other_indices():
    from foxcalc.catalog import theta_presentation

    for n in (6, 8, 9):
        with pytest.raises(MapError):
            lemma36_rho(theta_presentation(n), n)


# ---------------------------------------------------------------------------
# The class search against brute force.


def brute_force_classes(pres, p):
    """All homs by itertools.product over the group, classes by conjugating
    each of them (conjugacy_classes)."""
    elements = matrix_group_elements(2, p)
    homs = [MatrixRep(pres, p, 2, images) for images in ref_homs(pres, elements, p)]
    return homs, conjugacy_classes(homs)


def check_against_brute_force(pres, p):
    homs, classes = brute_force_classes(pres, p)
    assert [h.images for h in enumerate_homs(pres, n=2, p=p)] == [h.images for h in homs]
    assert [(r.images, size) for r, size in hom_classes(pres, n=2, p=p)] == [
        (r.images, size) for r, size in classes
    ]


@pytest.mark.parametrize("p", [2, 3])
def test_hom_classes_match_brute_force_on_surface_links(p):
    from foxcalc.catalog import YOSHIKAWA_KEYS, catalog_lookup

    for key in YOSHIKAWA_KEYS:
        check_against_brute_force(catalog_lookup(f"yoshikawa:{key}").presentation, p)


@st.composite
def small_presentations(draw):
    s = draw(st.integers(2, 3))
    letter = st.tuples(st.integers(0, s - 1), st.integers(-3, 3).filter(bool))
    words = st.lists(letter, min_size=1, max_size=5).map(lambda ls: Word(tuple(ls)))
    relators = draw(st.lists(words, max_size=2))
    return Presentation(("x", "y", "z")[:s], tuple(relators))


@settings(max_examples=25, deadline=None)
@given(pres=small_presentations(), p=st.sampled_from([2, 3]))
def test_hom_classes_match_brute_force_on_random_presentations(pres, p):
    check_against_brute_force(pres, p)


def test_hom_search_node_cap(monkeypatch):
    # theta:5 takes 1,707 search nodes over SL(2;Z_2)
    from foxcalc import maps
    from foxcalc.catalog import theta_presentation

    pres = theta_presentation(5)
    assert len(hom_classes(pres, n=2, p=2)) == 251
    monkeypatch.setattr(maps, "HOM_SEARCH_NODE_CAP", 1000)
    with pytest.raises(MapError, match="HOM_SEARCH_NODE_CAP = 1000"):
        hom_classes(pres, n=2, p=2)


def test_hom_classes_leaves_no_reference_cycle():
    # the search holds no closure over itself, so a table's classes are
    # freed by reference counting, with nothing left for the cycle collector
    import gc

    from foxcalc.catalog import catalog_lookup
    from foxcalc.invariants import surfacelink_invariant

    pres = catalog_lookup("yoshikawa:10_1^0,0,1").presentation
    surfacelink_invariant(pres, p=3)  # the target group, built once per process
    gc.collect()
    gc.disable()
    try:
        surfacelink_invariant(pres, p=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _gauss_jordan_inverse(a, p):
    """mat_inv as it was before it read the inverse off zp_rref of [a | I]:
    its own Gauss-Jordan elimination, the reference."""
    n = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            raise MapError("matrix not invertible")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@settings(max_examples=400, deadline=None)
@given(square_matrices, st.sampled_from([2, 3, 5, 7, 11]))
@example(((1, 2), (2, 4)), 5)
@example(((0, 0), (0, 1)), 2)
@example(((3,),), 3)
@example(((2, 1), (1, 1)), 3)
def test_mat_inv_matches_gauss_jordan_reference(a, p):
    try:
        want = _gauss_jordan_inverse(a, p)
    except MapError:
        with pytest.raises(MapError, match="^matrix not invertible$"):
            mat_inv(a, p)
        return
    assert mat_inv(a, p) == want
    assert mat_mul(a, want, p) == mat_identity(len(a))


def test_twins_search_nothing_at_p_2(monkeypatch):
    # at p = 2 there is no twist and no central twist: rep's orbit is rep
    # alone, so no least conjugate is looked for; at p = 3 there are twins
    from foxcalc import maps

    calls = []
    least = maps._IndexedGroup.least_conjugate

    def counting(group, images):
        calls.append(group.p)
        return least(group, images)

    monkeypatch.setattr(maps._IndexedGroup, "least_conjugate", counting)
    pres = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")
    for p in (2, 3):
        for rho, _ in hom_classes(pres, p=p):
            twins = list(maps.twins(rho)) + list(maps.twins(rho, cyclic_map(pres, (1, 1), 0)))
            assert p == 3 or not twins
    assert calls and set(calls) == {3}
