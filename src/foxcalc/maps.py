"""Abelianization maps, finite matrix representations, and their enumeration."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import gcd

from .rings import is_prime
from .smith import zp_rref

HOM_TARGET_CAP = 10**4
HOM_SEARCH_NODE_CAP = 2 * 10**5  # images tried by hom_classes, k^s assignments by enumerate_epis


class MapError(ValueError):
    pass


@dataclass(frozen=True)
class AbelianMap:
    """Map from a presentation's group to <t_1,...,t_r | t_i^k_i, [t_i,t_j]>.

    variables: tuple of (name, order k), k = 0 meaning infinite order.
    images: per generator, an exponent vector of length r.
    Construction validates that every relator maps to zero.
    """

    presentation: object
    variables: tuple
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.presentation.s:
            raise MapError("one image per generator required")
        r = len(self.variables)
        for img in self.images:
            if len(img) != r:
                raise MapError("image arity mismatch")
        for rel in self.presentation.relators:
            if any(self.word_image(rel)):
                raise MapError(
                    f"relator {rel.render(self.presentation.generators)!r} not killed"
                )

    def word_image(self, w):
        """Exponent vector of a word, reduced by the finite orders."""
        sums, r = w.exponent_sums(self.presentation.s), len(self.variables)
        vec = [sum(e * img[i] for e, img in zip(sums, self.images)) for i in range(r)]
        return tuple(v % k if k > 0 else v for v, (_, k) in zip(vec, self.variables))


def abelian_map(pres, images, variables):
    return AbelianMap(pres, tuple(variables), tuple(tuple(i) for i in images))


def cyclic_map(pres, exponents, k, var="t"):
    """Map into <t | t^k> (k = 0 for infinite cyclic) by per-generator powers."""
    return AbelianMap(pres, ((var, k),), tuple((e,) for e in exponents))


# ---------------------------------------------------------------------------
# Matrices over Z_p.


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def mat_det(a, p):
    """Determinant mod p: closed forms up to 2 x 2, cofactor expansion along
    the first row beyond."""
    n = len(a)
    if n == 1:
        return a[0][0] % p
    if n == 2:
        return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % p
    return sum(
        (-1) ** j * c * mat_det(tuple(row[:j] + row[j + 1 :] for row in a[1:]), p)
        for j, c in enumerate(a[0])
        if c
    ) % p


@functools.cache
def _primitive_root(p):
    """The least generator of Z_p^*."""
    return next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)


def mat_inv(a, p):
    """Inverse over Z_p: the right half of the reduced row echelon form of
    [a | I], whose pivots are 0, ..., n - 1 exactly when a is invertible."""
    n = len(a)
    rows, pivots = zp_rref([(*row, *e) for row, e in zip(a, mat_identity(n))], p)
    if pivots != tuple(range(n)):
        raise MapError("matrix not invertible")
    return tuple(row[n:] for row in rows)


class _IndexedGroup:
    """SL/GL(n;Z_p) with its elements numbered in matrix_group_elements order.

    A product of two elements is computed by mat_mul once, on first use, and
    memoised by index pair.  x^e is read off the cycle of x's powers, so a
    word costs one lookup per letter whatever its exponents.  Cycles,
    conjugates of an element, the orbit table of a subgroup acting by
    conjugation and the twist are computed once, on first use; the group
    lives for the whole process (_indexed_group), and so do they.
    """

    def __init__(self, n, p, special):
        self.p, self.special = p, special
        self.elements = matrix_group_elements(n, p, special)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.identity = self.index[mat_identity(n)]
        self.inverse = [self.index[mat_inv(m, p)] for m in self.elements]
        self._products = {}  # (i, j) to the index of i j; word reads it inline
        self.nonzero = [  # per element, its nonzero entries (row, column, value)
            [(a, b, c) for a, row in enumerate(m) for b, c in enumerate(row) if c]
            for m in self.elements
        ]

    def find(self, m):
        """Index of a matrix with integer entries, or None if not in the group."""
        return self.index.get(tuple(tuple(x % self.p for x in row) for row in m))

    def mul(self, i, j):
        k = self._products.get((i, j))
        if k is None:
            k = self.index[mat_mul(self.elements[i], self.elements[j], self.p)]
            self._products[(i, j)] = k
        return k

    @functools.cache
    def _cycle(self, i):
        cycle, x = [self.identity], i
        while x != self.identity:
            cycle.append(x)
            x = self.mul(x, i)
        return cycle

    def power(self, i, e):
        cycle = self._cycle(i)
        return cycle[e % len(cycle)]

    def order(self, i):
        return len(self._cycle(i))

    @functools.cache
    def conjugates(self, x):
        """b x b^-1 for every element b, by index of b."""
        mul, inverse = self.mul, self.inverse
        return tuple(mul(mul(b, x), inverse[b]) for b in range(len(self.elements)))

    @functools.cache
    def orbits(self, subgroup):
        """The orbit table of a subgroup (a sorted tuple of indices) acting
        on the group by conjugation, in one pass over the conjugation rows of
        the orbits' least elements.  Two maps: each orbit's least element to
        its stabilizer in the subgroup, ascending by least element; and
        every element y to (its orbit's least element x, an element b of the
        subgroup with b y b^-1 = x)."""
        stabilizers, leaders, inverse = {}, {}, self.inverse
        for x in range(len(self.elements)):
            if x not in leaders:
                row = self.conjugates(x)
                for b in subgroup:
                    leaders[row[b]] = (x, inverse[b])
                stabilizers[x] = tuple(b for b in subgroup if row[b] == x)
        return stabilizers, leaders

    @functools.cached_property
    def everything(self):
        """The whole group, as a subgroup."""
        return tuple(range(len(self.elements)))

    def least_conjugate(self, images):
        """The least tuple, index by index, simultaneously conjugate to a
        tuple of elements: for the images of a hom, the representative
        hom_classes gives its class.  Walks the search's stabilizer chain:
        each image, conjugated by the conjugator so far, goes to the least
        element of its orbit under the stabilizer of the images before it."""
        mul, inverse = self.mul, self.inverse
        sub, c, out = self.everything, self.identity, []
        for y in images:
            stabilizers, leaders = self.orbits(sub)
            x, b = leaders[mul(mul(c, y), inverse[c])]
            out.append(x)
            c, sub = mul(b, c), stabilizers[x]
        return tuple(out)

    @functools.cached_property
    def twist(self):
        """Conjugation by diag(g, 1, ..., 1), g = _primitive_root(p), as a
        permutation of indices: it scales row 0 by g and column 0 by g^-1.
        Every matrix of GL(n;Z_p) is a power of diag(g, 1, ..., 1)
        times one of SL(n;Z_p), so the twist's powers take an SL-class to
        each of its GL-conjugates.  None over GL, where conjugation by it is
        inner, and at p = 2, where it is the identity."""
        p = self.p
        if not self.special or p == 2:
            return None
        d = [_primitive_root(p)] + [1] * (len(self.elements[0]) - 1)
        d_inv = [pow(c, -1, p) for c in d]

        def conjugate(m):
            return tuple(tuple(a * c * b % p for c, b in zip(row, d_inv)) for a, row in zip(d, m))

        return tuple(self.index[conjugate(m)] for m in self.elements)

    def word(self, letters, images):
        """Index of the image of a word, images[g] being generator g's index."""
        acc, products, inverse = self.identity, self._products, self.inverse
        for g, e in letters:
            x = images[g]
            if e != 1:
                x = inverse[x] if e == -1 else self.power(x, e)
            k = products.get((acc, x))
            acc = self.mul(acc, x) if k is None else k
        return acc


@functools.cache
def _indexed_group(n, p, special):
    """One indexed group per target, kept for the life of the process."""
    return _IndexedGroup(n, p, special)


@dataclass(frozen=True)
class MatrixRep:
    """A homomorphism to GL(n; Z_p) given by per-generator matrices.

    Construction checks invertibility (det = 1 when special=True) and that
    every relator maps to the identity.  p must be prime and the target
    group small enough to enumerate (see matrix_group_elements).
    """

    presentation: object
    p: int
    n: int
    images: tuple
    special: bool = True
    _indices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.images) != self.presentation.s:
            raise MapError("one image matrix per generator required")
        group = _indexed_group(self.n, self.p, self.special)
        indices = []
        for m in self.images:
            i = group.find(m)
            if i is None:
                if mat_det(m, self.p) == 0:
                    raise MapError("generator image not invertible")
                kind = "SL" if self.special else "GL"
                raise MapError(f"generator image not in {kind}({self.n};Z_{self.p})")
            indices.append(i)
        object.__setattr__(self, "_indices", tuple(indices))
        for rel in self.presentation.relators:
            if group.word(rel.letters, self._indices) != group.identity:
                raise MapError(
                    f"relator {rel.render(self.presentation.generators)!r} "
                    "not sent to the identity"
                )

    def indexed(self):
        """The indexed target group, and each generator's index in it."""
        return _indexed_group(self.n, self.p, self.special), self._indices

    def word_image(self, w):
        group, indices = self.indexed()
        return group.elements[group.word(w.letters, indices)]

    def conjugate(self, b):
        binv = mat_inv(b, self.p)
        return MatrixRep(
            self.presentation,
            self.p,
            self.n,
            tuple(mat_mul(mat_mul(b, m, self.p), binv, self.p) for m in self.images),
            self.special,
        )


def matrix_group_elements(n, p, special=True):
    """All of SL(n;Z_p) (or GL), ordered by row-major entry tuples."""
    if not is_prime(p):
        raise MapError(f"modulus {p} is not prime")
    if p ** (n * n) > HOM_TARGET_CAP * 10:
        raise MapError(
            f"target matrix space of {p}^{n * n} elements"
            f" over 10 * HOM_TARGET_CAP = {10 * HOM_TARGET_CAP}"
        )
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        m = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        d = mat_det(m, p)
        if (special and d == 1 % p) or (not special and d != 0):
            out.append(m)
    if len(out) > HOM_TARGET_CAP:
        raise MapError(
            f"target group of {len(out)} elements over HOM_TARGET_CAP = {HOM_TARGET_CAP}"
        )
    return out


# ---------------------------------------------------------------------------
# Enumeration.


def enumerate_epis(pres, k):
    """All epimorphisms onto Z_k = <t | t^k>, lexicographic in assignments.
    More than HOM_SEARCH_NODE_CAP assignments, k^s, raises MapError."""
    if k < 2:
        raise MapError("cyclic target needs k >= 2")
    if k**pres.s > HOM_SEARCH_NODE_CAP:
        raise MapError(f"hom search over HOM_SEARCH_NODE_CAP = {HOM_SEARCH_NODE_CAP} nodes")
    sums = [rel.exponent_sums(pres.s) for rel in pres.relators]
    out = []
    for assign in itertools.product(range(k), repeat=pres.s):
        if gcd(k, *assign) == 1 and not any(
            sum(a * e for a, e in zip(assign, es)) % k for es in sums
        ):
            out.append(cyclic_map(pres, assign, k))
    return out


def hom_classes(pres, n=2, p=2, special=True):
    """One homomorphism into SL/GL(n;Z_p) per class under simultaneous
    conjugation by the target group, trivial and non-surjective included.

    Returns (representative, class size) pairs; the representative is the
    class's least member in the order of enumerate_homs, and the classes
    are sorted by representative, as conjugacy_classes(enumerate_homs(...))
    gives them.  Backtracks over generator images: the first runs over the
    least element of each conjugacy class, each later one over the least
    element of each orbit of the stabilizer of the images so far, and each
    relator is checked once its last generator has an image; depth first,
    by a stack of iterators.  The class size is the group order over the
    stabilizer of all images.  More than HOM_SEARCH_NODE_CAP images tried
    raises MapError.
    """
    group = _indexed_group(n, p, special)
    order, s = len(group.elements), pres.s
    checks = [[] for _ in range(s)]  # relators by their last generator
    for rel in pres.relators:
        if rel.letters:
            checks[max(g for g, _ in rel.letters)].append(rel.letters)
    images, nodes = [group.identity] * s, 0
    found = [] if s else [((), 1)]
    # levels[i]: the images left to try for generator i, with their stabilizers
    levels = [iter(group.orbits(group.everything)[0].items())] if s else []
    while levels:
        i = len(levels) - 1
        for x, child in levels[i]:
            nodes += 1
            if nodes > HOM_SEARCH_NODE_CAP:
                raise MapError(
                    f"hom search over HOM_SEARCH_NODE_CAP = {HOM_SEARCH_NODE_CAP} nodes"
                )
            images[i] = x
            if all(group.word(letters, images) == group.identity for letters in checks[i]):
                if i + 1 == s:
                    found.append((tuple(images), order // len(child)))
                else:
                    levels.append(iter(group.orbits(child)[0].items()))
                    break
        else:
            levels.pop()
    return [(_rep(pres, group, n, special, t), size) for t, size in found]


def twins(rep, alpha=None):
    """(images, zeta) for each other class in rep's orbit under the twist
    and the central twists, images being the class's representative as
    hom_classes gives it.  rep's images must be its class's least.

    The twist's powers take rep to its GL(n;Z_p)-conjugates, the c-th,
    c = gcd(n, p - 1), being conjugate to rep by diag(g^c, 1, ..., 1), a
    scalar times an element of SL(n;Z_p); zeta = 1 for those.  Given alpha
    onto <t | t^k> (k = 0 for infinite), each of them times zeta^alpha(x_g)
    I on generator g is again a hom into the same group, for every zeta in
    Z_p^* with zeta^n = zeta^k = 1: the m-th roots of unity,
    m = gcd(n, k, p - 1).  None keeps zeta = 1, and so does p = 2, where
    m = 1 and, as over GL, the twist is None.  The twist's power 0 with
    zeta = 1 is rep itself and is not searched, so with no twist and m = 1,
    at p = 2 for one, nothing is built or searched."""
    group, images = rep.indexed()
    p, twist, n = group.p, group.twist, rep.n
    m = gcd(n, alpha.variables[0][1], p - 1) if alpha else 1
    if not twist and m == 1:
        return
    zeta = pow(_primitive_root(p), (p - 1) // m, p)
    scalar = group.find(tuple(tuple(zeta * c for c in row) for row in mat_identity(n)))
    exponents = [e for e, in alpha.images] if alpha else [0] * len(images)
    central = [  # per zeta^j, the scalar each generator image is multiplied by
        (pow(zeta, j, p), [group.power(scalar, j * e) for e in exponents]) for j in range(m)
    ]
    seen, x = {images}, images
    for c in range(gcd(n, p - 1) if twist else 1):
        for z, scalars in central[1:] if c == 0 else central:  # rep itself left out
            least = group.least_conjugate(tuple(map(group.mul, x, scalars)))
            if least not in seen:
                seen.add(least)
                yield least, z
        if twist:
            x = tuple(twist[i] for i in x)


def _rep(pres, group, n, special, indices):
    """A MatrixRep of images known to kill every relator, checked by a search
    or trivial, skipping its relator walk."""
    rep = object.__new__(MatrixRep)
    images = tuple(group.elements[x] for x in indices)
    fields = dict(presentation=pres, p=group.p, n=n, images=images, special=special)
    vars(rep).update(fields, _indices=tuple(indices))
    return rep


def enumerate_homs(pres, n=2, p=2, special=True):
    """All homomorphisms into SL/GL(n;Z_p), trivial and non-surjective
    included, in lexicographic order of the generators' images (elements
    numbered as by matrix_group_elements): the classes of hom_classes,
    each expanded to all its conjugates."""
    group = _indexed_group(n, p, special)
    members = set()
    for rep, _ in hom_classes(pres, n, p, special):
        rows = [group.conjugates(x) for x in rep._indices]
        members.update(tuple(row[b] for row in rows) for b in range(len(group.elements)))
    return [_rep(pres, group, n, special, t) for t in sorted(members)]


def conjugacy_classes(homs):
    """Orbits of homs under simultaneous conjugation by the target group.

    Returns (representative, class size) pairs; the representative is the
    least member in the order of homs, classes sorted by representative.
    Conjugates every hom in turn; hom_classes finds the classes of all
    homs of a presentation without listing them.
    """
    if not homs:
        return []
    group = _indexed_group(homs[0].n, homs[0].p, homs[0].special)
    position = {h._indices: i for i, h in enumerate(homs)}
    seen = set()
    classes = []
    for i, h in enumerate(homs):
        if i in seen:
            continue
        rows = [group.conjugates(x) for x in h._indices]
        orbit = {position[tuple(row[b] for row in rows)] for b in range(len(group.elements))}
        seen |= orbit
        classes.append((homs[min(orbit)], len(orbit)))
    return classes


# ---------------------------------------------------------------------------
# The explicit SL(2;Z_2) family for the theta-curve groups.

_A = ((0, 1), (1, 1))
_B = ((0, 1), (1, 0))
_C = ((1, 0), (1, 1))


def lemma36_rho(pres, n):
    """The SL(2;Z_2) representation of the theta-n group for n = 1,5 mod 6."""
    if n < 5 or n % 6 not in (1, 5):
        raise MapError("requires n >= 5 with n = 1 or 5 mod 6")
    if pres.s != n:
        raise MapError("presentation has wrong generator count")
    if n % 6 == 5:  # n = 6k+5
        images = [_A] * (n - 2) + [_B, _C]
    else:  # n = 6k+7
        images = [_A] * (n - 4) + [_B, _C, _B, _C]
    return MatrixRep(pres, 2, 2, tuple(images), special=True)
