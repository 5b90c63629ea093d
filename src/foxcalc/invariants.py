"""Alexander / twisted Alexander matrices, elementary ideals, and the
matrix-form and row-form tables, their E_d read off the Fox walk's cells."""

from __future__ import annotations

import enum
import functools
import operator
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from math import gcd, inf, lcm

from .ideals import ideal_from, ideal_normalize, principal_ideal, render_ideal
from .maps import MapError, _indexed_group, _rep, cyclic_map, enumerate_epis, hom_classes, twins
from .rings import RingElement, RingMatrix, RingError, ring_make, minors, reduce_matrix
from .rings import DEGREE_CAP, _trimmed, check_degree, content_gcd, normalize_sign
from .smith import by_shape, zp_elementary, zp_generators

CANON_NODE_CAP = 10**4  # search nodes of least_sorted_rows
TABLE_ENTRY_CAP = 5 * 10**5  # classes times epimorphisms of a table1 the shape leaves open


class TableKind(enum.Enum):
    MATRIX_FORM = "matrix"  # rows = conjugacy classes, columns = epimorphisms
    ROW_FORM = "row"  # rows = conjugacy classes, entries indexed by d


@dataclass(frozen=True)
class InvariantTable:
    kind: TableKind
    rows: tuple  # of (tuple of rendered ideal strings, multiplicity)
    columns: int  # MATRIX_FORM column count; 0 for ROW_FORM

    def render(self):
        """An entry with several generators keeps its parentheses, so that
        its commas are not read as separating entries."""
        parts = [
            "(" + ",".join(f"({e})" if "," in e else e for e in entries) + f")_{mult}"
            for entries, mult in self.rows
        ]
        return "{" + ",".join(parts) + "}"

    def as_multiset(self):
        return sorted(self.rows)

    def to_json(self):
        return {
            "kind": self.kind.value,
            "columns": self.columns,
            "rows": [
                {"entries": list(entries), "multiplicity": mult}
                for entries, mult in self.rows
            ],
        }


def alexander_matrix(pres, alpha, modulus=0):
    """The t x s matrix of abelianized Fox derivatives of the relators: the
    twisted matrix of the trivial representation, into SL(1;Z_2) = {1},
    whose one element kills every relator, so it is not checked."""
    trivial = _rep(pres, _indexed_group(1, 2, True), 1, True, (0,) * pres.s)
    return _fox_matrix(pres, alpha, trivial, modulus)


def twisted_matrix(pres, alpha, rho):
    """The nt x ns block matrix of (rho tensor alpha)-images of derivatives."""
    return _fox_matrix(pres, alpha, rho, rho.p)


def _fox_matrix(pres, alpha, rho, modulus):
    spec = ring_make(modulus, alpha.variables)
    walk = _fox_rows(_skeleton(pres, alpha), rho, 0)  # the constructor reduces mod modulus
    rows = (tuple(RingElement(spec, cell) for cell in row) for row in walk)
    return RingMatrix(spec, tuple(rows), rho.n * pres.t, rho.n * pres.s)


def _skeleton(pres, alpha):
    """What the Fox walk does not take from rho: per relator, (letters,
    dones).  x_g^e adds |e| terms to column g, prefix x_g^m for m < e if
    e > 0, -(prefix x_g^e) x_g^m for m < -e if e < 0, at exponents start +
    m step; its letter is (g, e, sign, count, start, step, new, places):
    new() an empty cell, places(start, step, j, o, n) the (key,
    multiplicity) pairs of terms j + i o, i < n.  dones[g] makes a cell of
    column g (None: no term) what the walk yields.

    In several variables a cell maps exponent vectors to coefficients.  In
    one it is a list by offset from its column's least exponent, yielded as
    a run mod p, a lift of the entry: a column spanning the order k or
    more, or k/2 across a multiple of k, folds mod k, as zp_lift keeps such
    a run; a shorter one is shifted by a multiple of k into [0, k), or to
    just below 0 across a multiple of k, where zp_lift cuts it.  A dense
    element holds a variable's whole spread, so a relator whose terms
    spread a variable of order 0 or above DEGREE_CAP past DEGREE_CAP is
    refused at the letter reaching it, before the walk adds a term."""
    orders = [k for _, k in alpha.variables]
    steps = [[d[i] for d in alpha.images] for i in range(len(orders))]  # by variable
    out = []
    for rel in pres.relators:
        firsts, refusals = [], []  # by variable, each letter's first exponent
        for d, k in zip(steps, orders):
            v, lo, hi, vs = 0, inf, -inf, []
            for i, (g, e) in enumerate(rel.letters):
                if e < 0:  # the terms start from prefix x_g^e
                    v += e * d[g]
                last = v + (e - 1 if e > 0 else -e - 1) * d[g]
                if not (0 < k <= DEGREE_CAP or lo <= v <= hi and lo <= last <= hi):
                    lo, hi = min(lo, v, last), max(hi, v, last)
                    degree = hi - lo if not k or lo // k == hi // k else k - 1
                    if degree > DEGREE_CAP:
                        refusals.append((i, degree))
                        break
                vs.append(v)
                if e > 0:
                    v += e * d[g]
            firsts.append(vs)
        if refusals:  # the first letter refused, in the first variable refusing it
            check_degree(min(refusals, key=operator.itemgetter(0))[1])
        signs = [(1, e) if e > 0 else (-1, -e) for _, e in rel.letters]
        if len(orders) != 1:
            kind = functools.partial(defaultdict, int), functools.partial(_vectors, orders)
            vecs = zip(*firsts) if orders else repeat(())
            letters = [(g, e, s, n, v, alpha.images[g], *kind)
                       for (g, e), (s, n), v in zip(rel.letters, signs, vecs)]
            out.append((letters, [lambda c, p: c or {}] * pres.s))
            continue
        (k,), (d,), ends, columns = orders, steps, defaultdict(list), [(0,)] * pres.s
        for (g, _), (_, count), v in zip(rel.letters, signs, firsts[0]):
            ends[g] += v, v + (count - 1) * d[g]
        for g, vs in ends.items():  # (valuation, least exponent, fold, new, places)
            lo, hi = min(vs), max(vs)
            fold = k if k and (hi - lo >= k or lo // k != hi // k and 2 * (hi - lo) >= k) else 0
            new = functools.partial(operator.mul, [0], fold or hi - lo + 1)
            base = 0 if fold else lo - k * (hi // k) if k else lo
            columns[g] = base, lo, fold, new, functools.partial(_offsets, fold)
        letters = []
        for (g, e), (s, n), v in zip(rel.letters, signs, firsts[0]):
            _, lo, fold, new, places = columns[g]
            letters.append((g, e, s, n, v % fold if fold else v - lo, d[g], new, places))
        dones = [lambda c, p, b=b: _trimmed(b, c, p) if c else (0, ()) for b, *_ in columns]
        out.append((letters, dones))
    return out


def _fox_rows(skeleton, rho, p):
    """The rows of the (rho tensor alpha)-image of the Fox Jacobian of the
    relators, n per relator, as the skeleton's dones make their cells, a
    run trimmed mod p (p = 0: its ends only).  With x the prefix and
    h = rho(x_g), term j of x_g^e is rho(x h^j) t^its exponent: the terms
    of a class of j mod the order o of h share a matrix, added into the
    cells of its nonzero entries."""
    group, gens = rho.indexed()
    n, mul, power, nonzero = rho.n, group.mul, group.power, group.nonzero
    for letters, dones in skeleton:
        rows = [[None] * (n * len(gens)) for _ in range(n)]
        x = group.identity
        for g, e, sign, count, start, step, new, places in letters:
            h, col = gens[g], g * n
            after = mul(x, h if e == 1 else power(h, e))
            if e < 0:
                x = after
            if count == 1:
                for a, b, c in nonzero[x]:
                    row = rows[a]
                    cell = row[col + b]
                    if cell is None:
                        cell = row[col + b] = new()
                    cell[start] += sign * c
                x = after
                continue
            o = group.order(h)
            for j in range(min(o, count)):
                y = nonzero[mul(x, power(h, j))]
                for key, m in places(start, step, j, o, (count - 1 - j) // o + 1):
                    for a, b, c in y:
                        row, w = rows[a], sign * m * c
                        cell = row[col + b]
                        if cell is None:
                            cell = row[col + b] = new()
                        if key.__class__ is slice:  # a fresh slice gets one shared int
                            part = cell[key]
                            cell[key] = map(w.__add__, part) if any(part) else [w] * len(part)
                        else:
                            cell[key] += w
            x = after
        dones = [done for done in dones for _ in range(n)]
        for row in rows:
            yield [done(cell, p) for done, cell in zip(dones, row)]


def _offsets(k, s, d, j, o, n):
    """(slice, multiplicity) pairs adding 1 at the offsets s + (j + i o) d,
    i < n, mod k if k > 0.  Mod k they repeat every k / gcd(o d, k): whole
    periods fill a coset of gcd(o d, k), and the rest, as in an unfolded
    cell, are runs of stride o d (from -k/2 to k/2) that do not wrap past
    an end: at most two at o d = +-1."""
    s, d, out = s + j * d, o * d, []
    if k:
        g = gcd(d, k)
        q, n = divmod(n, k // g)
        out = [(slice(s % g, k, g), q)] if q else []
        s, d = s % k, (d + k // 2) % k - k // 2
    while n:  # at d = 0 unfolded, one offset n times
        m = n if not k else min(n, (k - 1 - s) // d + 1 if d > 0 else s // -d + 1)
        lo = min(s, s + (m - 1) * d)
        out.append((slice(lo, lo + (m - 1) * abs(d) + 1, abs(d) or 1), 1 if d else m))
        s, n = (s + m * d) % (k or 1), n - m
    return out


def _vectors(orders, vec, step, j, o, n):
    """(exponent vector, multiplicity) pairs for the terms vec + (j + i o)
    step, i < n: each term while a variable of order 0 moves, else one
    period of (exponents mod the orders, rho(x_g)^(j + i o)), each standing
    for the terms it repeats."""
    period = lcm(o, *(k // gcd(d, k) for d, k in zip(step, orders) if d)) // o
    q, r = divmod(n, period) if period else (0, n)
    first, stride = [v + j * d for v, d in zip(vec, step)], [o * d for d in step]
    return [
        (tuple(v + i * d for v, d in zip(first, stride)), q + (i < r))
        for i in range(period if q else r)
    ]


def minors_ideal(m, d):
    """The d-th elementary ideal of an infinitely zero-padded t x s matrix,
    as its generators: smith.by_shape's (1) or (0) where the shape decides,
    the (s-d)-minors otherwise.  Neither reduced nor normalized."""
    if d < 0:
        raise RingError("d must be >= 0")
    g = by_shape(m.declared_rows, m.declared_cols, d)
    if g is not None:
        return ideal_from(m.spec, (m.spec.one(),) if g else ())
    return ideal_from(m.spec, tuple(minors(m, m.declared_cols - d)))


def elementary_ideals(m, ds):
    """E_d in normal form, d in ds, lazily and in order: by smith.py in one
    variable over Z_p, else from the minors of m's E_d-preserving unit-pivot
    reduction."""
    if m.spec.nvars == 1 and m.spec.modulus:
        gens = zp_elementary(lambda: m.zp_generators, m.declared_rows, m.declared_cols, ds)
        return (principal_ideal(m.spec, g) for g in gens)
    m = reduce_matrix(m)
    return (ideal_normalize(minors_ideal(m, d)) for d in ds)


def elementary_ideal(m, d):
    """E_d of m in normal form."""
    return next(elementary_ideals(m, (d,)))


def _table(spec):
    """(entries, render), one variable over Z_p.  entries(pres, alpha, rho,
    ds): the E_d of a twisted matrix over spec, lazily, as zp_elementary
    generators, by zp_generators on the Fox walk's cells, on a skeleton
    built once per alpha, when an E_d first needs the walk.  render(row): a
    row of generators as table entries, each distinct row and generator
    rendered once per _table."""
    entry = functools.cache(lambda g: render_ideal(principal_ideal(spec, g))[1:-1])
    render = functools.cache(lambda row: tuple(map(entry, row)))
    (_, k), p = spec.variables[0], spec.modulus
    skeleton = functools.cache(_skeleton)

    def entries(pres, alpha, rho, ds):
        generators = lambda: zp_generators(_fox_rows(skeleton(pres, alpha), rho, p), k, p)
        return zp_elementary(generators, rho.n * pres.t, rho.n * pres.s, ds)

    return entries, render


def handlebody_invariant(pres, p=2, k=2, d=4, n=2):
    """Matrix-form invariant: ideals over Conj(G, SL(n;Z_p)) x Epi(G, Z_k).

    Canonical under simultaneous row and column permutation: the least,
    over all column permutations, of the matrix with its rows sorted,
    found by least_sorted_rows without trying every permutation.  A row is
    evaluated once per GL(n;Z_p)-class of classes, see _per_orbit; the
    columns vary alpha, so no central twist lends a row.  Where the shape
    decides every entry, every row is the first class's, whose walk refuses
    what any class's would; else a table of more than TABLE_ENTRY_CAP
    entries is refused before any is evaluated.
    """
    epis = enumerate_epis(pres, k)
    entries, render = _table(ring_make(p, (("t", k),)))  # the target of every epi
    classes = hom_classes(pres, n=n, p=p)

    def row(rho):
        return tuple(next(entries(pres, alpha, rho, (d,))) for alpha in epis)

    if by_shape(n * pres.t, n * pres.s, d) is not None:
        best = [render(row(classes[0][0]))] * len(classes)
    elif len(classes) * len(epis) > TABLE_ENTRY_CAP:
        raise MapError(
            f"{len(classes)} x {len(epis)} table entries over TABLE_ENTRY_CAP = {TABLE_ENTRY_CAP}"
        )
    else:
        best = least_sorted_rows(list(map(render, _per_orbit(classes, row))), len(epis))
    return InvariantTable(TableKind.MATRIX_FORM, _merge_rows(best), len(epis))


def least_sorted_rows(rows, columns):
    """min over permutations perm of the columns of sorted(row permuted by
    perm for row in rows), by individualization and refinement.

    A search node is an ordered partition of the columns (the permutations
    taking each cell to its own run of positions) and the rows placed so
    far.  A row's least image sorts its entries within each cell.  Rows
    constant on every cell have that image under every such permutation,
    so those not above the least image of the other rows are placed at
    once.  The next row placed reaches that least image: the node branches
    over the rows that do, each splitting every cell by that row's values,
    ascending, and skips a split already made.  A prefix greater than the
    best one found is pruned, and a leaf is reached when every row left is
    constant on every cell, as when the partition is discrete.

    A leaf equal to the best one found differs from it by a column
    permutation that keeps the rows and maps the best leaf's path onto
    this one, so the subtree where the two paths part is worth the one
    already searched and is left (nauty's jump back; McKay and Piperno,
    "Practical graph isomorphism II", 2014).  More than CANON_NODE_CAP
    nodes raises MapError.
    """
    best = best_path = None
    nodes = 0

    def search(path, placed, rest):
        """path: the partition of each node from the root to this one.
        Returns None, or the depth of the node whose current child is left."""
        nonlocal best, best_path, nodes
        nodes += 1
        if nodes > CANON_NODE_CAP:
            raise MapError(f"table canonicalization over CANON_NODE_CAP = {CANON_NODE_CAP} nodes")
        cells = path[-1]
        fixed, moving = [], []
        for row in rest:
            image = tuple(v for cell in cells for v in sorted(row[j] for j in cell))
            if all(row[j] == row[cell[0]] for cell in cells for j in cell):
                fixed.append((image, row))
            else:
                moving.append((image, row))
        fixed.sort()
        if not moving:
            candidate = placed + [image for image, _ in fixed]
            if best is None or candidate < best:
                best, best_path = candidate, path
            elif candidate == best:
                return next(i for i, (a, b) in enumerate(zip(path, best_path)) if a != b) - 1
            return None
        least = min(image for image, _ in moving)
        head = [image for image, _ in fixed if image <= least]
        placed = placed + head + [least]
        if best is not None and placed > best[: len(placed)]:
            return None
        others = [row for _, row in fixed[len(head) :]]
        splits = set()
        for i, (image, row) in enumerate(moving):
            if image != least:
                continue
            refined = tuple(
                tuple(j for j in cell if row[j] == v)
                for cell in cells
                for v in sorted({row[j] for j in cell})
            )
            if refined not in splits:
                splits.add(refined)
                rest = others + [r for j, (_, r) in enumerate(moving) if j != i]
                jump = search(path + (refined,), placed, rest)
                if jump is not None and jump < len(path) - 1:
                    return jump
        return None

    search(((tuple(range(columns)),) if columns else (),), [], list(rows))
    return best


def surfacelink_invariant(pres, p=2, k=2, n=2):
    """Row-form invariant: per conjugacy class, (E_1, E_2, ...) up to the
    first 1.  E_d ascends with d, and E_{n s} is (1), so none is left out.
    A row is evaluated once per orbit of classes under GL(n;Z_p)-conjugation
    and the central twists rho -> rho zeta^alpha, alpha sending every
    generator to t, see _per_orbit."""
    alpha = cyclic_map(pres, (1,) * pres.s, k)
    spec = ring_make(p, alpha.variables)
    entries, render = _table(spec)

    def row(rho):
        gens = []
        for g in entries(pres, alpha, rho, range(1, n * pres.s + 1)):
            gens.append(g)
            if g == (1,):
                break
        return tuple(gens)

    lent = _per_orbit(hom_classes(pres, n=n, p=p), row, alpha)
    rows = sorted(map(render, lent), key=lambda r: (len(r), r))
    return InvariantTable(TableKind.ROW_FORM, _merge_rows(rows), 0)


def _per_orbit(classes, row, alpha=None):
    """row(rho), a tuple of zp_elementary generators, for each class of
    hom_classes, lazily, evaluated once per orbit of twins(rho, alpha): the
    first class met of an orbit lends its row to each twin, each generator
    g as g(zeta t) made monic.

    A P in GL(n;Z_p) conjugating rho to rho' makes their twisted matrices
    equivalent over Z_p, M' = (I_t (x) P) M (I_s (x) P^-1), so the two have
    the same E_d (Wada, Topology 33, 1994).  rho zeta^alpha sends a word w
    to zeta^alpha(w) rho(w), so its twisted matrix is M with t replaced by
    zeta t, by the ring automorphism t -> zeta t (zeta^k = 1), and its E_d
    are rho's images under it."""
    lent = {}
    for rho, _ in classes:
        r = lent.pop(rho.indexed()[1], None)
        if r is None:
            r = row(rho)
            for twin, zeta in twins(rho, alpha):  # zeta = 1: a GL-conjugate
                lent[twin] = r if zeta == 1 else tuple(_at_zeta_t(g, zeta, rho.p) for g in r)
        yield r


def _at_zeta_t(g, zeta, p):
    """g(zeta t) made monic, g a zp_elementary generator over Z_p."""
    scale = pow(zeta, 1 - len(g), p)  # zeta^-deg g
    return tuple(c * pow(zeta, i, p) * scale % p for i, c in enumerate(g))


def _merge_rows(rows):
    merged = []
    for row in rows:
        if merged and merged[-1][0] == row:
            merged[-1] = (row, merged[-1][1] + 1)
        else:
            merged.append((row, 1))
    return tuple(merged)


def alexander_polynomial(pres, alpha, modulus=0):
    """gcd of the generators of E_1, refused unless every order of alpha is
    0.  Its graded-lex greatest coefficient is positive over Z and 1 over
    Z_p: in one variable over Z_p, E_1's monic generator (elementary_ideal),
    else the gcd of the minors."""
    if any(k for _, k in alpha.variables):
        raise RingError("gcd needs all variable orders 0")
    m = alexander_matrix(pres, alpha, modulus=modulus)
    if modulus and m.spec.nvars == 1:
        return next(iter(elementary_ideal(m, 1).generators), m.spec.zero())
    ideal = minors_ideal(reduce_matrix(m), 1)
    if ideal.is_zero():
        return m.spec.zero()
    g = normalize_sign(content_gcd(ideal.generators).shift_to_origin())
    if modulus:
        g = g * m.spec.from_int(pow(g.sorted_terms()[-1][1], -1, modulus))
    return g
