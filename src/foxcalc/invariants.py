"""Alexander / twisted Alexander matrices, elementary ideals, and the
matrix-form and row-form tables, their E_d read off the Fox walk's cells."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from math import gcd, inf, lcm
from itertools import chain, cycle, repeat

from .ideals import ideal_from, ideal_normalize, principal_ideal, render_ideal
from .maps import MapError, MatrixRep, cyclic_map, enumerate_epis, hom_classes, twins
from .rings import RingElement, RingMatrix, RingError, ring_make, minors, reduce_matrix
from .rings import DEGREE_CAP, cell_run, check_degree, content_gcd, normalize_sign
from .smith import by_shape, zp_divisors, zp_elementary, zp_lift

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
    twisted matrix of the trivial representation, into SL(1;Z_2) = {1}."""
    return _fox_matrix(pres, alpha, MatrixRep(pres, 2, 1, (((1,),),) * pres.s), modulus)


def twisted_matrix(pres, alpha, rho):
    """The nt x ns block matrix of (rho tensor alpha)-images of derivatives."""
    return _fox_matrix(pres, alpha, rho, rho.p)


def _fox_matrix(pres, alpha, rho, modulus):
    spec = ring_make(modulus, alpha.variables)
    rows = (tuple(RingElement(spec, cell) for cell in row) for row in _fox_rows(pres, alpha, rho))
    return RingMatrix(spec, tuple(rows), rho.n * pres.t, rho.n * pres.s)


def _fox_rows(pres, alpha, rho):
    """The rows of the (rho tensor alpha)-image of the Fox Jacobian of the
    relators, n per relator, as lists of cells {exponent vector: coefficient}.

    One walk per relator carries the prefix's exponent vector and its index
    in rho's target group.  A letter x_g^e adds the |e| terms of its Fox
    derivative: prefix x_g^m for m = 0..e-1 if e > 0, and -(prefix x_g^e)
    x_g^m for m = 0..|e|-1 if e < 0.  When every variable x_g moves has
    finite order, the pair (exponents mod the orders, rho(x_g^m)) has a
    period in m, so the walk adds at most one period of terms, each times
    the number of the |e| terms it stands for.  A dense element holds the
    whole spread of a variable's folded exponents, so a relator whose terms
    spread a variable of order 0 or above DEGREE_CAP past DEGREE_CAP is
    refused at the letter reaching it, before that letter's terms are added.
    """
    orders = [k for _, k in alpha.variables]
    wide = [(i, k) for i, k in enumerate(orders) if not 0 < k <= DEGREE_CAP]
    group, gens = rho.indexed()
    for rel in pres.relators:
        # blocks[column][a][b]: {exponent vector: coefficient}
        blocks = [[[{} for _ in range(rho.n)] for _ in range(rho.n)] for _ in range(pres.s)]
        vec, x, spread = (0,) * len(orders), group.identity, [(inf, -inf)] * len(wide)
        for g, e in rel.letters:
            step, h, cells = alpha.images[g], gens[g], blocks[g]
            sign, count = (1, e) if e > 0 else (-1, -e)
            after = tuple(v + e * d for v, d in zip(vec, step)), group.mul(x, group.power(h, e))
            if e < 0:  # the terms start from the prefix times x_g^e
                vec, x = after
            for j, (i, k) in enumerate(wide):  # spread[j]: (lo, hi) of the terms so far
                first, last = vec[i], vec[i] + (count - 1) * step[i]
                lo, hi = spread[j]
                if not lo <= first <= hi or not lo <= last <= hi:
                    lo, hi = spread[j] = min(lo, first, last), max(hi, first, last)
                    check_degree(hi - lo if not k or lo // k == hi // k else k - 1)
            period = _period(step, orders, group.order(h)) if count > 1 else 0
            steps = min(count, period or count)
            # term j: w t^(vec + j step) rho(x h^j), w the count of terms it stands for
            if steps == 1:
                terms = ((vec, sign * count, x),)
            else:
                q, r = divmod(count, steps)
                ys = [group.mul(x, group.power(h, j)) for j in range(min(steps, group.order(h)))]
                ws = chain(repeat(sign * (q + 1), r), repeat(sign * q, steps - r))
                runs = [range(v, v + d * steps, d) if d else repeat(v) for v, d in zip(vec, step)]
                terms = zip(zip(*runs) if runs else repeat(()), ws, cycle(ys))  # as many as ws
            for exps, w, y in terms:
                for a, b, c in group.nonzero[y]:
                    cell = cells[a][b]
                    cell[exps] = cell.get(exps, 0) + w * c
            vec, x = after
        for a in range(rho.n):
            yield [cell for block in blocks for cell in block[a]]


def _period(step, orders, group_order):
    """A period in m of (the exponents of t^(m * step) mod the orders, x^m),
    x of the given order; 0 if an infinite-order exponent moves."""
    period = group_order
    for d, k in zip(step, orders):
        if d and not k:
            return 0
        if d:
            period = lcm(period, k // gcd(d, k))
    return period


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
        gens = zp_elementary(m.spec, lambda: m.zp_divisors, m.declared_rows, m.declared_cols, ds)
        return (principal_ideal(m.spec, g) for g in gens)
    m = reduce_matrix(m)
    return (ideal_normalize(minors_ideal(m, d)) for d in ds)


def elementary_ideal(m, d):
    """E_d of m in normal form."""
    return next(elementary_ideals(m, (d,)))


def _table(spec):
    """(entries, render), one variable over Z_p.  entries(pres, alpha, rho,
    ds): the E_d of a twisted matrix over spec, lazily, as zp_elementary
    generators, by zp_elementary on the least-span lifts of the Fox walk's
    cells.  render(row): a row of generators as table entries, each
    distinct row and generator rendered once per _table."""
    entry = functools.cache(lambda g: render_ideal(principal_ideal(spec, g))[1:-1])
    render = functools.cache(lambda row: tuple(map(entry, row)))
    k = spec.variables[0][1]

    def entries(pres, alpha, rho, ds):
        walk = _fox_rows(pres, alpha, rho)
        rows = ([zp_lift(cell_run(spec, cell), k) for cell in row] for row in walk)
        divisors = functools.partial(zp_divisors, rows, spec.modulus)
        return zp_elementary(spec, divisors, rho.n * pres.t, rho.n * pres.s, ds)

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
            for twin, zeta in twins(rho, alpha):
                lent[twin] = tuple(_at_zeta_t(g, zeta, rho.p) for g in r)
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
    """gcd of the generators of E_1; needs a genuine Laurent ring.  Its
    graded-lex greatest coefficient is positive over Z and 1 over Z_p."""
    m = alexander_matrix(pres, alpha, modulus=modulus)
    ideal = minors_ideal(reduce_matrix(m), 1)
    if ideal.is_zero():
        return m.spec.zero()
    g = normalize_sign(content_gcd(ideal.generators).shift_to_origin())
    if modulus:
        g = g * m.spec.from_int(pow(g.sorted_terms()[-1][1], -1, modulus))
    return g
