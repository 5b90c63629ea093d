"""Alexander / twisted Alexander matrices, elementary ideals, and the
matrix-form and row-form invariant tables."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .ideals import ideal_from, ideal_normalize, render_ideal
from .maps import MatrixRep, conjugacy_classes, cyclic_map, enumerate_epis, enumerate_homs
from .rings import RingElement, RingMatrix, RingError, ring_make, minors, reduce_matrix
from .rings import content_gcd, normalize_sign


class TableKind(enum.Enum):
    MATRIX_FORM = "matrix"  # rows = conjugacy classes, columns = epimorphisms
    ROW_FORM = "row"  # rows = conjugacy classes, entries indexed by d


@dataclass(frozen=True)
class InvariantTable:
    kind: TableKind
    rows: tuple  # of (tuple of rendered ideal strings, multiplicity)
    columns: int  # MATRIX_FORM column count; 0 for ROW_FORM

    def render(self):
        parts = [
            "(" + ",".join(entries) + f")_{mult}" for entries, mult in self.rows
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
    """The (rho tensor alpha)-image of the Fox Jacobian of the relators.

    One walk per relator carries the prefix's exponent vector and its index
    in rho's target group; a letter x_g^e adds the |e| terms of its Fox
    derivative, prefix x_g^m for m = 0..e-1, or -prefix x_g^m for m = -1..e.
    """
    spec = ring_make(modulus, alpha.variables)
    group, gens = rho.indexed()
    n, rows = rho.n, []
    for rel in pres.relators:
        blocks = {}  # (column, a, b) -> {exponent vector: coefficient}
        vec, x = (0,) * spec.nvars, group.identity
        for g, e in rel.letters:
            step = alpha.images[g]
            sign, ms = (1, range(e)) if e > 0 else (-1, range(-1, e - 1, -1))
            for m in ms:
                exps = spec.reduce_exps(tuple(v + m * d for v, d in zip(vec, step)))
                mat = group.elements[group.mul(x, group.power(gens[g], m))]
                for a, b in itertools.product(range(n), repeat=2):
                    if mat[a][b]:
                        terms = blocks.setdefault((g, a, b), {})
                        terms[exps] = terms.get(exps, 0) + sign * mat[a][b]
            vec = tuple(v + e * d for v, d in zip(vec, step))
            x = group.mul(x, group.power(gens[g], e))
        rows += [
            tuple(
                RingElement(spec, blocks.get((j, a, b), {}))
                for j in range(pres.s)
                for b in range(n)
            )
            for a in range(n)
        ]
    return RingMatrix(spec, tuple(rows), n * pres.t, n * pres.s)


def minors_ideal(m, d):
    """The d-th elementary ideal of an infinitely zero-padded t x s matrix,
    as its generators: the whole ring if s-d <= 0, the zero ideal if
    s-d > t, the (s-d)-minors otherwise.  Neither reduced nor normalized."""
    if d < 0:
        raise RingError("d must be >= 0")
    q = m.declared_cols - d
    if q <= 0:
        return ideal_from(m.spec, (m.spec.one(),))
    return ideal_from(m.spec, tuple(minors(m, q)))  # no minors when q > t


def elementary_ideals(m, ds):
    """E_d in normal form for each d in ds, lazily and in order, from the
    minors of one unit-pivot reduction of m (which preserves every E_d)."""
    m = reduce_matrix(m)
    return (ideal_normalize(minors_ideal(m, d)) for d in ds)


def elementary_ideal(m, d):
    """E_d of m in normal form."""
    return next(elementary_ideals(m, (d,)))


def handlebody_invariant(pres, p=2, k=2, d=4, n=2):
    """Matrix-form invariant: ideals over Conj(G, SL(n;Z_p)) x Epi(G, Z_k).

    Canonical under simultaneous row and column permutation: exhaustive
    search over column permutations, rows sorted, least matrix kept.
    """
    classes = conjugacy_classes(enumerate_homs(pres, n=n, p=p))
    epis = enumerate_epis(pres, k)
    raw_rows = []
    for rho, _ in classes:
        row = []
        for alpha in epis:
            ideal = elementary_ideal(twisted_matrix(pres, alpha, rho), d)
            row.append(render_ideal(ideal)[1:-1])
        raw_rows.append(tuple(row))
    best = None
    for perm in itertools.permutations(range(len(epis))):
        candidate = sorted(tuple(row[j] for j in perm) for row in raw_rows)
        if best is None or candidate < best:
            best = candidate
    return InvariantTable(TableKind.MATRIX_FORM, _merge_rows(best or []), len(epis))


def surfacelink_invariant(pres, p=2, k=2, n=2):
    """Row-form invariant: per conjugacy class, (E_1, E_2, ...) with the
    trailing run of 1's trimmed to a single terminal 1."""
    alpha = cyclic_map(pres, (1,) * pres.s, k)
    classes = conjugacy_classes(enumerate_homs(pres, n=n, p=p))
    rows = []
    for rho, _ in classes:
        ideals = elementary_ideals(twisted_matrix(pres, alpha, rho), range(1, n * pres.s + 1))
        entries = [render_ideal(ideal)[1:-1] for ideal in ideals]
        while len(entries) >= 2 and entries[-1] == "1" and entries[-2] == "1":
            entries.pop()
        rows.append(tuple(entries))
    rows.sort(key=lambda r: (len(r), r))
    return InvariantTable(TableKind.ROW_FORM, _merge_rows(rows), 0)


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
