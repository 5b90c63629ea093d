"""Alexander / twisted Alexander matrices, elementary ideals, and the
matrix-form and row-form invariant tables."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .fox import fox_derive
from .ideals import ideal_from, ideal_normalize, render_ideal
from .maps import conjugacy_classes, cyclic_map, enumerate_epis, enumerate_homs
from .rings import RingMatrix, RingError, ring_make, minors, reduce_matrix
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
    """The t x s matrix of abelianized Fox derivatives of the relators."""
    spec = ring_make(modulus, alpha.variables)
    rows = []
    for rel in pres.relators:
        row = []
        for j in range(pres.s):
            deriv = fox_derive(rel, j)
            entry = spec.zero()
            for w, c in deriv.terms.items():
                entry = entry + spec.monomial(alpha.word_image(w), c)
            row.append(entry)
        rows.append(row)
    m = RingMatrix.build(spec, rows)
    return RingMatrix(spec, m.entries, pres.t, pres.s)


def twisted_matrix(pres, alpha, rho):
    """The nt x ns block matrix of (rho tensor alpha)-images of derivatives."""
    n, p = rho.n, rho.p
    spec = ring_make(p, alpha.variables)
    nrows, ncols = n * pres.t, n * pres.s
    rows = [[spec.zero()] * ncols for _ in range(nrows)]
    for i, rel in enumerate(pres.relators):
        for j in range(pres.s):
            deriv = fox_derive(rel, j)
            block = [[spec.zero()] * n for _ in range(n)]
            for w, c in deriv.terms.items():
                mono = spec.monomial(alpha.word_image(w), c)
                mat = rho.word_image(w)
                for a in range(n):
                    for b in range(n):
                        if mat[a][b]:
                            block[a][b] = block[a][b] + mono.scale(mat[a][b])
            for a in range(n):
                for b in range(n):
                    rows[n * i + a][n * j + b] = block[a][b]
    m = RingMatrix.build(spec, rows)
    return RingMatrix(spec, m.entries, nrows, ncols)


def elementary_ideal(m, d, simplify=True, normalize=True):
    """The d-th elementary ideal of an infinitely zero-padded t x s matrix.

    (s-d)-minors if 0 < s-d <= t, the zero ideal if s-d > t, the whole ring
    if s-d <= 0.  A unit-pivot reduction (which preserves every E_d) is
    applied first unless simplify is False.
    """
    if d < 0:
        raise RingError("d must be >= 0")
    if simplify:
        m = reduce_matrix(m)
    s, t = m.declared_cols, m.declared_rows
    q = s - d
    if q <= 0:
        ideal = ideal_from(m.spec, (m.spec.one(),))
    elif q > t:
        ideal = ideal_from(m.spec, ())
    else:
        ideal = ideal_from(m.spec, tuple(minors(m, q)))
    return ideal_normalize(ideal) if normalize else ideal


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
        m = twisted_matrix(pres, alpha, rho)
        ns = n * pres.s
        entries = [
            render_ideal(elementary_ideal(m, d))[1:-1] for d in range(1, ns + 1)
        ]
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
    """gcd of the generators of E_1; needs a genuine Laurent ring."""
    m = alexander_matrix(pres, alpha, modulus=modulus)
    ideal = elementary_ideal(m, 1, simplify=False, normalize=False)
    if ideal.is_zero():
        return m.spec.zero()
    g = content_gcd(ideal.generators)
    return normalize_sign(g.shift_to_origin())
