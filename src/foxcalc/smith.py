"""E_d over Z_p[t^±1] and Z_p[t]/(t^k - 1) from invariant factors, entries
being runs as in RingElement, added by rings.run_addmul: Smith elimination
over Z_p[t^±1], Euclidean by span (Cohen, Computational Algebraic Number
Theory, 2.4), at a finite order on a Laurent lift of the entries, and base
change of Fitting ideals (Eisenbud, Commutative Algebra, 20.2): at order k,
E_d is (gcd(Delta_q, t^k - 1)).  Over Z_p itself, one row reduction,
zp_rref, for finite spans and matrix inverses."""

from bisect import bisect
from itertools import product
from operator import sub

from .rings import DEGREE_CAP, _trimmed, check_degree, run_addmul


def _reduce(a, b, p):
    """(m, r): r = a + m b is a's remainder by b = (0, monic), of lesser span.
    A b of few terms, such as t^j - 1, is subtracted term by term."""
    (va, ca), cb = a, b[1]
    n = len(cb) - 1
    if not n:
        return (va, tuple(-c for c in ca)), (0, ())
    r, q = list(ca), [0] * (len(ca) - n)
    terms = [(j, x) for j, x in enumerate(cb) if x] if q else ()
    for i in range(len(q) - 1, -1, -1):
        c = r[i + n] % p
        if c:
            q[i] = -c
            if 4 * len(terms) <= n:
                for j, x in terms:
                    r[i + j] -= c * x
            else:
                r[i : i + n + 1] = map(sub, r[i : i + n + 1], map(c.__mul__, cb))
    return _trimmed(va, q, p), _trimmed(va, r[:n], p)


def zp_rem(cs, g, p):
    """The run of cs mod g over Z_p, cs coefficients from t^0, g monic."""
    return _reduce((0, cs), (0, g), p)[1]


def zp_lift(run, k):
    """A Laurent lift of least span of a run folded at order k: the run cut
    at its longest cyclic gap, so that 1 + t^999996 at k = 999999 becomes
    t^-3 + 1.  At k = 0, or spanning at most k/2, the run is its own."""
    v, cs = run
    if not k or 2 * len(cs) <= k + 2:
        return run
    nz = [i for i, c in enumerate(cs) if c]
    gap, i = max(zip(map(sub, nz[1:], nz), nz))
    if gap <= k + 1 - len(cs):  # the gap around the end, from cs[-1] to cs[0] + k
        return run
    return v + i + gap - k, cs[i + gap :] + (0,) * (k - len(cs)) + cs[: i + 1]


def zp_divisors(rows, p):
    """Delta_1, ..., Delta_r (r the rank), monic with nonzero constant terms;
    of a 1 x 2 matrix, Delta_1 is the gcd.  The pivot, of least span, made
    (0, monic) by a unit c t^v, reduces its column, then its row, to which a
    row it does not divide is first added: a remainder is a smaller pivot."""
    a = [list(row) for row in rows if any(cs for _, cs in row)]
    out, delta = [], (1,)
    while a:
        _, i, j = min((len(c), i, j) for i, b in enumerate(a) for j, (_, c) in enumerate(b) if c)
        (v, cs), row = a[i][j], a[i]
        if v or cs[-1] != 1:
            inv = pow(cs[-1], -1, p)
            row = a[i] = [(w - v, tuple(c * inv % p for c in e)) for w, e in row]
        piv, smaller = row[j], False
        for r, other in enumerate(a):
            if r != i and other[j][1]:
                q, rem = _reduce(other[j], piv, p)
                a[r] = [_trimmed(*run_addmul(x, q, y), p) for x, y in zip(other, row)]
                smaller = smaller or bool(rem[1])
        if smaller:
            continue
        if len(piv[1]) > 1:  # a unit pivot divides every entry
            # column j is clear: column operations change row i alone
            row[:] = [piv if c == j else _reduce(e, piv, p)[1] for c, e in enumerate(row)]
            if sum(bool(cs) for _, cs in row) > 1:
                continue
            bad = next((b for b in a if any(e[1] and _reduce(e, piv, p)[1][1] for e in b)), None)
            if bad is not None:  # added to row i, leaves its remainders there
                row[:] = [piv if c == j else _reduce(e, piv, p)[1] for c, e in enumerate(bad)]
                continue
            check_degree(len(delta) + len(piv[1]) - 2)  # before the product is built
            delta = _trimmed(*run_addmul((0, ()), (0, delta), piv), p)[1]
        out.append(delta)
        a = [b[:j] + b[j + 1 :] for r, b in enumerate(a) if r != i and any(cs for _, cs in b)]
    return out


def zp_rref(rows, p):
    """The reduced row echelon form over Z_p of integer rows, in one pass:
    (rows, pivot columns), ascending.  Each row joins reduced by the rows so
    far, scaled to 1 at its pivot, cleared from their pivot column and put
    in its place, so the rows stay reduced and sorted."""
    basis, pivots = [], []
    for row in rows:
        row = [c % p for c in row]
        for b, j in zip(basis, pivots):
            if row[j]:
                f = row[j]
                row = [(x - f * y) % p for x, y in zip(row, b)]
        lead = next((j for j, c in enumerate(row) if c), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        row = [c * inv % p for c in row]
        for i, b in enumerate(basis):
            if b[lead]:
                f = b[lead]
                basis[i] = [(x - f * y) % p for x, y in zip(b, row)]
        i = bisect(pivots, lead)
        basis.insert(i, row)
        pivots.insert(i, lead)
    return tuple(map(tuple, basis)), tuple(pivots)


def zp_fold(g, k, p):
    """The monic generator of (g) over Z_p[t]/(t^k - 1), g as zp_divisors
    yields it: gcd(g, t^k - 1), () if that is t^k - 1, which is 0 there; at
    k = 0, or for g of one term or none, g itself.  Where k is below
    DEGREE_CAP and deg^2 g, what squaring a dense remainder would cost,
    t^k - 1 is built; else the gcd is gcd(g, (t^k mod g) - 1), t^k mod g by
    square and multiply."""
    if not k or len(g) < 2:
        return g
    if k <= DEGREE_CAP and k < len(g) ** 2:
        r = (0, (p - 1,) + (0,) * (k - 1) + (1,))
    else:
        r = (0, (1,))
        for bit in bin(k)[2:]:  # r = t^(the leading bits of k) mod g
            v, cs = run_addmul((0, ()), r, r)
            r = zp_rem((0,) * (v + (bit == "1")) + tuple(cs), g, p)
        r = _trimmed(*run_addmul(r, (0, (-1,)), (0, (1,))), p)
    (h,) = zp_divisors([[(0, g), r]], p)
    return () if len(h) > k else h


def by_shape(nrows, ncols, d):
    """E_d by the shape alone: (1,) if q = ncols - d <= 0, () if q > nrows, else None."""
    q = ncols - d
    return (1,) if q <= 0 else () if q > nrows else None


def zp_elementary(spec, divisors, nrows, ncols, ds):
    """E_d, d in ds, lazily and in order, of an nrows x ncols matrix as its
    monic generator, () for (0); divisors(): the matrix's zp_divisors,
    called once if some E_d needs them.  With q = ncols - d, E_d is
    by_shape, or (0) if q exceeds the rank, else (Delta_q) folded by
    zp_fold at the spec's order."""
    p, k = spec.modulus, spec.variables[0][1]
    deltas = None
    for d in ds:
        g = by_shape(nrows, ncols, d)
        if g is None:
            if deltas is None:
                deltas = divisors()
            g = zp_fold(deltas[ncols - d - 1], k, p) if ncols - d <= len(deltas) else ()
        yield g


def zp_code_search(g, k, p):
    """What the greedy render of (g) over Z_p[t]/(t^k - 1) needs, g | t^k - 1
    monic: its nonzero elements f g, deg f < n = k - deg g, as the cofactors
    f in canonical order; span(fs) = gcd(c, *fs) =: h, (f_1 g, ...) = (h g),
    c = (t^k - 1) / g the check polynomial; inside(f, h), h | f; and the
    span of the whole ideal, 1.  Distinct elements differ below t^n, so
    their order reads only the coefficients there and whether any is above."""
    d, n = len(g) - 1, k + 1 - len(g)
    rc = [1]  # c reversed: 1 / (g reversed) mod t^(n + 1), as c g = t^k - 1
    for i in range(1, n + 1):
        rc.append(-sum(g[d - j] * rc[i - j] for j in range(1, min(i, d) + 1)) % p)

    def key(f):
        low = [sum(f[j] * g[i - j] for j in range(max(0, i - d), i + 1)) % p for i in range(n)]
        top = max(i for i, x in enumerate(f) if x) + d  # the degree of f g
        return [(i, x) for i, x in enumerate(low) if x] + [(n, 0)] * (top >= n)

    elems = sorted(filter(any, product(range(p), repeat=n)), key=key)
    span = lambda fs: zp_divisors([[_trimmed(0, f, p) for f in (rc[::-1], *fs)]], p)[0]
    return elems, span, lambda f, h: not zp_rem(f, h, p)[1], (1,)
