"""E_d over Z_p[t^±1] and Z_p[t]/(t^k - 1) from invariant factors, entries
being runs as in RingElement, added by rings.run_addmul: Smith elimination
over Z_p[t^±1], Euclidean by span (Cohen, Computational Algebraic Number
Theory, 2.4), and base change of Fitting ideals (Eisenbud, Commutative
Algebra, 20.2), folding by t^k = 1 in the RingElement constructor."""

from operator import sub

from .rings import RingElement, _trimmed, check_degree, run_addmul


def _reduce(a, b, p):
    """(m, r): r = a + m b is a's remainder by b = (0, monic), of lesser span."""
    (va, ca), cb = a, b[1]
    n = len(cb) - 1
    if not n:
        return (va, tuple(-c for c in ca)), (0, ())
    r, q = list(ca), [0] * (len(ca) - n)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + n] % p
        if c:
            q[i] = -c
            r[i : i + n + 1] = map(sub, r[i : i + n + 1], map(c.__mul__, cb))
    return _trimmed(va, q, p), _trimmed(va, r[:n], p)


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
            delta = _trimmed(*run_addmul((0, ()), (0, delta), piv), p)[1]
            check_degree(len(delta) - 1)
        out.append(delta)
        a = [b[:j] + b[j + 1 :] for r, b in enumerate(a) if r != i and any(cs for _, cs in b)]
    return out


def by_shape(nrows, ncols, d):
    """E_d by the shape alone: (1,) if q = ncols - d <= 0, () if q > nrows, else None."""
    q = ncols - d
    return (1,) if q <= 0 else () if q > nrows else None


def zp_elementary(spec, divisors, nrows, ncols, ds):
    """E_d, d in ds, lazily and in order, of an nrows x ncols matrix as its
    monic generator, () for (0); divisors(): the matrix's zp_divisors,
    called once if some E_d needs them.  With q = ncols - d, E_d is
    by_shape, or (0) if q exceeds the rank, else (Delta_q); at order k,
    folded by t^k = 1, (0) if that is 0, (1) if a monomial, else
    (gcd(that, t^k - 1))."""
    p, k = spec.modulus, spec.variables[0][1]
    deltas = None
    for d in ds:
        g = by_shape(nrows, ncols, d)
        if g is None:
            if deltas is None:
                deltas = divisors()
            g = deltas[ncols - d - 1] if ncols - d <= len(deltas) else ()
            if k and len(g) > 1:  # fold it by t^k = 1, and drop its power of t
                g = RingElement(spec, (0, g)).coeffs
                if len(g) > 1:
                    (g,) = zp_divisors([[(0, (p - 1,) + (0,) * (k - 1) + (1,)), (0, g)]], p)
        yield (1,) if len(g) == 1 else g
