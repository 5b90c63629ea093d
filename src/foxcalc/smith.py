"""E_d over Z_p[t^±1] and Z_p[t]/(t^k - 1) from invariant factors, entries
being runs as in RingElement, added by rings.run_addmul: Smith elimination
over Z_p[t^±1], Euclidean by span (Cohen, Computational Algebraic Number
Theory, 2.4), each pivot starting where clearing its column fills least
(Markowitz, Management Sci. 3, 1957), at a finite order on a Laurent lift
of the entries, and base
change of Fitting ideals (Eisenbud, Commutative Algebra, 20.2): at order k,
E_d is (gcd(Delta_q, t^k - 1)).  At an order k = k1 p^e, k1 | p - 1, where
t^k - 1 splits over Z_p, the same base change at each root z of t^k1 - 1
reads E_d off one elimination over the chain ring Z_p[u]/(u^(p^e)), u =
t - z, instead: there an entry of least valuation divides every entry, so
no Euclidean step is needed (W. C. Brown, Matrices over Commutative Rings,
1993).  Over Z_p itself, one row reduction, zp_rref, for finite spans and
matrix inverses."""

from bisect import bisect
from functools import cache
from itertools import product
from math import comb
from operator import mul, sub

from .rings import DEGREE_CAP, _trimmed, check_degree, run_addmul


def _reduce(a, b, p):
    """(m, r): r = a + m b is a's remainder by b = (0, monic), of lesser span."""
    (va, ca), cb = a, b[1]
    n = len(cb) - 1
    r, q = list(ca), [0] * (len(ca) - n)
    terms = [(j, x) for j, x in enumerate(cb[:-1]) if x]
    for i in range(len(q) - 1, -1, -1):
        c = r[i + n] % p
        if c:
            q[i] = -c
            for j, x in terms:
                r[i + j] -= c * x
    return _trimmed(va, q, p), _trimmed(va, r[:n], p)


def zp_rem(a, g, p):
    """The run t^v (cs mod g) over Z_p, a = (v, cs), g monic from t^0: cs
    reduced from the top, one nonzero coefficient at a time, subtracting
    g's nonzero terms below its leading one, with no quotient kept."""
    (v, cs), n = a, len(g) - 1
    r, terms = list(cs), [(j - n, x) for j, x in enumerate(g[:-1]) if x]
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i] % p
        if c:
            for j, x in terms:
                r[i + j] -= c * x
    return _trimmed(v, r[:n], p)


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
    of a 1 x n matrix, Delta_1 is the gcd of its entries.  Each pivot starts
    where clearing its column fills least (Markowitz): at the entry of least
    span s of the column with the least sum, over its other entries, of
    span - s + 1, the span of a quotient.  Made (0, monic) by a unit c t^v,
    it clears its column, then its row, to which a row it does not divide
    is first added.  A remainder left in the column or the row spans less
    than the pivot and becomes the pivot, so the pivot's span falls at each
    move and the moves end; a pivot that divides every entry, its row and
    column clear, is the next invariant factor, and its row goes.  The last
    row's factor is the gcd of its entries, folded shortest first up to a
    unit."""
    a = [list(row) for row in rows if any(cs for _, cs in row)]
    out, delta = [], (1,)
    while a:
        i, g = 0, ()
        if len(a) == 1:  # the gcd fold
            for r in sorted((cs for _, cs in a[0] if cs), key=len):
                while r:
                    inv = pow(r[-1], -1, p)
                    g, r = r if inv == 1 else tuple(x * inv % p for x in r), g
                    r = zp_rem((0, r), g, p)[1]
                if len(g) == 1:
                    break
        else:
            keys = []
            for j in range(len(a[0])):
                col = [(len(b[j][1]), r) for r, b in enumerate(a) if b[j][1]]
                if col:
                    s, r = min(col)
                    keys.append((sum(n - s + 1 for n, _ in col) - 1, s, r, j))
            *_, i, j = min(keys)
        while not g:
            (v, cs), row = a[i][j], a[i]
            nz = [c for c, e in enumerate(row) if e[1]]
            if v or cs[-1] != 1:
                inv = pow(cs[-1], -1, p)
                for c in nz:
                    w, e = row[c]
                    row[c] = w - v, e if inv == 1 else tuple(x * inv % p for x in e)
            piv = row[j]
            for other in a:
                if other is not row and other[j][1]:
                    q, other[j] = _reduce(other[j], piv, p)
                    for c in nz:
                        if c != j:
                            other[c] = _trimmed(*run_addmul(other[c], q, row[c]), p)
            col = [(len(b[j][1]), r) for r, b in enumerate(a) if b[j][1]]
            if len(col) > 1:  # remainders, the least of them the pivot
                i = min(col)[1]
                continue
            if len(piv[1]) > 1:  # a unit pivot divides every entry
                # column j is clear, so column operations change row i alone: it
                # keeps its remainders, or those of a row it does not divide added to it
                for b in (row, *(b for b in a if b is not row)):
                    rems = [piv if c == j else zp_rem(e, piv[1], p) if e[1] else e for c, e in enumerate(b)]
                    rest = [(len(cs), c) for c, (_, cs) in enumerate(rems) if cs]
                    if len(rest) > 1:
                        row[:] = rems
                        break
                if len(rest) > 1:
                    j = min(rest)[1]
                    continue
            g = piv[1]
        if len(g) > 1:
            check_degree(len(delta) + len(g) - 2)  # before the product is built
            delta = _trimmed(*run_addmul((0, ()), (0, delta), (0, g)), p)[1]
        out.append(delta)
        a = [b for r, b in enumerate(a) if r != i and any(cs for _, cs in b)]
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
            r = zp_rem((0, (0,) * (v + (bit == "1")) + tuple(cs)), g, p)
        r = _trimmed(*run_addmul(r, (0, (-1,)), (0, (1,))), p)
    (h,) = zp_divisors([[(0, g), r]], p)
    return () if len(h) > k else h


def by_shape(nrows, ncols, d):
    """E_d by the shape alone: (1,) if q = ncols - d <= 0, () if q > nrows, else None."""
    q = ncols - d
    return (1,) if q <= 0 else () if q > nrows else None


def zp_generators(rows, k, p):
    """E_d's monic generator as a function of q = ncols - d >= 1, () for
    (0), from one computation on the rows of runs mod p of a matrix over
    Z_p[t]/(t^k - 1), k = 0 for Z_p[t^±1].  Where k = k1 m, m the largest
    power of p dividing k, and k1 | p - 1, t^k - 1 is the product of the
    (t - z)^m, z^k1 = 1, so by the CRT Z_p[t]/(t^k - 1) is the product of
    the chain rings Z_p[u]/(u^m), u = t - z, and, as Fitting ideals commute
    with base change, E_d is the product of the (t - z)^e, u^e E_d's
    generator there: e is the least of m and the sum of the q least
    exponents of the invariant factors at z, by _chain_exponents.  That
    route is taken when k m is at most the number of cells: a cell holds at
    most k terms once folded, each mapped to k Taylor coefficients, and a
    row operation costs m^2 products per cell at each of the k1 roots, so
    the route's work is at most cells^3 coefficients and cells^2
    min(nrows, ncols) products, whatever k and the cells' lengths.  Else
    E_d is Delta_q of zp_divisors on the least-span lifts, () past the
    rank, folded by zp_fold."""
    rows = list(rows)
    k1, m = k, 1
    while k1 and not k1 % p:
        k1, m = k1 // p, m * p
    if k and not (p - 1) % k1 and k * m <= sum(map(len, rows)):
        return _by_chain_rings(rows, k1, m, p)
    deltas = zp_divisors([[zp_lift(run, k) for run in row] for row in rows], p)
    return lambda q: zp_fold(deltas[q - 1], k, p) if q <= len(deltas) else ()


def _by_chain_rings(rows, k1, m, p):
    """zp_generators at the order k1 m from the invariant factors at each
    k1-th root of unity x = z^r, z of order k1, each run mapped to its
    Taylor coefficients at x: that of u^i in (x + u)^e is C(e, i) x^(e - i),
    and C(e, i) is C(e mod m, i) mod p for i < m (Lucas)."""
    k, z = k1 * m, _root_of_unity(k1, p)
    roots, powers, taylor = [pow(z, r, p) for r in range(k1)], {}, {}
    for run in {run for row in rows for run in row}:  # u^i at z^r in slot r m + i
        at = [0] * k
        for e, c in enumerate(run[1], run[0]):
            if c:
                e %= k
                if e not in powers:  # t^e's
                    powers[e] = [
                        comb(e % m, i) * roots[r * (e - i) % k1] % p for r in range(k1) for i in range(m)
                    ]
                at = [a + c * b for a, b in zip(at, powers[e])]
        taylor[run] = [a % p for a in at]
    slots = [list(zip(*[taylor[run] for run in row])) for row in rows]
    exps = [_chain_exponents([s[r : r + m] for s in slots], m, p) for r in range(0, k, m)]

    def generator(q):
        g, zero = (1,), True
        for x, es in zip(roots, exps):
            e = min(m, sum(es[:q])) if q <= len(es) else m
            zero = zero and e == m
            for _ in range(e):  # g (t - x)
                g = tuple((a - x * b) % p for a, b in zip((0, *g), (*g, 0)))
        return () if zero else g

    return generator


def _chain_exponents(a, m, p):
    """The exponents e, ascending, of the nonzero invariant factors u^e of a
    matrix over Z_p[u]/(u^m), each row as m lists, the i-th holding the
    coefficients of u^i of its entries, mod p.  The pivot, an entry u^v w of
    least valuation v, w a unit, is one whose u^v coefficient is nonzero, v
    the least i at which some row's i-th list is; it divides every entry.
    Each other row, f u^v in its column, loses f w^-1 times the pivot's row;
    then column operations would clear the pivot's row without touching
    another, so it is dropped, and u^v is the next factor."""
    out = []
    a = [row for row in a if any(map(any, row))]
    while a:
        v, r = next((i, r) for i in range(m) for r, row in enumerate(a) if any(row[i]))
        piv = a.pop(r)
        out.append(v)
        if not a:
            break
        j = next(c for c, x in enumerate(piv[v]) if x)
        w, n = [piv[i][j] for i in range(v, m)], m - v
        inv = [pow(w[0], -1, p)]  # w^-1 mod u^n
        for i in range(1, n):
            inv.append(-inv[0] * sum(map(mul, w[1 : i + 1], inv[i - 1 :: -1])) % p)
        for row in a:
            f = [row[i][j] for i in range(v, m)]
            if any(f):  # row - q piv, q = f w^-1 mod u^n
                q = [-sum(map(mul, f[: i + 1], inv[i::-1])) % p for i in range(n)]
                for i in range(v, m):
                    for d, c in enumerate(q[: i - v + 1]):
                        if c:
                            row[i] = [(x + c * y) % p for x, y in zip(row[i], piv[i - d])]
        a = [row for row in a if any(map(any, row))]
    return out


@cache
def _root_of_unity(k, p):
    """An element of order k in Z_p^*, k | p - 1: x^((p-1)/k) for the least
    x whose power is not 1 at any proper divisor of k."""
    for x in range(1, p):
        z = pow(x, (p - 1) // k, p)
        if all(pow(z, d, p) != 1 for d in range(1, k) if not k % d):
            return z


def zp_elementary(generators, nrows, ncols, ds):
    """E_d, d in ds, lazily and in order, of an nrows x ncols matrix as its
    monic generator, () for (0): by_shape, else generators()(ncols - d),
    generators() the matrix's zp_generators, called once if some E_d
    needs them."""
    gen = None
    for d in ds:
        g = by_shape(nrows, ncols, d)
        if g is None:
            if gen is None:
                gen = generators()
            g = gen(ncols - d)
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
    return elems, span, lambda f, h: not zp_rem((0, f), h, p)[1], (1,)
