"""Reference values computed apart from foxcalc, and the checkers that
compare foxcalc's outputs with them.

Everything here uses the benchmark's own arithmetic: 2x2 matrices over Z_p
as 4-tuples, Laurent polynomials as {exponent vector: coefficient} dicts and
dense integer polynomials as coefficient lists.  foxcalc objects are only
read (their images, entries and rows), never asked to compute.

Every checker returns None when the answer is right and a one-line reason
when it is wrong, so that the self-test can feed each one a wrong answer.
"""

from __future__ import annotations

import itertools
import re

# ---------------------------------------------------------------------------
# Table 3 of the paper: the row-form invariant over SL(2;Z_2), Z_2 target.
# Row 10_3 is published as {(0,1)_4}, which contradicts its own presentation
# (the group has 3 conjugacy classes of representations, so no table for it
# can have multiplicities summing to 4); it is checked by the class count
# alone and therefore left out of this dict.

PAPER_TABLE3 = {
    "0_1": "{(0,1)_3}",
    "2_1^1": "{(0,1)_3}",
    "2_1^-1": "{(1)_1,(1+t,1)_1}",
    "6_1^0,1": "{(0,1)_4,(0,0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "7_1^0,-2": "{(0,1)_2,(0,0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "8_1": "{(0,1)_2,(0,0,1)_1,(0,0,1+t,1)_1}",
    "8_1^1,1": "{(0,1)_4,(0,0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "8_1^-1,-1": "{(0,1)_3,(0,0,1+t,1)_1}",
    "9_1": "{(0,1)_4}",
    "9_1^0,1": "{(0,1)_4,(0,0,0,1)_2,(0,0,1+t,1)_3}",
    "9_1^1,-2": "{(0,1)_3,(0,1+t,1)_1,(0,0,1+t,1)_1}",
    "10_1": "{(0,1)_2,(0,0,1+t,1)_1}",
    "10_2": "{(0,1)_4}",
    "10_1^1": "{(0,1)_2,(0,0,1)_1,(0,0,1+t,1)_1}",
    "10_1^0,1": "{(0,1)_3,(0,0,1)_2,(0,0,0,1)_3,(0,0,1+t,1)_2}",
    "10_2^0,1": "{(0,1)_3,(0,0,1)_2,(0,0,0,1)_2,(0,0,1+t,1)_3}",
    "10_1^1,1": "{(0,1)_4,(0,0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "10_1^0,0,1": "{(0,0,0,1)_16,(0,0,0,0,1)_4,(0,0,0,1+t,1)_8,(0,0,0,0,1+t,1)_3}",
    "10_1^0,-2": "{(0,0,1)_2,(0,0,1+t,1)_3}",
    "10_2^0,-2": "{(0,0,1)_2,(0,0,1+t,1)_3}",
    "10_1^-1,-1": "{(0,1)_1,(0,1+t,1)_2,(0,0,1+t,1)_1}",
    "10_1^-2,-2": "{(0,1)_3,(0,0,1+t,1)_1}",
}

# Table 1 of the paper for the rank-2 free group < x, y | >.
PAPER_FREE_GROUP_TABLE1 = "{(1,1,1)_11}"

_ROW_RE = re.compile(r"\(([^)]*)\)_(\d+)")


def parse_table(text):
    """'{(a,b)_2,(c)_1}' -> sorted [(('a','b'), 2), (('c',), 1)]."""
    return sorted(
        (tuple(entries.split(",")), int(mult)) for entries, mult in _ROW_RE.findall(text)
    )


# ---------------------------------------------------------------------------
# SL(2;Z_p) as 4-tuples (a, b, c, d) for the matrix [[a, b], [c, d]].

IDENT = (1, 0, 0, 1)


def m_mul(x, y, p):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def m_inv_sl(x, p):
    a, b, c, d = x
    return (d % p, -b % p, -c % p, a % p)


def m_pow(x, e, p):
    if e < 0:
        x, e = m_inv_sl(x, p), -e
    out = IDENT
    while e:
        if e & 1:
            out = m_mul(out, x, p)
        x = m_mul(x, x, p)
        e >>= 1
    return out


def sl2(p):
    return [
        m for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p == 1
    ]


def flat(matrix):
    """foxcalc's ((a, b), (c, d)) -> (a, b, c, d)."""
    return tuple(x for row in matrix for x in row)


def brute_force_homs(relators, ngens, p):
    """Every assignment of SL(2;Z_p) matrices to the generators that sends
    each relator (a tuple of (generator, exponent) letters) to the identity."""
    group = sl2(p)
    out = set()
    for images in itertools.product(group, repeat=ngens):
        if all(_word_value(rel, images, p) == IDENT for rel in relators):
            out.add(images)
    return out


def _word_value(letters, images, p):
    acc = IDENT
    for g, e in letters:
        acc = m_mul(acc, m_pow(images[g], e, p), p)
    return acc


def burnside_class_count(homs, p):
    """Orbits of the homs under simultaneous conjugation by SL(2;Z_p):
    (1/|G|) * sum over g of the number of homs whose images all commute with g."""
    group = sl2(p)
    total = 0
    for g in group:
        centralizer = {h for h in group if m_mul(g, h, p) == m_mul(h, g, p)}
        total += sum(1 for hom in homs if all(x in centralizer for x in hom))
    if total % len(group):
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return total // len(group)


# ---------------------------------------------------------------------------
# Integer polynomials in t (dense, lowest degree first) and their rendering.


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def poly_exact_div(a, b):
    """a / b over Z for a monic b that divides a exactly."""
    a, b = _trim(a), _trim(b)
    if b[-1] != 1:
        raise ArithmeticError("divisor must be monic")
    q = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        q[k] = c
        for i, y in enumerate(b):
            rem[k + i] -= c * y
    if any(rem):
        raise ArithmeticError("division is not exact")
    return _trim(q)


def t_power_minus_one(k):
    return [-1] + [0] * (k - 1) + [1]


def geometric(m):
    """1 + t + ... + t^(m-1): E_1 of < x, y | x^m y^-m > with x, y -> t."""
    return [1] * m


def torus_delta(a, b):
    """(t^ab - 1)(t - 1) / ((t^a - 1)(t^b - 1)), the Alexander polynomial of
    the (a, b) torus knot for coprime a, b."""
    num = poly_mul(t_power_minus_one(a * b), t_power_minus_one(1))
    return poly_exact_div(poly_exact_div(num, t_power_minus_one(a)), t_power_minus_one(b))


def render_poly(cs, var="t"):
    """Ascending render in foxcalc's documented format, e.g. '1-t+t^2'."""
    pieces = []
    for k, c in enumerate(cs):
        if not c:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if not mono:
            piece = str(c)
        elif c == 1:
            piece = mono
        elif c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{c}{mono}"
        pieces.append(piece)
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials {exponent vector: coefficient}, reduced mod p (p = 0: Z)
# and by the variable orders (0: infinite order).


def _reduce_exps(exps, orders):
    return tuple(e % k if k else e for e, k in zip(exps, orders))


def _lp_add_product(acc, a, b, orders):
    """acc += a * b, in place."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = _reduce_exps(tuple(x + y for x, y in zip(ea, eb)), orders)
            acc[e] = acc.get(e, 0) + ca * cb
    return acc


def _lp_is_zero(a, p):
    return all((c % p if p else c) == 0 for c in a.values())


def fox_formula_violation(entries, n, rho_images, alpha_images, orders, p):
    """The Fox fundamental formula on a (twisted) Alexander matrix.

    entries: nt x ns matrix of {exps: coeff} dicts, block (i, j) being the
    image of d r_i / d x_j under Phi = rho (x) alpha.  rho_images are n x n
    integer matrices (row tuples), alpha_images exponent vectors.  For every
    relator, sum_j Phi(d r / d x_j) (Phi(x_j) - I) must vanish.  Returns None
    or the first (relator, row, column) where it does not.
    """
    nvars = len(orders)
    zero = (0,) * nvars
    ngens = len(alpha_images)
    phi_minus_one = []
    for rho, alpha in zip(rho_images, alpha_images):
        alpha = _reduce_exps(alpha, orders)
        block = []
        for c in range(n):
            row = []
            for b in range(n):
                poly = {}
                if rho[c][b]:
                    poly[alpha] = rho[c][b]
                if c == b:
                    poly[zero] = poly.get(zero, 0) - 1
                row.append(poly)
            block.append(row)
        phi_minus_one.append(block)
    for i in range(len(entries) // n):
        for a in range(n):
            for b in range(n):
                acc = {}
                for j in range(ngens):
                    for c in range(n):
                        _lp_add_product(
                            acc, entries[n * i + a][n * j + c], phi_minus_one[j][c][b], orders
                        )
                if not _lp_is_zero(acc, p):
                    return f"Fox fundamental formula fails at relator {i}, entry ({a},{b})"
    return None


# ---------------------------------------------------------------------------
# Checkers.


def check_row_table(rows, class_count, paper=None):
    """A row-form table: multiplicities sum to the class count, and the rows
    equal the paper's as multisets where the paper publishes them."""
    total = sum(mult for _, mult in rows)
    if total != class_count:
        return f"multiplicities sum to {total}, class count is {class_count}"
    if paper is not None and sorted(rows) != parse_table(paper):
        return f"rows differ from the paper's {paper}"
    return None


def check_matrix_table(rows, columns, class_count, epi_count, paper=None):
    """A matrix-form table: one column per epimorphism, one row per class."""
    if columns != epi_count:
        return f"{columns} columns, expected {epi_count} epimorphisms"
    if any(len(entries) != columns for entries, _ in rows):
        return "ragged row"
    return check_row_table(rows, class_count, paper)


def check_homs(found, expected):
    """Homs as sets of flattened image tuples; counts compared first."""
    if len(found) != len(expected):
        return f"{len(found)} homs, brute force gives {len(expected)}"
    if set(found) != set(expected):
        return "hom set differs from brute force"
    return None


def check_count(what, got, expected):
    if got != expected:
        return f"{got} {what}, expected {expected}"
    return None


def check_principal(rendered, coeffs):
    """A rendered principal ideal against its generator's coefficients."""
    want = "(" + render_poly(coeffs) + ")"
    if rendered != want:
        return f"ideal {rendered[:60]!r} is not {want[:60]!r}"
    return None


def epi_count_theta(n):
    """Epimorphisms of the theta-n group onto Z_2: every x_i has exponent sum
    1 in the relator, so the images form the nonzero vectors of a hyperplane."""
    return 2 ** (n - 1) - 1
