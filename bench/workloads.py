"""The benchmark's workloads: inputs built from a seed, and the operations
that run foxcalc's public API on them.

An operation has ``run()`` (the timed call into foxcalc), ``prepare()`` (its
reference values, computed once per run outside any timing) and
``check(result)`` (None, or why the result is wrong).  foxcalc functions are
looked up through their modules at call time, so tracing wrappers apply.
"""

from __future__ import annotations

import random

from foxcalc import catalog, ideals, invariants, maps, presentations, verify

import reference as ref

# Torus knots T(a, b), a and b coprime: E_1 is bound by the Z[t] Groebner
# basis of two entries of degree about ab.
TORUS_PAIRS = ((17, 19), (19, 23), (23, 29), (29, 31), (31, 37), (37, 41), (41, 43))

# E_1 of < x, y | x^m y^-m >: one operation per centre, m = centre +- 3.
# The matrix build is quadratic in m.
POWER_CENTRES = (150, 250, 350, 450)

# Twisted operations on < x, y | x^m y^-m >.  Every m is prime to 12, the
# exponent of SL(2;Z_3), so x -> A, y -> B is a hom exactly when A = B: the
# hom count (6 over Z_2, 24 over Z_3) is the same for every m and seed.
# The cost grows with m; these keep the round short, so that a run times
# each operation often enough for its median time to be steady.
TWISTED_M = (13, 25, 37)


def _relators(pres):
    return [rel.letters for rel in pres.relators]


class RowTable:
    """Table 3 row form over SL(2;Z_p) with target Z_2."""

    def __init__(self, label, pres, p, paper=None):
        self.name = f"table3 {label} p={p}"
        self.pres, self.p, self.paper = pres, p, paper

    def run(self):
        return invariants.surfacelink_invariant(self.pres, p=self.p)

    def prepare(self):
        homs = ref.brute_force_homs(_relators(self.pres), self.pres.s, self.p)
        self.classes = ref.burnside_class_count(homs, self.p)

    def check(self, table):
        return ref.check_row_table(table.rows, self.classes, self.paper)


class MatrixTable:
    """Table 1 matrix form: classes into SL(2;Z_2) by epimorphisms onto Z_2."""

    def __init__(self, label, pres, epis, paper=None):
        self.name = f"table1 {label}"
        self.pres, self.epis, self.paper = pres, epis, paper

    def run(self):
        return invariants.handlebody_invariant(self.pres)

    def prepare(self):
        homs = ref.brute_force_homs(_relators(self.pres), self.pres.s, 2)
        self.classes = ref.burnside_class_count(homs, 2)

    def check(self, table):
        return ref.check_matrix_table(
            table.rows, table.columns, self.classes, self.epis, self.paper
        )


class TheoremCheck:
    """One of the paper's theta-curve formulas for one n, via foxcalc.verify."""

    def __init__(self, check_name, n):
        self.name = f"{check_name} n={n}"
        self.check_name, self.n = check_name, n

    def run(self):
        return getattr(verify, self.check_name)(self.n)

    def prepare(self):
        pass

    def check(self, result):
        return None if result is True else f"{self.check_name}({self.n}) returned {result!r}"


def _entries(matrix):
    return [[dict(e.terms) for e in row] for row in matrix.entries]


def _fox_formula(matrix, rho_images, alpha, n):
    orders = [k for _, k in alpha.variables]
    return ref.fox_formula_violation(
        _entries(matrix), n, rho_images, alpha.images, orders, matrix.spec.modulus
    )


class UntwistedE1:
    """E_1 over Z[t^+-1] of a two-generator one-relator group, against the
    closed form of its generator."""

    def __init__(self, label, pres, alpha, delta):
        self.name = f"E1 {label}"
        self.pres, self.alpha, self.delta = pres, alpha, delta

    def run(self):
        m = invariants.alexander_matrix(self.pres, self.alpha)
        return m, ideals.render_ideal(invariants.elementary_ideal(m, 1))

    def prepare(self):
        pass

    def check(self, result):
        matrix, rendered = result
        trivial = [((1,),)] * self.pres.s
        return _fox_formula(matrix, trivial, self.alpha, 1) or ref.check_principal(
            rendered, self.delta
        )


class TwistedIdeals:
    """Homs into SL(2;Z_p), their conjugacy classes, and twisted E_d for
    each class."""

    def __init__(self, label, pres, alpha, p):
        self.name = f"twisted {label} p={p}"
        self.pres, self.alpha, self.p = pres, alpha, p

    def run(self):
        homs = maps.enumerate_homs(self.pres, n=2, p=self.p)
        classes = maps.conjugacy_classes(homs)
        rows = []
        for rho, _ in classes:
            m = invariants.twisted_matrix(self.pres, self.alpha, rho)
            ideals_d = tuple(
                ideals.render_ideal(invariants.elementary_ideal(m, d))
                for d in range(1, 2 * self.pres.s + 1)
            )
            rows.append((rho, m, ideals_d))
        return homs, classes, rows

    def prepare(self):
        self.homs = ref.brute_force_homs(_relators(self.pres), self.pres.s, self.p)
        self.classes = ref.burnside_class_count(self.homs, self.p)

    def check(self, result):
        homs, classes, rows = result
        found = [tuple(ref.flat(m) for m in h.images) for h in homs]
        error = (
            ref.check_homs(found, self.homs)
            or ref.check_count("classes", len(classes), self.classes)
            or ref.check_count("homs in classes", sum(size for _, size in classes), len(homs))
        )
        for rho, matrix, _ in rows:
            error = error or _fox_formula(matrix, rho.images, self.alpha, 2)
        return error


def _two_generator(letters):
    """A one-relator presentation on x, y, parsed from its text."""
    word = " ".join(f"{'xy'[g]}^{e}" for g, e in letters)
    text = f"< x, y | {word} >"
    return text, presentations.parse_presentation(text)


def _variant(rng, letters, exponents):
    """A seeded presentation of the same group: generators swapped and/or
    the relator inverted.  The images under alpha follow the swap."""
    if rng.random() < 0.5:
        letters = [(1 - g, e) for g, e in letters]
        exponents = exponents[::-1]
    if rng.random() < 0.5:
        letters = [(g, -e) for g, e in reversed(letters)]
    return letters, exponents


def paper_tables(rng):
    ops = []
    for key in catalog.YOSHIKAWA_KEYS:
        pres = catalog.catalog_lookup(f"yoshikawa:{key}").presentation
        ops.append(RowTable(key, pres, 2, ref.PAPER_TABLE3.get(key)))
        ops.append(RowTable(key, pres, 3))
    for source, epis, paper in (
        ("theta:3", ref.epi_count_theta(3), None),
        ("theta:4", ref.epi_count_theta(4), None),
        ("< x, y | >", 3, ref.PAPER_FREE_GROUP_TABLE1),
    ):
        pres, _ = catalog.load_presentation(source)
        ops.append(MatrixTable(source, pres, epis, paper))
    return ops


def theta_formulas(rng):
    ops = [TheoremCheck("check_theorem34", n) for n in range(3, 61)]
    ops += [TheoremCheck("check_remark34", n) for n in range(3, 25)]
    ops += [TheoremCheck("check_theorem37", n) for n in range(5, 38) if n % 6 in (1, 5)]
    return ops


def long_relators(rng):
    ops = []
    for centre in POWER_CENTRES:
        m = centre + rng.randint(-3, 3)
        letters, exps = _variant(rng, [(0, m), (1, -m)], (1, 1))
        text, pres = _two_generator(letters)
        ops.append(UntwistedE1(text, pres, maps.cyclic_map(pres, exps, 0), ref.geometric(m)))
    for a, b in TORUS_PAIRS:
        letters, exps = _variant(rng, [(0, a), (1, -b)], (b, a))
        text, pres = _two_generator(letters)
        ops.append(
            UntwistedE1(text, pres, maps.cyclic_map(pres, exps, 0), ref.torus_delta(a, b))
        )
    for m in TWISTED_M:
        letters, exps = _variant(rng, [(0, m), (1, -m)], (1, 1))
        text, pres = _two_generator(letters)
        alpha = maps.cyclic_map(pres, exps, 0)
        ops += [TwistedIdeals(text, pres, alpha, p) for p in (2, 3)]
    return ops


def build(workload, seed):
    """The operations of one round, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {
        "paper-tables": paper_tables,
        "theta-formulas": theta_formulas,
        "long-relators": long_relators,
    }[workload](rng)
    rng.shuffle(ops)
    return ops
