"""Self-test of the benchmark's checkers: each must accept a right answer and
reject a wrong one.  Every benchmark run does this before it measures; to
run it alone, from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys

import reference as ref


def _cases():
    """(what, checker's verdict on the right answer, on the wrong answer)."""
    from foxcalc import invariants, maps, presentations

    delta = ref.torus_delta(3, 5)
    yield (
        "Delta off by one term",
        ref.check_principal("(" + ref.render_poly(delta) + ")", delta),
        ref.check_principal("(" + ref.render_poly(delta + [1]) + ")", delta),
    )

    # 8_1 over SL(2;Z_3): 72 homs in 11 classes.
    relators = [((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1))]
    homs = ref.brute_force_homs(relators, 2, 3)
    classes = ref.burnside_class_count(homs, 3)
    yield (
        "hom count off by one",
        ref.check_count("homs", len(homs), 72),
        ref.check_count("homs", len(homs) + 1, 72),
    )
    yield (
        "class count off by one",
        ref.check_count("classes", classes, 11),
        ref.check_count("classes", classes + 1, 11),
    )
    other = next(m for m in ref.sl2(3) if m != ref.IDENT)
    yield (
        "hom set with one hom too many",
        ref.check_homs(list(homs), homs),
        ref.check_homs(list(homs) + [(other, ref.IDENT)], homs),
    )

    # A twisted matrix built by foxcalc, and the same with one entry perturbed.
    pres = presentations.parse_presentation("< x, y | x^5 y^-5 >")
    alpha = maps.cyclic_map(pres, (1, 1), 0)
    rho = maps.enumerate_homs(pres, n=2, p=2)[-1]
    entries = [[dict(e.terms) for e in row] for row in invariants.twisted_matrix(pres, alpha, rho).entries]
    perturbed = [[dict(e) for e in row] for row in entries]
    perturbed[0][0][(0,)] = perturbed[0][0].get((0,), 0) + 1
    formula_args = (2, rho.images, alpha.images, [0], 2)
    yield (
        "perturbed twisted-matrix entry",
        ref.fox_formula_violation(entries, *formula_args),
        ref.fox_formula_violation(perturbed, *formula_args),
    )

    # The paper's 8_1 row, and the same with one row altered but the
    # multiplicities, and so the class count, kept.
    paper = ref.PAPER_TABLE3["8_1"]
    rows = ref.parse_table(paper)
    altered = [(("0", "1+t", "1"), rows[0][1])] + rows[1:]
    yield (
        "altered table row",
        ref.check_row_table(rows, 4, paper),
        ref.check_row_table(altered, 4, paper),
    )
    free = [(("1", "1", "1"), 11)]
    yield (
        "epi count off by one",
        ref.check_matrix_table(free, 3, 11, ref.epi_count_theta(3)),
        ref.check_matrix_table(free, 3, 11, ref.epi_count_theta(3) + 1),
    )


def run():
    """The checkers that failed their self-test; empty when all pass."""
    return [what for what, right, wrong in _cases() if right is not None or wrong is None]


def main():
    from run import import_foxcalc

    import_foxcalc()
    failures = run()
    for what in failures:
        print(f"checker self-test failed: {what}", file=sys.stderr)
    print("checker self-test:", "FAIL" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
