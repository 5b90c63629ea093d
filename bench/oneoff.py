"""One-off timings of inputs too slow for a workload, each under a budget:
Table 3 over SL(2;Z_5) (all 23 surface links), Table 1 for theta:5, and
E_1 of < x, y | x^m y^-m > at m = 10^4.  From the repository root:

    python3 bench/oneoff.py --budget 60

Prints one line per operation: its seconds, or that it did not finish.  The
Table 3 rows over SL(2;Z_5) are timed but not checked, since brute-force
references over the 120 elements of SL(2;Z_5) cost as much as the tables.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from run import import_foxcalc, run_op


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget", type=float, default=60, help="seconds per operation")
    args = parser.parse_args()
    import_foxcalc()
    from foxcalc import catalog, maps, presentations

    import reference as ref
    import workloads

    cases = []
    for key in catalog.YOSHIKAWA_KEYS:
        pres = catalog.catalog_lookup(f"yoshikawa:{key}").presentation
        cases.append((workloads.RowTable(key, pres, 5), False))
    theta5, _ = catalog.load_presentation("theta:5")
    cases.append((workloads.MatrixTable("theta:5", theta5, ref.epi_count_theta(5)), True))
    m = 10**4
    pres = presentations.parse_presentation(f"< x, y | x^{m} y^-{m} >")
    cases.append(
        (workloads.UntwistedE1(f"x^{m} y^-{m}", pres, maps.cyclic_map(pres, (1, 1), 0),
                               ref.geometric(m)), True)
    )

    start = perf_counter()
    for op, checked in cases:
        if checked:
            op.prepare()
        elapsed, result, error = run_op(op, args.budget)
        if error is None and checked:
            error = op.check(result)
        status = error or ("ok" if checked else "ok, unchecked")
        print(f"{op.name}: {elapsed:.2f} s, {status}", flush=True)
    print(f"total {perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
