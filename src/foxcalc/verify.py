"""End-to-end checks of the theta-curve ideal formulas, runnable from the CLI."""

from __future__ import annotations

from .catalog import theta_alpha, theta_alpha_prime, theta_presentation
from .ideals import Ideal, ideal_equals, ideal_from
from .invariants import alexander_matrix, elementary_ideal, elementary_ideals, twisted_matrix
from .maps import lemma36_rho


def theta_case_ideal(spec, n):
    """The mod-6 case value of the (n-1)-st ideal of the theta-n group."""
    one = spec.one()
    t = spec.monomial((1,))
    t2 = spec.monomial((2,))
    cyclo = one - t + t2  # 1 - t + t^2
    m = n % 6
    if m in (1, 5):
        return ideal_from(spec, (one,))
    if m in (2, 4):
        return ideal_from(spec, (spec.from_int(3), one + t))
    if m == 3:
        return ideal_from(spec, (spec.from_int(2), cyclo))
    return ideal_from(spec, (cyclo,))


def _check_chain(m, r, target):
    """E_d of m is (0) for d < r, target at d = r, and (1) at r+1 and r+2."""
    checks = [Ideal.is_zero] * r + [lambda e: ideal_equals(e, target)] + [Ideal.is_unit] * 2
    return all(ok(e) for ok, e in zip(checks, elementary_ideals(m, range(r + 3))))


def check_theorem34(n):
    """E_d of the theta-n group under alpha_n over Z[t,t^-1], all d."""
    pres = theta_presentation(n)
    m = alexander_matrix(pres, theta_alpha(pres, n))
    return _check_chain(m, n - 1, theta_case_ideal(m.spec, n))


def check_remark34(n):
    """E_{n-1} under alpha'_n over Z[t]/(t^n - 1) equals (1 - t + t^2)."""
    pres = theta_presentation(n)
    m = alexander_matrix(pres, theta_alpha_prime(pres, n))
    spec = m.spec
    one, t, t2 = spec.one(), spec.monomial((1,)), spec.monomial((2,))
    return ideal_equals(elementary_ideal(m, n - 1), ideal_from(spec, (one - t + t2,)))


def check_theorem37(n):
    """Twisted ideals over Z_2[t,t^-1]: (0) below 2n-2, (1+t) there, then (1)."""
    pres = theta_presentation(n)
    m = twisted_matrix(pres, theta_alpha(pres, n), lemma36_rho(pres, n))
    target = ideal_from(m.spec, (m.spec.one() + m.spec.monomial((1,)),))
    return _check_chain(m, 2 * n - 2, target)


def check_lemma36(n):
    """Construction succeeds iff the assignment is a representation."""
    pres = theta_presentation(n)
    lemma36_rho(pres, n)  # raises on failure
    return True
