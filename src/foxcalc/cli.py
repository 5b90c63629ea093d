"""Command-line interface.

Exit codes: 0 success, 1 computation error, 2 parse error or bad input, 3
verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import load_presentation
from .ideals import render_ideal
from .invariants import (
    alexander_matrix,
    elementary_ideal,
    elementary_ideals,
    handlebody_invariant,
    surfacelink_invariant,
    twisted_matrix,
)
from .maps import MapError, abelian_map, hom_classes, lemma36_rho
from .presentations import ParseError
from .rings import RingError, is_prime
from . import verify


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def parse_alpha_spec(spec_text, pres):
    """Parse `x1=t,x2=t^-4@t^k` (or `@t^inf`) into an AbelianMap."""
    if "@" not in spec_text:
        raise CliError("alpha spec needs a target, e.g. '...@t^2'", 2)
    imgpart, _, target = spec_text.rpartition("@")
    if not target.startswith("t^"):
        raise CliError("alpha target must be 't^k' or 't^inf'", 2)
    ordtext = target[2:]
    order = 0 if ordtext == "inf" else _integer(ordtext, "alpha target order")
    if order < 0:
        raise CliError(f"alpha target order must be >= 0, got {order}", 2)
    exps = {}
    for piece in imgpart.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, val = piece.partition("=")
        name = name.strip()
        if val != "t" and not val.startswith("t^"):
            raise CliError(f"bad image {piece!r}", 2)
        if name not in pres.generators:
            raise CliError(f"alpha spec names {name!r}, not a generator", 2)
        if name in exps:
            raise CliError(f"alpha spec gives {name!r} twice", 2)
        exps[name] = _integer(val[2:], "alpha exponent") if val != "t" else 1
    try:
        images = tuple((exps[name],) for name in pres.generators)
    except KeyError as exc:
        raise CliError(f"alpha spec missing generator {exc}", 2)
    try:
        return abelian_map(pres, images, (("t", order),))
    except MapError as exc:
        raise CliError(str(exc), 1)


def _integer(text, what):
    try:
        return int(text)
    except ValueError:
        raise CliError(f"bad {what} {text!r}", 2)


def prime(text):
    """argparse type of a --p that must be prime; argparse names it in its
    message for text that is not an integer."""
    p = int(text)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def modulus(text):
    """argparse type of a --p that is 0, meaning Z, or prime."""
    return 0 if int(text) == 0 else prime(text)


def natural(text):
    """argparse type of a --d, at least 0."""
    d = int(text)
    if d < 0:
        raise argparse.ArgumentTypeError(f"{d} is negative")
    return d


def _load(source):
    try:
        pres, _ = load_presentation(source)
    except (ParseError, OSError) as exc:
        raise CliError(str(exc), 2)
    return pres


def _parse_rho(text, pres):
    if text == "lemma36":
        return lemma36_rho(pres, pres.s)
    raise CliError("only --rho lemma36 is built in; supply a rep via the API", 2)


def cmd_ideal(args):
    pres = _load(args.source)
    alpha = parse_alpha_spec(args.alpha, pres)
    m = alexander_matrix(pres, alpha, modulus=args.p)
    # --all-d runs over the columns of the unreduced matrix
    ds = range(m.declared_cols + 1) if args.all_d else [1 if args.d is None else args.d]
    for d, ideal in zip(ds, elementary_ideals(m, ds)):
        print(f"E_{d} = {render_ideal(ideal)}")
    return 0


def cmd_twisted(args):
    pres = _load(args.source)
    alpha = parse_alpha_spec(args.alpha, pres)
    rho = _parse_rho(args.rho, pres)
    m = twisted_matrix(pres, alpha, rho)
    print(f"E_{args.d} = {render_ideal(elementary_ideal(m, args.d))}")
    return 0


def cmd_reps(args):
    pres = _load(args.source)
    classes = hom_classes(pres, n=2, p=args.p)
    print(f"homomorphisms: {sum(size for _, size in classes)}")
    print(f"conjugacy classes: {len(classes)}")
    return 0


def _emit_table(table, as_json):
    if as_json:
        print(json.dumps(table.to_json()))
    else:
        print(table.render())


def cmd_table1(args):
    if args.k < 2:
        raise CliError(f"--k must be at least 2, got {args.k}", 2)
    pres = _load(args.source)
    table = handlebody_invariant(pres, p=args.p, k=args.k, d=args.d)
    _emit_table(table, args.json)
    return 0


def cmd_table3(args):
    if args.k == 1 or args.k < 0:
        raise CliError(f"--k must be 0 (infinite) or at least 2, got {args.k}", 2)
    pres = _load(args.source)
    table = surfacelink_invariant(pres, p=args.p, k=args.k)
    _emit_table(table, args.json)
    return 0


def cmd_verify(args):
    """An empty n range, or an n outside the target's hypotheses (n >= 3 for
    theorem3.4 and remark3.4, n >= 5 with n = 1 or 5 mod 6 for theorem3.7
    and lemma3.6), exits 2 before any check runs."""
    target = args.target
    checks = {
        "theorem3.4": verify.check_theorem34,
        "remark3.4": verify.check_remark34,
        "theorem3.7": verify.check_theorem37,
        "lemma3.6": verify.check_lemma36,
    }
    if target not in checks:
        raise CliError(f"unknown verification target {target!r}", 2)
    if target in ("theorem3.4", "remark3.4"):
        ns = range(3, args.n_max + 1)
        if not ns:
            raise CliError(f"--n-max must be at least 3, got {args.n_max}", 2)
    else:
        ns = _parse_ns(args.n_list)
        if not ns or any(n < 5 or n % 6 not in (1, 5) for n in ns):
            raise CliError(f"{target} needs n >= 5 with n = 1 or 5 mod 6, got {args.n_list!r}", 2)
    results = [(n, checks[target](n)) for n in ns]
    ok = True
    for n, good in results:
        print(f"{target} n={n}: {'ok' if good else 'MISMATCH'}")
        ok = ok and good
    return 0 if ok else 3


def _parse_ns(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"bad n list {text!r}", 2)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="foxcalc",
        description="Alexander and twisted Alexander ideals of finitely presented groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideal", help="untwisted elementary ideals")
    p.add_argument("source", help="catalog key, inline presentation, or file")
    p.add_argument("--alpha", required=True, help="e.g. 'x1=t,x2=t^-4@t^inf'")
    p.add_argument("--d", type=natural, default=None)
    p.add_argument("--all-d", action="store_true")
    p.add_argument("--p", type=modulus, default=0, help="coefficient modulus, 0 or prime")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("twisted", help="twisted elementary ideals")
    p.add_argument("source")
    p.add_argument("--alpha", required=True)
    p.add_argument("--rho", required=True, help="'lemma36'")
    p.add_argument("--d", type=natural, required=True)
    p.set_defaults(func=cmd_twisted)

    p = sub.add_parser("reps", help="count homomorphisms to SL(2;Z_p)")
    p.add_argument("source")
    p.add_argument("--p", type=prime, default=2)
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser("table1", help="matrix-form handlebody invariant")
    p.add_argument("source")
    p.add_argument("--p", type=prime, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=natural, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table3", help="row-form surface-link invariant")
    p.add_argument("source")
    p.add_argument("--p", type=prime, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("verify", help="re-derive the theta-curve formulas")
    p.add_argument("target", help="theorem3.4 | remark3.4 | theorem3.7 | lemma3.6")
    p.add_argument("--n-max", type=int, default=24)
    p.add_argument("--n-list", default="5,7,11,13")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (RingError, MapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
