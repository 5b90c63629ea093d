"""Built-in presentations: theta-curve groups and the surface-link table.

Also the line-oriented presentation file format:

    group <name>
    gens <g1> <g2> ...
    rel <word>
    # comment
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .maps import cyclic_map
from .presentations import ParseError, Presentation, Word, parse_presentation, parse_word


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    presentation: Presentation


def theta_presentation(n):
    """<x_1..x_n | (x_1 x_n x_1^-1)(x_2 x_1 x_2^-1)...(x_n x_n-1 x_n^-1)>."""
    if n < 3:
        raise ParseError("theta index must be >= 3")
    names = tuple(f"x{i}" for i in range(1, n + 1))
    letters = []
    for i in range(1, n + 1):
        prev = n if i == 1 else i - 1
        letters += [(i - 1, 1), (prev - 1, 1), (i - 1, -1)]
    return Presentation(names, (Word(tuple(letters)),))


def theta_wirtinger_presentation(n):
    """The 3n-generator Wirtinger presentation of the theta-n group.

    Relators, indices mod n (so index 0 means n):
        r_i  = x_i x_{i-1} y_i^-1 x_{i-1}^-1
        r'_i = z_{i-1} x_i x_{i-1}^-1 x_i^-1
        r''  = z_n z_1 z_2 ... z_{n-1}
    """
    if n < 3:
        raise ParseError("theta index must be >= 3")
    pairs = [(i, i - 1 or n) for i in range(1, n + 1)]
    gens = ", ".join(f"{c}{i}" for c in "xyz" for i in range(1, n + 1))
    rels = (
        [f"x{i} x{j} y{i}^-1 x{j}^-1" for i, j in pairs]
        + [f"z{j} x{i} x{j}^-1 x{i}^-1" for i, j in pairs]
        + [" ".join(f"z{i}" for i in [n, *range(1, n)])]
    )
    return parse_presentation(f"< {gens} | {', '.join(rels)} >")


def theta_alpha(pres, n):
    """alpha_n: x_i -> t for i < n, x_n -> t^(1-n), into <t | empty>."""
    return cyclic_map(pres, tuple([1] * (n - 1) + [1 - n]), 0)


def theta_alpha_prime(pres, n):
    """alpha'_n: every x_i -> t, into <t | t^n>."""
    return cyclic_map(pres, (1,) * n, n)


def theta_wirtinger_alpha(pres, n, x_exponents, order=0):
    """Extend x-generator exponents to y_i, z_i (forced by the relators)."""
    x = list(x_exponents)
    y = [x[i] for i in range(n)]
    z = [x[i] for i in range(n)]  # z_j carries the exponent of x_j, z_n that of x_n
    return cyclic_map(pres, tuple(x + y + z), order)


_YOSHIKAWA = {
    "0_1": "< x | >",
    "2_1^1": "< x | >",
    "2_1^-1": "< x | x^2 >",
    "6_1^0,1": "< x, y | x y x^-1 y^-1 >",
    "7_1^0,-2": "< x, y | y x y x^-1 >",
    "8_1": "< x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1 >",
    "8_1^1,1": "< x, y | x y x^-1 y^-1 >",
    "8_1^-1,-1": "< x, y | x y x y^-1, x^-2 y^2 >",
    "9_1": "< x1, x2 | x1 x2^-1 x1 x2 x1^-1 x2^-1 >",
    "9_1^0,1": "< x, y | x^-1 y^-1 x y x^-1 y x y^-1 >",
    "9_1^1,-2": "< x, y | x y x y^-1, x^2 >",
    "10_1": "< x1, x2 | x1^-1 x2 x1 x2^-1 x1 x2 x1^-1 x2^-1 x1 x2^-1 >",
    "10_2": "< x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1, x1^2 x2 x1^-2 x2^-1 >",
    "10_3": "< x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1, x1^3 x2 x1^-3 x2^-1 >",
    "10_1^1": "< x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1 >",
    "10_1^0,1": "< x, y | x^-1 y^-1 x^-1 y x y x y^-1 >",
    "10_2^0,1": "< x, y | x^2 y x^-2 y^-1 >",
    "10_1^1,1": "< x, y | x y x^-1 y^-1 >",
    "10_1^0,0,1": "< x, y, z | y^-1 x^-1 z x y z^-1 >",
    "10_1^0,-2": "< x, y | x^-1 y^-1 x y x^-1 y x y >",
    "10_2^0,-2": "< x, y | x y^2 x^-1 y^-2, y x^-1 y^-1 x y x^-1 y x >",
    "10_1^-1,-1": "< x, y | x^2 y^2, y x y x y x^-1 y^-1 x^-1 >",
    "10_1^-2,-2": "< x, y | x y x y^-1, x^-2 y^2 >",
}

YOSHIKAWA_KEYS = tuple(_YOSHIKAWA)


def catalog_lookup(key):
    """Resolve `theta:<n>`, `theta-wirtinger:<n>`, or `yoshikawa:<id>`."""
    if key.startswith("theta:"):
        return CatalogEntry(key, theta_presentation(_parse_index(key[len("theta:") :])))
    if key.startswith("theta-wirtinger:"):
        n = _parse_index(key[len("theta-wirtinger:") :])
        return CatalogEntry(key, theta_wirtinger_presentation(n))
    if key.startswith("yoshikawa:"):
        ident = key[len("yoshikawa:") :]
        if ident not in _YOSHIKAWA:
            raise ParseError(f"unknown surface-link id {ident!r}")
        return CatalogEntry(key, parse_presentation(_YOSHIKAWA[ident]))
    raise ParseError(f"unknown catalog key {key!r}")


def _parse_index(text):
    try:
        n = int(text)
    except ValueError:
        raise ParseError(f"bad index {text!r}")
    if n < 3:
        raise ParseError("index must be >= 3")
    return n


def parse_presentation_file(text):
    """Parse the `group`/`gens`/`rel` line format into a Presentation."""
    name = None
    gens = None
    relwords = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "group":
            name = rest.strip()
        elif keyword == "gens":
            if gens is not None:
                raise ParseError(f"line {lineno}: duplicate gens line")
            gens = tuple(rest.split())
        elif keyword == "rel":
            relwords.append((lineno, rest))
        else:
            raise ParseError(f"line {lineno}: unknown keyword {keyword!r}")
    if gens is None:
        raise ParseError("missing gens line")
    pres = Presentation(gens, ())
    table = pres.gen_index
    relators = []
    for lineno, text_ in relwords:
        try:
            relators.append(parse_word(text_, table))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}")
    return Presentation(gens, tuple(relators)), name


def load_presentation(source):
    """(presentation, catalog entry or None) of an inline `< ... | ... >`
    form, a file path, or a catalog key: a path that exists is read as a
    file, and else a `family:key` source is looked up, its errors its own."""
    if source.lstrip().startswith("<"):
        return parse_presentation(source), None
    if ":" in source and not os.path.exists(source):
        entry = catalog_lookup(source)
        return entry.presentation, entry
    with open(source, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source} is not UTF-8: {exc}") from exc
    return parse_presentation_file(text)[0], None
