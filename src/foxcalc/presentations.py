"""Free-group words, free reduction, and finitely presented groups.

Words are stored freely reduced as tuples of (generator index, exponent)
pairs.  Relators are words equal to the identity; relations ``u = v`` must
be rewritten by the caller as ``u v^-1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

MAX_EXPONENT = 2**31 - 1

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    pass


def free_reduce(letters):
    """Freely reduce a sequence of (gen, exp) pairs, merging and cancelling."""
    out = []
    for gen, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word over generators indexed 0..s-1."""

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", free_reduce(self.letters))

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n):
        if n == 0:
            return IDENTITY
        base = self if n > 0 else self.inverse()
        w = IDENTITY
        for _ in range(abs(n)):
            w = w * base
        return w

    def length(self):
        """Length as a group element (sum of |exponents|)."""
        return sum(abs(e) for _, e in self.letters)

    def exponent_sums(self, s):
        """Total exponent of each of the s generators."""
        sums = [0] * s
        for g, e in self.letters:
            sums[g] += e
        return tuple(sums)

    def render(self, names):
        if not self.letters:
            return ""
        parts = []
        for g, e in self.letters:
            parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
        return " ".join(parts)


IDENTITY = Word(())


def word_key(w):
    """Canonical total order on words: length, then letter sequence."""
    return (w.length(), w.letters)


def parse_word(text, gens):
    """Parse a whitespace-separated word ``gen['^'int] ...`` and reduce it.

    gens maps generator name -> index.  Empty text gives the identity.
    """
    letters = []
    for token in text.split():
        if "^" in token:
            name, _, expstr = token.partition("^")
            try:
                exp = int(expstr)
            except ValueError:
                raise ParseError(f"malformed exponent in token {token!r}")
            if abs(exp) > MAX_EXPONENT:
                raise ParseError(f"exponent out of range in token {token!r}")
        else:
            name, exp = token, 1
        if name not in gens:
            raise ParseError(f"unknown generator {name!r}")
        letters.append((gens[name], exp))
    return Word(tuple(letters))


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: ordered generator names and relator words."""

    generators: tuple
    relators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ParseError("presentation needs at least one generator")
        seen = set()
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise ParseError(f"bad generator name {name!r}")
            if name in seen:
                raise ParseError(f"duplicate generator {name!r}")
            seen.add(name)
        s = len(self.generators)
        for rel in self.relators:
            for g, _ in rel.letters:
                if not 0 <= g < s:
                    raise ParseError("relator references undeclared generator")

    @property
    def gen_index(self):
        return {name: i for i, name in enumerate(self.generators)}

    @property
    def s(self):
        return len(self.generators)

    @property
    def t(self):
        return len(self.relators)

    def render(self):
        gens = ", ".join(self.generators)
        rels = ", ".join(r.render(self.generators) for r in self.relators)
        return f"< {gens} | {rels} >"


def parse_presentation(text):
    """Parse the inline form ``< g1, g2, ... | w1, w2, ... >``."""
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise ParseError("expected '< gens | relators >'")
    body = text[1:-1]
    if "|" not in body:
        raise ParseError("missing '|' separator")
    genpart, _, relpart = body.partition("|")
    names = tuple(tok.strip() for tok in genpart.split(",") if tok.strip())
    if not names:
        raise ParseError("empty generator list")
    pres = Presentation(names, ())
    table = pres.gen_index
    relators = tuple(
        parse_word(tok, table) for tok in relpart.split(",") if tok.strip()
    )
    return Presentation(names, relators)
