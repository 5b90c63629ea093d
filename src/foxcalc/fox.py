"""Group-ring arithmetic over ZF_s and Fox free derivatives."""

from __future__ import annotations

from dataclasses import dataclass, field

from .presentations import IDENTITY, Word, word_key


def _clean(terms):
    return {w: c for w, c in terms.items() if c != 0}


@dataclass(frozen=True)
class GroupRingElement:
    """Finite Z-linear combination of free-group words.

    The term map never stores zero coefficients; the zero element has an
    empty map.  Treated as immutable.
    """

    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", _clean(self.terms))

    @classmethod
    def from_word(cls, w, coeff=1):
        return cls({w: coeff})

    def __add__(self, other):
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return GroupRingElement(terms)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u * v
                terms[w] = terms.get(w, 0) + a * b
        return GroupRingElement(terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))))


ZERO = GroupRingElement({})
ONE = GroupRingElement({IDENTITY: 1})


def _power_derivative(gen, p):
    """Fox derivative of x^p with respect to x, by the closed form."""
    terms = {}
    if p > 0:
        for m in range(p):
            terms[Word(((gen, m),))] = 1
    else:
        for m in range(-1, p - 1, -1):
            terms[Word(((gen, m),))] = -1
    return GroupRingElement(terms)


def fox_derive(w, i):
    """Fox free derivative of a word with respect to generator index i.

    Folds over letters with the product rule d(uv) = du + u dv, expanding
    each power x^p by its closed form.
    """
    result = ZERO
    prefix = IDENTITY
    for gen, exp in w.letters:
        if gen == i:
            result = result + GroupRingElement.from_word(prefix) * _power_derivative(gen, exp)
        prefix = prefix * Word(((gen, exp),))
    return result
