"""Alexander and twisted Alexander ideals of finitely presented groups."""

from .presentations import Presentation, Word, parse_presentation, parse_word
from .fox import GroupRingElement, fox_derive
from .rings import RingElement, RingMatrix, RingSpec, ring_make, poly_gcd
from .ideals import (
    Comparison,
    Ideal,
    NormalForm,
    ideal_compare,
    ideal_contains,
    ideal_equals,
    ideal_from,
    ideal_normalize,
    render_ideal,
)
from .maps import (
    AbelianMap,
    MatrixRep,
    abelian_map,
    conjugacy_classes,
    cyclic_map,
    enumerate_epis,
    enumerate_homs,
    hom_classes,
    lemma36_rho,
)
from .invariants import (
    InvariantTable,
    alexander_matrix,
    alexander_polynomial,
    elementary_ideal,
    elementary_ideals,
    handlebody_invariant,
    surfacelink_invariant,
    twisted_matrix,
)
from .catalog import catalog_lookup, load_presentation

__version__ = "0.1.0"
