"""Exact computations for algebraic links in lens spaces.

The package turns the combinatorics of links in L(p,q) into exact,
machine-checkable arithmetic: braid words and their closures, lifts of
band diagrams to the 3-sphere, homology classes and component counts,
invariance classes of polynomials under the cyclic action, Alexander
polynomials via the reduced Burau representation, Seifert genus of
quotient knots, and Puiseux cable pairs of plane curve branches.
"""

from .braid import BraidWord, StrandPermutation, garside, parse_braid_word, permutation
from .curves import (
    CableSequence,
    PuiseuxData,
    SupportPoly,
    invariance_class,
    is_torus_knot_lift,
    parse_poly,
    puiseux_pairs,
    torus_poly,
)
from .errors import ConsistencyError, DivisibilityError, ParseError
from .genus import (
    FiberData,
    bennequin_fiber,
    quotient_genus,
)
from .invariants import (
    AlexanderPoly,
    alexander_of_closure,
    torus_closure,
)
from .laurent import LaurentPoly
from .lens import (
    BandDiagram,
    HomologyClass,
    LensSpace,
    homology_classes,
    lift,
    lifted_component_count,
    nullhomologous_orientation,
    parse_band_diagram,
)

__version__ = "0.1.0"

__all__ = [
    "AlexanderPoly",
    "BandDiagram",
    "BraidWord",
    "CableSequence",
    "ConsistencyError",
    "DivisibilityError",
    "FiberData",
    "HomologyClass",
    "LaurentPoly",
    "LensSpace",
    "ParseError",
    "PuiseuxData",
    "StrandPermutation",
    "SupportPoly",
    "alexander_of_closure",
    "bennequin_fiber",
    "garside",
    "homology_classes",
    "invariance_class",
    "is_torus_knot_lift",
    "lift",
    "lifted_component_count",
    "nullhomologous_orientation",
    "parse_band_diagram",
    "parse_braid_word",
    "parse_poly",
    "permutation",
    "puiseux_pairs",
    "quotient_genus",
    "torus_closure",
    "torus_poly",
]
