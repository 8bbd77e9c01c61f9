"""Topology of bound quivers.

A bound quiver (Q, I) determines a finite dimensional algebra kQ/I and,
through the homotopy classes of its nonzero paths, a finite regular CW
complex.  This package computes that complex in both its standard and
total variants, the fundamental group of a connected bound quiver as a
finite presentation, cellular (co)homology over the usual coefficient
rings, the simplicial cochain complex attached to a semi-normed basis
of the algebra, Hochschild cohomology, the comparison maps between the
two cochain theories, and verification of (Galois) coverings together
with the induced maps of complexes.
"""

from .core import (AdmissibilityError, AlgebraProperties, Arrow,
                   BoundQuiver, MalformedRelation, NotConnectedError, Path,
                   PathTable, QuiverError, RelVector, algebra_properties,
                   enumerate_paths)
from .dsl import ParseError, parse, parse_group, parse_morphism, serialize
from .homotopy import (HypothesisViolated, PathClassTable, Presentation,
                       SupportTooLarge, VanKampenResult, abelianization,
                       minimal_relation_supports, natural_homotopy_classes,
                       pi1_presentation, relation_components,
                       simplify_presentation, van_kampen_pushout,
                       walk_homotopy_classes)
from .complex import (CellComplex, HomologyResult, build_complex, coboundary,
                      cohomology, cup_product, euler_characteristic, homology,
                      parse_coefficients)
from .algcohom import (EpsilonMuReport, HochschildComplex,
                       NoSemiNormedBasis, PhiPsiReport, SemiNormedAlgebra,
                       SemiNormedFailure, TriangularRequired, epsilon_mu,
                       find_semi_normed_basis, phi_psi_maps,
                       simplicial_complex, verify_semi_normed_basis)
from .coverings import (CellMapReport, CoveringReport, DeckReport,
                        GroupAction, MalformedMorphism, NotACovering,
                        NotGalois, QuiverMorphism, check_covering,
                        check_galois, compose_morphisms, deck_group,
                        identity_morphism, lift_complex_map)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # quivers and path algebra
    "Arrow", "Path", "RelVector", "BoundQuiver", "PathTable",
    "enumerate_paths", "algebra_properties", "AlgebraProperties",
    "QuiverError", "MalformedRelation", "AdmissibilityError",
    "NotConnectedError",
    # text format
    "parse", "serialize", "parse_morphism", "parse_group", "ParseError",
    # homotopy classes and the fundamental group
    "relation_components", "minimal_relation_supports",
    "natural_homotopy_classes",
    "walk_homotopy_classes", "PathClassTable", "Presentation",
    "pi1_presentation", "simplify_presentation", "abelianization",
    "van_kampen_pushout", "VanKampenResult", "SupportTooLarge",
    "HypothesisViolated",
    # the classifying complex and its (co)homology
    "CellComplex", "build_complex", "homology", "cohomology",
    "euler_characteristic", "cup_product", "coboundary",
    "parse_coefficients", "HomologyResult",
    # semi-normed bases, simplicial and Hochschild cohomology
    "SemiNormedAlgebra", "SemiNormedFailure",
    "find_semi_normed_basis", "verify_semi_normed_basis",
    "simplicial_complex", "HochschildComplex",
    "phi_psi_maps", "PhiPsiReport", "epsilon_mu", "EpsilonMuReport",
    "NoSemiNormedBasis", "TriangularRequired",
    # coverings
    "QuiverMorphism", "identity_morphism", "compose_morphisms",
    "GroupAction", "check_covering", "check_galois", "CoveringReport",
    "lift_complex_map", "CellMapReport", "deck_group", "DeckReport",
    "MalformedMorphism", "NotACovering", "NotGalois",
]
