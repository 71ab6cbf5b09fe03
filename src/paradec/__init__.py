"""Workbench for paradoxical decompositions of finitely generated groups.

Exact doubling checks on finite Cayley-ball domains (matching certificate or
Hall violator), explicit decomposition pieces with verification, Tarski
bound reporting, and spanning-forest sampling with a mechanical audit of the
forest counting argument.
"""

from .cayley import (
    CayleyPatch,
    GeneratingSet,
    enumerate_ball,
    product_set,
)
from .decomposition import (
    DecompositionReport,
    FreenessResult,
    PartialDecomposition,
    TarskiBoundReport,
    free_up_to_length,
    pieces_from_certificate,
    tarski_bound_report,
    verify_decomposition,
)
from .doubling import (
    Certificate,
    TranslatingSets,
    Verdict,
    Violator,
    check_domain,
    minimal_violating_radius,
    verdict_from_jsonable,
    verdict_to_jsonable,
    verify_certificate,
    verify_violator,
)
from .forest import (
    ForestAudit,
    ForestSample,
    a_edge_contraction,
    audit_counting_argument,
    patch_a_edges,
    sample_forest_containing_a_edges,
    sample_spanning_tree_with_required_edges,
)
from .groups import (
    GroupSpec,
    cyclic_group,
    free_abelian_group,
    free_group,
    matrix_group,
    parse_group_spec,
    parse_word,
    spec_to_string,
)

__version__ = "0.1.0"

__all__ = [
    "CayleyPatch",
    "Certificate",
    "DecompositionReport",
    "ForestAudit",
    "ForestSample",
    "FreenessResult",
    "GeneratingSet",
    "GroupSpec",
    "PartialDecomposition",
    "TarskiBoundReport",
    "TranslatingSets",
    "Verdict",
    "Violator",
    "a_edge_contraction",
    "audit_counting_argument",
    "check_domain",
    "cyclic_group",
    "enumerate_ball",
    "free_abelian_group",
    "free_group",
    "free_up_to_length",
    "matrix_group",
    "minimal_violating_radius",
    "parse_group_spec",
    "parse_word",
    "patch_a_edges",
    "pieces_from_certificate",
    "product_set",
    "sample_forest_containing_a_edges",
    "sample_spanning_tree_with_required_edges",
    "spec_to_string",
    "tarski_bound_report",
    "verdict_from_jsonable",
    "verdict_to_jsonable",
    "verify_certificate",
    "verify_decomposition",
    "verify_violator",
]
