"""Exact classification and exhaustive verification of defective Lehmer pairs.

A Lehmer pair (alpha, beta), encoded by integers (a, b) with
(alpha, beta) = ((sqrt(a) - sqrt(b))/2, (sqrt(a) + sqrt(b))/2), is
n-defective when its n-th element u_n has no primitive divisor.  For
n in {3, 4, 5, 6, 8, 10, 12} the defective pairs form parametric families;
this package generates the families exactly, decides defectiveness from the
primitive-divisor definition, and finds every defective pair in a bounded
(a, b) box to confirm the classification, reporting any discrepancy it finds.
"""

from .families import (
    FamilyEntry,
    FamilyParams,
    FamilyRowId,
    SUPPORTED_N,
    UnsupportedNError,
    audit_exclusion,
    enumerate_families,
    family_rows,
    instantiate,
)
from .harness import (
    DiscrepancyReport,
    SearchResult,
    audit_changes,
    search_defective,
    search_with_checkpoint,
    verify_table,
)
from .pairs import (
    LehmerPair,
    ValidationFailure,
    canonicalize,
    discriminant_sq,
    equivalent,
    lehmer_number,
    lehmer_prefix,
    pair_failure,
    require_pair,
    validate_ab,
)
from .primdiv import DefectWitness, defect_witness, factorize, is_prime
from .sequences import SequenceId, SequenceSpec, seq_eval

__version__ = "0.1.0"

__all__ = [
    "DefectWitness",
    "DiscrepancyReport",
    "FamilyEntry",
    "FamilyParams",
    "FamilyRowId",
    "LehmerPair",
    "SUPPORTED_N",
    "SearchResult",
    "SequenceId",
    "SequenceSpec",
    "UnsupportedNError",
    "ValidationFailure",
    "audit_changes",
    "audit_exclusion",
    "canonicalize",
    "defect_witness",
    "discriminant_sq",
    "enumerate_families",
    "equivalent",
    "factorize",
    "family_rows",
    "instantiate",
    "is_prime",
    "lehmer_number",
    "lehmer_prefix",
    "pair_failure",
    "require_pair",
    "search_defective",
    "search_with_checkpoint",
    "seq_eval",
    "validate_ab",
    "verify_table",
]
