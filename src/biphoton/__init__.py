"""Desk-scale simulation of two-photon projective measurements by teleportation.

The package simulates, by exhaustive outcome enumeration, a linear-optics
protocol that performs an arbitrary projective measurement on the
polarization state of a photon pair: the pair is jointly Bell-analyzed
against an auxiliary multi-photon entangled resource, accepted outcomes
teleport the (projected) input onto fresh photons, and for the parity
measurement the remaining Bell outcomes are recovered with local phase
flips.  Every probability and residual state the simulation reports is
cross-checked against a direct projector-algebra oracle.
"""

from biphoton.auxprep import (
    AuxState,
    build_general_aux,
    build_parity_aux4,
    build_parity_aux5,
    conjugate_partner,
    encode_j_one_photon,
    encode_j_two_photon,
)
from biphoton.measurement import (
    BASIS_LABELS,
    ProjectorFamily,
    TwoPhotonBasis,
    apply_projector,
    expectation,
    family_from_assignment,
    ket_from_vector,
    parity_family,
    two_photon_vector,
    validate_basis,
)
from biphoton.protocol import (
    IDEAL_ANALYZER,
    LINEAR_ANALYZER,
    MODES,
    AnalyzerModel,
    BellOutcome,
    Branch,
    OracleStatistics,
    ProtocolReport,
    Verdict,
    apply_corrections,
    bell_ket,
    compare_reports,
    corrections_for,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import (
    DegenerateStateError,
    Ket,
    ValidationError,
    apply_one_photon,
    basis_ket,
    from_array,
    inner,
    norm,
    normalize,
    partial_bra,
    phase_equal,
    superpose,
    tensor,
    to_array,
)

__all__ = [
    "AnalyzerModel",
    "AuxState",
    "BASIS_LABELS",
    "BellOutcome",
    "Branch",
    "DegenerateStateError",
    "IDEAL_ANALYZER",
    "Ket",
    "LINEAR_ANALYZER",
    "MODES",
    "OracleStatistics",
    "ProjectorFamily",
    "ProtocolReport",
    "TwoPhotonBasis",
    "ValidationError",
    "Verdict",
    "apply_corrections",
    "apply_one_photon",
    "apply_projector",
    "basis_ket",
    "bell_ket",
    "build_general_aux",
    "build_parity_aux4",
    "build_parity_aux5",
    "compare_reports",
    "conjugate_partner",
    "corrections_for",
    "encode_j_one_photon",
    "encode_j_two_photon",
    "expectation",
    "family_from_assignment",
    "from_array",
    "inner",
    "ket_from_vector",
    "norm",
    "normalize",
    "oracle_report",
    "parity_family",
    "partial_bra",
    "phase_equal",
    "run_protocol",
    "superpose",
    "tensor",
    "to_array",
    "two_photon_vector",
    "validate_basis",
    "__version__",
]

__version__ = "0.1.0"
