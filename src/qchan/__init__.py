"""Constant-Frobenius-norm channel families in finite dimension.

Construction of the orthonormal Hermitian operator basis, four
one-parameter channel families diagonal over it, CPTP verification via
Choi matrices, constant output-norm criteria and sampling, and
machine-checkable (in)equivalence certificates.
"""

from .basis import (
    BasisE,
    build_basis,
    decompose,
    index_from_pair,
    m_z,
    pair_count,
    pair_from_index,
    pairs,
    pauli_matrix,
    reconstruct,
)
from .channels import (
    DiagonalChannel,
    Family,
    FamilyChannel,
    KrausSet,
    QubitLambda,
    ReprCoefficients,
    apply_kraus,
    as_linear_map,
    channel_from_json,
    channel_to_json,
    cptp_range,
    diagonal_apply,
    family_apply,
    family_to_diagonal,
    kraus_completeness,
    kraus_from_family,
    qubit_apply,
    qubit_norm_formula,
    random_pure_state,
    random_unitary,
    repr_coefficients,
    stokes,
    to_choi,
    validate_state,
)
from .equivalence import (
    AlphaInterval,
    BoundMatchingReport,
    InequivalenceCertificate,
    SpectrumWitness,
    alpha_interval,
    bound_matching_system,
    inequivalence_certificate,
    qubit_equivalence_check,
    scale_family,
    spectrum_witness,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    frobenius_norm,
    hermitian_eigenvalues,
    is_psd,
    matrix_from_json,
    matrix_to_json,
)
from .verification import (
    ParamRange,
    QubitClassification,
    VerificationReport,
    classify_qubit,
    constant_fnorm_criterion,
    constant_fnorm_sample_test,
    dcq_det_formula,
    expected_constant_norm,
    is_cptp,
    param_range,
    verify_det_recurrence,
    verify_representations,
    verify_sum_identities,
    witness_states,
)

__version__ = "0.1.0"
