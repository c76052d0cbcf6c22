"""Constant-Frobenius-norm channel families in finite dimension.

Construction of the orthonormal Hermitian operator basis, four
one-parameter channel families diagonal over it, CPTP verification via
Choi matrices, constant output-norm criteria and sampling, and
machine-checkable (in)equivalence certificates.

The public names are resolved on first access (PEP 562): ``import qchan``
loads no submodule, and the names of :mod:`qchan.exact` (families, CPTP
ranges, tolerances, result records) and of :mod:`qchan.equivalence`
(bound matching, the certificates and their records) resolve without NumPy.
"""

from importlib import import_module as _import_module

# Home module of every public name.
_EXPORTS = {
    "basis": (
        "BasisE",
        "build_basis",
        "decompose",
        "m_z",
        "pauli_matrix",
        "reconstruct",
    ),
    "channels": (
        "DiagonalChannel",
        "FamilyChannel",
        "as_linear_map",
        "channel_from_json",
        "channel_to_json",
        "diagonal_apply",
        "family_apply",
        "family_to_diagonal",
        "validate_state",
    ),
    "equivalence": (
        "BoundMatchingReport",
        "InequivalenceCertificate",
        "SpectrumWitness",
        "bound_matching_system",
        "inequivalence_certificate",
        "qubit_equivalence_check",
        "spectrum_witness",
    ),
    "exact": (
        "DEFAULT_TOL",
        "Family",
        "ParamRange",
        "QubitClassification",
        "ReprCoefficients",
        "Tolerance",
        "VerificationReport",
        "cptp_range",
        "pair_count",
        "param_range",
        "repr_coefficients",
    ),
    "linalg": (
        "frobenius_norm",
        "hermitian_eigenvalues",
        "matrix_from_json",
        "matrix_to_json",
    ),
    "representations": (
        "QubitLambda",
        "classify_qubit",
        "dcq_det_formula",
        "kraus_completeness",
        "kraus_from_family",
        "to_choi",
        "verify_det_recurrence",
        "verify_representations",
        "verify_sum_identities",
    ),
    "sampling": ("random_pure_state",),
    "verification": (
        "constant_fnorm_criterion",
        "constant_fnorm_sample_test",
        "expected_constant_norm",
        "is_cptp",
        "witness_states",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
