"""Constant-Frobenius-norm channel families in finite dimension.

Construction of the orthonormal Hermitian operator basis, four
one-parameter channel families diagonal over it, CPTP verification via
Choi matrices, constant output-norm criteria and sampling, and
machine-checkable (in)equivalence certificates.

The public names are resolved on first access (PEP 562): ``import qchan``
loads no submodule, and the names of :mod:`qchan.exact` (families, CPTP
ranges, tolerances, bound matching, every result record) resolve without NumPy.
"""

from importlib import import_module as _import_module

# Home module of every public name.
_EXPORTS = {
    "basis": (
        "BasisE",
        "build_basis",
        "decompose",
        "m_z",
        "pair_count",
        "pauli_matrix",
        "reconstruct",
    ),
    "channels": (
        "DiagonalChannel",
        "FamilyChannel",
        "QubitLambda",
        "as_linear_map",
        "channel_from_json",
        "channel_to_json",
        "diagonal_apply",
        "family_apply",
        "family_to_diagonal",
        "kraus_completeness",
        "kraus_from_family",
        "random_pure_state",
        "to_choi",
        "validate_state",
    ),
    "equivalence": (
        "qubit_equivalence_check",
        "spectrum_witness",
    ),
    "exact": (
        "DEFAULT_TOL",
        "BoundMatchingReport",
        "Family",
        "InequivalenceCertificate",
        "ParamRange",
        "QubitClassification",
        "ReprCoefficients",
        "SpectrumWitness",
        "Tolerance",
        "VerificationReport",
        "bound_matching_system",
        "cptp_range",
        "inequivalence_certificate",
        "param_range",
        "repr_coefficients",
    ),
    "linalg": (
        "frobenius_norm",
        "hermitian_eigenvalues",
        "is_psd",
        "matrix_from_json",
        "matrix_to_json",
    ),
    "verification": (
        "classify_qubit",
        "constant_fnorm_criterion",
        "constant_fnorm_sample_test",
        "dcq_det_formula",
        "expected_constant_norm",
        "is_cptp",
        "verify_det_recurrence",
        "verify_representations",
        "verify_sum_identities",
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
