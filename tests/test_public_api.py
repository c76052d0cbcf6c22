"""The public surface of qchan: its size is tracked, and every export resolves."""

import importlib
import pkgutil
import types

import qchan

PUBLIC_NAMES = [
    "AlphaInterval",
    "BasisE",
    "BoundMatchingReport",
    "DEFAULT_TOL",
    "DiagonalChannel",
    "Family",
    "FamilyChannel",
    "InequivalenceCertificate",
    "KrausSet",
    "ParamRange",
    "QubitClassification",
    "QubitLambda",
    "ReprCoefficients",
    "SpectrumWitness",
    "Tolerance",
    "VerificationReport",
    "alpha_interval",
    "apply_kraus",
    "as_linear_map",
    "bound_matching_system",
    "build_basis",
    "channel_from_json",
    "channel_to_json",
    "classify_qubit",
    "constant_fnorm_criterion",
    "constant_fnorm_sample_test",
    "cptp_range",
    "dcq_det_formula",
    "decompose",
    "diagonal_apply",
    "expected_constant_norm",
    "family_apply",
    "family_to_diagonal",
    "frobenius_norm",
    "hermitian_eigenvalues",
    "inequivalence_certificate",
    "is_cptp",
    "is_psd",
    "kraus_completeness",
    "kraus_from_family",
    "m_z",
    "matrix_from_json",
    "matrix_to_json",
    "pair_count",
    "pairs",
    "param_range",
    "pauli_matrix",
    "qubit_apply",
    "qubit_equivalence_check",
    "qubit_norm_formula",
    "random_pure_state",
    "random_unitary",
    "reconstruct",
    "repr_coefficients",
    "scale_family",
    "spectrum_witness",
    "stokes",
    "to_choi",
    "validate_state",
    "verify_det_recurrence",
    "verify_representations",
    "verify_sum_identities",
    "witness_states",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name in dir(qchan)
        if not name.startswith("_") and not isinstance(getattr(qchan, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 63


def test_every_module_export_resolves():
    for info in pkgutil.iter_modules(qchan.__path__):
        module = importlib.import_module(f"qchan.{info.name}")
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"qchan.{info.name}.__all__ lists missing {name!r}"
