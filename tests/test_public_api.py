"""The public surface of qchan: its size is tracked, and every export resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

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
    "param_range",
    "pauli_matrix",
    "qubit_equivalence_check",
    "random_pure_state",
    "reconstruct",
    "repr_coefficients",
    "scale_family",
    "spectrum_witness",
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
    assert len(names) == 57


def test_every_module_export_resolves():
    for info in pkgutil.iter_modules(qchan.__path__):
        module = importlib.import_module(f"qchan.{info.name}")
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"qchan.{info.name}.__all__ lists missing {name!r}"


def test_star_import_binds_every_public_name():
    assert qchan.__all__ == PUBLIC_NAMES
    namespace: dict = {}
    exec("from qchan import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(qchan, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qchan.no_such_name


def test_names_are_resolved_on_first_access():
    # A fresh `import qchan` loads no submodule and no NumPy; the exact names
    # resolve without NumPy, and dir() lists every name before any is loaded.
    script = textwrap.dedent(
        """
        import sys
        import types

        import qchan

        loaded = sorted(name for name in sys.modules if name.startswith("qchan."))
        assert loaded == [], loaded
        assert "numpy" not in sys.modules
        names = [name for name in dir(qchan) if not name.startswith("_")]
        assert len(names) == 57, names
        assert qchan.param_range(qchan.Family.DCQ, 3).p_max == 0.25
        assert qchan.inequivalence_certificate((qchan.Family.DEP, qchan.Family.TRD), 5).passed
        assert qchan.Tolerance() == qchan.DEFAULT_TOL
        assert "numpy" not in sys.modules
        assert qchan.is_cptp is sys.modules["qchan.verification"].is_cptp
        assert "numpy" in sys.modules
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "module, name",
    [
        ("channels", "Family"),
        ("channels", "FAMILY_NAMES"),
        ("channels", "cptp_range"),
        ("channels", "family_from_name"),
        ("linalg", "Tolerance"),
        ("linalg", "DEFAULT_TOL"),
        ("verification", "ParamRange"),
        ("verification", "param_range"),
        ("equivalence", "GAP_THRESHOLD"),
        ("equivalence", "BoundMatchingReport"),
        ("equivalence", "InequivalenceCertificate"),
        ("equivalence", "bound_matching_system"),
        ("equivalence", "inequivalence_certificate"),
    ],
)
def test_moved_names_keep_their_old_paths(module, name):
    old_home = importlib.import_module(f"qchan.{module}")
    assert getattr(old_home, name) is getattr(importlib.import_module("qchan.exact"), name)
