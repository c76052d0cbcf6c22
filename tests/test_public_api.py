"""The public surface of qchan: its size is tracked, every export resolves, and each name has one path."""

import ast
import importlib
import importlib.util
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
    "BasisE",
    "BoundMatchingReport",
    "DEFAULT_TOL",
    "DiagonalChannel",
    "Family",
    "FamilyChannel",
    "InequivalenceCertificate",
    "ParamRange",
    "QubitClassification",
    "QubitLambda",
    "ReprCoefficients",
    "SpectrumWitness",
    "Tolerance",
    "VerificationReport",
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
    "diagonal_apply",
    "family_to_diagonal",
    "frobenius_norm",
    "inequivalence_certificate",
    "is_cptp",
    "kraus_from_family",
    "matrix_from_json",
    "matrix_to_json",
    "pair_count",
    "param_range",
    "pauli_matrix",
    "qubit_equivalence_check",
    "repr_coefficients",
    "spectrum_witness",
    "validate_state",
    "verify_det_recurrence",
    "verify_representations",
    "verify_sum_identities",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name in dir(qchan)
        if not name.startswith("_") and not isinstance(getattr(qchan, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 42


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


def test_oracles_are_not_in_the_package():
    # One-at-a-time forms of stacked or closed-form paths live in tests/dense_oracles.py only.
    for module, name in [
        ("basis", "m_z"),
        ("representations", "kraus_completeness"),
        ("linalg", "random_pure_state"),
        ("verification", "witness_states"),
        ("verification", "_witness_vectors"),
    ]:
        assert not hasattr(qchan, name), name
        assert not hasattr(importlib.import_module(f"qchan.{module}"), name), (module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qchan.no_such_name


def test_names_are_resolved_on_first_access():
    # A fresh `import qchan` loads no submodule and no NumPy; the exact names,
    # every result record and repr_coefficients among them, and the
    # certificates of qchan.equivalence resolve without NumPy, and dir()
    # lists every name before any is loaded.
    script = textwrap.dedent(
        """
        import sys
        import types
        from fractions import Fraction

        import qchan

        loaded = sorted(name for name in sys.modules if name.startswith("qchan."))
        assert loaded == [], loaded
        assert "numpy" not in sys.modules
        names = [name for name in dir(qchan) if not name.startswith("_")]
        assert len(names) == 42, names
        assert qchan.param_range(qchan.Family.DCQ, 3).p_max == 0.25
        assert qchan.inequivalence_certificate((qchan.Family.DEP, qchan.Family.TRD), 5).passed
        assert qchan.Tolerance() == qchan.DEFAULT_TOL
        assert qchan.VerificationReport(passed=True).samples_used == 0
        assert qchan.QubitClassification("not_constant_norm").variant is None
        assert qchan.SpectrumWitness._fields[-2:] == ("max_spectral_gap", "notes")
        weights = qchan.repr_coefficients(qchan.Family.DEP, Fraction(1, 3), 3)
        assert isinstance(weights, qchan.ReprCoefficients)
        assert (weights.c0, weights.e0, weights.ez) == (Fraction(11, 27), Fraction(11, 9), Fraction(2, 9))
        loaded = sorted(name for name in sys.modules if name.startswith("qchan."))
        assert loaded == ["qchan.equivalence", "qchan.exact", "qchan.jsonio"], loaded
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


ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(qchan.__path__))


def _bound_names(module: str) -> set:
    """Names a qchan submodule binds at top level by def, class or assignment, not by an import."""
    tree = ast.parse((ROOT / "src" / "qchan" / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            leaves = (leaf for target in targets for leaf in ast.walk(target))
            names.update(leaf.id for leaf in leaves if isinstance(leaf, ast.Name))
    return names


def _qchan_imports(path: Path):
    """(line, module, name) of every ``from qchan.<module> import <name>`` (or ``from .<module>``) in ``path``."""
    in_package = path.parent == ROOT / "src" / "qchan"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if in_package and node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("qchan."):
            module = node.module[len("qchan."):]
        else:
            continue
        for alias in node.names:
            yield node.lineno, module, alias.name


def test_each_name_has_one_module_path():
    # A name lives in the module that binds it: no submodule re-exports or
    # forwards another's names, save the functions that the benchmark's
    # perfbench/spans.py TRACED list still looks up in their old modules.
    bound = {module: _bound_names(module) for module in SUBMODULES}
    for module in SUBMODULES:
        exported = getattr(importlib.import_module(f"qchan.{module}"), "__all__", [])
        assert set(exported) <= bound[module], (module, set(exported) - bound[module])
    for module, names in qchan._EXPORTS.items():
        assert set(names) <= set(importlib.import_module(f"qchan.{module}").__all__), module

    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    candidates = set().union(*bound.values())
    for module in SUBMODULES:
        home = importlib.import_module(f"qchan.{module}")
        forwarded = {name for name in candidates - set(vars(home)) if hasattr(home, name)}
        traced = {attr for owner, attr in spans.TRACED if owner == module and attr not in bound[module]}
        assert forwarded == traced, module
        assert ("__getattr__" in vars(home)) == bool(traced), module

    paths = sorted((ROOT / "src" / "qchan").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    misplaced = [
        f"{path.relative_to(ROOT)}:{line}: {module}.{name}"
        for path in paths
        for line, module, name in _qchan_imports(path)
        if name not in bound[module]
    ]
    assert misplaced == []
