"""JSON layout of every result record, as written by ``jsonio.dumps``."""

import json

import numpy as np
import pytest

from qchan.channels import Family, FamilyChannel
from qchan.cli import main
from qchan.equivalence import (
    AlphaInterval,
    BoundMatchingReport,
    InequivalenceCertificate,
    SpectrumWitness,
    alpha_interval,
    bound_matching_system,
    inequivalence_certificate,
    spectrum_witness,
)
from qchan.jsonio import dumps
from qchan.linalg import matrix_to_json
from qchan.verification import VerificationReport, is_cptp, param_range


def encode(record):
    return json.loads(dumps(record))


def test_verification_report():
    report = VerificationReport(
        passed=False,
        min_choi_eigenvalue=-0.25,
        trace_violation=0.0,
        max_deviation=None,
        mean_deviation=None,
        witness="eigenvalue -2.500e-01",
        samples_used=3,
    )
    assert list(encode(report).items()) == [
        ("passed", False),
        ("min_choi_eigenvalue", -0.25),
        ("trace_violation", 0.0),
        ("max_deviation", None),
        ("mean_deviation", None),
        ("witness", "eigenvalue -2.500e-01"),
        ("samples_used", 3),
    ]


def test_param_range():
    assert list(encode(param_range(Family.DCQ, 3)).items()) == [
        ("family", "dcq"),
        ("dim", 3),
        ("p_min", -0.2),
        ("p_max", 0.25),
    ]


def test_alpha_interval():
    interval = alpha_interval(Family.DEP, 0.5, 3)
    assert isinstance(interval, AlphaInterval)
    assert list(encode(interval).items()) == [
        ("family", "dep"),
        ("p", 0.5),
        ("dim", 3),
        ("alpha_min", -0.25),
        ("alpha_max", 2.0),
    ]


def test_spectrum_witness():
    witness = spectrum_witness(Family.DCQ, 0.2, 3)
    assert isinstance(witness, SpectrumWitness)
    encoded = encode(witness)
    assert list(encoded) == [
        "family", "p", "dim", "state_a", "state_b",
        "spectrum_a", "spectrum_b", "max_spectral_gap", "notes",
    ]
    assert encoded["family"] == "dcq"
    # 2-D arrays are {"rows", "cols", "data"} objects, as matrix_to_json writes them.
    assert list(encoded["state_a"]) == ["rows", "cols", "data"]
    assert encoded["state_a"] == matrix_to_json(witness.state_a)
    assert encoded["state_b"] == matrix_to_json(witness.state_b)
    # 1-D arrays are lists of floats, bit for bit.
    for key in ("spectrum_a", "spectrum_b"):
        assert all(type(v) is float for v in encoded[key])
        assert encoded[key] == [float(v) for v in getattr(witness, key)]
    assert encoded["max_spectral_gap"] == witness.max_spectral_gap
    assert encoded["notes"] == witness.notes


def test_bound_matching_report():
    report = bound_matching_system((Family.TRD, Family.DCQ), 3, same_sign=True)
    assert isinstance(report, BoundMatchingReport)
    assert list(encode(report).items()) == [
        ("pair", ["trd", "dcq"]),
        ("dim", 3),
        ("same_sign", True),
        ("roots", [0.0, 0.4384471871911697, 4.561552812808831]),
        ("roots_exact", ["0", "5/2 - sqrt(17)/2", "sqrt(17)/2 + 5/2"]),
        ("feasible", False),
        ("detail", report.detail),
    ]


@pytest.mark.parametrize("pair", [(Family.DEP, Family.TRD), (Family.TCQ, Family.DEP)])
def test_inequivalence_certificate(pair):
    cert = inequivalence_certificate(pair, 4)
    assert isinstance(cert, InequivalenceCertificate)
    encoded = encode(cert)
    # ``passed`` is a property, not a field, so it is not written.
    assert list(encoded) == ["pair", "dim", "method", "witnesses", "bound_reports", "detail"]
    assert encoded["pair"] == [pair[0].value, pair[1].value]
    assert encoded["dim"] == 4
    assert encoded["method"] == cert.method
    assert encoded["witnesses"] == [encode(w) for w in cert.witnesses]
    assert encoded["bound_reports"] == [encode(r) for r in cert.bound_reports]
    assert encoded["detail"] == cert.detail


def test_records_nest_at_the_indentation_of_their_parent():
    report = is_cptp(FamilyChannel(Family.DEP, 0.5, 2), 2)
    nested = dumps({"report": report})
    lines = dumps(report).splitlines()
    expected = "\n".join(["{", '  "report": ' + lines[0], *["  " + line for line in lines[1:]], "}"])
    assert nested == expected


@pytest.mark.parametrize("value", [np.zeros((2, 2, 2)), np.array(1.0), object()])
def test_other_objects_are_rejected(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps(value)


def test_cli_embeds_records_as_dumps_writes_them(capsys):
    assert main(["certify", "--pair", "dep,dcq", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    cert = inequivalence_certificate((Family.DEP, Family.DCQ), 3)
    assert json.loads(out)["certificate"] == encode(cert)
    lines = dumps(cert).splitlines()
    assert '  "certificate": ' + "\n  ".join(lines) + ",\n" in out
