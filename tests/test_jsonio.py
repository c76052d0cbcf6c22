"""JSON layout of every result record, as written by ``jsonio.dumps``."""

import copy
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import jsonio
from qchan.channels import DiagonalChannel, FamilyChannel
from qchan.cli import build_parser, main
from qchan.equivalence import (
    BoundMatchingReport,
    InequivalenceCertificate,
    SpectrumWitness,
    bound_matching_system,
    inequivalence_certificate,
    spectrum_witness,
)
from qchan.exact import Family, VerificationReport, param_range
from qchan.jsonio import dumps
from qchan.linalg import matrix_from_json, matrix_to_json
from qchan.verification import is_cptp


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


def test_spectrum_witness():
    witness = spectrum_witness(Family.DCQ, 0.2, 3)
    assert isinstance(witness, SpectrumWitness)
    encoded = encode(witness)
    assert list(encoded) == [
        "family", "p", "dim", "state_a", "state_b",
        "spectrum_a", "spectrum_b", "max_spectral_gap", "notes",
    ]
    assert encoded["family"] == "dcq"
    # The states are {"rows", "cols", "data"} objects, as matrix_to_json writes them.
    assert list(encoded["state_a"]) == ["rows", "cols", "data"]
    assert encoded["state_a"] == matrix_to_json(matrix_from_json(witness.state_a))
    assert encoded["state_b"] == matrix_to_json(matrix_from_json(witness.state_b))
    # The spectra are lists of floats, bit for bit.
    for key in ("spectrum_a", "spectrum_b"):
        assert all(type(v) is float for v in encoded[key])
        assert encoded[key] == [float(v) for v in getattr(witness, key)]
    assert encoded["max_spectral_gap"] == witness.max_spectral_gap
    assert encoded["notes"] == witness.notes


@pytest.mark.parametrize("n", [2, 3, 7, 64, 255])
def test_witness_states_print_as_the_arrays_they_stand_for(n):
    # The states' shared [re, im] lists print the bytes of the basis and
    # uniform projectors as complex arrays.
    witness = spectrum_witness(Family.TCQ, 0.0, n)
    basis = np.zeros((n, n), dtype=complex)
    basis[0, 0] = 1
    uniform = np.ones((n, n), dtype=complex) / n
    assert dumps(witness.state_a) == dumps(basis)
    assert dumps(witness.state_b) == dumps(uniform)


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


@pytest.mark.parametrize(
    "value",
    [
        np.zeros((2, 2, 2)),
        np.array(1.0),
        object(),
        FamilyChannel(Family.DEP, 0.5, 3),
        DiagonalChannel(2, np.zeros(3)),
        np.zeros(3),
    ],
)
def test_other_objects_are_rejected(value):
    # A channel object is not a record: a payload holds its channel_to_json object.
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps(value)


def test_an_empty_object_is_written_on_one_line():
    assert dumps({}) == "{}"


@given(st.text() | st.sampled_from(["", 'a"b', "a\\b", "\x7f", "\x1f", " ~", "é", "\u2028", "😀", *Family]))
@settings(max_examples=300, deadline=None)
def test_strings_and_keys_are_written_as_json_writes_them(text):
    # A Family is written as its value, the str data, as json writes it.
    assert dumps(text) == json.dumps(text)
    assert dumps({text: text}) == json.dumps({text: text}, indent=2)


def test_object_keys_must_be_strings():
    with pytest.raises(TypeError, match="^JSON object keys must be str, got int$"):
        dumps({1: 2})


def test_require_refuses_a_non_object():
    with pytest.raises(jsonio.SchemaError, match="^field 'x': expected a JSON object$"):
        jsonio.require([], "x")


def records(obj):
    """Every object of a payload that is not a JSON builtin, an array or a Family, and the ones in it."""

    if isinstance(obj, dict):
        for value in obj.values():
            yield from records(value)
    elif isinstance(obj, list) or type(obj) is tuple:
        for value in obj:
            yield from records(value)
    elif not (obj is None or isinstance(obj, (str, int, float, np.ndarray))):  # bool is an int
        yield obj
        if hasattr(obj, "_asdict"):
            yield from records(obj._asdict())


@pytest.mark.parametrize(
    "n, names",
    [
        (2, {"ParamRange", "VerificationReport"}),
        (3, {"BoundMatchingReport", "InequivalenceCertificate", "ParamRange",
             "SpectrumWitness", "VerificationReport"}),
    ],
)
def test_every_record_a_report_writes_is_a_named_tuple(n, names):
    args = build_parser().parse_args(["report", "--dim", str(n), "--samples", "5"])
    payload, _ = args.handler(args)
    found = list(records(payload))
    assert {type(record).__name__ for record in found} == names
    for record in found:
        assert isinstance(record, tuple) and hasattr(record, "_asdict"), type(record).__name__


def test_cli_embeds_records_as_dumps_writes_them(capsys):
    assert main(["certify", "--pair", "dep,dcq", "--dim", "3"]) == 0
    out = capsys.readouterr().out
    cert = inequivalence_certificate((Family.DEP, Family.DCQ), 3)
    assert json.loads(out)["certificate"] == encode(cert)
    lines = dumps(cert).splitlines()
    assert '  "certificate": ' + "\n  ".join(lines) + ",\n" in out


MATRICES = {
    "signed zeros": np.array([[-0.0, 0.0], [0.0 - 0.0j, -0.0 + 1j]]),
    "one by one": np.array([[0.5 - 2e-300j]]),
    "repeated values": np.eye(4) / np.sqrt(2) + 1j * np.ones((4, 4)),
    "generic": np.random.default_rng(5).standard_normal((5, 5)) * (1 + 1e-9j),
    "integers": np.arange(9).reshape(3, 3),
    "empty": np.zeros((0, 0)),
}


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("level", range(4))
def test_matrix_text_equals_the_matrix_to_json_object(name, level):
    # The direct writer prints exactly what writing matrix_to_json's object prints.
    direct, via_object = [], []
    jsonio._write(MATRICES[name], direct, level)
    jsonio._write(matrix_to_json(MATRICES[name]), via_object, level)
    assert "".join(direct) == "".join(via_object)


@given(st.lists(st.integers(0, 4), max_size=8), st.integers(0, 3))
def test_a_repeated_item_is_written_as_its_copy_would_be(picks, level):
    # An item that is the object before it reuses that item's text; the
    # bytes are those of distinct copies, and -0.0 keeps its sign.
    pool = [[1.0, 0.0], [-0.0, 0.0], [0.0, 0.0], {"a": [0.5, []]}, "x"]
    shared, copies = [pool[i] for i in picks], [copy.deepcopy(pool[i]) for i in picks]
    via_shared, via_copies = [], []
    jsonio._write(shared, via_shared, level)
    jsonio._write(copies, via_copies, level)
    assert "".join(via_shared) == "".join(via_copies)
    assert json.loads("".join(via_shared)) == copies


def test_matrix_writer_keeps_the_sign_of_zero():
    # -0.0 and 0.0 compare equal, but each keeps its own text.
    data = json.loads(dumps(np.array([[-0.0, 0.0], [0.0, -0.0]])))["data"]
    assert [[math.copysign(1, x) for x in pair] for pair in data] == [[-1, 1], [1, 1], [1, 1], [-1, 1]]


@pytest.mark.parametrize("value", [0, True, 2.0, "2", None])
def test_integer_rule_has_one_message(value):
    with pytest.raises(jsonio.SchemaError) as info:
        jsonio.require_int({"rows": value}, "rows", 1, "state")
    assert str(info.value) == f"field 'state.rows': expected an integer >= 1, got {value!r}"


@pytest.mark.parametrize("value", [True, "1", None, [1], math.inf, math.nan, 10**400])
def test_finite_number_rule_has_one_message(value):
    with pytest.raises(jsonio.SchemaError) as info:
        jsonio.finite_number(value, "t[3]")
    assert str(info.value) == "field 't[3]': expected a finite number"


@pytest.mark.parametrize("value", [1.0000000000000002e100, -1e155, 10**101])
def test_finite_number_bounds_the_magnitude(value):
    with pytest.raises(jsonio.SchemaError) as info:
        jsonio.finite_number(value, "t[3]", jsonio._MAX_MAGNITUDE)
    assert str(info.value) == f"field 't[3]': expected a number of magnitude at most 1e+100, got {float(value)!r}"
    assert jsonio.finite_number(-1e100, "t[3]", jsonio._MAX_MAGNITUDE) == -1e100


def test_finite_number_is_a_float():
    assert [jsonio.finite_number(v, "p") for v in (3, -0.0, 10**300)] == [3.0, -0.0, 1e300]
    assert math.copysign(1, jsonio.finite_number(-0.0, "p")) == -1


def test_rules_take_numpy_scalars_and_return_python_values():
    # Library calls may pass NumPy scalars; JSON and argparse give only int and float.
    assert [type(jsonio.integer(v, "dim", 2)) for v in (np.int64(3), np.uint8(3), 3)] == [int] * 3
    assert [jsonio.finite_number(v, "p") for v in (np.float64(0.5), np.float32(0.5), np.int64(2))] == [0.5, 0.5, 2.0]
    assert type(jsonio.finite_number(np.float64(0.5), "p")) is float
    for bad in (np.bool_(True), np.float64(2.0)):
        with pytest.raises(jsonio.SchemaError, match="^field 'dim': expected an integer >= 2, got "):
            jsonio.integer(bad, "dim", 2)
    with pytest.raises(jsonio.SchemaError, match="^field 'p': expected a finite number$"):
        jsonio.finite_number(np.bool_(True), "p")


class _Int(int):
    pass


class _Float(float):
    pass


# Exact int and float take a fast path past the ABC checks; every other type,
# subclasses included, keeps the checked path, and each gets the same result
# or the same message either way.
@pytest.mark.parametrize("value", [3, _Int(3), np.int64(3), np.uint8(3), 10**30])
def test_integer_returns_a_plain_int_of_any_integral(value):
    got = jsonio.integer(value, "dim", 2)
    assert type(got) is int and got == value


@pytest.mark.parametrize(
    "value",
    [1, _Int(1), np.int64(1), -(10**30), True, False, np.bool_(True), 3.0, _Float(3.0), np.float64(3.0),
     Fraction(3), Fraction(7, 2), math.nan, math.inf, "3", None],
)
def test_integer_refusals_keep_their_message(value):
    with pytest.raises(jsonio.SchemaError) as info:
        jsonio.integer(value, "dim", 2)
    assert str(info.value) == f"field 'dim': expected an integer >= 2, got {value!r}"


@pytest.mark.parametrize(
    "value, want",
    [(0.5, 0.5), (-0.0, -0.0), (0.0, 0.0), (3, 3.0), (-1e100, -1e100), (10**100, 1e100), (_Float(-0.0), -0.0),
     (_Int(3), 3.0), (np.float64(-0.0), -0.0), (np.int64(2), 2.0), (Fraction(1, 4), 0.25)],
)
def test_finite_number_returns_a_plain_float_of_any_real(value, want):
    got = jsonio.finite_number(value, "p", jsonio._MAX_MAGNITUDE)
    assert type(got) is float and got.hex() == want.hex()  # hex tells -0.0 from 0.0


@pytest.mark.parametrize(
    "value",
    [True, False, np.bool_(False), math.nan, math.inf, -math.inf, np.float64(np.nan), np.float64(-np.inf),
     _Float("nan"), _Float("inf"), 10**400, _Int(-(10**400)), Fraction(10**400), "0.5", None],
)
def test_finite_number_refusals_keep_their_message(value):
    with pytest.raises(jsonio.SchemaError) as info:
        jsonio.finite_number(value, "p", jsonio._MAX_MAGNITUDE)
    assert str(info.value) == "field 'p': expected a finite number"


@pytest.mark.parametrize(
    "value", [1e101, -1e101, 10**101, _Float(1e101), _Int(10**101), np.float64(1e101), Fraction(-(10**101))]
)
def test_finite_number_bound_refusals_keep_their_message(value):
    with pytest.raises(jsonio.SchemaError) as info:
        jsonio.finite_number(value, "p", jsonio._MAX_MAGNITUDE)
    assert str(info.value) == f"field 'p': expected a number of magnitude at most 1e+100, got {float(value)!r}"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_format_float_rejects_non_finite(value):
    with pytest.raises(ValueError, match="^cannot serialize non-finite float"):
        jsonio.format_float(value)


@pytest.mark.parametrize("value", [np.ones((2, 3)), np.array([[np.nan]])])
def test_matrix_writer_rejects_what_matrix_to_json_rejects(value):
    with pytest.raises(ValueError, match="square|non-finite"):
        dumps(value)
