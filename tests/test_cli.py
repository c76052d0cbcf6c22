import argparse
import ast
import contextlib
import gc
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import cli, exact, linalg, representations, verification
from qchan.channels import DiagonalChannel, FamilyChannel, channel_to_json, family_to_diagonal
from qchan.cli import main
from qchan.equivalence import qubit_equivalence_check
from qchan.exact import Family, Tolerance
from qchan.jsonio import SchemaError, dumps
from qchan.linalg import matrix_to_json
from qchan.representations import verify_det_recurrence, verify_sum_identities
from qchan.verification import constant_fnorm_sample_test


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(dumps(payload) + "\n", encoding="utf-8")
    return str(path)


class TestRange:
    def test_dcq_dim_four(self, capsys):
        code, out, _ = run_cli(capsys, "range", "--family", "dcq", "--dim", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_min"] == pytest.approx(-1 / 7)
        assert payload["p_max"] == pytest.approx(1 / 9)
        # 17-significant-digit float rendering.
        assert "-0.14285714285714285" in out

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "range", "--family", "quux", "--dim", "3")
        assert code == 2
        assert "family" in err

    def test_bad_dim(self, capsys):
        code, _, err = run_cli(capsys, "range", "--family", "dep", "--dim", "1")
        assert code == 2
        assert "dim" in err


class TestBasis:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--dim", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 2
        assert len(payload["elements"]) == 4
        assert payload["elements"][0]["sector"] == "0"
        first = payload["elements"][0]["matrix"]
        assert first["data"][0][0] == pytest.approx(1 / np.sqrt(2))

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--dim", "3")
        assert code == 0
        assert "9 elements" in out
        assert "e_z,2" in out

    def test_oversized_basis_exits_2_before_allocating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        code, out, err = run_cli(capsys, "basis", "--dim", "200")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the basis at dim 200: about 23.9 GiB")

    def test_oversized_json_basis_exits_2_before_allocating(self, capsys, monkeypatch):
        # The JSON document holds about 140 bytes per n^4 at its peak, so
        # --json is refused from n = 63, below the text listing's n = 108.
        def refuse(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        code, out, err = run_cli(capsys, "basis", "--dim", "63", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the basis JSON at dim 63: about 2.1 GiB")
        for argv in (["--dim", "62", "--json"], ["--dim", "63"]):
            with pytest.raises(AssertionError, match="allocated"):
                main(["basis", *argv])


class TestChannelApply:
    def test_apply_family(self, tmp_path, capsys):
        ch = write_json(tmp_path / "ch.json", channel_to_json(FamilyChannel(Family.DCQ, 0.2, 3)))
        state = write_json(
            tmp_path / "s.json", matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex))
        )
        code, out, _ = run_cli(capsys, "channel", "apply", "--channel", ch, "--state", state)
        assert code == 0
        payload = json.loads(out)
        assert payload["output_trace"] == pytest.approx(1.0)
        diag = payload["output"]["data"][0]
        assert diag[0] == pytest.approx(0.4666666666666667)

    def test_rejects_non_state(self, tmp_path, capsys):
        ch = write_json(tmp_path / "ch.json", channel_to_json(FamilyChannel(Family.DEP, 0.5, 2)))
        state = write_json(tmp_path / "s.json", matrix_to_json(np.eye(2, dtype=complex)))
        code, _, err = run_cli(capsys, "channel", "apply", "--channel", ch, "--state", state)
        assert code == 2
        assert "trace" in err

    def test_dimension_mismatch(self, tmp_path, capsys):
        ch = write_json(tmp_path / "ch.json", channel_to_json(FamilyChannel(Family.DEP, 0.5, 3)))
        state = write_json(tmp_path / "s.json", matrix_to_json(np.eye(2, dtype=complex) / 2))
        code, _, err = run_cli(capsys, "channel", "apply", "--channel", ch, "--state", state)
        assert code == 2
        assert "state" in err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        state = write_json(tmp_path / "s.json", matrix_to_json(np.eye(2, dtype=complex) / 2))
        code, _, err = run_cli(capsys, "channel", "apply", "--channel", str(bad), "--state", state)
        assert code == 2
        assert "invalid JSON" in err

    def test_missing_file(self, tmp_path, capsys):
        state = write_json(tmp_path / "s.json", matrix_to_json(np.eye(2, dtype=complex) / 2))
        code, _, err = run_cli(
            capsys, "channel", "apply", "--channel", str(tmp_path / "nope.json"), "--state", state
        )
        assert code == 2
        assert "cannot read" in err


class TestVerifyCptp:
    def test_inline_family_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "cptp", "--family", "dep", "--dim", "3", "--p", "0.5"
        )
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

    def test_out_of_range_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "cptp", "--family", "tcq", "--dim", "3", "--p", "0.3"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["report"]["passed"] is False
        assert payload["report"]["min_choi_eigenvalue"] == pytest.approx(-0.2 / 3, abs=1e-12)

    def test_channel_file_diagonal(self, tmp_path, capsys):
        diag = family_to_diagonal(FamilyChannel(Family.TRD, 0.2, 3))
        ch = write_json(tmp_path / "d.json", channel_to_json(diag))
        code, out, _ = run_cli(capsys, "verify", "cptp", "--channel", ch)
        assert code == 0

    @pytest.mark.parametrize("family", list(Family))
    def test_inline_family_prints_the_bytes_of_its_file(self, tmp_path, capsys, family):
        # Inline, the report comes from exact._sector_cptp with no channel built; from a file, through is_cptp.
        for n in range(2, 9):
            r = exact.param_range(family, n)
            for p in (r.p_min, r.p_max, 0.0, r.p_min - 0.01, r.p_max + 0.01, -0.3, 1.5, 1e100):
                member = FamilyChannel(family, p, n)
                inline = run_cli(capsys, "verify", "cptp", "--family", family.value, "--dim", str(n), "--p", repr(p))
                ch = write_json(tmp_path / "member.json", channel_to_json(member))
                assert run_cli(capsys, "verify", "cptp", "--channel", ch) == inline
                diag = write_json(tmp_path / "diagonal.json", channel_to_json(family_to_diagonal(member)))
                code, out, err = run_cli(capsys, "verify", "cptp", "--channel", diag)
                assert (code, json.loads(out)["report"], err) == (inline[0], json.loads(inline[1])["report"], inline[2])

    def test_incomplete_inline_args(self, capsys):
        code, _, err = run_cli(capsys, "verify", "cptp", "--family", "dep", "--dim", "3")
        assert code == 2
        assert "provide" in err


class TestVerifyConstantNorm:
    def test_family_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "constant-norm",
            "--family", "dep", "--dim", "3", "--p", "0.25",
            "--samples", "100", "--seed", "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["criterion_holds"] is True
        assert payload["expected_norm"] == pytest.approx(np.sqrt(3 / 8))
        assert payload["report"]["samples_used"] == 109

    def test_perturbed_diagonal_fails(self, tmp_path, capsys):
        t = np.array(family_to_diagonal(FamilyChannel(Family.DEP, 0.5, 3)).t)
        t[2] += 1e-3
        ch = write_json(tmp_path / "d.json", channel_to_json(DiagonalChannel(dim=3, t=t)))
        code, out, _ = run_cli(
            capsys, "verify", "constant-norm", "--channel", ch, "--samples", "50", "--seed", "1"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["criterion_holds"] is False
        assert payload["report"]["passed"] is False


FIELD_MESSAGE = "error: field '{}': expected a number of magnitude at most 1e+100, got {}\n"
P_MESSAGE = FIELD_MESSAGE.format("p", "{}")


class TestNearTheFloatMaximum:
    """Parameters and multipliers from the magnitude bound up to the float maximum.

    |p| and every |t_i| may reach ``jsonio._MAX_MAGNITUDE`` = 1e100, where
    every verdict is finite; past it, a command exits 2 with one message
    and no NumPy warning.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "cptp", "--family", "dep", "--dim", "3", "--p", "1e308"],
            ["verify", "cptp", "--family", "dep", "--dim", "3", "--p", "8e307"],
            ["verify", "cptp", "--family", "tcq", "--dim", "2", "--p", "1e308"],
            ["verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "1e308", "--samples", "5"],
            ["verify", "constant-norm", "--family", "trd", "--dim", "5", "--p", "-8e307", "--samples", "5"],
            ["verify", "constant-norm", "--family", "dcq", "--dim", "3", "--p", "1.7e308", "--samples", "5"],
            ["verify", "constant-norm", "--family", "dcq", "--dim", "3", "--p", "1e308", "--samples", "5"],
            ["verify", "constant-norm", "--family", "tcq", "--dim", "3", "--p", "9e307", "--samples", "5"],
            ["verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "1e155", "--samples", "5"],
            ["verify", "constant-norm", "--family", "tcq", "--dim", "3", "--p", "-1.0000000000000002e+100"],
            ["witness", "--pair", "dep,dcq", "--dim", "3", "--p", "1.0000000000000002e+100"],
        ],
    )
    def test_p_past_the_bound_exits_2(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_cli(capsys, *argv)
        assert got == (2, "", P_MESSAGE.format(repr(float(argv[argv.index("--p") + 1]))))

    @pytest.mark.parametrize("sign", ["", "-"], ids=["+", "-"])
    @pytest.mark.parametrize("command", [["cptp"], ["constant-norm", "--samples", "20"]], ids=["cptp", "constant-norm"])
    @pytest.mark.parametrize("kind, dim", [("inline", 2), ("family", 16), ("diagonal", 3)])
    def test_verdicts_at_the_bound_are_finite(self, tmp_path, capsys, sign, command, kind, dim):
        p = float(sign + "1e100")
        if kind == "inline":
            source = ["--family", "dcq", "--dim", str(dim), "--p", sign + "1e100"]
        else:
            obj = {"kind": "family", "family": "tcq", "p": p, "dim": dim}
            if kind == "diagonal":
                t = np.random.default_rng(dim).choice([-p, p], dim * dim - 1)
                obj = {"kind": "diagonal", "dim": dim, "t": t.tolist()}
            source = ["--channel", write_json(tmp_path / "c.json", obj)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", command[0], *source, *command[1:])
        assert code in (0, 1) and err == ""
        payload = json.loads(out)
        assert all(np.isfinite(v) for v in payload["report"].values() if isinstance(v, float))
        assert payload.get("expected_norm") is None or np.isfinite(payload["expected_norm"])

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kind": "family", "family": "dep", "p": -1.0000000000000002e100, "dim": 3},
             FIELD_MESSAGE.format("p", "-1.0000000000000002e+100")),
            ({"kind": "diagonal", "dim": 2, "t": [0.0, 1e100, -1.0000000000000002e100]},
             FIELD_MESSAGE.format("t[2]", "-1.0000000000000002e+100")),
            ({"kind": "diagonal", "dim": 3, "t": [0, 1e155] + [2e155] * 4 + [0, 0]},
             FIELD_MESSAGE.format("t[1]", "1e+155")),
        ],
        ids=["family p", "diagonal t at the next float", "diagonal t of 1e155"],
    )
    def test_channel_file_past_the_bound_exits_2(self, tmp_path, capsys, obj, message):
        ch = write_json(tmp_path / "c.json", obj)
        for argv in (["verify", "cptp"], ["verify", "constant-norm"]):
            assert run_cli(capsys, *argv, "--channel", ch) == (2, "", message)

    def test_flag_and_channel_file_share_the_message(self, tmp_path, capsys):
        ch = write_json(tmp_path / "c.json", {"kind": "family", "family": "dep", "p": 1e101, "dim": 3})
        from_file = run_cli(capsys, "verify", "cptp", "--channel", ch)
        from_flag = run_cli(capsys, "verify", "cptp", "--family", "dep", "--dim", "3", "--p", "1e101")
        assert from_file == from_flag == (2, "", P_MESSAGE.format("1e+101"))

    def test_channel_apply_output_at_the_bound_reads_back(self, tmp_path, capsys):
        # The bound is on p and t_i, not on a state's entries: the output is a valid state file.
        ch = write_json(tmp_path / "c.json", {"kind": "family", "family": "dcq", "p": 1e100, "dim": 3})
        state = np.diag([1.0, 0.0, 0.0]).astype(complex)
        state_file = write_json(tmp_path / "s.json", matrix_to_json(state))
        code, out, err = run_cli(capsys, "channel", "apply", "--channel", ch, "--state", state_file)
        assert (code, err) == (0, "")
        output = linalg.matrix_from_json(json.loads(out)["output"])
        np.testing.assert_array_equal(output, FamilyChannel(Family.DCQ, 1e100, 3)(state))

    def test_channel_apply_where_2p_overflows(self, tmp_path, capsys):
        # 2p overflows only past |p| ~ 8.99e307, far past the bound: the channel file's p is refused.
        state = write_json(tmp_path / "s.json", matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex)))
        for p in (1e308, 1.7e308):
            ch = write_json(tmp_path / "c.json", {"kind": "family", "family": "dcq", "p": p, "dim": 3})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = run_cli(capsys, "channel", "apply", "--channel", ch, "--state", state)
            assert got == (2, "", FIELD_MESSAGE.format("p", repr(p)))


class TestChecks:
    def test_identities(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--dim", "4", "--trials", "10", "--seed", "3")
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

    def test_identities_pass_at_dim_1000(self, capsys):
        # The z sums' entries reach about 3800 here and their rounding about
        # 1.5e-12, past the absolute 1e-12; the bound relative to the largest
        # entry of the closed forms passes them.
        code, out, _ = run_cli(capsys, "identities", "--dim", "1000", "--trials", "1")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["passed"] is True
        assert 1e-12 < report["max_deviation"] < 1e-14 * 3000

    def test_a_failing_identities_report_names_where_its_worst_deviation_arose(self, capsys):
        # Rounding alone fails a bound of 1e-18: the passing witness text stays, and the
        # sum and the input of the largest deviation follow it.
        code, out, _ = run_cli(capsys, "identities", "--dim", "3", "--tol", "1e-18")
        report = json.loads(out)["report"]
        assert (code, report["passed"]) == (1, False)
        passing, where = report["witness"].split("; ")
        assert re.fullmatch(r"transpose-free variants on symmetric inputs: max deviation \S+", passing)
        assert where == f"largest deviation {report['max_deviation']:.3e} in the z sum on generic inputs"

    @pytest.mark.parametrize(
        "argv",
        [
            ["identities", "--dim", "4", "--trials", "0"],
            ["qubit-equiv", "--p", "0.3", "--trials", "0"],
            ["qubit-equiv", "--p", "0.3", "--trials", "-2"],
            ["verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "0.1", "--samples", "-5"],
            ["report", "--dim", "3", "--samples", "-1"],
        ],
    )
    def test_empty_or_negative_counts_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert re.fullmatch(r"error: field '(trials|samples)': expected an integer >= [01], got -?\d+\n", err)

    def test_zero_samples_checks_the_witness_states(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "0.1", "--samples", "0"
        )
        assert code == 0
        assert json.loads(out)["report"]["samples_used"] == 9

    def test_detcheck(self, capsys):
        code, out, _ = run_cli(capsys, "detcheck", "--dim", "5", "--grid", "21")
        assert code == 0
        assert json.loads(out)["report"]["samples_used"] == 21

    def test_detcheck_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "detcheck", "--dim", "5", "--grid", "1")
        assert code == 2
        assert "grid" in err

    def test_detcheck_honours_tolerance_overrides(self, capsys):
        # An absurdly tight tolerance must flip the verdict.
        code, out, _ = run_cli(capsys, "detcheck", "--dim", "3", "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["report"]["passed"] is False


class TestWitnessAndCertify:
    def test_witness_mixed_pair(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--pair", "dep,dcq", "--dim", "3", "--p", "0.2")
        assert code == 0
        payload = json.loads(out)
        witness = payload["certificate"]["witnesses"][0]
        assert witness["family"] == "dcq"
        assert witness["max_spectral_gap"] > 1e-6

    def test_witness_rejects_same_class_pair(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--pair", "dcq,tcq", "--dim", "3")
        assert code == 2
        assert "certify" in err

    def test_certify_bound_matching(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--pair", "dcq,tcq", "--dim", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["method"] == "bound_matching"
        roots = payload["certificate"]["bound_reports"][0]["roots_exact"]
        assert "5/2 - sqrt(17)/2" in roots

    def test_certify_dim_two_rejected(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--pair", "dep,dcq", "--dim", "2")
        assert code == 2
        assert "dimension 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--pair", "dep,trd", "--dim", "5", "--p", "nan"],
            ["witness", "--pair", "dep,dcq", "--dim", "3", "--p", "nan"],
        ],
    )
    def test_non_finite_p_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: field 'p': expected a finite number\n"

    def test_certify_same_class_pair_refuses_p(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--pair", "dep,trd", "--dim", "3", "--p", "0.1")
        assert (code, out) == (2, "")
        assert err == (
            "error: p=0.1 applies to spectrum witnesses only; the same-class pair dep,trd "
            "is certified by bound matching, which takes no p\n"
        )

    def test_pair_parsing(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--pair", "dep", "--dim", "3")
        assert code == 2
        assert "pair" in err
        code, _, err = run_cli(capsys, "certify", "--pair", "dep,dep", "--dim", "3")
        assert code == 2
        assert "distinct" in err


def _parsers(parser):
    """``parser`` and every subparser under it, depth first."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


class TestNegativeNumbers:
    """A float option takes a negative value in exponent form, as it takes ``--p=-1e-05``."""

    @pytest.mark.parametrize("value", ["-1e-05", "-1E+3", "-.5e1", "-2.5e-1", "-3", "-0.25"])
    def test_every_float_option(self, value):
        seen = []
        for parser in _parsers(cli.build_parser()):
            required = [arg for a in parser._actions if a.required and a.option_strings for arg in (a.option_strings[0], "3")]
            for action in parser._actions:
                if action.type is float:
                    args = parser.parse_args([*required, action.option_strings[0], value])
                    assert getattr(args, action.dest) == float(value)
                    seen.append(action.dest)
        assert len(seen) == 12

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "cptp", "--family", "dep", "--dim", "100", "--p", "-1e-05"],
            ["certify", "--pair", "dep,dcq", "--dim", "5", "--p", "-1e-3"],
            ["qubit-equiv", "--p", "0.5", "--trials", "5", "--tol", "1e-3"],
        ],
    )
    def test_as_with_an_equals_sign(self, capsys, argv):
        joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
        assert run_cli(capsys, *argv) == run_cli(capsys, *joined)
        assert run_cli(capsys, *argv)[0] == 0

    def test_a_printed_endpoint_reads_back(self, capsys):
        _, out, _ = run_cli(capsys, "range", "--family", "dep", "--dim", "101")
        p_min = out.split('"p_min": ')[1].split(",")[0]
        assert p_min == "-9.8039215686274506e-05"
        code, out, _ = run_cli(capsys, "verify", "cptp", "--family", "dep", "--dim", "101", "--p", p_min)
        assert code == 0
        assert json.loads(out)["channel"]["p"] == float(p_min)

    def test_negative_tol_reaches_its_check(self, capsys):
        code, out, err = run_cli(capsys, "verify", "cptp", "--family", "dep", "--dim", "3", "--p", "0.1", "--tol", "-1e-3")
        assert (code, out, err) == (2, "", "error: field 'tol': expected a positive finite number, got -0.001\n")

    def test_help_and_usage_are_unchanged(self, monkeypatch):
        ours = [(parser.format_usage(), parser.format_help()) for parser in _parsers(cli.build_parser())]
        monkeypatch.setattr(cli, "_parser_class", lambda: argparse.ArgumentParser)
        plain = [(parser.format_usage(), parser.format_help()) for parser in _parsers(cli.build_parser())]
        assert ours == plain
        assert len(ours) == 14


# Flag values by the type that converts them: each "good" text is one argparse
# reads as the flag's value and converts, each "bad" one it refuses or reads as an option.
GOOD_VALUES = {
    int: ["3", "0", "-1", " 7", "1_000", "+4"],
    float: ["0.1", "-1e-05", "-.5", "nan", "inf", " 2 ", "1_0.5"],
    None: ["dep", "dep,trd", "", " 7", "x.json", "-3"],
}
BAD_VALUES = {
    int: ["", "nan", "1.5", "x", "-x", "--", "-"],
    float: ["", "x", "1e", "-inf", "-x", "--"],
    None: ["-x", "--", "-", "-h", "--dim"],
}
# Tokens an edit inserts or puts in place of a flag.
STRAY_TOKENS = ["-h", "--help", "x", "--output", "out.json", "--dim", "--sam", "--fam", "--p", "--json", "--tol=1"]


@st.composite
def command_lines(draw):
    """An argv of one command of the table, and whether it is in the common form the CLI parses itself."""

    command = draw(st.sampled_from(cli._COMMANDS))
    flags = [flag for flag in draw(st.permutations(command.flags)) if draw(st.booleans()) or flag.required and draw(st.booleans())]
    argv = list(command.path)
    common = all(flag in flags for flag in command.flags if flag.required)
    for flag in flags:
        argv.append(flag.name)
        if flag.type is not bool:
            good = draw(st.booleans())
            argv.append(draw(st.sampled_from((GOOD_VALUES if good else BAD_VALUES)[flag.type])))
            common &= good
    if draw(st.booleans()):
        path = draw(st.sampled_from(["out.json", "-1", "", "-o", "--"]))
        argv[:0] = ["--output", path]
        common &= path[:1] != "-" or path == "-1"
    for kind, index, token in draw(st.lists(st.tuples(st.sampled_from(["insert", "delete", "join", "abbreviate"]), st.integers(0, 40), st.sampled_from(STRAY_TOKENS)), max_size=2)):
        index %= len(argv) + 1
        if kind == "insert":
            argv.insert(index, token)
        elif index < len(argv) and kind == "delete":
            del argv[index]
        elif index + 1 < len(argv) and kind == "join":  # --flag=value
            argv[index : index + 2] = [f"{argv[index]}={argv[index + 1]}"]
        elif index < len(argv) and len(argv[index]) > 3 and kind == "abbreviate":
            argv[index] = argv[index][:-1]
        else:
            continue
        common = False
    return argv, common


def _comparable(fields):
    return {name: "NaN" if isinstance(value, float) and math.isnan(value) else value for name, value in fields.items()}


class TestCommonPath:
    """``main`` parses an argv of the common form itself and hands every other argv to argparse."""

    @given(command_lines())
    @settings(max_examples=300, deadline=None)
    def test_parses_as_argparse_or_declines(self, line):
        argv, common = line
        ours = cli._parse_common(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                theirs = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            assert ours is None, argv
            return
        if common:
            assert ours is not None, argv
        if ours is not None:
            assert _comparable(vars(ours)) == _comparable(theirs), argv

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (["-h"], None),
            (["report", "-h"], None),
            (["report", "--dim", "3", "--sam", "5"], ["report", "--dim", "3", "--samples", "5"]),
            (["range", "--family", "dep", "--family", "trd", "--dim", "3"], ["range", "--family", "trd", "--dim", "3"]),
            (["certify", "--pair=dep,trd", "--dim", "4"], ["certify", "--pair", "dep,trd", "--dim", "4"]),
            (["report", "--dim", "3", "--output", "x.json"], None),
            (["frobnicate"], None),
            (["verify", "cptp", "--family", "dep", "--dim"], None),
            (["range", "--family", "dep", "--dim", "three"], None),
        ],
    )
    def test_argparse_parses_every_declined_argv(self, capsys, argv, same_as):
        # A refused argv gets argparse's own output and exit code; an accepted
        # one runs as its common form does.
        assert cli._parse_common(argv) is None
        if same_as is None:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            out, err = capsys.readouterr()
            expected = (0 if exc.value.code == 0 else 2, out, err)
        else:
            assert cli._parse_common(same_as) is not None
            expected = run_cli(capsys, *same_as)
        assert run_cli(capsys, *argv) == expected


class TestFieldErrors:
    """Each refused flag or file field exits 2 and names the field on stderr."""

    def test_every_flag_has_a_rule(self):
        # Every other dest is a file path, a switch, a subcommand or the handler.
        non_values = {"output", "channel", "state", "json", "help"}
        non_values |= {"command", "channel_command", "verify_command", "handler"}
        dests = set()
        for parser in _parsers(cli.build_parser()):
            dests |= {action.dest for action in parser._actions} | set(parser._defaults)
        assert dests - non_values == set(cli._FIELD_RULES)

    @pytest.mark.parametrize("value", ["0", "nan", "-1e-3", "inf"])
    def test_tol_must_be_positive_and_finite(self, capsys, value):
        code, out, err = run_cli(capsys, "identities", "--dim", "3", f"--tol={value}")
        assert (code, out) == (2, "")
        assert err.startswith("error: field 'tol': expected a positive finite number")

    def test_inline_family_dim_below_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "cptp", "--family", "dep", "--dim", "1", "--p", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: field 'dim': expected an integer >= 2, got 1\n"

    @pytest.mark.parametrize("command", ["cptp", "constant-norm"])
    @pytest.mark.parametrize(
        "inline",
        [
            ["--family", "dep", "--dim", "5", "--p", "0.9"],
            ["--family", "dep"],
            ["--dim", "5"],
            ["--p", "0.9"],
        ],
    )
    def test_channel_file_with_inline_flags_refused(self, tmp_path, capsys, command, inline):
        # One of the two channels would be ignored, so neither is checked.
        ch = write_json(tmp_path / "c.json", channel_to_json(FamilyChannel(Family.DCQ, 0.2, 3)))
        code, out, err = run_cli(capsys, "verify", command, "--channel", ch, *inline)
        assert (code, out) == (2, "")
        assert err == "error: field 'channel': provide --channel FILE or --family/--dim/--p, not both\n"

    @pytest.mark.parametrize(
        "channel, field",
        [
            ({"kind": "diagonal", "dim": 1, "t": []}, "dim"),
            ({"kind": "diagonal", "dim": True, "t": [0, 0, 0]}, "dim"),
            ({"kind": "diagonal", "dim": 2.0, "t": [0, 0, 0]}, "dim"),
            ({"kind": "family", "family": "dep", "p": 0.1, "dim": 1}, "dim"),
            ({"kind": "family", "family": "dep", "p": 0.1, "dim": "3"}, "dim"),
            ({"kind": "diagonal", "dim": 2, "t": [True, 0, 0]}, "t[0]"),
            ({"kind": "diagonal", "dim": 2, "t": [0, "x", 0]}, "t[1]"),
            ({"kind": "diagonal", "dim": 2, "t": [0, 0, float("inf")]}, "t[2]"),
            ({"kind": "diagonal", "dim": 2, "t": [0, 0, float("nan")]}, "t[2]"),
            ({"kind": "family", "family": "dep", "p": True, "dim": 3}, "p"),
            ({"kind": "family", "family": "dep", "p": float("-inf"), "dim": 3}, "p"),
        ],
    )
    def test_channel_file_fields(self, tmp_path, capsys, channel, field):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(channel), encoding="utf-8")  # writes Infinity and NaN as such
        code, out, err = run_cli(capsys, "verify", "cptp", "--channel", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: field '{field}': ")

    @pytest.mark.parametrize(
        "call, flag, file_fields",
        [
            pytest.param(lambda: FamilyChannel(Family.DEP, 0.1, 1), "range --family dep --dim 1", {"dim": 1}, id="dim 1"),
            pytest.param(lambda: FamilyChannel(Family.DEP, 0.1, 2.5), ("dim", 2.5), {"dim": 2.5}, id="dim 2.5"),
            pytest.param(lambda: verify_sum_identities(3, trials=0), "identities --dim 3 --trials 0", None, id="trials 0"),
            pytest.param(lambda: verify_sum_identities(3, trials=2.5), ("trials", 2.5), None, id="trials 2.5"),
            pytest.param(lambda: verify_sum_identities(3, seed=-1), "identities --dim 3 --seed -1", None, id="seed -1"),
            pytest.param(
                lambda: constant_fnorm_sample_test(FamilyChannel(Family.DEP, 0.1, 3), 3, samples=-1),
                "verify constant-norm --family dep --dim 3 --p 0.1 --samples -1",
                None,
                id="samples -1",
            ),
            pytest.param(lambda: verify_det_recurrence(3, grid=1), "detcheck --dim 3 --grid 1", None, id="grid 1"),
            pytest.param(
                lambda: FamilyChannel(Family.DEP, float("inf"), 3),
                "verify cptp --family dep --dim 3 --p inf",
                {"p": float("inf")},
                id="p inf",
            ),
            pytest.param(
                lambda: FamilyChannel(Family.DEP, 1e101, 3),
                "verify cptp --family dep --dim 3 --p 1e101",
                {"p": 1e101},
                id="p 1e101",
            ),
            pytest.param(lambda: FamilyChannel(Family.DEP, True, 3), ("p", True), {"p": True}, id="p True"),
            pytest.param(lambda: FamilyChannel("xyz", 0.1, 3), "range --family xyz --dim 3", {"family": "xyz"}, id="family xyz"),
        ],
    )
    def test_one_message_per_value_at_every_boundary(self, tmp_path, capsys, call, flag, file_fields):
        # A library call, the flag and the channel file's field, where there is one, print one line.
        with pytest.raises(SchemaError) as refused:
            call()
        lines = {f"error: {refused.value}\n"}
        if isinstance(flag, str):
            code, out, err = run_cli(capsys, *flag.split())
            assert (code, out) == (2, "")
            lines.add(err)
        else:  # argparse refuses the text of this value before the flag's rule runs; the rule gets the value
            name, value = flag
            with pytest.raises(SchemaError) as rule_refused:
                cli._FIELD_RULES[name]({name: value}, name)
            lines.add(f"error: {rule_refused.value}\n")
        if file_fields is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps({"kind": "family", "family": "dep", "p": 0.1, "dim": 3, **file_fields}))
            code, out, err = run_cli(capsys, "verify", "cptp", "--channel", str(path))
            assert (code, out) == (2, "")
            lines.add(err)
        assert len(lines) == 1, lines

    @pytest.mark.parametrize(
        "state, field",
        [
            ({"rows": 0, "cols": 0, "data": []}, "state.rows"),
            ({"rows": -2, "cols": 2, "data": []}, "state.rows"),
            ({"rows": 2.0, "cols": 2, "data": []}, "state.rows"),
            ({"rows": 2, "cols": True, "data": []}, "state.cols"),
            ({"rows": 2, "cols": "2", "data": []}, "state.cols"),
        ],
    )
    def test_state_file_shape_fields(self, tmp_path, capsys, state, field):
        ch = write_json(tmp_path / "ch.json", channel_to_json(FamilyChannel(Family.DEP, 0.5, 2)))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(state), encoding="utf-8")
        code, out, err = run_cli(capsys, "channel", "apply", "--channel", ch, "--state", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: field '{field}': ")


def peak_case(command, kind, line, sizes, body=None):
    """A case of the memory test: ``line`` run in process at a size (``{}``), or ``body(size)``."""
    if body is None:
        body = lambda size, where: main(["--output", f"{where}/out.json", *line.format(size, dir=where).split()])
    return pytest.param(command, kind, body, sizes, id=line.format("N", dir="DIR"))


UNEQUAL_MULTIPLIERS = {"kind": "diagonal", "dim": 3, "t": [0.1, 0.2, 0.3, -0.15, 0.25, 0.05, 0.12, -0.08]}


def spread(n):
    """A diagonal channel at dim n whose multipliers vary within each sector, so ``is_cptp`` takes its Choi blocks."""
    return DiagonalChannel(n, ((7 * np.arange(n * n - 1)) % 101 - 50) / 200)


NORM = "verify constant-norm --family tcq --p 0.001"
SAMPLES = (10**4, 5 * 10**4)

# Each row of `exact._PEAK_BYTES`, with the bodies it bounds and the two sizes
# each runs at: dimensions, or item counts (Haar samples or grid points).  The
# representation checks share the identities row's trial stacks.
PEAK_CASES = [
    peak_case(
        "verify cptp", "dim", "is_cptp(spread(N), N)", (256, 512),
        lambda n, where: verification.is_cptp(spread(n), n),
    ),
    peak_case("verify constant-norm", "dim", NORM + " --samples 100 --dim {}", (256, 512)),
    peak_case("verify constant-norm", "items", NORM + " --dim 3 --samples {}", SAMPLES),
    peak_case("verify constant-norm", "items", NORM + " --dim 64 --samples {}", (2000, 10**4)),
    peak_case("verify constant-norm", "items", "verify constant-norm --channel {dir}/unequal.json --samples {}", SAMPLES),
    peak_case("detcheck", "dim", "detcheck --dim {}", (256, 512)),
    peak_case("detcheck", "items", "detcheck --dim 3 --grid {}", (5000, 20000)),
    peak_case("identities", "dim", "identities --trials 2 --dim {}", (256, 512)),
    peak_case(
        "identities", "dim", "verify_representations(tcq, 0.001, N, trials=1)", (128, 256),
        lambda n, where: representations.verify_representations(Family.TCQ, 0.001, n, trials=1),
    ),
    peak_case(
        "identities", "dim", "_representation_reports(each family at 0.001, N, trials=1)", (128, 256),
        lambda n, where: representations._representation_reports([FamilyChannel(f, 0.001, n) for f in Family], n, 1, 0),
    ),
    peak_case("witness", "dim", "witness --pair dep,dcq --dim {}", (200, 400)),
    peak_case("witness", "dim", "certify --pair tcq,dep --dim {}", (200, 400)),
    peak_case("report", "dim", "report --dim {}", (64, 128)),
    peak_case("report", "items", "report --dim 3 --samples {}", SAMPLES),
    peak_case("basis", "dim", "basis --dim {}", (16, 32)),
    peak_case("basis --json", "dim", "basis --json --dim {}", (16, 24)),
]


def traced_peak(body):
    """Peak bytes that tracemalloc sees allocated while ``body()`` runs, from cold per-dimension caches."""
    linalg._pair_index.cache_clear()
    linalg._pair_positions.cache_clear()
    representations._staircase_gram.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        body()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def estimated_bytes(command, dim=3, items=0):
    """The bytes that ``exact._check_peak_bytes`` estimates for ``command``."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_check_dense_bytes", lambda nbytes, what: seen.append(nbytes))
        exact._check_peak_bytes(command, dim, items)
    return seen[0]


class TestSizeGuards:
    """An oversized --dim or --samples exits 2, naming the 2 GiB limit, before any work starts.

    One table, ``exact._PEAK_BYTES``, estimates every guarded command's peak
    memory; README's size-guard table states each row and its first refused
    sizes, and tests/test_readme.py derives those sizes from the table.
    """

    @pytest.mark.parametrize("command, kind, body, sizes", PEAK_CASES)
    def test_estimate_bounds_the_measured_growth(self, tmp_path, command, kind, body, sizes):
        write_json(tmp_path / "unequal.json", UNEQUAL_MULTIPLIERS)
        body(sizes[0], tmp_path)  # imports and one-time allocations are not the command's peak
        measured = [traced_peak(lambda: body(size, tmp_path)) for size in sizes]
        estimated = [estimated_bytes(command, **{kind: size}) for size in sizes]
        growth, estimate = measured[1] - measured[0], estimated[1] - estimated[0]
        assert growth <= estimate <= 4 * growth, (growth, estimate)

    def test_every_row_is_measured(self):
        assert {case.values[0] for case in PEAK_CASES} == set(exact._PEAK_BYTES)

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "_tol_kwargs", refuse)
        monkeypatch.setattr("qchan.equivalence.inequivalence_certificate", refuse)

    # Each id is a fixed label, the name pytest once generated from the row, so
    # that re-measuring a `_PEAK_BYTES` row, which moves its argv and its
    # text, renames no test.
    @pytest.mark.parametrize(
        "argv, what",
        [
            pytest.param(
                ["verify", "cptp", "--family", "dep", "--dim", "30000", "--p", "0.1"],
                "verify cptp at dim 30000: about 83.8",
                id="argv0-verify cptp at dim 30000: about 83.8",
            ),
            pytest.param(
                ["verify", "constant-norm", "--family", "trd", "--dim", "5983", "--p", "0", "--samples", "0"],
                "verify constant-norm at dim 5983: about 2.0",
                id="argv1-verify constant-norm at dim 4635: about 2.0",
            ),
            pytest.param(
                ["witness", "--pair", "dep,dcq", "--dim", "1752"],
                "the spectrum witnesses at dim 1752: about 2.0",
                id="argv2-the spectrum witnesses at dim 1752: about 2.0",
            ),
            pytest.param(
                ["certify", "--pair", "tcq,dep", "--dim", "100000"],
                "the spectrum witnesses at dim 100000: about 6519.3",
                id="argv3-the spectrum witnesses at dim 100000: about 6519.3",
            ),
            pytest.param(
                ["identities", "--dim", "2676"],
                "identities at dim 2676: about 2.0",
                id="argv4-identities at dim 2676: about 2.0",
            ),
            pytest.param(
                ["identities", "--dim", "5000"],
                "identities at dim 5000: about 7.0",
                id="argv5-identities at dim 5000: about 7.0",
            ),
            pytest.param(
                ["detcheck", "--dim", "4635"],
                "detcheck at dim 4635: about 2.0",
                id="argv6-detcheck at dim 4635: about 2.0",
            ),
            pytest.param(
                ["verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "0.1", "--samples", "89478463"],
                "verify constant-norm at dim 3: about 2.0",
                id="argv7-verify constant-norm at dim 3: about 2.0",
            ),
            pytest.param(
                ["verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "0.1", "--samples", "300000000"],
                "verify constant-norm at dim 3: about 6.7",
                id="argv8-verify constant-norm at dim 3: about 6.7",
            ),
            pytest.param(
                ["report", "--dim", "3", "--samples", "44738362"],
                "the report at dim 3: about 2.0",
                id="argv9-the report at dim 3: about 2.0",
            ),
            pytest.param(
                ["detcheck", "--dim", "3", "--grid", "300000000"],
                "detcheck at dim 3: about 4.5",
                id="argv10-detcheck at dim 3: about 4.5",
            ),
        ],
    )
    def test_oversized_dim_exits_2(self, capsys, no_work, argv, what):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {what} GiB, over the 2 GiB limit\n"

    def test_oversized_channel_file_exits_2(self, tmp_path, capsys, no_work):
        ch = write_json(tmp_path / "c.json", {"kind": "family", "family": "dcq", "p": 0.0, "dim": 5000})
        code, out, err = run_cli(capsys, "verify", "cptp", "--channel", ch)
        assert code == 2
        assert err == "error: verify cptp at dim 5000: about 2.3 GiB, over the 2 GiB limit\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "cptp", "--family", "dep", "--dim", "4634", "--p", "0.1"],
            ["verify", "constant-norm", "--family", "trd", "--dim", "5982", "--p", "0"],
            ["witness", "--pair", "dep,dcq", "--dim", "1751"],
            ["certify", "--pair", "tcq,dep", "--dim", "1751"],
            ["certify", "--pair", "dep,trd", "--dim", "100000"],  # bound matching: nothing of size n^2
            ["identities", "--dim", "2675"],
            ["detcheck", "--dim", "4634"],
            ["verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "0.1", "--samples", "89478462"],
            ["report", "--dim", "3", "--samples", "44738361"],
            ["detcheck", "--dim", "3", "--grid", "134217671"],
        ],
    )
    def test_largest_accepted_dims_start_work(self, no_work, argv):
        with pytest.raises(AssertionError, match="work started"):
            main(argv)


class TestQubitEquiv:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "qubit-equiv", "--p", "0.7", "--trials", "50", "--seed", "1")
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "qubit-equiv", "--p", "0.0")
        assert code == 2
        assert "0 < p < 1" in err


def failed(record):
    return record._replace(passed=False)


# One case per section of `report`: the callee whose first result is made to
# fail, how it is made to fail, the dimension, and the section it lands in.
SECTION_FAILURES = [
    pytest.param("qchan.verification.is_cptp", failed, 3, "cptp_endpoints", id="endpoint-probe"),
    pytest.param(
        "qchan.verification.constant_fnorm_criterion", lambda r: (False, r[1]), 3, "constant_norm", id="criterion"
    ),
    pytest.param("qchan.verification.constant_fnorm_sample_test", failed, 3, "constant_norm", id="samples"),
    pytest.param(
        "qchan.representations._representation_reports",
        lambda r: [failed(r[0]), *r[1:]],
        3,
        "representations",
        id="representations",
    ),
    pytest.param("qchan.representations._kraus_count_and_deviation", lambda r: (*r[:2], False), 3, "kraus", id="kraus"),
    pytest.param("qchan.representations.verify_sum_identities", failed, 3, "identities", id="identities"),
    pytest.param("qchan.representations.verify_det_recurrence", failed, 3, "determinant", id="determinant"),
    pytest.param(
        "qchan.equivalence.inequivalence_certificate", lambda r: r._replace(method="none"), 3, "certificates", id="certificate"
    ),
    pytest.param(
        "qchan.equivalence.qubit_equivalence_check", failed, 2, "qubit_equivalence", id="qubit-equivalence"
    ),
]


class TestReport:
    def test_loose_tolerance_fails_on_correct_data(self, capsys):
        # dep at p_max + 0.01 has smallest Choi eigenvalue -1/300, which
        # --tol 1e-3 accepts: that probe outside the range passes, so the
        # endpoint check fails and the report exits 1.
        code, out, _ = run_cli(capsys, "report", "--dim", "3", "--tol", "1e-3")
        assert code == 1
        payload = json.loads(out)
        endpoints = payload["sections"]["cptp_endpoints"]
        assert endpoints["dep"]["above"]["passed"] is True
        assert endpoints["dep"]["above"]["min_choi_eigenvalue"] == pytest.approx(-1 / 300)
        assert [f for f, entry in endpoints.items() if not entry["passed"]] == ["dep"]
        assert payload["passed"] is False

    def test_dim_three_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--dim", "3", "--samples", "50", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert set(payload["sections"]) == {
            "ranges",
            "cptp_endpoints",
            "constant_norm",
            "representations",
            "kraus",
            "identities",
            "determinant",
            "certificates",
        }
        assert len(payload["sections"]["certificates"]) == 6

    def test_dim_two_includes_equivalences(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--dim", "2", "--samples", "30", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["sections"]["qubit_equivalence"]["passed"] is True


    def test_oversized_report_exits_2_before_any_work(self, capsys, monkeypatch):
        # About 4.6 KiB of peak memory per n^2: refused from n = 676, the
        # first dimension whose estimate passes 2 GiB.
        def refuse(*args, **kwargs):
            raise AssertionError("report work started")

        monkeypatch.setattr(cli, "_tol_kwargs", refuse)
        code, out, err = run_cli(capsys, "report", "--dim", "676")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the report at dim 676: about 2.0 GiB, over the 2 GiB limit")
        with pytest.raises(AssertionError, match="work started"):
            main(["report", "--dim", "675"])

    def test_negative_samples_exit_2_before_the_cptp_sections(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("report work started")

        monkeypatch.setattr("qchan.verification.is_cptp", refuse)
        code, out, err = run_cli(capsys, "report", "--dim", "200", "--samples", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: field 'samples': expected an integer >= 0, got -1\n"

    def test_report_builds_no_kraus_operator(self, capsys, monkeypatch):
        monkeypatch.setattr("qchan.representations._scaled_operators", None)
        code, out, _ = run_cli(capsys, "report", "--dim", "4", "--samples", "10")
        assert code == 0
        kraus = json.loads(out)["sections"]["kraus"]
        assert [entry["operators"] for entry in kraus.values()] == [1 + 3 * 6] * 4

    def test_tolerance_reaches_the_determinant(self, capsys):
        # The determinant section decides with --tol, as detcheck does.
        code, out, _ = run_cli(capsys, "report", "--dim", "3", "--samples", "10", "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["sections"]["determinant"]["passed"] is False

    def test_failing_representations_name_their_form(self, capsys):
        # At 1e-30 every member fails on rounding; each witness names the form that
        # reached its worst deviation (tests/test_shared_draws.py holds the choice
        # to a per-trial loop).
        code, out, _ = run_cli(capsys, "report", "--dim", "2", "--samples", "10", "--tol", "1e-30")
        assert code == 1
        sections = json.loads(out)["sections"]
        reports = {family: entry["report"] for family, entry in sections["representations"].items()}
        p = "0.33333333333333337"
        assert {family: report["witness"] for family, report in reports.items()} == {
            "dep": f"representation mismatch 4.441e-16 in the Pauli form for dep, p={p}, n=2",
            "trd": f"representation mismatch 4.441e-16 in the Pauli form for trd, p=-{p}, n=2",
            "dcq": f"representation mismatch 8.882e-16 in the basis form for dcq, p={p}, n=2",
            "tcq": f"representation mismatch 4.441e-16 in the Pauli form for tcq, p=-{p}, n=2",
        }
        assert [report["max_deviation"] for report in reports.values()] == [2**-51, 2**-51, 2**-50, 2**-51]

    def test_tolerance_reaches_the_qubit_equivalences(self, capsys, monkeypatch):
        seen = []

        def recorder(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return qubit_equivalence_check(*args, **kwargs)

        monkeypatch.setattr("qchan.equivalence.qubit_equivalence_check", recorder)
        code, _, _ = run_cli(capsys, "report", "--dim", "2", "--samples", "10", "--tol", "1e-3")
        assert code == 0
        assert seen == [Tolerance(absolute=1e-3, relative=1e-3)]
        run_cli(capsys, "report", "--dim", "2", "--samples", "10")
        assert seen[1:] == [None]

    @pytest.mark.parametrize("target, spoil, n, section", SECTION_FAILURES)
    def test_each_section_verdict_reaches_the_report(self, capsys, monkeypatch, target, spoil, n, section):
        argv = ["report", "--dim", str(n), "--samples", "10"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        before = json.loads(out)["sections"]
        module, name = target.rsplit(".", 1)
        real = getattr(importlib.import_module(module), name)
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(args)
            result = real(*args, **kwargs)
            return spoil(result) if len(calls) == 1 else result

        monkeypatch.setattr(target, first_fails)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        after = payload["sections"]
        assert after.keys() == before.keys()
        assert [key for key in before if after[key] != before[key]] == [section]


class TestOutputContract:
    def test_byte_identical_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main(
                ["--output", str(target), "report", "--dim", "2", "--samples", "40", "--seed", "7"]
            )
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_output_file_keeps_stdout_clean(self, tmp_path, capsys):
        target = tmp_path / "r.json"
        code, out, _ = run_cli(
            capsys, "--output", str(target), "range", "--family", "dep", "--dim", "3"
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["p_max"] == 1.0

    def test_environment_sets_no_tolerance(self, capsys, monkeypatch):
        # Only --tol overrides a tolerance: the output depends on argv alone.
        unset = run_cli(capsys, "detcheck", "--dim", "3")
        monkeypatch.setenv("QCHAN_TOL", "1e-30")
        assert run_cli(capsys, "detcheck", "--dim", "3") == unset
        assert unset[0] == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_allocation_failure_exits_2(self, capsys, monkeypatch):
        def allocate(*args):
            raise MemoryError("Unable to allocate 190. GiB for an array")

        # The handler's first call: the command table holds the handler itself.
        monkeypatch.setattr(cli, "_check_peak_bytes", allocate)
        code, out, err = run_cli(capsys, "basis", "--dim", "400", "--json")
        assert code == 2
        assert out == ""
        assert err == "error: Unable to allocate 190. GiB for an array\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qchan", "range", "--family", "tcq", "--dim", "6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p_min"] == pytest.approx(-0.2)

    def test_runs_without_sympy(self):
        # sympy is a test oracle only: with its import blocked, certify and
        # report must still succeed and load no sympy module.
        script = textwrap.dedent(
            """
            import contextlib
            import io
            import sys

            sys.modules["sympy"] = None
            import qchan.cli

            for argv in (
                ["certify", "--pair", "dep,trd", "--dim", "5"],
                ["certify", "--pair", "tcq,dcq", "--dim", "4"],
                ["report", "--dim", "3"],
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = qchan.cli.main(argv)
                assert code == 0, (argv, code)
            loaded = [
                name for name, module in sys.modules.items()
                if name.startswith("sympy") and module is not None
            ]
            assert loaded == [], loaded
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


# Runs qchan.cli.main on its arguments and prints the exit code and the
# modules that importing and running qchan added to sys.modules.  The
# snapshot is taken after start-up, so what `site` loads does not count;
# json is imported after the count.
NUMPY_PROBE = textwrap.dedent(
    """
    import contextlib
    import io
    import sys

    before = set(sys.modules)
    import qchan.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = qchan.cli.main(sys.argv[1:])
    added = sorted(set(sys.modules) - before)
    import json

    print(json.dumps({"code": code, "added": added}))
    """
)

# Runs `python -m qchan` on its arguments, after registering an exit handler
# that reports on stderr whether the heap was frozen, whether the cyclic
# collector was on, and how many collections ran after qchan.cli was imported.
EXIT_PROBE = textwrap.dedent(
    """
    import atexit
    import gc
    import runpy
    import sys

    import qchan.cli

    starts = []
    gc.callbacks.append(lambda phase, info: starts.append(info) if phase == "start" else None)


    def report():
        frozen, collecting = gc.get_freeze_count() > 0, gc.isenabled()
        sys.stderr.write(f"exit handler ran, frozen: {frozen}, collecting: {collecting}, collections: {len(starts)}\\n")


    atexit.register(report)
    runpy.run_module("qchan", run_name="__main__")
    """
)

# What the interpreter reports when its exit cannot flush stdout into a closed pipe.
BROKEN_PIPE_AT_EXIT = (
    "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
    "BrokenPipeError: [Errno 32] Broken pipe\n"
)

# Runs qchan.cli.main on its arguments with the cyclic collector off, as
# `python -m qchan` does, and prints how many unreachable objects a
# collection finds after each stage: importing NumPy, importing qchan's
# modules, building the argparse tree and parsing the arguments with it,
# and running the command.
GC_PROBE = textwrap.dedent(
    """
    import contextlib
    import gc
    import io
    import json
    import sys

    gc.disable()
    import numpy

    found = {"numpy": gc.collect()}
    import qchan.cli, qchan.basis, qchan.channels, qchan.equivalence, qchan.linalg, qchan.representations, qchan.verification

    found["qchan"] = gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            qchan.cli.build_parser().parse_args(sys.argv[1:])
        except SystemExit:
            pass
        found["argparse"] = gc.collect()
        code = qchan.cli.main(sys.argv[1:])
    found["command"] = gc.collect()
    print(json.dumps({"code": code, "enabled": gc.isenabled(), **found}))
    """
)


# The qchan modules each command kind of the benchmark's cli-short mix loads,
# besides qchan, qchan.cli, qchan.exact and qchan.jsonio, which every command
# loads; `report` loads them all, qchan.report, which no other command loads,
# among them.  Code sits in the modules of the commands that run it, so that a
# process without bytecode caches compiles little else.
COMMAND_MODULES = [
    pytest.param(["range", "--family", "dcq", "--dim", "7"], 0, set(), id="range"),
    pytest.param(["range", "--family", "dep", "--dim", "1"], 2, set(), id="usage-error"),
    pytest.param(["certify", "--pair", "dep,trd", "--dim", "5"], 0, {"equivalence"}, id="certify-same-class"),
    pytest.param(
        ["certify", "--pair", "dep,dcq", "--dim", "4", "--p", "0.05"],
        0,
        {"equivalence"},
        id="certify-mixed",
    ),
    pytest.param(
        ["witness", "--pair", "trd,tcq", "--dim", "5", "--p", "0.05"],
        0,
        {"equivalence"},
        id="witness",
    ),
    pytest.param(["verify", "cptp", "--family", "dep", "--dim", "5", "--p", "0.1"], 0, set(), id="verify-cptp"),
    pytest.param(
        ["verify", "cptp", "--channel", "channel.json"],
        0,
        {"channels", "linalg", "verification"},
        id="verify-cptp-channel",
    ),
    pytest.param(
        ["verify", "constant-norm", "--family", "tcq", "--dim", "4", "--p", "0.1", "--samples", "20"],
        0,
        {"channels", "linalg", "verification"},
        id="verify-constant-norm",
    ),
    pytest.param(
        ["channel", "apply", "--channel", "channel.json", "--state", "state.json"],
        0,
        {"channels", "linalg"},
        id="channel-apply",
    ),
    pytest.param(["basis", "--dim", "3", "--json"], 0, {"basis", "linalg"}, id="basis"),
    pytest.param(
        ["identities", "--dim", "3", "--trials", "3"],
        0,
        {"basis", "channels", "linalg", "representations"},
        id="identities",
    ),
    pytest.param(
        ["detcheck", "--dim", "3", "--grid", "5"],
        0,
        {"basis", "channels", "linalg", "representations"},
        id="detcheck",
    ),
    pytest.param(
        ["qubit-equiv", "--p", "0.3", "--trials", "5"],
        0,
        {"basis", "channels", "equivalence", "linalg"},
        id="qubit-equiv",
    ),
    pytest.param(
        ["report", "--dim", "3", "--samples", "5"],
        0,
        {"basis", "channels", "equivalence", "linalg", "report", "representations", "verification"},
        id="report",
    ),
]


def _run_script(script, argv, cwd):
    """``python -c script *argv`` in ``cwd``, importing qchan from this tree's ``src``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", script, *argv], cwd=cwd, env=env, capture_output=True, timeout=120
    )


def _run_numpy_probe(argv, cwd):
    proc = _run_script(NUMPY_PROBE, argv, cwd)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["code"], set(result["added"])


class TestBlasThreads:
    """``cli.run`` sets each unset BLAS thread-count variable to 1 before NumPy loads.

    At n = 800 the smallest Choi eigenvalue of this command (not CP: exit 1)
    rounds differently on two BLAS threads than on one.  Its channel is the
    dcq member at p = 0.0001 with one multiplier an ulp off, so that the
    classical block goes to LAPACK rather than to the closed form.
    """

    def test_stdout_is_the_one_thread_stdout(self, tmp_path):
        t = family_to_diagonal(FamilyChannel(Family.DCQ, 0.0001, 800)).t.tolist()
        t[0] = math.nextafter(t[0], 0.0)
        write_json(tmp_path / "dcq_800.json", {"kind": "diagonal", "dim": 800, "t": t})
        argv = ["verify", "cptp", "--channel", "dcq_800.json"]
        variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k not in variables}
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        outputs = []
        for pinned in (False, True):
            proc = subprocess.run(
                [sys.executable, "-m", "qchan", *argv],
                cwd=tmp_path,
                env=env | dict.fromkeys(variables, "1") if pinned else env,
                capture_output=True,
                timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (1, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestNumpyFreeCommands:
    """Commands that need no linear algebra run, and fail, without loading NumPy.

    Each runs ``qchan.cli.main`` in a fresh interpreter, which then reports
    the modules qchan added to ``sys.modules``.  Besides NumPy, these
    commands load neither ``dataclasses`` nor ``inspect``, none of
    argparse, gettext, locale, ``numbers`` and ``fractions``, and ``json``
    only to read a file.  Help and usage errors load argparse.
    """

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["range", "--family", "dcq", "--dim", "7"], 0),
            (["certify", "--pair", "dep,trd", "--dim", "5"], 0),
            (["certify", "--pair", "tcq,dcq", "--dim", "4"], 0),
            (["range", "--family", "dep", "--dim", "1"], 2),
            (["range", "--family", "uvwx", "--dim", "3"], 2),
            (["channel", "apply", "--channel", "malformed.json", "--state", "missing.json"], 2),
            (["identities", "--dim", "3", "--trials", "0"], 2),
            (["qubit-equiv", "--p", "0.5", "--trials", "0"], 2),
            (["detcheck", "--dim", "3", "--grid", "1"], 2),
            (["report", "--dim", "3", "--samples", "-1"], 2),
            (["verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "0.1", "--samples", "-1"], 2),
            (["basis", "--dim", "200"], 2),
            (["basis", "--dim", "63", "--json"], 2),
            (["identities", "--dim", "5000"], 2),
            (["detcheck", "--dim", "5000"], 2),
            (["verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "0.1", "--samples", "300000000"], 2),
            (["report", "--dim", "3", "--samples", "300000000"], 2),
            (["verify", "cptp", "--family", "dep", "--dim", "3", "--p", "1e101"], 2),
            (["witness", "--pair", "dep,dcq", "--dim", "3", "--p", "-1e101"], 2),
            (["report", "--dim", "3", "--seed", "-1"], 2),
            (["verify", "constant-norm", "--family", "dep", "--dim", "3", "--p", "0.1", "--seed", "-1"], 2),
            (["identities", "--dim", "3", "--seed", "-1"], 2),
            (["qubit-equiv", "--p", "0.5", "--seed", "-1"], 2),
            (["certify", "--pair", "dep,dcq", "--dim", "16"], 0),
            (["witness", "--pair", "trd,tcq", "--dim", "7", "--p", "-0.07"], 0),
            (["verify", "cptp", "--family", "dcq", "--dim", "6", "--p", "0.02"], 0),
            (["verify", "cptp", "--family", "trd", "--dim", "64", "--p", "0.05"], 1),
            (["verify", "cptp", "--family", "tcq", "--dim", "5", "--p", "-0.3"], 1),
            (["verify", "cptp", "--family", "dep", "--dim", "2", "--p", "1e100", "--tol", "0.4"], 0),
        ],
    )
    def test_runs_without_numpy(self, tmp_path, argv, code):
        (tmp_path / "malformed.json").write_text('{"kind": "family", "family": ', encoding="utf-8")
        got, added = _run_numpy_probe(argv, tmp_path)
        assert got == code
        assert "qchan.cli" in added
        assert added.isdisjoint({"numpy", "dataclasses", "inspect"})
        assert added.isdisjoint({"argparse", "gettext", "locale", "numbers", "fractions"})
        assert ("json" in added) == ("--channel" in argv)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["-h"], 0),
            (["report", "-h"], 0),
            (["verify", "cptp", "--family", "dep", "--dim"], 2),
        ],
    )
    def test_help_and_usage_errors_load_argparse(self, tmp_path, argv, code):
        got, added = _run_numpy_probe(argv, tmp_path)
        assert got == code
        assert {"argparse", "gettext"} <= added
        assert "numpy" not in added

    def test_no_module_loads_dataclasses(self, tmp_path):
        script = textwrap.dedent(
            """
            import contextlib
            import io
            import pkgutil
            import sys

            import qchan
            import qchan.cli

            for module in pkgutil.iter_modules(qchan.__path__):
                if module.name != "__main__":
                    __import__(f"qchan.{module.name}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = qchan.cli.main(["verify", "cptp", "--family", "dep", "--dim", "8", "--p", "0.4"])
            print(code, sorted(name for name in sys.modules if name.startswith("qchan")), "dataclasses" in sys.modules)
            """
        )
        proc = _run_script(script, [], tmp_path)
        assert proc.returncode == 0, proc.stderr
        names = ("basis", "channels", "cli", "equivalence", "exact", "jsonio", "linalg", "report", "representations", "verification")
        modules = ["qchan", *(f"qchan.{name}" for name in names)]
        assert proc.stdout.decode() == f"0 {modules} False\n"

    def test_numeric_commands_load_numpy(self, tmp_path):
        # The probe can tell: a command that needs linear algebra loads NumPy.
        write_json(tmp_path / "unequal.json", UNEQUAL_MULTIPLIERS)
        argv = ["verify", "cptp", "--channel", "unequal.json"]
        code, added = _run_numpy_probe(argv, tmp_path)
        assert code == 0 and "numpy" in added

    @pytest.mark.parametrize(
        "argv, draws",
        [
            (["verify", "cptp", "--channel", "unequal.json"], False),
            (["verify", "constant-norm", "--family", "tcq", "--dim", "5", "--p", "0.01", "--samples", "0"], False),
            (["verify", "constant-norm", "--family", "tcq", "--dim", "5", "--p", "0.01", "--samples", "1"], True),
        ],
    )
    def test_only_commands_that_draw_load_the_generator(self, tmp_path, argv, draws):
        # Zero samples draw nothing, so numpy.random (about 10 ms to import) stays unloaded.
        write_json(tmp_path / "unequal.json", UNEQUAL_MULTIPLIERS)
        code, added = _run_numpy_probe(argv, tmp_path)
        assert code == 0 and "numpy" in added
        assert ("numpy.random" in added) == draws

    @pytest.mark.parametrize("argv, code, modules", COMMAND_MODULES)
    def test_each_command_loads_only_its_modules(self, tmp_path, argv, code, modules):
        write_json(tmp_path / "channel.json", channel_to_json(FamilyChannel(Family.DCQ, 0.2, 3)))
        write_json(tmp_path / "state.json", matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex)))
        got, added = _run_numpy_probe(argv, tmp_path)
        assert got == code
        loaded = {name for name in added if name.startswith("qchan")}
        assert loaded == {"qchan", "qchan.cli", "qchan.exact", "qchan.jsonio"} | {f"qchan.{m}" for m in modules}
        assert ("numpy" in added) == bool(set(modules) - {"equivalence"})

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--pair", "dep,dcq", "--dim", "4", "--p", "0.05"],
            ["witness", "--pair", "trd,tcq", "--dim", "5", "--p", "0.05"],
        ],
    )
    def test_spectrum_witnesses_load_no_verification(self, tmp_path, argv):
        code, added = _run_numpy_probe(argv, tmp_path)
        assert code == 0
        assert "qchan.equivalence" in added
        assert added.isdisjoint({"numpy", "qchan.verification"})


class TestExitPath:
    """``python -m qchan`` and the ``qchan`` script end through ``cli.run``.

    It runs the exit handlers, flushes both streams and ends the process
    with ``main``'s code without tearing down the heap; a stream that
    cannot be flushed leaves the exit to the interpreter.
    """

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["range", "--family", "dep", "--dim", "3"], 0),
            (["verify", "cptp", "--family", "tcq", "--dim", "3", "--p", "0.3"], 1),
            (["range", "--family", "dep", "--dim", "1"], 2),
            (["report", "--dim", "16"], 0),
        ],
    )
    def test_exit_code_streams_and_exit_handlers(self, tmp_path, capsys, argv, code):
        proc = _run_script(EXIT_PROBE, argv, tmp_path)
        expected, out, err = run_cli(capsys, *argv)
        assert proc.returncode == expected == code
        assert proc.stdout == out.encode("utf-8")
        assert proc.stderr.decode("utf-8") == err + "exit handler ran, frozen: False, collecting: False, collections: 0\n"

    def test_output_file_holds_the_whole_document(self, tmp_path, capsys):
        argv = ["report", "--dim", "3", "--seed", "0"]
        proc = _run_script(EXIT_PROBE, ["--output", "report.json", *argv], tmp_path)
        code, out, _ = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert (tmp_path / "report.json").read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize(
        "argv, unbuffered, code, err",
        [
            # Output that fits the stdout buffer fails at the flush after
            # main, which the interpreter's own exit reports.
            (["range", "--family", "dep", "--dim", "3"], False, 120, BROKEN_PIPE_AT_EXIT),
            (["range", "--family", "dep", "--dim", "3"], True, 2, "error: [Errno 32] Broken pipe\n"),
            # Larger output fails while main writes it.
            (["basis", "--dim", "6", "--json"], False, 2, "error: [Errno 32] Broken pipe\n"),
            (["basis", "--dim", "6", "--json"], True, 2, "error: [Errno 32] Broken pipe\n"),
            (["range", "--family", "dep", "--dim", "1"], False, 2, "error: field 'dim': expected an integer >= 2, got 1\n"),
            (["range", "--family", "dep", "--dim", "1"], True, 2, "error: field 'dim': expected an integer >= 2, got 1\n"),
        ],
    )
    def test_closed_stdout(self, tmp_path, argv, unbuffered, code, err):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qchan", *argv], cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode("utf-8")) == (code, err)

    def test_main_does_not_freeze_the_heap(self, capsys):
        frozen = gc.get_freeze_count()
        run_cli(capsys, "range", "--family", "dep", "--dim", "3")
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["report", "--dim", "6"], 0),
            (["verify", "constant-norm", "--family", "tcq", "--dim", "5", "--p", "0.1", "--samples", "300"], 0),
            (["certify", "--pair", "tcq,dep", "--dim", "4"], 0),
            (["channel", "apply", "--channel", "channel.json", "--state", "state.json"], 0),
            (["qubit-equiv", "--p", "0.35", "--trials", "20"], 0),
            (["basis", "--dim", "3", "--json"], 0),
            (["channel", "apply", "--channel", "malformed.json", "--state", "state.json"], 2),
            (["verify", "cptp", "--family", "dep", "--dim"], 2),
            (["range", "--family", "dep", "--dim", "1"], 2),
        ],
    )
    def test_a_command_leaves_no_cyclic_garbage_of_its_own(self, tmp_path, argv, code):
        # Running with the collector off keeps every cycle a process makes.
        # Importing NumPy makes a fixed set (346 objects with NumPy 2.4), and
        # so does building the argparse tree: each add_argument drops a
        # HelpFormatter, and a parser's graph is cyclic.  Of these rows only
        # the missing value after --dim builds it in main; everything else a
        # command does makes none.
        write_json(tmp_path / "channel.json", channel_to_json(FamilyChannel(Family.DCQ, 0.2, 3)))
        write_json(tmp_path / "state.json", matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex)))
        (tmp_path / "malformed.json").write_text('{"kind": "family", "family": ', encoding="utf-8")
        proc = _run_script(GC_PROBE, argv, tmp_path)
        assert proc.returncode == 0, proc.stderr
        found = json.loads(proc.stdout)
        assert (found["code"], found["enabled"]) == (code, False)
        assert found["qchan"] == 0
        assert found["argparse"] > 0
        assert found["command"] == (found["argparse"] if argv[-1] == "--dim" else 0)

    def test_script_target_is_the_function_the_main_module_calls(self):
        import qchan.__main__

        root = Path(__file__).resolve().parents[1]
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        module, name = re.search(r'^qchan = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        tree = ast.parse(Path(qchan.__main__.__file__).read_text(encoding="utf-8"))
        called = {
            node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert called == {name}
        assert getattr(qchan.__main__, name) is getattr(importlib.import_module(module), name)
