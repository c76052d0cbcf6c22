import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qchan import cli
from qchan.channels import DiagonalChannel, Family, FamilyChannel, channel_to_json, family_to_diagonal
from qchan.cli import main
from qchan.equivalence import qubit_equivalence_check
from qchan.jsonio import dumps
from qchan.linalg import Tolerance, matrix_to_json


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


class TestChecks:
    def test_identities(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--dim", "4", "--trials", "10", "--seed", "3")
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

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
        assert "must be" in err

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

    def test_detcheck_honours_tolerance_overrides(self, capsys, monkeypatch):
        # An absurdly tight tolerance must flip the verdict, whether it
        # arrives via the flag or via the environment.
        code, out, _ = run_cli(capsys, "detcheck", "--dim", "3", "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["report"]["passed"] is False
        monkeypatch.setenv("QCHAN_TOL", "1e-30")
        code, out, _ = run_cli(capsys, "detcheck", "--dim", "3")
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

    def test_pair_parsing(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--pair", "dep", "--dim", "3")
        assert code == 2
        assert "pair" in err
        code, _, err = run_cli(capsys, "certify", "--pair", "dep,dep", "--dim", "3")
        assert code == 2
        assert "distinct" in err


class TestQubitEquiv:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "qubit-equiv", "--p", "0.7", "--trials", "50", "--seed", "1")
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "qubit-equiv", "--p", "0.0")
        assert code == 2
        assert "0 < p < 1" in err


class TestReport:
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


    def test_tolerance_reaches_the_determinant(self, capsys):
        # The determinant section decides with --tol, as detcheck does.
        code, out, _ = run_cli(capsys, "report", "--dim", "3", "--samples", "10", "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["sections"]["determinant"]["passed"] is False

    def test_tolerance_reaches_the_qubit_equivalences(self, capsys, monkeypatch):
        seen = []

        def recorder(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return qubit_equivalence_check(*args, **kwargs)

        monkeypatch.setattr("qchan.cli.qubit_equivalence_check", recorder)
        code, _, _ = run_cli(capsys, "report", "--dim", "2", "--samples", "10", "--tol", "1e-3")
        assert code == 0
        assert seen == [Tolerance(absolute=1e-3, relative=1e-3)]
        run_cli(capsys, "report", "--dim", "2", "--samples", "10")
        assert seen[1:] == [None]


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

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QCHAN_TOL", "1e-3")
        code, _, _ = run_cli(
            capsys, "verify", "cptp", "--family", "dep", "--dim", "2", "--p", "1.0005"
        )
        assert code == 0
        monkeypatch.delenv("QCHAN_TOL")
        code, _, _ = run_cli(
            capsys, "verify", "cptp", "--family", "dep", "--dim", "2", "--p", "1.0005"
        )
        assert code == 1

    def test_invalid_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("QCHAN_TOL", "banana")
        code, _, err = run_cli(
            capsys, "verify", "cptp", "--family", "dep", "--dim", "2", "--p", "0.5"
        )
        assert code == 2
        assert "QCHAN_TOL" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QCHAN_TOL", "1e-15")
        code, _, _ = run_cli(
            capsys,
            "verify", "cptp",
            "--family", "dep", "--dim", "2", "--p", "1.0005", "--tol", "1e-2",
        )
        assert code == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_allocation_failure_exits_2(self, capsys, monkeypatch):
        def allocate(args):
            raise MemoryError("Unable to allocate 190. GiB for an array")

        monkeypatch.setitem(cli._HANDLERS, "basis", allocate)
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
