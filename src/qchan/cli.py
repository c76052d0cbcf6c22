"""Command-line interface.

Every command emits a deterministic JSON report (identical configuration
and seed produce byte-identical output) and communicates its verdict
through the exit code:

* 0 — command ran and every requested check passed,
* 1 — command ran but a verification failed,
* 2 — invalid input (bad flags, malformed JSON, out-of-range requests,
  requests too large to allocate).

``--tol`` (or the QCHAN_TOL environment variable) replaces the default
absolute/relative tolerance with the given value for both components.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Optional

import numpy as np

from . import jsonio
from .basis import build_basis
from .channels import (
    FAMILY_NAMES,
    Family,
    FamilyChannel,
    channel_from_json,
    channel_to_json,
    family_from_name,
    kraus_completeness,
    kraus_from_family,
    validate_state,
)
from .equivalence import (
    _HYBRID,
    GAP_THRESHOLD,
    inequivalence_certificate,
    qubit_equivalence_check,
)
from .jsonio import SchemaError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    frobenius_norm,
    matrix_from_json,
)
from .verification import (
    constant_fnorm_criterion,
    constant_fnorm_sample_test,
    is_cptp,
    param_range,
    verify_det_recurrence,
    verify_representations,
    verify_sum_identities,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Constant-Frobenius-norm channel families: build, verify, certify.",
    )
    parser.add_argument("--output", help="write the JSON report to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="emit the orthonormal Hermitian basis")
    p_basis.add_argument("--dim", type=int, required=True)
    p_basis.add_argument("--json", action="store_true", help="emit full matrices as JSON")

    p_channel = sub.add_parser("channel", help="channel operations")
    channel_sub = p_channel.add_subparsers(dest="channel_command", required=True)
    p_apply = channel_sub.add_parser("apply", help="apply a channel to a state")
    p_apply.add_argument("--channel", required=True, help="channel JSON file")
    p_apply.add_argument("--state", required=True, help="state matrix JSON file")
    p_apply.add_argument("--tol", type=float)

    p_range = sub.add_parser("range", help="CPTP parameter range of a family")
    p_range.add_argument("--family", required=True)
    p_range.add_argument("--dim", type=int, required=True)

    p_verify = sub.add_parser("verify", help="verification checks")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_cptp = verify_sub.add_parser("cptp", help="Choi-based CPTP check")
    _add_channel_args(p_cptp)
    p_const = verify_sub.add_parser("constant-norm", help="constant output-norm check")
    _add_channel_args(p_const)
    p_const.add_argument("--samples", type=int, default=1000)
    p_const.add_argument("--seed", type=int, default=0)

    p_ident = sub.add_parser("identities", help="conjugation-sum identities")
    p_ident.add_argument("--dim", type=int, required=True)
    p_ident.add_argument("--trials", type=int, default=50)
    p_ident.add_argument("--seed", type=int, default=0)
    p_ident.add_argument("--tol", type=float)

    p_det = sub.add_parser("detcheck", help="determinant closed form vs LAPACK")
    p_det.add_argument("--dim", type=int, required=True)
    p_det.add_argument("--grid", type=int, default=21)
    p_det.add_argument("--tol", type=float)

    p_wit = sub.add_parser("witness", help="spectrum witness for a mixed family pair")
    p_wit.add_argument("--pair", required=True, help="comma-separated pair, e.g. dep,dcq")
    p_wit.add_argument("--dim", type=int, required=True)
    p_wit.add_argument("--p", type=float)

    p_cert = sub.add_parser("certify", help="inequivalence certificate for a family pair")
    p_cert.add_argument("--pair", required=True, help="comma-separated pair, e.g. dcq,tcq")
    p_cert.add_argument("--dim", type=int, required=True)
    p_cert.add_argument("--p", type=float)

    p_qe = sub.add_parser("qubit-equiv", help="dimension-2 conjugation equivalences")
    p_qe.add_argument("--p", type=float, required=True)
    p_qe.add_argument("--trials", type=int, default=100)
    p_qe.add_argument("--seed", type=int, default=0)
    p_qe.add_argument("--tol", type=float)

    p_rep = sub.add_parser("report", help="full verification bundle for one dimension")
    p_rep.add_argument("--dim", type=int, required=True)
    p_rep.add_argument("--samples", type=int, default=200)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--tol", type=float)

    return parser


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channel", help="channel JSON file")
    parser.add_argument("--family", help="family name (inline alternative to --channel)")
    parser.add_argument("--dim", type=int, help="dimension for --family")
    parser.add_argument("--p", type=float, help="parameter for --family")
    parser.add_argument("--tol", type=float)


def _maybe_tolerance(args: argparse.Namespace) -> Optional[Tolerance]:
    """User tolerance from --tol or QCHAN_TOL; None keeps per-check defaults."""

    value = getattr(args, "tol", None)
    if value is None:
        env = os.environ.get("QCHAN_TOL")
        if env is not None:
            try:
                value = float(env)
            except ValueError:
                raise SchemaError("QCHAN_TOL", f"expected a float, got {env!r}") from None
    if value is None:
        return None
    if not np.isfinite(value) or value <= 0:
        raise SchemaError("tol", f"expected a positive finite number, got {value!r}")
    return Tolerance(absolute=value, relative=value)


def _tol_kwargs(args: argparse.Namespace) -> dict:
    tol = _maybe_tolerance(args)
    return {} if tol is None else {"tol": tol}


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from None


def _load_channel(args: argparse.Namespace):
    if getattr(args, "channel", None):
        return channel_from_json(_load_json_file(args.channel))
    family = getattr(args, "family", None)
    dim = getattr(args, "dim", None)
    p = getattr(args, "p", None)
    if family is None or dim is None or p is None:
        raise SchemaError("channel", "provide --channel FILE or all of --family/--dim/--p")
    if dim < 2:
        raise SchemaError("dim", f"expected an integer >= 2, got {dim}")
    return FamilyChannel(family=family_from_name(family, "family"), p=p, dim=dim)


def _parse_pair(text: str) -> tuple[Family, Family]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise SchemaError("pair", f"expected two comma-separated families, got {text!r}")
    fam_a = family_from_name(parts[0], "pair")
    fam_b = family_from_name(parts[1], "pair")
    if fam_a is fam_b:
        raise SchemaError("pair", "the two families must be distinct")
    return fam_a, fam_b


def _check_dim(args: argparse.Namespace) -> int:
    if args.dim is None or args.dim < 2:
        raise SchemaError("dim", f"expected an integer >= 2, got {args.dim}")
    return args.dim


# --- command handlers: each returns (payload, passed) ----------------------


def _cmd_basis(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    basis = build_basis(n)
    if not args.json:
        lines = [f"orthonormal Hermitian basis, dim {n}, {len(basis)} elements"]
        for (sector, index), element in zip(basis.labels, basis.elements):
            norm = frobenius_norm(element)
            lines.append(f"  e_{sector},{index}  norm={norm:.12f}")
        return "\n".join(lines), True
    elements = [
        {"sector": sector, "index": index, "matrix": element}
        for (sector, index), element in zip(basis.labels, basis.elements)
    ]
    return {"command": "basis", "dim": n, "elements": elements}, True


def _cmd_channel_apply(args: argparse.Namespace) -> tuple[Any, bool]:
    channel = channel_from_json(_load_json_file(args.channel))
    state = matrix_from_json(_load_json_file(args.state), context="state")
    kwargs = _tol_kwargs(args)
    try:
        validate_state(state, **kwargs)
    except ValueError as exc:
        raise SchemaError("state", str(exc)) from None
    if state.shape[0] != channel.dim:
        raise SchemaError("state", f"state is {state.shape[0]}x{state.shape[0]}, channel dim {channel.dim}")
    output = channel(state)
    payload = {
        "command": "channel-apply",
        "channel": channel_to_json(channel),
        "output": output,
        "output_trace": float(np.trace(output).real),
        "output_frobenius_norm": frobenius_norm(output),
    }
    return payload, True


def _cmd_range(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    family = family_from_name(args.family, "family")
    info = param_range(family, n)
    payload = {"command": "range", **dataclasses.asdict(info), "name": FAMILY_NAMES[family]}
    return payload, True


def _cmd_verify_cptp(args: argparse.Namespace) -> tuple[Any, bool]:
    channel = _load_channel(args)
    report = is_cptp(channel, channel.dim, **_tol_kwargs(args))
    payload = {
        "command": "verify-cptp",
        "channel": channel_to_json(channel),
        "report": report,
    }
    return payload, report.passed


def _cmd_verify_constant_norm(args: argparse.Namespace) -> tuple[Any, bool]:
    channel = _load_channel(args)
    kwargs = _tol_kwargs(args)
    holds, expected = constant_fnorm_criterion(channel, **kwargs)
    report = constant_fnorm_sample_test(
        channel, channel.dim, samples=args.samples, seed=args.seed, **kwargs
    )
    payload = {
        "command": "verify-constant-norm",
        "channel": channel_to_json(channel),
        "criterion_holds": holds,
        "expected_norm": expected,
        "report": report,
    }
    return payload, holds and report.passed


def _cmd_identities(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    report = verify_sum_identities(n, trials=args.trials, seed=args.seed, **_tol_kwargs(args))
    payload = {
        "command": "identities",
        "dim": n,
        "trials": args.trials,
        "seed": args.seed,
        "report": report,
    }
    return payload, report.passed


def _cmd_detcheck(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    report = verify_det_recurrence(n, grid=args.grid, **_tol_kwargs(args))
    payload = {
        "command": "detcheck",
        "dim": n,
        "grid": args.grid,
        "report": report,
    }
    return payload, report.passed


def _cmd_witness(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    pair = _parse_pair(args.pair)
    if len([f for f in pair if f in _HYBRID]) != 1:
        raise SchemaError(
            "pair",
            "spectrum witnesses separate mixed pairs only (one of dep/trd vs one of "
            "dcq/tcq); use `certify` for same-class pairs",
        )
    certificate = inequivalence_certificate(pair, n, args.p)
    payload = {
        "command": "witness",
        "certificate": certificate,
        "gap_threshold": GAP_THRESHOLD,
    }
    return payload, certificate.passed


def _cmd_certify(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    pair = _parse_pair(args.pair)
    certificate = inequivalence_certificate(pair, n, args.p)
    payload = {
        "command": "certify",
        "certificate": certificate,
        "gap_threshold": GAP_THRESHOLD,
    }
    return payload, certificate.passed


def _cmd_qubit_equiv(args: argparse.Namespace) -> tuple[Any, bool]:
    report = qubit_equivalence_check(args.p, trials=args.trials, seed=args.seed, **_tol_kwargs(args))
    payload = {
        "command": "qubit-equiv",
        "p": args.p,
        "trials": args.trials,
        "seed": args.seed,
        "report": report,
    }
    return payload, report.passed


def _cmd_report(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    kwargs = _tol_kwargs(args)
    sections: dict[str, Any] = {}
    all_passed = True

    ranges = {}
    endpoints = {}
    for family in Family:
        info = param_range(family, n)
        ranges[family.value] = info
        entry = {}
        ok = True
        for label, p in (("p_min", info.p_min), ("p_max", info.p_max)):
            rep = is_cptp(FamilyChannel(family, p, n), n, **kwargs)
            entry[label] = rep
            ok = ok and rep.passed
        for label, p in (("below", info.p_min - 0.01), ("above", info.p_max + 0.01)):
            rep = is_cptp(FamilyChannel(family, p, n), n, **kwargs)
            entry[label] = rep
            ok = ok and not rep.passed
        entry["passed"] = ok
        endpoints[family.value] = entry
        all_passed = all_passed and ok
    sections["ranges"] = ranges
    sections["cptp_endpoints"] = endpoints

    constant_norm = {}
    representations = {}
    kraus = {}
    for family in Family:
        info = param_range(family, n)
        p_mid = (info.p_min + info.p_max) / 2
        channel = FamilyChannel(family, p_mid, n)
        holds, expected = constant_fnorm_criterion(channel, **kwargs)
        sample = constant_fnorm_sample_test(
            channel, n, samples=args.samples, seed=args.seed, **kwargs
        )
        constant_norm[family.value] = {
            "p": p_mid,
            "criterion_holds": holds,
            "expected_norm": expected,
            "report": sample,
        }
        all_passed = all_passed and holds and sample.passed

        rep = verify_representations(family, p_mid, n, trials=50, seed=args.seed, **kwargs)
        representations[family.value] = {"p": p_mid, "report": rep}
        all_passed = all_passed and rep.passed

        ks = kraus_from_family(family, p_mid, n)
        completeness_dev = float(np.max(np.abs(kraus_completeness(ks) - np.eye(n))))
        kraus_ok = completeness_dev <= (kwargs.get("tol") or DEFAULT_TOL).bound(1.0)
        kraus[family.value] = {
            "p": p_mid,
            "operators": len(ks),
            "completeness_deviation": completeness_dev,
            "passed": kraus_ok,
        }
        all_passed = all_passed and kraus_ok
    sections["constant_norm"] = constant_norm
    sections["representations"] = representations
    sections["kraus"] = kraus

    identities = verify_sum_identities(n, trials=25, seed=args.seed, **kwargs)
    sections["identities"] = identities
    all_passed = all_passed and identities.passed

    det = verify_det_recurrence(n, **kwargs)
    sections["determinant"] = det
    all_passed = all_passed and det.passed

    if n == 2:
        qe = qubit_equivalence_check(0.5, trials=50, seed=args.seed, **kwargs)
        sections["qubit_equivalence"] = qe
        all_passed = all_passed and qe.passed
    else:
        certificates = []
        families = list(Family)
        for i, fam_a in enumerate(families):
            for fam_b in families[i + 1 :]:
                cert = inequivalence_certificate((fam_a, fam_b), n)
                certificates.append({"certificate": cert, "passed": cert.passed})
                all_passed = all_passed and cert.passed
        sections["certificates"] = certificates

    payload = {
        "command": "report",
        "dim": n,
        "samples": args.samples,
        "seed": args.seed,
        "sections": sections,
        "passed": all_passed,
    }
    return payload, all_passed


_HANDLERS = {
    "basis": _cmd_basis,
    "range": _cmd_range,
    "identities": _cmd_identities,
    "detcheck": _cmd_detcheck,
    "witness": _cmd_witness,
    "certify": _cmd_certify,
    "qubit-equiv": _cmd_qubit_equiv,
    "report": _cmd_report,
}


def _dispatch(args: argparse.Namespace) -> tuple[Any, bool]:
    if args.command == "channel":
        return _cmd_channel_apply(args)
    if args.command == "verify":
        if args.verify_command == "cptp":
            return _cmd_verify_cptp(args)
        return _cmd_verify_constant_norm(args)
    return _HANDLERS[args.command](args)


def _emit(payload: Any, output: Optional[str]) -> None:
    text = payload if isinstance(payload, str) else jsonio.dumps(payload)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        payload, passed = _dispatch(args)
        _emit(payload, args.output)
    except (ValueError, OSError, MemoryError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
