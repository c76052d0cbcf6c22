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

Only :mod:`qchan.exact` and :mod:`qchan.jsonio` are imported up front.  A
handler imports the numeric modules (and with them NumPy) only once its
arguments and input files have passed the checks that need no linear
algebra, so ``range``, same-class ``certify`` and every such input error
run without loading NumPy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Any, Callable, Optional

from . import jsonio
from .exact import (
    _HYBRID,
    DEFAULT_TOL,
    FAMILY_NAMES,
    GAP_THRESHOLD,
    Family,
    Tolerance,
    _check_basis_bytes,
    _check_conjugation_p,
    _check_dense_bytes,
    _check_finite_p,
    _check_grid,
    _check_samples,
    _check_trials,
    family_from_name,
    inequivalence_certificate,
    param_range,
)
from .jsonio import SchemaError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Constant-Frobenius-norm channel families: build, verify, certify.",
    )
    parser.add_argument("--output", help="write the JSON report to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="emit the orthonormal Hermitian basis")
    p_basis.set_defaults(handler=_cmd_basis)
    p_basis.add_argument("--dim", type=int, required=True)
    p_basis.add_argument("--json", action="store_true", help="emit full matrices as JSON")

    p_channel = sub.add_parser("channel", help="channel operations")
    channel_sub = p_channel.add_subparsers(dest="channel_command", required=True)
    p_apply = channel_sub.add_parser("apply", help="apply a channel to a state")
    p_apply.set_defaults(handler=_cmd_channel_apply)
    p_apply.add_argument("--channel", required=True, help="channel JSON file")
    p_apply.add_argument("--state", required=True, help="state matrix JSON file")
    p_apply.add_argument("--tol", type=float)

    p_range = sub.add_parser("range", help="CPTP parameter range of a family")
    p_range.set_defaults(handler=_cmd_range)
    p_range.add_argument("--family", required=True)
    p_range.add_argument("--dim", type=int, required=True)

    p_verify = sub.add_parser("verify", help="verification checks")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_cptp = verify_sub.add_parser("cptp", help="Choi-based CPTP check")
    p_cptp.set_defaults(handler=_cmd_verify_cptp)
    _add_channel_args(p_cptp)
    p_const = verify_sub.add_parser("constant-norm", help="constant output-norm check")
    p_const.set_defaults(handler=_cmd_verify_constant_norm)
    _add_channel_args(p_const)
    p_const.add_argument("--samples", type=int, default=1000)
    p_const.add_argument("--seed", type=int, default=0)

    p_ident = sub.add_parser("identities", help="conjugation-sum identities")
    p_ident.set_defaults(handler=_cmd_identities)
    p_ident.add_argument("--dim", type=int, required=True)
    p_ident.add_argument("--trials", type=int, default=50)
    p_ident.add_argument("--seed", type=int, default=0)
    p_ident.add_argument("--tol", type=float)

    p_det = sub.add_parser("detcheck", help="determinant closed form vs LAPACK")
    p_det.set_defaults(handler=_cmd_detcheck)
    p_det.add_argument("--dim", type=int, required=True)
    p_det.add_argument("--grid", type=int, default=21)
    p_det.add_argument("--tol", type=float)

    p_wit = sub.add_parser("witness", help="spectrum witness for a mixed family pair")
    p_wit.set_defaults(handler=_cmd_witness)
    p_wit.add_argument("--pair", required=True, help="comma-separated pair, e.g. dep,dcq")
    p_wit.add_argument("--dim", type=int, required=True)
    p_wit.add_argument("--p", type=float)

    p_cert = sub.add_parser("certify", help="inequivalence certificate for a family pair")
    p_cert.set_defaults(handler=_cmd_certify)
    p_cert.add_argument("--pair", required=True, help="comma-separated pair, e.g. dcq,tcq")
    p_cert.add_argument("--dim", type=int, required=True)
    p_cert.add_argument("--p", type=float)

    p_qe = sub.add_parser("qubit-equiv", help="dimension-2 conjugation equivalences")
    p_qe.set_defaults(handler=_cmd_qubit_equiv)
    p_qe.add_argument("--p", type=float, required=True)
    p_qe.add_argument("--trials", type=int, default=100)
    p_qe.add_argument("--seed", type=int, default=0)
    p_qe.add_argument("--tol", type=float)

    p_rep = sub.add_parser("report", help="full verification bundle for one dimension")
    p_rep.set_defaults(handler=_cmd_report)
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

    value = args.tol
    if value is None:
        env = os.environ.get("QCHAN_TOL")
        if env is not None:
            try:
                value = float(env)
            except ValueError:
                raise SchemaError("QCHAN_TOL", f"expected a float, got {env!r}") from None
    if value is None:
        return None
    if not math.isfinite(value) or value <= 0:
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


# Peak bytes per n^2 of `verify cptp` and `verify constant-norm`, rounded up
# from tracemalloc peaks at n = 200..1000: 84-90 for the block CP check,
# 61-66 for the constant-norm check without samples and 72-96 with Haar
# samples (one state per stack at these n).  Both are O(n^2) in memory but
# O(n^3) in time, so this also keeps their eigensolves short.
_VERIFY_BYTES_PER_N2 = 100


def _load_channel(args: argparse.Namespace) -> Callable[[], Any]:
    """The channel of a verify command, refused if the check would pass 2 GiB.

    Returns a function that builds it.  An inline ``--family`` channel is
    checked as ``FamilyChannel`` checks it, and built only when that
    function is called; a ``--channel`` file is parsed here.
    """

    if args.channel:
        obj = _load_json_file(args.channel)
        from .channels import channel_from_json

        channel = channel_from_json(obj)
        n, build = channel.dim, lambda: channel
    else:
        if args.family is None or args.dim is None or args.p is None:
            raise SchemaError("channel", "provide --channel FILE or all of --family/--dim/--p")
        n = _check_dim(args)
        family = family_from_name(args.family, "family")
        _check_finite_p(args.p)

        def build():
            from .channels import FamilyChannel

            return FamilyChannel(family=family, p=args.p, dim=n)

    _check_dense_bytes(_VERIFY_BYTES_PER_N2 * n * n, f"verify {args.verify_command} at dim {n}")
    return build


def _parse_pair(text: str) -> tuple[Family, Family]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise SchemaError("pair", f"expected two comma-separated families, got {text!r}")
    fam_a = family_from_name(parts[0], "pair")
    fam_b = family_from_name(parts[1], "pair")
    if fam_a is fam_b:
        raise SchemaError("pair", "the two families must be distinct")
    return fam_a, fam_b


def _is_mixed(pair: tuple[Family, Family]) -> bool:
    """One of dep/trd and one of dcq/tcq: the pairs a spectrum witness separates."""
    return len([f for f in pair if f in _HYBRID]) == 1


# Peak bytes per n^2 of `witness` and of `certify` for a mixed pair, rounded
# up from 665-673 measured with tracemalloc at n = 200..701: mostly the JSON
# of the four n x n witness states, held as `jsonio.dumps`' pieces and their
# join.  Same-class pairs build nothing of size n^2.
_WITNESS_BYTES_PER_N2 = 700


def _check_dim(args: argparse.Namespace) -> int:
    if args.dim < 2:
        raise SchemaError("dim", f"expected an integer >= 2, got {args.dim}")
    return args.dim


# --- command handlers: each returns (payload, passed) ----------------------


def _report_payload(command: str, report: Any, **fields: Any) -> tuple[Any, bool]:
    """``{"command", <fields>, "report"}`` and the report's verdict."""
    return {"command": command, **fields, "report": report}, report.passed


def _cmd_basis(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    _check_basis_bytes(n)
    from .basis import build_basis
    from .linalg import frobenius_norm

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
    channel_obj = _load_json_file(args.channel)
    from .channels import channel_from_json, channel_to_json, validate_state
    from .linalg import frobenius_norm, matrix_from_json

    channel = channel_from_json(channel_obj)
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
        "output_trace": float(output.trace().real),
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
    build = _load_channel(args)
    kwargs = _tol_kwargs(args)
    from .channels import channel_to_json
    from .verification import is_cptp

    channel = build()
    report = is_cptp(channel, channel.dim, **kwargs)
    return _report_payload("verify-cptp", report, channel=channel_to_json(channel))


def _cmd_verify_constant_norm(args: argparse.Namespace) -> tuple[Any, bool]:
    build = _load_channel(args)
    kwargs = _tol_kwargs(args)
    _check_samples(args.samples)
    from .channels import channel_to_json
    from .verification import constant_fnorm_criterion, constant_fnorm_sample_test

    channel = build()
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


# Peak bytes per n^2 of `identities`, rounded up from 845-892 (tracemalloc,
# n = 128..400, default trials): the sum plan and one trial stack.  `detcheck`
# peaks at 65-85 bytes per n^2 and shares the verify estimate.
_IDENTITIES_BYTES_PER_N2 = 900


def _cmd_identities(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    _check_dense_bytes(_IDENTITIES_BYTES_PER_N2 * n * n, f"identities at dim {n}")
    kwargs = _tol_kwargs(args)
    _check_trials(args.trials)
    from .verification import verify_sum_identities

    report = verify_sum_identities(n, trials=args.trials, seed=args.seed, **kwargs)
    return _report_payload("identities", report, dim=n, trials=args.trials, seed=args.seed)


def _cmd_detcheck(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    _check_dense_bytes(_VERIFY_BYTES_PER_N2 * n * n, f"detcheck at dim {n}")
    kwargs = _tol_kwargs(args)
    _check_grid(args.grid)
    from .verification import verify_det_recurrence

    report = verify_det_recurrence(n, grid=args.grid, **kwargs)
    return _report_payload("detcheck", report, dim=n, grid=args.grid)


def _cmd_witness(args: argparse.Namespace) -> tuple[Any, bool]:
    """``certify`` for a mixed pair only."""

    _check_dim(args)
    if not _is_mixed(_parse_pair(args.pair)):
        raise SchemaError(
            "pair",
            "spectrum witnesses separate mixed pairs only (one of dep/trd vs one of "
            "dcq/tcq); use `certify` for same-class pairs",
        )
    return _cmd_certify(args)


def _cmd_certify(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    pair = _parse_pair(args.pair)
    if _is_mixed(pair):
        _check_dense_bytes(_WITNESS_BYTES_PER_N2 * n * n, f"the spectrum witnesses at dim {n}")
    certificate = inequivalence_certificate(pair, n, args.p)
    payload = {"command": args.command, "certificate": certificate, "gap_threshold": GAP_THRESHOLD}
    return payload, certificate.passed


def _cmd_qubit_equiv(args: argparse.Namespace) -> tuple[Any, bool]:
    kwargs = _tol_kwargs(args)
    _check_conjugation_p(args.p)
    _check_trials(args.trials)
    from .equivalence import qubit_equivalence_check

    report = qubit_equivalence_check(args.p, trials=args.trials, seed=args.seed, **kwargs)
    return _report_payload("qubit-equiv", report, p=args.p, trials=args.trials, seed=args.seed)


# Peak bytes of a report process per n^2, rounded up from 4.3-4.5 KB measured
# at n = 128..256.  The JSON is 1.5 KB per n^2, mostly the certificates'
# witness states, and the peak holds it three times: `jsonio.dumps`' pieces
# and their join, then the encoded copy written out.  The cached sum plan and
# the checks' arrays are O(n^2) too, and nothing in a report grows faster.
_REPORT_BYTES_PER_N2 = 4700


def _cmd_report(args: argparse.Namespace) -> tuple[Any, bool]:
    n = _check_dim(args)
    _check_dense_bytes(_REPORT_BYTES_PER_N2 * n * n, f"the report at dim {n}")
    kwargs = _tol_kwargs(args)
    _check_samples(args.samples)
    from .channels import FamilyChannel, _kraus_count_and_deviation
    from .equivalence import qubit_equivalence_check
    from .verification import (
        _representation_reports,
        _sample_reports,
        constant_fnorm_criterion,
        is_cptp,
        verify_det_recurrence,
        verify_sum_identities,
    )

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

    # Each family is checked at the midpoint of its range, against one
    # shared draw of the sample states and one of the representation inputs.
    members = [(f, (ranges[f.value].p_min + ranges[f.value].p_max) / 2) for f in Family]
    channels = [FamilyChannel(family, p, n) for family, p in members]
    samples = _sample_reports(channels, n, args.samples, args.seed, **kwargs)
    reps = _representation_reports(members, n, 50, args.seed, **kwargs)
    constant_norm = {}
    representations = {}
    kraus = {}
    for channel, sample, rep in zip(channels, samples, reps):
        family, p_mid = channel.family, channel.p
        holds, expected = constant_fnorm_criterion(channel, **kwargs)
        constant_norm[family.value] = {
            "p": p_mid,
            "criterion_holds": holds,
            "expected_norm": expected,
            "report": sample,
        }
        all_passed = all_passed and holds and sample.passed

        representations[family.value] = {"p": p_mid, "report": rep}
        all_passed = all_passed and rep.passed

        operators, completeness_dev = _kraus_count_and_deviation(family, p_mid, n)
        kraus_ok = completeness_dev <= (kwargs.get("tol") or DEFAULT_TOL).bound(1.0)
        kraus[family.value] = {
            "p": p_mid,
            "operators": operators,
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


def _emit(payload: Any, output: Optional[str]) -> None:
    text = payload if isinstance(payload, str) else jsonio.dumps(payload)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


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
        payload, passed = args.handler(args)
        _emit(payload, args.output)
    except (ValueError, OSError, MemoryError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
