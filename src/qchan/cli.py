"""Command-line interface.

Every command emits a deterministic report (identical argv and input
files produce byte-identical output; :func:`run` pins BLAS to one
thread): a JSON document,
except ``basis`` without ``--json``, which prints a text listing.  The
verdict is the exit code:

* 0 — command ran and every requested check passed,
* 1 — command ran but a verification failed,
* 2 — invalid input (bad flags, malformed JSON, out-of-range requests, a
  ``p`` or ``t_i`` past ``jsonio._MAX_MAGNITUDE`` = 1e100, requests whose
  peak memory, estimated by ``exact._check_peak_bytes``, passes 2 GiB).

:func:`main` checks each value flag by its rule in ``_FIELD_RULES``, the
rule that JSON fields and library calls of its kind share, before any
handler runs.  ``--tol v`` sets both tolerance components to v; no
environment variable changes it.

Only :mod:`qchan.exact` and :mod:`qchan.jsonio` are imported up front.  A
handler imports the modules it runs (and with them NumPy) only once its
input files have passed the checks that need no linear algebra, so
``range``, same-class ``certify`` and every flag error run without
loading NumPy.  Code sits in the modules of the commands
that run it, so that a process without bytecode caches compiles little
else.  Besides those two, ``range`` loads nothing; same-class ``certify``
:mod:`qchan.equivalence` (NumPy-free at import); mixed-pair ``certify``
and ``witness`` also channels and linalg; ``verify`` channels, linalg
and verification; ``channel apply`` channels and linalg; ``basis`` basis
and linalg; ``identities`` and ``detcheck`` basis, channels, linalg and
representations; ``qubit-equiv`` basis, channels, equivalence and linalg;
``report`` all of them, and :mod:`qchan.report`, which holds the body of
``report`` and which no other command imports.

No command loads ``dataclasses``: every result record is a NamedTuple
(``_replace``, ``_asdict``), the channels and the basis derive from
``exact._Frozen``, and ``fractions`` is imported only by same-class
``certify``.

``python -m qchan`` and the ``qchan`` script run :func:`run`, which runs
:func:`main` with the cyclic garbage collector off, runs the exit
handlers, flushes both streams and ends the process with ``os._exit``,
without tearing down its heap.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import re
import sys
from typing import Any, Callable, NoReturn, Optional

from . import jsonio
from .exact import (
    FAMILY_NAMES,
    Family,
    Tolerance,
    _check_peak_bytes,
    _is_mixed,
    family_from_name,
    param_range,
)
from .jsonio import SchemaError

__all__ = ["main", "run", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads ``-1e-05`` as a negative number, as it reads ``-0.5``.

    The pattern argparse uses up to Python 3.11 has no exponent, so such a
    value after ``--p`` or ``--tol`` was taken for an unknown option.
    ``add_subparsers`` builds each subparser with its parent's class.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _tolerance(value: float) -> Tolerance:
    if not math.isfinite(value) or value <= 0:
        raise SchemaError("tol", f"expected a positive finite number, got {value!r}")
    return Tolerance(absolute=value, relative=value)


def _tol_kwargs(args: argparse.Namespace) -> dict:
    """``{"tol": args.tol}`` with ``--tol``; without the flag, empty, which keeps each check's default."""

    return {} if args.tol is None else {"tol": args.tol}


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from None


def _load_channel(args: argparse.Namespace, samples: int = 0) -> Any:
    """The channel of a verify command, refused if the check with ``samples`` Haar states would pass 2 GiB.

    A ``--channel`` file is parsed before the size guard, an inline
    ``--family`` channel built after it.  A file given with any inline
    flag is refused, since one of the two would be ignored.
    """

    inline = args.family is not None or args.dim is not None or args.p is not None
    if args.channel and inline:
        raise SchemaError("channel", "provide --channel FILE or --family/--dim/--p, not both")
    if args.channel:
        obj = _load_json_file(args.channel)
        from .channels import channel_from_json

        channel = channel_from_json(obj)
        _check_peak_bytes(f"verify {args.verify_command}", channel.dim, samples)
        return channel
    if args.family is None or args.dim is None or args.p is None:
        raise SchemaError("channel", "provide --channel FILE or all of --family/--dim/--p")
    _check_peak_bytes(f"verify {args.verify_command}", args.dim, samples)
    from .channels import FamilyChannel

    return FamilyChannel(family=args.family, p=args.p, dim=args.dim)


def _parse_pair(text: str) -> tuple[Family, Family]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise SchemaError("pair", f"expected two comma-separated families, got {text!r}")
    fam_a = family_from_name(parts[0], "pair")
    fam_b = family_from_name(parts[1], "pair")
    if fam_a is fam_b:
        raise SchemaError("pair", "the two families must be distinct")
    return fam_a, fam_b


# One rule per value field, the rules of JSON input and library calls: ``main``
# applies each to the field if the parsed command sets it, before any
# handler runs, and stores what it returns for the handlers to read.
_FIELD_RULES: dict[str, Callable[[dict, str], Any]] = {
    "dim": lambda fields, name: jsonio.integer(fields[name], name, 2),
    "samples": lambda fields, name: jsonio.integer(fields[name], name, 0),
    "seed": lambda fields, name: jsonio.integer(fields[name], name, 0),
    "trials": lambda fields, name: jsonio.integer(fields[name], name, 1),
    "grid": lambda fields, name: jsonio.integer(fields[name], name, 2),
    "p": lambda fields, name: jsonio.finite_number(fields[name], name, jsonio._MAX_MAGNITUDE),
    "family": lambda fields, name: family_from_name(fields[name], name),
    "pair": lambda fields, name: _parse_pair(fields[name]),
    "tol": lambda fields, name: _tolerance(fields[name]),
}


# --- command handlers: each returns (payload, passed) ----------------------


def _report_payload(command: str, report: Any, **fields: Any) -> tuple[Any, bool]:
    """``{"command", <fields>, "report"}`` and the report's verdict."""
    return {"command": command, **fields, "report": report}, report.passed


def _cmd_basis(args: argparse.Namespace) -> tuple[Any, bool]:
    n = args.dim
    _check_peak_bytes("basis --json" if args.json else "basis", n)
    from .basis import build_basis
    from .linalg import frobenius_norm

    basis = build_basis(n)
    if not args.json:
        lines = [f"orthonormal Hermitian basis, dim {n}, {len(basis)} elements"]
        for (sector, index), element in zip(basis.labels, basis.stacked):
            norm = frobenius_norm(element)
            lines.append(f"  e_{sector},{index}  norm={norm:.12f}")
        return "\n".join(lines), True
    elements = [
        {"sector": sector, "index": index, "matrix": element}
        for (sector, index), element in zip(basis.labels, basis.stacked)
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
    info = param_range(args.family, args.dim)
    payload = {"command": "range", **info._asdict(), "name": FAMILY_NAMES[args.family]}
    return payload, True


def _cmd_verify_cptp(args: argparse.Namespace) -> tuple[Any, bool]:
    channel = _load_channel(args)
    kwargs = _tol_kwargs(args)
    from .channels import channel_to_json
    from .verification import is_cptp

    report = is_cptp(channel, channel.dim, **kwargs)
    return _report_payload("verify-cptp", report, channel=channel_to_json(channel))


def _cmd_verify_constant_norm(args: argparse.Namespace) -> tuple[Any, bool]:
    channel = _load_channel(args, args.samples)
    kwargs = _tol_kwargs(args)
    from .channels import channel_to_json
    from .verification import constant_fnorm_criterion, constant_fnorm_sample_test

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
    _check_peak_bytes("identities", args.dim)
    kwargs = _tol_kwargs(args)
    from .representations import verify_sum_identities

    report = verify_sum_identities(args.dim, trials=args.trials, seed=args.seed, **kwargs)
    return _report_payload("identities", report, dim=args.dim, trials=args.trials, seed=args.seed)


def _cmd_detcheck(args: argparse.Namespace) -> tuple[Any, bool]:
    _check_peak_bytes("detcheck", args.dim, args.grid)
    kwargs = _tol_kwargs(args)
    from .representations import verify_det_recurrence

    report = verify_det_recurrence(args.dim, grid=args.grid, **kwargs)
    return _report_payload("detcheck", report, dim=args.dim, grid=args.grid)


def _cmd_witness(args: argparse.Namespace) -> tuple[Any, bool]:
    """``certify`` for a mixed pair only."""

    if not _is_mixed(args.pair):
        raise SchemaError(
            "pair",
            "spectrum witnesses separate mixed pairs only (one of dep/trd vs one of "
            "dcq/tcq); use `certify` for same-class pairs",
        )
    return _cmd_certify(args)


def _cmd_certify(args: argparse.Namespace) -> tuple[Any, bool]:
    if _is_mixed(args.pair):
        _check_peak_bytes("witness", args.dim)
    from .equivalence import GAP_THRESHOLD, inequivalence_certificate

    certificate = inequivalence_certificate(args.pair, args.dim, args.p)
    payload = {"command": args.command, "certificate": certificate, "gap_threshold": GAP_THRESHOLD}
    return payload, certificate.passed


def _cmd_qubit_equiv(args: argparse.Namespace) -> tuple[Any, bool]:
    kwargs = _tol_kwargs(args)
    from .equivalence import qubit_equivalence_check

    report = qubit_equivalence_check(args.p, trials=args.trials, seed=args.seed, **kwargs)
    return _report_payload("qubit-equiv", report, p=args.p, trials=args.trials, seed=args.seed)


def _cmd_report(args: argparse.Namespace) -> tuple[Any, bool]:
    n = args.dim
    _check_peak_bytes("report", n, args.samples)
    kwargs = _tol_kwargs(args)
    from .report import report_sections

    sections, passed = report_sections(n, args.samples, args.seed, **kwargs)
    payload = {
        "command": "report",
        "dim": n,
        "samples": args.samples,
        "seed": args.seed,
        "sections": sections,
        "passed": passed,
    }
    return payload, passed


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
        return 0 if exc.code in (0, None) else 2
    try:
        fields = vars(args)
        for name, rule in _FIELD_RULES.items():
            if fields.get(name) is not None:
                fields[name] = rule(fields, name)
        payload, passed = args.handler(args)
        _emit(payload, args.output)
    except (ValueError, OSError, MemoryError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def run() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` and exit with its code.

    ``python -m qchan`` and the ``qchan`` script end here.  The cyclic
    collector is off for the whole command: its passes, mostly while
    NumPy imports, cost about 10 ms per process, and the only cycles a
    command leaves are a fixed few hundred objects of NumPy's import and
    of argparse (``tests/test_cli.py`` counts them).  Once ``main`` has
    returned, the exit handlers run and both streams are flushed, in the
    order of an interpreter exit, and the process ends without tearing
    down its heap, which takes several milliseconds once NumPy is loaded.
    A stream that cannot be flushed leaves the exit to the interpreter,
    which reports it as any exit does (a closed pipe: exit 120).  ``main``
    itself leaves the collector on, because tests call it in process.

    Before NumPy loads, each BLAS thread-count variable that is unset is
    set to 1, since some products and eigenvalues round differently on
    another thread count; a value the user set is kept.
    """

    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
