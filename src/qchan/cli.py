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

``_COMMANDS`` describes every command and flag once.  :func:`main` parses
an argv of the common form from it directly: an optional leading
``--output PATH``, a command, and its flags as exact ``--flag value``
pairs or a bare ``--json``.  Any other argv, help and every malformed
flag among them, goes to the argparse tree :func:`build_parser` builds
from the same table, which prints help and usage errors and sets the
exit code.  So argparse, and gettext and locale with it, load only for
those, and a well-formed command loads none of them, nor ``json`` (read
only with an input file, and written by :mod:`qchan.jsonio` for a string
that needs escaping), ``numbers`` or ``fractions``.  Of the standard
library it loads only what this module and :mod:`qchan.exact` import at
the top: __future__, atexit, enum, gc, math, os, re, sys, types and
typing.

Only :mod:`qchan.exact` and :mod:`qchan.jsonio` are imported up front.  A
handler imports the modules it runs (and with them NumPy) only once its
input files have passed the checks that need no linear algebra, so
``range``, ``certify``, ``witness``, ``verify cptp`` with an inline
``--family`` channel and every flag error run without loading NumPy.
Code sits in the modules of the commands that run it, so that a process
without bytecode caches compiles little else.  Besides those two,
``range`` and ``verify cptp --family`` load nothing (the latter's report
is ``exact._sector_cptp``'s, from the member's closed-form Choi
spectrum, after the size guard); ``certify`` and ``witness``
:mod:`qchan.equivalence`, whose certificates, spectrum witnesses
included, are exact and NumPy-free; ``verify constant-norm`` and
``verify cptp --channel`` channels, linalg and verification; ``channel
apply`` channels and linalg; ``basis`` basis and linalg; ``identities`` and ``detcheck`` basis, channels, linalg and
representations; ``qubit-equiv`` basis, channels, equivalence and linalg;
``report`` all of them, and :mod:`qchan.report`, which holds the body of
``report`` and which no other command imports.

No command loads ``dataclasses``: every result record is a NamedTuple
(``_replace``, ``_asdict``), and the channels and the basis derive from
``exact._Frozen``.  Bound matching compares integers, so no command
loads ``fractions``.

``python -m qchan`` and the ``qchan`` script run :func:`run`, which runs
:func:`main` with the cyclic garbage collector off, runs the exit
handlers, flushes both streams and ends the process with ``os._exit``,
without tearing down its heap.
"""

from __future__ import annotations

import atexit
import gc
import math
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, NoReturn, Optional

from . import jsonio
from .exact import (
    _SIGNS,
    FAMILY_NAMES,
    Family,
    Tolerance,
    _check_peak_bytes,
    _family_json,
    _is_mixed,
    _sector_cptp,
    family_from_name,
    param_range,
)
from .jsonio import SchemaError

if TYPE_CHECKING:
    import argparse

__all__ = ["main", "run", "build_parser"]


# A flag value that starts with "-" is a negative number, ``-1e-05`` as well as ``-0.5``.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")


def _parser_class() -> type[argparse.ArgumentParser]:
    """An ArgumentParser class that reads ``-1e-05`` as a negative number, as it reads ``-0.5``.

    The pattern argparse uses up to Python 3.11 has no exponent, so such a
    value after ``--p`` or ``--tol`` was taken for an unknown option.
    ``add_subparsers`` builds each subparser with its parent's class.  The
    class is made here, on each call, so that only :func:`build_parser`
    imports argparse.
    """

    import argparse

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

    return _Parser


def _tolerance(value: float) -> Tolerance:
    if not math.isfinite(value) or value <= 0:
        raise SchemaError("tol", f"expected a positive finite number, got {value!r}")
    return Tolerance(absolute=value, relative=value)


def _tol_kwargs(args: Any) -> dict:
    """``{"tol": args.tol}`` with ``--tol``; without the flag, empty, which keeps each check's default."""

    return {} if args.tol is None else {"tol": args.tol}


def _load_json_file(path: str) -> Any:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from None


def _load_channel(args: Any, samples: int = 0) -> Any:
    """The channel of a verify command, refused if the check with ``samples`` Haar states would pass 2 GiB.

    A ``--channel`` file is parsed before the size guard and returned.  An
    inline ``--family`` channel passes the guard and is returned as None,
    for the handler to build as it needs.  A file given with any inline
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
    return None


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


def _cmd_basis(args: Any) -> tuple[Any, bool]:
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


def _cmd_channel_apply(args: Any) -> tuple[Any, bool]:
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


def _cmd_range(args: Any) -> tuple[Any, bool]:
    info = param_range(args.family, args.dim)
    payload = {"command": "range", **info._asdict(), "name": FAMILY_NAMES[args.family]}
    return payload, True


def _cmd_verify_cptp(args: Any) -> tuple[Any, bool]:
    channel = _load_channel(args)
    kwargs = _tol_kwargs(args)
    if channel is None:  # a family member: is_cptp's report from its closed-form Choi spectrum, with no NumPy
        x, y, z = (s * args.p for s in _SIGNS[args.family])
        report = _sector_cptp(x, y, z, args.dim, **kwargs)
        return _report_payload("verify-cptp", report, channel=_family_json(args.family, args.p, args.dim))
    from .channels import channel_to_json
    from .verification import is_cptp

    report = is_cptp(channel, channel.dim, **kwargs)
    return _report_payload("verify-cptp", report, channel=channel_to_json(channel))


def _cmd_verify_constant_norm(args: Any) -> tuple[Any, bool]:
    channel = _load_channel(args, args.samples)
    kwargs = _tol_kwargs(args)
    from .channels import FamilyChannel, channel_to_json
    from .verification import constant_fnorm_criterion, constant_fnorm_sample_test

    if channel is None:
        channel = FamilyChannel(family=args.family, p=args.p, dim=args.dim)
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


def _cmd_identities(args: Any) -> tuple[Any, bool]:
    _check_peak_bytes("identities", args.dim)
    kwargs = _tol_kwargs(args)
    from .representations import verify_sum_identities

    report = verify_sum_identities(args.dim, trials=args.trials, seed=args.seed, **kwargs)
    return _report_payload("identities", report, dim=args.dim, trials=args.trials, seed=args.seed)


def _cmd_detcheck(args: Any) -> tuple[Any, bool]:
    _check_peak_bytes("detcheck", args.dim, args.grid)
    kwargs = _tol_kwargs(args)
    from .representations import verify_det_recurrence

    report = verify_det_recurrence(args.dim, grid=args.grid, **kwargs)
    return _report_payload("detcheck", report, dim=args.dim, grid=args.grid)


def _cmd_witness(args: Any) -> tuple[Any, bool]:
    """``certify`` for a mixed pair only."""

    if not _is_mixed(args.pair):
        raise SchemaError(
            "pair",
            "spectrum witnesses separate mixed pairs only (one of dep/trd vs one of "
            "dcq/tcq); use `certify` for same-class pairs",
        )
    return _cmd_certify(args)


def _cmd_certify(args: Any) -> tuple[Any, bool]:
    if _is_mixed(args.pair):
        _check_peak_bytes("witness", args.dim)
    from .equivalence import GAP_THRESHOLD, inequivalence_certificate

    certificate = inequivalence_certificate(args.pair, args.dim, args.p)
    payload = {"command": args.command, "certificate": certificate, "gap_threshold": GAP_THRESHOLD}
    return payload, certificate.passed


def _cmd_qubit_equiv(args: Any) -> tuple[Any, bool]:
    kwargs = _tol_kwargs(args)
    from .equivalence import qubit_equivalence_check

    report = qubit_equivalence_check(args.p, trials=args.trials, seed=args.seed, **kwargs)
    return _report_payload("qubit-equiv", report, p=args.p, trials=args.trials, seed=args.seed)


def _cmd_report(args: Any) -> tuple[Any, bool]:
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


# --- the command table -------------------------------------------------------


class _Flag(NamedTuple):
    """A flag whose value ``type`` converts (the text itself if None), or, with ``type`` bool, a switch."""

    name: str
    type: Optional[Callable[[str], Any]] = None
    default: Any = None
    required: bool = False
    help: Optional[str] = None


class _Command(NamedTuple):
    """A command: its name (a group's name and the subcommand's), its handler, help and flags."""

    path: tuple[str, ...]
    handler: Callable[[Any], tuple[Any, bool]]
    help: str
    flags: tuple[_Flag, ...]


_GROUP_HELP = {"channel": "channel operations", "verify": "verification checks"}
_DIM = _Flag("--dim", int, required=True)
_SEED = _Flag("--seed", int, 0)
_TOL = _Flag("--tol", float)
_CHANNEL_FLAGS = (
    _Flag("--channel", help="channel JSON file"),
    _Flag("--family", help="family name (inline alternative to --channel)"),
    _Flag("--dim", int, help="dimension for --family"),
    _Flag("--p", float, help="parameter for --family"),
    _TOL,
)

# Every command in the order of the help text.  ``main`` parses a common argv
# from it, and ``build_parser`` builds the argparse tree for any other argv.
_COMMANDS = (
    _Command(
        ("basis",),
        _cmd_basis,
        "emit the orthonormal Hermitian basis",
        (_DIM, _Flag("--json", bool, False, help="emit full matrices as JSON")),
    ),
    _Command(
        ("channel", "apply"),
        _cmd_channel_apply,
        "apply a channel to a state",
        (
            _Flag("--channel", required=True, help="channel JSON file"),
            _Flag("--state", required=True, help="state matrix JSON file"),
            _TOL,
        ),
    ),
    _Command(("range",), _cmd_range, "CPTP parameter range of a family", (_Flag("--family", required=True), _DIM)),
    _Command(("verify", "cptp"), _cmd_verify_cptp, "Choi-based CPTP check", _CHANNEL_FLAGS),
    _Command(
        ("verify", "constant-norm"),
        _cmd_verify_constant_norm,
        "constant output-norm check",
        (*_CHANNEL_FLAGS, _Flag("--samples", int, 1000), _SEED),
    ),
    _Command(("identities",), _cmd_identities, "conjugation-sum identities", (_DIM, _Flag("--trials", int, 50), _SEED, _TOL)),
    _Command(("detcheck",), _cmd_detcheck, "determinant closed form vs LAPACK", (_DIM, _Flag("--grid", int, 21), _TOL)),
    _Command(
        ("witness",),
        _cmd_witness,
        "spectrum witness for a mixed family pair",
        (_Flag("--pair", required=True, help="comma-separated pair, e.g. dep,dcq"), _DIM, _Flag("--p", float)),
    ),
    _Command(
        ("certify",),
        _cmd_certify,
        "inequivalence certificate for a family pair",
        (_Flag("--pair", required=True, help="comma-separated pair, e.g. dcq,tcq"), _DIM, _Flag("--p", float)),
    ),
    _Command(
        ("qubit-equiv",),
        _cmd_qubit_equiv,
        "dimension-2 conjugation equivalences",
        (_Flag("--p", float, required=True), _Flag("--trials", int, 100), _SEED, _TOL),
    ),
    _Command(
        ("report",),
        _cmd_report,
        "full verification bundle for one dimension",
        (_DIM, _Flag("--samples", int, 200), _SEED, _TOL),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of ``_COMMANDS``: it parses, and prints help and usage errors for, every argv."""

    parser = _parser_class()(
        prog="qchan",
        description="Constant-Frobenius-norm channel families: build, verify, certify.",
    )
    parser.add_argument("--output", help="write the JSON report to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, Any] = {}
    for command in _COMMANDS:
        *group, name = command.path
        if group and group[0] not in groups:
            p_group = sub.add_parser(group[0], help=_GROUP_HELP[group[0]])
            groups[group[0]] = p_group.add_subparsers(dest=f"{group[0]}_command", required=True)
        p_command = (groups[group[0]] if group else sub).add_parser(name, help=command.help)
        p_command.set_defaults(handler=command.handler)
        for flag in command.flags:
            if flag.type is bool:
                p_command.add_argument(flag.name, action="store_true", help=flag.help)
            else:
                p_command.add_argument(
                    flag.name, type=flag.type, default=flag.default, required=flag.required, help=flag.help
                )
    return parser


def _is_value(text: str) -> bool:
    """Whether argparse reads ``text`` after a flag as its value, by the test the common path applies."""

    return text[:1] != "-" or _NEGATIVE_NUMBER.match(text) is not None


def _parse_common(argv: list[str]) -> Optional[SimpleNamespace]:
    """The fields ``build_parser().parse_args(argv)`` returns, if ``argv`` has the common form; else None.

    The common form is an optional leading ``--output PATH``, a command of
    ``_COMMANDS``, and its flags as ``--flag value`` pairs or a bare
    switch, each at most once and every required one present.  A value
    may start with ``-`` only as a negative number, and the flag's own
    type converts it, as argparse does.  Any other argv (help, an
    abbreviated flag, ``--flag=value``, a repeated flag, a missing or
    unconvertible value, an unknown command) is declined, for argparse to
    parse or refuse with its own output and exit code.
    """

    fields: dict[str, Any] = {"output": None}
    if argv[:1] == ["--output"] and len(argv) > 1 and _is_value(argv[1]):
        fields["output"], argv = argv[1], argv[2:]
    command = next((c for c in _COMMANDS if tuple(argv[: len(c.path)]) == c.path), None)
    if command is None:
        return None
    fields["command"] = command.path[0]
    if len(command.path) == 2:
        fields[f"{command.path[0]}_command"] = command.path[1]
    flags = {flag.name: flag for flag in command.flags}
    given: dict[str, Any] = {}
    rest = iter(argv[len(command.path) :])
    for name in rest:
        flag = flags.get(name)
        if flag is None or name in given:
            return None
        if flag.type is bool:
            given[name] = True
            continue
        text = next(rest, None)
        if text is None or not _is_value(text):
            return None
        try:
            given[name] = text if flag.type is None else flag.type(text)
        except ValueError:
            return None
    for flag in command.flags:
        if flag.required and flag.name not in given:
            return None
        fields[flag.name[2:]] = given.get(flag.name, flag.default)
    return SimpleNamespace(**fields, handler=command.handler)


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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_common(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    command leaves are a fixed few hundred objects of NumPy's import, plus
    argparse's few hundred when help or a usage error builds the parser
    (``tests/test_cli.py`` counts them).  Once ``main`` has
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
