"""Expected outcomes from closed forms, independent of the code under test.

The oracle never imports qchan.  Its facts come from the paper:

* the CPTP interval of each family (``cptp_range``);
* the output Frobenius norm sqrt(1/n + p^2 (1 - 1/n)) of a pure input
  under any member (``expected_norm``);
* the triangle bound: a trace-preserving map diagonal over the
  orthonormal Hermitian basis with every |t_i| < 1/(n (n^2 - 1)) has a
  positive Choi matrix, since the identity part contributes 1/n and each
  basis term at most |t_i| in operator norm (``triangle_bound``);
* the closed-form action of each family (``family_apply``);
* exit code 2 for malformed input, 1 for a failed check, 0 otherwise.

Each ``check_*`` function returns a list of reasons; an empty list means
the output agrees with the oracle.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Optional

import numpy as np

FAMILIES = ("dep", "trd", "dcq", "tcq")
HYBRID = frozenset({"dcq", "tcq"})
# Multiplier signs on the (x, y, z) sectors of the Hermitian basis.
SIGNS = {"dep": (1, 1, 1), "trd": (1, -1, 1), "dcq": (-1, -1, 1), "tcq": (-1, 1, 1)}

# Agreement required between a reported number and its closed form.
ABS_TOL = 1e-9
REL_TOL = 1e-9


def cptp_range(family: str, n: int) -> tuple[Fraction, Fraction]:
    """Exact (p_min, p_max) of the CPTP interval."""

    if family == "dep":
        return Fraction(-1, n * n - 1), Fraction(1)
    if family in ("trd", "tcq"):
        return Fraction(-1, n - 1), Fraction(1, n + 1)
    if family == "dcq":
        return Fraction(-1, 2 * n - 1), Fraction(1, (n - 1) ** 2)
    raise ValueError(f"unknown family {family!r}")


def in_cptp_range(family: str, n: int, p: float) -> bool:
    lo, hi = cptp_range(family, n)
    return lo <= Fraction(p) <= hi


def expected_norm(n: int, p: float) -> float:
    return math.sqrt(1 / n + p * p * (1 - 1 / n))


def triangle_bound(n: int) -> float:
    return 1.0 / (n * (n * n - 1))


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def family_multipliers(family: str, p: float, n: int) -> list[float]:
    """Multiplier vector in basis order: x block, y block, z block."""

    sx, sy, sz = SIGNS[family]
    m = pair_count(n)
    return [sx * p] * m + [sy * p] * m + [sz * p] * (n - 1)


def family_apply(family: str, p: float, s: np.ndarray) -> np.ndarray:
    n = s.shape[0]
    uniform = (1 - p) / n * np.trace(s) * np.eye(n, dtype=complex)
    core = s if family in ("dep", "dcq") else s.T
    sign = -1 if family in HYBRID else 1
    out = sign * p * core + uniform
    if family in HYBRID:
        out = out + 2 * p * np.diag(np.diag(s))
    return out


def spectral_gap(family: str, p: float, n: int) -> float:
    """Sorted-spectrum gap between the two isospectral witness inputs."""

    return abs(p) * max(1 - 2 / n, 2 / n) if family in HYBRID else 0.0


def close(got: Any, want: float, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> bool:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = obj["rows"], obj["cols"]
    flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=complex)
    return flat.reshape(rows, cols)


# --- CLI rows ----------------------------------------------------------------


def _expect_code(row: dict) -> Optional[int]:
    """Exit code the oracle requires; None means 'any non-zero'."""

    kind = row["kind"]
    if kind == "usage-error":
        return 2
    if kind in ("identities", "qubit-equiv") and row["trials"] == 0:
        return None  # a check over zero trials must not pass
    if kind == "verify-cptp":
        return 0 if in_cptp_range(row["family"], row["n"], row["p"]) else 1
    return 0


def check_cli(row: dict, code: int, stdout: str) -> list[str]:
    """Compare one CLI run with the oracle."""

    want = _expect_code(row)
    if want is None:
        if code == 0:
            return ["exit 0 on a check over zero trials (vacuous pass), expected non-zero"]
        return []
    if code != want:
        return [f"exit {code}, expected {want}"]
    if row["kind"] == "usage-error":
        return [] if stdout == "" else ["usage error wrote to stdout"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    try:
        return _CHECKS[row["kind"]](row, payload)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed payload: {type(exc).__name__}: {exc}"]


def _check_range(row: dict, payload: dict) -> list[str]:
    lo, hi = cptp_range(row["family"], row["n"])
    bad = []
    if not close(payload["p_min"], float(lo)):
        bad.append(f"p_min {payload['p_min']} != {float(lo)}")
    if not close(payload["p_max"], float(hi)):
        bad.append(f"p_max {payload['p_max']} != {float(hi)}")
    return bad


def _check_certificate(pair: list[str], n: int, p: Optional[float], cert: dict) -> list[str]:
    mixed = len(HYBRID.intersection(pair)) == 1
    bad = []
    if mixed:
        if cert["method"] != "spectrum_witness":
            return [f"method {cert['method']}, expected spectrum_witness"]
        hybrid = next(f for f in pair if f in HYBRID)
        hybrid_w, base_w = cert["witnesses"]
        if p is not None and not close(hybrid_w["max_spectral_gap"], spectral_gap(hybrid, p, n)):
            bad.append(f"hybrid gap {hybrid_w['max_spectral_gap']} != {spectral_gap(hybrid, p, n)}")
        if not hybrid_w["max_spectral_gap"] > 1e-6:
            bad.append("hybrid witness gap below the certificate threshold")
        if not abs(base_w["max_spectral_gap"]) <= ABS_TOL:
            bad.append(f"base family gap {base_w['max_spectral_gap']} should vanish")
    else:
        if cert["method"] != "bound_matching":
            return [f"method {cert['method']}, expected bound_matching"]
        reports = cert["bound_reports"]
        if len(reports) != 2 or any(r["feasible"] for r in reports):
            bad.append("bound matching found a feasible dimension")
    return bad


def _check_certify(row: dict, payload: dict) -> list[str]:
    return _check_certificate(row["pair"], row["n"], row.get("p"), payload["certificate"])


def _check_verify_cptp(row: dict, payload: dict) -> list[str]:
    inside = in_cptp_range(row["family"], row["n"], row["p"])
    report = payload["report"]
    bad = []
    if report["passed"] is not inside:
        bad.append(f"cptp verdict {report['passed']}, expected {inside}")
    eig = report["min_choi_eigenvalue"]
    if inside and not eig > -ABS_TOL:
        bad.append(f"min Choi eigenvalue {eig} negative inside the range")
    if not inside and not eig < 0:
        bad.append(f"min Choi eigenvalue {eig} non-negative outside the range")
    if not abs(report["trace_violation"]) <= ABS_TOL:
        bad.append(f"trace violation {report['trace_violation']}")
    return bad


def _check_constant_norm(row: dict, payload: dict) -> list[str]:
    n, p = row["n"], row["p"]
    bad = []
    if payload["criterion_holds"] is not True:
        bad.append("criterion fails for a family member")
    if not close(payload["expected_norm"], expected_norm(n, p)):
        bad.append(f"expected_norm {payload['expected_norm']} != {expected_norm(n, p)}")
    report = payload["report"]
    if report["passed"] is not True:
        bad.append("sample test fails for a family member")
    if report["samples_used"] != n * n + row["samples"]:
        bad.append(f"samples_used {report['samples_used']} != {n * n + row['samples']}")
    return bad


def _check_channel_apply(row: dict, payload: dict) -> list[str]:
    family, p = row["family"], row["p"]
    pairs = np.array(row["state"], dtype=float)
    state = pairs[..., 0] + 1j * pairs[..., 1]
    want = family_apply(family, p, state)
    got = matrix_from_json(payload["output"])
    bad = []
    if got.shape != want.shape or float(np.max(np.abs(got - want))) > ABS_TOL:
        bad.append("output matrix differs from the closed-form family action")
    if not close(payload["output_trace"], 1.0):
        bad.append(f"output trace {payload['output_trace']}")
    if not close(payload["output_frobenius_norm"], expected_norm(state.shape[0], p)):
        bad.append(f"output norm {payload['output_frobenius_norm']} != {expected_norm(state.shape[0], p)}")
    return bad


def _check_basis(row: dict, payload: dict) -> list[str]:
    n = row["n"]
    elements = payload["elements"]
    if len(elements) != n * n:
        return [f"{len(elements)} basis elements, expected {n * n}"]
    stack = np.stack([matrix_from_json(e["matrix"]) for e in elements])
    bad = []
    if float(np.max(np.abs(stack - stack.conj().transpose(0, 2, 1)))) > ABS_TOL:
        bad.append("basis element not Hermitian")
    gram = np.einsum("aij,bji->ab", stack, stack)
    if float(np.max(np.abs(gram - np.eye(n * n)))) > ABS_TOL:
        bad.append("basis not orthonormal under Tr(a b)")
    if float(np.max(np.abs(stack[0] - np.eye(n) / math.sqrt(n)))) > ABS_TOL:
        bad.append("first element is not I/sqrt(n)")
    return bad


def _check_passed(row: dict, payload: dict) -> list[str]:
    report = payload["report"]
    bad = [] if report["passed"] is True else ["report did not pass"]
    if row["kind"] == "detcheck" and report["samples_used"] != row["grid"]:
        bad.append(f"samples_used {report['samples_used']} != grid {row['grid']}")
    return bad


def _check_report(row: dict, payload: dict) -> list[str]:
    n = row["n"]
    sec = payload["sections"]
    bad = [] if payload["passed"] is True else ["report did not pass"]
    for family in FAMILIES:
        lo, hi = cptp_range(family, n)
        got = sec["ranges"][family]
        if not (close(got["p_min"], float(lo)) and close(got["p_max"], float(hi))):
            bad.append(f"{family} range wrong")
        ends = sec["cptp_endpoints"][family]
        verdicts = {k: ends[k]["passed"] for k in ("p_min", "p_max", "below", "above")}
        if verdicts != {"p_min": True, "p_max": True, "below": False, "above": False}:
            bad.append(f"{family} endpoint verdicts {verdicts}")
        p_mid = (float(lo) + float(hi)) / 2
        cn = sec["constant_norm"][family]
        if not (cn["criterion_holds"] is True and cn["report"]["passed"] is True):
            bad.append(f"{family} constant-norm verdict wrong")
        if not close(cn["expected_norm"], expected_norm(n, p_mid)):
            bad.append(f"{family} expected_norm {cn['expected_norm']} != {expected_norm(n, p_mid)}")
        if sec["representations"][family]["report"]["passed"] is not True:
            bad.append(f"{family} representations failed")
        kraus = sec["kraus"][family]
        if kraus["passed"] is not True or kraus["operators"] != 1 + 3 * pair_count(n):
            bad.append(f"{family} Kraus set wrong ({kraus['operators']} operators)")
    if sec["identities"]["passed"] is not True or sec["determinant"]["passed"] is not True:
        bad.append("identities or determinant check failed")
    if n >= 3:
        certs = sec["certificates"]
        if len(certs) != 6:
            bad.append(f"{len(certs)} certificates, expected 6")
        for entry in certs:
            cert = entry["certificate"]
            bad += _check_certificate(cert["pair"], n, None, cert)
            if entry["passed"] is not True:
                bad.append(f"certificate {cert['pair']} did not pass")
    return bad


_CHECKS = {
    "range": _check_range,
    "certify": _check_certify,
    "witness": _check_certify,
    "verify-cptp": _check_verify_cptp,
    "verify-constant-norm": _check_constant_norm,
    "channel-apply": _check_channel_apply,
    "basis": _check_basis,
    "identities": _check_passed,
    "detcheck": _check_passed,
    "qubit-equiv": _check_passed,
    "report": _check_report,
}


# --- Library verdicts ----------------------------------------------------------


def expected_verdict(req: dict) -> dict:
    """CPTP and constant-norm verdicts a request must receive."""

    n = req["n"]
    if req["source"] == "small":
        t = np.abs(np.asarray(req["t"]))
        if not float(t.max()) < triangle_bound(n):
            raise ValueError("small multipliers exceed the triangle bound")
        unequal = float(t.max() - t.min()) > 1e-3 * triangle_bound(n)
        return {"cptp": True, "constant_norm": not unequal, "norm": None}
    p = req["p"]
    return {
        "cptp": in_cptp_range(req["family"], n, p),
        "constant_norm": True,
        "norm": expected_norm(n, p),
    }


def check_verdict(req: dict, result: dict) -> list[str]:
    if result.get("error"):
        return [f"raised: {result['error']}"]
    want = expected_verdict(req)
    bad = []
    if result["cptp"] is not want["cptp"]:
        bad.append(f"cptp verdict {result['cptp']}, expected {want['cptp']}")
    if result["constant_norm"] is not want["constant_norm"]:
        bad.append(f"constant-norm verdict {result['constant_norm']}, expected {want['constant_norm']}")
    if want["norm"] is not None and not close(result["expected_norm"], want["norm"]):
        bad.append(f"expected norm {result['expected_norm']} != {want['norm']}")
    if not abs(result["trace_violation"]) <= ABS_TOL:
        bad.append(f"trace violation {result['trace_violation']}")
    if result["samples_used"] != n_states(req):
        bad.append(f"{result['samples_used']} states checked, expected {n_states(req)}")
    return bad


def n_states(req: dict) -> int:
    """States a sample test must check: n^2 witness states plus the samples."""
    return req["n"] ** 2 + req["samples"]
