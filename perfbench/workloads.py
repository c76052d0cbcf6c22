"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed: the same seed
gives the same rows, byte for byte.  The row mix of each cycle is fixed;
the seed picks dimensions, parameters, states and order.  qchan is not
imported; expectations come from :mod:`oracle` at check time.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from oracle import FAMILIES, HYBRID, cptp_range, family_multipliers, triangle_bound

PAIRS = [(a, b) for i, a in enumerate(FAMILIES) for b in FAMILIES[i + 1 :]]
REPORT_DIMS = (3, 6, 10, 16)
VERDICT_DIMS = (8, 12, 16, 20)
LADDER_DIMS = (8, 12, 16, 20, 24, 32, 48, 64, 96, 128, 192, 256)
SAMPLES = 200

# Wall time of one cycle on the reference machine (see README.md).  The
# runner fixes the number of cycles from these and --seconds, so every
# commit measures the same work and percentiles compare like with like.
NOMINAL_CYCLE_S = {"cli-short": 18.0, "cli-report": 9.0, "lib-verdicts": 3.2}
# cli-short repeats every argv at least once; cli-report needs 16 reports
# for its tail percentile to fall inside a dimension's group of reports.
MIN_CYCLES = {"cli-short": 2, "cli-report": 4, "lib-verdicts": 2}


def cycles_for(workload: str, seconds: float) -> int:
    return max(MIN_CYCLES[workload], round(seconds / NOMINAL_CYCLE_S[workload]))


def _p_inside(rng: np.random.Generator, family: str, n: int) -> float:
    lo, hi = (float(v) for v in cptp_range(family, n))
    return lo + float(rng.uniform(0.1, 0.9)) * (hi - lo)


def _p_outside(rng: np.random.Generator, family: str, n: int) -> float:
    lo, hi = (float(v) for v in cptp_range(family, n))
    step = float(rng.uniform(0.05, 0.5)) * (hi - lo)
    return hi + step if rng.random() < 0.5 else lo - step


def _p(rng: np.random.Generator, family: str, n: int, inside: bool) -> float:
    return _p_inside(rng, family, n) if inside else _p_outside(rng, family, n)


def _pure_state(rng: np.random.Generator, n: int) -> list:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    return [[[float(z.real), float(z.imag)] for z in row] for row in rho]


def _matrix_json(rows: list) -> dict:
    n = len(rows)
    return {"rows": n, "cols": n, "data": [pair for row in rows for pair in row]}


def _mixed_pair_p(pair: tuple[str, str], n: int) -> float:
    """A positive p inside both families' ranges."""
    return 0.5 * min(float(cptp_range(f, n)[1]) for f in pair)


# --- cli-short -------------------------------------------------------------------


def cli_short_cycle(seed: int) -> tuple[list[dict], dict[str, Any]]:
    """One cycle of short CLI rows and the input files they read.

    File arguments are written ``@name``; the runner replaces them with
    paths of files it writes from the returned mapping (a JSON value, or
    raw text for the malformed file).
    """

    rng = np.random.default_rng([seed, 1])
    rows: list[dict] = []
    files: dict[str, Any] = {}

    for _ in range(2):
        family, n = str(rng.choice(FAMILIES)), int(rng.integers(3, 13))
        rows.append({"kind": "range", "family": family, "n": n,
                     "argv": ["range", "--family", family, "--dim", str(n)]})
    for pair in PAIRS:
        n = int(rng.integers(3, 9))
        row = {"kind": "certify", "pair": list(pair), "n": n,
               "argv": ["certify", "--pair", ",".join(pair), "--dim", str(n)]}
        if len(HYBRID.intersection(pair)) == 1:
            row["p"] = _mixed_pair_p(pair, n)
            row["argv"] += ["--p", repr(row["p"])]
        rows.append(row)
    base, hybrid = str(rng.choice(["dep", "trd"])), str(rng.choice(sorted(HYBRID)))
    n = int(rng.integers(3, 9))
    p = _mixed_pair_p((base, hybrid), n)
    rows.append({"kind": "witness", "pair": [base, hybrid], "n": n, "p": p,
                 "argv": ["witness", "--pair", f"{base},{hybrid}", "--dim", str(n), "--p", repr(p)]})
    for command in ("cptp", "constant-norm"):
        for inside in (True, False):
            family, n = str(rng.choice(FAMILIES)), int(rng.integers(3, 9))
            p = _p(rng, family, n, inside)
            row = {"kind": f"verify-{command}", "family": family, "n": n, "p": p,
                   "argv": ["verify", command, "--family", family, "--dim", str(n), "--p", repr(p)]}
            if command == "constant-norm":
                row["samples"] = SAMPLES
                row["argv"] += ["--samples", str(SAMPLES), "--seed", str(int(rng.integers(0, 1000)))]
            rows.append(row)
    for index, kind in enumerate(("family", "diagonal")):
        family, n = str(rng.choice(FAMILIES)), int(rng.integers(3, 9))
        p = _p_inside(rng, family, n)
        if kind == "family":
            channel = {"kind": "family", "family": family, "p": p, "dim": n}
        else:
            channel = {"kind": "diagonal", "dim": n, "t": family_multipliers(family, p, n)}
        state = _pure_state(rng, n)
        files[f"channel_{index}.json"] = channel
        files[f"state_{index}.json"] = _matrix_json(state)
        rows.append({"kind": "channel-apply", "channel_kind": kind, "family": family, "p": p,
                     "state": state,
                     "argv": ["channel", "apply", "--channel", f"@channel_{index}.json",
                              "--state", f"@state_{index}.json"]})
    n = int(rng.integers(2, 7))
    rows.append({"kind": "basis", "n": n, "argv": ["basis", "--dim", str(n), "--json"]})
    for trials in (int(rng.integers(2, 6)), 0):
        n = int(rng.integers(2, 7))
        rows.append({"kind": "identities", "n": n, "trials": trials, "known_open": trials == 0,
                     "argv": ["identities", "--dim", str(n), "--trials", str(trials),
                              "--seed", str(int(rng.integers(0, 1000)))]})
    n, grid = int(rng.integers(2, 9)), int(rng.integers(5, 22))
    rows.append({"kind": "detcheck", "n": n, "grid": grid,
                 "argv": ["detcheck", "--dim", str(n), "--grid", str(grid)]})
    for trials in (int(rng.integers(5, 21)), 0):
        p = float(rng.uniform(0.1, 0.9))
        rows.append({"kind": "qubit-equiv", "trials": trials, "known_open": trials == 0,
                     "argv": ["qubit-equiv", "--p", repr(p), "--trials", str(trials),
                              "--seed", str(int(rng.integers(0, 1000)))]})
    files["malformed.json"] = '{"kind": "family", "family": '
    bad_family = "".join(rng.choice(list("uvwxyz"), size=4))
    rows += [
        {"kind": "usage-error", "argv": ["range", "--family", "dep", "--dim", "1"]},
        {"kind": "usage-error", "argv": ["range", "--family", bad_family, "--dim", str(int(rng.integers(3, 9)))]},
        {"kind": "usage-error", "argv": ["channel", "apply", "--channel", "@malformed.json",
                                         "--state", "@state_0.json"]},
    ]
    order = rng.permutation(len(rows))
    return [rows[i] for i in order], files


# --- cli-report ------------------------------------------------------------------


def cli_report_cycle(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    report_seed = int(rng.integers(0, 10_000))
    return [{"kind": "report", "n": n,
             "argv": ["report", "--dim", str(n), "--seed", str(report_seed)]}
            for n in REPORT_DIMS]


# --- lib-verdicts ----------------------------------------------------------------


def _small_multipliers(rng: np.random.Generator, n: int) -> list[float]:
    count = n * n - 1
    moduli = rng.uniform(0.2, 0.95, size=count) * triangle_bound(n)
    signs = rng.choice([-1.0, 1.0], size=count)
    return [float(v) for v in moduli * signs]


def verdict_request(rng: np.random.Generator, n: int, kind: str, inside: bool) -> dict:
    """One full-verdict request; ``kind`` is family, from-family or small."""

    if kind == "small":
        return {"channel": "diagonal", "source": "small", "n": n,
                "t": _small_multipliers(rng, n), "samples": SAMPLES,
                "seed": int(rng.integers(0, 1 << 30))}
    family = str(rng.choice(FAMILIES))
    return {"channel": "family" if kind == "family" else "diagonal", "source": "family",
            "family": family, "n": n, "p": _p(rng, family, n, inside), "samples": SAMPLES,
            "seed": int(rng.integers(0, 1 << 30))}


def lib_requests(seed: int, cycles: int) -> list[dict]:
    """Half family, half diagonal requests; every cycle covers each dimension.

    Within a cycle and dimension the family request alternates inside and
    outside the CPTP range, and the diagonal request alternates between the
    family's own multipliers and small random ones.
    """

    rng = np.random.default_rng([seed, 3])
    out = []
    for cycle in range(cycles):
        batch = []
        for i, n in enumerate(VERDICT_DIMS):
            inside = (cycle + i) % 2 == 0
            batch.append(verdict_request(rng, n, "family", inside))
            diag_kind = "from-family" if (cycle + i) % 2 == 0 else "small"
            batch.append(verdict_request(rng, n, diag_kind, (cycle // 2 + i) % 2 == 0))
        out += [batch[i] for i in rng.permutation(len(batch))]
    for i, req in enumerate(out):
        req["id"] = i
    return out


def ladder_requests(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 4])
    return [verdict_request(rng, n, "small", True) for n in LADDER_DIMS]


WARMUP_REQUEST = {"channel": "diagonal", "source": "family", "family": "dcq", "n": 8,
                  "p": 0.01, "samples": SAMPLES, "seed": 0, "id": -1}
