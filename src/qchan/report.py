"""The sections of the ``report`` command: every check of the four families at one dimension.

Only ``report`` imports this module (``cli._cmd_report``, once the size
guard has passed), so that no other command compiles it.  The checks are
looked up in their home modules at each call.
"""

from __future__ import annotations

import itertools
from typing import Any

from . import equivalence, representations, verification
from .channels import FamilyChannel
from .exact import Family, param_range

__all__ = ["report_sections"]


def report_sections(n: int, samples: int, seed: int, **kwargs: Any) -> tuple[dict, bool]:
    """The report's sections at dimension ``n`` and whether every check in them passed.

    ``kwargs`` is empty or holds the ``tol`` that every check takes; without
    it, each check keeps its own default.
    """

    ranges = {family.value: param_range(family, n) for family in Family}
    endpoints = {}
    for family, info in zip(Family, ranges.values()):
        # The range's endpoints must pass and the members 0.01 outside it must fail.
        probes = {"p_min": info.p_min, "p_max": info.p_max, "below": info.p_min - 0.01, "above": info.p_max + 0.01}
        entry = {
            label: verification.is_cptp(FamilyChannel(family, p, n), n, **kwargs) for label, p in probes.items()
        }
        entry["passed"] = [rep.passed for rep in entry.values()] == [True, True, False, False]
        endpoints[family.value] = entry

    # Each family is checked at the midpoint of its range: its sample test is
    # its own call with the report's seed, so every member reads the same
    # Haar states, and the representation inputs are drawn once for all four.
    channels = [FamilyChannel(f, (info.p_min + info.p_max) / 2, n) for f, info in zip(Family, ranges.values())]
    sample_reports = [verification.constant_fnorm_sample_test(ch, n, samples, seed, **kwargs) for ch in channels]
    reps = representations._representation_reports(channels, n, 50, seed, **kwargs)
    constant_norm, represented, kraus = {}, {}, {}
    for ch, sample, rep in zip(channels, sample_reports, reps):
        holds, expected = verification.constant_fnorm_criterion(ch, **kwargs)
        name = ch.family.value
        constant_norm[name] = {"p": ch.p, "criterion_holds": holds, "expected_norm": expected, "report": sample}
        represented[name] = {"p": ch.p, "report": rep}
        count, deviation, ok = representations._kraus_count_and_deviation(ch.family, ch.p, n, **kwargs)
        kraus[name] = {"p": ch.p, "operators": count, "completeness_deviation": deviation, "passed": ok}

    identities = representations.verify_sum_identities(n, trials=25, seed=seed, **kwargs)
    det = representations.verify_det_recurrence(n, **kwargs)
    # The qubit equivalences at n = 2, and every pair's inequivalence certificate above.
    if n == 2:
        equivalence_checks = [equivalence.qubit_equivalence_check(0.5, trials=50, seed=seed, **kwargs)]
        equivalence_section = {"qubit_equivalence": equivalence_checks[0]}
    else:
        pairs = itertools.combinations(Family, 2)
        equivalence_checks = [equivalence.inequivalence_certificate(pair, n) for pair in pairs]
        equivalence_section = {"certificates": [{"certificate": c, "passed": c.passed} for c in equivalence_checks]}
    sections = {
        "ranges": ranges,
        "cptp_endpoints": endpoints,
        "constant_norm": constant_norm,
        "representations": represented,
        "kraus": kraus,
        "identities": identities,
        "determinant": det,
        **equivalence_section,
    }
    passed = all(
        [
            *(entry["passed"] for entry in (*endpoints.values(), *kraus.values())),
            *(entry["criterion_holds"] for entry in constant_norm.values()),
            *(record.passed for record in (*sample_reports, *reps, identities, det, *equivalence_checks)),
        ]
    )
    return sections, passed
