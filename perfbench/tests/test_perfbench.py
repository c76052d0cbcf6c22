"""Tests of the benchmark's own logic: inputs, oracle, statistics, spans.

None of them runs qchan; they check the benchmark on synthetic data.

    python -m pytest perfbench/tests -q
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import host  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# --- seeded inputs -------------------------------------------------------------------


def test_same_seed_same_inputs():
    assert json.dumps(workloads.cli_short_cycle(7)) == json.dumps(workloads.cli_short_cycle(7))
    assert workloads.cli_report_cycle(7) == workloads.cli_report_cycle(7)
    assert json.dumps(workloads.lib_requests(7, 3)) == json.dumps(workloads.lib_requests(7, 3))
    assert json.dumps(workloads.ladder_requests(7)) == json.dumps(workloads.ladder_requests(7))


def test_other_seed_other_inputs_same_mix():
    rows_a, _ = workloads.cli_short_cycle(1)
    rows_b, _ = workloads.cli_short_cycle(2)
    assert [r["argv"] for r in rows_a] != [r["argv"] for r in rows_b]
    assert Counter(r["kind"] for r in rows_a) == Counter(r["kind"] for r in rows_b)
    mix = lambda reqs: Counter((r["channel"], r["n"]) for r in reqs)  # noqa: E731
    assert mix(workloads.lib_requests(1, 4)) == mix(workloads.lib_requests(2, 4))
    assert workloads.lib_requests(1, 4) != workloads.lib_requests(2, 4)


def test_lib_requests_are_half_family_half_diagonal():
    reqs = workloads.lib_requests(3, 4)
    kinds = Counter(r["channel"] for r in reqs)
    assert kinds["family"] == kinds["diagonal"] == 4 * len(workloads.VERDICT_DIMS)
    assert any(r["source"] == "small" for r in reqs)
    assert any(r["channel"] == "diagonal" and r["source"] == "family" for r in reqs)


def test_small_multipliers_respect_triangle_bound():
    for req in workloads.ladder_requests(5):
        verdict = oracle.expected_verdict(req)
        assert verdict["cptp"] is True and verdict["constant_norm"] is False
        assert max(abs(t) for t in req["t"]) < oracle.triangle_bound(req["n"])


# --- oracle ------------------------------------------------------------------------


def _cptp_row(inside: bool) -> dict:
    family, n = "dcq", 5
    lo, hi = (float(v) for v in oracle.cptp_range(family, n))
    p = (lo + hi) / 2 if inside else hi + 0.1
    return {"kind": "verify-cptp", "family": family, "n": n, "p": p}


def _cptp_stdout(passed: bool, eig: float) -> str:
    return json.dumps({"report": {"passed": passed, "min_choi_eigenvalue": eig, "trace_violation": 0.0}})


def test_oracle_accepts_consistent_cptp_outputs():
    assert oracle.check_cli(_cptp_row(True), 0, _cptp_stdout(True, 0.01)) == []
    assert oracle.check_cli(_cptp_row(False), 1, _cptp_stdout(False, -0.02)) == []


def test_oracle_flags_wrong_exit_code():
    assert oracle.check_cli(_cptp_row(True), 1, _cptp_stdout(True, 0.01)) == ["exit 1, expected 0"]
    usage = {"kind": "usage-error", "argv": ["range", "--dim", "1"]}
    assert oracle.check_cli(usage, 2, "") == []
    assert oracle.check_cli(usage, 0, "{}") == ["exit 0, expected 2"]


def test_oracle_flags_planted_wrong_verdict():
    reasons = oracle.check_cli(_cptp_row(True), 0, _cptp_stdout(False, 0.01))
    assert any("cptp verdict False" in r for r in reasons)
    req = {"channel": "family", "source": "family", "family": "dep", "n": 8, "p": 0.5,
           "samples": 200, "seed": 0}
    good = {"cptp": True, "constant_norm": True, "expected_norm": oracle.expected_norm(8, 0.5),
            "trace_violation": 0.0, "samples_used": 64 + 200}
    assert oracle.check_verdict(req, good) == []
    assert oracle.check_verdict(req, dict(good, cptp=False)) == ["cptp verdict False, expected True"]
    assert oracle.check_verdict(req, dict(good, expected_norm=0.5))


def test_oracle_scores_vacuous_pass():
    row = {"kind": "identities", "n": 3, "trials": 0}
    assert oracle.check_cli(row, 0, "{}")
    assert oracle.check_cli(row, 1, "{}") == []


def test_cptp_table_endpoints():
    assert oracle.in_cptp_range("dep", 3, -1 / 8)
    assert not oracle.in_cptp_range("dep", 3, -0.126)
    assert oracle.cptp_range("dcq", 4) == (oracle.Fraction(-1, 7), oracle.Fraction(1, 9))


# --- statistics --------------------------------------------------------------------


@pytest.mark.parametrize("count", [11, 16, 48, 100, 1000])
def test_tail_percentile_leaves_ten_beyond(count):
    values = [float(v) for v in range(1, count + 1)]
    pct, value, n = stats.tail_percentile(values)
    assert n == count
    rank = int(value)  # values are their own 1-based ranks
    assert count - rank >= 10
    higher_rank = -(-(pct + 1) * count // 100)
    assert pct == 99 or count - higher_rank < 10


def test_tail_percentile_known_values():
    assert stats.tail_percentile([float(v) for v in range(1, 101)]) == (90, 90.0, 100)
    assert stats.tail_percentile([float(v) for v in range(1, 49)]) == (79, 38.0, 48)
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0, 3)


def test_self_time_on_synthetic_tree():
    spans = [
        (0, "root", 0, 100, None),
        (1, "a", 10, 40, 0),
        (2, "b", 30, 60, 0),  # overlaps a: the union 10..60 covers 50 of root
        (3, "leaf", 15, 20, 1),
        (4, "leaf", 55, 70, 2),  # runs past its parent: only 55..60 counts against b
        (5, "a", 80, 90, 0),
    ]
    got = stats.self_times(spans)
    assert got["root"] == (1, 100 - 50 - 10)
    assert got["a"] == (2, (30 - 5) + 10)
    assert got["b"] == (1, 30 - 5)
    assert got["leaf"] == (2, 5 + 15)


def test_covered_length_merges_and_clips():
    assert stats.covered_length([(0, 5), (3, 8), (10, 12)], 2, 11) == 6 + 1
    assert stats.covered_length([], 0, 10) == 0


def test_host_scale_uses_nearest_references():
    speed = host.HostSpeed("spawn", lambda: 0.06)
    speed.samples = [0.06] * 10 + [0.12] * 10  # the host halves its speed halfway
    ops = speed.scale_ops([{"wall": 1.0, "ref": 0}, {"wall": 2.0, "ref": 19}])
    assert ops[0]["scaled"] == pytest.approx(1.0)
    assert ops[1]["scaled"] == pytest.approx(1.0)
    speed.samples = [0.03, 0.09, 0.06]  # fewer references than the window: their median
    assert speed.scale(1) == pytest.approx(1.0)
