"""The CP verdict of a sector-constant channel from its four closed-form Choi eigenvalues.

A channel whose multipliers are x on every pair's x sector, y on every y
and z on every staircase element (the four families, and any diagonal
channel with such multipliers) has the Choi eigenvalues of
``exact._sector_choi_spectrum``, as integers over 2 n d.  ``is_cptp`` sends
such a channel, by its multipliers alone, to ``exact._sector_cptp``, and
every other channel to the Choi blocks (``verification._block_cptp``).
The tests hold the integers to ``repr_coefficients`` in ``Fraction``s and
to the dense Choi matrix, the verdict to ``dense_is_cptp``, the exact
endpoints of the paper's intervals to a smallest eigenvalue of exactly
0.0, and the witness location to one block however rounding falls.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import verification
from qchan.channels import DiagonalChannel, FamilyChannel, family_to_diagonal
from qchan.exact import (
    _SIGNS,
    Family,
    Tolerance,
    _sector_choi_spectrum,
    _sector_cptp,
    cptp_range,
    param_range,
    repr_coefficients,
)
from qchan.linalg import frobenius_norm
from qchan.representations import to_choi
from qchan.verification import is_cptp

from dense_oracles import dense_is_cptp


def sector_channel(n, x, y, z):
    """The diagonal channel with t_x = x, t_y = y and t_z = z on every entry of each sector."""

    cnt = n * (n - 1) // 2
    return DiagonalChannel(n, np.repeat([x, y, z], [cnt, cnt, n - 1]))


@st.composite
def sector_values(draw, max_dim=6):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    scale = draw(st.sampled_from([1 / n, 1.0, 3.0]))
    x, y, z = (draw(st.floats(-1, 1)) * scale for _ in range(3))
    return n, x, y, z


@given(sector_values())
@settings(max_examples=150, deadline=None)
def test_verdict_and_eigenvalue_are_the_dense_ones(values):
    n, x, y, z = values
    ch = sector_channel(n, x, y, z)
    fast, dense = is_cptp(ch, n), dense_is_cptp(ch, n)
    assert fast.min_choi_eigenvalue == pytest.approx(dense.min_choi_eigenvalue, rel=1e-9, abs=1e-12)
    if abs(dense.min_choi_eigenvalue) > 1e-6:  # away from the boundary, where rounding cannot decide
        assert fast.passed is dense.passed


@given(sector_values(max_dim=5))
@settings(max_examples=60, deadline=None)
def test_integers_are_the_dense_spectrum(values):
    n, x, y, z = values
    e0, ez, ex, ey, den = _sector_choi_spectrum(x, y, z, n)
    cnt = n * (n - 1) // 2
    exact = np.repeat([e0 / den, ez / den, ex / den, ey / den], [1, n - 1, cnt, cnt])
    dense = np.linalg.eigvalsh(to_choi(sector_channel(n, x, y, z), n))
    assert np.allclose(np.sort(exact), dense, rtol=0, atol=1e-12 * max(1.0, abs(dense).max()))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
def test_integers_are_2n_times_the_e_weights(family, n):
    r = param_range(family, n)
    for p in (r.p_min, r.p_max, 0.0, -0.3, 0.1, 1.5, -1e100, 1e-300, 5e-324):
        e0, ez, ex, ey, den = _sector_choi_spectrum(*(s * p for s in _SIGNS[family]), n)
        w = repr_coefficients(family, Fraction(p), n)
        assert [Fraction(e, den) for e in (e0, ex, ey, ez)] == [w.e0, w.ex, w.ey, w.ez]
        assert den == 2 * n * Fraction(p).denominator


def test_rational_multipliers_are_exact():
    # Denominators that are not powers of two, and differ: the integers are over their least common multiple.
    x, y, z = Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7)
    for n in (2, 3, 9):
        *e, den = _sector_choi_spectrum(x, y, z, n)
        u = (1 - z) / n
        want = [z + u + (n - 1) * (x + y) / 2, z + u - (x + y) / 2, u + (x - y) / 2, u - (x - y) / 2]
        assert [Fraction(v, den) for v in e] == want
        assert den == 2 * n * 105


@pytest.mark.parametrize("family", list(Family))
def test_exact_endpoints_have_a_zero_eigenvalue(family):
    for n in range(2, 65):
        for p in cptp_range(family, Fraction(n)):
            report = _sector_cptp(*(s * p for s in _SIGNS[family]), n)
            assert report.min_choi_eigenvalue == 0.0 and report.passed, (n, p)
            assert min(_sector_choi_spectrum(*(s * p for s in _SIGNS[family]), n)[:4]) == 0


def test_dep_below_p_min_fails_in_the_classical_block():
    for n in (2, 3, 16, 64, 4000):
        report = is_cptp(FamilyChannel(Family.DEP, param_range(Family.DEP, n).p_min * 1.5, n), n)
        assert not report.passed
        assert report.witness.endswith(" in classical block")


@pytest.mark.parametrize("family", [Family.TRD, Family.TCQ])
def test_transposing_members_above_p_max_fail_in_the_first_pair_block(family):
    # Every pair block holds the smallest eigenvalue exactly, so the first is named, whatever rounding does.
    for p in (0.02, 0.05, 0.5, 1.0):
        for ch in (FamilyChannel(family, p, 64), family_to_diagonal(FamilyChannel(family, p, 64))):
            report = is_cptp(ch, 64)
            assert not report.passed
            assert report.witness.endswith(" in pair block (1,2)")


def test_a_tie_goes_to_the_classical_block():
    # dep above p = 1: ez = ex = ey = 2(1 - p) exactly, below e0.
    e0, ez, ex, ey, _ = _sector_choi_spectrum(1.5, 1.5, 1.5, 5)
    assert ez == ex == ey < e0
    report = is_cptp(FamilyChannel(Family.DEP, 1.5, 5), 5)
    assert report.witness.endswith(" in classical block")


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_block_path_agrees_on_members(n):
    for family in Family:
        r = param_range(family, n)
        for p in (r.p_min, r.p_max, r.p_min - 0.01, r.p_max + 0.01, 0.0, 0.3, -0.7):
            member = FamilyChannel(family, p, n)
            fast, blocks = is_cptp(member, n), verification._block_cptp(member)
            assert fast.passed is blocks.passed
            assert fast.min_choi_eigenvalue == pytest.approx(blocks.min_choi_eigenvalue, rel=1e-12, abs=1e-13)
            e0, ez, ex, ey, _ = _sector_choi_spectrum(*(s * p for s in _SIGNS[family]), n)
            if not fast.passed and min(e0, ez) != min(ex, ey):  # no tie between the kinds of block
                assert ("classical" in fast.witness) == ("classical" in blocks.witness)


def test_member_and_its_multipliers_get_the_same_report():
    for family in Family:
        for n in (2, 5, 30):
            for p in (-1e100, -0.4, 0.0, 0.01, 0.9, 7.0):
                member = FamilyChannel(family, p, n)
                assert repr(is_cptp(member, n)) == repr(is_cptp(DiagonalChannel(n, member.t), n))


def test_a_member_is_decided_without_building_its_multipliers():
    member = FamilyChannel(Family.DCQ, 0.0001, 10**6)
    report = is_cptp(member, 10**6)
    assert "t" not in member.__dict__
    assert not report.passed and report.witness.endswith(" in classical block")


def test_one_ulp_off_takes_the_blocks():
    t = family_to_diagonal(FamilyChannel(Family.DCQ, 0.05, 6)).t.copy()
    for i in (0, 15, 30, len(t) - 1):
        off = t.copy()
        off[i] = math.nextafter(off[i], 1.0)
        ch = DiagonalChannel(6, off)
        assert verification._sector_values(ch) is None
        with mock.patch.object(verification, "_sector_cptp", side_effect=AssertionError("sector path")):
            assert repr(is_cptp(ch, 6)) == repr(verification._block_cptp(ch))
    zeros = DiagonalChannel(3, np.array([0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0]))
    assert verification._sector_values(zeros) is None  # -0.0 and 0.0 differ bit for bit


@given(sector_values(max_dim=24))
@settings(max_examples=80, deadline=None)
def test_scale_is_the_choi_norm_to_rounding(values):
    n, x, y, z = values
    ch = sector_channel(n, x, y, z)
    scales = []
    bound = Tolerance.bound
    with mock.patch.object(Tolerance, "bound", lambda tol, scale: scales.append(scale) or bound(tol, scale)):
        is_cptp(ch, n)
    assert scales[0] == pytest.approx(math.hypot(1.0, frobenius_norm(ch.t)), rel=4 * n * n * 2**-52)


def test_scale_is_finite_at_the_magnitude_bound():
    report = _sector_cptp(1e100, -1e100, 1e100, 4634)
    assert not report.passed and math.isfinite(report.min_choi_eigenvalue)
    assert _sector_cptp(1e100, 1e100, 1e100, 2, Tolerance(0.4, 0.4)).passed  # README's loose --tol case
