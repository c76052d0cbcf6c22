"""Composition is the product of multipliers.

A diagonal channel scales each traceless Hermitian basis coordinate by its
multiplier and keeps the identity coordinate, so Phi_s after Phi_t is the
diagonal channel of s * t, entry by entry.  Three consequences are checked
here, with no public function added for them:

* the law itself, through the apply engine, on hypothesis channels;
* the four families' sign patterns multiply as the Klein four-group (dep
  the identity, each member its own inverse, trd o dcq = tcq), so
  X(p) o Y(q) = (X.Y)(pq);
* the CPTP channels are closed under composition, so each product of an
  endpoint of X's interval with one of Y's lies in X.Y's interval: exact
  inequalities on ``cptp_range``'s table, in ``Fraction``s, from a fact
  that does not use the table.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qchan.channels import DiagonalChannel, FamilyChannel
from qchan.exact import _SIGNS, Family, cptp_range
from qchan.linalg import frobenius_norm

DEP, TRD, DCQ, TCQ = Family.DEP, Family.TRD, Family.DCQ, Family.TCQ

# X o Y for every ordered pair: the Klein four-group with dep as the identity.
TABLE = {
    (DEP, DEP): DEP, (DEP, TRD): TRD, (DEP, DCQ): DCQ, (DEP, TCQ): TCQ,
    (TRD, DEP): TRD, (TRD, TRD): DEP, (TRD, DCQ): TCQ, (TRD, TCQ): DCQ,
    (DCQ, DEP): DCQ, (DCQ, TRD): TCQ, (DCQ, DCQ): DEP, (DCQ, TCQ): TRD,
    (TCQ, DEP): TCQ, (TCQ, TRD): DCQ, (TCQ, DCQ): TRD, (TCQ, TCQ): DEP,
}


def assert_applies_alike(first, second, composed, rng):
    """``first(second(S))`` agrees with ``composed(S)`` on a stack of complex inputs, to rounding."""

    n = composed.dim
    s = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    got, want = first(second(s)), composed(s)
    for g, w, m in zip(got, want, s):
        assert frobenius_norm(g - w) <= 4 * n * np.finfo(float).eps * frobenius_norm(m)


@st.composite
def channel_pairs(draw):
    """Two diagonal channels of one dimension n = 2..8, with multipliers in [-1, 1]."""

    n = draw(st.integers(min_value=2, max_value=8))
    s, t = (draw(arrays(float, n * n - 1, elements=st.floats(-1, 1))) for _ in range(2))
    return DiagonalChannel(n, s), DiagonalChannel(n, t)


@given(channel_pairs(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_composition_is_the_channel_of_the_product(pair, seed):
    first, second = pair
    assert_applies_alike(first, second, DiagonalChannel(first.dim, first.t * second.t), np.random.default_rng(seed))


def test_sign_patterns_multiply_as_the_klein_four_group():
    for (x, y), xy in TABLE.items():
        assert tuple(a * b for a, b in zip(_SIGNS[x], _SIGNS[y])) == _SIGNS[xy], (x, y)
    assert all(TABLE[DEP, x] is x is TABLE[x, DEP] for x in Family)
    assert all(TABLE[x, x] is DEP for x in Family)
    assert all(TABLE[x, y] is TABLE[y, x] for x, y in TABLE)


@given(
    st.sampled_from(list(Family)),
    st.sampled_from(list(Family)),
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_members_compose_by_the_table(x, y, p, q, n, seed):
    first, second, composed = FamilyChannel(x, p, n), FamilyChannel(y, q, n), FamilyChannel(TABLE[x, y], p * q, n)
    # A sign flip is exact, so the product's multipliers are the composed member's bit for bit.
    assert (first.t * second.t).tobytes() == composed.t.tobytes()
    assert_applies_alike(first, second, composed, np.random.default_rng(seed))


@pytest.mark.parametrize("n", range(2, 40))
def test_cptp_intervals_are_closed_under_composition(n):
    d = Fraction(n)
    for x, y in product(Family, repeat=2):
        lo, hi = cptp_range(TABLE[x, y], d)
        for p, q in product(cptp_range(x, d), cptp_range(y, d)):
            assert lo <= p * q <= hi, (n, x, y, p, q)
