"""Constant norm is decided exactly by the n^2 witness states, at every n.

By Parseval, each witness state's squared output norm under a diagonal
channel is affine in the squared multipliers w = t^2: it is the formula of
``verification._witness_norms``, transcribed below in ``Fraction``s.  All
n^2 norms equal to one value N give n^2 linear equations in the n^2 - 1
values of w and N' = N - 1/n, homogeneous since every norm is 1/n at
w = 0.  The elimination runs in two steps:

* psi_k - psi_(k-1) = (k-1)/k (w_z,k - w_z,(k-1)) for k >= 2, and
  psi_1 = psi_0 for every w, so equal psi norms set every z multiplier to
  one value tau, and psi_0 sets N' = tau (1 - 1/n);
* each xi_kl or eta_kl equation holds its own pair multiplier with
  coefficient 1/2, so it fixes that multiplier from tau: to tau.

So the only solutions are w = tau (1, ..., 1): a diagonal channel maps
every witness state to one norm iff all its multiplier moduli agree, and
``constant_fnorm_criterion`` is necessary as well as sufficient.  The
elimination imports neither NumPy nor qchan; one more test holds the
transcription to ``_witness_norms`` itself.
"""

import math
import random
from fractions import Fraction

import pytest


def z_sums(n, w_z):
    """c_j = w_z,j / (j (j+1)) with c_0 = 0, and the suffix sums s_j = c_j + ... + c_(n-1), s_n = 0."""

    c = [Fraction(0)] + [Fraction(w) / (j * (j + 1)) for j, w in enumerate(w_z, start=1)]
    s = [Fraction(0)] * (n + 1)
    for j in reversed(range(n)):
        s[j] = s[j + 1] + c[j]
    return c, s


def psi_squares(n, w_z):
    """Squared output norms of psi_0..psi_(n-1): 1/n + c_k k^2 + s_(k+1), zero-based.  No pair term enters."""

    c, s = z_sums(n, w_z)
    return [Fraction(1, n) + c[k] * k * k + s[k + 1] for k in range(n)]


def pair_squares(n, w_z, w):
    """Squared output norms of xi_kl (``w`` = w_x) or eta_kl (``w`` = w_y), k < l zero-based, in pair order:
    1/n + (c_k k^2 + s_(k+1) - s_l + c_l (l-1)^2)/4 + s_(l+1) + w_kl/2."""

    c, s = z_sums(n, w_z)
    head = [c[k] * k * k + s[k + 1] for k in range(n)]
    tail = [c[l] * (l - 1) ** 2 - s[l] for l in range(n)]
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    return [Fraction(1, n) + (head[k] + tail[l]) / 4 + s[l + 1] + Fraction(w_kl, 2) for (k, l), w_kl in zip(pairs, w)]


@pytest.mark.parametrize("n", range(2, 65))
def test_equal_witness_norms_force_equal_moduli(n):
    pairs = n * (n - 1) // 2
    no_z, no_pairs = [0] * (n - 1), [0] * pairs
    # Every norm is 1/n at w = 0, so the equations are homogeneous in (w, N').
    assert psi_squares(n, no_z) == [Fraction(1, n)] * n
    assert pair_squares(n, no_z, no_pairs) == [Fraction(1, n)] * pairs

    # Step 1: the psi rows over w_z,1..w_z,(n-1), column by column.
    columns = [[x - Fraction(1, n) for x in psi_squares(n, [int(i == j) for i in range(n - 1)])] for j in range(n - 1)]
    rows = list(zip(*columns))
    assert rows[1] == rows[0]
    for k in range(2, n):
        step = [0] * (n - 1)
        step[k - 1], step[k - 2] = Fraction(k - 1, k), -Fraction(k - 1, k)
        assert [a - b for a, b in zip(rows[k], rows[k - 1])] == step
    # Every w_z is tau; at tau = 1, psi_0 sets N = 1/n + (1 - 1/n).
    tau = [1] * (n - 1)
    assert psi_squares(n, tau) == [Fraction(1)] * n

    # Step 2: each pair row holds its own multiplier, with coefficient 1/2, and no other.
    labels = list(range(1, pairs + 1))
    assert [x - Fraction(1, n) for x in pair_squares(n, no_z, labels)] == [Fraction(q, 2) for q in labels]
    # So each equation fixes its multiplier: at tau = 1, to 1.
    rest = pair_squares(n, tau, no_pairs)
    assert [2 * (1 - r) for r in rest] == [1] * pairs


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_the_transcription_is_the_witness_norms_formula(n):
    from qchan.channels import DiagonalChannel
    from dense_oracles import witness_norms

    rng = random.Random(n)
    t = [rng.randint(-16, 16) / 16 for _ in range(n * n - 1)]
    pairs = n * (n - 1) // 2
    w_x, w_y, w_z = ([Fraction(x) ** 2 for x in part] for part in (t[:pairs], t[pairs : 2 * pairs], t[2 * pairs :]))
    exact = psi_squares(n, w_z) + pair_squares(n, w_z, w_x) + pair_squares(n, w_z, w_y)
    got = witness_norms(DiagonalChannel(n, t))
    assert len(got) == len(exact) == n * n
    for norm, square in zip(got, exact):
        assert math.isclose(float(norm) ** 2, square, rel_tol=1e-13)
