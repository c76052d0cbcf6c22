"""Numerical verification: complete positivity, trace preservation, constant norm.

Everything here returns the plain records of :mod:`qchan.exact` with the
measured numbers embedded, so a report can be re-checked without
re-running the computation.  The conventions:

* every verdict takes a channel object, a ``DiagonalChannel`` (a
  ``FamilyChannel`` is one), through ``as_linear_map``, whose TypeError
  refuses anything else, and uses its multipliers with no conversion:
  block-wise Choi checks, and constant-norm samples whose squared norms
  come by Parseval straight from the multipliers, in O(n^2) for all n^2
  witness states and per Haar state, with no projector built;
* complete positivity is decided by the smallest Choi eigenvalue with a
  threshold scaled to the Choi matrix's Frobenius norm; that eigenvalue
  is exact, in O(1), for multipliers constant on each sector, and comes
  block by block otherwise;
* trace preservation holds by construction (the identity multiplier is 1,
  every other basis element traceless), so no verdict measures it;
* the constant-norm criterion for diagonal channels is that all n^2 - 1
  multiplier moduli agree, in which case every pure input maps to output
  Frobenius norm sqrt(1/n + t^2 (1 - 1/n)); it is necessary too, since
  the n^2 witness states of the sample test alone force equal moduli;
* Haar states come in stacks from the one random stream of
  :mod:`qchan.linalg`, with the bits of one-at-a-time draws.

The conjugation-sum identities, the representation checks, the
determinant recurrence and the qubit classification, which only
``identities``, ``detcheck`` and ``report`` run, are in
:mod:`qchan.representations`, and the records and parameter ranges in
:mod:`qchan.exact`.
"""

from __future__ import annotations

from math import hypot, sqrt
from typing import Any, Optional

import numpy as np

from .channels import DiagonalChannel, FamilyChannel, _choi_blocks, as_linear_map
from .exact import _SIGNS, DEFAULT_TOL, Tolerance, VerificationReport, _sector_cptp
from .jsonio import integer
from .linalg import _haar_vectors, _pair_index, _pair_plane, _steps

__all__ = [
    "is_cptp",
    "constant_fnorm_criterion",
    "constant_fnorm_sample_test",
]


def __getattr__(name: str) -> Any:
    # Only perfbench/spans.py's TRACED still looks these names up here.
    if name in ("verify_representations", "verify_sum_identities"):
        from . import representations

        return getattr(representations, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def is_cptp(ch: DiagonalChannel, n: int, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Choi-based complete positivity check of a trace-preserving channel.

    CP holds when the smallest Choi eigenvalue is above -tol of the Choi
    norm.  A channel whose t_x, t_y and t_z are each constant, bit for bit
    (every family member, and any diagonal channel with such multipliers),
    has four Choi eigenvalues in closed form: ``exact._sector_cptp`` finds
    the smallest exactly, in O(1) time and memory, with no array formed.
    Any other channel goes block by block (:func:`_block_cptp`), in
    O(n^3) time and O(n^2) memory.  A channel is sent by its multipliers
    alone, so a member and ``DiagonalChannel(n, member.t)`` get the same
    report.

    Trace preservation holds by construction, so ``trace_violation`` is 0.0
    (D's row sums would lose their 1/n terms next to multipliers of 1e100);
    ``tests/dense_oracles.py::dense_is_cptp`` measures any map's partial trace.
    """

    ch = as_linear_map(ch)
    if ch.dim != n:
        raise ValueError(f"dimension mismatch: channel dim {ch.dim}, n={n}")
    sectors = _sector_values(ch)
    if sectors is not None:
        return _sector_cptp(*sectors, n, tol)
    return _block_cptp(ch, tol)


def _sector_values(ch: DiagonalChannel) -> Optional[tuple[float, float, float]]:
    """(x, y, z) if t_x, t_y and t_z are each constant, bit for bit, else None.

    A family member's are its signs times p, the values its ``t`` holds, so its ``t`` is not built.
    """

    if isinstance(ch, FamilyChannel):
        return tuple(s * ch.p for s in _SIGNS[ch.family])
    for part in (ch.t_x, ch.t_y, ch.t_z):
        bits = part.view(np.int64)
        if (bits != bits[0]).any():
            return None
    return float(ch.t_x[0]), float(ch.t_y[0]), float(ch.t_z[0])


def _block_cptp(ch: DiagonalChannel, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """:func:`is_cptp`'s report from the Choi blocks, for any channel: O(n^3) time, O(n^2) memory.

    The Choi matrix is block diagonal (``channels._choi_blocks``): the
    classical block, whose eigenvalues LAPACK gives, and for each pair
    k < l a block [[L_l, b_kl], [b_kl, L_l]] with eigenvalues L_l +- |b_kl|.

    The Choi norm is sqrt(1 + |t|^2), with no Choi entry formed: the Choi
    matrix's entries are those of the superoperator in the matrix-unit
    basis, reshuffled, and in the orthonormal Hermitian basis, whose
    change from that basis is unitary, the superoperator is diag(1, t).
    It is hypot(1, sqrt(t . t)), one dot product with the bits of
    ``frobenius_norm(t)``, and cannot overflow: every |t_i| is at most 1e100.
    """

    classical, lower = _choi_blocks(ch)
    classical_min = float(np.linalg.eigvalsh(classical)[0])
    k, l = _pair_index(ch.dim)
    pair_mins = lower[l] - np.abs(ch.t_x - ch.t_y) / 2  # L_l - |b_kl|, in pair order
    worst = int(pair_mins.argmin())
    if classical_min <= pair_mins[worst]:
        smallest, where = classical_min, " in classical block"
    else:
        smallest, where = float(pair_mins[worst]), f" in pair block ({k[worst] + 1},{l[worst] + 1})"
    passed = smallest >= -tol.bound(hypot(1.0, sqrt(ch.t.dot(ch.t))))
    return VerificationReport(
        passed=passed,
        min_choi_eigenvalue=smallest,
        trace_violation=0.0,
        witness=None if passed else f"negative Choi eigenvalue {smallest:.6e}{where}",
    )


def constant_fnorm_criterion(
    ch: DiagonalChannel, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, Optional[float]]:
    """(holds, expected output norm) — holds iff all multiplier moduli agree.

    The norm, None where the criterion fails, is that of every pure input's
    output: sqrt(1/n + t^2 (1 - 1/n)), with t the first modulus.
    """

    ch = as_linear_map(ch)
    moduli = np.abs(ch.t)
    largest = np.maximum.reduce(moduli)
    if float(largest - np.minimum.reduce(moduli)) > tol.bound(float(largest)):
        return False, None
    t = float(moduli[0])
    return True, sqrt(1 / ch.dim + t * t * (1 - 1 / ch.dim))


def _witness_norms(diag: DiagonalChannel, c: np.ndarray) -> np.ndarray:
    """Output Frobenius norms of the witness states by Parseval, in O(n^2) time, with no n x n product.

    A state's squared output norm is Tr(S)^2/n + sum_j c_j Tr(M_j S)^2 on
    the diagonal, with c_j = t_z,j^2 / (j (j+1)) and the staircase M_j of
    ``channels.diagonal_image`` (|M_j|^2 = j (j+1)), plus its pair
    sectors' t_x^2 or t_y^2 terms.  With c_0 = 0 and the suffix sums
    s_j = sum_{i >= j} c_i (zero-based), that is 1/n + c_k k^2 + s_{k+1}
    for psi_k, and for xi_kl (eta_kl), k < l,

        1/n + (c_k k^2 + s_{k+1} - s_l + c_l (l-1)^2)/4 + s_{l+1} + t_x,kl^2/2 (t_y,kl^2/2).

    Every term is nonnegative, so no sum cancels, whatever the multipliers.
    ``c`` is c_0..c_{n-1} and a zero that ends the suffix sums, as the sample test forms them.
    """

    n = diag.dim
    s = c[::-1].cumsum()[::-1]  # s_j for j = 0..n, with s_n = 0
    squares = np.arange(-1.0, n) ** 2  # (i-1)^2 for i = 0..n
    own = c[:n] * squares[1:]  # c_i i^2
    k, l = _pair_index(n)  # lexicographic pair order, as t_x and t_y
    # Each term of one index is formed for all n indices, then gathered by k or l, in the formula's order.
    pair_diag = (own + s[1:])[k]
    pair_diag -= s[l]
    pair_diag += (c[:n] * squares[:n])[l]
    pair_diag /= 4
    pair_diag += 1 / n
    pair_diag += s[1:][l]
    out = np.empty(n * n)
    np.add(1 / n, own, out=out[:n])
    out[:n] += s[1:]
    np.add(pair_diag, diag.t_x**2 / 2, out=out[n : n + len(k)])
    np.add(pair_diag, diag.t_y**2 / 2, out=out[n + len(k) :])
    return np.sqrt(out, out=out)


def _state_label(n: int, i: int) -> str:
    """Label of the sample test's state i: psi_k, xi_(k,l), eta_(k,l) in witness order, then haar_{i - n^2}."""

    if i < n:
        return f"psi_{i}"
    if i >= n * n:
        return f"haar_{i - n * n}"
    k, l = _pair_index(n)
    sector, q = divmod(i - n, len(k))
    return f"{('xi', 'eta')[sector]}_({k[q] + 1},{l[q] + 1})"


def constant_fnorm_sample_test(
    ch: DiagonalChannel,
    n: int,
    samples: int = 1000,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Constant-norm check on the n^2 witness states, cross-checked on ``samples`` Haar states.

    Passes when the spread of output Frobenius norms stays within
    tolerance of the largest observed norm; the witness field names the
    states achieving the extreme norms otherwise.  The witness norms alone
    decide equal multiplier moduli exactly, at every n: equal norms on the
    psi states force every t_z^2 to one value, and each xi or eta state
    then fixes its own pair's t_x^2 or t_y^2 to it
    (``tests/test_constant_norm_theorem.py`` runs that elimination in
    exact arithmetic).  The Haar draws are a cross-check.  Every norm comes
    by Parseval from the multipliers, and no projector is built: the
    witness norms from suffix sums (:func:`_witness_norms`, O(n^2) in
    all), and the Haar samples' as quadratic forms on stacks of draws,
    O(n^2) per state.

    Write a stack of unit vectors as v = x + iy, with X = x^2, Y = y^2,
    Z = xy and P = X + Y, the projectors' diagonals.  The channel scales
    each Hermitian basis coordinate by its multiplier, so by Parseval each
    state's squared output norm is

        1/n + sum_j c_j u_j^2 + P^T W_x P + 2 (Z^T Delta Z - X^T Delta Y)

    with Tr(S)^2/n the exact 1/n of a pure state's unit trace (not the
    rounded sum of P), the staircase coordinates u_j = Tr(M_j |v><v|) =
    prefix_{j-1} - j P_j (j = 1..n-1, zero-based P, prefix = cumsum(P)),
    c_j = t_z,j^2 / (j (j+1)), and the pair weights of :func:`_pair_forms`:
    (S x n)(n x n) products and row dots, the first alone where Delta is 0
    (every family member), and X, Y, Z formed only where Delta is not.
    The Delta terms are signed: a state whose sum keeps at most 2^-10 of
    its absolute terms (|Z|^T |Delta| |Z| and X^T |Delta| Y in place of the
    signed ones) lost over 10 bits, and is summed from its own projector
    by the apply engine instead.
    """

    samples, seed = integer(samples, "samples", 0), integer(seed, "seed", 0)
    diag = as_linear_map(ch)
    if diag.dim != n:
        raise ValueError(f"dimension mismatch: channel dim {diag.dim}, n={n}")
    j, c = _steps(n), np.zeros(n + 1)  # c_0 = 0, then c_1..c_{n-1}, then a zero that ends the suffix sums
    c[1:n] = diag.t_z**2 / (j * (j + 1))
    w_x, signed = _pair_forms(diag) if samples else (None, None)  # read only by the draws
    norms = np.empty(n * n + samples)  # the witness states, then the Haar samples
    norms[: n * n] = _witness_norms(diag, c)
    pos = n * n
    for v in _haar_vectors(n, samples, seed):
        p = (v * v.conj()).real  # X + Y with the bits of the projectors' diagonals
        u = p[:, :-1].cumsum(axis=1) - j * p[:, 1:]
        u *= u  # u_j^2
        sq = 1 / n + u @ c[1:n] + _row_dots(p @ w_x, p)
        if signed is not None:
            delta, delta_abs = signed
            xx, yy, z = v.real**2, v.imag**2, v.real * v.imag
            z_abs = np.abs(z)
            size = sq + 2 * (_row_dots(z_abs @ delta_abs, z_abs) + _row_dots(xx @ delta_abs, yy))
            sq += 2 * (_row_dots(z @ delta, z) - _row_dots(xx @ delta, yy))
            for i in (sq <= size / 1024).nonzero()[0]:
                image = diag(np.outer(v[i], v[i].conj()))
                sq[i] = np.vdot(image, image).real
        np.sqrt(sq, out=norms[pos : pos + len(v)])
        pos += len(v)
    return _norm_spread_report(norms, n, tol)


def _pair_forms(diag: DiagonalChannel) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """W_x = t_x^2 and (Delta, |Delta|), Delta = t_x^2 - t_y^2, as symmetric n x n weights of the pairs.

    The second is None where t_x^2 and t_y^2 agree bit for bit (every family member).
    """

    n, w_x = diag.dim, diag.t_x**2
    delta = w_x - diag.t_y**2  # zero exactly where t_x^2 and t_y^2 agree
    if not np.logical_or.reduce(delta):
        return _pair_plane(n, w_x, 0.0), None
    size = np.abs(delta)
    return _pair_plane(n, w_x, 0.0), (_pair_plane(n, delta, 0.0), _pair_plane(n, size, 0.0))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two (k, n) arrays."""

    return np.einsum("ij,ij->i", a, b)


def _norm_spread_report(norms: np.ndarray, n: int, tol: Tolerance) -> VerificationReport:
    """The sample test's verdict on the output norms of the witness states, then the Haar samples."""

    largest, smallest = float(np.maximum.reduce(norms)), float(np.minimum.reduce(norms))
    spread = largest - smallest
    # np.mean's bits, clamped: the rounded mean of equal norms can miss them, giving a mean deviation above the spread.
    mean = min(max(float(np.add.reduce(norms) / len(norms)), smallest), largest)
    passed = spread <= tol.bound(largest)
    witness = None
    if not passed:
        top, bottom = (_state_label(n, int(i)) for i in (norms.argmax(), norms.argmin()))
        witness = (
            f"norm spread {spread:.6e}: max {largest:.12f} at {top}, "
            f"min {smallest:.12f} at {bottom}"
        )
    return VerificationReport(
        passed=passed,
        max_deviation=spread,
        mean_deviation=float(np.add.reduce(np.abs(norms - mean)) / len(norms)),
        witness=witness,
        samples_used=len(norms),
    )
