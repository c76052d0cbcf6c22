"""Slow, independent oracles for the apply engine and the verdicts of qchan.verification and qchan.equivalence.

The one-at-a-time forms of what qchan computes stacked or in closed form
come first:

* ``random_pure_state`` draws one Haar state, whose bits the stacks of
  ``linalg._haar_vectors`` hold;
* ``witness_states`` builds the n^2 witness projectors from
  ``_witness_vectors``, whose norms ``verification._witness_norms`` takes
  by Parseval and whose names ``verification._state_label`` gives;
* ``kraus_completeness`` is the dense sum of V_i† V_i that
  ``representations._kraus_count_and_deviation`` forms from the weights;
* ``m_z`` is one staircase matrix, a row of ``basis._staircase_rows``.

The verdicts take channel objects only, use their structure and draw
their random states in stacks.  These oracles decide the same questions
the long way, with the same thresholds and witness strings; the first
two take any linear map on n x n matrices (a channel object, a lambda,
a ``QubitLambda``):

* ``dense_is_cptp`` builds the dense n^2 x n^2 Choi matrix with
  ``to_choi``, eigensolves it and takes its partial trace;
* ``per_state_sample_test`` applies the map to ``witness_states(n)``,
  then to ``random_pure_state`` draws, one state at a time;
  ``per_state_haar_norms`` is its Haar part alone, and
  ``assert_sample_norms_agree`` holds the sample test's per-state norms
  (``sample_norms`` hands them out) to it within a stated rounding bound
  (``sample_rounding_bounds``);
* ``per_trial_qubit_check`` is ``qubit_equivalence_check`` one
  ``random_pure_state`` draw and one conjugation at a time;
* ``per_pair_sums`` forms the x, y, z conjugation sums of one matrix a
  pair and a term at a time from the nonzeros of ``pauli_matrix``;
* ``dense_family_apply`` is a family member's closed form, summed from the
  dense terms p S (or p S^T), (1-p)/n Tr(S) I and 2p d(S);
  ``assert_is_the_closed_form`` holds the apply engine to it within a
  stated rounding bound.

``state_labels`` spells out the names the sample test's witness text
gives those states.

The ``frozen_*`` functions are the bodies that ``is_cptp``, the
classical block of ``channels._choi_blocks``, ``channels.diagonal_image`` and
``verification._witness_norms`` had before the Choi data moved into one
buffer per channel, with their integer staircase steps and their 2-D pair
scatter; ``frozen_sample_path`` runs the sample test on them.  They are
not independent oracles but fixed bits: the rebuilt path must print the
same numbers.  ``frozen_is_cptp`` dropped its float trace check (the row
sums of D) when ``is_cptp`` did, and it solves each pair block as the
symmetric D makes it, with equal diagonal entries, as ``is_cptp`` does;
its former body, which solved [[D_lk, b], [b, D_kl]] with ``np.hypot``
on both triangles, is retired.  ``frozen_constant_split_apply`` is the
apply engine's former scalar case, for channels whose t_x and t_y are each
constant with (t_x + t_y)/2 and (t_x - t_y)/2 both nonzero, which now go
through the per-pair weights.
"""

from contextlib import contextmanager
from functools import lru_cache
from itertools import chain, combinations
from math import sqrt
from unittest import mock

import numpy as np

from qchan import verification
from qchan.basis import pauli_matrix
from qchan.channels import DiagonalChannel, FamilyChannel, diagonal_apply, diagonal_image, family_to_diagonal
from qchan.exact import DEFAULT_TOL, Family, Tolerance, VerificationReport
from qchan.jsonio import integer
from qchan.linalg import _pair_index, frobenius_norm, hermitian_part
from qchan.representations import to_choi


def random_pure_state(n, rng=None):
    """Haar-random rank-one projector |v><v| on C^n (deterministic per seed)."""

    gen = np.random.default_rng(rng)
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def witness_states(n):
    """The n^2 pure states that pin down a diagonal channel's output norms.

    Computational projectors first, then (e_k + e_l)/sqrt(2) projectors,
    then (i e_k + e_l)/sqrt(2) projectors, pairs in lexicographic order.
    """

    return [np.outer(v, v.conj()) for v in _witness_vectors(n)]


def _witness_vectors(n):
    """Unit vectors of the witness states, in their order, as an (n^2, n) array."""

    k, l = _pair_index(n)
    q = np.arange(len(k))
    v = np.zeros((n * n, n), dtype=complex)
    v[:n] = np.eye(n)
    xi, eta = v[n : n + len(k)], v[n + len(k) :]
    xi[q, k] = 1
    eta[q, k] = 1j
    xi[q, l] = eta[q, l] = 1
    v[n:] /= sqrt(2)
    return v


def witness_norms(ch):
    """``verification._witness_norms`` of ``ch``, given the weights c_j = t_z,j^2 / (j (j+1)) the sample test forms."""

    n = ch.dim
    j = np.arange(1.0, n)
    c = np.zeros(n + 1)
    c[1:n] = ch.t_z**2 / (j * (j + 1))
    return verification._witness_norms(ch, c)


def kraus_completeness(operators):
    """sum_i V_i† V_i over a non-empty sequence of operators; I exactly when trace preserving."""

    if not len(operators):
        raise ValueError("empty Kraus set")
    n = operators[0].shape[0]
    total = np.zeros((n, n), dtype=complex)
    for op in operators:
        total += op.conj().T @ op
    return total


def m_z(n, k):
    """Traceless diagonal diag(1 x k, -k, 0, ...); squared norm k (k+1)."""

    n = integer(n, "dim", 2)
    if not 1 <= k <= n - 1:
        raise ValueError(f"staircase index {k} out of range 1..{n - 1}")
    d = np.zeros(n, dtype=complex)
    d[:k] = 1
    d[k] = -k
    return np.diag(d)


def dense_family_apply(ch, s):
    """The closed form of a family member on a matrix or a stack: p S (or p S^T), (1-p)/n Tr(S) I and 2p d(S) summed."""

    s = np.asarray(s, dtype=complex)
    n, p = ch.dim, ch.p
    trace = np.trace(s, axis1=-2, axis2=-1)
    uniform = ((1 - p) / n * trace)[..., None, None] * np.eye(n, dtype=complex)
    if ch.family is Family.DEP:
        return p * s + uniform
    s_t = np.swapaxes(s, -1, -2)
    if ch.family is Family.TRD:
        return p * s_t + uniform
    d = np.diagonal(s, axis1=-2, axis2=-1)
    embedded = np.zeros(d.shape + (n,), dtype=complex)
    idx = np.arange(n)
    embedded[..., idx, idx] = d
    diag_part = 2 * p * embedded
    if ch.family is Family.DCQ:
        return -p * s + uniform + diag_part
    return -p * s_t + uniform + diag_part


def assert_is_the_closed_form(ch, s, got):
    """``got``, the apply engine's output for the member ``ch`` on ``s``, is its closed form to rounding.

    Off the diagonal both take the same product of +-p and one entry of S
    (the engine's other weight is zero and left out), so the values are
    equal; only the signs of zeros may differ.  On the diagonal the closed
    form adds +-p S_ii, c = (1-p)/n Tr(S) and 2p S_ii, while the engine adds
    Tr(S)/n to the staircase z-sector terms, each at most |p| times a
    partial sum of |S_ii|, through prefix sums of up to n terms.  So each
    output diagonal of a matrix is within 2 (n + 4) eps (1 + |p|) sum_i |S_ii|
    of the closed form's.
    """

    want = dense_family_apply(ch, s)
    n, idx = ch.dim, np.arange(ch.dim)
    off = ~np.eye(n, dtype=bool)
    assert got.shape == want.shape
    assert np.array_equal(got[..., off], want[..., off])
    diagonals = np.asarray(s, dtype=complex)[..., idx, idx]
    bound = 2 * (n + 4) * np.finfo(float).eps * (1 + abs(ch.p)) * np.abs(diagonals).sum(axis=-1)
    deviation = np.abs(got[..., idx, idx] - want[..., idx, idx]).max(axis=-1)
    assert np.all(deviation <= bound), (deviation, bound)


def dense_is_cptp(apply_fn, n, tol=DEFAULT_TOL):
    """``is_cptp`` through the dense Choi matrix: PSD within tol of its norm, Tr_2 within tol of I."""

    choi = to_choi(apply_fn, n)
    scale = frobenius_norm(choi)
    herm_dev = float(np.max(np.abs(choi - choi.conj().T)))
    if herm_dev > tol.bound(scale):
        return VerificationReport(
            passed=False,
            witness=f"Choi matrix is not Hermitian (deviation {herm_dev:.3e})",
        )
    smallest = float(np.linalg.eigvalsh(hermitian_part(choi))[0])
    partial_trace = np.trace(choi.reshape(n, n, n, n), axis1=1, axis2=3)
    trace_dev = float(np.max(np.abs(partial_trace - np.eye(n))))
    psd_ok = smallest >= -tol.bound(scale)
    tp_ok = trace_dev <= tol.bound(1.0)
    witness = None
    if not psd_ok:
        witness = f"negative Choi eigenvalue {smallest:.6e}"
    elif not tp_ok:
        witness = f"partial trace deviates from identity by {trace_dev:.3e}"
    return VerificationReport(
        passed=psd_ok and tp_ok,
        min_choi_eigenvalue=smallest,
        trace_violation=trace_dev,
        witness=witness,
    )


def per_state_sample_test(apply_fn, n, samples=1000, seed=0, tol=DEFAULT_TOL):
    """``constant_fnorm_sample_test`` one state at a time: the witness states, then the Haar draws."""

    rng = np.random.default_rng(seed)
    states = chain(witness_states(n), (random_pure_state(n, rng) for _ in range(samples)))
    norms = np.array([frobenius_norm(apply_fn(s)) for s in states])
    return verification._norm_spread_report(norms, n, tol)


def sample_norms(call):
    """``call()``'s result and the norm arrays it handed to ``_norm_spread_report``, one per report, in order.

    The sample test and ``per_state_sample_test`` both decide through
    ``verification._norm_spread_report``, so these are their per-state
    norms: the witness states, then the Haar draws.
    """

    seen = []
    spread_report = verification._norm_spread_report

    def keep(norms, *args):
        seen.append(norms.copy())
        return spread_report(norms, *args)

    with mock.patch.object(verification, "_norm_spread_report", keep):
        result = call()
    return result, seen


def per_state_haar_norms(apply_fn, n, samples, seed):
    """The Haar part of ``per_state_sample_test``'s norms: the map on each ``random_pure_state`` draw, one at a time."""

    rng = np.random.default_rng(seed)
    return np.array([frobenius_norm(apply_fn(random_pure_state(n, rng))) for _ in range(samples)])


def sample_vectors(n, samples, seed, witness=True):
    """Unit vectors of the sample test's states: the witness vectors (unless ``witness`` is false), then
    ``random_pure_state``'s v of each draw."""

    if witness:
        eye = np.eye(n, dtype=complex)
        pairs = list(combinations(range(n), 2))
        yield from eye
        yield from ((eye[k] + eye[l]) / np.sqrt(2) for k, l in pairs)
        yield from ((1j * eye[k] + eye[l]) / np.sqrt(2) for k, l in pairs)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yield v / np.linalg.norm(v)


def sample_rounding_bounds(ch, vectors):
    """Per state |v><v|, how far the sample test's squared norm may be from the oracle's: (2n + 4) eps (A + A_o).

    Write v = x + iy, with X = x^2, Y = y^2, Z = xy, P = X + Y and d the
    output diagonal, and per pair k < l take w = t_x^2 and
    delta = |t_x^2 - t_y^2|.  The sample test sums the squared norm as
    quadratic forms whose absolute terms add up to
    A = |d|^2 + 2 sum_{k<l} (w P_k P_l + delta (2 |Z_k Z_l| + X_k Y_l + X_l Y_k)),
    each form a sum of at most 2n products, so it is within (2n + 4) eps A
    of the exact value.  The oracle squares the apply engine's entries
    a rho_kl + b rho_lk, whose absolute terms add up to
    A_o = |d|^2 + 2 sum_{k<l} (|a| + |b|)^2 P_k P_l, and is given the same
    allowance on A_o.  The witness states' norms, which the sample test
    takes from suffix sums of the multipliers instead, are held to the
    same bound.
    """

    n = ch.dim
    k, l = np.triu_indices(n, 1)  # lexicographic pairs, the order of t_x and t_y
    w, delta = ch.t_x**2, np.abs(ch.t_x**2 - ch.t_y**2)
    entry = np.maximum(np.abs(ch.t_x), np.abs(ch.t_y)) ** 2  # (|a| + |b|)^2
    vectors = np.array(list(vectors)).reshape(-1, n)
    bounds = []
    for v in np.array_split(vectors, len(vectors) // 256 + 1):  # 256 states at a time
        x, y = v.real, v.imag
        xx, yy, z = x * x, y * y, x * y
        p = xx + yy
        d = np.diagonal(diagonal_apply(ch, v[:, :, None] * v.conj()[:, None, :]), axis1=-2, axis2=-1).real
        forms = w * p[:, k] * p[:, l] + delta * (2 * np.abs(z[:, k] * z[:, l]) + xx[:, k] * yy[:, l] + xx[:, l] * yy[:, k])
        squares = (d * d).sum(axis=-1)
        a = squares + 2 * forms.sum(axis=-1)
        a_o = squares + 2 * (entry * p[:, k] * p[:, l]).sum(axis=-1)
        bounds.append((2 * n + 4) * np.finfo(float).eps * (a + a_o))
    return np.concatenate(bounds)


def assert_sample_norms_agree(got, want, bounds):
    """Per state, the squared norms of ``got`` and ``want`` are within ``bounds``; none is NaN.

    ``got`` and ``want`` are norm arrays of the same states from two sample
    tests of one channel, for instance the fast one and the oracle's, and
    ``bounds`` their ``sample_rounding_bounds``.
    """

    deviation = np.abs(got**2 - want**2)
    assert np.all(deviation <= bounds), (np.nanmax(deviation / bounds), int(np.argmax(~(deviation <= bounds))))


def assert_same_extremes(got, want, bounds):
    """Two norm arrays name the same extreme states, but where rounding broke a tie.

    A state may differ only if the oracle's squared norms at the two states
    are within the sum of their bounds (``sample_rounding_bounds``).
    """

    for pick in (np.argmax, np.argmin):
        i, j = int(pick(got)), int(pick(want))
        assert i == j or abs(want[i] ** 2 - want[j] ** 2) <= bounds[i] + bounds[j], (pick.__name__, i, j)


def per_trial_qubit_check(p, trials=100, seed=0, tol=Tolerance(absolute=1e-12, relative=0.0)):
    """``qubit_equivalence_check`` as a loop over trials, then over the three conjugations."""

    def variant(family: Family, param: float) -> DiagonalChannel:
        return family_to_diagonal(FamilyChannel(family, param, 2))

    phi1 = variant(Family.DEP, p)
    cases = [
        ("sigma_y . Phi_2(-p) . sigma_y", pauli_matrix(2, "y", (1, 2)), variant(Family.TRD, -p)),
        ("sigma_z . Phi_3(p) . sigma_z", pauli_matrix(2, "z", (1, 2)), variant(Family.DCQ, p)),
        ("sigma_x . Phi_4(-p) . sigma_x", pauli_matrix(2, "x", (1, 2)), variant(Family.TCQ, -p)),
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    for _ in range(trials):
        s = random_pure_state(2, rng)
        target = diagonal_apply(phi1, s)
        for name, sigma, channel in cases:
            conjugated = sigma @ diagonal_apply(channel, s) @ sigma
            dev = float(np.max(np.abs(conjugated - target)))
            if dev > worst:
                worst, worst_case = dev, name
    passed = worst <= tol.bound(1.0)
    return VerificationReport(
        passed=passed,
        max_deviation=worst,
        witness=None if passed else f"identity {worst_case} violated by {worst:.3e}",
        samples_used=trials,
    )


@lru_cache(maxsize=None)
def _pauli_nonzeros(n):
    """(sector, k, l, terms) of each pauli_matrix, k < l from 0; terms are its nonzeros, row-major.

    Each nonzero is ((row, col), value), the value read as a float when
    real and as a Python complex otherwise, so products keep the signs of
    zeros that ``basis._pair_entries`` gives.
    """

    def plain(v):
        return v.real if v.imag == 0 else complex(v)

    pairs = []
    for sector, name in enumerate("xyz"):
        for k, l in combinations(range(1, n + 1), 2):
            m = pauli_matrix(n, name, (k, l))
            nonzeros = [((r, c), plain(m[r, c])) for r, c in zip(*np.nonzero(m))]
            pairs.append((sector, k - 1, l - 1, nonzeros))
    return pairs


def per_pair_sums(s, n):
    """The "x", "y", "z" sums of ``representations._direct_sums`` for one matrix, term by term.

    A pair matrix v_a E_(r_a c_a) + v_b E_(r_b c_b) gives m S m the terms
    v_a v_b S[c_a, r_b] at (r_a, c_b).  A term on the diagonal goes to
    (r_a, partner) of a separate plane whose rows are summed, as there.
    """

    out = np.zeros((3, n, n), dtype=complex)
    diagonal = np.zeros((3, n, n), dtype=complex)
    for sector, k, l, nonzeros in _pauli_nonzeros(n):
        for (r_a, c_a), v_a in nonzeros:
            for (r_b, c_b), v_b in nonzeros:
                term = v_a * v_b * s[c_a, r_b]
                if r_a == c_b:
                    diagonal[sector, r_a, k + l - r_a] = term
                else:
                    out[sector, r_a, c_b] = term
    idx = np.arange(n)
    out[:, idx, idx] = diagonal.sum(axis=-1)
    return dict(zip("xyz", out))


def state_labels(n, samples=0):
    """Names of the sample test's states in order: psi_k, xi_(k,l), eta_(k,l), then haar_i.

    psi_k (k from 0) is the k-th computational projector; xi and eta name
    the pair states of k < l (from 1), pairs in lexicographic order.
    """

    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    return (
        [f"psi_{k}" for k in range(n)]
        + [f"xi_({k},{l})" for k, l in pairs]
        + [f"eta_({k},{l})" for k, l in pairs]
        + [f"haar_{i}" for i in range(samples)]
    )


# --- Frozen bodies of the cold verdict path ----------------------------------


def frozen_diagonal_image(ch, d):
    """``diagonal_image`` as it was: integer steps, weights t_z / (j (j+1)), a repeat for the trace term."""

    n = ch.dim
    j = np.arange(1, n)
    prefix = np.cumsum(d, axis=-1)
    w = ch.t_z / (j * (j + 1)) * (prefix[..., :-1] - j * d[..., 1:])
    out = np.repeat(prefix[..., -1:] / n, n, axis=-1)
    out[..., :-1] += np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
    out[..., 1:] -= j * w
    return out


def frozen_pair_scatter(n, rows):
    """``channels._pair_scatter`` as it was: one 2-D fancy assignment of all rows at (k, l) and (l, k)."""

    k, l = _pair_index(n)
    out = np.zeros((len(rows), n, n))
    out[:, k, l] = out[:, l, k] = rows
    return out


def frozen_pair_plane(n, pairs, diagonal):
    """``linalg._pair_plane`` of the sample test's weights, as ``frozen_pair_scatter`` of one row."""

    assert diagonal == 0
    return frozen_pair_scatter(n, [pairs])[0]


def frozen_pair_weights(diag):
    """``DiagonalChannel.pair_weights`` as it was, a new pair of arrays."""

    a, b = frozen_pair_scatter(diag.dim, [(diag.t_x + diag.t_y) / 2, (diag.t_x - diag.t_y) / 2])
    return a, b


def frozen_classical_block(diag):
    """``_classical_block`` as it was: the block, and D = ``frozen_diagonal_image`` of the identity."""

    d = frozen_diagonal_image(diag, np.eye(diag.dim))
    block = frozen_pair_weights(diag)[0].copy()
    np.fill_diagonal(block, np.diag(d))
    return block, d


def frozen_is_cptp(ch, n, tol=DEFAULT_TOL):
    """``is_cptp`` as it was, on a channel object of dimension ``n``, with no float trace check
    (trace preservation holds by construction, and ``trace_violation`` is 0.0), and each pair
    block's smallest eigenvalue taken as D_lk - |b_kl|, from D's lower triangle."""

    a, b = frozen_pair_weights(ch)
    classical, d = frozen_classical_block(ch)
    scale = frobenius_norm(np.stack([d, a, b]))
    classical_min = float(np.linalg.eigvalsh(classical)[0])
    k, l = _pair_index(n)
    pair_mins = d[l, k] - np.abs(b[k, l])  # D is symmetric: each pair block's eigenvalues are D_lk +- |b_kl|
    worst = int(np.argmin(pair_mins))
    if classical_min <= pair_mins[worst]:
        smallest, where = classical_min, " in classical block"
    else:
        smallest, where = float(pair_mins[worst]), f" in pair block ({k[worst] + 1},{l[worst] + 1})"
    psd_ok = smallest >= -tol.bound(scale)
    return VerificationReport(
        passed=psd_ok,
        min_choi_eigenvalue=smallest,
        trace_violation=0.0,
        witness=None if psd_ok else f"negative Choi eigenvalue {smallest:.6e}{where}",
    )


def frozen_witness_norms(diag):
    """``verification._witness_norms`` as it was: the index arithmetic per pair, on integer indices."""

    n = diag.dim
    j = np.arange(1, n)
    c = np.zeros(n + 1)
    c[1:n] = diag.t_z**2 / (j * (j + 1))
    s = np.cumsum(c[::-1])[::-1]
    i = np.arange(n)
    k, l = _pair_index(n)
    pair_diag = 1 / n + (c[k] * k**2 + s[k + 1] - s[l] + c[l] * (l - 1) ** 2) / 4 + s[l + 1]
    psi = 1 / n + c[:n] * i**2 + s[1:]
    return np.sqrt(np.concatenate([psi, pair_diag + diag.t_x**2 / 2, pair_diag + diag.t_y**2 / 2]))


def frozen_constant_split_apply(ch, s):
    """``diagonal_apply`` as it was on a channel with constant t_x and t_y, both a and b nonzero:
    the pair sectors weighed by the scalars t_x[0] and t_y[0], then the diagonal overwritten."""

    s = np.asarray(s, dtype=complex)
    out = np.empty(s.shape, dtype=complex)
    half = s / 2
    half_t = np.swapaxes(half, -1, -2)
    np.add(half, half_t, out=out)
    out *= ch.t_x[0]
    antisymmetric = half - half_t
    antisymmetric *= ch.t_y[0]
    out += antisymmetric
    idx = np.arange(ch.dim)
    out[..., idx, idx] = diagonal_image(ch, s[..., idx, idx])
    return out


@contextmanager
def frozen_sample_path():
    """The sample test on the frozen witness norms, pair scatter and integer steps."""

    with mock.patch.multiple(
        verification,
        _witness_norms=lambda diag, c: frozen_witness_norms(diag),
        _pair_plane=frozen_pair_plane,
        _steps=lambda n: np.arange(1, n),
    ):
        yield
