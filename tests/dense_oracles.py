"""Slow, independent oracles for the verdicts of qchan.verification.

The verdicts take channel objects only and use their structure.  These
take any linear map on n x n matrices (a channel object, a lambda, a
``QubitLambda``) and decide it the long way, with the same thresholds
and witness strings:

* ``dense_is_cptp`` builds the dense n^2 x n^2 Choi matrix with
  ``to_choi``, eigensolves it and takes its partial trace;
* ``per_state_sample_test`` applies the map to ``witness_states(n)``,
  then to ``random_pure_state`` draws, one state at a time.

``state_labels`` spells out the names the sample test's witness text
gives those states.
"""

from itertools import chain

import numpy as np

from qchan import verification
from qchan.channels import random_pure_state, to_choi
from qchan.linalg import DEFAULT_TOL, frobenius_norm, hermitian_part
from qchan.verification import VerificationReport, witness_states


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
