"""Choi matrix by the defining sum, kept as a test oracle.

The package takes the Choi matrix as a reshuffle of the superoperator's
entries; the tests check that against this loop over the matrix units,
chi = sum_ij Phi(|i><j|) (x) |i><j|.
"""

import numpy as np

from qsemimarkov import DimensionMismatch


def choi_of_superop(superop: np.ndarray) -> np.ndarray:
    """Choi matrix of one column-stacking superoperator, built term by term."""
    S = np.asarray(superop, dtype=complex)
    d = int(round(np.sqrt(S.shape[0])))
    if S.shape != (d * d, d * d):
        raise DimensionMismatch(f"superoperator shape {S.shape} is not d^2 x d^2")
    chi = np.zeros((d * d, d * d), dtype=complex)
    basis = np.eye(d, dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.outer(basis[:, i], basis[:, j])
            out = (S @ E.flatten(order="F")).reshape((d, d), order="F")
            chi += np.kron(out, E)
    return chi
