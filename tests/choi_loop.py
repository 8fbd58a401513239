"""Channel representations by their defining sums, kept as test oracles.

The package takes a generator's Choi matrix as the rate times a unit-rate
matrix written from the Kraus form of its jump; the tests check that against
this loop over the matrix units, chi = sum_ij L(|i><j|) (x) |i><j|, with the
generator snapshot acting by its defining formula. The Kraus-set sums below
give the superoperator and Choi matrix of a channel written as {K_m}.
"""

import numpy as np

from qsemimarkov import DephasingGenerator, weyl_z


def generator_action(gen, rho: np.ndarray) -> np.ndarray:
    """(rate/d)(Z rho Z^dag - rho) for dephasing, rate (|0><0| tr rho - rho)
    for the projector family."""
    r = np.asarray(rho, dtype=complex)
    if isinstance(gen, DephasingGenerator):
        Z = weyl_z(gen.dim)
        return gen.rate / gen.dim * (Z @ r @ Z.conj().T - r)
    out = -r.copy()
    out[0, 0] += r.trace()
    return gen.rate * out


def choi_of_generator(gen) -> np.ndarray:
    """Choi matrix of one generator snapshot, built term by term."""
    d = gen.dim
    chi = np.zeros((d * d, d * d), dtype=complex)
    basis = np.eye(d, dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.outer(basis[:, i], basis[:, j])
            chi += np.kron(generator_action(gen, E), E)
    return chi


def superop_of_kraus(kraus) -> np.ndarray:
    """Column-stacking superoperator sum_m kron(conj(K_m), K_m)."""
    return sum(np.kron(K.conj(), K) for K in np.asarray(kraus, dtype=complex))


def choi_of_kraus(kraus) -> np.ndarray:
    """Choi matrix sum_m |w_m><w_m|, w_m the row-major flattening of K_m."""
    return sum(np.outer(K.ravel(), K.ravel().conj())
               for K in np.asarray(kraus, dtype=complex))
