"""The 4x4 superoperator route, kept as the test oracle of the Bloch forms.

The package takes the trace distance, the divisibility scan and the Holevo
information from the Bloch form of the qubit maps. These functions take them
the way the package once did: build the column-stacking superoperator of
Phi(t) = w 1 + (1 - w) J at every time with ``superop_at``, J the jump
channel's ``jump_superop``, apply it to the states with ``apply_superop``,
and take trace norms, the smallest eigenvalue of each step map's Choi matrix
(the step map by a linear solve), and the eigenvalues of the evolved states.
"""

import numpy as np

from qsemimarkov import (DephasingSemiMarkov, DomainError, NonUnitalSemiMarkov,
                         q_of_t, trace_norm)

# the 4x4 solve gives up on an early map with a larger condition number
_COND_MAX = 1e12


def jump_superop(proc) -> np.ndarray:
    """Column-stacking superoperator of the per-jump channel.

    Dephasing: conjugation by sigma_z. Non-unital: rho -> |0><0| tr(rho).
    """
    if isinstance(proc, DephasingSemiMarkov):
        return np.diag([1.0, -1.0, -1.0, 1.0])  # kron(Z, Z)
    if isinstance(proc, NonUnitalSemiMarkov):
        S = np.zeros((4, 4))
        S[0, 0] = S[0, 3] = 1.0  # vec(E00) and vec(E11) both map to vec(E00)
        return S
    raise DomainError(f"unknown process type {type(proc)!r}")


def superop_at(proc, t) -> np.ndarray:
    """Superoperators of Phi(t) = w 1 + (1 - w) J, shape np.shape(t) + (4, 4),
    with J = ``jump_superop(proc)``, w = (1 + q(t))/2 for dephasing and
    w = sech(rate t) for the non-unital family."""
    J = jump_superop(proc)
    t = np.asarray(t, dtype=float)
    w = ((1.0 + q_of_t(proc, t)) / 2.0 if isinstance(proc, DephasingSemiMarkov)
         else proc.survival(t))
    w = np.asarray(w)[..., None, None]
    return w * np.eye(4) + (1.0 - w) * J


def apply_superop(superop, rho) -> np.ndarray:
    """Column-stacking superoperators applied to states, broadcasting stacks."""
    r = np.asarray(rho, dtype=complex)
    d = r.shape[-1]
    out = np.asarray(superop) @ r.swapaxes(-1, -2).reshape(
        *r.shape[:-2], d * d, 1)  # vec(rho)
    return out.reshape(*out.shape[:-2], d, d).swapaxes(-1, -2)


def trace_distance(proc, times, rho1, rho2) -> np.ndarray:
    """(1/2) || Phi(t)[rho1 - rho2] ||_1 at each time."""
    delta = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    return 0.5 * trace_norm(apply_superop(superop_at(proc, times), delta))


def divisibility_scan(proc, times) -> tuple[np.ndarray, np.ndarray]:
    """(smallest Choi eigenvalue of each step map, NaN where the early map's
    condition number exceeds ``_COND_MAX``; that condition number)."""
    superops = superop_at(proc, np.asarray(times, dtype=float))
    early, late = superops[:-1], superops[1:]
    with np.errstate(divide="ignore", invalid="ignore"):  # cond is inf at g = 0
        cond = np.linalg.cond(early)
    regular = np.isfinite(cond) & (cond <= _COND_MAX)
    step = np.linalg.solve(early[regular].swapaxes(-1, -2),
                           late[regular].swapaxes(-1, -2)).swapaxes(-1, -2)
    # the Choi matrices by reshuffling the entries (Wood, Biamonte & Cory,
    # arXiv:1111.6950): chi[(i, k), (j, l)] = S[(j, i), (l, k)]
    chi = step.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3)
    chi = chi.reshape(-1, 4, 4)
    chi = 0.5 * (chi + chi.conj().swapaxes(-1, -2))
    min_eigs = np.full(len(early), np.nan)
    min_eigs[regular] = np.linalg.eigvalsh(chi)[:, 0]
    return min_eigs, cond


def entropy(rho) -> np.ndarray:
    """Von Neumann entropy in bits of each state of a stack."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return -(lam * np.log2(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)


def holevo(proc, times, ensemble) -> np.ndarray:
    """S(sum_i p_i Phi(t)[rho_i]) - sum_i p_i S(Phi(t)[rho_i]) at each time."""
    probs = np.array([p for p, _ in ensemble])
    states = np.array([rho for _, rho in ensemble], dtype=complex)
    outs = apply_superop(superop_at(proc, times)[:, None], states)
    mean = (probs[:, None, None] * outs).sum(axis=1)
    return entropy(mean) - (probs * entropy(outs)).sum(axis=1)
