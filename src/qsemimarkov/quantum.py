"""States, Choi matrices, and the generator snapshots of both families.

Conventions used throughout:

- vec/unvec are column-stacking, so a Kraus operator K acts on vec(rho) as
  the superoperator kron(conj(K), K).
- The Choi matrix of a map Phi is (Phi (x) 1)|Psi><Psi| with the unnormalized
  maximally entangled vector |Psi> = sum_j |j,j>; the FIRST tensor factor
  carries the map output, so tracing it out leaves the identity for any
  trace-preserving map. Under this convention the Choi matrix of a Kraus set
  is sum_m |w_m><w_m| with w_m the row-major flattening of K_m.
- ``choi_of_superop`` takes a stack of superoperators (..., d^2, d^2) over
  leading axes. A generator snapshot with an array ``rate`` has a stack as
  its ``superop``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidState

__all__ = [
    "weyl_z",
    "check_density_matrix",
    "choi_of_superop",
    "DephasingGenerator",
    "ProjectorGenerator",
    "choi_of_generator",
]

_STATE_TOL = 1e-10  # rounding allowed in a state's entries, trace, eigenvalues


def weyl_z(d: int) -> np.ndarray:
    """Clock matrix diag(1, w, ..., w^(d-1)) with w = exp(2 pi i / d)."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a state.

    :raises InvalidState: on any violation beyond ``_STATE_TOL``.
    :return: the input as a complex array.
    """
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidState(f"state must be a square matrix, got {m.shape}")
    herm = np.abs(m - m.conj().T).max()
    if herm > _STATE_TOL:
        raise InvalidState(f"state deviates from Hermiticity by {herm:.3e}")
    tr = abs(m.trace() - 1.0)
    if tr > _STATE_TOL:
        raise InvalidState(f"state trace deviates from 1 by {tr:.3e}")
    min_eig = float(np.linalg.eigvalsh(m).min())
    if min_eig < -_STATE_TOL:
        raise InvalidState(f"state has negative eigenvalue {min_eig:.3e}")
    return m


def _superop_dim(S: np.ndarray) -> int:
    d = int(round(np.sqrt(S.shape[-1]))) if S.ndim >= 2 else 0
    if S.ndim < 2 or S.shape[-2:] != (d * d, d * d):
        raise DimensionMismatch(f"superoperator shape {S.shape} is not d^2 x d^2")
    return d


def choi_of_superop(superop: np.ndarray) -> np.ndarray:
    """Choi matrices of column-stacking superoperators, same stack shape.

    A reshuffle of the entries (Wood, Biamonte & Cory, arXiv:1111.6950):
    chi[(i, k), (j, l)] = S[(j, i), (l, k)], pairs read as row-major indices.
    """
    S = np.asarray(superop, dtype=complex)
    d = _superop_dim(S)
    lead = S.shape[:-2]
    n = len(lead)
    axes = (*range(n), n + 1, n + 3, n, n + 2)
    return S.reshape(*lead, d, d, d, d).transpose(axes).reshape(S.shape)


@dataclass(frozen=True)
class _GeneratorSnapshot:
    rate: float | np.ndarray
    dim: int = 2

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DomainError(f"dimension must be >= 2, got {self.dim}")

    @property
    def superop(self) -> np.ndarray:
        """Column-stacking superoperator, shape rate.shape + (d^2, d^2)."""
        return np.multiply.outer(self.rate, self._unit_rate(self.dim))


class DephasingGenerator(_GeneratorSnapshot):
    """Snapshot (gamma / d) (Z rho Z^dag - rho) of the dephasing generator.

    The qudit convention 1/d makes the Choi-difference family constant
    dimension-independent.
    """

    @staticmethod
    def _unit_rate(dim: int) -> np.ndarray:  # (conj(Z) (x) Z - 1) / d, diagonal
        z = np.diag(weyl_z(dim))
        return np.diag(np.outer(z.conj(), z).ravel() - 1.0) / dim


class ProjectorGenerator(_GeneratorSnapshot):
    """Snapshot gamma * (P[rho] - rho) with P[rho] = |0><0| tr(rho)."""

    @staticmethod
    def _unit_rate(dim: int) -> np.ndarray:  # P - 1; row 0 of P reads tr(rho)
        unit = -np.eye(dim**2)
        unit[0, :: dim + 1] += 1.0
        return unit


def choi_of_generator(generator) -> np.ndarray:
    """Choi matrix (L (x) 1)|Psi><Psi| of a generator snapshot, or a stack.

    The reshuffle of the generator's ``superop``; the result is Hermitian
    and traceless for a trace-annihilating generator.
    """
    return choi_of_superop(generator.superop)
