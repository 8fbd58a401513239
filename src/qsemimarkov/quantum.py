"""States, channels, and Choi-matrix machinery for small dense systems.

Conventions used throughout:

- vec/unvec are column-stacking, so a Kraus operator K acts on vec(rho) as
  the superoperator kron(conj(K), K).
- The Choi matrix of a map Phi is (Phi (x) 1)|Psi><Psi| with the unnormalized
  maximally entangled vector |Psi> = sum_j |j,j>; the FIRST tensor factor
  carries the map output, so tracing it out leaves the identity for any
  trace-preserving map. Under this convention the Choi matrix of a Kraus set
  is sum_m |w_m><w_m| with w_m the row-major flattening of K_m.
- ``apply_superop``, ``choi_of_superop`` and ``intermediate_map`` take
  stacks over leading axes: superoperators (..., d^2, d^2), states (..., d, d).
  A generator snapshot with an array ``rate`` has a stack as its ``superop``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidState, SingularMap
from .numerics import _STATE_TOL, hermitian_eigvals

__all__ = [
    "weyl_z",
    "check_density_matrix",
    "apply_superop",
    "choi_of_superop",
    "CPTPReport",
    "is_cptp",
    "intermediate_map",
    "DephasingGenerator",
    "ProjectorGenerator",
    "choi_of_generator",
]

_COND_MAX = 1e12      # a map with a larger condition number has no inverse
_CP_TOL = 1e-8        # a Choi eigenvalue above -_CP_TOL counts as CP


def weyl_z(d: int) -> np.ndarray:
    """Clock matrix diag(1, w, ..., w^(d-1)) with w = exp(2 pi i / d)."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a state.

    :raises InvalidState: on any violation beyond ``numerics._STATE_TOL``.
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


def apply_superop(superop: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply column-stacking superoperators to states, broadcasting stacks."""
    S = np.asarray(superop)
    d = _superop_dim(S)
    r = np.asarray(rho, dtype=complex)
    if r.ndim < 2 or r.shape[-2:] != (d, d):
        raise DimensionMismatch(
            f"state shape {r.shape} does not match superoperator dimension {d}"
        )
    out = S @ r.swapaxes(-1, -2).reshape(*r.shape[:-2], d * d, 1)  # vec(rho)
    return out.reshape(*out.shape[:-2], d, d).swapaxes(-1, -2)


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
class CPTPReport:
    """Outcome of a complete-positivity / trace-preservation check."""

    ok: bool
    min_eigenvalue: float
    trace_defect: float
    tol: float

    def __bool__(self) -> bool:
        return self.ok


def is_cptp(choi: np.ndarray) -> CPTPReport:
    """Check CPTP-ness of a map from its Choi matrix.

    CP requires the minimum eigenvalue >= -_CP_TOL; TP requires the partial
    trace over the output (first) factor to equal the identity within
    _CP_TOL. The report's ``tol`` is that tolerance.
    """
    chi = np.asarray(choi, dtype=complex)
    d = int(round(np.sqrt(chi.shape[0]))) if chi.ndim == 2 else 0
    if chi.shape != (d * d, d * d):
        raise DimensionMismatch(f"Choi shape {chi.shape} is not d^2 x d^2")
    min_eig = float(hermitian_eigvals(chi, tol=1e-9)[0])
    reduced = np.einsum("abae->be", chi.reshape(d, d, d, d))
    trace_defect = float(np.abs(reduced - np.eye(d)).max())
    return CPTPReport(
        ok=(min_eig >= -_CP_TOL and trace_defect <= _CP_TOL),
        min_eigenvalue=min_eig,
        trace_defect=trace_defect,
        tol=_CP_TOL,
    )


def intermediate_map(superop_late: np.ndarray,
                     superop_early: np.ndarray) -> np.ndarray:
    """Propagator V with V . Phi(t1) = Phi(t2), as a superoperator (stacks too).

    :raises SingularMap: if any early map's condition number exceeds
        ``_COND_MAX`` (the inverse is numerically meaningless).
    """
    S2 = np.asarray(superop_late)
    S1 = np.asarray(superop_early)
    if S1.shape != S2.shape or S1.ndim < 2 or S1.shape[-1] != S1.shape[-2]:
        raise DimensionMismatch(
            f"superoperator shapes {S2.shape} and {S1.shape} are incompatible"
        )
    cond = np.linalg.cond(S1)
    bad = ~np.isfinite(cond) | (cond > _COND_MAX)
    if np.any(bad):
        raise SingularMap(f"early map condition number {np.max(cond[bad]):.3e} "
                          f"> {_COND_MAX:.0e}")
    return np.linalg.solve(S1.swapaxes(-1, -2),
                           S2.swapaxes(-1, -2)).swapaxes(-1, -2)


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
        return np.multiply.outer(self.rate, self._unit_rate())


class DephasingGenerator(_GeneratorSnapshot):
    """Snapshot (gamma / d) (Z rho Z^dag - rho) of the dephasing generator.

    The qudit convention 1/d makes the Choi-difference family constant
    dimension-independent.
    """

    def _unit_rate(self) -> np.ndarray:  # (conj(Z) (x) Z - 1) / d, diagonal
        z = np.diag(weyl_z(self.dim))
        return np.diag(np.outer(z.conj(), z).ravel() - 1.0) / self.dim


class ProjectorGenerator(_GeneratorSnapshot):
    """Snapshot gamma * (P[rho] - rho) with P[rho] = |0><0| tr(rho)."""

    def _unit_rate(self) -> np.ndarray:  # P - 1; row 0 of P reads tr(rho)
        unit = -np.eye(self.dim**2)
        unit[0, :: self.dim + 1] += 1.0
        return unit


def choi_of_generator(generator) -> np.ndarray:
    """Choi matrix (L (x) 1)|Psi><Psi| of a generator snapshot, or a stack.

    The reshuffle of the generator's ``superop``; the result is Hermitian
    and traceless for a trace-annihilating generator.
    """
    return choi_of_superop(generator.superop)
