"""Choi matrices and the generator snapshots of both families.

The Choi matrix of a map Phi is (Phi (x) 1)|Psi><Psi| with the unnormalized
maximally entangled vector |Psi> = sum_j |j,j>; the FIRST tensor factor
carries the map output, so tracing it out leaves the identity for any
trace-preserving map. Under this convention the Choi matrix of a Kraus set
is sum_m |vec K_m><vec K_m| with vec the row-major flattening. A generator
snapshot with an array ``rate`` has a stack of Choi matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "weyl_z",
    "DephasingGenerator",
    "ProjectorGenerator",
    "choi_of_generator",
]


def weyl_z(d: int) -> np.ndarray:
    """Clock matrix diag(1, w, ..., w^(d-1)) with w = exp(2 pi i / d)."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


@dataclass(frozen=True)
class _GeneratorSnapshot:
    rate: float | np.ndarray
    dim: int = 2

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DomainError(f"dimension must be >= 2, got {self.dim}")


class DephasingGenerator(_GeneratorSnapshot):
    """Snapshot (gamma / d) (Z rho Z^dag - rho) of the dephasing generator.

    The qudit convention 1/d makes the Choi-difference family constant
    dimension-independent.
    """

    @staticmethod
    def _unit_choi(dim: int) -> np.ndarray:
        z, one = weyl_z(dim).ravel(), np.eye(dim).ravel()  # vec Z, vec 1
        return (np.outer(z, z.conj()) - np.outer(one, one)) / dim


class ProjectorGenerator(_GeneratorSnapshot):
    """Snapshot gamma * (P[rho] - rho) with P[rho] = |0><0| tr(rho)."""

    @staticmethod
    def _unit_choi(dim: int) -> np.ndarray:  # Kraus |0><j| has vec e_j
        one = np.eye(dim).ravel()
        unit = -np.outer(one, one)
        unit[range(dim), range(dim)] += 1.0
        return unit


def choi_of_generator(generator) -> np.ndarray:
    """Choi matrix (L (x) 1)|Psi><Psi| of a generator snapshot, or a stack.

    The rate times the family's unit-rate Choi matrix, so an array rate
    gives a stack of shape rate.shape + (d^2, d^2). The result is Hermitian
    and traceless for a trace-annihilating generator.
    """
    unit = generator._unit_choi(generator.dim)
    return np.multiply.outer(generator.rate, unit)
