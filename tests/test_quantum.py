"""Choi matrices and generator snapshots, against the defining sums of
the test oracles."""

import numpy as np
import pytest

from qsemimarkov import (
    DephasingGenerator,
    DomainError,
    ProjectorGenerator,
    choi_of_generator,
    trace_norm,
    weyl_z,
)

import choi_loop
from choi_loop import choi_of_kraus, superop_of_kraus
from superop_route import apply_superop

Z = np.diag([1.0, -1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_state(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_channel(rng, d, n_kraus):
    """Random CPTP channel from the first d columns of a Haar-ish unitary."""
    g = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal(
        (n_kraus * d, d)
    )
    isometry, _ = np.linalg.qr(g)
    return [isometry[m * d:(m + 1) * d, :] for m in range(n_kraus)]


# ------------------------------------------------------------------- basics

def test_weyl_z():
    assert np.allclose(weyl_z(2), Z)
    for d in (2, 3, 5):
        w = weyl_z(d)
        assert np.allclose(np.linalg.matrix_power(w, d), np.eye(d))
        assert abs(w.trace()) < 1e-12
    # the clock matrix and both generator snapshots refuse a qudit of one level
    for refuse in (weyl_z, lambda d: DephasingGenerator(rate=1.0, dim=d),
                   lambda d: ProjectorGenerator(rate=1.0, dim=d)):
        with pytest.raises(DomainError, match="dimension must be >= 2"):
            refuse(1)


# ------------------------------------------------- representation coherence

def test_superop_matches_kraus_action():
    rng = np.random.default_rng(22)
    for d in (2, 3):
        kraus = random_channel(rng, d, 2)
        S = superop_of_kraus(kraus)
        rho = random_state(rng, d)
        direct = sum(K @ rho @ K.conj().T for K in kraus)
        assert np.abs(apply_superop(S, rho) - direct).max() < 1e-12


def test_choi_of_identity():
    chi = choi_of_kraus([np.eye(2)])
    evals = np.linalg.eigvalsh(chi)
    assert evals == pytest.approx([0.0, 0.0, 0.0, 2.0], abs=1e-12)
    assert chi.trace() == pytest.approx(2.0)


def test_stacked_superop_action():
    rng = np.random.default_rng(27)
    S = np.array([superop_of_kraus(random_channel(rng, 2, 2)) for _ in range(6)])
    rho = np.array([random_state(rng, 2) for _ in range(6)])
    out = apply_superop(S, rho)
    assert out.shape == (6, 2, 2)
    for i in range(6):
        assert np.array_equal(out[i], apply_superop(S[i], rho[i]))
    # one map over a stack of states, and a stack of maps over one state
    assert np.array_equal(apply_superop(S[0], rho)[4], apply_superop(S[0], rho[4]))
    assert np.array_equal(apply_superop(S, rho[2])[5], apply_superop(S[5], rho[2]))


# --------------------------------------------------------------- generators

@pytest.mark.parametrize("family", [DephasingGenerator, ProjectorGenerator])
def test_generator_choi_reshuffle_equals_defining_loop(family):
    rates = (0.0, 1.0, 0.3717, -2.5)
    for r in rates:
        gen = family(rate=r)
        assert np.array_equal(choi_of_generator(gen),
                              choi_loop.choi_of_generator(gen))
        gen3 = family(rate=r, dim=3)
        assert np.abs(choi_of_generator(gen3)
                      - choi_loop.choi_of_generator(gen3)).max() <= 1e-15
    # an array of rates gives the stack of the single-rate matrices
    stack = choi_of_generator(family(rate=np.array([rates, rates[::-1]])))
    assert stack.shape == (2, 4, 4, 4)
    for idx in np.ndindex(2, 4):
        single = family(rate=np.array([rates, rates[::-1]])[idx])
        assert np.array_equal(stack[idx], choi_of_generator(single))


@pytest.mark.parametrize("family", [DephasingGenerator, ProjectorGenerator])
@pytest.mark.parametrize("dim", [2, 3])
def test_generator_choi_is_trace_annihilating(family, dim):
    # tracing out the output factor leaves 0: L[rho] is traceless for every
    # input rho, which is stronger than a traceless Choi matrix
    for rate in (0.0, 0.3717, 1.0, -2.5):
        choi = choi_of_generator(family(rate=rate, dim=dim))
        partial = choi.reshape(dim, dim, dim, dim).trace(axis1=0, axis2=2)
        assert np.abs(partial).max() <= 1e-15


def test_generator_choi_is_hermitian_traceless():
    for gen in (DephasingGenerator(rate=1.3), ProjectorGenerator(rate=0.4),
                DephasingGenerator(rate=1.0, dim=3)):
        chi = choi_of_generator(gen)
        assert np.abs(chi - chi.conj().T).max() < 1e-12
        assert abs(chi.trace()) < 1e-12


def test_family_constants():
    # trace norm of the generator Choi per unit rate, measured not assumed
    c2 = trace_norm(choi_of_generator(DephasingGenerator(rate=1.0, dim=2)))
    c3 = trace_norm(choi_of_generator(DephasingGenerator(rate=1.0, dim=3)))
    c_proj = trace_norm(choi_of_generator(ProjectorGenerator(rate=1.0)))
    assert c2 == pytest.approx(2.0, abs=1e-12)
    assert abs(c2 - c3) < 1e-9  # dimension-independent under 1/d scaling
    assert c_proj == pytest.approx(1.0 + np.sqrt(5.0), abs=1e-9)


def test_generator_choi_linearity_in_rate():
    chi1 = choi_of_generator(DephasingGenerator(rate=1.0))
    chi_a = choi_of_generator(DephasingGenerator(rate=0.3))
    chi_b = choi_of_generator(DephasingGenerator(rate=1.1))
    assert np.abs((chi_b - chi_a) - 0.8 * chi1).max() < 1e-12

