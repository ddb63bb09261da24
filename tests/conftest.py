import numpy as np
import pytest

from stabcorrect.gf2 import PauliLabel
from stabcorrect.harness import _random_clifford_gates
from stabcorrect.pauli import (
    CliffordCircuit,
    PhasedPauli,
    stabilizer_inner_product,
    statevector_of,
)
from stabcorrect.statevec import StateVector, overlap, statevector_of_stab


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_label(n, rng):
    return PauliLabel(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def random_phased(n, rng):
    return PhasedPauli(random_label(n, rng), int(rng.integers(4)))


def random_circuit(n, rng, length=None):
    length = length if length is not None else 4 * n * n + 4
    return CliffordCircuit(n, tuple(_random_clifford_gates(n, rng, length)))


def t_state():
    return StateVector(1, np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2))


def planted_state(n, rng, weight=0.9):
    """sqrt(w)|s> + sqrt(1-w)|junk orthogonal>, with the plant returned."""
    from stabcorrect.pauli import enumerate_stabilizer_states

    states = enumerate_stabilizer_states(n)
    s = states[int(rng.integers(len(states)))]
    sv = statevector_of(s)
    junk = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    junk -= np.vdot(sv, junk) * sv
    junk /= np.linalg.norm(junk)
    return s, StateVector(n, np.sqrt(weight) * sv + np.sqrt(1 - weight) * junk)


def orthogonal_stab_pair(n, rng):
    """Two stabilizer states with exactly zero overlap."""
    from stabcorrect.pauli import enumerate_stabilizer_states

    states = enumerate_stabilizer_states(n)
    while True:
        s1 = states[int(rng.integers(len(states)))]
        v1 = statevector_of(s1)
        order = rng.permutation(len(states))
        for j in order:
            s2 = states[int(j)]
            if abs(np.vdot(v1, statevector_of(s2))) < 1e-12:
                return s1, s2


def _exact_betas(psi, phis):
    """Exact running coefficients: <phi_j|psi> minus the cross-terms of the
    earlier terms, as the loop's exact estimator builds them."""
    betas = []
    for j, phi in enumerate(phis):
        val = overlap(statevector_of_stab(phi), psi)
        for i in range(j):
            val -= betas[i] * stabilizer_inner_product(phi, phis[i])
        betas.append(val)
    return betas
