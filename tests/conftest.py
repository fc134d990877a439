import numpy as np
import pytest
from hypothesis import settings

from qdiscord.experiments import ExperimentConfig, _hs_states

# property tests draw the same examples on every run and store none
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def random_unitary(rng, dim=2):
    """Haar-random unitary via QR with the phase convention fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_rotation(rng):
    """Haar-random proper rotation in SO(3)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return q


def random_qubit_state(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def bell_psi_plus():
    """(|01> + |10>)/sqrt2 as a density matrix."""
    psi = np.zeros(4)
    psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi).astype(complex)


def hs_states(seed, count):
    """The first ``count`` states of ``random_hs_state(SeededGenerator(seed))``,
    drawn as one stack."""
    return list(_hs_states(ExperimentConfig(seed=seed), range(count)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
