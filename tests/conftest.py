import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import qdiscord
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


def same_bits(x, y):
    """Whether two arrays or numbers have the same dtype, shape and bits."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def child_env():
    """The environment of a fresh interpreter that imports this qdiscord."""
    src = str(Path(qdiscord.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(code, timeout=None):
    """Standard output of ``code`` run by a fresh interpreter that imports this
    qdiscord.  A child still running after ``timeout`` seconds, if given, is
    killed and fails the test, so a call that does not return cannot hang the
    suite."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, check=True, timeout=timeout).stdout


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
