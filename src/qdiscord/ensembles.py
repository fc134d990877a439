"""Deterministic state ensembles and reference families.

Random states are drawn under the Hilbert-Schmidt measure by normalizing
G G^dag for a complex Gaussian G.  Draws are indexed: the state at index k
depends only on (seed, k), so any partitioning of indices over workers
reproduces the same sequence bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import validate_density_matrix

_UINT64 = 2 ** 64


class SeededGenerator:
    """Counter-indexed random stream.

    Each draw consumes one index of an independent substream derived from
    ``(seed, index)``.  ``fork(k)`` positions a new generator at index ``k``,
    the documented way to split work across processes: a worker that owns
    indices ``k0..k1`` forks at ``k0`` and draws ``k1 - k0 + 1`` times.
    """

    def __init__(self, seed: int, start: int = 0):
        self.seed = int(seed) % _UINT64
        self.counter = int(start)

    def fork(self, index: int) -> "SeededGenerator":
        return SeededGenerator(self.seed, start=index)

    def next_rng(self) -> np.random.Generator:
        rng = np.random.default_rng([self.seed, self.counter % _UINT64])
        self.counter += 1
        return rng


def _ginibre_states(z: np.ndarray) -> np.ndarray:
    """States G G^dag / Tr(G G^dag) for a stack (S, 2, d, d) of standard normals,
    each the real parts of G, then its imaginary parts: a draw order that is
    part of the reproducibility contract."""
    g = z[:, 0] + 1j * z[:, 1]
    w = g @ g.conj().swapaxes(-1, -2)
    w = (w + w.conj().swapaxes(-1, -2)) / 2.0
    return w / w.trace(axis1=-2, axis2=-1).real[:, None, None]


def random_hs_state(gen: SeededGenerator) -> np.ndarray:
    """Next two-qubit state of the stream, Hilbert-Schmidt distributed."""
    return _ginibre_states(gen.next_rng().standard_normal((1, 2, 4, 4)))[0]


# the X-shaped entries of a two-qubit operator: the diagonal and the anti-diagonal
X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
X_MASK.setflags(write=False)


def project_x_state(rho) -> np.ndarray:
    """Project a state, or each state of a stack (..., 4, 4), onto the X-shaped
    subspace (diagonal plus anti-diagonal).

    The channel E_1 rho E_1 + E_2 rho E_2 with E_1 = diag(1,0,0,1),
    E_2 = diag(0,1,1,0), which keeps the X_MASK entries and zeroes the rest:
    trace preserving, positivity preserving, and idempotent.
    """
    return np.where(X_MASK, validate_density_matrix(rho), 0.0)


_PSI_PRODUCT = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)   # (|00> + |10>)/sqrt2
_PSI_ENTANGLED = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)  # (|01> + |10>)/sqrt2


def mixture_family(q: float) -> np.ndarray:
    """Mixture (1-q) |psi0><psi0| + q |psi1><psi1| of a product state and a
    maximally entangled state.

    q = 0 is a product state (zero discord), q = 1 a Bell state (discord 1).
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"mixture weight {q!r} outside [0, 1]")
    rho = ((1.0 - q) * np.outer(_PSI_PRODUCT, _PSI_PRODUCT)
           + q * np.outer(_PSI_ENTANGLED, _PSI_ENTANGLED))
    return rho.astype(complex)


def off_axis_x_state() -> np.ndarray:
    """Reference X-state, already canonical, whose optimal measurement axis is
    off every coordinate axis (polar angle near 0.155 pi).

    Correlation triple (0.2, 0.2, 0.14787644).  The entries are used exactly
    as printed (4 decimals, trace 1) without renormalization.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.0783
    rho[1, 1] = 0.1250
    rho[2, 2] = 0.1250
    rho[3, 3] = 0.6717
    rho[1, 2] = 0.1000
    rho[2, 1] = 0.1000
    return rho
