"""Pauli-basis tensor representation of two-qubit states.

A state rho is expanded as rho = 1/4 sum_ij tau[i,j] sigma_i x sigma_j with
real coefficients tau[i,j] = Tr[(sigma_i x sigma_j) rho], i,j in 0..3.  The
tensor splits into the marginal Bloch vectors a, b and the raw two-point
correlation block R; the connected correlations are Lambda = R - a b^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import PAULIS, require_hermitian, validate_density_matrix

# TAU_BASIS[i, j] = sigma_i x sigma_j
TAU_BASIS = np.array([[np.kron(p, q) for q in PAULIS] for p in PAULIS])
TAU_BASIS.setflags(write=False)


def decompose(rho) -> np.ndarray:
    """Pauli coefficient tensor tau of a two-qubit state as a real 4x4 array, or
    of each state of a stack (..., 4, 4) as (..., 4, 4).

    The input is checked by :func:`qdiscord.linalg.require_hermitian`:
    finite, and Hermitian within its HERMITICITY_TOL.  The coefficients of
    such a matrix are real up to rounding, which is dropped.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {m.shape}")
    return np.einsum("ijab,...ba->...ij", TAU_BASIS, require_hermitian(m)).real.copy()


def reconstruct(tau) -> np.ndarray:
    """Rebuild the density matrix 1/4 sum_ij tau[i,j] sigma_i x sigma_j.

    The matrix is returned through
    :func:`qdiscord.linalg.validate_density_matrix`, so it raises exactly
    what that raises: :class:`NotAStateError` for a trace tau[0,0] off 1 or
    an eigenvalue below -EIGENVALUE_FLOOR.
    """
    t = np.asarray(tau, dtype=float)
    if t.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 tensor, got shape {t.shape}")
    return validate_density_matrix(0.25 * np.einsum("ij,ijab->ab", t, TAU_BASIS))


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks of the coefficient tensor, of one state or of a stack of them.

    ``a`` and ``b`` are the Bloch vectors of qubits A and B, (..., 3); ``r``
    holds the raw correlations Tr[(sigma_i x sigma_j) rho] for i,j in 1..3,
    (..., 3, 3).
    """

    a: np.ndarray
    b: np.ndarray
    r: np.ndarray

    def connected(self) -> np.ndarray:
        """Connected correlation matrix R - a b^T, (..., 3, 3)."""
        return self.r - self.a[..., :, None] * self.b[..., None, :]


def one_state_blocks(blocks: BlockDecomposition) -> BlockDecomposition:
    """Return ``blocks``, checking that they are one state's, a and b (3,) and
    R (3, 3), with finite entries, for a one-state call to check before the
    stacked arithmetic, which would broadcast a stack and compute on NaN or inf."""
    parts = (blocks.a, blocks.b, blocks.r)
    shapes = tuple(np.shape(x) for x in parts)
    if shapes != ((3,), (3,), (3, 3)):
        raise ValidationError("expected the blocks of one state, a (3,), b (3,) and R (3, 3), "
                              f"got shapes {shapes[0]}, {shapes[1]} and {shapes[2]}")
    if not all(np.isfinite(x).all() for x in parts):
        raise ValidationError("blocks have non-finite entries")
    return blocks


def blocks(tau) -> BlockDecomposition:
    """(a, b, R) of a coefficient tensor or of each of a stack; lossless with tau[0,0]=1."""
    t = np.asarray(tau, dtype=float)
    if t.shape[-2:] != (4, 4):
        raise ValidationError(f"expected a 4x4 tensor, got shape {t.shape}")
    return BlockDecomposition(a=t[..., 1:, 0].copy(), b=t[..., 0, 1:].copy(),
                              r=t[..., 1:, 1:].copy())


def state_blocks(rho) -> BlockDecomposition:
    """Blocks of a state's coefficient tensor, or of each of a stack (..., 4, 4)."""
    return blocks(decompose(rho))


def correlation_matrix(rho) -> np.ndarray:
    """Connected correlation matrix Lambda_ij = <sigma_i sigma_j> - <sigma_i><sigma_j>
    of a state, or of each of a stack (..., 4, 4)."""
    return state_blocks(rho).connected()
