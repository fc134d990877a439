"""Pauli-basis tensor representation of two-qubit states.

A state rho is expanded as rho = 1/4 sum_ij tau[i,j] sigma_i x sigma_j with
real coefficients tau[i,j] = Tr[(sigma_i x sigma_j) rho], i,j in 0..3.  The
tensor splits into the marginal Bloch vectors a, b and the raw two-point
correlation block R; the connected correlations are Lambda = R - a b^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAStateError, ValidationError
from .linalg import PAULIS, TRACE_TOL

# TAU_BASIS[i, j] = sigma_i x sigma_j
TAU_BASIS = np.array([[np.kron(p, q) for q in PAULIS] for p in PAULIS])
TAU_BASIS.setflags(write=False)

IMAG_RESIDUE_TOL = 1e-8
RECONSTRUCT_EIG_FLOOR = 1e-8
TAU_ENTRY_TOL = 1e-10  # reconstruct takes tau entries up to 1 + TAU_ENTRY_TOL in size


def decompose(rho) -> np.ndarray:
    """Pauli coefficient tensor tau of a two-qubit state as a real 4x4 array, or
    of each state of a stack (..., 4, 4) as (..., 4, 4).

    The coefficients of a Hermitian operator are real by construction;
    an imaginary residue above 1e-8 means the input was not Hermitian.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {m.shape}")
    tau = np.einsum("ijab,...ba->...ij", TAU_BASIS, m)
    if (np.abs(tau.imag) > IMAG_RESIDUE_TOL).any():
        raise ValidationError("non-Hermitian input: Pauli coefficients have imaginary parts")
    return tau.real.copy()


def reconstruct(tau) -> np.ndarray:
    """Rebuild the density matrix 1/4 sum_ij tau[i,j] sigma_i x sigma_j.

    Raises :class:`NotAStateError` when the tensor lies outside the physical
    set (an eigenvalue below -1e-8).
    """
    t = np.asarray(tau, dtype=float)
    if t.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 tensor, got shape {t.shape}")
    if abs(t[0, 0] - 1.0) > TRACE_TOL:
        raise ValidationError(f"tau[0,0] is {float(t[0, 0])!r}, expected 1 (unit trace)")
    if np.max(np.abs(t)) > 1.0 + TAU_ENTRY_TOL:
        raise ValidationError("tau entries must lie in [-1, 1]")
    rho = 0.25 * np.einsum("ij,ijab->ab", t, TAU_BASIS)
    smallest = np.linalg.eigvalsh(rho)[0]
    if smallest < -RECONSTRUCT_EIG_FLOOR:
        raise NotAStateError(f"tensor is not a state: eigenvalue {float(smallest)!r}")
    return rho


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
