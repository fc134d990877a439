"""Reduction of two-qubit states to canonical form under local unitaries.

The canonical representative has a diagonal connected-correlation matrix
diag(L1, L2, L3) with L1 >= L2 >= |L3| and the sign of L3 fixed by
det(Lambda).  The measurement along the axis of the largest correlation
(x for canonical states) is the maximal-correlation-direction measurement
(MCDM); for the original state it is obtained by rotating that axis back
through the canonicalizing rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fano_bloch import BlockDecomposition, correlation_matrix
from .linalg import one_matrix, su2_from_so3, validate_density_matrix

# below this, det(Lambda) carries no usable sign information
DEGENERATE_DET_TOL = 1e-12
# an ordered lam this close to diagonal keeps the identity, not its SVD's (see refine.X_SHAPE_TOL)
_DIAGONAL_FAST_PATH_TOL = 1e-13
CANONICAL_TOL = 1e-9  # is_canonical's default: Lambda's off-diagonal and order slack
# the off-diagonal entries of a 3 x 3 matrix
OFF_DIAGONAL = ~np.eye(3, dtype=bool)


@dataclass(frozen=True)
class CanonicalDecomposition:
    """A state together with the local transformation that canonicalizes it.

    ``canonical_state = (u1 x u2) rho (u1 x u2)^dag`` and ``o1``, ``o2`` are
    the SO(3) rotations lifted by ``u1``, ``u2``.  ``lambda_diag`` holds the
    ordered correlation triple of the canonical state.
    """

    canonical_state: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    o1: np.ndarray
    o2: np.ndarray
    lambda_diag: np.ndarray


def canonical_rotations(lam) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotations (o1, o2) in SO(3) and s with o1 lam o2^T = diag(s), s[0] >= s[1] >= |s[2]|,
    for one 3x3 matrix or for each of a stack (..., 3, 3).

    An already canonical ``lam`` keeps the identity.  Otherwise the SVD
    decides (for degenerate spectra its branch is kept, for reproducibility),
    with both factors forced into SO(3): flipping a single singular value's
    sign is impossible inside SO(3) x SO(3), so s[2] carries sign(det lam).
    """
    lam = np.asarray(lam, dtype=float)
    fast = np.abs(lam[..., OFF_DIAGONAL]).max(axis=-1) <= _DIAGONAL_FAST_PATH_TOL
    u, s, vt = np.linalg.svd(lam)
    # the determinant of an orthogonal factor is +-1
    sign_u, sign_v = np.sign(np.linalg.det(u)), np.sign(np.linalg.det(vt))
    u[..., 2] *= sign_u[..., None]
    vt[..., 2, :] *= sign_v[..., None]
    s[..., 2] *= sign_u * sign_v
    if fast.any():
        d = lam.diagonal(axis1=-2, axis2=-1)
        fast &= (d[..., 0] >= d[..., 1]) & (d[..., 1] >= np.abs(d[..., 2]))
        u[fast] = vt[fast] = np.eye(3)
        s[fast] = d[fast]
    # a negative s[2] whose sign is below noise: report the non-negative representative
    s3 = s[..., 2]
    s3[(s3 < 0.0) & (s3 >= -DEGENERATE_DET_TOL)] *= -1.0
    return u.swapaxes(-1, -2), vt, s


def canonical_blocks(blocks: BlockDecomposition) -> tuple[np.ndarray, BlockDecomposition]:
    """Rotation o1 and the canonical form's blocks (o1 a, o2 b, o1 R o2^T), of one
    state or of each of a stack, without the SU(2) lift; a direction n in the
    canonical frame is o1^T n for ``blocks``."""
    o1, o2, _ = canonical_rotations(blocks.connected())
    return o1, BlockDecomposition(a=(o1 @ blocks.a[..., None])[..., 0],
                                  b=(o2 @ blocks.b[..., None])[..., 0],
                                  r=o1 @ blocks.r @ o2.swapaxes(-1, -2))


def to_canonical(rho) -> CanonicalDecomposition:
    """Canonical decomposition of an arbitrary two-qubit state: the rotations
    of :func:`canonical_rotations` lifted to SU(2) and applied to ``rho``."""
    rho = validate_density_matrix(one_matrix(rho))
    o1, o2, s = canonical_rotations(correlation_matrix(rho))
    u1 = su2_from_so3(o1)
    u2 = su2_from_so3(o2)
    w = np.kron(u1, u2)
    state = w @ rho @ w.conj().T
    state = (state + state.conj().T) / 2.0
    return CanonicalDecomposition(canonical_state=state, u1=u1, u2=u2,
                                  o1=o1, o2=o2, lambda_diag=s)


def is_canonical(rho, tol: float = CANONICAL_TOL) -> bool:
    """Whether the connected-correlation matrix is diagonal and ordered within ``tol``."""
    lam = correlation_matrix(validate_density_matrix(one_matrix(rho)))
    d = lam.diagonal()
    if np.max(np.abs(lam - np.diag(d))) > tol:
        return False
    return d[0] >= d[1] - tol and d[1] >= abs(d[2]) - tol


def hemisphere_representative(n) -> np.ndarray:
    """The representative of {n, -n} with theta in [0, pi) and phi in [-pi/2, pi/2),
    of one vector or of each of a stack (..., 3)."""
    v = np.asarray(n, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    flip = (x < 0.0) | ((x == 0.0) & ((y > 0.0) | ((y == 0.0) & (z < 0.0))))
    return np.where(flip[..., None], -v, v) + 0.0  # no -0.0 components


def mcdm_direction(decomp: CanonicalDecomposition) -> np.ndarray:
    """Bloch axis of the maximal-correlation-direction measurement on the ORIGINAL state.

    For the canonical state the measurement is along x; pulled back through
    the canonicalizing rotation it is the axis of u1^dag sigma_1 u1, i.e. the
    first row of o1, reported as its hemisphere representative (n and -n
    label the same measurement).
    """
    return hemisphere_representative(decomp.o1[0])
