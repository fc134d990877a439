"""Dense complex linear algebra for one- and two-qubit operators.

Pauli constants, Hermitian eigensolving, entropies in bits, partial traces,
the checks of measurement directions, and the SO(3) -> SU(2) lift used by
the canonical-form machinery.  All functions are pure and safe for
concurrent use.
"""

from __future__ import annotations

import numpy as np

from .errors import NotAStateError, ValidationError

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)
for _p in PAULIS:
    _p.setflags(write=False)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# von_neumann_entropy's trace check, wider than TRACE_TOL: the marginals of a
# state whose trace is within TRACE_TOL of 1 can lie beyond it by rounding
ENTROPY_TRACE_TOL = 1e-9
# eigenvalues in [-EIGENVALUE_FLOOR, 0) are treated as rounding noise and clamped to 0
EIGENVALUE_FLOOR = 1e-10
# binary_entropy takes |x| up to 1 + BLOCH_LENGTH_TOL as rounding noise of a
# Bloch-vector length and reads it as 1; anything longer raises
BLOCH_LENGTH_TOL = 1e-12
# require_rotation accepts O when no entry of O^T O - I exceeds this in size
ROTATION_TOL = 1e-12
DIRECTION_TOL = 1e-12
# outcomes rarer than this are deterministic-zero; their entropy term is 0
ZERO_PROBABILITY = 1e-12
_TINY = np.finfo(float).tiny


def require_hermitian(matrix) -> np.ndarray:
    """Return ``matrix``, one 2x2 or 4x4 matrix or a stack (..., d, d) of them, as a
    complex ndarray, checking shape, finiteness and hermiticity."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise ValidationError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    if (np.abs(m - m.conj().swapaxes(-1, -2)) > HERMITICITY_TOL).any():
        raise ValidationError("matrix is not Hermitian within tolerance")
    return m


def validate_directions(n) -> np.ndarray:
    """Return ``n``, a stack (S, 3) of vectors, as floats, checking that each has
    unit norm.  A stack raises what its first non-unit row raises alone."""
    v = np.asarray(n, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValidationError(f"expected a stack of 3-vectors, got shape {v.shape}")
    norm = np.linalg.norm(v, axis=1)
    # not <=, so that a NaN norm is off too
    off = ~(np.abs(norm - 1.0) <= DIRECTION_TOL)
    if off.any():
        raise ValidationError(f"direction must be a unit vector, |n| = {float(norm[off][0])!r}")
    return v


def direction_row(n) -> np.ndarray:
    """Return ``n``, one 3-vector, as a float row (1, 3), checking its shape
    only, for a caller that passes it on to :func:`validate_directions`."""
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise ValidationError(f"expected a 3-vector, got shape {v.shape}")
    return v[None]


def validate_direction(n) -> np.ndarray:
    """Return ``n`` as a float 3-vector, checking unit norm."""
    return validate_directions(direction_row(n))[0]


def one_matrix(matrix, sizes: tuple[int, ...] = (4,)) -> np.ndarray:
    """Return ``matrix``, one d x d matrix with d in ``sizes``, as a complex ndarray,
    checking its shape only, for a one-state call to check before the stacked
    checks, which would take a stack and broadcast it."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in sizes:
        expected = " or ".join(f"{d}x{d}" for d in sizes)
        raise ValidationError(f"expected a {expected} matrix, got shape {m.shape}")
    return m


def eigvals_hermitian(matrix) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian 2x2 or 4x4 matrix, or of each of a stack."""
    return np.linalg.eigvalsh(require_hermitian(matrix))


def validated_spectrum(rho, trace_tol: float = TRACE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The state, or stack of states (..., d, d), as a complex ndarray and its
    ascending eigenvalues (..., d), the lowest of which may lie down to
    EIGENVALUE_FLOOR below 0, once it is checked Hermitian, of unit trace
    within ``trace_tol`` and positive.  A stack raises what its first state to
    fail a check raises alone."""
    rho = require_hermitian(rho)
    trace = rho.trace(axis1=-2, axis2=-1).real
    off = np.abs(trace - 1.0) > trace_tol
    if off.any():
        raise NotAStateError(f"trace is {float(trace[off][0])!r}, expected 1")
    w = np.linalg.eigvalsh(rho)
    negative = w[..., 0] < -EIGENVALUE_FLOOR
    if negative.any():
        raise NotAStateError(f"negative eigenvalue {float(w[..., 0][negative][0])!r}")
    return rho, w


def validate_density_matrix(rho) -> np.ndarray:
    """Check unit trace and positivity of one state or of each of a stack (..., d, d);
    return the input as a complex ndarray.

    Eigenvalues in ``[-EIGENVALUE_FLOOR, 0)`` are accepted as arithmetic
    noise; anything lower raises :class:`NotAStateError`.
    """
    return validated_spectrum(rho)[0]


def entropy_bits(eigenvalues) -> np.ndarray:
    """Entropy in bits of a spectrum (d,), or of each of a stack (..., d); entries
    at or below 0 contribute nothing."""
    w = np.asarray(eigenvalues, dtype=float)
    live = w > 0.0
    terms = np.where(live, w * np.log2(w, out=np.zeros_like(w), where=live), 0.0)
    # 0.0 - s, not -s: a zero entropy is +0.0
    return 0.0 - terms.sum(axis=-1)


def von_neumann_entropy(rho) -> float:
    """Entropy -Tr[rho log2 rho] in bits, with 0*log(0) taken as 0."""
    return float(entropy_bits(validated_spectrum(one_matrix(rho, (2, 4)), ENTROPY_TRACE_TOL)[1]))


def partial_trace(rho, keep: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator.

    Parameters
    ----------
    rho : (4, 4) array_like
        Operator on the composite space, basis ordered |00>,|01>,|10>,|11>.
    keep : {"A", "B"}
        Which subsystem the result lives on.

    The map is linear and accepts any (not necessarily positive) operator.
    """
    r = one_matrix(rho).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    """h(x) of :func:`binary_entropy` for each x in [0, 1] of an array with at
    least one axis, unchecked; overwrites ``x``."""
    q = np.subtract(1.0, x)
    q *= 0.5
    p = np.add(1.0, x, out=x)
    p *= 0.5
    # q is 0 or at least 2^-54: log2(max(q, tiny)) is log2(q), and q = 0
    # gives q log2(tiny) = -0.0, which adds as 0
    t = np.maximum(q, _TINY)
    np.log2(t, out=t)
    t *= q
    h = np.log2(p)
    h *= p
    h += t
    return np.subtract(0.0, h, out=h)  # 0.0 - h, not -h: a zero entropy is +0.0


def binary_entropy(x):
    """Entropy in bits of the eigenvalue pair ((1+x)/2, (1-x)/2), for a number or
    elementwise for an array.

    Even in ``x``; equals 1 at x=0 and 0 at x=+-1.  NaN and inputs beyond
    |x| = 1 + BLOCH_LENGTH_TOL signal a broken upstream norm computation and raise.
    """
    x = np.asarray(x, dtype=float)
    length = np.abs(x)
    off = ~(length <= 1.0 + BLOCH_LENGTH_TOL)  # not <=, so that NaN is off too
    if off.any():
        raise ValidationError(f"binary_entropy argument {float(x[off][0])!r} outside [-1, 1]")
    h = _binary_entropy(np.minimum(np.atleast_1d(length), 1.0))
    return h if x.ndim else h[0]


def require_rotation(matrix) -> np.ndarray:
    """Return ``matrix`` as a real 3x3 ndarray, checking orthogonality."""
    o = np.asarray(matrix, dtype=float)
    if o.shape != (3, 3):
        raise ValidationError(f"expected a 3x3 matrix, got shape {o.shape}")
    # an inf entry leaves NaN in O^T O, and so does a NaN entry: both fail
    # this test, written as not <=
    with np.errstate(invalid="ignore"):
        residual = np.max(np.abs(o.T @ o - np.eye(3)))
    if not residual <= ROTATION_TOL:
        raise ValidationError("matrix is not orthogonal within tolerance")
    return o


def su2_from_so3(rotation) -> np.ndarray:
    """Lift a proper rotation O to the 2x2 unitary U with U^dag sigma_i U = sum_j O_ij sigma_j.

    The lift is defined up to a global sign; the representative returned is
    the one produced by the largest-pivot quaternion extraction, which keeps
    the computation well conditioned for every input.  Reflections
    (det O = -1) are rejected: they have no SU(2) counterpart.
    """
    o = require_rotation(rotation)
    if np.linalg.det(o) < 0.0:
        raise ValidationError("det = -1: reflections have no SU(2) lift")
    o00, o11, o22 = o.diagonal()
    t = o00 + o11 + o22
    # p[i, j] = 4 q_i q_j of O's quaternion q = (w, x, y, z); pivot on the largest |q_i|
    p = np.empty((4, 4))
    p[1:, 1:] = o + o.T
    p[0, 1:] = p[1:, 0] = o[2, 1] - o[1, 2], o[0, 2] - o[2, 0], o[1, 0] - o[0, 1]
    np.fill_diagonal(p, (1.0 + t, 1.0 + o00 - o11 - o22,
                         1.0 - o00 + o11 - o22, 1.0 - o00 - o11 + o22))
    i = int(np.argmax((t, o00, o11, o22)))
    r = np.sqrt(p[i, i])
    q = p[i] / (2.0 * r)
    q[i] = 0.5 * r
    q /= np.linalg.norm(q)
    return q[0] * SIGMA_0 - 1j * (q[1] * SIGMA_X + q[2] * SIGMA_Y + q[3] * SIGMA_Z)
