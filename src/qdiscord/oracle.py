"""The direct-diagonalization oracle of the conditional entropy.

Measures qubit A of a two-qubit state along unit Bloch vectors n and
diagonalizes the remaining states of B explicitly: the independent check of
the closed form in :mod:`qdiscord.closed_form`, which this module never
imports.  Also the exact classical correlation of Bell-diagonal states, the
check of the minimizer on that family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .linalg import (EIGENVALUE_FLOOR, SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z, ZERO_PROBABILITY,
                     direction_row, entropy_bits, one_matrix, validate_density_matrix,
                     validate_direction, validate_directions)


def _projector_pairs(v: np.ndarray) -> np.ndarray:
    """Projector pairs (1 +- n.sigma)/2 of the measurements along the unit rows n
    of ``v`` (K, 3): (K, 2, 2, 2), the + outcome first."""
    ns = (v[:, 0, None, None] * SIGMA_X + v[:, 1, None, None] * SIGMA_Y
          + v[:, 2, None, None] * SIGMA_Z)
    return np.stack([SIGMA_0 + ns, SIGMA_0 - ns], axis=1) / 2.0


def projectors(n) -> tuple[np.ndarray, np.ndarray]:
    """Projector pair (1 +- n.sigma)/2 of the measurement along ``n``."""
    plus, minus = _projector_pairs(validate_direction(n)[None])[0]
    return plus, minus


@dataclass(frozen=True)
class MeasurementOutcome:
    """One measurement branch: its probability and the remaining state of B.

    ``state`` is None for a deterministic-zero outcome (probability below
    ``ZERO_PROBABILITY``), whose entropy contribution is 0.
    """

    probability: float
    state: Optional[np.ndarray]


@dataclass(frozen=True)
class PostMeasurementEnsemble:
    outcomes: tuple[MeasurementOutcome, MeasurementOutcome]


def _measured_branches(rho: np.ndarray,
                       v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both outcomes of the measurements of A along the unit rows of ``v`` (K, 3)
    on a validated two-qubit ``rho``, the + outcome first: their probabilities
    p (K, 2), which of them are live (p >= ZERO_PROBABILITY), and the
    remaining B states of the live ones in that order (L, 2, 2), normalized
    by p and made Hermitian.  All 2K unnormalized B states Tr_A[(P x 1) rho]
    are one contraction of the projectors with rho's (2, 2, 2, 2) view."""
    m = np.einsum("...ac,cbad->...bd", _projector_pairs(v), rho.reshape(2, 2, 2, 2))
    p = m.trace(axis1=-2, axis2=-1).real
    live = p >= ZERO_PROBABILITY
    states = m[live] / p[live][:, None, None]
    return p, live, (states + states.conj().swapaxes(-1, -2)) / 2.0


def post_measurement(rho, n) -> PostMeasurementEnsemble:
    """Outcome probabilities and remaining B states for a measurement along ``n``."""
    p, live, states = _measured_branches(validate_density_matrix(one_matrix(rho)),
                                         validate_direction(n)[None])
    remaining = iter(states)
    return PostMeasurementEnsemble(outcomes=tuple(
        MeasurementOutcome(q, next(remaining)) if alive else MeasurementOutcome(max(q, 0.0), None)
        for q, alive in zip(p[0].tolist(), live[0].tolist())))


def _ce_direct(rho, dirs) -> np.ndarray:
    """Average entropy of B after measuring A along each row of ``dirs`` (K, 3),
    by explicit diagonalization: (K,).  Never touches the closed form; each
    row equals its direction's call alone.

    ``rho`` and ``dirs`` are validated once.  The live branches of
    :func:`_measured_branches`, Hermitian with unit trace by construction,
    are diagonalized as one stack with no further check: before the
    division by its probability p, a branch is rho compressed onto
    |m><m| x 1 (P = |m><m|), whose eigenvalues lie at or above rho's lowest,
    which validation lets reach -EIGENVALUE_FLOOR.  Rounding alone took the
    lowest eigenvalue of such branches down to -5.5e-5 at p = 1.2e-12 (pure
    product states measured near their Bloch vector on A).  Eigenvalues are
    read as at most 1, as the closed form reads g/w, so one below 0 and its
    partner above 1 add nothing to the entropy."""
    # the directions before rho: a lone call checks its direction first
    dirs = validate_directions(dirs)
    p, live, states = _measured_branches(validate_density_matrix(one_matrix(rho)), dirs)
    terms = np.zeros(p.shape)
    terms[live] = p[live] * entropy_bits(np.minimum(np.linalg.eigvalsh(states), 1.0))
    return terms[:, 0] + terms[:, 1]


def conditional_entropy_direct(rho, n) -> float:
    """Average entropy of B after measuring A along ``n``, by explicit diagonalization.

    Brute-force counterpart of :func:`conditional_entropy_closed`; the two
    must agree to 1e-10 on every valid (state, direction) pair.
    """
    return float(_ce_direct(rho, direction_row(n))[0])


def bell_diagonal_classical_correlation(c) -> float:
    """Classical correlation 1 - h(max_i |c_i|) of a Bell-diagonal state.

    Exact closed form; serves as the independent oracle for the numerical
    optimizer on this family.
    """
    cv = np.asarray(c, dtype=float)
    if cv.shape != (3,):
        raise ValidationError(f"expected three coefficients, got shape {cv.shape}")
    if not np.isfinite(cv).all():
        raise ValidationError("coefficients have non-finite entries")
    c1, c2, c3 = cv
    eigs = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3,
                     1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4.0
    if eigs.min() < -EIGENVALUE_FLOOR:
        raise ValidationError(f"coefficients {cv!r} do not give a positive state")
    x = float(np.max(np.abs(cv)))
    x = min(x, 1.0)
    p = 0.5 * (1.0 + x)
    q = 0.5 * (1.0 - x)
    h = 0.0 if q <= 0.0 else -(p * math.log2(p) + q * math.log2(q))
    return 1.0 - h
