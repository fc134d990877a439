"""Correlation measures of two-qubit states.

Mutual information, classical correlation and quantum discord, from the
minimum of the conditional entropy CE that :mod:`qdiscord.refine` finds on
the blocks of the state's canonical form, where the x axis is the
maximal-correlation direction (MCDM).  Evaluating CE's closed form at the
MCDM instead of the optimum gives a cheap upper bound on the discord.  Also
the angles of measurement directions and the zero-discord states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .canonical import canonical_blocks, hemisphere_representative
from .closed_form import conditional_entropy_closed
from .errors import ValidationError
from .fano_bloch import BlockDecomposition, one_state_blocks, state_blocks
from .linalg import (binary_entropy, direction_row, entropy_bits, one_matrix,
                     validate_density_matrix, validate_directions, validated_spectrum)
from .oracle import projectors
from .refine import X_AXIS, _minimize_many

# construct_zero_discord takes outcome probabilities whose sum is within this of 1
PROBABILITY_SUM_TOL = 1e-12
# correlation quantities in [-CLAMP_WINDOW, 0) are reported as 0
CLAMP_WINDOW = 1e-9
# zero_discord_witness: R or a with a norm at most WITNESS_VANISHING_TOL
# vanishes, and an axis n is a witness when no entry of n n^T a - a or
# n n^T R - R exceeds WITNESS_TOL in size
WITNESS_VANISHING_TOL = 1e-10
WITNESS_TOL = 1e-9


def direction_from_angles(theta: float, phi: float) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def angles_from_directions(n) -> list[tuple[float, float]]:
    """(theta, phi) of the hemisphere representative of each row of ``n`` (S, 3).
    The angles are taken row by row with ``math``, whose acos and atan2 can
    differ from numpy's in the last bit."""
    return [(math.acos(min(1.0, max(-1.0, z))),
             math.atan2(y, x) if (x != 0.0 or y != 0.0) else 0.0)
            for x, y, z in hemisphere_representative(validate_directions(n)).tolist()]


def angles_from_direction(n) -> tuple[float, float]:
    """(theta, phi) of the hemisphere representative of ``n``."""
    return angles_from_directions(direction_row(n))[0]


def minimize_conditional_entropy(rho) -> tuple[np.ndarray, float]:
    """Global minimum of the conditional entropy over the measurement hemisphere,
    as :func:`quantum_discord` reports it.

    A deterministic trust-region Newton refinement on the canonical form's
    blocks, with the exact gradient and Hessian of CE in an orthonormal
    tangent frame, runs at once from the three canonical axes: x, the MCDM,
    and the second and third correlation axes y and z, with a first trust
    radius of pi/4 at x and y and of pi/96 at z.  A start stops once its
    quadratic model promises a decrease of at most 1e-17, and leaves then
    or once another has stopped at or below halfway to where its model
    leads; the lowest end wins, the earlier axis on ties.  Ties with an
    axis value resolve to x, then y, then z.  Returns the direction in the
    frame of ``rho`` (hemisphere representative) and the value in bits.

    An X-shaped canonical form (R diagonal, a and b along one axis k) has its
    minimum on the great circle through e_k and the transverse axis of the
    larger correlation.  The state is settled on that circle instead: the
    lowest of 17 points from e_k to the transverse axis starts the same
    iteration along the circle, and the direction has no component along
    the third axis.

    The value is reproducible to its last bits; the direction only to about
    2e-8, because CE is flat to second order at its minimum: scaling the
    canonical block a by 1 + 2^-52 moved the direction, up to its sign, by
    up to 1.7e-8 (median 1.2e-16) and the value by up to 4.4e-16 on 300
    seed-137 Hilbert-Schmidt states.
    """
    report = quantum_discord(rho)
    return report.optimal_direction, report.min_conditional_entropy


# --------------------------------------------------------------------------- #
# correlation measures                                                        #
# --------------------------------------------------------------------------- #

def _clamp(value: np.ndarray) -> np.ndarray:
    """Correlation quantities in [-CLAMP_WINDOW, 0] as +0.0, elementwise."""
    return np.where((-CLAMP_WINDOW <= value) & (value <= 0.0), 0.0, value)


def _discord(mutual: np.ndarray, s_b: np.ndarray, ce: np.ndarray) -> np.ndarray:
    """The discord formula I - (S_B - CE), each difference clamped, at the
    conditional entropy CE of a measurement, elementwise.  At the minimum CE
    it is the discord, and at the MCDM's CE its upper bound: both round
    alike, and the tie-break gives CE_min <= CE_mcdm, so the bound is never
    below the discord."""
    return _clamp(mutual - _clamp(s_b - ce))


def _blocks_and_entropies(rho) -> tuple[BlockDecomposition, np.ndarray, np.ndarray]:
    """Validate ``rho``, one state or a stack (..., 4, 4), once; return its blocks,
    S(rho_B) and the mutual information S(rho_A) + S(rho_B) - S(rho), clamped,
    each of shape (...).

    The marginals have eigenvalues (1 +- |a|)/2 and (1 +- |b|)/2; within the
    validation tolerance a Bloch length may exceed 1 by rounding noise.
    """
    rho, spectrum = validated_spectrum(rho)
    blocks = state_blocks(rho)
    ab = np.stack([blocks.a, blocks.b], axis=-2)
    # |a| and |b| as np.linalg.norm takes them of one vector: a dot product
    lengths = np.sqrt((ab[..., None, :] @ ab[..., :, None])[..., 0, 0])
    marginal = binary_entropy(np.minimum(1.0, lengths))
    s_b = marginal[..., 1]
    return blocks, s_b, _clamp(marginal[..., 0] + s_b - entropy_bits(spectrum))


def mutual_information(rho) -> float:
    """Total correlations S(rho_A) + S(rho_B) - S(rho) in bits."""
    return float(_blocks_and_entropies(one_matrix(rho))[2])


def classical_correlation(rho) -> float:
    """S(rho_B) minus the minimal conditional entropy, in bits, as
    :func:`quantum_discord` reports it."""
    return quantum_discord(rho).classical_correlation


@dataclass(frozen=True)
class DiscordReport:
    """All correlation quantities of one state, in bits, or of each state of a
    stack: then each value is an array (S,) and each direction one (S, 3)."""

    mutual_information: float
    classical_correlation: float
    discord: float
    mcdm_discord: float
    optimal_direction: np.ndarray
    min_conditional_entropy: float
    mcdm_conditional_entropy: float
    mcdm_direction: np.ndarray


def _discord_reports(rhos) -> DiscordReport:
    """:func:`quantum_discord` of each state of a stack (S, 4, 4), as one report
    of stacked fields, with one call per stage for all of them."""
    blocks, s_b, mutual = _blocks_and_entropies(rhos)
    o1, canonical = canonical_blocks(blocks)
    n_opt, ce_min, axis_values = _minimize_many(canonical.a, canonical.b, canonical.r)
    # CE at the MCDM, the first tie-break axis, so ce_min <= ce_mcdm
    ce_mcdm = axis_values[:, 0]
    return DiscordReport(
        mutual, _clamp(s_b - ce_min), _discord(mutual, s_b, ce_min), _discord(mutual, s_b, ce_mcdm),
        hemisphere_representative((o1.swapaxes(-1, -2) @ n_opt[..., None])[..., 0]),
        ce_min, ce_mcdm, hemisphere_representative(o1[..., 0, :]))


def quantum_discord(rho) -> DiscordReport:
    """Full correlation report: mutual information, classical correlation,
    discord, and the maximal-correlation-direction upper bound."""
    stacked = vars(_discord_reports(one_matrix(rho)[None]))
    return DiscordReport(*(v[0] if v.ndim > 1 else v.item() for v in stacked.values()))


def mcdm_discord(rho) -> float:
    """Discord formula evaluated at the maximal-correlation direction.

    An upper bound on the quantum discord: the direction is a member of the
    set the true discord minimizes over.
    """
    blocks, s_b, mutual = _blocks_and_entropies(one_matrix(rho))
    return float(_discord(mutual, s_b,
                          conditional_entropy_closed(canonical_blocks(blocks)[1], X_AXIS)))


# --------------------------------------------------------------------------- #
# zero-discord states                                                         #
# --------------------------------------------------------------------------- #

def zero_discord_witness(blocks: BlockDecomposition) -> Optional[np.ndarray]:
    """Measurement axis n with n n^T a = a and n n^T R = R (within WITNESS_TOL), if one exists.

    The existence of such an axis is equivalent to zero discord.  The only
    candidate is the dominant left-singular vector of R (all columns of R and
    the vector a must be parallel to n); with vanishing R (norm at most
    WITNESS_VANISHING_TOL) the candidate is a itself, and with both vanishing
    every axis qualifies and the maximal-correlation axis x is returned.
    """
    blocks = one_state_blocks(blocks)
    a = blocks.a
    r = blocks.r
    if np.linalg.norm(r) > WITNESS_VANISHING_TOL:
        u, _, _ = np.linalg.svd(r)
        n = u[:, 0]
    elif np.linalg.norm(a) > WITNESS_VANISHING_TOL:
        n = a / np.linalg.norm(a)
    else:
        return X_AXIS.copy()
    n = n / np.linalg.norm(n)
    pn = np.outer(n, n)
    if np.max(np.abs(pn @ a - a)) <= WITNESS_TOL and np.max(np.abs(pn @ r - r)) <= WITNESS_TOL:
        return hemisphere_representative(n)
    return None


def construct_zero_discord(probabilities, n, states) -> np.ndarray:
    """Build sum_k p_k Proj_k x rho_k, a state with vanishing discord.

    ``probabilities`` is the outcome pair (p1, p2), ``n`` the measurement
    axis, ``states`` the pair of single-qubit remaining states of B.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (2,):
        raise ValidationError(f"expected two probabilities, got shape {p.shape}")
    if p.min() < 0.0 or not abs(p.sum() - 1.0) <= PROBABILITY_SUM_TOL:
        raise ValidationError(f"invalid probability pair {p!r}")
    proj_1, proj_2 = projectors(n)
    sigma_1 = validate_density_matrix(one_matrix(states[0], (2,)))
    sigma_2 = validate_density_matrix(one_matrix(states[1], (2,)))
    return p[0] * np.kron(proj_1, sigma_1) + p[1] * np.kron(proj_2, sigma_2)
