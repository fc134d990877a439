"""Correlation measures of two-qubit states.

Von Neumann measurements on qubit A are labelled by unit Bloch vectors n
(n and -n give the same measurement).  The average post-measurement entropy
of B has a closed form in the block decomposition (a, b, R):

    CE(n) = (1+f)/2 h(g+/(1+f)) + (1-f)/2 h(g-/(1-f)),
    f = a.n,  g+- = |b +- R^T n|,

which a dense hemisphere grid plus simplex refinement minimizes to obtain
the classical correlation and the quantum discord.  Evaluating the same
expression at the maximal-correlation direction instead of the optimum
gives a cheap upper bound on the discord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize
from scipy.special import xlogy

from .canonical import canonical_rotations, hemisphere_representative
from .errors import ConsistencyError, ValidationError
from .fano_bloch import BlockDecomposition, state_blocks
from .linalg import (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z, binary_entropy,
                     entropy_bits, partial_trace, validate_density_matrix,
                     validated_spectrum, von_neumann_entropy)

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])
for _ax in (X_AXIS, Y_AXIS, Z_AXIS):
    _ax.setflags(write=False)

DIRECTION_TOL = 1e-12
# outcomes rarer than this are deterministic-zero; their entropy term is 0
ZERO_PROBABILITY = 1e-12
# slack on g <= 1 +- f; a larger excess means the input was not a state
POSITIVITY_SLACK = 1e-9
# two conditional-entropy values within this window count as a tie
VALUE_TIE_TOL = 1e-10
GRID_TIE_TOL = 1e-11
# correlation quantities in [-CLAMP_WINDOW, 0) are reported as 0
CLAMP_WINDOW = 1e-9

THETA_BINS = 96
PHI_BINS = 192

_LN2 = math.log(2.0)


# --------------------------------------------------------------------------- #
# measurement directions                                                      #
# --------------------------------------------------------------------------- #

def validate_direction(n) -> np.ndarray:
    """Return ``n`` as a float 3-vector, checking unit norm."""
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise ValidationError(f"expected a 3-vector, got shape {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) > DIRECTION_TOL:
        raise ValidationError(f"direction must be a unit vector, |n| = {np.linalg.norm(v)!r}")
    return v


def direction_from_angles(theta: float, phi: float) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def angles_from_direction(n) -> tuple[float, float]:
    """(theta, phi) of the hemisphere representative of ``n``."""
    v = hemisphere_representative(validate_direction(n))
    theta = math.acos(min(1.0, max(-1.0, v[2])))
    phi = math.atan2(v[1], v[0]) if (v[0] != 0.0 or v[1] != 0.0) else 0.0
    return theta, phi


# --------------------------------------------------------------------------- #
# measurements and post-measurement ensembles                                 #
# --------------------------------------------------------------------------- #

def projectors(n) -> tuple[np.ndarray, np.ndarray]:
    """Projector pair (1 +- n.sigma)/2 of the measurement along ``n``."""
    v = validate_direction(n)
    ns = v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z
    return (SIGMA_0 + ns) / 2.0, (SIGMA_0 - ns) / 2.0


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


def post_measurement(rho, n) -> PostMeasurementEnsemble:
    """Outcome probabilities and remaining B states for a measurement along ``n``."""
    rho = validate_density_matrix(rho)
    results = []
    for proj in projectors(n):
        m = np.kron(proj, SIGMA_0) @ rho
        p = float(np.trace(m).real)
        if p < ZERO_PROBABILITY:
            results.append(MeasurementOutcome(max(p, 0.0), None))
            continue
        branch = partial_trace(m, keep="B") / p
        branch = (branch + branch.conj().T) / 2.0
        results.append(MeasurementOutcome(p, branch))
    return PostMeasurementEnsemble(outcomes=(results[0], results[1]))


def conditional_entropy_direct(rho, n) -> float:
    """Average entropy of B after measuring A along ``n``, by explicit diagonalization.

    Brute-force counterpart of :func:`conditional_entropy_closed`; the two
    must agree to 1e-10 on every valid (state, direction) pair.
    """
    ens = post_measurement(rho, n)
    total = 0.0
    for outcome in ens.outcomes:
        if outcome.state is not None:
            total += outcome.probability * von_neumann_entropy(outcome.state)
    return total


# --------------------------------------------------------------------------- #
# closed-form conditional entropy                                             #
# --------------------------------------------------------------------------- #

def _branch_scalar(weight2: float, g: float) -> float:
    """(w/2) h(g/w) for w = 1 +- f, with the w -> 0 limit taken as 0."""
    if weight2 < ZERO_PROBABILITY:
        return 0.0
    if g - weight2 > POSITIVITY_SLACK:
        raise ConsistencyError(
            f"|b +- R^T n| = {g!r} exceeds 1 +- a.n = {weight2!r}: input was not a state")
    x = g / weight2
    if x >= 1.0:
        return 0.0
    p = 0.5 * (1.0 + x)
    q = 0.5 * (1.0 - x)
    return 0.5 * weight2 * (-(p * math.log2(p) + q * math.log2(q)))


def _scalar_objective(blocks: BlockDecomposition):
    """Fast closed-form evaluator over Bloch vectors, closed over one state's blocks."""
    a0, a1, a2 = (float(x) for x in blocks.a)
    b0, b1, b2 = (float(x) for x in blocks.b)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = blocks.r.tolist()

    def ce(n0: float, n1: float, n2: float) -> float:
        f = a0 * n0 + a1 * n1 + a2 * n2
        c0 = r00 * n0 + r10 * n1 + r20 * n2
        c1 = r01 * n0 + r11 * n1 + r21 * n2
        c2 = r02 * n0 + r12 * n1 + r22 * n2
        gp = math.sqrt((b0 + c0) ** 2 + (b1 + c1) ** 2 + (b2 + c2) ** 2)
        gm = math.sqrt((b0 - c0) ** 2 + (b1 - c1) ** 2 + (b2 - c2) ** 2)
        return _branch_scalar(1.0 + f, gp) + _branch_scalar(1.0 - f, gm)

    return ce


def conditional_entropy_closed(blocks: BlockDecomposition, n) -> float:
    """Average entropy of B after measuring A along ``n``, from the block closed form."""
    v = validate_direction(n)
    return _scalar_objective(blocks)(v[0], v[1], v[2])


def _branch_many(weight2: np.ndarray, g: np.ndarray) -> np.ndarray:
    out = np.zeros_like(weight2)
    live = weight2 > ZERO_PROBABILITY
    w = weight2[live]
    gg = g[live]
    if np.any(gg - w > POSITIVITY_SLACK):
        raise ConsistencyError("|b +- R^T n| exceeds 1 +- a.n: input was not a state")
    x = np.minimum(gg / w, 1.0)
    p = 0.5 * (1.0 + x)
    q = 0.5 * (1.0 - x)
    h = -(xlogy(p, p) + xlogy(q, q)) / _LN2
    out[live] = 0.5 * w * h
    return out


def _ce_many(blocks: BlockDecomposition, dirs: np.ndarray) -> np.ndarray:
    """Closed form on a (3, K) stack of unit vectors."""
    f = blocks.a @ dirs
    rn = blocks.r.T @ dirs
    gp = np.linalg.norm(blocks.b[:, None] + rn, axis=0)
    gm = np.linalg.norm(blocks.b[:, None] - rn, axis=0)
    return _branch_many(1.0 + f, gp) + _branch_many(1.0 - f, gm)


# --------------------------------------------------------------------------- #
# hemisphere optimizer                                                        #
# --------------------------------------------------------------------------- #

_GRID_THETAS = np.arange(THETA_BINS) * (math.pi / THETA_BINS)
_GRID_PHIS = -math.pi / 2 + np.arange(PHI_BINS) * (math.pi / PHI_BINS)
_tt, _pp = (m.ravel() for m in np.meshgrid(_GRID_THETAS, _GRID_PHIS, indexing="ij"))
_GRID_DIRS = np.stack([np.sin(_tt) * np.cos(_pp), np.sin(_tt) * np.sin(_pp), np.cos(_tt)])


def _minimize_blocks(blocks: BlockDecomposition) -> tuple[np.ndarray, float]:
    values = _ce_many(blocks, _GRID_DIRS)
    grid_best = float(values.min())

    # among grid ties prefer the direction closest to the x axis; mirror-image
    # optima (theta vs pi - theta) tie in that metric too, so fall back to the
    # smallest flat index, i.e. the smaller polar angle
    tied = np.flatnonzero(values <= grid_best + GRID_TIE_TOL)
    closeness = np.abs(_GRID_DIRS[0, tied])
    near = tied[closeness >= closeness.max() - 1e-9]
    start = int(near[0])
    t0 = float(_GRID_THETAS[start // PHI_BINS])
    p0 = float(_GRID_PHIS[start % PHI_BINS])

    ce = _scalar_objective(blocks)

    def objective(x):
        st = math.sin(x[0])
        return ce(st * math.cos(x[1]), st * math.sin(x[1]), math.cos(x[0]))

    dt = math.pi / THETA_BINS
    dp = math.pi / PHI_BINS
    simplex = np.array([[t0, p0], [t0 + 0.5 * dt, p0], [t0, p0 + 0.5 * dp]])
    result = optimize.minimize(
        objective, np.array([t0, p0]), method="Nelder-Mead",
        options={"initial_simplex": simplex, "xatol": 1e-9, "fatol": 1e-12,
                 "maxiter": 200, "maxfev": 600})
    best_n = direction_from_angles(result.x[0], result.x[1])
    best_value = float(result.fun)

    # equal minima resolve toward the maximal-correlation axis, then y, then z;
    # this also pins the reported direction exactly onto on-axis optima
    for axis in (X_AXIS, Y_AXIS, Z_AXIS):
        axis_value = ce(axis[0], axis[1], axis[2])
        if axis_value <= best_value + VALUE_TIE_TOL:
            return axis.copy(), axis_value
    return hemisphere_representative(best_n), best_value


def minimize_conditional_entropy(rho) -> tuple[np.ndarray, float]:
    """Global minimum of the conditional entropy over the measurement hemisphere.

    Two deterministic stages: a dense 96 x 192 (theta, phi) grid scan, then a
    simplex refinement started in the best grid cell.  Returns the
    minimizing direction (hemisphere representative) and the value in bits.
    """
    rho = validate_density_matrix(rho)
    return _minimize_blocks(state_blocks(rho))


# --------------------------------------------------------------------------- #
# correlation measures                                                        #
# --------------------------------------------------------------------------- #

def _clamp(value: float) -> float:
    return 0.0 if -CLAMP_WINDOW <= value < 0.0 else value


def _blocks_and_entropies(rho) -> tuple[BlockDecomposition, float, float, float]:
    """Validate ``rho`` once; return its blocks and S(rho_A), S(rho_B), S(rho).

    The marginals have eigenvalues (1 +- |a|)/2 and (1 +- |b|)/2; within the
    validation tolerance a Bloch length may exceed 1 by rounding noise.
    """
    rho, spectrum = validated_spectrum(rho)
    blocks = state_blocks(rho)
    s_a = binary_entropy(min(1.0, float(np.linalg.norm(blocks.a))))
    s_b = binary_entropy(min(1.0, float(np.linalg.norm(blocks.b))))
    return blocks, s_a, s_b, entropy_bits(spectrum)


def _mcdm_axis(blocks: BlockDecomposition) -> np.ndarray:
    """Maximal-correlation axis: top left singular vector of Lambda = R - a b^T,
    as its hemisphere representative (the axis ``mcdm_direction`` reports)."""
    o1, _, _ = canonical_rotations(blocks.connected())
    return hemisphere_representative(o1[0])


def mutual_information(rho) -> float:
    """Total correlations S(rho_A) + S(rho_B) - S(rho) in bits."""
    _, s_a, s_b, s_ab = _blocks_and_entropies(rho)
    return _clamp(s_a + s_b - s_ab)


def classical_correlation(rho) -> float:
    """S(rho_B) minus the minimal conditional entropy, in bits."""
    blocks, _, s_b, _ = _blocks_and_entropies(rho)
    return _clamp(s_b - _minimize_blocks(blocks)[1])


@dataclass(frozen=True)
class DiscordReport:
    """All correlation quantities of one state, in bits."""

    mutual_information: float
    classical_correlation: float
    discord: float
    mcdm_discord: float
    optimal_direction: np.ndarray
    min_conditional_entropy: float
    mcdm_conditional_entropy: float
    mcdm_direction: np.ndarray


def quantum_discord(rho) -> DiscordReport:
    """Full correlation report: mutual information, classical correlation,
    discord, and the maximal-correlation-direction upper bound."""
    blocks, s_a, s_b, s_ab = _blocks_and_entropies(rho)
    n_mcdm = _mcdm_axis(blocks)

    n_opt, ce_min = _minimize_blocks(blocks)
    ce_mcdm = conditional_entropy_closed(blocks, n_mcdm)
    if ce_mcdm <= ce_min + VALUE_TIE_TOL:
        # the maximal-correlation direction ties with (or beats) the search
        # result; prefer it, which also guarantees the upper-bound property
        n_opt, ce_min = n_mcdm.copy(), ce_mcdm

    mutual = _clamp(s_a + s_b - s_ab)
    classical = _clamp(s_b - ce_min)
    return DiscordReport(
        mutual_information=mutual,
        classical_correlation=classical,
        discord=_clamp(mutual - classical),
        mcdm_discord=_clamp(s_a - s_ab + ce_mcdm),
        optimal_direction=n_opt,
        min_conditional_entropy=ce_min,
        mcdm_conditional_entropy=ce_mcdm,
        mcdm_direction=n_mcdm,
    )


def mcdm_discord(rho) -> float:
    """Discord formula evaluated at the maximal-correlation direction.

    An upper bound on the quantum discord: the direction is a member of the
    set the true discord minimizes over.
    """
    blocks, s_a, _, s_ab = _blocks_and_entropies(rho)
    return _clamp(s_a - s_ab + conditional_entropy_closed(blocks, _mcdm_axis(blocks)))


def bell_diagonal_classical_correlation(c) -> float:
    """Classical correlation 1 - h(max_i |c_i|) of a Bell-diagonal state.

    Exact closed form; serves as the independent oracle for the numerical
    optimizer on this family.
    """
    cv = np.asarray(c, dtype=float)
    if cv.shape != (3,):
        raise ValidationError(f"expected three coefficients, got shape {cv.shape}")
    c1, c2, c3 = cv
    eigs = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3,
                     1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4.0
    if eigs.min() < -1e-10:
        raise ValidationError(f"coefficients {cv!r} do not give a positive state")
    x = float(np.max(np.abs(cv)))
    x = min(x, 1.0)
    p = 0.5 * (1.0 + x)
    q = 0.5 * (1.0 - x)
    h = 0.0 if q <= 0.0 else -(p * math.log2(p) + q * math.log2(q))
    return 1.0 - h


# --------------------------------------------------------------------------- #
# zero-discord states                                                         #
# --------------------------------------------------------------------------- #

def zero_discord_witness(blocks: BlockDecomposition, tol: float = 1e-9) -> Optional[np.ndarray]:
    """Measurement axis n with n n^T a = a and n n^T R = R, if one exists.

    The existence of such an axis is equivalent to zero discord.  The only
    candidate is the dominant left-singular vector of R (all columns of R and
    the vector a must be parallel to n); with vanishing R the candidate is a
    itself, and with both vanishing every axis qualifies and the
    maximal-correlation axis x is returned.
    """
    a = blocks.a
    r = blocks.r
    if np.linalg.norm(r) > 1e-10:
        u, _, _ = np.linalg.svd(r)
        n = u[:, 0]
    elif np.linalg.norm(a) > 1e-10:
        n = a / np.linalg.norm(a)
    else:
        return X_AXIS.copy()
    n = n / np.linalg.norm(n)
    pn = np.outer(n, n)
    if np.max(np.abs(pn @ a - a)) <= tol and np.max(np.abs(pn @ r - r)) <= tol:
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
    if p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-12:
        raise ValidationError(f"invalid probability pair {p!r}")
    proj_1, proj_2 = projectors(n)
    sigma_1 = validate_density_matrix(states[0])
    sigma_2 = validate_density_matrix(states[1])
    if sigma_1.shape != (2, 2) or sigma_2.shape != (2, 2):
        raise ValidationError("component states must be single-qubit (2x2)")
    return p[0] * np.kron(proj_1, sigma_1) + p[1] * np.kron(proj_2, sigma_2)
