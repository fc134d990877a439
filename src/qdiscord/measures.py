"""Correlation measures of two-qubit states.

Von Neumann measurements on qubit A are labelled by unit Bloch vectors n
(n and -n give the same measurement).  The average post-measurement entropy
of B has a closed form in the block decomposition (a, b, R):

    CE(n) = (1+f)/2 h(g+/(1+f)) + (1-f)/2 h(g-/(1-f)),
    f = a.n,  g+- = |b +- R^T n|,

which a trust-region Newton refinement, with the exact gradient and Hessian
of CE, minimizes to obtain the classical correlation and the quantum
discord, always on the blocks of the state's canonical form, where the x
axis is the maximal-correlation direction (MCDM).  Each state is solved
once, on one of two geometries: X-shaped blocks (R diagonal, a and b along
one axis) have their minimum on one great circle, whose 17 scanned points
give the start of a refinement along the circle; every other state is
refined on the sphere from its three canonical axes x (the MCDM), y and z.
Evaluating the same expression at the MCDM instead of the optimum gives a
cheap upper bound on the discord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .canonical import OFF_DIAGONAL, canonical_blocks, hemisphere_representative
from .errors import ConsistencyError, ValidationError
from .fano_bloch import BlockDecomposition, state_blocks
from .linalg import (EIGENVALUE_FLOOR, SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z, binary_entropy,
                     entropy_bits, validate_density_matrix, validated_spectrum)

# tie-break axes x, y, z as columns; in the canonical frame x is the MCDM
_TIE_AXES = np.eye(3)
_TIE_AXES.setflags(write=False)
X_AXIS = _TIE_AXES[:, 0]

DIRECTION_TOL = 1e-12
# construct_zero_discord takes outcome probabilities whose sum is within this of 1
PROBABILITY_SUM_TOL = 1e-12
# outcomes rarer than this are deterministic-zero; their entropy term is 0
ZERO_PROBABILITY = 1e-12
# slack on g <= 1 +- f; a larger excess means the input was not a state
POSITIVITY_SLACK = 1e-9
# two conditional-entropy values within this window count as a tie
VALUE_TIE_TOL = 1e-10
# scanned points within this of the lowest tie it (see _pick_start)
GRID_TIE_TOL = 1e-11
# correlation quantities in [-CLAMP_WINDOW, 0) are reported as 0
CLAMP_WINDOW = 1e-9
# zero_discord_witness: R or a with a norm at most WITNESS_VANISHING_TOL
# vanishes, and an axis n is a witness when no entry of n n^T a - a or
# n n^T R - R exceeds WITNESS_TOL in size
WITNESS_VANISHING_TOL = 1e-10
WITNESS_TOL = 1e-9

# refinement: trust-region Newton steps on the sphere or a great circle (see
# _newton).  A start leaves once the model promises a decrease of at most
# DECREASE_STOP, or once its value is at most CE_FLOOR:
# CE >= 0, so at most that much is left to gain, and the CE of a pure state, 0
# in exact arithmetic, is rounding noise of up to 3.2e-14 (seen on 5,120 pure
# states)
DECREASE_STOP = 1e-17
CE_FLOOR = 1e-13
MAX_ITERATIONS = 60
# the derivatives read g/w as at most X_CAP, where h'(x) = -artanh(x)/ln 2 and
# h''(x) = -1/(ln 2 (1 - x^2)) are finite
X_CAP = 1.0 - 1e-12
# first trust radii: INITIAL_RADIUS on the circle, whose scan puts the start
# within pi/64 of its minimum, and at the sphere's z (_sphere_minimum);
# SPHERE_RADIUS at x and y (pi/96 took 5.0 evaluations per HS state, pi/4 4.0)
INITIAL_RADIUS = math.pi / 96
SPHERE_RADIUS = math.pi / 4
_AXIS_RADII = np.array([SPHERE_RADIUS, SPHERE_RADIUS, INITIAL_RADIUS])


# --------------------------------------------------------------------------- #
# measurement directions                                                      #
# --------------------------------------------------------------------------- #

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


def validate_direction(n) -> np.ndarray:
    """Return ``n`` as a float 3-vector, checking unit norm."""
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise ValidationError(f"expected a 3-vector, got shape {v.shape}")
    return validate_directions(v[None])[0]


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
    return angles_from_directions(validate_direction(n)[None])[0]


# --------------------------------------------------------------------------- #
# measurements and post-measurement ensembles                                 #
# --------------------------------------------------------------------------- #

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
    if rho.shape != (4, 4):
        raise ValidationError(f"expected one two-qubit state (4x4), got shape {rho.shape}")
    m = np.einsum("...ac,cbad->...bd", _projector_pairs(v), rho.reshape(2, 2, 2, 2))
    p = m.trace(axis1=-2, axis2=-1).real
    live = p >= ZERO_PROBABILITY
    states = m[live] / p[live][:, None, None]
    return p, live, (states + states.conj().swapaxes(-1, -2)) / 2.0


def post_measurement(rho, n) -> PostMeasurementEnsemble:
    """Outcome probabilities and remaining B states for a measurement along ``n``."""
    p, live, states = _measured_branches(validate_density_matrix(rho),
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
    rho = validate_density_matrix(rho)
    p, live, states = _measured_branches(rho, validate_directions(dirs))
    terms = np.zeros(p.shape)
    terms[live] = p[live] * entropy_bits(np.minimum(np.linalg.eigvalsh(states), 1.0))
    return terms[:, 0] + terms[:, 1]


def conditional_entropy_direct(rho, n) -> float:
    """Average entropy of B after measuring A along ``n``, by explicit diagonalization.

    Brute-force counterpart of :func:`conditional_entropy_closed`; the two
    must agree to 1e-10 on every valid (state, direction) pair.
    """
    return float(_ce_direct(rho, np.asarray(n, dtype=float)[None])[0])


# --------------------------------------------------------------------------- #
# closed-form conditional entropy                                             #
# --------------------------------------------------------------------------- #

# the smallest normal double: the derivatives read g as at least this, so that
# u/g and artanh(g/w)/g stay finite at g = 0, and q log2 q reads q as at least it
_TINY = np.finfo(float).tiny


def _branch_vectors(a: np.ndarray, b: np.ndarray, r: np.ndarray,
                    dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w = 1 +- a.n (S, 2K) and u = b +- R^T n (S, 3, 2K) of S states at the K
    columns of ``dirs``, shared (3, K) or per state (S, 3, K), the + branch
    first.

    Each state's contractions are the same matrix products as for that state
    alone, so a value does not depend on the states stacked beside it.
    """
    f = (a[:, None, :] @ dirs)[:, 0, :]
    rn = r.swapaxes(1, 2) @ dirs
    k = rn.shape[2]
    w = np.empty((len(a), 2 * k))
    np.add(1.0, f, out=w[:, :k])
    np.subtract(1.0, f, out=w[:, k:])
    u = np.empty(rn.shape[:2] + (2 * k,))
    np.add(b[:, :, None], rn, out=u[:, :, :k])
    np.subtract(b[:, :, None], rn, out=u[:, :, k:])
    return w, u


def _lengths(squares: np.ndarray) -> np.ndarray:
    """|u| = sqrt((u_x^2 + u_y^2) + u_z^2), the order in which np.linalg.norm
    sums, from the squared components (S, 3, K) of vectors u: (S, K)."""
    g = np.add(squares[:, 0], squares[:, 1])
    g += squares[:, 2]
    return np.sqrt(g, out=g)


def _branches(a: np.ndarray, b: np.ndarray, r: np.ndarray,
              dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w and g = |u| of :func:`_branch_vectors`: (S, 2K) each."""
    w, u = _branch_vectors(a, b, r, dirs)
    return w, _lengths(np.multiply(u, u, out=u))


def _branch_entropy(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sum of the two branch terms (w/2) h(g/w) of :func:`_branches`: (S, K).

    Any n is accepted: where g > w a term is clamped to its value at g = w,
    and a branch with w <= ZERO_PROBABILITY, a deterministic-zero outcome,
    contributes 0.  A zero term is +0.0.
    """
    live = w > ZERO_PROBABILITY
    x = np.where(live, w, 1.0)
    np.divide(g, x, out=x)
    np.minimum(x, 1.0, out=x)
    q = np.subtract(1.0, x)
    q *= 0.5
    p = np.add(1.0, x, out=x)
    p *= 0.5
    # x = g/w lies in [0, 1], so q is 0 or at least 2^-54: log2(max(q, tiny))
    # is log2(q), and q = 0 gives q log2(tiny) = -0.0, which adds as 0
    t = np.maximum(q, _TINY)
    np.log2(t, out=t)
    t *= q
    h = np.log2(p)
    h *= p
    h += t
    # 0.0 - h, not -h: a zero entropy is +0.0
    np.subtract(0.0, h, out=h)
    weight = np.where(live, w, 0.0)
    weight *= 0.5
    h *= weight
    k = h.shape[1] // 2
    return h[:, :k] + h[:, k:]


def _ce_many(a: np.ndarray, b: np.ndarray, r: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Closed form for S states on unit vectors ``dirs``, shared (3, K) or per state
    (S, 3, K): both branches in one pass; returns (S, K).  Raises
    ConsistencyError where a live branch has g - w > POSITIVITY_SLACK, which
    blocks of a state cannot reach."""
    w, g = _branches(a, b, r, dirs)
    if ((w > ZERO_PROBABILITY) & (g - w > POSITIVITY_SLACK)).any():
        raise ConsistencyError("|b +- R^T n| exceeds 1 +- a.n: input was not a state")
    return _branch_entropy(w, g)


def conditional_entropy_closed(blocks: BlockDecomposition, n) -> float:
    """Average entropy of B after measuring A along ``n``, from the block closed form."""
    v = validate_direction(n)
    return float(_ce_many(blocks.a[None], blocks.b[None], blocks.r[None], v[:, None])[0, 0])


# --------------------------------------------------------------------------- #
# minimizer on the sphere and on great circles                                #
# --------------------------------------------------------------------------- #

_LN2 = math.log(2.0)
_EYE = np.eye(3)
# the + and the - branch
_SIGNS = np.array([1.0, -1.0])


def _sphere_frame(n: np.ndarray) -> np.ndarray:
    """Orthonormal tangent rows at unit vectors n (S, 3), then n itself: (S, 3, 3).
    The tangents are the first two rows of the Householder reflection
    I - v v^T / (1 + m_z), v = m + z, that takes z to -m, for whichever m of
    +-n has m_z >= 0."""
    m = n * np.copysign(1.0, n[:, 2:])
    v = m + _EYE[2]
    rows = np.empty((len(n), 3, 3))
    np.subtract(_EYE[:2], v[:, :2, None] * (v / (1.0 + m[:, 2:]))[:, None], out=rows[:, :2])
    rows[:, 2] = n
    return rows


def _tangent_derivatives(a: np.ndarray, b: np.ndarray, r: np.ndarray, n: np.ndarray,
                         frame: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, ...]:
    """One evaluation at unit vectors n (S, 3): w and g (S, 2) of both branches,
    as :func:`_branches` gives them, from which :func:`_branch_entropy` gives
    the closed form's value to the bit; the rows ``frame(n)`` (S, k + 1, 3), k
    orthonormal tangents and then n; and the gradient (S, k) and Hessian
    (S, k, k) of CE on the unit sphere in those tangents.

    Each branch term is T = (w/2) h(x) with x = g/w, so T_g = h'/2,
    T_w = (h - x h')/2 = (1 - log2(1 - x^2)/2)/2 and T's Hessian in (w, g) is
    h''/(2w) [[x^2, -x], [-x, 1]], where h'(x) = -artanh(x)/ln 2 and
    h''(x) = -1/(ln 2 (1 - x^2)).  With grad w = +-a, grad g = +-R u/g for
    u = b +- R^T n, and Hess g = R (I - u u^T/g^2) R^T / g, the Hessian of CE
    in space is the sum over the branches of h''/(2w) v v^T
    + h'/(2g) R (I - u u^T/g^2) R^T, v = x a - R u/g; on the sphere it loses
    (n . grad CE) I.  The frame rows project a, R and R u/g, and the
    rank-one terms of both branches are one product.  Dead branches
    contribute 0, and x is read as at most X_CAP.
    """
    rows = frame(n)
    k = rows.shape[1] - 1
    w, u = _branch_vectors(a, b, r, n[:, :, None])  # (S, 2), (S, 3, 2)
    g = _lengths(u * u)
    live = w > ZERO_PROBABILITY
    # half the weight of a live branch, 0 for a dead one
    half = 0.5 * live
    w_live = np.where(live, w, 1.0)
    g_floor = np.maximum(g, _TINY)
    x = np.minimum(g_floor / w_live, X_CAP)
    artanh = np.arctanh(x)
    gap = (1.0 - x) * (1.0 + x)
    # T_w and T_g, signed by the branch as grad w and grad g are
    t_w = half * _SIGNS * (1.0 - 0.5 * np.log2(gap))
    t_g = half * _SIGNS * artanh / -_LN2
    c_rr = half * artanh / (-_LN2 * g_floor)  # h'/(2g)
    fr = rows @ r  # (S, k + 1, 3)
    fa = rows @ a[:, :, None]  # (S, k + 1, 1)
    fru = fr @ (u / g_floor[:, None])  # R u/g along each row: (S, k + 1, 2)
    grad = fa[:, :, 0] * t_w.sum(axis=1)[:, None] + (fru @ t_g[:, :, None])[:, :, 0]
    # the columns v of both branches, then R u/g of both, and their weights
    # h''/(2w) and -h'/(2g)
    vecs = np.concatenate([x[:, None] * fa[:, :k] - fru[:, :k], fru[:, :k]], axis=2)
    weights = np.concatenate([half / (-_LN2 * gap * w_live), -c_rr], axis=1)
    hess = (vecs * weights[:, None]) @ vecs.swapaxes(1, 2)
    hess += c_rr.sum(axis=1)[:, None, None] * (fr[:, :k] @ fr[:, :k].swapaxes(1, 2))
    hess -= grad[:, k, None, None] * _EYE[:k, :k]
    return w, g, rows, grad[:, :k], hess


def _lowest_eigenpair(hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower eigenvalue (S,) of symmetric 2 x 2 matrices (S, 2, 2) and a unit
    eigenvector (S, 2) for it, in closed form: H = m I + rho [[cos 2t, sin 2t],
    [sin 2t, -cos 2t]] has the eigenvalue m - rho along (-sin t, cos t)."""
    p, q, s = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    half_diff = 0.5 * (p - s)
    t = 0.5 * np.arctan2(q, half_diff)
    return 0.5 * (p + s) - np.hypot(half_diff, q), np.stack([-np.sin(t), np.cos(t)], axis=1)


def _trust_step(grad: np.ndarray, hess: np.ndarray,
                radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A step (S, k) no longer than ``radius`` (S,) that lowers the quadratic
    model grad.s + s.hess.s/2, and the decrease (S,) the model predicts for it.

    Three steps compete, the first of the lowest model winning: the Newton
    step, shortened to the radius, when the Hessian is positive definite;
    the minimum of the model along the gradient within the radius (the
    Cauchy point); and the step to the radius along the lowest eigenvector,
    which leaves a saddle point, where the gradient vanishes.  The
    subproblem is solved in closed form.  On a great circle (k = 1) the rule
    reduces to the Newton step cut to the radius where the curvature is
    positive, as that minimizes the model on the whole interval, and
    elsewhere to the step to the radius downhill, or forward where the slope
    vanishes, where the Cauchy and the lowest-eigenvector step coincide.  On
    the sphere (k = 2) the Newton step comes from the adjugate of the
    Hessian; one that needs no shortening minimizes the model on the whole
    disc and is taken without the others, which are computed only when some
    state of the stack needs them, the lowest eigenpair by
    :func:`_lowest_eigenpair`.  The general rule takes that step too, to the
    bit."""
    if grad.shape[1] == 1:
        g, h = grad[:, 0], hess[:, 0, 0]
        convex = h > 0.0
        step = np.where(convex, -g / np.where(convex, h, 1.0), np.where(g > 0.0, -radius, radius))
        np.clip(step, -radius, radius, out=step)
        return step[:, None], -step * (g + 0.5 * h * step)
    g0, g1 = grad[:, 0], grad[:, 1]
    p, q, s = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    det = p * s - q * q
    definite = (p > 0.0) & (det > 0.0)
    # -H^-1 grad by the adjugate, then shortened to the radius
    newton = np.empty_like(grad)
    inverse = 1.0 / np.where(definite, det, 1.0)
    np.multiply(q * g1 - s * g0, inverse, out=newton[:, 0])
    np.multiply(q * g0 - p * g1, inverse, out=newton[:, 1])
    scale = radius / np.maximum(np.hypot(newton[:, 0], newton[:, 1]), radius)
    newton *= scale[:, None]
    newton_model = (g0 * newton[:, 0] + g1 * newton[:, 1]) * (1.0 - 0.5 * scale)
    whole = definite & (scale == 1.0)
    if whole.all():
        return newton, -newton_model
    newton_model[~definite] = np.inf
    # -along grad is the lowest point of the model on the gradient line within
    # the radius: along = min(radius/|grad|, |grad|^2/curvature) when that is
    # positive
    slope = g0 * g0 + g1 * g1
    curvature = p * g0 * g0 + (2.0 * q * g0 + s * g1) * g1
    along = slope / np.maximum(np.maximum(slope * np.sqrt(slope) / radius, curvature), _TINY)
    cauchy = along * (0.5 * along * curvature - slope)
    low, vec = _lowest_eigenpair(hess)
    g_low = g0 * vec[:, 0] + g1 * vec[:, 1]
    lowest = np.where(g_low > 0.0, -radius, radius)
    saddle = lowest * (g_low + 0.5 * low * lowest)
    take_newton = whole | (newton_model <= np.minimum(cauchy, saddle))
    take_cauchy = cauchy <= saddle
    step = np.where(take_newton[:, None], newton,
                    np.where(take_cauchy[:, None], -along[:, None] * grad, lowest[:, None] * vec))
    return step, -np.where(take_newton, newton_model, np.where(take_cauchy, cauchy, saddle))


def _newton(a: np.ndarray, b: np.ndarray, r: np.ndarray, n: np.ndarray, value: np.ndarray,
            frame: Callable[[np.ndarray], np.ndarray],
            radius: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trust-region Newton refinement of S states from P starts each, unit
    vectors n (S, P, 3) with values (S, P), in the tangent rows of
    ``frame(n)``: the whole sphere, or a great circle.

    Each iteration takes the :func:`_trust_step` of the latest derivatives
    and evaluates CE and its derivatives in one pass
    (:func:`_tangent_derivatives`) at the end of that step along the great
    circle, where a start moves if CE is lower.  The trust radius, first
    ``radius`` (one, or one per start), shrinks to a quarter of the step
    when the decrease falls short of a quarter of the predicted one, and
    doubles when the step reached it and the decrease exceeded three
    quarters.  A start stops once the model promises at most DECREASE_STOP
    or its value is at most CE_FLOOR; it leaves then, or once a start of its
    state stopped at or below halfway to where its model leads: into a
    stopped start's minimum it promises about the gap, toward a lower one
    more.  Decided at every iteration from the state's own starts, so no
    result depends on the stack.  Trial points take no positivity check:
    the caller's :func:`_ce_many` checked the blocks once, and the blocks of
    a validated state keep g - w <= 4 EIGENVALUE_FLOOR, under
    POSITIVITY_SLACK, at every direction.  Returns the ends (S, P, 3) and
    (S, P)."""
    starts = value.shape[1]
    best_n, best_value = n.reshape(-1, 3).copy(), value.reshape(-1).copy()
    # per state, the lowest value of its starts that have stopped, at first
    # those at most CE_FLOOR.  The arrays below hold the active starts only
    settled = np.where(value <= CE_FLOOR, value, np.inf).min(axis=1)
    active = np.flatnonzero(best_value < settled.repeat(starts))
    if not active.size:
        return best_n.reshape(-1, starts, 3), best_value.reshape(-1, starts)
    a, b, r = (x[active // starts] for x in (a, b, r))
    radius = np.broadcast_to(radius, value.shape).ravel()[active]
    n, value = best_n[active], best_value[active]
    # the start keeps its given value, whose bits a lone evaluation need not share
    rows, grad, hess = _tangent_derivatives(a, b, r, n, frame)[2:]
    for _ in range(MAX_ITERATIONS):
        step, decrease = _trust_step(grad, hess, radius)
        stop = (decrease <= DECREASE_STOP) | (value <= CE_FLOOR)
        np.minimum.at(settled, active[stop] // starts, value[stop])
        keep = ~stop & (value - 0.5 * decrease < settled[active // starts])
        if not keep.all():
            best_n[active], best_value[active] = n, value
            if not keep.any():
                break
            active, a, b, r, n, value, radius, rows, grad, hess, step, decrease = (
                x[keep] for x in (active, a, b, r, n, value, radius, rows, grad, hess, step,
                                  decrease))
        trial = n + (step[:, None] @ rows[:, :-1])[:, 0]
        trial /= np.sqrt((trial * trial).sum(axis=1))[:, None]
        w, g, trial_rows, trial_grad, trial_hess = _tangent_derivatives(a, b, r, trial, frame)
        trial_value = _branch_entropy(w, g)[:, 0]
        ratio = (value - trial_value) / decrease
        length = np.sqrt((step * step).sum(axis=1))
        radius = np.where(ratio < 0.25, 0.25 * length,
                          np.where((ratio > 0.75) & (length >= radius), 2.0 * radius, radius))
        lower = trial_value < value
        n = np.where(lower[:, None], trial, n)
        value = np.where(lower, trial_value, value)
        rows = np.where(lower[:, None, None], trial_rows, rows)
        grad = np.where(lower[:, None], trial_grad, grad)
        hess = np.where(lower[:, None, None], trial_hess, hess)
    else:
        best_n[active], best_value[active] = n, value
    return best_n.reshape(-1, starts, 3), best_value.reshape(-1, starts)


def _sphere_minimum(a: np.ndarray, b: np.ndarray, r: np.ndarray,
                    axis_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions (S, 3) and values (S,) of S states before the axis tie-break:
    the lowest end, the earlier axis's on ties, of the Newton refinement from
    the axes x (the MCDM), y and z, whose values are ``axis_values`` (S, 3).
    The z start takes the circle's first radius: near a pure product state,
    whose Bloch vectors lie along z, the axis of the smallest connected
    correlation, CE can have a narrow dip beside z that a quarter turn
    steps over (README, "How the sphere solve starts")."""
    ends, values = _newton(a, b, r, _TIE_AXES.T[None].repeat(len(a), axis=0), axis_values,
                           _sphere_frame, _AXIS_RADII)
    pick = (np.arange(len(a)), values.argmin(axis=1))
    return ends[pick], values[pick]


# X-shaped blocks have R's off-diagonal entries and the components of a and b
# off one axis at most this; the canonical rotation leaves up to 3.3e-14 of
# rounding noise there (seen on pure states).  Not merged with
# canonical._DIAGONAL_FAST_PATH_TOL: that bounds Lambda in the input frame and
# decides the SVD, this the canonical blocks and decides the geometry
X_SHAPE_TOL = 1e-13
# per axis k of a and b, the axes (j, i, k) that become x, y, z on the circle;
# in the canonical order j, the lower other index, has |R_jj| >= |R_ii|
_CIRCLE_AXES = np.array([[1, 2, 0], [0, 2, 1], [0, 1, 2]])
# the circle phi = 0 at polar angles k pi/32; CE on the circle is even in
# cos(theta) and in sin(theta), so theta runs from 0 to pi/2: 17 points
_CIRCLE_THETAS = np.arange(17) * (math.pi / 32)
_CIRCLE_DIRS = np.stack([np.sin(_CIRCLE_THETAS), np.zeros(17), np.cos(_CIRCLE_THETAS)])


def _pick_start(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index (S,) and value (S,) of the start of S states from their ``values``
    (S, K): the smallest index within GRID_TIE_TOL of the state's lowest."""
    start = (values <= values.min(axis=1, keepdims=True) + GRID_TIE_TOL).argmax(axis=1)
    return start, values[np.arange(len(values)), start]


def _circle_frame(n: np.ndarray) -> np.ndarray:
    """The unit tangent of the circle phi = 0 at its points n (S, 3), then n:
    (S, 2, 3)."""
    rows = np.zeros((len(n), 2, 3))
    rows[:, 0, 0] = n[:, 2]
    np.negative(n[:, 0], out=rows[:, 0, 2])
    rows[:, 1] = n
    return rows


def _circle_states(a: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Which states (S,) of canonical blocks are X-shaped: R diagonal and a, b
    along one axis, or vanishing, within X_SHAPE_TOL."""
    along = np.partition(np.maximum(np.abs(a), np.abs(b)), 1, axis=1)
    return (along[:, 1] <= X_SHAPE_TOL) & (np.abs(r[:, OFF_DIAGONAL]).max(axis=1) <= X_SHAPE_TOL)


def _circle_minimum(a: np.ndarray, b: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimizing directions (S, 3) and minima (S,) of CE over the sphere for
    X-shaped canonical blocks, before the axis tie-break.

    With a and b along e_k and R diagonal, fix the polar angle theta from e_k:
    w+- = 1 +- a_k cos(theta) is fixed, and g+-^2 = (b_k +- R_kk cos(theta))^2
    + sin^2(theta) (R_jj^2 cos^2(phi) + R_ii^2 sin^2(phi)) is largest at e_j's
    azimuth if |R_jj| >= |R_ii|.  Each branch term is nonincreasing in g, so
    the minimum lies on the great circle through e_k and e_j, which an exact
    permutation of the axes (k to z, j to x) makes the circle phi = 0.  Its
    17 points are scanned in one call, :func:`_pick_start` picks the start
    and :func:`_newton` refines it along the circle; the inverse permutation
    takes the direction back, with exactly 0 along e_i.  Blocks within X_SHAPE_TOL of
    that shape move CE by far less than VALUE_TIE_TOL."""
    k = np.maximum(np.abs(a), np.abs(b)).argmax(axis=1)
    axes = _CIRCLE_AXES[k]
    a = np.take_along_axis(a, axes, axis=1)
    r = np.take_along_axis(r, axes[:, :, None], axis=1)
    start, value = _pick_start(_ce_many(a, b, r, _CIRCLE_DIRS))
    m, value = _newton(a, b, r, _CIRCLE_DIRS.T[start][:, None], value[:, None], _circle_frame,
                       INITIAL_RADIUS)
    n = np.empty((len(a), 3))
    np.put_along_axis(n, axes, m[:, 0], axis=1)
    return n, value[:, 0]


def _tie_break(n: np.ndarray, value: np.ndarray,
               axis_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal minima resolve toward the MCDM x, then y, then z; this also pins
    the reported direction exactly onto on-axis optima.  Updates n (S, 3) and
    value (S,) in place and returns them."""
    tied = axis_values <= value[:, None] + VALUE_TIE_TOL
    first = tied.argmax(axis=1)
    on_axis = tied.any(axis=1)
    n[on_axis] = _TIE_AXES.T[first[on_axis]]
    value[on_axis] = axis_values[on_axis, first[on_axis]]
    return n, value


def _minimize_many(a: np.ndarray, b: np.ndarray,
                   r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimizing directions (S, 3) and minima (S,) of CE for the stacked blocks
    a (S, 3), b (S, 3), R (S, 3, 3) of :func:`canonical_blocks`, whose x axis is
    the MCDM, and CE (S, 3) on the axes x, y, z; the directions are not
    hemisphere representatives.  Each state's result is the same for any S.

    Each state takes one geometry: X-shaped states (:func:`_circle_states`)
    are settled on their great circle by :func:`_circle_minimum`, and every
    other state takes :func:`_sphere_minimum`, which starts at the axis
    values.  The tie-break then reads the same axis values either way, so an
    on-axis result has the bits that the sphere path would give it.
    """
    count = len(a)
    axis_values = _ce_many(a, b, r, _TIE_AXES)
    n, value = np.empty((count, 3)), np.empty(count)
    x_shaped = _circle_states(a, b, r)
    if x_shaped.any():
        n[x_shaped], value[x_shaped] = _circle_minimum(a[x_shaped], b[x_shaped], r[x_shaped])
    sphere = ~x_shaped
    if sphere.any():
        n[sphere], value[sphere] = _sphere_minimum(a[sphere], b[sphere], r[sphere],
                                                   axis_values[sphere])
    return (*_tie_break(n, value, axis_values), axis_values)


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


def _blocks_and_entropies(rho) -> tuple[BlockDecomposition, np.ndarray, np.ndarray, np.ndarray]:
    """Validate ``rho``, one state or a stack (..., 4, 4), once; return its blocks
    and S(rho_A), S(rho_B), S(rho), each of shape (...).

    The marginals have eigenvalues (1 +- |a|)/2 and (1 +- |b|)/2; within the
    validation tolerance a Bloch length may exceed 1 by rounding noise.
    """
    rho, spectrum = validated_spectrum(rho)
    blocks = state_blocks(rho)
    ab = np.stack([blocks.a, blocks.b], axis=-2)
    # |a| and |b| as np.linalg.norm takes them of one vector: a dot product
    lengths = np.sqrt((ab[..., None, :] @ ab[..., :, None])[..., 0, 0])
    marginal = binary_entropy(np.minimum(1.0, lengths))
    return blocks, marginal[..., 0], marginal[..., 1], entropy_bits(spectrum)


def mutual_information(rho) -> float:
    """Total correlations S(rho_A) + S(rho_B) - S(rho) in bits."""
    _, s_a, s_b, s_ab = _blocks_and_entropies(rho)
    return float(_clamp(s_a + s_b - s_ab))


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
    blocks, s_a, s_b, s_ab = _blocks_and_entropies(rhos)
    o1, canonical = canonical_blocks(blocks)
    n_opt, ce_min, axis_values = _minimize_many(canonical.a, canonical.b, canonical.r)
    # CE at the MCDM, the first tie-break axis, so ce_min <= ce_mcdm
    ce_mcdm = axis_values[:, 0]
    mutual = _clamp(s_a + s_b - s_ab)
    return DiscordReport(
        mutual, _clamp(s_b - ce_min), _discord(mutual, s_b, ce_min), _discord(mutual, s_b, ce_mcdm),
        hemisphere_representative((o1.swapaxes(-1, -2) @ n_opt[..., None])[..., 0]),
        ce_min, ce_mcdm, hemisphere_representative(o1[..., 0, :]))


def quantum_discord(rho) -> DiscordReport:
    """Full correlation report: mutual information, classical correlation,
    discord, and the maximal-correlation-direction upper bound."""
    stacked = vars(_discord_reports(np.asarray(rho, dtype=complex)[None]))
    return DiscordReport(*(v[0] if v.ndim > 1 else v.item() for v in stacked.values()))


def mcdm_discord(rho) -> float:
    """Discord formula evaluated at the maximal-correlation direction.

    An upper bound on the quantum discord: the direction is a member of the
    set the true discord minimizes over.
    """
    blocks, s_a, s_b, s_ab = _blocks_and_entropies(rho)
    return float(_discord(_clamp(s_a + s_b - s_ab), s_b,
                          conditional_entropy_closed(canonical_blocks(blocks)[1], X_AXIS)))


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
    if eigs.min() < -EIGENVALUE_FLOOR:
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

def zero_discord_witness(blocks: BlockDecomposition) -> Optional[np.ndarray]:
    """Measurement axis n with n n^T a = a and n n^T R = R (within WITNESS_TOL), if one exists.

    The existence of such an axis is equivalent to zero discord.  The only
    candidate is the dominant left-singular vector of R (all columns of R and
    the vector a must be parallel to n); with vanishing R (norm at most
    WITNESS_VANISHING_TOL) the candidate is a itself, and with both vanishing
    every axis qualifies and the maximal-correlation axis x is returned.
    """
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
    sigma_1 = validate_density_matrix(states[0])
    sigma_2 = validate_density_matrix(states[1])
    if sigma_1.shape != (2, 2) or sigma_2.shape != (2, 2):
        raise ValidationError("component states must be single-qubit (2x2)")
    return p[0] * np.kron(proj_1, sigma_1) + p[1] * np.kron(proj_2, sigma_2)
