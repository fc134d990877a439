"""The minimum of the conditional entropy over the measurement sphere.

A trust-region Newton refinement, with the exact gradient and Hessian of
the closed form, minimizes CE on the blocks of a state's canonical form,
where the x axis is the maximal-correlation direction (MCDM).  Each state
is solved once, on one of two geometries: X-shaped blocks (R diagonal, a
and b along one axis) have their minimum on one great circle, whose 17
scanned points give the start of a refinement along the circle; every
other state is refined on the sphere from its three canonical axes x (the
MCDM), y and z.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .canonical import OFF_DIAGONAL
from .closed_form import _EYE, _branch_entropy, _ce_many, _tangent_derivatives
from .linalg import _TINY

# tie-break axes x, y, z as columns; in the canonical frame x is the MCDM
_TIE_AXES = np.eye(3)
_TIE_AXES.setflags(write=False)
X_AXIS = _TIE_AXES[:, 0]
# two conditional-entropy values within this window count as a tie
VALUE_TIE_TOL = 1e-10
# points of the circle's scan within this of the lowest tie it (see _pick_start)
SCAN_TIE_TOL = 1e-11

# refinement: trust-region Newton steps on the sphere or a great circle (see
# _newton).  A start leaves once the model promises a decrease of at most
# DECREASE_STOP, or once its value is at most CE_FLOOR:
# CE >= 0, so at most that much is left to gain, and the CE of a pure state, 0
# in exact arithmetic, is rounding noise of up to 3.2e-14 (seen on 5,120 pure
# states)
DECREASE_STOP = 1e-17
CE_FLOOR = 1e-13
MAX_ITERATIONS = 60
# first trust radii: INITIAL_RADIUS on the circle, whose scan puts the start
# within pi/64 of its minimum, and at the sphere's z (_sphere_minimum);
# SPHERE_RADIUS at x and y (pi/96 took 5.0 evaluations per HS state, pi/4 4.0)
INITIAL_RADIUS = math.pi / 96
SPHERE_RADIUS = math.pi / 4
_AXIS_RADII = np.array([SPHERE_RADIUS, SPHERE_RADIUS, INITIAL_RADIUS])


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
    Hessian, and one that needs no shortening minimizes the model on the
    whole disc, so it is always taken; the lowest eigenpair comes from
    :func:`_lowest_eigenpair`."""
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
    value = best_value[active]
    # the start keeps its given value, whose bits a lone evaluation need not share.
    # The frame's last row is the point n itself, so n is read from rows[:, -1]
    rows, grad, hess = _tangent_derivatives(a, b, r, best_n[active], frame)[2:]
    for _ in range(MAX_ITERATIONS):
        step, decrease = _trust_step(grad, hess, radius)
        stop = (decrease <= DECREASE_STOP) | (value <= CE_FLOOR)
        np.minimum.at(settled, active[stop] // starts, value[stop])
        keep = ~stop & (value - 0.5 * decrease < settled[active // starts])
        if not keep.all():
            best_n[active], best_value[active] = rows[:, -1], value
            if not keep.any():
                break
            active, a, b, r, value, radius, rows, grad, hess, step, decrease = (
                x[keep] for x in (active, a, b, r, value, radius, rows, grad, hess, step,
                                  decrease))
        trial = rows[:, -1] + (step[:, None] @ rows[:, :-1])[:, 0]
        trial /= np.sqrt((trial * trial).sum(axis=1))[:, None]
        w, g, trial_rows, trial_grad, trial_hess = _tangent_derivatives(a, b, r, trial, frame)
        trial_value = _branch_entropy(w, g)[:, 0]
        ratio = (value - trial_value) / decrease
        length = np.sqrt((step * step).sum(axis=1))
        radius = np.where(ratio < 0.25, 0.25 * length,
                          np.where((ratio > 0.75) & (length >= radius), 2.0 * radius, radius))
        lower = trial_value < value
        value = np.where(lower, trial_value, value)
        rows = np.where(lower[:, None, None], trial_rows, rows)
        grad = np.where(lower[:, None], trial_grad, grad)
        hess = np.where(lower[:, None, None], trial_hess, hess)
    best_n[active], best_value[active] = rows[:, -1], value
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
    (S, K): the smallest index within SCAN_TIE_TOL of the state's lowest."""
    start = (values <= values.min(axis=1, keepdims=True) + SCAN_TIE_TOL).argmax(axis=1)
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
    states = np.arange(len(a))[:, None]
    a, r = a[states, axes], r[states, axes]
    start, value = _pick_start(_ce_many(a, b, r, _CIRCLE_DIRS))
    m, value = _newton(a, b, r, _CIRCLE_DIRS.T[start][:, None], value[:, None], _circle_frame,
                       INITIAL_RADIUS)
    n = np.empty((len(a), 3))
    n[states, axes] = m[:, 0]
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
