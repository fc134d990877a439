"""The closed form of the conditional entropy and its derivatives.

Von Neumann measurements on qubit A are labelled by unit Bloch vectors n
(n and -n give the same measurement).  The average post-measurement entropy
of B has a closed form in the block decomposition (a, b, R):

    CE(n) = (1+f)/2 h(g+/(1+f)) + (1-f)/2 h(g-/(1-f)),
    f = a.n,  g+- = |b +- R^T n|,

evaluated here for stacks of states and directions, with its exact gradient
and Hessian on the sphere, which :mod:`qdiscord.refine` minimizes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConsistencyError
from .fano_bloch import BlockDecomposition, one_state_blocks
from .linalg import _TINY, ZERO_PROBABILITY, _binary_entropy, validate_direction

# slack on g <= 1 +- f; a larger excess means the input was not a state
POSITIVITY_SLACK = 1e-9
# the derivatives read g/w as at most X_CAP, where h'(x) = -artanh(x)/ln 2 and
# h''(x) = -1/(ln 2 (1 - x^2)) are finite
X_CAP = 1.0 - 1e-12
_LN2 = math.log(2.0)
_EYE = np.eye(3)
# the + and the - branch
_SIGNS = np.array([1.0, -1.0])


def _signed_pairs(f: np.ndarray, b: np.ndarray,
                  rn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w = 1 +- f (S, 2K) and u = b +- rn (S, 3, 2K) from f = a.n (S, K) and
    rn = R^T n (S, 3, K), the + branch first."""
    k = rn.shape[2]
    w = np.empty((len(f), 2 * k))
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
    """w = 1 +- a.n and g = |b +- R^T n| (S, 2K) of S states at the K columns of
    ``dirs``, shared (3, K) or per state (S, 3, K), the + branch first.  Each
    state's products are those of the state alone, so a value does not
    depend on the states stacked beside it."""
    w, u = _signed_pairs((a[:, None, :] @ dirs)[:, 0, :], b, r.swapaxes(1, 2) @ dirs)
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
    h = _binary_entropy(x)
    h *= 0.5 * np.where(live, w, 0.0)
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
    blocks = one_state_blocks(blocks)
    return float(_ce_many(blocks.a[None], blocks.b[None], blocks.r[None], v[:, None])[0, 0])


def _tangent_derivatives(a: np.ndarray, b: np.ndarray, r: np.ndarray, n: np.ndarray,
                         frame: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, ...]:
    """One evaluation at unit vectors n (S, 3): w and g (S, 2) of both branches,
    the values of :func:`_branches`, from which :func:`_branch_entropy` gives
    the closed form's value; the rows ``frame(n)`` (S, k + 1, 3), k
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
    contribute 0, x is read as at most X_CAP, and g as at least the smallest
    normal double, so that u/g and artanh(x)/g stay finite at g = 0.

    R^T n is read off the last row of ``frame(n) @ r``, a different matrix
    product from :func:`_branches`' ``r^T @ n``.  That w and g, and so
    the value, keep :func:`_branches`' bits is not given by the algebra: it
    was measured with numpy 2.4 on OpenBLAS, and
    ``test_stacked_derivatives_have_the_closed_form_bits`` and
    ``tools/bitcheck.py`` guard it.  If a numpy or BLAS upgrade fails them,
    this read is the first suspect, not the minimizer.
    """
    rows = frame(n)
    k = rows.shape[1] - 1
    # (S, k + 1, 3), whose last row n^T R is (R^T n)^T in value; in bits only
    # as measured (see the docstring)
    fr = rows @ r
    w, u = _signed_pairs((a[:, None, :] @ n[:, :, None])[:, 0, :], b,
                         fr[:, k, :, None])  # (S, 2), (S, 3, 2)
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
    fa = rows @ a[:, :, None]  # (S, k + 1, 1)
    fru = fr @ (u / g_floor[:, None])  # R u/g along each row: (S, k + 1, 2)
    grad = fa[:, :, 0] * t_w.sum(axis=1)[:, None] + (fru @ t_g[:, :, None])[:, :, 0]
    # the tangent components (S, 4, k) of v of both branches, then of R u/g of
    # both, and their weights h''/(2w) and -h'/(2g); each product's right
    # operand is contiguous, which numpy's batched matmul reads two to three
    # times faster than a transposed view, with the same bits as measured and
    # guarded as R^T n is
    fru_t = fru[:, :k].swapaxes(1, 2)
    vecs_t = np.concatenate([x[:, :, None] * fa[:, None, :k, 0] - fru_t, fru_t], axis=1)
    weights = np.concatenate([half / (-_LN2 * gap * w_live), -c_rr], axis=1)
    hess = (vecs_t * weights[:, :, None]).swapaxes(1, 2) @ vecs_t
    frk = fr[:, :k]
    hess += c_rr.sum(axis=1)[:, None, None] * (frk @ np.ascontiguousarray(frk.swapaxes(1, 2)))
    hess -= grad[:, k, None, None] * _EYE[:k, :k]
    return w, g, rows, grad[:, :k], hess
