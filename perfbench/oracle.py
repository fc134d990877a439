"""Reference values for two-qubit correlation measures, computed from rho alone.

Nothing here imports the program under test.  The conditional entropy CE(n)
is evaluated the slow, literal way: project qubit A onto (1 +- n.sigma)/2,
trace A out, diagonalize each unnormalized branch of B.  Its minimum comes
from a dense scan of the measurement hemisphere followed by shrinking local
grids around the best distinct scan points.  The closed forms at the end
(Luo's Bell-diagonal formula, pure states) give answers that need no
minimization at all.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

SCAN_POINTS = 4000
# scan points within this much of the best scan value seed a local refinement
CANDIDATE_WINDOW = 1e-2
MAX_CANDIDATES = 4
REFINE_GRID = 7
REFINE_SHRINK = 0.35
REFINE_STOP = 1e-7


def entropy_of(eigenvalues) -> float:
    """-sum w log2 w in bits over the non-negative part of ``eigenvalues``."""
    w = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def entropy(rho) -> float:
    return entropy_of(np.linalg.eigvalsh(rho))


def marginal(rho, keep: str) -> np.ndarray:
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r) if keep == "A" else np.einsum("abad->bd", r)


def entropies(rho) -> tuple[float, float, float]:
    """(S(rho_A), S(rho_B), S(rho))."""
    return entropy(marginal(rho, "A")), entropy(marginal(rho, "B")), entropy(rho)


def mutual_information(rho) -> float:
    s_a, s_b, s_ab = entropies(rho)
    return s_a + s_b - s_ab


def conditional_entropy(rho, dirs) -> np.ndarray:
    """Average entropy of B after measuring A along each row of ``dirs`` (K x 3)."""
    n = np.atleast_2d(np.asarray(dirs, dtype=float))
    n = n / np.linalg.norm(n, axis=1, keepdims=True)
    ns = np.einsum("ki,ixy->kxy", n, PAULI)
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    total = np.zeros(len(n))
    for sign in (1.0, -1.0):
        proj = (I2 + sign * ns) / 2.0
        # branch_{bd} = sum_{a,e} P_{ae} rho_{(e,b),(a,d)} = Tr_A[(P x 1) rho]
        branch = np.einsum("kae,ebad->kbd", proj, r)
        branch = (branch + np.conj(np.swapaxes(branch, 1, 2))) / 2.0
        lam = np.clip(np.linalg.eigvalsh(branch), 0.0, None)
        p = lam.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0.0, lam * np.log2(lam), 0.0).sum(axis=1)
            plogp = np.where(p > 0.0, p * np.log2(p), 0.0)
        total += plogp - terms
    return total


def hemisphere_scan(count: int = SCAN_POINTS) -> np.ndarray:
    """Near-uniform Fibonacci points on the z >= 0 hemisphere plus the three axes."""
    k = np.arange(count) + 0.5
    z = k / count
    rho = np.sqrt(1.0 - z * z)
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    return np.vstack([np.eye(3), pts])


_SCAN = hemisphere_scan()
_SCAN_STEP = math.sqrt(2.0 * math.pi / SCAN_POINTS)


def _tangent_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.eye(3)[int(np.argmin(np.abs(n)))]
    t1 = np.cross(n, helper)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(n, t1)


def _refine(rho, n: np.ndarray, value: float) -> tuple[np.ndarray, float]:
    offsets = np.linspace(-1.0, 1.0, REFINE_GRID)
    uu, vv = (g.ravel() for g in np.meshgrid(offsets, offsets))
    step = 2.0 * _SCAN_STEP
    while step > REFINE_STOP:
        t1, t2 = _tangent_basis(n)
        trial = n + step * (uu[:, None] * t1 + vv[:, None] * t2)
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        values = conditional_entropy(rho, trial)
        k = int(np.argmin(values))
        if values[k] < value:
            n, value = trial[k], float(values[k])
        else:
            step *= REFINE_SHRINK
    return n, value


def minimum(rho) -> tuple[np.ndarray, float]:
    """(direction, value) of the smallest CE found by scan plus local refinement.

    The value is attained at the direction, so it bounds the true minimum
    from above; a correct optimizer may not report anything larger.
    """
    values = conditional_entropy(rho, _SCAN)
    best = float(values.min())
    order = np.argsort(values, kind="stable")
    chosen: list[int] = []
    for k in order:
        if values[k] > best + CANDIDATE_WINDOW or len(chosen) == MAX_CANDIDATES:
            break
        if all(abs(float(_SCAN[k] @ _SCAN[j])) < math.cos(4.0 * _SCAN_STEP) for j in chosen):
            chosen.append(int(k))
    results = [_refine(rho, _SCAN[k].copy(), float(values[k])) for k in chosen]
    return min(results, key=lambda item: item[1])


def bloch_blocks(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors a, b and raw correlations T_ij = Tr[(s_i x s_j) rho]."""
    m = np.asarray(rho, dtype=complex)
    a = np.array([np.trace(np.kron(s, I2) @ m).real for s in PAULI])
    b = np.array([np.trace(np.kron(I2, s) @ m).real for s in PAULI])
    t = np.array([[np.trace(np.kron(s, q) @ m).real for q in PAULI] for s in PAULI])
    return a, b, t


def top_correlation(rho) -> float:
    """Largest singular value of the connected correlations T - a b^T."""
    a, b, t = bloch_blocks(rho)
    return float(np.linalg.svd(t - np.outer(a, b), compute_uv=False)[0])


def correlation_along(rho, n) -> float:
    """|(T - a b^T)^T n|: the connected correlation seen by a measurement along n."""
    a, b, t = bloch_blocks(rho)
    return float(np.linalg.norm((t - np.outer(a, b)).T @ np.asarray(n, dtype=float)))


def binary_entropy(x: float) -> float:
    return entropy_of([(1.0 + x) / 2.0, (1.0 - x) / 2.0])


# Correlation triples (c_x, c_y, c_z) of the four Bell states.
BELL_TRIPLES = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)


def bell_diagonal_state(c) -> np.ndarray:
    """(1 + sum_i c_i s_i x s_i) / 4."""
    rho = np.eye(4, dtype=complex)
    for ci, s in zip(c, PAULI):
        rho = rho + ci * np.kron(s, s)
    return rho / 4.0


def luo_classical_correlation(c) -> float:
    """Classical correlation of a Bell-diagonal state: 1 - h(max |c_i|) (Luo 2008)."""
    return 1.0 - binary_entropy(float(np.max(np.abs(c))))
