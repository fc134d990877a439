"""The state files of the ``discord-files`` workload, with answers known in
closed form.

The make-up is fixed; only the numbers inside each family come from the
seed, so every seed gives the same number of files, the same families and
the same single failing file.

- Bell-diagonal states (half in canonical order, half turned by random
  local unitaries) and Werner states: C = 1 - h(max |c_i|) (Luo 2008).
- Classical-quantum states sum_k p_k P_k x rho_k: discord 0.  Half of them
  have maximally mixed marginals, where the paper proves the MCDM optimal, so
  the MCDM bound is 0 too; one of these is measured along z, so the optimum
  sits on an axis.
- The two ends of the product/Bell mixture family: discord 0 and 1.
- Pure states: discord = classical correlation = S(rho_A).
- Rank-2 and near-pure states, checked against the oracle alone.
- One file with a NaN entry.  The CLI documents exit 3 for an invalid state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

NAN_EXIT = 3
# files per family (Bell-diagonal: per variant); 45 files in all
BELL = 8
WERNER = 4
CLASSICAL_QUANTUM = 4
PURE = 6
LOW_RANK = 4


@dataclass
class Entry:
    name: str
    rho: np.ndarray
    expect: dict = field(default_factory=dict)  # report key -> closed-form value
    expect_exit: int = 0


def state_text(rho) -> str:
    """Four lines of ``re+imi`` entries at full double precision."""
    return "".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n"
                   for row in np.asarray(rho, dtype=complex))


def _unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _ket_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _mixed(rng, rank: int) -> np.ndarray:
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    w = g @ g.conj().T
    return (w + w.conj().T) / 2.0 / np.trace(w).real


def _qubit(bloch) -> np.ndarray:
    return (oracle.I2 + np.einsum("i,ixy->xy", bloch, oracle.PAULI)) / 2.0


def _random_bloch(rng, radius: float) -> np.ndarray:
    v = rng.standard_normal(3)
    return radius * v / np.linalg.norm(v)


def _cq_state(p1: float, n, rho_1, rho_2) -> np.ndarray:
    proj = _qubit(np.asarray(n, dtype=float))
    return p1 * np.kron(proj, rho_1) + (1.0 - p1) * np.kron(oracle.I2 - proj, rho_2)


def build(seed: int) -> list[Entry]:
    rng = np.random.default_rng([seed, 0xF11E5])
    entries = []

    for k in range(2 * BELL):
        c = rng.dirichlet(np.ones(4)) @ oracle.BELL_TRIPLES
        # local rotations reorder |c_i| and flip pairs of signs, so this
        # canonical-order triple describes a state of the same family
        mags = np.sort(np.abs(c))[::-1]
        c = np.array([mags[0], mags[1], np.sign(np.prod(c)) * mags[2]])
        rho = oracle.bell_diagonal_state(c)
        kind = "bell"
        if k >= BELL:
            w = np.kron(_unitary(rng), _unitary(rng))
            rho = w @ rho @ w.conj().T
            kind = "bell-rotated"
        entries.append(Entry(f"{kind}-{k}", rho,
                             {"classical_correlation": oracle.luo_classical_correlation(c)}))
    for k in range(WERNER):
        p = rng.uniform(0.05, 1.0)
        c = np.array([p, p, -p])
        entries.append(Entry(f"werner-{k}", oracle.bell_diagonal_state(c),
                             {"classical_correlation": oracle.luo_classical_correlation(c)}))

    for k in range(CLASSICAL_QUANTUM):
        rho = _cq_state(rng.uniform(0.1, 0.9), _random_bloch(rng, 1.0),
                        _qubit(_random_bloch(rng, rng.uniform(0.0, 1.0))),
                        _qubit(_random_bloch(rng, rng.uniform(0.0, 1.0))))
        entries.append(Entry(f"classical-quantum-{k}", rho, {"discord": 0.0}))
    axes = [_random_bloch(rng, 1.0) for _ in range(CLASSICAL_QUANTUM - 1)]
    axes.append(np.array([0.0, 0.0, 1.0]))
    for k, axis in enumerate(axes):
        r = _random_bloch(rng, rng.uniform(0.2, 0.95))
        rho = _cq_state(0.5, axis, _qubit(r), _qubit(-r))
        entries.append(Entry(f"classical-quantum-mixed-marginals-{k}", rho,
                             {"discord": 0.0, "mcdm_discord": 0.0}))

    product = _ket_state([1.0, 0.0, 1.0, 0.0])    # (|00> + |10>)/sqrt2
    entangled = _ket_state([0.0, 1.0, 1.0, 0.0])  # (|01> + |10>)/sqrt2
    entries.append(Entry("mixture-q0", product, {"discord": 0.0}))
    entries.append(Entry("mixture-q1", entangled,
                         {"discord": 1.0, "classical_correlation": 1.0, "mutual_information": 2.0}))

    for k in range(PURE):
        rho = _mixed(rng, 1)
        s_a = oracle.entropy(oracle.marginal(rho, "A"))
        entries.append(Entry(f"pure-{k}", rho, {"discord": s_a, "classical_correlation": s_a}))
    for k in range(LOW_RANK):
        entries.append(Entry(f"rank2-{k}", _mixed(rng, 2)))
    for k in range(LOW_RANK):
        eps = 10.0 ** rng.uniform(-6.0, -3.0)
        rho = (1.0 - eps) * _mixed(rng, 1) + eps * _mixed(rng, 4)
        entries.append(Entry(f"near-pure-{k}", rho))

    nan_state = _ket_state([1.0, 0.0, 0.0, 1.0]).copy()
    nan_state[1, 2] = nan_state[2, 1] = np.nan
    entries.append(Entry("nan-entry", nan_state, expect_exit=NAN_EXIT))
    return entries


def write(entries: list[Entry], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, entry in enumerate(entries):
        path = directory / f"{k:02d}-{entry.name}.txt"
        path.write_text(state_text(entry.rho))
        paths.append(path)
    return paths
