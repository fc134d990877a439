"""Deterministic state ensembles and reference families.

Random states are drawn under the Hilbert-Schmidt measure by normalizing
G G^dag for a complex Gaussian G.  Draws are indexed: the state at index k
depends only on (seed, k), so any partitioning of indices over workers
reproduces the same sequence bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import validate_density_matrix

_UINT64 = 2 ** 64


class SeededGenerator:
    """Counter-indexed random stream.

    Each draw consumes one index of an independent substream derived from
    ``(seed, index)``.  ``fork(k)`` positions a new generator at index ``k``.
    The pipelines need neither: they draw each stack by its indices, and state
    k has the bits of a generator at index k, in any thread or process.
    """

    def __init__(self, seed: int, start: int = 0):
        self.seed = int(seed) % _UINT64
        self.counter = int(start)

    def fork(self, index: int) -> "SeededGenerator":
        return SeededGenerator(self.seed, start=index)


# numpy's SeedSequence hash (pool of 4 uint32 words), fixed by numpy's
# stream-compatibility policy
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """(2, calls, 1) uint32: the constant that the c-th call of a SeedSequence
    hash XORs in (row 0) and the one it multiplies by (row 1), the running
    product ``init * mult ** c`` and the next one."""
    powers = [init * pow(mult, c, 2 ** 32) & _MASK32 for c in range(calls + 1)]
    return np.array([powers[:-1], powers[1:]], dtype=np.uint32)[..., None]


_FILL = _hash_constants(_INIT_A, _MULT_A, 16)  # calls 0-3 fill the pool, 4-15 mix it
_GENERATE = _hash_constants(_INIT_B, _MULT_B, 8)  # generate_state(4, uint64): 8 words
_GENERATE_SOURCE = [0, 1, 2, 3, 0, 1, 2, 3]  # the pool word of each generated word


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words: XOR, multiply, then fold the high half in."""
    words = (words ^ constants[0]) * constants[1]
    return words ^ (words >> 16)


class _SeedWords:
    """numpy's ISeedSequence over one index's hashed words (registered at the first
    draw: ``import qdiscord`` leaves numpy.random unimported).  PCG64 asks for
    ``generate_state(4, uint64)`` and reads the words through a raw pointer, so
    ``words`` must be a C-contiguous (4,) uint64 array."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _substream_normals(seed: int, indices) -> np.ndarray:
    """(S, 2, 4, 4) standard normals, for each index k those that
    ``numpy.random.default_rng([seed mod 2**64, k mod 2**64])`` draws first, to
    the bit, with the SeedSequence hash of all indices done at once.

    The entropy of ``[seed, k]`` is the 32-bit words of the seed, low word first
    (0 gives one word), then those of k: at most the 4 words of the pool, and a
    missing word hashes as a word 0, so every k takes two words, the high one 0
    below 2**32.  The pool is hashed and mixed on (4, S) arrays of uint32, which
    wrap as the C code does, and generate_state's words seed a fresh PCG64 per
    index, so concurrent draws share no generator.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    seed %= _UINT64
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    k = np.array([index % _UINT64 for index in indices], dtype=np.uint64)
    pool = np.zeros((4, len(k)), dtype=np.uint32)
    pool[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = k & _MASK32
    pool[len(seed_words) + 1] = k >> 32
    pool = _hashmix(pool, _FILL[:, :4])
    for src in range(4):  # each word into the other three, in numpy's order
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], _FILL[:, 4 + 3 * src:7 + 3 * src])
        mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[_GENERATE_SOURCE], _GENERATE).astype(np.uint64)
    # a C-contiguous row (s0, s1, i0, i1) per index, each uint64 two words, low first
    seeds = np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)
    z = np.empty((len(k), 2, 4, 4))
    for normals, row in zip(z, seeds):
        Generator(PCG64(_SeedWords(row))).standard_normal(out=normals)
    return z


def _ginibre_states(z: np.ndarray) -> np.ndarray:
    """States G G^dag / Tr(G G^dag) for a stack (S, 2, d, d) of standard normals,
    each the real parts of G, then its imaginary parts: a draw order that is
    part of the reproducibility contract."""
    g = z[:, 0] + 1j * z[:, 1]
    w = g @ g.conj().swapaxes(-1, -2)
    w = (w + w.conj().swapaxes(-1, -2)) / 2.0
    return w / w.trace(axis1=-2, axis2=-1).real[:, None, None]


def random_hs_state(gen: SeededGenerator) -> np.ndarray:
    """Next two-qubit state of the stream, Hilbert-Schmidt distributed: the
    state that the pipelines draw at the stream's index."""
    z = _substream_normals(gen.seed, [gen.counter])
    gen.counter += 1
    return _ginibre_states(z)[0]


# the X-shaped entries of a two-qubit operator: the diagonal and the anti-diagonal
X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
X_MASK.setflags(write=False)


def _x_projection(rhos: np.ndarray) -> np.ndarray:
    """The X projection of each state of a complex stack (..., 4, 4), unchecked:
    its X_MASK entries, the rest 0.  The pipelines apply it to the states they
    have just drawn, which are states by construction."""
    return np.where(X_MASK, rhos, 0.0)


def project_x_state(rho) -> np.ndarray:
    """Project a state, or each state of a stack (..., 4, 4), onto the X-shaped
    subspace (diagonal plus anti-diagonal), once it is checked a state.

    The channel E_1 rho E_1 + E_2 rho E_2 with E_1 = diag(1,0,0,1),
    E_2 = diag(0,1,1,0), which keeps the X_MASK entries and zeroes the rest:
    trace preserving, positivity preserving, and idempotent.
    """
    return _x_projection(validate_density_matrix(rho))


_PSI_PRODUCT = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)   # (|00> + |10>)/sqrt2
_PSI_ENTANGLED = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)  # (|01> + |10>)/sqrt2


def mixture_family(q: float | np.ndarray) -> np.ndarray:
    """Mixture (1-q) |psi0><psi0| + q |psi1><psi1| of a product state and a
    maximally entangled state, (4, 4) for a weight q, or (S, 4, 4) for an
    array (S,) of weights, each state to the bits of its weight alone.

    q = 0 is a product state (zero discord), q = 1 a Bell state (discord 1).
    """
    q = np.asarray(q, dtype=float)
    outside = ~((0.0 <= q) & (q <= 1.0))
    if outside.any():
        raise ValidationError(f"mixture weight {float(q[outside][0])!r} outside [0, 1]")
    q = q[..., None, None]
    rho = ((1.0 - q) * np.outer(_PSI_PRODUCT, _PSI_PRODUCT)
           + q * np.outer(_PSI_ENTANGLED, _PSI_ENTANGLED))
    return rho.astype(complex)


def off_axis_x_state() -> np.ndarray:
    """Reference X-state, already canonical, whose optimal measurement axis is
    off every coordinate axis (polar angle near 0.155 pi).

    Correlation triple (0.2, 0.2, 0.14787644).  The entries are used exactly
    as printed (4 decimals, trace 1) without renormalization.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.0783
    rho[1, 1] = 0.1250
    rho[2, 2] = 0.1250
    rho[3, 3] = 0.6717
    rho[1, 2] = 0.1000
    rho[2, 1] = 0.1000
    return rho
