import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdiscord import (NotAStateError, SeededGenerator, ValidationError, correlation_matrix,
                      mixture_family, off_axis_x_state, project_x_state,
                      quantum_discord, random_hs_state,
                      validate_density_matrix)
from qdiscord.ensembles import _x_projection
from qdiscord.experiments import ExperimentConfig, _hs_states

# locked after a 100,000-sample run: mean 0.47071, standard error 2.1e-4;
# agrees with the exact Hilbert-Schmidt value 8/17
MEAN_PURITY = 8.0 / 17.0

X_PATTERN_ZEROS = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]


class TestSeededGenerator:
    def test_identical_seeds_identical_states(self):
        g1, g2 = SeededGenerator(42), SeededGenerator(42)
        for _ in range(5):
            assert_allclose(random_hs_state(g1), random_hs_state(g2), atol=0)

    def test_different_seeds_differ(self):
        s1 = random_hs_state(SeededGenerator(1))
        s2 = random_hs_state(SeededGenerator(2))
        assert np.max(np.abs(s1 - s2)) > 1e-3

    def test_fork_matches_sequential(self):
        gen = SeededGenerator(7)
        sequential = [random_hs_state(gen) for _ in range(6)]
        for k in (0, 3, 5):
            forked = random_hs_state(SeededGenerator(7).fork(k))
            assert_allclose(forked, sequential[k], atol=0)

    def test_counter_advances(self):
        gen = SeededGenerator(9)
        random_hs_state(gen)
        assert gen.counter == 1


class TestRandomHsState:
    def test_samples_are_valid_states(self):
        gen = SeededGenerator(5)
        for _ in range(200):
            validate_density_matrix(random_hs_state(gen))

    def test_mean_purity_regression(self):
        n = 20000
        rhos = _hs_states(ExperimentConfig(seed=2024), range(n))
        for k in range(0, n, 100):
            assert same_bits(random_hs_state(SeededGenerator(2024, start=k)), rhos[k])
        purity = (rhos @ rhos).trace(axis1=1, axis2=2).real
        # standard error at this sample size is about 4.7e-4
        assert purity.mean() == pytest.approx(MEAN_PURITY, abs=2e-3)

    def test_spectra_reproducible(self):
        def spectra(gen):
            return np.sort(np.concatenate(
                [np.linalg.eigvalsh(random_hs_state(gen)) for _ in range(200)]))

        assert_allclose(spectra(SeededGenerator(31)), spectra(SeededGenerator(31)), atol=0)


def ginibre_by_blocks(seed, index):
    """The state at ``index`` of stream ``seed`` as first specified: a (4, 4)
    block of real parts, then one of imaginary parts, and G G^dag normalized."""
    rng = np.random.default_rng([seed % 2 ** 64, index])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2.0
    return w / np.trace(w).real


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint8), y.view(np.uint8))


class TestStackedDraw:
    """The draw of a chunk, one stacked kernel call over the normals of each
    index, reproduces the state of each index alone bit for bit."""

    SEEDS = (0, 7, 2 ** 64 + 5)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("indices", [range(0, 64), range(60, 130), range(127, 129),
                                         range(190, 330), range(2 ** 32 - 3, 2 ** 32 + 61)],
                             ids=["chunk", "straddle", "pair", "three_chunks", "index_2_32"])
    def test_chunk_equals_each_state_alone(self, seed, indices):
        stacked = _hs_states(ExperimentConfig(seed=seed), indices)
        alone = np.stack([random_hs_state(SeededGenerator(seed, start=k)) for k in indices])
        assert same_bits(stacked, alone)

    # the 32-bit word boundaries of the seed and of the index, which change the
    # number of entropy words that numpy's SeedSequence hashes
    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 5, -1])
    @pytest.mark.parametrize("size", [1, 2, 44, 64])  # 44: the last chunk of 300 samples
    @pytest.mark.parametrize("last", [None, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1],
                             ids=["from_0", "to_2_32_minus_1", "to_2_32", "to_2_64_minus_1"])
    def test_chunk_equals_numpy_default_rng(self, seed, size, last):
        indices = range(size) if last is None else range(last - size + 1, last + 1)
        stacked = _hs_states(ExperimentConfig(seed=seed), indices)
        assert same_bits(stacked, np.stack([ginibre_by_blocks(seed, k) for k in indices]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_equals_block_by_block_draw(self, seed):
        # one draw of 32 normals reads the stream as the two (4, 4) draws do
        gen = SeededGenerator(seed)
        for k in [*range(70), 2 ** 32 + 1]:
            gen.counter = k
            assert same_bits(random_hs_state(gen), ginibre_by_blocks(seed, k))


class TestConcurrentDraws:
    def test_two_threads_keep_their_bits(self):
        # lone states at seed 3 in one thread and stacks of 64 at seed 4 in the
        # other, both started at once, each draw against its serial draw
        lone = range(3000)
        stacks = [range(start, start + 64) for start in range(0, 500 * 64, 64)]
        barrier = threading.Barrier(2)
        drawn = {}

        def draw_lone():
            barrier.wait()
            drawn["lone"] = [random_hs_state(SeededGenerator(3, start=k)) for k in lone]

        def draw_stacks():
            barrier.wait()
            drawn["stacks"] = [_hs_states(ExperimentConfig(seed=4), s) for s in stacks]

        threads = [threading.Thread(target=draw) for draw in (draw_lone, draw_stacks)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wrong_lone = sum(not same_bits(rho, random_hs_state(SeededGenerator(3, start=k)))
                         for k, rho in zip(lone, drawn["lone"]))
        wrong_stacks = sum(not same_bits(rhos, _hs_states(ExperimentConfig(seed=4), s))
                           for s, rhos in zip(stacks, drawn["stacks"]))
        assert (wrong_lone, wrong_stacks) == (0, 0)


class TestProjectXState:
    def test_idempotent(self):
        gen = SeededGenerator(13)
        for _ in range(20):
            projected = project_x_state(random_hs_state(gen))
            assert_allclose(project_x_state(projected), projected, atol=1e-15)

    def test_fixes_maximally_mixed(self):
        assert_allclose(project_x_state(np.eye(4) / 4), np.eye(4) / 4, atol=1e-15)

    def test_zero_pattern(self):
        gen = SeededGenerator(17)
        for _ in range(20):
            projected = project_x_state(random_hs_state(gen))
            for i, j in X_PATTERN_ZEROS:
                assert abs(projected[i, j]) < 1e-14

    def test_trace_and_positivity_preserved(self):
        gen = SeededGenerator(19)
        for _ in range(50):
            projected = project_x_state(random_hs_state(gen))
            validate_density_matrix(projected)

    def test_linear(self):
        gen = SeededGenerator(23)
        r1, r2 = random_hs_state(gen), random_hs_state(gen)
        mixed = project_x_state(0.5 * r1 + 0.5 * r2)
        assert_allclose(mixed, 0.5 * project_x_state(r1) + 0.5 * project_x_state(r2),
                        atol=1e-14)

    def test_refuses_a_matrix_that_is_no_state(self):
        # checked before the projection, whose result here would be I / 4
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = rho[1, 0] = 0.5
        with pytest.raises(NotAStateError, match="negative eigenvalue"):
            project_x_state(rho)
        assert np.array_equal(_x_projection(rho), np.eye(4) / 4)

    def test_table1_draws_project_to_states(self):
        # table1 projects its draws unchecked: these are the states of its
        # 10,000-sample seed-7 run
        validate_density_matrix(_x_projection(_hs_states(ExperimentConfig(seed=7), range(10000))))


class TestMixtureFamily:
    def test_product_endpoint(self):
        rho = mixture_family(0.0)
        validate_density_matrix(rho)
        assert np.max(np.abs(correlation_matrix(rho))) < 1e-14
        assert quantum_discord(rho).discord == pytest.approx(0.0, abs=1e-9)

    def test_entangled_endpoint(self):
        rho = mixture_family(1.0)
        assert quantum_discord(rho).discord == pytest.approx(1.0, abs=1e-9)

    def test_affine_in_q(self):
        q = 0.37
        expected = (1 - q) * mixture_family(0.0) + q * mixture_family(1.0)
        assert_allclose(mixture_family(q), expected, atol=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            mixture_family(-0.01)
        with pytest.raises(ValidationError):
            mixture_family(1.01)

    def test_stack_equals_each_weight_alone(self):
        qs = np.array([0.0, 1e-300, 0.1, 1 / 3, 0.37, 0.5, 1 - 2 ** -53, 1.0])
        stacked = mixture_family(qs)
        assert stacked.shape == (len(qs), 4, 4) and mixture_family(0.37).shape == (4, 4)
        assert same_bits(stacked, np.stack([mixture_family(float(q)) for q in qs]))

    @pytest.mark.parametrize("bad", [-0.01, 1.01, np.nan, -np.inf])
    def test_domain_error_covers_every_weight(self, bad):
        with pytest.raises(ValidationError, match=f"mixture weight {bad!r} outside"):
            mixture_family(np.array([0.0, 0.5, bad, 1.0]))


class TestOffAxisXState:
    def test_is_valid_state(self):
        validate_density_matrix(off_axis_x_state())

    def test_entries_as_printed(self):
        rho = off_axis_x_state()
        assert rho[0, 0] == 0.0783
        assert rho[3, 3] == 0.6717
        assert rho[1, 2] == 0.1000

    def test_invariant_under_equal_phase_rotation(self):
        # exp(i phi sigma_z) x exp(i phi sigma_z) fixes the state exactly
        rho = off_axis_x_state()
        for phi in (0.3, 1.1, 2.9):
            u1 = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
            u = np.kron(u1, u1)
            assert np.max(np.abs(u @ rho @ u.conj().T - rho)) < 1e-12
