import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import bell_psi_plus, hs_states, random_unitary, run_python
from qdiscord import (PAULIS, SeededGenerator, ValidationError, conditional_entropy_closed,
                      correlation_matrix, is_canonical,
                      mcdm_direction, minimize_conditional_entropy,
                      mutual_information, off_axis_x_state, project_x_state,
                      quantum_discord, random_hs_state, reconstruct,
                      state_blocks, su2_from_so3, to_canonical)
from qdiscord.experiments import ExperimentConfig, _directions_chunk
from qdiscord.canonical import (_DIAGONAL_FAST_PATH_TOL, CANONICAL_TOL, OFF_DIAGONAL,
                                canonical_rotations)
from qdiscord.measures import _discord_reports
from qdiscord.refine import X_AXIS


def conjugate(rho, u1, u2):
    w = np.kron(u1, u2)
    return w @ rho @ w.conj().T


class TestToCanonical:
    def test_already_canonical_is_fixed(self):
        rho = off_axis_x_state()
        d = to_canonical(rho)
        assert np.max(np.abs(d.canonical_state - rho)) < 1e-12
        assert np.allclose(np.abs(d.u1), np.eye(2), atol=1e-12)  # identity up to phase
        assert_allclose(d.lambda_diag, [0.2, 0.2, 0.14787644], atol=1e-12)

    def test_bell_state(self):
        d = to_canonical(bell_psi_plus())
        assert_allclose(d.lambda_diag, [1.0, 1.0, -1.0], atol=1e-12)

    def test_invariants_on_random_states(self, rng):
        for rho in hs_states(41, 50):
            d = to_canonical(rho)
            lam = correlation_matrix(d.canonical_state)
            off = np.max(np.abs(lam - np.diag(np.diag(lam))))
            assert off < 1e-9
            l1, l2, l3 = d.lambda_diag
            assert l1 >= l2 - 1e-10
            assert l2 >= abs(l3) - 1e-10
            # determinant of the correlation matrix is preserved
            det_orig = np.linalg.det(correlation_matrix(rho))
            assert np.linalg.det(lam) == pytest.approx(det_orig, abs=1e-10)
            if abs(det_orig) > 1e-12:
                assert np.sign(l1 * l2 * l3) == np.sign(det_orig)
            # the stored unitaries actually produce the canonical state
            rebuilt = conjugate(rho, d.u1, d.u2)
            assert np.max(np.abs(rebuilt - d.canonical_state)) < 1e-12

    @pytest.mark.parametrize("entry", list(zip(*OFF_DIAGONAL.nonzero())))
    def test_diagonal_fast_path_tolerance_pinned_at_its_boundary(self, entry):
        # an ordered diagonal with one off-diagonal entry of exactly the
        # tolerance keeps the identity; one double more goes through the SVD,
        # whose rotations are not exactly the identity
        diagonal = [0.5, 0.3, 0.1]
        for off, fast in ((_DIAGONAL_FAST_PATH_TOL, True),
                          (np.nextafter(_DIAGONAL_FAST_PATH_TOL, 1.0), False)):
            lam = np.diag(diagonal)
            lam[entry] = off
            o1, o2, s = canonical_rotations(lam)
            assert s.tolist() == diagonal
            assert (o1 == np.eye(3)).all() == (o2 == np.eye(3)).all() == fast

    def test_rotated_state_same_triple(self, rng):
        for rho in hs_states(43, 20):
            u1, u2 = random_unitary(rng), random_unitary(rng)
            d0 = to_canonical(rho)
            d1 = to_canonical(conjugate(rho, u1, u2))
            assert_allclose(d0.lambda_diag, d1.lambda_diag, atol=1e-9)


class TestIsCanonical:
    def test_off_axis_state(self):
        assert is_canonical(off_axis_x_state())

    def test_ordering_violation(self):
        rho = reconstruct(np.diag([1.0, 0.1, 0.5, 0.2]))
        assert not is_canonical(rho)

    def test_maximally_mixed(self):
        assert is_canonical(np.eye(4) / 4)

    def test_off_diagonal_violation(self, rng):
        rho = reconstruct(np.diag([1.0, 0.6, 0.4, -0.2]))
        u = np.kron(random_unitary(rng), np.eye(2))
        assert not is_canonical(u @ rho @ u.conj().T, tol=1e-6)

    @pytest.mark.parametrize("entry", list(zip(*OFF_DIAGONAL.nonzero())))
    def test_default_tolerance_pinned_at_its_boundary(self, entry):
        # with a = b = 0, Lambda = R, and one off-diagonal entry of R survives
        # reconstruct and decompose exactly: CANONICAL_TOL is accepted, the
        # next double above it is not
        for off, canonical in ((CANONICAL_TOL, True), (np.nextafter(CANONICAL_TOL, 1.0), False)):
            tau = np.diag([1.0, 0.5, 0.3, 0.1])
            tau[1 + entry[0], 1 + entry[1]] = off
            rho = reconstruct(tau)
            assert correlation_matrix(rho)[entry] == off
            assert is_canonical(rho) == canonical


class TestMcdmDirection:
    def test_canonical_input_gives_x(self):
        d = to_canonical(off_axis_x_state())
        assert_allclose(mcdm_direction(d), [1.0, 0.0, 0.0], atol=1e-12)

    def test_axis_swap_bookkeeping(self, rng):
        # rotate qubit A so that the dominant correlation axis moves onto z
        rho = reconstruct(np.diag([1.0, 0.5, 0.3, -0.2]))
        o = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])  # y-rotation by pi/2
        u1 = su2_from_so3(o)
        rotated = conjugate(rho, u1, np.eye(2))
        n = mcdm_direction(to_canonical(rotated))
        assert abs(abs(n @ np.array([0.0, 0.0, 1.0])) - 1.0) < 1e-10

    def test_entropy_matches_canonical_x(self):
        for rho in hs_states(47, 30):
            d = to_canonical(rho)
            n = mcdm_direction(d)
            ce_original = conditional_entropy_closed(state_blocks(rho), n)
            ce_canonical = conditional_entropy_closed(state_blocks(d.canonical_state), X_AXIS)
            assert abs(ce_original - ce_canonical) < 1e-10


def bloch_rotation(u):
    """The rotation O of Bloch vectors under the qubit unitary u:
    u sigma_j u^dag = sum_i O_ij sigma_i."""
    sigma = np.array(PAULIS[1:])
    return np.einsum("iab,bc,jcd,da->ij", sigma, u, sigma, u.conj().T).real / 2.0


class TestLocalUnitaryInvariance:
    """Every report field is invariant under local unitaries u1 x u2: the
    values to a few ulps (3.6e-15 seen), the MCDM direction rotating with
    O(u1) to 5.4e-15 and the optimal one, which CE fixes only to about the
    square root of its rounding, to 1.9e-8; directions up to sign."""

    VALUES = ("mutual_information", "classical_correlation", "discord", "mcdm_discord",
              "min_conditional_entropy", "mcdm_conditional_entropy")

    def test_measures_invariant(self, rng):
        states = hs_states(53, 300)
        states += [project_x_state(rho) for rho in states[:100]]
        unitaries = [(random_unitary(rng), random_unitary(rng)) for _ in states]
        conjugated = [conjugate(rho, u1, u2) for rho, (u1, u2) in zip(states, unitaries)]
        r0 = _discord_reports(np.stack(states))
        r1 = _discord_reports(np.stack(conjugated))
        for name in self.VALUES:
            assert np.abs(getattr(r0, name) - getattr(r1, name)).max() <= 1e-14, name
        for k, (u1, _) in enumerate(unitaries):
            o = bloch_rotation(u1)
            for name, bound in (("mcdm_direction", 1e-12), ("optimal_direction", 1e-6)):
                turned, direction = o @ getattr(r0, name)[k], getattr(r1, name)[k]
                assert min(np.abs(direction - turned).max(),
                           np.abs(direction + turned).max()) <= bound, name
        # the stacked rows are the lone reports, bit for bit
        for k in range(0, len(states), 100):
            for report, rho in ((r0, states[k]), (r1, conjugated[k])):
                for name, value in vars(quantum_discord(rho)).items():
                    assert np.asarray(getattr(report, name)[k]).tobytes() == \
                        np.asarray(value).tobytes(), name


class TestBlocksOnlyPaths:
    """The rotated-blocks and SVD-axis paths against the SU(2)-lifted canonical state."""

    @pytest.mark.parametrize("x_project", [False, True])
    def test_optimal_directions_match_lifted_state(self, x_project):
        # the values agree to rounding; near a minimum CE is flat to second
        # order, so the refined direction is only fixed to ~sqrt(value noise):
        # a one-ulp change of the lifted blocks alone moves it by ~1e-7
        seed = 137
        for index in range(100):
            rho = random_hs_state(SeededGenerator(seed, start=index))
            if x_project:
                rho = project_x_state(rho)
            canonical = to_canonical(rho).canonical_state
            n_ref, value_ref = minimize_conditional_entropy(canonical)
            # the chunk that holds index alone
            config = ExperimentConfig(seed=seed)
            (n,) = _directions_chunk(config, range(index, index + 1), x_project)
            value = conditional_entropy_closed(state_blocks(canonical), n)
            assert abs(value - value_ref) <= 1e-12
            # n and -n are the same measurement
            assert min(np.max(np.abs(n - n_ref)), np.max(np.abs(n + n_ref))) <= 1e-6

    @pytest.mark.parametrize("x_project", [False, True])
    def test_discord_mcdm_axis_matches_to_canonical(self, x_project):
        for rho in hs_states(139, 100):
            if x_project:
                rho = project_x_state(rho)
            np.testing.assert_array_equal(quantum_discord(rho).mcdm_direction,
                                          mcdm_direction(to_canonical(rho)))


class TestNonFiniteCorrelations:
    @pytest.mark.parametrize("position", [(0, 0), (1, 2)])
    def test_nan_raises_validation_error(self, position):
        # not the SVD's LinAlgError, and not a NaN rotation
        lam = np.diag([0.3, 0.2, 0.1])
        lam[position] = np.nan
        for argument in (lam, np.stack([np.diag([0.3, 0.2, 0.1]), lam])):
            with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
                canonical_rotations(argument)

    def test_inf_raises_in_time(self):
        # np.linalg.svd does not return on this matrix, so the call runs in a
        # child that a timeout ends
        code = ("import numpy as np\n"
                "from qdiscord import ValidationError\n"
                "from qdiscord.canonical import canonical_rotations\n"
                "lam = np.eye(3)\n"
                "lam[0, 0] = np.inf\n"
                "try:\n"
                "    canonical_rotations(lam)\n"
                "except ValidationError as exc:\n"
                "    print(exc)\n")
        assert run_python(code, timeout=30.0) == "matrix has non-finite entries\n"
