import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import bell_psi_plus, hs_states, random_qubit_state
from qdiscord import (NotAStateError, ValidationError, blocks,
                      correlation_matrix, decompose, off_axis_x_state,
                      reconstruct, state_blocks, su2_from_so3)
from conftest import random_rotation
from qdiscord.linalg import EIGENVALUE_FLOOR, PAULIS, TRACE_TOL, validate_density_matrix

# direct decimal arithmetic on the printed entries
A3_REFERENCE = -0.5934
LAMBDA3_REFERENCE = 0.14787644


def pauli_sum(tau):
    """1/4 sum_ij tau[i,j] sigma_i x sigma_j, term by term."""
    return sum(tau[i, j] * np.kron(p, q) for i, p in enumerate(PAULIS)
               for j, q in enumerate(PAULIS)) / 4


def raises_not_a_state(call, matrix):
    """Whether ``call(matrix)`` raises :class:`NotAStateError`."""
    try:
        call(matrix)
    except NotAStateError:
        return True
    return False


class TestDecompose:
    def test_maximally_mixed(self):
        tau = decompose(np.eye(4) / 4)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert_allclose(tau, expected, atol=1e-15)

    def test_bell_state(self):
        tau = decompose(bell_psi_plus())
        expected = np.diag([1.0, 1.0, 1.0, -1.0])
        assert_allclose(tau, expected, atol=1e-15)

    def test_off_axis_state_polarization(self):
        tau = decompose(off_axis_x_state())
        assert tau[3, 0] == pytest.approx(A3_REFERENCE, abs=1e-12)
        assert tau[0, 3] == pytest.approx(A3_REFERENCE, abs=1e-12)

    def test_entries_bounded(self):
        for rho in hs_states(3, 100):
            tau = decompose(rho)
            assert tau[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(tau)) <= 1.0 + 1e-10

    @pytest.mark.parametrize("entry, message", [
        (0.1, "matrix is not Hermitian within tolerance"),
        (1e-10, "matrix is not Hermitian within tolerance"),
        (np.nan, "matrix has non-finite entries")])
    @pytest.mark.parametrize("call", [decompose, state_blocks, correlation_matrix])
    def test_rejects_non_hermitian(self, call, entry, message):
        # linalg's rule: 1e-10 off Hermitian and a NaN entry are refused, as
        # validation refuses them, alone and in a stack
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = entry
        for matrix in (m, np.stack([np.eye(4) / 4, m])):
            with pytest.raises(ValidationError) as raised:
                call(matrix)
            assert str(raised.value) == message


class TestReconstruct:
    def test_trivial_tensor(self):
        tau = np.zeros((4, 4))
        tau[0, 0] = 1.0
        assert_allclose(reconstruct(tau), np.eye(4) / 4, atol=1e-15)

    def test_bell_tensor(self):
        assert_allclose(reconstruct(np.diag([1.0, 1.0, 1.0, -1.0])),
                        bell_psi_plus(), atol=1e-15)

    def test_round_trip_random(self):
        for rho in hs_states(17, 1000):
            tau = decompose(rho)
            assert np.max(np.abs(reconstruct(tau) - rho)) < 1e-12
            assert np.max(np.abs(decompose(reconstruct(tau)) - tau)) < 1e-12

    def test_rejects_unphysical(self):
        # c = (0.6, 0.4, 0.2) violates positivity: eigenvalue -0.05
        with pytest.raises(NotAStateError):
            reconstruct(np.diag([1.0, 0.6, 0.4, 0.2]))

    def test_rejects_bad_trace(self):
        tau = np.zeros((4, 4))
        tau[0, 0] = 0.5
        with pytest.raises(NotAStateError) as raised:
            reconstruct(tau)
        assert str(raised.value) == "trace is 0.5, expected 1"

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_trace_tolerance_pinned_at_its_boundary(self, side):
        # tau[0, 0] near 1 lies on doubles spaced 2^-52 above 1 and 2^-53
        # below, so its deviation from 1 is exact: the farthest from 1 within
        # TRACE_TOL is accepted, the next double out is not
        ulp = np.spacing(1.0) if side > 0 else np.spacing(1.0) / 2
        inside = 1.0 + side * ulp * math.floor(TRACE_TOL / ulp)
        outside = np.nextafter(inside, side * np.inf)
        assert abs(inside - 1.0) <= TRACE_TOL < abs(outside - 1.0)
        tau = np.zeros((4, 4))
        tau[0, 0] = inside
        assert_allclose(reconstruct(tau), np.eye(4) / 4, atol=1e-12)
        tau[0, 0] = outside
        with pytest.raises(ValidationError):
            reconstruct(tau)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_refuses_what_validation_refuses(self, sign):
        # tau = diag(1, 0, 0, c) has the lowest eigenvalue (1 - |c|)/4, which
        # crosses -EIGENVALUE_FLOOR at |c| = 1 + 4 EIGENVALUE_FLOOR: c steps
        # double by double across that point, and reconstruct must raise
        # exactly where validate_density_matrix raises on the same matrix
        c = 1.0 + 4 * EIGENVALUE_FLOOR
        for _ in range(40):
            c = np.nextafter(c, 0.0)
        seen = set()
        for _ in range(80):
            tau = np.diag([1.0, 0.0, 0.0, sign * c])
            refused = raises_not_a_state(validate_density_matrix, pauli_sum(tau))
            assert raises_not_a_state(reconstruct, tau) == refused
            if not refused:
                assert np.array_equal(reconstruct(tau), pauli_sum(tau))
            seen.add(refused)
            c = np.nextafter(c, 2.0)
        assert seen == {False, True}

    def test_refuses_a_bell_diagonal_tensor_below_the_floor(self):
        # its matrix has the eigenvalue -5e-9, which every state-taking call refuses
        tau = np.diag([1.0, 0.5, 0.3, 0.2 + 2e-8])
        assert raises_not_a_state(validate_density_matrix, pauli_sum(tau))
        with pytest.raises(NotAStateError, match="negative eigenvalue"):
            reconstruct(tau)


class TestBlocks:
    def test_product_state_factorizes(self, rng):
        rho_a = random_qubit_state(rng)
        rho_b = random_qubit_state(rng)
        bd = state_blocks(np.kron(rho_a, rho_b))
        assert_allclose(bd.r, np.outer(bd.a, bd.b), atol=1e-13)

    def test_bell_state(self):
        bd = state_blocks(bell_psi_plus())
        assert_allclose(bd.a, np.zeros(3), atol=1e-15)
        assert_allclose(bd.b, np.zeros(3), atol=1e-15)
        assert_allclose(bd.r, np.diag([1.0, 1.0, -1.0]), atol=1e-15)

    def test_off_axis_state(self):
        bd = state_blocks(off_axis_x_state())
        assert_allclose(bd.a, [0.0, 0.0, A3_REFERENCE], atol=1e-12)
        assert_allclose(bd.b, [0.0, 0.0, A3_REFERENCE], atol=1e-12)

    def test_lossless(self):
        for rho in hs_states(23, 20):
            tau = decompose(rho)
            bd = blocks(tau)
            rebuilt = np.zeros((4, 4))
            rebuilt[0, 0] = 1.0
            rebuilt[1:, 0] = bd.a
            rebuilt[0, 1:] = bd.b
            rebuilt[1:, 1:] = bd.r
            assert_allclose(rebuilt, tau, atol=0)


class TestCorrelationMatrix:
    def test_product_state_vanishes(self, rng):
        rho_a = random_qubit_state(rng)
        rho_b = random_qubit_state(rng)
        lam = correlation_matrix(np.kron(rho_a, rho_b))
        assert np.max(np.abs(lam)) < 1e-13

    def test_bell_state(self):
        assert_allclose(correlation_matrix(bell_psi_plus()),
                        np.diag([1.0, 1.0, -1.0]), atol=1e-15)

    def test_off_axis_state(self):
        lam = correlation_matrix(off_axis_x_state())
        assert_allclose(np.diag(lam), [0.2, 0.2, LAMBDA3_REFERENCE], atol=1e-12)
        assert_allclose(np.diag(lam), [0.2, 0.2, 0.1479], atol=1e-3)
        assert np.max(np.abs(lam - np.diag(np.diag(lam)))) < 1e-15

    def test_transforms_by_rotations(self, rng):
        # Lambda -> O1 Lambda O2^T under (u1 x u2) rho (u1 x u2)^dag
        for rho in hs_states(29, 10):
            o1, o2 = random_rotation(rng), random_rotation(rng)
            u = np.kron(su2_from_so3(o1), su2_from_so3(o2))
            lam = correlation_matrix(rho)
            lam_rotated = correlation_matrix(u @ rho @ u.conj().T)
            assert_allclose(lam_rotated, o1 @ lam @ o2.T, atol=1e-10)

    def test_bloch_vectors_and_singular_values_bounded(self):
        for rho in hs_states(31, 200):
            bd = state_blocks(rho)
            assert np.linalg.norm(bd.a) <= 1.0 + 1e-10
            assert np.linalg.norm(bd.b) <= 1.0 + 1e-10
            assert np.linalg.svd(bd.r, compute_uv=False)[0] <= 1.0 + 1e-9
