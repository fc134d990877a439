import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import bell_psi_plus, hs_states, random_rotation, same_bits
from qdiscord import (PAULIS, SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z, NotAStateError,
                      ValidationError, binary_entropy, eigvals_hermitian, partial_trace,
                      su2_from_so3, validate_density_matrix, von_neumann_entropy)
from qdiscord.linalg import (BLOCH_LENGTH_TOL, ENTROPY_TRACE_TOL, ROTATION_TOL, TRACE_TOL,
                             entropy_bits, require_rotation, validated_spectrum)

# independently computed with 40-digit arithmetic
H_OF_0P6 = 0.7219280948873623


class TestEigvalsHermitian:
    def test_identity(self):
        assert_allclose(eigvals_hermitian(np.eye(4)), [1, 1, 1, 1])

    def test_diagonal(self):
        assert_allclose(eigvals_hermitian(np.diag([0.5, 0.0, 0.5, 0.0])),
                        [0, 0, 0.5, 0.5], atol=1e-15)

    def test_bell_projector(self):
        assert_allclose(eigvals_hermitian(bell_psi_plus()), [0, 0, 0, 1], atol=1e-15)

    def test_sum_equals_trace(self, rng):
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (g + g.conj().T) / 2
            w = eigvals_hermitian(h)
            assert sorted(w) == list(w)
            assert abs(w.sum() - np.trace(h).real) < 1e-10

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValidationError):
            eigvals_hermitian(m)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            eigvals_hermitian(np.eye(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, value):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = value
        with pytest.raises(ValidationError):
            eigvals_hermitian(m)


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-14)

    def test_pure_state(self):
        assert von_neumann_entropy(bell_psi_plus()) == pytest.approx(0.0, abs=1e-12)

    def test_two_equal_eigenvalues(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-14)

    def test_range(self):
        from conftest import hs_states
        for rho in hs_states(11, 50):
            s = von_neumann_entropy(rho)
            assert 0.0 <= s <= 2.0 + 1e-12

    def test_clamps_tiny_negative(self):
        assert von_neumann_entropy(np.diag([1.0 + 5e-11, -5e-11, 0, 0])) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_large_negative(self):
        with pytest.raises(NotAStateError):
            von_neumann_entropy(np.diag([1.1, -0.1, 0, 0]))

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_trace_tolerance_pinned_at_its_boundary(self, side):
        # a trace near 1 lies on doubles spaced 2^-52 above 1 and 2^-53 below,
        # so its deviation from 1 is exact: the farthest from 1 within
        # ENTROPY_TRACE_TOL is accepted, the next double out is not
        ulp = np.spacing(1.0) if side > 0 else np.spacing(1.0) / 2
        inside = 1.0 + side * ulp * math.floor(ENTROPY_TRACE_TOL / ulp)
        outside = np.nextafter(inside, side * np.inf)
        assert abs(inside - 1.0) <= ENTROPY_TRACE_TOL < abs(outside - 1.0)
        assert von_neumann_entropy(np.diag([inside, 0.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-8)
        with pytest.raises(NotAStateError):
            von_neumann_entropy(np.diag([outside, 0.0, 0.0, 0.0]))


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        validate_density_matrix(np.eye(4) / 4)

    def test_rejects_trace(self):
        with pytest.raises(NotAStateError):
            validate_density_matrix(np.eye(4) / 2)

    def test_rejects_negative(self):
        with pytest.raises(NotAStateError):
            validate_density_matrix(np.diag([1.5, -0.5, 0, 0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        rho = np.eye(4, dtype=complex) / 4
        rho[3, 3] = value
        with pytest.raises(ValidationError):
            validate_density_matrix(rho)

    def test_spectrum_matches_eigvalsh(self):
        from conftest import hs_states
        for rho in hs_states(13, 10):
            checked, w = validated_spectrum(rho)
            assert_allclose(checked, rho, atol=0)
            assert_allclose(w, np.linalg.eigvalsh(rho), atol=0)


class TestStackedValidation:
    """A stack (..., d, d) is validated state by state: one invalid state makes
    the stack raise as that state would alone."""

    @staticmethod
    def non_hermitian():
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        return m

    @staticmethod
    def non_finite():
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = np.nan
        return m

    BAD = {
        "trace": (lambda: np.eye(4) / 2, NotAStateError, "trace is 2.0, expected 1"),
        "negative": (lambda: np.diag([1.5, -0.5, 0.0, 0.0]), NotAStateError,
                     "negative eigenvalue -0.5"),
        "non_hermitian": (non_hermitian, ValidationError,
                          "matrix is not Hermitian within tolerance"),
        "non_finite": (non_finite, ValidationError, "matrix has non-finite entries"),
    }

    @pytest.mark.parametrize("fault", sorted(BAD))
    @pytest.mark.parametrize("validate", [validate_density_matrix, validated_spectrum])
    def test_one_bad_state_raises_as_alone(self, fault, validate):
        from conftest import hs_states
        make, error, message = self.BAD[fault]
        bad = make()
        stack = np.stack(hs_states(19, 6))
        stack[4] = bad
        with pytest.raises(ValidationError) as alone:
            validate(bad)
        with pytest.raises(ValidationError) as stacked:
            validate(stack)
        assert type(alone.value) is error and type(stacked.value) is error
        assert str(alone.value) == message and str(stacked.value) == message

    def test_valid_stack_equals_single_calls(self):
        from conftest import hs_states
        states = hs_states(23, 8)
        checked, w = validated_spectrum(np.stack(states).reshape(2, 4, 4, 4))
        assert checked.shape == (2, 4, 4, 4) and w.shape == (2, 4, 4)
        for k, rho in enumerate(states):
            single, w1 = validated_spectrum(rho)
            assert (checked[k // 4, k % 4] == single).all() and (w[k // 4, k % 4] == w1).all()

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 4, 3)])
    def test_rejects_shape(self, shape):
        with pytest.raises(ValidationError) as err:
            validate_density_matrix(np.ones(shape))
        assert str(err.value) == f"expected a 2x2 or 4x4 matrix, got shape {shape}"


class TestPartialTrace:
    def test_product_factorization(self, rng):
        from conftest import random_qubit_state
        for _ in range(20):
            rho_a = random_qubit_state(rng)
            rho_b = random_qubit_state(rng)
            prod = np.kron(rho_a, rho_b)
            assert_allclose(partial_trace(prod, "A"), rho_a, atol=1e-13)
            assert_allclose(partial_trace(prod, "B"), rho_b, atol=1e-13)

    def test_entangled_marginal(self):
        assert_allclose(partial_trace(bell_psi_plus(), "B"), np.eye(2) / 2, atol=1e-15)

    def test_maximally_mixed(self):
        assert_allclose(partial_trace(np.eye(4) / 4, "B"), np.eye(2) / 2, atol=1e-15)

    def test_linear_and_trace_preserving(self, rng):
        for _ in range(20):
            g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h1, h2 = (g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2
            alpha = rng.standard_normal()
            lhs = partial_trace(h1 + alpha * h2, "A")
            rhs = partial_trace(h1, "A") + alpha * partial_trace(h2, "A")
            assert_allclose(lhs, rhs, atol=1e-12)
            assert np.trace(partial_trace(h1, "B")) == pytest.approx(np.trace(h1), abs=1e-12)

    def test_rejects_bad_keep(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(4) / 4, "C")


class TestBinaryEntropy:
    def test_symmetric_point(self):
        assert binary_entropy(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_boundary(self):
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(-1.0) == 0.0

    def test_reference_value(self):
        assert binary_entropy(0.6) == pytest.approx(H_OF_0P6, abs=1e-15)

    def test_even(self, rng):
        for x in rng.uniform(-1, 1, 50):
            assert binary_entropy(x) == pytest.approx(binary_entropy(-x), abs=1e-15)

    def test_matches_diagonal_entropy(self, rng):
        for x in rng.uniform(-1, 1, 50):
            rho = np.diag([(1 + x) / 2, (1 - x) / 2])
            assert abs(binary_entropy(x) - von_neumann_entropy(rho)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            binary_entropy(1.001)

    def test_clamps_within_tolerance(self):
        assert binary_entropy(1.0 + 5e-13) == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tolerance_boundary(self, sign):
        edge = sign * (1.0 + BLOCH_LENGTH_TOL)
        assert binary_entropy(edge) == 0.0
        assert (binary_entropy(np.array([0.0, edge])) == [1.0, 0.0]).all()
        with pytest.raises(ValidationError):
            binary_entropy(np.nextafter(edge, sign * np.inf))


def spectral_binary_entropy(x):
    """The binary entropy as the entropy_bits of the two-outcome spectra
    (0.5 + 0.5 x, 0.5 - 0.5 x), x clamped to [-1, 1]: an independent form, and
    the reference bits of binary_entropy."""
    x = np.minimum(1.0, np.maximum(-1.0, np.asarray(x, dtype=float)))
    return entropy_bits(0.5 + x[..., None] * np.array([0.5, -0.5]))


ONE = np.nextafter(1.0, 0.0)
# zeros of both signs, the ends of the range and its tolerance, subnormals
BINARY_ENTROPY_EDGES = np.array([0.0, -0.0, 1.0, -1.0, ONE, -ONE, 1.0 + 1e-13, -1.0 - 1e-13,
                                 1.0 - 1e-13, -1.0 + 1e-13, 1.0 + BLOCH_LENGTH_TOL,
                                 -1.0 - BLOCH_LENGTH_TOL, 5e-324, -5e-324, 1e-300, 1e-30, 0.5])


class TestBinaryEntropyKernel:
    """binary_entropy abs-checks-clamps x and hands it to linalg's unchecked
    kernel, the one the closed form weights its branch terms with."""

    def test_spectral_bits_on_a_dense_grid(self):
        x = np.concatenate([np.linspace(-1.0, 1.0, 400_001), BINARY_ENTROPY_EDGES,
                            1.0 - np.arange(4096) * 2.0 ** -53, 2.0 ** -np.arange(1075.0),
                            -(2.0 ** -np.arange(1075.0))])
        assert same_bits(binary_entropy(x), spectral_binary_entropy(x))
        assert same_bits(binary_entropy(x.reshape(-1, 8)), spectral_binary_entropy(x).reshape(-1, 8))

    @pytest.mark.parametrize("x", BINARY_ENTROPY_EDGES.tolist())
    def test_types_and_bits_of_one_number(self, x):
        # a float, an np.float64 and a 0-d array give an np.float64, as the
        # spectral form does; the sign of zero included
        for argument in (x, np.float64(x), np.array(x)):
            h = binary_entropy(argument)
            assert type(h) is np.float64 and type(spectral_binary_entropy(argument)) is np.float64
            assert same_bits(h, spectral_binary_entropy(argument))
        h = binary_entropy([x])
        assert type(h) is np.ndarray and same_bits(h, spectral_binary_entropy([x]))

    @pytest.mark.parametrize("x", [np.nan, [0.5, np.nan], np.array([[np.nan]]), np.inf, -np.inf])
    def test_nan_and_inf_raise(self, x):
        # entropy_bits alone would read NaN as an empty outcome: h(nan) = 0
        with pytest.raises(ValidationError, match="^binary_entropy argument -?(nan|inf) outside"):
            binary_entropy(x)

    def test_leaves_its_argument_unchanged(self):
        x = np.array([0.25, -0.5, 1.0])
        binary_entropy(x)
        assert x.tolist() == [0.25, -0.5, 1.0]


class TestEntropyTraceRule:
    def test_marginals_of_edge_states_pass(self):
        # states scaled to trace 1 + TRACE_TOL, those that validation takes:
        # some of their marginals lie beyond TRACE_TOL by rounding, and
        # von_neumann_entropy, which takes marginals, reads them with its
        # wider ENTROPY_TRACE_TOL
        rhos = np.array(hs_states(11, 2000)) * (1.0 + TRACE_TOL)
        edge = rhos[np.abs(rhos.trace(axis1=1, axis2=2).real - 1.0) <= TRACE_TOL]
        validate_density_matrix(edge)
        marginals = [partial_trace(rho, keep) for rho in edge for keep in "AB"]
        beyond = [m for m in marginals if abs(np.trace(m).real - 1.0) > TRACE_TOL]
        assert beyond and ENTROPY_TRACE_TOL > TRACE_TOL
        with pytest.raises(NotAStateError, match="^trace is"):
            validate_density_matrix(beyond[0])
        for m in beyond:
            assert von_neumann_entropy(m) == pytest.approx(
                float(entropy_bits(np.linalg.eigvalsh(m))), abs=1e-15)


class TestRequireRotation:
    def test_tolerance_pinned_at_its_boundary(self):
        # O = I + e E_01 leaves exactly e off the diagonal of O^T O - I and
        # (1 + e^2) - 1 = 0 on it: e = ROTATION_TOL is accepted, the next
        # double above it is not
        for e, accepted in ((ROTATION_TOL, True), (np.nextafter(ROTATION_TOL, 1.0), False)):
            o = np.eye(3)
            o[0, 1] = e
            assert np.max(np.abs(o.T @ o - np.eye(3))) == e
            if accepted:
                np.testing.assert_array_equal(require_rotation(o), o)
            else:
                with pytest.raises(ValidationError):
                    require_rotation(o)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, entry):
        # O^T O - I then holds NaN, which compares False with the tolerance
        o = np.eye(3)
        o[1, 2] = entry
        with pytest.raises(ValidationError):
            require_rotation(o)
        with pytest.raises(ValidationError):
            su2_from_so3(o)


class TestSu2Lift:
    def conjugation_residual(self, o):
        u = su2_from_so3(o)
        worst = 0.0
        for i in range(3):
            lhs = u.conj().T @ PAULIS[i + 1] @ u
            rhs = sum(o[i, j] * PAULIS[j + 1] for j in range(3))
            worst = max(worst, np.max(np.abs(lhs - rhs)))
        return worst

    def test_identity(self):
        u = su2_from_so3(np.eye(3))
        assert np.allclose(u, np.eye(2)) or np.allclose(u, -np.eye(2))

    def test_z_rotation_by_pi(self):
        o = np.diag([-1.0, -1.0, 1.0])
        u = su2_from_so3(o)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.allclose(u, expected) or np.allclose(u, -expected)

    def test_conjugation_identity_random(self, rng):
        for _ in range(50):
            assert self.conjugation_residual(random_rotation(rng)) < 1e-10

    def test_unitary_unit_determinant(self, rng):
        for _ in range(20):
            u = su2_from_so3(random_rotation(rng))
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_composition_up_to_sign(self, rng):
        for _ in range(30):
            o1, o2 = random_rotation(rng), random_rotation(rng)
            lhs = su2_from_so3(o1 @ o2)
            rhs = su2_from_so3(o1) @ su2_from_so3(o2)
            assert (np.max(np.abs(lhs - rhs)) < 1e-9
                    or np.max(np.abs(lhs + rhs)) < 1e-9)

    def test_rejects_reflection(self):
        with pytest.raises(ValidationError):
            su2_from_so3(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValidationError):
            su2_from_so3(np.eye(3) * 1.1)

    def test_table_equals_four_branch_extraction(self):
        rng = np.random.default_rng(20261019)
        rotations = [random_rotation(rng) for _ in range(2000)]
        # within 1e-7 of pi about each axis, each case on its own branch, and
        # within 1e-7 of the identity
        for axis in np.eye(3):
            for _ in range(100):
                tilted = axis + 1e-8 * rng.standard_normal(3)
                rotations.append(axis_rotation(tilted, math.pi - rng.uniform(0.0, 1e-7)))
        rotations += [axis_rotation(rng.standard_normal(3), rng.uniform(0.0, 1e-7))
                      for _ in range(100)]
        # exact ties between the pivots (t, O00, O11, O22): t = O00; O00 = O11;
        # O00 = O11 = O22; all four
        rotations += [axis_rotation(np.eye(3)[0], math.pi / 2),
                      np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
                      axis_rotation(np.ones(3), math.pi),
                      np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                      np.eye(3)]
        branches = set()
        for o in rotations:
            branch, u = four_branch_lift(o)
            branches.add(branch)
            assert np.array_equal(su2_from_so3(o).view(np.uint8), u.view(np.uint8))
        assert branches == {0, 1, 2, 3}


def axis_rotation(axis, angle):
    """Rotation by ``angle`` about ``axis`` (Rodrigues' formula)."""
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def four_branch_lift(rotation):
    """The pivot branch and SU(2) lift of a rotation by the largest-pivot
    quaternion extraction written out branch by branch: the reference for
    su2_from_so3."""
    o = require_rotation(rotation)
    t = o[0, 0] + o[1, 1] + o[2, 2]
    branch = int(np.argmax((t, o[0, 0], o[1, 1], o[2, 2])))
    if branch == 0:
        r = np.sqrt(1.0 + t)
        w = 0.5 * r
        x = (o[2, 1] - o[1, 2]) / (2.0 * r)
        y = (o[0, 2] - o[2, 0]) / (2.0 * r)
        z = (o[1, 0] - o[0, 1]) / (2.0 * r)
    elif branch == 1:
        r = np.sqrt(1.0 + o[0, 0] - o[1, 1] - o[2, 2])
        x = 0.5 * r
        w = (o[2, 1] - o[1, 2]) / (2.0 * r)
        y = (o[0, 1] + o[1, 0]) / (2.0 * r)
        z = (o[0, 2] + o[2, 0]) / (2.0 * r)
    elif branch == 2:
        r = np.sqrt(1.0 - o[0, 0] + o[1, 1] - o[2, 2])
        y = 0.5 * r
        w = (o[0, 2] - o[2, 0]) / (2.0 * r)
        x = (o[0, 1] + o[1, 0]) / (2.0 * r)
        z = (o[1, 2] + o[2, 1]) / (2.0 * r)
    else:
        r = np.sqrt(1.0 - o[0, 0] - o[1, 1] + o[2, 2])
        z = 0.5 * r
        w = (o[1, 0] - o[0, 1]) / (2.0 * r)
        x = (o[0, 2] + o[2, 0]) / (2.0 * r)
        y = (o[1, 2] + o[2, 1]) / (2.0 * r)
    q = np.array([w, x, y, z])
    q /= np.linalg.norm(q)
    return branch, q[0] * SIGMA_0 - 1j * (q[1] * SIGMA_X + q[2] * SIGMA_Y + q[3] * SIGMA_Z)
