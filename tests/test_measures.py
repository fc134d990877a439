import dataclasses
import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (bell_psi_plus, hs_states, random_direction, random_qubit_state,
                      random_rotation, random_unitary, run_python, same_bits)
from qdiscord import (BlockDecomposition, ConsistencyError, DiscordReport,
                      NotAStateError, ValidationError,
                      angles_from_direction, bell_diagonal_classical_correlation,
                      classical_correlation, conditional_entropy_closed,
                      conditional_entropy_direct, construct_zero_discord,
                      direction_from_angles, hemisphere_representative, is_canonical,
                      mcdm_direction, mcdm_discord, minimize_conditional_entropy,
                      mixture_family, mutual_information, off_axis_x_state, partial_trace,
                      post_measurement, project_x_state, projectors, quantum_discord,
                      random_hs_state, reconstruct, state_blocks, to_canonical,
                      von_neumann_entropy, zero_discord_witness)
import qdiscord
from qdiscord import closed_form, linalg, measures, oracle, refine
from qdiscord.canonical import canonical_blocks, canonical_rotations
from qdiscord.closed_form import (POSITIVITY_SLACK, X_CAP, _branch_entropy, _branches, _ce_many,
                                  _tangent_derivatives)
from qdiscord.ensembles import _x_projection
from qdiscord.experiments import ExperimentConfig, _hs_states
from qdiscord.linalg import (EIGENVALUE_FLOOR, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z,
                             ZERO_PROBABILITY, validate_direction, validate_directions,
                             validated_spectrum)
from qdiscord.measures import (CLAMP_WINDOW, PROBABILITY_SUM_TOL, WITNESS_TOL,
                               WITNESS_VANISHING_TOL, _discord_reports)
from qdiscord.oracle import _ce_direct, _measured_branches
from qdiscord.refine import (_AXIS_RADII, _TIE_AXES, CE_FLOOR, DECREASE_STOP, INITIAL_RADIUS,
                             MAX_ITERATIONS, SCAN_TIE_TOL, SPHERE_RADIUS, VALUE_TIE_TOL, X_AXIS,
                             _circle_minimum, _circle_states, _minimize_many, _newton,
                             _pick_start, _sphere_frame, _sphere_minimum, _tie_break)

H_OF_0P6 = 0.7219280948873623
X, Y, Z = np.eye(3)
# |R^T n| reaches 2 > 1 +- a.n: blocks of no state
NON_PHYSICAL = BlockDecomposition(a=np.zeros(3), b=np.zeros(3), r=np.diag([2.0, 0.0, 0.0]))


def bell_diagonal(c1, c2, c3):
    return reconstruct(np.diag([1.0, c1, c2, c3]))


def direct_along_x(rho):
    return conditional_entropy_direct(rho, X)


def post_measurement_along_x(rho):
    return post_measurement(rho, X)


class TestDirections:
    def test_round_trip(self, rng):
        for _ in range(100):
            n = hemisphere_representative(random_direction(rng))
            theta, phi = angles_from_direction(n)
            assert 0.0 <= theta < np.pi
            assert -np.pi / 2 <= phi <= np.pi / 2
            assert_allclose(direction_from_angles(theta, phi), n, atol=1e-12)

    def test_representative_idempotent(self, rng):
        for _ in range(50):
            n = random_direction(rng)
            rep = hemisphere_representative(n)
            assert_allclose(hemisphere_representative(rep), rep, atol=0)
            assert np.allclose(rep, n) or np.allclose(rep, -n)

    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError):
            projectors(np.array([1.0, 1.0, 0.0]))

    # the poles, x = 0 with y above and below 0, and components of -0.0
    EDGE_DIRECTIONS = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
                       (0.0, 0.6, 0.8), (0.0, 0.6, -0.8), (0.0, -0.6, 0.8), (0.0, -0.6, -0.8),
                       (-0.0, -0.0, 1.0), (-0.0, -0.0, -1.0), (-0.0, 1.0, -0.0),
                       (-0.0, -1.0, 0.0), (1.0, -0.0, -0.0), (-1.0, 0.0, 0.0),
                       (-0.6, 0.0, -0.8), (-0.6, -0.0, 0.8), (0.6, -0.0, -0.8)]

    @staticmethod
    def math_angles(n):
        """(theta, phi) of one vector, by its own flip rule and math's acos and atan2."""
        x, y, z = (float(c) for c in n)
        if x < 0.0 or (x == 0.0 and (y > 0.0 or (y == 0.0 and z < 0.0))):
            x, y, z = -x, -y, -z
        x, y, z = x + 0.0, y + 0.0, z + 0.0
        return (math.acos(min(1.0, max(-1.0, z))),
                math.atan2(y, x) if (x != 0.0 or y != 0.0) else 0.0)

    @staticmethod
    def bits(angles):
        return [tuple(float(a).hex() for a in pair) for pair in angles]

    def test_stacked_angles_equal_math_per_vector(self, rng):
        dirs = np.concatenate([self.EDGE_DIRECTIONS,
                               [random_direction(rng) for _ in range(500)]])
        expected = self.bits(self.math_angles(n) for n in dirs)
        assert self.bits(measures.angles_from_directions(dirs)) == expected
        assert self.bits(angles_from_direction(n) for n in dirs) == expected
        assert angles_from_direction((0.0, 1.0, 0.0)) == (np.pi / 2, -np.pi / 2)
        assert self.bits([angles_from_direction((-0.6, 0.0, -0.8))]) == self.bits(
            [(math.acos(0.8), 0.0)])

    @pytest.mark.parametrize("row", [(1.0, 1.0, 0.0), (0.0, 0.0, 1.0 + 1e-11), (np.inf, 0.0, 0.0)])
    def test_non_unit_row_in_stack_raises_as_alone(self, rng, row):
        dirs = np.array([random_direction(rng) for _ in range(8)])
        dirs[5] = row
        with pytest.raises(ValidationError) as alone:
            angles_from_direction(dirs[5])
        with pytest.raises(ValidationError) as stacked:
            measures.angles_from_directions(dirs)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(ValidationError):
            measures.angles_from_directions(dirs[5])  # a vector is not a stack

    @pytest.mark.parametrize("row", [(np.nan, 0.0, 0.0), (0.0, np.nan, 1.0), (np.inf, 0.0, 0.0),
                                     (0.0, -np.inf, 0.0), (np.nan, np.inf, 0.0)])
    def test_non_finite_direction_raises(self, rng, row):
        # a NaN norm compares False with anything, so the unit test must fail
        # on it rather than pass
        dirs = np.array([random_direction(rng) for _ in range(4)])
        dirs[2] = row
        blocks = state_blocks(hs_states(7, 1)[0])
        for call in (validate_direction, projectors, angles_from_direction,
                     lambda n: conditional_entropy_closed(blocks, n)):
            with pytest.raises(ValidationError):
                call(np.array(row))
        for call in (validate_directions, measures.angles_from_directions):
            with pytest.raises(ValidationError):
                call(dirs)

    @pytest.mark.parametrize("shape", [(4,), (1, 3), (2, 3)])
    def test_one_direction_calls_name_the_shape_passed(self, shape):
        rho = hs_states(7, 1)[0]
        blocks = state_blocks(rho)
        n = np.zeros(shape)
        n[..., 0] = 1.0
        for call in (lambda n: conditional_entropy_direct(rho, n),
                     lambda n: conditional_entropy_closed(blocks, n),
                     lambda n: post_measurement(rho, n), projectors):
            with pytest.raises(ValidationError) as raised:
                call(n)
            assert str(raised.value) == f"expected a 3-vector, got shape {shape}"

    @pytest.mark.parametrize("shape", [(2, 4, 4), (1, 4, 4), (4,)])
    @pytest.mark.parametrize("call", [quantum_discord, classical_correlation,
                                      minimize_conditional_entropy, mcdm_discord, is_canonical,
                                      mutual_information, to_canonical, von_neumann_entropy,
                                      direct_along_x, post_measurement_along_x])
    def test_one_state_calls_name_the_shape_passed(self, call, shape, monkeypatch):
        # |++><++| stacked: valid states, so only the shape can fail, and it
        # fails before any state is diagonalized
        def diagonalized(*args):
            raise AssertionError("a state was diagonalized before its shape was checked")

        monkeypatch.setattr(np.linalg, "eigvalsh", diagonalized)
        rho = np.full(shape, 0.25)
        sizes = "2x2 or 4x4" if call is von_neumann_entropy else "4x4"
        with pytest.raises(ValidationError) as raised:
            call(rho)
        assert str(raised.value) == f"expected a {sizes} matrix, got shape {shape}"

    def test_quantum_discord_names_a_one_qubit_shape(self):
        with pytest.raises(ValidationError) as raised:
            quantum_discord(np.eye(2) / 2)
        assert str(raised.value) == "expected a 4x4 matrix, got shape (2, 2)"

    def test_one_direction_calls_check_the_norm_once(self, monkeypatch):
        # the one-vector wrappers check the shape and leave the norm to the
        # stacked call they make
        calls = []

        def counted(n):
            calls.append(len(n))
            return validate_directions(n)

        for module in (linalg, oracle, measures):
            monkeypatch.setattr(module, "validate_directions", counted)
        rho = hs_states(7, 1)[0]
        for call in (lambda n: conditional_entropy_direct(rho, n), angles_from_direction):
            del calls[:]
            call(X)
            assert calls == [1]


class TestInputChecks:
    """Input checks that no other test reaches, each with its exact message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: qdiscord.decompose(np.eye(2) / 2), "expected a 4x4 matrix, got shape (2, 2)"),
        (lambda: reconstruct(np.eye(3)), "expected a 4x4 tensor, got shape (3, 3)"),
        (lambda: qdiscord.blocks(np.eye(3)), "expected a 4x4 tensor, got shape (3, 3)"),
        (lambda: partial_trace(np.eye(2) / 2, "A"), "expected a 4x4 matrix, got shape (2, 2)"),
        (lambda: qdiscord.su2_from_so3(np.eye(2)), "expected a 3x3 matrix, got shape (2, 2)"),
        (lambda: construct_zero_discord([1.0], X, [np.eye(2) / 2] * 2),
         "expected two probabilities, got shape (1,)"),
        (lambda: construct_zero_discord([0.5, 0.5], X, [np.eye(4) / 4] * 2),
         "expected a 2x2 matrix, got shape (4, 4)"),
        (lambda: construct_zero_discord([0.5, 0.5], X, [np.eye(3) / 3] * 2),
         "expected a 2x2 matrix, got shape (3, 3)"),
        (lambda: bell_diagonal_classical_correlation([0.1, 0.2]),
         "expected three coefficients, got shape (2,)"),
    ], ids=["decompose", "reconstruct", "blocks", "partial_trace", "su2_from_so3",
            "one_probability", "two_qubit_components", "three_level_components",
            "two_coefficients"])
    def test_message(self, call, message):
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == message

    # |++><++| stacked, and one input of the wrong size, for each one-state
    # call that takes blocks or writes a state file
    PLUS_PLUS_STACK = np.full((2, 4, 4), 0.25)
    STACK_BLOCKS = state_blocks(PLUS_PLUS_STACK)
    SHORT_A = BlockDecomposition(a=np.zeros(2), b=np.zeros(3), r=np.zeros((3, 3)))
    STACKED_BLOCKS = ("expected the blocks of one state, a (3,), b (3,) and R (3, 3), "
                      "got shapes (2, 3), (2, 3) and (2, 3, 3)")
    SHORT_BLOCKS = ("expected the blocks of one state, a (3,), b (3,) and R (3, 3), "
                    "got shapes (2,), (3,) and (3, 3)")

    @pytest.mark.parametrize("call, argument, message", [
        (lambda blocks: conditional_entropy_closed(blocks, X), STACK_BLOCKS, STACKED_BLOCKS),
        (lambda blocks: conditional_entropy_closed(blocks, X), SHORT_A, SHORT_BLOCKS),
        (zero_discord_witness, STACK_BLOCKS, STACKED_BLOCKS),
        (zero_discord_witness, SHORT_A, SHORT_BLOCKS),
        (qdiscord.format_state, PLUS_PLUS_STACK, "expected a 4x4 matrix, got shape (2, 4, 4)"),
        (qdiscord.format_state, np.eye(2) / 2, "expected a 4x4 matrix, got shape (2, 2)"),
    ], ids=["closed_form_stack", "closed_form_short_a", "witness_stack", "witness_short_a",
            "format_state_stack", "format_state_one_qubit"])
    def test_one_state_calls_refuse_other_shapes(self, call, argument, message):
        with pytest.raises(ValidationError) as raised:
            call(argument)
        assert str(raised.value) == message

    @pytest.mark.parametrize("call", [lambda blocks: conditional_entropy_closed(blocks, X),
                                      zero_discord_witness], ids=["closed_form", "witness"])
    @pytest.mark.parametrize("blocks", [
        BlockDecomposition(a=np.array([np.nan, 0.0, 0.0]), b=np.zeros(3), r=np.eye(3)),
        BlockDecomposition(a=np.array([0.0, 0.0, np.nan]), b=np.zeros(3), r=np.zeros((3, 3))),
        BlockDecomposition(a=np.zeros(3), b=np.array([0.0, np.nan, 0.0]), r=np.zeros((3, 3))),
        BlockDecomposition(a=np.zeros(3), b=np.zeros(3), r=np.diag([np.nan, 0.0, 0.0])),
        BlockDecomposition(a=np.array([np.inf, 0.0, 0.0]), b=np.zeros(3), r=np.zeros((3, 3))),
        BlockDecomposition(a=np.zeros(3), b=np.zeros(3), r=np.diag([0.0, 0.0, -np.inf])),
    ], ids=["nan_a", "nan_a_vanishing_r", "nan_b", "nan_r", "inf_a", "inf_r"])
    def test_one_state_calls_refuse_non_finite_blocks(self, call, blocks):
        # the closed form would read them as 0, inf or nan bits, and the
        # witness as zero discord
        with pytest.raises(ValidationError) as raised:
            call(blocks)
        assert str(raised.value) == "blocks have non-finite entries"

    def test_witness_refuses_an_inf_in_r_in_time(self):
        # np.linalg.svd does not return on this R, so the call runs in a child
        # that a timeout ends
        code = ("import numpy as np\n"
                "from qdiscord import BlockDecomposition, ValidationError, zero_discord_witness\n"
                "r = np.eye(3)\n"
                "r[0, 0] = np.inf\n"
                "try:\n"
                "    zero_discord_witness(BlockDecomposition(np.zeros(3), np.zeros(3), r))\n"
                "except ValidationError as exc:\n"
                "    print(exc)\n")
        assert run_python(code, timeout=30.0) == "blocks have non-finite entries\n"


class TestProjectors:
    def test_z_basis(self):
        p1, p2 = projectors(Z)
        assert_allclose(p1, np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(p2, np.diag([0.0, 1.0]), atol=1e-15)

    def test_x_basis(self):
        p1, p2 = projectors(X)
        plus = np.full((2, 2), 0.5)
        assert_allclose(p1, plus, atol=1e-15)
        assert_allclose(p2, np.diag([1.0, 1.0]) - plus, atol=1e-15)

    def test_sign_swaps_pair(self):
        p1, p2 = projectors(Z)
        q1, q2 = projectors(-Z)
        assert_allclose(q1, p2, atol=0)
        assert_allclose(q2, p1, atol=0)

    def test_projector_algebra(self, rng):
        for _ in range(20):
            p1, p2 = projectors(random_direction(rng))
            assert_allclose(p1 + p2, np.eye(2), atol=1e-14)
            assert np.max(np.abs(p1 @ p2)) < 1e-14
            assert_allclose(p1 @ p1, p1, atol=1e-14)
            assert_allclose(p2 @ p2, p2, atol=1e-14)


class TestPostMeasurement:
    def test_product_state_branches(self, rng):
        rho_b = random_qubit_state(rng)
        rho = np.kron(random_qubit_state(rng), rho_b)
        ens = post_measurement(rho, random_direction(rng))
        for outcome in ens.outcomes:
            if outcome.state is not None:
                assert_allclose(outcome.state, rho_b, atol=1e-12)

    def test_bell_state_perfect_correlation(self):
        ens = post_measurement(bell_psi_plus(), Z)
        p1, p2 = ens.outcomes
        assert p1.probability == pytest.approx(0.5, abs=1e-14)
        assert p2.probability == pytest.approx(0.5, abs=1e-14)
        assert_allclose(p1.state, np.diag([0.0, 1.0]), atol=1e-14)
        assert_allclose(p2.state, np.diag([1.0, 0.0]), atol=1e-14)

    def test_maximally_mixed(self, rng):
        ens = post_measurement(np.eye(4) / 4, random_direction(rng))
        for outcome in ens.outcomes:
            assert outcome.probability == pytest.approx(0.5, abs=1e-14)
            assert_allclose(outcome.state, np.eye(2) / 2, atol=1e-14)

    def test_probabilities_sum_to_one(self, rng):
        for rho in hs_states(61, 20):
            ens = post_measurement(rho, random_direction(rng))
            total = sum(o.probability for o in ens.outcomes)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_branch_displacements_opposite_for_bell_diagonal(self, rng):
        rho = bell_diagonal(0.6, 0.4, -0.2)
        rho_b = partial_trace(rho, "B")
        ens = post_measurement(rho, random_direction(rng))
        d1 = ens.outcomes[0].probability * (ens.outcomes[0].state - rho_b)
        d2 = ens.outcomes[1].probability * (ens.outcomes[1].state - rho_b)
        assert np.max(np.abs(d1 + d2)) < 1e-12


class TestConditionalEntropyClosed:
    def test_bell_diagonal_formula_value(self):
        # pure formula check; this coefficient triple is not itself a state
        bd = BlockDecomposition(a=np.zeros(3), b=np.zeros(3), r=np.diag([0.6, 0.4, 0.2]))
        assert conditional_entropy_closed(bd, X) == pytest.approx(H_OF_0P6, abs=1e-14)

    def test_bell_diagonal_state_value(self):
        rho = bell_diagonal(0.6, 0.4, -0.2)
        bd = state_blocks(rho)
        assert conditional_entropy_closed(bd, X) == pytest.approx(H_OF_0P6, abs=1e-13)
        assert conditional_entropy_direct(rho, X) == pytest.approx(H_OF_0P6, abs=1e-12)

    def test_product_state_reveals_nothing(self, rng):
        rho_b = random_qubit_state(rng)
        rho = np.kron(random_qubit_state(rng), rho_b)
        bd = state_blocks(rho)
        expected = von_neumann_entropy(rho_b)
        for _ in range(10):
            n = random_direction(rng)
            assert conditional_entropy_closed(bd, n) == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed(self, rng):
        bd = state_blocks(np.eye(4) / 4)
        assert conditional_entropy_closed(bd, random_direction(rng)) == pytest.approx(1.0, abs=1e-14)

    def test_matches_direct_on_random_pairs(self, rng):
        worst = 0.0
        for i, rho in enumerate(hs_states(67, 200)):
            bd = state_blocks(rho)
            for _ in range(5):
                n = random_direction(rng)
                gap = abs(conditional_entropy_closed(bd, n)
                          - conditional_entropy_direct(rho, n))
                worst = max(worst, gap)
        assert worst < 1e-10

    def test_swap_symmetry_exact(self, rng):
        for rho in hs_states(71, 20):
            bd = state_blocks(rho)
            n = random_direction(rng)
            assert conditional_entropy_closed(bd, n) == conditional_entropy_closed(bd, -n)

    def test_boundary_pure_marginal(self):
        # |+><+| x rho_b has |a| = 1; near-aligned directions exercise the
        # vanishing-probability branch
        rho_b = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        rho = np.kron(np.full((2, 2), 0.5, dtype=complex), rho_b)
        bd = state_blocks(rho)
        expected = von_neumann_entropy(rho_b)
        for theta in (np.pi / 2, np.pi / 2 - 1e-7, np.pi / 2 + 1e-9):
            n = direction_from_angles(theta, 0.0)
            closed = conditional_entropy_closed(bd, n)
            direct = conditional_entropy_direct(rho, n)
            assert closed == pytest.approx(expected, abs=1e-9)
            assert abs(closed - direct) < 1e-10

    def test_non_physical_blocks_raise(self):
        with pytest.raises(ConsistencyError):
            conditional_entropy_closed(NON_PHYSICAL, X)

    def test_branch_entropy_edge_semantics(self):
        def entropy(w, g):
            """The sum of the two branch terms at one direction."""
            return _branch_entropy(np.array([w]), np.array([g]))[0, 0]

        # g = w: both terms vanish, as +0.0
        at_edge = entropy([1.3, 0.7], [1.3, 0.7])
        assert at_edge == 0.0 and not np.signbit(at_edge)
        # g > w reads as g = w
        clamped = entropy([1.3, 0.7], [1.4, 0.9])
        assert clamped == 0.0 and not np.signbit(clamped)
        minus = entropy([1.3, 0.7], [1.3, 0.35])  # the - branch term alone
        assert minus > 0.0 and entropy([1.3, 0.7], [1.4, 0.35]) == minus
        # a branch with w <= ZERO_PROBABILITY contributes 0, one with the
        # next double above it its term (w/2) h(0) = w/2
        for w in (ZERO_PROBABILITY, 0.0, -1e-17):
            assert entropy([w, 0.7], [0.0, 0.35]) == minus
            assert entropy([w, 0.7], [0.5, 0.35]) == minus
        assert entropy([np.nextafter(ZERO_PROBABILITY, 1.0), 0.7], [0.0, 0.35]) > minus


def in_place_branch_entropy(w, g):
    """The sum of the two branch terms (w/2) h(g/w) as one in-place body with
    its own q log2 q: the reference bits of _branch_entropy."""
    live = w > ZERO_PROBABILITY
    x = np.where(live, w, 1.0)
    np.divide(g, x, out=x)
    np.minimum(x, 1.0, out=x)
    q = np.subtract(1.0, x)
    q *= 0.5
    p = np.add(1.0, x, out=x)
    p *= 0.5
    t = np.maximum(q, np.finfo(float).tiny)
    np.log2(t, out=t)
    t *= q
    h = np.log2(p)
    h *= p
    h += t
    np.subtract(0.0, h, out=h)
    weight = np.where(live, w, 0.0)
    weight *= 0.5
    h *= weight
    k = h.shape[1] // 2
    return h[:, :k] + h[:, k:]


class TestBranchEntropyKernel:
    """_branch_entropy weights linalg's binary entropy kernel; its bits are
    those of the one-body reference."""

    def test_dense_grid(self):
        # g/w from 0 to 1 and beyond, in steps and at its ends, on live
        # branches and on dead ones
        x = np.concatenate([np.linspace(0.0, 1.0, 100_001), 1.0 - np.arange(4096) * 2.0 ** -53,
                            2.0 ** -np.arange(1075.0), [1.0 + 1e-13, 1.5, 0.0, 1.0]])
        for w_plus in (1.3, 2.0, 1.0 + 1e-16, np.nextafter(ZERO_PROBABILITY, 1.0),
                       ZERO_PROBABILITY, 0.0, -1e-17):
            w = np.empty((len(x), 2))
            w[:, 0], w[:, 1] = w_plus, 2.0 - w_plus
            g = x[:, None] * w
            assert same_bits(_branch_entropy(w, g), in_place_branch_entropy(w, g))

    @pytest.mark.parametrize("family", ["hs", "x_projected", "near_pure", "nearer_pure", "pure"])
    def test_canonical_blocks(self, family):
        # at the tie-break axes, the circle's 17 points and 64 random directions
        if family in ("hs", "x_projected"):
            rhos = _hs_states(ExperimentConfig(seed=7), range(1024))
            rhos = _x_projection(rhos) if family == "x_projected" else rhos
        else:
            rhos = np.stack([family_state(family, seed) for seed in range(256)])
        _, blocks = canonical_blocks(state_blocks(rhos))
        random_dirs = np.random.default_rng(20261022).standard_normal((3, 64))
        random_dirs /= np.linalg.norm(random_dirs, axis=0)
        for dirs in (_TIE_AXES, refine._CIRCLE_DIRS, random_dirs):
            w, g = _branches(blocks.a, blocks.b, blocks.r, dirs)
            reference = in_place_branch_entropy(w, g)
            assert same_bits(_branch_entropy(w, g), reference)
            assert same_bits(_ce_many(blocks.a, blocks.b, blocks.r, dirs), reference)


def branch_displacement_sq(rho, n):
    """(1/2) Tr[D^2] for D = p+ (rho_B|+ - rho_B), from explicit post-measurement
    states.  D = (Lambda^T n).sigma / 4, so this equals |Lambda^T n|^2 / 16."""
    plus = post_measurement(rho, n).outcomes[0]
    d = plus.probability * (plus.state - partial_trace(rho, "B"))
    return 0.5 * np.trace(d @ d).real


class TestDisplacementNorm:
    # off_axis_x_state is canonical with correlation triple (0.2, 0.2, 0.14787644)
    def test_canonical_maximum(self):
        assert branch_displacement_sq(off_axis_x_state(), X) == pytest.approx(
            0.2 ** 2 / 16, abs=1e-15)

    def test_component_pick_out(self):
        assert branch_displacement_sq(off_axis_x_state(), Z) == pytest.approx(
            0.14787644 ** 2 / 16, abs=1e-15)

    def test_zero_triple(self, rng):
        rho = np.kron(random_qubit_state(rng), random_qubit_state(rng))
        assert branch_displacement_sq(rho, random_direction(rng)) < 1e-28

    def test_bounded_by_largest_component(self):
        # the bound L1^2/16 holds for every state and is attained at the MCDM axis
        grid = [direction_from_angles(t, p)
                for t in np.linspace(0, np.pi, 12, endpoint=False)
                for p in np.linspace(-np.pi / 2, np.pi / 2, 24, endpoint=False)]
        for rho in hs_states(131, 10):
            decomp = to_canonical(rho)
            bound = decomp.lambda_diag[0] ** 2 / 16
            for n in grid:
                assert branch_displacement_sq(rho, n) <= bound + 1e-15
            assert branch_displacement_sq(rho, mcdm_direction(decomp)) == pytest.approx(
                bound, abs=1e-15)


def fibonacci_sphere(count):
    """``count`` nearly uniform unit vectors, as the rows of a (count, 3) array."""
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    phi = np.pi * (1.0 + np.sqrt(5.0)) * k
    s = np.sqrt(1.0 - z * z)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


SPHERE = fibonacci_sphere(2000)


class TestMinimizeConditionalEntropy:
    def test_off_axis_reference_state(self):
        n, value = minimize_conditional_entropy(off_axis_x_state())
        theta, _ = angles_from_direction(n)
        assert abs(theta / np.pi - 0.155) < 0.01
        # returned value is attained at the returned direction
        bd = state_blocks(off_axis_x_state())
        assert conditional_entropy_closed(bd, n) == pytest.approx(value, abs=1e-12)

    def test_bell_diagonal_canonical_hits_x(self):
        n, value = minimize_conditional_entropy(bell_diagonal(0.6, 0.4, -0.2))
        assert_allclose(n, X, atol=0)
        assert value == pytest.approx(H_OF_0P6, abs=1e-13)

    def test_bell_diagonal_unordered_hits_largest_axis(self):
        # the y axis is reported as its hemisphere representative, without -0.0
        n, value = minimize_conditional_entropy(bell_diagonal(0.1, 0.5, 0.2))
        assert_allclose(n, [0.0, -1.0, 0.0], atol=0)
        assert not np.signbit(n[[0, 2]]).any()
        assert value == pytest.approx(1.0 - bell_diagonal_classical_correlation([0.1, 0.5, 0.2]),
                                      abs=1e-12)

    def test_product_state_flat(self, rng):
        rho_b = random_qubit_state(rng)
        rho = np.kron(random_qubit_state(rng), rho_b)
        _, value = minimize_conditional_entropy(rho)
        assert value == pytest.approx(von_neumann_entropy(rho_b), abs=1e-10)

    def test_deterministic(self):
        rho = hs_states(79, 1)[0]
        n1, v1 = minimize_conditional_entropy(rho)
        n2, v2 = minimize_conditional_entropy(rho)
        assert v1 == v2
        assert_allclose(n1, n2, atol=0)

    def test_non_physical_blocks_raise(self):
        with pytest.raises(ConsistencyError):
            _minimize_many(NON_PHYSICAL.a[None], NON_PHYSICAL.b[None], NON_PHYSICAL.r[None])

    def test_no_large_temporaries(self):
        # a lone solve's largest temporaries hold a few rows per start
        rho = hs_states(151, 1)[0]
        minimize_conditional_entropy(rho)
        tracemalloc.start()
        try:
            minimize_conditional_entropy(rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    def test_minimum_below_direct_on_fibonacci_sphere(self):
        for rho in hs_states(113, 50):
            n, value = minimize_conditional_entropy(rho)
            assert abs(value - conditional_entropy_direct(rho, n)) < 1e-10
            assert value <= _ce_direct(rho, SPHERE).min() + 1e-12


class TestCorrelationMeasures:
    def test_mutual_information_trivial_cases(self, rng):
        rho = np.kron(random_qubit_state(rng), random_qubit_state(rng))
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(bell_psi_plus()) == pytest.approx(2.0, abs=1e-12)
        assert mutual_information(np.eye(4) / 4) == 0.0

    def test_classical_correlation_trivial_cases(self, rng):
        assert classical_correlation(bell_psi_plus()) == pytest.approx(1.0, abs=1e-10)
        rho = np.kron(random_qubit_state(rng), random_qubit_state(rng))
        assert classical_correlation(rho) == pytest.approx(0.0, abs=1e-10)
        cc = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert classical_correlation(cc) == pytest.approx(1.0, abs=1e-12)

    def test_discord_bell_state(self):
        report = quantum_discord(bell_psi_plus())
        assert report.discord == pytest.approx(1.0, abs=1e-10)
        assert report.mcdm_discord == pytest.approx(1.0, abs=1e-10)

    def test_discord_classical_quantum_state(self, rng):
        rho0, rho1 = random_qubit_state(rng), random_qubit_state(rng)
        rho = construct_zero_discord([0.5, 0.5], Z, (rho0, rho1))
        assert quantum_discord(rho).discord <= 1e-6

    def test_off_axis_state_beats_restricted_protocol(self):
        rho = off_axis_x_state()
        bd = state_blocks(rho)
        _, ce_min = minimize_conditional_entropy(rho)
        restricted = min(conditional_entropy_closed(bd, Z),
                         conditional_entropy_closed(bd, X))
        assert ce_min < restricted - 1e-6

    def test_report_identities(self):
        for rho in hs_states(83, 30):
            r = quantum_discord(rho)
            assert r.discord + r.classical_correlation == pytest.approx(
                r.mutual_information, abs=1e-12)
            assert r.discord >= 0.0
            assert r.classical_correlation >= 0.0
            assert r.mutual_information >= 0.0
            assert r.mcdm_discord >= r.discord
            bd = state_blocks(rho)
            assert conditional_entropy_closed(bd, r.optimal_direction) == pytest.approx(
                r.min_conditional_entropy, abs=1e-12)
            assert conditional_entropy_closed(bd, r.mcdm_direction) == pytest.approx(
                r.mcdm_conditional_entropy, abs=1e-12)


class TestBellDiagonalOracle:
    def test_pure_bell(self):
        assert bell_diagonal_classical_correlation([1.0, 1.0, -1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        assert bell_diagonal_classical_correlation([0.6, 0.4, -0.2]) == pytest.approx(
            1.0 - H_OF_0P6, abs=1e-14)

    def test_uncorrelated(self):
        assert bell_diagonal_classical_correlation([0.0, 0.0, 0.0]) == 0.0

    def test_rejects_unphysical(self):
        with pytest.raises(ValidationError):
            bell_diagonal_classical_correlation([0.6, 0.4, 0.2])

    @pytest.mark.parametrize("c", [[np.nan, 0.0, 0.0], [0.0, 0.0, np.nan], [0.0, np.inf, 0.0],
                                   [-np.inf, 0.0, 0.0]])
    def test_rejects_non_finite(self, c):
        # a NaN would pass the positivity test and read as h(nan) = nan
        with pytest.raises(ValidationError, match="^coefficients have non-finite entries$"):
            bell_diagonal_classical_correlation(c)

    def test_eigenvalue_floor_pinned_at_its_boundary(self):
        # c = (1, 0, c3) has the exact lowest eigenvalue -c3/4
        edge = 4.0 * EIGENVALUE_FLOOR
        assert bell_diagonal_classical_correlation([1.0, 0.0, edge]) == 1.0
        with pytest.raises(ValidationError):
            bell_diagonal_classical_correlation([1.0, 0.0, np.nextafter(edge, 1.0)])

    def test_matches_optimizer(self, rng):
        count = 0
        while count < 50:
            c = rng.uniform(-1, 1, 3)
            eigs = np.array([1 - c[0] - c[1] - c[2], 1 - c[0] + c[1] + c[2],
                             1 + c[0] - c[1] + c[2], 1 + c[0] + c[1] - c[2]]) / 4
            if eigs.min() < 0:
                continue
            count += 1
            numeric = classical_correlation(bell_diagonal(*c))
            assert numeric == pytest.approx(bell_diagonal_classical_correlation(c), abs=1e-6)


class TestMcdmDiscord:
    def test_bell_diagonal_equals_discord(self, rng):
        count = 0
        while count < 20:
            c = rng.uniform(-1, 1, 3)
            eigs = np.array([1 - c[0] - c[1] - c[2], 1 - c[0] + c[1] + c[2],
                             1 + c[0] - c[1] + c[2], 1 + c[0] + c[1] - c[2]]) / 4
            if eigs.min() < 0:
                continue
            count += 1
            r = quantum_discord(bell_diagonal(*c))
            assert r.mcdm_discord == pytest.approx(r.discord, abs=1e-9)

    def test_zero_discord_states(self, rng):
        for _ in range(20):
            rho = construct_zero_discord(
                [0.3, 0.7], random_direction(rng),
                (random_qubit_state(rng), random_qubit_state(rng)))
            assert mcdm_discord(rho) <= 1e-6

    def test_upper_bound_on_random_states(self):
        for rho in hs_states(89, 100):
            r = quantum_discord(rho)
            assert r.mcdm_discord >= r.discord


def turned(rho, rng):
    w = np.kron(random_unitary(rng), random_unitary(rng))
    return w @ rho @ w.conj().T


def pure_states(rng, count):
    kets = rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    return [np.outer(k, k.conj()) for k in kets]


def bell_diagonal_triples(rng, count):
    # mixtures of the four Bell states' correlation triples fill the tetrahedron
    corners = np.array([[-1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
    return rng.dirichlet(np.ones(4), size=count) @ corners


CERTIFIED_FAMILIES = ("hs", "rank1", "rank2", "rank3", "near_pure", "x_projected",
                      "bell_diagonal")


def family_state(family, seed):
    """A seeded state of one of CERTIFIED_FAMILIES, "nearer_pure" (as
    "near_pure", within 1e-12 to 1e-10 of a pure state), a Werner state, a
    pure state, or the product state mixture_family(0), which takes no seed."""
    rng = np.random.default_rng(seed)
    if family == "product":
        return mixture_family(0.0)
    if family == "pure":
        return pure_states(rng, 1)[0]
    if family == "bell_diagonal":
        return turned(bell_diagonal(*bell_diagonal_triples(rng, 1)[0]), rng)
    if family == "werner":
        return bell_diagonal(*np.full(3, -rng.uniform()))
    if family in ("near_pure", "nearer_pure"):
        eps = 10.0 ** rng.uniform(*((-10.0, -2.0) if family == "near_pure" else (-12.0, -10.0)))
        return (1.0 - eps) * pure_states(rng, 1)[0] + eps * family_state("hs", seed)
    rank = int(family[-1]) if family.startswith("rank") else 4
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T / np.linalg.norm(g) ** 2
    return project_x_state(rho) if family == "x_projected" else rho


KRAUS_X = (np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex),
           np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex))


@pytest.mark.parametrize("family", CERTIFIED_FAMILIES + ("werner", "pure", "product"))
def test_x_projection_equals_kraus_form(family):
    # and the unchecked kernel of project_x_state equals it
    states = np.stack([family_state(family, seed) for seed in range(16)])
    kraus = sum(e @ states @ e for e in KRAUS_X)
    projected = project_x_state(states)
    assert np.array_equal(projected.view(np.uint8), kraus.view(np.uint8))
    assert np.array_equal(_x_projection(states).view(np.uint8), projected.view(np.uint8))
    for rho, expected in zip(states, projected):
        assert np.array_equal(project_x_state(rho).view(np.uint8), expected.view(np.uint8))
        assert np.array_equal(_x_projection(rho).view(np.uint8), expected.view(np.uint8))


def zero_probability_stack():
    """|0><0| x rho_B and directions along which one outcome has probability 0
    (+-z), 1e-13, 1e-12 or 1e-11 (beside z), or 1/2 (x), in one stack."""
    rho = np.kron(np.diag([1.0, 0.0]), random_qubit_state(np.random.default_rng(20261020)))
    thetas = [0.0, math.pi] + [2.0 * math.asin(math.sqrt(p)) for p in (1e-13, 1e-12, 1e-11)]
    return rho, np.array([direction_from_angles(t, 0.0) for t in thetas + [math.pi / 2]])


def rare_outcome_directions(rho, probabilities, rng):
    """Directions (K, 3) along which the - outcome of measuring A on ``rho`` has
    each of ``probabilities`` (K,), (1 - a.n)/2 = p, or, where the Bloch
    vector a is too short for that, its least probability."""
    a = state_blocks(rho).a
    length = np.linalg.norm(a)
    axis = a / length if length else random_direction(rng)
    side = np.cross(axis, random_direction(rng))
    side /= np.linalg.norm(side)
    cos = np.minimum(1.0, (1.0 - 2.0 * np.asarray(probabilities))
                     / max(length, np.finfo(float).tiny))
    return cos[:, None] * axis + np.sqrt(1.0 - cos * cos)[:, None] * side


@st.composite
def oracle_cases(draw):
    """A state and directions (K, 3).  The state has rank 1 to 3, or its marginal
    on A lies within 0 to 1e-2 of pure: a pure state of A times a state of B of
    rank 1 or 2, turned by local unitaries and mixed with a little of a random
    state.  Besides random directions, the directions include ones along
    which an outcome's probability lies within 10x of ZERO_PROBABILITY on
    either side, or, where the marginal on A is too mixed for that, is the
    least it can be."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["rank1", "rank2", "rank3", "near_pure_marginal"]))
    if kind == "near_pure_marginal":
        eps = draw(st.sampled_from([0.0, 1e-16, 1e-14, 1e-12, 1e-10, 1e-6, 1e-2]))
        if draw(st.booleans()):
            ket = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rho_b = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
        else:
            rho_b = random_qubit_state(rng)
        rho = turned((1.0 - eps) * np.kron(np.diag([1.0, 0.0]), rho_b)
                     + eps * family_state("hs", int(rng.integers(2 ** 32))), rng)
    else:
        rho = family_state(kind, int(rng.integers(2 ** 32)))
    rare = rare_outcome_directions(rho, 10.0 ** rng.uniform(-13.0, -11.0, 2), rng)
    return rho, np.concatenate([[random_direction(rng) for _ in range(4)], rare, -rare])


class TestDirectOracle:
    """The stacked direct-diagonalization oracle, ``_ce_direct``."""

    def test_never_touches_the_closed_form(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("the oracle evaluated the closed form")

        rho = hs_states(173, 1)[0]
        expected = [conditional_entropy_direct(rho, n) for n in np.eye(3)]
        # every function of the closed form, in every qdiscord module that holds it
        holders = set()
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "qdiscord"]:
            for name, value in list(vars(module).items()):
                if callable(value) and getattr(value, "__module__", None) == closed_form.__name__:
                    monkeypatch.setattr(module, name, evaluated)
                    holders.add(module.__name__)
        assert {"qdiscord", "qdiscord.closed_form", "qdiscord.measures",
                "qdiscord.refine"} <= holders
        ens = post_measurement(rho, X)
        assert sum(o.probability for o in ens.outcomes) == pytest.approx(1.0, abs=1e-12)
        assert [conditional_entropy_direct(rho, n) for n in np.eye(3)] == expected
        assert _ce_direct(rho, np.eye(3)).tolist() == expected

    @pytest.mark.parametrize("family", ("zero_probability",) + CERTIFIED_FAMILIES
                             + ("nearer_pure", "werner", "pure", "product"))
    def test_rows_equal_lone_calls(self, family):
        cases = ([zero_probability_stack()] if family == "zero_probability"
                 else [(family_state(family, seed), fibonacci_sphere(40)) for seed in range(4)])
        for rho, dirs in cases:
            lone = np.array([conditional_entropy_direct(rho, n) for n in dirs])
            assert np.array_equal(_ce_direct(rho, dirs).view(np.uint64), lone.view(np.uint64))

    def test_zero_probability_outcome(self):
        rho, dirs = zero_probability_stack()
        s_b = von_neumann_entropy(partial_trace(rho, "B"))
        assert_allclose(_ce_direct(rho, dirs), s_b, rtol=0, atol=1e-11)
        for n, dead in ((dirs[0], 1), (dirs[1], 0)):
            outcomes = post_measurement(rho, n).outcomes
            assert outcomes[dead].probability == 0.0 and outcomes[dead].state is None
            assert_allclose(outcomes[1 - dead].state, partial_trace(rho, "B"), atol=1e-15)

    @pytest.mark.parametrize("family", CERTIFIED_FAMILIES
                             + ("nearer_pure", "werner", "pure", "product"))
    def test_live_branches_are_hermitian_with_unit_trace(self, family):
        # what lets the oracle diagonalize its branches without checking them
        rng = np.random.default_rng(20261022)
        for seed in range(8):
            rho = family_state(family, seed)
            rare = rare_outcome_directions(rho, 10.0 ** rng.uniform(-12.0, -11.0, 8), rng)
            p, live, states = _measured_branches(
                rho, np.concatenate([fibonacci_sphere(200), rare, -rare]))
            assert np.array_equal(states, states.conj().swapaxes(-1, -2))
            trace = states.trace(axis1=-2, axis2=-1).real
            assert np.abs(trace - 1.0).max() <= 4 * 2.0 ** -52

    def test_validated_state_below_the_floor_in_a_branch(self):
        # rho's lowest eigenvalue at -EIGENVALUE_FLOOR, its eigenvector a
        # product |m>|v>, measured along m: the + branch has that eigenvalue
        # over p, which rounding takes below -EIGENVALUE_FLOOR / p on some of
        # these validated states, and a partner eigenvalue above 1, which the
        # oracle must read as 1, as the closed form reads g/w, or the two
        # part by EIGENVALUE_FLOOR / ln 2
        below = 0
        for seed in range(32):
            rng = np.random.default_rng(seed)
            m, v = (ket / np.linalg.norm(ket) for ket in
                    rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            basis = np.column_stack([np.kron(m, v), rng.standard_normal((4, 3))
                                     + 1j * rng.standard_normal((4, 3))])
            q = np.linalg.qr(basis)[0]
            w = np.concatenate([[-EIGENVALUE_FLOOR],
                                rng.dirichlet(np.ones(3)) * (1.0 + EIGENVALUE_FLOOR)])
            rho = (q * w) @ q.conj().T
            rho = (rho + rho.conj().T) / 2.0
            try:
                validated_spectrum(rho)
            except NotAStateError:
                continue
            bloch = np.real([np.conj(m) @ sigma @ m for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
            dirs = np.stack([bloch, -bloch]) / np.linalg.norm(bloch)
            p, live, states = _measured_branches(rho, dirs)
            below += int((np.linalg.eigvalsh(states)[:, 0] < -EIGENVALUE_FLOOR / p[live]).any())
            blocks = state_blocks(rho)
            closed = _ce_many(blocks.a[None], blocks.b[None], blocks.r[None], dirs.T)[0]
            assert_allclose(_ce_direct(rho, dirs), closed, rtol=0, atol=1e-10)
        assert below > 0

    def test_rare_branches_far_below_the_floor_give_the_closed_form(self):
        # a pure product state measured near its Bloch vector on A: divided
        # by p, the rare branch's rounding noise of about 1e-16 takes its
        # lowest eigenvalue far below -EIGENVALUE_FLOOR
        rng = np.random.default_rng(20261021)
        worst = 0.0
        for _ in range(40):
            ket = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rho = turned(np.kron(np.diag([1.0, 0.0]), np.outer(ket, ket.conj())
                                 / np.vdot(ket, ket).real), rng)
            dirs = rare_outcome_directions(rho, [2e-12, 5e-12, 1e-11], rng)
            states = _measured_branches(rho, dirs)[2]
            worst = min(worst, np.linalg.eigvalsh(states)[:, 0].min())
            blocks = state_blocks(rho)
            closed = _ce_many(blocks.a[None], blocks.b[None], blocks.r[None], dirs.T)[0]
            assert_allclose(_ce_direct(rho, dirs), closed, rtol=0, atol=1e-10)
        assert worst < -1e3 * EIGENVALUE_FLOOR

    def test_rejects_bad_states_and_directions(self):
        rho = hs_states(179, 1)[0]
        for bad in (rho + 1e-3 * np.eye(4), np.diag([1.1, -0.1, 0.0, 0.0])):
            with pytest.raises(NotAStateError):
                _ce_direct(bad, np.eye(3))
        for dirs in ([[1.0, 0.0, 0.0], [0.0, 1.1, 0.0]], [[1.0, 0.0]], np.eye(3)[0]):
            with pytest.raises(ValidationError):
                _ce_direct(rho, dirs)
        with pytest.raises(ValidationError):
            conditional_entropy_direct(rho, [1.0, 0.0])
        for bad in (np.eye(2) / 2, np.stack([rho, rho])):
            for call in (conditional_entropy_direct, post_measurement):
                with pytest.raises(ValidationError, match="expected a 4x4 matrix"):
                    call(bad, X)

    @given(case=oracle_cases())
    @settings(max_examples=300)
    def test_closed_form_equals_oracle(self, case):
        rho, dirs = case
        blocks = state_blocks(rho)
        closed = _ce_many(blocks.a[None], blocks.b[None], blocks.r[None], dirs.T)[0]
        assert_allclose(closed, _ce_direct(rho, dirs), rtol=0, atol=1e-10)


def at_the_floor(rho):
    """``rho`` with its lowest eigenvalue set to -0.999 EIGENVALUE_FLOOR and
    the others scaled to keep the trace 1."""
    w, v = np.linalg.eigh(rho)
    w[0] = -0.999 * EIGENVALUE_FLOOR
    w[1:] *= (1.0 - w[0]) / w[1:].sum()
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


FLOOR_FAMILIES = CERTIFIED_FAMILIES + ("nearer_pure", "werner", "pure")


class TestAtTheEigenvalueFloor:
    """Validated states whose lowest eigenvalue lies just above -EIGENVALUE_FLOOR:
    the solver checks their blocks once and the oracle none of their branches."""

    @pytest.fixture(scope="class")
    def states(self):
        rhos = np.stack([at_the_floor(family_state(family, seed))
                         for family in FLOOR_FAMILIES for seed in range(30)])
        lowest = validated_spectrum(rhos)[1][:, 0]
        assert (lowest <= -0.99 * EIGENVALUE_FLOOR).all()
        return rhos

    def test_branches_stay_within_four_floors(self, states):
        # the branch eigenvalues (w +- g)/4 lie at or above rho's lowest, so
        # g - w <= 4 EIGENVALUE_FLOOR, under POSITIVITY_SLACK, everywhere;
        # these states come near that bound
        for blocks in (state_blocks(states), canonical_blocks(state_blocks(states))[1]):
            w, g = _branches(blocks.a, blocks.b, blocks.r, SPHERE.T)
            excess = (g - w)[w > ZERO_PROBABILITY].max()
            assert 3 * EIGENVALUE_FLOOR < excess <= 4 * EIGENVALUE_FLOOR
        assert 4 * EIGENVALUE_FLOOR < POSITIVITY_SLACK

    def test_discord_returns(self, states):
        reports = _discord_reports(states)
        for k in range(0, len(states), 5):
            report = quantum_discord(states[k])
            assert report.min_conditional_entropy == reports.min_conditional_entropy[k]

    def test_oracle_equals_closed_form_on_rare_branches(self, states):
        rng = np.random.default_rng(20261023)
        for rho in states:
            rare = rare_outcome_directions(rho, 10.0 ** rng.uniform(-12.0, -11.0, 4), rng)
            dirs = np.concatenate([rare, -rare])
            blocks = state_blocks(rho)
            closed = _ce_many(blocks.a[None], blocks.b[None], blocks.r[None], dirs.T)[0]
            assert_allclose(_ce_direct(rho, dirs), closed, rtol=0, atol=1e-10)


def _rotation_about(axis, angle):
    """The rotation by ``angle`` about unit vector ``axis``."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


@st.composite
def tied_optimum_cases(draw):
    """A state whose conditional entropy is invariant under an orthogonal map P
    of the measurement direction, and P in the state's frame.

    Built from blocks (a, b, R), R diagonal, and an axis e: a and b lie
    along e or in the plane normal to e, and P is the reflection across
    that plane or, where R is symmetric about e and a and b lie along it, a
    rotation about e.  The blocks are scaled toward the maximally mixed
    state, to the edge of positivity or inside it, and each qubit is turned
    by a random rotation:

    - "mirror": any R, e = z, so CE(theta) = CE(pi - theta);
    - "l1_eq_l2" and "l2_eq_l3": R = diag(L, L, L3) with |L3| <= L and
      e = z, or R = diag(L1, L, +-L) with L1 >= L and e = x; a or b is 0,
      so R is also the connected correlation matrix;
    - "werner": R = +-I, a = b = 0, where CE is constant and P any rotation.

    Along e the canonical blocks are X-shaped, and in the plane they are
    not: the circle and the sphere both take these states."""
    kind = draw(st.sampled_from(["mirror", "l1_eq_l2", "l2_eq_l3", "werner"]))
    along = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ab = np.zeros((2, 3))
    if kind == "werner":
        r = np.full(3, rng.choice([-1.0, 1.0]))
        symmetry = _rotation_about(random_direction(rng), rng.uniform(0.0, 2.0 * np.pi))
    else:
        axis = 0 if kind == "l2_eq_l3" else 2
        if kind == "mirror":
            r = rng.uniform(-1.0, 1.0, 3)
            nonzero = [0, 1]
        else:
            low, high = sorted(rng.uniform(0.0, 1.0, 2))
            pair = [0, 1] if axis == 2 else [1, 2]
            r = np.empty(3)
            r[axis] = rng.choice([-1.0, 1.0]) * (low if axis == 2 else high)
            r[pair] = (high if axis == 2 else low) * np.array([1.0, rng.choice([-1.0, 1.0])])
            nonzero = draw(st.sampled_from([[0], [1], []]))
        ab[nonzero] = rng.uniform(-1.0, 1.0, (len(nonzero), 3))
        normal = np.eye(3)[axis]
        if along:
            ab[:, :] = ab[:, axis, None] * normal
        else:
            ab[:, axis] = 0.0
        symmetry = (_rotation_about(normal, rng.uniform(0.0, 2.0 * np.pi))
                    if along and kind != "mirror" else np.eye(3) - 2.0 * np.outer(normal, normal))
    tau = np.eye(4)
    tau[1:, 0], tau[0, 1:], tau[1:, 1:] = ab[0], ab[1], np.diag(r)
    # the traceless part's lowest eigenvalue fixes the largest positive scale
    traceless = np.linalg.eigvalsh(sum(tau[i, j] * np.kron(PAULIS[i], PAULIS[j])
                                       for i in range(4) for j in range(4) if i or j))[0] / 4.0
    scale = draw(st.sampled_from([1.0, rng.uniform(0.05, 1.0)])) / (-4.0 * traceless)
    o_a, o_b = random_rotation(rng), random_rotation(rng)
    tau[1:, 0], tau[0, 1:] = o_a @ (scale * ab[0]), o_b @ (scale * ab[1])
    tau[1:, 1:] = o_a @ (scale * np.diag(r)) @ o_b.T
    return kind, reconstruct(tau), o_a @ symmetry @ o_a.T


@functools.cache
def stack_companions():
    """63 states to stack beside a case: HS states (sphere) and X projections."""
    return np.stack(hs_states(7, 32) + [family_state("x_projected", seed) for seed in range(31)])


class TestTiedOptima:
    """States with mirror optima or degenerate correlation spectra, where the tie
    rules decide the reported direction."""

    @given(case=tied_optimum_cases(), position=st.integers(0, 63))
    @settings(max_examples=200)
    def test_tied_optima(self, case, position):
        kind, rho, symmetry = case
        recorded = []
        tie_break = refine._tie_break

        def recording_tie_break(n, value, axis_values):
            recorded.append((value.copy(), axis_values.copy()))
            return tie_break(n, value, axis_values)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(refine, "_tie_break", recording_tie_break)
            report = quantum_discord(rho)
        ((before,), (axis_values,)), = recorded
        # the oracle at the optimum and at its mirror or tied partner
        n = report.optimal_direction
        dirs = np.stack([n, symmetry @ n])
        blocks = state_blocks(rho)
        closed = _ce_many(blocks.a[None], blocks.b[None], blocks.r[None], dirs.T)[0]
        assert_allclose(closed, _ce_direct(rho, dirs), rtol=0, atol=1e-10)
        assert abs(closed[1] - closed[0]) <= 1e-12
        # ties go to x, then y, then z
        tied = np.flatnonzero(axis_values <= before + VALUE_TIE_TOL)
        o1 = canonical_blocks(blocks)[0]
        if tied.size:
            assert report.min_conditional_entropy == axis_values[tied[0]]
            assert np.array_equal(n, hemisphere_representative(o1[tied[0]]))
        else:
            assert report.min_conditional_entropy == before
        if kind == "werner":
            assert tied[0] == 0 and np.array_equal(n, report.mcdm_direction)
        # the same bits in a stack of 64
        stack = np.insert(stack_companions(), position, rho, axis=0)
        stacked = _discord_reports(stack)
        assert np.array_equal(stacked.optimal_direction[position].view(np.uint64),
                              n.view(np.uint64))
        assert stacked.min_conditional_entropy[position] == report.min_conditional_entropy


class TestSingleSolvePath:
    """Every public function reports the solve of ``quantum_discord`` exactly."""

    def states(self):
        rng = np.random.default_rng(20260518)
        states = pure_states(rng, 10)
        states += [turned(bell_diagonal(-p, -p, -p), rng) for p in (0.2, 1 / 3, 0.7, 1.0)]
        states += [turned(bell_diagonal(*c), rng) for c in bell_diagonal_triples(rng, 10)]
        states += [construct_zero_discord([0.3, 0.7], random_direction(rng),
                                          (random_qubit_state(rng), random_qubit_state(rng)))
                   for _ in range(10)]
        return states + hs_states(149, 100)

    def test_functions_agree_with_report(self):
        for rho in self.states():
            report = quantum_discord(rho)
            n, value = minimize_conditional_entropy(rho)
            np.testing.assert_array_equal(n, report.optimal_direction)
            assert value == report.min_conditional_entropy
            assert classical_correlation(rho) == report.classical_correlation
            assert mcdm_discord(rho) == report.mcdm_discord
            assert report.min_conditional_entropy <= report.mcdm_conditional_entropy

    def test_pure_entangled_state_ties_resolve_to_mcdm(self):
        rng = np.random.default_rng(20260519)
        for rho in [bell_psi_plus()] + pure_states(rng, 20):
            assert von_neumann_entropy(partial_trace(rho, "A")) > 1e-3  # entangled
            np.testing.assert_array_equal(minimize_conditional_entropy(rho)[0],
                                          mcdm_direction(to_canonical(rho)))


class TestBatchInvariance:
    """A state's solve does not depend on the states solved beside it."""

    def test_stack_equals_batches_of_one(self):
        states = TestSingleSolvePath().states()
        states += [project_x_state(rho) for rho in hs_states(157, 30)]
        canonical = canonical_blocks(state_blocks(np.stack(states)))[1]
        for k in range(0, len(states), 64):
            a, b, r = (x[k:k + 64] for x in (canonical.a, canonical.b, canonical.r))
            n, value, _ = _minimize_many(a, b, r)
            assert n.shape == (len(a), 3) and value.shape == (len(a),)
            for s in range(len(a)):
                n1, value1, _ = _minimize_many(a[s:s + 1], b[s:s + 1], r[s:s + 1])
                np.testing.assert_array_equal(n[s], n1[0])
                assert value[s] == value1[0]

    @given(draws=st.lists(st.tuples(st.sampled_from(CERTIFIED_FAMILIES + ("werner",)),
                                    st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_batch_of_one_equals_batch_of_many(self, draws):
        a, b, r = stacked_canonical([family_state(family, seed) for family, seed in draws])
        n, value, _ = _minimize_many(a, b, r)
        for s in range(len(a)):
            n1, value1, _ = _minimize_many(a[s:s + 1], b[s:s + 1], r[s:s + 1])
            np.testing.assert_array_equal(n[s], n1[0])
            assert value[s] == value1[0]

    @staticmethod
    def mixed_stack():
        """HS and X-projected states, and states whose correlation matrix is
        already canonical (the identity fast path) or vanishes."""
        rng = np.random.default_rng(20261018)
        states = hs_states(163, 24) + [project_x_state(rho) for rho in hs_states(167, 24)]
        states += [off_axis_x_state(), np.eye(4, dtype=complex) / 4, bell_diagonal(0.5, 0.3, -0.2),
                   bell_diagonal(0.3, 0.3, 0.3), bell_diagonal(0.6, 0.2, 0.0)]
        states += [np.kron(random_qubit_state(rng), random_qubit_state(rng)) for _ in range(5)]
        rng.shuffle(states)
        return states

    def test_front_end_stack_equals_single_calls(self):
        states = self.mixed_stack()
        stack = np.stack(states)
        checked, spectrum = validated_spectrum(stack)
        blocks = state_blocks(stack)
        o1, o2, s = canonical_rotations(blocks.connected())
        c1, canonical = canonical_blocks(blocks)
        projected = project_x_state(stack)
        assert (o1 == np.eye(3)).all(axis=(1, 2)).sum() >= 4  # the fast path is taken

        def same(stacked, single):
            return stacked.shape == single.shape and (stacked == single).all()

        for k, rho in enumerate(states):
            assert all(map(same, (checked[k], spectrum[k]), validated_spectrum(rho)))
            single = state_blocks(rho)
            assert same(blocks.a[k], single.a) and same(blocks.b[k], single.b)
            assert same(blocks.r[k], single.r)
            assert all(map(same, (o1[k], o2[k], s[k]), canonical_rotations(single.connected())))
            single_o1, single = canonical_blocks(single)
            assert same(c1[k], single_o1) and same(canonical.a[k], single.a)
            assert same(canonical.b[k], single.b) and same(canonical.r[k], single.r)
            assert same(projected[k], project_x_state(rho))

    def test_discord_reports_equal_quantum_discord(self):
        # row k of each stacked field has the bits of state k's report alone,
        # whose values are Python floats and whose directions are 3-vectors
        states = self.mixed_stack()
        report = _discord_reports(np.stack(states))
        for k, rho in enumerate(states):
            single = quantum_discord(rho)
            for field in dataclasses.fields(DiscordReport):
                stacked, alone = getattr(report, field.name), getattr(single, field.name)
                assert type(alone) is float or alone.shape == (3,)
                assert np.shape(stacked) == (len(states),) + np.shape(alone)
                assert np.all(stacked[k] == alone)

    def test_discord_reports_build_one_report_per_stack(self, monkeypatch):
        built = []

        def counted(*fields):
            built.append(fields)
            return DiscordReport(*fields)

        monkeypatch.setattr(measures, "DiscordReport", counted)
        report = _discord_reports(np.stack(self.mixed_stack()))
        assert len(built) == 1 and isinstance(report, DiscordReport)

    @pytest.mark.parametrize("family", ("mixed",) + CERTIFIED_FAMILIES + ("werner", "pure",
                                                                      "product"))
    def test_mcdm_entropy_has_the_bits_of_the_closed_form_at_x(self, family):
        # the report reads CE at the MCDM from the solve's axis values
        states = (self.mixed_stack() if family == "mixed"
                  else [family_state(family, seed) for seed in range(16)])
        alone = _ce_many(*stacked_canonical(states), X_AXIS[:, None])[:, 0]
        report = _discord_reports(np.stack(states))
        assert report.mcdm_conditional_entropy.tolist() == alone.tolist()

    def test_reports_make_no_closed_form_call_beside_the_solve(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _ce_many(*args)

        states = self.mixed_stack()
        for module in (closed_form, refine):
            monkeypatch.setattr(module, "_ce_many", counted)
        _discord_reports(np.stack(states))
        in_reports = len(calls)
        calls.clear()
        _minimize_many(*stacked_canonical(states))
        assert calls and in_reports == len(calls)


def canonical_stack(rho):
    return stacked_canonical([rho])


def stacked_canonical(states):
    """Canonical blocks a, b, R of a list of states, stacked."""
    canonical = canonical_blocks(state_blocks(np.stack(states)))[1]
    return canonical.a, canonical.b, canonical.r


# the 96 x 192 (theta, phi) grid, a reference for the sphere's axis starts:
# rows of polar angle k pi/96, each of 192 azimuths from -pi/2, row by row
DENSE_THETAS, DENSE_PHIS = (m.ravel() for m in np.meshgrid(
    np.arange(96) * (math.pi / 96), -math.pi / 2 + np.arange(192) * (math.pi / 192),
    indexing="ij"))
DENSE_DIRS = np.stack([np.sin(DENSE_THETAS) * np.cos(DENSE_PHIS),
                       np.sin(DENSE_THETAS) * np.sin(DENSE_PHIS), np.cos(DENSE_THETAS)])


def dense_start(a, b, r):
    """CE at every point of the 96 x 192 grid for one state, in blocks of 24
    rows, and the start rule of refine._pick_start: the flat index and value
    of the first point within SCAN_TIE_TOL of the lowest."""
    values = np.concatenate([_ce_many(a, b, r, np.ascontiguousarray(block))[0]
                             for block in np.hsplit(DENSE_DIRS, 4)])
    start = np.flatnonzero(values <= values.min() + SCAN_TIE_TOL)[0]
    return int(start), float(values[start])


def axis_ties(axis_values, value):
    """Which of the axes x, y, z, with values (S, 3), tie each value (S,), as
    refine._tie_break reads them."""
    return axis_values <= value[:, None] + VALUE_TIE_TOL


def sphere_minimum(a, b, r):
    """refine._sphere_minimum with the axis values _minimize_many gives it."""
    return _sphere_minimum(a, b, r, _ce_many(a, b, r, _TIE_AXES))


def axis_started(rho):
    """Blocks of ``rho``'s canonical form, its three axis starts (1, 3, 3) and
    their values (1, 3), as refine._sphere_minimum refines them."""
    a, b, r = canonical_stack(rho)
    return a, b, r, _TIE_AXES.T[None], _ce_many(a, b, r, _TIE_AXES)


# the seed-7 Hilbert-Schmidt states whose optimum lies in a narrow basin that
# the refinement from the MCDM alone misses
NARROW_BASINS = (9716, 40997)


class TestAxisStarts:
    """The starts of the refinement: every state off the circle starts at its
    three canonical axes and reaches the minimum that the refinement reaches
    from the dense 96 x 192 scan, and a state's result does not depend on its
    stack; X-shaped states scan their circle's 17 points."""

    @staticmethod
    def refined_dense_scan(a, b, r):
        """The minimum that the refinement reaches from the first lowest point
        of the dense scan, after the axis tie-break."""
        start, value = dense_start(a, b, r)
        n, dense = _newton(a, b, r, DENSE_DIRS.T[[start]][:, None], np.array([[value]]),
                           _sphere_frame, INITIAL_RADIUS)
        return _tie_break(n[:, 0], dense[:, 0], _ce_many(a, b, r, _TIE_AXES))[1][0]

    def assert_minimum_equals_refined_dense_scan(self, rho):
        a, b, r = canonical_stack(rho)
        assert abs(_minimize_many(a, b, r)[1][0] - self.refined_dense_scan(a, b, r)) <= 1e-14

    @pytest.mark.parametrize("family", CERTIFIED_FAMILIES + ("nearer_pure", "werner", "pure",
                                                             "product"))
    def test_minimum_equals_refined_dense_scan(self, family):
        for seed in range(50):
            self.assert_minimum_equals_refined_dense_scan(family_state(family, seed))

    @pytest.mark.parametrize("index", NARROW_BASINS)
    def test_narrow_basin_reached(self, index):
        # these optima lie in narrow basins near the second axis: from the
        # MCDM alone the refinement ends 1.67e-4 (9716) and 4.89e-4 (40997)
        # above them
        rho = _hs_states(ExperimentConfig(seed=7), range(index, index + 1))[0]
        a, b, r, starts, values = axis_started(rho)
        dense = self.refined_dense_scan(a, b, r)
        assert abs(_minimize_many(a, b, r)[1][0] - dense) <= 1e-14
        mcdm_alone = _newton(a, b, r, starts[:, :1], values[:, :1], _sphere_frame,
                             SPHERE_RADIUS)[1][0, 0]
        assert mcdm_alone - dense > 1e-4

    def test_stacked_solve_equals_state_alone(self):
        # 100 states, cut into stacks of several sizes
        states = [family_state(family, seed) for family in CERTIFIED_FAMILIES + ("werner",)
                  for seed in range(12)]
        states += [mixture_family(0.0)] * 4  # a product state
        np.random.default_rng(20261023).shuffle(states)
        a, b, r = stacked_canonical(states)
        alone = [tuple(x[0].tolist() for x in sphere_minimum(a[s:s + 1], b[s:s + 1], r[s:s + 1]))
                 for s in range(len(a))]
        for size in (1, 2, 3, 4, 58, 64):
            ends = []
            for k in range(0, len(a), size):
                n, value = sphere_minimum(a[k:k + size], b[k:k + size], r[k:k + size])
                assert n.shape == (len(a[k:k + size]), 3) and value.shape == (len(a[k:k + size]),)
                ends += zip(n.tolist(), value.tolist())
            assert ends == alone

    def test_sphere_starts_at_the_three_axes(self, monkeypatch):
        # the closed form is evaluated once per state, at the axes x, y, z,
        # for the tie-break and the starts alike, and the refinement's first
        # evaluation is at those three points: no scan remains on the sphere
        a, b, r = stacked_canonical(hs_states(7, 600))
        closed_form, derivatives = [], []

        def counted(a_k, b_k, r_k, dirs):
            closed_form.append((len(a_k), dirs))
            return _ce_many(a_k, b_k, r_k, dirs)

        def evaluated(a_k, b_k, r_k, n, frame):
            derivatives.append(n)
            return _tangent_derivatives(a_k, b_k, r_k, n, frame)

        monkeypatch.setattr(refine, "_ce_many", counted)
        monkeypatch.setattr(refine, "_tangent_derivatives", evaluated)
        _minimize_many(a, b, r)
        assert len(closed_form) == 1 and closed_form[0][0] == 600
        assert closed_form[0][1] is _TIE_AXES
        assert derivatives[0].tolist() == np.tile(np.eye(3), (600, 1)).tolist()

    @given(size=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=12)
    def test_stack_start_and_report_identities(self, size, seed):
        # a shuffled stack of any size a pipeline chunk can have
        families = CERTIFIED_FAMILIES + ("werner", "product", "pure")
        rng = np.random.default_rng(seed)
        states = [family_state(families[k], s) for k, s in
                  zip(rng.integers(len(families), size=size), rng.integers(2 ** 32, size=size))]
        a, b, r = stacked_canonical(states)
        n, value = sphere_minimum(a, b, r)
        for s in range(len(a)):
            n1, value1 = sphere_minimum(a[s:s + 1], b[s:s + 1], r[s:s + 1])
            assert n[s].tolist() == n1[0].tolist() and value[s] == value1[0]
        report = _discord_reports(np.stack(states))
        # the bound is the discord formula at the MCDM, so where CE is
        # lowest there it equals the discord to the bit (rank1 seed 66)
        assert (report.mcdm_discord >= report.discord).all()
        assert (np.abs(report.discord + report.classical_correlation
                       - report.mutual_information) <= CLAMP_WINDOW).all()

    def test_lowest_end_wins_and_ties_go_to_the_earlier_axis(self, monkeypatch):
        # of the three ends the lowest is the state's result; of equal ends,
        # that of the earlier axis
        ends = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]] * 3)
        values = np.array([[0.3, 0.2, 0.2], [0.1, 0.2, 0.1], [0.5, 0.5, 0.4]])
        monkeypatch.setattr(refine, "_newton", lambda *args: (ends, values))
        n, value = _sphere_minimum(*(np.zeros((3,) + shape) for shape in ((3,), (3,), (3, 3))),
                                   np.zeros((3, 3)))
        assert n.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        assert value.tolist() == [0.2, 0.1, 0.4]

    def test_flat_and_pure_states_start_at_the_axes(self, monkeypatch):
        # CE is flat for Werner and product states and 0 for pure ones, and a
        # near-pure state's CE is flat to rounding noise but for a narrow dip:
        # each state, whatever its landscape, is first evaluated at its three
        # axes, and a pure state, whose axis values are at most CE_FLOOR, not
        # at all
        rng = np.random.default_rng(20261024)
        states = [family_state(family, seed) for family in ("pure", "near_pure", "werner", "hs")
                  for seed in range(3)]
        states += [mixture_family(0.0)] + [np.kron(random_qubit_state(rng), random_qubit_state(rng))
                                           for _ in range(2)]
        a, b, r = stacked_canonical(states)
        blocks = np.concatenate([a, b, r.reshape(-1, 9)], axis=1)
        assert len(np.unique(blocks, axis=0)) == len(a)
        axis_values = _ce_many(a, b, r, _TIE_AXES)
        calls = []

        def evaluated(a_k, b_k, r_k, n, frame):
            calls.append((np.concatenate([a_k, b_k, r_k.reshape(-1, 9)], axis=1), n))
            return _tangent_derivatives(a_k, b_k, r_k, n, frame)

        monkeypatch.setattr(refine, "_tangent_derivatives", evaluated)
        _sphere_minimum(a, b, r, axis_values)
        rows, points = calls[0]
        at_floor = axis_values.min(axis=1) <= CE_FLOOR
        assert 0 < at_floor.sum() < len(a)
        for k in range(len(a)):
            first = points[(rows == blocks[k]).all(axis=1)]
            assert first.tolist() == ([] if at_floor[k] else np.eye(3).tolist())

    @pytest.mark.parametrize("family", ["rank1", "werner", "hs", "near_pure"])
    def test_chunk_solve_without_large_temporaries(self, family):
        # the circle's scan holds 17 points per state and the sphere's starts
        # three rows per state.  Rank-1 and Werner states are X-shaped, so
        # _minimize_many settles them on their circle, and _sphere_minimum
        # refines them from their axes
        a, b, r = stacked_canonical([family_state(family, s) for s in range(64)])
        for solve in (_minimize_many, sphere_minimum):
            solve(a, b, r)
            tracemalloc.start()
            try:
                solve(a, b, r)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * 2 ** 20

    def test_value_reproducible_to_last_bits_direction_to_1e7(self):
        # CE is flat to second order at its minimum, so a one-ulp change of the
        # blocks moves the minimizing direction far more than the minimum.
        # Two starts can end at the same measurement from opposite sides, n
        # and -n, and a one-ulp change can swap which of them is lower
        for rho in hs_states(137, 100):
            a, b, r = canonical_stack(rho)
            n, value, _ = _minimize_many(a, b, r)
            n1, value1, _ = _minimize_many(a * (1.0 + 2.0 ** -52), b, r)
            assert abs(value1[0] - value[0]) < 1e-14
            assert min(np.abs(n1 - n).max(), np.abs(n1 + n).max()) < 2e-7

    def test_scan_tie_tol_pinned_at_its_boundary(self):
        # a point SCAN_TIE_TOL above the lowest ties it, and being first it
        # wins; one double higher, the lowest point wins
        for above, k in ((0.5 + SCAN_TIE_TOL, 0), (np.nextafter(0.5 + SCAN_TIE_TOL, 1.0), 1)):
            values = np.array([[above, 0.5]])
            start, value = _pick_start(values)
            assert start.tolist() == [k] and value.tolist() == [values[0, k]]


def sphere_path(a, b, r):
    """The sphere path alone: refinement from the axes and axis tie-break."""
    axis_values = _ce_many(a, b, r, _TIE_AXES)
    return _tie_break(*_sphere_minimum(a, b, r, axis_values), axis_values)


X_FAMILIES = ("plain", "unbiased", "degenerate", "mirror")


def x_state(family, seed):
    """A seeded X-state: diagonal p and anti-diagonal entries within positivity.

    "unbiased" has a = b = 0 (Bell-diagonal), "degenerate" |R_xx| = |R_yy|,
    "near_pure" is within 1e-12 to 1e-2 of a computational basis state, and
    "mirror" lies near the reference off-axis state, whose optimum and its
    mirror image (theta vs pi - theta) are interior."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(4))
    c = rng.uniform(-1.0, 1.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
    if family == "unbiased":
        p[2:] = p[1::-1]
        p /= p.sum()
    elif family == "degenerate":
        c[rng.integers(2)] = 0.0
    elif family == "near_pure":
        eps = 10.0 ** rng.uniform(-12.0, -2.0)
        p = (1.0 - eps) * np.eye(4)[rng.integers(4)] + eps * p
    elif family == "mirror":
        p[0] = rng.uniform(0.05, 0.11)
        p[1:] = 0.125, 0.125, 0.75 - p[0]
        c = np.array([0.0, rng.uniform(0.6, 0.95)])
    rho = np.diag(p).astype(complex)
    rho[0, 3] = c[0] * np.sqrt(p[0] * p[3])
    rho[1, 2] = c[1] * np.sqrt(p[1] * p[2])
    return rho + np.triu(rho, 1).conj().T


def third_axis(a, b):
    """The transverse axis i of X-shaped canonical blocks that their great
    circle leaves out: of the two axes besides the axis k of a and b, the
    later, whose |R_ii| is the smaller in the canonical order."""
    k = np.maximum(np.abs(a), np.abs(b)).argmax(axis=1)
    return np.where(k == 2, 1, 2)


class TestXStateCircle:
    """X-shaped states are settled on one great circle: their direction has no
    component along the third axis, and their result is that of the
    hemisphere path, bit for bit where the minimum ties an axis."""

    @staticmethod
    def x_shaped_states():
        rng = np.random.default_rng(20261020)
        states = [project_x_state(rho) for rho in hs_states(7, 2000)]
        states += [turned(bell_diagonal(*c), rng) for c in bell_diagonal_triples(rng, 30)]
        states += [bell_diagonal(*np.full(3, -q)) for q in np.linspace(0.0, 1.0, 11)]  # Werner
        states += pure_states(rng, 30)
        return states + [np.eye(4, dtype=complex) / 4, off_axis_x_state()]

    def test_equals_sphere_path(self):
        # each direction lies on its circle; where the circle's minimum ties an
        # axis, the tie-break settles both paths to the same bits, and an
        # interior minimum, refined along the circle instead of on the
        # sphere, moves its value by rounding
        states = self.x_shaped_states()
        canonical = canonical_blocks(state_blocks(np.stack(states)))[1]
        assert _circle_states(canonical.a, canonical.b, canonical.r).all()
        interior = 0
        for k in range(0, len(states), 64):
            a, b, r = (x[k:k + 64] for x in (canonical.a, canonical.b, canonical.r))
            n, value, axis_values = _minimize_many(a, b, r)
            assert (n[np.arange(len(a)), third_axis(a, b)] == 0.0).all()
            n2, value2 = sphere_path(a, b, r)
            tied = axis_ties(axis_values, _circle_minimum(a, b, r)[1]).any(axis=1)
            assert (n[tied] == n2[tied]).all() and (value[tied] == value2[tied]).all()
            assert (np.abs(value - value2) <= 2e-15).all()
            interior += (~tied).sum()
        assert interior >= 1  # off_axis_x_state

    @given(family=st.sampled_from(X_FAMILIES + ("near_pure",)), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80)
    def test_direction_on_the_circle(self, family, seed):
        a, b, r = canonical_stack(x_state(family, seed))
        assert _circle_states(a, b, r).tolist() == [True]
        assert _minimize_many(a, b, r)[0][0, third_axis(a, b)[0]] == 0.0

    @pytest.fixture
    def sphere_calls(self, monkeypatch):
        """The number of states of each call of the hemisphere path."""
        calls = []

        def recorded(a, *rest):
            calls.append(len(a))
            return _sphere_minimum(a, *rest)

        monkeypatch.setattr(refine, "_sphere_minimum", recorded)
        return calls

    def test_interior_optimum_settled_on_the_circle(self, sphere_calls):
        a, b, r = canonical_stack(off_axis_x_state())
        assert _circle_states(a, b, r).tolist() == [True]
        circle_n, circle = _circle_minimum(a, b, r)
        assert not axis_ties(_ce_many(a, b, r, _TIE_AXES), circle).any()
        n, value, _ = _minimize_many(a, b, r)
        assert sphere_calls == []
        np.testing.assert_array_equal(n, circle_n)
        assert value.tolist() == circle.tolist()
        assert abs(angles_from_direction(n[0])[0] / np.pi - 0.155) < 0.01
        assert abs(value[0] - sphere_minimum(a, b, r)[1][0]) <= 1e-15

    def test_each_state_takes_one_geometry(self, monkeypatch):
        # every state of a mixed stack reaches exactly one of the circle and
        # the sphere, the circle if and only if it is X-shaped
        states = TestBatchInvariance.mixed_stack()
        a, b, r = stacked_canonical(states)
        blocks = np.concatenate([a, b, r.reshape(-1, 9)], axis=1)
        assert len(np.unique(blocks, axis=0)) == len(a)
        reached = {"circle": np.zeros(len(a), dtype=int), "sphere": np.zeros(len(a), dtype=int)}

        def counted(name, solve):
            def recorded(a_k, b_k, r_k, *rest):
                for row in np.concatenate([a_k, b_k, r_k.reshape(-1, 9)], axis=1):
                    reached[name][(blocks == row).all(axis=1)] += 1
                return solve(a_k, b_k, r_k, *rest)
            return recorded

        monkeypatch.setattr(refine, "_circle_minimum", counted("circle", _circle_minimum))
        monkeypatch.setattr(refine, "_sphere_minimum", counted("sphere", _sphere_minimum))
        _minimize_many(a, b, r)
        x_shaped = _circle_states(a, b, r)
        assert 0 < x_shaped.sum() < len(a)
        assert reached["circle"].tolist() == x_shaped.astype(int).tolist()
        assert reached["sphere"].tolist() == (~x_shaped).astype(int).tolist()

    def test_mixed_stack_equals_each_state_alone(self):
        rng = np.random.default_rng(20261021)
        states = hs_states(171, 24) + [project_x_state(rho) for rho in hs_states(173, 24)]
        states += [off_axis_x_state(), bell_diagonal(0.5, 0.3, -0.2)] + pure_states(rng, 4)
        rng.shuffle(states)
        canonical = canonical_blocks(state_blocks(np.stack(states)))[1]
        a, b, r = canonical.a, canonical.b, canonical.r
        assert 0 < _circle_states(a, b, r).sum() < len(states)
        n, value, _ = _minimize_many(a, b, r)
        for s in range(len(states)):
            n1, value1, _ = _minimize_many(a[s:s + 1], b[s:s + 1], r[s:s + 1])
            np.testing.assert_array_equal(n[s], n1[0])
            assert value[s] == value1[0]

    @pytest.mark.parametrize("entry", ["r", "a", "b"])
    def test_detector_tolerance_pinned_at_its_boundary(self, entry, sphere_calls):
        # an off-diagonal R entry or a transverse component of a or b at the
        # bound takes the circle, the next double above it the hemisphere path
        a, b, r = canonical_stack(project_x_state(hs_states(7, 1)[0]))
        k = int(np.abs(a[0]).argmax())
        results = []
        for bound in (1e-13, np.nextafter(1e-13, 1.0)):
            blocks = {"a": a.copy(), "b": b.copy(), "r": r.copy()}
            if entry == "r":
                blocks["r"][0, k, (k + 1) % 3] = bound
            else:
                blocks[entry][0, (k + 1) % 3] = bound
            results.append(_minimize_many(blocks["a"], blocks["b"], blocks["r"]))
        assert sphere_calls == [1]  # the entry above the bound only
        (n_at, value_at, _), (n_above, value_above, _) = results
        np.testing.assert_array_equal(n_at, n_above)
        assert value_at == value_above

    @given(family=st.sampled_from(X_FAMILIES), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80)
    def test_circle_minimum_equals_sphere_minimum(self, family, seed):
        a, b, r = canonical_stack(x_state(family, seed))
        assert _circle_states(a, b, r).tolist() == [True]
        assert abs(_circle_minimum(a, b, r)[1][0] - sphere_minimum(a, b, r)[1][0]) <= 1e-15

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40)
    def test_near_pure_circle_minimum_equals_sphere_minimum(self, seed):
        # near a pure state CE can be flat to rounding noise over the whole
        # sphere but for a narrow dip near the pole z, a local maximum; from
        # the pole start, whose first radius is the circle's, the sphere path
        # reaches the circle's minimum within 2.8e-15 (seeds 0 to 1,499).
        # From a quarter turn at the pole it ended up to 6.3e-13 above
        a, b, r = canonical_stack(x_state("near_pure", seed))
        assert _circle_states(a, b, r).tolist() == [True]
        assert abs(_circle_minimum(a, b, r)[1][0] - sphere_minimum(a, b, r)[1][0]) <= 1e-14

    def test_pole_start_refined_off_the_pole(self):
        # this near-pure X-state's minimum lies 0.01 rad from the pole z, at
        # azimuth pi; at the pole, the third start, the gradient vanishes and
        # the Hessian is negative definite, so only a step along its lowest
        # eigenvector leaves.  The pole start alone and the sphere path both
        # end there
        a, b, r, starts, axis_values = axis_started(x_state("near_pure", 122))
        circle = _circle_minimum(a, b, r)[1][0]
        pole = _newton(a, b, r, starts[:, 2:], axis_values[:, 2:], _sphere_frame, _AXIS_RADII[2:])
        for n, value in ((pole[0][:, 0], pole[1][:, 0]), _sphere_minimum(a, b, r, axis_values)):
            assert value[0] < axis_values.min() - 1e-7
            assert abs(value[0] - circle) <= 1e-15
            assert 0.005 < np.arccos(abs(n[0, 2])) < 0.02


class TestNewtonRefinement:
    """The refinement ends at once on flat and pure inputs and within its
    iteration cap everywhere, and its tolerances are pinned at their bounds."""

    @pytest.fixture
    def derivative_calls(self, monkeypatch):
        """The number of states of each evaluation of the derivatives."""
        calls = []

        def recorded(a, b, r, n, frame):
            calls.append(len(a))
            return _tangent_derivatives(a, b, r, n, frame)

        monkeypatch.setattr(refine, "_tangent_derivatives", recorded)
        return calls

    @staticmethod
    def eigh_trust_step(grad, hess, radius):
        """Reference for refine._trust_step: the same three candidates in the
        eigenbasis that np.linalg.eigh gives, stacked, and the first lowest
        model taken."""
        lam, vec = np.linalg.eigh(hess)
        gt = (vec * grad[:, :, None]).sum(axis=1)
        definite = lam[:, :1] > 0.0
        newton = gt / np.where(definite, -lam, -1.0)
        newton *= radius[:, None] / np.maximum(np.linalg.norm(newton, axis=1), radius)[:, None]
        slope = (gt * gt).sum(axis=1)
        curvature = (lam * gt * gt).sum(axis=1)
        along = slope / np.maximum(np.maximum(slope * np.sqrt(slope) / radius, curvature),
                                   np.finfo(float).tiny)
        lowest = np.zeros_like(gt)
        lowest[:, 0] = np.where(gt[:, 0] > 0.0, -radius, radius)
        steps = np.stack([newton, along[:, None] * -gt, lowest], axis=1)
        model = (steps * (gt[:, None] + 0.5 * lam[:, None] * steps)).sum(axis=2)
        model[:, 0] = np.where(definite[:, 0], model[:, 0], np.inf)
        best = model.argmin(axis=1)
        rows = np.arange(len(best))
        return (vec * steps[rows, best][:, None]).sum(axis=2), -model[rows, best]

    @staticmethod
    def symmetric(rng, count, k):
        """Symmetric (count, k, k) matrices: random, diagonal, multiples of the
        identity and singular, at scales from 1e-6 to 1e3."""
        m = rng.standard_normal((count, k, k))
        m = m + m.swapaxes(1, 2)
        m[1::4] *= np.eye(k)
        m[2::4] = rng.standard_normal((len(m[2::4]), 1, 1)) * np.eye(k)
        v = rng.standard_normal((len(m[3::4]), k, 1))
        m[3::4] = v * v.swapaxes(1, 2) * rng.choice([-1.0, 1.0], (len(v), 1, 1))
        return m * 10.0 ** rng.uniform(-6.0, 3.0, (count, 1, 1))

    def test_lowest_eigenpair_closed_form(self):
        hess = self.symmetric(np.random.default_rng(20261019), 400, 2)
        low, vec = refine._lowest_eigenpair(hess)
        scale = np.abs(hess).max(axis=(1, 2))
        assert_allclose(low / scale, np.linalg.eigvalsh(hess)[:, 0] / scale, rtol=0, atol=1e-15)
        assert_allclose(np.linalg.norm(vec, axis=1), 1.0, rtol=1e-15)
        assert_allclose((hess @ vec[:, :, None])[:, :, 0] / scale[:, None],
                        vec * (low / scale)[:, None], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 2])
    def test_trust_step_equals_eigh_reference(self, k, monkeypatch):
        # the closed forms move steps and decreases by rounding only; a zero
        # gradient is left out, as there the lowest eigenvector's sign, which
        # eigh fixes by its own convention, picks the step
        rng = np.random.default_rng(20261020 + k)
        hess = self.symmetric(rng, 400, k)
        grad = rng.standard_normal((400, k)) * 10.0 ** rng.uniform(-8.0, 1.0, (400, 1))
        radius = 10.0 ** rng.uniform(-6.0, 0.0, 400)
        eigenpairs = []
        lowest_eigenpair = refine._lowest_eigenpair

        def counted(hess):
            eigenpairs.append(len(hess))
            return lowest_eigenpair(hess)

        monkeypatch.setattr(refine, "_lowest_eigenpair", counted)
        step, decrease = refine._trust_step(grad, hess, radius)
        ref_step, ref_decrease = self.eigh_trust_step(grad, hess, radius)
        assert_allclose(step / radius[:, None], ref_step / radius[:, None], rtol=0, atol=1e-12)
        # relative to the size of the model's terms, which cancel in it
        terms = np.linalg.norm(grad, axis=1) * radius + np.abs(hess).max(axis=(1, 2)) * radius ** 2
        assert (np.abs(decrease - ref_decrease) <= 1e-12 * terms).all()
        assert (np.linalg.norm(step, axis=1) <= radius * (1.0 + 1e-15)).all()
        # a state's step does not depend on the states beside it, and on the
        # sphere every call takes the lowest eigenpair, stacked or alone
        assert eigenpairs == ([400] if k == 2 else [])
        for i in range(0, 400, 7):
            del eigenpairs[:]
            alone = refine._trust_step(grad[i:i + 1], hess[i:i + 1], radius[i:i + 1])
            np.testing.assert_array_equal(alone[0][0], step[i])
            assert alone[1][0] == decrease[i]
            assert eigenpairs == ([1] if k == 2 else [])

    def test_trust_step_leaves_a_saddle_along_the_lowest_eigenvector(self):
        hess = np.array([[[1.0, 0.0], [0.0, -2.0]], [[-3.0, 1.0], [1.0, -3.0]]])
        radius = np.array([0.1, 0.2])
        step, decrease = refine._trust_step(np.zeros((2, 2)), hess, radius)
        lam, vec = np.linalg.eigh(hess)
        assert_allclose(np.abs((step[:, None] @ vec[:, :, :1])[:, 0, 0]), radius, rtol=1e-15)
        assert_allclose(decrease, -0.5 * lam[:, 0] * radius ** 2, rtol=1e-15)

    @pytest.mark.parametrize("family", ["hs", "rank2", "near_pure", "x_projected"])
    def test_derivatives_equal_finite_differences(self, family):
        # along the great circle cos(t) n + sin(t) e through n and a tangent e,
        # CE has the slope e.grad and the curvature e.hess.e at t = 0
        rng = np.random.default_rng(20261021)
        for seed in range(6):
            a, b, r = canonical_stack(family_state(family, seed))
            n = random_direction(rng)[None]
            for frame in (_sphere_frame, refine._circle_frame):
                if frame is refine._circle_frame:
                    n = np.array([[n[0, 0], 0.0, n[0, 2]]]) / np.hypot(n[0, 0], n[0, 2])
                w, g, rows, grad, hess = _tangent_derivatives(a, b, r, n, frame)
                np.testing.assert_array_equal(rows[:, -1], n)
                tangents = rows[0, :-1]
                assert_allclose(rows[0] @ rows[0].T, np.eye(len(rows[0])), rtol=0, atol=1e-15)
                # the value of the evaluation is the closed form's, bit for bit
                assert _branch_entropy(w, g)[0, 0] == _ce_many(a, b, r, n[:, :, None])[0, 0]
                h = 1e-4
                for i, e in enumerate(tangents):
                    for j, f in enumerate(tangents):
                        d = (e + f) / np.linalg.norm(e + f)
                        t = np.array([-h, 0.0, h])
                        ce = _ce_many(a, b, r, (np.cos(t)[:, None] * n + np.sin(t)[:, None] * d).T)[0]
                        curvature = (ce[0] - 2.0 * ce[1] + ce[2]) / h ** 2
                        c = tangents @ d
                        assert abs(curvature - c @ hess[0] @ c) <= 1e-5 * max(
                            1.0, np.abs(hess).max())
                        if i == j:
                            slope = (ce[2] - ce[0]) / (2.0 * h)
                            assert abs(slope - grad[0, i]) <= 1e-6 * max(1.0, np.abs(grad).max())

    @pytest.mark.parametrize("frame", [_sphere_frame, refine._circle_frame])
    def test_stacked_derivatives_have_the_closed_form_bits(self, frame):
        # 750 seed-7 HS states, each at a random unit direction and at the
        # three axes: 3,000 rows in one evaluation (the bit checks hold for
        # any unit n, on the circle or off it)
        a, b, r = stacked_canonical(hs_states(7, 750))
        rng = np.random.default_rng(20261020)
        dirs = rng.standard_normal((750, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        n = np.concatenate([dirs] + [np.tile(axis, (750, 1)) for axis in np.eye(3)])
        a, b, r = (np.concatenate([x, x, x, x]) for x in (a, b, r))
        stacked = _tangent_derivatives(a, b, r, n, frame)
        # every row's value is the closed form's, bit for bit
        np.testing.assert_array_equal(_branch_entropy(*stacked[:2]),
                                      _ce_many(a, b, r, n[:, :, None]))
        # and every row's outputs are those of that row alone
        for i in range(len(n)):
            alone = _tangent_derivatives(a[i:i + 1], b[i:i + 1], r[i:i + 1], n[i:i + 1], frame)
            for x, y in zip(alone, stacked, strict=True):
                assert x[0].tobytes() == y[i].tobytes()

    def test_flat_and_pure_states_leave_after_one_evaluation(self, derivative_calls):
        # CE is constant for Werner states, I/4 and product states, and 0 for
        # pure states
        rng = np.random.default_rng(20261022)
        states = [bell_diagonal(*np.full(3, -q)) for q in np.linspace(0.05, 0.95, 10)]
        states += [np.eye(4, dtype=complex) / 4, mixture_family(0.0)] + pure_states(rng, 10)
        # pure states, one evaluation of the three axis starts on the sphere
        # and of the one start on the circle
        for rho in states:
            a, b, r = canonical_stack(rho)
            paths = [(sphere_minimum, 3)]
            if _circle_states(a, b, r).any():
                paths.append((_circle_minimum, 1))
            for path, starts in paths:
                derivative_calls.clear()
                path(a, b, r)
                assert derivative_calls in ([], [starts])
        werner = canonical_stack(bell_diagonal(-0.5, -0.5, -0.5))
        assert axis_ties(_ce_many(*werner, _TIE_AXES), sphere_minimum(*werner)[1]).all()

    def test_no_state_reaches_the_iteration_cap(self, monkeypatch):
        iterations = []

        def newton(*args):
            iterations.append(0)
            return _newton(*args)

        def derivatives(*args):
            iterations[-1] += 1
            return _tangent_derivatives(*args)

        monkeypatch.setattr(refine, "_newton", newton)
        monkeypatch.setattr(refine, "_tangent_derivatives", derivatives)
        states = hs_states(181, 2000)
        states += [project_x_state(rho) for rho in states]
        canonical = canonical_blocks(state_blocks(np.stack(states)))[1]
        for k in range(0, len(states), 64):
            _minimize_many(*(x[k:k + 64] for x in (canonical.a, canonical.b, canonical.r)))
        for family in ("near_pure", "mirror"):
            a, b, r = (np.concatenate(blocks) for blocks in zip(
                *(canonical_stack(x_state(family, seed)) for seed in range(128))))
            for k in range(0, len(a), 64):
                _circle_minimum(a[k:k + 64], b[k:k + 64], r[k:k + 64])
                sphere_minimum(a[k:k + 64], b[k:k + 64], r[k:k + 64])
        assert len(iterations) > 64 and max(iterations) < MAX_ITERATIONS

    @pytest.mark.parametrize("geometry", ["sphere", "circle"])
    def test_iteration_cap_ends_starts_where_they_are(self, geometry, monkeypatch):
        # a start still active after MAX_ITERATIONS iterations ends at its
        # lowest point so far, alone as in a stack
        if geometry == "sphere":
            path = sphere_minimum
            states = hs_states(191, 48) + [family_state("near_pure", s) for s in range(16)]
        else:
            path = _circle_minimum
            states = [x_state(family, s) for family in X_FAMILIES + ("near_pure",)
                      for s in range(16)]
        canonical = canonical_blocks(state_blocks(np.stack(states)))[1]
        inputs = []
        with monkeypatch.context() as patch:
            patch.setattr(refine, "_newton", lambda *args: inputs.append(args) or _newton(*args))
            path(canonical.a, canonical.b, canonical.r)
        (a, b, r, n, value, frame, radius), = inputs
        unpatched = _newton(a, b, r, n, value, frame, radius)
        ends = {}
        for cap in (1, 2, 60):
            monkeypatch.setattr(refine, "MAX_ITERATIONS", cap)
            ends[cap] = _newton(a, b, r, n, value, frame, radius)
            assert (ends[cap][1] <= value).all()
            for s in range(len(a)):
                alone = _newton(a[s:s + 1], b[s:s + 1], r[s:s + 1], n[s:s + 1], value[s:s + 1],
                                frame, radius)
                for lone, stacked in zip(alone, ends[cap]):
                    assert lone[0].tobytes() == stacked[s].tobytes()
        # the cap of 1 cuts starts short after their first step, so its exit
        # is the one that stores where they are
        assert (ends[1][1] > unpatched[1]).any() and (ends[1][1] < value).any()
        assert (ends[2][1] <= ends[1][1]).all()
        for capped, free in zip(ends[60], unpatched):
            assert capped.tobytes() == free.tobytes()

    def test_starts_leave_once_their_state_settles_as_low(self, derivative_calls):
        # here the MCDM start ends lowest; the other two, on their way into
        # its minimum, leave when it stops, so the three take as many
        # evaluations as it alone
        a, b, r, starts, values = axis_started(hs_states(7, 3)[2])
        _newton(a, b, r, starts[:, :1], values[:, :1], _sphere_frame, SPHERE_RADIUS)
        alone = len(derivative_calls)
        derivative_calls.clear()
        ends = _newton(a, b, r, starts, values, _sphere_frame, _AXIS_RADII)[1][0]
        assert derivative_calls == [3] * alone and ends[0] < ends[1:].min()

    def test_start_heading_lower_outlives_a_stopped_one(self):
        # on this near-pure state the MCDM start stops in a local minimum
        # while the pole start, 3.5e-8 above it, is on its way into a basin
        # 1.6e-7 lower; its model promises far more than that gap, so it goes
        # on, and the solve reaches the refined dense scan's minimum
        a, b, r, starts, values = axis_started(family_state("near_pure", 492))
        ends = _newton(a, b, r, starts, values, _sphere_frame, _AXIS_RADII)[1][0]
        assert ends.argmin() == 2 and ends[0] - ends[2] > 1e-7
        dense = TestAxisStarts.refined_dense_scan(a, b, r)
        assert abs(_minimize_many(a, b, r)[1][0] - dense) <= 1e-14

    def test_decrease_stop_pinned_at_its_boundary(self, monkeypatch, derivative_calls):
        # a first step that promises DECREASE_STOP ends the refinement, one
        # that promises the next double above it is taken
        a, b, r, n, value = axis_started(hs_states(7, 1)[0])
        trust_step = refine._trust_step
        counts = []
        for promised in (DECREASE_STOP, np.nextafter(DECREASE_STOP, 1.0)):
            promises = [promised]

            def forced(grad, hess, radius):
                step, decrease = trust_step(grad, hess, radius)
                return step, np.full_like(decrease, promises.pop()) if promises else decrease

            monkeypatch.setattr(refine, "_trust_step", forced)
            derivative_calls.clear()
            _newton(a, b, r, n, value, _sphere_frame, _AXIS_RADII)
            counts.append(len(derivative_calls))
        assert counts[0] == 1 and counts[1] > 1

    def test_ce_floor_pinned_at_its_boundary(self, derivative_calls):
        # CE >= 0, so a value at CE_FLOOR is final; the next double above it
        # is refined
        a, b, r, n, _ = axis_started(hs_states(7, 1)[0])
        n1, value1 = _newton(a, b, r, n, np.full((1, 3), CE_FLOOR), _sphere_frame, _AXIS_RADII)
        assert derivative_calls == [] and (n1 == n).all() and (value1 == CE_FLOOR).all()
        _newton(a, b, r, n, np.full((1, 3), np.nextafter(CE_FLOOR, 1.0)), _sphere_frame,
                _AXIS_RADII)
        assert derivative_calls[0] == 3

    def test_x_cap_pinned_at_its_boundary(self):
        # Bell-diagonal blocks R = diag(rho, 0, 0) have g/w = rho at n = x, where
        # the gradient vanishes and the Hessian is rho artanh(g/w)/ln 2 times
        # the identity; from X_CAP up to the pure state rho = 1 the derivatives
        # read g/w as X_CAP
        n = X[None]
        zeros = np.zeros((1, 3))
        for rho in (X_CAP, np.nextafter(X_CAP, 1.0), 1.0):
            grad, hess = _tangent_derivatives(zeros, zeros, np.diag([rho, 0.0, 0.0])[None], n,
                                              _sphere_frame)[3:]
            assert (grad == 0.0).all()
            assert_allclose(hess[0] / rho, np.arctanh(X_CAP) / np.log(2.0) * np.eye(2),
                            rtol=1e-14, atol=0)
        # uncapped, the double above X_CAP would read artanh higher by 5.5e-5
        assert np.arctanh(np.nextafter(X_CAP, 1.0)) - np.arctanh(X_CAP) > 1e-5


class TestZeroDiscord:
    def test_witness_for_cq_state(self, rng):
        rho0, rho1 = random_qubit_state(rng), random_qubit_state(rng)
        rho = construct_zero_discord([0.5, 0.5], Z, (rho0, rho1))
        n = zero_discord_witness(state_blocks(rho))
        assert n is not None
        assert abs(abs(n @ Z) - 1.0) < 1e-10

    def test_no_witness_for_bell_state(self):
        assert zero_discord_witness(state_blocks(bell_psi_plus())) is None

    def test_witness_soundness(self, rng):
        # witness found => the dephasing along it reproduces the state and the
        # optimizer attains its minimum there
        for i in range(50):
            local = np.random.default_rng([107, i])
            p1 = local.uniform(0, 1)
            n = random_direction(local)
            rho = construct_zero_discord(
                [p1, 1 - p1], n,
                (random_qubit_state(local), random_qubit_state(local)))
            witness = zero_discord_witness(state_blocks(rho))
            assert witness is not None
            pr1, pr2 = projectors(witness)
            dephased = sum(np.kron(p, np.eye(2)) @ rho @ np.kron(p, np.eye(2))
                           for p in (pr1, pr2))
            assert np.max(np.abs(dephased - rho)) < 1e-9
            _, ce_min = minimize_conditional_entropy(rho)
            ce_at_witness = conditional_entropy_closed(state_blocks(rho), witness)
            assert abs(ce_at_witness - ce_min) < 1e-9

    def test_witness_absent_on_random_states(self):
        # Hilbert-Schmidt random states are almost surely discordant
        absent = 0
        for rho in hs_states(109, 1000):
            if zero_discord_witness(state_blocks(rho)) is None:
                absent += 1
        assert absent == 1000

    def test_random_states_have_positive_discord(self):
        for rho in hs_states(113, 100):
            assert quantum_discord(rho).discord > 1e-6

    def test_canonical_witness_is_x(self, rng):
        for i in range(20):
            local = np.random.default_rng([127, i])
            rho = construct_zero_discord(
                [0.25, 0.75], random_direction(local),
                (random_qubit_state(local), random_qubit_state(local)))
            decomp = to_canonical(rho)
            witness = zero_discord_witness(state_blocks(decomp.canonical_state))
            assert witness is not None
            lam1 = decomp.lambda_diag[0]
            if lam1 > 1e-8:  # with vanishing correlations any axis qualifies
                assert abs(abs(witness @ X) - 1.0) < 1e-8

    def test_vanishing_tolerance_pinned_at_its_boundary(self):
        # R or a of norm WITNESS_VANISHING_TOL along z vanishes, and the witness
        # is x; one double more and z is the witness
        for on_r in (True, False):
            for norm, witness in ((WITNESS_VANISHING_TOL, X),
                                  (np.nextafter(WITNESS_VANISHING_TOL, 1.0), Z)):
                a, r = (np.zeros(3), norm * np.outer(Z, Z)) if on_r else (norm * Z, np.zeros((3, 3)))
                blocks = BlockDecomposition(a=a, b=np.zeros(3), r=r)
                np.testing.assert_array_equal(zero_discord_witness(blocks), witness)

    def test_witness_tolerance_pinned_at_its_boundary(self):
        # for the candidate x, R = diag(1, e, 0) leaves n n^T R - R, and
        # a = (0, e, 0) leaves n n^T a - a, with one entry of size e
        for e, found in ((WITNESS_TOL, True), (np.nextafter(WITNESS_TOL, 1.0), False)):
            for a, r in ((np.zeros(3), np.diag([1.0, e, 0.0])), (e * Y, np.diag([1.0, 0.0, 0.0]))):
                witness = zero_discord_witness(BlockDecomposition(a=a, b=np.zeros(3), r=r))
                if found:
                    np.testing.assert_array_equal(witness, X)
                else:
                    assert witness is None

    def test_construct_validates(self, rng):
        good = (random_qubit_state(rng), random_qubit_state(rng))
        with pytest.raises(ValidationError):
            construct_zero_discord([0.5, 0.6], Z, good)
        with pytest.raises(ValidationError):
            construct_zero_discord([-0.1, 1.1], Z, good)
        with pytest.raises(ValidationError):
            construct_zero_discord([np.nan, 1.0], Z, good)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_probability_sum_tolerance_pinned_at_its_boundary(self, rng, side):
        # sums near 1 are doubles spaced 2^-52 above 1 and 2^-53 below, so a
        # sum's deviation from 1 is exact: the sum farthest from 1 within
        # PROBABILITY_SUM_TOL is accepted, the next double out is not
        good = (random_qubit_state(rng), random_qubit_state(rng))
        ulp = np.spacing(1.0) if side > 0 else np.spacing(1.0) / 2
        inside = 1.0 + side * ulp * math.floor(PROBABILITY_SUM_TOL / ulp)
        outside = np.nextafter(inside, side * np.inf)
        assert abs(inside - 1.0) <= PROBABILITY_SUM_TOL < abs(outside - 1.0)
        for total, accepted in ((inside, True), (outside, False)):
            p = np.array([0.5, total - 0.5])
            assert p.sum() == total
            if accepted:
                construct_zero_discord(p, Z, good)
            else:
                with pytest.raises(ValidationError):
                    construct_zero_discord(p, Z, good)

    def test_construct_trivial_cases(self, rng):
        rho0, rho1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        cc = construct_zero_discord([0.5, 0.5], Z, (rho0, rho1))
        assert_allclose(cc, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15)
        prod = construct_zero_discord([1.0, 0.0], Z, (rho0, rho1))
        assert_allclose(prod, np.kron(np.diag([1.0, 0.0]), rho0), atol=1e-15)
