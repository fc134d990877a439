"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
runtime budget and prints one pass/fail line (visible with ``pytest -s``).
The full-scale 100,000-sample reproduction is marked ``full`` and excluded
from the default run; invoke it with ``pytest -m full``.
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_direction, random_qubit_state, random_unitary
from qdiscord import (SeededGenerator, angles_from_direction,
                      bell_diagonal_classical_correlation, classical_correlation,
                      conditional_entropy_closed, conditional_entropy_direct,
                      construct_zero_discord, correlation_matrix,
                      direction_from_angles, minimize_conditional_entropy,
                      off_axis_x_state, project_x_state, quantum_discord,
                      random_hs_state, reconstruct, state_blocks, to_canonical,
                      zero_discord_witness)
from qdiscord.canonical import canonical_blocks
from qdiscord.cli import main
from qdiscord.experiments import (ExperimentConfig, _hs_states, bound_scatter,
                                  optimal_direction_clusters)
from qdiscord.measures import (_TIE_AXES, VALUE_TIE_TOL, _ce_many, _circle_minimum,
                               _circle_states)

WORKERS = min(4, os.cpu_count() or 1)
X_AXIS = np.array([1.0, 0.0, 0.0])


@contextmanager
def criterion(number, description, budget_seconds, clock=time.perf_counter):
    """Run the block as criterion ``number`` within ``budget_seconds`` of ``clock``:
    wall time by default, or ``time.process_time`` for this process's CPU time,
    which other processes on the host do not inflate."""
    unit = "s CPU" if clock is time.process_time else "s"
    start = clock()
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = clock() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.1f}{unit} >= "
        f"{budget_seconds}{unit}")
    print(f"criterion {number}: PASS in {elapsed:.1f}{unit} (budget {budget_seconds:.0f}{unit})"
          f" - {description}")


def random_bell_diagonal_coefficients(rng):
    while True:
        c = rng.uniform(-1.0, 1.0, 3)
        eigs = np.array([1 - c[0] - c[1] - c[2], 1 - c[0] + c[1] + c[2],
                         1 + c[0] - c[1] + c[2], 1 + c[0] + c[1] - c[2]])
        if eigs.min() >= 0.0:
            return c


def test_criterion_1_closed_form_oracle_equivalence():
    with criterion(1, "closed form matches direct diagonalization to 1e-10 "
                      "on 1000 states x 20 directions", 10.0, clock=time.process_time):
        gen = SeededGenerator(101)
        worst = 0.0
        for index in range(1000):
            rho = random_hs_state(gen)
            blocks = state_blocks(rho)
            rng = np.random.default_rng([102, index])
            for _ in range(20):
                n = random_direction(rng)
                gap = abs(conditional_entropy_closed(blocks, n)
                          - conditional_entropy_direct(rho, n))
                worst = max(worst, gap)
        assert worst <= 1e-10, f"max closed/direct gap {worst:.3e}"


def test_criterion_2_reference_x_state():
    with criterion(2, "reference X-state: correlation triple, off-axis optimum "
                      "near 0.155 pi, phi-independence", 1.0):
        rho = off_axis_x_state()
        lam = np.diag(correlation_matrix(rho))
        assert np.max(np.abs(lam - np.array([0.2, 0.2, 0.1479]))) <= 1e-3

        n_opt, _ = minimize_conditional_entropy(rho)
        theta, _ = angles_from_direction(n_opt)
        assert abs(theta - 0.155 * math.pi) <= 0.01 * math.pi

        blocks = state_blocks(rho)
        sweep = [conditional_entropy_closed(blocks, direction_from_angles(theta, phi))
                 for phi in np.linspace(-math.pi / 2, math.pi / 2, 64, endpoint=False)]
        assert max(sweep) - min(sweep) <= 1e-9


def test_criterion_3_bell_diagonal_analytic_agreement():
    with criterion(3, "numerical classical correlation matches the Bell-diagonal "
                      "closed form; canonical optima sit on the x axis", 30.0):
        rng = np.random.default_rng(333)
        canonical_seen = 0
        for _ in range(1000):
            c = random_bell_diagonal_coefficients(rng)
            rho = reconstruct(np.diag([1.0, c[0], c[1], c[2]]))
            n_opt, ce_min = minimize_conditional_entropy(rho)
            numeric = 1.0 - ce_min
            assert abs(numeric - bell_diagonal_classical_correlation(c)) <= 1e-6
            if c[0] >= c[1] >= abs(c[2]):
                canonical_seen += 1
                axis_angle = math.acos(min(1.0, abs(float(n_opt @ X_AXIS))))
                assert axis_angle <= 1e-4
        assert canonical_seen >= 20  # the canonical sub-ensemble is populated


def test_criterion_4_zero_discord_soundness():
    with criterion(4, "constructed zero-discord states: witness found, discord "
                      "vanishes, canonical optimum equals the MCDM value", 60.0):
        for index in range(500):
            rng = np.random.default_rng([444, index])
            p1 = float(rng.uniform(0.0, 1.0))
            rho = construct_zero_discord(
                [p1, 1.0 - p1], random_direction(rng),
                (random_qubit_state(rng), random_qubit_state(rng)))

            witness = zero_discord_witness(state_blocks(rho))
            assert witness is not None, f"no witness for constructed state {index}"

            report = quantum_discord(rho)
            assert report.discord <= 1e-6

            decomp = to_canonical(rho)
            _, ce_min = minimize_conditional_entropy(decomp.canonical_state)
            ce_mcdm = conditional_entropy_closed(
                state_blocks(decomp.canonical_state), X_AXIS)
            assert abs(ce_min - ce_mcdm) <= 1e-9


def test_criterion_5_x_state_cluster_table():
    with criterion(5, "random X-states: optimal measurements cluster at the "
                      "maximal-correlation measurement", 600.0):
        rows = optimal_direction_clusters(
            ExperimentConfig(samples=10000, seed=7, workers=WORKERS))
        total = sum(pct for _, _, pct in rows)
        assert total == pytest.approx(100.0, abs=1e-9)

        theta0, phi0, pct0 = rows[0]
        assert abs(theta0 - 0.5) <= 1e-9 and abs(phi0) <= 1e-9
        assert 98.0 <= pct0 <= 100.0, f"dominant cluster holds {pct0:.2f}%"
        # every state's minimum on its great circle (the exact 1-D reduction of
        # an X-state) ties a coordinate axis, so there is no off-axis optimum
        # and every cluster is an axis: x, then y at (pi/2, -pi/2), then z
        config = ExperimentConfig(samples=10000, seed=7)
        canonical = canonical_blocks(state_blocks(project_x_state(
            _hs_states(config, range(config.samples)))))[1]
        a, b, r = canonical.a, canonical.b, canonical.r
        assert _circle_states(a, b, r).all()
        ties = _ce_many(a, b, r, _TIE_AXES) <= _circle_minimum(a, b, r)[1][:, None] + VALUE_TIE_TOL
        assert int((~ties.any(axis=1)).sum()) == 0, "interior circle optima"
        assert [(theta, phi) for theta, phi, _ in rows] == [(0.5, 0.0), (0.5, -0.5), (0.0, 0.0)]


def test_criterion_6_bound_quality_desk_scale():
    with criterion(6, "10k random states: the upper bound never undercuts the "
                      "discord and the mean squared gap stays below 1e-4", 600.0):
        rows, mean_sq = bound_scatter(
            ExperimentConfig(samples=10000, seed=42, workers=WORKERS))
        for _, d, dt in rows:
            assert dt >= d - 1e-9
        assert mean_sq <= 1e-4, f"mean squared gap {mean_sq:.3e}"
        print(f"  mean squared gap at 10k samples: {mean_sq:.4e}")


@pytest.mark.full
def test_criterion_6_bound_quality_full_scale():
    # the 100,000-sample run must land inside the published bracket
    rows, mean_sq = bound_scatter(
        ExperimentConfig(samples=100000, seed=42, workers=WORKERS))
    assert all(dt >= d - 1e-9 for _, d, dt in rows)
    assert 1e-5 <= mean_sq <= 8e-5, f"mean squared gap {mean_sq:.4e}"
    print(f"criterion 6 (full scale): PASS - mean squared gap {mean_sq:.4e}")


def test_criterion_7_decomposition_identity_and_positivity():
    with criterion(7, "5000 random states: discord + classical = mutual "
                      "information, all three non-negative", 300.0):
        gen = SeededGenerator(4242)
        for _ in range(5000):
            r = quantum_discord(random_hs_state(gen))
            residual = abs(r.discord + r.classical_correlation - r.mutual_information)
            assert residual <= 1e-12
            assert r.discord >= -1e-9 and r.discord >= 0.0
            assert r.classical_correlation >= 0.0
            assert r.mutual_information >= 0.0


def test_criterion_8_local_unitary_invariance():
    with criterion(8, "discord is invariant under random local unitaries "
                      "to 1e-7 on 500 states", 300.0):
        gen = SeededGenerator(555)
        for index in range(500):
            rho = random_hs_state(gen)
            rng = np.random.default_rng([556, index])
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            rotated = (rotated + rotated.conj().T) / 2.0
            d0 = quantum_discord(rho).discord
            d1 = quantum_discord(rotated).discord
            assert abs(d0 - d1) <= 1e-7


def test_criterion_9_worker_count_determinism(tmp_path):
    with criterion(9, "table1 output is byte-identical for 1 and 8 workers", 120.0):
        single = tmp_path / "w1.csv"
        eight = tmp_path / "w8.csv"
        assert main(["table1", "--samples", "1000", "--seed", "7",
                     "--workers", "1", "--out", str(single)]) == 0
        assert main(["table1", "--samples", "1000", "--seed", "7",
                     "--workers", "8", "--out", str(eight)]) == 0
        assert single.read_bytes() == eight.read_bytes()
