"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
runtime budget and prints one pass/fail line (visible with ``pytest -s``).

The criteria run stacked, through the calls that the pipelines make: the
draw of a stream's states is one ``experiments._hs_states`` call, and the
reports of many states are one ``measures._discord_reports`` call.  Each
stacked row has the bits of the lone public call, which
``TestStackedDraw`` (draws) and ``TestBatchInvariance`` (solves) pin, and
each criterion also checks every 100th state against its lone call.
"""

import hashlib
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_direction, random_qubit_state, random_unitary
from qdiscord import (SeededGenerator, angles_from_direction,
                      bell_diagonal_classical_correlation,
                      conditional_entropy_closed, conditional_entropy_direct,
                      construct_zero_discord, correlation_matrix,
                      direction_from_angles, minimize_conditional_entropy,
                      off_axis_x_state, project_x_state, quantum_discord,
                      random_hs_state, reconstruct, state_blocks, to_canonical,
                      zero_discord_witness)
from qdiscord.canonical import canonical_blocks
from qdiscord.cli import main
from qdiscord.closed_form import _ce_many
from qdiscord.experiments import (SCATTER_HEADER, ExperimentConfig, _hs_states,
                                  bound_scatter, optimal_direction_clusters, render_csv)
from qdiscord.measures import _discord_reports
from qdiscord.oracle import _ce_direct
from qdiscord.refine import _TIE_AXES, VALUE_TIE_TOL, _circle_minimum, _circle_states

WORKERS = min(4, os.cpu_count() or 1)
X_AXIS = np.array([1.0, 0.0, 0.0])
# SHA-256 of the text of `qdiscord scatter --samples 100000 --seed 42`
SCATTER_100K_SEED42_SHA256 = "dbcfa58175f74d8104a9e66807b1ec56f42a9411069bdb8ca989094d6e3246bf"


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


def same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def assert_report_row(stacked, k, lone):
    """Row ``k`` of the stacked report is the lone report, bit for bit."""
    for name, value in vars(lone).items():
        assert same_bits(getattr(stacked, name)[k], value), name


def test_criterion_1_closed_form_oracle_equivalence():
    with criterion(1, "closed form matches direct diagonalization to 1e-10 "
                      "on 1000 states x 20 directions", 10.0, clock=time.process_time):
        rhos = _hs_states(ExperimentConfig(seed=101), range(1000))
        dirs = np.array([[random_direction(rng) for _ in range(20)]
                         for rng in (np.random.default_rng([102, k]) for k in range(1000))])
        direct = np.stack([_ce_direct(rho, n) for rho, n in zip(rhos, dirs)])
        # one call per direction slot, each state at its own direction: a
        # state's 20 directions in one call can round differently in the last bit
        blocks = state_blocks(rhos)
        closed = np.stack([_ce_many(blocks.a, blocks.b, blocks.r, dirs[:, j, :, None])[:, 0]
                           for j in range(20)], axis=1)
        worst = np.abs(closed - direct).max()
        assert worst <= 1e-10, f"max closed/direct gap {worst:.3e}"
        for k in range(0, 1000, 100):
            rho = random_hs_state(SeededGenerator(101, start=k))
            assert same_bits(rho, rhos[k])
            for n, ce_closed, ce_direct in zip(dirs[k], closed[k], direct[k]):
                assert same_bits(conditional_entropy_closed(state_blocks(rho), n), ce_closed)
                assert same_bits(conditional_entropy_direct(rho, n), ce_direct)


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
        coefficients = [random_bell_diagonal_coefficients(rng) for _ in range(1000)]
        rhos = np.stack([reconstruct(np.diag([1.0, c[0], c[1], c[2]])) for c in coefficients])
        report = _discord_reports(rhos)
        numeric = 1.0 - report.min_conditional_entropy
        analytic = np.array([bell_diagonal_classical_correlation(c) for c in coefficients])
        assert np.abs(numeric - analytic).max() <= 1e-6
        canonical = np.array([c[0] >= c[1] >= abs(c[2]) for c in coefficients])
        axis_angles = [math.acos(min(1.0, abs(x)))
                       for x in (report.optimal_direction[canonical] @ X_AXIS).tolist()]
        assert max(axis_angles) <= 1e-4
        assert canonical.sum() >= 20  # the canonical sub-ensemble is populated
        for k in range(0, 1000, 100):
            n_opt, ce_min = minimize_conditional_entropy(rhos[k])
            assert same_bits(n_opt, report.optimal_direction[k])
            assert same_bits(ce_min, report.min_conditional_entropy[k])


def test_criterion_4_zero_discord_soundness():
    with criterion(4, "constructed zero-discord states: witness found, discord "
                      "vanishes, canonical optimum equals the MCDM value", 60.0):
        states, canonical_states = [], []
        for index in range(500):
            rng = np.random.default_rng([444, index])
            p1 = float(rng.uniform(0.0, 1.0))
            rho = construct_zero_discord(
                [p1, 1.0 - p1], random_direction(rng),
                (random_qubit_state(rng), random_qubit_state(rng)))

            witness = zero_discord_witness(state_blocks(rho))
            assert witness is not None, f"no witness for constructed state {index}"
            states.append(rho)
            canonical_states.append(to_canonical(rho).canonical_state)

        report = _discord_reports(np.stack(states))
        assert report.discord.max() <= 1e-6

        canonical = np.stack(canonical_states)
        ce_min = _discord_reports(canonical).min_conditional_entropy
        blocks = state_blocks(canonical)
        ce_mcdm = _ce_many(blocks.a, blocks.b, blocks.r, X_AXIS[:, None])[:, 0]
        assert np.abs(ce_min - ce_mcdm).max() <= 1e-9
        for k in range(0, 500, 100):
            assert_report_row(report, k, quantum_discord(states[k]))
            assert same_bits(minimize_conditional_entropy(canonical[k])[1], ce_min[k])
            assert same_bits(conditional_entropy_closed(state_blocks(canonical[k]), X_AXIS),
                             ce_mcdm[k])


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


def test_criterion_6_bound_quality():
    with criterion(6, "100k random states: the upper bound never undercuts the discord, the "
                      "mean squared gap lies in the published [1e-5, 8e-5] and, over the "
                      "first 10k, stays below 1e-4", 600.0):
        rows, mean_sq = bound_scatter(
            ExperimentConfig(samples=100000, seed=42, workers=WORKERS))
        for _, d, dt in rows:
            assert dt >= d - 1e-9
        assert 1e-5 <= mean_sq <= 8e-5, f"mean squared gap {mean_sq:.4e}"
        # state k depends only on (seed, k): the first 10,000 rows are the rows
        # of the 10,000-sample run, bit for bit, and this is its mean
        desk_sq = math.fsum((dt - d) ** 2 for _, d, dt in rows[:10000]) / 10000
        assert desk_sq <= 1e-4, f"mean squared gap over the first 10k {desk_sq:.3e}"
        text = render_csv(SCATTER_HEADER, rows, summary=f"# mean_squared_gap = {mean_sq:.12g}")
        assert hashlib.sha256(text.encode()).hexdigest() == SCATTER_100K_SEED42_SHA256
        print(f"  mean squared gap: {desk_sq:.4e} at 10k samples, {mean_sq:.4e} at 100k")


def test_criterion_7_decomposition_identity_and_positivity():
    with criterion(7, "5000 random states: discord + classical = mutual "
                      "information, all three non-negative", 300.0):
        r = _discord_reports(_hs_states(ExperimentConfig(seed=4242), range(5000)))
        residual = np.abs(r.discord + r.classical_correlation - r.mutual_information)
        assert residual.max() <= 1e-12
        assert r.discord.min() >= -1e-9 and r.discord.min() >= 0.0
        assert r.classical_correlation.min() >= 0.0
        assert r.mutual_information.min() >= 0.0
        for k in range(0, 5000, 100):
            assert_report_row(r, k, quantum_discord(random_hs_state(SeededGenerator(4242, start=k))))


def test_criterion_8_local_unitary_invariance():
    with criterion(8, "discord is invariant under random local unitaries "
                      "to 1e-7 on 500 states", 300.0):
        rhos = _hs_states(ExperimentConfig(seed=555), range(500))
        rotated = []
        for index, rho in enumerate(rhos):
            rng = np.random.default_rng([556, index])
            u = np.kron(random_unitary(rng), random_unitary(rng))
            turned = u @ rho @ u.conj().T
            rotated.append((turned + turned.conj().T) / 2.0)
        d0 = _discord_reports(rhos).discord
        d1 = _discord_reports(np.stack(rotated)).discord
        assert np.abs(d0 - d1).max() <= 1e-7
        for k in range(0, 500, 100):
            rho = random_hs_state(SeededGenerator(555, start=k))
            assert same_bits(quantum_discord(rho).discord, d0[k])
            assert same_bits(quantum_discord(rotated[k]).discord, d1[k])


def test_criterion_9_worker_count_determinism(tmp_path):
    with criterion(9, "table1 output is byte-identical for 1 and 8 workers", 120.0):
        single = tmp_path / "w1.csv"
        eight = tmp_path / "w8.csv"
        assert main(["table1", "--samples", "1000", "--seed", "7",
                     "--workers", "1", "--out", str(single)]) == 0
        assert main(["table1", "--samples", "1000", "--seed", "7",
                     "--workers", "8", "--out", str(eight)]) == 0
        assert single.read_bytes() == eight.read_bytes()
