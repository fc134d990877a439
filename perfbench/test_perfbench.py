"""Fast self-tests of the benchmark: the oracle against closed forms, and the
output checks against corrupted outputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

from qdiscord import SeededGenerator, cli, quantum_discord, random_hs_state  # noqa: E402


def random_state(k: int) -> np.ndarray:
    return random_hs_state(SeededGenerator(2024, start=k))


def oracle_classical(rho) -> float:
    return oracle.entropies(rho)[1] - oracle.minimum(rho)[1]


@pytest.mark.parametrize("k", range(4))
def test_oracle_matches_luo_bell_diagonal_formula(k):
    c = np.random.default_rng(k).dirichlet(np.ones(4)) @ oracle.BELL_TRIPLES
    rho = oracle.bell_diagonal_state(c)
    assert abs(oracle_classical(rho) - oracle.luo_classical_correlation(c)) < 1e-9


def test_oracle_product_state_has_no_correlations():
    rng = np.random.default_rng(7)
    rho_a, rho_b = (corpus._qubit(corpus._random_bloch(rng, r)) for r in (0.6, 0.3))
    rho = np.kron(rho_a, rho_b)
    values = oracle.conditional_entropy(rho, oracle.hemisphere_scan(50))
    assert np.allclose(values, oracle.entropy(rho_b), atol=1e-12)
    assert abs(oracle.mutual_information(rho)) < 1e-12
    assert abs(oracle_classical(rho)) < 1e-12


def test_oracle_pure_state_discord_is_marginal_entropy():
    rho = corpus._mixed(np.random.default_rng(3), 1)
    s_a = oracle.entropy(oracle.marginal(rho, "A"))
    discord = oracle.mutual_information(rho) - oracle_classical(rho)
    assert abs(discord - s_a) < 1e-9


def test_corpus_closed_forms_agree_with_oracle():
    for entry in corpus.build(11):
        if entry.expect_exit:
            assert np.isnan(entry.rho).any()
            continue
        mutual = oracle.mutual_information(entry.rho)
        classical = oracle_classical(entry.rho)
        found = {"classical_correlation": classical, "discord": mutual - classical,
                 "mutual_information": mutual}
        for key, value in entry.expect.items():
            if key in found:
                assert abs(found[key] - value) < 1e-9, (entry.name, key)


def test_corpus_files_round_trip_exactly(tmp_path):
    from qdiscord import parse_state_text
    entries = corpus.build(5)
    for entry, path in zip(entries, corpus.write(entries, tmp_path)):
        parsed = parse_state_text(path.read_text())
        assert np.array_equal(parsed, entry.rho, equal_nan=True)


def test_check_report_accepts_program_and_rejects_swapped_bound():
    rho = random_state(0)
    rep = checks.report_fields(quantum_discord(rho))
    checks.check_report(rho, rep, "state")
    assert rep["discord"] < rep["mcdm_discord"]
    swapped = dict(rep, discord=rep["mcdm_discord"], mcdm_discord=rep["discord"])
    with pytest.raises(checks.CheckFailed):
        checks.check_report(rho, swapped, "state")


def test_check_minimum_rejects_a_value_above_the_optimum():
    rho = random_state(1)
    rep = quantum_discord(rho)
    with pytest.raises(checks.CheckFailed):
        checks.check_minimum(rho, rep.optimal_direction, rep.min_conditional_entropy + 1e-6, "s")


def run_cli(tmp_path, *argv) -> str:
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def test_check_scatter_rejects_swapped_columns_and_wrong_gap(tmp_path):
    text = run_cli(tmp_path, "scatter", "--samples", "6", "--seed", "3")
    reports = {k: checks.report_fields(quantum_discord(random_hs_state(SeededGenerator(3, start=k))))
               for k in (0, 4)}
    checks.check_scatter(text, 6, reports, "scatter")

    lines = text.splitlines()
    swapped = [lines[0]] + [",".join([r.split(",")[0], r.split(",")[2], r.split(",")[1]])
                            for r in lines[1:-1]] + [lines[-1]]
    with pytest.raises(checks.CheckFailed):
        checks.check_scatter("\n".join(swapped) + "\n", 6, {}, "scatter")

    gap = float(lines[-1].split("=")[1])
    wrong = "\n".join(lines[:-1] + [f"# mean_squared_gap = {gap * 1.001:.12g}"]) + "\n"
    with pytest.raises(checks.CheckFailed):
        checks.check_scatter(wrong, 6, {}, "scatter")


def test_check_table1_rejects_a_table_missing_one_state(tmp_path):
    text = run_cli(tmp_path, "table1", "--samples", "20", "--seed", "3")
    checks.check_table1(text, 20, 0.01, [np.array([1.0, 0.0, 0.0])], "table1")
    header, first, *rest = text.splitlines()
    theta, phi, pct = first.split(",")
    short = "\n".join([header, f"{theta},{phi},{float(pct) - 5.0:.12g}", *rest]) + "\n"
    with pytest.raises(checks.CheckFailed):
        checks.check_table1(short, 20, 0.01, [], "table1")
    with pytest.raises(checks.CheckFailed):
        checks.check_table1(text, 20, 0.01, [np.array([0.0, 0.6, 0.8])], "table1")


def test_check_histogram_rejects_counts_that_miss_a_state(tmp_path):
    text = run_cli(tmp_path, "histogram", "--samples", "8", "--seed", "3")
    checks.check_histogram(text, 8, (100, 100), [], "histogram")
    with pytest.raises(checks.CheckFailed):
        checks.check_histogram(text, 9, (100, 100), [], "histogram")


def test_tracer_counts_eigen_solves_repeatably_and_restores():
    import qdiscord.measures as measures
    original = measures.quantum_discord
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            measures.quantum_discord(random_state(2))
        spans = tracer.by_name()[("pipeline", "discord")]
        counts.append(spans[0].eig)
    assert counts[0] == counts[1] > 0
    assert measures.quantum_discord is original


def test_speed_probe_fires_and_keeps_its_time_out_of_the_clock():
    with speed.SpeedProbe() as probe:
        start = probe.clock()
        end = start
        while probe.count < 5:
            end = probe.clock()
    assert probe.count >= 5 and math.isfinite(probe.factor())
    assert end - start > 0.0
