"""Checks of the program's outputs against the oracle and the properties the
outputs must have.  Every check raises :class:`CheckFailed` with a message
naming the output and the value that is wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle

# agreement required between the program and the oracle, in bits
TOL = 1e-9
# CSV values carry 12 significant digits; every value lies in [0, 2]
PRINT_TOL = 1e-11
# discord <= mcdm_discord holds exactly up to the rounding of two sums
ORDER_TOL = 1e-12


class CheckFailed(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def report_fields(report) -> dict:
    """The fields of a ``DiscordReport`` under the keys of ``qdiscord discord --json``."""
    return {
        "mutual_information": report.mutual_information,
        "classical_correlation": report.classical_correlation,
        "discord": report.discord,
        "mcdm_discord": report.mcdm_discord,
        "optimal_direction": [float(x) for x in report.optimal_direction],
        "min_conditional_entropy": report.min_conditional_entropy,
        "mcdm_conditional_entropy": report.mcdm_conditional_entropy,
        "mcdm_direction": [float(x) for x in report.mcdm_direction],
    }


def _unit(vector, label: str) -> np.ndarray:
    v = np.asarray(vector, dtype=float)
    require(v.shape == (3,) and abs(np.linalg.norm(v) - 1.0) <= 1e-12,
            f"{label}: {vector!r} is not a unit 3-vector")
    return v


def check_minimum(rho, direction, value, label: str) -> None:
    """A reported minimum is attained at its direction and is not above the oracle's."""
    n = _unit(direction, f"{label} direction")
    at = float(oracle.conditional_entropy(rho, n)[0])
    require(abs(at - value) <= TOL,
            f"{label}: CE at the reported direction is {at!r}, reported {value!r}")
    _, best = oracle.minimum(rho)
    require(value <= best + TOL,
            f"{label}: reported minimum {value!r} exceeds the oracle's {best!r}")


def check_report(rho, rep: dict, label: str) -> None:
    """Every field of one discord report against the oracle."""
    s_a, s_b, s_ab = oracle.entropies(rho)
    check_minimum(rho, rep["optimal_direction"], rep["min_conditional_entropy"], label)
    mutual = s_a + s_b - s_ab
    require(abs(rep["mutual_information"] - mutual) <= TOL,
            f"{label}: mutual information {rep['mutual_information']!r}, oracle {mutual!r}")
    classical = s_b - rep["min_conditional_entropy"]
    require(abs(rep["classical_correlation"] - classical) <= TOL,
            f"{label}: classical correlation {rep['classical_correlation']!r}, "
            f"expected S(B) - CE = {classical!r}")
    require(abs(rep["discord"] - (mutual - classical)) <= TOL,
            f"{label}: discord {rep['discord']!r}, expected {mutual - classical!r}")

    n_mcdm = _unit(rep["mcdm_direction"], f"{label} mcdm direction")
    require(oracle.correlation_along(rho, n_mcdm) >= oracle.top_correlation(rho) - TOL,
            f"{label}: mcdm direction {rep['mcdm_direction']!r} is not an axis of maximal correlation")
    ce_mcdm = float(oracle.conditional_entropy(rho, n_mcdm)[0])
    require(abs(rep["mcdm_conditional_entropy"] - ce_mcdm) <= TOL,
            f"{label}: mcdm CE {rep['mcdm_conditional_entropy']!r}, oracle {ce_mcdm!r}")
    require(abs(rep["mcdm_discord"] - (s_a - s_ab + ce_mcdm)) <= TOL,
            f"{label}: mcdm discord {rep['mcdm_discord']!r}, oracle {s_a - s_ab + ce_mcdm!r}")
    require(rep["discord"] <= rep["mcdm_discord"] + ORDER_TOL,
            f"{label}: discord {rep['discord']!r} above its upper bound {rep['mcdm_discord']!r}")


def check_expectations(rep: dict, expect: dict, label: str) -> None:
    """Closed-form answers that need no minimization (see ``corpus.py``)."""
    for key, value in expect.items():
        require(abs(rep[key] - value) <= TOL,
                f"{label}: {key} is {rep[key]!r}, the closed form gives {value!r}")


def parse_json_report(text: str, label: str) -> dict:
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{label}: output is not JSON: {exc}") from None
    require(isinstance(rep, dict), f"{label}: output is not a JSON object")
    return rep


def _csv(text: str, header: str, label: str) -> list[list[str]]:
    require(text.endswith("\n") and "\r" not in text, f"{label}: not LF-terminated CSV")
    lines = text[:-1].split("\n")
    require(lines[0] == header, f"{label}: header {lines[0]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def direction(theta_over_pi: float, phi_over_pi: float) -> np.ndarray:
    t, p = theta_over_pi * math.pi, phi_over_pi * math.pi
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def hemisphere_angles(n) -> tuple[float, float]:
    """(theta, phi) of the representative of {n, -n} with theta in [0, pi), phi in [-pi/2, pi/2)."""
    v = np.asarray(n, dtype=float)
    if v[0] < 0.0 or (v[0] == 0.0 and v[1] > 0.0) or (v[0] == 0.0 and v[1] == 0.0 and v[2] < 0.0):
        v = -v
    theta = math.acos(min(1.0, max(-1.0, v[2])))
    phi = math.atan2(v[1], v[0]) if (v[0] != 0.0 or v[1] != 0.0) else 0.0
    return theta, phi


def check_table1(text: str, samples: int, cluster_tol: float, directions, label: str) -> None:
    """Percentages account for every sample; each checked optimum lies in a listed cluster."""
    rows = _csv(text, "theta_over_pi,phi_over_pi,percentage", label)
    require(rows, f"{label}: no clusters")
    counts = []
    labels = []
    for row in rows:
        require(len(row) == 3, f"{label}: row {row!r} does not have 3 fields")
        theta, phi, pct = (float(x) for x in row)
        count = pct * samples / 100.0
        require(abs(count - round(count)) <= 1e-6 and round(count) >= 1,
                f"{label}: percentage {pct!r} is not a whole number of {samples} samples")
        counts.append(round(count))
        labels.append(direction(theta, phi))
    require(sum(counts) == samples,
            f"{label}: percentages cover {sum(counts)} states, expected {samples}")
    require(counts == sorted(counts, reverse=True), f"{label}: rows are not in descending order")
    cos_tol = math.cos(cluster_tol * math.pi)
    for n in directions:
        require(any(abs(float(rep @ n)) >= cos_tol - 1e-9 for rep in labels),
                f"{label}: optimum {list(n)!r} lies in none of the listed clusters")


def check_histogram(text: str, samples: int, bins: tuple[int, int], directions, label: str) -> None:
    """Counts add up to the sample count; each checked optimum falls in a listed bin."""
    rows = _csv(text, "theta_bin_lower_over_pi,phi_bin_lower_over_pi,count", label)
    t_bins, p_bins = bins
    listed = {}
    for row in rows:
        require(len(row) == 3, f"{label}: row {row!r} does not have 3 fields")
        ti = round(float(row[0]) * t_bins)
        pi_ = round((float(row[1]) + 0.5) * p_bins)
        count = int(row[2])
        require(count >= 1 and (ti, pi_) not in listed, f"{label}: bad row {row!r}")
        listed[(ti, pi_)] = count
    require(list(listed) == sorted(listed), f"{label}: bins are not in order")
    require(sum(listed.values()) == samples,
            f"{label}: counts add up to {sum(listed.values())}, expected {samples}")
    for n in directions:
        theta, phi = hemisphere_angles(n)
        key = (min(int(theta / math.pi * t_bins), t_bins - 1),
               min(int((phi + math.pi / 2) / math.pi * p_bins), p_bins - 1))
        require(key in listed, f"{label}: optimum {list(n)!r} falls in bin {key}, which is not listed")


def check_scatter(text: str, samples: int, reports: dict, label: str) -> None:
    """Rows in index order with discord <= bound, the gap line recomputed from
    the rows, and the rows of checked states equal to their reports."""
    require(text.endswith("\n"), f"{label}: not LF-terminated")
    body, _, summary = text[:-1].rpartition("\n")
    prefix = "# mean_squared_gap = "
    require(summary.startswith(prefix), f"{label}: last line {summary!r} is not the gap line")
    rows = _csv(body + "\n", "index,discord,mcdm_discord", label)
    require(len(rows) == samples, f"{label}: {len(rows)} rows, expected {samples}")
    gaps = []
    for k, row in enumerate(rows):
        require(len(row) == 3 and int(row[0]) == k, f"{label}: row {k} is {row!r}")
        d, dt = float(row[1]), float(row[2])
        require(0.0 <= d <= dt + PRINT_TOL,
                f"{label}: row {k}: discord {d!r} is not within [0, bound {dt!r}]")
        gaps.append(dt - d)
        if k in reports:
            rep = reports[k]
            require(abs(d - rep["discord"]) <= PRINT_TOL
                    and abs(dt - rep["mcdm_discord"]) <= PRINT_TOL,
                    f"{label}: row {k} ({d!r}, {dt!r}) differs from the state's report "
                    f"({rep['discord']!r}, {rep['mcdm_discord']!r})")
    mean_sq = math.fsum(g * g for g in gaps) / samples
    stated = float(summary[len(prefix):])
    # each gap carries the rounding of two 12-digit values, ~1e-11 in all
    require(abs(stated - mean_sq) <= 1e-6 * mean_sq + 1e-13,
            f"{label}: mean squared gap line says {stated!r}, the rows give {mean_sq!r}")
