#!/usr/bin/env python3
"""Record per-stage solve times and CLI wall times in one BENCH_*.json file.

    PYTHONPATH=src python3 tools/record_bench.py --out BENCH_NAME.json

``qdiscord`` is imported from ``PYTHONPATH``, so the same script measures
any commit that has the functions it times.  It reports two levels:

- per state, in microseconds, over 256 seed-7 Hilbert-Schmidt states,
  fastest of 7:
  - the grid scan, the refinement with the axis tie-break, and the whole
    minimizer, on chunks of 64 states and on batches of one; the grid scan
    also by stage where it has them: the bound on all its levels, and the
    kept cells with the start rule;
  - the whole minimizer on the X projections of the same states, which the
    ``table1`` pipeline solves, on chunks of 64 states and on batches of one;
  - the ``table1``, ``histogram`` and ``scatter`` pipelines through their
    public functions at 256 samples, seed 7, from the draw to their rows, and
    three stages of their chunks of 64 indices: the draw, the X projection
    and the angles;
  - ``quantum_discord`` of each state, a batch of one;
  - the mean and the largest number of evaluations of the Newton derivatives
    per state, on the same states and on their X projections;
- per call, in microseconds: ``cli.main(["discord", FILE, "--json"])`` in
  this process on CLI_STATES fixed state files, half of them seed-7
  Hilbert-Schmidt states and half their X projections, fastest of 7;
- per CLI run, in seconds of wall time: ``table1``, ``histogram`` and
  ``scatter`` at 10,000 samples, seed 7, with 1 worker and with as many
  workers as this process may use cores.

The sizes are fixed, so that records of different commits compare.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

from qdiscord import (SeededGenerator, format_state, project_x_state, quantum_discord,
                      random_hs_state, state_blocks)
from qdiscord import cli, experiments, measures
from qdiscord.canonical import canonical_blocks

CHUNK = 64
SEED = 7
STATES = 256
REPEATS = 7
CLI_STATES = 8
SAMPLES = 10000
COMMANDS = ("table1", "histogram", "scatter")


def canonical_stack(x_project: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical blocks (a, b, R) of STATES seed-SEED Hilbert-Schmidt states,
    or of their X projections."""
    gen = SeededGenerator(SEED)
    canon = [canonical_blocks(state_blocks(project_x_state(rho) if x_project else rho))[1]
             for rho in (random_hs_state(gen) for _ in range(STATES))]
    return tuple(np.stack([getattr(c, field) for c in canon]) for field in "abr")


def seconds(call) -> float:
    """Wall time of ``call()``."""
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def chunked_and_single(run) -> tuple[list, list]:
    """The fastest of REPEATS of ``run(first, stop)``, a tuple of seconds whose
    first entry ranks the runs, on each chunk of CHUNK states and on each
    state alone.  The two batch sizes take turns chunk by chunk, so that a
    slow spell of the machine neither counts nor falls on one side."""
    inf = (float("inf"),)
    firsts = range(0, STATES, CHUNK)
    chunked, single = [inf] * len(firsts), [inf] * STATES
    for _ in range(REPEATS):
        for c, first in enumerate(firsts):
            chunked[c] = min(chunked[c], run(first, first + CHUNK))
            for k in range(first, first + CHUNK):
                single[k] = min(single[k], run(k, k + 1))
    return chunked, single


# the grid scan and its bound, as functions of ``measures``
GRID_STAGES = {"_grid_start": "grid_us", "_kept_cells": "bound_us"}


def stage_times() -> dict:
    """Microseconds per state of the grid, of the rest of the solve (refinement
    and axis tie-break) and of the whole solve, for chunks of CHUNK states
    and for batches of one.  The grid is timed inside the solve, through a
    wrapper around ``measures._grid_start``, which the solve calls once per
    stack of states.  A wrapper around
    ``measures._kept_cells`` times the bound on all levels, and the rest of
    the grid is the evaluation of the kept cells and the start rule."""
    a, b, r = canonical_stack(x_project=False)
    stages = {name: getattr(measures, name) for name in GRID_STAGES}
    spent = dict.fromkeys(stages, 0.0)

    def timed(name, function):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return function(*args)
            finally:
                spent[name] += time.perf_counter() - start
        return wrapper

    def run(first: int, stop: int) -> tuple[float, ...]:
        for name in spent:
            spent[name] = 0.0
        solve = seconds(lambda: measures._minimize_many(a[first:stop], b[first:stop],
                                                        r[first:stop]))
        return (solve, *spent.values())

    for name, function in stages.items():
        setattr(measures, name, timed(name, function))
    try:
        chunked, single = chunked_and_single(run)
    finally:
        for name, function in stages.items():
            setattr(measures, name, function)

    def per_state(best) -> dict:
        solve_us, *parts = (1e6 * sum(t[i] for t in best) / STATES for i in range(len(best[0])))
        record = {GRID_STAGES[name]: us for name, us in zip(stages, parts)}
        record["kept_cells_and_start_us"] = record["grid_us"] - record["bound_us"]
        record["refine_and_tie_break_us"] = solve_us - record["grid_us"]
        record["solve_us"] = solve_us
        return record

    return {f"chunks_of_{CHUNK}": per_state(chunked), "batches_of_one": per_state(single),
            "states": STATES, "repeats": REPEATS}


def xstate_times() -> dict:
    """Microseconds per state of the whole minimizer on the X projections of
    the states of stage_times, for chunks of CHUNK states and for batches of
    one."""
    a, b, r = canonical_stack(x_project=True)

    def run(first: int, stop: int) -> tuple[float]:
        return (seconds(lambda: measures._minimize_many(a[first:stop], b[first:stop],
                                                        r[first:stop])),)

    chunked, single = chunked_and_single(run)
    return {f"chunks_of_{CHUNK}_solve_us": 1e6 * sum(t[0] for t in chunked) / STATES,
            "batches_of_one_solve_us": 1e6 * sum(t[0] for t in single) / STATES,
            "states": STATES, "repeats": REPEATS}


def pipeline_times() -> dict:
    """Microseconds per state of the table1, histogram and scatter pipelines
    through their public functions at STATES samples, seed SEED, of three
    stages of their chunks of CHUNK indices (the draw, the X projection of
    the drawn stack, and the angles of the minimizer's directions on the X
    projections), and of quantum_discord on each state alone; each call's
    fastest of REPEATS, the calls taking turns."""
    config = experiments.ExperimentConfig(samples=STATES, seed=SEED)
    pipelines = {"table1_us": experiments.optimal_direction_clusters,
                 "histogram_us": experiments.optimal_direction_histogram,
                 "scatter_us": experiments.bound_scatter}
    chunks = [range(first, first + CHUNK) for first in range(0, STATES, CHUNK)]
    stacks = [experiments._hs_states(config, chunk) for chunk in chunks]
    a, b, r = canonical_stack(x_project=True)
    dirs = [measures._minimize_many(a[c.start:c.stop], b[c.start:c.stop], r[c.start:c.stop])[0]
            for c in chunks]
    stages = {
        "draw_us": lambda c: experiments._hs_states(config, chunks[c]),
        "x_project_us": lambda c: project_x_state(stacks[c]),
        "angles_us": lambda c: measures.angles_from_directions(dirs[c]),
    }
    gen = SeededGenerator(SEED)
    states = [random_hs_state(gen) for _ in range(STATES)]
    whole = dict.fromkeys(pipelines, float("inf"))
    best = {name: [float("inf")] * len(chunks) for name in stages}
    single = [float("inf")] * STATES
    for _ in range(REPEATS):
        for name, pipeline in pipelines.items():
            whole[name] = min(whole[name], seconds(lambda: pipeline(config)))
        for c, chunk in enumerate(chunks):
            for name, stage in stages.items():
                best[name][c] = min(best[name][c], seconds(lambda: stage(c)))
            for k in chunk:
                single[k] = min(single[k], seconds(lambda: quantum_discord(states[k])))
    record = {name: 1e6 * seconds / STATES for name, seconds in whole.items()}
    record.update({name: 1e6 * sum(times) / STATES for name, times in best.items()})
    record["quantum_discord_us"] = 1e6 * sum(single) / STATES
    return record


def newton_evaluations() -> dict:
    """Evaluations of the Newton derivatives per state, mean and largest, on
    the states of stage_times and on their X projections, each solved alone,
    counted through a wrapper around ``measures._tangent_derivatives``.  A
    state's count does not depend on the states solved beside it."""
    evaluate = measures._tangent_derivatives
    calls = []

    def counted(*args):
        calls.append(None)
        return evaluate(*args)

    record = {}
    measures._tangent_derivatives = counted
    try:
        for name, x_project in (("hs", False), ("x_projected", True)):
            a, b, r = canonical_stack(x_project)
            counts = []
            for k in range(STATES):
                calls.clear()
                measures._minimize_many(a[k:k + 1], b[k:k + 1], r[k:k + 1])
                counts.append(len(calls))
            record[f"{name}_mean"] = sum(counts) / STATES
            record[f"{name}_max"] = max(counts)
    finally:
        measures._tangent_derivatives = evaluate
    return record


def cli_call_times() -> dict:
    """Microseconds per in-process ``cli.main(["discord", FILE, "--json"])``
    call on CLI_STATES state files, the first CLI_STATES // 2 states of
    stage_times and their X projections: each file's fastest of REPEATS, the
    files taking turns, with the output written to a buffer."""
    gen = SeededGenerator(SEED)
    states = [random_hs_state(gen) for _ in range(CLI_STATES // 2)]
    states += [project_x_state(rho) for rho in states]
    best = [float("inf")] * len(states)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, rho in enumerate(states):
            paths.append(os.path.join(tmp, f"state{k}.txt"))
            with open(paths[-1], "w") as fh:
                fh.write(format_state(rho))
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(REPEATS):
                for k, path in enumerate(paths):
                    best[k] = min(best[k], seconds(lambda: cli.main(["discord", path, "--json"])))
    half = CLI_STATES // 2
    return {"hs_us": 1e6 * sum(best[:half]) / half, "x_projected_us": 1e6 * sum(best[half:]) / half,
            "states": CLI_STATES, "repeats": REPEATS}


def usable_cores() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def cli_times() -> dict:
    cores = usable_cores()
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            for workers in sorted({1, cores}):
                path = os.path.join(tmp, f"{command}-w{workers}.csv")
                argv = [sys.executable, "-m", "qdiscord.cli", command, "--samples", str(SAMPLES),
                        "--seed", str(SEED), "--workers", str(workers), "--out", path]
                results[f"{command}_workers{workers}_s"] = seconds(
                    lambda: subprocess.run(argv, check=True))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    record = {
        "machine": {"cores": usable_cores(), "python": platform.python_version(),
                    "numpy": np.__version__, "processor": platform.machine()},
        "per_state": stage_times(),
        "per_x_projected_state": xstate_times(),
        "pipelines_per_state": pipeline_times(),
        "newton_evaluations_per_state": newton_evaluations(),
        "discord_cli_call": cli_call_times(),
        "cli_wall": {"samples": SAMPLES, "seed": SEED, **cli_times()},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
