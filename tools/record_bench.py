#!/usr/bin/env python3
"""Record per-stage solve times and CLI wall times in one BENCH_*.json file.

    PYTHONPATH=src python3 tools/record_bench.py --out BENCH_NAME.json
    PYTHONPATH=src python3 tools/record_bench.py --parent OTHER/src --out BENCH_NAME.json

``qdiscord`` is imported from ``PYTHONPATH``, so the same script measures
any commit that has the functions it times; its results go under
``change``.  With ``--parent SRC`` the ``qdiscord`` package of a second
source tree is imported into the same process under another name, and its
results go under ``parent``.  The two trees then take turns: each repeat
runs the stages one by one, each stage on one tree and then on the other,
and the tree that runs first alternates from repeat to repeat.  Separate
runs of one tree on a small shared machine drift by up to ±10 % per stage,
more than many changes move a stage; turns within one process expose both
trees to the same spells.  Both trees are timed on the same inputs, drawn
by the tree on ``PYTHONPATH``.

Each time is the median of REPEATS repeats, given with its quartiles as
``{"median": ..., "q1": ..., "q3": ...}``.  The record has two levels:

- per state, in microseconds, over 256 seed-7 Hilbert-Schmidt states:
  - the whole minimizer on one stack of all 256 states, on chunks of 64
    states and on batches of one, each chunk followed by its states alone;
  - the same on the X projections of the same states, which the ``table1``
    pipeline solves;
  - the ``table1``, ``histogram`` and ``scatter`` pipelines through their
    public functions at 256 samples, seed 7, from the draw to their rows, and
    three stages of their chunks of 64 indices: the draw, the X projection
    and the angles.  The X projection stage times the public
    ``project_x_state``, which validates each state; ``table1`` applies its
    unchecked kernel to its draws, as the record's ``notes`` say;
  - ``quantum_discord`` of each state, a batch of one;
  - the mean and the largest number of evaluations of the Newton derivatives
    per state, and the mean per start, on the same states and on their X
    projections, counted once;
- per call, in microseconds: ``cli.main(["discord", FILE, "--json"])`` in
  this process on CLI_STATES fixed state files, half of them seed-7
  Hilbert-Schmidt states and half their X projections;
- per CLI run, in seconds of wall time, the median of CLI_REPEATS runs:
  ``table1``, ``histogram`` and ``scatter`` at 10,000 samples, seed 7, with
  1 worker and with as many workers as this process may use cores, each
  run in a fresh interpreter, the trees taking turns run by run; and per
  command, whether the CSV with all cores equals the 1-worker CSV byte for
  byte.

The sizes are fixed, so that records of different commits compare.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import qdiscord

CHUNK = 64
SEED = 7
STATES = 256
REPEATS = 11
CLI_STATES = 8
CLI_REPEATS = 9
# what a reader of a record needs to know of its stages
NOTES = {
    "x_project_us": "times the public project_x_state, which validates each state; table1 "
                    "projects its draws with the unchecked ensembles._x_projection",
}
SAMPLES = 10000
COMMANDS = ("table1", "histogram", "scatter")
# the modules of a tree that the stages call, besides the package itself
MODULES = ("canonical", "cli", "experiments", "measures")


def with_modules(package):
    """``package`` once MODULES are imported, so that each is its attribute."""
    for module in MODULES:
        importlib.import_module(f"{package.__name__}.{module}")
    return package


def load_tree(src: str, name: str):
    """The ``qdiscord`` package of the source tree ``src``, imported as ``name``
    afresh, with none of the modules of an earlier import under that name."""
    for module in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
        del sys.modules[module]
    init = os.path.join(src, "qdiscord", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return with_modules(package)


def tree_source(package) -> str:
    """The directory to put on PYTHONPATH to import ``package`` as qdiscord."""
    return os.path.dirname(os.path.dirname(os.path.abspath(package.__file__)))


def canonical_stack(tree, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical blocks (a, b, R) of a stack of states."""
    canonical = tree.canonical.canonical_blocks(tree.state_blocks(rhos))[1]
    return canonical.a, canonical.b, canonical.r


def bench_inputs(tree, tmp: str) -> dict:
    """The inputs of the stages, drawn by ``tree``: STATES seed-SEED
    Hilbert-Schmidt states ("states"), the canonical blocks of the states and
    of their X projections ("hs_blocks", "x_blocks"), their chunks of CHUNK
    indices ("chunks") with the draw of each ("stacks") and the minimizer's
    directions on its X projections ("dirs"), and CLI_STATES state files
    written to ``tmp`` ("paths"): the first CLI_STATES / 2 states, then their
    X projections."""
    experiments = tree.experiments
    config = experiments.ExperimentConfig(samples=STATES, seed=SEED)
    states = experiments._hs_states(config, range(STATES))
    x_blocks = canonical_stack(tree, tree.project_x_state(states))
    chunks = [range(first, first + CHUNK) for first in range(0, STATES, CHUNK)]
    cli_states = list(states[:CLI_STATES // 2])
    cli_states += [tree.project_x_state(rho) for rho in cli_states]
    paths = [os.path.join(tmp, f"state{k}.txt") for k in range(len(cli_states))]
    for path, rho in zip(paths, cli_states):
        with open(path, "w") as fh:
            fh.write(tree.format_state(rho))
    return {
        "states": list(states),
        "hs_blocks": canonical_stack(tree, states),
        "x_blocks": x_blocks,
        "chunks": chunks,
        "stacks": [experiments._hs_states(config, chunk) for chunk in chunks],
        "dirs": [experiments._minimize_many(*(x[c.start:c.stop] for x in x_blocks))[0]
                 for c in chunks],
        "paths": paths,
    }


def seconds(call) -> float:
    """Wall time of ``call()``."""
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def spread(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def solve_times(tree, blocks) -> dict:
    """Microseconds per state of one repeat of the whole solve on ``blocks``,
    on one stack of all STATES states, on chunks of CHUNK states and on
    batches of one, each chunk followed by its states alone."""
    a, b, r = blocks
    solver = tree.experiments._minimize_many
    totals = {f"one_stack_of_{STATES}": seconds(lambda: solver(a, b, r)),
              f"chunks_of_{CHUNK}": 0.0, "batches_of_one": 0.0}
    for first in range(0, STATES, CHUNK):
        runs = [(f"chunks_of_{CHUNK}", first, first + CHUNK)]
        runs += [("batches_of_one", k, k + 1) for k in range(first, first + CHUNK)]
        for label, lo, hi in runs:
            totals[label] += seconds(lambda: solver(a[lo:hi], b[lo:hi], r[lo:hi]))
    return {f"{label}_solve_us": 1e6 * solve / STATES for label, solve in totals.items()}


def pipeline_times(tree, inputs: dict) -> dict:
    """Microseconds per state of one repeat of the table1, histogram and
    scatter pipelines through their public functions at STATES samples, seed
    SEED, of three stages of their chunks of CHUNK indices (the draw, the X
    projection of the drawn stack, and the angles of the minimizer's
    directions on the X projections), and of quantum_discord on each state
    alone."""
    experiments = tree.experiments
    config = experiments.ExperimentConfig(samples=STATES, seed=SEED)
    record = {name: 1e6 * seconds(lambda: pipeline(config)) / STATES for name, pipeline in (
        ("table1_us", experiments.optimal_direction_clusters),
        ("histogram_us", experiments.optimal_direction_histogram),
        ("scatter_us", experiments.bound_scatter))}
    stages = {
        "draw_us": lambda c: experiments._hs_states(config, inputs["chunks"][c]),
        "x_project_us": lambda c: tree.project_x_state(inputs["stacks"][c]),
        "angles_us": lambda c: tree.measures.angles_from_directions(inputs["dirs"][c]),
    }
    for name, stage in stages.items():
        record[name] = 1e6 * sum(seconds(lambda: stage(c))
                                 for c in range(len(inputs["chunks"]))) / STATES
    record["quantum_discord_us"] = 1e6 * sum(
        seconds(lambda: tree.quantum_discord(rho)) for rho in inputs["states"]) / STATES
    return record


def cli_call_times(tree, paths: list) -> dict:
    """Microseconds per in-process ``cli.main(["discord", FILE, "--json"])``
    call in one repeat, on the state files ``paths``: the first half
    Hilbert-Schmidt states, the second half their X projections, with the
    output written to a buffer."""
    times = []
    with contextlib.redirect_stdout(io.StringIO()):
        for path in paths:
            times.append(seconds(lambda: tree.cli.main(["discord", path, "--json"])))
    half = len(paths) // 2
    return {"hs_us": 1e6 * sum(times[:half]) / half,
            "x_projected_us": 1e6 * sum(times[half:]) / half}


def newton_evaluations(tree, hs_blocks, x_blocks) -> dict:
    """Evaluations of the Newton derivatives on the states of the solve stages
    and on their X projections, each solved alone, counted through a wrapper
    around ``_tangent_derivatives`` in the module of the solver
    ``experiments._minimize_many``: per state, the mean and the largest
    number of calls, and per start, the mean number of calls that evaluate
    it.  The starts of a state are the rows of its first call: the three
    axes on the sphere, or one point of a scan.  A state's counts do not
    depend on the states solved beside it.  Raises RuntimeError when no call
    is counted on either set of states, as when the wrapper sits where the
    solver does not look."""
    solver = tree.experiments._minimize_many
    module = sys.modules[solver.__module__]
    evaluate = module._tangent_derivatives
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return evaluate(*args)

    record = {}
    module._tangent_derivatives = counted
    try:
        for name, (a, b, r) in (("hs", hs_blocks), ("x_projected", x_blocks)):
            counts, rows, starts = [], 0, 0
            for k in range(STATES):
                calls.clear()
                solver(a[k:k + 1], b[k:k + 1], r[k:k + 1])
                counts.append(len(calls))
                rows += sum(calls)
                starts += calls[0] if calls else 0
            if not rows:
                raise RuntimeError(f"no call of {module.__name__}._tangent_derivatives "
                                   f"was counted on the {name} states")
            record[f"{name}_mean"] = sum(counts) / STATES
            record[f"{name}_max"] = max(counts)
            record[f"{name}_per_start_mean"] = rows / starts
    finally:
        module._tangent_derivatives = evaluate
    return record


def alternate(stages: dict, trees: dict, repeats: int) -> dict:
    """Per tree, per stage and per figure, the spread over ``repeats`` repeats
    of ``stages[name](tree)``, a dict of figures: each repeat runs the stages
    in turn, each on every tree, the first tree alternating between repeats."""
    samples = {label: {name: {} for name in stages} for label in trees}
    for repeat in range(repeats):
        order = list(trees.items())[::-1 if repeat % 2 else 1]
        for name, stage in stages.items():
            for label, tree in order:
                for figure, value in stage(tree).items():
                    samples[label][name].setdefault(figure, []).append(value)
    return {label: {name: {figure: spread(values) for figure, values in figures.items()}
                    for name, figures in by_stage.items()}
            for label, by_stage in samples.items()}


def usable_cores() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def cli_csv(tree, command: str, workers: int, tmp: str) -> str:
    """Where ``cli_run`` writes the CSV of ``tree``'s ``command`` with ``workers``."""
    return os.path.join(tmp, f"{tree.__name__}-{command}-w{workers}.csv")


def cli_run(tree, command: str, workers: int, tmp: str) -> dict:
    """Seconds of wall time of one CLI run of ``command`` in a fresh interpreter
    that imports ``tree`` as qdiscord."""
    path = cli_csv(tree, command, workers, tmp)
    argv = [sys.executable, "-m", "qdiscord.cli", command, "--samples", str(SAMPLES),
            "--seed", str(SEED), "--workers", str(workers), "--out", path]
    env = dict(os.environ, PYTHONPATH=tree_source(tree))
    return {f"{command}_workers{workers}_s": seconds(
        lambda: subprocess.run(argv, check=True, env=env))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", metavar="SRC",
                        help="source directory of a second qdiscord to time in turns with this one")
    args = parser.parse_args(argv)
    change = with_modules(qdiscord)
    trees = {"change": change}
    if args.parent:
        trees = {"parent": load_tree(args.parent, "qdiscord_parent"), "change": change}

    cores = usable_cores()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = bench_inputs(change, tmp)
        timed = alternate({
            "per_state": lambda tree: solve_times(tree, inputs["hs_blocks"]),
            "per_x_projected_state": lambda tree: solve_times(tree, inputs["x_blocks"]),
            "pipelines_per_state": lambda tree: pipeline_times(tree, inputs),
            "discord_cli_call": lambda tree: cli_call_times(tree, inputs["paths"]),
        }, trees, REPEATS)
        wall = alternate({
            f"{command}_workers{workers}": (
                lambda tree, command=command, workers=workers: cli_run(tree, command, workers, tmp))
            for command in COMMANDS for workers in sorted({1, cores})}, trees, CLI_REPEATS)
        # per tree and command: is the CSV with `cores` workers the 1-worker CSV, byte for byte
        same_csv = {label: {command: Path(cli_csv(tree, command, 1, tmp)).read_bytes()
                            == Path(cli_csv(tree, command, cores, tmp)).read_bytes()
                            for command in COMMANDS}
                    for label, tree in trees.items()}
    record = {
        "machine": {"cores": cores, "python": platform.python_version(),
                    "numpy": np.__version__, "processor": platform.machine()},
        "settings": {"states": STATES, "chunk": CHUNK, "seed": SEED, "repeats": REPEATS,
                     "cli_states": CLI_STATES, "cli_samples": SAMPLES,
                     "cli_repeats": CLI_REPEATS},
        "notes": NOTES,
    }
    for label, tree in trees.items():
        record[label] = {
            **timed[label],
            "newton_evaluations_per_state": newton_evaluations(tree, inputs["hs_blocks"],
                                                               inputs["x_blocks"]),
            "cli_wall": {figure: stats for by_command in wall[label].values()
                         for figure, stats in by_command.items()},
            "cli_csv_same_for_1_and_all_cores": same_csv[label],
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
