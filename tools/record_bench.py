#!/usr/bin/env python3
"""Record per-stage solve times and CLI wall times in one BENCH_*.json file.

    PYTHONPATH=src python3 tools/record_bench.py --out BENCH_NAME.json

``qdiscord`` is imported from ``PYTHONPATH``, so the same script measures
the pruned grid scan (``measures._grid_start``) and the full scan that
preceded it (``measures._grid_values``).  It reports two levels:

- per state, in microseconds: the grid scan, the stencil loop with
  the axis tie-break, and the whole minimizer, on chunks of 64 states and on
  batches of one, over 256 seed-7 Hilbert-Schmidt states, fastest of 7;
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
import json
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

from qdiscord import SeededGenerator, random_hs_state, state_blocks
from qdiscord import measures
from qdiscord.canonical import canonical_blocks

CHUNK = 64
SEED = 7
STATES = 256
REPEATS = 7
SAMPLES = 10000
COMMANDS = ("table1", "histogram", "scatter")


def stage_times() -> dict:
    """Microseconds per state of the grid, of the rest of the solve (stencil
    loop and axis tie-break) and of the whole solve, for chunks of CHUNK states
    and for batches of one.  The grid is timed inside the solve, through a
    wrapper around the function that evaluates it.  Each call's fastest of
    REPEATS is kept, and the two batch sizes take turns chunk by chunk, so
    that a slow spell of the machine neither counts nor falls on one side."""
    gen = SeededGenerator(SEED)
    canon = [canonical_blocks(state_blocks(random_hs_state(gen)))[1] for _ in range(STATES)]
    grid_s = [0.0]
    name = "_grid_start" if hasattr(measures, "_grid_start") else "_grid_values"
    evaluate = getattr(measures, name)

    def timed(*args):
        start = time.perf_counter()
        try:
            return evaluate(*args)
        finally:
            grid_s[0] += time.perf_counter() - start

    def solve(chunk):
        measures._minimize_many(*measures._stack(chunk))

    def run(chunk) -> tuple[float, float]:
        grid_s[0] = 0.0
        start = time.perf_counter()
        solve(chunk)
        return time.perf_counter() - start, grid_s[0]

    inf = (float("inf"), float("inf"))
    firsts = range(0, STATES, CHUNK)
    chunked, single = [inf] * len(firsts), [inf] * STATES
    setattr(measures, name, timed)
    try:
        for _ in range(REPEATS):
            for c, first in enumerate(firsts):
                chunk = canon[first:first + CHUNK]
                chunked[c] = min(chunked[c], run(chunk))
                for k, bd in enumerate(chunk, start=first):
                    single[k] = min(single[k], run([bd]))
    finally:
        setattr(measures, name, evaluate)

    def stages(best) -> dict:
        solve_us, grid_us = (1e6 * sum(t[i] for t in best) / STATES for i in (0, 1))
        return {"grid_us": grid_us, "stencil_and_tie_break_us": solve_us - grid_us,
                "solve_us": solve_us}

    return {f"chunks_of_{CHUNK}": stages(chunked), "batches_of_one": stages(single),
            "states": STATES, "repeats": REPEATS}


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
                start = time.perf_counter()
                subprocess.run([sys.executable, "-m", "qdiscord.cli", command,
                                "--samples", str(SAMPLES), "--seed", str(SEED),
                                "--workers", str(workers), "--out", path], check=True)
                results[f"{command}_workers{workers}_s"] = time.perf_counter() - start
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    record = {
        "machine": {"cores": usable_cores(), "python": platform.python_version(),
                    "numpy": np.__version__, "processor": platform.machine()},
        "per_state": stage_times(),
        "cli_wall": {"samples": SAMPLES, "seed": SEED, **cli_times()},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
