#!/usr/bin/env python3
"""Benchmark of the qdiscord CLI pipelines and single-state discord calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each run drives ``qdiscord.cli.main`` in-process, round after
round, for ``--seconds`` of wall time, checks every output against the
oracle in ``oracle.py``, and prints one JSON object as its last line.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it wraps
the program's module functions and reports per-layer metrics instead.  See
README.md for what each metric means and which workload should move it.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads and inherited by every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import corpus
import speed
from tracer import Tracer
from workloads import WORKLOADS, Checked

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60

# A fresh interpreter that imports the CLI, solves the workload's first
# state and reports its exit code and its speed probes; the parent times it
# up to that line.
SETUP_CHILD = """
import contextlib, io, sys
sys.path[:0] = sys.argv[1:3]
from speed import SpeedProbe
with SpeedProbe() as probe:
    import qdiscord.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qdiscord.cli.main(sys.argv[3:])
        except Exception:
            code = -1
    total, cpu, count = probe.mark()
print(code, total, cpu, count, flush=True)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(call) -> float:
    """Median time from process start to the first solved state, at nominal speed."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE),
                               *call.argv], stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=child_env()) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=CHILD_TIMEOUT_S)
        fields = line.split()
        if len(fields) != 4 or fields[0] != str(call.expect_exit) or int(fields[3]) == 0:
            raise RuntimeError(f"set-up call {call.argv} ended with {line.strip()!r}")
        probe_s, probe_cpu_s, probes = float(fields[1]), float(fields[2]), int(fields[3])
        samples.append((elapsed - probe_s) * speed.NOMINAL_S / (probe_cpu_s / probes))
    return statistics.median(samples)


def import_ms() -> dict[str, float]:
    """Median cumulative import time of qdiscord.cli and qdiscord.measures, from -X importtime."""
    found: dict[str, list[float]] = {"qdiscord.cli": [], "qdiscord.measures": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qdiscord.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=child_env(),
                              timeout=CHILD_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {name: statistics.median(values) if values else 0.0 for name, values in found.items()}


def load_program() -> types.SimpleNamespace:
    names = ("cli", "ensembles", "linalg", "fano_bloch", "canonical", "measures",
             "experiments", "statefile")
    return types.SimpleNamespace(**{n: importlib.import_module(f"qdiscord.{n}") for n in names})


def run_call(cli, call, clock) -> tuple[bool, str, float]:
    """One in-process CLI call: (ended with the expected exit code, output, seconds)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        start = clock()
        try:
            code = cli.main(call.argv)
        except Exception:  # a crash is a failed operation, counted by the caller
            code = None
        except SystemExit as exc:
            code = exc.code
        elapsed = clock() - start
    ok = code == call.expect_exit
    if ok and call.out is not None:
        return ok, call.out.read_text(), elapsed
    return ok, stdout.getvalue(), elapsed


def run_round(cli, calls, probe) -> tuple[list[bool], list[str], float]:
    """One round outside the timed region; its time is scaled to nominal speed."""
    mark = probe.mark()
    results = [run_call(cli, call, probe.clock) for call in calls]
    seconds = math.fsum(r[2] for r in results) * probe.factor(mark)
    return [r[0] for r in results], [r[1] for r in results], seconds


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


class Outcome:
    """Attempted and failed operations, and every fault the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def record(self, calls, oks, outputs, reference) -> None:
        for call, ok, output, ref in zip(calls, oks, outputs, reference):
            self.attempted += 1
            if not ok:
                self.failed += 1
                if call.expect_exit == 0:
                    self.faults.append(f"{call.argv}: failed on a valid input")
            elif output != ref:
                self.faults.append(f"{call.argv}: output differs from the first round")


def timed_rounds(program, workload, reference, seconds, outcome, probe) -> dict:
    """Whole rounds until ``seconds`` of wall time have passed.  Times leave
    out the speed probes and each round is scaled by its own probes."""
    calls = workload.round()
    call_times = []
    busy = cpu = 0.0
    rounds = 0
    wall0 = perf_counter()
    while True:
        mark = probe.mark()
        cpu0 = cpu_seconds()
        start = probe.clock()
        oks = []
        outputs = []
        times = []
        for call in calls:
            ok, output, elapsed = run_call(program.cli, call, probe.clock)
            oks.append(ok)
            outputs.append(output)
            times.append(elapsed)
        factor = probe.factor(mark)
        busy += (probe.clock() - start) * factor
        cpu += (cpu_seconds() - cpu0 - (probe.cpu - mark[1])) * factor
        call_times.extend(t * factor for t in times)
        outcome.record(calls, oks, outputs, reference)
        rounds += 1
        if perf_counter() - wall0 >= seconds:
            break
    states = rounds * workload.states_per_round
    return {"busy": busy, "cpu": cpu, "states": states, "call_times": call_times,
            "raw_rate": states / (perf_counter() - wall0)}


def sweep(program, workload) -> list[Checked]:
    """Call every layer on a seeded subset of the workload's states and check
    each result against the oracle."""
    p = program
    checked = []
    for index, rho in workload.subjects(p):
        label = f"state {index}"
        p.linalg.validate_density_matrix(rho)
        entropies = (p.linalg.von_neumann_entropy(p.linalg.partial_trace(rho, "A")),
                     p.linalg.von_neumann_entropy(p.linalg.partial_trace(rho, "B")),
                     p.linalg.von_neumann_entropy(rho))
        expected = checks.oracle.entropies(rho)
        checks.require(np.allclose(entropies, expected, rtol=0.0, atol=checks.TOL),
                       f"{label}: entropies {entropies!r}, oracle {expected!r}")
        p.fano_bloch.state_blocks(rho)
        canon = p.canonical.to_canonical(rho).canonical_state
        n, value = p.measures.minimize_conditional_entropy(canon)
        checks.check_minimum(canon, n, value, f"{label} (canonical form)")
        report = checks.report_fields(p.measures.quantum_discord(rho))
        checks.check_report(rho, report, label)
        parsed = p.statefile.parse_state_text(corpus.state_text(rho))
        checks.require(np.array_equal(parsed, rho), f"{label}: state file does not round-trip")
        checked.append(Checked(index, np.asarray(n), report))
    rows = [(c.index, c.report["discord"], c.report["mcdm_discord"]) for c in checked]
    text = p.experiments.render_csv(("index", "discord", "mcdm_discord"), rows)
    p.experiments.write_output(text, str(OUT / "sweep.csv"))
    return checked


def layer_metrics(tracer: Tracer, factor: float, imports: dict, pool_efficiency: float) -> dict:
    """Per-layer metrics from the spans; times are scaled by the speed ``factor``."""
    groups = tracer.by_name()

    def pick(name):
        """Spans of one layer from the CLI calls if they reached it, else from the sweep."""
        for phase in ("pipeline", "sweep"):
            if groups.get((phase, name)):
                return phase, groups[(phase, name)]
        return None, []

    def total(spans, attr="duration"):
        return factor * math.fsum(getattr(s, attr) for s in spans)

    def mean_us(name, attr="duration"):
        _, spans = pick(name)
        return 1e6 * total(spans, attr) / len(spans) if spans else 0.0

    def mean_info(name):
        _, spans = pick(name)
        return sum(s.info for s in spans) / len(spans) if spans else 0.0

    phase, entropy = pick("entropy")
    traces = groups.get((phase, "partial_trace"), [])
    entropy_us = 3e6 * (total(entropy) + total(traces)) / len(entropy) if entropy else 0.0

    phase, minimize = pick("minimize")
    refine = groups.get((phase, "refine"), [])
    refine_us = 1e6 * total(refine) / len(minimize) if minimize else 0.0
    minimize_us = mean_us("minimize")

    _, discord = pick("discord")
    eig_calls = sum(s.eig for s in discord) / len(discord) if discord else 0.0

    phase, render = pick("render")
    writes = groups.get((phase, "write"), [])
    render_us = 1e6 * (total(render) + total(writes)) / len(render) if render else 0.0

    values = {
        "ensembles.draw_us": (mean_us("draw"), "us"),
        "ensembles.x_project_us": (mean_us("x_project"), "us"),
        "linalg.validate_us": (mean_us("validate"), "us"),
        "linalg.entropy_us": (entropy_us, "us"),
        "linalg.eig_calls_per_state": (eig_calls, "count"),
        "fano_bloch.blocks_us": (mean_us("blocks"), "us"),
        "canonical.to_canonical_us": (mean_us("to_canonical"), "us"),
        "measures.minimize_us": (minimize_us, "us"),
        "measures.grid_us": (minimize_us - refine_us, "us"),
        "measures.refine_us": (refine_us, "us"),
        "measures.refine_nfev": (mean_info("refine"), "count"),
        "measures.discord_us": (mean_us("discord"), "us"),
        "measures.discord_self_us": (mean_us("discord", "self_time"), "us"),
        "measures.on_axis_share": (mean_info("minimize"), "ratio"),
        "measures.mcdm_optimal_share": (mean_info("discord"), "ratio"),
        "measures.import_ms": (imports["qdiscord.measures"], "ms"),
        "statefile.parse_us": (mean_us("parse"), "us"),
        "cli.dispatch_us": (mean_us("cli", "self_time"), "us"),
        "cli.import_ms": (imports["qdiscord.cli"], "ms"),
        "experiments.render_us": (render_us, "us"),
        "experiments.pool_efficiency": (pool_efficiency, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdiscord" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'qdiscord' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, OUT)
    workload.prepare()
    setup_s = None if args.trace else setup_seconds(workload.setup_call())
    imports = import_ms() if args.trace else None

    program = load_program()
    outcome = Outcome()
    faults = outcome.faults
    checked = []
    with speed.SpeedProbe() as probe:
        calls = workload.round()
        oks, reference, _ = run_round(program.cli, calls, probe)  # warm-up, not timed
        if not all(ok or call.expect_exit for ok, call in zip(oks, calls)):
            faults.append("warm-up round failed on a valid input")
        if args.trace or workload.workers > 1:
            _, serial_output, serial_s = run_round(program.cli, workload.serial_round(), probe)
            if workload.workers > 1 and serial_output != reference:
                faults.append(f"--workers {workload.workers} output differs from --workers 1")
        if args.trace:
            _, _, round_s = run_round(program.cli, calls, probe)
            pool_efficiency = serial_s / (workload.workers * round_s)

        tracer = Tracer(probe.clock) if args.trace else contextlib.nullcontext()
        with tracer:
            traced_mark = probe.mark()
            timing = timed_rounds(program, workload, reference, args.seconds, outcome, probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.trace:
                tracer.phase = "sweep"
            try:
                checked = sweep(program, workload)
            except checks.CheckFailed as exc:
                faults.append(str(exc))
            except Exception as exc:  # the program crashed on a valid state
                faults.append(f"sweep: {type(exc).__name__}: {exc}")
            traced_factor = probe.factor(traced_mark)
    try:
        workload.check(reference, checked)
    except checks.CheckFailed as exc:
        faults.append(str(exc))

    for fault in faults:
        print(f"perfbench: FAULT: {fault}", file=sys.stderr)
    rate = timing["states"] / timing["busy"]
    print(f"perfbench: states_per_s {rate:.6g} at nominal speed, {timing['raw_rate']:.6g} "
          f"as timed", file=sys.stderr)
    times = timing["call_times"]
    if len(times) >= 1000:  # a tail with at least ten calls beyond it
        p99 = statistics.quantiles(times, n=100)[98]
        print(f"perfbench: call_p99_ms {1e3 * p99:.6g} over {len(times)} calls", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, traced_factor, imports, pool_efficiency)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "states_per_s": rate, "speed_factor": traced_factor,
                                          "metrics": metrics, "spans": tracer.dump()}))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "states_per_s": {"value": rate, "unit": "1/s"},
            "cpu_ms_per_state": {"value": 1e3 * timing["cpu"] / timing["states"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "call_p50_ms": {"value": 1e3 * statistics.median(timing["call_times"]), "unit": "ms"},
        }
    print(json.dumps({"correct": not faults, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
