"""The four workloads: which CLI calls make up one round, and how their
outputs are checked.

Every round repeats the same calls with the same arguments, so each round
does the same work and fails the same operations.  The random-state seed of
the pipelines is the benchmark's ``--seed``; the program sees only its CLI
arguments and the files written here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import corpus


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Call:
    argv: list[str]
    out: Path | None = None  # the CSV the call writes; None: its stdout is the output
    expect_exit: int = 0
    entry: corpus.Entry | None = None


@dataclass
class Checked:
    """What the sweep learnt about one state of a workload."""

    index: int
    canonical_direction: np.ndarray  # optimum of the canonical state, as the pipelines compute it
    report: dict  # quantum_discord of the state, under the --json keys


class Pipeline:
    """One experiment subcommand over ``samples`` Hilbert-Schmidt states per call."""

    command = ""
    samples = 0
    workers = 1
    x_project = False
    sweep_size = 10

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.csv = out / f"{self.command}.csv"

    def argv(self, samples: int, workers: int, out: Path) -> list[str]:
        return [self.command, "--samples", str(samples), "--seed", str(self.seed),
                "--workers", str(workers), "--out", str(out)]

    def prepare(self) -> None:
        pass

    def round(self) -> list[Call]:
        return [Call(self.argv(self.samples, self.workers, self.csv), self.csv)]

    def setup_call(self) -> Call:
        path = self.out / "setup.csv"
        return Call(self.argv(1, self.workers, path), path)

    def serial_round(self) -> list[Call]:
        path = self.out / f"{self.command}-serial.csv"
        return [Call(self.argv(self.samples, 1, path), path)]

    @property
    def states_per_round(self) -> int:
        return self.samples

    def sweep_indices(self) -> list[int]:
        rng = np.random.default_rng([self.seed, 0x5EED])
        return sorted(rng.choice(self.samples, size=self.sweep_size, replace=False).tolist())

    def subjects(self, modules):
        """(index, state) pairs, drawn and projected through the program's own
        ensemble functions, as the pipeline does."""
        ens = modules.ensembles
        for i in self.sweep_indices():
            rho = ens.random_hs_state(ens.SeededGenerator(self.seed, start=i))
            x = ens.project_x_state(rho)
            yield i, (x if self.x_project else rho)

    def check(self, outputs: list[str], checked: list[Checked]) -> None:
        raise NotImplementedError


class Table1X(Pipeline):
    command = "table1"
    samples = 300
    x_project = True
    cluster_tol = 0.01

    def check(self, outputs, checked):
        checks.check_table1(outputs[0], self.samples, self.cluster_tol,
                            [c.canonical_direction for c in checked], "table1")


class ScatterHS(Pipeline):
    command = "scatter"
    samples = 250

    def check(self, outputs, checked):
        checks.check_scatter(outputs[0], self.samples, {c.index: c.report for c in checked},
                             "scatter")


class HistogramPool(Pipeline):
    command = "histogram"
    samples = 600
    bins = (100, 100)

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.workers = cpu_count()

    def check(self, outputs, checked):
        checks.check_histogram(outputs[0], self.samples, self.bins,
                               [c.canonical_direction for c in checked], "histogram")


class DiscordFiles:
    """One ``qdiscord discord FILE --json`` call per corpus file."""

    workers = 1
    sweep_size = 8

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.entries = corpus.build(seed)
        self.paths: list[Path] = []

    def prepare(self) -> None:
        self.paths = corpus.write(self.entries, self.out / "corpus")

    def round(self) -> list[Call]:
        return [Call(["discord", str(path), "--json"], None, entry.expect_exit, entry)
                for entry, path in zip(self.entries, self.paths)]

    def setup_call(self) -> Call:
        return self.round()[0]

    def serial_round(self) -> list[Call]:
        return self.round()

    @property
    def states_per_round(self) -> int:
        return len(self.entries)

    def subjects(self, modules):
        """A seeded subset of the valid corpus states.  A state is also drawn
        per item, so that the draw layer is timed on this workload too."""
        ens = modules.ensembles
        valid = [k for k, e in enumerate(self.entries) if e.expect_exit == 0]
        rng = np.random.default_rng([self.seed, 0x5EED])
        for k in sorted(rng.choice(valid, size=self.sweep_size, replace=False).tolist()):
            ens.random_hs_state(ens.SeededGenerator(self.seed, start=k))
            ens.project_x_state(self.entries[k].rho)
            yield k, self.entries[k].rho

    def check(self, outputs, checked):
        for call, text in zip(self.round(), outputs):
            entry = call.entry
            if entry.expect_exit != 0:
                continue
            rep = checks.parse_json_report(text, entry.name)
            checks.check_report(entry.rho, rep, entry.name)
            checks.check_expectations(rep, entry.expect, entry.name)
        for c in checked:
            rep = checks.parse_json_report(outputs[c.index], self.entries[c.index].name)
            for key, value in c.report.items():
                checks.require(rep[key] == value,
                               f"{self.entries[c.index].name}: {key} from the CLI is "
                               f"{rep[key]!r}, from quantum_discord {value!r}")


WORKLOADS = {
    "table1-x": Table1X,
    "scatter-hs": ScatterHS,
    "discord-files": DiscordFiles,
    "histogram-pool": HistogramPool,
}
