"""Command-line interface.

Subcommands: ``discord`` (evaluate one state file), ``table1`` (optimal
measurement clusters for random X-states), ``histogram`` (optimal
measurement distribution for random states), ``mixture`` (discord and its
upper bound along the product/entangled mixture family), ``scatter``
(discord versus upper bound for random states).

Exit codes: 0 success; 2 unparseable input, an unreadable state file, a
bad option value (such as a ``--cluster-tol`` outside (0, 0.5]), or an
``--out`` path or a stdout that cannot be written (closed, or a pipe whose
reader has gone); 3 a parsed matrix is not a valid state (including
non-finite entries).  Each error prints one ``error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import StateParseError, ValidationError
from .experiments import (HISTOGRAM_HEADER, MIXTURE_HEADER, SCATTER_HEADER,
                          TABLE1_HEADER, ExperimentConfig, OutputFile,
                          bound_scatter, mixture_curve, optimal_direction_clusters,
                          optimal_direction_histogram, render_csv)
from .measures import angles_from_direction, quantum_discord
from .statefile import parse_state_text

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_STATE = 3


def _bins(text: str) -> tuple[int, int]:
    try:
        theta_bins, phi_bins = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not of the form TxP, e.g. 100x100") from None
    return theta_bins, phi_bins


def _add_experiment_flags(parser, samples: int = ExperimentConfig.samples) -> None:
    parser.set_defaults(parser=parser)  # validate's errors print this subcommand's usage
    parser.add_argument("--samples", type=int, default=samples,
                        help=f"number of samples (default {samples})")
    parser.add_argument("--workers", type=int, default=ExperimentConfig.workers, metavar="W",
                        help="processes that solve the states: this one and W - 1 forked "
                             "children, at most one per chunk and per usable core; the output "
                             "does not depend on this")
    parser.add_argument("--out", default=None,
                        help="output CSV path (default: stdout); written atomically")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: building it costs more than solving one state.
    ``parse_args`` leaves it unchanged, so callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="qdiscord",
        description="Classical correlation, quantum discord, and the "
                    "maximal-correlation-direction upper bound for two-qubit states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discord", help="evaluate a single state file")
    p.add_argument("statefile", help="text file with a 4x4 complex matrix")
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("table1", help="optimal-measurement clusters for random X-states")
    _add_experiment_flags(p)
    p.add_argument("--cluster-tol", type=float, default=ExperimentConfig.cluster_tol,
                   help="cluster tolerance between axes in units of pi, in (0, 0.5] "
                        f"(default {ExperimentConfig.cluster_tol})")

    p = sub.add_parser("histogram", help="optimal-measurement histogram for random states")
    _add_experiment_flags(p)
    p.add_argument("--bins", type=_bins, default=ExperimentConfig.bins,
                   help="theta x phi bin counts, e.g. %dx%d (default)" % ExperimentConfig.bins)

    p = sub.add_parser("mixture", help="discord and upper bound along the mixture family")
    _add_experiment_flags(p, samples=101)

    p = sub.add_parser("scatter", help="discord versus upper bound for random states")
    _add_experiment_flags(p)

    # mixture walks a fixed grid and draws nothing, so it takes no seed
    for name in ("table1", "histogram", "scatter"):
        sub.choices[name].add_argument("--seed", type=int, default=ExperimentConfig.seed,
                                       help=f"stream seed (default {ExperimentConfig.seed})")
    return parser


def _report_lines(report) -> list[str]:
    theta, phi = angles_from_direction(report.optimal_direction)
    nx, ny, nz = report.mcdm_direction
    return [
        f"mutual information       : {report.mutual_information:.12g}",
        f"classical correlation    : {report.classical_correlation:.12g}",
        f"quantum discord          : {report.discord:.12g}",
        f"mcdm discord             : {report.mcdm_discord:.12g}",
        f"optimal theta/pi         : {theta / math.pi:.12g}",
        f"optimal phi/pi           : {phi / math.pi:.12g}",
        f"min conditional entropy  : {report.min_conditional_entropy:.12g}",
        f"mcdm conditional entropy : {report.mcdm_conditional_entropy:.12g}",
        f"mcdm direction           : {nx:.12g} {ny:.12g} {nz:.12g}",
    ]


def _report_json(report) -> str:
    theta, phi = angles_from_direction(report.optimal_direction)
    payload = {
        "mutual_information": report.mutual_information,
        "classical_correlation": report.classical_correlation,
        "discord": report.discord,
        "mcdm_discord": report.mcdm_discord,
        "optimal_direction": [float(x) for x in report.optimal_direction],
        "optimal_theta_over_pi": theta / math.pi,
        "optimal_phi_over_pi": phi / math.pi,
        "min_conditional_entropy": report.min_conditional_entropy,
        "mcdm_conditional_entropy": report.mcdm_conditional_entropy,
        "mcdm_direction": [float(x) for x in report.mcdm_direction],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_discord(args) -> int:
    try:
        with open(args.statefile) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.statefile!r}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        matrix = parse_state_text(text)
    except StateParseError as exc:
        print(f"error: {args.statefile}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = quantum_discord(matrix)
    except ValidationError as exc:
        print(f"error: {args.statefile}: not a valid density matrix: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE
    text = _report_json(report) if args.json else "\n".join(_report_lines(report))
    return _write(OutputFile(None), text + "\n")


def _scatter_csv(config: ExperimentConfig) -> str:
    rows, mean_sq = bound_scatter(config)
    return render_csv(SCATTER_HEADER, rows, summary=f"# mean_squared_gap = {mean_sq:.12g}")


# experiment subcommand -> CSV text of its pipeline
_PIPELINES = {
    "table1": lambda config: render_csv(TABLE1_HEADER, optimal_direction_clusters(config)),
    "histogram": lambda config: render_csv(HISTOGRAM_HEADER, optimal_direction_histogram(config)),
    "mixture": lambda config: render_csv(MIXTURE_HEADER, mixture_curve(config)),
    "scatter": _scatter_csv,
}


def _write(out: OutputFile, text: str) -> int:
    """Write ``text`` to ``out``: exit 0, or exit 2 with one error line."""
    try:
        out.write(text)
    except OSError as exc:
        where = "stdout" if out.path is None else repr(out.path)
        print(f"error: cannot write {where}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _cmd_experiment(args) -> int:
    """Check the settings, reserve the output file, then run the pipeline and
    write its CSV.  A setting out of range is a usage error (exit 2)."""
    keys = ("samples", "seed", "workers", "cluster_tol", "bins")
    config = ExperimentConfig(**{key: getattr(args, key) for key in keys if hasattr(args, key)})
    try:
        config.validate()
    except ValueError as exc:
        args.parser.error(str(exc))
    try:
        out = OutputFile(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    with out:
        return _write(out, _PIPELINES[args.command](config))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _cmd_discord(args) if args.command == "discord" else _cmd_experiment(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
