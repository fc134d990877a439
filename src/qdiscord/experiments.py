"""Reproducible ensemble experiments behind the CLI.

Every pipeline draws state k from the substream (seed, k) and solves its
states in chunks, each state to the same bits as alone, so the output is a
pure function of the configuration: reruns, chunk sizes and worker counts
produce byte-identical tables.

With W workers, at most one per chunk and per usable core, the chunks form
W contiguous shares.  This process solves the first; each of W - 1 children
forked with ``os.fork`` solves one later share and sends its array back
through its own pipe.  The arrays are joined in
index order and every child is reaped, on success and on failure.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .canonical import canonical_blocks, hemisphere_representative
from .ensembles import _ginibre_states, _substream_normals, mixture_family, project_x_state
from .fano_bloch import state_blocks
from .measures import _discord_reports, _minimize_many, angles_from_directions


# histogram bins in all: each bin key theta_bin * phi_bins + phi_bin is then exact
# in int64 and in float64
MAX_BINS = 2 ** 53


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by the ensemble experiments."""

    samples: int = 10000
    seed: int = 42
    bins: tuple[int, int] = (100, 100)
    workers: int = 1
    cluster_tol: float = 0.01  # angle between axes, in units of pi; axis angles are <= 1/2

    def validate(self) -> "ExperimentConfig":
        """Return self, or raise ValueError naming the first setting out of range."""
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers!r}")
        if self.bins[0] < 1 or self.bins[1] < 1:
            raise ValueError(f"bins must be positive, got {self.bins!r}")
        if self.bins[0] * self.bins[1] > MAX_BINS:
            raise ValueError(f"bins must number at most 2**53 in all, got {self.bins!r}")
        if not 0.0 < self.cluster_tol <= 0.5:
            raise ValueError(f"cluster_tol must lie in (0, 0.5], got {self.cluster_tol!r}")
        return self


# --------------------------------------------------------------------------- #
# chunked solves                                                              #
# --------------------------------------------------------------------------- #

# states drawn and solved together by one task
CHUNK_SIZE = 64


def _hs_states(config: ExperimentConfig, indices: range) -> np.ndarray:
    """Random state k drawn from the substream (seed, k), for each index k, stacked:
    the normals of every index from one seeding pass over the chunk, then one
    kernel call for the whole stack, so each state has the bits of its
    random_hs_state."""
    return _ginibre_states(_substream_normals(config.seed, indices))


def _directions_chunk(config: ExperimentConfig, indices: range, x_project: bool) -> np.ndarray:
    """Hemisphere representative (S, 3) of each random state's optimal direction in
    its canonical frame (no SU(2) lift), after the X projection if ``x_project``."""
    rhos = _hs_states(config, indices)
    if x_project:
        rhos = project_x_state(rhos)
    _, canonical = canonical_blocks(state_blocks(rhos))
    return hemisphere_representative(_minimize_many(canonical.a, canonical.b, canonical.r)[0])


def _scatter_chunk(config: ExperimentConfig, indices: range) -> np.ndarray:
    """(discord, mcdm_discord) of each random state, (S, 2)."""
    report = _discord_reports(_hs_states(config, indices))
    return np.stack([report.discord, report.mcdm_discord], axis=1)


def _mixture_chunk(config: ExperimentConfig, indices: range) -> np.ndarray:
    """(q, discord, mcdm_discord) at each point of the uniform q grid, (S, 3)."""
    qs = np.array(indices) / max(config.samples - 1, 1)
    report = _discord_reports(mixture_family(qs))
    return np.stack([qs, report.discord, report.mcdm_discord], axis=1)


def _solve_share(task, share: list) -> np.ndarray:
    return np.concatenate([task(chunk) for chunk in share])


def _fork_share(task, share: list, inherited: list) -> tuple[int, int]:
    """Fork a child to solve ``share``; return its pid and the read end of its
    pipe.  The child sends ``pickle.dumps((ok, array_or_exception))`` and ends
    with ``os._exit``.  It first closes ``inherited``, the read ends of the
    pipes of earlier children, so that when the parent closes them their
    writers see a broken pipe at once rather than when this child ends."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        for fd in inherited + [read_fd]:
            os.close(fd)
        try:
            payload = (True, _solve_share(task, share))
        except Exception as exc:  # sent to the parent, which raises it again
            payload = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        status = 0
    finally:
        os._exit(status)


def _share_result(pid: int, read_fd: int) -> np.ndarray:
    """The array a child sent through ``read_fd``; its exception raised again;
    RuntimeError if it ended without sending one.  Closes ``read_fd`` and reaps
    the child."""
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"worker {pid} sent no result; exit status "
                           f"{os.waitstatus_to_exitcode(status)}")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _solve(chunk_fn, config: ExperimentConfig, **options) -> np.ndarray:
    """``chunk_fn(config, indices, **options)`` over chunks of CHUNK_SIZE indices,
    its arrays concatenated in index order.

    With W = min(workers, chunks, usable cores) > 1 the chunks are split into
    W contiguous shares: this process solves the first while W - 1 forked
    children solve one later share each.  Every child is reaped before this
    returns or raises.  Each state's result depends only on its index, so
    neither the chunks nor the shares change the output."""
    config.validate()
    task = functools.partial(chunk_fn, config, **options)
    chunks = [range(start, min(start + CHUNK_SIZE, config.samples))
              for start in range(0, config.samples, CHUNK_SIZE)]
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(config.workers, len(chunks), cores)
    if workers <= 1:
        return _solve_share(task, chunks)
    ends = [len(chunks) * w // workers for w in range(workers + 1)]
    shares = [chunks[lo:hi] for lo, hi in zip(ends, ends[1:])]
    children = []  # (pid, read end), until reaped
    try:
        for share in shares[1:]:
            children.append(_fork_share(task, share, [fd for _, fd in children]))
        results = [_solve_share(task, shares[0])]
        while children:
            results.append(_share_result(*children.pop(0)))
    finally:
        # on failure, closing the read ends first lets a child blocked on a
        # full pipe end instead of waiting for a read that never comes
        for _, read_fd in children:
            os.close(read_fd)
        for pid, _ in children:
            os.waitpid(pid, 0)
    return np.concatenate(results)


# --------------------------------------------------------------------------- #
# pipelines                                                                   #
# --------------------------------------------------------------------------- #

TABLE1_HEADER = ("theta_over_pi", "phi_over_pi", "percentage")
HISTOGRAM_HEADER = ("theta_bin_lower_over_pi", "phi_bin_lower_over_pi", "count")
MIXTURE_HEADER = ("q", "discord", "mcdm_discord")
SCATTER_HEADER = ("index", "discord", "mcdm_discord")


def optimal_direction_clusters(config: ExperimentConfig) -> list[tuple[float, float, float]]:
    """Optimal-measurement clusters for random X-states, as rows
    (theta/pi, phi/pi, percentage) in descending order.

    Pipeline per state: Hilbert-Schmidt draw, X projection, canonical form,
    conditional-entropy minimization.  Directions are clustered greedily by
    axis angle (tolerance ``cluster_tol`` * pi): the first direction not yet
    clustered labels a new cluster and takes, in one array pass, every later
    direction within the tolerance of it.
    """
    dirs = _solve(_directions_chunk, config, x_project=True)
    # cos(tol * pi), exactly 0 at tol = 1/2, which merges every pair of axes
    cos_tol = math.sin((0.5 - config.cluster_tol) * math.pi)
    firsts, counts = [], []
    while len(dirs):
        joins = np.abs(dirs[1:] @ dirs[0]) >= cos_tol
        firsts.append(dirs[0])
        counts.append(1 + int(joins.sum()))
        dirs = dirs[1:][~joins]
    rows = [(theta / math.pi, phi / math.pi, 100.0 * count / config.samples)
            for (theta, phi), count in zip(angles_from_directions(firsts), counts)]
    return sorted(rows, key=lambda row: -row[2])  # stable: equal counts keep their order


def optimal_direction_histogram(config: ExperimentConfig) -> list[tuple[float, float, int]]:
    """2-D histogram of optimal measurements for random states, as rows
    (theta bin lower edge / pi, phi bin lower edge / pi, count), non-empty
    bins only, in bin order.  Counts sum to ``samples``.
    """
    theta, phi = np.array(angles_from_directions(
        _solve(_directions_chunk, config, x_project=False))).T
    t_bins, p_bins = config.bins
    ti = np.minimum((theta / math.pi * t_bins).astype(int), t_bins - 1)
    pj = np.minimum(((phi + math.pi / 2) / math.pi * p_bins).astype(int), p_bins - 1)
    keys, counts = np.unique(ti * p_bins + pj, return_counts=True)
    return [(key // p_bins / t_bins, -0.5 + key % p_bins / p_bins, count)
            for key, count in zip(keys.tolist(), counts.tolist())]


def mixture_curve(config: ExperimentConfig) -> list[list[float]]:
    """(q, discord, upper bound) on a uniform q grid with ``samples`` points."""
    return _solve(_mixture_chunk, config).tolist()


def bound_scatter(config: ExperimentConfig) -> tuple[list[tuple[int, float, float]], float]:
    """(index, discord, upper bound) for random states plus the mean squared gap."""
    pairs = _solve(_scatter_chunk, config).tolist()
    rows = [(i, d, dt) for i, (d, dt) in enumerate(pairs)]
    mean_sq = math.fsum((dt - d) ** 2 for d, dt in pairs) / len(pairs)
    return rows, mean_sq


# --------------------------------------------------------------------------- #
# CSV output                                                                  #
# --------------------------------------------------------------------------- #

def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def render_csv(header, rows, summary: Optional[str] = None) -> str:
    """CSV text: header row, 12-significant-digit values, LF endings."""
    lines = [",".join(header)]
    lines.extend(",".join(_format_value(v) for v in row) for row in rows)
    if summary is not None:
        lines.append(summary)
    return "\n".join(lines) + "\n"


class OutputFile:
    """Destination of one CSV text: stdout, or ``path`` replaced atomically.

    The constructor creates a unique temp file next to ``path``, so an empty
    path or a bad directory raises :class:`OSError` before any computation; :meth:`write`
    renames it onto ``path``, and leaving the ``with`` block before that removes it.
    """

    def __init__(self, path: Optional[str]):
        self.path, self._tmp = path, None
        if path is not None:
            if not path:
                raise FileNotFoundError("empty output path")
            if os.path.isdir(path):
                raise IsADirectoryError(f"{path!r} is a directory")
            fd, self._tmp = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.", suffix=".tmp",
                                             dir=os.path.dirname(path) or ".")
            os.close(fd)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(self._tmp, 0o666 & ~umask)  # mkstemp creates the file private

    def write(self, text: str) -> None:
        if self.path is None:
            sys.stdout.write(text)
            return
        with open(self._tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(self._tmp, self.path)
        self._tmp = None

    def __enter__(self) -> "OutputFile":
        return self

    def __exit__(self, *exc) -> None:
        if self._tmp is not None:
            os.unlink(self._tmp)


def write_output(text: str, path: Optional[str]) -> None:
    """Write to stdout, or atomically to ``path`` (temp file and rename)."""
    with OutputFile(path) as out:
        out.write(text)
