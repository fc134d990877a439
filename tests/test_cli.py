import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import child_env, run_python
import qdiscord.cli
import qdiscord.experiments
from qdiscord import (SeededGenerator, angles_from_direction, format_state,
                      hemisphere_representative, mixture_family, off_axis_x_state,
                      quantum_discord, random_hs_state, reconstruct)
from qdiscord.cli import build_parser, main
from qdiscord.experiments import (ExperimentConfig, _directions_chunk, _solve, bound_scatter,
                                  optimal_direction_clusters,
                                  optimal_direction_histogram, render_csv)


def write_state(tmp_path, rho, name="state.txt"):
    path = tmp_path / name
    path.write_text(format_state(rho))
    return str(path)


@pytest.fixture
def no_child_left():
    """After the test, no child of this process is left running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def bell_state():
    psi = np.zeros(4)
    psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi).astype(complex)


class TestDiscordCommand:
    def test_bell_state_report(self, tmp_path, capsys):
        assert main(["discord", write_state(tmp_path, bell_state())]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().splitlines():
            key, _, rest = line.partition(":")
            values[key.strip()] = rest.split()
        assert float(values["mutual information"][0]) == pytest.approx(2.0, abs=1e-9)
        assert float(values["classical correlation"][0]) == pytest.approx(1.0, abs=1e-9)
        assert float(values["quantum discord"][0]) == pytest.approx(1.0, abs=1e-9)
        assert float(values["mcdm discord"][0]) == pytest.approx(1.0, abs=1e-9)

    def test_product_state_zeros(self, tmp_path, capsys):
        assert main(["discord", write_state(tmp_path, mixture_family(0.0))]) == 0
        out = capsys.readouterr().out
        for label in ("mutual information", "classical correlation",
                      "quantum discord", "mcdm discord"):
            line = next(l for l in out.splitlines() if l.startswith(label))
            assert abs(float(line.split(":")[1])) < 1e-9

    def test_off_axis_state_json(self, tmp_path, capsys):
        assert main(["discord", "--json", write_state(tmp_path, off_axis_x_state())]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["optimal_theta_over_pi"] - 0.155) < 0.01
        assert payload["mcdm_discord"] >= payload["discord"] - 1e-9
        assert payload["mcdm_direction"] == [1.0, 0.0, 0.0]

    def test_off_axis_state_optimum_on_its_great_circle(self, tmp_path, capsys):
        # the X-state's optimum lies on the circle through z and x, phi = 0
        assert main(["discord", write_state(tmp_path, off_axis_x_state())]) == 0
        values = {key.strip(): value.strip() for key, value in (
            line.split(":") for line in capsys.readouterr().out.splitlines())}
        assert values["optimal phi/pi"] == "0"
        assert values["optimal theta/pi"] == "0.155432779729"

    @pytest.mark.parametrize("rho", [
        reconstruct(np.diag([1.0, 0.1, 0.5, 0.2])),  # Bell-diagonal, MCDM along y
        np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),  # |00><00|
    ], ids=["bell-diagonal", "ket00"])
    def test_no_negative_zero(self, tmp_path, capsys, rho):
        path = write_state(tmp_path, rho)
        assert main(["discord", "--json", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        numbers = [x for v in payload.values() for x in (v if isinstance(v, list) else [v])]
        assert all(math.copysign(1.0, x) == 1.0 for x in numbers if x == 0.0), payload
        assert main(["discord", path]) == 0
        text = capsys.readouterr().out
        assert "-0" not in [field for line in text.splitlines() for field in line.split()], text

    def test_angles_of_flipped_direction_have_positive_zero_phi(self):
        _, phi = angles_from_direction((-0.6, 0.0, -0.8))
        assert phi == 0.0 and math.copysign(1.0, phi) == 1.0

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("0 0 0 0\n0 what 0 0\n0 0 0 0\n0 0 0 0\n")
        assert main(["discord", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["discord", str(tmp_path / "absent.txt")]) == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad"
        path.write_bytes(b"\xff\xfe")
        assert main(["discord", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_invalid_state_exit_3(self, tmp_path, capsys):
        bad = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        assert main(["discord", write_state(tmp_path, bad)]) == 3

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf+0i", "0+nani"])
    def test_non_finite_state_exit_3(self, tmp_path, capsys, entry):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"0.25 0 0 0\n0 0.25 0 0\n0 0 0.25 {entry}\n0 0 0 0.25\n")
        assert main(["discord", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["discord", "--bogus"])
        assert err.value.code == 2


# tokens that complex() rejects, reads as non-finite or huge, or reads though they look wrong
ODD_TOKENS = ("nan", "inf", "-inf", "nan+nanj", "infj", "1e400", "1e-400", "1e308+1e308i",
              "0x1", "1_0", "i", "+i", "1ii", "--1", "1+", "1e", "(1+2j)", "\u0661", "\u221e")
# amounts just inside and just outside HERMITICITY_TOL, TRACE_TOL and EIGENVALUE_FLOOR
DEFECT_SIZES = (5e-13, 2e-12, 5e-11, 2e-10, 1e-3)


@st.composite
def state_texts(draw):
    """Text of a state file: a random state of rank 1 to 4, with at most one
    defect in its matrix and at most one in its text."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, v = np.linalg.eigh(g @ g.conj().T)
    w[:4 - draw(st.integers(1, 4))] = 0.0
    w /= w.sum()
    size = draw(st.sampled_from(DEFECT_SIZES))
    defect = draw(st.sampled_from(["none", "hermiticity", "trace", "spectrum", "huge"]))
    if defect == "spectrum":  # lowest eigenvalues below 0, the trace kept
        k = draw(st.integers(1, 3))
        w[:k] -= size
        w[3] += k * size
    rho = (v * w) @ v.conj().T
    if defect == "hermiticity":
        rho = rho + size * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    elif defect == "trace":
        rho = rho * (1.0 + draw(st.sampled_from([-size, size])))
    elif defect == "huge":
        rho = rho * 1e300
    rows = [line.split() for line in format_state(rho).splitlines()]
    # half the texts reach validation unedited
    edit = draw(st.sampled_from(["none"] * 6 + ["token", "drop_row", "extra_row", "drop_entry",
                                                "extra_entry", "truncate"]))
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if edit == "token":
        rows[r][c] = draw(st.sampled_from(ODD_TOKENS))
    elif edit == "drop_row":
        del rows[r]
    elif edit == "extra_row":
        rows.insert(r, rows[c])
    elif edit == "drop_entry":
        del rows[r][c]
    elif edit == "extra_entry":
        rows[r].insert(c, rows[r][c])
    text = "\n".join(" ".join(row) for row in rows) + "\n"
    if edit == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    return text


class TestGeneratedStateFiles:
    """``qdiscord discord FILE`` on generated text ends with exit 0, 2 or 3,
    never with an exception (exit 1 and a traceback)."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("generated") / "state.txt")

    @given(text=state_texts())
    @settings(max_examples=300)
    def test_exit_code_is_documented(self, path, text):
        with open(path, "w") as fh:
            fh.write(text)
        for argv in (["discord", path], ["discord", "--json", path]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3)
        event(f"exit {code}")
        if code == 0:  # a report is finite: json.loads rejects NaN and Infinity here
            json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(name))


class TestSharedParser:
    """One parser serves every call in a process; a call that fails to parse
    leaves nothing behind that changes a later call."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_failed_calls_do_not_change_later_output(self, tmp_path, capsys):
        valid = [["discord", write_state(tmp_path, off_axis_x_state()), "--json"],
                 ["table1", "--samples", "50"]]

        def outputs():
            result = []
            for argv in valid:
                assert main(argv) == 0
                result.append(capsys.readouterr().out)
            return result

        build_parser.cache_clear()
        first = outputs()
        build_parser.cache_clear()
        parser = build_parser()
        for argv in (["discord", "--bogus"], ["table1", "--cluster-tol", "0.6"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
        capsys.readouterr()
        assert outputs() == first
        assert build_parser() is parser


class TestExperimentCommands:
    def test_table1_small(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table1", "--samples", "50", "--seed", "7",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta_over_pi,phi_over_pi,percentage"
        total = sum(float(l.split(",")[2]) for l in lines[1:])
        assert total == pytest.approx(100.0, abs=1e-9)
        # the dominant cluster is the maximal-correlation measurement
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.5, abs=1e-9)
        assert float(first[1]) == pytest.approx(0.0, abs=1e-9)

    def test_table1_single_sample_is_one_row(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["table1", "--samples", "1", "--seed", "3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == 100.0

    def test_histogram_mass_and_mode(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["histogram", "--samples", "80", "--seed", "5",
                     "--bins", "20x20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta_bin_lower_over_pi,phi_bin_lower_over_pi,count"
        rows = [l.split(",") for l in lines[1:]]
        assert sum(int(r[2]) for r in rows) == 80
        mode = max(rows, key=lambda r: int(r[2]))
        # the mode bin touches the maximal-correlation measurement (pi/2, 0);
        # the optima straddle that corner, so containment is closed-interval
        eps = 1e-12
        assert float(mode[0]) - eps <= 0.5 <= float(mode[0]) + 1 / 20 + eps
        assert float(mode[1]) - eps <= 0.0 <= float(mode[1]) + 1 / 20 + eps

    def test_mixture_endpoints(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["mixture", "--samples", "11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,discord,mcdm_discord"
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[0] == 0.0 and abs(first[1]) < 1e-9 and abs(first[2]) < 1e-9
        assert last[0] == 1.0
        assert last[1] == pytest.approx(1.0, abs=1e-9)
        assert last[2] == pytest.approx(1.0, abs=1e-9)
        for line in lines[1:]:
            q, d, dt = (float(x) for x in line.split(","))
            assert dt >= d

    def test_scatter_summary(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["scatter", "--samples", "40", "--seed", "11",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,discord,mcdm_discord"
        assert lines[-1].startswith("# mean_squared_gap = ")
        mean_sq = float(lines[-1].split("=")[1])
        gaps = []
        for line in lines[1:-1]:
            _, d, dt = line.split(",")
            gaps.append(float(dt) - float(d))
            assert float(dt) >= float(d) - 1e-9
        assert mean_sq == pytest.approx(sum(g * g for g in gaps) / len(gaps), rel=1e-9)

    def test_stdout_output(self, capsys):
        assert main(["mixture", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("q,discord,mcdm_discord\n")
        assert out.endswith("\n")


@pytest.mark.usefixtures("no_child_left")
class TestDeterminism:
    def test_workers_do_not_change_output(self, tmp_path):
        # three chunks, a ragged last one among them, over forked children
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table1", "--samples", "150", "--seed", "7", "--workers", "1",
              "--out", str(a)])
        main(["table1", "--samples", "150", "--seed", "7", "--workers", "3",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def counted_forks(monkeypatch, cores, affinity=True):
        """Record the pid of every child forked; the children still run.
        The machine has ``cores`` usable cores, reported by ``os.sched_getaffinity``,
        or without ``affinity`` (as off Linux) by ``os.cpu_count`` alone."""
        forked = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(qdiscord.experiments.os, "fork", counted_fork)
        if affinity:
            monkeypatch.setattr(qdiscord.experiments.os, "sched_getaffinity",
                                lambda pid: set(range(cores)), raising=False)
        else:
            monkeypatch.delattr(qdiscord.experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(qdiscord.experiments.os, "cpu_count",
                            lambda: 1 if affinity else cores)
        return forked

    def test_pool_no_larger_than_work(self, capsys, monkeypatch):
        # 150 points make three chunks of at most 64: this process and two children
        forked = self.counted_forks(monkeypatch, cores=64)
        assert main(["mixture", "--samples", "150", "--workers", "50"]) == 0
        pooled = capsys.readouterr().out
        assert main(["mixture", "--samples", "150"]) == 0
        assert pooled == capsys.readouterr().out
        assert main(["mixture", "--samples", "3", "--workers", "50"]) == 0
        assert len(forked) == 2  # one chunk, or one worker, forks no child

    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_no_larger_than_cores(self, capsys, monkeypatch, affinity):
        forked = self.counted_forks(monkeypatch, cores=2, affinity=affinity)
        assert main(["mixture", "--samples", "150", "--workers", "64"]) == 0
        pooled = capsys.readouterr().out
        assert main(["mixture", "--samples", "150"]) == 0
        assert pooled == capsys.readouterr().out
        assert len(forked) == 1

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scatter", "--samples", "25", "--seed", "9", "--out", str(a)])
        main(["scatter", "--samples", "25", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_no_partial_file_left_behind(self, tmp_path):
        out = tmp_path / "x.csv"
        main(["mixture", "--samples", "3", "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_temp_file_removed_on_failure(self, tmp_path, monkeypatch):
        def broken(config):
            raise RuntimeError("computation failed")
        monkeypatch.setattr(qdiscord.cli, "mixture_curve", broken)
        with pytest.raises(RuntimeError):
            main(["mixture", "--samples", "3", "--out", str(tmp_path / "x.csv")])
        assert list(tmp_path.iterdir()) == []


class UnpicklableError(Exception):
    """An exception that pickle cannot send: it holds a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


@pytest.mark.usefixtures("no_child_left")
class TestForkShares:
    """``_solve`` with 3 usable cores and 3 workers over 3 chunks: this process
    solves chunk 0 and two forked children one later chunk each."""

    CONFIG = ExperimentConfig(samples=3 * 64, workers=3)

    @pytest.fixture(autouse=True)
    def three_cores(self, monkeypatch):
        monkeypatch.setattr(qdiscord.experiments.os, "sched_getaffinity",
                            lambda pid: set(range(3)), raising=False)

    @staticmethod
    def wide_chunk(config, indices):
        """A chunk's result of 4 MiB, far more than a pipe holds; each row is
        filled with its own index, so the result does not depend on the calls."""
        return np.repeat(np.array(indices, dtype=float)[:, None], 2 ** 13, axis=1)

    def test_wide_results_arrive_in_index_order(self):
        serial = _solve(self.wide_chunk, dataclasses.replace(self.CONFIG, workers=1))
        assert np.array_equal(_solve(self.wide_chunk, self.CONFIG), serial)

    def test_child_exception_raised_again(self):
        def chunk(config, indices):
            if indices.start == 128:
                raise KeyError("last share")
            return self.wide_chunk(config, indices)
        with pytest.raises(KeyError, match="last share"):
            _solve(chunk, self.CONFIG)

    def test_child_unpicklable_exception_named(self):
        def chunk(config, indices):
            if indices.start == 128:
                raise UnpicklableError("last share")
            return self.wide_chunk(config, indices)
        with pytest.raises(RuntimeError, match=r"^worker \d+ raised UnpicklableError: last share"):
            _solve(chunk, self.CONFIG)

    def test_child_dying_silently_names_its_status(self):
        def chunk(config, indices):
            if indices.start == 64:
                os._exit(7)
            return self.wide_chunk(config, indices)
        with pytest.raises(RuntimeError, match="exit status 7"):
            _solve(chunk, self.CONFIG)

    def test_child_cut_off_mid_write_names_its_status(self, monkeypatch):
        # as a child killed while it writes: half of each payload arrives
        dumps = qdiscord.experiments.pickle.dumps
        monkeypatch.setattr(qdiscord.experiments.pickle, "dumps",
                            lambda obj: dumps(obj)[:len(dumps(obj)) // 2])
        with pytest.raises(RuntimeError, match=r"^worker \d+ sent an unreadable result of "
                                               r"\d+ bytes; exit status 0$"):
            _solve(self.wide_chunk, self.CONFIG)

    def test_parent_exception_unblocks_children(self):
        # the children block on their full pipes unless this process closes
        # the read ends before it waits for them
        def chunk(config, indices):
            if indices.start == 0:
                raise ValueError("first share")
            return self.wide_chunk(config, indices)

        def hang(signum, frame):
            raise TimeoutError("_solve still waits for its children")
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(30)
        try:
            with pytest.raises(ValueError, match="first share"):
                _solve(chunk, self.CONFIG)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("no_child_left")
class TestStacks:
    """``_solve`` calls the chunk function on contiguous stacks of at most
    STACK_SIZE indices, each within one share, and the stack size never
    changes the output."""

    SAMPLES = 5000  # 78 chunks of 64 and a ragged last one of 8

    @staticmethod
    def call_chunk(config, indices):
        """Per index: the index, the first and the end of its call's range,
        and the pid of the process that made the call."""
        rows = np.empty((len(indices), 4), dtype=np.int64)
        rows[:, 0] = indices
        rows[:, 1:] = indices.start, indices.stop, os.getpid()
        return rows

    @pytest.mark.parametrize("workers, share_ends", [
        (1, [5000]),
        # 79 chunks over 3 workers: shares of 26, 26 and 27 chunks
        (3, [26 * 64, 52 * 64, 5000]),
    ])
    def test_calls_stay_within_stacks_and_shares(self, monkeypatch, workers, share_ends):
        monkeypatch.setattr(qdiscord.experiments.os, "sched_getaffinity",
                            lambda pid: set(range(3)), raising=False)
        config = ExperimentConfig(samples=self.SAMPLES, workers=workers)
        rows = _solve(self.call_chunk, config)
        assert np.array_equal(rows[:, 0], np.arange(self.SAMPLES))  # each index once, in order
        calls = np.unique(rows[:, 1:], axis=0)  # (first, end, pid) per call, in order
        assert np.array_equal(calls[1:, 0], calls[:-1, 1])  # contiguous, no gap or overlap
        assert (calls[:, 1] - calls[:, 0] <= qdiscord.experiments.STACK_SIZE).all()
        share_starts = [0] + share_ends[:-1]
        for first, end in zip(share_starts, share_ends):
            within = calls[(calls[:, 0] >= first) & (calls[:, 0] < end)]
            assert within[0, 0] == first and within[-1, 1] == end  # no call crosses a share
            assert len(set(within[:, 2].tolist())) == 1  # one process per share
        assert len(set(calls[:, 2].tolist())) == workers

    def test_table1_calls_hold_one_chunk(self, monkeypatch):
        sizes = []
        chunk = qdiscord.experiments._directions_chunk

        def recorded(config, indices, **options):
            sizes.append(len(indices))
            return chunk(config, indices, **options)
        monkeypatch.setattr(qdiscord.experiments, "_directions_chunk", recorded)
        optimal_direction_clusters(ExperimentConfig(samples=300, seed=7))
        assert sizes == [64] * 4 + [44]

    def test_table1_diagonalizes_no_state_it_draws(self, monkeypatch):
        # the draws and their X projections are states by construction, and
        # nothing in table1 reads a spectrum
        def refused(*args, **kwargs):
            raise AssertionError("table1 diagonalized a state")
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, refused)
        rows = optimal_direction_clusters(ExperimentConfig(samples=300, seed=7))
        assert sum(percentage for _, _, percentage in rows) == pytest.approx(100.0)

    @pytest.mark.parametrize("command", ["histogram", "scatter", "mixture"])
    def test_stack_size_does_not_change_output(self, capsys, monkeypatch, command):
        outputs = []
        for stack in (64, 128, qdiscord.experiments.STACK_SIZE):
            monkeypatch.setattr(qdiscord.experiments, "STACK_SIZE", stack)
            assert main([command, "--samples", "300"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]


class TestOutputPath:
    @pytest.mark.parametrize("command", ["table1", "histogram", "mixture", "scatter"])
    def test_missing_directory_fails_before_computing(self, tmp_path, capsys,
                                                      monkeypatch, command):
        def never(config):
            raise AssertionError("computed before checking --out")
        for name in ("optimal_direction_clusters", "optimal_direction_histogram",
                     "mixture_curve", "bound_scatter"):
            monkeypatch.setattr(qdiscord.cli, name, never)
        out = tmp_path / "missing_dir" / "x.csv"
        assert main([command, "--samples", "300", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "missing_dir").exists()

    def test_empty_out_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["mixture", "--samples", "2", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_directory_as_out_exit_2(self, tmp_path, capsys):
        assert main(["mixture", "--samples", "3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_out_fifo_is_written_in_place(self, tmp_path, capsys):
        assert main(["mixture", "--samples", "3"]) == 0
        expected = capsys.readouterr().out.encode()
        fifo, alias = tmp_path / "fifo", tmp_path / "alias"
        os.mkfifo(fifo)
        os.link(fifo, alias)  # the FIFO under a name that --out does not touch
        received = []
        reader = threading.Thread(target=lambda: received.append(alias.read_bytes()))
        reader.start()
        try:
            assert main(["mixture", "--samples", "3", "--out", str(fifo)]) == 0
            reader.join(timeout=30.0)
            assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
            assert received == [expected]
        finally:
            if reader.is_alive():  # nothing wrote to the FIFO: let the reader see its end
                os.close(os.open(alias, os.O_WRONLY | os.O_NONBLOCK))
                reader.join()

    def test_out_symlink_replaces_the_file_it_names(self, tmp_path, capsys):
        assert main(["mixture", "--samples", "3"]) == 0
        expected = capsys.readouterr().out
        target = tmp_path / "data" / "x.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(os.path.join("data", "x.csv"))
        assert main(["mixture", "--samples", "3", "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_text() == expected
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.csv", "x.csv"]

    def test_output_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "x.csv"
        umask = os.umask(0o022)
        try:
            main(["mixture", "--samples", "3", "--out", str(out)])
        finally:
            os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o644

    def test_write_output_to_stdout(self, capsys):
        qdiscord.experiments.write_output("a,b\n1,2\n", None)
        assert capsys.readouterr().out == "a,b\n1,2\n"

    def test_write_output_replaces_the_file_atomically(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        out.write_text("old\n")
        qdiscord.experiments.write_output("a,b\n1,2\n", str(out))
        assert out.read_text() == "a,b\n1,2\n" and capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == [out]  # no temp file left beside it


class TestUnwritableStdout:
    """A stdout that cannot be written exits 2 with one error line and no
    traceback, neither from the command nor at interpreter exit."""

    @pytest.mark.parametrize("argv", [["discord", "STATE"], ["discord", "STATE", "--json"],
                                      ["mixture", "--samples", "3"], ["scatter", "--samples", "2"]],
                             ids=["discord", "discord_json", "mixture", "scatter"])
    def test_pipe_without_reader(self, tmp_path, argv):
        argv = [write_state(tmp_path, bell_state()) if arg == "STATE" else arg for arg in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run([sys.executable, "-m", "qdiscord.cli", *argv], stdout=write_end,
                                   stderr=subprocess.PIPE, text=True, env=child_env())
        finally:
            os.close(write_end)
        broken = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        assert (child.returncode, child.stderr) == (2, f"error: cannot write stdout: {broken}\n")

    def test_closed_stdout(self, capsys, monkeypatch):
        # the interpreter sets sys.stdout to None when it starts with file descriptor 1 closed
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["mixture", "--samples", "3"]) == 2
        assert capsys.readouterr().err == "error: cannot write stdout: stdout is closed\n"


class TestSettingRanges:
    """ExperimentConfig.validate is the one range check of the run settings: a
    setting out of range is a usage error that names it, raised before the
    output file is reserved."""

    # axis angles lie in [0, pi/2], so cluster tolerances above 1/2 are refused
    @pytest.mark.parametrize("argv, setting", [
        (["table1", "--samples", "0"], "samples"),
        (["scatter", "--workers", "0"], "workers"),
        (["histogram", "--bins", "0x5"], "bins"),
        (["histogram", "--bins", "99999999999999999999x2"], "bins"),  # no C long holds it
        (["histogram", "--bins", "9223372036854775807x2"], "bins"),  # its keys wrap in int64
    ] + [(["table1", f"--cluster-tol={value}"], "cluster_tol")
         for value in ("0", "-0.01", "nan", "inf", "0.51", "0.6", "2")])
    def test_out_of_range_exits_2_before_reserving_out(self, tmp_path, capsys, argv, setting):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and setting in captured.err
        # the subcommand's usage, as for a value argparse cannot convert
        assert captured.err.startswith(f"usage: qdiscord {argv[0]} [-h]")
        assert f"qdiscord {argv[0]}: error: " in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_bins_bound_pinned_at_its_boundary(self):
        # 2**53 bins in all, so that every bin key is exact in int64 and in float64
        for bins in [(2 ** 53, 1), (1, 2 ** 53), (2 ** 26, 2 ** 27)]:
            assert ExperimentConfig(bins=bins).validate() == ExperimentConfig(bins=bins)
        for bins in [(2 ** 53 + 1, 1), (1, 2 ** 53 + 1), (3, (2 ** 53 + 1) // 3)]:
            with pytest.raises(ValueError, match=rf"^bins .*{re.escape(repr(bins))}$"):
                ExperimentConfig(bins=bins).validate()

    @pytest.mark.parametrize("bins", ["axb", "3x", "x4", "3x4x5"])
    def test_malformed_bins_exit_2_with_the_form(self, capsys, bins):
        with pytest.raises(SystemExit) as err:
            main(["histogram", "--samples", "2", "--bins", bins])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "TxP" in captured.err and "_bins" not in captured.err

    @pytest.mark.parametrize("command", ["table1", "histogram", "scatter", "mixture"])
    def test_flag_defaults_are_the_config_defaults(self, capsys, command):
        # mixture walks a fixed grid of 101 points by default and draws nothing:
        # it takes no seed
        samples = 101 if command == "mixture" else ExperimentConfig.samples
        args = vars(build_parser().parse_args([command]))
        assert args.pop("samples") == samples
        assert ("seed" in args) == (command != "mixture")
        for field in dataclasses.fields(ExperimentConfig):
            if field.name in args:
                assert args[field.name] == field.default
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = capsys.readouterr().out
        assert f"number of samples (default {samples})" in help_text
        if command == "mixture":
            assert "seed" not in help_text
            with pytest.raises(SystemExit) as err:
                main(["mixture", "--seed", "1"])
            assert err.value.code == 2
        else:
            assert f"stream seed (default {ExperimentConfig.seed})" in help_text


def greedy_clusters(dirs, config):
    """The greedy per-direction loop, the reference of optimal_direction_clusters,
    as its rows: each direction joins the first cluster, in the order they
    formed, whose first member lies within the tolerance, or forms a new one."""
    cos_tol = math.sin((0.5 - config.cluster_tol) * math.pi)
    firsts, counts = [], []
    for n in dirs:
        for k, first in enumerate(firsts):
            if abs(float(first @ n)) >= cos_tol:
                counts[k] += 1
                break
        else:
            firsts.append(n)
            counts.append(1)
    order = sorted(range(len(firsts)), key=lambda k: (-counts[k], k))
    return [(*(angle / math.pi for angle in angles_from_direction(firsts[k])),
             100.0 * counts[k] / config.samples) for k in order]


def direction_sets(count):
    """``count`` sets each of random directions, of directions scattered around
    coordinate and diagonal axes, and of those axes exactly, as hemisphere
    representatives."""
    rng = np.random.default_rng(20261020)
    diagonals = np.array([[1, 1, 0], [0, 1, -1], [1, 0, 1]]) / 2 ** 0.5
    axes = np.vstack([np.eye(3), -np.eye(3), diagonals])
    for _ in range(count):
        size = int(rng.integers(1, 120))
        picks = axes[rng.integers(len(axes), size=size)]
        spread = rng.choice([1e-3, 1e-2, 0.1], size=(size, 1))
        scattered = picks + spread * rng.normal(size=(size, 3))
        for dirs in (rng.normal(size=(size, 3)), scattered):
            yield hemisphere_representative(dirs / np.linalg.norm(dirs, axis=1, keepdims=True))
        yield hemisphere_representative(picks)


class TestPipelineHelpers:
    @pytest.mark.parametrize("tol", [0.001, 0.003, 0.01, 0.05, 0.1, 0.25, 0.5])
    def test_clusters_equal_the_greedy_loop(self, monkeypatch, tol):
        # one array pass per cluster gives the greedy loop's membership
        for dirs in direction_sets(100):
            monkeypatch.setattr(qdiscord.experiments, "_solve",
                                lambda chunk_fn, config, **options: dirs)
            config = ExperimentConfig(samples=len(dirs), cluster_tol=tol)
            assert optimal_direction_clusters(config) == greedy_clusters(dirs, config)

    @pytest.mark.parametrize("tol", [0.001, 0.01])
    def test_pipeline_clusters_equal_the_greedy_loop(self, tol):
        config = ExperimentConfig(samples=300, seed=7, cluster_tol=tol)
        dirs = qdiscord.experiments._solve(_directions_chunk, config, x_project=True)
        assert optimal_direction_clusters(config) == greedy_clusters(dirs, config)

    def test_cluster_tolerance_merges_nearby_directions(self):
        rows = optimal_direction_clusters(
            ExperimentConfig(samples=30, seed=7, cluster_tol=0.5))
        assert len(rows) == 1
        assert rows[0][2] == 100.0

    def test_half_tolerance_merges_perpendicular_off_axis_directions(self, monkeypatch):
        # axis angles never exceed pi/2, so cluster_tol = 1/2 merges every
        # pair, also one whose dot product rounds to either side of 0
        rng = np.random.default_rng(20261019)
        first = np.array([0.6, 0.48, 0.64])
        u, v = np.linalg.svd(first[None])[2][1:]  # an orthonormal basis of first's plane
        turns = rng.uniform(0.0, 2.0 * math.pi, 400)
        dirs = hemisphere_representative(
            [first] + [math.cos(t) * u + math.sin(t) * v for t in turns])
        monkeypatch.setattr(qdiscord.experiments, "_solve",
                            lambda chunk_fn, config, **options: dirs)
        rows = optimal_direction_clusters(ExperimentConfig(samples=len(dirs), cluster_tol=0.5))
        theta, phi = angles_from_direction(first)
        assert rows == [(theta / math.pi, phi / math.pi, 100.0)]

    def test_render_csv_format(self):
        text = render_csv(("a", "b"), [(0.5, 1), (1 / 3, 2)])
        assert text == "a,b\n0.5,1\n0.333333333333,2\n"
        assert "\r" not in text

    @staticmethod
    def per_value_csv(header, rows, summary=None):
        """The CSV text of the per-value rule: an int or np.integer as an
        integer, any other value as f"{float(value):.12g}"."""
        def cell(value):
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            return f"{float(value):.12g}"
        lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
        return "\n".join(lines + ([summary] if summary is not None else [])) + "\n"

    @pytest.mark.parametrize("rows, expected", [
        ([(np.int64(2 ** 62), 0.5, 2.0), (7, np.float64(1 / 3), np.float64(-2.0)),
          (np.int64(-3), -0.0, 5e-324), (0, 1e300, 123456789012345.0)],
         "i,x,y\n4611686018427387904,0.5,2\n7,0.333333333333,-2\n-3,-0,4.94065645841e-324\n"
         "0,1e+300,1.23456789012e+14\n"),
        ([(2 ** 63, 2.5, 1e-05), (np.int64(1), 2.0, np.float64(0.0))],
         "i,x,y\n9223372036854775808,2.5,1e-05\n1,2,0\n"),
        ([(math.nan, math.inf, -math.inf), (np.float64(math.nan), 0.1, np.float64(-math.inf))],
         "i,x,y\nnan,inf,-inf\nnan,0.1,-inf\n"),
        ([[0.25, 1.0, -0.0], [np.float64(1e-300), 1e16, 7.0]],
         "i,x,y\n0.25,1,-0\n1e-300,1e+16,7\n"),
        ([], "i,x,y\n"),
    ])
    @pytest.mark.parametrize("summary", [None, "# mean_squared_gap = 1"])
    def test_render_csv_keeps_the_per_value_bytes(self, rows, expected, summary):
        text = render_csv(("i", "x", "y"), rows, summary=summary)
        assert text == self.per_value_csv(("i", "x", "y"), rows, summary)
        assert text == expected + (f"{summary}\n" if summary else "")

    def test_render_csv_sweep_call(self):
        # the two-argument call of perfbench's sweep, on report fields
        reports = [quantum_discord(random_hs_state(SeededGenerator(5, start=i))) for i in range(3)]
        rows = [(i, report.discord, report.mcdm_discord) for i, report in enumerate(reports)]
        header = ("index", "discord", "mcdm_discord")
        assert render_csv(header, rows) == self.per_value_csv(header, rows)

    def test_scatter_rows_equal_single_state_reports(self):
        # 130 states: two full chunks and a ragged one of two
        config = ExperimentConfig(samples=130, seed=11)
        rows, _ = bound_scatter(config)
        assert [row[0] for row in rows] == list(range(130))
        for index, discord, mcdm in rows:
            report = quantum_discord(random_hs_state(SeededGenerator(11, start=index)))
            assert (discord, mcdm) == (report.discord, report.mcdm_discord)

    def test_histogram_rows_sorted(self):
        rows = optimal_direction_histogram(ExperimentConfig(samples=40, seed=3, bins=(10, 10)))
        assert rows == sorted(rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(samples=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(bins=(0, 5)).validate()
        for tol in (0.0, -0.01, float("nan"), float("inf"), 0.51, 2.0):
            with pytest.raises(ValueError):
                ExperimentConfig(cluster_tol=tol).validate()


DATA = os.path.join(os.path.dirname(__file__), "data")
# SHA-256 of the text of `qdiscord table1 --samples 100000 --seed 7`
TABLE1_100K_SEED7_SHA256 = "5af6d35410fd8764a54fd977bb00c281c58eb5b6604e9c37211d507a656570f0"


class TestGoldenOutputs:
    """CSV bytes for fixed seeds, as committed under tests/data, and the SHA-256
    of a paper-scale CSV."""

    @pytest.mark.parametrize("argv, name", [
        (["table1", "--samples", "500", "--seed", "7"], "table1_samples500_seed7.csv"),
        (["histogram", "--samples", "500", "--seed", "7"], "histogram_samples500_seed7.csv"),
        (["mixture"], "mixture_default.csv"),
        (["scatter", "--samples", "500", "--seed", "7"], "scatter_samples500_seed7.csv"),
    ], ids=["table1", "histogram", "mixture", "scatter"])
    def test_csv_bytes_unchanged(self, tmp_path, argv, name):
        out = tmp_path / name
        assert main(argv + ["--workers", "1", "--out", str(out)]) == 0
        with open(os.path.join(DATA, name), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_paper_scale_table1_digest(self, tmp_path):
        # 98.776 / 1.216 / 0.006 %, and 0.001 % at each of two interior optima;
        # the worker count does not change the bytes, and up to 4 cores share the run
        out = tmp_path / "table1.csv"
        assert main(["table1", "--samples", "100000", "--seed", "7",
                     "--workers", "4", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE1_100K_SEED7_SHA256


class TestDependencies:
    def test_cli_runs_without_scipy(self):
        code = ("import contextlib, io, sys, qdiscord.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    qdiscord.cli.main(['mixture', '--samples', '3'])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert run_python(code) == "[]\n"

    def test_cli_leaves_multiprocessing_unimported(self):
        # the experiments fork their children directly
        code = ("import sys, qdiscord.cli\n"
                "print([m for m in ('multiprocessing', 'socket', 'selectors') if m in sys.modules])\n")
        assert run_python(code) == "[]\n"

    def test_discord_call_leaves_numpy_random_unimported(self, tmp_path):
        # the discord path never draws; importing numpy.random would add to its setup
        code = ("import contextlib, io, sys, qdiscord.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = qdiscord.cli.main(['discord', {write_state(tmp_path, bell_state())!r},"
                " '--json'])\n"
                "print(code, 'numpy.random' in sys.modules)\n")
        assert run_python(code) == "0 False\n"
