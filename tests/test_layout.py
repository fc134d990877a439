"""The package's module layering, and the reach of the tools into it."""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import qdiscord

PACKAGE = Path(qdiscord.__file__).parent
TOOLS = Path(__file__).resolve().parents[1] / "tools"
RECORD_BENCH = TOOLS / "record_bench.py"
BITCHECK = TOOLS / "bitcheck.py"


def package_imports(source: str) -> set:
    """The modules of the package that ``source`` imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                found.update([node.module] if node.module else [a.name for a in node.names])
            elif node.level == 0 and (node.module or "").startswith("qdiscord."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("qdiscord."))
    return found


def raised_names(source: str) -> set:
    """The names of the exceptions that ``source`` raises by name, called or not."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                found.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return found


def import_graph() -> dict:
    """Each module of the package, by its name, and the modules it imports."""
    return {path.stem: package_imports(path.read_text())
            for path in PACKAGE.glob("*.py") if path.stem != "__init__"}


def cycle(graph: dict):
    """A list of modules that import each other in a ring, or None."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for imported in sorted(graph.get(module, ())):
            found = visit(imported)
            if found:
                return found
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        found = visit(module)
        if found:
            return found
    return None


class TestLayering:
    def test_graph_holds_every_module(self):
        graph = import_graph()
        assert {"oracle", "closed_form", "refine", "measures", "linalg"} <= set(graph)
        assert graph["measures"] >= {"closed_form", "oracle", "refine"}

    def test_oracle_imports_only_errors_and_linalg(self):
        # the oracle checks the closed form, so it cannot reach it
        assert import_graph()["oracle"] <= {"errors", "linalg"}

    def test_closed_form_imports_only_its_leaves(self):
        assert import_graph()["closed_form"] <= {"errors", "fano_bloch", "linalg"}

    def test_refine_reaches_neither_the_reports_nor_the_oracle(self):
        assert not import_graph()["refine"] & {"measures", "oracle"}

    def test_only_linalg_says_what_a_state_is(self):
        raisers = {path.stem for path in PACKAGE.glob("*.py")
                   if "NotAStateError" in raised_names(path.read_text())}
        assert raisers == {"linalg"}

    def test_raise_reader_sees_every_raise_form(self):
        source = ("raise NotAStateError('x')\nraise errors.ValidationError\n"
                  "try:\n    pass\nexcept KeyError:\n    raise\n")
        assert raised_names(source) == {"NotAStateError", "ValidationError"}

    def test_no_import_cycle(self):
        assert cycle(import_graph()) is None

    def test_cycle_finder_finds_a_ring(self):
        assert cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
        assert cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None

    def test_reader_sees_every_import_form(self):
        source = ("from .closed_form import _ce_many\nfrom . import refine\n"
                  "from qdiscord.oracle import projectors\nimport qdiscord.measures\n"
                  "from .linalg import (SIGMA_0,\n    SIGMA_X)\nimport numpy as np\n")
        assert package_imports(source) == {"closed_form", "refine", "oracle", "measures",
                                           "linalg"}


def load_tool(path, monkeypatch):
    """The script ``path`` of tools/, loaded as a module, with the thread
    settings and the import path it changes on import restored afterwards."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def record_bench(monkeypatch):
    """tools/record_bench.py, on 4 states in chunks of 2 and 4 CLI states."""
    module = load_tool(RECORD_BENCH, monkeypatch)
    for name, value in (("STATES", 4), ("CHUNK", 2), ("CLI_STATES", 4)):
        monkeypatch.setattr(module, name, value)
    return module


class TestRecordBench:
    def test_times_every_stage(self, record_bench, tmp_path):
        # each stage on 4 states, as the tool's main runs it: a name that the
        # tool reaches and that is gone fails here
        tree = record_bench.with_modules(qdiscord)
        inputs = record_bench.bench_inputs(tree, str(tmp_path))
        record = {**record_bench.solve_times(tree, inputs["hs_blocks"]),
                  **record_bench.pipeline_times(tree, inputs),
                  **record_bench.cli_call_times(tree, inputs["paths"])}
        assert len(record) == 12 and all(value > 0 for value in record.values())

    def test_counts_newton_evaluations(self, record_bench, tmp_path):
        tree = record_bench.with_modules(qdiscord)
        inputs = record_bench.bench_inputs(tree, str(tmp_path))
        record = record_bench.newton_evaluations(tree, inputs["hs_blocks"], inputs["x_blocks"])
        assert record["hs_mean"] > 0 and record["x_projected_mean"] > 0
        assert record["hs_per_start_mean"] > 0 and record["x_projected_per_start_mean"] > 0

    def test_raises_when_nothing_is_counted(self, record_bench):
        # CE is 0 along every axis of a pure product state, so no start moves
        tree = record_bench.with_modules(qdiscord)
        product = np.zeros((4, 4, 4), dtype=complex)
        product[:, 0, 0] = 1.0
        blocks = record_bench.canonical_stack(tree, product)
        with pytest.raises(RuntimeError, match="no call"):
            record_bench.newton_evaluations(tree, blocks, blocks)


@pytest.fixture
def bitcheck(monkeypatch):
    """tools/bitcheck.py, on 4 seed-7 states, 2 of them alone, 2 states of
    each family, and 5 pipeline indices in chunks of 2."""
    module = load_tool(BITCHECK, monkeypatch)
    for name, value in (("STATES", 4), ("LONE", 2), ("FAMILY_STATES", 2),
                        ("PIPELINE_STATES", 5), ("CHUNK", 2)):
        monkeypatch.setattr(module, name, value)
    return module


class TestBitcheck:
    def test_tree_against_itself(self, bitcheck, capsys):
        # every comparison on a few states, as the tool's main runs it: a name
        # that the tool reaches and that is gone fails here
        src = str(PACKAGE.parent)
        assert bitcheck.main([src, src]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 4 + 2 * len(bitcheck.FAMILIES) + 3 + 1
        assert all(line.endswith("bit-identical") for line in lines)

    def test_one_moved_bit_fails(self, bitcheck, monkeypatch, capsys):
        src = str(PACKAGE.parent)
        parent = bitcheck.load_tree(src, "qdiscord_parent")
        change = bitcheck.load_tree(src, "qdiscord_change")
        minimize = change.refine._minimize_many

        def nudged(a, b, r):
            n, value, axis_values = minimize(a, b, r)
            return n, np.nextafter(value, np.inf), axis_values

        monkeypatch.setattr(change.refine, "_minimize_many", nudged)
        assert not bitcheck.check(parent, change)
        out = capsys.readouterr().out
        assert "HS: 4 states, stacks of 1024: DIFFER" in out and out.endswith("SOME DIFFER\n")

    def test_one_moved_pipeline_bit_fails(self, bitcheck, monkeypatch, capsys):
        # a change to a pipeline's own stages, outside the minimizer: table1
        # chunks that skip their X projection
        src = str(PACKAGE.parent)
        parent = bitcheck.load_tree(src, "qdiscord_parent")
        change = bitcheck.load_tree(src, "qdiscord_change")
        monkeypatch.setattr(change.experiments, "_x_projection", lambda rhos: rhos)
        assert not bitcheck.check(parent, change)
        out = capsys.readouterr().out.splitlines()
        assert out[-4:] == ["table1 directions: 5 indices, calls of 2: DIFFER",
                            "histogram directions: 5 indices, calls of 2: bit-identical",
                            "scatter rows: 5 indices, calls of 1024: bit-identical",
                            "SOME DIFFER"]
