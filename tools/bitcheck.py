#!/usr/bin/env python3
"""Check that two source trees minimize to the same bits.

    python3 tools/bitcheck.py PARENT/src src

The ``qdiscord`` packages of both trees are imported into one process, as
``record_bench.py --parent`` imports them.  Each tree takes the canonical
blocks of the same states and solves them with ``_minimize_many``, stack by
stack, and the three outputs (directions, minima and the values on the
axes) of the two trees are compared bit for bit:

- the first STATES seed-7 Hilbert-Schmidt states, and their X projections,
  in stacks of STACK;
- the first LONE of each, alone;
- FAMILY_STATES states of every family of the tests' ``family_state``, in
  one stack and alone.

The canonical blocks of the two trees are compared too.  The pipelines'
rows are compared on the first PIPELINE_STATES seed-7 indices, each tree
drawing its own states:

- ``experiments._directions_chunk`` with and without the X projection, in
  calls of CHUNK indices, as ``table1`` makes them;
- ``experiments._scatter_chunk``, in calls of STACK indices.

One line is printed per comparison; the exit status is 1 if any bit
differs, else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "tools"), str(REPO / "tests"), str(REPO / "src")]

from record_bench import canonical_stack, load_tree  # noqa: E402
from test_measures import CERTIFIED_FAMILIES, family_state  # noqa: E402

SEED = 7
STATES = 100_000
STACK = 1024
PIPELINE_STATES = 10_000
CHUNK = 64
LONE = 500
FAMILY_STATES = 16
FAMILIES = CERTIFIED_FAMILIES + ("nearer_pure", "werner", "pure", "product")


def same_bits(first, second) -> bool:
    """Whether two sequences of float arrays hold the same bits."""
    return all(x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
               for x, y in zip(first, second, strict=True))


def minimized(tree, blocks, stack: int) -> list[np.ndarray]:
    """``_minimize_many``'s (n, value, axis_values) of ``tree`` on canonical
    ``blocks``, solved in stacks of ``stack`` states."""
    parts = [tree.refine._minimize_many(*(x[k:k + stack] for x in blocks))
             for k in range(0, len(blocks[0]), stack)]
    return [np.concatenate(p) for p in zip(*parts)]


def compare(trees, label: str, rhos: np.ndarray, stack: int) -> bool:
    """Print and return whether both ``trees`` give the states ``rhos`` the
    same canonical blocks and minimize them to the same bits."""
    blocks = [canonical_stack(tree, rhos) for tree in trees]
    same = same_bits(*blocks) and same_bits(*(minimized(tree, b, stack)
                                              for tree, b in zip(trees, blocks)))
    print(f"{label}: {len(rhos)} states, stacks of {stack}: "
          f"{'bit-identical' if same else 'DIFFER'}")
    return same


def compare_pipeline(trees, label: str, chunk: str, stack: int, **options) -> bool:
    """Print and return whether both ``trees``' ``experiments.<chunk>`` give the
    first PIPELINE_STATES seed-SEED indices the same bits, in calls of
    ``stack`` contiguous indices."""
    rows = []
    for tree in trees:
        config = tree.experiments.ExperimentConfig(seed=SEED)
        task = getattr(tree.experiments, chunk)
        rows.append([task(config, range(lo, min(lo + stack, PIPELINE_STATES)), **options)
                     for lo in range(0, PIPELINE_STATES, stack)])
    same = same_bits(*rows)
    print(f"{label}: {PIPELINE_STATES} indices, calls of {stack}: "
          f"{'bit-identical' if same else 'DIFFER'}")
    return same


def check(parent, change) -> bool:
    """Every comparison of the module docstring; True if no bit differs."""
    trees = (parent, change)
    config = parent.experiments.ExperimentConfig(seed=SEED)
    draws = [tree.experiments._hs_states(config, range(STATES)) for tree in trees]
    ok = same_bits(*draws)
    print(f"seed-{SEED} HS draw: {STATES} states: {'bit-identical' if ok else 'DIFFER'}")
    hs = draws[1]
    xs = change.project_x_state(hs)
    ok &= compare(trees, f"seed-{SEED} HS", hs, STACK)
    ok &= compare(trees, f"seed-{SEED} X projections", xs, STACK)
    ok &= compare(trees, f"seed-{SEED} HS", hs[:LONE], 1)
    ok &= compare(trees, f"seed-{SEED} X projections", xs[:LONE], 1)
    for family in FAMILIES:
        rhos = np.stack([family_state(family, s) for s in range(FAMILY_STATES)])
        ok &= compare(trees, family, rhos, FAMILY_STATES)
        ok &= compare(trees, family, rhos, 1)
    ok &= compare_pipeline(trees, "table1 directions", "_directions_chunk", CHUNK,
                           x_project=True)
    ok &= compare_pipeline(trees, "histogram directions", "_directions_chunk", CHUNK,
                           x_project=False)
    ok &= compare_pipeline(trees, "scatter rows", "_scatter_chunk", STACK)
    print("all bit-identical" if ok else "SOME DIFFER")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source directory of the tree to compare against")
    parser.add_argument("change", help="source directory of the tree under test")
    args = parser.parse_args(argv)
    parent = load_tree(args.parent, "qdiscord_parent")
    change = load_tree(args.change, "qdiscord_change")
    return 0 if check(parent, change) else 1


if __name__ == "__main__":
    sys.exit(main())
