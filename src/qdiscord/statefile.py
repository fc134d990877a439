"""Plain-text format for 4x4 complex matrices.

Four non-comment lines, each with four whitespace-separated entries of the
form ``a+bi`` (either sign, ``i`` or ``j`` suffix, plain reals allowed).
``#`` starts a comment.  Parse failures carry the 1-based line and column.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import StateParseError
from .linalg import one_matrix

_TOKEN = re.compile(r"\S+")


def _parse_entry(token: str, line_no: int, column: int) -> complex:
    text = token
    if text and text[-1] in "iI":
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise StateParseError(
            f"line {line_no}, column {column}: cannot parse {token!r} as a complex number",
            line=line_no, column=column) from None


def parse_state_text(text: str) -> np.ndarray:
    """Parse the text of a state file into a 4x4 complex ndarray.

    Only syntax is checked here; density-matrix validity is the caller's
    concern.
    """
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        matches = list(_TOKEN.finditer(line))
        if not matches:
            continue
        if len(matches) != 4:
            raise StateParseError(
                f"line {line_no}: expected 4 entries, found {len(matches)}",
                line=line_no, column=matches[0].start() + 1)
        if len(rows) == 4:
            raise StateParseError(
                f"line {line_no}: more than 4 matrix rows",
                line=line_no, column=matches[0].start() + 1)
        rows.append([_parse_entry(m.group(), line_no, m.start() + 1) for m in matches])
    if len(rows) != 4:
        raise StateParseError(f"expected 4 matrix rows, found {len(rows)}", line=None, column=None)
    return np.array(rows, dtype=complex)


def format_state(rho) -> str:
    """Render one 4x4 complex matrix in the state-file format (17 significant digits)."""
    return "".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n"
                   for row in one_matrix(rho))
