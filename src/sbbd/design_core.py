"""Exact integer matrix types and the SB-block / design-matrix encoding.

An SB-block is a spanning-candidate subgraph of the complete bipartite graph
K_{v1,v2}, stored as a set of 1-based edges (i, j).  A design matrix packs N
such blocks into an N x (v1*v2) (0,1)-matrix whose columns enumerate the
edges e_11, e_12, ..., e_1v2, e_21, ..., e_v1v2 in lexicographic order, so
edge (i, j) owns column (i-1)*v2 + j (1-based).

All matrices are exact integers; nothing in this module touches floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class SbbdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SbbdError):
    """Shapes or index ranges are inconsistent."""


class FormatError(SbbdError):
    """Input data violates a declared file or value format."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.int64)
    out.flags.writeable = False
    return out


def edge_column(i: int, j: int, v2: int) -> int:
    """1-based column index of edge (i, j) in the lexicographic edge order."""
    return (i - 1) * v2 + j


@dataclass(frozen=True)
class SBBlock:
    """One bipartite block: an edge subset of K_{v1,v2} with 1-based endpoints."""

    v1: int
    v2: int
    edges: frozenset

    def __post_init__(self):
        edges = frozenset(tuple(e) for e in self.edges)
        for (i, j) in edges:
            if not (1 <= i <= self.v1 and 1 <= j <= self.v2):
                raise DimensionError(
                    f"edge ({i},{j}) out of range for K_{{{self.v1},{self.v2}}}"
                )
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class SbbdParameters:
    """Parameter tuple of an SBBD(v1, v2, N; Lambda)."""

    v1: int
    v2: int
    n_rows: int
    mu: int
    lambda12: int
    lambda21: int
    lambda22: int

    # coefficients of the two completely symmetric layers of X^T X
    @property
    def a(self) -> int:
        return self.mu - self.lambda12

    @property
    def b(self) -> int:
        return self.lambda12

    @property
    def c(self) -> int:
        return self.lambda21 - self.lambda22

    @property
    def d(self) -> int:
        return self.lambda22

    @property
    def lam(self) -> tuple:
        return (self.mu, self.lambda12, self.lambda21, self.lambda22)


@dataclass(frozen=True)
class DesignMatrix:
    """N x (v1*v2) (0,1)-matrix whose rows encode SB-blocks."""

    v1: int
    v2: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.v1 < 1 or self.v2 < 1:
            raise DimensionError(f"need v1 >= 1 and v2 >= 1, got {self.v1} x {self.v2}")
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[1] != self.v1 * self.v2:
            raise DimensionError(
                f"matrix shape {m.shape} does not match v1*v2 = {self.v1 * self.v2}"
            )
        if m.size and not np.isin(m, (0, 1)).all():
            raise FormatError("design matrix entries must be 0 or 1")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def panel(self, i: int) -> np.ndarray:
        """Submatrix X_i (1-based): the v2 columns owned by left point i."""
        if not 1 <= i <= self.v1:
            raise DimensionError(f"panel index {i} out of range 1..{self.v1}")
        return self.matrix[:, (i - 1) * self.v2 : i * self.v2]


def blocks_to_matrix(blocks: list) -> DesignMatrix:
    """Encode SB-blocks as the rows of a design matrix.

    Row k carries a 1 exactly in the columns of the edges of blocks[k].
    All blocks must live on the same K_{v1,v2}.
    """
    if not blocks:
        raise DimensionError("need at least one block")
    v1, v2 = blocks[0].v1, blocks[0].v2
    for b in blocks:
        if (b.v1, b.v2) != (v1, v2):
            raise DimensionError(
                f"block on K_{{{b.v1},{b.v2}}} mixed with K_{{{v1},{v2}}}"
            )
    m = np.zeros((len(blocks), v1 * v2), dtype=np.int64)
    for k, b in enumerate(blocks):
        for (i, j) in b.edges:
            m[k, edge_column(i, j, v2) - 1] = 1
    return DesignMatrix(v1, v2, m)


def matrix_to_blocks(x: DesignMatrix) -> list:
    """Decode each row of a design matrix back into an SB-block."""
    out = []
    for row in x.matrix:
        cols = np.flatnonzero(row)
        edges = frozenset((int(c) // x.v2 + 1, int(c) % x.v2 + 1) for c in cols)
        out.append(SBBlock(x.v1, x.v2, edges))
    return out


def submatrix_partition(x: DesignMatrix) -> list:
    """Split X into its v1 panels (X_1 | X_2 | ... | X_v1), in order."""
    return [x.panel(i) for i in range(1, x.v1 + 1)]


# --- file formats -----------------------------------------------------------
#
# Design matrix CSV: one row per line, comma-separated 0/1, no header.
#                    The writer emits the canonical form "d,d,...,d\n" per
#                    row ("\n" alone for 0 rows); the reader takes canonical
#                    text as one byte array and hands anything else
#                    (spaces, "+0", CRLF, errors) to the per-token parser.
# SB-block JSON:     {"v1": int, "v2": int, "blocks": [[[i, j], ...], ...]}
#                    with 1-based edge indices.

_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")


def matrix_to_csv(x: DesignMatrix) -> str:
    n, w = x.matrix.shape
    if n == 0:
        return "\n"
    buf = np.full((n, 2 * w), _COMMA, dtype=np.uint8)
    buf[:, 0::2] = x.matrix + _ZERO
    buf[:, -1] = _NEWLINE
    return buf.tobytes().decode("ascii")


def matrix_from_csv(text: str, v1: int, v2: int) -> DesignMatrix:
    body = text.strip()
    if body.isascii():
        buf = np.frombuffer((body + "\n").encode("ascii"), dtype=np.uint8)
        line = body.find("\n") + 1 or len(buf)
        if len(buf) % line == 0:  # an odd line length puts "\n" among the digits
            rows = buf.reshape(-1, line)
            digits = rows[:, 0::2]
            if (
                (rows[:, 1:-1:2] == _COMMA).all()
                and (rows[:, -1] == _NEWLINE).all()
                and ((digits | 1) == _ZERO + 1).all()
            ):
                return DesignMatrix(v1, v2, digits - _ZERO)
    return _matrix_from_csv_tokens(body, v1, v2)


def _matrix_from_csv_tokens(text: str, v1: int, v2: int) -> DesignMatrix:
    """Per-token parser for any CSV the byte-level reader does not take."""
    rows = []
    for ln, line in enumerate(text.strip().splitlines(), 1):
        try:
            rows.append([int(tok) for tok in line.strip().split(",")])
        except ValueError as exc:
            raise FormatError(f"line {ln}: non-integer entry") from exc
    if not rows:
        raise FormatError("empty design matrix CSV")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FormatError("ragged design matrix CSV")
    return DesignMatrix(v1, v2, np.array(rows, dtype=np.int64))


def blocks_to_json(blocks: list) -> str:
    if not blocks:
        raise DimensionError("need at least one block")
    v1, v2 = blocks[0].v1, blocks[0].v2
    if any((b.v1, b.v2) != (v1, v2) for b in blocks):
        raise DimensionError("blocks live on different bipartite graphs")
    payload = {
        "v1": v1,
        "v2": v2,
        "blocks": [sorted([list(e) for e in b.edges]) for b in blocks],
    }
    return json.dumps(payload)


def _json_int(value) -> int:
    # bool is an int subclass, but true/false are not JSON integers
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def blocks_from_json(text: str) -> list:
    try:
        payload = json.loads(text)
        v1, v2 = _json_int(payload["v1"]), _json_int(payload["v2"])
        edge_sets = [
            frozenset((_json_int(i), _json_int(j)) for i, j in blk)
            for blk in payload["blocks"]
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad SB-block JSON: {exc}") from exc
    return [SBBlock(v1, v2, edges) for edges in edge_sets]
