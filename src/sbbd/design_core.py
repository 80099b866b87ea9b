"""Exact integer matrix types and every file encoding of a design.

An SB-block is a spanning-candidate subgraph of the complete bipartite graph
K_{v1,v2}: a subset of its edges (i, j), 1-based.  A design matrix packs N >= 1
such blocks into an N x (v1*v2) (0,1)-matrix whose columns enumerate the
edges e_11, e_12, ..., e_1v2, e_21, ..., e_v1v2 in lexicographic order, so
edge (i, j) owns column (i-1)*v2 + j (1-based) and row k is block k.

A design matrix is held as read-only uint8 0/1 entries; nothing in this
module touches floats.  It owns all four encodings of a design, each with
its writer, reader and layout: design CSV (ASCII bytes), SB-block JSON, mask
JSON and the mask blob (see "file formats"); `read_design` reads all four.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


class SbbdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SbbdError):
    """Shapes or index ranges are inconsistent."""


class FormatError(SbbdError):
    """Input data violates a declared file or value format."""


class Violation(SbbdError):
    """A checked condition fails: `condition` names it, `witness` (a dict) locates its first failure."""

    def __init__(self, condition: str, witness: dict, message: str):
        self.condition, self.witness = condition, witness
        super().__init__(message)

    def __reduce__(self):
        # the default rebuilds cls(*self.args), which lacks condition and witness
        return type(self), (self.condition, self.witness, str(self)), self.__dict__


def _is_int(value) -> bool:
    """True for a Python or numpy integer; bool is an int subclass but not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_indexable(nbytes: int, what: str) -> None:
    """DimensionError for more than np.intp bytes; fewer than memory can hold is numpy's MemoryError."""
    if nbytes > np.iinfo(np.intp).max:
        raise DimensionError(f"{what} exceeds the largest array numpy can index")


def _check_dims(v1, v2) -> None:
    if not (_is_int(v1) and _is_int(v2) and v1 >= 1 and v2 >= 1):
        raise DimensionError(f"need integers v1 >= 1 and v2 >= 1, got {v1!r} x {v2!r}")


@dataclass(frozen=True)
class SbbdParameters:
    """Parameter tuple of an SBBD(v1, v2, N; Lambda).

    Lambda = (mu, lambda12, lambda21, lambda22) fixes the double completely
    symmetric X^T X, and so its spectrum.  With a = mu - lambda12,
    b = lambda12, c = lambda21 - lambda22 and d = lambda22:

        alpha = a - c                        multiplicity (v1-1)(v2-1)
        beta  = a - c + (b - d) v2           multiplicity v1-1
        gamma = a + c (v1-1)                 multiplicity v2-1
        delta = a + b v2 + (v1-1)(c + d v2)  multiplicity 1

    Weighted by multiplicity they sum to mu v1 v2 = trace(X^T X) for any
    Lambda, so the trace is checked only against the ones of X.
    """

    v1: int
    v2: int
    n_rows: int
    mu: int
    lambda12: int
    lambda21: int
    lambda22: int

    @property
    def lam(self) -> tuple:
        return (self.mu, self.lambda12, self.lambda21, self.lambda22)

    @property
    def alpha(self) -> int:
        """The eigenvalue of the basic contrasts, mu - lambda12 - lambda21 + lambda22."""
        return self.mu - self.lambda12 - self.lambda21 + self.lambda22

    @property
    def spectrum(self) -> tuple:
        """(eigenvalue, multiplicity) of alpha, beta, gamma and delta, in that order."""
        v1, v2 = self.v1, self.v2
        mu, b, l21, d = self.lam
        a, c = mu - b, l21 - d
        return (
            (self.alpha, (v1 - 1) * (v2 - 1)),
            (a - c + (b - d) * v2, v1 - 1),
            (a + c * (v1 - 1), v2 - 1),
            (a + b * v2 + (v1 - 1) * (c + d * v2), 1),
        )


@dataclass(frozen=True)
class DesignMatrix:
    """N x (v1*v2) (0,1)-matrix whose rows encode SB-blocks.

    `matrix` is read-only, C-contiguous uint8, and is the only in-memory form
    of the design: its bytes are also the mask schedule (see `masks`).  Any
    input is copied to uint8 once, so the caller's array is neither aliased
    nor frozen; an entry that is not exactly 0 or 1 is a FormatError, and a
    matrix with no rows is a DimensionError: a design has at least one block.
    Products of its rows or panels must be cast first, to int64 or float64,
    because uint8 arithmetic wraps past 255.  Designs with the same v1, v2
    and rows in the same order are equal.
    """

    v1: int
    v2: int
    matrix: np.ndarray = field(repr=False, compare=False)

    def __eq__(self, other):  # v2 is the column count over v1
        same = isinstance(other, DesignMatrix) and self.v1 == other.v1
        return same and np.array_equal(self.matrix, other.matrix)

    def __post_init__(self):
        _check_dims(self.v1, self.v2)
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[1] != self.v1 * self.v2:
            raise DimensionError(
                f"matrix shape {m.shape} does not match v1*v2 = {self.v1 * self.v2}"
            )
        if m.shape[0] == 0:
            raise DimensionError("need at least one block")
        if m.dtype.kind not in "buif":
            raise FormatError(f"design matrix entries must be 0 or 1, got dtype {m.dtype}")
        with np.errstate(invalid="ignore"):  # NaN and inf then fail the comparison
            bits = np.array(m, dtype=np.uint8, order="C")  # always a private copy
        if m.dtype != np.uint8 and not np.array_equal(bits, m):
            raise FormatError("design matrix entries must be 0 or 1")
        if bits.max() > 1:
            raise FormatError("design matrix entries must be 0 or 1")
        bits.flags.writeable = False
        object.__setattr__(self, "matrix", bits)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def masks(self) -> np.ndarray:
        """The read-only (N, v1, v2) view: block k is [k], panel X_i is [:, i - 1]."""
        return self.matrix.reshape(self.n_rows, self.v1, self.v2)


# --- file formats -----------------------------------------------------------
#
# Design matrix CSV: one row per line, comma-separated 0/1, no header, as
#                    ASCII bytes.  The writer emits the canonical form
#                    b"d,d,...,d\n" per row; the reader views canonical
#                    bytes in place and hands anything else (spaces, "+0",
#                    CRLF, blank lines, errors) to the per-token parser.
# SB-block JSON:     {"v1": int, "v2": int, "blocks": [[[i, j], ...], ...]}
#                    with 1-based edge indices.
# Mask JSON:         {"v1": int, "v2": int, "masks": [[[0/1, ...], ...], ...]},
#                    block k as v1 lists of v2 entries.
# Mask blob:         _MASK_HEADER, then the N*v1*v2 bytes of the matrix.

_MASK_HEADER = struct.Struct("<III")  # N, v1, v2 as little-endian uint32
_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")


def matrix_to_csv(x: DesignMatrix) -> bytes:
    n, w = x.matrix.shape
    buf = np.full((n, 2 * w), _COMMA, dtype=np.uint8)
    buf[:, 0::2] = x.matrix + _ZERO
    buf[:, -1] = _NEWLINE
    return buf.tobytes()


def matrix_from_csv(text: bytes, v1: int, v2: int) -> DesignMatrix:
    if not text.endswith(b"\n"):
        text = text + b"\n"  # a new object: a caller's bytearray stays as it was
    buf = np.frombuffer(text, dtype=np.uint8)
    line = text.find(b"\n") + 1
    if len(buf) % line == 0:  # an odd line length puts "\n" among the digits
        rows = buf.reshape(-1, line)
        digits = rows[:, 0::2]
        if (
            (rows[:, 1:-1:2] == _COMMA).all()
            and (rows[:, -1] == _NEWLINE).all()
            and ((digits | 1) == _ZERO + 1).all()
        ):
            return DesignMatrix(v1, v2, digits - _ZERO)
    return _matrix_from_csv_tokens(text, v1, v2)


def _matrix_from_csv_tokens(text: bytes, v1: int, v2: int) -> DesignMatrix:
    """Per-token parser for any CSV the byte-level reader does not take."""
    return DesignMatrix(v1, v2, int_rows_from_csv(text, "design matrix", "entry"))


def int_rows_from_csv(text: bytes, noun: str, entry: str) -> np.ndarray:
    """Comma-separated integers, one row per line, as an int64 array.

    Every token goes through int() on bytes, so spaces and signs are
    accepted and only ASCII digits are digits; the `_` that int() also
    reads between digits is refused.  Lines end at LF, so the CR of a CRLF
    is whitespace.  A non-integer token, empty or ragged input, or a value
    outside int64 is a FormatError; `noun` names the file kind and `entry`
    its tokens.
    """
    text = text.strip()
    if not text:
        raise FormatError(f"empty {noun} CSV")
    rows = []
    for ln, line in enumerate(text.split(b"\n"), 1):
        try:
            if b"_" in line:
                raise ValueError("'_' is not a digit")
            rows.append([int(tok) for tok in line.strip().split(b",")])
        except ValueError as exc:
            raise FormatError(f"line {ln}: non-integer {entry}") from exc
    if any(len(r) != len(rows[0]) for r in rows):
        raise FormatError(f"ragged {noun} CSV")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise FormatError(f"{noun} CSV has a value outside the int64 range") from None


def blocks_to_json(x: DesignMatrix) -> str:
    """SB-block JSON of a design: block k lists the edges [i, j] of row k in column order.

    The text is what json.dumps writes for {"v1", "v2", "blocks"} with its
    default separators; each edge's label is formatted once, not once per row.
    """
    labels = np.array(
        [f"[{i}, {j}]" for i in range(1, x.v1 + 1) for j in range(1, x.v2 + 1)], dtype=object
    )
    blocks = ", ".join("[" + ", ".join(labels[np.flatnonzero(row)]) + "]" for row in x.matrix)
    return f'{{"v1": {x.v1}, "v2": {x.v2}, "blocks": [{blocks}]}}'


def _json_int(value) -> int:
    # bool is an int subclass, but true/false are not JSON integers
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def blocks_from_json(text: bytes) -> DesignMatrix:
    """Read SB-block JSON: block k becomes row k, with a 1 in the column of each edge.

    v1, v2 and every endpoint must be JSON integers and blocks a list of lists
    of [i, j] pairs, otherwise FormatError.  An endpoint outside 1..v1 or
    1..v2, or an empty block list, is a DimensionError.  An edge repeated
    within a block counts once.
    """
    try:
        payload = json.loads(text)
        v1, v2 = _json_int(payload["v1"]), _json_int(payload["v2"])
        blocks = payload["blocks"]
        if type(blocks) is not list or set(map(type, blocks)) - {list}:
            raise TypeError("blocks must be a list of lists of edges")
        edges = list(chain.from_iterable(blocks))
        if set(map(type, edges)) - {list} or set(map(len, edges)) - {2}:
            raise TypeError("every edge must be a list [i, j]")
        ends = list(chain.from_iterable(edges))
        if set(map(type, ends)) - {int}:
            bad = next(v for v in ends if type(v) is not int)
            raise TypeError(f"expected an integer, got {bad!r}")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # json.loads recurses per level
        raise FormatError(f"bad SB-block JSON: {exc}") from exc
    _check_dims(v1, v2)  # before np.zeros, which raises a bare ValueError for a negative v1 * v2
    # one row at least: np.zeros((0, v1 * v2)) still needs an indexable row width
    _check_indexable(max(len(blocks), 1) * v1 * v2, f"a design matrix of {len(blocks)} blocks on K_{{{v1},{v2}}}")
    try:
        ij = np.array(ends, dtype=np.int64).reshape(-1, 2) - 1
    except OverflowError:  # beyond int64, so beyond 1..v1 or 1..v2
        raise DimensionError(f"an edge endpoint exceeds K_{{{v1},{v2}}}") from None
    outside = ((ij < 0) | (ij >= (v1, v2))).any(axis=1)
    if outside.any():
        i, j = ij[outside.argmax()] + 1
        raise DimensionError(f"edge ({i},{j}) out of range for K_{{{v1},{v2}}}")
    m = np.zeros((len(blocks), v1 * v2), dtype=np.uint8)
    m[np.repeat(np.arange(len(blocks)), list(map(len, blocks))), ij[:, 0] * v2 + ij[:, 1]] = 1
    return DesignMatrix(v1, v2, m)


def schedule_to_json(x: DesignMatrix) -> str:
    return json.dumps({"v1": x.v1, "v2": x.v2, "masks": x.masks.tolist()})


def schedule_to_bytes(x: DesignMatrix) -> bytes:
    return _MASK_HEADER.pack(x.n_rows, x.v1, x.v2) + x.matrix.data


def _masks_from_json(text: bytes) -> DesignMatrix:
    """Read mask JSON; any other layout is a FormatError, and no mask a DimensionError."""
    try:
        payload = json.loads(text)
        v1, v2 = _json_int(payload["v1"]), _json_int(payload["v2"])
        masks = payload["masks"]
        if type(masks) is not list or set(map(type, masks)) - {list} or set(map(len, masks)) - {v1}:
            raise TypeError("masks must be a list of masks, each a list of v1 rows")
        rows = list(chain.from_iterable(masks))
        if set(map(type, rows)) - {list} or set(map(len, rows)) - {v2}:
            raise TypeError("every mask row must be a list of v2 entries")
        bits = list(chain.from_iterable(rows))
        if set(map(type, bits)) - {int} or set(bits) - {0, 1}:
            raise TypeError("every mask entry must be the integer 0 or 1")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"bad mask JSON: {exc}") from exc
    _check_dims(v1, v2)
    _check_indexable(max(len(masks), 1) * v1 * v2, f"a design matrix of {len(masks)} masks on K_{{{v1},{v2}}}")
    return DesignMatrix(v1, v2, np.array(bits, dtype=np.uint8).reshape(len(masks), v1 * v2))


def _csv_split(cols: int, v1, v2) -> tuple:
    if v1 is None and v2 is None:
        root = math.isqrt(cols)
        if root * root != cols:
            raise ValueError(f"{cols} columns is not a perfect square; pass --v1 (and optionally --v2)")
        return root, root
    if v2 is None:
        if not v1 or cols % v1:  # 0 divides no column count
            raise ValueError(f"--v1 {v1} does not divide {cols} columns")
        return v1, cols // v1
    if v1 is None:
        if not v2 or cols % v2:
            raise ValueError(f"--v2 {v2} does not divide {cols} columns")
        return cols // v2, v2
    if v1 * v2 != cols:
        raise ValueError(f"--v1 {v1} x --v2 {v2} != {cols} columns")
    return v1, v2


def _matching(x: DesignMatrix, kind: str, v1, v2) -> DesignMatrix:
    """x, once a given v1 and v2 (None for either) match what its `kind` of file embeds."""
    for flag, given, embedded in (("--v1", v1, x.v1), ("--v2", v2, x.v2)):
        if given is not None and given != embedded:
            raise ValueError(f"{flag} {given} != {embedded} in the {kind}")
    return x


def read_design(data: bytes, v1=None, v2=None) -> DesignMatrix:
    """Read a design from any encoding the package writes, detected in this order.

    1. Mask blob: 12 + N v1 v2 bytes for the N, v1, v2 of its header, and a
       body of only the bytes 0 and 1.  It is tested first, as the header's
       first byte, N mod 256, can be "{", "0", "1" or whitespace.
    2. JSON: "{" after leading whitespace.  Text holding "masks" but not
       "blocks" (quoted) is mask JSON, any other SB-block JSON.
    3. CSV: anything else.  Its first line's column count is split as v1 and
       v2 give, the other factor of one given, or else the square root.

    A given v1 or v2 must match what a blob or JSON embeds.  A split that
    does not fit is a ValueError naming them as the CLI's --v1 and --v2;
    data its format's reader rejects is that reader's SbbdError.
    """
    if len(data) >= _MASK_HEADER.size:
        n, b1, b2 = _MASK_HEADER.unpack_from(data)
        if len(data) == _MASK_HEADER.size + n * b1 * b2:
            body = np.frombuffer(data, dtype=np.uint8, offset=_MASK_HEADER.size)
            if body.max(initial=0) <= 1:
                _check_indexable(max(n, 1) * b1 * b2, f"a design matrix of {n} masks on K_{{{b1},{b2}}}")
                return _matching(DesignMatrix(b1, b2, body.reshape(n, b1 * b2)), "mask blob", v1, v2)
    text = data.lstrip()
    if text.startswith(b"{"):
        if b'"masks"' in data and b'"blocks"' not in data:
            return _matching(_masks_from_json(data), "mask JSON", v1, v2)
        return _matching(blocks_from_json(data), "SB-block JSON", v1, v2)
    # parsed, so a first-line token that is not an integer is a FormatError
    first = text[: text.find(b"\n") + 1 or len(text)]
    cols = int_rows_from_csv(first, "design matrix", "entry").shape[1]
    return matrix_from_csv(data, *_csv_split(cols, v1, v2))
