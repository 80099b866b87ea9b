"""DropConnect-style mask schedules from spanning designs.

A design is its own mask schedule: `DesignMatrix.masks` views row k
(row-major by left point) as the v1 x v2 binary connection mask of block k.
Spanning guarantees no mask has a zero row or zero column, so no unit of
either layer is ever fully disconnected, and stacking all masks edge-wise
reproduces the design's replication counts.

Serialization: JSON ({"v1", "v2", "masks": [[[0/1 ...] ...] ...]}) or a flat
binary layout with a 3 x uint32 little-endian header (N, v1, v2) followed by
the N*v1*v2 bytes of the uint8 design matrix itself.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .analyzer import check_sbbd, is_spanning
from .design_core import DesignMatrix, FormatError, Violation


class SpanningViolation(Violation):
    """Condition (I) fails: some mask would drop an entire row or column."""


def export_masks(x: DesignMatrix) -> DesignMatrix:
    """Return x once it is checked to be a spanning SBBD; x.masks is the schedule.

    A design that fails (II)-(V) raises check_sbbd's ConditionViolation.  One
    that does not span raises SpanningViolation, condition "I", whose witness
    is the first block in row order that leaves a point with no edge:
    {"block": k, "left": i}, else {"block": k, "right": j}, all 1-based.
    """
    check_sbbd(x)
    if not is_spanning(x):
        # per block, the v1 left points and then the v2 right points with no edge
        bare = ~np.concatenate([x.masks.any(axis=2), x.masks.any(axis=1)], axis=1)
        k, p = (int(t) for t in np.argwhere(bare)[0])
        side, point = ("left", p + 1) if p < x.v1 else ("right", p - x.v1 + 1)
        raise SpanningViolation(
            "I",
            {"block": k + 1, side: point},
            f"condition (I) violated: block {k + 1} leaves {side} point {point}"
            " with no edge; masks would disconnect a unit",
        )
    return x


def schedule_to_json(x: DesignMatrix) -> str:
    return json.dumps({"v1": x.v1, "v2": x.v2, "masks": x.masks.tolist()})


def schedule_to_bytes(x: DesignMatrix) -> bytes:
    return struct.pack("<III", x.n_rows, x.v1, x.v2) + x.matrix.tobytes()


def schedule_from_bytes(data: bytes) -> DesignMatrix:
    """Read a mask blob back as the design it came from.

    A short blob or a body of the wrong length is a FormatError, and so is
    any body byte other than 0 or 1; v1 or v2 of 0 is a DimensionError.
    """
    if len(data) < 12:
        raise FormatError("mask blob shorter than its 12-byte header")
    n, v1, v2 = struct.unpack("<III", data[:12])
    body = np.frombuffer(data[12:], dtype=np.uint8)
    if body.size != n * v1 * v2:
        raise FormatError(
            f"mask blob body has {body.size} bytes, expected {n * v1 * v2}"
        )
    return DesignMatrix(v1, v2, body.reshape(n, v1 * v2))
