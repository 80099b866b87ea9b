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

import numpy as np

from .analyzer import _degrees, check_sbbd
from .design_core import _MASK_HEADER, DesignMatrix, Violation


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
    bare = np.argwhere(_degrees(x) == 0)  # (block, point), left points before right ones
    if bare.size:
        k, p = (int(t) for t in bare[0])
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
    return _MASK_HEADER.pack(x.n_rows, x.v1, x.v2) + x.matrix.tobytes()
