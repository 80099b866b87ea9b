#!/usr/bin/env python3
"""Export a DropConnect mask schedule: one binary connection mask per
SB-block, guaranteed to leave no unit disconnected.  The design is its own
schedule: x.masks views each row as a v1 x v2 mask."""

import numpy as np

import sbbd

x = sbbd.compose(
    sbbd.verify_rl_design(3, [{1, 2}, {2, 3}, {1, 3}, {1, 2, 3}]),
    sbbd.construct_od1(4),
)

schedule = sbbd.export_masks(x)  # x itself, once checked to be a spanning SBBD
print(f"{schedule.n_rows} masks of shape {schedule.v1} x {schedule.v2}")
print("first mask (rows = left units, cols = right units):")
print(schedule.masks[0])

# spanning means no zero row or column in any mask
print("min row degree:", schedule.masks.sum(axis=2).min())
print("min col degree:", schedule.masks.sum(axis=1).min())

# the schedule replays every edge mu times in total
print("edge-wise sum over all masks:")
print(schedule.masks.sum(axis=0))

# a non-spanning schedule is refused outright
lonely = sbbd.DesignMatrix(2, 2, np.eye(4, dtype=int))
try:
    sbbd.export_masks(lonely)
except sbbd.SpanningViolation as exc:
    print("single-edge blocks:", exc)

blob = sbbd.schedule_to_bytes(schedule)
print(f"\nbinary serialization: {len(blob)} bytes"
      f" (12-byte header + the {schedule.matrix.nbytes} bytes of the design matrix)")
# read_design tells every encoding apart, so the blob reads back as the design
print("binary round-trip exact:", sbbd.read_design(blob) == schedule)
