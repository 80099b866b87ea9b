import json
import struct

import numpy as np
import pytest

from sbbd import (
    DesignMatrix,
    DimensionError,
    FormatError,
    SpanningViolation,
    export_masks,
    schedule_from_bytes,
    schedule_to_bytes,
    schedule_to_json,
)


def test_fixture_masks(x22):
    schedule = export_masks(x22)
    assert schedule.masks.shape == (9, 3, 3)
    # each block puts 2 edges on every left point
    assert (schedule.masks.sum(axis=2) == 2).all()
    assert (schedule.masks.sum(axis=2) > 0).all()
    assert (schedule.masks.sum(axis=1) > 0).all()
    # every edge appears mu = 6 times across the schedule
    assert (schedule.masks.sum(axis=0) == 6).all()


def test_non_spanning_refused(single_edge_blocks):
    with pytest.raises(SpanningViolation):
        export_masks(single_edge_blocks)


def test_masks_match_design_rows(composed_b4):
    schedule = export_masks(composed_b4)
    assert schedule.masks.shape == (12, 4, 3)
    for k in range(12):
        assert np.array_equal(
            schedule.masks[k].reshape(-1), composed_b4.matrix[k]
        )


def test_json_serialization(x22):
    payload = json.loads(schedule_to_json(export_masks(x22)))
    assert payload["v1"] == 3 and payload["v2"] == 3
    assert len(payload["masks"]) == 9
    assert payload["masks"][0] == [[0, 1, 1], [1, 1, 0], [1, 1, 0]]


def test_binary_roundtrip(x22):
    schedule = export_masks(x22)
    blob = schedule_to_bytes(schedule)
    assert blob[:12] == (9).to_bytes(4, "little") + (3).to_bytes(4, "little") * 2
    assert len(blob) == 12 + 9 * 9
    back = schedule_from_bytes(blob)
    assert np.array_equal(back.masks, schedule.masks)


def test_export_returns_the_design_and_the_blob_is_its_bytes(x22):
    assert export_masks(x22) is x22
    assert schedule_to_bytes(x22)[12:] == x22.matrix.tobytes()
    back = schedule_from_bytes(schedule_to_bytes(x22))
    assert back.matrix.dtype == np.uint8 and not back.matrix.flags.writeable


@pytest.mark.parametrize(
    "blob, error",
    [
        (struct.pack("<III", 1, 2, 2) + bytes([2, 1, 1, 255]), FormatError),
        (struct.pack("<III", 1, 2, 2) + bytes([0, 1, 1, 0, 1]), FormatError),
        (struct.pack("<II", 1, 2), FormatError),
        (struct.pack("<III", 1, 0, 2), DimensionError),
        (struct.pack("<III", 0, 2, 0), DimensionError),
    ],
)
def test_blob_is_validated(blob, error):
    with pytest.raises(error):
        schedule_from_bytes(blob)


def test_zero_row_design_exports_nothing():
    with pytest.raises(DimensionError, match="at least one block"):
        export_masks(DesignMatrix(2, 2, np.zeros((0, 4))))
