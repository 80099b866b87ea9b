import copy
import json
import pickle
import struct
import warnings

import numpy as np
import pytest

import sbbd
from sbbd import (
    DesignMatrix,
    DimensionError,
    FormatError,
    blocks_from_json,
    blocks_to_json,
    matrix_from_csv,
    matrix_to_csv,
)


def sb_json(v1, v2, blocks) -> str:
    return json.dumps({"v1": v1, "v2": v2, "blocks": blocks})


def edge_lists(x: DesignMatrix) -> list:
    """Per row, its 1-based edges [i, j] in row-major order."""
    return [(np.argwhere(row.reshape(x.v1, x.v2)) + 1).tolist() for row in x.matrix]


def test_column_indexing_law_exhaustive():
    # a one-edge block (i, j) decodes to column (i-1)*v2 + j, and back, for every v1, v2 <= 6
    for v1 in range(1, 7):
        for v2 in range(1, 7):
            edges = [[i, j] for i in range(1, v1 + 1) for j in range(1, v2 + 1)]
            text = sb_json(v1, v2, [[e] for e in edges])
            x = blocks_from_json(text)
            assert (x.v1, x.v2) == (v1, v2)
            assert (x.matrix.sum(axis=1) == 1).all()
            cols = [(i - 1) * v2 + j for i, j in edges]
            assert (x.matrix.argmax(axis=1) + 1).tolist() == cols
            assert sorted(cols) == list(range(1, v1 * v2 + 1))
            assert blocks_to_json(x) == text


def test_single_block_all_edges_is_all_ones_row():
    edges = [[i, j] for i in range(1, 3) for j in range(1, 4)]
    x = blocks_from_json(sb_json(2, 3, [edges]))
    assert x.matrix.shape == (1, 6)
    assert (x.matrix == 1).all()


def test_single_edge_block_hits_column_one():
    x = blocks_from_json(sb_json(2, 3, [[[1, 1]]]))
    expected = np.zeros(6, dtype=int)
    expected[0] = 1
    assert (x.matrix[0] == expected).all()


def test_fixture_blocks_have_six_edges(x22):
    text = blocks_to_json(x22)
    blocks = json.loads(text)["blocks"]
    assert len(blocks) == 9
    assert all(len(b) == 6 for b in blocks)
    assert blocks_from_json(text).matrix.tolist() == x22.matrix.tolist()


def test_zero_row_decodes_to_empty_block():
    x = DesignMatrix(2, 2, np.zeros((1, 4), dtype=int))
    text = blocks_to_json(x)
    assert json.loads(text)["blocks"] == [[]]
    assert blocks_from_json(text).matrix.tolist() == [[0, 0, 0, 0]]


def test_random_roundtrip_matrix_blocks_matrix():
    rng = np.random.default_rng(20240)
    for _ in range(20):
        m = rng.integers(0, 2, size=(5, 6))
        x = DesignMatrix(2, 3, m)
        text = blocks_to_json(x)
        assert json.loads(text)["blocks"] == edge_lists(x)
        back = blocks_from_json(text)
        assert np.array_equal(back.matrix, x.matrix)
        assert (back.v1, back.v2) == (2, 3)


def test_roundtrip_blocks_matrix_blocks():
    # edges in any order, some repeated within a block, come back sorted and once each
    rng = np.random.default_rng(7)
    all_edges = [[i, j] for i in range(1, 4) for j in range(1, 4)]
    blocks, given = [], []
    for _ in range(6):
        take = rng.integers(0, 2, size=9).astype(bool)
        edges = [e for e, t in zip(all_edges, take) if t]
        blocks.append(edges)
        given.append([edges[k] for k in rng.permutation(len(edges))] + edges[:2])
    x = blocks_from_json(sb_json(3, 3, given))
    assert edge_lists(x) == blocks
    assert blocks_to_json(x) == sb_json(3, 3, blocks)


def test_partition_panels_and_identity(x22):
    panels = [x22.masks[:, i] for i in range(x22.v1)]
    assert len(panels) == 3
    assert all(p.shape == (9, 3) for p in panels)
    assert np.array_equal(np.hstack(panels), x22.matrix)


def test_partition_v1_equals_one():
    x = DesignMatrix(1, 4, np.array([[1, 0, 1, 1]]))
    assert np.array_equal(x.masks[:, 0], x.matrix)


def test_mismatched_blocks_rejected():
    # a block that needs K_{2,3} in a design declared on K_{2,2}
    with pytest.raises(DimensionError):
        blocks_from_json(sb_json(2, 2, [[[1, 1]], [[1, 3]]]))


def test_edge_out_of_range_rejected():
    for edge in ([0, 1], [1, 0], [3, 1], [1, 3], [-1, 1], [2**70, 1], [1, 2**63]):
        with pytest.raises(DimensionError):
            blocks_from_json(sb_json(2, 2, [[[1, 1]], [[2, 2], edge]]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: DesignMatrix(2, 2, np.zeros((0, 4))),
        lambda: sbbd.read_design(struct.pack("<III", 0, 2, 2)),
        lambda: blocks_from_json(sb_json(2, 2, [])),
    ],
    ids=["matrix", "mask-blob", "block-json"],
)
def test_design_with_no_blocks_cannot_be_built(build):
    with pytest.raises(DimensionError, match="^need at least one block$"):
        build()


@pytest.mark.parametrize(
    "v1, v2, m",
    [(-1, -1, np.ones((2, 1))), (0, 1, np.zeros((1, 0))), (1, 0, np.zeros((3, 0))), (0, 0, np.zeros((0, 0)))],
)
def test_dimensions_below_one_rejected(v1, v2, m):
    with pytest.raises(DimensionError, match="v1 >= 1 and v2 >= 1"):
        DesignMatrix(v1, v2, m)


@pytest.mark.parametrize("v1, v2", [(2.5, 2), (5, 1.0), (True, 5), ("5", 1)])
def test_non_integer_dimensions_rejected(v1, v2):
    with pytest.raises(DimensionError, match="integers"):
        DesignMatrix(v1, v2, np.ones((1, 5)))


def test_numpy_integer_dimensions_accepted():
    x = DesignMatrix(np.int64(1), np.uint8(5), np.ones((1, 5)))
    assert x.matrix.shape == (1, 5)


def test_non_binary_matrix_rejected():
    with pytest.raises(FormatError):
        DesignMatrix(2, 2, np.array([[0, 1, 2, 0]]))


def test_entries_are_cast_to_read_only_uint8_and_checked():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a bare uint8 cast of NaN warns
        for bad in (np.nan, np.inf, -np.inf, -1, 256, 0.5, 2, "1", 1j):  # the last two: str and complex dtypes
            with pytest.raises(FormatError, match="0 or 1"):
                DesignMatrix(1, 2, np.array([[0, bad]]))
    accepted = [
        np.array([[True, False]]),
        np.array([[1, 0]], dtype=np.int64),
        np.array([[1.0, 0.0]]),
        np.array([[1, 0]], dtype=np.uint8),
        np.array([[1, 1], [0, 0]], dtype=np.uint8).T[:1],  # not C-contiguous
    ]
    for m in accepted:
        x = DesignMatrix(1, 2, m)
        assert x.matrix.dtype == np.uint8
        assert x.matrix.flags.c_contiguous and not x.matrix.flags.writeable
        assert x.matrix.tolist() == [[1, 0]]
        assert x.masks.shape == (1, 1, 2) and not x.masks.flags.writeable


def test_matrix_never_aliases_the_callers_array():
    base = np.zeros((4, 4), np.uint8)
    x = DesignMatrix(2, 2, base[:2])
    base[0, 0] = 5
    assert x.matrix[0, 0] == 0
    assert base.flags.writeable
    owned = np.eye(2, 4, dtype=np.uint8)
    DesignMatrix(2, 2, owned)
    assert owned.flags.writeable


def test_matrix_is_read_only(x22):
    with pytest.raises(ValueError):
        x22.matrix[0, 0] = 1


def test_csv_roundtrip(x22):
    text = matrix_to_csv(x22)
    assert text.splitlines()[0] == b"0,1,1,1,1,0,1,1,0"
    back = matrix_from_csv(text, 3, 3)
    assert np.array_equal(back.matrix, x22.matrix)
    # spaces, a sign, CRLF and surrounding blank lines go to the per-token parser
    text = b"\n  0, +1\r\n1 ,0\r\n\n"
    assert matrix_from_csv(text, 1, 2).matrix.tolist() == [[0, 1], [1, 0]]
    # a line ends at LF, so the CR before it is whitespace wherever spaces fall around it
    assert matrix_from_csv(b"0,1\r  \n1,0 \r\n", 1, 2).matrix.tolist() == [[0, 1], [1, 0]]


def test_csv_rejects_ragged_and_nonint(x22):
    with pytest.raises(FormatError):
        matrix_from_csv(b"0,1\n0", 1, 2)
    with pytest.raises(FormatError):
        matrix_from_csv(b"0,x", 1, 2)
    with pytest.raises(FormatError, match="empty design matrix CSV"):
        matrix_from_csv(b"\n", 2, 2)  # a blank line holds no block
    with pytest.raises(FormatError, match="line 2"):
        matrix_from_csv(b"0,1\n\n1,0\n", 1, 2)  # blank middle line
    with pytest.raises(FormatError, match="0 or 1"):
        matrix_from_csv(b"0,1\n2,0\n", 1, 2)
    with pytest.raises(FormatError, match="line 2: non-integer"):
        matrix_from_csv("0,1\n1,\u0660\n".encode(), 1, 2)  # ARABIC-INDIC DIGIT ZERO
    with pytest.raises(FormatError, match="line 1: non-integer"):
        matrix_from_csv(b"0,1\r1,0\r", 1, 2)  # a bare CR does not end a line
    with pytest.raises(DimensionError):
        matrix_from_csv(matrix_to_csv(x22), 2, 2)


@pytest.mark.parametrize(
    "design, od", [(b"0_0,1\n1,0\n", b"0_1,2\n2,1\n"), (b"0,1\n1,0_0\n", b"1,2\n2,0_1\n")], ids=["first", "last"]
)
def test_digit_separator_in_a_token_is_format_error(design, od):
    # int() reads b"0_1" as 1, but a CSV integer is ASCII digits with an optional sign
    with pytest.raises(FormatError, match="non-integer entry"):
        sbbd.read_design(design, 1, 2)
    with pytest.raises(FormatError, match="non-integer symbol"):
        sbbd.od_from_csv(od)


NEST = "[" * 200_000 + "]" * 200_000  # past the recursion limit of json.loads


@pytest.mark.parametrize(
    "text",
    [
        '{"v1": 2, "v2": 2, "blocks": [[[1, 1], [2]]]}',
        '{"v1": 2, "v2": 2, "blocks": [[[1, "x"]]]}',
        '{"v1": 2, "v2": 2, "blocks": 5}',
        '{"v1": 2, "v2": 2, "blocks": [[[1, 1, 2]]]}',
        # only JSON integers, never bools, floats or strings
        '{"v1": 2, "v2": 2, "blocks": [[[1.9, 1], ["2", 2], [true, 2], [2, 1]]]}',
        '{"v1": 2, "v2": 2, "blocks": [[[1, 2.0]]]}',
        '{"v1": 2, "v2": 2, "blocks": [[[1, null]]]}',
        '{"v1": true, "v2": 2, "blocks": [[[1, 1]]]}',
        '{"v1": 2.0, "v2": 2, "blocks": [[[1, 1]]]}',
        '{"v1": 2, "v2": "2", "blocks": [[[1, 1]]]}',
        pytest.param(f'{{"v1": 2, "v2": 2, "blocks": {NEST}}}', id="nested-past-the-recursion-limit"),
    ],
)
def test_block_json_malformed_edges_rejected(text):
    with pytest.raises(FormatError, match="bad SB-block JSON"):
        blocks_from_json(text)


def test_block_json_edge_out_of_range_is_dimension_error():
    with pytest.raises(DimensionError):
        blocks_from_json('{"v1": 2, "v2": 2, "blocks": [[[3, 1]]]}')


@pytest.mark.parametrize(
    "text, error",
    [
        ("not json", FormatError),
        ('{"v1": 2, "v2": 2}', FormatError),
        ('[2, 2, [[[1, 1]]]]', FormatError),
        ('{"v1": 2, "v2": 2, "blocks": [[[1, 1]], {}]}', FormatError),
        ('{"v1": 2, "v2": 2, "blocks": [[[1, 1]], "12"]}', FormatError),
        ('{"v1": 2, "v2": 2, "blocks": [[[1, 1], "12"]]}', FormatError),
        ('{"v1": 2, "v2": 2, "blocks": [[[1, 1], {"a": 1, "b": 2}]]}', FormatError),
        # a type error anywhere wins over a range error earlier in the text
        ('{"v1": 2, "v2": 2, "blocks": [[[3, 1]], [[1, false]]]}', FormatError),
        ('{"v1": 2, "v2": 2, "blocks": []}', DimensionError),
        ('{"v1": 0, "v2": 2, "blocks": [[]]}', DimensionError),
        ('{"v1": 0, "v2": 2, "blocks": [[[1, 1]]]}', DimensionError),
        ('{"v1": -1, "v2": 2, "blocks": [[]]}', DimensionError),
        # a design matrix past np.intp bytes, which numpy cannot index
        pytest.param('{"v1": 1%s, "v2": 2, "blocks": [[[1, 1]]]}' % ("0" * 30), DimensionError,
                     id="v1-10^30"),
        pytest.param('{"v1": 3000000000, "v2": 3000000000, "blocks": [[[1, 1]], [[1, 1]]]}',
                     DimensionError, id="two-blocks-on-K_3e9,3e9"),
    ],
)
def test_block_json_malformed_structure(text, error):
    with pytest.raises(error):
        blocks_from_json(text)


def test_block_json_roundtrip(x22):
    text = blocks_to_json(x22)
    assert text == sb_json(3, 3, edge_lists(x22))
    assert text.startswith('{"v1": 3, "v2": 3, "blocks": [[[1, 2], [1, 3], [2, 1], [2, 2], [3, 1]')
    back = blocks_from_json(text)
    assert (back.v1, back.v2) == (3, 3)
    assert back.matrix.tolist() == x22.matrix.tolist()


def test_parameters_coefficients():
    p = sbbd.SbbdParameters(3, 3, 9, mu=6, lambda12=3, lambda21=4, lambda22=4)
    assert p.lam == (6, 3, 4, 4)


def test_design_matrices_compare_by_content():
    fano = sbbd.catalog_by_id("fano")
    x = sbbd.compose(fano, sbbd.construct_od1(7))
    y = sbbd.compose(fano, sbbd.construct_od1(7))
    assert x == y and hash(x) == hash(y)
    flipped = x.matrix.copy()
    flipped[41, 48] ^= 1
    assert x != DesignMatrix(7, 7, flipped)
    assert x != DesignMatrix(1, 49, x.matrix)  # the same bits on another K_{v1,v2}
    assert {x, y} == {x} and x in {y}


def _violations(x22) -> list:
    """One raised instance of each of the six Violation subclasses."""
    od3 = sbbd.construct_od1(3).rows.copy()
    od3[0, :2] = od3[0, 1::-1]
    flipped = x22.matrix.copy()
    flipped[4, 7] ^= 1
    raisers = [
        lambda: sbbd.check_sbbd(DesignMatrix(3, 3, flipped)),
        lambda: sbbd.verify_rl_design(3, [{1, 2}, {1, 3}]),
        lambda: sbbd.verify_rl_design(4, [{1, 2}, {1, 2}, {3, 4}, {3, 4}]),
        lambda: sbbd.symmetric_bibd_from_difference_set(7, [0, 1, 2]),
        lambda: sbbd.verify_od(np.array([[1, 1], [2, 1]]), n=2, s=2),
        lambda: sbbd.verify_od(od3, n=3, s=3),
    ]
    found = []
    for raiser in raisers:
        with pytest.raises(sbbd.Violation) as exc:
            raiser()
        found.append(exc.value)
    return found


def test_violations_survive_pickle_and_copy(x22):
    found = _violations(x22)
    assert [type(e).__name__ for e in found] == [
        "ConditionViolation", "NotRegular", "NotPairBalanced",
        "NotADifferenceSet", "RepeatedSymbolInRow", "PairCountMismatch",
    ]
    for exc in found:
        for back in (pickle.loads(pickle.dumps(exc)), copy.copy(exc), copy.deepcopy(exc)):
            assert type(back) is type(exc)
            assert (back.condition, back.witness, str(back)) == (exc.condition, exc.witness, str(exc))
