"""Round-trip properties of the design-matrix CSV, SB-block JSON and mask codecs.

The byte-level CSV writer is compared with the join-based writer it replaced,
and the byte-level reader with the per-token parser that still serves every
non-canonical input; canonical CSV never reaches that parser.  The mask blob
is its header and the matrix's bytes.  `read_design` reads back what every
writer writes.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sbbd import (
    DesignMatrix,
    blocks_from_json,
    blocks_to_json,
    matrix_from_csv,
    matrix_to_csv,
    read_design,
    schedule_to_bytes,
    schedule_to_json,
)
from sbbd.design_core import _MASK_HEADER, _matrix_from_csv_tokens

SETTINGS = settings(max_examples=100, deadline=None)


def join_writer(x: DesignMatrix) -> bytes:
    """The per-element writer: one str() per entry, joined by ',' and newlines."""
    return ("\n".join(",".join(str(int(e)) for e in row) for row in x.matrix) + "\n").encode()


@st.composite
def design_matrices(draw, max_rows=40):
    n = draw(st.integers(1, max_rows))
    v1, v2 = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    bits = draw(st.lists(st.booleans(), min_size=n * v1 * v2, max_size=n * v1 * v2))
    return DesignMatrix(v1, v2, np.array(bits, dtype=np.int64).reshape(n, v1 * v2))


# rewrites of canonical CSV into forms only the per-token parser reads
LENIENT = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "spaces": lambda t: t.replace(",", " , "),
    "space-after-comma": lambda t: t.replace(",", ", "),
    "sign": lambda t: t.replace("0", "+0"),
    "leading-blank-line": lambda t: "\n" + t,
    "trailing-blank-lines": lambda t: t + "\n\n",
    "trailing-spaces": lambda t: t.replace("\n", "  \n"),
    "padding": lambda t: "\n \t" + t + "  \n\n",
}


def _lenient(text: str, data) -> str:
    """Canonical CSV under up to three decorations of LENIENT, in the order drawn."""
    for form in data.draw(st.lists(st.sampled_from(sorted(LENIENT)), max_size=3, unique=True)):
        text = LENIENT[form](text)
    return text


def _malformed(text: str, data) -> str:
    """Break canonical CSV in one of the ways both parsers must reject alike."""
    lines = text.rstrip("\n").split("\n")
    k = data.draw(st.integers(0, len(lines) - 1))
    forms = ["ragged", "two", "blank", "no_newline", "junk", "sep", "merge"]
    form = data.draw(st.sampled_from(forms if len(lines) > 1 else forms[:-1]))
    if form == "ragged":
        lines[k] += ",1"
    elif form == "two":
        lines[k] = "2" + lines[k][1:]
    elif form == "blank":
        lines.insert(k, "")
    elif form == "junk":
        lines[k] = lines[k][:-1] + data.draw(st.sampled_from("x.-\x00é"))
    elif form == "sep":
        lines[k] = lines[k].replace(",", data.draw(st.sampled_from(";. ")), 1)
    elif form == "merge":  # same byte count, one line twice as long
        k = min(k, len(lines) - 2)
        lines[k : k + 2] = [lines[k] + "," + lines[k + 1]]
    return "\n".join(lines) + ("" if form == "no_newline" else "\n")


def _parse(parser, text, v1, v2):
    try:
        return parser(text.encode(), v1, v2).matrix
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)


def _assert_same_parse(text, v1, v2):
    fast = _parse(matrix_from_csv, text, v1, v2)
    ref = _parse(_matrix_from_csv_tokens, text, v1, v2)
    if isinstance(ref, type):
        assert fast is ref
    else:
        assert fast.dtype == ref.dtype == np.uint8
        assert np.array_equal(fast, ref)


@SETTINGS
@given(design_matrices())
def test_csv_writer_matches_join_writer(x):
    assert matrix_to_csv(x) == join_writer(x)


@SETTINGS
@given(design_matrices(), st.data())
def test_csv_reader_matches_token_parser(x, data):
    text = matrix_to_csv(x).decode()
    _assert_same_parse(text, x.v1, x.v2)
    decorated = _lenient(text, data)
    _assert_same_parse(decorated, x.v1, x.v2)
    assert np.array_equal(matrix_from_csv(decorated.encode(), x.v1, x.v2).matrix, x.matrix)
    _assert_same_parse(_malformed(text, data), x.v1, x.v2)
    assert np.array_equal(matrix_from_csv(text.encode(), x.v1, x.v2).matrix, x.matrix)


@SETTINGS
@given(design_matrices())
@example(DesignMatrix(1, 1, np.array([[1], [0], [1]])))
def test_canonical_csv_is_read_without_the_token_parser(x):
    def refuse(*args):
        raise AssertionError("canonical CSV reached the per-token parser")

    csv = matrix_to_csv(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sbbd.design_core._matrix_from_csv_tokens", refuse)
        assert matrix_from_csv(csv, x.v1, x.v2) == x
        assert matrix_from_csv(csv[:-1], x.v1, x.v2) == x
        unterminated = bytearray(csv[:-1])
        assert read_design(unterminated, x.v1, x.v2) == x
        assert unterminated == csv[:-1]  # the newline went onto a copy


@SETTINGS
@given(st.text(alphabet="01,\n\r +-2x\t", max_size=60), st.integers(1, 4), st.integers(1, 4))
def test_csv_reader_matches_token_parser_on_any_text(text, v1, v2):
    _assert_same_parse(text, v1, v2)


@pytest.mark.parametrize(
    "text",
    [
        "0,1\n0",
        "0,1\n\n1,0\n",
        "0,1\n2,0\n",
        "0,1\n1,0",
        "0,1,\n1,0,\n",
        "0,1\n1,0\n1\n",
        "",
        "99999999999999999999,1\n",
    ],
)
def test_csv_reader_matches_token_parser_on_edge_cases(text):
    _assert_same_parse(text, 1, 2)


@SETTINGS
@given(design_matrices(max_rows=12))
def test_schedule_bytes_roundtrip_is_identical(x):
    blob = schedule_to_bytes(x)
    assert type(blob) is bytes
    assert blob == _MASK_HEADER.pack(x.n_rows, x.v1, x.v2) + x.matrix.tobytes()
    back = read_design(blob)
    assert (back.v1, back.v2) == (x.v1, x.v2)
    assert np.array_equal(back.masks, x.masks)
    assert schedule_to_bytes(back) == blob


@SETTINGS
@given(design_matrices())
def test_block_json_roundtrip_is_identical(x):
    oracle = {
        "v1": x.v1,
        "v2": x.v2,
        "blocks": [(np.argwhere(row.reshape(x.v1, x.v2)) + 1).tolist() for row in x.matrix],
    }
    text = blocks_to_json(x)
    assert json.loads(text) == oracle
    assert text == json.dumps(oracle)
    back = blocks_from_json(text)
    assert (back.v1, back.v2) == (x.v1, x.v2)
    assert np.array_equal(back.matrix, x.matrix)
    assert blocks_to_json(back) == text


# every encoding the package writes; all but CSV embed v1 and v2
WRITERS = {
    "csv": matrix_to_csv,
    "block-json": lambda x: blocks_to_json(x).encode(),
    "mask-json": lambda x: schedule_to_json(x).encode(),
    "mask-blob": schedule_to_bytes,
}


@SETTINGS
@given(design_matrices(max_rows=12), st.sampled_from(sorted(WRITERS)))
def test_read_design_reads_what_every_writer_writes(x, writer):
    data = WRITERS[writer](x)
    assert read_design(data, x.v1, x.v2) == x
    assert read_design(data, v1=x.v1) == read_design(data, v2=x.v2) == x
    if writer != "csv":
        assert read_design(data) == x


@pytest.mark.parametrize("n", [9, 13, 32, 48, 49, 123])
def test_blob_whose_first_byte_is_text_is_read_as_a_blob(n):
    # N mod 256 is whitespace (9, 13, 32), a CSV digit (48, 49) or "{" (123)
    x = DesignMatrix(2, 3, np.arange(6 * n).reshape(n, 6) % 4 == 1)
    blob = schedule_to_bytes(x)
    assert blob[0] == n
    assert read_design(blob) == read_design(blob, 2, 3) == x
