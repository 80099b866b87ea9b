import itertools
import math

import numpy as np
import pytest

from sbbd import (
    DimensionError,
    FormatError,
    NotPrimePower,
    PairCountMismatch,
    RepeatedSymbolInRow,
    Violation,
    construct_od1,
    gf,
    od_from_csv,
    od_to_csv,
    verify_od,
)
from sbbd.cli import main
from sbbd.ordered_designs import FiniteField, _check_axioms

PRIME_POWERS_TO_49 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49]


def test_gf7_is_plain_modular_arithmetic():
    fld = gf(7)
    for x in range(7):
        for y in range(7):
            assert fld.add[x, y] == (x + y) % 7
            assert fld.mul[x, y] == (x * y) % 7


def test_gf4_inverses_exhaustive():
    fld = gf(4)
    for x in range(1, 4):
        assert np.count_nonzero(fld.mul[x] == 1) == 1
    # x^2 + x + 1: element 2 is x, so x * x = x + 1 = element 3
    assert fld.mul[2, 2] == 3


def test_not_prime_power():
    for q in (6, 12, 1, 0, 20):
        with pytest.raises(NotPrimePower):
            gf(q)


def test_extension_fields_are_pinned_by_x_to_the_e():
    # mul[x^(e-1), x] is x^e, whose digits name the first irreducible found
    pins = {4: 3, 8: 3, 9: 2, 16: 3, 25: 3, 27: 5, 32: 5, 49: 6, 64: 3, 81: 7, 121: 10, 125: 24}
    for q, x_to_the_e in pins.items():
        fld = gf(q)
        assert fld.mul[fld.p ** (fld.e - 1), fld.p] == x_to_the_e, q


@pytest.mark.parametrize("q", [59, 79])
def test_large_prime_fields_pass_axioms(q):
    fld = gf(q)
    _check_axioms(fld)
    assert np.array_equal(fld.mul, np.outer(np.arange(q), np.arange(q)) % q)


def test_axiom_check_catches_a_corrupted_large_table():
    # q = 59 is checked in four slabs of x values
    fld = gf(59)
    mul = fld.mul.copy()
    mul[[57, 57], [2, 3]] = mul[[57, 57], [3, 2]]
    mul[[2, 3], [57, 57]] = mul[[3, 2], [57, 57]]
    with pytest.raises(NotPrimePower, match="GF\\(59\\)"):
        _check_axioms(FiniteField(59, 1, fld.add, mul))


def test_axiom_check_names_each_broken_axiom():
    fld = gf(5)
    # 0 + x = x + 1: the additive identity fails
    with pytest.raises(NotPrimePower, match="GF\\(5\\) table identities failed"):
        _check_axioms(FiniteField(5, 1, (fld.add + 1) % 5, fld.mul))
    # the integers mod 4, read as GF(4): 2 has no inverse
    z4 = np.arange(4)
    with pytest.raises(NotPrimePower, match="GF\\(4\\): a nonzero element has no inverse"):
        _check_axioms(FiniteField(2, 2, np.add.outer(z4, z4) % 4, np.multiply.outer(z4, z4) % 4))
    # the product carried through the relabelling 2 <-> 4 stays an associative
    # group law with identity 1, but no longer distributes over addition mod 5
    swap = np.array([0, 1, 4, 3, 2])
    with pytest.raises(NotPrimePower, match="GF\\(5\\): distributivity failed"):
        _check_axioms(FiniteField(5, 1, fld.add, swap[fld.mul[swap][:, swap]]))


@pytest.mark.parametrize("q", PRIME_POWERS_TO_49 + [53, 64, 81, 121, 125, 128])
def test_every_cataloged_field_builds(q):
    fld = gf(q)
    assert fld.q == q
    # commutativity comes free of the table construction; check anyway
    assert np.array_equal(fld.mul, fld.mul.T)
    assert np.array_equal(fld.add, fld.add.T)
    for x in range(1, q):
        assert np.count_nonzero(fld.mul[x] == 1) == 1


def test_od1_q2_is_the_two_transpositions():
    od = construct_od1(2)
    assert od.rows.tolist() == [[1, 2], [2, 1]]
    assert (od.n, od.s, od.eta) == (2, 2, 1)


def test_od1_q3_row_set():
    od = construct_od1(3)
    assert od.n_rows == 6
    got = {tuple(r) for r in od.rows.tolist()}
    assert got == {
        (1, 2, 3),
        (2, 3, 1),
        (3, 1, 2),
        (1, 3, 2),
        (2, 1, 3),
        (3, 2, 1),
    }


def test_od1_q4_has_twelve_rows():
    od = construct_od1(4)
    assert od.n_rows == 12
    assert od.eta == 1


@pytest.mark.parametrize("q", PRIME_POWERS_TO_49 + [64, 81])
def test_od1_row_counts_and_verification(q):
    od = construct_od1(q)
    assert od.n_rows == q * q - q
    # construct_od1 already verifies; re-verify through the public surface
    again = verify_od(od.rows, n=q, s=q)
    assert again.eta == 1


def test_verify_od_single_column_ingestion():
    od = verify_od(np.array([[1], [2], [3], [1], [2], [3]]), n=3, s=1)
    assert (od.n, od.s, od.eta) == (3, 1, 1)


def test_verify_od_counts_eta_two():
    od = construct_od1(3)
    doubled = np.vstack([od.rows, od.rows])
    assert verify_od(doubled, n=3, s=3).eta == 2


def test_corrupted_entry_raises_pair_count_mismatch():
    od = construct_od1(3)
    rows = od.rows.copy()
    # swap two entries inside one row so symbols stay distinct per row
    rows[0, 0], rows[0, 1] = rows[0, 1], rows[0, 0]
    with pytest.raises(PairCountMismatch) as exc:
        verify_od(rows, n=3, s=3)
    assert isinstance(exc.value, Violation) and exc.value.condition == "pair count"
    assert exc.value.witness == {"columns": (1, 2), "pair": (1, 2), "count": 0, "expected": 1}
    assert str(exc.value) == "columns (1, 2): ordered pair (1, 2) occurs 0 times, expected 1"


def test_repeated_symbol_in_row():
    with pytest.raises(RepeatedSymbolInRow) as exc:
        verify_od(np.array([[1, 1], [2, 1]]), n=2, s=2)
    assert isinstance(exc.value, Violation)
    assert (exc.value.condition, exc.value.witness) == ("distinct symbols", {"row": 1})
    assert str(exc.value) == "row 1 repeats a symbol"


def test_repeated_symbol_witness_is_the_first_bad_row():
    rows = construct_od1(5).rows.copy()
    rows[17, 2] = rows[17, 3]
    rows[6, 4] = rows[6, 0]  # not adjacent: found only once the row is sorted
    with pytest.raises(RepeatedSymbolInRow) as exc:
        verify_od(rows, n=5, s=5)
    assert exc.value.witness == {"row": 7}


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_verify_od_refuses_every_single_entry_corruption(q):
    # every entry of OD_1(q), kept to its first s >= 2 columns (still an
    # ordered design), set to every other symbol: the witness must name the
    # mutated row, or a column pair that holds the mutated column
    full = construct_od1(q).rows
    for s in range(2, q + 1):
        for (row, col), own in np.ndenumerate(full[:, :s]):
            for value in set(range(1, q + 1)) - {own}:
                rows = full[:, :s].copy()
                rows[row, col] = value
                with pytest.raises((RepeatedSymbolInRow, PairCountMismatch)) as exc:
                    verify_od(rows, n=q, s=s)
                if isinstance(exc.value, RepeatedSymbolInRow):
                    assert exc.value.witness == {"row": row + 1}
                else:
                    assert col + 1 in exc.value.witness["columns"]


def _first_bad_ordered_pair(rows, n: int, eta: int):
    # the reference: every ordered column pair, in permutations order
    for c1, c2 in itertools.permutations(range(rows.shape[1]), 2):
        counts = np.zeros((n, n), dtype=int)
        np.add.at(counts, (rows[:, c1] - 1, rows[:, c2] - 1), 1)
        bad = np.argwhere((counts != eta) & ~np.eye(n, dtype=bool))
        if bad.size:
            x, y = (int(t) for t in bad[0])
            pair, count = (x + 1, y + 1), int(counts[x, y])
            return {"columns": (c1 + 1, c2 + 1), "pair": pair, "count": count, "expected": eta}
    return None


def test_verify_od_matches_the_ordered_pair_reference():
    # OD_1(q) on s of its columns, in random order and with its symbols
    # relabelled, then corrupted without repeating a symbol in a row, so only
    # pair counts can fail: either up to three rows are replaced, or the rows
    # whose first symbol is x have their other symbols relabelled with x
    # fixed, which keeps every pair with column 1 and breaks a later one
    rng = np.random.default_rng(7)
    failed, columns_seen = 0, set()
    for _ in range(300):
        q = int(rng.choice([3, 4, 5, 7]))
        s = int(rng.integers(2, q + 1))
        rows = rng.permutation(q)[construct_od1(q).rows[:, rng.permutation(q)[:s]] - 1] + 1
        if rng.integers(2):
            for row in rng.choice(len(rows), size=int(rng.integers(0, 4)), replace=False):
                rows[row] = rng.permutation(q)[:s] + 1
        else:
            x = rows[0, 0]
            relabel = np.arange(q + 1)
            others = np.flatnonzero(relabel != x)[1:]
            relabel[others] = rng.permutation(others)
            group = rows[:, 0] == x
            rows[group, 1:] = relabel[rows[group, 1:]]
        expected = _first_bad_ordered_pair(rows, q, 1)
        if expected is None:
            assert verify_od(rows, n=q, s=s).eta == 1
            continue
        failed += 1
        columns_seen.add(expected["columns"])
        with pytest.raises(PairCountMismatch) as exc:
            verify_od(rows, n=q, s=s)
        assert exc.value.witness == expected
        columns, pair, count = expected["columns"], expected["pair"], expected["count"]
        assert str(exc.value) == f"columns {columns}: ordered pair {pair} occurs {count} times, expected 1"
    assert 150 < failed < 270 and {(1, 2), (2, 3)} <= columns_seen


def test_ordered_designs_compare_by_content():
    od = construct_od1(3)
    assert od == construct_od1(3) and hash(od) == hash(construct_od1(3))
    other = verify_od(od.rows[::-1], n=3, s=3)  # the same rows in another order
    assert od != other and od != od.rows
    assert {od, construct_od1(3)} == {od} and other not in {od}


def test_field_order_too_large_to_index():
    # refused before any trial division, which would take about 10^15 steps
    with pytest.raises(DimensionError, match="too large"):
        gf(10**30 + 57)
    with pytest.raises(DimensionError, match="too large"):
        gf(math.isqrt(np.iinfo(np.intp).max) + 2)


@pytest.mark.parametrize("build", [gf, construct_od1])
@pytest.mark.parametrize("q", [2.0, "7", True, np.float64(7)])
def test_orders_must_be_integers(build, q):
    with pytest.raises(DimensionError, match="integer order"):
        build(q)


def test_numpy_integer_orders_compute_in_python_ints():
    # int8 arithmetic would wrap: q * q and the 2^16 slab bound overflow it
    assert np.array_equal(construct_od1(np.int8(7)).rows, construct_od1(7).rows)
    assert gf(np.int16(16)).q == 16


def test_verify_od_shape_and_symbol_checks(capsys, tmp_path):
    with pytest.raises(DimensionError):
        verify_od(np.array([[1, 2, 3]]), n=2, s=3)  # s > n
    with pytest.raises(DimensionError, match="does not match s = 3"):
        verify_od(construct_od1(3).rows[:, :2], n=3, s=3)
    with pytest.raises(DimensionError, match="does not match s = 2"):
        verify_od(np.array([1, 2]), n=2, s=2)  # one row, but not a 2-D array
    with pytest.raises(DimensionError, match="empty array"):
        verify_od(np.empty((0, 2), dtype=np.int64), n=2, s=2)
    with pytest.raises(FormatError):
        verify_od(np.array([[0, 1], [1, 2]]), n=2, s=2)
    # truncated to int, the first array would verify as [[1, 2], [2, 1]]
    unreadable = ([[1, 2], [2, None]], [[1, 2], [2]], [[1, 10**30], [2, 1]])  # None, ragged, beyond int64
    for rows in ([[1.9, 2.2], [2.7, 1.1]], [[1.0, float("nan")], [2.0, 1.0]], *unreadable):
        with pytest.raises(FormatError, match="symbols must be integers"):
            verify_od(rows, n=2, s=2)
    assert verify_od([[1.0, 2.0], [2.0, 1.0]], n=2, s=2).eta == 1
    with pytest.raises(DimensionError):
        verify_od(np.array([[1, 2]]), n=3, s=2)  # wrong row count
    with pytest.raises(DimensionError):
        verify_od(np.array([[1], [2]]), n=3, s=1)  # wrong row count, one column
    with pytest.raises(DimensionError, match="n >= 2"):
        verify_od(np.array([[1]]), n=1, s=1)  # one symbol has no pair of distinct symbols
    one = tmp_path / "od1.csv"
    one.write_text("1\n1\n")
    assert main(["od", "verify", str(one)]) == 1
    assert "DimensionError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, s",
    [(3.0, 3), (3, 3.0), (True, 3), (3, np.float64(3)), ("3", 3)],
    ids=["float-n", "float-s", "bool-n", "numpy-float-s", "str-n"],
)
def test_verify_od_needs_integer_n_and_s(n, s):
    rows = construct_od1(3).rows
    with pytest.raises(DimensionError, match="integers"):
        verify_od(rows, n, s)
    assert verify_od(rows, np.int64(3), np.int64(3)).eta == 1


def test_column_permutation_and_relabeling_preserve_properties():
    rng = np.random.default_rng(11)
    od = construct_od1(5)
    cols = rng.permutation(od.s)
    relabel = rng.permutation(od.n) + 1
    permuted = od.rows[:, cols]
    relabeled = relabel[od.rows - 1]
    for arr in (permuted, relabeled):
        again = verify_od(arr, n=od.n, s=od.s)
        assert (again.n, again.s, again.eta) == (od.n, od.s, od.eta)


def test_od_csv_roundtrip():
    od = construct_od1(4)
    back = od_from_csv(od_to_csv(od))
    assert np.array_equal(back.rows, od.rows)
    assert (back.n, back.s, back.eta) == (od.n, od.s, od.eta)
