import json
from collections import Counter
from itertools import combinations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from sbbd import (
    CatalogMismatch,
    DimensionError,
    FormatError,
    NotADifferenceSet,
    NotInCatalog,
    NotPairBalanced,
    NotRegular,
    Violation,
    catalog_by_id,
    design_from_json,
    symmetric_bibd_from_difference_set,
    verify_rl_design,
)
from sbbd import rl_designs

# every id the catalog shipped before it became one rule, with its (v, b, r, k, lambda)
SHIPPED = {
    "fano": (7, 7, 3, 3, 1),
    "qr11": (11, 11, 5, 5, 2),
    "pg23": (13, 13, 4, 4, 1),
    "qr19": (19, 19, 9, 9, 4),
    "qr23": (23, 23, 11, 11, 5),
    "qr31": (31, 31, 15, 15, 7),
    "qr43": (43, 43, 21, 21, 10),
    "qr47": (47, 47, 23, 23, 11),
    "qr59": (59, 59, 29, 29, 14),
    "qr67": (67, 67, 33, 33, 16),
    "qr71": (71, 71, 35, 35, 17),
    "qr79": (79, 79, 39, 39, 19),
    "pairs3": (3, 4, 3, None, 2),
}

# primes 7 <= p <= 131 with p = 3 (mod 4), by trial division
QR_PRIMES = [p for p in range(7, 132) if p % 4 == 3 and all(p % d for d in range(2, p))]


def blocks_of(d):
    """The blocks of d as point sets, read back from its incidence matrix."""
    return [set((np.flatnonzero(row) + 1).tolist()) for row in d.incidence]


def pair_count_oracle(v, blocks):
    """Brute-force pair counting, independent of verify_rl_design."""
    counts = Counter()
    for blk in blocks:
        for pair in combinations(sorted(blk), 2):
            counts[pair] += 1
    return {pair: counts.get(pair, 0) for pair in combinations(range(1, v + 1), 2)}


def rl_oracle(v, blocks):
    """The error verify_rl_design must raise, or (r, lambda), by brute force.

    Points in order 1..v, then pairs in combinations order, then lambda = 0.
    """
    points = Counter(p for blk in blocks for p in blk)
    r = points[1]
    for p in range(1, v + 1):
        if points[p] != r:
            witness = {"point": p, "count": points[p], "expected": r}
            return NotRegular("replication", witness, f"point {p} lies in {points[p]} blocks, expected {r}")
    pairs = pair_count_oracle(v, blocks)
    lam = pairs[(1, 2)]
    for pair, cnt in pairs.items():
        if cnt != lam:
            witness = {"pair": pair, "count": cnt, "expected": lam}
            return NotPairBalanced("pair balance", witness, f"pair {pair} lies in {cnt} blocks, expected {lam}")
    if lam == 0:
        witness = {"pair": (1, 2), "count": 0, "expected": 1}
        return NotPairBalanced("pair balance", witness, "pair coverage is zero; lambda = 0 designs are rejected")
    return r, lam


def block_lists(v):
    """Free block lists, and relabelled cyclic developments mod v, which are regular."""
    free = st.lists(st.frozensets(st.integers(1, v), min_size=1), min_size=1, max_size=8)
    bases = st.lists(st.frozensets(st.integers(0, v - 1), min_size=1), min_size=1, max_size=2)
    developed = st.tuples(bases, st.permutations(range(1, v + 1))).map(
        lambda t: [frozenset(t[1][(p + s) % v] for p in b) for b in t[0] for s in range(v)]
    )
    return st.one_of(free, developed)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6).flatmap(lambda v: st.tuples(st.just(v), block_lists(v))))
# regular, with pairs (1, 4) and (2, 3) both off: (1, 4) comes first in combinations order
@example((4, [{1, 2}, {3, 4}, {1, 3}, {2, 4}]))
def test_verify_rl_design_matches_pair_count_oracle(case):
    v, blocks = case
    expected = rl_oracle(v, blocks)
    if isinstance(expected, tuple):
        d = verify_rl_design(v, blocks)
        assert (d.r, d.lam) == expected
        assert d.incidence.tolist() == [[int(p in blk) for p in range(1, v + 1)] for blk in blocks]
        return
    with pytest.raises(type(expected)) as exc:
        verify_rl_design(v, blocks)
    assert vars(exc.value) == vars(expected)
    assert str(exc.value) == str(expected)


def test_four_block_design(rl4):
    assert (rl4.v, rl4.b, rl4.r, rl4.lam) == (3, 4, 3, 2)
    assert not rl4.is_bibd
    assert rl4.k is None
    assert rl4.block_sizes == (2, 2, 2, 3)


def test_four_block_incidence_matrix(rl4):
    h = rl4.incidence
    assert h.tolist() == [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
    assert h.dtype == np.uint8 and h.flags.c_contiguous and not h.flags.writeable
    h = h.astype(np.int64)
    hth = h.T @ h
    assert np.array_equal(hth, 3 * np.eye(3, dtype=int) + 2 * (np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)))


def test_pairs3_blocks_in_order(rl4):
    d = catalog_by_id("pairs3")
    assert d.incidence.tolist() == [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
    assert (d.v, d.b, d.r, d.lam, d.k) == (3, 4, 3, 2, None)
    assert d != rl4  # the same blocks in another order


def test_verify_rl_design_needs_two_points_and_a_block():
    for v in (1, "3", 3.0):
        with pytest.raises(DimensionError, match="integer v >= 2"):
            verify_rl_design(v, [[1]])
    with pytest.raises(DimensionError, match="largest array"):  # 10^30 points: numpy cannot index H
        verify_rl_design(10**30, [[1]])
    with pytest.raises(DimensionError, match="at least one block"):
        verify_rl_design(3, [])


def test_fano_from_catalog():
    d = catalog_by_id("fano")
    assert d.is_bibd and d.b == d.v
    assert (d.r, d.k, d.lam) == (3, 3, 1)
    h = d.incidence
    assert (h.sum(axis=0) == 3).all() and (h.sum(axis=1) == 3).all()


def test_not_regular_witness():
    with pytest.raises(NotRegular) as exc:
        verify_rl_design(3, [{1, 2}, {1, 3}])
    assert isinstance(exc.value, Violation)
    assert (exc.value.condition, exc.value.witness) == ("replication", {"point": 2, "count": 1, "expected": 2})
    assert str(exc.value) == "point 2 lies in 1 blocks, expected 2"


def test_not_pair_balanced_witness():
    with pytest.raises(NotPairBalanced) as exc:
        verify_rl_design(4, [{1, 2}, {1, 2}, {3, 4}, {3, 4}])
    assert isinstance(exc.value, Violation)
    assert exc.value.condition == "pair balance"
    assert exc.value.witness == {"pair": (1, 3), "count": 0, "expected": 2}


def test_lambda_zero_rejected():
    with pytest.raises(NotPairBalanced):
        verify_rl_design(2, [{1}, {2}])


def test_block_validation():
    with pytest.raises(FormatError):
        verify_rl_design(3, [{1, 2}, set()])
    with pytest.raises(FormatError):
        verify_rl_design(3, [{1, 4}])
    for blocks in ([5], None, [{1, 2}, 3]):  # not blocks of points
        with pytest.raises(FormatError, match="iterable"):
            verify_rl_design(3, blocks)


@pytest.mark.parametrize(
    "modulus,base,expected",
    [
        (7, [1, 2, 4], (7, 3, 1)),
        (11, [1, 3, 4, 5, 9], (11, 5, 2)),
        (13, [0, 1, 3, 9], (13, 4, 1)),
    ],
)
def test_difference_set_development(modulus, base, expected):
    # independent oracle: over distinct base pairs, every nonzero difference
    # mod v must occur exactly lambda times
    lam = expected[2]
    diffs = Counter(
        (x - y) % modulus for x in base for y in base if x != y
    )
    assert all(diffs[d] == lam for d in range(1, modulus))

    d = symmetric_bibd_from_difference_set(modulus, base)
    assert (d.v, d.k, d.lam) == expected
    assert d.is_bibd and d.b == d.v
    oracle = pair_count_oracle(d.v, blocks_of(d))
    assert set(oracle.values()) == {lam}


def test_bad_base_block_rejected():
    with pytest.raises(NotADifferenceSet) as exc:
        symmetric_bibd_from_difference_set(7, [1, 2, 3])
    # the witness and condition of the count that failed, under the wrapping message
    assert isinstance(exc.value, Violation) and isinstance(exc.value.__cause__, NotPairBalanced)
    assert (exc.value.condition, exc.value.witness) == ("pair balance", {"pair": (1, 3), "count": 1, "expected": 2})
    assert str(exc.value) == (
        "base block [1, 2, 3] mod 7 does not develop into a BIBD: pair (1, 3) lies in 1 blocks, expected 2"
    )
    with pytest.raises(FormatError):
        symmetric_bibd_from_difference_set(7, [1, 1, 2])
    for base in (5, None):  # not an iterable of residues
        with pytest.raises(FormatError, match="not an iterable"):
            symmetric_bibd_from_difference_set(7, base)


@pytest.mark.parametrize("modulus", [0, 1, -7, 7.0, True, 10**30, np.int64(3 * 10**9)])
def test_bad_modulus_is_a_dimension_error(modulus):
    # 10^30 points need a Gram beyond numpy's indexing, and so do 3 * 10^9,
    # whose byte count wraps negative in int64 arithmetic; the others are not moduli
    with pytest.raises(DimensionError, match="modulus|largest array"):
        symmetric_bibd_from_difference_set(modulus, [0, 1])


def assert_symmetric_bibd(d, key):
    v, b, r, k, lam = key
    assert (d.v, d.b, d.r, d.k, d.lam) == key
    h = d.incidence.astype(np.int64)
    expected = r * np.eye(v, dtype=int) + lam * (
        np.ones((v, v), dtype=int) - np.eye(v, dtype=int)
    )
    assert np.array_equal(h.T @ h, expected)
    # symmetric designs: b = v and k = r row sums
    assert d.b == d.v
    assert (h.sum(axis=1) == k).all()
    # every point appears in exactly k = |base| blocks
    assert (h.sum(axis=0) == r).all()


@pytest.mark.parametrize("name", [n for n in SHIPPED if n != "pairs3"])
def test_catalog_all_entries_verify(name):
    key = SHIPPED[name]
    assert_symmetric_bibd(catalog_by_id(name), key)


@pytest.mark.parametrize("p", QR_PRIMES)
def test_qr_rule_closed_form(p):
    key = (p, p, (p - 1) // 2, (p - 1) // 2, (p - 3) // 4)
    d = catalog_by_id(f"qr{p}")
    assert_symmetric_bibd(d, key)
    # block t is t + the squares mod p, on points 1..p
    assert blocks_of(d)[0] == {(x * x) % p + 1 for x in range(1, p)}
    # the rule's base block is the sorted set of squares, each once
    _, modulus, base = rl_designs._difference_set(f"qr{p}")
    assert modulus == p and base.tolist() == sorted({x * x % p for x in range(1, p)})


@pytest.mark.parametrize(
    "name",
    # int() refuses to convert more than 4300 digits by default
    ["qr3", "qr9", "qr13", "qr031", "qr", "qr\u0663\u0661", "qr7 ", "7", "nope", pytest.param("qr" + "7" * 5000, id="qr-5000-digits")],
)
def test_catalog_rejects_ids_outside_the_rule(name):
    with pytest.raises(NotInCatalog, match="unknown catalog id"):
        catalog_by_id(name)


def test_catalog_entry_with_wrong_parameters(monkeypatch):
    # the rule filing fano under the wrong key is refused by a named error
    wrong = (7, 7, 3, 3, 2)
    fano = {"fano": (wrong, 7, [1, 2, 4]), "qr7": (wrong, 7, [1, 2, 4])}
    monkeypatch.setattr(rl_designs, "_difference_set", fano.get)
    with pytest.raises(CatalogMismatch, match="builds a design with"):
        catalog_by_id("fano")


def test_catalog_ids_resolve():
    for name, (v, b, r, k, lam) in SHIPPED.items():
        d = catalog_by_id(name)
        assert (d.v, d.b, d.r, d.k, d.lam) == (v, b, r, k, lam)
    assert catalog_by_id("fano") == catalog_by_id("qr7")
    assert blocks_of(catalog_by_id("pg23"))[0] == {1, 2, 4, 10}
    with pytest.raises(NotInCatalog):
        catalog_by_id("nope")


def test_design_json_roundtrip(rl4):
    text = json.dumps({"v": rl4.v, "blocks": [sorted(blk) for blk in blocks_of(rl4)]})
    back = design_from_json(text)
    assert back == rl4


@pytest.mark.parametrize(
    "blocks",
    [
        [{1.5, 2}, {2, 3}, {1, 3}, {1, 2, 3}],
        [[1, 2, True], [2, 3], [1, 3], [1, 2, 3]],  # True would merge with 1 in a set
        [[1, 2.0], [2, 3], [1, 3], [1, 2, 3]],
    ],
)
def test_points_must_be_integers(blocks):
    with pytest.raises(FormatError, match="not an integer"):
        verify_rl_design(3, blocks)


@pytest.mark.parametrize("base", [[1.5, 2, 4], [True, 2, 4], ["1", 2, 4]])
def test_base_block_residues_must_be_integers(base):
    with pytest.raises(FormatError, match="not an integer"):
        symmetric_bibd_from_difference_set(7, base)


def test_numpy_integer_points_are_accepted():
    d = verify_rl_design(3, [np.array([1, 2]), [np.int64(2), 3], [1, 3], range(1, 4)])
    assert d.incidence.tolist() == [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
    assert symmetric_bibd_from_difference_set(7, np.array([1, 2, 4])).lam == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"v": 3.7, "blocks": [[1.9, 2], ["2", 3], [true, 3], [1, 2, 3]]}',
        '{"v": 3.0, "blocks": [[1, 2], [2, 3], [1, 3], [1, 2, 3]]}',
        '{"v": true, "blocks": [[1, 2], [2, 3], [1, 3], [1, 2, 3]]}',
        '{"v": "3", "blocks": [[1, 2], [2, 3], [1, 3], [1, 2, 3]]}',
        '{"v": 3, "blocks": [[1.9, 2], [2, 3], [1, 3], [1, 2, 3]]}',
        '{"v": 3, "blocks": [[1, 2], ["2", 3], [1, 3], [1, 2, 3]]}',
        '{"v": 3, "blocks": [[1, 2], [2, 3], [true, 3], [1, 2, 3]]}',
        '{"v": 3, "blocks": [[1, 2], [2, 3], [1, 3], [1, 2, null]]}',
        '{"v": 3, "blocks": [[1, 2], [2, 3], [1, 3], ["x", 2, 3]]}',
        '{"v": 3, "blocks": [[1, 2], [2, 3], [1, 3], 5]}',
        pytest.param('{"v": 3, "blocks": %s}' % ("[" * 200_000 + "]" * 200_000), id="nested-past-the-recursion-limit"),
    ],
)
def test_design_json_takes_only_integers(text):
    with pytest.raises(FormatError, match="bad block-design JSON"):
        design_from_json(text)


def test_points_beyond_the_largest_array_are_a_dimension_error():
    with pytest.raises(DimensionError, match="largest array numpy can index"):
        design_from_json(json.dumps({"v": 10**30, "blocks": [[1, 2], [1, 2]]}))
    with pytest.raises(DimensionError, match="largest array numpy can index"):
        verify_rl_design(np.int64(3 * 10**9), [[1, 2]])
