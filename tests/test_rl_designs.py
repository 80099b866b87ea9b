import json
from collections import Counter
from itertools import combinations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from sbbd import (
    CatalogMismatch,
    FormatError,
    NotADifferenceSet,
    NotInCatalog,
    NotPairBalanced,
    NotRegular,
    all_pairs_plus_full,
    catalog_by_id,
    catalog_lookup,
    design_from_json,
    incidence_matrix,
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
            return NotRegular(p, points[p], r)
    pairs = pair_count_oracle(v, blocks)
    lam = pairs[(1, 2)]
    for pair, cnt in pairs.items():
        if cnt != lam:
            return NotPairBalanced(pair, cnt, lam)
    if lam == 0:
        return NotPairBalanced(
            (1, 2), 0, 1, "pair coverage is zero; lambda = 0 designs are rejected"
        )
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
    h = incidence_matrix(rl4)
    assert h.tolist() == [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]
    hth = h.T @ h
    assert np.array_equal(hth, 3 * np.eye(3, dtype=int) + 2 * (np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)))


def test_all_pairs_plus_full_matches_explicit(rl4):
    d = all_pairs_plus_full(3)
    assert (d.v, d.b, d.r, d.lam) == (rl4.v, rl4.b, rl4.r, rl4.lam)
    assert sorted(map(sorted, d.blocks)) == sorted(map(sorted, rl4.blocks))


def test_fano_from_catalog():
    d = catalog_lookup(7, 7, 3, 3, 1)
    assert d.is_bibd and d.is_symmetric
    assert (d.r, d.k, d.lam) == (3, 3, 1)
    h = incidence_matrix(d)
    assert (h.sum(axis=0) == 3).all() and (h.sum(axis=1) == 3).all()


def test_not_regular_witness():
    with pytest.raises(NotRegular) as exc:
        verify_rl_design(3, [{1, 2}, {1, 3}])
    assert exc.value.point in (2, 3)


def test_not_pair_balanced_witness():
    with pytest.raises(NotPairBalanced) as exc:
        verify_rl_design(4, [{1, 2}, {1, 2}, {3, 4}, {3, 4}])
    assert exc.value.count == 0


def test_lambda_zero_rejected():
    with pytest.raises(NotPairBalanced):
        verify_rl_design(2, [{1}, {2}])


def test_block_validation():
    with pytest.raises(FormatError):
        verify_rl_design(3, [{1, 2}, set()])
    with pytest.raises(FormatError):
        verify_rl_design(3, [{1, 4}])


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
    assert d.is_symmetric
    oracle = pair_count_oracle(d.v, d.blocks)
    assert set(oracle.values()) == {lam}


def test_bad_base_block_rejected():
    with pytest.raises(NotADifferenceSet):
        symmetric_bibd_from_difference_set(7, [1, 2, 3])
    with pytest.raises(FormatError):
        symmetric_bibd_from_difference_set(7, [1, 1, 2])


def assert_symmetric_bibd(d, key):
    v, b, r, k, lam = key
    assert (d.v, d.b, d.r, d.k, d.lam) == key
    h = incidence_matrix(d)
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
    assert_symmetric_bibd(catalog_lookup(*key), key)
    assert catalog_lookup(*key) == catalog_by_id(name)


@pytest.mark.parametrize("p", QR_PRIMES)
def test_qr_rule_closed_form(p):
    key = (p, p, (p - 1) // 2, (p - 1) // 2, (p - 3) // 4)
    d = catalog_by_id(f"qr{p}")
    assert_symmetric_bibd(d, key)
    assert catalog_lookup(*key) == d
    # block t is t + the squares mod p, on points 1..p
    assert d.blocks[0] == frozenset((x * x) % p + 1 for x in range(1, p))


@pytest.mark.parametrize("name", ["qr3", "qr9", "qr13", "qr031", "qr", "qr\u0663\u0661", "qr7 ", "7", "nope"])
def test_catalog_rejects_ids_outside_the_rule(name):
    with pytest.raises(NotInCatalog, match="unknown catalog id"):
        catalog_by_id(name)


def test_catalog_unknown_tuple():
    with pytest.raises(NotInCatalog):
        catalog_lookup(7, 49, 21, 3, 7)
    with pytest.raises(NotInCatalog):
        catalog_lookup(7, 7, 3, 3, 2)
    with pytest.raises(NotInCatalog):
        catalog_lookup(13, 13, 6, 6, 2)  # 13 = 1 (mod 4) has no QR design


def test_catalog_entry_with_wrong_parameters(monkeypatch):
    # the rule filing fano under the wrong key is refused by a named error
    wrong = (7, 7, 3, 3, 2)
    fano = {"fano": (wrong, 7, [1, 2, 4]), "qr7": (wrong, 7, [1, 2, 4])}
    monkeypatch.setattr(rl_designs, "_difference_set", fano.get)
    with pytest.raises(CatalogMismatch, match="builds a design with"):
        catalog_by_id("fano")
    with pytest.raises(CatalogMismatch, match="builds a design with"):
        catalog_lookup(*wrong)


def test_catalog_ids_resolve():
    for name, (v, b, r, k, lam) in SHIPPED.items():
        d = catalog_by_id(name)
        assert (d.v, d.b, d.r, d.k, d.lam) == (v, b, r, k, lam)
    assert catalog_by_id("fano") == catalog_by_id("qr7")
    assert catalog_by_id("pg23").blocks[0] == frozenset({1, 2, 4, 10})
    assert catalog_by_id("pairs3") == all_pairs_plus_full(3)
    with pytest.raises(NotInCatalog):
        catalog_by_id("nope")


def test_design_json_roundtrip(rl4):
    text = json.dumps({"v": rl4.v, "blocks": [sorted(blk) for blk in rl4.blocks]})
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
    assert d.blocks == (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}), frozenset({1, 2, 3}))
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
    ],
)
def test_design_json_takes_only_integers(text):
    with pytest.raises(FormatError, match="bad block-design JSON"):
        design_from_json(text)
