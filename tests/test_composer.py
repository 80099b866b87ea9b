from collections import Counter
from itertools import combinations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import sbbd
from sbbd import (
    DesignMatrix,
    DimensionError,
    check_sbbd,
    compose,
    construct_od1,
    permute_extension,
    predicted_parameters,
    spanning_guaranteed,
    verify_od,
)


def gram(x: sbbd.DesignMatrix) -> np.ndarray:
    """The exact X^T X; the uint8 matrix is cast first, as its products wrap past 255."""
    m = x.matrix.astype(np.int64)
    return m.T @ m


def cooccurrence_oracle(x: sbbd.DesignMatrix):
    """Count edge-pair co-occurrences straight from each row's edge list.

    Independent of the matmul-based panel scan: walks the edges (i, j) of
    every row and tallies (mu, l12, l21, l22) literally from the condition
    statements.
    """
    blocks = [
        [tuple(e) for e in (np.argwhere(row.reshape(x.v1, x.v2)) + 1).tolist()] for row in x.matrix
    ]
    single = Counter()
    together = Counter()
    for edges in blocks:
        for e in edges:
            single[e] += 1
        for e, f in combinations(sorted(edges), 2):
            together[(e, f)] += 1

    def pair_count(e, f):
        return together[(min(e, f), max(e, f))]

    edges = [(i, j) for i in range(1, x.v1 + 1) for j in range(1, x.v2 + 1)]
    mu = {single[e] for e in edges}
    l12 = {
        pair_count((i, j), (i, jj))
        for i in range(1, x.v1 + 1)
        for j, jj in combinations(range(1, x.v2 + 1), 2)
    }
    l21 = {
        pair_count((i, j), (ii, j))
        for j in range(1, x.v2 + 1)
        for i, ii in combinations(range(1, x.v1 + 1), 2)
    }
    l22 = {
        pair_count((i, j), (ii, jj))
        for i, ii in combinations(range(1, x.v1 + 1), 2)
        for j in range(1, x.v2 + 1)
        for jj in range(1, x.v2 + 1)
        if j != jj
    }
    assert len(mu) == len(l12) == len(l21) == len(l22) == 1
    return (mu.pop(), l12.pop(), l21.pop(), l22.pop())


def test_compose_b4_structure(rl4, composed_b4):
    x = composed_b4
    od = construct_od1(4)
    h = rl4.incidence
    assert (x.v1, x.v2, x.n_rows) == (4, 3, 12)
    # panel q of row p is the H row named by the ordered design
    for p in (0, 3, 11):
        for q in range(4):
            assert np.array_equal(x.masks[p, q], h[od.rows[p, q] - 1])


def test_compose_b4_parameters(rl4, composed_b4):
    predicted = predicted_parameters(rl4, construct_od1(4))
    assert predicted.lam == (9, 6, 6, 7)
    assert predicted.n_rows == 12
    assert check_sbbd(composed_b4) == predicted
    assert spanning_guaranteed(rl4, construct_od1(4))
    assert sbbd.is_spanning(composed_b4)


def test_compose_b4_against_cooccurrence_oracle(composed_b4):
    assert cooccurrence_oracle(composed_b4) == (9, 6, 6, 7)


def test_compose_fixture_against_cooccurrence_oracle(x22):
    assert cooccurrence_oracle(x22) == (6, 3, 4, 4)


def test_compose_fano_parameters(fano_composed):
    predicted = predicted_parameters(sbbd.catalog_by_id("fano"), construct_od1(7))
    assert predicted.lam == (18, 6, 6, 8)
    assert predicted.n_rows == 42
    assert check_sbbd(fano_composed).lam == (18, 6, 6, 8)


def test_compose_qr59_beyond_the_extension_field_tables():
    # a prime field of order 59 needs no shipped table
    d, od = sbbd.catalog_by_id("qr59"), construct_od1(59)
    measured = check_sbbd(compose(d, od))
    assert measured.lam == predicted_parameters(d, od).lam == (1682, 812, 812, 827)
    assert measured.n_rows == 59 * 58


def test_compose_symbol_count_mismatch(rl4):
    with pytest.raises(DimensionError):
        compose(rl4, construct_od1(5))
    for build in (compose, predicted_parameters):  # a pair compose refuses has no parameters
        with pytest.raises(DimensionError, match=r"^ordered design on 5 symbols cannot index 7 blocks$"):
            build(sbbd.catalog_by_id("fano"), construct_od1(5))


def test_spanning_guarantee_boundary(rl4):
    od = construct_od1(4)
    assert spanning_guaranteed(rl4, od)  # s = 4 > b - r = 1
    assert not spanning_guaranteed(rl4, verify_od(od.rows[:, :1], n=4, s=1))  # s = 1
    with pytest.raises(DimensionError, match=r"^ordered design on 5 symbols cannot index 4 blocks$"):
        spanning_guaranteed(rl4, construct_od1(5))


def test_panel_permutation_preserves_gram(composed_b4):
    x = composed_b4
    base_info = gram(x)
    rng = np.random.default_rng(3)
    for _ in range(10):
        perm = (rng.permutation(x.v2) + 1).tolist()
        assert np.array_equal(gram(permute_extension(x, [perm])), base_info)


def test_identity_permutation_is_a_noop(composed_b4):
    x = composed_b4
    assert np.array_equal(permute_extension(x, [[1, 2, 3]]).matrix, x.matrix)
    assert np.array_equal(permute_extension(x, np.arange(1, 4)[None]).matrix, x.matrix)


def test_stacking_identity_doubles_gram(composed_b4):
    x = composed_b4
    stacked = permute_extension(x, [[1, 2, 3]] * 2)
    assert stacked.n_rows == 2 * x.n_rows
    assert np.array_equal(gram(stacked), 2 * gram(x))


def test_cyclic_extension_scales_parameters(composed_b4):
    x = composed_b4
    stacked = permute_extension(x, [[1, 2, 3], [2, 3, 1]])  # the identity and the shift by one
    assert stacked.n_rows == 24
    assert check_sbbd(stacked).lam == (18, 12, 12, 14)


def test_bad_permutation_rejected(composed_b4):
    bad = [
        [[1, 2]],
        [[1, 2, 2]],
        # truncated to int, [1.5, 2, 3] would pass as the identity
        [[1.5, 2, 3]],
        [[1.0, 2.0, float("nan")]],
        [1, 2, 3],  # one permutation, not a list of them
        [],  # u = 0 layers
        None,
        [[None] * 3],
        [["1", "2", "3"]],
        [[1, 2, 3], [1, 2]],  # ragged
        [np.zeros((2, 2)), np.zeros((2, 3))],  # ragged in a way numpy refuses to hold
        [[True, 2, 3]],  # True would pass as 1
        [[np.True_, 2, 3]],
        [[10**30, 2, 3]],  # beyond int64
    ]
    for perms in bad:
        with pytest.raises(DimensionError, match="permutation of 1..v2"):
            permute_extension(composed_b4, perms)
    assert np.array_equal(permute_extension(composed_b4, [[1.0, 2.0, 3.0]]).matrix, composed_b4.matrix)


def test_od_row_permutation_permutes_design_rows(rl4):
    od = construct_od1(4)
    rng = np.random.default_rng(5)
    shuffle = rng.permutation(od.n_rows)
    od_shuffled = verify_od(od.rows[shuffle], n=4, s=4)
    x = compose(rl4, od)
    y = compose(rl4, od_shuffled)
    assert np.array_equal(y.matrix, x.matrix[shuffle])
    assert np.array_equal(gram(y), gram(x))


_COMPOSED = {}


def composed(name):
    """The catalog design `name` composed with OD_1(b), built once."""
    if name not in _COMPOSED:
        d = sbbd.catalog_by_id(name)
        _COMPOSED[name] = compose(d, construct_od1(d.b))
    return _COMPOSED[name]


def relabellings():
    """(design name, a permutation of the left points, 1 to 3 of the right points)."""
    return st.sampled_from(["pairs3", "fano", "pg23"]).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.permutations(range(composed(name).v1)),
            st.lists(st.permutations(range(1, composed(name).v2 + 1)), min_size=1, max_size=3),
        )
    )


def lambda_and_spectrum(x):
    params = check_sbbd(x)
    return params.lam, params.spectrum


@settings(max_examples=30, deadline=None)
@given(relabellings())
def test_permuting_panels_preserves_lambda_and_spectrum(case):
    name, left, _ = case
    x = composed(name)
    panels = x.matrix.reshape(x.n_rows, x.v1, x.v2)[:, list(left), :]
    moved = DesignMatrix(x.v1, x.v2, panels.reshape(x.n_rows, x.v1 * x.v2))
    assert lambda_and_spectrum(moved) == lambda_and_spectrum(x)


@settings(max_examples=30, deadline=None)
@given(relabellings())
def test_relabelling_right_points_preserves_lambda_and_spectrum(case):
    name, _, perms = case
    x, u = composed(name), len(perms)
    stacked = permute_extension(x, perms)
    lam, pairs = lambda_and_spectrum(x)
    assert check_sbbd(stacked).lam == tuple(u * t for t in lam)
    assert lambda_and_spectrum(stacked)[1] == tuple((u * val, mult) for val, mult in pairs)
    layers = stacked.masks.reshape(u, x.n_rows, x.v1, x.v2)
    for layer, perm in zip(layers, perms):
        assert np.array_equal(layer, x.masks[:, :, np.array(perm) - 1])


def theorem_inputs():
    """The (r,lambda)-designs the composition theorem is checked on."""
    designs = [sbbd.catalog_by_id("pairs3")]
    # every pair of 1..v plus the full set: r = v, lambda = 2, b = 7, 11, 16
    designs += [
        sbbd.verify_rl_design(v, [*combinations(range(1, v + 1), 2), range(1, v + 1)]) for v in (4, 5, 6)
    ]
    designs += [sbbd.catalog_by_id(name) for name in ("fano", "qr11", "pg23", "qr19")]
    return designs


def relabelled_od1():
    """(design, OD_1(b) with symbols relabelled, rows reordered, s of b columns kept)."""
    return st.sampled_from(theorem_inputs()).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.permutations(range(1, d.b + 1)),
            st.randoms(use_true_random=False),
            st.permutations(range(d.b)),
            st.integers(2, d.b),
        )
    )


@settings(max_examples=60, deadline=None)
@given(relabelled_od1())
def test_composition_theorem_holds_for_relabelled_ods(case):
    d, symbols, rng, columns, s = case
    rows = np.array([0, *symbols])[construct_od1(d.b).rows]
    rows = rows[rng.sample(range(len(rows)), len(rows))][:, list(columns[:s])]
    od = verify_od(rows, n=d.b, s=s)
    x = compose(d, od)
    assert check_sbbd(x) == predicted_parameters(d, od)
    if spanning_guaranteed(d, od):
        assert sbbd.is_spanning(x)
