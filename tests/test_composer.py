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
    cyclic_shift_perms,
    information_matrix,
    permute_extension,
    permute_panels,
    spanning_guaranteed,
    spectrum,
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
    x = composed_b4.x
    od = construct_od1(4)
    h = sbbd.incidence_matrix(rl4)
    assert (x.v1, x.v2, x.n_rows) == (4, 3, 12)
    # panel q of row p is the H row named by the ordered design
    for p in (0, 3, 11):
        for q in range(4):
            assert np.array_equal(x.panel(q + 1)[p], h[od.rows[p, q] - 1])


def test_compose_b4_parameters(composed_b4):
    assert composed_b4.predicted.lam == (9, 6, 6, 7)
    assert composed_b4.predicted.n_rows == 12
    measured = check_sbbd(composed_b4.x)
    assert measured.lam == composed_b4.predicted.lam
    assert composed_b4.spanning_guaranteed
    assert sbbd.is_spanning(composed_b4.x)


def test_compose_b4_against_cooccurrence_oracle(composed_b4):
    assert cooccurrence_oracle(composed_b4.x) == (9, 6, 6, 7)


def test_compose_fixture_against_cooccurrence_oracle(x22):
    assert cooccurrence_oracle(x22) == (6, 3, 4, 4)


def test_compose_fano_parameters(fano_composed):
    assert fano_composed.predicted.lam == (18, 6, 6, 8)
    assert fano_composed.predicted.n_rows == 42
    assert check_sbbd(fano_composed.x).lam == (18, 6, 6, 8)


def test_compose_qr59_beyond_the_extension_field_tables():
    # a prime field of order 59 needs no shipped table
    composed = compose(sbbd.catalog_by_id("qr59"), construct_od1(59))
    measured = check_sbbd(composed.x)
    assert measured.lam == composed.predicted.lam == (1682, 812, 812, 827)
    assert measured.n_rows == 59 * 58


def test_compose_symbol_count_mismatch(rl4):
    with pytest.raises(DimensionError):
        compose(rl4, construct_od1(5))


def test_spanning_guarantee_boundary():
    assert spanning_guaranteed(4, 4, 3)
    assert spanning_guaranteed(7, 7, 3)
    assert not spanning_guaranteed(1, 4, 3)
    with pytest.raises(DimensionError):
        spanning_guaranteed(5, 4, 3)


def test_panel_permutation_preserves_information_matrix(composed_b4):
    x = composed_b4.x
    base_info = gram(x)
    rng = np.random.default_rng(3)
    for _ in range(10):
        perm = (rng.permutation(x.v2) + 1).tolist()
        assert np.array_equal(gram(permute_panels(x, perm)), base_info)


def test_identity_permutation_is_a_noop(composed_b4):
    x = composed_b4.x
    assert np.array_equal(permute_panels(x, [1, 2, 3]).matrix, x.matrix)
    assert np.array_equal(permute_extension(x, []).matrix, x.matrix)


def test_stacking_identity_doubles_information_matrix(composed_b4):
    x = composed_b4.x
    stacked = permute_extension(x, [[1, 2, 3]])
    assert stacked.n_rows == 2 * x.n_rows
    assert np.array_equal(gram(stacked), 2 * gram(x))


def test_cyclic_extension_scales_parameters(composed_b4):
    x = composed_b4.x
    stacked = permute_extension(x, cyclic_shift_perms(3, 2))
    assert stacked.n_rows == 24
    assert check_sbbd(stacked).lam == (18, 12, 12, 14)


def test_bad_permutation_rejected(composed_b4):
    with pytest.raises(DimensionError):
        permute_panels(composed_b4.x, [1, 2])
    with pytest.raises(DimensionError):
        permute_panels(composed_b4.x, [1, 2, 2])


def test_od_row_permutation_permutes_design_rows(rl4):
    od = construct_od1(4)
    rng = np.random.default_rng(5)
    shuffle = rng.permutation(od.n_rows)
    od_shuffled = verify_od(od.rows[shuffle], n=4, s=4)
    x = compose(rl4, od).x
    y = compose(rl4, od_shuffled).x
    assert np.array_equal(y.matrix, x.matrix[shuffle])
    assert np.array_equal(gram(y), gram(x))


_COMPOSED = {}


def composed(name):
    """The catalog design `name` composed with OD_1(b), built once."""
    if name not in _COMPOSED:
        d = sbbd.catalog_by_id(name)
        _COMPOSED[name] = compose(d, construct_od1(d.b)).x
    return _COMPOSED[name]


def relabellings():
    """(design name, a permutation of the left points, one of the right points)."""
    return st.sampled_from(["pairs3", "fano", "pg23"]).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.permutations(range(composed(name).v1)),
            st.permutations(range(1, composed(name).v2 + 1)),
        )
    )


def lambda_and_spectrum(x):
    return check_sbbd(x).lam, spectrum(information_matrix(x)).pairs()


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
    name, _, right = case
    x = composed(name)
    assert lambda_and_spectrum(permute_panels(x, list(right))) == lambda_and_spectrum(x)
