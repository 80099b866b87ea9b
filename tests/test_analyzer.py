import functools
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import sbbd
from sbbd import (
    ConditionViolation,
    ContrastsNotEstimable,
    DesignMatrix,
    DimensionError,
    SbbdParameters,
    SpanningViolation,
    a_optimality,
    check_sbbd,
    export_masks,
    generalized_inverse,
    is_spanning,
)
from sbbd.cli import _analyze_payload


def int_helmert(n):
    """Non-normalized integer vectors orthogonal to the all-ones vector."""
    rows = []
    for m in range(1, n):
        v = np.zeros(n, dtype=np.int64)
        v[:m] = 1
        v[m] = -m
        rows.append(v)
    return rows


def int_gram(x):
    """The int64 reference X^T X."""
    m = x.matrix.astype(np.int64)
    return m.T @ m


def eigen_check(x, params):
    """Multiply the int64 X^T X against each structured eigenvector.

    Exact integer arithmetic throughout, so this confirms all four
    eigenvalues of params.spectrum without any numerical eigensolver.
    """
    (alpha, _), (beta, _), (gamma, _), (delta, _) = params.spectrum
    m = int_gram(x)
    ones1 = np.ones(x.v1, dtype=np.int64)
    ones2 = np.ones(x.v2, dtype=np.int64)
    for p in int_helmert(x.v1):
        for q in int_helmert(x.v2):
            vec = np.kron(p, q)
            assert np.array_equal(m @ vec, alpha * vec)
        vec = np.kron(p, ones2)
        assert np.array_equal(m @ vec, beta * vec)
    for q in int_helmert(x.v2):
        vec = np.kron(ones1, q)
        assert np.array_equal(m @ vec, gamma * vec)
    vec = np.kron(ones1, ones2)
    assert np.array_equal(m @ vec, delta * vec)


def numeric_spectrum_oracle(x, params):
    """Dense eigendecomposition must reproduce the closed-form multiset."""
    closed = []
    for val, mult in params.spectrum:
        closed.extend([float(val)] * mult)
    zeros = x.v1 * x.v2 - len(closed)
    # multiplicities already cover the full dimension
    assert zeros == 0
    numeric = np.linalg.eigvalsh(int_gram(x).astype(float))
    assert np.allclose(sorted(numeric), sorted(closed), atol=1e-9)


def test_gram_fixture(x22):
    params = check_sbbd(x22)
    diag = 6 * np.eye(3, dtype=int) + 3 * (np.ones((3, 3), dtype=int) - np.eye(3, dtype=int))
    off = 4 * np.ones((3, 3), dtype=int)
    expected = np.kron(np.eye(3, dtype=int), diag) + np.kron(
        np.ones((3, 3), dtype=int) - np.eye(3, dtype=int), off
    )
    assert np.array_equal(int_gram(x22), expected)
    assert params.lam == (6, 3, 4, 4)


def test_gram_b4_blocks(composed_b4):
    params = check_sbbd(composed_b4)
    x = composed_b4
    p1, p2 = x.masks[:, 0].astype(np.int64), x.masks[:, 1].astype(np.int64)
    diag = p1.T @ p1
    off = p1.T @ p2
    assert diag.tolist() == [[9, 6, 6], [6, 9, 6], [6, 6, 9]]
    assert off.tolist() == [[6, 7, 7], [7, 6, 7], [7, 7, 6]]
    assert params.lam == (9, 6, 6, 7)


def test_gram_all_ones():
    x = DesignMatrix(2, 2, np.ones((2, 4), dtype=int))
    params = check_sbbd(x)
    assert np.array_equal(int_gram(x), 2 * np.ones((4, 4), dtype=int))
    assert params.lam == (2, 2, 2, 2)


def test_check_sbbd_fixture(x22):
    params = check_sbbd(x22)
    assert params.lam == (6, 3, 4, 4)
    assert (params.v1, params.v2, params.n_rows) == (3, 3, 9)
    assert is_spanning(x22)


def test_single_bit_flip_violates_conditions(x22):
    m = x22.matrix.copy()
    m[4, 7] ^= 1
    with pytest.raises(ConditionViolation) as exc:
        check_sbbd(DesignMatrix(3, 3, m))
    assert exc.value.condition in ("II", "III", "IV", "V")
    assert exc.value.witness


def test_non_dcs_matrix_has_no_closed_form():
    rng = np.random.default_rng(2)
    x = DesignMatrix(2, 2, rng.integers(0, 2, size=(5, 4)))
    with pytest.raises(ConditionViolation) as first:
        check_sbbd(x)
    with pytest.raises(ConditionViolation) as again:
        a_optimality(x)
    assert (again.value.condition, again.value.witness) == (
        first.value.condition,
        first.value.witness,
    )


def test_spectrum_fixture(x22):
    params = check_sbbd(x22)
    values, mults = zip(*params.spectrum)
    assert values == (3, 0, 3, 36)
    assert mults == (4, 2, 2, 1)
    assert params.alpha == 3
    # the CLI merges equal eigenvalues, in descending order
    assert _analyze_payload(x22)["spectrum"] == [
        {"value": "36", "mult": 1},
        {"value": "3", "mult": 6},
        {"value": "0", "mult": 2},
    ]
    assert sum(val * mult for val, mult in params.spectrum) == 6 * 9  # mu v1 v2
    eigen_check(x22, params)
    numeric_spectrum_oracle(x22, params)


def test_spectrum_b4(composed_b4):
    params = check_sbbd(composed_b4)
    assert tuple(val for val, _ in params.spectrum) == (4, 1, 0, 81)
    eigen_check(composed_b4, params)
    numeric_spectrum_oracle(composed_b4, params)


def test_spectrum_fano(fano_composed):
    params = check_sbbd(fano_composed)
    (alpha, _), (beta, _), (gamma, _), (delta, _) = params.spectrum
    assert alpha == params.alpha == 14
    assert (beta, gamma) == (0, 0)
    assert delta == 18 * 21  # mu * k for a semi-regular design
    eigen_check(fano_composed, params)
    numeric_spectrum_oracle(fano_composed, params)


def test_semi_regular_zero_eigenvectors(fano_composed):
    m = int_gram(fano_composed)
    ones = np.ones(7, dtype=np.int64)
    for z in int_helmert(7):
        assert not (m @ np.kron(z, ones)).any()
        assert not (m @ np.kron(ones, z)).any()


def test_trace_identity_semi_regular(fano_composed):
    alpha, m_alpha = check_sbbd(fano_composed).spectrum[0]
    k = 3 * 7
    assert m_alpha * alpha == 18 * (49 - k)


def test_generalized_inverse_identities(
    x22, composed_b4, fano_composed, single_edge_blocks, dense_ginv
):
    # fano is semi-regular with beta = gamma = 0; single_edge_blocks is an SBBD*
    for x in (x22, composed_b4, fano_composed, single_edge_blocks):
        weights = generalized_inverse(check_sbbd(x))
        assert type(weights) is tuple and len(weights) == 4
        assert all(type(w) is Fraction for w in weights)
        g = dense_ginv(x.v1, x.v2, weights)
        m = int_gram(x).astype(object)
        mg = m @ g
        gm = g @ m
        assert ((mg @ m) == m).all()
        assert ((gm @ g) == g).all()
        # symmetric products: the Moore-Penrose conditions
        assert (mg == mg.T).all()
        assert (gm == gm.T).all()

    # variance balance: every elementary contrast c = (e_i - e_i') (x) (e_j - e_j')
    # has c^T G c = 4 / alpha, summed over the 16 entries of G that c touches
    for x in (x22, composed_b4, fano_composed):
        params = check_sbbd(x)
        g = dense_ginv(x.v1, x.v2, generalized_inverse(params))
        expected = Fraction(4, params.alpha)
        for i, i2 in itertools.combinations(range(x.v1), 2):
            for j, j2 in itertools.combinations(range(x.v2), 2):
                signed = [(i * x.v2 + j, 1), (i * x.v2 + j2, -1), (i2 * x.v2 + j, -1), (i2 * x.v2 + j2, 1)]
                assert sum(s * t * g[p, q] for p, s in signed for q, t in signed) == expected


def test_generalized_inverse_drops_zero_terms(x22, composed_b4, dense_ginv):
    # beta = 0 for the fixture, gamma = 0 for the composed design; the
    # corresponding projector must be annihilated by G
    a1 = np.eye(3) - np.ones((3, 3)) / 3
    b2 = np.ones((3, 3)) / 3
    g22 = dense_ginv(3, 3, generalized_inverse(check_sbbd(x22))).astype(float)
    assert np.allclose(g22 @ np.kron(a1, b2), 0)

    a2_4 = np.ones((4, 4)) / 4
    b1_3 = np.eye(3) - np.ones((3, 3)) / 3
    g47 = dense_ginv(4, 3, generalized_inverse(check_sbbd(composed_b4))).astype(float)
    assert np.allclose(g47 @ np.kron(a2_4, b1_3), 0)


def test_generalized_inverse_of_scaled_identity(dense_ginv):
    n = 5
    params = SbbdParameters(2, 2, 10, mu=n, lambda12=0, lambda21=0, lambda22=0)
    weights = generalized_inverse(params)
    assert weights == (Fraction(1, n),) * 4
    g = dense_ginv(2, 2, weights)
    expected = np.array(
        [[Fraction(1, n) if i == j else Fraction(0) for j in range(4)] for i in range(4)],
        dtype=object,
    )
    assert (g == expected).all()


def test_degenerate_design():
    # the Moore-Penrose inverse of the zero matrix is the zero matrix
    params = SbbdParameters(2, 2, 1, mu=0, lambda12=0, lambda21=0, lambda22=0)
    assert generalized_inverse(params) == (Fraction(0),) * 4


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.lists(st.integers(0, 4), min_size=4, max_size=4))
def test_weights_satisfy_moore_penrose(dense_ginv, expand_lambda, v1, v2, lam):
    # any integer Lambda, so every pattern of vanishing eigenvalues is reached
    params = SbbdParameters(v1, v2, 1, *lam)
    # the trace identity holds by algebra, so nothing checks it against Lambda
    assert sum(val * mult for val, mult in params.spectrum) == lam[0] * v1 * v2
    assert params.alpha == params.spectrum[0][0] == lam[0] - lam[1] - lam[2] + lam[3]
    g = dense_ginv(v1, v2, generalized_inverse(params))
    m = expand_lambda(v1, v2, lam).astype(object)
    mg, gm = m @ g, g @ m
    assert ((mg @ m) == m).all()
    assert ((gm @ g) == g).all()
    assert (mg == mg.T).all()
    assert (gm == gm.T).all()


def _degree_verdicts(rep):
    return rep.k1, rep.k2, rep.is_semi_regular, rep.is_regular


def test_report_degrees_fano(fano_composed):
    assert _degree_verdicts(a_optimality(fano_composed)) == (3, 3, True, True)


def test_report_degrees_b4(composed_b4):
    assert _degree_verdicts(a_optimality(composed_b4)) == (None, None, False, False)


def first_bare_point(x):
    """The first point a block leaves with no edge, as a witness, looping over
    blocks, then left points, then right points; None when x spans."""
    for k, mask in enumerate(x.masks.tolist()):
        for i, row in enumerate(mask):
            if not any(row):
                return {"block": k + 1, "left": i + 1}
        for j, col in enumerate(zip(*mask)):
            if not any(col):
                return {"block": k + 1, "right": j + 1}
    return None


def loop_degree_verdicts(x):
    """(k1, k2, semi-regular, regular) from every block's degrees, one point at a time."""
    masks = x.masks.tolist()
    left = {sum(row) for mask in masks for row in mask}
    right = {sum(col) for mask in masks for col in zip(*mask)}
    if len(left) == len(right) == 1:
        (k1,), (k2,) = left, right
        return k1, k2, True, k1 == k2
    return None, None, False, False


def relabellings(x):
    """Permutations of the rows, the panels, and the right points of every panel:
    each maps an SBBD to an SBBD with the same Lambda."""
    return st.tuples(
        st.just(x),
        st.permutations(range(x.n_rows)),
        st.permutations(range(x.v1)),
        st.permutations(range(x.v2)),
    )


def relabel(x, rows, left, right):
    return DesignMatrix(x.v1, x.v2, x.masks[np.ix_(rows, left, right)].reshape(x.n_rows, -1))


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 8)).flatmap(
        lambda t: hnp.arrays(np.uint8, (t[2], t[0] * t[1]), elements=st.integers(0, 1)).map(
            lambda m: DesignMatrix(t[0], t[1], m)
        )
    )
)
def test_is_spanning_matches_a_per_block_loop(x):
    assert is_spanning(x) == (first_bare_point(x) is None)


@functools.cache
def degree_case(name):
    """fano's composition (regular), the 3-subsets of 4 points twice with
    OD_1(8) (semi-regular, k1 = 3, k2 = 6), pairs3's composition (equal right
    degrees only) or the 9-block fixture (equal left degrees only)."""
    if name == "x22":
        return sbbd.matrix_from_csv((Path(__file__).parent / "fixtures" / "design_3_3_9.csv").read_bytes(), 3, 3)
    if name == "c4_3-twice":
        d = sbbd.verify_rl_design(4, [*itertools.combinations(range(1, 5), 3)] * 2)
        return sbbd.compose(d, sbbd.construct_od1(8))
    return composed(name)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["fano", "c4_3-twice", "pairs3", "x22"]).flatmap(
        lambda name: st.tuples(st.just(name), relabellings(degree_case(name)))
    )
)
def test_report_degrees_match_per_block_loops(case):
    name, relabelling = case
    x = relabel(*relabelling)
    expected = loop_degree_verdicts(x)
    assert expected[2] == (name in ("fano", "c4_3-twice"))
    assert _degree_verdicts(a_optimality(x)) == expected


@functools.cache
def fano_on_columns(cols):
    """fano composed with the columns cols of OD_1(7); s <= b - r = 4 need not span."""
    od = sbbd.construct_od1(7)
    return sbbd.compose(sbbd.catalog_by_id("fano"), sbbd.verify_od(od.rows[:, cols], n=7, s=len(cols)))


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.permutations(range(7)), st.integers(2, 4)).flatmap(
        lambda t: relabellings(fano_on_columns(tuple(t[0][: t[1]])))
    )
)
def test_export_masks_witness_is_the_first_bare_point(case):
    x = relabel(*case)
    witness = first_bare_point(x)
    if witness is None:
        assert export_masks(x) is x
        return
    with pytest.raises(SpanningViolation) as exc:
        export_masks(x)
    assert (exc.value.condition, exc.value.witness) == ("I", witness)


def test_a_optimality_fixture(x22):
    rep = a_optimality(x22)
    assert rep.a_criterion == Fraction(4, 3)
    assert rep.a_lower_bound is None
    assert not rep.is_semi_regular
    assert not rep.is_a_optimal_in_omega
    assert rep.is_spanning


def test_a_optimality_fano(fano_composed):
    rep = a_optimality(fano_composed)
    assert rep.a_criterion == Fraction(18, 7)
    assert rep.a_lower_bound == Fraction(18, 7)
    assert rep.is_regular and rep.is_a_optimal_in_omega
    assert (rep.k1, rep.k2) == (3, 3)


def test_contrasts_not_estimable_at_alpha_zero():
    x = DesignMatrix(2, 2, np.ones((2, 4), dtype=int))  # mu - l12 = l21 - l22
    with pytest.raises(ContrastsNotEstimable):
        a_optimality(x)


def test_sbbd_star_report(single_edge_blocks):
    rep = a_optimality(single_edge_blocks)
    assert rep.params.lam == (1, 0, 0, 0)
    assert not rep.is_spanning
    assert rep.params.alpha == 1
    assert not rep.is_a_optimal_in_omega


def _lemma_designs(case):
    """The designs of one case: a catalog id composed with OD_1(b), alone and
    with a two-layer cyclic extension, or fano composed with each of the 120
    column subsets (s >= 2) of OD_1(7)."""
    if case == "fano-od7-column-subsets":
        fano, od = sbbd.catalog_by_id("fano"), sbbd.construct_od1(7)
        for s in range(2, 8):
            for cols in itertools.combinations(range(7), s):
                yield sbbd.compose(fano, sbbd.verify_od(od.rows[:, cols], n=7, s=s))
        return
    d = sbbd.catalog_by_id(case)
    x = sbbd.compose(d, sbbd.construct_od1(d.b))
    yield x
    yield sbbd.permute_extension(x, [[(j + t) % x.v2 + 1 for j in range(x.v2)] for t in range(2)])


@pytest.mark.parametrize(
    "case, semi_regular",
    [
        ("pairs3", 0),
        ("fano", 2),
        ("qr11", 2),
        ("pg23", 2),
        ("qr19", 2),
        ("qr23", 2),
        ("qr31", 2),
        ("fano-od7-column-subsets", 1),  # only the full OD is semi-regular
    ],
)
def test_semi_regular_sbbds_attain_the_a_lower_bound(case, semi_regular):
    # the lemma behind the A-optimality theorem: an SBBD with semi-regular
    # blocks has beta = gamma = 0, so its A-criterion meets the lower bound;
    # no other design has a bound
    attained = 0
    for x in _lemma_designs(case):
        rep = a_optimality(x)
        (_, _), (beta, _), (gamma, _), _ = rep.params.spectrum
        if rep.is_semi_regular:
            assert beta == gamma == 0
            assert rep.a_criterion == rep.a_lower_bound
            attained += 1
        else:
            assert rep.a_lower_bound is None
    assert attained == semi_regular


def _contrast_trace_sides(x, alpha):
    """alpha (v1-1)(v2-1) and sum over blocks of k_b (1 - k_b / (v1 v2)), as Fractions."""
    vv, k = x.v1 * x.v2, x.matrix.sum(axis=1, dtype=np.int64)
    return Fraction(alpha * (x.v1 - 1) * (x.v2 - 1)), Fraction(int((k * (vv - k)).sum()), vv)


@pytest.mark.parametrize(
    "case", ["pairs3", "fano", "qr11", "pg23", "qr19", "qr23", "qr31", "fano-od7-first-columns"]
)
def test_contrast_trace_is_bounded_by_block_sizes(case):
    # the contrast projection C X^T X C^T of an SBBD is alpha I, so its trace is
    # alpha (v1-1)(v2-1); block b adds k_b - sum_i r_i^2 / v2 - sum_j c_j^2 / v1
    # + k_b^2 / (v1 v2) for its degrees r and c, at most k_b (1 - k_b / (v1 v2)),
    # with equality iff its degrees are constant on each side (Cauchy-Schwarz)
    if case == "fano-od7-first-columns":
        designs = [fano_on_columns(tuple(range(s))) for s in (4, 5, 6)]
    else:
        designs = list(_lemma_designs(case))
    sides = []
    for x in designs:
        rep = a_optimality(x)
        lhs, rhs = _contrast_trace_sides(x, rep.params.alpha)
        assert lhs <= rhs
        assert (lhs == rhs) == rep.is_semi_regular
        sides.append((lhs, rhs))
    if case == "fano-od7-first-columns":
        # each ratio is the design's A-efficiency: 0.875, 0.933 and 0.972
        assert sides == [(252, 288), (336, 360), (420, 432)]


def test_analyzer_requires_two_by_two():
    x = DesignMatrix(1, 4, np.ones((2, 4), dtype=int))
    with pytest.raises(DimensionError):
        check_sbbd(x)


def reference_scan(x):
    """Panel-by-panel brute force of conditions (II)-(V).

    Walks the panel pairs (i, j) in row-major order and, within a pair, the
    diagonal before the off-diagonal, each in row-major order.  Returns
    ("ok", Lambda) or (condition, witness, message) for the first mismatch.
    """
    panels = [x.masks[:, i].astype(np.int64) for i in range(x.v1)]
    own, cross = panels[0].T @ panels[0], panels[0].T @ panels[1]
    lam = (int(own[0, 0]), int(own[0, 1]), int(cross[0, 0]), int(cross[0, 1]))
    names = ("mu", "lambda12", "lambda21", "lambda22")
    for i in range(x.v1):
        for j in range(x.v1):
            prod = panels[i].T @ panels[j]
            cells = [(a, a) for a in range(x.v2)]
            cells += [(a, b) for a in range(x.v2) for b in range(x.v2) if a != b]
            for a, b in cells:
                k = 2 * (i != j) + (a != b)
                if prod[a, b] == lam[k]:
                    continue
                pos = (a + 1, b + 1)
                witness = {"panel": i + 1} if i == j else {"panels": (i + 1, j + 1)}
                witness["position"] = pos
                name, want = f"X_{i + 1}^T X_{j + 1}", f"{names[k]} = {lam[k]}"
                if a == b:
                    message = f"diagonal of {name} is {prod[a, b]} at {a + 1}, expected {want}"
                else:
                    message = f"off-diagonal of {name} at {pos} is {prod[a, b]}, expected {want}"
                return ("II", "III", "IV", "V")[k], witness, message
    return "ok", lam


def assert_matches_reference(x):
    expected = reference_scan(x)
    if expected[0] == "ok":
        assert check_sbbd(x).lam == expected[1]
        return
    with pytest.raises(ConditionViolation) as exc:
        check_sbbd(x)
    condition, witness, message = expected
    assert (exc.value.condition, exc.value.witness) == (condition, witness)
    assert str(exc.value) == f"condition ({condition}) violated: {message}"
    with pytest.raises(ConditionViolation) as again:
        a_optimality(x)
    assert (again.value.condition, again.value.witness) == (condition, witness)


def test_every_single_bit_flip_matches_reference(x22):
    for row in range(x22.n_rows):
        for col in range(x22.matrix.shape[1]):
            m = x22.matrix.copy()
            m[row, col] ^= 1
            assert_matches_reference(DesignMatrix(3, 3, m))


@functools.cache
def composed(name):
    """The catalog design `name` composed with OD_1(b)."""
    d = sbbd.catalog_by_id(name)
    return sbbd.compose(d, sbbd.construct_od1(d.b))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["pairs3", "fano", "pg23"]).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.integers(0, composed(name).n_rows - 1),
            st.integers(0, composed(name).matrix.shape[1] - 1),
        )
    )
)
def test_single_bit_flip_of_a_composed_design_is_a_violation(case):
    name, row, col = case
    x = composed(name)
    m = x.matrix.copy()
    m[row, col] ^= 1
    flipped = DesignMatrix(x.v1, x.v2, m)
    assert reference_scan(flipped)[0] != "ok"
    assert_matches_reference(flipped)


def test_multi_bit_flips_match_reference(fano_composed):
    x = fano_composed
    rng = np.random.default_rng(20230831)
    for _ in range(60):
        m = x.matrix.copy()
        rows = rng.integers(0, x.n_rows, size=rng.integers(2, 6))
        cols = rng.integers(0, m.shape[1], size=rows.size)
        np.bitwise_xor.at(m, (rows, cols), 1)
        assert_matches_reference(DesignMatrix(7, 7, m))


def test_unperturbed_designs_match_reference(x22, composed_b4, fano_composed):
    for x in (x22, composed_b4, fano_composed):
        assert_matches_reference(x)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(1, 12)).flatmap(
        lambda t: st.tuples(
            st.just(t), hnp.arrays(np.int64, (t[2], t[0] * t[1]), elements=st.integers(0, 1))
        )
    )
)
def test_gram_equals_int64_reference(expand_lambda, case):
    # the float64 Gram step against the int64 reference m.T @ m: the trace,
    # Lambda expanded back to the whole Gram, or the first witness
    (v1, v2, _), m = case
    x = DesignMatrix(v1, v2, m)
    gram = m.T @ m
    expected = reference_scan(x)
    if expected[0] != "ok":
        for fn in (check_sbbd, a_optimality):
            with pytest.raises(ConditionViolation) as exc:
                fn(x)
            assert (exc.value.condition, exc.value.witness) == expected[:2]
            assert str(exc.value) == f"condition ({expected[0]}) violated: {expected[2]}"
        return
    params = check_sbbd(x)
    assert params.mu * v1 * v2 == int(np.trace(gram)) == np.count_nonzero(m)
    assert all(type(v) is int for v in vars(params).values())  # Lambda as ints, no array
    dense = expand_lambda(v1, v2, params.lam)
    assert dense.dtype == np.int64
    assert np.array_equal(dense, gram)


def test_dense_expands_lambda_to_the_gram(
    x22, composed_b4, fano_composed, single_edge_blocks, expand_lambda
):
    for x in (x22, composed_b4, fano_composed, single_edge_blocks):
        dense = expand_lambda(x.v1, x.v2, check_sbbd(x).lam)
        assert dense.dtype == np.int64
        assert np.array_equal(dense, x.matrix.astype(np.int64).T @ x.matrix.astype(np.int64))


def test_zero_row_design_is_rejected():
    # the constructor refuses it, so check_sbbd and a_optimality never see one
    for fn in (check_sbbd, a_optimality):
        with pytest.raises(DimensionError, match="at least one block"):
            fn(DesignMatrix(2, 2, np.zeros((0, 4))))


def test_check_sbbd_trace_mismatch_raises_under_optimize():
    # python -O strips assert statements; the trace check must survive it.
    # A real fano design, with one of its ones hidden from the count that
    # check_sbbd takes apart from the Gram
    code = (
        "import sbbd, sbbd.analyzer\n"
        "x = sbbd.compose(sbbd.catalog_by_id('fano'), sbbd.construct_od1(7))\n"
        "count = sbbd.analyzer.np.count_nonzero\n"
        "sbbd.analyzer.np.count_nonzero = lambda a: count(a) - 1\n"
        "try:\n"
        "    sbbd.check_sbbd(x)\n"
        "except sbbd.TraceMismatch as exc:\n"
        "    print('TraceMismatch:', exc)\n"
    )
    src = Path(sbbd.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "TraceMismatch: X has 881 ones, but mu v1 v2 = 882\n"


def test_trace_mismatch_is_a_violation(monkeypatch, fano_composed):
    count = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda a: count(a) - 1)
    with pytest.raises(sbbd.TraceMismatch) as exc:
        check_sbbd(fano_composed)
    assert isinstance(exc.value, sbbd.Violation)
    assert (exc.value.condition, exc.value.witness) == ("trace", {"ones": 881, "expected": 882})
