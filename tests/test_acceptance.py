"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own reporting.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import sbbd
from sbbd import (
    ConditionViolation,
    DesignMatrix,
    a_optimality,
    catalog_by_id,
    check_sbbd,
    compose,
    construct_od1,
    export_masks,
    generalized_inverse,
    is_spanning,
    permute_extension,
    random_effects,
    simulate,
    verify_od,
)
from sbbd.cli import _analyze_payload

PRIME_POWERS_13 = [2, 3, 4, 5, 7, 8, 9, 11, 13]


def ok(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}", flush=True)


def test_criterion_01_lambda_reproduction(x22):
    start = time.perf_counter()
    params = check_sbbd(x22)
    spanning = is_spanning(x22)
    elapsed = time.perf_counter() - start
    assert params.lam == (6, 3, 4, 4)
    assert spanning is True
    assert elapsed < 1.0
    ok(1, f"Lambda = (6,3,4,4), spanning = true in {elapsed:.3f}s")


def test_criterion_02_spectrum(x22):
    values, mults = zip(*check_sbbd(x22).spectrum)
    assert values == (3, 0, 3, 36)
    assert mults == (4, 2, 2, 1)
    merged = [(int(e["value"]), e["mult"]) for e in _analyze_payload(x22)["spectrum"]]
    assert merged == [(36, 1), (3, 6), (0, 2)]
    ok(2, "eigenvalues {36 x1, 3 x6, 0 x2}, (a,b,g,d) = (3,0,3,36), mults (4,2,2,1)")


def test_criterion_03_composed_design(rl4):
    x = compose(rl4, construct_od1(4))
    assert (x.v1, x.v2, x.n_rows) == (4, 3, 12)
    params = check_sbbd(x)
    assert params.lam == (9, 6, 6, 7)
    assert is_spanning(x)
    # every diagonal and off-diagonal panel product matches the target blocks
    diag = np.array([[9, 6, 6], [6, 9, 6], [6, 6, 9]])
    off = np.array([[6, 7, 7], [7, 6, 7], [7, 7, 6]])
    for i in range(1, 5):
        for j in range(1, 5):
            prod = x.masks[:, i - 1].astype(np.int64).T @ x.masks[:, j - 1].astype(np.int64)
            assert np.array_equal(prod, diag if i == j else off)
    ok(3, "SBBD(4,3,12) with Lambda = (9,6,6,7) and exact information blocks")


def test_criterion_04_composition_formula_suite(rl4):
    start = time.perf_counter()
    designs = {
        4: rl4,
        7: catalog_by_id("fano"),
        11: catalog_by_id("qr11"),
        13: catalog_by_id("pg23"),
    }
    for q, d in designs.items():
        assert d.b == q
        od = construct_od1(q)
        measured = check_sbbd(compose(d, od))  # exhaustive panel scan
        eta, b, r, lam = od.eta, d.b, d.r, d.lam
        formula = (
            eta * r * (b - 1),
            eta * lam * (b - 1),
            eta * r * (r - 1),
            eta * (r * r - lam),
        )
        assert measured.lam == formula
        assert measured.n_rows == eta * (b * b - b)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(4, f"measured Lambda equals the closed formula for b in (4,7,11,13), {elapsed:.2f}s")


def test_criterion_05_ordered_design_oracle():
    for q in PRIME_POWERS_13:
        od = construct_od1(q)
        assert od.n_rows == q * q - q
        again = verify_od(od.rows, n=q, s=q)  # exhaustive pair counting
        assert again.eta == 1
    ok(5, f"construct_od1(q) verifies with eta = 1 for q in {PRIME_POWERS_13}")


def test_criterion_06_fano_a_optimality(fano_composed):
    rep = a_optimality(fano_composed)
    assert rep.is_regular and rep.is_semi_regular
    assert (rep.k1, rep.k2) == (3, 3)
    assert rep.params.alpha == 14
    assert rep.a_criterion == Fraction(18, 7)
    assert rep.a_lower_bound == Fraction(18, 7)
    assert rep.is_a_optimal_in_omega
    ok(6, "regular SBBD(7,7,42), alpha = 14, A-criterion = 18/7 = bound, optimal")


def test_criterion_07_generalized_inverse_identities(x22, composed_b4, dense_ginv):
    for name, x in (("(3,3,9)", x22), ("(4,3,12)", composed_b4)):
        g = dense_ginv(x.v1, x.v2, generalized_inverse(check_sbbd(x)))
        xm = x.matrix.astype(np.int64)
        m = (xm.T @ xm).astype(object)
        assert ((m @ g @ m) == m).all(), name
        assert ((g @ m @ g) == g).all(), name
    ok(7, "M G M = M and G M G = G exactly in rationals for both designs")


def test_criterion_08_permutation_extension(composed_b4):
    x = composed_b4
    m = x.matrix.astype(np.int64)
    base_info = m.T @ m
    rng = np.random.default_rng(20240)
    for _ in range(10):
        perm = (rng.permutation(x.v2) + 1).tolist()
        mp = permute_extension(x, [perm]).matrix.astype(np.int64)
        assert np.array_equal(mp.T @ mp, base_info)
    base = check_sbbd(x).lam
    for u in (2, 3):
        shifts = [[(j + t) % x.v2 + 1 for j in range(x.v2)] for t in range(u)]  # t = 0 is the identity
        stacked = permute_extension(x, shifts)
        assert stacked.n_rows == u * x.n_rows
        assert check_sbbd(stacked).lam == tuple(u * t for t in base)
    ok(8, "X^(P) info matrix invariant for 10 perms; Lambda scales by u in (2,3)")


def test_criterion_09_statistical_validation(x22, fano_composed):
    start = time.perf_counter()
    # noiseless recovery
    tau22 = random_effects(3, 3, seed=101)
    noiseless = simulate(x22, tau22, sigma=0.0, runs=2, seed=101)
    assert np.abs(noiseless.empirical_mean - noiseless.true_contrasts).max() <= 1e-9

    # sigma = 1, 1e5 runs on the 9-block design: variances within 5% of 1/3
    rep22 = simulate(x22, tau22, sigma=1.0, runs=100_000, seed=202)
    assert rep22.predicted_variance == pytest.approx(1 / 3)
    rel22 = np.abs(rep22.empirical_variance - 1 / 3) / (1 / 3)
    assert rel22.max() < 0.05

    # the regular SBBD(7,7,42): 36 variances within 5% of 1/14, and of each other
    tau_f = random_effects(7, 7, seed=303)
    rep_f = simulate(fano_composed, tau_f, sigma=1.0, runs=100_000, seed=404)
    assert rep_f.predicted_variance == pytest.approx(1 / 14)
    var = rep_f.empirical_variance
    assert var.shape == (36,)
    rel_f = np.abs(var - 1 / 14) / (1 / 14)
    assert rel_f.max() < 0.05
    assert var.max() / var.min() - 1.0 < 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    ok(
        9,
        f"noiseless exact; variance balance within 5% at 1e5 runs"
        f" (max rel dev {rel22.max():.3%} / {rel_f.max():.3%}), {elapsed:.1f}s",
    )


def test_criterion_10_perturbation_sensitivity(x22):
    rng = np.random.default_rng(55)
    hits = 0
    for _ in range(100):
        m = x22.matrix.copy()
        row = int(rng.integers(0, m.shape[0]))
        col = int(rng.integers(0, m.shape[1]))
        m[row, col] ^= 1
        with pytest.raises(ConditionViolation):
            check_sbbd(DesignMatrix(3, 3, m))
        hits += 1
    assert hits == 100
    ok(10, "all 100 random single-bit flips reported a condition violation")


def test_criterion_11_mask_export(x22):
    schedule = export_masks(x22)
    assert schedule.masks.shape == (9, 3, 3)
    assert (schedule.masks.sum(axis=2) > 0).all()  # no zero mask row
    assert (schedule.masks.sum(axis=1) > 0).all()  # no zero mask column
    assert (schedule.masks.sum(axis=0) == 6).all()  # edge-wise sum 6*J
    ok(11, "masks span both layers and stack to 6*J exactly")
