import time
import tracemalloc
import warnings

import numpy as np
import pytest

import sbbd
from sbbd import estimator
from sbbd import (
    ConditionViolation,
    ContrastsNotEstimable,
    DesignMatrix,
    DimensionError,
    EffectVector,
    FormatError,
    random_effects,
    simulate,
)


def elementary_contrasts(v1, v2):
    vecs = []
    for i in range(v1):
        for j in range(i + 1, v1):
            e1 = np.zeros(v1)
            e1[i], e1[j] = 1.0, -1.0
            for k in range(v2):
                for l in range(k + 1, v2):
                    e2 = np.zeros(v2)
                    e2[k], e2[l] = 1.0, -1.0
                    vecs.append(np.kron(e1, e2))
    return vecs


def test_contrast_basis_two_by_two(contrast_basis):
    basis = contrast_basis(2, 2)
    assert basis.shape == (1, 4)
    expected = 0.5 * np.array([1.0, -1.0, -1.0, 1.0])
    assert np.allclose(basis[0], expected) or np.allclose(basis[0], -expected)


def test_contrast_basis_orthonormal(contrast_basis):
    for v1, v2 in [(2, 2), (3, 3), (4, 3), (5, 2)]:
        basis = contrast_basis(v1, v2)
        assert basis.shape == ((v1 - 1) * (v2 - 1), v1 * v2)
        gram = basis @ basis.T
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-12
        assert np.abs(basis @ np.ones(v1 * v2)).max() < 1e-12


def test_random_effects_zero_sums():
    tau = random_effects(4, 5, seed=99)
    table = tau.tau.reshape(4, 5)
    assert np.abs(table.sum(axis=0)).max() < 1e-12
    assert np.abs(table.sum(axis=1)).max() < 1e-12


def test_random_effects_two_by_two_shape():
    tau = random_effects(2, 2, seed=1)
    t = tau.tau
    assert np.allclose(t, [t[0], -t[0], -t[0], t[0]])


# an int beyond float64, a string, a bool and a complex are not float64 numbers at all
NOT_FLOAT64 = [
    pytest.param(10**400, id="10^400"),
    pytest.param(-(10**400), id="-10^400"),
    pytest.param("1", id="str"),
    pytest.param(True, id="bool"),
    pytest.param(1 + 0j, id="complex"),
]


def test_random_effects_deterministic():
    a = random_effects(3, 3, seed=12345)
    b = random_effects(3, 3, seed=12345)
    assert a.tau.tobytes() == b.tau.tobytes()


def test_non_integer_dimensions_are_dimension_errors():
    with pytest.raises(DimensionError, match="integers"):
        random_effects(3.0, 3)
    with pytest.raises(DimensionError, match="integers"):
        EffectVector(3.0, 3, np.zeros(9))
    assert random_effects(np.int64(3), 3).tau.shape == (9,)


def test_effect_vector_validation():
    with pytest.raises(DimensionError):
        EffectVector(2, 2, np.array([1.0, -1.0, -1.0]))
    with pytest.raises(DimensionError):
        EffectVector(2, 2, np.array([1.0, 1.0, -1.0, -1.0]))
    for value in (10**400, -(10**400)):
        with pytest.raises(DimensionError, match="too large for float64"):
            EffectVector(2, 2, [value, 0, 0, 0])


@pytest.mark.parametrize(
    "tau",
    [["a", 0, 0, 0], ["1", "-1", "-1", "1"], [1j, 0, 0, 0], np.array([1j, -1j, -1j, 1j]), [[1, -1], [-1]]],
    ids=["str", "numeric-str", "complex", "complex-array", "ragged"],
)
def test_effect_vector_entries_that_are_not_real_numbers_are_format_errors(tau):
    with pytest.raises(FormatError, match="real numbers"):
        EffectVector(2, 2, tau)


def test_random_effects_beyond_numpy_indexing_is_a_dimension_error():
    with pytest.raises(DimensionError, match="largest array"):
        random_effects(10**30, 2)


def test_noiseless_recovery(x22):
    tau = random_effects(3, 3, seed=5)
    for runs in (2, 10**6):
        report = simulate(x22, tau, sigma=0.0, runs=runs, seed=5)
        assert np.abs(report.empirical_mean - report.true_contrasts).max() <= 1e-9
        assert not report.empirical_variance.any()  # sigma = 0 scales the scatter to exactly 0


def test_noiseless_elementary_contrasts(x22, contrast_basis):
    # an elementary contrast c lies in the span of the orthonormal basic
    # contrasts C, so c^T tau_hat = (C c)^T (C tau_hat), the report's mean
    tau = random_effects(3, 3, seed=8)
    basis = contrast_basis(3, 3)
    report = simulate(x22, tau, sigma=0.0, runs=2, seed=8)
    for c in elementary_contrasts(3, 3):
        assert abs((basis @ c) @ report.empirical_mean - c @ tau.tau) <= 1e-9


def test_simulation_deterministic(x22):
    tau = random_effects(3, 3, seed=2)
    r1 = simulate(x22, tau, sigma=1.0, runs=500, seed=77)
    r2 = simulate(x22, tau, sigma=1.0, runs=500, seed=77)
    assert r1.empirical_mean.tobytes() == r2.empirical_mean.tobytes()
    assert r1.empirical_variance.tobytes() == r2.empirical_variance.tobytes()


def test_sigma_scaling_is_exact_for_shared_seed(x22):
    # identical draws, and a factor 2 is exact in float64, so the variance is exactly 4 times
    tau = random_effects(3, 3, seed=2)
    for sigma in (1.0, 0.3):
        r1 = simulate(x22, tau, sigma=sigma, runs=2000, seed=3)
        r2 = simulate(x22, tau, sigma=2 * sigma, runs=2000, seed=3)
        assert r2.empirical_variance.tobytes() == (4 * r1.empirical_variance).tobytes()


def test_variance_close_to_prediction(x22):
    tau = random_effects(3, 3, seed=4)
    report = simulate(x22, tau, sigma=1.0, runs=20000, seed=123)
    assert report.predicted_variance == pytest.approx(1 / 3)
    assert report.max_relative_deviation < 0.05
    # unbiasedness: means within 3 standard errors of the truth
    sem = np.sqrt(report.predicted_variance / report.runs)
    assert np.abs(report.empirical_mean - report.true_contrasts).max() < 3 * sem


def test_contrast_index_layout(composed_b4):
    tau = random_effects(4, 3, seed=6)
    report = simulate(composed_b4, tau, sigma=0.0, runs=2, seed=6)
    assert report.contrast_index == [
        (i, j) for i in range(1, 4) for j in range(1, 3)
    ]
    assert report.alpha == 4


def test_simulate_rejects_alpha_zero():
    x = DesignMatrix(2, 2, np.ones((2, 4), dtype=int))
    tau = random_effects(2, 2, seed=1)
    with pytest.raises(ContrastsNotEstimable):
        simulate(x, tau, sigma=1.0, runs=10, seed=1)


def test_simulate_raises_the_first_witness(fano_composed):
    m = fano_composed.matrix.copy()
    m[0, 3] ^= 1  # one more block on edge (1, 4): diag of X_1^T X_1 is off at 4
    x = DesignMatrix(7, 7, m)
    tau = random_effects(7, 7, seed=1)
    with pytest.raises(ConditionViolation) as exc:
        simulate(x, tau, sigma=1.0, runs=100)
    assert (exc.value.condition, exc.value.witness) == ("II", {"panel": 1, "position": (4, 4)})
    assert str(exc.value) == (
        "condition (II) violated: diagonal of X_1^T X_1 is 19 at 4, expected mu = 18"
    )


def test_simulate_dimension_checks(x22):
    tau = random_effects(2, 2, seed=1)
    with pytest.raises(DimensionError):
        simulate(x22, tau, sigma=1.0, runs=10, seed=1)
    with pytest.raises(DimensionError):
        simulate(x22, random_effects(3, 3, seed=1), sigma=1.0, runs=1, seed=1)


@pytest.mark.parametrize("runs", [10.5, np.float64(100), 300.0, True, "300", None])
def test_simulate_runs_must_be_an_integer(x22, runs):
    tau = random_effects(3, 3, seed=1)
    with pytest.raises(DimensionError, match="integer runs"):
        simulate(x22, tau, sigma=1.0, runs=runs, seed=1)


@pytest.mark.parametrize("runs", [1, 0, -5, 2**53 + 1, 10**30, np.uint64(2**64 - 1)])
def test_simulate_runs_outside_two_to_two_pow_53_are_rejected(x22, runs):
    tau = random_effects(3, 3, seed=1)
    with pytest.raises(DimensionError, match=r"integer runs in \[2, 2\^53\]"):
        simulate(x22, tau, sigma=1.0, runs=runs, seed=1)


def test_largest_runs_returns_promptly(fano_composed):
    # the work is bounded by min(runs - 1, N) rows of the scatter factor
    tau = random_effects(7, 7, seed=1)
    start = time.perf_counter()
    report = simulate(fano_composed, tau, sigma=1.0, runs=2**53, seed=1)
    assert time.perf_counter() - start < 5.0
    assert report.runs == 2**53
    assert report.max_relative_deviation < 1e-6  # the variance's relative error is about sqrt(2 / runs)


def test_simulate_takes_numpy_integer_runs(x22):
    tau = random_effects(3, 3, seed=1)
    report = simulate(x22, tau, sigma=1.0, runs=np.int64(300), seed=1)
    expected = simulate(x22, tau, sigma=1.0, runs=300, seed=1)
    assert report.runs == 300
    assert report.empirical_variance.tobytes() == expected.empirical_variance.tobytes()


def test_simulate_on_non_spanning_star(single_edge_blocks):
    # SBBD* with alpha = 1: estimable, so simulation must run
    tau = random_effects(2, 2, seed=9)
    report = simulate(single_edge_blocks, tau, sigma=0.0, runs=2, seed=9)
    assert np.abs(report.empirical_mean - report.true_contrasts).max() <= 1e-9


def _report_bytes(report):
    return b"".join(
        np.asarray(getattr(report, name)).tobytes()
        for name in ("true_contrasts", "empirical_mean", "empirical_variance", "max_relative_deviation")
    )


def _ks_pvalue(a, b):
    """Asymptotic two-sample Kolmogorov-Smirnov p-value, with Stephens' small-sample correction."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    d = np.abs(np.searchsorted(a, both, side="right") / a.size - np.searchsorted(b, both, side="right") / b.size).max()
    ne = a.size * b.size / (a.size + b.size)
    lam = (np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * d
    if lam < 0.3:  # the p-value rounds to 1 here, where the series below converges slowly
        return 1.0
    k = np.arange(1, 101)
    return float(min(1.0, 2 * np.sum((-1.0) ** (k - 1) * np.exp(-2 * k * k * lam * lam))))


def _documented_report(x, tau, sigma, runs, seed, w):
    """simulate's (mean, variance), rebuilt from its documented draws and projected through a dense w."""
    n, tile = x.n_rows, estimator._TILE
    bits = np.random.Generator(np.random.Philox(key=seed))
    g = bits.standard_normal(n)
    m = min(runs - 1, n)
    chi2 = bits.chisquare(runs - 1 - np.arange(m))
    draws = np.vstack([bits.standard_normal((tile, n)) for _ in range(-(-m // tile))])
    z = np.triu(draws[:m], 1)
    z[np.arange(m), np.arange(m)] = np.sqrt(chi2)
    signal = x.matrix.astype(float) @ tau.tau
    mean = (signal + sigma * g / np.sqrt(runs)) @ w.T
    variance = sigma**2 * ((z @ w.T) ** 2).sum(axis=0) / (runs - 1)
    return mean, variance


def _check_report_against_documented_stream(x, tau, sigma, runs, seed, contrast_basis):
    report = simulate(x, tau, sigma=sigma, runs=runs, seed=seed)
    assert _report_bytes(report) == _report_bytes(simulate(x, tau, sigma=sigma, runs=runs, seed=seed))
    alpha = sbbd.check_sbbd(x).alpha
    w = contrast_basis(x.v1, x.v2) @ x.matrix.T.astype(float) / alpha
    mean, variance = _documented_report(x, tau, sigma, runs, seed, w)
    assert np.abs(report.empirical_mean - mean).max() < 1e-12
    assert np.abs(report.empirical_variance - variance).max() < 1e-12


def test_report_is_the_dense_projection_of_the_documented_stream(fano_composed, contrast_basis):
    # N = 42: m = runs - 1 below N - 1, m = N - 1, m = N, and m = N with runs far above N
    tau = random_effects(7, 7, seed=31)
    for runs in (2, 37, 42, 43, 5000):
        _check_report_against_documented_stream(fano_composed, tau, 1.0, runs, 17, contrast_basis)


def test_one_contrast_report_is_the_dense_projection_of_the_documented_stream(
    single_edge_blocks, contrast_basis
):
    # a 2 x 2 design has a single contrast, so every tile sum runs over one column
    tau = random_effects(2, 2, seed=5)
    for runs in (2, 4, 5, 3001):
        _check_report_against_documented_stream(single_edge_blocks, tau, 1.0, runs, 9, contrast_basis)


def test_noise_rows_are_rows_of_the_tile_draws(contrast_basis):
    # N = 342 > _TILE: row i of the scatter factor Z comes from row i % _TILE of
    # tile i // _TILE, with a partial second tile (m = 299) and a full factor (m = N)
    x = sbbd.compose(sbbd.catalog_by_id("qr19"), sbbd.construct_od1(19))
    assert x.n_rows > estimator._TILE
    tau = random_effects(19, 19, seed=4)
    for runs in (300, 1000):
        _check_report_against_documented_stream(x, tau, 0.5, runs, 606, contrast_basis)


def test_padded_rows_of_the_last_tile_never_enter_the_report(fano_composed, contrast_basis):
    # the one tile holds m = 19 and m = N = 42 rows of Z; the reference uses no other row
    tau = random_effects(7, 7, seed=12)
    for runs in (20, estimator._TILE + 37):
        _check_report_against_documented_stream(fano_composed, tau, 1.5, runs, 44, contrast_basis)


def test_simulate_has_the_law_of_the_per_run_replay(composed_b4, contrast_basis):
    # N = 12: runs 3, 12 and 40 give m = 2 < N - 1, m = N - 1 and m = N.  Each
    # contrast's empirical mean and variance over 1500 seeds is compared with
    # that of 1500 replays that draw every run, in 36 tests at level 1e-4
    x = composed_b4
    tau = random_effects(4, 3, seed=6)
    alpha = sbbd.check_sbbd(x).alpha
    w = contrast_basis(4, 3) @ x.matrix.T.astype(float) / alpha
    signal = x.matrix.astype(float) @ tau.tau
    replay = np.random.default_rng(20231)
    seeds = 1500
    for runs in (3, 12, 40):
        reports = [simulate(x, tau, sigma=1.0, runs=runs, seed=seed) for seed in range(seeds)]
        means = np.array([r.empirical_mean for r in reports])
        variances = np.array([r.empirical_variance for r in reports])
        estimates = (signal + replay.standard_normal((seeds, runs, x.n_rows))) @ w.T
        replay_means, replay_variances = estimates.mean(axis=1), estimates.var(axis=1, ddof=1)
        for c in range(w.shape[0]):
            assert _ks_pvalue(means[:, c], replay_means[:, c]) > 1e-4, (runs, c, "mean")
            assert _ks_pvalue(variances[:, c], replay_variances[:, c]) > 1e-4, (runs, c, "variance")


def test_projection_matches_generalized_inverse(
    x22, composed_b4, fano_composed, single_edge_blocks, dense_ginv, contrast_basis
):
    pg23 = sbbd.compose(sbbd.catalog_by_id("pg23"), sbbd.construct_od1(13))  # 13 x 13, 156 blocks
    for x in (x22, composed_b4, fano_composed, single_edge_blocks, pg23):
        params = sbbd.check_sbbd(x)
        alpha = params.alpha
        c = contrast_basis(x.v1, x.v2)
        xt = x.matrix.T.astype(float)
        g = dense_ginv(x.v1, x.v2, sbbd.generalized_inverse(params)).astype(float)
        with_g = c @ g @ xt
        assert np.abs(c @ xt / alpha - with_g).max() < 1e-12

        # the report equals the one projected through G
        tau = random_effects(x.v1, x.v2, seed=3)
        report = simulate(x, tau, sigma=1.0, runs=50, seed=8)
        mean, variance = _documented_report(x, tau, 1.0, 50, 8, with_g)
        assert np.abs(report.empirical_mean - mean).max() < 1e-12
        assert np.abs(report.empirical_variance - variance).max() < 1e-12


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "7", True])
def test_seed_outside_philox_key_range_is_rejected(x22, seed):
    with pytest.raises(DimensionError, match="seed"):
        simulate(x22, random_effects(3, 3, seed=1), sigma=1.0, runs=10, seed=seed)
    with pytest.raises(DimensionError, match="seed"):
        random_effects(3, 3, seed=seed)


def test_largest_seed_is_accepted(x22):
    report = simulate(x22, random_effects(3, 3, seed=2**128 - 1), sigma=1.0, runs=10, seed=2**128 - 1)
    assert np.isfinite(report.empirical_variance).all()


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0, -1e-300, *NOT_FLOAT64])
def test_bad_sigma_is_rejected(x22, sigma):
    with pytest.raises(DimensionError, match="sigma"):
        simulate(x22, random_effects(3, 3, seed=1), sigma=sigma, runs=10, seed=1)


def test_int_and_numpy_sigma_are_floats(x22):
    tau = random_effects(3, 3, seed=4)
    report = simulate(x22, tau, sigma=2, runs=10, seed=1)
    assert type(report.sigma) is float and report.sigma == 2.0
    assert _report_bytes(report) == _report_bytes(simulate(x22, tau, sigma=np.float32(2), runs=10, seed=1))
    assert str(simulate(x22, tau, sigma=-0.0, runs=10, seed=1).sigma) == "0.0"


# 10**200 is an int whose square, as an int, is too large to divide into a float
@pytest.mark.parametrize(
    "sigma, big",
    [(1e200, 0.0), (1.5e154, 0.0), (0.0, 1e308), pytest.param(10**200, 0.0, id="int-10^200-0.0")],
)
def test_report_that_overflows_is_a_dimension_error(x22, sigma, big):
    # huge noise, or tau whose signal X tau overflows, leaves no finite report
    table = np.zeros((3, 3))
    table[:2, :2] = [[big, -big], [-big, big]]
    tau = EffectVector(3, 3, table.ravel()) if big else random_effects(3, 3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="overflows float64"):
            simulate(x22, tau, sigma=sigma, runs=10, seed=1)


def test_zero_sum_tolerance_scales_with_tau():
    unit = random_effects(30, 30, seed=4).tau
    for scale in (1e-9, 1.0, 1e6, 1e15):
        tau = EffectVector(30, 30, scale * unit)
        table = tau.tau.reshape(30, 30)
        assert np.abs(table).max() > scale / 10
        # a genuine violation, small against the entries, is still rejected
        bad = tau.tau.copy()
        bad[0] += 1e-9 * scale
        with pytest.raises(DimensionError, match="zero-sum"):
            EffectVector(30, 30, bad)


def test_effect_vector_rejects_non_finite():
    for value in (np.nan, np.inf):
        with pytest.raises(DimensionError, match="non-finite"):
            EffectVector(2, 2, np.array([value, -value, -value, value]))


def test_contrast_basis_equals_row_by_row_kron(contrast_basis):
    for v1, v2 in [(2, 2), (2, 5), (3, 3), (4, 7), (9, 4), (13, 13)]:
        p, q = estimator._helmert(v1), estimator._helmert(v2)
        rows = [np.kron(p[i], q[j]) for i in range(v1 - 1) for j in range(v2 - 1)]
        basis = contrast_basis(v1, v2)
        assert basis.shape == ((v1 - 1) * (v2 - 1), v1 * v2)
        assert basis.tobytes() == np.vstack(rows).tobytes()


def test_simulate_peak_memory_stays_near_two_w_sized_arrays(monkeypatch):
    # W^T is N (v1-1)(v2-1) float64 and is filled in 2 MiB row slabs of X; each
    # tile adds a (_TILE, N) draw and a (_TILE, C) product.  The design check's
    # float Gram is the analyzer's peak, so its result is taken as given here
    x = sbbd.compose(sbbd.catalog_by_id("qr31"), sbbd.construct_od1(31))  # 930 x 961
    tau = random_effects(31, 31, seed=1)
    checked = estimator._estimable(x)
    monkeypatch.setattr(estimator, "_estimable", lambda _: checked)
    w_bytes = x.n_rows * 30 * 30 * 8
    for runs in (2, 1000):
        tracemalloc.start()
        try:
            simulate(x, tau, sigma=1.0, runs=runs, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * w_bytes, peak / w_bytes
