import tracemalloc

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
    contrast_basis,
    estimate_effects,
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


def test_contrast_basis_two_by_two():
    basis = contrast_basis(2, 2)
    assert basis.shape == (1, 4)
    expected = 0.5 * np.array([1.0, -1.0, -1.0, 1.0])
    assert np.allclose(basis[0], expected) or np.allclose(basis[0], -expected)


def test_contrast_basis_orthonormal():
    for v1, v2 in [(2, 2), (3, 3), (4, 3), (5, 2)]:
        basis = contrast_basis(v1, v2)
        assert basis.shape == ((v1 - 1) * (v2 - 1), v1 * v2)
        gram = basis @ basis.T
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-12
        assert np.abs(basis @ np.ones(v1 * v2)).max() < 1e-12


def test_random_effects_zero_sums():
    tau = random_effects(4, 5, scale=2.0, seed=99)
    table = tau.tau.reshape(4, 5)
    assert np.abs(table.sum(axis=0)).max() < 1e-12
    assert np.abs(table.sum(axis=1)).max() < 1e-12


def test_random_effects_two_by_two_shape():
    tau = random_effects(2, 2, seed=1)
    t = tau.tau
    assert np.allclose(t, [t[0], -t[0], -t[0], t[0]])


@pytest.mark.parametrize("scale", [float("inf"), float("nan"), -1.0])
def test_random_effects_rejects_bad_scale(scale):
    with pytest.raises(DimensionError, match="scale"):
        random_effects(3, 3, scale=scale)


def test_random_effects_deterministic():
    a = random_effects(3, 3, scale=1.5, seed=12345)
    b = random_effects(3, 3, scale=1.5, seed=12345)
    assert a.tau.tobytes() == b.tau.tobytes()


def test_non_integer_dimensions_are_dimension_errors():
    with pytest.raises(DimensionError, match="integers"):
        random_effects(3.0, 3)
    with pytest.raises(DimensionError, match="integers"):
        EffectVector(3.0, 3, np.zeros(9))
    with pytest.raises(DimensionError, match="integers"):
        contrast_basis(3, 3.0)
    with pytest.raises(DimensionError, match="integers"):
        contrast_basis(True, 3)
    assert random_effects(np.int64(3), 3).tau.shape == (9,)


def test_effect_vector_validation():
    with pytest.raises(DimensionError):
        EffectVector(2, 2, np.array([1.0, -1.0, -1.0]))
    with pytest.raises(DimensionError):
        EffectVector(2, 2, np.array([1.0, 1.0, -1.0, -1.0]))


def test_noiseless_recovery(x22):
    tau = random_effects(3, 3, seed=5)
    report = simulate(x22, tau, sigma=0.0, runs=2, seed=5)
    assert np.abs(report.empirical_mean - report.true_contrasts).max() <= 1e-9
    assert np.abs(report.empirical_variance).max() <= 1e-18


def test_noiseless_elementary_contrasts(x22):
    tau = random_effects(3, 3, seed=8)
    y = x22.matrix.astype(float) @ tau.tau
    tau_hat = estimate_effects(x22, y)
    for c in elementary_contrasts(3, 3):
        assert abs(c @ tau_hat - c @ tau.tau) <= 1e-9


def test_simulation_deterministic(x22):
    tau = random_effects(3, 3, seed=2)
    r1 = simulate(x22, tau, sigma=1.0, runs=500, seed=77)
    r2 = simulate(x22, tau, sigma=1.0, runs=500, seed=77)
    assert r1.empirical_mean.tobytes() == r2.empirical_mean.tobytes()
    assert r1.empirical_variance.tobytes() == r2.empirical_variance.tobytes()


def test_sigma_scaling_is_exact_for_shared_seed(x22):
    # identical noise streams make the variance scale exactly with sigma^2
    tau = random_effects(3, 3, seed=2)
    r1 = simulate(x22, tau, sigma=1.0, runs=2000, seed=3)
    r2 = simulate(x22, tau, sigma=2.0, runs=2000, seed=3)
    ratio = r2.empirical_variance / r1.empirical_variance
    assert np.abs(ratio - 4.0).max() < 1e-9


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
    report = simulate(composed_b4.x, tau, sigma=0.0, runs=2, seed=6)
    assert report.contrast_index == [
        (i, j) for i in range(1, 4) for j in range(1, 3)
    ]
    assert report.alpha == 4


def test_simulate_rejects_alpha_zero():
    x = DesignMatrix(2, 2, np.ones((2, 4), dtype=int))
    tau = random_effects(2, 2, seed=1)
    with pytest.raises(ContrastsNotEstimable):
        simulate(x, tau, sigma=1.0, runs=10, seed=1)


def test_simulate_and_estimate_effects_raise_the_first_witness(fano_composed):
    m = fano_composed.x.matrix.copy()
    m[0, 3] ^= 1  # one more block on edge (1, 4): diag of X_1^T X_1 is off at 4
    x = DesignMatrix(7, 7, m)
    tau = random_effects(7, 7, seed=1)
    for call in (
        lambda: simulate(x, tau, sigma=1.0, runs=100),
        lambda: estimate_effects(x, np.zeros(x.n_rows)),
    ):
        with pytest.raises(ConditionViolation) as exc:
            call()
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


def _check_report_against_chunked_noise(x, tau, sigma, runs, seed, chunks):
    """The report equals the dense-W estimates of the noise drawn in any chunks."""
    report = simulate(x, tau, sigma=sigma, runs=runs, seed=seed)
    assert _report_bytes(report) == _report_bytes(simulate(x, tau, sigma=sigma, runs=runs, seed=seed))
    alpha = sbbd.spectrum(sbbd.information_matrix(x)).alpha
    w = contrast_basis(x.v1, x.v2) @ x.matrix.T.astype(float) / alpha
    signal = x.matrix.astype(float) @ tau.tau
    whole = estimator._noise(seed, 0, runs, x.n_rows)
    for chunk in chunks:
        noise = np.vstack([
            estimator._noise(seed, start, min(start + chunk, runs), x.n_rows)
            for start in range(0, runs, chunk)
        ])
        assert noise.tobytes() == whole.tobytes()
        estimates = (signal + sigma * noise) @ w.T
        assert np.abs(report.empirical_mean - estimates.mean(axis=0)).max() < 1e-12
        assert np.abs(report.empirical_variance - estimates.var(axis=0, ddof=1)).max() < 1e-12


def test_report_does_not_depend_on_chunk_size(fano_composed):
    tau = random_effects(7, 7, seed=31)
    # 5000 runs: the last chunk is partial for every size, and so is the last tile
    _check_report_against_chunked_noise(fano_composed.x, tau, 1.0, 5000, 17, (1, 7, 4096))


def test_one_contrast_report_does_not_depend_on_chunk_size(single_edge_blocks):
    # a 2 x 2 design has a single contrast, so every tile sum runs over one column
    tau = random_effects(2, 2, seed=5)
    _check_report_against_chunked_noise(single_edge_blocks, tau, 1.0, 3001, 9, (1, 300, 2048))


def test_noise_is_bit_identical_across_chunkings():
    for n in (1, 9, 42):
        whole = estimator._noise(2024, 0, 500, n)
        assert whole.shape == (500, n)
        assert whole.tobytes() == estimator._noise(2024, 0, 500, n).tobytes()
        for chunk in (1, 7, 4096):
            parts = [
                estimator._noise(2024, start, min(start + chunk, 500), n)
                for start in range(0, 500, chunk)
            ]
            assert np.vstack(parts).tobytes() == whole.tobytes()
    # a run's draw depends on the seed
    assert estimator._noise(1, 3, 4, 42).tobytes() != estimator._noise(2, 3, 4, 42).tobytes()


def test_box_muller_moments():
    draws = estimator._noise(99, 0, 10_000, 100).ravel()
    assert draws.size == 1_000_000
    assert np.isfinite(draws).all()
    n = draws.size
    assert abs(draws.mean()) < 6 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 6 * np.sqrt(2.0 / n)


def test_projection_matches_generalized_inverse(
    x22, composed_b4, fano_composed, single_edge_blocks, dense_ginv
):
    pg23 = sbbd.compose(sbbd.catalog_by_id("pg23"), sbbd.construct_od1(13)).x  # 13 x 13, 156 blocks
    for x in (x22, composed_b4.x, fano_composed.x, single_edge_blocks, pg23):
        info = sbbd.information_matrix(x)
        alpha = sbbd.spectrum(info).alpha
        c = contrast_basis(x.v1, x.v2)
        xt = x.matrix.T.astype(float)
        g = dense_ginv(x.v1, x.v2, sbbd.generalized_inverse(info)).astype(float)
        with_g = c @ g @ xt
        assert np.abs(c @ xt / alpha - with_g).max() < 1e-12

        # estimate_effects applies G's four weights without forming G
        y0 = np.random.default_rng(5).standard_normal(x.n_rows)
        assert np.abs(estimate_effects(x, y0) - g @ (xt @ y0)).max() < 1e-12

        # the report equals the one projected through G
        tau = random_effects(x.v1, x.v2, seed=3)
        report = simulate(x, tau, sigma=1.0, runs=50, seed=8)
        y = x.matrix.astype(float) @ tau.tau + estimator._noise(8, 0, 50, x.n_rows)
        estimates = y @ with_g.T
        assert np.abs(report.empirical_mean - estimates.mean(axis=0)).max() < 1e-12
        assert np.abs(report.empirical_variance - estimates.var(axis=0, ddof=1)).max() < 1e-12


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "7"])
def test_seed_outside_philox_key_range_is_rejected(x22, seed):
    with pytest.raises(DimensionError, match="seed"):
        simulate(x22, random_effects(3, 3, seed=1), sigma=1.0, runs=10, seed=seed)
    with pytest.raises(DimensionError, match="seed"):
        random_effects(3, 3, seed=seed)


def test_largest_seed_is_accepted(x22):
    report = simulate(x22, random_effects(3, 3, seed=2**128 - 1), sigma=1.0, runs=10, seed=2**128 - 1)
    assert np.isfinite(report.empirical_variance).all()


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0, -1e-300])
def test_bad_sigma_is_rejected(x22, sigma):
    with pytest.raises(DimensionError, match="sigma"):
        simulate(x22, random_effects(3, 3, seed=1), sigma=sigma, runs=10, seed=1)


def test_zero_sum_tolerance_scales_with_tau():
    for scale in (1e-9, 1.0, 1e6, 1e15):
        tau = random_effects(30, 30, scale=scale, seed=4)
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


def test_contrast_basis_equals_row_by_row_kron():
    for v1, v2 in [(2, 2), (2, 5), (3, 3), (4, 7), (9, 4), (13, 13)]:
        p, q = estimator._helmert(v1), estimator._helmert(v2)
        rows = [np.kron(p[i], q[j]) for i in range(v1 - 1) for j in range(v2 - 1)]
        basis = contrast_basis(v1, v2)
        assert basis.shape == ((v1 - 1) * (v2 - 1), v1 * v2)
        assert basis.tobytes() == np.vstack(rows).tobytes()


def test_noise_rows_are_rows_of_the_tile_draws():
    tile = estimator._TILE
    n = 5
    start, stop = tile // 2 + 3, 3 * tile + 11  # mid-tile start, four tiles
    tiles = []
    for t in range(start // tile, stop // tile + 1):
        bits = np.random.Philox(key=606, counter=t << 64)
        tiles.append(np.random.Generator(bits).standard_normal((tile, n)))
    first = (start // tile) * tile
    expected = np.vstack(tiles)[start - first : stop - first]
    assert estimator._noise(606, start, stop, n).tobytes() == expected.tobytes()


def test_padded_rows_of_the_last_tile_never_enter_the_report(fano_composed):
    x = fano_composed.x
    runs = estimator._TILE + 37
    tau = random_effects(7, 7, seed=12)
    report = simulate(x, tau, sigma=1.5, runs=runs, seed=44)
    alpha = sbbd.spectrum(sbbd.information_matrix(x)).alpha
    w = contrast_basis(7, 7) @ x.matrix.T.astype(float) / alpha
    y = x.matrix.astype(float) @ tau.tau + 1.5 * estimator._noise(44, 0, runs, x.n_rows)
    estimates = y @ w.T
    assert np.abs(report.empirical_mean - estimates.mean(axis=0)).max() < 1e-12
    assert np.abs(report.empirical_variance - estimates.var(axis=0, ddof=1)).max() < 1e-12



def test_simulate_peak_memory_stays_near_two_w_sized_arrays():
    # W^T is N (v1-1)(v2-1) float64; the set-up drops each intermediate once
    # it is used, so no more than two arrays of about that size are live
    x = sbbd.compose(sbbd.catalog_by_id("qr31"), sbbd.construct_od1(31)).x  # 930 x 961
    tau = random_effects(31, 31, seed=1)
    w_bytes = x.n_rows * 30 * 30 * 8
    tracemalloc.start()
    try:
        simulate(x, tau, sigma=1.0, runs=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * w_bytes, peak / w_bytes
