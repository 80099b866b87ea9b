#!/usr/bin/env python3
"""Monte Carlo least squares on simulated data: every basic contrast's
empirical variance should land on sigma^2 / alpha.  simulate draws the
runs' noise mean and scatter instead of each run, so RUNS above N + 1
costs no more than N + 1."""

import numpy as np

import sbbd

RUNS = 50_000
SEED = 1729

x = sbbd.compose(sbbd.catalog_by_id("fano"), sbbd.construct_od1(7))
alpha = sbbd.check_sbbd(x).alpha
print(f"design: {x.n_rows} observations, {x.v1 * x.v2} effects, alpha = {alpha}")

tau = sbbd.random_effects(x.v1, x.v2, seed=SEED)

# noiseless data recover the contrasts exactly
clean = sbbd.simulate(x, tau, sigma=0.0, runs=2, seed=SEED)
err = np.abs(clean.empirical_mean - clean.true_contrasts).max()
print(f"noiseless recovery error: {err:.2e}")

report = sbbd.simulate(x, tau, sigma=1.0, runs=RUNS, seed=SEED)
print(f"\nsigma = 1, {RUNS} runs")
print(f"predicted variance sigma^2/alpha = {report.predicted_variance:.6f}")
print(f"empirical variance range: [{report.empirical_variance.min():.6f},"
      f" {report.empirical_variance.max():.6f}]")
print(f"max relative deviation: {report.max_relative_deviation:.3%}")

print("\nfirst contrasts (index, true, mean, variance):")
for idx in range(6):
    i, j = report.contrast_index[idx]
    print(f"  ({i},{j})  {report.true_contrasts[idx]: .5f}"
          f"  {report.empirical_mean[idx]: .5f}"
          f"  {report.empirical_variance[idx]:.5f}")

# doubling sigma quadruples every variance exactly: the same seed draws the
# same noise mean and scatter, and only sigma^2 scales the scatter's share
quad = sbbd.simulate(x, tau, sigma=2.0, runs=10_000, seed=SEED)
base = sbbd.simulate(x, tau, sigma=1.0, runs=10_000, seed=SEED)
ratio = quad.empirical_variance / base.empirical_variance
print(f"\nvariance ratio at 2x sigma: {ratio.min():.6f} .. {ratio.max():.6f}")
