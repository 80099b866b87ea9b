"""Monte Carlo validation of the variance-balance property.

Data follow y = X tau + eps with i.i.d. Gaussian noise, where the effect
vector tau obeys the double zero-sum constraints (every row group and every
column group of the v1 x v2 effect table sums to zero).  Effects are
estimated by least squares, tau_hat = G X^T y with G the exact generalized
inverse, and compared contrast-by-contrast against the prediction
Var((p_i (x) q_j)^T tau_hat) = sigma^2 / alpha.

The contrast rows C lie in the alpha eigenspace of X^T X, so C G = C / alpha
and simulate projects with W = C X^T / alpha without forming G.

Noise comes from numpy's counter-based Philox generator keyed by the seed
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Run
i reads its own fixed range of Philox blocks, and Box-Muller turns exactly
one 64-bit word per uniform into normals, so each run's noise is
reproducible bit for bit whatever the batching or run order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analyzer import (
    ContrastsNotEstimable,
    _inverse_weights,
    information_matrix,
    spectrum,
)
from .design_core import DesignMatrix, DimensionError


@dataclass(frozen=True)
class EffectVector:
    """Effect values in lexicographic edge order, with double zero sums."""

    v1: int
    v2: int
    tau: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.ascontiguousarray(self.tau, dtype=float)
        if t.shape != (self.v1 * self.v2,):
            raise DimensionError(
                f"tau length {t.shape} != v1*v2 = {self.v1 * self.v2}"
            )
        if not np.isfinite(t).all():
            raise DimensionError("tau has a non-finite entry")
        table = t.reshape(self.v1, self.v2)
        # a float64 sum of n entries of size <= m is off by about n * eps * m;
        # allow that with a wide margin, relative to tau's own scale
        ulp = 1024 * np.finfo(float).eps * np.abs(t).max(initial=0.0)
        if (np.abs(table.sum(axis=1)) > ulp * self.v2).any() or (
            np.abs(table.sum(axis=0)) > ulp * self.v1
        ).any():
            raise DimensionError("tau violates the double zero-sum constraints")
        t.flags.writeable = False
        object.__setattr__(self, "tau", t)


@dataclass(frozen=True)
class SimulationReport:
    runs: int
    sigma: float
    contrast_index: list  # [(i, j)] for 1 <= i <= v1-1, 1 <= j <= v2-1
    true_contrasts: np.ndarray
    empirical_mean: np.ndarray
    empirical_variance: np.ndarray
    predicted_variance: float  # sigma^2 / alpha
    max_relative_deviation: float
    alpha: int


def _helmert(n: int) -> np.ndarray:
    """(n-1) x n orthonormal rows, each orthogonal to the all-ones vector."""
    rows = np.zeros((n - 1, n))
    for m in range(1, n):
        rows[m - 1, :m] = 1.0
        rows[m - 1, m] = -m
        rows[m - 1] /= np.sqrt(m * (m + 1))
    return rows


def contrast_basis(v1: int, v2: int) -> np.ndarray:
    """Orthonormal basic-contrast vectors p_i (x) q_j, one per row.

    Rows are ordered (i, j) with i major, matching SimulationReport's
    contrast_index.  Every row is orthogonal to the all-ones vector and the
    Gram matrix is the identity to 1e-12.
    """
    if v1 < 2 or v2 < 2:
        raise DimensionError("contrasts need v1 >= 2 and v2 >= 2")
    p = _helmert(v1)
    q = _helmert(v2)
    rows = [np.kron(p[i], q[j]) for i in range(v1 - 1) for j in range(v2 - 1)]
    return np.vstack(rows)


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise DimensionError(f"seed must be an integer in [0, 2^128), got {seed!r}")


def _center(z: np.ndarray) -> np.ndarray:
    return z - z.mean(axis=1, keepdims=True) - z.mean(axis=0, keepdims=True) + z.mean()


def random_effects(v1: int, v2: int, scale: float = 1.0, seed: int = 0) -> EffectVector:
    """Random effects satisfying the double zero sums to rounding.

    Draws z uniform in [-scale, scale] and projects through the centering
    operators on both axes, twice: the second pass removes the rounding
    residue of the first, which is relative to z rather than to tau.  A
    fixed seed reproduces tau bit for bit.
    """
    _check_seed(seed)
    if not (math.isfinite(scale) and scale >= 0):
        raise DimensionError(f"scale must be finite and >= 0, got {scale!r}")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-scale, scale, size=v1 * v2).reshape(v1, v2)
    return EffectVector(v1, v2, _center(_center(z)).reshape(-1))


_CHUNK_RUNS = 1024  # runs drawn and projected together; the report does not depend on it


def _noise(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Standard normals for runs start .. stop-1, shape (stop - start, n).

    Run i reads Philox(key=seed) blocks i*b + 1 .. (i+1)*b, with b = ceil(n/4)
    blocks of four 64-bit words, so its draw depends only on (seed, i, n).
    Generator.random uses exactly one word per uniform (standard_normal's
    ziggurat uses a variable number), and Box-Muller maps the first and
    second halves of a run's uniforms to pairs of normals; log1p(-u) stays
    finite for u in [0, 1).
    """
    blocks = -(-n // 4)
    bits = np.random.Philox(key=seed, counter=start * blocks)
    u = np.random.Generator(bits).random((stop - start, 4 * blocks))
    half = 2 * blocks
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :half]))
    angle = (2.0 * np.pi) * u[:, half:]
    return np.hstack([radius * np.cos(angle), radius * np.sin(angle)])[:, :n]


def _running_sum(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., added in run order whatever the chunking."""
    return np.add.accumulate(np.vstack([total, rows]), axis=0)[-1]


def estimate_effects(x: DesignMatrix, y: np.ndarray) -> np.ndarray:
    """One-shot least squares tau_hat = G X^T y, without forming G.

    On the v1 x v2 table z of X^T y, G weights the doubly centred z, the
    centred row and column means and the grand mean by the four inverse
    eigenvalues.  Only contrasts of tau_hat carry an accuracy contract;
    components along the non-estimable directions are whatever the
    generalized inverse assigns them.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (x.n_rows,):
        raise DimensionError(f"y length {y.shape} != N = {x.n_rows}")
    wa, wb, wg, wd = map(float, _inverse_weights(spectrum(information_matrix(x))))
    z = (x.matrix.T.astype(float) @ y).reshape(x.v1, x.v2)
    grand = z.mean()
    rows = z.mean(axis=1, keepdims=True) - grand
    cols = z.mean(axis=0, keepdims=True) - grand
    return (wa * _center(z) + wb * rows + wg * cols + wd * grand).reshape(-1)


def simulate(
    x: DesignMatrix,
    tau: EffectVector,
    sigma: float,
    runs: int,
    seed: int = 0,
) -> SimulationReport:
    """Estimate every basic contrast across `runs` noisy replications.

    Per run: y = X tau + sigma * eps, then the contrast estimates
    C tau_hat = C G X^T y = W y with W = C X^T / alpha.  Reports per-contrast
    empirical mean and variance against the predicted sigma^2 / alpha.
    The report for given arguments is the same bit for bit on every call.
    """
    if (tau.v1, tau.v2) != (x.v1, x.v2):
        raise DimensionError("effect vector does not match the design dimensions")
    if runs < 2:
        raise DimensionError("need at least 2 runs for a variance estimate")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise DimensionError(f"sigma must be finite and >= 0, got {sigma!r}")
    _check_seed(seed)
    spec = spectrum(information_matrix(x))
    if spec.alpha <= 0:
        raise ContrastsNotEstimable(
            f"alpha = {spec.alpha} <= 0; basic contrasts are not estimable"
        )
    c = contrast_basis(x.v1, x.v2)
    w = (c @ x.matrix.T.astype(float)) / spec.alpha  # contrast estimates are W y
    signal = x.matrix.astype(float) @ tau.tau

    true = c @ tau.tau
    n_contrasts = c.shape[0]
    # accumulate deviations from the true contrasts to keep the variance
    # update numerically clean
    dev_sum = np.zeros(n_contrasts)
    dev_sq = np.zeros(n_contrasts)
    for start in range(0, runs, _CHUNK_RUNS):
        y = signal + sigma * _noise(seed, start, min(start + _CHUNK_RUNS, runs), x.n_rows)
        # einsum's own loop sums each entry over the blocks in one fixed
        # order; a BLAS product picks its kernel by row count, so a run's
        # estimates would depend on the chunk in the last bit
        deviations = np.einsum("rn,cn->rc", y, w) - true
        dev_sum = _running_sum(dev_sum, deviations)
        dev_sq = _running_sum(dev_sq, deviations * deviations)

    mean = true + dev_sum / runs
    variance = (dev_sq - dev_sum * dev_sum / runs) / (runs - 1)
    predicted = sigma * sigma / spec.alpha
    if predicted > 0:
        max_rel = float(np.max(np.abs(variance - predicted)) / predicted)
    else:
        max_rel = float(np.max(np.abs(variance)))
    return SimulationReport(
        runs=runs,
        sigma=sigma,
        contrast_index=[
            (i, j) for i in range(1, x.v1) for j in range(1, x.v2)
        ],
        true_contrasts=true,
        empirical_mean=mean,
        empirical_variance=variance,
        predicted_variance=predicted,
        max_relative_deviation=max_rel,
        alpha=spec.alpha,
    )
