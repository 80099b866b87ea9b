"""Monte Carlo validation of the variance-balance property.

Data follow y = X tau + eps with i.i.d. Gaussian noise, where the effect
vector tau obeys the double zero-sum constraints (every row group and every
column group of the v1 x v2 effect table sums to zero).  Effects are
estimated by least squares, tau_hat = G X^T y with G the exact generalized
inverse, and compared contrast-by-contrast against the prediction
Var((p_i (x) q_j)^T tau_hat) = sigma^2 / alpha.

The contrast rows C = H1 (x) H2 (two Helmert bases) lie in the alpha
eigenspace of X^T X, so C G = C / alpha and simulate projects with
W = C X^T / alpha without forming G.  Nor does it form C: row k of W^T is
H1 X_k H2^T / alpha, with X_k block k's v1 x v2 mask.

Runs are processed in tiles of _TILE runs: run i is row i % _TILE of tile
i // _TILE.  Tile t's noise is the (_TILE, N) array that numpy's ziggurat
sampler draws from Philox(key=seed, counter=t << 64), the counter-based
generator of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC'11).  Each tile is projected by one fixed-shape BLAS product
(_TILE, N) @ (N, C), so a run's noise and estimates depend only on
(seed, i, N).  Reports are therefore identical bit for bit across calls for
a given numpy and BLAS build and BLAS thread count; a different thread count
may change the last bits of large products (OpenBLAS 0.3.31 does so for a
(256, 506) @ (506, 484) product with 1 and 2 threads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analyzer import _checked_spectrum, generalized_inverse
from .design_core import DesignMatrix, DimensionError, _check_dims, _is_int


@dataclass(frozen=True)
class EffectVector:
    """Effect values in lexicographic edge order, with double zero sums."""

    v1: int
    v2: int
    tau: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_dims(self.v1, self.v2)
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
    _check_dims(v1, v2, least=2)
    return np.kron(_helmert(v1), _helmert(v2))


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
    _check_dims(v1, v2)
    _check_seed(seed)
    if not (math.isfinite(scale) and scale >= 0):
        raise DimensionError(f"scale must be finite and >= 0, got {scale!r}")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-scale, scale, size=v1 * v2).reshape(v1, v2)
    return EffectVector(v1, v2, _center(_center(z)).reshape(-1))


_TILE = 256  # runs per fixed-shape projection; fixes every run's noise and estimates


def _tiles(seed: int, stop: int, n: int, first: int = 0):
    """Yield the (_TILE, n) noise of tiles first .. ceil(stop / _TILE) - 1.

    Tile t is the standard_normal draw of Philox(key=seed, counter=t << 64).
    The ziggurat consumes a variable number of words, but far fewer than the
    2^64 blocks between two tiles' counters, so tiles never share a block.
    One Philox serves every tile, since each construction reads OS entropy
    for a SeedSequence that the explicit key leaves unused: before tile t its
    state is reset to the one Philox(key=seed, counter=t << 64) starts in,
    counter word 1 set to t, the other words zero and the output buffer
    empty.  Every tile is drawn into the same buffer, which is yielded.
    """
    bits = np.random.Philox(key=seed, counter=first << 64)
    normals = np.random.Generator(bits)
    start = bits.state
    out = np.empty((_TILE, n))
    for t in range(first, -(-stop // _TILE)):
        start["state"]["counter"][1] = t
        bits.state = start
        yield normals.standard_normal(out=out)


def _noise(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Standard normals for runs start .. stop-1, shape (stop - start, n).

    Run i is row i % _TILE of tile i // _TILE (see _tiles).
    """
    first = start // _TILE
    out = np.vstack([tile.copy() for tile in _tiles(seed, stop, n, first)])
    return out[start - first * _TILE : stop - first * _TILE]


def estimate_effects(x: DesignMatrix, y: np.ndarray) -> np.ndarray:
    """One-shot least squares tau_hat = G X^T y, without forming G.

    On the v1 x v2 table z of X^T y, G weights the doubly centred z, the
    centred row and column means and the grand mean by the four inverse
    eigenvalues.  Only contrasts of tau_hat carry an accuracy contract;
    components along the non-estimable directions are whatever the
    generalized inverse assigns them.  Raises what a_optimality raises.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (x.n_rows,):
        raise DimensionError(f"y length {y.shape} != N = {x.n_rows}")
    wa, wb, wg, wd = map(float, generalized_inverse(_checked_spectrum(x)[0]))
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
    Runs go in tiles of _TILE (see the module docstring); the last tile is
    drawn in full and its rows past `runs` are zeroed before any sum.  The
    report for given arguments is the same bit for bit on every call, given
    the numpy/BLAS build and thread count.
    Raises what a_optimality raises on a failing design.
    """
    if (tau.v1, tau.v2) != (x.v1, x.v2):
        raise DimensionError("effect vector does not match the design dimensions")
    if not _is_int(runs) or runs < 2:
        raise DimensionError(f"need an integer runs >= 2 for a variance estimate, got {runs!r}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise DimensionError(f"sigma must be finite and >= 0, got {sigma!r}")
    _check_seed(seed)
    _, spec = _checked_spectrum(x)
    h1, h2 = _helmert(x.v1), _helmert(x.v2)
    xf = x.matrix.astype(float)
    signal = xf @ tau.tau
    # W^T, (N, C): row k is H1 X_k H2^T / alpha (every X_k H2^T in one 2-D
    # product); each intermediate is dropped once used, so at most two
    # arrays of W^T's size are held at once
    xh2 = (xf.reshape(-1, x.v2) @ h2.T).reshape(x.n_rows, x.v1, x.v2 - 1)
    del xf
    wt = (h1 @ xh2).reshape(x.n_rows, -1)
    del xh2
    wt /= spec.alpha
    true = (h1 @ tau.tau.reshape(x.v1, x.v2) @ h2.T).ravel()

    # accumulate deviations from the true contrasts to keep the variance
    # update numerically clean
    dev_sum = np.zeros(true.size)
    dev_sq = np.zeros(true.size)
    for t, y in enumerate(_tiles(seed, runs, x.n_rows)):
        y *= sigma
        y += signal
        dev = y @ wt  # the same (_TILE, N) @ (N, C) BLAS product for every tile
        dev -= true
        dev[runs - t * _TILE :] = 0.0
        dev_sum += dev.sum(axis=0)
        dev *= dev
        dev_sq += dev.sum(axis=0)

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
