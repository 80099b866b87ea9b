"""Monte Carlo validation of the variance-balance property.

Data follow y = X tau + eps with i.i.d. Gaussian noise, where the effect
vector tau obeys the double zero-sum constraints (every row group and every
column group of the v1 x v2 effect table sums to zero).  The basic
contrasts of the least-squares estimate tau_hat = G X^T y, with G the exact
generalized inverse, are compared contrast-by-contrast against the
prediction Var((p_i (x) q_j)^T tau_hat) = sigma^2 / alpha.

The contrast rows C = H1 (x) H2 (two Helmert bases) lie in the alpha
eigenspace of X^T X, so C G = C / alpha and simulate estimates them as W y
with W = C X^T / alpha, the package's one least-squares path, without
forming G.  Nor does it form C: row k of W^T is H1 X_k H2^T / alpha, with
X_k block k's v1 x v2 mask.

The report depends on the R runs' noise only through two statistics: its
sample mean, N(0, I/R), and its centred scatter S = sum_r (e_r - e_bar)
(e_r - e_bar)^T, Wishart_N(R-1, I) and independent of the mean.  The runs'
estimates have mean (X tau + sigma e_bar) W^T and sample variance
sigma^2 diag(W S W^T) / (R-1), so simulate draws the two statistics instead
of the runs, and its cost stops growing with R.  In an orthonormal basis of
the runs orthogonal to the all-ones vector, the centred noise is an
(R-1) x N standard normal matrix E with S = E^T E, so S = Z^T Z for the
first m = min(R-1, N) rows Z of the triangular factor of E's QR
decomposition.  That m x N upper-trapezoidal factor is drawn directly
(Bartlett 1933; Odell and Feiveson, JASA 61, 1966): row i of Z is 0 left of
column i, sqrt(chi^2 with R-1-i degrees of freedom) at column i and
independent standard normals right of it.

One Generator(Philox(key=seed)) draws, in this order: N standard normals g,
with e_bar = g / sqrt(R); m chi-squares with R-1-i degrees of freedom for
i < m; then ceil(m / _TILE) arrays of (_TILE, N) standard normals, the
tiles.  Row i of Z takes its normals right of column i from row i % _TILE
of tile i // _TILE; the rest of that row is overwritten, and tile rows past
m are zeroed.  Philox is the counter-based generator of Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3" (SC'11).  Each tile is
projected by one fixed-shape BLAS product (_TILE, N) @ (N, C), so reports
are identical bit for bit across calls for a given numpy and BLAS build and
BLAS thread count; a different thread count may change the last bits of
large products (OpenBLAS 0.3.31 does so for a (256, 506) @ (506, 484)
product with 1 and 2 threads).  A report for a given seed has the law of
the report of R separately drawn runs, not its values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .analyzer import _estimable
from .design_core import DesignMatrix, DimensionError, FormatError, _check_dims, _check_indexable, _is_int


def _real_array(name: str, values) -> np.ndarray:
    """values as a contiguous float64 array of finite real numbers.

    An entry that is not a real number, or a ragged nesting, is a
    FormatError; a non-finite entry or an int beyond float64 is a
    DimensionError.
    """
    try:
        raw = np.asarray(values)
        if raw.dtype.kind not in "biufO":  # the cast would parse a str and drop an imaginary part
            raise TypeError
        t = np.ascontiguousarray(raw, dtype=float)
    except OverflowError:  # a Python int beyond float64
        raise DimensionError(f"{name} has an entry too large for float64") from None
    except (TypeError, ValueError):  # ragged, or an entry that is not a real number
        raise FormatError(f"{name} entries must be real numbers") from None
    if not np.isfinite(t).all():
        raise DimensionError(f"{name} has a non-finite entry")
    return t


@dataclass(frozen=True)
class EffectVector:
    """Effect values in lexicographic edge order, with double zero sums."""

    v1: int
    v2: int
    tau: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_dims(self.v1, self.v2)
        t = _real_array("tau", self.tau)
        if t.shape != (self.v1 * self.v2,):
            raise DimensionError(
                f"tau length {t.shape} != v1*v2 = {self.v1 * self.v2}"
            )
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


def _check_seed(seed) -> None:
    if not (_is_int(seed) and 0 <= seed < 2**128):
        raise DimensionError(f"seed must be an integer in [0, 2^128), got {seed!r}")


def _nonnegative(name: str, value) -> float:
    """value as a float, checked to be an int or float in [0, float max]; ints compare exactly."""
    if isinstance(value, np.floating):
        value = float(value)  # a float32 compared with the float64 max would overflow its cast
    if not ((_is_int(value) or isinstance(value, float)) and 0 <= value <= sys.float_info.max):
        raise DimensionError(f"{name} must be an int or float in [0, {sys.float_info.max!r}], got {value!r}")
    return abs(float(value))  # -0.0 passes the check; report it as 0.0


def _center(z: np.ndarray) -> np.ndarray:
    return z - z.mean(axis=1, keepdims=True) - z.mean(axis=0, keepdims=True) + z.mean()


def random_effects(v1: int, v2: int, seed: int = 0) -> EffectVector:
    """Random effects satisfying the double zero sums to rounding.

    Draws z uniform in [-1, 1] and projects through the centering operators
    on both axes, twice: the second pass removes the rounding residue of the
    first, which is relative to z rather than to tau.  A fixed seed
    reproduces tau bit for bit.
    """
    _check_dims(v1, v2)
    _check_indexable(8 * v1 * v2, f"tau of {v1} x {v2} effects")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=v1 * v2).reshape(v1, v2)
    return EffectVector(v1, v2, _center(_center(z)).reshape(-1))


_TILE = 256  # rows of the scatter factor per fixed-shape projection
_SLAB = 1 << 18  # float64 entries of X per set-up slab (2 MiB)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is checked on the report
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
    empirical mean and variance against the predicted sigma^2 / alpha.  The
    runs are not replayed: the noise's mean and scatter are drawn directly
    (see the module docstring), in O(min(runs - 1, N) N C) work.  The report
    for given arguments is the same bit for bit on every call, given the
    numpy/BLAS build and thread count.
    Raises what a_optimality raises on a failing design, DimensionError for
    runs outside [2, 2^53], and DimensionError when sigma and tau are so
    large that the report overflows float64.
    """
    if (tau.v1, tau.v2) != (x.v1, x.v2):
        raise DimensionError("effect vector does not match the design dimensions")
    if not (_is_int(runs) and 2 <= runs <= 2**53):
        raise DimensionError(f"need an integer runs in [2, 2^53] for a variance estimate, got {runs!r}")
    runs = int(runs)
    sigma = _nonnegative("sigma", sigma)
    _check_seed(seed)
    alpha = _estimable(x).alpha
    n, v1, v2 = x.n_rows, x.v1, x.v2
    h1, h2 = _helmert(v1), _helmert(v2)
    # W^T, (N, C), and X tau, filled in row slabs of X cast from uint8: row k
    # of W^T is H1 X_k H2^T / alpha (every X_k H2^T of a slab in one 2-D
    # product), so no float copy of X is held
    wt = np.empty((n, (v1 - 1) * (v2 - 1)))
    signal = np.empty(n)
    step = max(1, _SLAB // (v1 * v2))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        xs = x.matrix[rows].astype(float)
        signal[rows] = xs @ tau.tau
        xh2 = (xs.reshape(-1, v2) @ h2.T).reshape(len(xs), v1, v2 - 1)
        ws = wt[rows]
        np.matmul(h1, xh2, out=ws.reshape(len(xs), v1 - 1, v2 - 1))
        ws /= alpha
        del xs, xh2  # before the next slab's are made
    true = (h1 @ tau.tau.reshape(v1, v2) @ h2.T).ravel()

    bits = np.random.Generator(np.random.Philox(key=seed))
    g = bits.standard_normal(n)
    m = min(runs - 1, n)
    root = np.sqrt(bits.chisquare(runs - 1 - np.arange(m)))
    tile = np.empty((_TILE, n))
    proj = np.empty((_TILE, wt.shape[1]))
    ssq = np.zeros(wt.shape[1])
    for first in range(0, m, _TILE):
        bits.standard_normal(out=tile)
        for r in range(min(_TILE, m - first)):  # row first + r of Z
            tile[r, : first + r] = 0.0
            tile[r, first + r] = root[first + r]
        tile[m - first :] = 0.0
        np.matmul(tile, wt, out=proj)  # the same (_TILE, N) @ (N, C) BLAS product for every tile
        proj *= proj
        ssq += proj.sum(axis=0)

    mean = (signal + sigma * g / math.sqrt(runs)) @ wt
    variance = sigma * sigma * ssq / (runs - 1)
    predicted = sigma * sigma / alpha
    # relative to the prediction, or absolute when sigma = 0 predicts 0
    max_rel = float(np.max(np.abs(variance - predicted)) / (predicted or 1.0))
    if not (np.isfinite(mean).all() and np.isfinite(variance).all() and math.isfinite(max_rel)):
        raise DimensionError(f"the report overflows float64 at sigma = {sigma!r} with this tau")
    return SimulationReport(
        runs=runs,
        sigma=sigma,
        contrast_index=[
            (i, j) for i in range(1, v1) for j in range(1, v2)
        ],
        true_contrasts=true,
        empirical_mean=mean,
        empirical_variance=variance,
        predicted_variance=predicted,
        max_relative_deviation=max_rel,
        alpha=alpha,
    )
