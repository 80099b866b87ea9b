"""Exact verification of the five SBBD conditions and optimality diagnostics.

For a design matrix X = (X_1 | ... | X_v1) the five conditions read off the
panel products:

    (I)   no row of any X_i is zero and sum_i X_i has no zero entry (spanning)
    (II)  diag(X_i^T X_i) constant mu, for every i
    (III) offdiag(X_i^T X_i) constant lambda12
    (IV)  diag(X_i^T X_j), i != j, constant lambda21
    (V)   offdiag(X_i^T X_j), i != j, constant lambda22

The panel products are the v2 x v2 blocks of one float64 BLAS Gram X^T X.
Its entries are counts of at most N blocks, so it and the comparisons on it
are exact for N < 2^53.  Conditions (II)-(V) are checked on its panel view
in one vectorised comparison; only Lambda and the trace are kept.

When (II)-(V) hold the information matrix X^T X is double completely
symmetric and its spectrum is closed-form.  With a = mu - l12, b = l12,
c = l21 - l22, d = l22:

    alpha = a - c                      multiplicity (v1-1)(v2-1)
    beta  = a - c + (b - d) v2         multiplicity v1-1
    gamma = a + c (v1-1)               multiplicity v2-1
    delta = a + b v2 + (v1-1)(c + d v2)  multiplicity 1

A Moore-Penrose generalized inverse follows from the same decomposition in
exact rational arithmetic, dropping zero-eigenvalue terms: it is fixed by
the four rationals 1/alpha, 1/beta, 1/gamma and 1/delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design_core import DesignMatrix, DimensionError, SbbdError, SbbdParameters


class ConditionViolation(SbbdError):
    """One of conditions (II)-(V) fails; carries the first witness found."""

    def __init__(self, condition: str, witness: dict, message: str):
        self.condition = condition
        self.witness = witness
        super().__init__(f"condition ({condition}) violated: {message}")


class MissingDcs(SbbdError):
    """The information matrix is not double completely symmetric."""


class TraceMismatch(SbbdError):
    """The closed-form spectrum disagrees with the trace of X^T X."""


class DegenerateDesign(SbbdError):
    """All four eigenvalues vanish; no generalized inverse exists."""


class ContrastsNotEstimable(SbbdError):
    """alpha <= 0: the basic contrasts cannot be estimated."""


def _expand(table: np.ndarray, v1: int, v2: int) -> np.ndarray:
    """The v1v2 x v1v2 matrix whose ((i, j), (k, l)) entry is table[i == k, j == l]."""
    same1 = np.eye(v1, dtype=np.intp)[:, None, :, None]
    same2 = np.eye(v2, dtype=np.intp)[None, :, None, :]
    return table[same1, same2].reshape(v1 * v2, v1 * v2)


@dataclass(frozen=True)
class InformationMatrix:
    """X^T X by its four numbers and its measured trace."""

    v1: int
    v2: int
    dcs: SbbdParameters | None  # set iff X^T X is double completely symmetric
    trace: int

    @property
    def dense(self) -> np.ndarray:
        """The exact int64 X^T X, expanded from Lambda."""
        if self.dcs is None:
            raise MissingDcs("information matrix is not double completely symmetric")
        p = self.dcs
        table = np.array([[p.lambda22, p.lambda21], [p.lambda12, p.mu]], dtype=np.int64)
        return _expand(table, self.v1, self.v2)


@dataclass(frozen=True)
class SpectralSummary:
    alpha: int
    beta: int
    gamma: int
    delta: int
    m_alpha: int
    m_beta: int
    m_gamma: int
    m_delta: int
    trace: int

    def pairs(self) -> list:
        """(eigenvalue, multiplicity) in (alpha, beta, gamma, delta) order."""
        return [
            (self.alpha, self.m_alpha),
            (self.beta, self.m_beta),
            (self.gamma, self.m_gamma),
            (self.delta, self.m_delta),
        ]

    def merged(self) -> list:
        """Distinct eigenvalues with total multiplicities, descending."""
        acc: dict = {}
        for val, mult in self.pairs():
            acc[val] = acc.get(val, 0) + mult
        return sorted(acc.items(), key=lambda t: -t[0])


@dataclass(frozen=True)
class BlockRegularity:
    is_semi_regular: bool
    is_regular: bool
    k1: int | None
    k2: int | None


@dataclass(frozen=True)
class OptimalityReport:
    params: SbbdParameters
    is_spanning: bool
    is_semi_regular: bool
    is_regular: bool
    k1: int | None
    k2: int | None
    spectral: SpectralSummary
    a_criterion: Fraction
    a_lower_bound: Fraction | None
    is_a_optimal_in_omega: bool


def _measure(x: DesignMatrix):
    """(params, None, trace) if (II)-(V) hold, else (None, first violation, trace).

    X^T X is one float64 BLAS product, compared in float64: its entries and
    partial sums are counts of at most N, so both are exact while N < 2^53.
    The first violation is in the first bad panel pair X_i^T X_j in
    row-major order, its diagonal before its off-diagonal, and positions in
    row-major order.
    """
    if x.v1 < 2 or x.v2 < 2:
        raise DimensionError("analysis needs v1 >= 2 and v2 >= 2")
    if x.n_rows == 0:
        raise DimensionError("need at least one block")
    m = x.matrix.astype(np.float64)
    gram = m.T @ m
    del m
    trace = int(np.trace(gram))
    v1, v2 = x.v1, x.v2
    p = gram.reshape(v1, v2, v1, v2).transpose(0, 2, 1, 3)  # p[i, j] = X_i^T X_j
    lam = [int(v) for v in p[0, :2, 0, :2].ravel()]  # [mu, l12, l21, l22]
    on = np.eye(v2, dtype=bool)
    same = np.arange(v1)
    bad = p != np.where(on, lam[2], lam[3])
    bad[same, same] = p[same, same] != np.where(on, lam[0], lam[1])
    pairs = np.flatnonzero(bad.any(axis=(2, 3)))
    if pairs.size == 0:
        return SbbdParameters(v1, v2, x.n_rows, *lam), None, trace
    i, j = divmod(int(pairs[0]), v1)
    on_bad = np.flatnonzero(np.diagonal(bad[i, j]))
    r, c = (on_bad[0], on_bad[0]) if on_bad.size else np.argwhere(bad[i, j])[0]
    k = 2 * (i != j) + (on_bad.size == 0)
    pos = (int(r) + 1, int(c) + 1)
    prod = f"X_{i + 1}^T X_{j + 1}"
    found = int(p[i, j, r, c])
    expected = f"{('mu', 'lambda12', 'lambda21', 'lambda22')[k]} = {lam[k]}"
    witness = {"panel": i + 1} if i == j else {"panels": (i + 1, j + 1)}
    witness["position"] = pos
    message = (
        f"off-diagonal of {prod} at {pos} is {found}, expected {expected}"
        if k % 2
        else f"diagonal of {prod} is {found} at {pos[0]}, expected {expected}"
    )
    return None, ConditionViolation(("II", "III", "IV", "V")[k], witness, message), trace


def is_spanning(x: DesignMatrix) -> bool:
    """Condition (I): every block touches every point on both sides."""
    return bool(x.masks.any(axis=2).all() and x.masks.any(axis=1).all())


def check_sbbd(x: DesignMatrix) -> SbbdParameters:
    """Verify conditions (II)-(V) exactly and return the measured parameters.

    Raises ConditionViolation on the first failure.  The spanning condition
    (I) distinguishes an SBBD from an SBBD* and is reported separately by
    is_spanning().
    """
    params, violation, _ = _measure(x)
    if violation is not None:
        raise violation
    return params


def information_matrix(x: DesignMatrix) -> InformationMatrix:
    """X^T X as Lambda and its trace, with double-complete-symmetry detection."""
    params, _, trace = _measure(x)
    return InformationMatrix(v1=x.v1, v2=x.v2, dcs=params, trace=trace)


def spectrum(info: InformationMatrix) -> SpectralSummary:
    """Closed-form eigenvalues with multiplicities; trace identity enforced."""
    if info.dcs is None:
        raise MissingDcs("information matrix is not double completely symmetric")
    p = info.dcs
    v1, v2 = info.v1, info.v2
    a, b, c, d = p.a, p.b, p.c, p.d
    summary = SpectralSummary(
        alpha=a - c,
        beta=a - c + (b - d) * v2,
        gamma=a + c * (v1 - 1),
        delta=a + b * v2 + (v1 - 1) * (c + d * v2),
        m_alpha=(v1 - 1) * (v2 - 1),
        m_beta=v1 - 1,
        m_gamma=v2 - 1,
        m_delta=1,
        trace=p.mu * v1 * v2,
    )
    weighted = sum(val * mult for val, mult in summary.pairs())
    if not weighted == summary.trace == info.trace:
        raise TraceMismatch(
            f"eigenvalues sum to {weighted}, mu v1 v2 = {summary.trace} and"
            f" trace(X^T X) = {info.trace}; they must agree"
        )
    return summary


def _checked_spectrum(x: DesignMatrix):
    """(params, spectrum); raises the first ConditionViolation, then ContrastsNotEstimable."""
    params, violation, trace = _measure(x)
    if violation is not None:
        raise violation
    spec = spectrum(InformationMatrix(v1=x.v1, v2=x.v2, dcs=params, trace=trace))
    if spec.alpha <= 0:
        raise ContrastsNotEstimable(f"alpha = {spec.alpha} <= 0; basic contrasts are not estimable")
    return params, spec


def _inverse_weights(spec: SpectralSummary) -> list:
    """1/alpha, 1/beta, 1/gamma, 1/delta as exact rationals, 0 for a zero eigenvalue."""
    vals = [spec.alpha, spec.beta, spec.gamma, spec.delta]
    if not any(vals):
        raise DegenerateDesign("all four eigenvalues are zero")
    return [Fraction(1, val) if val else Fraction(0) for val in vals]


def generalized_inverse(info: InformationMatrix) -> np.ndarray:
    """Exact rational Moore-Penrose generalized inverse of X^T X.

    G weights the four Kronecker products of I - J/n and J/n by the
    inverse eigenvalues, omitting any whose eigenvalue vanishes.  Its entry
    ((i, j), (k, l)) depends only on [i == k] and [j == l], so a 2 x 2 table
    is expanded to the dense matrix.  The result G satisfies M G M = M and
    G M G = G exactly in rationals.
    """
    wa, wb, wg, wd = _inverse_weights(spectrum(info))
    v1, v2 = info.v1, info.v2
    # projector entries indexed by [i == k]: I - J/n, then J/n
    c1, j1 = [Fraction(-1, v1), 1 - Fraction(1, v1)], Fraction(1, v1)
    c2, j2 = [Fraction(-1, v2), 1 - Fraction(1, v2)], Fraction(1, v2)
    table = np.array(
        [[wa * c1[s] * c2[t] + wb * c1[s] * j2 + wg * j1 * c2[t] + wd * j1 * j2
          for t in (0, 1)] for s in (0, 1)],
        dtype=object,
    )
    return _expand(table, v1, v2)


def classify_blocks(x: DesignMatrix):
    """Degree regularity of the SB-blocks, as (semi_regular, regular, k1, k2).

    Semi-regular: every left point of every block has degree k1 and every
    right point degree k2, with the same pair across blocks.  Regular adds
    k1 = k2.
    """
    if x.n_rows == 0:
        return BlockRegularity(False, False, None, None)
    left = x.masks.sum(axis=2)  # (N, v1) left degrees
    right = x.masks.sum(axis=1)  # (N, v2) right degrees
    k1 = int(left.flat[0])
    k2 = int(right.flat[0])
    if (left != k1).any() or (right != k2).any():
        return BlockRegularity(False, False, None, None)
    return BlockRegularity(True, k1 == k2, k1, k2)


def a_optimality(x: DesignMatrix) -> OptimalityReport:
    """Full diagnostic report: parameters, spectrum, A-criterion, verdicts.

    The A-criterion sums 1/eigenvalue over the (v1-1)(v2-1) basic-contrast
    eigenvalues, all equal to alpha here.  For semi-regular designs the
    attainable lower bound is (v1-1)^2 (v2-1)^2 / (mu (v1 v2 - k)) with
    k = k1 v1 measured from the blocks; equality plus the SBBD conditions
    yields the optimality verdict.
    """
    params, spec = _checked_spectrum(x)
    spanning = is_spanning(x)
    reg = classify_blocks(x)
    n_contrasts = (x.v1 - 1) * (x.v2 - 1)
    a_criterion = Fraction(n_contrasts, spec.alpha)
    a_lower_bound = None
    if reg.is_semi_regular:
        k = reg.k1 * x.v1
        a_lower_bound = Fraction(n_contrasts * n_contrasts, params.mu * (x.v1 * x.v2 - k))
    return OptimalityReport(
        params=params,
        is_spanning=spanning,
        is_semi_regular=reg.is_semi_regular,
        is_regular=reg.is_regular,
        k1=reg.k1,
        k2=reg.k2,
        spectral=spec,
        a_criterion=a_criterion,
        a_lower_bound=a_lower_bound,
        is_a_optimal_in_omega=(
            spanning and reg.is_semi_regular and a_criterion == a_lower_bound
        ),
    )
