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
in one vectorised comparison and only Lambda is kept; then the ones of X,
counted apart from the Gram, must be mu v1 v2 = trace(X^T X).  A design
that fails (II)-(V) has no closed form: every entry point raises the first
ConditionViolation, a Violation with condition "II".."V" and witness {"panel": i}
or {"panels": (i, j)} plus the 1-based "position" in X_i^T X_j, before any other result.

When (II)-(V) hold the information matrix X^T X is double completely
symmetric, so Lambda fixes it and its spectrum: SbbdParameters.alpha and
SbbdParameters.spectrum are closed forms in Lambda.  A Moore-Penrose
generalized inverse G follows from the same decomposition, dropping
zero-eigenvalue terms, as the exact rational weights 1/alpha, 1/beta,
1/gamma and 1/delta.  No dense form of X^T X or G is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design_core import DesignMatrix, DimensionError, SbbdError, SbbdParameters, Violation


class ConditionViolation(Violation):
    """One of conditions (II)-(V) fails; condition is "II".."V", witness the first bad panel position."""


class TraceMismatch(Violation):
    """X has other than mu v1 v2 = trace(X^T X) ones; condition "trace", witness {"ones", "expected"}."""


class ContrastsNotEstimable(SbbdError):
    """alpha <= 0: the basic contrasts cannot be estimated."""


@dataclass(frozen=True)
class OptimalityReport:
    params: SbbdParameters
    is_spanning: bool
    is_semi_regular: bool
    is_regular: bool
    k1: int | None
    k2: int | None
    a_criterion: Fraction
    a_lower_bound: Fraction | None
    is_a_optimal_in_omega: bool


def check_sbbd(x: DesignMatrix) -> SbbdParameters:
    """Verify conditions (II)-(V) exactly and return the measured parameters.

    X^T X is one float64 BLAS product, compared in float64: its entries and
    partial sums are counts of at most N, so both are exact while N < 2^53.
    Raises ConditionViolation for the first bad panel pair X_i^T X_j in
    row-major order, its diagonal before its off-diagonal, and positions in
    row-major order, then TraceMismatch unless X has mu v1 v2 ones.  The
    spanning condition (I) that tells an SBBD from an SBBD* is is_spanning().
    """
    if x.v1 < 2 or x.v2 < 2:
        raise DimensionError("analysis needs v1 >= 2 and v2 >= 2")
    if x.n_rows == 0:
        raise DimensionError("need at least one block")
    m = x.matrix.astype(np.float64)
    gram = m.T @ m
    del m
    v1, v2 = x.v1, x.v2
    p = gram.reshape(v1, v2, v1, v2).transpose(0, 2, 1, 3)  # p[i, j] = X_i^T X_j
    lam = [int(v) for v in p[0, :2, 0, :2].ravel()]  # [mu, l12, l21, l22]
    on = np.eye(v2, dtype=bool)
    same = np.arange(v1)
    bad = p != np.where(on, lam[2], lam[3])
    bad[same, same] = p[same, same] != np.where(on, lam[0], lam[1])
    pairs = np.flatnonzero(bad.any(axis=(2, 3)))
    if pairs.size == 0:
        ones, trace = int(np.count_nonzero(x.matrix)), lam[0] * v1 * v2
        if ones != trace:
            message = f"X has {ones} ones, but mu v1 v2 = {trace}"
            raise TraceMismatch("trace", {"ones": ones, "expected": trace}, message)
        return SbbdParameters(v1, v2, x.n_rows, *lam)
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
    condition = ("II", "III", "IV", "V")[k]
    message = (
        f"off-diagonal of {prod} at {pos} is {found}, expected {expected}"
        if k % 2
        else f"diagonal of {prod} is {found} at {pos[0]}, expected {expected}"
    )
    raise ConditionViolation(condition, witness, f"condition ({condition}) violated: {message}")


def is_spanning(x: DesignMatrix) -> bool:
    """Condition (I): every block touches every point on both sides."""
    return bool(x.masks.any(axis=2).all() and x.masks.any(axis=1).all())


def _estimable(x: DesignMatrix) -> SbbdParameters:
    """check_sbbd(x); raises its first ConditionViolation, then ContrastsNotEstimable unless alpha > 0."""
    params = check_sbbd(x)
    if params.alpha <= 0:
        raise ContrastsNotEstimable(f"alpha = {params.alpha} <= 0; basic contrasts are not estimable")
    return params


def generalized_inverse(info: SbbdParameters) -> tuple:
    """The Moore-Penrose generalized inverse G of X^T X, from Lambda, as its four weights.

    G weights the four Kronecker products of I - J/n and J/n that span the
    eigenspaces of X^T X by the inverse eigenvalues, with 0 for a vanishing
    eigenvalue.  Returns those exact weights (1/alpha, 1/beta, 1/gamma,
    1/delta) as Fractions, in info.spectrum order; no dense form is built.
    An all-zero Lambda gives four zero weights: the inverse of the zero
    matrix is zero.
    """
    return tuple(Fraction(1, val) if val else Fraction(0) for val, _ in info.spectrum)


def classify_blocks(x: DesignMatrix):
    """The common degrees (k1, k2) of semi-regular SB-blocks, else None.

    Semi-regular: every left point of every block has degree k1 and every
    right point degree k2, with the same pair across blocks.  Regular adds
    k1 = k2.  A design with no blocks is not semi-regular.
    """
    if x.n_rows == 0:
        return None
    left = x.masks.sum(axis=2)  # (N, v1) left degrees
    right = x.masks.sum(axis=1)  # (N, v2) right degrees
    k1 = int(left.flat[0])
    k2 = int(right.flat[0])
    if (left != k1).any() or (right != k2).any():
        return None
    return k1, k2


def a_optimality(x: DesignMatrix) -> OptimalityReport:
    """Full diagnostic report: parameters (and so the spectrum), A-criterion, verdicts.

    The A-criterion sums 1/eigenvalue over the (v1-1)(v2-1) basic-contrast
    eigenvalues, all equal to alpha here.  For semi-regular designs the
    attainable lower bound is (v1-1)^2 (v2-1)^2 / (mu (v1 v2 - k)) with
    k = k1 v1 measured from the blocks; equality plus the SBBD conditions
    yields the optimality verdict.
    """
    params = _estimable(x)
    spanning = is_spanning(x)
    degrees = classify_blocks(x)
    k1, k2 = degrees or (None, None)
    n_contrasts = (x.v1 - 1) * (x.v2 - 1)
    a_criterion = Fraction(n_contrasts, params.alpha)
    a_lower_bound = None
    if degrees:
        a_lower_bound = Fraction(n_contrasts * n_contrasts, params.mu * (x.v1 * x.v2 - k1 * x.v1))
    return OptimalityReport(
        params=params,
        is_spanning=spanning,
        is_semi_regular=degrees is not None,
        is_regular=degrees is not None and k1 == k2,
        k1=k1,
        k2=k2,
        a_criterion=a_criterion,
        a_lower_bound=a_lower_bound,
        is_a_optimal_in_omega=spanning and a_criterion == a_lower_bound,
    )
