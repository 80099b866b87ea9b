"""Compose an (r,lambda)-design with an ordered design into a design matrix.

Row p of the composed matrix concatenates the incidence-matrix rows named by
row p of the ordered design: panel q holds h_{d_pq}.  The result lives on
K_{s,v} with N = eta*(b^2 - b) rows and predicted parameters

    (mu, l12, l21, l22) = (eta*r*(b-1), eta*lam*(b-1), eta*r*(r-1), eta*(r^2 - lam)).

Right-permutation layers stack extra copies X_i -> X_i P without changing
the per-layer information matrix, scaling the parameters by the layer count.
Spanning is guaranteed whenever s > b - r; otherwise the composed matrix is
only an SBBD* candidate and the spanning flag must be checked on the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design_core import DesignMatrix, DimensionError, SbbdParameters
from .ordered_designs import OrderedDesign
from .rl_designs import BlockDesign, incidence_matrix


@dataclass(frozen=True)
class ComposedDesign:
    x: DesignMatrix
    predicted: SbbdParameters
    source: tuple  # ((v, b, r, lambda), (n, s, eta))
    spanning_guaranteed: bool


def predicted_parameters(d: BlockDesign, od: OrderedDesign) -> SbbdParameters:
    eta, b, r, lam = od.eta, d.b, d.r, d.lam
    return SbbdParameters(
        v1=od.s,
        v2=d.v,
        n_rows=eta * (b * b - b),
        mu=eta * r * (b - 1),
        lambda12=eta * lam * (b - 1),
        lambda21=eta * r * (r - 1),
        lambda22=eta * (r * r - lam),
    )


def spanning_guaranteed(s: int, b: int, r: int) -> bool:
    """Sufficient condition for the composed design to span: s > b - r."""
    if s > b:
        raise DimensionError(f"s = {s} cannot exceed block count b = {b}")
    return s > b - r


def compose(d: BlockDesign, od: OrderedDesign) -> ComposedDesign:
    """Arrange incidence-matrix rows according to the ordered design.

    The ordered design's symbols index the b blocks of d, so its symbol
    count must equal b.  Panel q of the output is filled by column q of the
    ordered design.
    """
    if od.n != d.b:
        raise DimensionError(
            f"ordered design on {od.n} symbols cannot index {d.b} blocks"
        )
    h = incidence_matrix(d).astype(np.uint8)
    # rows[p, q] = index of the H-row placed in panel q; reshape concatenates
    # the s chosen rows of H side by side.
    stacked = h[od.rows - 1]  # (N, s, v)
    x = DesignMatrix(v1=od.s, v2=d.v, matrix=stacked.reshape(od.n_rows, od.s * d.v))
    return ComposedDesign(
        x=x,
        predicted=predicted_parameters(d, od),
        source=((d.v, d.b, d.r, d.lam), (od.n, od.s, od.eta)),
        spanning_guaranteed=spanning_guaranteed(od.s, d.b, d.r),
    )


def _as_index(perm, v2: int) -> np.ndarray:
    """Validate a 1-based permutation of 1..v2 and return it 0-based."""
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (v2,):
        raise DimensionError(f"permutation length {p.shape} != v2 = {v2}")
    if sorted(p.tolist()) != list(range(1, v2 + 1)):
        raise DimensionError("not a permutation of 1..v2")
    return p - 1


def permute_panels(x: DesignMatrix, perm) -> DesignMatrix:
    """Apply one column permutation inside every panel: X_i -> X_i P.

    Output column j of each panel is input column perm[j] (1-based).  The
    information matrix is unchanged because every X_i^T X_j is completely
    symmetric.
    """
    idx = _as_index(perm, x.v2)
    return DesignMatrix(x.v1, x.v2, x.masks[:, :, idx].reshape(x.n_rows, x.v1 * x.v2))


def permute_extension(x: DesignMatrix, perms: list) -> DesignMatrix:
    """Stack x over its panel-permuted copies, one per permutation.

    The identity layer is implicit, so the output has N*(1 + len(perms))
    rows and its measured parameters are the base parameters scaled by
    u = 1 + len(perms).
    """
    layers = [x.matrix]
    for perm in perms:
        layers.append(permute_panels(x, perm).matrix)
    return DesignMatrix(x.v1, x.v2, np.vstack(layers))


def cyclic_shift_perms(v2: int, u: int) -> list:
    """The u-1 nontrivial cyclic shifts used by the composition presets."""
    if u < 1:
        raise DimensionError("layer count u must be >= 1")
    return [
        [(j + t) % v2 + 1 for j in range(v2)]  # 1-based images of columns 1..v2
        for t in range(1, u)
    ]
