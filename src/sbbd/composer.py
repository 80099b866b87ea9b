"""Compose an (r,lambda)-design with an ordered design into a design matrix.

Row p of the composed matrix concatenates the rows of the incidence matrix
H = d.incidence named by row p of the ordered design: panel q holds h_{d_pq}.
The result lives on K_{s,v} with N = eta*(b^2 - b) rows and predicted
parameters

    (mu, l12, l21, l22) = (eta*r*(b-1), eta*lam*(b-1), eta*r*(r-1), eta*(r^2 - lam)).

permute_extension(x, perms) stacks X^(P) = [X P_1; ...; X P_u], one layer
per column permutation P_l of every panel, the identity included.  Each
layer keeps X's information matrix, so the parameters scale by u.

Spanning is guaranteed whenever s > b - r; otherwise the composed matrix is
only an SBBD* candidate and the spanning flag must be checked on the matrix.
"""

from __future__ import annotations

import numpy as np

from .design_core import DesignMatrix, DimensionError, SbbdParameters
from .ordered_designs import OrderedDesign
from .rl_designs import BlockDesign


def _check_indexes(d: BlockDesign, od: OrderedDesign) -> None:
    """DimensionError unless the ordered design's symbols index exactly the b blocks of d."""
    if od.n != d.b:
        raise DimensionError(f"ordered design on {od.n} symbols cannot index {d.b} blocks")


def predicted_parameters(d: BlockDesign, od: OrderedDesign) -> SbbdParameters:
    _check_indexes(d, od)
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


def spanning_guaranteed(d: BlockDesign, od: OrderedDesign) -> bool:
    """Sufficient condition for compose(d, od) to span: s > b - r."""
    _check_indexes(d, od)
    return od.s > d.b - d.r


def compose(d: BlockDesign, od: OrderedDesign) -> DesignMatrix:
    """Arrange incidence-matrix rows according to the ordered design.

    The ordered design's symbols index the b blocks of d, so its symbol
    count must equal b.  Panel q of the output is filled by column q of the
    ordered design.  Its Lambda is predicted_parameters(d, od), and it spans
    whenever spanning_guaranteed(d, od).
    """
    _check_indexes(d, od)
    stacked = d.incidence[od.rows - 1]  # (N, s, v): panel q of row p is H-row rows[p, q]
    return DesignMatrix(v1=od.s, v2=d.v, matrix=stacked.reshape(od.n_rows, od.s * d.v))


def permute_extension(x: DesignMatrix, perms) -> DesignMatrix:
    """Stack X P_1, ..., X P_u, where perms[l] permutes the columns of every panel.

    Output column j of each panel in layer l is input column perms[l][j], so
    the row 1..v2 reproduces x.  Each layer keeps x's information matrix, so
    the parameters scale by u.  perms must be u >= 1 rows, each a permutation
    of 1..v2 in integers or integral floats, not bools: else DimensionError.
    """
    number = (int, float, np.integer, np.floating)
    try:
        cells = np.asarray(perms, dtype=object)  # a ValueError when numpy cannot place ragged rows
        if not (
            cells.ndim == 2 and len(cells) >= 1 and cells.shape[1] == x.v2
            and all(isinstance(c, number) and not isinstance(c, bool) for c in cells.flat)
            and (np.sort(cells, axis=1) == np.arange(1, x.v2 + 1)).all()
        ):
            raise ValueError
    except ValueError:
        raise DimensionError(f"need u >= 1 rows of perms, each a permutation of 1..v2 = {x.v2}") from None
    layers = x.masks[:, :, cells.astype(np.int64) - 1]  # (N, v1, u, v2)
    return DesignMatrix(x.v1, x.v2, layers.transpose(2, 0, 1, 3).reshape(-1, x.v1 * x.v2))
