from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sbbd

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURES


def _expand_lambda(v1: int, v2: int, lam) -> np.ndarray:
    """The int64 v1v2 x v1v2 matrix with panel blocks fixed by Lambda = (mu, l12, l21, l22).

    Diagonal panels are (mu - l12) I + l12 J, off-diagonal ones
    (l21 - l22) I + l22 J, assembled by np.kron.
    """
    mu, l12, l21, l22 = (int(v) for v in lam)
    eye, ones = np.eye(v2, dtype=np.int64), np.ones((v2, v2), dtype=np.int64)
    own, cross = (mu - l12) * eye + l12 * ones, (l21 - l22) * eye + l22 * ones
    return np.kron(np.eye(v1, dtype=np.int64), own - cross) + np.kron(
        np.ones((v1, v1), dtype=np.int64), cross
    )


def _dense_ginv(v1: int, v2: int, weights) -> np.ndarray:
    """G as a Fraction object array, from generalized_inverse's four weights.

    G = sum of w * (P (x) Q) over the four products of the centring
    projector I - J/n and the averaging projector J/n, weighted in
    (alpha, beta, gamma, delta) order: (C1, C2), (C1, A2), (A1, C2), (A1, A2).
    """

    def projectors(n):
        avg = np.full((n, n), Fraction(1, n), dtype=object)
        return np.eye(n, dtype=np.int64).astype(object) - avg, avg

    (c1, a1), (c2, a2) = projectors(v1), projectors(v2)
    wa, wb, wg, wd = weights
    return wa * np.kron(c1, c2) + wb * np.kron(c1, a2) + wg * np.kron(a1, c2) + wd * np.kron(a1, a2)


@pytest.fixture(scope="session")
def expand_lambda():
    return _expand_lambda


@pytest.fixture(scope="session")
def dense_ginv():
    return _dense_ginv


@pytest.fixture(scope="session")
def x22() -> sbbd.DesignMatrix:
    """The 9-block SBBD(3,3,9) golden design, read from its fixture CSV."""
    text = (FIXTURES / "design_3_3_9.csv").read_bytes()
    return sbbd.matrix_from_csv(text, 3, 3)


@pytest.fixture(scope="session")
def rl4() -> sbbd.BlockDesign:
    """The 4-block (r=3, lambda=2) design on 3 points (not a BIBD)."""
    return sbbd.verify_rl_design(3, [{1, 2}, {2, 3}, {1, 3}, {1, 2, 3}])


@pytest.fixture(scope="session")
def composed_b4(rl4) -> sbbd.ComposedDesign:
    """SBBD(4,3,12) from the 4-block design and OD_1(4,4)."""
    return sbbd.compose(rl4, sbbd.construct_od1(4))


@pytest.fixture(scope="session")
def fano_composed() -> sbbd.ComposedDesign:
    """Regular SBBD(7,7,42) from the 7-point symmetric BIBD and OD_1(7,7)."""
    return sbbd.compose(sbbd.catalog_by_id("fano"), sbbd.construct_od1(7))


@pytest.fixture(scope="session")
def single_edge_blocks() -> sbbd.DesignMatrix:
    """SBBD*(2,2,4): one single-edge block per edge of K_{2,2}.

    Satisfies the counting conditions with Lambda = (1,0,0,0) but fails
    spanning, so it exercises every SBBD*-only code path.
    """
    import numpy as np

    return sbbd.DesignMatrix(2, 2, np.eye(4, dtype=int))
