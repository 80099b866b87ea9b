"""Construction and exact verification of (r,lambda)-designs and BIBDs.

A block design on points 1..v is an (r,lambda)-design when every point lies
in exactly r blocks and every unordered pair of distinct points lies in
exactly lambda blocks.  Constant block size k makes it a BIBD; b = v makes a
BIBD symmetric.  Verification is exhaustive pair counting, never trusted
parameters.

The built-in catalog ships symmetric BIBDs whose block count is a prime
power: quadratic-residue difference-set designs for primes v = 3 (mod 4) up
to 79, plus the (13, 4, 1) design developed from the base block {0, 1, 3, 9}
mod 13.  Every catalog entry is re-verified on construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .design_core import DimensionError, FormatError, SbbdError, _json_int


class NotRegular(SbbdError):
    """Some point does not appear in the common replication count."""

    def __init__(self, point: int, count: int, expected: int):
        self.point, self.count, self.expected = point, count, expected
        super().__init__(
            f"point {point} lies in {count} blocks, expected {expected}"
        )


class NotPairBalanced(SbbdError):
    """Some point pair does not appear in the common pair count."""

    def __init__(self, pair: tuple, count: int, expected: int, message=None):
        self.pair, self.count, self.expected = pair, count, expected
        super().__init__(
            message or f"pair {pair} lies in {count} blocks, expected {expected}"
        )


class NotADifferenceSet(SbbdError):
    """Developing the base block did not produce a pair-balanced design."""


class NotInCatalog(SbbdError):
    """No shipped design with the requested parameters."""


class CatalogMismatch(SbbdError):
    """A shipped catalog entry does not build the parameters it is filed under."""


@dataclass(frozen=True)
class BlockDesign:
    """A verified (r,lambda)-design; construct via verify_rl_design."""

    v: int
    blocks: tuple
    r: int
    lam: int
    block_sizes: tuple

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def is_bibd(self) -> bool:
        return len(set(self.block_sizes)) == 1

    @property
    def k(self):
        """Common block size, or None when sizes vary."""
        return self.block_sizes[0] if self.is_bibd else None

    @property
    def is_symmetric(self) -> bool:
        return self.is_bibd and self.b == self.v


def _incidence(v: int, blocks) -> np.ndarray:
    """(b x v) 0/1 matrix with a 1 at (i, p - 1) for each point p of block i."""
    h = np.zeros((len(blocks), v), dtype=np.int64)
    h[np.repeat(np.arange(len(blocks)), [len(blk) for blk in blocks]),
      [p - 1 for blk in blocks for p in blk]] = 1
    return h


def verify_rl_design(v: int, blocks: list) -> BlockDesign:
    """Check the replication and pair-balance axioms by exhaustive counting.

    Raises NotRegular / NotPairBalanced with a witness on the first failed
    count.  Designs with lambda = 0 are rejected: downstream composition
    needs genuine pair balance.
    """
    if v < 2:
        raise DimensionError("need at least 2 points")
    norm = []
    for blk in blocks:
        pts = frozenset(int(p) for p in blk)
        if not pts:
            raise FormatError("empty block")
        if any(not 1 <= p <= v for p in pts):
            raise FormatError(f"block {sorted(pts)} has points outside 1..{v}")
        norm.append(pts)
    if not norm:
        raise DimensionError("need at least one block")

    # one integer Gram H^T H: its diagonal counts points, its strict upper
    # triangle, in row-major (= combinations) order, counts pairs
    h = _incidence(v, norm)
    gram = h.T @ h
    point_counts = np.diagonal(gram)
    r = int(point_counts[0])
    bad = np.flatnonzero(point_counts != r)
    if bad.size:
        raise NotRegular(int(bad[0]) + 1, int(point_counts[bad[0]]), r)
    first, second = np.triu_indices(v, 1)
    pair_counts = gram[first, second]
    lam = int(pair_counts[0])
    bad = np.flatnonzero(pair_counts != lam)
    if bad.size:
        k = bad[0]
        raise NotPairBalanced((int(first[k]) + 1, int(second[k]) + 1), int(pair_counts[k]), lam)
    if lam == 0:
        raise NotPairBalanced(
            (1, 2), 0, 1, "pair coverage is zero; lambda = 0 designs are rejected"
        )

    return BlockDesign(
        v=v,
        blocks=tuple(norm),
        r=r,
        lam=lam,
        block_sizes=tuple(len(blk) for blk in norm),
    )


def incidence_matrix(d: BlockDesign) -> np.ndarray:
    """(b x v) incidence matrix H; H^T H = r I + lambda (J - I) exactly."""
    h = _incidence(d.v, d.blocks)
    h.flags.writeable = False
    return h


def symmetric_bibd_from_difference_set(modulus: int, base_block) -> BlockDesign:
    """Develop base_block (residues mod modulus) into a symmetric BIBD.

    Block t is {x + t mod modulus : x in base_block}, shifted to points
    1..modulus.  The result is re-verified; a base block whose differences
    are not balanced raises NotADifferenceSet.
    """
    base = sorted(int(x) % modulus for x in base_block)
    if len(set(base)) != len(base):
        raise FormatError("base block has repeated residues")
    blocks = [
        frozenset((x + t) % modulus + 1 for x in base) for t in range(modulus)
    ]
    try:
        return verify_rl_design(modulus, blocks)
    except (NotRegular, NotPairBalanced) as exc:
        raise NotADifferenceSet(
            f"base block {base} mod {modulus} does not develop into a BIBD: {exc}"
        ) from exc


def all_pairs_plus_full(v: int) -> BlockDesign:
    """The (r,lambda)-design whose blocks are every pair plus the full set.

    Gives r = v, lambda = 2, b = v(v-1)/2 + 1 with mixed block sizes, so it
    is never a BIBD.  v = 3 yields the 4-block design with r = 3, lambda = 2.
    """
    blocks = [frozenset(p) for p in combinations(range(1, v + 1), 2)]
    blocks.append(frozenset(range(1, v + 1)))
    return verify_rl_design(v, blocks)


def _qr_base(p: int) -> list:
    return sorted({(x * x) % p for x in range(1, p)})


# (v, b, r, k, lambda) -> builder.  Symmetric entries have b = v, r = k.
_QR_PRIMES = (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79)

_CATALOG = {}
for _p in _QR_PRIMES:
    _k = (_p - 1) // 2
    _lam = (_p - 3) // 4
    _CATALOG[(_p, _p, _k, _k, _lam)] = (_p, _qr_base(_p))
_CATALOG[(13, 13, 4, 4, 1)] = (13, [0, 1, 3, 9])

# Memorable ids for the CLI and for composition helpers.
CATALOG_IDS = {
    "fano": (7, 7, 3, 3, 1),
    "qr11": (11, 11, 5, 5, 2),
    "pg23": (13, 13, 4, 4, 1),
    "qr19": (19, 19, 9, 9, 4),
    "qr23": (23, 23, 11, 11, 5),
    "qr31": (31, 31, 15, 15, 7),
    "qr43": (43, 43, 21, 21, 10),
    "qr47": (47, 47, 23, 23, 11),
    "qr59": (59, 59, 29, 29, 14),
    "qr67": (67, 67, 33, 33, 16),
    "qr71": (71, 71, 35, 35, 17),
    "qr79": (79, 79, 39, 39, 19),
    # not a BIBD; the 4-block workhorse for small composed examples
    "pairs3": "pairs3",
}


def catalog_lookup(v: int, b: int, r: int, k: int, lam: int) -> BlockDesign:
    """Return a verified design with the given parameters, or NotInCatalog."""
    key = (v, b, r, k, lam)
    if key not in _CATALOG:
        raise NotInCatalog(f"no shipped design with (v,b,r,k,lambda) = {key}")
    modulus, base = _CATALOG[key]
    d = symmetric_bibd_from_difference_set(modulus, base)
    got = (d.v, d.b, d.r, d.k, d.lam)
    if got != key:
        raise CatalogMismatch(f"catalog entry {key} builds a design with {got}")
    return d


def catalog_by_id(name: str) -> BlockDesign:
    """Catalog access by memorable id ("fano", "qr11", "pg23", "pairs3", ...)."""
    if name not in CATALOG_IDS:
        raise NotInCatalog(f"unknown catalog id {name!r}")
    if name == "pairs3":
        return all_pairs_plus_full(3)
    return catalog_lookup(*CATALOG_IDS[name])


# Block-design JSON ingestion: {"v": int, "blocks": [[points], ...]}, 1-based.


def design_from_json(text: str) -> BlockDesign:
    """Read {"v": int, "blocks": [[point, ...], ...]}; v and every point must be JSON integers."""
    try:
        payload = json.loads(text)
        v = _json_int(payload["v"])
        blocks = [[_json_int(p) for p in blk] for blk in payload["blocks"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad block-design JSON: {exc}") from exc
    return verify_rl_design(v, blocks)


def design_to_json(d: BlockDesign) -> str:
    return json.dumps({"v": d.v, "blocks": [sorted(blk) for blk in d.blocks]})
