"""Construction and exact verification of (r,lambda)-designs and BIBDs.

A block design on points 1..v is an (r,lambda)-design when every point lies
in exactly r blocks and every unordered pair of distinct points lies in
exactly lambda blocks.  Constant block size k makes it a BIBD; b = v makes a
BIBD symmetric.  Verification is exhaustive pair counting, never trusted
parameters.

The built-in catalog ships symmetric BIBDs whose block count is a prime
power, each developed from a difference set by one rule (_difference_set):
the quadratic-residue (Paley) design qr<p> for every prime p >= 7 with
p = 3 (mod 4), and the (13, 4, 1) design pg23 from the base block
{0, 1, 3, 9} mod 13.  Every catalog design is re-verified on construction.
References: Paley (1933); Handbook of Combinatorial Designs, 2nd ed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .design_core import DimensionError, FormatError, SbbdError, _is_int, _json_int
from .ordered_designs import _prime_power


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
    needs genuine pair balance.  A point that is a bool, or not a Python or
    numpy integer, is a FormatError.
    """
    if not _is_int(v) or v < 2:
        raise DimensionError(f"need an integer v >= 2 points, got {v!r}")
    norm = []
    for blk in blocks:
        pts = list(blk)  # checked before a set merges 1 with True or 1.0
        if not all(map(_is_int, pts)):
            raise FormatError(f"block {pts} has a point that is not an integer")
        pts = frozenset(map(int, pts))
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
    are not balanced raises NotADifferenceSet; a residue that is not an
    integer is a FormatError.
    """
    base_block = list(base_block)
    if not all(map(_is_int, base_block)):
        raise FormatError(f"base block {base_block} has a residue that is not an integer")
    base = sorted(int(x) % modulus for x in base_block)
    if len(set(base)) != len(base):
        raise FormatError("base block has repeated residues")
    # every shift in one array first: a design too large for memory fails here
    shifts = (np.array(base) + np.arange(modulus)[:, None]) % modulus + 1
    blocks = [frozenset(row) for row in shifts.tolist()]
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


def _difference_set(name: str):
    """The catalog's one rule: (key, modulus, base) for an id, or None.

    key is the (v, b, r, k, lambda) the developed design must count to.
    "pg23" is the (13, 4, 1) base block {0, 1, 3, 9}.  "qr<p>", with p in
    ASCII digits and no leading zero, is the Paley difference set of the
    squares mod p for every prime p >= 7 with p = 3 (mod 4); "fano" is qr7.
    """
    if name == "pg23":
        return (13, 13, 4, 4, 1), 13, [0, 1, 3, 9]
    digits = "7" if name == "fano" else name.removeprefix("qr")
    if name == digits or not (digits.isascii() and digits.isdecimal()) or digits[0] == "0":
        return None
    p = int(digits)
    if p < 7 or p % 4 != 3 or _prime_power(p) != (p, 1):
        return None
    k = (p - 1) // 2
    # x and p - x have the same square, so x in 1..k gives every square once
    squares = np.unique(np.arange(1, k + 1) ** 2 % p)
    return (p, p, k, k, (p - 3) // 4), p, squares


def catalog_lookup(v: int, b: int, r: int, k: int, lam: int) -> BlockDesign:
    """Return a verified design with the given parameters, or NotInCatalog."""
    key = (v, b, r, k, lam)
    name = "pg23" if v == 13 else f"qr{v}"
    rule = _difference_set(name)
    if rule is None or rule[0] != key:
        raise NotInCatalog(f"no shipped design with (v,b,r,k,lambda) = {key}")
    return catalog_by_id(name)


def catalog_by_id(name: str) -> BlockDesign:
    """Catalog access by id: "pairs3", "pg23", "fano" or "qr<p>" (see _difference_set)."""
    if name == "pairs3":  # not a BIBD; the 4-block workhorse for small examples
        return all_pairs_plus_full(3)
    rule = _difference_set(name)
    if rule is None:
        raise NotInCatalog(f"unknown catalog id {name!r}")
    key, modulus, base = rule
    d = symmetric_bibd_from_difference_set(modulus, base)
    got = (d.v, d.b, d.r, d.k, d.lam)
    if got != key:
        raise CatalogMismatch(f"catalog entry {key} builds a design with {got}")
    return d


# Block-design JSON ingestion: {"v": int, "blocks": [[points], ...]}, 1-based.


def design_from_json(text: bytes) -> BlockDesign:
    """Read {"v": int, "blocks": [[point, ...], ...]}; v and every point must be JSON integers."""
    try:
        payload = json.loads(text)
        v = _json_int(payload["v"])
        blocks = [[_json_int(p) for p in blk] for blk in payload["blocks"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad block-design JSON: {exc}") from exc
    return verify_rl_design(v, blocks)
