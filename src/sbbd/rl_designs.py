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
{0, 1, 3, 9} mod 13, plus pairs3, whose four blocks (every pair of 1..3
and the full set) are typed out.  Every catalog design is re-verified on
construction.
References: Paley (1933); Handbook of Combinatorial Designs, 2nd ed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .design_core import DimensionError, FormatError, SbbdError, Violation, _check_indexable, _is_int, _json_int
from .ordered_designs import _prime_power


class NotRegular(Violation):
    """Some point does not appear in the common replication count."""


class NotPairBalanced(Violation):
    """Some point pair does not appear in the common pair count, or none appears at all."""


class NotADifferenceSet(Violation):
    """Developing the base block did not produce a pair-balanced design."""


class NotInCatalog(SbbdError):
    """No shipped design with the requested parameters."""


class CatalogMismatch(SbbdError):
    """A shipped catalog entry does not build the parameters it is filed under."""


@dataclass(frozen=True)
class BlockDesign:
    """A verified (r,lambda)-design; construct via verify_rl_design.

    `incidence` is the read-only, C-contiguous uint8 (b x v) matrix H with a
    1 at (i, p - 1) for each point p of block i, so H^T H = r I + lambda (J - I).
    Cast it to int64 or float64 before any product: uint8 arithmetic wraps
    past 255.  Designs with the same blocks in the same order are equal.
    """

    v: int
    r: int
    lam: int
    incidence: np.ndarray = field(repr=False, compare=False)

    def __eq__(self, other):  # v, r and lambda are counted from the incidence
        return isinstance(other, BlockDesign) and np.array_equal(self.incidence, other.incidence)

    @property
    def b(self) -> int:
        return self.incidence.shape[0]

    @property
    def block_sizes(self) -> tuple:
        return tuple(self.incidence.sum(axis=1).tolist())

    @property
    def is_bibd(self) -> bool:
        return len(set(self.block_sizes)) == 1

    @property
    def k(self):
        """Common block size, or None when sizes vary."""
        return self.block_sizes[0] if self.is_bibd else None


def _check_incidence(v: int, b: int) -> None:
    """DimensionError unless numpy can index the int64 (b x v) incidence matrix and its Gram."""
    _check_indexable(8 * max(int(b), int(v)) * int(v), f"the int64 incidence matrix or Gram of {v} points")


def _counted(h: np.ndarray) -> BlockDesign:
    """The BlockDesign with uint8 incidence h, once every count agrees.

    One integer Gram H^T H: its diagonal counts points, its strict upper
    triangle, in row-major (= combinations) order, counts pairs.  lambda = 0
    is rejected, because downstream composition needs genuine pair balance.
    """
    gram = h.T.astype(np.int64) @ h
    point_counts = np.diagonal(gram)
    r = int(point_counts[0])
    bad = np.flatnonzero(point_counts != r)
    if bad.size:
        point, count = int(bad[0]) + 1, int(point_counts[bad[0]])
        witness = {"point": point, "count": count, "expected": r}
        raise NotRegular("replication", witness, f"point {point} lies in {count} blocks, expected {r}")
    first, second = np.triu_indices(h.shape[1], 1)
    pair_counts = gram[first, second]
    lam = int(pair_counts[0])
    bad = np.flatnonzero(pair_counts != lam)
    if bad.size:
        k = bad[0]
        pair, count = (int(first[k]) + 1, int(second[k]) + 1), int(pair_counts[k])
        witness = {"pair": pair, "count": count, "expected": lam}
        raise NotPairBalanced("pair balance", witness, f"pair {pair} lies in {count} blocks, expected {lam}")
    if lam == 0:
        witness = {"pair": (1, 2), "count": 0, "expected": 1}
        raise NotPairBalanced("pair balance", witness, "pair coverage is zero; lambda = 0 designs are rejected")
    h.flags.writeable = False
    return BlockDesign(v=h.shape[1], r=r, lam=lam, incidence=h)


def verify_rl_design(v: int, blocks: list) -> BlockDesign:
    """Check the replication and pair-balance axioms by exhaustive counting.

    The first failed count raises NotRegular (condition "replication") or
    NotPairBalanced ("pair balance", also for lambda = 0), witness the point
    or pair, its count and the expected count.  A block that is not
    iterable, or a point that is a bool or not a Python or numpy integer, is
    a FormatError.
    """
    if not _is_int(v) or v < 2:
        raise DimensionError(f"need an integer v >= 2 points, got {v!r}")
    try:
        blocks = [list(blk) for blk in blocks]  # not sets, which would merge 1 with True or 1.0
    except TypeError:
        raise FormatError("blocks must be an iterable of iterables of points") from None
    for pts in blocks:
        if not all(map(_is_int, pts)):
            raise FormatError(f"block {pts} has a point that is not an integer")
        pts[:] = map(int, pts)  # a repeated point is scattered into H once
        if not pts:
            raise FormatError("empty block")
        if any(not 1 <= p <= v for p in pts):
            raise FormatError(f"block {sorted(set(pts))} has points outside 1..{v}")
    if not blocks:
        raise DimensionError("need at least one block")
    _check_incidence(v, len(blocks))
    h = np.zeros((len(blocks), v), dtype=np.uint8)
    h[np.repeat(np.arange(len(h)), list(map(len, blocks))), [p - 1 for blk in blocks for p in blk]] = 1
    return _counted(h)


def symmetric_bibd_from_difference_set(modulus: int, base_block) -> BlockDesign:
    """Develop base_block (residues mod modulus) into a symmetric BIBD.

    Block t is {x + t mod modulus : x in base_block}, shifted to points
    1..modulus.  The result is re-counted; a base block whose differences
    are not balanced raises NotADifferenceSet with the condition and witness
    of the count that failed; a base block that is not an iterable, or a
    residue that is not an integer, is a FormatError.
    """
    if not _is_int(modulus) or modulus < 2:
        raise DimensionError(f"need an integer modulus >= 2, got {modulus!r}")
    _check_incidence(modulus, modulus)  # before the shifts are built
    try:
        base_block = list(base_block)
    except TypeError:
        raise FormatError(f"base block {base_block!r} is not an iterable of residues") from None
    if not all(map(_is_int, base_block)):
        raise FormatError(f"base block {base_block} has a residue that is not an integer")
    base = sorted(int(x) % modulus for x in base_block)
    if len(set(base)) != len(base):
        raise FormatError("base block has repeated residues")
    shifts = np.add.outer(np.arange(modulus), np.array(base, dtype=np.int64)) % modulus  # row t: base + t
    h = np.zeros((modulus, modulus), dtype=np.uint8)
    h[np.arange(modulus)[:, None], shifts] = 1
    try:
        return _counted(h)
    except (NotRegular, NotPairBalanced) as exc:
        msg = f"base block {base} mod {modulus} does not develop into a BIBD: {exc}"
        raise NotADifferenceSet(exc.condition, exc.witness, msg) from exc


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
    # x and p - x have the same square, so x in 1..k gives every square once:
    # sorting them is np.unique without its lazy import of numpy.ma
    squares = np.sort(np.arange(1, k + 1) ** 2 % p)
    return (p, p, k, k, (p - 3) // 4), p, squares


def catalog_by_id(name: str) -> BlockDesign:
    """Catalog access by id: "pairs3", "pg23", "fano" or "qr<p>" (see _difference_set)."""
    if name == "pairs3":  # r = 3, lambda = 2, not a BIBD
        return verify_rl_design(3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]])
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
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # json.loads recurses per level
        raise FormatError(f"bad block-design JSON: {exc}") from exc
    return verify_rl_design(v, blocks)
