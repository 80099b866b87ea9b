"""Finite fields GF(q) and ordered designs over them.

An ordered design with index eta on n symbols and s columns, s <= n, is an
eta*(n^2 - n) x s array over 1..n in which every row has s distinct symbols
and, for every ordered pair of distinct columns, every ordered pair (x, y)
of distinct symbols occurs in exactly eta rows.

For a prime power q the affine map c -> a + m*c over GF(q), with a ranging
over the field and m over its nonzero elements, fills the q^2 - q rows of an
index-1 ordered design with s = n = q.  Verification never trusts the
construction: verify_od counts every ordered pair in every column pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design_core import DimensionError, FormatError, SbbdError, int_rows_from_csv


class NotPrimePower(SbbdError):
    """q is not p^e for a prime p (or is a prime power beyond the shipped tables)."""


class RepeatedSymbolInRow(SbbdError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} repeats a symbol")


class PairCountMismatch(SbbdError):
    def __init__(self, columns: tuple, pair: tuple, count: int, expected: int):
        self.columns, self.pair, self.count = columns, pair, count
        self.expected = expected
        super().__init__(
            f"columns {columns}: ordered pair {pair} occurs {count} times,"
            f" expected {expected}"
        )


# Monic irreducible polynomials used for the extension fields, as coefficient
# tuples (c0, c1, ..., c_{e-1}) of x^e = -(c0 + c1 x + ...); irreducibility is
# implied by the exhaustive inverse check run at construction time.
_IRREDUCIBLE = {
    4: (1, 1),          # x^2 + x + 1 over GF(2)
    8: (1, 1, 0),       # x^3 + x + 1
    9: (1, 0),          # x^2 + 1 over GF(3)
    16: (1, 1, 0, 0),   # x^4 + x + 1
    25: (2, 1),         # x^2 + x + 2 over GF(5)
    27: (1, 2, 0),      # x^3 + 2x + 1
    32: (1, 0, 1, 0, 0),  # x^5 + x^2 + 1
    49: (3, 1),         # x^2 + x + 3 over GF(7)
}

MAX_FIELD_ORDER = 49


def _prime_power(q: int):
    """Return (p, e) with q = p^e, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return (q, 1)
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


@dataclass(frozen=True)
class FiniteField:
    """GF(q) with elements 0..q-1 read as base-p coefficient vectors.

    Element m encodes the polynomial sum_i d_i x^i where (d_0, d_1, ...) are
    the base-p digits of m.  Addition and multiplication tables are built
    once; construction verifies that every nonzero element has an inverse
    and checks associativity and distributivity on every triple.
    """

    p: int
    e: int
    add: np.ndarray = field(repr=False)
    mul: np.ndarray = field(repr=False)

    @property
    def q(self) -> int:
        return self.p**self.e

    def inverse(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(np.flatnonzero(self.mul[x] == 1)[0])


def _digits(m: int, p: int, e: int) -> list:
    out = []
    for _ in range(e):
        out.append(m % p)
        m //= p
    return out


def _value(digits, p: int) -> int:
    val = 0
    for d in reversed(digits):
        val = val * p + d
    return val


def _poly_mul_mod(a, b, p, reduction):
    e = len(reduction)
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # fold x^d down using x^e = -(reduction) repeatedly
    for d in range(2 * e - 2, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i, ri in enumerate(reduction):
                prod[d - e + i] = (prod[d - e + i] - c * ri) % p
    return prod[:e]


def gf(q: int) -> FiniteField:
    """Build GF(q) with verified field axioms: q prime, or a prime power <= 49.

    Prime fields are plain arithmetic modulo q; extension fields need one of
    the shipped reduction polynomials.
    """
    pe = _prime_power(q)
    if pe is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, e = pe
    if e > 1 and q > MAX_FIELD_ORDER:
        raise NotPrimePower(
            f"field tables are shipped only for q <= {MAX_FIELD_ORDER}"
        )
    if e == 1:
        idx = np.arange(q, dtype=np.int64)
        add = (idx[:, None] + idx[None, :]) % q
        mul = (idx[:, None] * idx[None, :]) % q
    else:
        reduction = list(_IRREDUCIBLE[q])
        vecs = [_digits(m, p, e) for m in range(q)]
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for x in range(q):
            for y in range(x, q):
                s = _value([(a + b) % p for a, b in zip(vecs[x], vecs[y])], p)
                m = _value(_poly_mul_mod(vecs[x], vecs[y], p, reduction), p)
                add[x, y] = add[y, x] = s
                mul[x, y] = mul[y, x] = m
    fld = FiniteField(p, e, add, mul)
    _check_axioms(fld)
    add.flags.writeable = False
    mul.flags.writeable = False
    return fld


def _check_axioms(fld: FiniteField) -> None:
    q = fld.q
    add, mul = fld.add, fld.mul
    # identities and exhaustive inverse existence (for all shipped q)
    if not (np.array_equal(add[0], np.arange(q)) and np.array_equal(mul[1], np.arange(q))):
        raise NotPrimePower(f"GF({q}) table identities failed")
    for x in range(1, q):
        if 1 not in mul[x]:
            raise NotPrimePower(f"GF({q}): element {x} has no inverse")
    # associativity and distributivity, exhaustive over all q^3 triples, for
    # a slab of x values at a time (about 2^16 triples) so memory stays O(q^2);
    # with m = mul[slab], mul[m][x, y, z] = (x y) z and m[:, mul][x, y, z] = x (y z)
    step = max(1, 2**16 // (q * q))
    for lo in range(0, q, step):
        m = mul[lo : lo + step]
        if not np.array_equal(mul[m], m[:, mul]):
            raise NotPrimePower(f"GF({q}): multiplication not associative")
        if not np.array_equal(m[:, add], add[m[:, :, None], m[:, None, :]]):
            raise NotPrimePower(f"GF({q}): distributivity failed")


@dataclass(frozen=True)
class OrderedDesign:
    """A verified ordered design; construct via verify_od or construct_od1."""

    n: int
    s: int
    eta: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.ascontiguousarray(self.rows, dtype=np.int64)
        r.flags.writeable = False
        object.__setattr__(self, "rows", r)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


def verify_od(m, n: int, s: int) -> OrderedDesign:
    """Verify the two ordered-design axioms by exhaustive counting.

    Derives eta from the first column pair and insists every ordered pair of
    distinct symbols in every column pair hits the same count.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2 symbols for a pair of distinct symbols, got n = {n}")
    arr = np.asarray(m, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != s:
        raise DimensionError(f"array shape {arr.shape} does not match s = {s}")
    if s > n:
        raise DimensionError(f"s = {s} exceeds symbol count n = {n}")
    if arr.size == 0:
        raise DimensionError("empty array")
    if arr.min() < 1 or arr.max() > n:
        raise FormatError(f"symbols must lie in 1..{n}")

    for idx, row in enumerate(arr):
        if len(set(row.tolist())) != s:
            raise RepeatedSymbolInRow(idx + 1)

    # with s = 1 there are no column pairs; the row count alone fixes eta
    n_rows = arr.shape[0]
    if n_rows % (n * n - n) != 0:
        raise DimensionError(
            f"{n_rows} rows is not a multiple of n^2 - n = {n * n - n}"
        )
    eta = n_rows // (n * n - n)
    off_diag = ~np.eye(n, dtype=bool)
    for c1 in range(s):
        for c2 in range(s):
            if c1 == c2:
                continue
            codes = (arr[:, c1] - 1) * n + (arr[:, c2] - 1)
            counts = np.bincount(codes, minlength=n * n).reshape(n, n)
            if (counts[off_diag] != eta).any():
                x, y = np.argwhere((counts != eta) & off_diag)[0]
                raise PairCountMismatch(
                    (c1 + 1, c2 + 1),
                    (int(x) + 1, int(y) + 1),
                    int(counts[x, y]),
                    eta,
                )
    return OrderedDesign(n=n, s=s, eta=eta, rows=arr)


def construct_od1(q: int) -> OrderedDesign:
    """Index-1 ordered design with s = n = q from the affine maps of GF(q).

    Row (a, m), a in GF(q), m nonzero, column c holds the symbol of a + m*c,
    shifted to 1..q.  Output is re-verified before returning.
    """
    fld = gf(q)
    a = np.repeat(np.arange(q), q - 1)  # a-major, then m
    m = np.tile(np.arange(1, q), q)
    rows = fld.add[a[:, None], fld.mul[m]] + 1  # fld.mul[m][r, c] = m_r * c
    return verify_od(rows, n=q, s=q)


# OD CSV: one row per line, comma-separated symbols, no header.


def od_to_csv(od: OrderedDesign) -> str:
    return "\n".join(",".join(str(int(x)) for x in row) for row in od.rows) + "\n"


def od_from_csv(text: str) -> OrderedDesign:
    arr = int_rows_from_csv(text, "ordered-design", "symbol")
    return verify_od(arr, n=int(arr.max()), s=arr.shape[1])
