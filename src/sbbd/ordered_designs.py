"""Finite fields GF(q) and ordered designs over them.

An ordered design with index eta on n symbols and s columns, s <= n, is an
eta*(n^2 - n) x s array over 1..n in which every row has s distinct symbols
and, for every ordered pair of distinct columns, every ordered pair (x, y)
of distinct symbols occurs in exactly eta rows.

For a prime power q = p^e the affine map c -> a + m*c over GF(q), with a
ranging over the field and m over its nonzero elements, fills the q^2 - q
rows of an index-1 ordered design with s = n = q.  GF(q) is found by search,
for every prime power alike: the first monic polynomial of degree e over
GF(p), in order of the base-p value of its lower coefficients, whose
quotient ring gives every nonzero element an inverse.  Verification never
trusts the construction: gf checks every field axiom on every triple, and
verify_od counts every ordered pair in every column pair.  An array that is
not an ordered design raises a Violation, RepeatedSymbolInRow or
PairCountMismatch, whose condition and witness name the first failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .design_core import DimensionError, FormatError, SbbdError, Violation, _is_int, int_rows_from_csv


class NotPrimePower(SbbdError):
    """q is not p^e for a prime p, or a GF(q) table fails the field axioms."""


class RepeatedSymbolInRow(Violation):
    """Some row holds a symbol twice."""


class PairCountMismatch(Violation):
    """Some ordered symbol pair occurs in a column pair other than eta times."""


def _prime_power(q: int):
    """Return (p, e) with q = p^e, or None.

    An order that is not a Python or numpy integer, or whose q x q tables
    numpy cannot index, is a DimensionError, raised before trial division,
    which below that bound takes at most about 55 000 steps.
    """
    if not _is_int(q):
        raise DimensionError(f"need an integer order q, got {q!r}")
    q = int(q)
    if q < 2:
        return None
    if q > math.isqrt(np.iinfo(np.intp).max):
        raise DimensionError(f"{q} is too large: q^2 exceeds the largest array index")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


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


def gf(q: int) -> FiniteField:
    """Build GF(q) for any prime power q = p^e, with verified field axioms.

    The reduction polynomial is the first monic x^e + c_{e-1} x^{e-1} + ...
    + c_0 in order of the value c_0 + c_1 p + ... + c_{e-1} p^{e-1} under
    which every nonzero element has an inverse, i.e. the first irreducible
    one.  For e = 1 that is x itself and the tables are plain arithmetic
    modulo p.
    """
    pe = _prime_power(q)
    if pe is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, e = pe
    powers = p ** np.arange(e)
    digits = np.arange(q)[:, None] // powers % p  # row m: the base-p digits of m
    add = (digits[:, None] + digits[None]) % p @ powers
    for low in digits:  # candidate x^e + low, in order of low's value
        times_x = np.eye(e, k=1, dtype=np.int64)  # d @ times_x: the digits of x*d
        times_x[-1] = -low
        by_x = [digits]  # by_x[k][m]: the digits of m*x^k
        for _ in range(1, e):
            by_x.append(by_x[-1] @ times_x % p)
        mul = np.einsum("bk,kad->abd", digits, np.array(by_x)) % p @ powers
        if (mul[1:] == 1).any(axis=1).all():
            break
    fld = FiniteField(p, e, add, mul)
    _check_axioms(fld)
    add.flags.writeable = False
    mul.flags.writeable = False
    return fld


def _check_axioms(fld: FiniteField) -> None:
    q = fld.q
    add, mul = fld.add, fld.mul
    # identities and exhaustive inverse existence
    if not (np.array_equal(add[0], np.arange(q)) and np.array_equal(mul[1], np.arange(q))):
        raise NotPrimePower(f"GF({q}) table identities failed")
    if not (mul[1:] == 1).any(axis=1).all():
        raise NotPrimePower(f"GF({q}): a nonzero element has no inverse")
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
    """A verified ordered design, from verify_od or construct_od1; equal to one with the same n and rows."""

    n: int
    s: int
    eta: int
    rows: np.ndarray = field(repr=False, compare=False)

    def __eq__(self, other):  # s and eta are counted from the rows
        return isinstance(other, OrderedDesign) and self.n == other.n and np.array_equal(self.rows, other.rows)

    def __post_init__(self):
        r = np.ascontiguousarray(self.rows, dtype=np.int64)
        r.flags.writeable = False
        object.__setattr__(self, "rows", r)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


def verify_od(m, n: int, s: int) -> OrderedDesign:
    """Verify the two ordered-design axioms by exhaustive counting.

    Derives eta from the row count and insists every ordered pair of
    distinct symbols in every column pair hits it.  The first failure is a
    RepeatedSymbolInRow, witness {"row"}, or a PairCountMismatch, witness
    {"columns", "pair", "count", "expected"}, all 1-based.
    """
    if not (_is_int(n) and _is_int(s) and n >= 2):  # n >= 2 for a pair of distinct symbols
        raise DimensionError(f"need integers n >= 2 and s, got n = {n!r} and s = {s!r}")
    try:
        raw = np.asarray(m)
        with np.errstate(invalid="ignore"):  # NaN and inf then fail the comparison
            arr = raw.astype(np.int64)
        if not np.array_equal(arr, raw):
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # also None, ragged, or an int beyond int64
        raise FormatError("symbols must be integers") from None
    if arr.ndim != 2 or arr.shape[1] != s:
        raise DimensionError(f"array shape {arr.shape} does not match s = {s}")
    if s > n:
        raise DimensionError(f"s = {s} exceeds symbol count n = {n}")
    if arr.size == 0:
        raise DimensionError("empty array")
    if arr.min() < 1 or arr.max() > n:
        raise FormatError(f"symbols must lie in 1..{n}")

    ordered = np.sort(arr, axis=1)
    bad = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if bad.size:
        row = int(bad[0]) + 1
        raise RepeatedSymbolInRow("distinct symbols", {"row": row}, f"row {row} repeats a symbol")

    # with s = 1 there are no column pairs; the row count alone fixes eta
    n_rows = arr.shape[0]
    if n_rows % (n * n - n) != 0:
        raise DimensionError(
            f"{n_rows} rows is not a multiple of n^2 - n = {n * n - n}"
        )
    eta = n_rows // (n * n - n)
    off_diag = ~np.eye(n, dtype=bool)
    for c1, c2 in permutations(range(s), 2):
        codes = (arr[:, c1] - 1) * n + (arr[:, c2] - 1)
        counts = np.bincount(codes, minlength=n * n).reshape(n, n)
        if (counts[off_diag] != eta).any():
            x, y = np.argwhere((counts != eta) & off_diag)[0]
            columns, pair, count = (c1 + 1, c2 + 1), (int(x) + 1, int(y) + 1), int(counts[x, y])
            witness = {"columns": columns, "pair": pair, "count": count, "expected": eta}
            message = f"columns {columns}: ordered pair {pair} occurs {count} times, expected {eta}"
            raise PairCountMismatch("pair count", witness, message)
    return OrderedDesign(n=n, s=s, eta=eta, rows=arr)


def construct_od1(q: int) -> OrderedDesign:
    """Index-1 ordered design with s = n = q from the affine maps of GF(q).

    Row (a, m), a in GF(q), m nonzero, column c holds the symbol of a + m*c,
    shifted to 1..q.  Output is re-verified before returning.
    """
    fld = gf(q)
    q = fld.q  # a Python int, so the row arithmetic cannot wrap
    a = np.repeat(np.arange(q), q - 1)  # a-major, then m
    m = np.tile(np.arange(1, q), q)
    rows = fld.add[a[:, None], fld.mul[m]] + 1  # fld.mul[m][r, c] = m_r * c
    return verify_od(rows, n=q, s=q)


# OD CSV: one row per line, comma-separated symbols, no header, as ASCII bytes.


def od_to_csv(od: OrderedDesign) -> bytes:
    return ("\n".join(",".join(map(str, row)) for row in od.rows.tolist()) + "\n").encode()


def od_from_csv(text: bytes) -> OrderedDesign:
    arr = int_rows_from_csv(text, "ordered-design", "symbol")
    return verify_od(arr, n=int(arr.max()), s=arr.shape[1])
