#!/usr/bin/env python3
"""Finite fields and ordered designs: construction over GF(q) and the
exhaustive pair-count verification."""

import numpy as np

import sbbd

# GF(4) arithmetic: elements 0..3 are bit vectors over GF(2)
fld = sbbd.gf(4)
print("GF(4) multiplication table:")
print(fld.mul)
print("inverse of 2:", int(np.flatnonzero(fld.mul[2] == 1)[0]))

od3 = sbbd.construct_od1(3)
print(f"\nOD_1(3,3): {od3.n_rows} rows, eta = {od3.eta}")
print(od3.rows)

# every ordered pair of distinct symbols appears once in every column pair
for q in (2, 3, 4, 5, 7, 8, 9):
    od = sbbd.construct_od1(q)
    verified = sbbd.verify_od(od.rows, n=q, s=q)
    print(f"OD_1({q},{q}): rows = {od.n_rows} = q^2 - q, eta = {verified.eta}")

# stacking two copies doubles the index
od = sbbd.construct_od1(3)
doubled = sbbd.verify_od(np.vstack([od.rows, od.rows]), n=3, s=3)
print(f"\nstacked copy: eta = {doubled.eta}")

# corrupting an entry breaks the pair counts
rows = od.rows.copy()
rows[0, 0], rows[0, 1] = rows[0, 1], rows[0, 0]
try:
    sbbd.verify_od(rows, n=3, s=3)
except sbbd.PairCountMismatch as exc:
    print("corrupted array:", exc)

try:
    sbbd.gf(6)
except sbbd.NotPrimePower as exc:
    print("gf(6):", exc)
