#!/usr/bin/env python3
"""Block designs: verification, difference-set development, and the shipped
catalog of symmetric designs with prime-power block counts."""

import numpy as np

import sbbd

# a small (r,lambda)-design with mixed block sizes (so not a BIBD)
d = sbbd.verify_rl_design(3, [{1, 2}, {2, 3}, {1, 3}, {1, 2, 3}])
print(f"v={d.v} b={d.b} r={d.r} lambda={d.lam} sizes={d.block_sizes} BIBD={d.is_bibd}")

h = d.incidence  # uint8: cast before any product, as uint8 sums wrap past 255
print("incidence matrix H:")
print(h)
print("H^T H == r I + lambda (J - I):")
print(h.T.astype(np.int64) @ h)

# develop a difference set into the 7-point symmetric BIBD
fano = sbbd.symmetric_bibd_from_difference_set(7, [1, 2, 4])
print(f"\ndeveloped design: v={fano.v} b={fano.b} r={fano.r} k={fano.k} lambda={fano.lam}")
print("blocks:", [(np.flatnonzero(row) + 1).tolist() for row in fano.incidence])

# the catalog is one rule: qr<p> for every prime p >= 7 with p = 3 (mod 4)
print("\ncatalog:")
for name in ("fano", "qr11", "pg23", "qr19", "qr79", "qr127"):
    c = sbbd.catalog_by_id(name)
    print(f"  {name:6s} -> (v,b,r,k,lambda) = ({c.v},{c.b},{c.r},{c.k},{c.lam})")

try:
    sbbd.catalog_by_id("qr13")  # 13 = 1 (mod 4): no Paley design
except sbbd.NotInCatalog as exc:
    print("id outside the catalog:", exc)

# a base block that is not a difference set fails loudly
try:
    sbbd.symmetric_bibd_from_difference_set(7, [1, 2, 3])
except sbbd.NotADifferenceSet as exc:
    print("bad base block:", exc)
