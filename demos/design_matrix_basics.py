#!/usr/bin/env python3
"""Tour of the core types: the design matrix, whose rows are SB-blocks, its
SB-block JSON form, panels, and exact condition checking on a 9-block design
of K_{3,3}."""

import numpy as np

import sbbd

# The 9-block design on K_{3,3}: every block has 6 of the 9 edges, as the
# ASCII bytes of its CSV
rows = b"""
0,1,1,1,1,0,1,1,0
1,0,1,0,1,1,0,1,1
1,1,0,1,0,1,1,0,1
0,1,1,0,1,1,1,0,1
1,0,1,1,0,1,1,1,0
1,1,0,1,1,0,0,1,1
0,1,1,1,0,1,0,1,1
1,0,1,1,1,0,1,0,1
1,1,0,0,1,1,1,1,0
""".strip()

x = sbbd.matrix_from_csv(rows, v1=3, v2=3)
print(f"design matrix: {x.n_rows} rows x {x.v1 * x.v2} columns")

# column (i-1)*v2 + j carries edge (i, j), so row k is block k;
# x.masks[k] views the same uint8 bytes as a v1 x v2 mask
edges = (np.argwhere(x.masks[0]) + 1).tolist()
print(f"first block edges: {edges}")

# SB-block JSON lists each row's edges; the round trip is bit exact
text = sbbd.blocks_to_json(x)
print(f"SB-block JSON, {len(text)} characters: {text[:62]}...")
back = sbbd.blocks_from_json(text)
print("round-trip exact:", np.array_equal(back.matrix, x.matrix))

# panel X_i, the v2 columns of left point i, is x.masks[:, i - 1]
panels = [x.masks[:, i] for i in range(x.v1)]
print("panel shapes:", [p.shape for p in panels])
print("panel 1:")
print(panels[0])

# exact verification of the counting conditions
params = sbbd.check_sbbd(x)
print(f"Lambda = {params.lam}  (mu, l12, l21, l22)")
print("spanning:", sbbd.is_spanning(x))
print("eigenvalue x multiplicity:", sbbd.spectrum(params).pairs())

# flip any single bit and some condition must break
m = x.matrix.copy()
m[0, 0] ^= 1
try:
    sbbd.check_sbbd(sbbd.DesignMatrix(3, 3, m))
except sbbd.ConditionViolation as exc:
    print("after one bit flip:", exc)
    print(f"  condition {exc.condition}, witness {exc.witness}")
