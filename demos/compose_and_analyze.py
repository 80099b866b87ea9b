#!/usr/bin/env python3
"""The full construction pipeline: symmetric BIBD + ordered design ->
regular SBBD, with the spectrum read off Lambda, the exact generalized
inverse as four weights, and the A-optimality verdict."""

import sbbd

fano = sbbd.catalog_by_id("fano")
od = sbbd.construct_od1(7)
x = sbbd.compose(fano, od)

print(f"composed: {x.n_rows} x {x.v1 * x.v2} on K_{{{x.v1},{x.v2}}}")
# X^T X is double completely symmetric, so Lambda fixes all of it
params = sbbd.check_sbbd(x)
print("predicted Lambda:", sbbd.predicted_parameters(fano, od).lam)
print("measured Lambda: ", params.lam)
print("spanning guaranteed (s > b - r):", sbbd.spanning_guaranteed(fano, od))

# the four eigenvalues alpha, beta, gamma and delta are closed forms in Lambda
print("\nspectrum (value, multiplicity):", params.spectrum)
print("eigenvalues weighted by multiplicity:", sum(val * mult for val, mult in params.spectrum),
      "=", int(x.matrix.sum()), "ones in X = trace(X^T X)")

# G is four exact weights, one per eigenspace, so M G M = M reads
# w * lambda^2 = lambda on each eigenvalue
weights = sbbd.generalized_inverse(params)
print("G weights (1/alpha, 1/beta, 1/gamma, 1/delta):", [str(w) for w in weights])
print("M G M = M:", all(w * val * val == val for w, (val, _) in zip(weights, params.spectrum)))

report = sbbd.a_optimality(x)
print(f"\nregular blocks: k1 = {report.k1}, k2 = {report.k2}")
print(f"A-criterion = {report.a_criterion}, lower bound = {report.a_lower_bound}")
print("A-optimal in the semi-regular class:", report.is_a_optimal_in_omega)

# permutation layers stack new rows without disturbing balance: the
# identity, then every panel's columns shifted cyclically by one
shift = [[1, 2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 1]]
stacked = sbbd.permute_extension(x, shift)
print(f"\nwith one cyclic layer: {stacked.n_rows} rows,"
      f" Lambda = {sbbd.check_sbbd(stacked).lam}")
