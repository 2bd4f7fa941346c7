"""Divergence everywhere: only scalars survive every approach path.

For a singular base point, every non-scalar matrix admits nearby invertibles
blowing its conjugate up; the search certifies this empirically.  Gershgorin
disks supply the quantitative certificate behind the delete-the-diagonal
transfer: bounded off-diagonals force a bounded family.
"""

import numpy as np

from conjlim import (
    conjugation_family_bound,
    construct_good_path,
    diagonal_bound_certificate,
    divergence_search,
    gershgorin_region,
    ginibre,
    kernel_algebra_basis,
    locality_probe,
    random_singular,
)

np.set_printoptions(precision=3, suppress=True, linewidth=100)
rng = np.random.default_rng(4)

print("=== the divergence search ===")
z = random_singular(3, 2, rng)
generic = ginibre(3, rng=rng)
out = divergence_search(generic, z, radius=0.1, budget=10_000, seed=0, stop_at=1e6)
print(f"generic A at a singular base: best norm {out.norm:.2e} "
      f"after {out.evaluations} evaluations ({out.rejected} candidates rejected, "
      f"{out.restarts} starts)")

basis = kernel_algebra_basis(z)
w = ginibre(len(basis), 1, rng).reshape(-1)
member = sum(c * b for c, b in zip(w, basis))
out = divergence_search(member, z, radius=0.1, budget=20_000, seed=1, stop_at=1e6)
print(f"kernel-invariant member (bounded along one path, still not all): "
      f"best norm {out.norm:.2e}")

lam = 1.5 - 2.0j
out = divergence_search(lam * np.eye(3), z, seed=2, budget=2_000)
print(f"scalar {lam}: conjugation fixes it, best norm = {out.norm:.12f} = |lambda|")

print("\n=== locality probe ===")
report = locality_probe(2.0 * np.eye(3), z, seed=3, samples=4, budget=2000)
print(f"scalar claim survives probing:      consistent = {report.consistent}")
report = locality_probe(generic, z, seed=4, samples=4, budget=4000)
print(f"non-scalar claim is falsified:      consistent = {report.consistent} "
      f"(witness norm {report.best_norm:.2e})")
report = locality_probe(generic, np.eye(3), r=0.05, seed=5, samples=4, budget=2000)
print(f"invertible base, small radius:      consistent = {report.consistent}")

print("\n=== Gershgorin certificates ===")
a = ginibre(4, rng=rng)
region = gershgorin_region(a)
eigs = np.linalg.eigvals(a)
print(f"eigenvalues inside the disk union: {region.contains(eigs, margin=1e-8)}")

cert = diagonal_bound_certificate(a)
print(f"sum|a_ii| = {cert.diag_sum:.3f} <= 2*sum R_j + sum|lambda_i| = {cert.bound:.3f}")

print("\n=== off-diagonal control of conjugation families ===")
zz = random_singular(3, 2, rng)
gp = construct_good_path(zz, order=2)
basis = kernel_algebra_basis(zz)
w = ginibre(len(basis), 1, rng).reshape(-1)
member = sum(c * b for c, b in zip(w, basis))
family = []
for t in np.geomspace(1e-1, 1e-5, 9):
    u = gp.at(float(t))
    family.append(u @ member @ np.linalg.inv(u))
report = conjugation_family_bound(family)
print(f"bounded member family: sup||B_k|| = {report.sup_full:.2f}, "
      f"sup||offdiag(B_k)|| = {report.sup_offdiag:.2f}")
print(f"transfer bound holds with constants ({report.slope_constant:.0f}, "
      f"{report.eigenvalue_sum:.2f}): {report.ok}")

a0 = np.ones((2, 2))
family = [np.diag([1.0, t]) @ a0 @ np.diag([1.0, 1.0 / t]) for t in np.geomspace(1e-1, 1e-8, 8)]
report = conjugation_family_bound(family)
print(f"family with exploding off-diagonals: vacuous = {report.vacuous}, ok = {report.ok}")
