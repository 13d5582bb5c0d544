"""Exact definiteness, sum-of-squares certificates, reflexivity.

Definiteness of rational symmetric matrices is decided by the inertia of an
exact congruence diagonalization (the signs of its rational diagonal; no
numerics), and positive semidefinite matrices get exact rational
sum-of-squares certificates from the same congruence.  Reflexive polytopes are
recognized by facet right-hand sides and equivalently by palindromic
h-vectors of even rank.
"""
from ehrtensor import (check_h2_psd, classify_definiteness, convex_hull,
                       is_reflexive, palindromic, sos_certificate,
                       sparse_decomposition, to_hr_vector, SymTensor)

m = SymTensor.from_matrix([[2, 1], [1, 2]])
print("certificate for [[2,1],[1,2]]:")
for lam, u in sos_certificate(m).terms:
    print(f"  {lam} * ({', '.join(map(str, u))})^2")

tri = convex_hull([(0, 1), (-1, -7), (1, -4)])
print("\nevery rank-2 h-entry of a polygon is PSD (with certificates):")
for i, rep in enumerate(check_h2_psd(tri)):
    print(f"  h_{i}: {rep.classification}")

print("\nindefinite example with exact witness:")
rep = classify_definiteness(SymTensor.from_matrix([[1, 2], [2, 1]]))
print(f"  classification {rep.classification}, witness {rep.witness},"
      f" value {rep.witness_value}")

print("\nsparse decomposition: covering lattice points by 3-4 point pieces")
polygon = convex_hull([(0, 0), (4, 1), (3, 4), (-1, 2)])
pieces = sparse_decomposition(polygon)
print(f"  {len(pieces)} pieces, sizes",
      sorted(len(p.vertices) for p in pieces))

print("\nreflexivity vs palindromicity (rank 0 and rank 2):")
for verts in ([(-1, -1), (1, -1), (-1, 1), (1, 1)],
              [(1, 0), (0, 1), (-1, -1)],
              [(2, 0), (0, 2), (-1, -1)]):
    p = convex_hull(verts)
    h0 = to_hr_vector(p, 0)
    h2 = to_hr_vector(p, 2)
    print(f"  {verts}: reflexive={is_reflexive(p)}"
          f" palindromic(h*)={palindromic(h0)} palindromic(h^2)={palindromic(h2)}")
