"""Half-open simplices: box points, Eulerian numerators, non-monotonicity.

Removing facets from a simplex makes inclusion-exclusion on decompositions
unnecessary: the half-open pieces partition the polytope.  Their h-vectors
come from the integer points of a half-open parallelepiped (the box points)
and Eulerian polynomials.  Strikingly, half-open h-matrices need not be
positive semidefinite even when every closed polygon's are; translating the
simplex changes the verdict.
"""
from ehrtensor import (HalfOpenSimplex, box_slices, classify_definiteness,
                       convex_hull, discrete_moment, eulerian_polynomial,
                       half_open_decomposition, hr_halfopen, moment_halfopen,
                       unimodular_triangulation, SymTensor)

print("Eulerian polynomials (numerators of sum n^j t^n):")
for j in range(5):
    print(f"  A_{j}:", eulerian_polynomial(j))

print("\nbox points of the three half-open unit triangles:")
unit = [(0, 0), (1, 0), (0, 1)]
for removed in ([], [0], [1, 2]):
    s = HalfOpenSimplex.make(unit, removed)
    print(f"  removed {removed}: slices {box_slices(s).slices}")

print("\na half-open triangle whose middle h-matrix is indefinite:")
s = HalfOpenSimplex.make([(2, -2), (3, -2), (2, -1)], removed=[0])
h = hr_halfopen(s, 2)
for i, e in enumerate(h.entries):
    if not e.is_zero:
        print(f"  h_{i} =", [[str(x) for x in row] for row in e.to_matrix()],
              "->", classify_definiteness(e).classification)

print("\n...but its translate to the origin is fine:")
t = HalfOpenSimplex.make([(0, 0), (1, 0), (0, 1)], removed=[0])
for i, e in enumerate(hr_halfopen(t, 2).entries):
    if not e.is_zero:
        print(f"  h_{i} =", [[str(x) for x in row] for row in e.to_matrix()],
              "->", classify_definiteness(e).classification)

print("\nhalf-open cells of a polygon partition its moments:")
polygon = convex_hull([(0, 0), (3, 0), (1, 2), (0, 2)])
tri = unimodular_triangulation(polygon)
cells = half_open_decomposition(tri.points, tri.triangles)
total = SymTensor.zero(2, 2)
for c in cells:
    total = total + moment_halfopen(c, 2, 2)
print("  sum of cell moments == polygon moment at n=2:",
      total == discrete_moment(polygon, 2, 2))
