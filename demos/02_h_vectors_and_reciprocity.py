"""h-tensor vectors, the shifted binomial basis, and reciprocity.

Writing the dilation polynomial in the basis C(n+m-i, m) gives the h-tensor
vector: entry 1 is the moment of the polytope itself, the top entry the
moment of its interior, and the full sum is (dim+r)! times the volume
moment.  Evaluating the polynomial at negative dilations recovers interior
moments up to sign.
"""
import math

from ehrtensor import (convex_hull, discrete_moment, discrete_moment_interior,
                       ehrhart_tensor_polynomial, hr_vector_to_polynomial,
                       moment_tensor, to_hr_vector, SymTensor)

square = convex_hull([(-1, -1), (1, -1), (-1, 1), (1, 1)])

print("counting h-vector (rank 0) of the symmetric square:")
h0 = to_hr_vector(square, 0)
print("  ", [str(e.as_scalar()) for e in h0.entries], "(palindromic: reflexive!)")

print("\nrank-2 h-vector:")
h2 = to_hr_vector(square, 2)
for i, e in enumerate(h2.entries):
    print(f"  h_{i} =", [[str(x) for x in row] for row in e.to_matrix()])

print("\nidentities:")
print("  h_1 equals the full moment:", h2[1] == discrete_moment(square, 2, 1))
print("  top entry equals the interior moment:",
      h2[len(h2) - 1] == discrete_moment_interior(square, 2, 1))
total = SymTensor.zero(2, 2)
for e in h2.entries:
    total = total + e
print("  entry sum equals (d+r)! volume moment:",
      total == moment_tensor(square, 2) * math.factorial(4))

expanded = hr_vector_to_polynomial(h2)
print("\nbinomial-basis expansion reproduces the dilation polynomial:",
      all(expanded.evaluate(n) == discrete_moment(square, 2, n) for n in range(6)))

print("\nreciprocity: value at -n vs the interior moment of nP")
poly = ehrhart_tensor_polynomial(square, 2)
for n in (1, 2, 3):
    lhs = poly.evaluate(-n)
    rhs = discrete_moment_interior(square, 2, n)
    print(f"  n={n}: L(-n) == (+1) * interior moment:", lhs == rhs)
