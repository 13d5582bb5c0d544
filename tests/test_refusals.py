"""Every typed refusal of the library: the exception type and its message."""
import pytest

import ehrtensor as et
from ehrtensor.polytopes import dilate_rows, scan_rows

SQUARE = et.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
CUBE = et.convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
SIMPLEX3 = et.HalfOpenSimplex.make([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
TRIANGLE = et.HalfOpenSimplex.make([(0, 0), (1, 0), (0, 1)])
VECTOR = et.SymTensor.from_vector((1, 2))
MATRIX = et.SymTensor.from_matrix([[1, 0], [0, 1]])

REFUSALS = {
    "interior moment at n = 0": (lambda: et.discrete_moment_interior(SQUARE, 1, 0),
                                 "interior enumeration needs n >= 1"),
    "interior points at n = 0": (lambda: et.interior_lattice_points(SQUARE, 0),
                                 "interior enumeration needs n >= 1"),
    "dilate rows at n = -1": (lambda: dilate_rows(SQUARE, -1),
                              "dilation factor must be nonnegative"),
    "row scan of no coordinate": (lambda: scan_rows([], [], []),
                                  "row scan needs at least one coordinate"),
    "hull of no point": (lambda: et.convex_hull([]), "no input points"),
    "hull of mixed dimensions": (lambda: et.convex_hull([(0, 0), (1, 0, 0)]),
                                 "points have mixed dimensions"),
    "random polytope of bound 0": (lambda: et.random_lattice_polytope(2, 0, 4, seed=1),
                                   "coordinate bound must be positive"),
    "polytope JSON without vertices": (lambda: et.polytope_from_json({}),
                                       "polytope JSON needs a 'vertices' array"),
    "polytope JSON of a wrong dim": (
        lambda: et.polytope_from_json({"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]]}),
        "declared dim 3 != ambient dim 2"),
    "Eulerian polynomial of index -1": (lambda: et.eulerian_polynomial(-1),
                                        "index must be nonnegative"),
    "2-simplex of two vertices": (lambda: et.HalfOpenSimplex.make([(0, 0), (1, 0)]),
                                  "a 2-simplex needs 3 vertices"),
    "half-open moment at r = -1": (lambda: et.moment_halfopen(TRIANGLE, -1, 1),
                                   "rank and dilation must be nonnegative"),
    "closed form on a 3-simplex": (lambda: et.h1_halfopen_2d(SIMPLEX3),
                                   "closed form is two-dimensional"),
    "half-open JSON without vertices": (
        lambda: et.halfopen_from_json({}), "half-open simplex JSON needs a 'vertices' array"),
    "definiteness of a vector": (lambda: et.classify_definiteness(VECTOR),
                                 "definiteness is a rank-2 notion"),
    "certificate of a vector": (lambda: et.sos_certificate(VECTOR),
                                "square certificates are a rank-2 notion"),
    "tensor of a wrong entry count": (lambda: et.SymTensor(2, 2, (1, 2)),
                                      "rank-2 tensor on Q^2 needs 3 entries, got 2"),
    "non-symmetric matrix": (lambda: et.SymTensor.from_matrix([[1, 2], [3, 4]]),
                             "matrix is not symmetric"),
    "scalar of a vector": (lambda: VECTOR.as_scalar(), "not a rank-0 tensor"),
    "matrix of a vector": (lambda: VECTOR.to_matrix(), "not a rank-2 tensor"),
    "empty polynomial": (lambda: et.TensorPolynomial(()), "need at least one coefficient"),
    "polynomial of mixed ranks": (lambda: et.TensorPolynomial((VECTOR, MATRIX)),
                                  "coefficient rank/dim not uniform"),
    "empty h-vector": (lambda: et.HrVector(()), "empty h-vector"),
    "h-vector of mixed ranks": (lambda: et.HrVector((VECTOR, MATRIX)),
                                "entry rank/dim not uniform"),
    "sum of h-vectors of unequal lengths": (
        lambda: et.HrVector((VECTOR,)) + et.HrVector((VECTOR, VECTOR)), "length mismatch"),
    "unimodular triangulation of a cube": (lambda: et.unimodular_triangulation(CUBE),
                                           "unimodular triangulation is a polygon operation"),
    "sparse decomposition of a cube": (lambda: et.sparse_decomposition(CUBE),
                                       "sparse decomposition is a polygon operation"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_typed_refusal(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
