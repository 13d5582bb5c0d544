"""Shared corpus polytopes and independent brute-force oracles.

The oracles here deliberately avoid the library's facet/scan machinery:
membership goes through exact barycentric sign tests over vertex triples
(Caratheodory) and interior membership through supporting-line strictness,
so enumeration results are cross-checked by a genuinely different route.
The linear-algebra oracles (Leibniz determinants, Fraction Gauss-Jordan,
Fraction congruence elimination) likewise share nothing with the library's
integer eliminations, and the moment polynomial's oracle solves a
Vandermonde system with them; the volume and facet moments' oracle sums one
``Fraction`` tensor per simplex, each volume a Leibniz determinant.  The
integer all-dilates oracle maps the closed moments of every dilate to h with
the library's numerator map; it reads neither the volume nor the facet sum,
from which production's h (d >= 4) and verify's oracle h (d <= 3) fill in
entries.  The point
expansion of row scans, the tensor pushforward and the binomial translation
expansion are the right-hand sides of identities the library must satisfy.
The hull's vertices, which the library reads off its boundary's corners,
meet the rule of one dot product per point and facet.
"""
from __future__ import annotations

import inspect
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, prod

import pytest

import ehrtensor as et
from ehrtensor import ehrhart
from ehrtensor.polytopes import placing_triangulation, scan_rows
from ehrtensor.tensors import moment_of_points, multi_indices, vsub


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def in_triangle(p, a, b, c) -> bool:
    orient = _cross(a, b, c)
    if orient == 0:
        return False
    s1 = _cross(a, b, p)
    s2 = _cross(b, c, p)
    s3 = _cross(c, a, p)
    if orient > 0:
        return s1 >= 0 and s2 >= 0 and s3 >= 0
    return s1 <= 0 and s2 <= 0 and s3 <= 0


def oracle_polygon_points(vertices, n: int) -> list[tuple[int, int]]:
    """Lattice points of n*conv(vertices), by triple membership over a box."""
    verts = [tuple(v) for v in vertices]
    scaled = [(n * x, n * y) for x, y in verts]
    if n == 0:
        return [(0, 0)]
    xs = [p[0] for p in scaled]
    ys = [p[1] for p in scaled]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if any(in_triangle(p, a, b, c) for a, b, c in combinations(scaled, 3)):
                out.append(p)
    return out


def oracle_polygon_interior_points(vertices, n: int) -> list[tuple[int, int]]:
    """Interior lattice points via strictness against every supporting line."""
    verts = [tuple(v) for v in vertices]
    scaled = [(n * x, n * y) for x, y in verts]
    support = []
    for a, b in combinations(scaled, 2):
        if a == b:
            continue
        signs = {(_cross(a, b, p) > 0) - (_cross(a, b, p) < 0) for p in scaled}
        signs.discard(0)
        if len(signs) <= 1:
            side = signs.pop() if signs else 1
            support.append((a, b, side))
    out = []
    for p in oracle_polygon_points(vertices, n):
        if all(_cross(a, b, p) * side > 0 for a, b, side in support):
            out.append(p)
    return out


def record_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so that every call appends its arguments to the list returned.

    A record maps each parameter name to its value, whether it was passed by
    position or by keyword, with the defaults filled in.
    """
    calls, fn = [], getattr(module, name)
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def oracle_moment(points, r: int, dim: int = 2) -> et.SymTensor:
    """Moment sum computed straight from a point list."""
    acc = et.SymTensor.zero(r, dim)
    for p in points:
        acc = acc + et.outer_power(p, r, dim)
    return acc


def box_rows(bounds, constraints):
    """``scan_rows`` of a box and constraints, with no shadow besides the box."""
    return scan_rows(bounds, constraints, [()] * (len(bounds) - 1))


def scan_points(bounds, constraints):
    """All integer points in a box satisfying linear constraints.

    Same constraint format as ``scan_rows``; points come out in
    lexicographic order, expanded from its rows.
    """
    if not bounds:
        if all(c >= 0 for _, c in constraints):
            yield ()
        return
    for prefix, lo, hi, _, _ in box_rows(bounds, constraints):
        for t in range(lo, hi + 1):
            yield prefix + (t,)


def box_filter_rows(bounds, constraints):
    """Rows of a box under linear constraints, by testing every box point.

    One ``(prefix, closed, strict)`` per prefix of the first d-1 coordinates
    that admits a point, in lexicographic order: the last coordinates with
    every ``normal . x <= rhs``, and those with every one strict.
    """
    def meets(x, strict):
        return all(sum(a * b for a, b in zip(normal, x)) < rhs if strict else
                   sum(a * b for a, b in zip(normal, x)) <= rhs for normal, rhs in constraints)

    lo, hi = bounds[-1]
    rows = []
    for prefix in product(*(range(a, b + 1) for a, b in bounds[:-1])):
        closed = [t for t in range(lo, hi + 1) if meets(prefix + (t,), False)]
        if closed:
            rows.append((prefix, closed, [t for t in closed if meets(prefix + (t,), True)]))
    return rows


def dot_product_vertices(points, facets) -> tuple:
    """The vertices among sorted, distinct ``points`` of their hull with these facets:
    a point is a vertex iff no other point lies on every facet it lies on, each
    incidence read off one dot product ``normal . x == rhs``."""
    on = [{i for i, f in enumerate(facets) if sum(a * b for a, b in zip(f.normal, x)) == f.rhs}
          for x in points]
    return tuple(x for k, x in enumerate(points)
                 if not any(on[k] <= t for j, t in enumerate(on) if j != k))


NAMED_SOLIDS = {
    # a Reeve tetrahedron: no interior point, yet its dilates have them
    "reeve_tetrahedron": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)],
    # a prism over a tetrahedron with a slanted top: its side facets are
    # parallel to the last axis
    "slanted_prism": [(0, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                      (0, 0, 0, 1), (2, 0, 0, 3), (0, 1, 0, 1), (0, 0, 1, 2)],
}


def apply_linear_map(t: et.SymTensor, matrix) -> et.SymTensor:
    """Push a tensor forward along the linear map ``x -> M x``.

    ``(M_* T)_{i_1..i_r} = sum_j M_{i_1 j_1} ... M_{i_r j_r} T_{j_1..j_r}``;
    for ``T = outer_power(x, r)`` this is ``outer_power(M x, r)``.  M may be
    rectangular (rows x t.dim); the result lives in the row dimension.
    """
    d = t.dim
    dout = len(matrix)
    if any(len(row) != d for row in matrix):
        raise ValueError("matrix column count must match tensor dimension")
    vals = []
    for m in multi_indices(dout, t.rank):
        acc = 0
        for js in product(range(d), repeat=t.rank):
            coeff = 1
            for i, j in zip(m, js):
                coeff *= matrix[i][j]
            if coeff:
                acc += coeff * t.get(js)
        vals.append(acc)
    return et.SymTensor(t.rank, dout, tuple(vals))


def translation_covariance_rhs(p: et.Polytope, r: int, n: int, t) -> et.SymTensor:
    """Binomial expansion of the moment of a translated polytope.

    ``sum_j sym_product(L^(r-j)(nP), (n t)^j)``, the binomial coefficients
    carried by the unnormalized product: the exact value the moment of the
    translate must equal (dilation scales the translation).
    """
    acc = et.SymTensor.zero(r, p.dim)
    nt = tuple(n * c for c in t)
    for j in range(r + 1):
        acc = acc + et.sym_product(et.discrete_moment(p, r - j, n), et.outer_power(nt, j, p.dim))
    return acc


def leibniz_det(a):
    """Determinant as the signed sum over permutations (sign by inversion count)."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total


def cofactor_cross(vectors, dim):
    """Normal to d-1 vectors in Z^d by cofactor expansion along the missing row."""
    normal = []
    for j in range(dim):
        minor = [[row[c] for c in range(dim) if c != j] for row in vectors]
        normal.append((-1) ** j * leibniz_det(minor))
    return tuple(normal)


def fraction_rref(a):
    """Reduced row echelon form of a in Fractions, pivoting on the first nonzero entry.

    Returns ``(rows, pivots)``: ``pivots[k]`` is the pivot column of row k.
    Stops once every row has a pivot.
    """
    rows = [[Fraction(x) for x in row] for row in a]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        if rk == len(rows):
            break
        piv = next((r for r in range(rk, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = 1 / rows[rk][col]
        rows[rk] = [x * inv for x in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rk])]
        pivots.append(col)
    return rows, pivots


def fraction_congruence(matrix):
    """``(diag, C)`` with C^t M C = diag(diag), by symmetric elimination in Fractions.

    Each pivot clears its row with the column operation
    ``C_j -= (M_tj / M_tt) C_t``.  A zero pivot swaps in the first later
    nonzero diagonal entry; failing that, it adds the first later column j
    with ``M_tj != 0`` to column t.  The integer kernel ``positivity._congruence``,
    read in Q as ``D_kk = A_kk / (s_k^2 L)`` and ``C = X / s``, must give the
    same values.
    """
    d = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    c = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]

    def col_add(dst, src, f):
        for i in range(d):
            a[i][dst] += f * a[i][src]
        for i in range(d):
            a[dst][i] += f * a[src][i]
        for i in range(d):
            c[i][dst] += f * c[i][src]

    def col_swap(i, j):
        for r in range(d):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(d):
            a[i][r], a[j][r] = a[j][r], a[i][r]
        for r in range(d):
            c[r][i], c[r][j] = c[r][j], c[r][i]

    for t in range(d):
        if a[t][t] == 0:
            j = next((j for j in range(t + 1, d) if a[j][j] != 0), None)
            if j is not None:
                col_swap(t, j)
            else:
                j = next((j for j in range(t + 1, d) if a[t][j] != 0), None)
                if j is None:
                    continue
                col_add(t, j, Fraction(1))
        piv = a[t][t]
        for j in range(t + 1, d):
            if a[t][j] != 0:
                col_add(j, t, -a[t][j] / piv)
    return [a[i][i] for i in range(d)], c


def fraction_inverse(a):
    """Inverse of a square matrix by :func:`fraction_rref` of ``[a | I]``; None if singular."""
    n = len(a)
    rows, pivots = fraction_rref([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows]


def fraction_vandermonde_oracle(p: et.Polytope, r: int):
    """``(polynomial, h-vector)`` of L^r from closed moments of nP, n = 0..dim+r.

    In ``Fraction`` tensor arithmetic, sharing nothing with the library's
    interpolation: the coefficients come from :func:`fraction_inverse` of the
    Vandermonde matrix of the nodes, the h-entries from alternating binomial
    sums.  No interior moment and no reciprocity enters either.
    """
    m = p.dim + r
    values = [et.discrete_moment(p, r, n) for n in range(m + 1)]
    inv = fraction_inverse([[n ** k for k in range(m + 1)] for n in range(m + 1)])
    coeffs, entries = [], []
    for k in range(m + 1):
        acc = et.SymTensor.zero(r, p.dim)
        for j in range(m + 1):
            acc = acc + values[j] * inv[k][j]
        coeffs.append(acc)
    for i in range(m + 1):
        acc = et.SymTensor.zero(r, p.dim)
        for j in range(i + 1):
            acc = acc + values[j] * ((-1) ** (i - j) * comb(m + 1, i - j))
        entries.append(acc)
    return et.TensorPolynomial(tuple(coeffs)), et.HrVector(tuple(entries))


def all_dilates_oracle(p: et.Polytope, r: int) -> et.HrVector:
    """h-vector from the closed moments of nP, n = 0..dim+r, in integers.

    The library's numerator map on the closed moments of every dilate, with
    no interior moment, no reciprocity and no volume or facet moment, so the
    identities that fill in entries of h can be checked on it.
    """
    m = p.dim + r
    closed = [ehrhart._moments(p, r, n, ehrhart.CLOSED)[0] for n in range(m + 1)]
    return ehrhart._hr(p, r, ehrhart._numerator(closed, m))


def fraction_simplex_moment(verts, r: int, dim: int, volume: int) -> et.SymTensor:
    """Integral of x^r over a k-simplex of normalized volume ``volume`` (k! vol).

    ``volume * r!/(k+r)! * h_r`` with h_r the complete homogeneous tensor of
    the vertices (Baldoni et al. 2011), in ``SymTensor`` arithmetic: the
    tensors ``H_j = j! h_j`` come from the vertex power sums p_i by Newton's
    identity ``j H_j = sum_{i=1..j} i! sym_product(p_i, H_(j-i))``, and the
    result is scaled by the ``Fraction`` ``volume / (k+r)!``.
    """
    powers = [moment_of_points(verts, j, dim) for j in range(1, r + 1)]
    hs = [et.SymTensor.scalar(dim, 1)]
    for j in range(1, r + 1):
        acc = et.SymTensor.zero(j, dim)
        for i in range(1, j + 1):
            acc = acc + et.sym_product(powers[i - 1], hs[j - i]) * factorial(i)
        hs.append(et.SymTensor(j, dim, tuple(e // j for e in acc.entries)))
    return hs[r] * Fraction(volume, factorial(len(verts) - 1 + r))


def fraction_volume_and_facet_moments(p: et.Polytope, r: int):
    """``(moment_tensor, second_coefficient_facets)`` of p, one ``SymTensor`` per simplex.

    Sums :func:`fraction_simplex_moment` over the simplices of the placing
    triangulation of ``p.vertices`` and, halved, over its boundary faces, each
    volume taken by :func:`leibniz_det` or as the gcd of :func:`cofactor_cross`:
    the library's one boundary pass, its Euler weights and its stored volumes
    are met by tensor arithmetic over the solid simplices.
    """
    simplices, boundary = placing_triangulation(p.vertices)
    volume = facets = et.SymTensor.zero(r, p.dim)
    for simplex in simplices:
        vs = [p.vertices[i] for i in simplex]
        det = abs(leibniz_det([vsub(v, vs[0]) for v in vs[1:]]))
        volume = volume + fraction_simplex_moment(vs, r, p.dim, det)
    for face, _, _ in boundary:
        vs = [p.vertices[i] for i in face]
        g = gcd(*cofactor_cross([vsub(v, vs[0]) for v in vs[1:]], p.dim))
        facets = facets + fraction_simplex_moment(vs, r, p.dim, g)
    return volume, facets * Fraction(1, 2)


# ---------------------------------------------------------------------------
# corpus

NAMED_POLYGONS = {
    "unit_square": [(0, 0), (1, 0), (0, 1), (1, 1)],
    "unit_triangle": [(0, 0), (1, 0), (0, 1)],
    "sym_square": [(-1, -1), (1, -1), (-1, 1), (1, 1)],
    "neg_def_triangle": [(0, 1), (-1, -7), (1, -4)],
    "indef_triangle": [(0, -4), (0, 4), (-1, 0)],
    "reflexive_triangle": [(1, 0), (0, 1), (-1, -1)],
    "dilated_reflexive_triangle": [(2, 0), (0, 2), (-1, -1)],
    "rect_3x1": [(0, 0), (3, 0), (0, 1), (3, 1)],
    "skew_quad": [(0, 0), (4, 1), (3, 4), (-1, 2)],
}


@pytest.fixture(scope="session")
def corpus_polygons() -> dict[str, et.Polytope]:
    polys = {name: et.convex_hull(v) for name, v in NAMED_POLYGONS.items()}
    for seed in range(6):
        polys[f"random_{seed}"] = et.random_lattice_polytope(2, 5, 7, seed=97 + seed)
    return polys


@pytest.fixture(scope="session")
def random_polygons() -> list[et.Polytope]:
    return [et.random_lattice_polytope(2, 6, 7, seed=500 + k) for k in range(12)]


@pytest.fixture(scope="session")
def random_3polytopes() -> list[et.Polytope]:
    return [et.random_lattice_polytope(3, 2, 6, seed=900 + k) for k in range(6)]
