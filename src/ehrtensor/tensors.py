"""Exact symmetric tensors of small rank over Q^d.

Everything here is exact: a scalar is an ``int`` or a
:class:`fractions.Fraction`, kept as given, so lattice-point moments and
h-tensor entries stay integers and only genuinely rational quantities
(polynomial coefficients, volume moments) carry denominators.  ``3`` and
``Fraction(3)`` compare, hash and print alike.  Floats and bools are refused.
Lattice points are plain ``tuple[int, ...]`` and a symmetric tensor of rank r
is stored densely by its sorted multi-indices ``i_1 <= ... <= i_r`` (each in
``0..d-1``), in ``itertools.combinations_with_replacement`` order.  A rank-0
tensor is a single scalar, a rank-2 tensor round-trips to a symmetric d x d
matrix.

All values are immutable after construction and safe to share.

The integer moment kernels live here too: :func:`_column_moments` sums the
outer powers of points given as coordinate columns, :func:`row_moments`
those of lattice scan rows, each row a prefix point and an interval of the
last coordinate, from the interval power sums, and :func:`_newton_columns`
turns the vertex power sums of many simplices, one column each, into the
terms of every rank of Newton's recurrence.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

IntPoint = tuple[int, ...]
Scalar = int | Fraction


# ---------------------------------------------------------------------------
# small integer-vector helpers

def dot(x: Sequence, y: Sequence):
    """Scalar product, exact for int/Fraction; unequal lengths raise as ``zip(strict=True)``."""
    if len(x) != len(y):
        side = "shorter" if len(y) < len(x) else "longer"
        raise ValueError(f"zip() argument 2 is {side} than argument 1")
    return sum(map(mul, x, y))


def vadd(x: Sequence, y: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vsub(x: Sequence, y: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def vneg(x: Sequence) -> tuple:
    return tuple(-a for a in x)


@lru_cache(maxsize=None)
def multi_indices(dim: int, rank: int) -> tuple[tuple[int, ...], ...]:
    """All sorted multi-indices of the given rank, in storage order."""
    return tuple(combinations_with_replacement(range(dim), rank))


@lru_cache(maxsize=None)
def entry_count(dim: int, rank: int) -> int:
    """The number of stored entries of a rank-``rank`` tensor on Q^dim,
    ``len(multi_indices(dim, rank))``, without listing them: C(dim + rank - 1, rank),
    read as C(0, rank) at dim = 0, whose one index is the empty one of rank 0.
    Every tensor construction asks, and a table lookup is cheaper than the call."""
    return math.comb(max(dim + rank - 1, 0), rank)


@lru_cache(maxsize=None)
def _index_position(dim: int, rank: int) -> dict[tuple[int, ...], int]:
    return {m: k for k, m in enumerate(multi_indices(dim, rank))}


@lru_cache(maxsize=None)
def _perm_count(index: tuple[int, ...]) -> int:
    """Number of distinct permutations of a sorted multi-index."""
    n = math.factorial(len(index))
    for c in Counter(index).values():
        n //= math.factorial(c)
    return n


_EXACT = frozenset({int, Fraction})


def _refuse_inexact(values: Sequence, what: str) -> None:
    if not _EXACT.issuperset(map(type, values)):
        inexact = set(map(type, values)) - _EXACT
        raise TypeError(f"{what} must be int or Fraction, got "
                        + ", ".join(sorted(t.__name__ for t in inexact)))


@dataclass(frozen=True)
class SymTensor:
    """Symmetric tensor of rank ``rank`` on Q^dim, dense sorted-index storage."""

    rank: int
    dim: int
    entries: tuple[Scalar, ...]

    def __post_init__(self):
        expected = entry_count(self.dim, self.rank)
        if len(self.entries) != expected:
            raise ValueError(
                f"rank-{self.rank} tensor on Q^{self.dim} needs {expected} entries, "
                f"got {len(self.entries)}")
        _refuse_inexact(self.entries, "tensor entries")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, rank: int, dim: int) -> "SymTensor":
        return cls(rank, dim, (0,) * entry_count(dim, rank))

    @classmethod
    def from_entries(cls, rank: int, dim: int, values: Iterable) -> "SymTensor":
        return cls(rank, dim, tuple(values))

    @classmethod
    def from_map(cls, rank: int, dim: int, mapping: Mapping[tuple[int, ...], Scalar]) -> "SymTensor":
        pos = _index_position(dim, rank)
        vals = [0] * len(pos)
        for idx, v in mapping.items():
            vals[pos[tuple(sorted(idx))]] = v
        return cls(rank, dim, tuple(vals))

    @classmethod
    def scalar(cls, dim: int, value: Scalar) -> "SymTensor":
        return cls(0, dim, (value,))

    @classmethod
    def from_vector(cls, v: Sequence[Scalar]) -> "SymTensor":
        return cls.from_entries(1, len(v), v)

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[Scalar]]) -> "SymTensor":
        d = len(rows)
        for i in range(d):
            for j in range(i + 1, d):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric")
        return cls.from_entries(2, d, (rows[i][j] for i, j in multi_indices(d, 2)))

    # -- access ------------------------------------------------------------
    def get(self, index: Sequence[int]) -> Scalar:
        """Entry at an arbitrary-order multi-index (symmetry canonicalizes)."""
        key = tuple(sorted(index))
        return self.entries[_index_position(self.dim, self.rank)[key]]

    def as_scalar(self) -> Scalar:
        if self.rank != 0:
            raise ValueError("not a rank-0 tensor")
        return self.entries[0]

    def to_matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        if self.rank != 2:
            raise ValueError("not a rank-2 tensor")
        rows = [[0] * self.dim for _ in range(self.dim)]
        for (i, j), e in zip(multi_indices(self.dim, 2), self.entries):
            rows[i][j] = rows[j][i] = e
        return tuple(map(tuple, rows))

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    # -- exact linear algebra ------------------------------------------------
    def _check_compatible(self, other: "SymTensor"):
        if self.rank != other.rank or self.dim != other.dim:
            raise ValueError(
                f"tensor mismatch: rank {self.rank} dim {self.dim} vs "
                f"rank {other.rank} dim {other.dim}")

    def __add__(self, other: "SymTensor") -> "SymTensor":
        self._check_compatible(other)
        return SymTensor(self.rank, self.dim,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        self._check_compatible(other)
        return SymTensor(self.rank, self.dim,
                         tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "SymTensor":
        return SymTensor(self.rank, self.dim, tuple(-a for a in self.entries))

    def __mul__(self, c: Scalar) -> "SymTensor":
        return SymTensor(self.rank, self.dim, tuple(c * a for a in self.entries))

    __rmul__ = __mul__

    def apply(self, v: Sequence[Scalar]) -> Scalar:
        """Evaluate the multilinear form on the diagonal, T(v, ..., v).

        Sums ``T_{i_1...i_r} v_{i_1} ... v_{i_r}`` over all (unsorted) index
        tuples; each stored sorted index contributes with its permutation
        multiplicity.
        """
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != tensor dim {self.dim}")
        _refuse_inexact(v, "direction entries")
        total = 0
        for m, e in zip(multi_indices(self.dim, self.rank), self.entries):
            if e == 0:
                continue
            term = e * _perm_count(m)
            for i in m:
                term *= v[i]
            total += term
        return total

    def __repr__(self):
        if self.rank == 0:
            return f"SymTensor({self.entries[0]})"
        if self.rank == 2:
            return f"SymTensor({[[str(x) for x in row] for row in self.to_matrix()]})"
        body = {",".join(map(str, m)): str(e)
                for m, e in zip(multi_indices(self.dim, self.rank), self.entries)}
        return f"SymTensor(rank={self.rank}, dim={self.dim}, {body})"


def moment_of_points(points: Sequence[Sequence[int]], r: int, dim: int) -> SymTensor:
    """Sum of outer powers x^r over an explicit list of points."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    return SymTensor(r, dim, tuple(_moment_entries(points, r, dim)[r]))


def _moment_entries(points: Sequence[Sequence[int]], r: int, dim: int) -> list[list[int]]:
    """Integer entries of the moments of ranks 0..r of a point list, in one pass
    over its coordinate columns (:func:`_column_moments`)."""
    return _column_moments(list(zip(*points)) or [()] * dim, len(points), r, dim)


def _column_moments(columns: Sequence[Sequence[int]], count: int, r: int,
                    dim: int) -> list[list[int]]:
    """Integer entries of the moments of ranks 0..r of ``count`` points given
    as ``dim`` coordinate columns.

    Entry m is ``sum_x prod_(i in m) x_i``.  The product column of a rank-k
    index is that of its first k-1 indices times one coordinate column, the
    split that ``_product_plan(dim, k-1, 1)`` lists first, so each rank costs
    one multiplication per point and stored index; rank 1 sums the columns
    themselves, and rank r is only summed.  Rank 0 is the count; no points
    give zero entries.
    """
    out = [[count]]
    if r:
        out.append(list(map(sum, columns)))
    prods = columns
    for k in range(2, r + 1):
        steps = [pairs[0] for pairs in _product_plan(dim, k - 1, 1)]
        if k < r:
            prods = [list(map(mul, prods[a], columns[i])) for a, i in steps]
            out.append(list(map(sum, prods)))
        else:
            out.append([sum(map(mul, prods[a], columns[i])) for a, i in steps])
    return out


def _newton_columns(vertices: Sequence[Sequence[int]], faces: Sequence[Sequence[int]], r: int,
                    dim: int, weights: Sequence[Sequence[int]]
                    ) -> list[dict[int, list[list[int]]]]:
    """``H[k][deg]``, k = 0..r: one column over ``faces`` per stored entry of rank k.

    Each face is a tuple of indices into ``vertices``, and P_c, its vertex
    power sum ``sum_v v^c``, is one column per entry: the entries of v^c are
    built once per vertex as columns, transposed to one row per vertex, each
    face's rows are zipped and summed, and the face sums are transposed back.
    The columns of H_k are the t^deg coefficients of
    Newton's recurrence with polynomial weights
    ``k H_k = sum_(c=1..k) w_c(t) sym_product(H_(k-c), P_c)``, H_0 = 1, where
    ``weights[c][deg]`` is the t^deg coefficient of w_c, with the unnormalized
    :func:`sym_product`.  Weights c! make H_k = k! h_k, h_k the complete
    homogeneous tensor of the face's vertices; weights c B_c(t) make H_k the
    rank-k vertex part of a half-open simplex.  Every division by k is exact,
    and a remainder raises ``ArithmeticError``.
    """
    axes = [list(axis) for axis in zip(*vertices)]
    powers, sums = axes, [None]
    for c in range(1, r + 1):       # powers[a]: entry a of v^c, per vertex
        if c > 1:
            powers = [list(map(mul, powers[a], axes[i]))
                      for a, i in (pairs[0] for pairs in _product_plan(dim, c - 1, 1))]
        rows = list(zip(*powers))
        sums.append(list(zip(*[map(sum, zip(*map(rows.__getitem__, face))) for face in faces])))
    columns: list[dict[int, list[list[int]]]] = [{0: [[1] * len(faces)]}]
    for k in range(1, r + 1):
        acc: dict[int, list[list[int]]] = {}
        for c in range(1, k + 1):
            y = sums[c]
            for deg, x in columns[k - c].items():
                # a product with H_0 = 1 is P_c itself
                prod = y if k == c else [
                    list(map(sum, zip(*[map(mul, x[a], y[b]) for a, b in pairs])))
                    for pairs in _product_plan(dim, k - c, c)]
                for e, w in enumerate(weights[c]):
                    if w:
                        _add_columns(acc, deg + e, prod, w)
        if k > 1:
            if any(v % k for cols in acc.values() for col in cols for v in col):
                raise ArithmeticError(f"Newton's recurrence left a remainder at rank {k}")
            acc = {deg: [[v // k for v in col] for col in cols] for deg, cols in acc.items()}
        columns.append(acc)
    return columns


def _add_columns(acc: dict[int, list[list[int]]], deg: int, cols: list[list[int]], w: int) -> None:
    """``acc[deg] += w * cols`` column by column; the columns are never changed in
    place, so ``acc[deg]`` may be ``cols`` itself."""
    if deg not in acc:
        acc[deg] = cols if w == 1 else [[w * v for v in col] for col in cols]
    elif w == 1:
        acc[deg] = [list(map(add, a, b)) for a, b in zip(acc[deg], cols)]
    else:
        acc[deg] = [[u + w * v for u, v in zip(a, b)] for a, b in zip(acc[deg], cols)]


BOTH, CLOSED, INTERIOR = ("closed", "interior"), ("closed",), ("interior",)


@lru_cache(maxsize=None)
def _power_sum_poly(k: int) -> tuple[tuple[int, ...], int]:
    """``F_k(n) = sum_{t=1..n} t^k`` as integer coefficients over one least denominator.

    Built from ``(n+1)^(k+1) - 1 = sum_{j<=k} C(k+1, j) F_j(n)``, in
    integers over the lcm of the lower denominators.  Since
    ``F_k(n) - F_k(n-1) = n^k`` is a polynomial identity, the power sum over
    any integer interval is ``F_k(hi) - F_k(lo - 1)``.
    """
    lower = [_power_sum_poly(j) for j in range(k)]
    den = math.lcm(*(d for _, d in lower))
    coeffs = [den * math.comb(k + 1, i) for i in range(k + 2)]
    coeffs[0] -= den
    for j, (num, d) in enumerate(lower):
        scale = math.comb(k + 1, j) * (den // d)
        for i, c in enumerate(num):
            coeffs[i] -= scale * c
    den *= k + 1
    g = math.gcd(den, *coeffs)
    return tuple(c // g for c in coeffs), den // g


@lru_cache(maxsize=None)
def _row_plan(dim: int, r: int, order: tuple[int, ...]):
    """How one column pass turns scan-frame rows into original-frame entries.

    Scan axis k is axis ``order[k]`` (:attr:`~ehrtensor.polytopes.Polytope.scan_order`).
    The prefix monomials (over scan axes 0..dim-2, ranks 0..r) are built
    from 1 by ``steps``: monomial s+1 is monomial ``j`` times scan axis
    ``i``.  ``need`` lists the pairs (j, i) whose column sums the pass
    tabulates, monomial j times ``hi^i - (lo-1)^i``, for i = 1..r-e+1 when j
    has degree e: ``F_k`` has degree k+1.  ``plans[q]`` holds, per stored
    entry of rank q in the original frame, its multi-index moved to the scan
    frame and split into prefix monomial j and the last scan axis to the
    power k: the nonzero coefficients of ``F_k``, the positions in ``need``
    of the pairs (j, i) they weigh, and the denominator of ``F_k``.
    """
    last = dim - 1
    prefixes = [pm for j in range(r + 1) for pm in multi_indices(last, j)]
    pos = {pm: s for s, pm in enumerate(prefixes)}
    steps = tuple((pos[pm[:-1]], pm[-1]) for pm in prefixes[1:])
    need = tuple((j, i) for j, pm in enumerate(prefixes) for i in range(1, r - len(pm) + 2))
    at = {pair: t for t, pair in enumerate(need)}
    polys = [_power_sum_poly(k) for k in range(r + 1)]
    powers = [[i for i, c in enumerate(num) if c] for num, _ in polys]
    terms = [(tuple(num[i] for i in power), den) for (num, den), power in zip(polys, powers)]
    scan_axis = sorted(range(dim), key=order.__getitem__)     # axis -> its scan axis
    plans = []
    for q in range(r + 1):
        plan = []
        for m in multi_indices(dim, q):
            m = sorted(map(scan_axis.__getitem__, m))
            k = m.count(last)
            j = pos[tuple(m[:q - k])]
            plan.append((terms[k][0], tuple(at[j, i] for i in powers[k]), terms[k][1]))
        plans.append(tuple(plan))
    return steps, need, tuple(plans)


def row_moments(rows, r: int, dim: int, sides=BOTH, order=None) -> list[tuple[list[int], ...]]:
    """Moments of ranks 0..r of :func:`~ehrtensor.polytopes.scan_rows` rows, per side asked for.

    A row ``(prefix, lo, hi, slo, shi)`` adds, for each stored multi-index,
    its prefix monomial times ``sum t^k`` over ``[lo, hi]`` to the closed
    moment and over ``[slo, shi]`` to the interior (strict) one, k being the
    power of the last coordinate.  That sum is ``F_k(hi) - F_k(lo-1)``, an
    integer combination of ``hi^i - (lo-1)^i`` over one denominator, so one
    column pass serves every rank: one ``sum(map(mul, ...))`` per (monomial,
    power), and one per entry over those (:func:`_row_plan`).  Only the
    ``sides`` asked for are read and computed, sharing the prefix monomials.
    Scan rows have lo <= hi; an empty strict interval has shi raised to
    slo - 1, so it adds nothing.  The rows are in the frame whose axis k is
    axis ``order[k]`` (the identity when None), the entries in the original
    frame.  Returns, per rank, the entry lists of the sides in the order
    asked, in storage order.
    """
    steps, need, plans = _row_plan(dim, r, tuple(range(dim)) if order is None else order)
    prefixes, lo, hi, slo, shi = list(zip(*rows)) or [()] * 5
    coords = list(zip(*prefixes)) or [()] * (dim - 1)
    monos = [None]      # the monomial 1 sums a column as it is
    for j, i in steps:
        monos.append(coords[i] if j == 0 else list(map(mul, monos[j], coords[i])))
    out = []
    for side in sides:
        low, top = (lo, hi) if side == "closed" else (slo, shi)
        below = [x - 1 for x in low]
        if side == "interior":
            top = list(map(max, top, below))
        diffs, a, b = [None, list(map(sub, top, below))], top, below
        for _ in range(r):      # diffs[i] = top^i - below^i
            a, b = list(map(mul, a, top)), list(map(mul, b, below))
            diffs.append(list(map(sub, a, b)))
        table = [sum(map(mul, monos[j], diffs[i])) if j else sum(diffs[i]) for j, i in need]
        at = table.__getitem__
        out.append([[sum(map(mul, coeffs, map(at, places))) // den for coeffs, places, den in plan]
                    for plan in plans])
    return list(zip(*out))


def outer_power(x: Sequence[int], r: int, dim: int | None = None) -> SymTensor:
    """r-fold symmetric outer power x^r; by convention x^0 = 1."""
    return moment_of_points((x,), r, len(x) if dim is None else dim)


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Unnormalized symmetric product of two symmetric tensors.

    The sum of ``a (x) b`` over the C(r, r_a) ways to split the r = r_a + r_b
    tensor slots between the factors, with no division: for vectors
    ``sym_product(u, w) == u (x) w + w (x) u`` and
    ``sym_product(u, u) == 2 * outer_power(u, 2)``.  A chain of products of
    outer powers ``x_j^(k_j)`` therefore carries the multinomial
    ``r!/(k_1! ... k_s!)`` itself, and a rank-0 factor just scales.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return SymTensor(a.rank + b.rank, a.dim,
                     tuple(_product_entries(a.entries, b.entries, a.dim, a.rank, b.rank)))


def _product_entries(x: Sequence, y: Sequence, dim: int, ra: int, rb: int) -> list:
    """Entries of :func:`sym_product` for the entries x of rank ra and y of rank rb."""
    if ra == 0:
        return [x[0] * b for b in y]
    if rb == 0:
        return [a * y[0] for a in x]
    out = []
    for pairs in _product_plan(dim, ra, rb):
        total = 0
        for i, j in pairs:
            total += x[i] * y[j]
        out.append(total)
    return out


@lru_cache(maxsize=None)
def _product_plan(dim: int, ra: int, rb: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per stored index m of rank ra + rb, the factor entry positions of each
    of its C(ra + rb, ra) slot splits; m is sorted, so each part is stored."""
    apos, bpos, slots = _index_position(dim, ra), _index_position(dim, rb), range(ra + rb)
    splits = [(sel, tuple(i for i in slots if i not in sel)) for sel in combinations(slots, ra)]
    return tuple([tuple([(apos[tuple(map(m.__getitem__, sel))],
                          bpos[tuple(map(m.__getitem__, rest))]) for sel, rest in splits])
                  for m in multi_indices(dim, ra + rb)])


@dataclass(frozen=True)
class TensorPolynomial:
    """Polynomial in one variable with SymTensor coefficients, degree-indexed.

    ``coeffs[k]`` multiplies ``n^k``; all coefficients share rank and dim.
    """

    coeffs: tuple[SymTensor, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one coefficient")
        r, d = self.coeffs[0].rank, self.coeffs[0].dim
        for c in self.coeffs:
            if c.rank != r or c.dim != d:
                raise ValueError("coefficient rank/dim not uniform")

    @property
    def rank(self) -> int:
        return self.coeffs[0].rank

    @property
    def dim(self) -> int:
        return self.coeffs[0].dim

    def evaluate(self, n: Scalar) -> SymTensor:
        acc = SymTensor.zero(self.rank, self.dim)
        power = 1
        for c in self.coeffs:
            acc = acc + c * power
            power *= n
        return acc


@dataclass(frozen=True)
class HrVector:
    """h-tensor vector: the d+r+1 numerator coefficients of the moment series.

    ``entries[i]`` is the coefficient of t^i in the numerator of
    ``sum_n L^r(nP) t^n`` over ``(1 - t)^(d + r + 1)``.
    """

    entries: tuple[SymTensor, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty h-vector")
        r, d = self.entries[0].rank, self.entries[0].dim
        for e in self.entries:
            if e.rank != r or e.dim != d:
                raise ValueError("entry rank/dim not uniform")

    @property
    def rank(self) -> int:
        return self.entries[0].rank

    @property
    def dim(self) -> int:
        return self.entries[0].dim

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i: int) -> SymTensor:
        return self.entries[i]

    def __add__(self, other: "HrVector") -> "HrVector":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return HrVector(tuple(a + b for a, b in zip(self.entries, other.entries)))


# ---------------------------------------------------------------------------
# serialization: scalars as "p/q" (reduced, "p" when q = 1); rank-2 tensors
# as nested symmetric matrices, rank 0 as a bare string, other ranks as flat
# multi-index maps keyed by comma-joined sorted indices.

def rational_to_str(x: Scalar) -> str:
    return str(x)


def tensor_to_json(t: SymTensor):
    if t.rank == 0:
        return rational_to_str(t.as_scalar())
    if t.rank == 2:
        return [[rational_to_str(x) for x in row] for row in t.to_matrix()]
    return {",".join(map(str, m)): rational_to_str(e)
            for m, e in zip(multi_indices(t.dim, t.rank), t.entries)}
