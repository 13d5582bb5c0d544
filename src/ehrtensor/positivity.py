"""Exact definiteness classification, square certificates and scanners.

A definite rank-2 tensor is decided by its leading principal minors
(Sylvester's criterion), read off the pivots of one fraction-free
elimination with no basis; most forms a scan classifies are definite and
exit there.  Every other tensor is classified by its inertia: an exact
congruence diagonalization C^t M C = D with C invertible keeps the numbers of
positive, negative and zero eigenvalues (Sylvester's law of inertia), so the
signs of the diagonal of D fix the class, and the columns of C give the
witness and kernel directions.  No eigenvalue is ever computed; both
eliminations run in integers, the congruence on integer columns, each with
one integer scale.  The class is read from signs in Z, and each witness is
checked on the form in Z; only the witness and kernel columns, and for a
square certificate D and the rows of C^-1, from one integer inverse of the
integer basis, are read back in Q.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .ehrhart import ehrhart_tensor_polynomial, to_hr_vector
from .polytopes import Polytope, dilate_rows, is_reflexive, random_lattice_polytope
from .tensors import HrVector, SymTensor, rational_to_str

PSD_CLASSES = ("zero", "positive_semidefinite", "positive_definite")


class NotPositiveSemidefiniteError(ValueError):
    def __init__(self, witness, value):
        self.witness = witness
        self.value = value
        super().__init__(f"not positive semidefinite: form value {value} at {witness}")


@dataclass(frozen=True)
class DefinitenessReport:
    classification: str
    witness: tuple[Fraction, ...] | None = None   # direction with negative form value
    witness_value: Fraction | None = None
    kernel: tuple[Fraction, ...] | None = None    # null direction when singular

    @property
    def is_psd(self) -> bool:
        return self.classification in PSD_CLASSES


@dataclass(frozen=True)
class SosCertificate:
    """Exact decomposition T = sum lambda_k u_k u_k^t with lambda_k >= 0."""

    terms: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]

    def reconstruct(self, dim: int) -> SymTensor:
        acc = SymTensor.zero(2, dim)
        for lam, u in self.terms:
            acc = acc + SymTensor.from_map(
                2, dim, {(i, j): lam * u[i] * u[j]
                         for i in range(dim) for j in range(i, dim)})
        return acc


def _congruence(matrix) -> tuple[list[list[int]], list[list[int]], list[int], int]:
    """Exact symmetric diagonalization C^t M C = D, C invertible, in integers: ``(A, X, s, L)``.

    The elimination runs on A = L M (L > 0 the lcm of the denominators keeps
    the inertia) and a basis X whose column j is s_j C_j, one integer scale
    per column.  A pivot step ``X_j <- p X_j - f X_t`` (p = A_tt, f = A_tj)
    clears A_tj; a zero pivot swaps in a later nonzero diagonal entry, else
    takes ``X_t <- s_j X_t + s_t X_j`` for the first later j with A_tj != 0.
    On return A is diagonal, ``D_kk = A_kk / (s_k^2 L)`` and ``C = X / s``,
    so D_kk has the sign of the integer A_kk.
    """
    d = len(matrix)
    scale = lcm(*(v.denominator for row in matrix for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]
    x = [[int(i == j) for j in range(d)] for i in range(d)]
    s = [1] * d

    def combine(dst, u, src, v):
        # X_dst <- u X_dst + v X_src on the form and the basis; scale s_dst * u
        for i in range(d):
            a[i][dst] = u * a[i][dst] + v * a[i][src]
            x[i][dst] = u * x[i][dst] + v * x[i][src]
        a[dst] = [u * p + v * q for p, q in zip(a[dst], a[src])]
        s[dst] *= u

    def swap(i, j):
        for r in range(d):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            x[r][i], x[r][j] = x[r][j], x[r][i]
        a[i], a[j], s[i], s[j] = a[j], a[i], s[j], s[i]

    for t in range(d):
        if a[t][t] == 0:
            j = next((j for j in range(t + 1, d) if a[j][j] != 0), None)
            if j is not None:
                swap(t, j)
            else:
                j = next((j for j in range(t + 1, d) if a[t][j] != 0), None)
                if j is None:
                    continue  # row already clear
                combine(t, s[j], j, s[t])
        p = a[t][t]
        for j in range(t + 1, d):
            if a[t][j] != 0:
                combine(j, p, t, -a[t][j])
    return a, x, s, scale


def _positive_definite(a: list[list[int]]) -> bool:
    """Whether the symmetric integer matrix ``a`` is positive definite, by
    Sylvester's criterion: every leading principal minor is positive.

    The minors are the pivots of Bareiss's fraction-free elimination
    ("Sylvester's identity and multistep integer-preserving Gaussian
    elimination", 1968): step k leaves the (k+1)-th leading minor in
    ``a[k][k]``, and each division, by the previous pivot, is exact.  The
    trailing block stays symmetric, so only its upper triangle is updated, in
    place.  No basis is kept.
    """
    d, prev = len(a), 1
    for k in range(d):
        row = a[k]
        p = row[k]
        if p <= 0:
            return False
        for i in range(k + 1, d):
            ri, f = a[i], row[i]
            for j in range(i, d):
                ri[j] = (ri[j] * p - f * row[j]) // prev
        prev = p
    return True


def classify_definiteness(t: SymTensor) -> DefinitenessReport:
    """Exact definiteness class of a rank-2 tensor, with rational witnesses.

    A definite form exits on its leading principal minors, the pivots of one
    fraction-free elimination of ``sign(M_00) L M`` (:func:`_positive_definite`):
    ``positive_definite`` with no witness, or, when M_00 < 0,
    ``negative_definite`` with witness e_0 and value M_00, which is what the
    congruence gives, since a nonzero first pivot leaves basis column 0 alone.
    Every other form runs :func:`_congruence`, and its class is read from the
    signs of the integer diagonal; only the witness (the first negative column
    of C) and the kernel direction (the first zero one) are built in Q.  Each
    witness is checked on the form in integers: ``L T(X_k) = A_kk`` is
    ``T(C_k) = D_kk`` times ``s_k^2 L``.
    """
    if t.rank != 2:
        raise ValueError("definiteness is a rank-2 notion")
    if t.is_zero:
        e0 = tuple(Fraction(int(i == 0)) for i in range(t.dim))
        return DefinitenessReport("zero", kernel=e0)
    m = t.to_matrix()
    m00 = m[0][0]
    if m00:
        # sign(M_00) L M is positive definite iff M is definite with the sign of M_00
        scale = lcm(*(v.denominator for v in t.entries)) * (1 if m00 > 0 else -1)
        if _positive_definite([[v.numerator * (scale // v.denominator) for v in row]
                               for row in m]):
            if scale > 0:
                return DefinitenessReport("positive_definite")
            e0 = [int(i == 0) for i in range(t.dim)]
            if t.apply(e0) != m00:
                raise AssertionError("witness value mismatch")
            return DefinitenessReport("negative_definite", witness=tuple(map(Fraction, e0)),
                                      witness_value=Fraction(m00))
    a, x, s, scale = _congruence(m)
    diag = [a[k][k] for k in range(t.dim)]
    neg = next((k for k, v in enumerate(diag) if v < 0), None)
    null = next((k for k, v in enumerate(diag) if v == 0), None)
    kernel = None if null is None else tuple(Fraction(row[null], s[null]) for row in x)

    # by inertia: a negative diagonal entry refutes positivity, a zero one
    # definiteness
    if neg is None:
        cls = "positive_definite" if null is None else "positive_semidefinite"
        return DefinitenessReport(cls, kernel=kernel)
    if all(v <= 0 for v in diag):
        cls = "negative_definite" if null is None else "negative_semidefinite"
    else:
        cls = "indefinite"
    column = [row[neg] for row in x]
    if scale * t.apply(column) != diag[neg]:
        raise AssertionError("witness value mismatch")
    return DefinitenessReport(cls, witness=tuple(Fraction(v, s[neg]) for v in column),
                              witness_value=Fraction(diag[neg], s[neg] * s[neg] * scale),
                              kernel=kernel)


def sos_certificate(t: SymTensor) -> SosCertificate:
    """Write a PSD rank-2 tensor as an exact nonnegative sum of squares.

    Congruence diagonalization with symmetric pivoting (:func:`_congruence`);
    the functionals are the rows of ``C^-1 = s X^-1``, with ``X^-1 = m / D``
    from :func:`~ehrtensor.linalg.int_inverse`, so reconstruction is exact.
    Refuses non-PSD input and hands back the violating direction.
    """
    if t.rank != 2:
        raise ValueError("square certificates are a rank-2 notion")
    a, x, s, scale = _congruence(t.to_matrix())
    diag = [Fraction(a[k][k], s[k] * s[k] * scale) for k in range(t.dim)]
    for k, dv in enumerate(diag):
        if dv < 0:
            raise NotPositiveSemidefiniteError(tuple(Fraction(row[k], s[k]) for row in x), dv)
    m, dabs = linalg.int_inverse(x)
    terms = tuple((dv, tuple(Fraction(s[k] * v, dabs) for v in m[k]))
                  for k, dv in enumerate(diag) if dv)
    cert = SosCertificate(terms)
    if cert.reconstruct(t.dim) != t:
        raise AssertionError("certificate does not reconstruct the tensor")
    return cert


def check_h2_psd(p: Polytope) -> list[DefinitenessReport]:
    """Classify every rank-2 h-vector entry of P."""
    return [classify_definiteness(entry) for entry in to_hr_vector(p, 2).entries]


def check_ehrhart_psd(p: Polytope) -> list[DefinitenessReport]:
    """Classify the nonconstant coefficients of the rank-2 moment polynomial."""
    return [classify_definiteness(c) for c in ehrhart_tensor_polynomial(p, 2).coeffs[1:]]


def palindromic(h: HrVector) -> bool:
    """Exact entry-wise symmetry h_i = h_(m-i)."""
    m = len(h) - 1
    return all(h[i] == h[m - i] for i in range(m + 1))


def reflexivity_palindromicity_check(p: Polytope, r: int) -> bool:
    """Whether reflexivity and even-rank h-vector palindromicity agree on P."""
    if r % 2 != 0:
        raise ValueError("palindromicity characterizes reflexivity for even rank only")
    if any(f.rhs < 1 for f in p.facets):
        raise ValueError("origin must be strictly interior")
    return is_reflexive(p) == palindromic(to_hr_vector(p, r))


# ---------------------------------------------------------------------------
# conjecture scanners

@dataclass(frozen=True)
class ScanViolation:
    trial: int
    vertices: tuple
    index: int
    classification: str
    witness: tuple[Fraction, ...] | None
    witness_value: Fraction | None

    def to_json(self) -> dict:
        return {
            "trial": self.trial,
            "vertices": [list(v) for v in self.vertices],
            "index": self.index,
            "classification": self.classification,
            "witness": None if self.witness is None
            else [rational_to_str(x) for x in self.witness],
            "witness_value": None if self.witness_value is None
            else rational_to_str(self.witness_value),
        }


@dataclass(frozen=True)
class ScanReport:
    """Deterministic record of a conjecture scan.

    Violations are findings, not failures; rerunning with the same seed
    reproduces the canonical JSON bit-exactly (wall time is kept out of it).
    """

    which: str
    dimension: int
    trials: int
    coord_bound: int
    num_gens: int
    seed: int
    completed: int
    skipped_no_interior: int
    violations: tuple[ScanViolation, ...]
    violations_last_index: tuple[ScanViolation, ...]
    runtime_seconds: float | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        return {
            "which": self.which,
            "dimension": self.dimension,
            "trials": self.trials,
            "coord_bound": self.coord_bound,
            "num_gens": self.num_gens,
            "seed": self.seed,
            "completed": self.completed,
            "skipped_no_interior": self.skipped_no_interior,
            "violations": [v.to_json() for v in self.violations],
            "violations_last_index": [v.to_json() for v in self.violations_last_index],
        }


def trial_seed(seed: int, trial: int) -> int:
    """Stable per-trial stream seed (independent of platform hashing)."""
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _has_interior_point(p: Polytope) -> bool:
    """Whether P has a lattice point in its interior.  The lattice point nearest the
    vertex centroid, rounded half up in integers, is tried first; only when it is not
    strictly inside are the rows of P read, where such a point is a row with a strict
    span.  A scan's h reads P off the rows of a larger dilate, so a trial the centroid
    point certifies scans P no more."""
    count = len(p.vertices)
    centroid = [(2 * sum(column) + count) // (2 * count) for column in zip(*p.vertices)]
    return (p.contains(centroid, strict=True)
            or any(slo <= shi for *_, slo, shi in dilate_rows(p, 1)))


# name -> (P needs an interior lattice point, (h, d) -> checks as (index, tensor,
# past the conjectured range)); the first family is ``scan --which``'s default
SCAN_FAMILIES = {
    "psd": (False, lambda h, d: [(i, h[i], False) for i in range(len(h))]),
    "hibi": (True, lambda h, d: [(i, h[i] - h[1], i == d + 2) for i in range(1, d + 3)]),
}


def conjecture_scan(d: int, trials: int, coord_bound: int, num_gens: int,
                    seed: int, which: str = "psd") -> ScanReport:
    """Scan random polytopes for non-PSD h-matrix behaviour.

    ``which`` names an entry of :data:`SCAN_FAMILIES`: ``'psd'`` classifies
    every rank-2 h-vector entry; ``'hibi'`` classifies the differences
    h_i - h_1, i = 1..d+2, for polytopes with an interior lattice point
    (others are skipped and counted; :func:`_has_interior_point` tries the
    point nearest the vertex centroid before it reads the rows of P).  A
    non-PSD check is recorded with its witness direction, in
    ``violations_last_index`` when its index is past the conjectured range
    (the hibi top index) and in ``violations`` otherwise.
    """
    if which not in SCAN_FAMILIES:
        raise ValueError(f"scan kind must be {' or '.join(map(repr, SCAN_FAMILIES))}")
    if d < 1:
        raise ValueError("dimension must be positive")
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    needs_interior, checks = SCAN_FAMILIES[which]
    start = time.monotonic()
    violations: list[ScanViolation] = []
    last_index: list[ScanViolation] = []
    completed = 0
    skipped = 0
    for trial in range(trials):
        p = random_lattice_polytope(d, coord_bound, num_gens, trial_seed(seed, trial))
        if needs_interior and not _has_interior_point(p):
            skipped += 1
            continue
        for i, tensor, past_range in checks(to_hr_vector(p, 2), d):
            rep = classify_definiteness(tensor)
            if not rep.is_psd:
                (last_index if past_range else violations).append(ScanViolation(
                    trial, p.vertices, i, rep.classification, rep.witness, rep.witness_value))
        completed += 1
    return ScanReport(which=which, dimension=d, trials=trials,
                      coord_bound=coord_bound, num_gens=num_gens, seed=seed,
                      completed=completed, skipped_no_interior=skipped,
                      violations=tuple(violations),
                      violations_last_index=tuple(last_index),
                      runtime_seconds=time.monotonic() - start)
