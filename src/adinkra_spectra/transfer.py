"""Ruelle transfer operators from boundary branch systems, by Chebyshev
collocation, with the coset extension for finite-index subgroups and
Fredholm determinants.

A branch system lists pairwise disjoint intervals E_s and Moebius maps
g_s (the inverse branches: g_s maps the phase interval into E_s).  The
operator is

    (L_beta f)(x) = sum_s |g_s'(x)|^beta f(g_s x),

the local-determination form of the pullback sum over F-preimages (each
|F'(y)|^-beta at y = g_s x equals |g_s'(x)|^beta).  Functions are sampled
on Chebyshev-Lobatto grids per interval; applying the matrix to samples
interpolates barycentrically at the mapped points, so analytic branch
maps converge spectrally in the node count.

Fredholm determinants det(1 - L) come from numpy's LU (``slogdet``) of
small cores, and spectral radii and leading eigenpairs from a numpy
Arnoldi iteration; the module needs nothing beyond numpy.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .perms import cyclic_exponents, json_floats, permutation


@dataclass(frozen=True, eq=False)
class Branch:
    """One inverse branch: interval E_s and the Moebius matrix of g_s.
    The record is ``eq=False``: compare the intervals and matrices."""

    lo: float
    hi: float
    matrix: np.ndarray  # 2x2, normalized |det| = 1
    label: str = ""

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"branch interval [{self.lo}, {self.hi}] is empty")
        m = np.asarray(self.matrix, dtype=float)
        det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        if abs(det) < 1e-14:
            raise ValueError("branch matrix is singular")
        object.__setattr__(self, "matrix", m / math.sqrt(abs(det)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        a, b, c, d = self.matrix.ravel()
        return (a * x + b) / (c * x + d)

    def deriv_abs(self, x: np.ndarray) -> np.ndarray:
        _a, _b, c, d = self.matrix.ravel()
        return 1.0 / (c * x + d) ** 2  # |det| = 1


@dataclass(frozen=True)
class BranchSystem:
    """Finite family of inverse branches covering the boundary coding."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a branch system needs at least one branch")
        ivs = sorted((b.lo, b.hi) for b in self.branches)
        for (l1, h1), (l2, h2) in zip(ivs[:-1], ivs[1:]):
            if l2 < h1 - 1e-12:
                raise ValueError(f"branch intervals overlap: [{l1},{h1}] and [{l2},{h2}]")
        lo, hi = self.hull
        for b in self.branches:
            c, d = b.matrix[1]
            # the weight |g'(x)|^beta must stay finite on the phase interval
            if c != 0.0 and lo - 1e-12 <= -d / c <= hi + 1e-12:
                raise ValueError(
                    f"branch {b.label or b.matrix.tolist()} has a derivative "
                    f"singularity at x = {-d / c:.6g} inside the phase interval"
                )

    @property
    def hull(self) -> tuple[float, float]:
        return min(b.lo for b in self.branches), max(b.hi for b in self.branches)

    def labels(self) -> list[str]:
        return [b.label for b in self.branches]

    def to_json(self) -> dict:
        return {
            "intervals": [[b.lo, b.hi] for b in self.branches],
            "maps": [b.matrix.tolist() for b in self.branches],
            "labels": [b.label for b in self.branches],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BranchSystem":
        """One branch per [lo, hi] interval, with its 2 x 2 map and label
        (empty when ``labels`` is missing), every number read by
        ``perms.json_float``; a ValueError names a wrong entry or length."""
        if not isinstance(obj["intervals"], list):
            raise ValueError(f"intervals must be a list of [lo, hi] pairs, "
                             f"got {reprlib.repr(obj['intervals'])}")
        count = len(obj["intervals"])
        intervals = json_floats(obj["intervals"], (count, 2), "intervals")
        maps = json_floats(obj["maps"], (count, 2, 2), "maps")
        labels = obj.get("labels") or [""] * count
        if not isinstance(labels, list) or len(labels) != count:
            raise ValueError(f"labels must be a list of {count}, got {reprlib.repr(labels)}")
        return cls(tuple(Branch(lo, hi, np.array(m), label)
                         for (lo, hi), m, label in zip(intervals, maps, labels)))


def gauss_branch_system(n_max: int) -> BranchSystem:
    """Truncated Gauss-map system: g_n(x) = 1/(x+n) onto [1/(n+1), 1/n]."""
    return BranchSystem(tuple(
        Branch(1.0 / (n + 1), 1.0 / n, np.array([[0.0, 1.0], [1.0, float(n)]]), str(n))
        for n in range(1, n_max + 1)
    ))


def _cheb_nodes(lo: float, hi: float, k: int) -> np.ndarray:
    j = np.arange(k)
    x = np.cos(np.pi * j / (k - 1))  # Chebyshev-Lobatto, descending
    return lo + (hi - lo) * (x + 1.0) / 2.0


def _bary_weights(k: int) -> np.ndarray:
    w = np.ones(k)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _cardinal_matrix(nodes: np.ndarray, weights: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Rows: evaluation points; columns: Lagrange cardinal functions.  The
    barycentric quotients are formed in place, in the one output array; a
    row whose point is within 1e-14 of a node becomes that node's unit row."""
    card = pts[:, None] - nodes[None, :]
    exact = np.abs(card) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights[None, :], card, out=card)
        card /= card.sum(axis=1)[:, None]
    if exact.any():
        card[exact.any(axis=1)] = 0.0
        card[exact] = 1.0
    return card


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Collocation matrix of the transfer operator.

    Grid index is (coset, interval, node), cosets outermost; with degree 1
    this is exactly the base discretization.  ``base`` is the degree-1
    matrix (branch s's weighted cardinal block in columns s*k..(s+1)*k)
    and ``branch_perms`` each branch's coset permutation array, in branch
    order; ``matrix`` is assembled from these two only when read.
    ``fredholm_det`` never reads it: it takes the determinant through the
    r x r core of :func:`_core_factors`, built from ``system``, ``grids``
    and ``beta``, and falls back to ``base`` itself when the core does not
    reproduce it.  The record is ``eq=False``: compare ``base`` and
    ``branch_perms``.
    """

    beta: complex
    system: BranchSystem
    nodes_per_interval: int
    coset_degree: int
    grids: tuple
    base: np.ndarray
    branch_perms: tuple

    @property
    def size(self) -> int:
        return len(self.base) * self.coset_degree

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense operator, ``base`` itself at degree 1: block (a, g_s a)
        holds branch s's columns of ``base``."""
        if self.coset_degree == 1:
            return self.base
        return _assemble(self.base, None, self.nodes_per_interval, self.branch_perms)

    def sample(self, fn) -> np.ndarray:
        """Sample a function on the grid (tiled over cosets)."""
        base = np.concatenate([fn(g) for g in self.grids])
        return np.tile(base, self.coset_degree)


def _assemble(q: np.ndarray, p: np.ndarray | None, k: int, perms: Sequence[np.ndarray]) -> np.ndarray:
    """The coset-extended operator with rows ``q`` and columns mapped by
    ``p``: block (a, g_s a) gets branch s's piece q[:, s*k:(s+1)*k] @ p[s*k:(s+1)*k],
    so pieces of branches with the same g_s a add up.  With ``p`` None (the
    identity) each piece is branch s's k columns, put at column s*k of its block."""
    m, d = len(q), len(perms[0])
    width = q.shape[1] if p is None else p.shape[1]
    big = np.zeros((d * m, d * width), dtype=q.dtype if p is None else np.result_type(q, p))
    for s, g in enumerate(perms):
        cols = slice(s * k, (s + 1) * k)
        piece, off = (q[:, cols], s * k) if p is None else (q[:, cols] @ p[cols], 0)
        for a in range(d):
            col = g[a] * width + off
            big[a * m:(a + 1) * m, col:col + piece.shape[1]] += piece
    return big


# a Ritz value theta is accepted when its residual |h_(m+1,m) s_(m,i)| <= _RITZ_TOL |theta|
_RITZ_TOL = 1e-13
# rows the Arnoldi basis grows by
_BASIS_STEP = 32


def _leading(theta: np.ndarray, k: int, real: bool) -> np.ndarray:
    """Indices of the k entries of ``theta`` largest in modulus, in that
    order; for a real matrix one more when the k-th is the first of a
    conjugate pair (LAPACK puts the positive imaginary part first), so
    pairs stay whole."""
    order = np.argsort(-np.abs(theta), kind="stable")
    count = min(k, len(theta))
    if real and count < len(theta) and theta[order[count - 1]].imag > 0:
        count += 1
    return order[:count]


def _steps_to_converge(miss: float, last: tuple[int, float] | None, m: int) -> int:
    """Arnoldi steps until the next convergence check: the residual ratio
    ``miss`` (1 is converged) extrapolated at the rate it fell since the
    ``last`` check (m, miss), kept between m // 8 and m // 2 (and at least
    1); m // 8 without a falling, finite pair.  So a run that does not
    converge before m = n checks O(log n) times."""
    least, most = max(1, m // 8), max(1, m // 2)
    if last is None or not 1.0 < miss < last[1] < math.inf:
        return least
    rate = math.log(last[1] / miss) / (m - last[0])
    return min(max(least, math.ceil(math.log(miss) / rate)), most)


def _arnoldi(matrix: np.ndarray, k: int, vectors: bool = False):
    """The k eigenvalues of ``matrix`` largest in modulus, in that order,
    and with ``vectors`` their unit eigenvectors as columns: (values, vectors).
    A real matrix gets k + 1 when the k-th value's conjugate would be cut.

    Arnoldi from a fixed start vector (``default_rng(0)``, so a repeated
    call gives the same digits), orthogonalised by two classical
    Gram-Schmidt passes per step; the basis and the Hessenberg matrix grow
    _BASIS_STEP rows at a time.  At m = k steps, and then as often as
    :func:`_steps_to_converge` predicts, the m x m Hessenberg matrix H is
    diagonalised, and the iteration stops once each wanted Ritz value
    theta_i has |h_(m+1,m) s_(m,i)| <= 1e-13 |theta_i| (ARPACK's test; s_i
    is theta_i's unit eigenvector of H, and the left side is the residual
    of the Ritz pair).  At breakdown (h_(m+1,m) at most n eps
    times the largest |A v_j| so far, so the basis spans an invariant
    subspace to rounding) or at m = n, H's eigenvalues are exact, and
    fewer than k come back when m < k.  Zero eigenvalues end the iteration
    through breakdown, or at m = n.  Matrices of size <= max(8, k + 2) get
    a dense eigensolve instead.
    """
    n = matrix.shape[0]
    real = not np.iscomplexobj(matrix)
    if n <= max(8, k + 2):
        vals, vecs = np.linalg.eig(matrix) if vectors else (np.linalg.eigvals(matrix), None)
        keep = _leading(vals, k, real)
        return (vals[keep], vecs[:, keep]) if vectors else vals[keep]
    dtype = np.result_type(matrix, np.float64)
    v = np.random.default_rng(0).standard_normal(n).astype(dtype)
    basis = np.empty((_BASIS_STEP, n), dtype)  # orthonormal rows v_0, v_1, ...
    hess = np.zeros((_BASIS_STEP + 1, _BASIS_STEP), dtype)
    basis[0] = v / np.linalg.norm(v)
    floor, scale = n * np.finfo(float).eps, 0.0
    check, last = k, None
    for m in range(1, n + 1):
        w = matrix @ basis[m - 1]
        span = basis[:m]
        h = np.zeros(m, dtype)
        for _ in range(2):  # classical Gram-Schmidt, twice
            step = span @ w if real else (span @ w.conj()).conj()
            w -= step @ span
            h += step
        beta = float(np.linalg.norm(w))
        hess[:m, m - 1] = h
        hess[m, m - 1] = beta
        scale = max(scale, math.hypot(float(np.linalg.norm(h)), beta))
        exact = m == n or beta <= floor * scale
        if m >= check or exact:
            theta, s = np.linalg.eig(hess[:m, :m])
            keep = _leading(theta, k, real)
            with np.errstate(divide="ignore", invalid="ignore"):
                miss = float(np.max(beta * np.abs(s[-1, keep]) / (_RITZ_TOL * np.abs(theta[keep]))))
            if exact or miss <= 1.0:
                break
            check, last = m + _steps_to_converge(miss, last, m), (m, miss)
        if m == len(basis):
            basis = np.concatenate([basis, np.empty((_BASIS_STEP, n), dtype)])
            hess = np.pad(hess, ((0, _BASIS_STEP), (0, _BASIS_STEP)))
        basis[m] = w / beta
    if vectors:
        return theta[keep], basis[:m].T @ s[:, keep]
    return theta[keep]


def build_transfer_matrix(
    sys: BranchSystem, beta: complex, nodes_per_interval: int = 32
) -> TransferMatrix:
    """Collocation discretization of the transfer operator at parameter beta:
    the degree-1 coset extension."""
    return extend_to_coset(sys, {b.label: (0,) for b in sys.branches}, beta, nodes_per_interval)


def extend_to_coset(
    sys: BranchSystem,
    perms: Mapping[str, Sequence[int]],
    beta: complex,
    nodes_per_interval: int = 32,
) -> TransferMatrix:
    """Transfer operator on the boundary times a coset space.

    The branch labelled s acts on cosets by its permutation; the extended
    operator reads (L f)(x, a) = sum_s |g_s'(x)|^beta f(g_s x, g_s a), so
    the (a, b) block carries branch s's weights iff b = g_s a.  Degree 1
    is the base discretization.  A complex beta whose weights come out
    real gives a real matrix.  Every branch label needs a permutation, and
    every permutation a branch.
    """
    grids = _grids(sys, nodes_per_interval)
    labels = sys.labels()
    missing = [l for l in labels if l not in perms]
    if missing:
        raise ValueError(f"no coset permutation for branch labels {missing}")
    known = set(labels)
    extra = [l for l in perms if l not in known]
    if extra:
        raise ValueError(f"coset permutations for labels the system lacks: {extra}")
    degree = len(next(iter(perms.values())))
    branch_perms = tuple(permutation(perms[l], degree, f"perm for branch {l!r}") for l in labels)
    base = _collocation_rows(sys, grids, beta, np.concatenate(grids))
    return TransferMatrix(beta, sys, nodes_per_interval, degree, grids, base, branch_perms)


def _grids(sys: BranchSystem, k: int) -> tuple[np.ndarray, ...]:
    """Each branch interval's k Chebyshev-Lobatto nodes, in branch order."""
    if k < 2:
        raise ValueError("need at least 2 nodes per interval")
    return tuple(_cheb_nodes(b.lo, b.hi, k) for b in sys.branches)


def _collocation_rows(sys: BranchSystem, grids: Sequence[np.ndarray], beta: complex,
                      pts: np.ndarray) -> np.ndarray:
    """The operator's collocation rows at the points ``pts``: branch s's
    weighted cardinal block |g_s'(x)|^beta l_j(g_s x) in columns
    s*k..(s+1)*k, where l_j are the cardinal functions of ``grids[s]``.
    At the grid points themselves this is the degree-1 matrix.  A complex
    beta whose weights come out real gives a real array.  The columns of
    grids past the last branch are left unset."""
    k = len(grids[0])
    w = _bary_weights(k)
    rows = np.empty((len(pts), k * len(grids)), dtype=np.result_type(pts.dtype, beta))
    for s, b in enumerate(sys.branches):
        rows[:, s * k:(s + 1) * k] = (b.deriv_abs(pts) ** beta)[:, None] * _cardinal_matrix(
            grids[s], w, b.apply(pts))
    if np.iscomplexobj(rows) and np.all(rows.imag == 0.0):
        rows = np.ascontiguousarray(rows.real)  # a copy, so the complex buffer is freed
    return rows


# rows of base - P Q formed at a time by the core's guard
_GUARD_ROWS = 32


def _core_rank(k: int) -> int:
    """The core's order r for k nodes per interval."""
    return 2 * k + 16


def _core_factors(tm: TransferMatrix) -> tuple[np.ndarray, np.ndarray | None, float]:
    """(Q, P, residual) with ``tm.base`` = P Q to rounding: Q is the
    operator's collocation rows at r = 2k + 16 Chebyshev-Lobatto points y
    on the system's hull, P the cardinal matrix of y at the grid nodes
    (each row of the base is analytic in its node x on the hull, so it is
    interpolated from its values at y).  ``residual`` is max|base - P Q|
    over every node, relative to max|base|, formed _GUARD_ROWS rows at a
    time.  The guard keeps the core when the residual is at most n eps
    (n = len(base)), the entrywise backward error bound gamma_n of the
    dense LU's own factors of 1 - L; otherwise, or when r >= n, it returns
    (base, None, residual) with None standing for the identity P, so the
    determinant is the dense one.  A NaN anywhere fails the guard."""
    base, k = tm.base, tm.nodes_per_interval
    n, r = len(base), _core_rank(k)
    if r >= n:
        return base, None, 0.0
    y = _cheb_nodes(*tm.system.hull, r)
    p = _cardinal_matrix(y, _bary_weights(r), np.concatenate(tm.grids))
    q = _collocation_rows(tm.system, tm.grids, tm.beta, y)
    miss = scale = 0.0
    for i in range(0, n, _GUARD_ROWS):
        rows = base[i:i + _GUARD_ROWS]
        chunk = p[i:i + _GUARD_ROWS] @ q
        chunk -= rows
        miss = np.maximum(miss, np.abs(chunk).max())  # np.maximum keeps a NaN
        scale = np.maximum(scale, np.abs(rows).max())
    residual = float(miss / scale if scale else miss)
    if residual <= n * np.finfo(float).eps:
        return q, p, residual
    return base, None, residual


@dataclass(frozen=True)
class FredholmResult:
    """det(1 - L) with spectral diagnostics.  ``core_size`` is the order of
    the largest block factored (the r x r core, d r for a non-cyclic coset
    action; the base or dense order when the identity core is used) and
    ``core_residual`` the core guard's relative max|base - P Q| (0.0 when no
    guard ran: a bare array, or r >= n)."""

    value: complex
    spectral_radius: float
    singular: bool
    eigenvalues_used: int
    core_size: int
    core_residual: float

    def to_json(self) -> dict:
        return {
            "det": [self.value.real, self.value.imag],
            "log_abs_det": math.log(abs(self.value)) if self.value != 0 else None,
            "spectral_radius": self.spectral_radius,
            "singular": self.singular,
            "eigenvalues_used": self.eigenvalues_used,
            "core_size": self.core_size,
            "core_residual": self.core_residual,
        }


def _character(m: int, d: int) -> complex:
    """exp(2 pi i m / d), exact at the quarter turns so real characters
    stay real."""
    m %= d
    if 4 * m % d == 0:
        return (1.0, 1j, -1.0, -1j)[4 * m // d]
    return complex(math.cos(2 * math.pi * m / d), math.sin(2 * math.pi * m / d))


def _det_blocks(tm: TransferMatrix, q: np.ndarray, p: np.ndarray | None
                ) -> Iterator[tuple[np.ndarray, int]]:
    """The cores whose determinants multiply to det(1 - L), one at a time,
    each with the power its determinant enters with, from the factors
    base = P Q of :func:`_core_factors` (p None: the identity, q = base).

    Since det(1 - P X) = det(1 - X P), a block P X of the base's order is
    replaced by its core X P.  A cyclic coset action with g_s = t^e_s
    splits L into the twisted operators L_j = sum_s omega^(j e_s) B_s,
    j = 0..d-1, where B_s is the base restricted to branch s's columns:
    core (Q chi_j) P.  For a real base L_j and L_(d-j) are conjugate, so
    only j <= d/2 is yielded, the complex ones with power 2 (entering as
    |det|^2).  Degree 1 is the core Q P, and any other action one core of
    order d r assembled by :func:`_assemble`, as ``matrix`` is.
    """
    d, k = tm.coset_degree, tm.nodes_per_interval
    exps = cyclic_exponents(tm.branch_perms, d) if d > 1 else None
    if d > 1 and exps is None:
        yield _assemble(q, p, k, tm.branch_perms), 1
        return
    real = not np.iscomplexobj(tm.base)
    for j in range(d // 2 + 1 if real else d):
        twisted = q
        if j:
            chars = np.array([_character(j * e, d) for e in exps])
            if not chars.imag.any():
                chars = chars.real
            twisted = q * np.repeat(chars, k)[None, :]
        yield twisted if p is None else twisted @ p, 2 if j and real and 2 * j < d else 1


def fredholm_det(tm: TransferMatrix | np.ndarray, singular_tol: float = 1e-12) -> FredholmResult:
    """det(1 - L) of the discretized operator, from numpy's LU factorisations.

    A ``TransferMatrix`` goes through an r x r core, r = 2k + 16 for k
    nodes per interval (:func:`_core_factors`): its base is P Q to
    rounding, with Q the operator's rows at r Chebyshev-Lobatto points on
    the hull and P their cardinal matrix at the nodes, and
    det(1 - P Q) = det(1 - Q P).  A guard checks max|base - P Q| at every
    node against n eps max|base|; when it fails, or r >= n, the core is the
    base itself (P the identity), which is the dense determinant bit for bit.
    Coset permutations that are powers g_s = t^e_s of one d-cycle t among
    them are factored by the characters of Z/d (Venkov-Zograf):
    det(1 - L) = prod_j det(1 - L_j) with the twisted operators
    L_j = sum_s omega^(j e_s) B_s, each through its core (Q chi_j) P.  For a
    real base, L_j and L_(d-j) are conjugate, so j <= d/2 is factored and
    the complex blocks enter as |det_j|^2: a real operator's det has an
    imaginary part of exactly 0.0.  Any other action is one core of order
    d r, and a bare array one dense block.

    Each block's determinant is sign exp(log|det|) from
    ``np.linalg.slogdet`` of 1 - L_j, and exp(2 log|det|) for a block
    entering as |det_j|^2.  The spectral radius is the largest over the
    blocks of the modulus of the leading eigenvalue from :func:`_arnoldi`
    with six wanted Ritz values: with one, ARPACK converged to the second
    of two eigenvalues whose moduli differ by 4e-4 (relative) and reported
    it as the radius.  An eigenvalue within ``singular_tol`` of 1 marks a
    zeta zero/pole candidate via ``singular`` rather than failing: a
    block's flag is False without further work when its radius is below
    1 - singular_tol, True when the LU has an exactly zero pivot (a zero
    sign), and otherwise set by the eigenvalue nearest 1 in the block's
    dense ``np.linalg.eigvals``; ``singular`` is any block's flag.
    ``eigenvalues_used`` is the full matrix size, the number of factors
    1 - lambda in the determinant; ``core_size`` and ``core_residual`` say
    which core was factored and how closely it reproduced the base.
    """
    if isinstance(tm, TransferMatrix):
        q, p, residual = _core_factors(tm)
        blocks = _det_blocks(tm, q, p)
    else:
        blocks, residual = [(np.asarray(tm), 1)], 0.0
    dets, radius, singular, core_size = [], 0.0, False, 0
    for block, power in blocks:
        n = block.shape[0]
        core_size = max(core_size, n)
        work = np.negative(block, dtype=np.result_type(block, np.float64))
        work[np.diag_indices(n)] += 1.0
        sign, logabs = np.linalg.slogdet(work)
        del work
        dets.append(sign * np.exp(logabs) if power == 1 else np.exp(2.0 * logabs))
        block_radius = float(np.abs(_arnoldi(block, 6)[0])) if n else 0.0
        radius = max(radius, block_radius)
        if block_radius >= 1.0 - singular_tol and not singular:
            # a zero sign is an exactly zero pivot
            singular = bool(sign == 0 or np.abs(1.0 - np.linalg.eigvals(block)).min() < singular_tol)
    size = tm.size if isinstance(tm, TransferMatrix) else n
    return FredholmResult(complex(functools.reduce(operator.mul, dets)), radius, singular, size,
                          core_size, residual)


# N branches, k nodes and the tail degree K of Mayer's full Gauss operator (README)
GAUSS_BRANCHES = 16
GAUSS_NODES = 20
TAIL_DEGREE = 6
# B_2i / (2i)!, i = 1..6: the Euler-Maclaurin corrections of _hurwitz_zeta
_BERNOULLI = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000])


def _hurwitz_zeta(s, q) -> np.ndarray:
    """zeta(s, q) = sum_{m >= 0} (q + m)^-s for real s > 1, broadcast: ten terms, then Euler-
    Maclaurin at Q = q + 10 with B_2i / (2i)! s (s + 1) ... (s + 2i - 2) Q^(1 - s - 2i), i <= 6."""
    s, q = np.asarray(s, float)[..., None], np.asarray(q, float)[..., None]
    big, rising = q + 10.0, np.cumprod(s + np.arange(11.0), axis=-1)[..., ::2]
    head = ((q + np.arange(10)) ** -s).sum(axis=-1) + (big ** (1 - s) / (s - 1) + big ** -s / 2)[..., 0]
    return head + (rising * big ** (-s - np.arange(1.0, 12.0, 2.0))) @ _BERNOULLI


def _gauss_grids(system: BranchSystem | None = None) -> tuple[np.ndarray, ...]:
    """The full Gauss operator's grids: the N branch intervals' of ``system`` (the
    N-branch Gauss system, built when not given), then [0, 1/(N + 1)]'s."""
    n, k = GAUSS_BRANCHES, GAUSS_NODES
    system = gauss_branch_system(n) if system is None else system
    return _grids(system, k) + (_cheb_nodes(0.0, 1.0 / (n + 1), k),)


def _tail_fit(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The powers (t/h)^j, j <= K, at the points t of [0, h], and the least-squares map from
    samples there to power coefficients, solved in the Chebyshev basis and read at K + 1 t."""
    s, j = t * (GAUSS_BRANCHES + 1), np.arange(TAIL_DEGREE + 1)
    vand, cheb = s[:, None] ** j, np.cos(np.arccos(2.0 * s - 1.0)[:, None] * j)
    at = np.linspace(0, len(t) - 1, TAIL_DEGREE + 1).round().astype(int)
    return vand, np.linalg.solve(vand[at], cheb[at] @ np.linalg.solve(cheb.T @ cheb, cheb.T))


def _gauss_rows(beta: float, x: np.ndarray, system: BranchSystem | None = None,
                grids: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """The full Gauss operator's collocation rows at the points x: at the
    nodes of :func:`_gauss_grids`, its (N + 1) k square matrix.  The
    N-branch system and its grids are built when not given."""
    n, k, powers = GAUSS_BRANCHES, GAUSS_NODES, np.arange(TAIL_DEGREE + 1)
    system = gauss_branch_system(n) if system is None else system
    grids = _gauss_grids(system) if grids is None else grids
    rows = _collocation_rows(system, grids, beta, x)  # [0, h] has no branch
    # sum_{m > n} (x + m)^(-2 beta) (1 / (h (x + m)))^j = h^-j zeta(2 beta + j, x + n + 1)
    rows[:, -k:] = (_hurwitz_zeta(2.0 * beta + powers, x[:, None] + n + 1)
                    * float(n + 1) ** powers) @ _tail_fit(grids[-1])[1]
    return rows


def gauss_leading_pair(beta: float = 1.0) -> tuple[float, float]:
    """(lambda_1, lambda_2) of Mayer's Gauss operator
    (L f)(x) = sum_{n >= 1} (x + n)^(-2 beta) f(1 / (x + n)), every branch
    kept: 1 and -0.30366... (Gauss-Kuzmin-Wirsing) at beta = 1, the two
    leading Ritz pairs of one :func:`_arnoldi` run (six wanted values, with
    vectors) on its collocation matrix (README, "Full Gauss operator").
    ``beta`` must be real, finite and above 1/2, where the sum converges.
    An ArithmeticError names an eigenpair (lambda, v), max|v| = 1, whose
    tail fit misses v's samples on [0, h] by more than 1e-10 |lambda| once
    weighted by the tail's largest row sum zeta(2 beta, N + 1), whose
    L v misses lambda times v's interpolant between the nodes by 1e-12 |lambda|,
    or whose rounding floor eps max|L| / |lambda| (the relative accuracy
    that entries of size max|L| leave lambda) is above 1e-11.  That floor is
    6 to 160 times lambda_2's measured error for beta in [4, 25], and it
    refuses beta from about 10.1 on, where lambda_2 is 2.2e-5 and 6e-13 off.
    """
    if not (isinstance(beta, numbers.Real) and math.isfinite(beta) and beta > 0.5):
        raise ValueError(f"beta must be real, finite and above 1/2, got {beta!r}")
    system, k = gauss_branch_system(GAUSS_BRANCHES), GAUSS_NODES
    grids = _gauss_grids(system)
    vals, vecs = _arnoldi(_gauss_rows(beta, np.concatenate(grids), system, grids), 6, vectors=True)
    mid = (np.cos(np.pi * (np.arange(k - 1) + 0.5) / (k - 1)) + 1.0) / 2.0  # first kind, descending
    a_mid = _gauss_rows(beta, np.concatenate([g[-1] + (g[0] - g[-1]) * mid for g in grids]),
                        system, grids)
    card = _cardinal_matrix(_cheb_nodes(0.0, 1.0, k), _bary_weights(k), mid)
    (vand, fit), weight = _tail_fit(grids[-1]), _hurwitz_zeta(2.0 * beta, GAUSS_BRANCHES + 1)
    top = np.finfo(float).eps * np.abs(a_mid).max()
    for lam, v in zip(vals[:2].real, vecs[:, :2].T):
        v = (v / v[np.abs(v).argmax()]).real  # the real eigenvector, max|v| = 1
        fit_miss = weight * np.abs(vand @ (fit @ v[-k:]) - v[-k:]).max() / abs(lam)
        eq_miss = np.abs(a_mid @ v - lam * (v.reshape(-1, k) @ card.T).ravel()).max() / abs(lam)
        floor = top / abs(lam)
        if not (fit_miss <= 1e-10 and eq_miss <= 1e-12 and floor <= 1e-11):
            raise ArithmeticError(f"eigenvalue {lam:.6g}: the degree-{TAIL_DEGREE} tail fit misses "
                                  f"by {fit_miss:.3g} (limit 1e-10), L v by {eq_miss:.3g} (1e-12); "
                                  f"rounding floor {floor:.3g} (1e-11)")
    return float(vals[0].real), float(vals[1].real)
