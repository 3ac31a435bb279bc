"""Period-matrix eigenvalue families for branched covers of elliptic
curves (origami curves): primitive-differential coefficients, solution
sets, and the lattice-sum spectral action with a Poisson-summation
cross-check.

Conventions fixed here (validated by the flat-torus gate at genus 1):
the coefficient vector of the primitive differential is

    c = pi * Im(Omega)^{-1} (m - conj(Omega)^T n),

and the normalization constant is A = (1/2) c* Im(Omega) c, the Riemann
bilinear value of (i/4) int omega ^ conj(omega).  Eigenvalues come in
pairs rho = +-sqrt(lambda); sums treat the test function as even and
enumerate each lattice index once.

The box is searched once per record, box bound and tolerance: the kept
rows are memoized on the ``PeriodData`` (whose ``omega`` is a read-only
copy), so ``origami_action`` and ``solution_set`` on the same record
share one search.  The parallelism test runs on arrays.  Each kept row's
product with the base vector is one ``np.vdot``, mapped over the rows into
an array, which is then divided by |base|^2 in one array operation, and
lambda is Python scalar arithmetic per row: array forms of the product or
of lambda change the last bit.
Entries are ``SpectrumEntry`` named tuples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .perms import json_complex, json_int


@dataclass(frozen=True, eq=False)
class PeriodData:
    """Period matrix with a marked integer vector pair (n, m).  The record
    is ``eq=False``: compare ``omega``, ``n`` and ``m``.  ``omega`` is a
    read-only copy of the caller's matrix, so the solution sets memoized
    in ``_solved`` (keyed by box bound and tolerance) cannot go stale."""

    omega: np.ndarray
    n: tuple[int, ...]
    m: tuple[int, ...]
    _solved: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        om = np.array(self.omega, dtype=complex)
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise ValueError("period matrix must be square")
        if np.max(np.abs(om - om.T)) > 1e-10:
            raise ValueError("period matrix must be symmetric")
        try:
            np.linalg.cholesky(om.imag)
        except np.linalg.LinAlgError:
            raise ValueError("Im(Omega) must be positive definite") from None
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "n", tuple(self.n))
        object.__setattr__(self, "m", tuple(self.m))
        g = om.shape[0]
        if len(self.n) != g or len(self.m) != g:
            raise ValueError("n and m must have one entry per handle")
        if not any(self.n) and not any(self.m):
            raise ValueError("(n, m) must be nonzero")

    @property
    def genus(self) -> int:
        return self.omega.shape[0]

    def to_json(self) -> dict:
        return {
            "g": self.genus,
            "omega": [[[z.real, z.imag] for z in row] for row in self.omega],
            "n": list(self.n),
            "m": list(self.m),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PeriodData":
        om = np.array([[json_complex(z, f"omega[{i}][{j}]") for j, z in enumerate(row)]
                       for i, row in enumerate(obj["omega"])], dtype=complex)
        for name in ("n", "m"):
            if not isinstance(obj[name], list):
                raise ValueError(f"{name} must be a list of integers, got {obj[name]!r}")
        n, m = (tuple(json_int(x, f"{name}[{i}]") for i, x in enumerate(obj[name]))
                for name in ("n", "m"))
        return cls(om, n, m)


def primitive_coefficients(pd: PeriodData, n=None, m=None) -> tuple[np.ndarray, float]:
    """(c, A): differential coefficients and the bilinear normalization.

    c = pi Im(Omega)^{-1} (m - conj(Omega)^T n); A = (1/2) c* Im(Omega) c
    is real and positive (it is (i/4) int omega ^ conj(omega) by the
    bilinear relations for the normalized basis).
    """
    nv = np.asarray(n if n is not None else pd.n, dtype=float)
    mv = np.asarray(m if m is not None else pd.m, dtype=float)
    u = mv - np.conj(pd.omega).T @ nv
    c = math.pi * np.linalg.solve(pd.omega.imag, u)
    a_complex = 0.5 * np.vdot(c, pd.omega.imag @ c)
    if abs(a_complex.imag) > 1e-12 * max(1.0, abs(a_complex.real)):
        raise ArithmeticError(f"normalization came out non-real: {a_complex}")
    return c, float(a_complex.real)


class SpectrumEntry(NamedTuple):
    """One solution (n', m') with its eigenvalue data."""

    n: tuple[int, ...]
    m: tuple[int, ...]
    c_ratio: complex
    lam: float
    rho: float  # positive branch; -rho is the partner


def solution_set(pd: PeriodData, box_bound: int, tol: float = 1e-9) -> list[SpectrumEntry]:
    """All (n', m') in [-B, B]^{2g} \\ {0} with omega_{n',m'} parallel to
    omega_{n,m}, each with lambda = 2 A |ratio|^2 and rho = sqrt(lambda).

    The multiples (k n, k m) always qualify; the box search may find more
    for special period matrices (no completeness claim beyond the box).
    """
    g = pd.genus
    idx, ratios, lams = _solutions(pd, box_bound, tol)
    cols = idx.T.tolist()  # a list per coordinate: a list per row costs 0.8 MiB at genus 1, box 40
    # np.sqrt is correctly rounded, like math.sqrt
    return list(map(SpectrumEntry._make, zip(
        zip(*cols[:g]), zip(*cols[g:]), ratios.tolist(), lams.tolist(), np.sqrt(lams).tolist())))


# lattice points per array pass: memory stays bounded when (2B + 1)^{2g} is large
_CHUNK_ROWS = 1 << 16


def _solutions(pd: PeriodData, box_bound: int, tol: float) -> tuple[np.ndarray, ...]:
    """The solution set of ``_search``, searched once per record, box
    bound and tolerance and kept on the record."""
    if box_bound < 1:
        raise ValueError("box bound must be >= 1")
    key = (box_bound, tol)
    if key not in pd._solved:
        pd._solved[key] = _search(pd, box_bound, tol)
    return pd._solved[key]


def _search(pd: PeriodData, box_bound: int, tol: float) -> tuple[np.ndarray, ...]:
    """The solution set as read-only arrays: rows (n', m') of an int array,
    the ratios w (complex) and the eigenvalues lambda (float), in
    (lambda, n', m') order.

    The parallelism test runs on arrays, a chunk of lattice points at a
    time.  The kept rows' w (numpy's vdot per row, then one array
    division) and lambda (Python scalar arithmetic) repeat the
    one-point-at-a-time evaluation operation for operation, so the values
    do not depend on the chunking and match it bit for bit.
    """
    _c0, a0 = primitive_coefficients(pd)
    base = _u_vector(pd, pd.n, pd.m)
    norm0 = np.linalg.norm(base)
    g = pd.genus
    conj_omega = np.conj(pd.omega)
    shape = (2 * box_bound + 1,) * (2 * g)
    total = math.prod(shape)
    kept_idx, kept_u = [], []
    for start in range(0, total, _CHUNK_ROWS):
        # C order over the box is itertools.product order over [-B, B]^{2g}
        flat = np.arange(start, min(start + _CHUNK_ROWS, total))
        idx = np.stack(np.unravel_index(flat, shape), axis=1) - box_bound
        idx = idx[idx.any(axis=1)]
        u = idx[:, g:] - (idx[:, :g, None] * conj_omega[None]).sum(axis=1)
        w = (u @ np.conj(base)) / norm0 ** 2
        resid = np.linalg.norm(u - w[:, None] * base, axis=1)
        keep = resid <= tol * np.maximum(1.0, np.linalg.norm(u, axis=1))
        kept_idx.append(idx[keep])
        kept_u.append(u[keep])
    idx = np.concatenate(kept_idx)
    dots = np.fromiter(map(functools.partial(np.vdot, base), np.concatenate(kept_u)),
                       dtype=complex, count=len(idx))
    ratios = dots / norm0 ** 2
    lams = [2.0 * a0 * abs(w) ** 2 for w in ratios.tolist()]
    order = np.lexsort((*idx.T[::-1], lams))
    found = idx[order], ratios[order], np.array(lams, dtype=float)[order]
    for arr in found:
        arr.flags.writeable = False
    return found


def _u_vector(pd: PeriodData, n, m) -> np.ndarray:
    return np.asarray(m, dtype=float) - np.conj(pd.omega).T @ np.asarray(n, dtype=float)


def gaussian(width: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Even Gaussian test function exp(-(x / width)^2 / 2)."""
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"width must be positive and finite, got {width}")

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x / width) ** 2)

    return f


@dataclass(frozen=True)
class OrigamiActionResult:
    value: float
    entry_count: int
    box_bound: int
    tail_estimate: float
    lam: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "entry_count": self.entry_count,
            "box": self.box_bound,
            "tail_estimate": self.tail_estimate,
            "lambda": self.lam,
        }


def _is_even_callable(f) -> bool:
    probe = np.array([0.3, 1.7, 2.9])
    return bool(np.max(np.abs(np.asarray(f(probe)) - np.asarray(f(-probe)))) < 1e-12)


def origami_action(
    pd: PeriodData,
    f,
    lam: float = 1.0,
    box_bound: int = 30,
) -> OrigamiActionResult:
    """Partial lattice sum of f(rho / Lambda) over the solution set.

    ``f`` may be a callable or a test-pair object with an ``f`` attribute;
    it must be even (both rho branches carry the same value, and each
    lattice index is counted once).  The tail estimate extrapolates the
    outermost shell's decay geometrically; for positive f the partial
    sums increase monotonically in the box bound.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"Lambda must be positive and finite, got {lam}")
    fn = getattr(f, "f", f)
    if not _is_even_callable(fn):
        raise ValueError("test function must be even")
    idx, _ratios, lams = _solutions(pd, box_bound, 1e-9)
    vals = np.asarray(fn(np.sqrt(lams) / lam), dtype=float)
    value = float(vals.sum())

    # shell decay estimate from the outermost two shells
    shell = np.abs(idx).max(axis=1)

    def shell_sum(b: int) -> float:
        return float(vals[shell == b].sum())

    s_last = abs(shell_sum(box_bound))
    s_prev = abs(shell_sum(box_bound - 1)) if box_bound > 1 else 0.0
    if s_prev > 0 and s_last > 0 and s_last < s_prev:
        ratio = s_last / s_prev
        tail = s_last * ratio / (1.0 - ratio)
    else:
        tail = s_last
    return OrigamiActionResult(value, len(idx), box_bound, tail, lam)


@dataclass(frozen=True)
class PoissonResult:
    direct: float
    dual: float

    @property
    def discrepancy(self) -> float:
        return abs(self.direct - self.dual)


def _gram_matrix(pd: PeriodData) -> np.ndarray:
    """Gram matrix Q with lambda(n', m') = (n', m') Q (n', m')^T at genus 1."""
    if pd.genus != 1:
        raise ValueError("the Poisson reference is a genus-1 oracle only")
    tau = complex(pd.omega[0, 0])
    _c, a0 = primitive_coefficients(pd)
    u0 = abs(complex(_u_vector(pd, pd.n, pd.m)[0])) ** 2
    scale = 2.0 * a0 / u0
    # |m' - conj(tau) n'|^2 = m'^2 - 2 Re(tau) n' m' + |tau|^2 n'^2
    return scale * np.array([
        [abs(tau) ** 2, -tau.real],
        [-tau.real, 1.0],
    ])


def direct_theta_sum(mat: np.ndarray, box_bound: int) -> float:
    """sum over Z^2 (boxed) of exp(-pi v^T M v)."""
    idx = np.arange(-box_bound, box_bound + 1)
    p, q = np.meshgrid(idx, idx, indexing="ij")
    quad = (mat[0, 0] * p ** 2 + 2.0 * mat[0, 1] * p * q + mat[1, 1] * q ** 2)
    return float(np.exp(-math.pi * quad).sum())


def dual_theta_sum(mat: np.ndarray, box_bound: int) -> float:
    """det(M)^{-1/2} times the direct sum for M^{-1} (2D Poisson identity)."""
    inv = np.linalg.inv(mat)
    det = float(np.linalg.det(mat))
    return direct_theta_sum(inv, box_bound) / math.sqrt(det)


def poisson_reference(
    pd: PeriodData,
    width: float = 1.0,
    lam: float = 1.0,
    box_bound: int = 50,
) -> PoissonResult:
    """Both sides of the 2D Poisson identity for the genus-1 lattice sum.

    The Gaussian exp(-(rho / (lam width))^2 / 2) turns the full lattice
    sum (zero mode included) into a theta value for the quadratic form
    Q / (2 pi lam^2 width^2); the dual side is the transformed theta.
    """
    for name, value in (("width", width), ("Lambda", lam)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    gram = _gram_matrix(pd) / (2.0 * math.pi * (lam * width) ** 2)
    return PoissonResult(
        direct_theta_sum(gram, box_bound), dual_theta_sum(gram, box_bound)
    )


def spectrum_to_csv(entries: Sequence[SpectrumEntry]) -> str:
    rows = ["n,m,lambda,rho\n"]
    for n, m, _w, lam, rho in entries:
        rows.append(f"{' '.join(map(str, n))},{' '.join(map(str, m))},{lam!r},{rho!r}\n")
    return "".join(rows)
