"""Test-function pairs and the trace-formula spectral actions.

The pair convention follows the compact-support side: h is even, real,
supported in [-1, 1]; the spectral-side function is f(r) = integral of
h(t) e^{irt} dt, evaluated by Gauss-Legendre quadrature (so f is exact
only for |r| up to roughly the node count).  The Laplace and Dirac
identity terms reduce the half-line integrals to an exact h-side first
moment

    T = int_0^inf r f(r) dr = -int_{-1}^{1} h'(t)/t dt

plus a correction in closed form.  T is taken on the nodes of the pair's
rule, so it needs an even node count: an odd rule has a node at t = 0, and
there it is refused.  With f(r) = sum_j c_j cos(x_j r) on the folded rule
and u_j = x_j / (2 Lambda), Gradshteyn-Ryzhik 3.911.2 differentiated in b
gives the Bose correction

    int_0^inf 2 r f(r) / (e^{2 pi Lambda r} - 1) dr = sum_j c_j (1 - u_j^2 / sinh^2 u_j) / x_j^2,

and the tanh term's Fermi weight is two Bose weights.  The weights fall
below e^-45 only at r = 45/(2 pi Lambda); where that lies past the node
count, f is no longer the transform of h there, and the Laplace and Dirac
results are ``flagged``.

Every action is an identity term plus one geodesic power sum, truncated
exactly by supp h, with Lambda the cutoff scale:

    sum over classes P, powers k with k L_P <= 1/Lambda of
    m_P L_P / (2 sinh(k L_P / 2)) * Phi(k L_P, chi(P)^k).

``_power_sum`` validates the input, expands (P, k) into arrays once and
evaluates h over all terms in one call; the actions differ only in Phi
and in their identity term:

* Laplace, geodesic form: Lambda^2 (g-1) int_0^inf r f(r) tanh(Lambda pi r) dr
  + Lambda * sum over closed geodesics of length <= 1/Lambda of
  lam(gamma) / (N^1/2 - N^-1/2) * h(Lambda log N); each listed geodesic
  is one term, k = 1, with its primitive length as L_P.
* Laplace, conjugacy-class form: the same sum regrouped over primitive
  classes P and powers k, Phi = Lambda h(Lambda x).
* Dirac: coth identity kernel, Phi = Lambda chi(P)^k h(Lambda x).
* Supersymmetric (supertrace): Phi = G_Lambda built from h_Lambda(t) =
  Lambda e^{-t(Lambda-1)/2} h(Lambda t) (lambda_scaled variant) or
  Lambda G(Lambda x) with the unscaled h (r_scaled variant).

The supertrace identity integrand f(ir + 1/2) grows exponentially for
compact-support pairs, so that integral is evaluated over a documented
symmetric window (``identity_window``).  All its panel points share one
real exponential table, which also gives the mirror points; see the README
note.  Every quadrature takes its nodes from ``_gauss_legendre``, which
builds the rule once per node count and checks that its nodes are exactly
symmetric.  Every transform folds onto the positive half of the rule: f
sums one cosine per node pair +-t (``TestFunctionPair._fold``), the
Bose corrections sum one kernel value per positive node, and the
supertrace table is exponentiated on the positive nodes only, the rows of
the mirror nodes -t being its reciprocals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .hyperbolic import GeodesicClass, SpectrumResult

_BUILTIN_KINDS = ("smooth_bump", "cosine_window", "polynomial")


def _bump(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    w = np.clip(1.0 - t[inside] ** 2, 1e-300, None)
    out[inside] = np.exp(-1.0 / w)
    return out


def _bump_deriv(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    w = np.clip(1.0 - t[inside] ** 2, 1e-300, None)
    out[inside] = np.exp(-1.0 / w) * (-2.0 * t[inside]) / w ** 2
    return out


def _coswin(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, np.cos(np.pi * t / 2.0), 0.0)


def _coswin_deriv(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, -(np.pi / 2.0) * np.sin(np.pi * t / 2.0), 0.0)


def _poly(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, (1.0 - t ** 2) ** 2, 0.0)


def _poly_deriv(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, -4.0 * t * (1.0 - t ** 2), 0.0)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``leggauss(n)`` nodes and weights, built once per n.

    The arrays are shared by every caller, so they are read-only.  Every
    transform here folds onto the positive nodes, which needs the nodes to
    be exactly symmetric (``leggauss`` symmetrises them); that is checked.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    if not np.array_equal(x[::-1], -x):
        raise ArithmeticError(f"{n}-node Gauss-Legendre nodes are not exactly symmetric")
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class TestFunctionPair:
    """Even compactly supported h with its Fourier transform f.

    ``f(r)`` is the quadrature transform (cosine form, exactly even),
    evaluated on the folded rule ``_fold``: the positive nodes x+, the
    coefficients c+ = (w h)(x+) + (w h)(-x+), and the coefficient c0 of the
    t = 0 node of an odd rule (else 0.0), so f(r) = c+ @ cos(x+ r) + c0.
    ``radial_first_moment`` is the exact h-side value of int_0^inf r f(r) dr;
    it needs an even node count.
    """

    name: str
    h: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    dh: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    nodes: int = 200
    _quad: tuple = field(init=False, repr=False, compare=False, default=None)
    _fold: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        x, w = _gauss_legendre(self.nodes)
        ht = np.asarray(self.h(x), dtype=float)
        object.__setattr__(self, "_quad", (x, w, ht))
        n, m = self.nodes, self.nodes // 2
        wh = w * ht
        c0 = float(wh[m]) if n % 2 else 0.0
        object.__setattr__(self, "_fold", (x[n - m:], wh[n - m:] + wh[:m][::-1], c0))

    def f(self, r) -> np.ndarray | float:
        xp, cp, c0 = self._fold
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        vals = cp @ np.cos(np.outer(xp, rr)) + c0
        return vals if np.ndim(r) else float(vals[0])

    def h_at(self, t) -> np.ndarray | float:
        vals = self.h(np.atleast_1d(np.asarray(t, dtype=float)))
        return vals if np.ndim(t) else float(vals[0])

    def radial_first_moment(self) -> float:
        if self.nodes % 2:
            raise ValueError(
                f"the radial first moment divides by t, and t = 0 is a node of the "
                f"{self.nodes}-node rule; use an even node count"
            )
        x, w, _ht = self._quad
        return -float(np.sum(w * self.dh(x) / x))


def _check_user_pair(h, grid_tol: float = 1e-12) -> None:
    grid = np.linspace(0.0, 0.999, 211)
    ha = np.asarray(h(grid), dtype=float)
    hb = np.asarray(h(-grid), dtype=float)
    if np.max(np.abs(ha - hb)) > grid_tol:
        raise ValueError("user test function is not even")
    outside = np.array([1.0 + 1e-9, 1.25, 2.0, 5.0])
    if np.max(np.abs(np.asarray(h(outside), dtype=float))) > grid_tol:
        raise ValueError("user test function has support outside [-1, 1]")
    if abs(float(np.asarray(h(np.array([1.0])))[0])) > grid_tol:
        raise ValueError("user test function must vanish at the support endpoints")


def make_test_pair(
    kind: str,
    quadrature_nodes: int = 200,
    h: Callable | None = None,
    dh: Callable | None = None,
) -> TestFunctionPair:
    """Built-in or user-supplied test pair.

    Built-ins: ``smooth_bump`` exp(-1/(1-t^2)), C-infinity; ``cosine_window``
    cos(pi t/2), C^0 with f ~ 1/r^2; ``polynomial`` (1-t^2)^2, C^1 with
    f ~ 1/r^3.  User pairs are checked for evenness and support on a grid;
    a derivative callable is used when given, else a central difference.
    """
    if kind == "smooth_bump":
        return TestFunctionPair("smooth_bump", _bump, _bump_deriv, quadrature_nodes)
    if kind == "cosine_window":
        return TestFunctionPair("cosine_window", _coswin, _coswin_deriv, quadrature_nodes)
    if kind == "polynomial":
        return TestFunctionPair("polynomial", _poly, _poly_deriv, quadrature_nodes)
    if kind == "user_sampled":
        if h is None:
            raise ValueError("user_sampled pair needs an h callable")
        _check_user_pair(h)
        if dh is None:
            step = 1e-6

            def dh_num(t, _h=h, _s=step):
                t = np.asarray(t, dtype=float)
                return (np.asarray(_h(t + _s)) - np.asarray(_h(t - _s))) / (2 * _s)

            dh = dh_num
        return TestFunctionPair("user_sampled", h, dh, quadrature_nodes)
    raise ValueError(f"unknown test function kind {kind!r}; builtins: {_BUILTIN_KINDS}")


@dataclass(frozen=True)
class ActionResult:
    """Identity + geodesic split of one spectral-action evaluation."""

    identity_term: float | complex
    geodesic_term: float | complex
    total: float | complex
    contributing_class_count: int
    lam: float
    imag_residual: float = 0.0
    flagged: bool = False

    def to_json(self) -> dict:
        def enc(x):
            return [x.real, x.imag] if isinstance(x, complex) else x

        return {
            "identity_term": enc(self.identity_term),
            "geodesic_term": enc(self.geodesic_term),
            "total": enc(self.total),
            "contributing_class_count": self.contributing_class_count,
            "lambda": self.lam,
            "imag_residual": self.imag_residual,
            "flagged": self.flagged,
        }


def _result(identity, geodesic, count, lam, imag_residual=0.0, flagged=False) -> ActionResult:
    total = identity + geodesic
    if not (np.isfinite(identity) and np.isfinite(total)):
        raise ValueError(f"the action overflows at Lambda = {lam}: identity term {identity}, "
                         f"total {total}")
    return ActionResult(identity, geodesic, total, count, lam, imag_residual, flagged)


# 1 - u^2 / sinh^2 u = sum_k (2k - 1) 4^k B_2k / (2k)! u^2k with B_2k = p/q, k = 1..13,
# each coefficient rounded once (int / int); below u = 1/2 the 13th term is under 1e-20
_BOSE_SERIES = np.array([(2 * k - 1) * 4 ** k * p / (q * math.factorial(2 * k))
                         for k, (p, q) in enumerate((
                             (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
                             (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
                             (854513, 138), (-236364091, 2730), (8553103, 6)), 1)])


def _bose_kernel(u: np.ndarray) -> np.ndarray:
    """1 - u^2 / sinh^2 u: its Taylor series below u = 1/2, where the
    difference cancels, and 1 - (2u e^-u / expm1(-2u))^2 above, which
    does not overflow at any finite u."""
    out = np.empty_like(u)
    low = u < 0.5
    u2 = u[low] ** 2
    out[low] = u2 * np.polynomial.polynomial.polyval(u2, _BOSE_SERIES)
    v = u[~low]
    out[~low] = 1.0 - (2.0 * v * np.exp(-v) / np.expm1(-2.0 * v)) ** 2
    return out


def _bose_correction(pair, lam: float) -> float:
    """int_0^inf 2 r f(r) / (e^{2 pi Lambda r} - 1) dr
    = sum_j c_j (1 - u_j^2 / sinh^2 u_j) / x_j^2."""
    xp, cp, _c0 = pair._fold
    return float((cp / (xp * xp)) @ _bose_kernel(xp / (2.0 * lam)))


def _identity_tanh(pair, lam: float) -> float:
    """int_0^inf r f(r) tanh(Lambda pi r) dr = T - int_0^inf 2 r f(r) /
    (e^{2 pi Lambda r} + 1) dr, by 1/(e^x + 1) = 1/(e^x - 1) - 2/(e^{2x} - 1)."""
    t_moment = pair.radial_first_moment()
    return t_moment + 2.0 * _bose_correction(pair, 2.0 * lam) - _bose_correction(pair, lam)


def _identity_coth(pair, lam: float) -> float:
    """int_R r f(r) coth(Lambda pi r) dr = 2 [T + the Bose correction]."""
    return 2.0 * (pair.radial_first_moment() + _bose_correction(pair, lam))


def _past_exact_range(pair, lam: float) -> bool:
    """Whether the Bose and Fermi weights are still above e^-45 at r = nodes,
    past which the pair's quadrature f stops being the transform of h."""
    return 45.0 / (2.0 * math.pi * lam) > pair.nodes


def _identity_super(pair, lam: float, window: float, quad_nodes: int = 64) -> complex:
    """int f(ir + 1/2) tanh(Lambda pi r) dr over [-window, window].

    16 Gauss-Legendre panels cover [0, window], each paired with its
    mirror image.  Over the pair's nodes t, f(ir + 1/2) = (w h e^{it/2}) @
    e^{-t r}, so one real table e^{-t r} over every panel point r serves
    all 16 panels, and with the coefficients reversed it gives f at -r
    (``leggauss`` nodes are exactly symmetric, t[::-1] == -t).  The table
    is exponentiated on the positive nodes only: the row of a mirror node
    -t is the reciprocal of the row of t, and the t = 0 row of an odd rule
    is 1.  Each point and its mirror are summed as complex values.  The
    coefficients of t and -t stay separate, so when the sampled h is
    exactly even the two coefficient rows are conjugate and the real part
    cancels exactly; what is left measures the asymmetry of the samples.
    """
    x, w = _gauss_legendre(quad_nodes)
    t, wt, ht = pair._quad
    edges = np.linspace(0.0, window, 17)[:, None]
    half = (edges[1:] - edges[:-1]) / 2.0
    pts = (edges[:-1] + edges[1:]) / 2.0 + half * x  # one row per panel
    n, m = len(t), len(t) // 2
    table = np.empty((n, pts.size))
    np.exp(-np.outer(t[n - m:], pts), out=table[n - m:])
    np.divide(1.0, table[n - m:][::-1], out=table[:m])
    table[m:n - m] = 1.0
    coef = wt * ht * np.exp(0.5j * t)
    coef = np.stack([coef, coef[::-1]])  # rows: f at r, f at -r
    f_pos, f_neg = (coef.real @ table + 1j * (coef.imag @ table)).reshape(2, *pts.shape)
    tanh = np.tanh(lam * math.pi * pts)
    return complex(np.sum(half * w * (f_pos * tanh - f_neg * tanh)))


def _coerce_spectrum(spectrum, need_below: float) -> tuple[GeodesicClass, ...]:
    """The classes of ``spectrum``, once its certificate covers every
    geodesic up to ``need_below``.

    This is the one check of Lambda against a certificate, for every
    ``SpectrumResult``: computed, read from CSV, lifted or closed under
    powers.  A bare sequence carries no certificate and is taken as is.
    """
    if not isinstance(spectrum, SpectrumResult):
        return tuple(spectrum)
    if not spectrum.converged:
        raise ValueError(
            "spectrum is flagged possibly incomplete (converged false); "
            "refusing to drop geodesic terms"
        )
    if spectrum.certified_below < need_below - 1e-12:
        raise ValueError(
            f"the action needs every geodesic up to length 1/Lambda = {need_below:g}, "
            f"but the spectrum is certified only below {spectrum.certified_below:g}"
        )
    return spectrum.classes


def _power_sum(
    genus: int,
    spectrum: Sequence[GeodesicClass] | SpectrumResult,
    pair: TestFunctionPair,
    lam: float,
    phi: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    chi: Sequence[complex] | None = None,
    power_form: str | None = None,
) -> tuple[float | complex, int]:
    """Geodesic term and contributing count of one trace-formula action.

    The sum runs over classes P and powers k with k L_P <= 1/Lambda of

        m L_P / (2 sinh(k L_P / 2)) * phi(k L_P, chi(P)^k, h(Lambda k L_P)),

    with h evaluated once over all terms (chi = 1 when not given).  A
    ``power_form`` (its name goes in the error) takes primitive classes and
    expands their powers; without one each class is a single term, k = 1,
    whose L_P is its ``primitive_length``.  The input is validated here:
    genus, a finite positive Lambda, spectrum completeness, one chi value
    per class, positive and finite lengths and multiplicities of at least 1.
    """
    if genus < 2:
        raise ValueError("hyperbolic trace formula needs genus >= 2")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"Lambda must be positive and finite, got {lam}")
    cutoff = 1.0 / lam
    classes = _coerce_spectrum(spectrum, cutoff)
    if chi is None:
        chi = [1.0] * len(classes)
    elif len(chi) != len(classes):
        raise ValueError(
            f"need one character value per class: got {len(chi)} for {len(classes)}"
        )
    if power_form and not all(c.primitive for c in classes):
        raise ValueError(f"{power_form} expects primitive classes only")
    length = np.array([c.length for c in classes], dtype=float)
    if not np.all(np.isfinite(length) & (length > 0.0)):
        raise ValueError("geodesic lengths must be positive and finite")
    mult = np.array([c.multiplicity for c in classes], dtype=int)
    if np.any(mult < 1):
        bad = next(c for c in classes if c.multiplicity < 1)
        raise ValueError(f"class {bad.word!r} has multiplicity {bad.multiplicity}; need >= 1")
    cut = cutoff + 1e-15
    top = int(cut / length.min()) + 1 if power_form and len(classes) else 1
    x = np.outer(length, np.arange(1.0, top + 1.0))  # k L_P per class and power
    i, j = np.nonzero(x <= cut)
    x = x[i, j]
    mult = mult[i]
    l_p = np.array([c.primitive_length for c in classes], dtype=float)[i]
    chi_k = np.asarray(chi, dtype=complex)[i] ** (j + 1)
    weight = mult * l_p / (2.0 * np.sinh(x / 2.0))
    total = complex(np.sum(weight * phi(x, chi_k, pair.h_at(lam * x))))
    if abs(total.imag) < 1e-14 * max(1.0, abs(total.real)):
        return total.real, int(mult.sum())
    return total, int(mult.sum())


def _laplace_phi(lam: float):
    """phi of the Laplace and Dirac actions: Lambda chi(P)^k h(Lambda k L_P)."""
    return lambda x, chi_k, hx: lam * chi_k * hx


def laplace_action_geodesic(
    genus: int,
    spectrum: Sequence[GeodesicClass] | SpectrumResult,
    pair: TestFunctionPair,
    lam: float,
) -> ActionResult:
    """Laplace spectral action, oriented-geodesic form.

    The spectrum must contain every closed geodesic (primitives and
    powers) of length <= 1/Lambda; entries beyond the cutoff contribute
    exactly zero and are skipped.  The result is ``flagged`` where the
    identity weight reaches past the range in which the pair's f is exact.
    """
    geodesic, count = _power_sum(genus, spectrum, pair, lam, _laplace_phi(lam))
    identity = lam * lam * (genus - 1) * _identity_tanh(pair, lam)
    return _result(identity, geodesic, count, lam, flagged=_past_exact_range(pair, lam))


def laplace_action_conjugacy(
    genus: int,
    primitive_classes: Sequence[GeodesicClass] | SpectrumResult,
    pair: TestFunctionPair,
    lam: float,
) -> ActionResult:
    """Laplace spectral action, primitive-conjugacy-class form.

    Powers are generated internally over the finite sets
    S_Lambda(P) = {l : l L_P <= 1/Lambda}.  Flagged as the geodesic form is.
    """
    geodesic, count = _power_sum(genus, primitive_classes, pair, lam, _laplace_phi(lam),
                                 power_form="conjugacy form")
    identity = lam * lam * (genus - 1) * _identity_tanh(pair, lam)
    return _result(identity, geodesic, count, lam, flagged=_past_exact_range(pair, lam))


def dirac_action(
    genus: int,
    primitive_classes: Sequence[GeodesicClass] | SpectrumResult,
    chi: Sequence[complex],
    pair: TestFunctionPair,
    lam: float,
) -> ActionResult:
    """Dirac spectral action with spin-character weights.

    ``chi`` lists chi(P) per primitive class, in order; the geodesic term
    weights each power by chi(P)^l, so chi == 1 reproduces the Laplace
    conjugacy-form geodesic term.  The identity kernel is r f(r)
    coth(Lambda pi r) over the whole line.  Flagged as the Laplace actions are.
    """
    geodesic, count = _power_sum(genus, primitive_classes, pair, lam, _laplace_phi(lam),
                                 chi=chi, power_form="Dirac action")
    identity = lam * lam * (genus - 1) * _identity_coth(pair, lam)
    return _result(identity, geodesic, count, lam, flagged=_past_exact_range(pair, lam))


def supertrace_g(x: float | np.ndarray, chi: complex | np.ndarray, h_fn):
    """G(x, chi) = h(x) + h(-x) - chi (e^{-x/2} h(x) + e^{x/2} h(-x)),
    elementwise when x and chi are arrays (h_fn then takes arrays)."""
    hp = h_fn(x)
    hm = h_fn(-x)
    return hp + hm - chi * (np.exp(-x / 2.0) * hp + np.exp(x / 2.0) * hm)


def super_action(
    genus: int,
    primitive_classes: Sequence[GeodesicClass] | SpectrumResult,
    chi: Sequence[complex],
    pair: TestFunctionPair,
    lam: float,
    variant: str = "lambda_scaled",
    identity_window: float = 12.0,
    quad_nodes: int = 64,
    imag_tol: float = 1e-9,
) -> ActionResult:
    """Supersymmetric (supertrace) spectral action.

    ``lambda_scaled`` uses G built from h_Lambda(t) = Lambda
    e^{-t(Lambda-1)/2} h(Lambda t); ``r_scaled`` uses Lambda G(Lambda x)
    with the unscaled h.  Both reduce to the same unscaled supertrace sum
    at Lambda = 1.  The identity term i Lambda (g-1) int f(ir+1/2)
    tanh(Lambda pi r) dr is integrated over [-identity_window,
    identity_window] (the compact-support continuation grows like e^|r|,
    so the window is part of the definition here); its imaginary part
    cancels by symmetry and the residual is reported, flagged above
    ``imag_tol``.
    """
    if variant not in ("lambda_scaled", "r_scaled"):
        raise ValueError(f"unknown variant {variant!r}")

    # h is even, so hx = h(Lambda x) is also h at -Lambda x
    def phi(x, chi_k, hx):
        if variant == "lambda_scaled":
            return supertrace_g(x, chi_k, lambda t: lam * np.exp(-t * (lam - 1.0) / 2.0) * hx)
        return lam * supertrace_g(lam * x, chi_k, lambda t: hx)

    geodesic, count = _power_sum(genus, primitive_classes, pair, lam, phi,
                                 chi=chi, power_form="super action")
    identity_c = 1j * lam * (genus - 1) * _identity_super(pair, lam, identity_window, quad_nodes)
    imag_residual = float(abs(identity_c.imag))
    return _result(float(identity_c.real), geodesic, count, lam,
                   imag_residual=imag_residual, flagged=bool(imag_residual > imag_tol))

