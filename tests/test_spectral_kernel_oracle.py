"""The four spectral actions against frozen copies of their per-class loops.

The oracle below is the implementation that wrote the geodesic power sum
out once per action, with scalar h calls, and evaluated the supertrace
identity term with 2048 scalar calls of the continued transform
f(z) = sum w h e^{izt}.  The library expands (class, power) into arrays
once and evaluates h and that transform on arrays; identity, geodesic and
total terms must agree to 1e-12 relative, with the same contributing
count and flag.

Classes are built the way ``length_spectrum`` builds them: the length is
computed from the trace, so the oracle's trace-based conjugacy loops and
its length-based super loop see the same primitive length.

A second frozen oracle keeps the unfolded quadrature: f(r) over all nodes
of the rule, the panel integral with one f call per panel, and the
supertrace identity table exponentiated at every node.  The library folds
each onto the positive nodes; f must agree to 1e-14 of sum |w h|, and every
identity term to 1e-14 relative.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adinkra_spectra.hyperbolic import GeodesicClass, length_of_trace, power_closure
from adinkra_spectra.spectral import (
    _identity_coth,
    _identity_super,
    _identity_tanh,
    dirac_action,
    laplace_action_conjugacy,
    laplace_action_geodesic,
    make_test_pair,
    super_action,
)

KINDS = ("smooth_bump", "cosine_window", "polynomial")
PAIRS = {kind: make_test_pair(kind) for kind in KINDS}
ODD_PAIRS = {kind: make_test_pair(kind, quadrature_nodes=151) for kind in KINDS}
GENUS = 3

# -- frozen oracle ----------------------------------------------------------


def _oracle_laplace_geodesic(classes, pair, lam):
    cutoff = 1.0 / lam
    identity = lam * lam * (GENUS - 1) * _identity_tanh(pair, lam)
    geodesic = 0.0
    count = 0
    for c in classes:
        if c.length > cutoff + 1e-15:
            continue
        weight = c.primitive_length / (2.0 * math.sinh(c.length / 2.0))
        geodesic += c.multiplicity * weight * float(pair.h_at(lam * c.length))
        count += c.multiplicity
    geodesic *= lam
    return identity, geodesic, count


def _oracle_power_loop(classes, chi, pair, lam):
    cutoff = 1.0 / lam
    geodesic = 0.0 + 0.0j
    count = 0
    for c, chi_p in zip(classes, chi):
        half = math.acosh(c.trace / 2)
        ell = 1
        while 2.0 * ell * half <= cutoff + 1e-15:
            geodesic += (
                c.multiplicity
                * (chi_p ** ell)
                * half
                * float(pair.h_at(lam * 2.0 * ell * half))
                / math.sinh(ell * half)
            )
            count += c.multiplicity
            ell += 1
    return geodesic * lam, count


def _oracle_laplace_conjugacy(classes, pair, lam):
    identity = lam * lam * (GENUS - 1) * _identity_tanh(pair, lam)
    geodesic, count = _oracle_power_loop(classes, [1.0] * len(classes), pair, lam)
    return identity, geodesic.real, count


def _oracle_dirac(classes, chi, pair, lam):
    identity = lam * lam * (GENUS - 1) * _identity_coth(pair, lam)
    geodesic, count = _oracle_power_loop(classes, chi, pair, lam)
    if abs(geodesic.imag) < 1e-14 * max(1.0, abs(geodesic.real)):
        geodesic = geodesic.real
    return identity, geodesic, count


def _oracle_f_complex(pair, z):
    x, w, ht = pair._quad
    return complex(np.sum(w * ht * np.exp(1j * z * x)))


def _oracle_supertrace_g(x, chi, h_fn):
    hp = h_fn(x)
    hm = h_fn(-x)
    return hp + hm - chi * (math.exp(-x / 2.0) * hp + math.exp(x / 2.0) * hm)


def _oracle_super_identity(pair, lam, window=12.0, quad_nodes=64):
    x, w = np.polynomial.legendre.leggauss(quad_nodes)
    edges = np.linspace(0.0, window, 17)
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        for sign in (+1.0, -1.0):
            pts = sign * (mid + half * x)
            vals = np.array([_oracle_f_complex(pair, 1j * r + 0.5) for r in pts])
            total += half * np.sum(w * vals * np.tanh(lam * math.pi * pts))
    identity_c = 1j * lam * (GENUS - 1) * complex(total)
    return float(identity_c.real), float(abs(identity_c.imag))


def _oracle_super_geodesic(classes, chi, pair, lam, variant):
    def h_lambda(t):
        return lam * math.exp(-t * (lam - 1.0) / 2.0) * float(pair.h_at(lam * t))

    cutoff = 1.0 / lam
    geodesic = 0.0 + 0.0j
    count = 0
    for c, chi_p in zip(classes, chi):
        k = 1
        while k * c.length <= cutoff + 1e-15:
            x_arg = k * c.length
            weight = c.primitive_length / (2.0 * math.sinh(x_arg / 2.0))
            if variant == "lambda_scaled":
                term = _oracle_supertrace_g(x_arg, chi_p ** k, h_lambda)
            else:
                term = lam * _oracle_supertrace_g(lam * x_arg, chi_p ** k,
                                                  lambda t: float(pair.h_at(t)))
            geodesic += c.multiplicity * weight * term
            count += c.multiplicity
            k += 1
    if abs(geodesic.imag) < 1e-14 * max(1.0, abs(geodesic.real)):
        geodesic = geodesic.real
    return geodesic, count


# -- strategies and comparison ----------------------------------------------


def _primitive(length, mult, i):
    trace = 2.0 * math.cosh(length / 2.0)
    exact = length_of_trace(trace)
    return GeodesicClass(trace, exact, exact, mult, f"w{i}", True)


@st.composite
def spectra(draw):
    lengths = sorted(draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6)))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(lengths), max_size=len(lengths)))
    return [_primitive(l, m, i) for i, (l, m) in enumerate(zip(lengths, mults))]


def characters(n):
    sign = st.sampled_from((1.0, -1.0))
    unit = st.floats(0.0, 2.0 * math.pi).map(lambda a: cmath.exp(1j * a))
    return st.lists(st.one_of(sign, unit), min_size=n, max_size=n)


lams = st.floats(0.3, 3.0)
kinds = st.sampled_from(KINDS)


def assert_matches(res, identity, geodesic, count):
    for got, ref in ((res.identity_term, identity), (res.geodesic_term, geodesic),
                     (res.total, identity + geodesic)):
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)
    assert res.contributing_class_count == count


@settings(max_examples=100, deadline=None)
@given(spectra(), lams, kinds)
def test_laplace_forms_match_oracle(prims, lam, kind):
    pair = PAIRS[kind]
    closed = power_closure(prims, 1.0 / lam)
    for spectrum in (prims, closed):
        res = laplace_action_geodesic(GENUS, spectrum, pair, lam)
        assert_matches(res, *_oracle_laplace_geodesic(spectrum, pair, lam))
        assert not res.flagged
    res = laplace_action_conjugacy(GENUS, prims, pair, lam)
    assert_matches(res, *_oracle_laplace_conjugacy(prims, pair, lam))


@settings(max_examples=100, deadline=None)
@given(st.data(), spectra(), lams, kinds)
def test_dirac_matches_oracle(data, prims, lam, kind):
    chi = data.draw(characters(len(prims)))
    pair = PAIRS[kind]
    res = dirac_action(GENUS, prims, chi, pair, lam)
    assert_matches(res, *_oracle_dirac(prims, chi, pair, lam))
    assert not res.flagged


@settings(max_examples=30, deadline=None)
@given(st.data(), spectra(), lams, kinds, st.floats(4.0, 14.0), st.sampled_from((16, 32, 64)))
def test_super_matches_oracle(data, prims, lam, kind, window, quad_nodes):
    chi = data.draw(characters(len(prims)))
    pair = data.draw(st.sampled_from((PAIRS[kind], ODD_PAIRS[kind])))
    identity, imag_residual = _oracle_super_identity(pair, lam, window, quad_nodes)
    for variant in ("lambda_scaled", "r_scaled"):
        res = super_action(GENUS, prims, chi, pair, lam, variant=variant,
                           identity_window=window, quad_nodes=quad_nodes)
        assert_matches(res, identity, *_oracle_super_geodesic(prims, chi, pair, lam, variant))
        assert res.flagged == (imag_residual > 1e-9)
        assert res.imag_residual < 1e-9


# -- frozen unfolded quadrature ----------------------------------------------


def _unfolded_f(pair, r):
    x, w, ht = pair._quad
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    vals = (w * ht) @ np.cos(np.outer(x, rr))
    return vals if np.ndim(r) else float(vals[0])


def _unfolded_panel_integral(fn, lo, hi, panels, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.geomspace(1.0, 2.0 ** panels, panels + 1) - 1.0
    edges = lo + (hi - lo) * edges / edges[-1]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        total += half * float(np.sum(w * fn(mid + half * x)))
    return total


def _unfolded_tanh(pair, lam, quad_nodes):
    t_moment = pair.radial_first_moment()
    cut = 45.0 / (2.0 * lam * math.pi)

    def integrand(r):
        return -2.0 * r * _unfolded_f(pair, r) / (np.exp(2.0 * lam * math.pi * r) + 1.0)

    return t_moment + _unfolded_panel_integral(integrand, 0.0, cut, 8, quad_nodes)


def _unfolded_coth(pair, lam, quad_nodes):
    t_moment = pair.radial_first_moment()
    cut = 45.0 / (2.0 * lam * math.pi)

    def integrand(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * r * _unfolded_f(pair, r) / np.expm1(2.0 * lam * math.pi * r)

    return 2.0 * (t_moment + _unfolded_panel_integral(integrand, 0.0, cut, 8, quad_nodes))


def _unfolded_super(pair, lam, window, quad_nodes):
    x, w = np.polynomial.legendre.leggauss(quad_nodes)
    t, wt, ht = pair._quad
    edges = np.linspace(0.0, window, 17)[:, None]
    half = (edges[1:] - edges[:-1]) / 2.0
    pts = (edges[:-1] + edges[1:]) / 2.0 + half * x
    table = np.exp(-np.outer(t, pts))
    coef = wt * ht * np.exp(0.5j * t)
    coef = np.stack([coef, coef[::-1]])
    f_pos, f_neg = (coef.real @ table + 1j * (coef.imag @ table)).reshape(2, *pts.shape)
    tanh = np.tanh(lam * math.pi * pts)
    return complex(np.sum(half * w * (f_pos * tanh - f_neg * tanh)))


FOLD_PAIRS = {(kind, n): make_test_pair(kind, n) for kind in KINDS for n in (200, 151, 64, 2)}
even_nodes = st.sampled_from((200, 64, 2))
any_nodes = st.sampled_from((200, 151, 64, 2))
fold_lams = st.floats(0.1, 3.0)
panel_nodes = st.sampled_from((16, 64))


def assert_close(got, ref, rel=1e-14):
    assert abs(got - ref) <= rel * abs(ref), (got, ref)


@settings(max_examples=40, deadline=None)
@given(kinds, any_nodes, st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40))
def test_folded_f_matches_unfolded(kind, nodes, r):
    pair = FOLD_PAIRS[kind, nodes]
    _x, w, ht = pair._quad
    scale = float(np.sum(np.abs(w * ht)))
    assert np.max(np.abs(pair.f(np.array(r)) - _unfolded_f(pair, np.array(r)))) <= 1e-14 * scale
    assert abs(pair.f(r[0]) - _unfolded_f(pair, r[0])) <= 1e-14 * scale


@settings(max_examples=100, deadline=None)
@given(kinds, even_nodes, fold_lams, panel_nodes)
def test_folded_tanh_and_coth_match_unfolded(kind, nodes, lam, quad_nodes):
    pair = FOLD_PAIRS[kind, nodes]
    assert_close(_identity_tanh(pair, lam), _unfolded_tanh(pair, lam, quad_nodes))
    assert_close(_identity_coth(pair, lam), _unfolded_coth(pair, lam, quad_nodes))


@settings(max_examples=100, deadline=None)
@given(kinds, any_nodes, fold_lams, st.sampled_from((4.0, 12.0, 14.0)), panel_nodes)
def test_folded_super_identity_matches_unfolded(kind, nodes, lam, window, quad_nodes):
    pair = FOLD_PAIRS[kind, nodes]
    ref = _unfolded_super(pair, lam, window, quad_nodes)
    got = _identity_super(pair, lam, window, quad_nodes)
    assert_close(got, ref)
    res = super_action(GENUS, [], [], pair, lam, identity_window=window, quad_nodes=quad_nodes)
    assert res.imag_residual == 0.0 and not res.flagged
    assert_close(res.identity_term, (1j * lam * (GENUS - 1) * ref).real)
