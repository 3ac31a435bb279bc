import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from adinkra_spectra.hyperbolic import GeodesicClass
from adinkra_spectra.spectral import (
    _gauss_legendre,
    dirac_action,
    laplace_action_conjugacy,
    laplace_action_geodesic,
    make_test_pair,
    super_action,
    supertrace_g,
)

from test_spectral_kernel_oracle import _unfolded_coth, _unfolded_tanh


def f_coswin_closed(r):
    r = np.asarray(r, dtype=float)
    denom = (np.pi / 2) ** 2 - r ** 2
    near = np.abs(denom) < 1e-8
    out = np.empty_like(r)
    out[~near] = np.pi * np.cos(r[~near]) / denom[~near]
    out[near] = np.sin(r[near]) * np.pi / (2 * r[near])  # removable limit
    return out


def f_poly_closed(r):
    # 16 (-r^2 sin r - 3 r cos r + 3 sin r) / r^5, with the series used
    # below r = 1 where the numerator cancels catastrophically
    r = np.asarray(r, dtype=float)
    small = np.abs(r) < 1.0
    out = np.empty_like(r)
    rs = r[~small]
    out[~small] = 16 * (-rs ** 2 * np.sin(rs) - 3 * rs * np.cos(rs) + 3 * np.sin(rs)) / rs ** 5
    acc = np.zeros_like(r[small])
    term_r = r[small] ** 2
    fact = 1.0
    for k in range(12):
        fact = math.factorial(2 * k)
        acc += (-1) ** k * term_r ** k / (fact * (2 * k + 1) * (2 * k + 3) * (2 * k + 5))
    out[small] = 16 * acc
    return out


def synthetic_class(length, mult=1, word="w"):
    return GeodesicClass(2 * math.cosh(length / 2), length, length, mult, word, True)


def test_coswin_matches_closed_form():
    pair = make_test_pair("cosine_window", 200)
    r = np.linspace(0.0, 40.0, 173)
    assert np.max(np.abs(pair.f(r) - f_coswin_closed(r))) < 1e-12


def test_poly_matches_closed_form():
    pair = make_test_pair("polynomial", 200)
    r = np.linspace(0.0, 40.0, 173)
    assert np.max(np.abs(pair.f(r) - f_poly_closed(r))) < 1e-12


@pytest.mark.parametrize("kind", ["smooth_bump", "cosine_window", "polynomial"])
def test_f_at_zero_is_h_integral(kind):
    pair = make_test_pair(kind, 180)
    direct = quad(lambda t: float(pair.h_at(t)), -1, 1, limit=200)[0]
    assert pair.f(0.0) == pytest.approx(direct, abs=1e-12)


def test_f_is_exactly_even():
    pair = make_test_pair("smooth_bump")
    r = np.linspace(0.1, 20, 57)
    assert np.max(np.abs(pair.f(r) - pair.f(-r))) < 1e-13


@pytest.mark.parametrize("n", [16, 64, 151, 200])
def test_gauss_legendre_rule_is_shared_leggauss(n):
    x, w = _gauss_legendre(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    a, b = make_test_pair("smooth_bump", n), make_test_pair("polynomial", n)
    assert a._quad[0] is b._quad[0] is x and a._quad[1] is b._quad[1] is w
    # the supertrace identity term reads f at -r off the reversed nodes
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)


def test_user_pair_checks():
    with pytest.raises(ValueError, match="even"):
        make_test_pair("user_sampled", h=lambda t: np.where(np.abs(t) <= 1, t + 1, 0.0) * np.where(np.abs(t) <= 1, 1, 0))
    with pytest.raises(ValueError, match="support"):
        make_test_pair("user_sampled", h=lambda t: np.exp(-np.asarray(t) ** 2))
    pair = make_test_pair("user_sampled", h=lambda t: np.where(np.abs(np.asarray(t)) <= 1, (1 - np.asarray(t) ** 2) ** 2, 0.0))
    assert pair.f(0.0) == pytest.approx(16.0 / 15, abs=1e-10)


def test_radial_first_moment_poly_exact():
    # h = (1-t^2)^2: -int h'(t)/t dt = int 4(1-t^2) dt = 16/3
    pair = make_test_pair("polynomial", 200)
    assert pair.radial_first_moment() == pytest.approx(16.0 / 3, abs=1e-13)


def test_radial_first_moment_coswin_exact():
    # pi * Si(pi/2)
    pair = make_test_pair("cosine_window", 200)
    si, _ci = sici(np.pi / 2)
    assert pair.radial_first_moment() == pytest.approx(np.pi * si, abs=1e-13)


def test_radial_first_moment_against_fourier_quadrature():
    # independent oracle: QUADPACK oscillatory-weight tails of r*f(r)
    a = 5.0
    head = quad(lambda x: x * float(f_poly_closed(np.array([x]))[0]), 0, a, limit=200)[0]
    t1 = quad(lambda x: -16.0 / x ** 2, a, np.inf, weight="sin", wvar=1.0)[0]
    t2 = quad(lambda x: -48.0 / x ** 3, a, np.inf, weight="cos", wvar=1.0)[0]
    t3 = quad(lambda x: 48.0 / x ** 4, a, np.inf, weight="sin", wvar=1.0)[0]
    pair = make_test_pair("polynomial", 200)
    assert pair.radial_first_moment() == pytest.approx(head + t1 + t2 + t3, abs=1e-9)


@pytest.mark.parametrize("nodes", [151, 201])
def test_odd_node_count_refuses_the_first_moment(nodes):
    # t = 0 is a node of an odd rule, where -h'(t)/t is 0/0
    pair = make_test_pair("smooth_bump", nodes)
    cls = synthetic_class(1.2)
    message = f"t = 0 is a node of the {nodes}-node rule; use an even node count"
    with pytest.raises(ValueError, match=message):
        laplace_action_conjugacy(2, [cls], pair, 0.5)
    with pytest.raises(ValueError, match=message):
        laplace_action_geodesic(2, [cls], pair, 0.5)
    with pytest.raises(ValueError, match=message):
        dirac_action(2, [cls], [-1.0], pair, 0.5)
    # the supertrace identity term never takes the moment
    res = super_action(2, [cls], [-1.0], pair, 0.5)
    assert math.isfinite(res.total) and res.imag_residual == 0.0 and not res.flagged


def test_asymmetric_gauss_legendre_rule_is_refused(monkeypatch):
    leggauss = np.polynomial.legendre.leggauss

    def skewed(n):
        x, w = leggauss(n)
        return np.nextafter(x, np.inf), w

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", skewed)
    with pytest.raises(ArithmeticError, match="13-node Gauss-Legendre nodes are not exactly symmetric"):
        _gauss_legendre(13)  # a node count no other test builds, so not cached


def test_identity_term_against_direct_quadrature():
    # split evaluation vs direct tanh quadrature with analytic tails
    from adinkra_spectra.spectral import _identity_tanh

    pair = make_test_pair("polynomial", 200)
    lam = 1.0
    a = 5.0
    head = quad(lambda x: x * float(f_poly_closed(np.array([x]))[0]) * math.tanh(lam * math.pi * x), 0, a, limit=200)[0]
    t1 = quad(lambda x: -16.0 / x ** 2, a, np.inf, weight="sin", wvar=1.0)[0]
    t2 = quad(lambda x: -48.0 / x ** 3, a, np.inf, weight="cos", wvar=1.0)[0]
    t3 = quad(lambda x: 48.0 / x ** 4, a, np.inf, weight="sin", wvar=1.0)[0]
    assert _identity_tanh(pair, lam) == pytest.approx(head + t1 + t2 + t3, abs=1e-9)


@pytest.mark.parametrize("kind", ["smooth_bump", "cosine_window", "polynomial"])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 10.0])
def test_identity_terms_stable_under_node_doubling(kind, lam):
    # the closed form against the frozen panel quadrature at 64 and 128
    # nodes per panel
    from adinkra_spectra.spectral import _identity_coth, _identity_tanh

    pair = make_test_pair(kind, 200)
    for quad_nodes in (64, 128):
        assert _identity_tanh(pair, lam) == pytest.approx(
            _unfolded_tanh(pair, lam, quad_nodes), abs=1e-13
        )
        assert _identity_coth(pair, lam) == pytest.approx(
            _unfolded_coth(pair, lam, quad_nodes), abs=1e-13
        )


def _kernel_reference(u):
    """u^2 K_F(u) = u^2 cosh u / sinh^2 u - 1 and u^2 K_B(u) = 1 - u^2 / sinh^2 u
    in 40-digit arithmetic, with the size of what the double forms subtract
    above u = 1/2, where they cancel."""
    with mpmath.workdps(40):
        m = mpmath.mpf(u)
        fermi = m ** 2 * mpmath.cosh(m) / mpmath.sinh(m) ** 2 - 1
        bose = 1 - m ** 2 / mpmath.sinh(m) ** 2
        return float(fermi), float(bose), (2.0 if u >= 0.5 else 0.0)


KERNEL_POINTS = np.concatenate([
    np.geomspace(1e-6, 800.0, 300),
    [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.49999, 0.50001,
     np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1e150, 1e300],
])


def test_fermi_and_bose_kernels_match_mpmath():
    # the tanh term takes its Fermi kernel from two Bose kernels,
    # by 1/(e^x + 1) = 1/(e^x - 1) - 2/(e^{2x} - 1)
    from adinkra_spectra.spectral import _bose_kernel

    bose = _bose_kernel(KERNEL_POINTS)
    fermi = bose - 2.0 * _bose_kernel(KERNEL_POINTS / 2.0)
    ulp = np.finfo(float).eps
    for u, got_f, got_b in zip(KERNEL_POINTS, fermi, bose):
        ref_f, ref_b, cancelled = _kernel_reference(u)
        assert abs(got_f - ref_f) <= 4 * ulp * max(abs(ref_f), cancelled), (u, got_f, ref_f)
        assert abs(got_b - ref_b) <= 4 * ulp * max(abs(ref_b), cancelled), (u, got_b, ref_b)


@pytest.mark.parametrize("lam", [1e-200, 1e-6, 1e-3, 1e3, 1e6, 1e200])
def test_identity_terms_are_finite_without_warnings(lam):
    from adinkra_spectra.spectral import _identity_coth, _identity_tanh

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("smooth_bump", "cosine_window", "polynomial"):
            pair = make_test_pair(kind)
            assert math.isfinite(_identity_tanh(pair, lam))
            assert math.isfinite(_identity_coth(pair, lam))


@pytest.mark.parametrize("nodes", [200, 64, 2])
def test_identity_terms_are_flagged_where_the_transform_stops_being_exact(nodes):
    # the identity weights reach r = 45/(2 pi Lambda); f is exact only up
    # to about the node count
    pair = make_test_pair("polynomial", nodes)
    edge = 45.0 / (2.0 * math.pi * nodes)
    cls = synthetic_class(0.5)
    for lam, flagged in ((edge * 0.99, True), (edge * 1.01, False)):
        results = (laplace_action_geodesic(2, [cls], pair, lam),
                   laplace_action_conjugacy(2, [cls], pair, lam),
                   dirac_action(2, [cls], [-1.0], pair, lam))
        for res in results:
            assert res.flagged is flagged and res.to_json()["flagged"] is flagged
            assert math.isfinite(res.identity_term)


def test_single_geodesic_hand_value():
    pair = make_test_pair("smooth_bump")
    cls = synthetic_class(0.5)
    res = laplace_action_geodesic(2, [cls], pair, 1.0)
    expected = 0.5 * float(pair.h_at(0.5)) / (2 * math.sinh(0.25))
    assert res.geodesic_term == pytest.approx(expected, rel=1e-14)
    assert res.total == res.identity_term + res.geodesic_term
    assert res.contributing_class_count == 1


@pytest.mark.parametrize("kind", ["smooth_bump", "cosine_window", "polynomial"])
def test_cutoff_exactness(kind):
    pair = make_test_pair(kind)
    cls = synthetic_class(0.8)
    res = laplace_action_geodesic(3, [cls], pair, 1.5)  # 1.5 * 0.8 = 1.2 > 1
    assert res.geodesic_term == 0.0
    assert res.contributing_class_count == 0
    res2 = laplace_action_conjugacy(3, [cls], pair, 1.5)
    assert res2.geodesic_term == 0.0


def test_membership_boundary_s_lambda():
    # t_P = 2 cosh(0.3): power ell contributes iff 2*ell*0.3 <= 1/Lambda
    pair = make_test_pair("polynomial")
    cls = GeodesicClass(2 * math.cosh(0.3), 0.6, 0.6, 1, "w", True)
    res = laplace_action_conjugacy(2, [cls], pair, 1.0)
    assert res.contributing_class_count == 1  # only ell = 1 (0.6 <= 1 < 1.2)


def rng_spectrum(rng, n_classes):
    lengths = sorted(rng.uniform(0.2, 3.0) for _ in range(n_classes))
    return [synthetic_class(l, mult=rng.choice([1, 1, 2]), word=f"w{i}")
            for i, l in enumerate(lengths)]


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_regrouping_identity(lam):
    import random

    from adinkra_spectra.hyperbolic import power_closure

    rng = random.Random(42)
    pair = make_test_pair("smooth_bump")
    for _ in range(10):
        prims = rng_spectrum(rng, rng.randint(1, 6))
        closed = power_closure(prims, 1.0 / lam)
        a = laplace_action_geodesic(4, closed, pair, lam)
        b = laplace_action_conjugacy(4, prims, pair, lam)
        scale = max(1.0, abs(b.total))
        assert abs(a.total - b.total) / scale < 1e-12
        assert a.identity_term == b.identity_term


def test_dirac_reduces_to_laplace_for_trivial_character():
    pair = make_test_pair("smooth_bump")
    prims = [synthetic_class(0.4), synthetic_class(0.7, mult=2, word="u")]
    lap = laplace_action_conjugacy(3, prims, pair, 1.0)
    dir_ = dirac_action(3, prims, [1.0, 1.0], pair, 1.0)
    assert dir_.geodesic_term == pytest.approx(lap.geodesic_term, rel=1e-12)


def test_dirac_sign_flip():
    pair = make_test_pair("smooth_bump")
    cls = synthetic_class(0.8)  # S_Lambda = {1} at Lambda = 1
    plus = dirac_action(2, [cls], [1.0], pair, 1.0)
    minus = dirac_action(2, [cls], [-1.0], pair, 1.0)
    assert minus.geodesic_term == pytest.approx(-plus.geodesic_term, rel=1e-12)


def test_nonpositive_length_rejected():
    pair = make_test_pair("smooth_bump")
    flat = GeodesicClass(2.0, 0.0, 0.0, 1, "w", True)
    with pytest.raises(ValueError, match="positive"):
        laplace_action_conjugacy(2, [flat], pair, 1.0)


@pytest.mark.parametrize("length", [math.nan, math.inf])
def test_non_finite_length_rejected(length):
    # NaN passed the old "<= 0" check and failed later in int(cut / nan)
    pair = make_test_pair("smooth_bump")
    bad = GeodesicClass(2.5, length, length, 1, "ab", True)
    for action in (
        lambda: laplace_action_conjugacy(2, [synthetic_class(0.8), bad], pair, 1.0),
        lambda: laplace_action_geodesic(2, [synthetic_class(0.8), bad], pair, 1.0),
    ):
        with pytest.raises(ValueError, match="geodesic lengths must be positive and finite"):
            action()


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_lambda_rejected(lam):
    pair = make_test_pair("smooth_bump")
    cls = synthetic_class(0.8)
    for action in (
        lambda: laplace_action_conjugacy(2, [cls], pair, lam),
        lambda: laplace_action_geodesic(2, [cls], pair, lam),
        lambda: dirac_action(2, [cls], [1.0], pair, lam),
        lambda: super_action(2, [cls], [1.0], pair, lam),
    ):
        with pytest.raises(ValueError, match="Lambda must be positive and finite"):
            action()


def test_overflowing_actions_are_refused():
    # the Laplace and Dirac identity terms reach inf at Lambda = 1e200 and the
    # super one at 1e307; each came back as a total of inf, not flagged
    pair = make_test_pair("smooth_bump")
    cls = synthetic_class(0.8)
    for lam, action in (
        (1e200, lambda lam: laplace_action_conjugacy(2, [cls], pair, lam)),
        (1e200, lambda lam: laplace_action_geodesic(2, [cls], pair, lam)),
        (1e200, lambda lam: dirac_action(2, [cls], [1.0], pair, lam)),
        (1e307, lambda lam: super_action(2, [cls], [1.0], pair, lam)),
    ):
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=re.escape(f"the action overflows at Lambda = {lam}: ")):
            action(lam)


@pytest.mark.parametrize("mult", [0, -3])
def test_multiplicity_below_one_rejected(mult):
    pair = make_test_pair("smooth_bump")
    bad = GeodesicClass(2.2, 1.0, 1.0, mult, "ab", True)
    with pytest.raises(ValueError, match=f"class 'ab' has multiplicity {mult}"):
        laplace_action_conjugacy(2, [synthetic_class(0.8), bad], pair, 0.5)


def test_dirac_missing_character_rejected():
    pair = make_test_pair("smooth_bump")
    with pytest.raises(ValueError, match="character value"):
        dirac_action(2, [synthetic_class(0.5)], [], pair, 1.0)


def test_dirac_identity_integrand_finite_at_zero():
    # integrand -> f(0)/(Lambda pi): the closed form against the frozen panel
    # quadrature, which samples the integrand next to r = 0
    from adinkra_spectra.spectral import _identity_coth

    pair = make_test_pair("smooth_bump", 200)
    assert _identity_coth(pair, 2.0) == pytest.approx(_unfolded_coth(pair, 2.0, 160), abs=1e-13)


def test_supertrace_g_zero():
    pair = make_test_pair("smooth_bump")
    assert supertrace_g(0.0, 1.0, lambda t: float(pair.h_at(t))) == 0.0


def test_super_variants_agree_at_lambda_one():
    pair = make_test_pair("smooth_bump")
    prims = [synthetic_class(0.3), synthetic_class(0.45, mult=2, word="u")]
    chi = [1.0, -1.0]
    a = super_action(2, prims, chi, pair, 1.0, variant="lambda_scaled")
    b = super_action(2, prims, chi, pair, 1.0, variant="r_scaled")
    assert a.total == pytest.approx(b.total, rel=1e-12)
    assert a.imag_residual < 1e-9 and not a.flagged


def test_super_lambda_one_matches_unscaled_sum():
    # direct evaluation of the unscaled supertrace structure, term by term
    pair = make_test_pair("smooth_bump")
    prims = [synthetic_class(0.3), synthetic_class(0.5)]
    chi = [1.0, -1.0]
    res = super_action(2, prims, chi, pair, 1.0)
    direct = 0.0
    for c, x in zip(prims, chi):
        k = 1
        while k * c.length <= 1.0:
            arg = k * c.length
            weight = c.primitive_length / (2 * math.sinh(arg / 2))
            direct += weight * supertrace_g(arg, x ** k, lambda t: float(pair.h_at(t))).real
            k += 1
    assert res.geodesic_term == pytest.approx(direct, rel=1e-12)


def test_super_is_linear_in_the_pair():
    import random

    rng = random.Random(9)
    a_coef, b_coef = rng.uniform(0.2, 2.0), rng.uniform(-1.5, 1.5)

    def h1(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) <= 1, (1 - t ** 2) ** 2, 0.0)

    def h2(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) <= 1, (1 - t ** 2) ** 3, 0.0)

    def hmix(t):
        return a_coef * h1(t) + b_coef * h2(t)

    p1 = make_test_pair("user_sampled", h=h1)
    p2 = make_test_pair("user_sampled", h=h2)
    pm = make_test_pair("user_sampled", h=hmix)
    prims = [synthetic_class(0.4)]
    chi = [-1.0]
    r1 = super_action(2, prims, chi, p1, 0.9)
    r2 = super_action(2, prims, chi, p2, 0.9)
    rm = super_action(2, prims, chi, pm, 0.9)
    assert rm.total == pytest.approx(a_coef * r1.total + b_coef * r2.total, rel=1e-7)


def test_incomplete_spectrum_hard_error():
    from adinkra_spectra.hyperbolic import SpectrumResult

    pair = make_test_pair("smooth_bump")
    flagged = SpectrumResult((synthetic_class(0.5),), 2.0, 0.0, False, 10, 100, 0, 0)
    with pytest.raises(ValueError, match="incomplete"):
        laplace_action_geodesic(2, flagged, pair, 1.0)


def test_identity_scaling_consistency():
    # doubling Lambda with an empty geodesic set: fresh requadrature agrees
    from adinkra_spectra.spectral import _identity_tanh

    pair = make_test_pair("cosine_window")
    r1 = laplace_action_geodesic(2, [], pair, 2.0)
    assert r1.geodesic_term == 0.0
    assert r1.identity_term == pytest.approx(4.0 * _identity_tanh(pair, 2.0), rel=1e-14)


def test_action_result_json():
    pair = make_test_pair("smooth_bump")
    res = laplace_action_geodesic(2, [synthetic_class(0.5)], pair, 1.0)
    obj = res.to_json()
    assert obj["total"] == res.total
    assert obj["lambda"] == 1.0
