import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinkra_spectra import torus_spectrum
from adinkra_spectra.errors import ResourceBoundError
from adinkra_spectra.torus_spectrum import (
    PeriodData,
    SpectrumEntry,
    direct_theta_sum,
    dual_theta_sum,
    gaussian,
    origami_action,
    poisson_reference,
    primitive_coefficients,
    solution_set,
    spectrum_to_csv,
)
from test_fredholm_oracle import TORUS_CASES


def pd_square(n=(0,), m=(1,)):
    return PeriodData(np.array([[1j]]), n, m)


def test_period_validation():
    with pytest.raises(ValueError, match="symmetric"):
        PeriodData(np.array([[1j, 0.5], [0.0, 2j]]), (0, 0), (1, 0))
    with pytest.raises(ValueError, match="positive definite"):
        PeriodData(np.array([[-1j]]), (0,), (1,))
    with pytest.raises(ValueError, match="nonzero"):
        PeriodData(np.array([[1j]]), (0,), (0,))


@pytest.mark.parametrize("omega", [
    [[complex(0.0, math.inf)]], [[complex(math.inf, 1.0)]], [[complex(math.nan, 1.0)]],
    [[1j, 0.0], [0.0, complex(0.0, math.inf)]],
])
def test_non_finite_period_matrices_are_refused(omega):
    # NaN failed the symmetry test silently and Cholesky passed +inf, so the
    # action came out 0.0 over 0 entries
    with pytest.raises(ValueError, match="omega must have finite entries"):
        PeriodData(np.array(omega), (0,) * len(omega), (1,) + (0,) * (len(omega) - 1))


@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf, -math.inf])
def test_bad_tolerances_are_refused(tol):
    # NaN and negative tolerances gave an empty solution set
    with pytest.raises(ValueError, match=f"tolerance must be finite and >= 0, got {tol}"):
        solution_set(pd_square(), 3, tol)


def test_zero_tolerance_is_allowed():
    assert len(solution_set(pd_square(), 2, 0.0)) > 0


def _no_search(monkeypatch):
    calls = []
    monkeypatch.setattr(torus_spectrum, "_search", lambda *args: calls.append(args[1:]) or ())
    return calls


def test_an_oversized_box_is_refused_before_searching(monkeypatch):
    calls = _no_search(monkeypatch)
    pd3 = PeriodData(np.diag([1j, 1j, 1j]), (0, 0, 0), (1, 0, 0))
    with pytest.raises(ResourceBoundError, match="51520374361 lattice points"):
        solution_set(pd3, 30)
    with pytest.raises(ResourceBoundError, match="lower the box bound"):
        origami_action(pd3, gaussian(1.0), 1.0, 8)  # 17^6 > 2^24
    assert calls == []


def test_the_box_budget_admits_genus_two_at_box_30(monkeypatch):
    calls = _no_search(monkeypatch)
    assert 61 ** 4 <= torus_spectrum.BOX_BUDGET < 17 ** 6
    torus_spectrum._solutions(PeriodData(np.diag([1j, 1j]), (0, 0), (1, 0)), 30, 1e-9)
    torus_spectrum._solutions(PeriodData(np.diag([1j, 1j, 1j]), (0, 0, 0), (1, 0, 0)), 7, 1e-9)
    assert calls == [(30, 1e-9), (7, 1e-9)]


def test_coefficients_flat_torus():
    c, a = primitive_coefficients(pd_square())
    assert c[0] == pytest.approx(math.pi)
    assert a == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)


def test_coefficients_scale_quadratically():
    pd1 = pd_square()
    c1, a1 = primitive_coefficients(pd1)
    c2, a2 = primitive_coefficients(pd1, n=(0,), m=(2,))
    assert c2[0] == pytest.approx(2 * c1[0])
    assert a2 == pytest.approx(4 * a1)


def test_normalization_real_for_random_period_matrices():
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = rng.integers(1, 4)
        re = rng.normal(size=(g, g))
        im = rng.normal(size=(g, g))
        omega = (re + re.T) / 2 + 1j * (im @ im.T + g * np.eye(g))
        n = tuple(int(x) for x in rng.integers(-3, 4, g))
        m = tuple(int(x) for x in rng.integers(-3, 4, g))
        if not any(n) and not any(m):
            m = (1,) + m[1:]
        pd = PeriodData(omega, n, m)
        _c, a = primitive_coefficients(pd)
        assert a > 0


def test_solution_set_genus_one_full_box():
    pd = pd_square()
    entries = solution_set(pd, 3)
    assert len(entries) == (2 * 3 + 1) ** 2 - 1
    index = {(e.n, e.m) for e in entries}
    for k in (-3, -2, -1, 1, 2, 3):
        assert ((0,), (k,)) in index  # (kn, km) present


def test_lambda_scaling_in_k():
    pd = pd_square()
    entries = {(e.n[0], e.m[0]): e for e in solution_set(pd, 3)}
    _c, a = primitive_coefficients(pd)
    lam1 = entries[(0, 1)].lam
    assert lam1 == pytest.approx(2 * a, rel=1e-14)
    for k in (2, 3):
        assert entries[(0, k)].lam == pytest.approx(k ** 2 * lam1, rel=1e-12)


def test_flat_torus_spectrum_gate():
    # Omega = i reproduces the quadratic-form spectrum pi^2 (n^2 + m^2)
    pd = pd_square()
    for e in solution_set(pd, 3):
        expected = math.pi ** 2 * (e.n[0] ** 2 + e.m[0] ** 2)
        assert e.lam == pytest.approx(expected, rel=1e-12)
        assert e.rho == pytest.approx(math.sqrt(expected), rel=1e-12)


def test_solution_set_symmetry():
    pd = PeriodData(np.array([[0.25 + 1.5j]]), (1,), (2,))
    entries = {(e.n, e.m): e.lam for e in solution_set(pd, 3)}
    for (n, m), lam in entries.items():
        neg = (tuple(-x for x in n), tuple(-x for x in m))
        assert neg in entries
        assert entries[neg] == pytest.approx(lam, rel=1e-13)


def test_solution_set_genus_two_multiples():
    pd = PeriodData(np.diag([1j, 2j]), (-1, -1), (0, 0))
    entries = solution_set(pd, 2)
    index = {(e.n, e.m) for e in entries}
    for k in (-2, -1, 1, 2):
        assert ((-k, -k), (0, 0)) in index
    lam1 = next(e.lam for e in entries if e.n == (-1, -1))
    lam2 = next(e.lam for e in entries if e.n == (-2, -2))
    assert lam2 == pytest.approx(4 * lam1, rel=1e-12)


def test_modular_remarking_invariance():
    # tau -> tau + 1 with (n, m) -> (n, m + n) re-marks the same spectrum
    tau = 0.3 + 1.1j
    n, m = (2,), (1,)
    pd1 = PeriodData(np.array([[tau]]), n, m)
    pd2 = PeriodData(np.array([[tau + 1]]), n, (m[0] + n[0],))
    e1 = {(e.n[0], e.m[0]): e.lam for e in solution_set(pd1, 4)}
    e2 = {(e.n[0], e.m[0]): e.lam for e in solution_set(pd2, 8)}
    for (nn, mm), lam in e1.items():
        assert e2[(nn, mm + nn)] == pytest.approx(lam, rel=1e-12)


def test_origami_action_zero_function():
    res = origami_action(pd_square(), lambda x: np.zeros_like(np.asarray(x)), 1.0, 5)
    assert res.value == 0.0


def test_origami_action_box_convergence():
    pd = pd_square()
    a30 = origami_action(pd, gaussian(1.0), 1.0, 30)
    a60 = origami_action(pd, gaussian(1.0), 1.0, 60)
    assert abs(a30.value - a60.value) < 1e-12
    assert a30.tail_estimate < 1e-12


def test_origami_action_monotone_in_box():
    pd = pd_square()
    f = gaussian(3.0)
    values = [origami_action(pd, f, 1.0, b).value for b in (2, 4, 6, 8)]
    assert values == sorted(values)


def test_origami_action_rejects_odd_function():
    with pytest.raises(ValueError, match="even"):
        origami_action(pd_square(), lambda x: np.asarray(x), 1.0, 3)


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
def test_origami_action_refuses_bad_lambda(lam):
    with pytest.raises(ValueError, match=f"Lambda must be positive and finite, got {lam}"):
        origami_action(pd_square(), gaussian(1.0), lam, 3)


@pytest.mark.parametrize("width", [math.nan, math.inf, 0.0])
def test_gaussian_refuses_bad_width(width):
    with pytest.raises(ValueError, match=f"width must be positive and finite, got {width}"):
        gaussian(width)


@pytest.mark.parametrize("name,kwargs", [
    ("width", {"width": math.inf}), ("width", {"width": math.nan}),
    ("Lambda", {"lam": math.nan}), ("Lambda", {"lam": -math.inf}),
])
def test_poisson_refuses_bad_width_or_lambda(name, kwargs):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        poisson_reference(pd_square(), **kwargs)


def test_poisson_identity_flat_torus():
    res = poisson_reference(pd_square(), width=1.0, lam=1.0, box_bound=50)
    assert res.discrepancy < 1e-10


def test_poisson_matches_action_sum():
    pd = pd_square()
    width, lam, box = 1.0, 1.0, 40
    act = origami_action(pd, gaussian(width), lam, box)
    res = poisson_reference(pd, width, lam, box)
    assert act.value + 1.0 == pytest.approx(res.direct, abs=1e-12)  # zero mode
    assert act.value + 1.0 == pytest.approx(res.dual, abs=1e-8)


def test_poisson_general_tau():
    pd = PeriodData(np.array([[0.4 + 0.9j]]), (1,), (1,))
    res = poisson_reference(pd, width=0.8, lam=1.3, box_bound=50)
    assert res.discrepancy < 1e-8


def test_poisson_dual_involution():
    gram = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = 40
    once = dual_theta_sum(gram, b)
    # dual of the dual form returns the direct values
    inv = np.linalg.inv(gram)
    twice = dual_theta_sum(inv, b) / math.sqrt(np.linalg.det(gram))
    assert twice == pytest.approx(direct_theta_sum(gram, b) / 1.0, rel=1e-12)
    assert once == pytest.approx(direct_theta_sum(inv, b) / math.sqrt(np.linalg.det(gram)))


def test_poisson_wide_gaussian_ratio_tends_to_one():
    res = poisson_reference(pd_square(), width=30.0, lam=1.0, box_bound=60)
    assert res.direct / res.dual == pytest.approx(1.0, abs=1e-6)


def test_genus_restriction_for_poisson():
    pd = PeriodData(np.diag([1j, 1j]), (-1, -1), (0, 0))
    with pytest.raises(ValueError, match="genus-1"):
        poisson_reference(pd)


def test_json_round_trip():
    pd = PeriodData(np.array([[0.25 + 1.5j]]), (1,), (2,))
    back = PeriodData.from_json(pd.to_json())
    assert np.allclose(back.omega, pd.omega)
    assert back.n == pd.n and back.m == pd.m


def test_period_data_with_other_omega_are_not_equal():
    # omega was left out of the comparison: these two compared and hashed equal
    a = PeriodData(np.array([[0.25 + 1.5j]]), (1,), (2,))
    b = PeriodData(np.array([[0.5 + 1.5j]]), (1,), (2,))
    assert a != b
    assert len({a, b}) == 2


def test_equal_rows_share_one_tuple():
    entries = solution_set(PeriodData(np.array([[0.25 + 1.5j]]), (1,), (2,)), 40)
    assert len({id(e.n) for e in entries}) == len({id(e.m) for e in entries}) == 81
    assert all(type(x) is int for e in entries for x in e.n + e.m)


def test_csv_emission():
    text = spectrum_to_csv(solution_set(pd_square(), 1))
    lines = text.strip().splitlines()
    assert lines[0] == "n,m,lambda,rho"
    assert len(lines) == 1 + 8


def _frozen_csv(entries):
    # the per-entry formatter that spectrum_to_csv replaced
    def to_row(e):
        ns = " ".join(str(x) for x in e.n)
        ms = " ".join(str(x) for x in e.m)
        return f"{ns},{ms},{e.lam!r},{e.rho!r}"

    rows = ["n,m,lambda,rho"]
    rows += [to_row(e) for e in entries]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("pd,box", TORUS_CASES)
def test_csv_matches_the_row_formatter(pd, box):
    entries = solution_set(pd, box)
    assert spectrum_to_csv(entries) == _frozen_csv(entries)


def test_csv_of_no_entries_is_the_header():
    assert spectrum_to_csv([]) == _frozen_csv([]) == "n,m,lambda,rho\n"


def test_csv_keeps_equal_values_that_print_differently():
    # 0.0 == -0.0, but each prints as itself; repeats and shared tuples too
    entries = [SpectrumEntry((0, 1), (2,), 0j, lam, rho) for lam, rho in (
        (0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (1.5, 1.5), (1.5, 1.5),
        (math.nan, math.inf), (math.nan, -math.inf), (2.0, 0.1 + 0.2))]
    text = spectrum_to_csv(entries)
    assert text == _frozen_csv(entries)
    assert text.splitlines()[2] == "0 1,2,-0.0,0.0"


_CSV_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 0.1 + 0.2, 0.3, 1e-300, math.inf, math.nan])
_CSV_INTS = st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(SpectrumEntry, _CSV_INTS, _CSV_INTS, st.just(0j), _CSV_FLOATS, _CSV_FLOATS)))
def test_csv_matches_the_row_formatter_on_hand_made_entries(entries):
    assert spectrum_to_csv(entries) == _frozen_csv(entries)


def _count_searches(monkeypatch):
    calls, search = [], torus_spectrum._search

    def counted(pd, box_bound, tol):
        calls.append((box_bound, tol))
        return search(pd, box_bound, tol)

    monkeypatch.setattr(torus_spectrum, "_search", counted)
    return calls


def test_action_and_solution_set_share_one_search(monkeypatch):
    calls = _count_searches(monkeypatch)
    pd = PeriodData(np.array([[0.25 + 1.5j]]), (1,), (2,))
    res = origami_action(pd, gaussian(1.0), 1.0, 6)
    entries = solution_set(pd, 6)
    assert calls == [(6, 1e-9)]
    assert res.entry_count == len(entries) == 13 ** 2 - 1


def test_another_box_tol_or_record_searches_again(monkeypatch):
    calls = _count_searches(monkeypatch)
    pd = PeriodData(np.array([[0.25 + 1.5j]]), (1,), (2,))
    for box, tol in ((4, 1e-9), (5, 1e-9), (4, 1e-6), (4, 1e-9), (5, 1e-6)):
        solution_set(pd, box, tol)
    assert calls == [(4, 1e-9), (5, 1e-9), (4, 1e-6), (5, 1e-6)]
    solution_set(PeriodData(pd.omega, pd.n, pd.m), 4)
    assert calls[-1] == (4, 1e-9) and len(calls) == 5


def test_omega_is_a_read_only_copy():
    omega = np.array([[0.25 + 1.5j]])
    pd = PeriodData(omega, [1], [2])
    assert pd.n == (1,) and pd.m == (2,)
    assert not pd.omega.flags.writeable and not np.shares_memory(pd.omega, omega)
    before = solution_set(pd, 3)
    omega[0, 0] = 0.5 + 2.0j  # the caller's array stays the caller's
    assert pd.omega[0, 0] == 0.25 + 1.5j
    assert solution_set(pd, 3) == before
    assert solution_set(PeriodData(pd.omega, pd.n, pd.m), 3) == before
    with pytest.raises(ValueError, match="read-only"):
        pd.omega[0, 0] = 1j
