"""Fredholm determinants and torus solution sets against frozen copies of
their earlier implementations.

``fredholm_det`` factors 1 - L by LU, takes the spectral radius from
Arnoldi and decides the singular flag from the radius or by shift-invert
Arnoldi at 1; on cyclic coset actions it does so per character block.
The oracle is the eigen-product it replaced: a full dense eigensolve of
the whole coset-extended matrix, det = prod(1 - lambda), radius
max |lambda| and the flag from every eigenvalue.  Determinants must agree to 1e-12 relative, radii to
1e-10, flags exactly.

``gauss_leading_pair`` reads the pair from one collocation matrix of the
full Gauss operator.  Its Perron eigenvalue must lie within the
Collatz-Wielandt bounds, its guard must refuse a tail degree or a node
count too small, and its traced memory must stay small.  Its other
oracles are the exact constants and the same construction at twice the
branches and nodes (``test_transfer``), and the Euler product over the
primitive classes (``test_gauss_euler_product_oracle``).

``solution_set`` tests the whole box in array passes; the oracle is the
loop over ``itertools.product`` that evaluated one lattice point at a
time.  Entries must agree exactly, in order.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from adinkra_spectra import torus_spectrum, transfer
from adinkra_spectra.perms import cyclic_exponents
from adinkra_spectra.torus_spectrum import (
    PeriodData,
    SpectrumEntry,
    _u_vector,
    gaussian,
    origami_action,
    primitive_coefficients,
    solution_set,
)
from adinkra_spectra.transfer import (
    Branch,
    BranchSystem,
    build_transfer_matrix,
    extend_to_coset,
    fredholm_det,
    gauss_branch_system,
)

# -- frozen oracles ---------------------------------------------------------


def _oracle_fredholm(matrix, singular_tol=1e-12):
    vals = np.linalg.eigvals(matrix)
    vals = vals[np.argsort(-np.abs(vals))]
    det = complex(np.prod(1.0 - vals))
    radius = float(np.abs(vals[0])) if len(vals) else 0.0
    singular = bool(np.any(np.abs(1.0 - vals) < singular_tol))
    return det, radius, singular


def _oracle_solution_set(pd, box_bound, tol=1e-9):
    _c0, a0 = primitive_coefficients(pd)
    base = _u_vector(pd, pd.n, pd.m)
    norm0 = np.linalg.norm(base)
    g = pd.genus
    entries = []
    rng = [range(-box_bound, box_bound + 1)] * (2 * g)
    for idx in itertools.product(*rng):
        nv, mv = idx[:g], idx[g:]
        if not any(nv) and not any(mv):
            continue
        u = _u_vector(pd, nv, mv)
        w = np.vdot(base, u) / (norm0 ** 2)
        if np.linalg.norm(u - w * base) > tol * max(1.0, np.linalg.norm(u)):
            continue
        lam = 2.0 * a0 * abs(w) ** 2
        entries.append(SpectrumEntry(nv, mv, complex(w), float(lam), math.sqrt(lam)))
    entries.sort(key=lambda e: (e.lam, e.n, e.m))
    return entries


def _oracle_action(pd, fn, lam, box_bound):
    entries = _oracle_solution_set(pd, box_bound)
    rhos = np.array([e.rho for e in entries])
    vals = np.asarray(fn(rhos / lam), dtype=float)
    value = float(vals.sum())

    def shell_sum(b):
        mask = [max(max(abs(x) for x in e.n), max(abs(x) for x in e.m)) == b for e in entries]
        return float(vals[np.asarray(mask)].sum()) if any(mask) else 0.0

    s_last = abs(shell_sum(box_bound))
    s_prev = abs(shell_sum(box_bound - 1)) if box_bound > 1 else 0.0
    if s_prev > 0 and s_last > 0 and s_last < s_prev:
        ratio = s_last / s_prev
        tail = s_last * ratio / (1.0 - ratio)
    else:
        tail = s_last
    return value, len(entries), box_bound, tail, lam


# -- Fredholm determinant ---------------------------------------------------


def _assert_matches_oracle(operator, singular_tol=1e-12):
    """``operator`` is a bare matrix or a ``TransferMatrix``, whose dense
    matrix the oracle reads."""
    res = fredholm_det(operator, singular_tol=singular_tol)
    matrix = getattr(operator, "matrix", operator)
    det, radius, singular = _oracle_fredholm(matrix, singular_tol)
    assert abs(res.value - det) <= 1e-12 * abs(det)
    assert abs(res.spectral_radius - radius) <= 1e-10
    assert res.singular == singular
    assert res.eigenvalues_used == matrix.shape[0]
    return res


def test_gauss_base_20_branches():
    tm = build_transfer_matrix(gauss_branch_system(20), 2.0, 32)
    res = _assert_matches_oracle(tm.matrix)
    assert not res.singular and res.spectral_radius < 1.0


def test_cyclic_degree_four_coset_10_branches():
    # branch s shifts the 4 cosets by s mod 4
    perms = {str(s): tuple((a + s) % 4 for a in range(4)) for s in range(1, 11)}
    tm = extend_to_coset(gauss_branch_system(10), perms, 1.7, 16)
    assert tm.size == 640
    _assert_matches_oracle(tm.matrix)


def test_complex_beta():
    tm = build_transfer_matrix(gauss_branch_system(10), 1.5 + 0.7j, 16)
    assert np.iscomplexobj(tm.matrix)
    _assert_matches_oracle(tm.matrix)


def test_singular_affine_beta_zero():
    # a single affine branch at beta = 0 has eigenvalue exactly 1
    sys = BranchSystem((Branch(0.0, 1.0, np.array([[0.5, 0.0], [0.0, 1.0]]), "h"),))
    for nodes in (6, 12, 24):
        res = _assert_matches_oracle(build_transfer_matrix(sys, 0.0, nodes).matrix)
        assert res.singular


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1), st.floats(0.1, 2.5), st.booleans())
def test_random_matrices(n, seed, scale, complex_entries):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, (n, n))
    if complex_entries:
        m = m + 1j * rng.uniform(-1.0, 1.0, (n, n))
    m *= scale / math.sqrt(n)
    # keep 1 - L well conditioned, so 1e-12 bounds both routes' rounding
    sv = np.linalg.svd(np.eye(n) - m, compute_uv=False)
    assume(sv[-1] >= 1e-2 * sv[0])
    _assert_matches_oracle(m)


def test_radius_with_close_leading_moduli():
    # the two leading eigenvalue pairs' moduli differ by 4e-4 relative;
    # ARPACK with one wanted Ritz value converged to the second pair
    m = np.random.default_rng(0).uniform(-1.0, 1.0, (40, 40)) / math.sqrt(40)
    _assert_matches_oracle(m)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_leading_eigenvalues_with_close_leading_moduli(k):
    # the same matrix: ARPACK asked for 2 Ritz values returned the second pair,
    # so it is asked for at least 6, as fredholm_det does; at degree 1 the
    # operator's matrix is its base
    m = np.random.default_rng(0).uniform(-1.0, 1.0, (40, 40)) / math.sqrt(40)
    tm = dataclasses.replace(build_transfer_matrix(gauss_branch_system(5), 1.0, 8), base=m)
    assert tm.matrix is m
    expected = np.linalg.eigvals(tm.matrix)
    expected = expected[np.argsort(-np.abs(expected))][:k]
    lead = transfer._arnoldi(tm.matrix, max(k, 6))[:k]
    assert len(lead) == k
    np.testing.assert_allclose(np.abs(lead), np.abs(expected), rtol=1e-10)
    if k % 2 == 0:  # whole conjugate pairs
        np.testing.assert_allclose(np.sort_complex(lead), np.sort_complex(expected), rtol=1e-10)


def _spectrum_matrix(eigenvalues, seed):
    """A real matrix with the given eigenvalues, in a random orthogonal basis."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return q @ np.diag(eigenvalues) @ q.T


def _record_shifts(monkeypatch):
    shifts = []
    arnoldi = transfer._arnoldi

    def recording(matrix, k, sigma=None, opinv=None):
        shifts.append(sigma)
        return arnoldi(matrix, k, sigma, opinv)

    monkeypatch.setattr(transfer, "_arnoldi", recording)
    return shifts


def test_shift_invert_finds_eigenvalue_next_to_one(monkeypatch):
    vals = np.linspace(-0.9, 0.9, 29)
    m = _spectrum_matrix(np.append(vals, 1.0 + 1e-13), 1)
    assert m.shape[0] > 8
    shifts = _record_shifts(monkeypatch)
    res = fredholm_det(m)
    assert shifts == [None, 1.0]  # the radius, then shift-invert at 1
    assert res.singular
    # det(1 - L) is ~1e-13 here, known to either route only to ~1e-15
    # absolute, so the determinants are compared absolutely
    det, radius, singular = _oracle_fredholm(m)
    assert singular and abs(res.spectral_radius - radius) <= 1e-10
    assert abs(res.value - det) <= 1e-12


def test_shift_invert_clears_flag_without_eigenvalue_near_one(monkeypatch):
    vals = np.linspace(-0.9, 0.9, 29)
    m = _spectrum_matrix(np.append(vals, 1.5), 2)
    shifts = _record_shifts(monkeypatch)
    res = _assert_matches_oracle(m)
    assert shifts == [None, 1.0]
    assert not res.singular
    assert res.spectral_radius == pytest.approx(1.5, abs=1e-10)


def test_radius_below_one_skips_shift_invert(monkeypatch):
    m = _spectrum_matrix(np.linspace(-0.9, 0.9, 30), 3)
    shifts = _record_shifts(monkeypatch)
    assert not _assert_matches_oracle(m).singular
    assert shifts == [None]


def test_arpack_failure_is_raised(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spla, "eigs", no_convergence)
    m = _spectrum_matrix(np.linspace(-0.9, 0.9, 30), 4)
    with pytest.raises(spla.ArpackNoConvergence):
        fredholm_det(m)


def test_repeated_calls_give_identical_digits():
    # the zeta JSON prints the radius in full, so it must not depend on
    # how many ARPACK runs came before in the process
    tm = build_transfer_matrix(gauss_branch_system(20), 2.0, 32)
    first = [fredholm_det(tm) for _ in range(3)]
    transfer._arnoldi(tm.matrix, 6)
    assert all(res == first[0] for res in first + [fredholm_det(tm)])


def test_determinant_sign_follows_pivots():
    # 1 - L = [[0, 1], [1, 0]] needs one row swap; det = -1
    assert fredholm_det(np.array([[1.0, -1.0], [-1.0, 1.0]])).value == -1.0
    # 1 - L = diag(-1, -1, 2): no swap, two negative pivots
    res = fredholm_det(np.diag([2.0, 2.0, -1.0]))
    assert res.value == 2.0 and not res.singular and res.spectral_radius == 2.0



# -- factored coset determinant ---------------------------------------------


def _cyclic_action(n, d, seed):
    """Branch s shifts the d cosets by a seeded amount (branch 1 by one
    step, so a d-cycle is present), with the coset labels shuffled."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(d)
    position = np.argsort(label)
    shifts = [1] + list(rng.integers(0, d, n - 1))
    return {str(s + 1): tuple(int(label[(position[a] + shifts[s]) % d]) for a in range(d))
            for s in range(n)}


# beta = 1 + 2j: a twisted block, not the trivial character's, holds the radius
@pytest.mark.parametrize("beta", [1.7, 2.3, 1.5 + 0.7j, 1.0 + 2.0j])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_cyclic_coset_factored_matches_oracle(d, beta):
    perms = _cyclic_action(6, d, seed=10 * d)
    tm = extend_to_coset(gauss_branch_system(6), perms, beta, 12)
    assert cyclic_exponents(tm.branch_perms, d) is not None
    res = _assert_matches_oracle(tm)
    if isinstance(beta, float):
        # conjugate characters pair up, so a real operator's det is real
        assert res.value.imag == 0.0 and math.copysign(1.0, res.value.imag) == 1.0


KLEIN4 = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
NON_CYCLIC_ACTIONS = {
    "klein4": (4, [KLEIN4[s % 4] for s in range(6)]),
    "s3": (3, [(1, 0, 2), (1, 2, 0)] * 3),  # a 3-cycle with a transposition
    "intransitive": (4, [(1, 0, 2, 3), (0, 1, 3, 2), (0, 1, 2, 3)] * 2),
    "even-shifts": (4, [tuple((a + 2 * (s % 2)) % 4 for a in range(4)) for s in range(6)]),
    # cyclic of order 6, but no generator is a 6-cycle
    "shifts-2-and-3": (6, [tuple((a + (2, 3)[s % 2]) % 6 for a in range(6)) for s in range(6)]),
}


@pytest.mark.parametrize("beta", [1.7, 1.5 + 0.7j])
@pytest.mark.parametrize("name", sorted(NON_CYCLIC_ACTIONS))
def test_non_cyclic_actions_stay_dense(name, beta):
    d, gens = NON_CYCLIC_ACTIONS[name]
    tm = extend_to_coset(gauss_branch_system(6), {str(s + 1): g for s, g in enumerate(gens)}, beta, 12)
    assert cyclic_exponents(tm.branch_perms, d) is None
    assert fredholm_det(tm) == fredholm_det(tm.matrix)
    _assert_matches_oracle(tm)


def test_degree_one_is_the_dense_path():
    tm = build_transfer_matrix(gauss_branch_system(10), 2.3, 16)
    assert tm.base is tm.matrix
    assert fredholm_det(tm) == fredholm_det(tm.matrix)


def test_singular_affine_beta_zero_cyclic_degree_three():
    sys = BranchSystem((Branch(0.0, 1.0, np.array([[0.5, 0.0], [0.0, 1.0]]), "h"),))
    for nodes in (6, 12):
        tm = extend_to_coset(sys, {"h": (2, 0, 1)}, 0.0, nodes)
        res = fredholm_det(tm)
        _det, radius, singular = _oracle_fredholm(tm.matrix)
        assert res.singular and singular
        assert abs(res.value) < 1e-10
        assert abs(res.spectral_radius - radius) <= 1e-10
        assert res.eigenvalues_used == 3 * nodes


# -- full Gauss operator ---------------------------------------------------


def test_gauss_leading_pair_is_inside_the_collatz_wielandt_bounds():
    # the operator's values on the constant 1, zeta(2 beta, x + 1) for x in
    # [0, 1], bound its Perron eigenvalue: [zeta(1.2) - 1, zeta(1.2)] here;
    # the truncation sweep gave 3.741
    l1, _l2 = transfer.gauss_leading_pair(0.6)
    assert zeta(1.2) - 1.0 <= l1 <= zeta(1.2)
    assert abs(l1 - 5.327058091154663) <= 1e-12


def test_tail_guard_raises_on_a_degree_too_small(monkeypatch):
    # degree 2 misses lambda_1 by 6e-10 and lambda_2 by 1e-7
    monkeypatch.setattr(transfer, "TAIL_DEGREE", 2)
    with pytest.raises(ArithmeticError, match="the degree-2 tail fit misses by"):
        transfer.gauss_leading_pair()


def test_eigen_equation_guard_raises_on_too_few_nodes(monkeypatch):
    # at 8 nodes the tail fit still holds to 2e-14, but L v misses lambda
    # times v's interpolant between the nodes by 2e-9
    monkeypatch.setattr(transfer, "GAUSS_NODES", 8)
    with pytest.raises(ArithmeticError, match="L v by"):
        transfer.gauss_leading_pair()


def test_gauss_leading_pair_builds_one_branch_system(monkeypatch):
    # the operator's rows at the nodes and between them share one system and its grids
    built = []

    def counting(n_max):
        built.append(n_max)
        return gauss_branch_system(n_max)

    monkeypatch.setattr(transfer, "gauss_branch_system", counting)
    transfer.gauss_leading_pair()
    assert built == [transfer.GAUSS_BRANCHES]


def test_sweep_builds_no_dense_matrix():
    # the 40-branch, 32-node matrix alone takes 12.5 MiB
    tracemalloc.start()
    try:
        transfer.gauss_leading_pair()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# -- torus solution set -----------------------------------------------------


def _period(omega, n, m):
    return PeriodData(np.asarray(omega, dtype=complex), tuple(n), tuple(m))


TORUS_CASES = [
    (_period([[0.21 + 1.13j]], [0], [1]), 12),
    (_period([[-0.37 + 0.84j]], [2], [-1]), 9),
    (_period([[1j]], [1], [1]), 6),
    # diagonal genus 2 with (n, m) = ((0, 0), (1, 0)): every (n1, m1) qualifies
    (_period(np.diag([0.1 + 1.2j, -0.2 + 0.9j]), [0, 0], [1, 0]), 4),
    # equal diagonal entries: u_1 = u_2 for the marked pair
    (_period(np.diag([0.3 + 1.1j, 0.3 + 1.1j]), [1, 1], [0, 0]), 3),
    # off-diagonal genus 2: only the multiples
    (_period([[0.1 + 1.2j, 0.15 + 0.05j], [0.15 + 0.05j, -0.2 + 0.9j]], [1, 0], [1, 1]), 3),
    (_period([[0.4 + 1.3j, -0.25 + 0.1j], [-0.25 + 0.1j, 0.05 + 1.0j]], [0, 1], [2, -1]), 3),
]


def _fields(entries):
    return [(e.n, e.m, e.c_ratio, e.lam, e.rho) for e in entries]


@pytest.mark.parametrize("pd,box", TORUS_CASES)
def test_solution_set_matches_loop(pd, box):
    got = solution_set(pd, box)
    want = _oracle_solution_set(pd, box)
    assert _fields(got) == _fields(want)
    assert all(type(x) is int for e in got for x in e.n + e.m)
    assert (pd.n, pd.m) in {(e.n, e.m) for e in got}


@pytest.mark.parametrize("pd,box", TORUS_CASES)
def test_origami_action_matches_loop(pd, box):
    fn = gaussian(1.3)
    got = dataclasses.astuple(origami_action(pd, fn, 0.8, box))
    assert got == _oracle_action(pd, fn, 0.8, box)


def test_solution_set_chunks_keep_loop_order(monkeypatch):
    # a fresh record: the shared one may already hold its solution set
    case, box = TORUS_CASES[3]
    pd = PeriodData(case.omega, case.n, case.m)
    searches, search = [], torus_spectrum._search
    monkeypatch.setattr(torus_spectrum, "_CHUNK_ROWS", 37)
    monkeypatch.setattr(torus_spectrum, "_search",
                        lambda *args: searches.append(args[1:]) or search(*args))
    assert _fields(solution_set(pd, box)) == _fields(_oracle_solution_set(pd, box))
    assert searches == [(box, 1e-9)]
