"""Fredholm determinants and torus solution sets against frozen copies of
their earlier implementations.

``fredholm_det`` takes det(1 - L) from numpy's LU (``slogdet``), the
spectral radius from Arnoldi, and the singular flag from the radius, a
zero pivot or a dense eigensolve; on cyclic coset actions it does so per
character block.
A ``TransferMatrix`` goes through an r x r core Q P (r = 2k + 16), whose
guard checks base = P Q at every node; when the guard fails, or r >= n,
the core is the base itself and the result is the dense one bit for bit.
The oracle is the eigen-product it replaced: a full dense eigensolve of
the whole coset-extended matrix, det = prod(1 - lambda), radius
max |lambda| and the flag from every eigenvalue.  Determinants must agree to 1e-12 relative, radii to
1e-10, flags exactly.  Both routes are checked: the core on Gauss
systems (random ones too), the identity core on systems with a branch
whose pole lies near the hull, and with a rank too small for the core.

``_arnoldi`` is checked against ``np.linalg.eigvals`` on random, Gauss-like,
Jordan and rank-deficient matrices, and against scipy's ARPACK, which it
replaced, on the Gauss cores.

``gauss_leading_pair`` reads the pair from one collocation matrix of the
full Gauss operator.  Its Perron eigenvalue must lie within the
Collatz-Wielandt bounds, its guard must refuse a tail degree or a node
count too small, and its traced memory must stay small.  Its other
oracles are the exact constants and the same construction at twice the
branches and nodes (``test_transfer``), and the Euler product over the
primitive classes (``test_gauss_euler_product_oracle``).

``solution_set`` tests half the box in array passes and takes the other
half by negation; the oracle is the loop over ``itertools.product`` that
evaluated every lattice point one at a time.  Entries must agree exactly,
in order, on fixed cases and on random genus-1 and genus-2 period
matrices.
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


def _block_matrix(blocks, complex_entries, rng):
    """The block-diagonal matrix of ``blocks`` in a random orthonormal
    (unitary) basis: normal, except where a block is a Jordan block."""
    t = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=complex if complex_entries else float)
    at = 0
    for b in blocks:
        t[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    z = rng.standard_normal(t.shape)
    if complex_entries:
        z = z + 1j * rng.standard_normal(t.shape)
    q, _ = np.linalg.qr(z)
    return q @ t @ q.conj().T


def _eigen_blocks(moduli, size, complex_entries, rng):
    """Blocks of total order ``size``, one per leading entry of ``moduli``: a
    complex eigenvalue, or for a real matrix a real one or a 2 x 2 rotation
    block carrying a conjugate pair."""
    blocks, left = [], size
    for r in moduli[:size]:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        if complex_entries:
            blocks.append(np.array([[r * complex(math.cos(phase), math.sin(phase))]]))
        elif left == 1 or rng.random() < 0.5:
            blocks.append(np.array([[r * rng.choice([-1.0, 1.0])]]))
        else:
            a, b = r * math.cos(phase), r * math.sin(phase)
            blocks.append(np.array([[a, b], [-b, a]]))
        left -= len(blocks[-1])
        if not left:
            return blocks
    return blocks


@st.composite
def arnoldi_cases(draw):
    """(matrix, k, zeros): a matrix of order 9..120 with k <= 6 wanted values,
    drawn from four families, and whether it has exact zero eigenvalues."""
    n, k = draw(st.integers(9, 120), "n"), draw(st.integers(1, 6), "k")
    complex_entries = draw(st.booleans(), "complex")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), "seed"))
    family = draw(st.sampled_from(["random", "decaying", "jordan", "zeros"]), "family")
    if family == "random":
        m = rng.standard_normal((n, n))
        if complex_entries:
            m = m + 1j * rng.standard_normal((n, n))
        return m / math.sqrt(n), k, False
    if family == "decaying":  # Gauss-like moduli 0.4^j: Arnoldi stops long before n
        blocks = _eigen_blocks(0.4 ** np.arange(n), n, complex_entries, rng)
    elif family == "jordan":  # a Jordan block of 0.1, below the wanted moduli
        size = draw(st.integers(2, 5), "jordan")
        jordan = 0.1 * np.eye(size) + np.eye(size, k=1)
        blocks = _eigen_blocks(np.linspace(1.0, 0.3, n), n - size, complex_entries, rng) + [jordan]
    else:  # rank r, maybe below k, and n - r exact zeros
        r = draw(st.integers(0, n - 1), "rank")
        blocks = _eigen_blocks(rng.uniform(0.2, 1.0, n), r, complex_entries, rng) + [np.zeros((n - r, n - r))]
    return _block_matrix(blocks, complex_entries, rng), k, family == "zeros"


@settings(max_examples=150, deadline=None)
@given(arnoldi_cases())
def test_arnoldi_matches_dense_eigenvalues(case):
    m, k, zeros = case
    got = transfer._arnoldi(m, k)
    want = np.linalg.eigvals(m)
    want = want[np.argsort(-np.abs(want), kind="stable")]
    radius = abs(want[0])
    assert len(got) <= k + 1 and np.all(np.diff(np.abs(got)) <= 0)
    if zeros:
        # a rank below k ends at breakdown with rank + 1 values; exact zeros
        # have no relative digits, so moduli are compared to 1e-12 of the radius too
        rank = np.count_nonzero(np.abs(want) > 1e-8 * radius) if radius else 0
        assert min(k, rank + 1) <= len(got)
        np.testing.assert_allclose(np.abs(got), np.abs(want[:len(got)]), rtol=1e-10, atol=1e-12 * radius)
    else:
        assert len(got) >= k
        np.testing.assert_allclose(np.abs(got), np.abs(want[:len(got)]), rtol=1e-10)
    if not np.iscomplexobj(m):  # conjugate pairs are kept whole
        assert np.array_equal(np.sort_complex(got), np.sort_complex(got.conj()))


def _gauss_cores():
    """The blocks ``fredholm_det`` hands to Arnoldi on Gauss systems: real
    and complex beta, degree 1 and the twisted blocks of a cyclic action."""
    perms = {str(s): tuple((a + s) % 4 for a in range(4)) for s in range(1, 11)}
    for tm in (build_transfer_matrix(gauss_branch_system(20), 2.0, 32),
               build_transfer_matrix(gauss_branch_system(40), 1.0, 32),
               build_transfer_matrix(gauss_branch_system(10), 1.5 + 0.7j, 16),
               extend_to_coset(gauss_branch_system(10), perms, 1.7, 32)):
        q, p, _residual = transfer._core_factors(tm)
        yield from (block for block, _power in transfer._det_blocks(tm, q, p))


@pytest.mark.parametrize("block", list(_gauss_cores()), ids=lambda b: f"{len(b)}-{b.dtype}")
def test_arnoldi_matches_arpack_on_gauss_cores(block):
    # scipy's ARPACK, which fredholm_det ran before, as a second oracle
    v0 = np.random.default_rng(0).standard_normal(len(block)).astype(block.dtype)
    ref = spla.eigs(block, k=6, which="LM", v0=v0, maxiter=10000, tol=1e-13, return_eigenvectors=False)
    ref = ref[np.argsort(-np.abs(ref), kind="stable")]
    got, vecs = transfer._arnoldi(block, 6, vectors=True)
    # the cores are far from normal: past the third value both routes, and the
    # dense eigvals, disagree by up to 4e-7 relative, within the values' condition
    assert abs(got[0] - ref[0]) <= 1e-13 * abs(ref[0])
    np.testing.assert_allclose(got[:3], ref[:3], rtol=1e-10)
    # each Ritz pair meets the stopping rule: a unit vector with residual <= 1e-13 |theta|
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=1e-12)
    miss = np.linalg.norm(block @ vecs - vecs * got, axis=0)
    assert np.all(miss <= 1e-12 * np.abs(got))


def _record_eigensolves(monkeypatch):
    """The shapes of the dense eigensolves ``np.linalg.eigvals`` runs."""
    shapes = []
    eigvals = np.linalg.eigvals

    def recording(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    return shapes


def test_dense_eigensolve_finds_eigenvalue_next_to_one(monkeypatch):
    vals = np.linspace(-0.9, 0.9, 29)
    m = _spectrum_matrix(np.append(vals, 1.0 + 1e-13), 1)
    assert m.shape[0] > 8
    shapes = _record_eigensolves(monkeypatch)
    res = fredholm_det(m)
    assert shapes == [m.shape]  # the radius is >= 1 - tol: one dense eigensolve
    assert res.singular
    # det(1 - L) is ~1e-13 here, known to either route only to ~1e-15
    # absolute, so the determinants are compared absolutely
    det, radius, singular = _oracle_fredholm(m)
    assert singular and abs(res.spectral_radius - radius) <= 1e-10
    assert abs(res.value - det) <= 1e-12


def test_dense_eigensolve_clears_flag_without_eigenvalue_near_one(monkeypatch):
    vals = np.linspace(-0.9, 0.9, 29)
    m = _spectrum_matrix(np.append(vals, 1.5), 2)
    shapes = _record_eigensolves(monkeypatch)
    res = fredholm_det(m)
    assert shapes == [m.shape]
    assert _det_fields(res) == _det_fields(_assert_matches_oracle(m))
    assert not res.singular
    assert res.spectral_radius == pytest.approx(1.5, abs=1e-10)


def test_radius_below_one_skips_the_dense_eigensolve(monkeypatch):
    m = _spectrum_matrix(np.linspace(-0.9, 0.9, 30), 3)
    shapes = _record_eigensolves(monkeypatch)
    res = fredholm_det(m)
    assert shapes == []
    assert not res.singular
    assert _det_fields(res) == _det_fields(_assert_matches_oracle(m))


def test_arnoldi_without_converged_ritz_values_ends_at_n(monkeypatch):
    # no Ritz value passes a tolerance of 0, so the iteration runs to m = n,
    # where the Hessenberg eigenvalues are the matrix's own
    orders = []
    eig = np.linalg.eig

    def recording(a):
        orders.append(len(a))
        return eig(a)

    monkeypatch.setattr(transfer, "_RITZ_TOL", 0.0)
    monkeypatch.setattr(np.linalg, "eig", recording)
    m = _spectrum_matrix(np.linspace(-0.9, 0.9, 30), 4)
    res = fredholm_det(m)
    assert orders[-1] == 30
    det, radius, singular = _oracle_fredholm(m)
    assert abs(res.value - det) <= 1e-12 * abs(det)
    assert abs(res.spectral_radius - radius) <= 1e-10 and abs(radius - 0.9) <= 1e-10
    assert not res.singular and not singular


def test_zero_pivot_is_singular_without_an_eigensolve(monkeypatch):
    # 1 - L = diag(0, 0.5, ..., 0.5) has an exactly zero pivot
    m = np.diag([1.0] + [0.5] * 11)
    shapes = _record_eigensolves(monkeypatch)
    res = fredholm_det(m)
    assert shapes == []
    assert res.singular and res.value == 0.0 and res.spectral_radius == pytest.approx(1.0, abs=1e-14)


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


def _gap_system(gap, n_gauss=12):
    """The n-branch Gauss system and one branch g mapping [0, 1] onto
    [0.01, 0.07] with its pole at 1 + gap, a distance gap from the hull:
    g(x) = 0.01 + c x / (1 + gap - x)."""
    e0, e1, pole = 0.01, 0.07, 1.0 + gap
    c = (e1 - e0) * gap
    near = Branch(e0, e1, np.array([[c - e0, e0 * pole], [-1.0, pole]]), str(n_gauss + 1))
    return BranchSystem(gauss_branch_system(n_gauss).branches + (near,))


def _det_fields(res):
    return res.value, res.spectral_radius, res.singular, res.eigenvalues_used


def _assert_identity_core(tm):
    """The guard fails: the core is the base and the det the dense one, bit for bit."""
    res = fredholm_det(tm)
    n = len(tm.base)
    assert not res.core_residual <= n * np.finfo(float).eps
    assert res.core_size == tm.size
    assert _det_fields(res) == _det_fields(fredholm_det(tm.matrix))
    return res


@pytest.mark.parametrize("beta", [1.7, 1.5 + 0.7j])
@pytest.mark.parametrize("name", sorted(NON_CYCLIC_ACTIONS))
def test_non_cyclic_actions_stay_dense(name, beta):
    # the core route: one (d r)^2 core, r = 40, in place of the (d n)^2 matrix, n = 72
    d, gens = NON_CYCLIC_ACTIONS[name]
    tm = extend_to_coset(gauss_branch_system(6), {str(s + 1): g for s, g in enumerate(gens)}, beta, 12)
    assert cyclic_exponents(tm.branch_perms, d) is None
    res = _assert_matches_oracle(tm)
    assert res.core_size == d * 40 < tm.size
    # a pole 0.1 from the hull fails the guard (r = 40, n = 72): the dense matrix itself
    tm = extend_to_coset(_gap_system(0.1, 5), {str(s + 1): g for s, g in enumerate(gens)}, beta, 12)
    _assert_identity_core(tm)
    _assert_matches_oracle(tm)


def test_degree_one_is_the_dense_path():
    # the core route: a 48^2 core for the 160^2 base
    tm = build_transfer_matrix(gauss_branch_system(10), 2.3, 16)
    assert tm.base is tm.matrix
    res = _assert_matches_oracle(tm)
    assert res.core_size == 48 and res.core_residual <= 160 * np.finfo(float).eps
    # a pole 0.1 from the hull fails the guard: the base itself
    tm = build_transfer_matrix(_gap_system(0.1), 2.3, 16)
    _assert_identity_core(tm)
    _assert_matches_oracle(tm)


def _action(kind, m, d, seed):
    """Permutations of d cosets for m branches: the identity (d = 1), a
    seeded cyclic action, or a non-cyclic generator list repeated."""
    if kind == "cyclic":
        return _cyclic_action(m, d, seed)
    gens = [(0,)] if kind == "degree-1" else NON_CYCLIC_ACTIONS[kind][1]
    return {str(s + 1): gens[s % len(gens)] for s in range(m)}


_ACTIONS = ["degree-1", "cyclic", *sorted(NON_CYCLIC_ACTIONS)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_core_matches_oracle_on_random_gauss_systems(data):
    kind = data.draw(st.sampled_from(_ACTIONS), "action")
    d = (1 if kind == "degree-1" else data.draw(st.integers(2, 6), "d") if kind == "cyclic"
         else NON_CYCLIC_ACTIONS[kind][0])
    k = data.draw(st.integers(4, 48), "nodes")
    # the oracle's dense eigensolve stays below 600^2; the core (r = 2k + 16)
    # needs more than 2 + 16 / k branches
    most = max(2, min(24, 600 // (k * d)))
    m = data.draw(st.integers(min(most, 3 + 16 // k), most), "branches")
    if data.draw(st.booleans(), "complex"):
        beta = complex(data.draw(st.floats(1.1, 3.0)), data.draw(st.floats(-2.0, 2.0)))
    else:
        beta = data.draw(st.floats(1.1, 3.0), "beta")
    tm = extend_to_coset(gauss_branch_system(m), _action(kind, m, d, data.draw(st.integers(0, 99))),
                         beta, k)
    res = _assert_matches_oracle(tm)
    if res.core_residual <= m * k * np.finfo(float).eps and transfer._core_rank(k) < m * k:
        assert res.core_size < tm.size


@pytest.mark.parametrize("gap", [1.0, 0.1, 0.01, 0.001])
def test_a_pole_near_the_hull_fails_the_guard(gap):
    # 12 Gauss branches and one whose pole lies gap from the hull [0, 1]; unguarded,
    # the core's det is off by 1e-15 (gap 1), 4e-6, 1e-2 and a factor of 4 (gap 1e-3)
    tm = build_transfer_matrix(_gap_system(gap), 1.0, 16)
    q, p, residual = transfer._core_factors(tm)
    if gap == 1.0:
        res = _assert_matches_oracle(tm)
        assert p is not None and res.core_size == 48 and res.core_residual == residual
        assert residual <= 208 * np.finfo(float).eps
        return
    assert p is None and q is tm.base and residual > 1e-3
    _assert_identity_core(tm)
    _assert_matches_oracle(tm)
    # the interpolant the guard refused
    dense = np.linalg.det(np.eye(208) - tm.base)
    y = transfer._cheb_nodes(*tm.system.hull, 48)
    rows = transfer._collocation_rows(tm.system, tm.grids, 1.0, y)
    card = transfer._cardinal_matrix(y, transfer._bary_weights(48), np.concatenate(tm.grids))
    assert abs(np.linalg.det(np.eye(48) - rows @ card) - dense) > 1e-6 * abs(dense)


@pytest.mark.parametrize("rank", [8, 32, 48, 64])
def test_a_rank_too_small_falls_to_the_dense_route(monkeypatch, rank):
    # r = 2k + 16 = 80 at k = 32 interpolates the rows to 1.3e-14 of max|base|;
    # these miss by 0.88, 1e-2, 1.7e-7 and 1.3e-13, above n eps = 8.5e-14
    monkeypatch.setattr(transfer, "_core_rank", lambda k: rank)
    perms = {str(s + 1): ((1, 0, 2), (1, 2, 0))[s % 2] for s in range(12)}
    for tm in (build_transfer_matrix(gauss_branch_system(12), 2.0, 32),
               extend_to_coset(gauss_branch_system(12), perms, 2.0, 32)):
        _assert_identity_core(tm)
        _assert_matches_oracle(tm)


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


def test_gauss_leading_pair_refuses_a_pair_below_its_rounding_floor():
    # at beta = 20, lambda_2 = -1.7e-9 is 4.5e-9 off relative against 40 branches
    # and 48 nodes while both other checks pass; entries of order 1 already
    # leave lambda_1 = 4.4e-9 a floor eps max|L| / |lambda_1| = 4.8e-8
    with pytest.raises(ArithmeticError, match=r"rounding floor 4.8\de-08 \(1e-11\)"):
        transfer.gauss_leading_pair(20.0)


def test_gauss_leading_pair_builds_one_branch_system(monkeypatch):
    # the operator's rows at the nodes and between them share one system and its grids
    built = []

    def counting(n_max):
        built.append(n_max)
        return gauss_branch_system(n_max)

    monkeypatch.setattr(transfer, "gauss_branch_system", counting)
    transfer.gauss_leading_pair()
    assert built == [transfer.GAUSS_BRANCHES]


def test_core_det_builds_no_dense_work_copy():
    # 20 branches x 64 nodes: the 1280^2 dense work copy alone takes 12.5 MiB;
    # the core's factors are 2 x 1.4 MiB and the guard forms 32 rows at a time
    tm = build_transfer_matrix(gauss_branch_system(20), 2.0, 64)
    fredholm_det(build_transfer_matrix(gauss_branch_system(4), 2.0, 8))  # imports and ARPACK
    tracemalloc.start()
    try:
        res = fredholm_det(tm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.core_size == 144 and peak < 4 * 2 ** 20
    sign, logdet = np.linalg.slogdet(np.eye(1280) - tm.base)
    assert abs(res.value - sign * math.exp(logdet)) <= 1e-12 * math.exp(logdet)


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


def _bits(entries):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(e.n, e.m, *(x.hex() for x in (e.c_ratio.real, e.c_ratio.imag, e.lam, e.rho)))
            for e in entries]


@pytest.mark.parametrize("pd,box", TORUS_CASES)
def test_solution_set_matches_loop(pd, box):
    got = solution_set(pd, box)
    want = _oracle_solution_set(pd, box)
    assert _bits(got) == _bits(want)
    assert all(type(x) is int for e in got for x in e.n + e.m)
    assert (pd.n, pd.m) in {(e.n, e.m) for e in got}


@pytest.mark.parametrize("pd,box", TORUS_CASES)
def test_origami_action_matches_loop(pd, box):
    fn = gaussian(1.3)
    got = dataclasses.astuple(origami_action(pd, fn, 0.8, box))
    assert got == _oracle_action(pd, fn, 0.8, box)


@st.composite
def period_data(draw):
    """Genus 1 or 2.  A diagonal genus-2 matrix is marked on its first
    handle, so every (n1', m1') is kept, not only the multiples."""
    g = draw(st.integers(1, 2), "genus")
    entry = st.floats(-1.0, 1.0)
    re = np.array(draw(st.lists(entry, min_size=g * g, max_size=g * g), "re")).reshape(g, g)
    im = np.array(draw(st.lists(entry, min_size=g * g, max_size=g * g), "im")).reshape(g, g)
    omega = (re + re.T) / 2 + 1j * (im @ im.T + 0.5 * np.eye(g))
    counts = st.lists(st.integers(-2, 2), min_size=g, max_size=g)
    n, m = draw(counts, "n"), draw(counts, "m")
    if g == 2 and draw(st.booleans(), "diagonal"):
        omega = np.diag(np.diag(omega))
        n[1] = m[1] = 0
    assume(any(n) or any(m))
    return _period(omega, n, m)


@settings(max_examples=60, deadline=None)
@given(period_data(), st.integers(1, 4))
def test_half_box_search_matches_loop(pd, box):
    entries = solution_set(pd, box)
    assert _bits(entries) == _bits(_oracle_solution_set(pd, box))
    fn = gaussian(1.3)
    assert dataclasses.astuple(origami_action(pd, fn, 0.8, box)) == _oracle_action(pd, fn, 0.8, box)
    by_index = {(e.n, e.m): e for e in entries}
    for e in entries:
        neg = by_index[tuple(-x for x in e.n), tuple(-x for x in e.m)]
        assert neg.c_ratio == -e.c_ratio
        assert (neg.lam, neg.rho) == (e.lam, e.rho)


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
