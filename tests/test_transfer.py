import math
import re

import mpmath
import numpy as np
import pytest

from adinkra_spectra import transfer
from adinkra_spectra.perms import cyclic_exponents, permutation
from adinkra_spectra.transfer import (
    Branch,
    BranchSystem,
    _arnoldi,
    build_transfer_matrix,
    extend_to_coset,
    fredholm_det,
    gauss_branch_system,
    gauss_leading_pair,
)

from test_perms_oracle import compose

GKW = 0.3036630028987327  # Gauss-Kuzmin-Wirsing subleading magnitude


def direct_apply(tm, fn, x):
    """Pointwise (L f)(x) from the defining sum over the branches."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(len(x), dtype=complex)
    for b in tm.system.branches:
        out += b.deriv_abs(x) ** tm.beta * np.asarray(fn(b.apply(x)), dtype=complex)
    return out


def affine_half_system():
    # single branch g(x) = x/2 on [0, 1]
    return BranchSystem((Branch(0.0, 1.0, np.array([[0.5, 0.0], [0.0, 1.0]]), "h"),))


def test_affine_branch_constant_eigenfunction():
    tm = build_transfer_matrix(affine_half_system(), 0.0, 16)
    ones = tm.sample(lambda x: np.ones_like(x))
    applied = tm.matrix @ ones
    assert np.max(np.abs(applied - 1.0)) < 1e-12  # row sums = branch count
    lead = _arnoldi(tm.matrix, 6)[:1]
    assert abs(lead[0] - 1.0) < 1e-12


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 0.7])
def test_affine_branch_leading_eigenvalue(beta):
    # weight |g'|^beta = 2^-beta on constants
    tm = build_transfer_matrix(affine_half_system(), beta, 16)
    vals = np.linalg.eigvals(tm.matrix)
    vals = vals[np.argsort(-np.abs(vals))]
    assert abs(vals[0] - 2.0 ** (-beta)) < 1e-12
    # full spectrum of the half-map composition operator: 2^-(beta+k)
    for k in range(4):
        assert min(abs(vals - 2.0 ** (-(beta + k)))) < 1e-10


def test_beta_zero_rows_sum_to_branch_count():
    sys = gauss_branch_system(7)
    tm = build_transfer_matrix(sys, 0.0, 12)
    ones = tm.sample(lambda x: np.ones_like(x))
    assert np.max(np.abs(tm.matrix @ ones - 7.0)) < 1e-10


def test_polynomial_reproduction():
    # degree < nodes: interpolation is exact, matrix action == direct action
    sys = gauss_branch_system(9)
    tm = build_transfer_matrix(sys, 1.0, 20)

    def f(x):
        return 1.0 + 0.5 * x - 0.25 * x ** 2 + x ** 5

    sampled = tm.matrix @ tm.sample(f)
    direct = direct_apply(tm, f, np.concatenate(tm.grids))
    assert np.max(np.abs(sampled - direct)) < 1e-10


def test_offgrid_consistency_analytic_function():
    sys = gauss_branch_system(6)
    tm = build_transfer_matrix(sys, 1.5, 32)
    applied = tm.matrix @ tm.sample(np.exp)
    # interpolate the result at off-grid points and compare to the direct sum
    from adinkra_spectra.transfer import _bary_weights, _cardinal_matrix

    rng = np.random.default_rng(5)
    w = _bary_weights(32)
    lo, hi = sys.hull
    pts = rng.uniform(lo, hi, 40)
    direct = direct_apply(tm, np.exp, pts)
    interp = np.zeros(len(pts), dtype=complex)
    # locate each point in its interval's grid block
    for i, p in enumerate(pts):
        for s, b in enumerate(sys.branches):
            if b.lo - 1e-12 <= p <= b.hi + 1e-12:
                card = _cardinal_matrix(tm.grids[s], w, np.array([p]))
                interp[i] = (card @ applied[s * 32:(s + 1) * 32])[0]
                break
    assert np.max(np.abs(interp - direct)) < 1e-9


def test_overlapping_intervals_rejected():
    with pytest.raises(ValueError, match="overlap"):
        BranchSystem((
            Branch(0.0, 0.6, np.array([[0.5, 0.0], [0.0, 1.0]])),
            Branch(0.5, 1.0, np.array([[0.25, 0.5], [0.0, 1.0]])),
        ))


def test_derivative_singularity_rejected():
    # g(x) = 1/x has its pole at x = 0 inside the phase interval
    with pytest.raises(ValueError, match="singularity"):
        BranchSystem((Branch(0.0, 1.0, np.array([[0.0, 1.0], [1.0, 0.0]])),))


def test_gauss_invariance_extrapolation():
    l1, l2 = gauss_leading_pair()
    assert abs(l1 - 1.0) < 1e-13
    assert abs(abs(l2) - GKW) < 1e-12


def test_gauss_two_resolution_agreement():
    sys = gauss_branch_system(40)
    a = _arnoldi(build_transfer_matrix(sys, 1.0, 32).matrix, 6)[0]
    b = _arnoldi(build_transfer_matrix(sys, 1.0, 64).matrix, 6)[0]
    assert abs(a - b) < 1e-8


def test_eigenvalue_continuity_in_beta():
    sys = gauss_branch_system(20)
    a = _arnoldi(build_transfer_matrix(sys, 1.0, 24).matrix, 6)[0].real
    b = _arnoldi(build_transfer_matrix(sys, 1.0 + 1e-6, 24).matrix, 6)[0].real
    assert abs(a - b) < 1e-4


def test_coset_degree_one_is_bitwise_identical():
    sys = gauss_branch_system(8)
    base = build_transfer_matrix(sys, 1.0, 16)
    ext = extend_to_coset(sys, {b.label: (0,) for b in sys.branches}, 1.0, 16)
    assert ext.matrix.shape == base.matrix.shape
    assert np.array_equal(ext.matrix, base.matrix)


def test_coset_trivial_action_is_direct_sum():
    sys = gauss_branch_system(6)
    base = build_transfer_matrix(sys, 1.0, 12)
    ident = (0, 1)
    ext = extend_to_coset(sys, {b.label: ident for b in sys.branches}, 1.0, 12)
    n = base.size
    assert np.array_equal(ext.matrix[:n, :n], base.matrix)
    assert np.array_equal(ext.matrix[n:, n:], base.matrix)
    assert not ext.matrix[:n, n:].any()
    assert not ext.matrix[n:, :n].any()
    # the exact block equality above is the doubling; numerically the
    # well-separated leading eigenvalues come out in matched pairs
    base_vals = np.linalg.eigvals(base.matrix)
    base_vals = base_vals[np.argsort(-np.abs(base_vals))][:5]
    ext_vals = np.linalg.eigvals(ext.matrix)
    ext_vals = ext_vals[np.argsort(-np.abs(ext_vals))][:10]
    for i, bv in enumerate(base_vals):
        assert abs(ext_vals[2 * i] - bv) < 1e-10
        assert abs(ext_vals[2 * i + 1] - bv) < 1e-10


def test_coset_swap_action_adds_new_spectrum():
    # coset-constant functions are invariant, so the base spectrum embeds
    # and the Perron eigenvalue cannot move; the sign-representation part
    # is the genuinely new operator and its leading eigenvalue differs
    sys = gauss_branch_system(10)
    perms = {b.label: (0, 1) for b in sys.branches}
    perms["1"] = (1, 0)  # swap on the first branch
    odd_lead = []
    for nodes in (16, 32):
        ext = extend_to_coset(sys, perms, 1.0, nodes)
        base = build_transfer_matrix(sys, 1.0, nodes)
        ev_ext = np.linalg.eigvals(ext.matrix)
        ev_base = np.linalg.eigvals(base.matrix)
        # remove the embedded base copy, largest first
        ev_ext = sorted(ev_ext, key=lambda z: -abs(z))
        for bv in sorted(ev_base, key=lambda z: -abs(z)):
            j = min(range(len(ev_ext)), key=lambda i: abs(ev_ext[i] - bv))
            ev_ext.pop(j)
        odd_lead.append(max(ev_ext, key=abs))
        assert abs(_arnoldi(ext.matrix, 6)[0] - ev_base[np.argmax(np.abs(ev_base))]) < 1e-10
    assert abs(odd_lead[0] - odd_lead[1]) < 1e-8  # two-resolution stability
    base_lead = _arnoldi(build_transfer_matrix(sys, 1.0, 32).matrix, 6)[0]
    assert abs(odd_lead[1] - base_lead) > 1e-3  # new spectrum really differs


def test_coset_missing_permutation():
    sys = gauss_branch_system(3)
    with pytest.raises(ValueError, match="no coset permutation"):
        extend_to_coset(sys, {"1": (0, 1), "2": (0, 1)}, 1.0, 8)


def test_fredholm_nilpotent_oracle():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    res = fredholm_det(m)
    assert res.value == pytest.approx(1.0)  # 1 - tr + det = 1
    m2 = np.array([[0.3, 0.1], [0.2, 0.4]])
    expected = 1.0 - (0.3 + 0.4) + (0.3 * 0.4 - 0.1 * 0.2)
    assert fredholm_det(m2).value == pytest.approx(expected, rel=1e-12)


def test_fredholm_singular_flag():
    # beta = 0 single affine branch has eigenvalue exactly 1
    tm = build_transfer_matrix(affine_half_system(), 0.0, 12)
    res = fredholm_det(tm)
    assert res.singular
    assert abs(res.value) < 1e-10


def test_fredholm_gauss_beta1_tends_to_zero():
    dets = []
    for n in (10, 20, 40):
        tm = build_transfer_matrix(gauss_branch_system(n), 1.0, 16)
        dets.append(abs(fredholm_det(tm).value))
    assert dets[0] > dets[1] > dets[2]  # eigenvalue 1 in the n -> inf limit


def test_fredholm_node_doubling_stability_beta2():
    sys = gauss_branch_system(20)
    d1 = fredholm_det(build_transfer_matrix(sys, 2.0, 32))
    d2 = fredholm_det(build_transfer_matrix(sys, 2.0, 64))
    assert abs(math.log(abs(d1.value)) - math.log(abs(d2.value))) < 1e-7


def test_branches_with_other_matrices_are_not_equal():
    # the matrix was left out of the comparison: these two compared equal
    a = Branch(0.5, 1.0, np.array([[0.0, 1.0], [1.0, 1.0]]), "1")
    b = Branch(0.5, 1.0, np.array([[0.0, 1.0], [1.0, 2.0]]), "1")
    assert a != b
    assert len({a, b}) == 2


def test_coset_extensions_with_other_permutations_are_not_equal():
    # the permutations were left out of the comparison: these compared equal
    sys = gauss_branch_system(2)
    a = extend_to_coset(sys, {"1": (1, 2, 0), "2": (0, 1, 2)}, 1.5, 4)
    b = extend_to_coset(sys, {"1": (2, 0, 1), "2": (0, 1, 2)}, 1.5, 4)
    assert a != b
    assert len({a, b}) == 2


def test_branch_system_json_round_trip():
    sys = gauss_branch_system(4)
    back = BranchSystem.from_json(sys.to_json())
    assert back.labels() == sys.labels()
    for b1, b2 in zip(back.branches, sys.branches):
        assert (b1.lo, b1.hi) == (b2.lo, b2.hi)
        assert np.allclose(b1.matrix, b2.matrix)


def test_complex_beta_supported():
    sys = gauss_branch_system(5)
    tm = build_transfer_matrix(sys, 1.0 + 0.5j, 12)
    assert np.iscomplexobj(tm.matrix)
    res = fredholm_det(tm)
    assert np.isfinite(res.value.real) and np.isfinite(res.value.imag)


def test_coset_extra_label_rejected():
    perms = {"1": (1, 0), "2": (0, 1), "3": (1, 0), "7": (0, 1)}
    with pytest.raises(ValueError, match=r"lacks: \['7'\]"):
        extend_to_coset(gauss_branch_system(3), perms, 1.0, 8)


def test_coset_keeps_base_and_branch_perms():
    sys = gauss_branch_system(4)
    perms = {"1": (1, 2, 0), "2": (0, 1, 2), "3": (2, 0, 1), "4": (1, 2, 0)}
    ext = extend_to_coset(sys, perms, 1.3, 8)
    assert np.array_equal(ext.base, build_transfer_matrix(sys, 1.3, 8).matrix)
    assert len(ext.branch_perms) == 4
    for p, l in zip(ext.branch_perms, "1234"):
        assert np.array_equal(p, perms[l])


def test_cyclic_det_builds_no_dense_matrix():
    # the factored det reads base and branch_perms; the (d*n)^2 array is
    # assembled only when .matrix is read, and then once
    perms = {"1": (1, 2, 0), "2": (2, 0, 1), "3": (0, 1, 2), "4": (1, 2, 0)}
    tm = extend_to_coset(gauss_branch_system(4), perms, 1.3, 8)
    fredholm_det(tm)
    assert "matrix" not in tm.__dict__
    assert tm.size == 3 * 4 * 8
    assert tm.matrix.shape == (tm.size, tm.size) and tm.matrix is tm.matrix


@pytest.mark.parametrize("d", [1, 2, 5, 6])
def test_cyclic_exponents_recover_powers(d):
    rng = np.random.default_rng(d)
    label = rng.permutation(d)
    position = np.argsort(label)
    t = tuple(int(label[(position[a] + 1) % d]) for a in range(d))  # a shuffled d-cycle
    exps = [int(e) for e in rng.integers(0, d, 5)]
    gens = []
    for e in exps:
        p = tuple(range(d))
        for _ in range(e):
            p = compose(t, p)
        gens.append(p)
    got = cyclic_exponents([permutation(p, d, "p") for p in [t] + gens], d)
    assert got == [1 % d] + exps


def test_cyclic_exponents_refuse_non_cyclic_actions():
    def refused(gens, d):
        return cyclic_exponents([permutation(p, d, "p") for p in gens], d) is None

    klein4 = [(1, 0, 3, 2), (2, 3, 0, 1)]
    assert refused(klein4, 4)
    assert refused([(1, 2, 0), (1, 0, 2)], 3)  # S3
    assert refused([(1, 0, 2, 3), (0, 1, 3, 2)], 4)  # intransitive
    assert refused([(2, 3, 0, 1), (0, 1, 2, 3)], 4)  # even shifts only


def test_gauss_leading_pair_default_digits():
    l1, l2 = gauss_leading_pair()
    assert abs(l1 - 1.0) <= 1e-13
    assert abs(l2 + GKW) <= 1e-12


@pytest.mark.parametrize("beta", [0.6, 0.8, 2.3, 4.0])
def test_gauss_leading_pair_at_twice_the_branches_and_nodes(monkeypatch, beta):
    got = gauss_leading_pair(beta)
    monkeypatch.setattr(transfer, "GAUSS_BRANCHES", 2 * transfer.GAUSS_BRANCHES)
    monkeypatch.setattr(transfer, "GAUSS_NODES", 2 * transfer.GAUSS_NODES)
    finer = gauss_leading_pair(beta)
    assert abs(got[0] - finer[0]) <= 1e-12 and abs(got[1] - finer[1]) <= 1e-12


def test_hurwitz_zeta_matches_mpmath():
    # the tail sums zeta(2 beta + j, x + N + 1) at N = 16, and at N = 32 in
    # the test above; at 30 digits mpmath itself misses by 1e-11 near s = 18
    s = np.concatenate([np.linspace(1.002, 3.0, 12), np.linspace(3.0, 60.0, 12), [100.0, 200.0]])
    q = np.array([11.0, 17.0, 17.25, 17.5, 18.0, 33.0, 33.5, 34.0])
    got = transfer._hurwitz_zeta(s, q[:, None])
    assert got.shape == (len(q), len(s))
    with mpmath.workdps(50):
        worst = max(abs(mpmath.mpf(float(got[i, j])) / mpmath.zeta(s[j], q[i]) - 1)
                    for i in range(len(q)) for j in range(len(s)))
    assert worst <= 2e-15
    assert transfer._hurwitz_zeta(2.0, 17.0) == pytest.approx(float(mpmath.zeta(2, 17)), rel=2e-15)


@pytest.mark.parametrize("beta", [0.5, 0.3, -1.0, 1.0 + 0.5j, math.nan, math.inf, -math.inf])
def test_gauss_leading_pair_refuses_bad_beta(beta):
    with pytest.raises(ValueError, match=re.escape(f"beta must be real, finite and above 1/2, "
                                                   f"got {beta!r}")):
        gauss_leading_pair(beta)
