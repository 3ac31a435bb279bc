"""Acceptance criteria, one test per criterion, each printing a PASS line
at its stated tolerance (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from adinkra_spectra.adinkra import (
    Dashing,
    build_quotient,
    count_well_dashed_exact,
    kasteleyn_parities,
    well_dashed_class_ids,
)
from adinkra_spectra.codes import BinaryCode, weight
from adinkra_spectra.embedding import (
    attach_faces,
    dual_origami_graph,
    triangulation_stats,
)
from adinkra_spectra.hyperbolic import (
    GeodesicClass,
    length_spectrum,
    power_closure,
    triangle_generators,
)
from adinkra_spectra.origami import validate_origami_graph
from adinkra_spectra.spectral import (
    dirac_action,
    laplace_action_conjugacy,
    laplace_action_geodesic,
    make_test_pair,
    super_action,
    supertrace_g,
)
from adinkra_spectra.torus_spectrum import (
    PeriodData,
    poisson_reference,
    primitive_coefficients,
    solution_set,
)
from adinkra_spectra.transfer import (
    _arnoldi,
    build_transfer_matrix,
    extend_to_coset,
    gauss_branch_system,
    gauss_leading_pair,
)

from test_embedding import closed_form_genus
from test_spectral_kernel_oracle import _unfolded_coth, _unfolded_tanh

GKW = 0.3036630028987327


def report(criterion: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion:2d} [{name}]: PASS{suffix}")


def doubly_even_codes(n, max_k):
    words = [w for w in range(1, 1 << n) if weight(w) % 4 == 0]
    seen = set()
    out = [BinaryCode.trivial(n)]
    for k in range(1, max_k + 1):
        for rows in itertools.combinations(words, k):
            try:
                code = BinaryCode(n, rows)
            except ValueError:
                continue
            span = frozenset(code.codewords())
            if span in seen or len(span) != 1 << k:
                continue
            if any(weight(c) % 4 for c in span):
                continue
            seen.add(span)
            out.append(code)
    return out


def test_criterion_1_genus_formula():
    t0 = time.monotonic()
    checked = 0
    for n in range(2, 7):
        for code in doubly_even_codes(n, 1):
            k = code.dimension
            surface = attach_faces(build_quotient(n, code))
            assert surface.euler_genus == closed_form_genus(n, k), (n, code.generators)
            checked += 1
    assert closed_form_genus(1, 0) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, "genus formula", f"{checked} codes in {elapsed:.2f}s")


def test_criterion_2_dashing_counts():
    t0 = time.monotonic()
    square = build_quotient(2, BinaryCode.trivial(2))
    assert count_well_dashed_exact(square) == 8 == 2 ** (2 ** 2 - 1)

    a41 = build_quotient(4, BinaryCode.from_strings(4, ["1111"]))
    surface = attach_faces(a41)
    g = surface.euler_genus
    predicted = (1 << (2 * g)) * (1 << (a41.vertex_count - 1))
    actual = count_well_dashed_exact(a41, surface.faces)
    assert actual == predicted == 512, (
        f"well-dashed count mismatch: predicted 2^(2g) * 2^(V-1) = {predicted}, "
        f"exhaustive count = {actual}"
    )
    classes = well_dashed_class_ids(a41, surface.faces)
    assert len(classes) == 1 << (2 * g), (
        f"class count mismatch: predicted 2^(2g) = {1 << (2 * g)}, got {len(classes)}"
    )
    strict = count_well_dashed_exact(a41)  # all 2-colored 4-cycles, for the record
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(2, "dashing counts",
           f"A41: 512 embedded-face dashings, 4 classes, strict all-pairs count "
           f"{strict}, {elapsed:.2f}s")


def test_criterion_3_kasteleyn_equivalence():
    from adinkra_spectra.adinkra import dashing_to_kasteleyn, well_dashed

    rng = random.Random(33)
    checked = 0
    for n, rows in [(2, ()), (4, ("1111",))]:
        graph = build_quotient(n, BinaryCode.from_strings(n, rows) if rows else BinaryCode.trivial(n))
        faces = attach_faces(graph).faces
        base, fmasks = kasteleyn_parities(graph, faces)
        n_edges = graph.edge_count
        for mask in range(1 << n_edges):
            kast = all(b ^ ((mask & fm).bit_count() & 1) for b, fm in zip(base, fmasks))
            wd = all((mask & fm).bit_count() & 1 for fm in fmasks)
            assert kast == wd
            checked += 1
        # dual route: the full orientation-traversal predicate agrees with
        # the parity sweep on a random subsample (and all of N = 2)
        sample = range(16) if n == 2 else (rng.randrange(1 << n_edges) for _ in range(200))
        for mask in sample:
            d = Dashing.from_mask(mask, n_edges)
            _orient, kast_direct = dashing_to_kasteleyn(graph, faces, d)
            assert kast_direct == well_dashed(graph, faces, d)
    report(3, "Kasteleyn equivalence", f"{checked} dashings, 100% agreement")


def test_criterion_4_area_identity():
    from fractions import Fraction

    checked = 0
    for n in (5, 6):
        for code in doubly_even_codes(n, 1):
            surface = attach_faces(build_quotient(n, code))
            stats = triangulation_stats(surface)
            lhs = 2 * surface.graph.edge_count * (Fraction(1, 2) - Fraction(2, n))
            assert stats.total_area_pi == lhs
            assert lhs == 4 * (surface.euler_genus - 1)  # exact rationals
            checked += 1
    report(4, "Gauss-Bonnet area identity", f"{checked} surfaces, exact")


def test_criterion_5_dual_origami_validity():
    checked = 0
    for n in (4, 6):
        for code in doubly_even_codes(n, 2):
            surface = attach_faces(build_quotient(n, code))
            dual = dual_origami_graph(surface)
            assert validate_origami_graph(dual).ok, (n, code.generators)
            checked += 1
    with pytest.raises(ValueError, match="odd"):
        dual_origami_graph(attach_faces(build_quotient(5, BinaryCode.trivial(5))))
    report(5, "dual origami validity", f"{checked} duals valid, N=5 rejected")


def _random_primitives(rng, count):
    lengths = sorted(rng.uniform(0.2, 3.0) for _ in range(count))
    return [
        GeodesicClass(2 * math.cosh(l / 2), l, l, rng.choice([1, 1, 2]), f"w{i}", True)
        for i, l in enumerate(lengths)
    ]


def test_criterion_6_regrouping():
    rng = random.Random(2024)
    pair = make_test_pair("smooth_bump")
    worst = 0.0
    for _case in range(50):
        prims = _random_primitives(rng, rng.randint(1, 8))
        for lam in (0.5, 1.0, 2.0):
            closed = power_closure(prims, 1.0 / lam)
            a = laplace_action_geodesic(4, closed, pair, lam)
            b = laplace_action_conjugacy(4, prims, pair, lam)
            rel = abs(a.total - b.total) / max(1.0, abs(b.total))
            worst = max(worst, rel)
            assert rel < 1e-12
    report(6, "trace-formula regrouping", f"50 spectra x 3 scales, worst rel {worst:.2e}")


def test_criterion_7_cutoff_exactness():
    rng = random.Random(7)
    for kind in ("smooth_bump", "cosine_window", "polynomial"):
        pair = make_test_pair(kind)
        for _ in range(20):
            l_min = rng.uniform(0.2, 3.0)
            lam = (1.0 / l_min) * rng.uniform(1.0001, 4.0)
            prims = [GeodesicClass(2 * math.cosh(l_min / 2), l_min, l_min, 1, "w", True)]
            res = laplace_action_geodesic(3, prims, pair, lam)
            assert res.geodesic_term == 0.0
            res2 = laplace_action_conjugacy(3, prims, pair, lam)
            assert res2.geodesic_term == 0.0
    report(7, "cutoff exactness", "geodesic terms identically zero beyond support")


def test_criterion_8_dirac_laplace_consistency():
    from adinkra_spectra.spectral import _identity_coth, _identity_tanh

    rng = random.Random(81)
    pair = make_test_pair("smooth_bump")
    worst = 0.0
    for _case in range(20):
        prims = _random_primitives(rng, rng.randint(1, 6))
        for lam in (0.5, 1.0, 2.0):
            lap = laplace_action_conjugacy(3, prims, pair, lam)
            dir_ = dirac_action(3, prims, [1.0] * len(prims), pair, lam)
            diff = abs(lap.geodesic_term - dir_.geodesic_term)
            worst = max(worst, diff / max(1.0, abs(lap.geodesic_term)))
            assert diff <= 1e-12 * max(1.0, abs(lap.geodesic_term))
    for kind in ("smooth_bump", "cosine_window", "polynomial"):
        p = make_test_pair(kind)
        for lam in (0.5, 1.0, 2.0, 10.0):
            assert abs(_identity_tanh(p, lam) - _unfolded_tanh(p, lam, 128)) < 1e-10
            assert abs(_identity_coth(p, lam) - _unfolded_coth(p, lam, 128)) < 1e-10
    report(8, "Dirac/Laplace consistency",
           f"chi=1 geodesic agreement worst rel {worst:.2e}; "
           "closed-form identity terms match panel quadrature to 1e-10")


def test_criterion_9_super_reductions():
    pair = make_test_pair("smooth_bump")
    assert supertrace_g(0.0, 1.0, lambda t: float(pair.h_at(t))) == 0.0
    rng = random.Random(99)
    worst = 0.0
    for _case in range(10):
        prims = _random_primitives(rng, rng.randint(1, 5))
        chi = [rng.choice([1.0, -1.0]) for _ in prims]
        res = super_action(2, prims, chi, pair, 1.0, variant="lambda_scaled")
        res_r = super_action(2, prims, chi, pair, 1.0, variant="r_scaled")
        direct = 0.0
        for c, x in zip(prims, chi):
            k = 1
            while k * c.length <= 1.0 + 1e-15:
                arg = k * c.length
                w = c.primitive_length / (2 * math.sinh(arg / 2))
                direct += c.multiplicity * w * supertrace_g(
                    arg, x ** k, lambda t: float(pair.h_at(t))
                ).real
                k += 1
        for got in (res.geodesic_term, res_r.geodesic_term):
            rel = abs(got - direct) / max(1.0, abs(direct))
            worst = max(worst, rel)
            assert rel < 1e-12
        assert res.total == pytest.approx(res_r.total, rel=1e-12, abs=1e-12)
    report(9, "super action reductions", f"Lambda=1 termwise worst rel {worst:.2e}; G(0,1)=0")


def test_criterion_10_triangle_group_spectrum():
    t0 = time.monotonic()
    group = triangle_generators(5, 5, 2)
    spec = length_spectrum(group, 4.0)
    assert spec.converged and spec.certified_below == 4.0
    # the l_max-5 ball is larger; below 4.0 it must find the same classes
    longer = [c for c in length_spectrum(group, 5.0).merged() if c.length <= 4.0]
    assert [c.multiplicity for c in spec.merged()] == [c.multiplicity for c in longer]
    for c, d in zip(spec.merged(), longer):
        assert abs(c.length - d.length) <= 1e-12
    for c in spec.classes:
        assert c.trace > 2.0 + 1e-9
        m = group.word_matrix(c.word)
        assert abs(float(np.linalg.det(m)) - 1.0) < 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(10, "triangle-group spectrum",
           f"{len(spec)} classes below 4.0, ball of {spec.element_count} "
           f"in {spec.depth} rounds, "
           f"{elapsed:.1f}s")


def test_criterion_11_transfer_oracle():
    l1, l2 = gauss_leading_pair()
    assert abs(l1 - 1.0) < 1e-13
    assert abs(abs(l2) - GKW) < 1e-12
    sys40 = gauss_branch_system(40)
    a = _arnoldi(build_transfer_matrix(sys40, 1.0, 32).matrix, 6)[0]
    b = _arnoldi(build_transfer_matrix(sys40, 1.0, 64).matrix, 6)[0]
    assert abs(a - b) < 1e-8

    sys8 = gauss_branch_system(8)
    base = build_transfer_matrix(sys8, 1.0, 16)
    ext1 = extend_to_coset(sys8, {s.label: (0,) for s in sys8.branches}, 1.0, 16)
    assert np.array_equal(ext1.matrix, base.matrix)
    ext2 = extend_to_coset(sys8, {s.label: (0, 1) for s in sys8.branches}, 1.0, 16)
    n = base.size
    assert np.array_equal(ext2.matrix[:n, :n], base.matrix)
    assert np.array_equal(ext2.matrix[n:, n:], base.matrix)
    assert not ext2.matrix[:n, n:].any() and not ext2.matrix[n:, :n].any()
    report(11, "transfer operator oracle",
           f"full-operator l1 err {abs(l1 - 1):.1e}, |l2| err {abs(abs(l2) - GKW):.1e}")


def test_criterion_12_torus_spectrum():
    pd = PeriodData(np.array([[1j]]), (0,), (1,))
    _c, a0 = primitive_coefficients(pd)
    entries = solution_set(pd, 6)
    for e in entries:
        expected = math.pi ** 2 * (e.n[0] ** 2 + e.m[0] ** 2)
        assert e.lam == pytest.approx(expected, rel=1e-12)
    index = {(e.n[0], e.m[0]): e.lam for e in entries}
    base = index[(0, 1)]
    assert base == pytest.approx(2 * a0, rel=1e-14)
    for k in range(2, 7):
        assert index[(0, k)] == pytest.approx(k ** 2 * 2 * a0, rel=1e-12)
    res = poisson_reference(pd, width=1.0, lam=1.0, box_bound=50)
    assert res.discrepancy < 1e-8
    report(12, "torus/origami spectrum",
           f"flat-torus gate exact, Poisson discrepancy {res.discrepancy:.1e}")


def test_criterion_13_exclusions_documented():
    # actual hyperbolic Laplace/Dirac eigenvalues and the full Selberg zeta
    # of Delta(N,N,2) subgroups are excluded by design; the property suites
    # above cover the implemented trace-formula side
    report(13, "exclusions", "hyperbolic eigenvalue computation excluded by design")
