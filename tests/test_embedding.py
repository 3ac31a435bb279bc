import itertools
from fractions import Fraction

import numpy as np
import pytest

from adinkra_spectra.adinkra import (
    Adinkra,
    Dashing,
    build_quotient,
    default_ranking,
    two_colored_four_cycles,
    validate_chromotopology,
    well_dashed,
)
from adinkra_spectra.codes import BinaryCode, weight
from adinkra_spectra.embedding import (
    attach_faces,
    cartesian_product,
    dual_origami_graph,
    fibered_genus_report,
    fibered_product,
    triangulation_stats,
)
from adinkra_spectra.origami import monodromy, validate_origami_graph

from test_adinkra import validate_ranking


def closed_form_genus(n, k):
    """g = 1 + 2^(N-k-3)(N-4) for N >= 2; 0 for N < 2 (exact rational)."""
    if n < 2:
        return 0
    g = 1 + Fraction(2) ** (n - k - 3) * (n - 4)
    if g.denominator != 1:
        raise ValueError(f"genus formula non-integral for N={n}, k={k}")
    return int(g)


def quotient(n, *rows):
    code = BinaryCode.from_strings(n, rows) if rows else BinaryCode.trivial(n)
    return build_quotient(n, code)


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


def test_a40_is_elliptic():
    s = attach_faces(quotient(4))
    assert s.euler_genus == 1
    assert s.components == 1
    assert s == attach_faces(quotient(4))  # the face arrays are fixed by the graph


def test_single_edge_has_genus_zero():
    s = attach_faces(quotient(1))
    assert s.euler_genus == 0
    assert len(s.faces) == s.face_count == 0
    assert np.array_equal(s.faces.vertices, np.zeros((0, 4), dtype=int))
    assert np.array_equal(s.faces.edges, np.zeros((0, 4), dtype=int))
    assert np.array_equal(s.faces.colors, np.zeros((0, 2), dtype=int))


def test_a50_counts():
    g = quotient(5)
    s = attach_faces(g)
    assert g.vertex_count == 32
    assert g.edge_count == 80
    assert s.face_count == 40
    assert s.euler_characteristic == -8
    assert s.euler_genus == 5 == closed_form_genus(5, 0)


def test_every_edge_on_two_faces():
    for n, rows in [(2, ()), (3, ()), (4, ("1111",)), (5, ("11110",)), (6, ("111100",))]:
        g = quotient(n, *rows)
        s = attach_faces(g)
        counts = [0] * g.edge_count
        for face_edges in s.faces.edges.tolist():
            for e in face_edges:
                counts[e] += 1
        assert set(counts) == {2}


def test_genus_formula_closed_form():
    assert closed_form_genus(1, 0) == 0
    assert closed_form_genus(2, 0) == 0
    assert closed_form_genus(3, 0) == 0
    assert closed_form_genus(4, 0) == 1
    assert closed_form_genus(4, 1) == 1
    assert closed_form_genus(5, 0) == 5
    assert closed_form_genus(6, 1) == 9
    assert closed_form_genus(6, 0) == 17


def test_face_orientations_traverse_edges_oppositely():
    # global orientation: the two faces through an edge walk it both ways
    g = quotient(4, "1111")
    s = attach_faces(g)
    darts = {}
    for fi, quad in enumerate(s.faces.vertices.tolist()):
        for j in range(4):
            dart = (quad[j], quad[(j + 1) % 4])
            assert dart not in darts, "dart used twice"
            darts[dart] = fi
    for (a, b) in list(darts):
        assert (b, a) in darts


def test_face_color_pattern_starts_with_family_color():
    s = attach_faces(quotient(4, "1111"))
    for (i, j), face_edges in zip(s.faces.colors.tolist(), s.faces.edges.tolist()):
        assert j == i % 4 + 1
        e0 = s.graph.edges[face_edges[0]]
        assert e0[2] == i


def test_triangulation_a50():
    s = attach_faces(quotient(5))
    t = triangulation_stats(s)
    assert t.hyperbolic
    assert t.triangle_count == 160
    assert t.subgroup_index == 80
    assert t.triangle_area_pi == Fraction(1, 10)
    assert t.total_area_pi == Fraction(16)
    assert t.total_area_pi == 4 * (s.euler_genus - 1)


def test_triangulation_a61():
    # d = 96, area 32*pi = 4*pi*(9-1)
    s = attach_faces(quotient(6, "111100"))
    t = triangulation_stats(s)
    assert s.euler_genus == 9
    assert t.subgroup_index == 96
    assert t.total_area_pi == Fraction(32) == 4 * (s.euler_genus - 1)


def test_triangulation_flat_n4():
    t = triangulation_stats(attach_faces(quotient(4)))
    assert not t.hyperbolic
    assert t.total_area_pi == 0


def test_area_identity_all_hyperbolic_cases():
    for n in (5, 6):
        for code in doubly_even_codes(n, 1):
            g = build_quotient(n, code)
            s = attach_faces(g)
            t = triangulation_stats(s)
            assert t.total_area_pi == 4 * (s.euler_genus - 1)


def test_dual_origami_a40():
    s = attach_faces(quotient(4))
    dual = dual_origami_graph(s)
    assert dual.d == 16
    rep = validate_origami_graph(dual)
    assert rep.ok
    _m, genus = monodromy(dual)
    assert genus == 1  # the elliptic curve, via the parallel frame


def test_dual_origami_a41():
    s = attach_faces(quotient(4, "1111"))
    dual = dual_origami_graph(s)
    assert dual.d == 8
    assert validate_origami_graph(dual).ok
    _m, genus = monodromy(dual)
    assert genus == 1


def test_dual_origami_rejects_odd_n():
    with pytest.raises(ValueError, match="odd"):
        dual_origami_graph(attach_faces(quotient(5)))


def test_dual_origami_rejects_n2():
    with pytest.raises(ValueError):
        dual_origami_graph(attach_faces(quotient(2)))


def test_dual_origami_all_even_cases_valid():
    for n in (4, 6):
        for code in doubly_even_codes(n, 2):
            s = attach_faces(build_quotient(n, code))
            dual = dual_origami_graph(s)
            assert validate_origami_graph(dual).ok, (n, code.generators)


def adinkra_bundle(n, *rows, mask=0):
    g = quotient(n, *rows)
    return Adinkra(g, default_ranking(g), Dashing.from_mask(mask, g.edge_count))


def test_cartesian_product_of_segments_is_square():
    a1 = adinkra_bundle(1)
    prod = cartesian_product(a1, a1)
    sq = quotient(2)
    # relabel (l1, l2) -> 2*l1 + l2 recovers the 2-cube exactly
    relabeled = {(2 * u[0] + u[1]) for u in prod.graph.vertices}
    assert relabeled == set(sq.vertices)
    edges = {
        (2 * prod.graph.vertices[u][0] + prod.graph.vertices[u][1],
         2 * prod.graph.vertices[v][0] + prod.graph.vertices[v][1], c)
        for u, v, c in prod.graph.edges
    }
    sq_edges = {(sq.vertices[u], sq.vertices[v], c) for u, v, c in sq.edges}
    assert {(min(a, b), max(a, b), c) for a, b, c in edges} == sq_edges
    assert validate_chromotopology(prod.graph).ok


def test_cartesian_product_ranking_and_validity():
    p = cartesian_product(adinkra_bundle(2), adinkra_bundle(1))
    assert validate_chromotopology(p.graph).ok
    assert not validate_ranking(p.graph, p.ranking)
    zero = p.graph.vertices.index((0, 0))
    assert p.ranking.values[zero] == 0


def test_cartesian_product_well_dashed_exhaustive():
    # single edges carry no 4-cycles, so every factor dashing is well-dashed;
    # every product must come out well-dashed thanks to the +h1 twist
    a = quotient(1)
    r = default_ranking(a)
    for m1 in range(2):
        for m2 in range(2):
            prod = cartesian_product(
                Adinkra(a, r, Dashing.from_mask(m1, 1)),
                Adinkra(a, r, Dashing.from_mask(m2, 1)),
            )
            faces = two_colored_four_cycles(prod.graph)
            assert well_dashed(prod.graph, faces, prod.dashing)


def test_cartesian_product_of_well_dashed_squares():
    sq = quotient(2)
    r = default_ranking(sq)
    from adinkra_spectra.adinkra import well_dashed_masks

    for m1 in well_dashed_masks(sq)[:4]:
        for m2 in well_dashed_masks(sq)[:4]:
            prod = cartesian_product(
                Adinkra(sq, r, Dashing.from_mask(m1, 4)),
                Adinkra(sq, r, Dashing.from_mask(m2, 4)),
            )
            faces = two_colored_four_cycles(prod.graph)
            assert well_dashed(prod.graph, faces, prod.dashing)


def test_fibered_product_squares():
    sq = quotient(2)
    graph, ranking = fibered_product(sq, sq, residue=0)
    assert graph.vertex_count == 8
    assert graph.edge_count == 8
    assert graph.n_colors == 2
    rep = validate_chromotopology(graph)
    assert rep.ok  # connectivity is informational: this product is disconnected
    assert not rep.connected
    for i, h in enumerate(ranking.values):
        assert h % 2 == graph.bipartition[i]


def test_fibered_product_coprime_colors():
    g1 = quotient(2)
    g2 = quotient(3)
    graph, _r = fibered_product(g1, g2)
    assert graph.n_colors == 6
    assert graph.vertex_count == (2 * 4 + 2 * 4)
    assert validate_chromotopology(graph).ok


def test_fibered_product_bad_residue():
    sq = quotient(2)
    with pytest.raises(ValueError, match="residue"):
        fibered_product(sq, sq, residue=5)


def test_fibered_product_eight_color_example():
    # two copies of the [8,4] doubly-even code Adinkra: 16 vertices each,
    # eight rainbow residues, each an 8-colored chromotopology on 128 vertices
    code = BinaryCode.from_strings(8, ["11110000", "00111100", "00001111", "01100110"])
    from adinkra_spectra.codes import analyze_code

    assert analyze_code(code).is_doubly_even
    g = build_quotient(8, code)
    assert g.vertex_count == 16
    for residue in range(8):
        graph, _r = fibered_product(g, g, residue=residue)
        assert graph.n_colors == 8
        assert graph.vertex_count == 128
        assert validate_chromotopology(graph).ok


def test_fibered_genus_report_squares():
    sq = quotient(2)
    graph, _r = fibered_product(sq, sq)
    rep = fibered_genus_report(sq, sq, graph)
    assert (rep.g1, rep.g2) == (0, 0)
    assert rep.g_product == 0
    assert rep.additivity_ok


def test_fibered_genus_report_coprime_deterministic():
    g1, g2 = quotient(2), quotient(3)
    p1, _ = fibered_product(g1, g2, residue=0)
    p2, _ = fibered_product(g1, g2, residue=0)
    assert p1 == p2
    r1 = fibered_genus_report(g1, g2, p1)
    r2 = fibered_genus_report(g1, g2, p2)
    assert r1 == r2


def test_fibered_genus_report_a41():
    a = quotient(4, "1111")
    graph, _r = fibered_product(a, a)
    rep = fibered_genus_report(a, a, graph)
    assert (rep.g1, rep.g2) == (1, 1)
    # additivity is a report, not an assertion; record self-consistency
    assert isinstance(rep.additivity_ok, bool)
    assert rep.additivity_ok == (rep.g_product == rep.g1 + rep.g2)


def test_fibered_product_accepts_adinkra_bundles():
    a = adinkra_bundle(2)
    graph, ranking = fibered_product(a, a, residue=0)
    g2, r2 = fibered_product(a.graph, a.graph, residue=0)
    assert graph == g2
    assert ranking == r2
