import itertools
import math
import re
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


def same_graph(g, h):
    """Field by field: graphs compare by identity, their arrays by value."""
    return ((g.n_colors, g.vertices, g.warnings) == (h.n_colors, h.vertices, h.warnings)
            and np.array_equal(g.edges, h.edges) and np.array_equal(g.bipartition, h.bipartition))


def test_a40_is_elliptic():
    s = attach_faces(quotient(4))
    assert s.euler_genus == 1
    assert s.components == 1
    assert s == attach_faces(s.graph)  # the face arrays are fixed by the graph


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
        assert s.graph.edges[face_edges[0], 2] == i


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
        for u, v, c in prod.graph.edges.tolist()
    }
    sq_edges = {(sq.vertices[u], sq.vertices[v], c) for u, v, c in sq.edges.tolist()}
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
    assert [h % 2 for h in ranking.values] == graph.bipartition.tolist()


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
    assert same_graph(p1, p2)
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
    assert same_graph(graph, g2)
    assert ranking == r2


# Frozen copies of the products as loops over edge tuples, as they were
# before they moved to arrays: the oracle for the array versions.
def _frozen_cartesian(a1, a2):
    g1, g2 = a1.graph, a2.graph
    side1, side2 = g1.bipartition.tolist(), g2.bipartition.tolist()
    labels, bip, ranks = [], [], []
    for i1, l1 in enumerate(g1.vertices):
        for i2, l2 in enumerate(g2.vertices):
            labels.append((l1, l2))
            bip.append(side1[i1] ^ side2[i2])
            ranks.append(a1.ranking.values[i1] + a2.ranking.values[i2])
    edges, dash = [], []
    for e1, (u1, v1, c) in enumerate(g1.edges.tolist()):
        for i2 in range(g2.vertex_count):
            p, q = u1 * g2.vertex_count + i2, v1 * g2.vertex_count + i2
            edges.append((min(p, q), max(p, q), c))
            dash.append(a1.dashing.bits[e1])
    for e2, (u2, v2, c) in enumerate(g2.edges.tolist()):
        for i1 in range(g1.vertex_count):
            p, q = i1 * g2.vertex_count + u2, i1 * g2.vertex_count + v2
            edges.append((min(p, q), max(p, q), c + g1.n_colors))
            dash.append((a2.dashing.bits[e2] + a1.ranking.values[i1]) % 2)
    order = sorted(range(len(edges)), key=lambda e: (edges[e][2], edges[e][0], edges[e][1]))
    return (tuple(labels), [edges[e] for e in order], bip, tuple(ranks),
            tuple(dash[e] for e in order))


def _frozen_fibered(g1, g2, h1, h2, residue):
    n1, n2 = g1.n_colors, g2.n_colors
    g = math.gcd(n1, n2)
    side1, side2 = g1.bipartition.tolist(), g2.bipartition.tolist()
    labels, bip, ranks, index = [], [], [], {}
    for i1, l1 in enumerate(g1.vertices):
        for i2, l2 in enumerate(g2.vertices):
            if side1[i1] == side2[i2]:
                index[(i1, i2)] = len(labels)
                labels.append((l1, l2))
                bip.append(side1[i1])
                ranks.append(h1.values[i1] * h2.values[i2])
    edges = []
    for u1, v1, c1 in g1.edges.tolist():
        for u2, v2, c2 in g2.edges.tolist():
            if (c1 - c2) % g != residue:
                continue
            r1 = (c1 - 1 - residue) % n1
            t = ((r1 - c2 + 1) // g * pow(n2 // g, -1, n1 // g)) % (n1 // g)
            color = (c2 - 1 + n2 * t) % (n1 * n2 // g) + 1
            if side1[u1] == side2[u2]:
                p, q = index[(u1, u2)], index[(v1, v2)]
            else:
                p, q = index[(u1, v2)], index[(v1, u2)]
            edges.append((min(p, q), max(p, q), color))
    edges.sort(key=lambda e: (e[2], e[0], e[1]))
    return tuple(labels), edges, bip, tuple(ranks)


FACTORS = [(1,), (2,), (3,), (4,), (4, "1111"), (5, "11110"), (6, "111100")]


@pytest.mark.parametrize("first,second", itertools.product(range(len(FACTORS)), repeat=2))
def test_products_match_the_frozen_loops(first, second):
    g1, g2 = quotient(*FACTORS[first]), quotient(*FACTORS[second])
    rng = np.random.default_rng(first * 10 + second)
    a1, a2 = (Adinkra(g, default_ranking(g),
                      Dashing(tuple(rng.integers(0, 2, g.edge_count).tolist())))
              for g in (g1, g2))
    prod = cartesian_product(a1, a2)
    labels, edges, bip, ranks, dash = _frozen_cartesian(a1, a2)
    assert prod.graph.vertices == labels and prod.graph.edges.tolist() == [list(e) for e in edges]
    assert prod.graph.bipartition.tolist() == bip
    assert prod.ranking.values == ranks and prod.dashing.bits == dash
    for residue in range(math.gcd(g1.n_colors, g2.n_colors)):
        graph, ranking = fibered_product(a1, a2, residue)
        labels, edges, bip, ranks = _frozen_fibered(g1, g2, a1.ranking, a2.ranking, residue)
        assert graph.vertices == labels and graph.edges.tolist() == [list(e) for e in edges]
        assert graph.bipartition.tolist() == bip and ranking.values == ranks


def test_fibered_product_names_the_first_pair_with_no_vertex():
    # the odd code 1000 puts loops inside one class, so some edge pair has
    # an end that is not parity-matched
    odd = quotient(4, "1000")
    for g1, g2 in ((quotient(2), odd), (odd, quotient(3)), (odd, odd)):
        h1, h2 = default_ranking(g1), default_ranking(g2)
        for residue in range(math.gcd(g1.n_colors, g2.n_colors)):
            with pytest.raises(KeyError) as expected:
                _frozen_fibered(g1, g2, h1, h2, residue)
            pair = expected.value.args[0]
            with pytest.raises(ValueError) as got:
                fibered_product(g1, g2, residue)
            found = re.fullmatch(r"edge \((\d+),(\d+)\) of color (\d+) in factor ([12]) lies inside "
                                 r"one parity class, so the vertex pair \((\d+), (\d+)\) is not "
                                 r"parity-matched", str(got.value))
            u, v, color, factor, *named = map(int, found.groups())
            assert tuple(named) == pair
            graph = (g1, g2)[factor - 1]
            assert [u, v, color] in graph.edges.tolist()
            assert graph.bipartition[u] == graph.bipartition[v]
