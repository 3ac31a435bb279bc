import re

import numpy as np
import pytest

from adinkra_spectra.adinkra import (
    Chromotopology,
    Dashing,
    build_quotient,
    count_well_dashed_exact,
    dashing_class,
    dashing_to_kasteleyn,
    default_ranking,
    dimer_from_color,
    graph_from_json,
    graph_to_json,
    kasteleyn_parities,
    two_colored_four_cycles,
    validate_chromotopology,
    vertex_change,
    well_dashed,
    well_dashed_class_ids,
    well_dashed_masks,
)
from adinkra_spectra.codes import BinaryCode
from adinkra_spectra.errors import ResourceBoundError


def square():
    return build_quotient(2, BinaryCode.trivial(2))


def validate_ranking(graph, ranking):
    """Issues with a ranking: parity per class, |dh| = 1 across edges."""
    issues = []
    side = graph.bipartition.tolist()
    for i, h in enumerate(ranking.values):
        if h & 1 != side[i]:
            issues.append(f"vertex {i}: rank {h} parity mismatches class {side[i]}")
    for u, v, c in graph.edges.tolist():
        if abs(ranking.values[u] - ranking.values[v]) != 1:
            issues.append(f"edge ({u},{v},{c}): rank step {ranking.values[u]}->{ranking.values[v]}")
    return issues


def a41():
    return build_quotient(4, BinaryCode.from_strings(4, ["1111"]))


def test_square_is_the_two_cube():
    g = square()
    assert g.vertex_count == 4
    assert g.edge_count == 4
    assert g.n_colors == 2
    assert validate_chromotopology(g).ok
    assert g.bipartition.tolist() == [0, 1, 1, 0]


def test_a41_shape():
    g = a41()
    assert g.vertex_count == 8
    assert g.edge_count == 16
    rep = validate_chromotopology(g)
    assert rep.ok and rep.connected
    assert not g.warnings


def test_quotient_vertex_and_edge_counts():
    # N * 2^(N-k-1) edges for even codes without weight-1/2 words
    for n, rows, k in [(5, ["11110"], 1), (6, ["111100"], 1), (6, ["111100", "001111"], 2)]:
        g = build_quotient(n, BinaryCode.from_strings(n, rows))
        assert g.vertex_count == 1 << (n - k)
        assert g.edge_count == n * (1 << (n - k - 1))
        assert validate_chromotopology(g).ok


def test_odd_code_breaks_bipartition():
    g = build_quotient(3, BinaryCode.from_strings(3, ["111"]))
    rep = validate_chromotopology(g)
    assert not rep.ok
    assert any("bipartite" in c.name and not c.passed for c in rep.checks)
    assert any("not even" in w for w in g.warnings)
    with pytest.raises(ValueError, match="bipartition inconsistency"):
        default_ranking(g)


def test_weight_one_word_creates_loop():
    g = build_quotient(3, BinaryCode.from_strings(3, ["100"]))
    assert any(w.startswith("loop") for w in g.warnings)
    rep = validate_chromotopology(g)
    assert any(c.name == "simple: no loops" and not c.passed for c in rep.checks)


def test_weight_two_word_creates_parallel_edges():
    g = build_quotient(4, BinaryCode.from_strings(4, ["1100"]))
    assert any(w.startswith("parallel") for w in g.warnings)
    rep = validate_chromotopology(g)
    assert any("parallel" in c.name and not c.passed for c in rep.checks)


def test_recolored_edge_fails_one_per_color():
    g = square()
    edges = g.edges.tolist()
    u, v, c = edges[0]
    edges[0] = (u, v, 3 - c)  # swap color 1 <-> 2
    bad = Chromotopology(2, g.vertices, edges, g.bipartition)
    rep = validate_chromotopology(bad)
    failed = [c for c in rep.checks if not c.passed]
    assert any("one edge of each color" in c.name for c in failed)
    assert any(c.witness for c in failed)


def test_open_two_colored_walk_is_reported():
    # an 8-cycle alternating colors 1 and 2: simple, 2-regular, bipartite and
    # one edge of each color per vertex, but its {1,2}-subgraph is no 4-cycle
    edges = tuple((i, i + 1, 1 + i % 2) for i in range(7)) + ((0, 7, 2),)
    g = Chromotopology(2, tuple(range(8)), edges, tuple(i % 2 for i in range(8)))
    rep = validate_chromotopology(g)
    assert [c.name for c in rep.failures()] == ["2-colored subgraphs are unions of 4-cycles"]
    assert rep.failures()[0].witness == (
        "colors (1,2) do not close a 4-cycle at vertex 0: walk (0, 1, 2, 3) returns to 4"
    )


def _flat(table):
    """The (V, N) slot arrays as flat tuples, indexed ``v * N + color - 1``."""
    return tuple(tuple(a.ravel().tolist()) for a in table)


def test_slot_table_layout():
    g = square()  # edges (0,2,1), (1,3,1), (0,1,2), (2,3,2)
    assert all(a.shape == (4, 2) for a in g.slot_table)
    other, edge, count = _flat(g.slot_table)
    assert other == (2, 1, 3, 0, 0, 3, 1, 2)
    assert edge == (0, 2, 1, 2, 0, 3, 1, 3)
    assert count == (1,) * 8
    assert [g.slot(v, c) for v in range(4) for c in (1, 2)] == list(zip(edge, other))


@pytest.mark.parametrize("edges,message", [
    (((0, 2, 1), (1, 4, 1)), "edge (1,4) references missing vertex"),
    (((0, 2, 1), (-1, 3, 1)), "edge (-1,3) references missing vertex"),
    (((0, 2, 1), (1, 3, 0)), "edge color 0 out of range 1..2"),
    (((0, 2, 3), (1, 3, 1)), "edge color 3 out of range 1..2"),
    # the first offending edge is named, whatever it breaks
    (((0, 2, 1), (1, 3, 9), (5, 0, 1)), "edge color 9 out of range 1..2"),
    (((0, 2, 1), (5, 0, 1), (1, 3, 9)), "edge (5,0) references missing vertex"),
])
def test_edges_out_of_range_are_refused(edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Chromotopology(2, (0, 1, 2, 3), edges, (0, 1, 1, 0))


@pytest.mark.parametrize("color", [0, 3, -1, 7])
def test_slot_refuses_colors_outside_1_to_n(color):
    # color 0 / N + 1 would index the previous / next vertex's slot
    g = square()
    for v in range(4):
        with pytest.raises(ValueError, match=f"^vertex {v} has 0 edges of color {color}$"):
            g.slot(v, color)


@pytest.mark.parametrize("pair,message", [
    ((1, 3), "vertex 2 has 0 edges of color 3"),
    ((3, 1), "vertex 0 has 0 edges of color 3"),
    ((0, 2), "vertex 0 has 0 edges of color 0"),
    ((2, 0), "vertex 1 has 0 edges of color 0"),
])
def test_walk_on_a_color_outside_1_to_n_raises_the_slot_error(pair, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        two_colored_four_cycles(square(), [pair])


def test_slot_reports_missing_and_repeated_colors():
    g = square()
    edges = g.edges[[0, 0, 2, 3]]  # (1,3,1) becomes a second (0,2,1)
    bad = Chromotopology(2, g.vertices, edges, g.bipartition)
    # the repeated slots keep the first edge; the empty ones hold -1
    assert _flat(bad.slot_table) == ((2, 1, -1, 0, 0, 3, -1, 2), (0, 2, -1, 2, 0, 3, -1, 3),
                              (2, 1, 0, 1, 2, 1, 0, 1))
    with pytest.raises(ValueError, match="^vertex 0 has 2 edges of color 1$"):
        bad.slot(0, 1)
    with pytest.raises(ValueError, match="^vertex 1 has 0 edges of color 1$"):
        bad.slot(1, 1)
    with pytest.raises(ValueError, match="^vertex 0 has 2 edges of color 1$"):
        two_colored_four_cycles(bad, [(1, 2)])
    with pytest.raises(ValueError, match="^vertex 1 has 0 edges of color 1$"):
        two_colored_four_cycles(bad, [(2, 1)])


def test_default_ranking_square():
    g = square()
    r = default_ranking(g)
    assert sorted(r.values) == [0, 1, 1, 2]
    assert not validate_ranking(g, r)


def test_default_ranking_a41_uses_coset_minimal_weights():
    g = a41()
    r = default_ranking(g)
    assert set(r.values) == {0, 1, 2}
    assert r.values[g.vertex_index[0]] == 0
    assert not validate_ranking(g, r)


def test_well_dashed_square():
    g = square()
    faces = two_colored_four_cycles(g)
    assert len(faces) == 1
    one = Dashing.from_mask(0b0001, 4)
    assert well_dashed(g, faces, one)
    assert not well_dashed(g, faces, Dashing.solid(4))


def test_well_dashed_count_square():
    g = square()
    assert count_well_dashed_exact(g) == 8  # 2^(2^2 - 1)


def test_well_dashed_count_three_cube():
    g = build_quotient(3, BinaryCode.trivial(3))
    assert count_well_dashed_exact(g) == 1 << (2 ** 3 - 1)


def test_well_dashed_count_four_cube_exact_only():
    # the listing gate counts masks, not dashings: the 4-cube has 2^32
    # dashings but only 2^15 well-dashed masks; only the 5-cube, with 2^31
    # masks, is left to the exact count
    g = build_quotient(4, BinaryCode.trivial(4))
    masks = well_dashed_masks(g)
    assert len(masks) == count_well_dashed_exact(g) == 1 << (2 ** 4 - 1)
    g = build_quotient(5, BinaryCode.trivial(5))
    with pytest.raises(ResourceBoundError, match="count_well_dashed_exact"):
        well_dashed_masks(g)
    assert count_well_dashed_exact(g) == 1 << (2 ** 5 - 1)


def test_vertex_change_is_involution():
    g = a41()
    d = Dashing.from_mask(0b1010_0110_0101_1001, 16)
    v = g.vertices[3]
    assert vertex_change(g, vertex_change(g, d, v), v) == d
    with pytest.raises(ValueError):
        vertex_change(g, d, "nope")


@pytest.mark.parametrize("bits", [3, 40])
def test_a_dashing_of_the_wrong_length_is_refused(bits):
    from adinkra_spectra.embedding import attach_faces

    g = a41()  # E = 16
    faces = attach_faces(g).faces
    d = Dashing.from_mask((1 << bits) - 1, bits)
    message = f"^dashing has {bits} bits, graph has 16 edges$"
    for call in (lambda: well_dashed(g, faces, d), lambda: vertex_change(g, d, g.vertices[0]),
                 lambda: dashing_class(g, d), lambda: dashing_to_kasteleyn(g, faces, d)):
        with pytest.raises(ValueError, match=message):
            call()


def test_vertex_change_on_solid_square():
    g = square()
    d = vertex_change(g, Dashing.solid(4), g.vertices[0])
    assert sum(d.bits) == 2


def test_vertex_change_preserves_well_dashed():
    g = a41()
    faces = two_colored_four_cycles(g)
    masks = well_dashed_masks(g)
    for m in masks[:64]:
        d = Dashing.from_mask(m, 16)
        for v in g.vertices:
            assert well_dashed(g, faces, vertex_change(g, d, v))


def test_dashing_class_respects_vertex_changes():
    g = a41()
    d = Dashing.from_mask(0b0110_1001_1100_0011, 16)
    for v in g.vertices:
        assert dashing_class(g, d) == dashing_class(g, vertex_change(g, d, v))


def test_dashing_class_congruence():
    g = square()
    masks = well_dashed_masks(g)
    for m1 in masks:
        for m2 in masks:
            d1, d2 = Dashing.from_mask(m1, 4), Dashing.from_mask(m2, 4)
            if dashing_class(g, d1) == dashing_class(g, d2):
                v = g.vertices[1]
                assert dashing_class(g, vertex_change(g, d1, v)) == dashing_class(
                    g, vertex_change(g, d2, v)
                )


def test_well_dashed_classes_square_and_a41():
    # spin-structure classes use the embedded faces: 2^(2g) of them
    from adinkra_spectra.embedding import attach_faces

    g = square()
    assert len(well_dashed_class_ids(g, attach_faces(g).faces)) == 1  # genus 0
    g = a41()
    assert len(well_dashed_class_ids(g, attach_faces(g).faces)) == 4  # genus 1
    # the strict all-pairs notion is finer on quotients: half the dashings
    assert len(well_dashed_class_ids(g)) == 2
    assert count_well_dashed_exact(g) == 256


def test_four_cube_counts_both_readings():
    from adinkra_spectra.embedding import attach_faces

    g = build_quotient(4, BinaryCode.trivial(4))
    s = attach_faces(g)
    # paper's cube count: all 2-colored 4-cycles
    assert count_well_dashed_exact(g) == 1 << (2 ** 4 - 1)
    # Kasteleyn/spin count over embedded faces: 2^(2g) * 2^(V-1)
    emb = count_well_dashed_exact(g, s.faces)
    assert emb == (1 << (2 * s.euler_genus)) * (1 << (g.vertex_count - 1))
    assert emb >> (g.vertex_count - 1) == 1 << (2 * s.euler_genus)


def test_dimer_from_color():
    g = square()
    m = dimer_from_color(g, 1)
    assert len(m) == 2
    g4 = build_quotient(4, BinaryCode.trivial(4))
    assert len(dimer_from_color(g4, 2)) == 8
    with pytest.raises(ValueError):
        dimer_from_color(g4, 5)


def test_color_pair_union_is_four_cycle_subgraph():
    g = a41()
    for i, j in [(1, 2), (1, 3), (2, 4)]:
        union = set(dimer_from_color(g, i)) | set(dimer_from_color(g, j))
        faces = two_colored_four_cycles(g, [(i, j)])
        covered = {e for face_edges in faces.edges.tolist() for e in face_edges}
        assert union == covered


def test_kasteleyn_square():
    from adinkra_spectra.embedding import attach_faces

    g = square()
    faces = attach_faces(g).faces
    for m in well_dashed_masks(g):
        _o, ok = dashing_to_kasteleyn(g, faces, Dashing.from_mask(m, 4))
        assert ok
    _o, ok = dashing_to_kasteleyn(g, faces, Dashing.solid(4))
    assert not ok


def test_kasteleyn_equivalence_exhaustive_square():
    from adinkra_spectra.embedding import attach_faces

    g = square()
    faces = attach_faces(g).faces
    cycles = two_colored_four_cycles(g)
    base, fmasks = kasteleyn_parities(g, faces)
    cmasks = [sum(1 << e for e in row) for row in cycles.edges.tolist()]
    for m in range(16):
        kast = all(b ^ ((m & fm).bit_count() & 1) for b, fm in zip(base, fmasks))
        wd = all((m & cm).bit_count() & 1 for cm in cmasks)
        assert kast == wd


def test_base_orientation_opposes_evenly():
    from adinkra_spectra.embedding import attach_faces

    for g in (square(), a41()):
        base, _masks = kasteleyn_parities(g, attach_faces(g).faces)
        assert set(base) == {0}


def test_graph_json_round_trip():
    g = a41()
    d = Dashing.from_mask(0b1111_0000_1010_0101, 16)
    obj = graph_to_json(g, d)
    g2, d2 = graph_from_json(obj)
    assert graph_to_json(g2, d2) == obj
    assert d2 == d
    assert np.array_equal(g2.edges, g.edges)
    assert np.array_equal(g2.bipartition, g.bipartition)


def test_graph_arrays_are_read_only_copies():
    edges = np.array([(0, 2, 1), (1, 3, 1), (0, 1, 2), (2, 3, 2)])
    side = np.array([0, 1, 1, 0])
    g = Chromotopology(2, (0, 1, 2, 3), edges, side)
    for array, given in ((g.edges, edges), (g.bipartition, side)):
        assert array.dtype == np.int32 and not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        assert array is not given and given.flags.writeable
    edges[0] = (1, 3, 1)  # the caller's array stays the caller's
    assert g.edges[0].tolist() == [0, 2, 1]
    assert not square().edges.flags.writeable


@pytest.mark.parametrize("edges,side,name", [
    (((0, 2, 1.0), (1, 3, 1)), (0, 1, 1, 0), "edges"),
    (np.array([(0, 2, 1), (1, 3, 1)], dtype=float), (0, 1, 1, 0), "edges"),
    (np.ones((2, 3), dtype=bool), (0, 1, 1, 0), "edges"),
    ((("0", "2", "1"),), (0, 1, 1, 0), "edges"),
    (((0, 2), (1, 3)), (0, 1, 1, 0), "edges"),
    (((0, 2, 1),), (0.0, 1.0, 1.0, 0.0), "bipartition"),
    (((0, 2, 1),), (False, True, True, False), "bipartition"),
    # numpy reads a sequence that mixes bools with ints as an int array
    (((0, 2, True),), (0, 1, 1, 0), "edges"),
    ([[0, 2, 1], [1, 3, np.True_]], (0, 1, 1, 0), "edges"),
])
def test_non_integer_edges_and_classes_are_refused(edges, side, name):
    with pytest.raises(ValueError, match=f"^{name} must be integers of shape"):
        Chromotopology(2, (0, 1, 2, 3), edges, side)


@pytest.mark.parametrize("side", [(0, 1, 2, 0), (0, -1, 1, 0), (0, 1, 1, 2 ** 32)])
def test_classes_other_than_0_and_1_are_refused(side):
    with pytest.raises(ValueError, match="^bipartition classes must be 0 or 1$"):
        Chromotopology(2, (0, 1, 2, 3), ((0, 2, 1),), side)


def test_graphs_compare_by_identity():
    g, h = square(), square()
    assert g == g and g != h
    assert np.array_equal(g.edges, h.edges) and np.array_equal(g.bipartition, h.bipartition)


@pytest.mark.parametrize("path,value,message", [
    (("edges", 0, "u"), 0.9, "edges[0].u must be an integer, got 0.9"),
    (("edges", 1, "v"), "1", "edges[1].v must be an integer, got '1'"),
    (("edges", 2, "color"), True, "edges[2].color must be an integer, got True"),
    (("edges", 3, "dash"), 1.0, "edges[3].dash must be an integer, got 1.0"),
    (("bipartition", 1), True, "bipartition[1] must be an integer, got True"),
    (("n",), 2.0, "n must be an integer, got 2.0"),
])
def test_graph_from_json_refuses_non_integers(path, value, message):
    obj = graph_to_json(square())
    *parents, key = path
    target = obj
    for part in parents:
        target = target[part]
    target[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        graph_from_json(obj)


QUOTIENTS = [(2, []), (4, ["1111"]), (5, ["11000"]), (4, ["1000"]), (6, ["111100"]),
             (8, ["11110000", "00111100"])]


@pytest.mark.parametrize("n,rows", QUOTIENTS)
def test_incident_edge_masks_match_a_loop_over_the_edges(n, rows):
    g = build_quotient(n, BinaryCode.from_strings(n, rows))
    masks = [0] * g.vertex_count
    for e, (u, v, _c) in enumerate(g.edges.tolist()):
        masks[u] |= 1 << e
        masks[v] |= 1 << e
    assert g.incident_edge_masks == tuple(masks)


@pytest.mark.parametrize("n,rows", [q for q in QUOTIENTS if q[1] != ["1000"]])
def test_default_ranking_matches_a_queue_search(n, rows):
    g = build_quotient(n, BinaryCode.from_strings(n, rows))
    adjacent = [[] for _ in g.vertices]
    for u, v, _c in g.edges.tolist():
        adjacent[u].append(v)
        adjacent[v].append(u)
    dist, queue = {0: 0}, [0]
    for x in queue:
        for y in adjacent[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    assert default_ranking(g).values == tuple(dist[v] for v in range(g.vertex_count))
