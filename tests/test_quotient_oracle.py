"""Quotient construction and validation against their former dict-based
versions.

``_frozen_build_quotient`` is a frozen copy of ``build_quotient`` from
before the flat slot table: the cosets come from a scan of all 2^N words,
the neighbouring coset is the minimum of ``x ^ c`` over the codewords, and
edges are deduplicated in a dict and sorted.  ``_frozen_validate`` is a
frozen copy of ``validate_chromotopology`` on a per-vertex dict of
per-color edge lists, walking 4-cycles through its own lookup and counting
components by its own search.  The library must return the same cosets,
vertices, edges in order, bipartition, warnings in order and validation
JSON on seeded codes (odd, even and doubly-even, with weight-1 and weight-2
rows), and the same witnesses and ``attach_faces`` errors on ingested
graphs with a missing or a repeated color.  Swapping the far ends of two
same-color edges keeps one edge per (vertex, color) slot but can break the
4-cycles, which the library checks on arrays before it walks: the
validation JSON must still equal the frozen walk's, witness included.
"""

import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinkra_spectra.adinkra import (
    FERMION,
    AxiomCheck,
    Chromotopology,
    ValidationReport,
    build_quotient,
    graph_from_json,
    graph_to_json,
    validate_chromotopology,
)
from adinkra_spectra.codes import (
    BinaryCode,
    DependentRowError,
    analyze_code,
    coordinate_mask,
    enumerate_cosets,
    format_word,
    weight,
)
from adinkra_spectra.embedding import attach_faces


def _frozen_cosets(code: BinaryCode) -> list[int]:
    seen = bytearray(1 << code.length)
    reps = []
    for v in range(1 << code.length):
        if not seen[v]:
            reps.append(v)  # ascending scan: v is the coset minimum
            for c in code.codewords():
                seen[v ^ c] = 1
    return reps


def _frozen_build_quotient(n: int, code: BinaryCode) -> Chromotopology:
    reps = _frozen_cosets(code)
    index = {r: i for i, r in enumerate(reps)}
    words = code.codewords()

    def rep_of(x: int) -> int:
        return min(x ^ c for c in words)

    warnings: list[str] = []
    report = analyze_code(code)
    if not report.is_even:
        warnings.append("code is not even: quotient is not bipartite")
    elif not report.is_doubly_even:
        warnings.append("code is even but not doubly-even: quotient admits no well-dashing")

    edge_set = {}
    for i, v in enumerate(reps):
        for color in range(1, n + 1):
            w = rep_of(v ^ coordinate_mask(n, color))
            j = index[w]
            if j == i:
                warnings.append(f"loop: color {color} fixes coset {format_word(v, n)}")
            key = (min(i, j), max(i, j), color)
            edge_set[key] = None
    edges = tuple(sorted(edge_set, key=lambda e: (e[2], e[0], e[1])))

    pair_counts = Counter((u, v) for u, v, _c in edges if u != v)
    for (u, v), cnt in sorted(pair_counts.items()):
        if cnt > 1:
            warnings.append(
                f"parallel edges: {cnt} colors join {format_word(reps[u], n)} "
                f"and {format_word(reps[v], n)}"
            )

    bipartition = tuple(weight(r) & 1 for r in reps)
    return Chromotopology(n, tuple(reps), edges, bipartition, tuple(warnings))


def _incidence(graph: Chromotopology) -> list[dict[int, list[tuple[int, int]]]]:
    """Per vertex: color -> list of (edge index, other endpoint)."""
    inc: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in graph.vertices]
    for e, (u, v, c) in enumerate(graph.edges.tolist()):
        inc[u].setdefault(c, []).append((e, v))
        if v != u:
            inc[v].setdefault(c, []).append((e, u))
    return inc


def _frozen_walk(graph, incidence, first, second, starts):
    def slot(v: int, color: int) -> tuple[int, int]:
        slots = incidence[v].get(color, [])
        if len(slots) != 1:
            raise ValueError(f"vertex {v} has {len(slots)} edges of color {color}")
        return slots[0]

    seen = [False] * graph.vertex_count
    cycles = []
    for v0 in starts:
        if seen[v0]:
            continue
        e0, v1 = slot(v0, first)
        e1, v2 = slot(v1, second)
        e2, v3 = slot(v2, first)
        e3, back = slot(v3, second)
        quad = (v0, v1, v2, v3)
        if back != v0 or len(set(quad)) != 4:
            raise ValueError(
                f"colors ({first},{second}) do not close a 4-cycle at vertex {v0}: "
                f"walk {quad} returns to {back}"
            )
        for x in quad:
            if seen[x]:
                raise ValueError(
                    f"colors ({first},{second}): vertex {x} lies on two cycles"
                )
            seen[x] = True
        cycles.append((quad, (e0, e1, e2, e3)))
    return cycles


def _frozen_validate(graph: Chromotopology) -> ValidationReport:
    incidence = _incidence(graph)
    edges, side = graph.edges.tolist(), graph.bipartition.tolist()
    checks = []

    loops = [(e, edges[e]) for e in range(graph.edge_count) if edges[e][0] == edges[e][1]]
    checks.append(AxiomCheck(
        "simple: no loops", not loops,
        "" if not loops else f"edge {loops[0][0]} loops at vertex {loops[0][1][0]}"))

    pair_counts = Counter((u, v) for u, v, _c in edges if u != v)
    parallel = [(p, c) for p, c in sorted(pair_counts.items()) if c > 1]
    checks.append(AxiomCheck(
        "simple: no parallel edges", not parallel,
        "" if not parallel else f"vertices {parallel[0][0]} joined by {parallel[0][1]} edges"))

    degrees = [0] * graph.vertex_count
    for u, v, _c in edges:
        degrees[u] += 1
        degrees[v] += 1
    bad_deg = [(i, d) for i, d in enumerate(degrees) if d != graph.n_colors]
    checks.append(AxiomCheck(
        f"{graph.n_colors}-regular", not bad_deg,
        "" if not bad_deg else f"vertex {bad_deg[0][0]} has degree {bad_deg[0][1]}"))

    cross = [(u, v) for u, v, _c in edges if side[u] == side[v]]
    checks.append(AxiomCheck(
        "bipartite: edges cross the bipartition", not cross,
        "" if not cross else f"edge {cross[0]} joins same-class vertices"))

    color_bad = None
    for v in range(graph.vertex_count):
        for color in range(1, graph.n_colors + 1):
            slots = incidence[v].get(color, [])
            if len(slots) != 1:
                color_bad = (v, color, len(slots))
                break
        if color_bad:
            break
    checks.append(AxiomCheck(
        "one edge of each color per vertex", color_bad is None,
        "" if color_bad is None else
        f"vertex {color_bad[0]} has {color_bad[2]} edges of color {color_bad[1]}"))

    cycle_witness = ""
    cycles_ok = True
    if color_bad is None and not loops:
        try:
            for first, second in combinations(range(1, graph.n_colors + 1), 2):
                _frozen_walk(graph, incidence, first, second, range(graph.vertex_count))
        except ValueError as exc:
            cycles_ok = False
            cycle_witness = str(exc)
    else:
        cycles_ok = False
        cycle_witness = "skipped: per-color incidence ill-defined"
    checks.append(AxiomCheck("2-colored subgraphs are unions of 4-cycles", cycles_ok, cycle_witness))

    return ValidationReport(tuple(checks), _frozen_components(graph, incidence) <= 1)


def _frozen_components(graph: Chromotopology, incidence) -> int:
    """Connected components by breadth-first search over the incidence."""
    seen = [False] * graph.vertex_count
    components = 0
    for start in range(graph.vertex_count):
        if seen[start]:
            continue
        components += 1
        seen[start] = True
        queue = [start]
        while queue:
            x = queue.pop()
            for slots in incidence[x].values():
                for _e, y in slots:
                    if not seen[y]:
                        seen[y] = True
                        queue.append(y)
    return components


def _frozen_face_walk_error(graph: Chromotopology) -> str | None:
    """The error ``attach_faces`` raised from its bipartition check and its
    face-family walks (N >= 3), or None when they all close."""
    n = graph.n_colors
    side = graph.bipartition.tolist()
    for e, (u, v, c) in enumerate(graph.edges.tolist()):
        if side[u] == side[v]:
            return f"edge {e} {(u, v, c)} does not cross the bipartition"
    incidence = _incidence(graph)
    fermions = [v for v in range(graph.vertex_count) if side[v] == FERMION]
    try:
        for i in range(1, n + 1):
            _frozen_walk(graph, incidence, i, i % n + 1, fermions)
    except ValueError as exc:
        return str(exc)
    return None


def _random_code(rng: random.Random, n: int, k: int) -> BinaryCode | None:
    """k independent rows of length n; each row's weight is drawn from
    1, 2, 4 and a uniform 1..n, so odd, even and doubly-even codes and
    loop and parallel-edge defects all occur."""
    for _ in range(100):
        rows = []
        for _ in range(k):
            w = min(n, rng.choice((1, 2, 4, rng.randint(1, n))))
            rows.append(sum(1 << p for p in rng.sample(range(n), w)))
        try:
            return BinaryCode(n, tuple(rows))
        except DependentRowError:
            continue
    return None


def _seeded_codes():
    """Trivial codes N = 1..12 and 4 seeded codes per (N, k), k = 1..3
    (2 seeds for N >= 11), plus fixed weight-1, weight-2 and odd codes."""
    cases = [BinaryCode.trivial(n) for n in range(1, 13)]
    for n in range(1, 13):
        for k in range(1, min(n, 3) + 1):
            for seed in range(2 if n >= 11 else 4):
                code = _random_code(random.Random(f"quotient:{n}:{k}:{seed}"), n, k)
                if code is not None and code not in cases:
                    cases.append(code)
    fixed = [(1, ["1"]), (3, ["100"]), (3, ["111"]), (4, ["1000", "0100"]),
             (4, ["1100"]), (4, ["1100", "0011"]), (5, ["11000", "00110"]),
             (6, ["100000", "011110"]), (8, ["10000000", "01000000", "00100000"])]
    for n, rows in fixed:
        code = BinaryCode.from_strings(n, rows)
        if code not in cases:
            cases.append(code)
    return cases


CODES = _seeded_codes()


def _code_id(code: BinaryCode) -> str:
    return f"{code.length}:" + ",".join(code.to_json()["generators"])


def test_seeded_codes_cover_the_defects():
    graphs = [build_quotient(c.length, c) for c in CODES]
    warned = [w.split(":")[0] for g in graphs for w in g.warnings]
    assert {"loop", "parallel edges", "code is not even",
            "code is even but not doubly-even"} <= set(warned)
    assert {(c.length, c.dimension) for c in CODES} >= {(n, 0) for n in range(1, 13)}
    assert {(c.length, c.dimension) for c in CODES} >= {(n, 3) for n in range(3, 13)}
    # several loop colors per vertex: vertex-major warning order matters
    assert any(len({w.split()[2] for w in g.warnings if w.startswith("loop")}) > 1
               for g in graphs)


@pytest.mark.parametrize("code", CODES, ids=_code_id)
def test_quotient_and_validation_match_frozen(code):
    graph = build_quotient(code.length, code)
    expected = _frozen_build_quotient(code.length, code)
    assert enumerate_cosets(code) == list(expected.vertices)
    assert graph.vertices == expected.vertices
    assert np.array_equal(graph.edges, expected.edges)
    assert np.array_equal(graph.bipartition, expected.bipartition)
    assert graph.warnings == expected.warnings
    assert validate_chromotopology(graph).to_json() == _frozen_validate(expected).to_json()


def _ingested(mutate) -> Chromotopology:
    obj = graph_to_json(build_quotient(5, BinaryCode.from_strings(5, ["11110"])))
    mutate(obj["edges"])
    return graph_from_json(obj)[0]


def _drop_edge(edges):
    assert (edges[0]["u"], edges[0]["color"]) == (0, 1)
    del edges[0]


def _repeat_color(edges):
    # a second color-1 edge at vertex 0, to its color-2 neighbour
    w = next(e["v"] for e in edges if e["u"] == 0 and e["color"] == 2)
    edges.append({"u": 0, "v": w, "color": 1, "dash": 0})


@pytest.mark.parametrize("mutate,witness", [
    (_drop_edge, "vertex 0 has 0 edges of color 1"),
    (_repeat_color, "vertex 0 has 2 edges of color 1"),
])
def test_ingested_color_defects_match_frozen(mutate, witness):
    graph = _ingested(mutate)
    report = validate_chromotopology(graph)
    assert report.to_json() == _frozen_validate(graph).to_json()
    check = next(c for c in report.checks if c.name == "one edge of each color per vertex")
    assert not check.passed and check.witness == witness
    expected = _frozen_face_walk_error(graph)
    assert expected is not None
    with pytest.raises(ValueError) as err:
        attach_faces(graph)
    assert str(err.value) == expected


def _swap_far_ends(obj: dict, first: int, second: int) -> None:
    """Swap the v ends of edges ``first`` and ``second`` (same color)."""
    a, b = obj["edges"][first], obj["edges"][second]
    assert a["color"] == b["color"]
    a["v"], b["v"] = b["v"], a["v"]


def _swapped(n: int, rows: list[str], swaps) -> Chromotopology:
    code = BinaryCode.from_strings(n, rows) if rows else BinaryCode.trivial(n)
    obj = graph_to_json(build_quotient(n, code))
    for first, second in swaps:
        _swap_far_ends(obj, first, second)
    return graph_from_json(obj)[0]


def _passed(report: ValidationReport) -> dict[str, bool]:
    return {c.name: c.passed for c in report.checks}


# edges 0..V/2-1 have color 1, from their lower end
@pytest.mark.parametrize("n,rows,swaps", [
    (4, [], [(0, 1)]),
    (4, [], [(0, 3)]),
    (5, ["11110"], [(0, 1)]),
    (5, ["11110"], [(2, 5), (0, 7)]),
    (6, ["111100"], [(3, 4)]),
    (8, ["11110000", "00111100"], [(0, 9)]),
])
def test_swapped_far_ends_match_frozen(n, rows, swaps):
    graph = _swapped(n, rows, swaps)
    report = validate_chromotopology(graph)
    assert report.to_json() == _frozen_validate(graph).to_json()
    passed = _passed(report)
    assert passed["one edge of each color per vertex"] and passed["simple: no loops"]
    assert not passed["2-colored subgraphs are unions of 4-cycles"]


def test_swaps_reach_the_array_check():
    # a swap of two color-1 edges whose lower ends lie on one side keeps the
    # graph simple, bipartite and one edge per slot: only the 4-cycle check
    # can fail, and it does
    obj = graph_to_json(build_quotient(5, BinaryCode.from_strings(5, ["11110"])))
    side = obj["bipartition"]
    first, second = next(
        (a, b) for a, b in combinations(range(len(obj["edges"])), 2)
        if obj["edges"][a]["color"] == obj["edges"][b]["color"] == 1
        and side[obj["edges"][a]["u"]] == side[obj["edges"][b]["u"]])
    _swap_far_ends(obj, first, second)
    graph = graph_from_json(obj)[0]
    report = validate_chromotopology(graph)
    assert report.to_json() == _frozen_validate(graph).to_json()
    assert [c.name for c in report.failures()] == ["2-colored subgraphs are unions of 4-cycles"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_swaps_match_frozen(data):
    n = data.draw(st.integers(4, 7), label="n")
    head, tail = "1111" + "0" * (n - 4), "0" * (n - 4) + "1111"
    rows = data.draw(st.sampled_from([[], [head], [head, tail]] if n > 4 else [[], [head]]),
                     label="rows")
    obj = graph_to_json(build_quotient(n, BinaryCode.from_strings(n, rows)))
    edges = obj["edges"]
    for _ in range(data.draw(st.integers(1, 3), label="swaps")):
        color = data.draw(st.integers(1, n), label="color")
        same = [e for e, edge in enumerate(edges) if edge["color"] == color]
        first, second = data.draw(st.lists(st.sampled_from(same), min_size=2, max_size=2,
                                           unique=True), label="edges")
        _swap_far_ends(obj, first, second)
    graph = graph_from_json(obj)[0]
    assert validate_chromotopology(graph).to_json() == _frozen_validate(graph).to_json()


def _disjoint_union(*graphs: Chromotopology) -> Chromotopology:
    vertices, edges, side, offset = [], [], [], 0
    for g in graphs:
        vertices += [(offset, label) for label in g.vertices]
        edges += [(u + offset, v + offset, c) for u, v, c in g.edges.tolist()]
        side += g.bipartition.tolist()
        offset += g.vertex_count
    return Chromotopology(graphs[0].n_colors, tuple(vertices), tuple(edges), tuple(side))


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_component_count_matches_frozen(parts):
    code = BinaryCode.from_strings(5, ["11110"])
    graph = _disjoint_union(*[build_quotient(5, code)] * parts)
    assert graph.component_count == _frozen_components(graph, _incidence(graph)) == parts
    # reversed edges meet the union-find in another order
    flipped = Chromotopology(5, graph.vertices, graph.edges[::-1, [1, 0, 2]], graph.bipartition)
    assert flipped.component_count == parts
    isolated = Chromotopology(5, graph.vertices + ("x",), graph.edges,
                              np.append(graph.bipartition, 0))
    assert isolated.component_count == parts + 1


def test_parallel_edge_keys_do_not_wrap():
    # with 70000 vertices, 0 * V + 47296 and 61357 * V + 24592 agree modulo
    # 2^32: two distinct vertex pairs that 32-bit keys would call parallel
    vcount = 70000
    assert (0 * vcount + 47296) % 2**32 == (61357 * vcount + 24592) % 2**32
    graph = Chromotopology(2, tuple(range(vcount)), ((0, 47296, 1), (61357, 24592, 2)),
                           tuple(v % 2 for v in range(vcount)))
    report = validate_chromotopology(graph)
    assert report.to_json() == _frozen_validate(graph).to_json()
    assert next(c for c in report.checks if c.name == "simple: no parallel edges").passed
