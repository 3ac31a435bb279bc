"""Surface faces from the 4-cycle walker against the former rotation-system
face tracer.

``_frozen_rotation_faces`` is a frozen copy of the dart-orbit tracer that
``attach_faces`` used before the vertex walk replaced it, with the
closed-surface check that followed it, on a frozen copy of the former
per-face record.  ``attach_faces`` must return the same faces in the same
order on seeded doubly-even quotients and on products (the three arrays of
``Faces`` compared exactly), and must refuse the same defective quotients.
"""

import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from adinkra_spectra.adinkra import (
    FERMION,
    Adinkra,
    Chromotopology,
    Dashing,
    Faces,
    build_quotient,
    default_ranking,
)
from adinkra_spectra.codes import BinaryCode
from adinkra_spectra.embedding import attach_faces, cartesian_product, fibered_product


@dataclass(frozen=True)
class FrozenFace:
    """The former per-face record."""

    vertices: tuple[int, int, int, int]
    edge_indices: tuple[int, int, int, int]
    colors: tuple[int, int]


def _same_faces(faces: Faces, expected: tuple[FrozenFace, ...]) -> bool:
    """All three arrays exactly, in order."""
    fields = ((faces.vertices, "vertices", 4), (faces.edges, "edge_indices", 4),
              (faces.colors, "colors", 2))
    return all(np.array_equal(array, np.array([getattr(f, name) for f in expected],
                                              dtype=np.intp).reshape(-1, width))
               for array, name, width in fields)


def _incidence(graph: Chromotopology) -> list[dict[int, list[tuple[int, int]]]]:
    """Per vertex: color -> list of (edge index, other endpoint)."""
    inc: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in graph.vertices]
    for e, (u, v, c) in enumerate(graph.edges.tolist()):
        inc[u].setdefault(c, []).append((e, v))
        if v != u:
            inc[v].setdefault(c, []).append((e, u))
    return inc


def _frozen_rotation_faces(graph: Chromotopology) -> tuple[FrozenFace, ...]:
    """Faces traced as dart orbits: colors run 1..N counterclockwise at
    bosons and reversed at fermions; each face starts on a dart of its
    family's first color, at the smaller tail.  Sorted, then every edge
    must lie on exactly two faces."""
    n = graph.n_colors
    incidence = _incidence(graph)
    side = graph.bipartition.tolist()

    def lookup(v: int, color: int) -> tuple[int, int]:
        slots = incidence[v].get(color, [])
        if len(slots) != 1:
            raise ValueError(f"vertex {v} has {len(slots)} edges of color {color}")
        return slots[0]

    def next_dart(tail: int, head: int, color: int) -> tuple[int, int, int]:
        if side[head] == 1:  # fermion: descend the rainbow
            c = color - 1 if color > 1 else n
        else:
            c = color + 1 if color < n else 1
        return head, lookup(head, c)[1], c

    darts_seen: set[tuple[int, int, int]] = set()
    faces: list[FrozenFace] = []
    for e, (u, v, c) in enumerate(graph.edges.tolist()):
        for tail, head in ((u, v), (v, u)):
            if (tail, head, c) in darts_seen:
                continue
            cycle = [(tail, head, c)]
            while True:
                nxt = next_dart(*cycle[-1])
                if nxt == cycle[0]:
                    break
                cycle.append(nxt)
                if len(cycle) > 4:
                    raise ValueError(f"rotation face through edge {e} does not close in 4 steps")
            if len(cycle) != 4:
                raise ValueError(f"rotation face through edge {e} has length {len(cycle)}")
            darts_seen.update(cycle)
            colors = {d[2] for d in cycle}
            low = min(colors) if colors != {1, n} or n == 2 else n
            starts = [i for i, d in enumerate(cycle) if d[2] == low]
            start = min(starts, key=lambda i: cycle[i][0])
            cycle = cycle[start:] + cycle[:start]
            faces.append(FrozenFace(
                tuple(d[0] for d in cycle),
                tuple(lookup(d[0], d[2])[0] for d in cycle),
                (cycle[0][2], cycle[1][2]),
            ))
    faces.sort(key=lambda f: (f.colors, f.vertices))
    counts = [0] * graph.edge_count
    for f in faces:
        for e in f.edge_indices:
            counts[e] += 1
    for e, c in enumerate(counts):
        if c != 2:
            raise ValueError(f"not a closed surface: edge {e} lies on {c} faces")
    return tuple(faces)


def _doubly_even_rows(rng: random.Random, n: int, k: int) -> tuple[str, ...] | None:
    """k independent rows spanning a doubly-even [n, k] code, or None."""
    weights = [w for w in (4, 8) if w <= n]
    for _ in range(400):
        rows = [sum(1 << p for p in rng.sample(range(n), rng.choice(weights)))
                for _ in range(k)]
        words = [0]
        for r in rows:
            words += [w ^ r for w in words]
        if len(set(words)) == 1 << k and all(w.bit_count() % 4 == 0 for w in words):
            return tuple(format(r, f"0{n}b") for r in rows)
    return None


def _seeded_quotients():
    """The N-cubes, N = 2..12, and up to 6 seeded codes per (N, k), k = 1..3
    (2 for N >= 10)."""
    cases = [(n, ()) for n in range(2, 13)]
    for n in range(4, 13):
        for k in (1, 2, 3):
            for seed in range(2 if n >= 10 else 6):
                rows = _doubly_even_rows(random.Random(f"{n}:{k}:{seed}"), n, k)
                if rows is not None and (n, rows) not in cases:
                    cases.append((n, rows))
    return cases


SEEDED = _seeded_quotients()


def _quotient(n: int, rows) -> Chromotopology:
    code = BinaryCode.from_strings(n, list(rows)) if rows else BinaryCode.trivial(n)
    return build_quotient(n, code)


def test_seeded_cases_cover_every_feasible_stratum():
    strata = {(n, len(rows)) for n, rows in SEEDED}
    assert {(n, 0) for n in range(2, 13)} <= strata
    assert {(n, 3) for n in range(7, 13)} <= strata
    assert len(SEEDED) >= 90


@pytest.mark.parametrize("n,rows", SEEDED, ids=lambda x: ",".join(x) if isinstance(x, tuple) else str(x))
def test_surface_faces_match_rotation_tracer(n, rows):
    graph = _quotient(n, rows)
    assert _same_faces(attach_faces(graph).faces, _frozen_rotation_faces(graph))


def _adinkra(graph: Chromotopology) -> Adinkra:
    return Adinkra(graph, default_ranking(graph), Dashing.solid(graph.edge_count))


FACTORS = {
    "1": (1, ()), "2": (2, ()), "3": (3, ()), "4/1111": (4, ("1111",)),
    "5/11110": (5, ("11110",)), "6/111100": (6, ("111100",)),
}
PAIRS = [("1", "2"), ("2", "2"), ("2", "3"), ("3", "3"), ("2", "4/1111"),
         ("4/1111", "4/1111"), ("3", "5/11110"), ("4/1111", "6/111100")]


@pytest.mark.parametrize("a,b", PAIRS)
def test_product_surface_faces_match_rotation_tracer(a, b):
    for graph in _product_graphs(a, b):
        expected = _frozen_rotation_faces(graph)
        assert expected
        assert _same_faces(attach_faces(graph).faces, expected)


def _product_graphs(a, b):
    g1, g2 = _quotient(*FACTORS[a]), _quotient(*FACTORS[b])
    return [cartesian_product(_adinkra(g1), _adinkra(g2)).graph] + [
        fibered_product(g1, g2, r)[0] for r in range(math.gcd(g1.n_colors, g2.n_colors))]


def test_surface_faces_come_sorted_by_colors_then_first_vertex():
    # attach_faces sorts only at N = 2: for N >= 3 the walk order is this order
    graphs = [_quotient(n, rows) for n, rows in SEEDED]
    graphs += [g for a, b in PAIRS for g in _product_graphs(a, b)]
    assert {g.n_colors for g in graphs} >= set(range(2, 13))
    for graph in graphs:
        faces = attach_faces(graph).faces
        order = np.lexsort((faces.vertices[:, 0], faces.colors[:, 1], faces.colors[:, 0]))
        assert np.array_equal(order, np.arange(len(faces))), graph.n_colors


DEFECTIVE = [(4, ("1100",)), (3, ("111",)), (4, ("1000",)), (5, ("11000",)),
             (6, ("111000",)), (4, ("1110",)), (6, ("110000", "001100")), (5, ("11100",))]


@pytest.mark.parametrize("n,rows", DEFECTIVE, ids=lambda x: ",".join(x) if isinstance(x, tuple) else str(x))
def test_defective_quotients_are_refused(n, rows):
    graph = _quotient(n, rows)
    with pytest.raises(ValueError):
        _frozen_rotation_faces(graph)
    with pytest.raises(ValueError):
        attach_faces(graph)


def test_surface_faces_start_at_the_smaller_fermion_on_the_family_color():
    graph = _quotient(4, ())
    faces = attach_faces(graph).faces
    assert len(faces) == 16
    for (v0, _v1, v2, _v3), (i, j) in zip(faces.vertices.tolist(), faces.colors.tolist()):
        assert graph.bipartition[v0] == graph.bipartition[v2] == FERMION
        assert v0 < v2
        assert j == i % 4 + 1
    # half of them do not start at their lowest vertex (a boson)
    assert sum(quad[0] != min(quad) for quad in faces.vertices.tolist()) == 8
