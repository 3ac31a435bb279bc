"""The surface layer on slot arrays against the per-edge loops it replaced.

Frozen copies of the former code:

- ``_frozen_slot_table``: the flat (other endpoint, edge index, count)
  tuples, filled by a backwards scan of the edges so that the first edge
  wins a repeated slot;
- ``_frozen_walk``: one 2-colored walk per start on those tuples, skipping
  the starts of cycles already walked;
- ``_frozen_component_count``: the union-find with path halving;
- ``_frozen_attach``: the bipartition check, the face walks from the
  fermions, the sort, ``edge_sides`` as per-edge tuples and the
  closed-surface check;
- ``_frozen_frame_orientation`` and ``_frozen_cycle_orientation``: the
  breadth-first frame transport and the same-label cycle walk, on dicts;
- ``_frozen_validate_origami`` and ``_frozen_monodromy``: per-vertex
  counters, a breadth-first search, and the genus from tuple permutations;
- ``FrozenFace`` (with its ``edge_mask``), ``_frozen_check_faces``,
  ``_frozen_well_dashed``, ``_frozen_heads``, ``_frozen_kasteleyn_parities``,
  ``_frozen_dashing_to_kasteleyn``, ``_frozen_count`` and the ungated
  ``_frozen_class_ids``: the per-face record and the per-face loops that
  read it, before faces became the index arrays of ``adinkra.Faces``.

The library must give the same slot tables, cycles, faces, edge sides, dual
origamis, reports, monodromies and genera on random doubly-even quotients
(N from 4 to 12) and on products, and the same error messages, compared
whole, on defective graphs: missing or repeated slots, walks that do not
close, edges inside one side of the bipartition, duplicated x-edges and
disconnected origamis.  An origami with no squares is left out of the
comparison: the former report passed it, and it is now refused
(``tests/test_origami.py``).  Faces are compared as the three arrays of
``Faces``, exactly and in order, and dual origamis and monodromies as
their arrays against the frozen (tail, head, label) triples and tuple
permutations, also exactly and in order.  The dashing and Kasteleyn
checks and the counts are compared on random and well-dashed dashings
over both face sets (N from 4 to 10), and on defective graphs, with the
faces of the graph they came from.
"""

import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adinkra_spectra.adinkra import (
    FERMION,
    Adinkra,
    Chromotopology,
    Dashing,
    Faces,
    _heads,
    _walk_four_cycles,
    build_quotient,
    count_well_dashed_exact,
    dashing_to_kasteleyn,
    default_ranking,
    graph_from_json,
    graph_to_json,
    kasteleyn_parities,
    two_colored_four_cycles,
    well_dashed,
    well_dashed_class_ids,
)
from adinkra_spectra.codes import BinaryCode
from adinkra_spectra.embedding import (
    attach_faces,
    cartesian_product,
    dual_origami_graph,
    fibered_product,
)
from adinkra_spectra.gf2 import GF2System
from adinkra_spectra.origami import (
    Monodromy,
    OrigamiGraph,
    OrigamiReport,
    commutator,
    genus_from_monodromy,
    monodromy,
    origami_from_monodromy,
    validate_origami_graph,
)

from test_origami import assert_perm, assert_same_graph, edge_triples, origami_graph
from test_perms_oracle import compose, cycle_lengths, inverse

# -- frozen copies -------------------------------------------------------------


@dataclass(frozen=True)
class FrozenFace:
    """The former per-face record."""

    vertices: tuple[int, int, int, int]
    edge_indices: tuple[int, int, int, int]
    colors: tuple[int, int]

    @property
    def edge_mask(self) -> int:
        m = 0
        for e in self.edge_indices:
            m |= 1 << e
        return m


def _frozen_slot_table(graph: Chromotopology):
    n = graph.n_colors
    size = graph.vertex_count * n
    other, edge, count = [-1] * size, [-1] * size, [0] * size
    edges = graph.edges.tolist()
    # backwards: the first edge is written last
    for e, (u, v, c) in zip(range(len(edges) - 1, -1, -1), reversed(edges)):
        i = u * n + c - 1
        j = v * n + c - 1
        other[i] = v
        edge[i] = e
        count[i] += 1
        if j != i:
            other[j] = u
            edge[j] = e
            count[j] += 1
    return tuple(other), tuple(edge), tuple(count)


def _frozen_slot(graph, table, v, color):
    other, edge, count = table
    i = v * graph.n_colors + color - 1
    k = count[i] if 1 <= color <= graph.n_colors else 0
    if k != 1:
        raise ValueError(f"vertex {v} has {k} edges of color {color}")
    return edge[i], other[i]


def _frozen_walk(graph, table, first, second, starts):
    n = graph.n_colors
    if not (1 <= first <= n and 1 <= second <= n):
        for v0 in starts:
            _frozen_slot(graph, table, _frozen_slot(graph, table, v0, first)[1], second)
        return []
    other, edge, count = table
    a, b = first - 1, second - 1
    seen = [False] * graph.vertex_count
    cycles = []
    for v0 in starts:
        if seen[v0]:
            continue
        i0 = v0 * n + a
        v1 = other[i0]
        i1 = v1 * n + b
        v2 = other[i1]
        i2 = v2 * n + a
        v3 = other[i2]
        i3 = v3 * n + b
        back = other[i3]
        if count[i0] != 1 or count[i1] != 1 or count[i2] != 1 or count[i3] != 1:
            for v, color in ((v0, first), (v1, second), (v2, first), (v3, second)):
                _frozen_slot(graph, table, v, color)
        quad = (v0, v1, v2, v3)
        if (back != v0 or v0 == v1 or v1 == v2 or v2 == v3 or v3 == v0
                or v0 == v2 or v1 == v3):
            raise ValueError(
                f"colors ({first},{second}) do not close a 4-cycle at vertex {v0}: "
                f"walk {quad} returns to {back}"
            )
        seen[v0] = seen[v1] = seen[v2] = seen[v3] = True
        cycles.append((quad, (edge[i0], edge[i1], edge[i2], edge[i3])))
    return cycles


def _frozen_component_count(graph: Chromotopology) -> int:
    parent = list(range(graph.vertex_count))
    for u, v, _c in graph.edges.tolist():
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[u] = v
    return sum(p == i for i, p in enumerate(parent))


def _frozen_edge_sides(graph, faces):
    sides = [()] * graph.edge_count
    for fi, f in enumerate(faces):
        for j, e in enumerate(f.edge_indices):
            sides[e] += (fi, j)
    return tuple(sides)


def _frozen_attach(graph: Chromotopology):
    """(faces, edge sides) of the face-attached surface, N >= 2."""
    n = graph.n_colors
    table = _frozen_slot_table(graph)
    side = graph.bipartition.tolist()
    for e, (u, v, c) in enumerate(graph.edges.tolist()):
        if side[u] == side[v]:
            raise ValueError(f"edge {e} {(u, v, c)} does not cross the bipartition")
    fermions = [v for v in range(graph.vertex_count) if side[v] == FERMION]
    walks = [((i, i % n + 1), fermions) for i in range(1, n + 1)]
    if n == 2:
        bosons = [v for v in range(graph.vertex_count) if side[v] != FERMION]
        walks = [((1, 2), fermions), ((1, 2), bosons)]
    faces = sorted(
        (FrozenFace(quad, edges, pair)
         for pair, starts in walks
         for quad, edges in _frozen_walk(graph, table, *pair, starts)),
        key=lambda f: (f.colors, f.vertices),
    )
    components = _frozen_component_count(graph)
    chi = graph.vertex_count - graph.edge_count + len(faces)
    genus2 = 2 * components - chi
    sides = _frozen_edge_sides(graph, faces)
    for e, s in enumerate(sides):
        if len(s) != 4:
            raise ValueError(
                f"not a closed surface: edge {e} {tuple(graph.edges[e].tolist())} "
                f"lies on {len(s) // 2} faces"
            )
    if genus2 % 2:
        raise ValueError(f"odd 2-2g count: chi={chi}, components={components}")
    return tuple(faces), sides


def _frozen_frame_orientation(faces, sides):
    frame: dict[int, int] = {}
    for f0 in range(len(faces)):
        if f0 in frame:
            continue
        start = min(j for j in range(4) if faces[f0].colors[j % 2] % 2 == 1)
        frame[f0] = start
        queue = deque([f0])
        while queue:
            fi = queue.popleft()
            r = frame[fi]
            for j, e in enumerate(faces[fi].edge_indices):
                fa, ja, fb, jb = sides[e]
                other, jo = ((fb, jb) if fa == fi and ja == j else (fa, ja))
                want = (jo - ((j - r) + 2)) % 4
                if other in frame:
                    if frame[other] != want:
                        return None
                else:
                    frame[other] = want
                    queue.append(other)
    directed: dict[int, tuple[int, int]] = {}
    for fi, f in enumerate(faces):
        r = frame[fi]
        for e in (f.edge_indices[r], f.edge_indices[(r + 1) % 4]):
            fa, _ja, fb, _jb = sides[e]
            other = fb if fa == fi else fa
            directed[e] = (fi, other)
    return directed


def _frozen_cycle_orientation(graph, sides):
    directed: dict[int, tuple[int, int]] = {}
    for parity in (1, 0):
        ends: dict[int, list[tuple[int, int]]] = {}
        members = [e for e, c in enumerate(graph.edges[:, 2].tolist()) if c % 2 == parity]
        for e in members:
            fa, _ja, fb, _jb = sides[e]
            ends.setdefault(fa, []).append((e, fb))
            ends.setdefault(fb, []).append((e, fa))
        for v, slots in ends.items():
            if len(slots) != 2:
                raise ValueError(f"face {v} has {len(slots)} same-label dual ends")
        for e0 in members:
            if e0 in directed:
                continue
            fa, _ja, fb, _jb = sides[e0]
            tail, e = min(fa, fb), e0
            while e not in directed:
                a, _ja, b, _jb = sides[e]
                head = b if tail == a else a
                directed[e] = (tail, head)
                e = next(s for s in ends[head] if s[0] != e)[0]
                tail = head
    return directed


def _frozen_dual(graph, faces, sides):
    directed = _frozen_frame_orientation(faces, sides)
    if directed is None:
        directed = _frozen_cycle_orientation(graph, sides)
    edges = tuple((*directed[e], "x" if c % 2 else "y")
                  for e, c in enumerate(graph.edges[:, 2].tolist()))
    return len(faces), edges


def _frozen_validate_origami(d, edges) -> OrigamiReport:
    issues = []
    out_x = [0] * d
    out_y = [0] * d
    in_x = [0] * d
    in_y = [0] * d
    for u, v, lab in edges:
        if lab == "x":
            out_x[u] += 1
            in_x[v] += 1
        else:
            out_y[u] += 1
            in_y[v] += 1
    for v in range(d):
        for name, cnt in (("outgoing x", out_x[v]), ("outgoing y", out_y[v]),
                          ("incoming x", in_x[v]), ("incoming y", in_y[v])):
            if cnt != 1:
                issues.append(f"vertex {v}: {cnt} {name} edges (expected 1)")
    adj: list[list[int]] = [[] for _ in range(d)]
    for u, v, _lab in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0} if d else set()
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    connected = len(seen) == d
    if not connected:
        issues.append(f"graph is disconnected: reached {len(seen)} of {d} vertices")
    return OrigamiReport(not issues, tuple(issues), connected)


def _frozen_commutator(sx, sy):
    return compose(compose(sx, sy), compose(inverse(sx), inverse(sy)))


def _frozen_genus(sx, sy) -> int:
    d = len(sx)
    v = len(cycle_lengths(_frozen_commutator(sx, sy)))
    if (d - v) % 2:
        raise ValueError(f"non-integral genus: d={d}, commutator cycles={v}")
    return 1 + (d - v) // 2


def _frozen_monodromy(d, edges):
    """((sigma_x, sigma_y) as tuples, genus)."""
    report = _frozen_validate_origami(d, edges)
    if not report.ok:
        raise ValueError("invalid origami graph: " + "; ".join(report.issues))
    sx = [0] * d
    sy = [0] * d
    for u, v, lab in edges:
        if lab == "x":
            sx[u] = v
        else:
            sy[u] = v
    return (tuple(sx), tuple(sy)), _frozen_genus(sx, sy)


def _frozen_check_faces(graph, faces):
    for f in faces:
        for e in f.edge_indices:
            if not 0 <= e < graph.edge_count:
                raise ValueError(f"face references missing edge {e}")


def _frozen_well_dashed(graph, faces, dashing):
    _frozen_check_faces(graph, faces)
    mask = dashing.mask
    return all((mask & f.edge_mask).bit_count() & 1 for f in faces)


def _frozen_heads(graph, dashing):
    heads = []
    side = graph.bipartition.tolist()
    for e, (u, v, _c) in enumerate(graph.edges.tolist()):
        bu, bv = side[u], side[v]
        if bu == bv:
            raise ValueError(f"edge ({u},{v}) does not cross the bipartition")
        head = v if bv == FERMION else u
        if dashing.bits[e]:
            head = u if head == v else v
        heads.append(head)
    return tuple(heads)


def _frozen_kasteleyn_parities(graph, faces):
    _frozen_check_faces(graph, faces)
    base = []
    masks = []
    heads_solid = _frozen_heads(graph, Dashing.solid(graph.edge_count))
    for f in faces:
        opp = 0
        for j in range(4):
            tail = f.vertices[j]
            e = f.edge_indices[j]
            if heads_solid[e] == tail:
                opp ^= 1
        base.append(opp)
        masks.append(f.edge_mask)
    return tuple(base), tuple(masks)


def _frozen_dashing_to_kasteleyn(graph, faces, dashing):
    if not faces:
        raise ValueError("no faces supplied")
    _frozen_check_faces(graph, faces)
    heads = _frozen_heads(graph, dashing)
    ok = True
    for f in faces:
        opp = 0
        for j in range(4):
            if heads[f.edge_indices[j]] == f.vertices[j]:
                opp ^= 1
        if not opp:
            ok = False
            break
    return heads, ok


def _frozen_count(graph, faces):
    system = GF2System((f.edge_mask for f in faces), rhs=1)
    return 1 << (graph.edge_count - system.rank) if system.consistent else 0


# -- comparisons -----------------------------------------------------------------


def _outcome(call, *args):
    """The value of ``call(*args)``, or the message of its ValueError."""
    try:
        return call(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _flat(table):
    return tuple(tuple(a.ravel().tolist()) for a in table)


def _library_walk(graph, pairs, starts):
    pair, quads, edges = _walk_four_cycles(graph, pairs, np.array(starts, dtype=np.intp))
    return [(pairs[p], tuple(q), tuple(e))
            for p, q, e in zip(pair.tolist(), quads.tolist(), edges.tolist())]


def _frozen_walks(graph, pairs, starts):
    table = _frozen_slot_table(graph)
    return [((first, second), quad, edges)
            for first, second in pairs
            for quad, edges in _frozen_walk(graph, table, first, second, starts)]


def _strict_faces(graph):
    table = _frozen_slot_table(graph)
    return tuple(FrozenFace(quad, edges, pair)
                 for pair in combinations(range(1, graph.n_colors + 1), 2)
                 for quad, edges in _frozen_walk(graph, table, *pair, range(graph.vertex_count)))


def _same_faces(got, expected) -> bool:
    """A ``Faces`` record against a tuple of ``FrozenFace``: all three
    arrays exactly, in order.  Error messages compare as strings."""
    if isinstance(got, str) or isinstance(expected, str):
        return got == expected
    fields = ((got.vertices, "vertices", 4), (got.edges, "edge_indices", 4),
              (got.colors, "colors", 2))
    return all(np.array_equal(array, np.array([getattr(f, name) for f in expected],
                                              dtype=np.intp).reshape(-1, width))
               for array, name, width in fields)


def _as_frozen(faces: Faces) -> tuple[FrozenFace, ...]:
    return tuple(FrozenFace(tuple(v), tuple(e), tuple(c)) for v, e, c in zip(
        faces.vertices.tolist(), faces.edges.tolist(), faces.colors.tolist()))


def _library_attach(graph):
    surface = attach_faces(graph)
    sides = tuple(tuple(row) for row in surface.edge_sides.tolist())
    return surface.faces, sides


def _library_dual(graph):
    return dual_origami_graph(attach_faces(graph))


def _frozen_full_dual(graph):
    return _frozen_dual(graph, *_frozen_attach(graph))


def check_graph(graph: Chromotopology) -> None:
    """Every array form on ``graph`` against its frozen loop."""
    assert _flat(graph.slot_table) == _frozen_slot_table(graph)
    assert graph.component_count == _frozen_component_count(graph)
    assert _same_faces(_outcome(two_colored_four_cycles, graph), _outcome(_strict_faces, graph))
    if graph.n_colors >= 2:
        got, expected = _outcome(_library_attach, graph), _outcome(_frozen_attach, graph)
        if isinstance(got, str) or isinstance(expected, str):
            assert got == expected
        else:
            assert _same_faces(got[0], expected[0])
            assert got[1] == expected[1]
    if graph.n_colors > 2 and graph.n_colors % 2 == 0:
        dual, expected = _outcome(_library_dual, graph), _outcome(_frozen_full_dual, graph)
        if isinstance(dual, str) or isinstance(expected, str):
            assert dual == expected
        else:
            assert_same_graph(dual, *expected)
            check_origami(dual)


def check_face_consumers(graph: Chromotopology, faces: Faces, dashings) -> None:
    """The array consumers of ``faces`` against the per-face loops, on the
    same faces; error messages compared whole."""
    frozen = _as_frozen(faces)
    assert _outcome(kasteleyn_parities, graph, faces) == \
        _outcome(_frozen_kasteleyn_parities, graph, frozen)
    # the count now checks its faces like the other consumers
    expected = _outcome(_frozen_check_faces, graph, frozen) or _outcome(_frozen_count, graph, frozen)
    assert _outcome(count_well_dashed_exact, graph, faces) == expected
    for dashing in dashings:
        assert _outcome(well_dashed, graph, faces, dashing) == \
            _outcome(_frozen_well_dashed, graph, frozen, dashing)
        got = _outcome(dashing_to_kasteleyn, graph, faces, dashing)
        if not isinstance(got, str):
            got = got[0].heads, got[1]
        assert got == _outcome(_frozen_dashing_to_kasteleyn, graph, frozen, dashing)
        heads = _outcome(_heads, graph, dashing)
        if not isinstance(heads, str):
            heads = tuple(heads.tolist())
        assert heads == _outcome(_frozen_heads, graph, dashing)


def check_origami(graph: OrigamiGraph) -> None:
    """The library on ``graph`` against the frozen loops on its triples;
    permutations compared as intp arrays, in order."""
    edges = edge_triples(graph)
    assert validate_origami_graph(graph) == _frozen_validate_origami(graph.d, edges)
    got, expected = _outcome(monodromy, graph), _outcome(_frozen_monodromy, graph.d, edges)
    if isinstance(got, str) or isinstance(expected, str):
        assert got == expected
        return
    (m, genus), ((sx, sy), frozen_genus) = got, expected
    assert_perm(m.sigma_x, sx)
    assert_perm(m.sigma_y, sy)
    assert genus == frozen_genus
    c = commutator(m)
    assert c.dtype == np.intp and c.tolist() == list(_frozen_commutator(sx, sy))
    assert genus_from_monodromy(m) == _frozen_genus(sx, sy)


# -- inputs ----------------------------------------------------------------------


def _doubly_even_rows(rng, n: int, k: int) -> list[int] | None:
    """k independent rows spanning a doubly-even [n, k] code, or None."""
    weights = [w for w in (4, 8) if w <= n]
    for _ in range(400):
        rows = [sum(1 << p for p in rng.sample(range(n), rng.choice(weights)))
                for _ in range(k)]
        words = [0]
        for r in rows:
            words += [w ^ r for w in words]
        if len(set(words)) == 1 << k and all(w.bit_count() % 4 == 0 for w in words):
            return rows
    return None


@st.composite
def doubly_even_quotients(draw, max_vertex_bits=10):
    """A quotient of the N-cube, N from 4 to 12, by a doubly-even code of
    dimension at most 3, with at most 2^max_vertex_bits vertices."""
    n = draw(st.integers(4, min(12, max_vertex_bits + 3)), label="n")
    k = draw(st.integers(max(0, n - max_vertex_bits), 3), label="k")
    rows = _doubly_even_rows(random.Random(draw(st.integers(0, 2**32), label="seed")), n, k)
    assume(rows is not None)
    return build_quotient(n, BinaryCode(n, tuple(rows)))


@settings(max_examples=25, deadline=None)
@given(doubly_even_quotients(max_vertex_bits=9))
def test_random_doubly_even_quotients_match_frozen(graph):
    check_graph(graph)


def test_fixed_quotients_cover_both_orientation_paths():
    # 111100000000,000011110000 transports the square frame; 1111000000
    # (N = 2 mod 4) takes the cycle orientation
    for n, rows in ((12, ["111100000000", "000011110000"]), (10, ["1111000000"]),
                    (8, ["11110000"]), (8, ["11000011", "00111100"])):
        graph = build_quotient(n, BinaryCode.from_strings(n, rows))
        surface = attach_faces(graph)
        check_graph(graph)
        assert (_frozen_frame_orientation(*_frozen_attach(graph)) is None) == (n % 4 != 0)
        assert dual_origami_graph(surface).d == surface.face_count


def _adinkra(graph: Chromotopology) -> Adinkra:
    return Adinkra(graph, default_ranking(graph), Dashing.solid(graph.edge_count))


FACTORS = {
    "2": (2, ()), "3": (3, ()), "4/1111": (4, ("1111",)), "4": (4, ()),
    "5/11110": (5, ("11110",)), "6/111100": (6, ("111100",)),
}


def _factor(name: str) -> Chromotopology:
    n, rows = FACTORS[name]
    code = BinaryCode.from_strings(n, list(rows)) if rows else BinaryCode.trivial(n)
    return build_quotient(n, code)


@pytest.mark.parametrize("a,b", [("2", "2"), ("2", "4/1111"), ("4/1111", "4/1111"),
                                 ("3", "5/11110"), ("2", "6/111100"), ("4", "4/1111")])
def test_products_match_frozen(a, b):
    g1, g2 = _factor(a), _factor(b)
    check_graph(cartesian_product(_adinkra(g1), _adinkra(g2)).graph)
    for residue in range(math.gcd(g1.n_colors, g2.n_colors)):
        check_graph(fibered_product(g1, g2, residue)[0])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_face_consumers_match_frozen(data):
    graph = data.draw(doubly_even_quotients(max_vertex_bits=7), label="graph")  # N 4..10
    e = graph.edge_count
    for faces in (two_colored_four_cycles(graph), attach_faces(graph).faces):
        frozen = _as_frozen(faces)
        dashings = [Dashing.solid(e)] + [
            Dashing.from_mask(data.draw(st.integers(0, (1 << e) - 1), label="dashing"), e)
            for _ in range(3)]
        # and one well-dashed dashing, from the frozen masks' system
        particular, nullspace = GF2System((f.edge_mask for f in frozen), rhs=1).solve(e)
        pick = data.draw(st.integers(0, (1 << len(nullspace)) - 1), label="pick")
        for j, v in enumerate(nullspace):
            particular ^= v * (pick >> j & 1)
        dashings.append(Dashing.from_mask(particular, e))
        assert _frozen_well_dashed(graph, frozen, dashings[-1])
        check_face_consumers(graph, faces, dashings)
        # and a run of consecutive faces, as a subset of pairs would give
        lo, hi = sorted(data.draw(st.lists(st.integers(0, len(faces)), min_size=2, max_size=2),
                                  label="run"))
        check_face_consumers(graph, Faces(faces.vertices[lo:hi], faces.edges[lo:hi],
                                          faces.colors[lo:hi]), dashings)


def _frozen_class_ids(graph, faces):
    solution = GF2System((f.edge_mask for f in faces), rhs=1).solve(graph.edge_count)
    if solution is None:
        return {}
    particular, nullspace = solution
    cut = GF2System(graph.incident_edge_masks)
    span = GF2System()
    ids = [cut.reduce(particular)]
    for v in nullspace:
        r = cut.reduce(v)
        if span.insert(r):
            ids += [x ^ r for x in ids]
    return dict.fromkeys(sorted(ids), 1 << (len(nullspace) - span.rank))


@pytest.mark.parametrize("n,rows", [(2, ()), (3, ()), (4, ()), (4, ("1111",)), (5, ()),
                                    (6, ("111111",)), (6, ("111100", "001111"))])
def test_class_ids_match_frozen(n, rows):
    code = BinaryCode.from_strings(n, list(rows)) if rows else BinaryCode.trivial(n)
    graph = build_quotient(n, code)
    for faces in (two_colored_four_cycles(graph), attach_faces(graph).faces):
        expected = _frozen_class_ids(graph, _as_frozen(faces))
        assert well_dashed_class_ids(graph, faces) == expected
    assert expected or n == 6  # 111111 is even, not doubly-even


# -- defective graphs --------------------------------------------------------------


def _drop(edges, data):
    del edges[data.draw(st.integers(0, len(edges) - 1), label="dropped")]


def _repeat(edges, data):
    # a second edge of some color at a vertex, to a neighbour of another color
    e = data.draw(st.integers(0, len(edges) - 1), label="repeated")
    f = data.draw(st.integers(0, len(edges) - 1), label="towards")
    edges.append({"u": edges[e]["u"], "v": edges[f]["v"], "color": edges[e]["color"], "dash": 0})


def _recolor(edges, data):
    e = data.draw(st.integers(0, len(edges) - 1), label="recolored")
    colors = sorted({edge["color"] for edge in edges})
    edges[e]["color"] = data.draw(st.sampled_from(colors), label="color")


def _swap(edges, data):
    color = data.draw(st.sampled_from(sorted({edge["color"] for edge in edges})), label="color")
    same = [e for e, edge in enumerate(edges) if edge["color"] == color]
    first, second = data.draw(st.lists(st.sampled_from(same), min_size=2, max_size=2,
                                       unique=True), label="swapped")
    edges[first]["v"], edges[second]["v"] = edges[second]["v"], edges[first]["v"]


def _loop(edges, data):
    e = data.draw(st.integers(0, len(edges) - 1), label="looped")
    edges[e]["v"] = edges[e]["u"]


MUTATIONS = {"drop": _drop, "repeat": _repeat, "recolor": _recolor, "swap": _swap,
             "loop": _loop}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_defective_graphs_match_frozen(data):
    graph = data.draw(doubly_even_quotients(max_vertex_bits=6), label="graph")
    obj = graph_to_json(graph)
    for name in data.draw(st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=3),
                          label="mutations"):
        MUTATIONS[name](obj["edges"], data)
    assume(obj["edges"])
    check_graph(graph_from_json(obj)[0])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_face_consumers_on_defective_graphs_match_frozen(data):
    # the faces of the graph before its defects, and its own where they build
    source = data.draw(doubly_even_quotients(max_vertex_bits=6), label="graph")
    obj = graph_to_json(source)
    for name in data.draw(st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=3),
                          label="mutations"):
        MUTATIONS[name](obj["edges"], data)
    assume(obj["edges"])
    graph = graph_from_json(obj)[0]
    e = graph.edge_count
    dashings = [Dashing.from_mask(data.draw(st.integers(0, (1 << e) - 1), label="dashing"), e)]
    face_sets = [two_colored_four_cycles(source), attach_faces(source).faces,
                 two_colored_four_cycles(graph, [])]
    own = _outcome(two_colored_four_cycles, graph)
    if not isinstance(own, str):
        face_sets.append(own)
    for faces in face_sets:
        check_face_consumers(graph, faces, dashings)


def test_missing_edges_and_an_empty_face_set_are_named_as_before():
    source = build_quotient(4, BinaryCode.trivial(4))
    faces = attach_faces(source).faces
    for kept in (31, 16):  # the first missing edge in face order is named
        graph = Chromotopology(4, source.vertices, source.edges[:kept], source.bipartition)
        dashing = Dashing.solid(kept)
        check_face_consumers(graph, faces, [dashing])
        first = next(e for e in faces.edges.ravel().tolist() if e >= kept)
        assert _outcome(well_dashed, graph, faces, dashing) == \
            f"ValueError: face references missing edge {first}"
    empty = two_colored_four_cycles(source, [])
    assert (empty.vertices.shape, empty.edges.shape, empty.colors.shape) == ((0, 4), (0, 4), (0, 2))
    assert _outcome(dashing_to_kasteleyn, source, empty, Dashing.solid(source.edge_count)) == \
        "ValueError: no faces supplied"
    check_face_consumers(source, empty, [Dashing.solid(source.edge_count)])


def test_walk_skips_a_failing_start_on_an_earlier_cycle():
    # vertex 1 sits on the cycle walked from 0 and has a second color-1
    # edge: its own walk fails, yet it is skipped, and vertex 4's walk is
    # the first that fails unskipped
    edges = ((0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2), (1, 4, 1), (4, 5, 2))
    graph = Chromotopology(2, tuple(range(6)), edges, (0, 1, 0, 1, 0, 1))
    table = _frozen_slot_table(graph)
    for starts in ([0, 1, 2, 3], [0, 1, 2, 3, 4, 5], [1, 2, 3]):
        assert _outcome(_library_walk, graph, [(1, 2)], starts) == \
            _outcome(_frozen_walks, graph, [(1, 2)], starts)
    with pytest.raises(ValueError, match="^colors \\(1,2\\) do not close a 4-cycle at vertex 4"):
        _frozen_walk(graph, table, 1, 2, range(6))
    with pytest.raises(ValueError, match="^vertex 1 has 2 edges of color 1$"):
        _walk_four_cycles(graph, [(1, 2)], np.array([1, 2, 3]))


def test_loops_at_both_ends_of_an_edge_do_not_close_a_4_cycle():
    # a-loop, b-edge, a-loop, b-edge back: the walk returns to its start
    # but repeats vertices
    graph = Chromotopology(2, (0, 1), ((0, 0, 1), (1, 1, 1), (0, 1, 2)), (0, 1))
    expected = "ValueError: colors (1,2) do not close a 4-cycle at vertex 0: " \
               "walk (0, 0, 1, 1) returns to 0"
    assert _outcome(_strict_faces, graph) == expected
    check_graph(graph)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_walks_on_any_pairs_and_starts_match_frozen(data):
    graph = data.draw(doubly_even_quotients(max_vertex_bits=6), label="graph")
    obj = graph_to_json(graph)
    for name in data.draw(st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=2),
                          label="mutations"):
        MUTATIONS[name](obj["edges"], data)
    graph = graph_from_json(obj)[0]
    n = graph.n_colors
    pairs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=8),
                      label="pairs")
    starts = data.draw(st.sets(st.integers(0, graph.vertex_count - 1)), label="starts")
    starts = sorted(starts)
    assert _outcome(_library_walk, graph, pairs, starts) == \
        _outcome(_frozen_walks, graph, pairs, starts)


# -- origamis ------------------------------------------------------------------------


@st.composite
def monodromies(draw):
    d = draw(st.integers(1, 9), label="d")
    sx = draw(st.permutations(range(d)), label="sigma_x")
    sy = draw(st.permutations(range(d)), label="sigma_y")
    return Monodromy(tuple(sx), tuple(sy))


@settings(max_examples=100, deadline=None)
@given(monodromies())
def test_random_origamis_match_frozen(m):
    check_origami(origami_from_monodromy(m))


@settings(max_examples=100, deadline=None)
@given(monodromies(), st.data())
def test_defective_origamis_match_frozen(m, data):
    edges = edge_triples(origami_from_monodromy(m))
    d = m.degree
    kind = data.draw(st.sampled_from(["duplicate x", "relabel", "retarget", "union"]),
                     label="kind")
    if kind == "duplicate x":  # one x-edge copied over another
        e, f = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2), label="x")
        edges[f] = edges[e]
    elif kind == "relabel":
        e = data.draw(st.integers(0, 2 * d - 1), label="edge")
        u, v, lab = edges[e]
        edges[e] = (u, v, "y" if lab == "x" else "x")
    elif kind == "retarget":
        e = data.draw(st.integers(0, 2 * d - 1), label="edge")
        edges[e] = (edges[e][0], data.draw(st.integers(0, d - 1), label="head"), edges[e][2])
    else:  # a disjoint union with a second origami
        other = origami_from_monodromy(data.draw(monodromies(), label="other"))
        edges += [(u + d, v + d, lab) for u, v, lab in edge_triples(other)]
        d += other.d
    check_origami(origami_graph(d, edges))


def test_disconnected_origami_is_refused_with_the_frozen_message():
    torus = edge_triples(origami_from_monodromy(Monodromy((0,), (0,))))
    two = origami_graph(2, torus + [(u + 1, v + 1, lab) for u, v, lab in torus])
    check_origami(two)
    with pytest.raises(ValueError, match="^invalid origami graph: graph is disconnected: "
                                         "reached 1 of 2 vertices$"):
        monodromy(two)
