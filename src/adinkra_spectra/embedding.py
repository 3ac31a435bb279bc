"""Surface realization of an Adinkra: faces, genus, triangle-group data,
the labeled dual origami graph, and Cartesian / fibered products.

Faces are the consecutively colored 4-cycles {i, i+1 mod N}, one 2-cell per
color family i = 1..N (for N = 2 both families attach to the single square,
giving the sphere).  The rotation convention (colors run 1..N
counterclockwise at bosons, reversed at fermions) orients every face so
each edge is traversed once in each direction: a family-i face is stored as
(i, i+1, i, i+1) starting at the smaller of its two fermions, so its first
step is on the family color i.  (Strict 4-cycles from
``adinkra.two_colored_four_cycles`` start at their lowest vertex index
instead.)  For N = 2 the square is walked as (1, 2) once from its smaller
fermion and once from its smaller boson.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .adinkra import (
    FERMION,
    Adinkra,
    Chromotopology,
    Dashing,
    Face,
    Ranking,
    _walk_four_cycles,
    default_ranking,
)
from .origami import OrigamiGraph


@dataclass(frozen=True)
class SurfaceData:
    """Closed-surface data for the face-attached embedding of a graph.

    ``euler_genus`` is the total genus (sum over connected components,
    i.e. components - chi/2); ``dessin_degree`` is #E(A), the degree of
    the Belyi map whose dessin the graph is.
    """

    graph: Chromotopology
    faces: tuple[Face, ...]
    euler_characteristic: int
    components: int
    euler_genus: int
    signature: tuple[int, int, int]
    dessin_degree: int

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @cached_property
    def edge_sides(self) -> tuple[tuple[int, ...], ...]:
        """Per edge index, the (face index, boundary position) of each side,
        flat: ``(fa, ja, fb, jb)`` on a closed surface."""
        sides: list[tuple[int, ...]] = [()] * len(self.graph.edges)
        for fi, f in enumerate(self.faces):
            for j, e in enumerate(f.edge_indices):
                sides[e] += (fi, j)
        return tuple(sides)

    def to_json(self) -> dict:
        return {
            "n": self.graph.n_colors,
            "vertex_count": self.graph.vertex_count,
            "edge_count": self.graph.edge_count,
            "faces": [list(f.vertices) for f in self.faces],
            "face_colors": [list(f.colors) for f in self.faces],
            "euler_characteristic": self.euler_characteristic,
            "components": self.components,
            "genus": self.euler_genus,
            "signature": list(self.signature),
            "dessin_degree": self.dessin_degree,
        }


@dataclass(frozen=True)
class TriangulationStats:
    """Counts and areas of the covered symmetric triangulation.

    Areas are exact rational multiples of pi (``*_pi`` fields hold the
    coefficient).  ``hyperbolic`` is False for N <= 4, where the (N,N,2)
    signature is spherical or flat and the hyperbolic area formula
    degenerates.
    """

    triangle_count: int
    subgroup_index: int
    hyperbolic: bool
    triangle_area_pi: Fraction
    total_area_pi: Fraction

    def to_json(self) -> dict:
        return {
            "triangle_count": self.triangle_count,
            "subgroup_index": self.subgroup_index,
            "hyperbolic": self.hyperbolic,
            "triangle_area_over_pi": str(self.triangle_area_pi),
            "total_area_over_pi": str(self.total_area_pi),
        }


def closed_form_genus(n: int, k: int) -> int:
    """g = 1 + 2^(N-k-3)(N-4) for N >= 2; 0 for N < 2 (exact rational)."""
    if n < 2:
        return 0
    g = 1 + Fraction(2) ** (n - k - 3) * (n - 4)
    if g.denominator != 1:
        raise ValueError(f"genus formula non-integral for N={n}, k={k}")
    return int(g)


def attach_faces(graph: Chromotopology) -> SurfaceData:
    """Attach 2-cells to all consecutively colored 4-cycles.

    Family i uses the pair (i, i mod N + 1), walked from the fermions in
    ascending order; an edge within one side of the bipartition is refused
    first.  Every edge must end up on exactly two faces (closed surface),
    otherwise a non-surface error is raised with the offending edge.
    """
    n = graph.n_colors
    components = graph.component_count
    if n < 2:
        # a single edge (or vertex) embeds in the sphere; no 4-cycles exist
        return SurfaceData(graph, (), 2 * components, components, 0, (n, n, 2),
                           graph.edge_count)
    side = graph.bipartition
    for e, (u, v, _c) in enumerate(graph.edges):
        if side[u] == side[v]:
            raise ValueError(f"edge {e} {graph.edges[e]} does not cross the bipartition")
    fermions = [v for v in range(graph.vertex_count) if side[v] == FERMION]
    walks = [((i, i % n + 1), fermions) for i in range(1, n + 1)]
    if n == 2:
        bosons = [v for v in range(graph.vertex_count) if side[v] != FERMION]
        walks = [((1, 2), fermions), ((1, 2), bosons)]
    faces = sorted(
        (Face(quad, edges, pair)
         for pair, starts in walks
         for quad, edges in _walk_four_cycles(graph, *pair, starts)),
        key=lambda f: (f.colors, f.vertices),
    )
    chi = graph.vertex_count - graph.edge_count + len(faces)
    genus2 = 2 * components - chi
    surface = SurfaceData(graph, tuple(faces), chi, components, genus2 // 2,
                          (n, n, 2), graph.edge_count)
    for e, sides in enumerate(surface.edge_sides):
        if len(sides) != 4:
            raise ValueError(
                f"not a closed surface: edge {e} {graph.edges[e]} lies on {len(sides) // 2} faces"
            )
    if genus2 % 2:
        raise ValueError(f"odd 2-2g count: chi={chi}, components={components}")
    return surface


def triangulation_stats(surface: SurfaceData) -> TriangulationStats:
    """Triangle counts and hyperbolic areas of the symmetric triangulation.

    One positively and one negatively oriented triangle per dessin edge;
    each has angles (pi/N, pi/N, pi/2), area pi/2 - 2pi/N, and the cover
    has index #E(A) in the (N, N, 2) triangle group.
    """
    n = surface.graph.n_colors
    d = surface.dessin_degree
    hyper = n > 4  # 2/N + 1/2 < 1
    # for N <= 4 the signature is spherical/flat; the formula value (<= 0)
    # is still reported so the N = 4 case reads as exactly zero area
    tri = Fraction(1, 2) - Fraction(2, n) if n >= 1 else Fraction(0)
    total = 2 * d * tri
    return TriangulationStats(2 * d, d, hyper, tri, total)


def _frame_orientation(
    faces: tuple[Face, ...], sides: tuple[tuple[int, ...], ...]
) -> dict[int, tuple[int, int]] | None:
    """Directions per primal edge via parallel transport of a square frame.

    Each face gets a frame r in 0..3 marking which boundary position is its
    "right" side (r must sit on an odd color; then top/left/bottom follow in
    boundary order).  Crossing an edge carries right to left and top to
    bottom; a consistent assignment exists iff the flat holonomy is trivial
    (N = 0 mod 4 and every codeword meeting the odd colors an even number
    of times), and then the dual origami is the square-tiled surface itself.
    ``sides`` is ``SurfaceData.edge_sides``.  Returns primal edge ->
    (tail face, head face), or None when obstructed.
    """
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
        for e in (f.edge_indices[r], f.edge_indices[(r + 1) % 4]):  # right, top
            fa, _ja, fb, _jb = sides[e]
            other = fb if fa == fi else fa
            directed[e] = (fi, other)
    return directed


def _cycle_orientation(
    graph: Chromotopology, sides: tuple[tuple[int, ...], ...]
) -> dict[int, tuple[int, int]]:
    """Proof-style orientation: walk each same-label dual cycle, lowest
    face/edge index first, orienting edges as traversed."""
    directed: dict[int, tuple[int, int]] = {}
    for parity in (1, 0):  # x edges (odd colors) first
        ends: dict[int, list[tuple[int, int]]] = {}
        members = [e for e in range(graph.edge_count) if graph.edges[e][2] % 2 == parity]
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


def dual_origami_graph(surface: SurfaceData) -> OrigamiGraph:
    """Labeled, oriented dual of the face-attached embedding.

    Dual vertices are faces; the dual edge through a primal edge is labeled
    x when the primal color is odd, y when even (requires N even, N > 2).
    Orientation: with trivial flat holonomy (N = 0 mod 4 and every codeword
    meeting the odd colors an even number of times) a parallel-transported
    square frame orients the dual so the origami is the surface itself;
    otherwise each same-label cycle is oriented deterministically as in the
    existence proof (arbitrary valid choice, lowest index first).
    """
    graph = surface.graph
    n = graph.n_colors
    if n <= 2:
        raise ValueError(f"dual origami needs N > 2, got N = {n}")
    if n % 2:
        raise ValueError(
            f"N = {n} is odd: faces with colors {{1,{n}}} would carry only "
            "x-labels, so no origami labeling exists"
        )
    directed = _frame_orientation(surface.faces, surface.edge_sides)
    if directed is None:
        directed = _cycle_orientation(graph, surface.edge_sides)
    edges = []
    for e in range(graph.edge_count):
        tail, head = directed[e]
        label = "x" if graph.edges[e][2] % 2 else "y"
        edges.append((tail, head, label))
    return OrigamiGraph(len(surface.faces), tuple(edges))


def cartesian_product(a1: Adinkra, a2: Adinkra) -> Adinkra:
    """Cartesian product Adinkra with the standard extra structure.

    The second factor's colors are shifted by N1 so the color sets are
    disjoint.  Vertex class is the product of classes, ranking h1 + h2;
    A1-direction edges keep d1, A2-direction edges carry d2 + h1(u) mod 2,
    which makes the product of well-dashed factors well-dashed.
    """
    g1, g2 = a1.graph, a2.graph
    n1, n2 = g1.n_colors, g2.n_colors
    labels = []
    bip = []
    ranks = []
    for i1, l1 in enumerate(g1.vertices):
        for i2, l2 in enumerate(g2.vertices):
            labels.append((l1, l2))
            bip.append(g1.bipartition[i1] ^ g2.bipartition[i2])
            ranks.append(a1.ranking.values[i1] + a2.ranking.values[i2])

    def pid(i1: int, i2: int) -> int:
        return i1 * g2.vertex_count + i2

    edges = []
    dash = []
    for e1, (u1, v1, c) in enumerate(g1.edges):
        for i2 in range(g2.vertex_count):
            p, q = pid(u1, i2), pid(v1, i2)
            edges.append((min(p, q), max(p, q), c))
            dash.append(a1.dashing.bits[e1])
    for e2, (u2, v2, c) in enumerate(g2.edges):
        for i1 in range(g1.vertex_count):
            p, q = pid(i1, u2), pid(i1, v2)
            edges.append((min(p, q), max(p, q), c + n1))
            dash.append((a2.dashing.bits[e2] + a1.ranking.values[i1]) % 2)
    order = sorted(range(len(edges)), key=lambda e: (edges[e][2], edges[e][0], edges[e][1]))
    graph = Chromotopology(
        n1 + n2, tuple(labels), tuple(edges[e] for e in order), tuple(bip)
    )
    return Adinkra(graph, Ranking(tuple(ranks)), Dashing(tuple(dash[e] for e in order)))


def _crt_color(a: int, b: int, residue: int, n1: int, n2: int) -> int:
    """Position of the 0-based color pair (a, b) along the rainbow orbit
    through (residue, 0): j = b mod n2 and j = a - residue mod n1."""
    g = math.gcd(n1, n2)
    lcm = n1 * n2 // g
    r1 = (a - residue) % n1
    t = ((r1 - b) // g * pow(n2 // g, -1, n1 // g)) % (n1 // g)
    return (b + n2 * t) % lcm


def fibered_product(
    a1: Adinkra | Chromotopology,
    a2: Adinkra | Chromotopology,
    residue: int = 0,
) -> tuple[Chromotopology, Ranking]:
    """Fibered product chromotopology with its product ranking.

    Vertices are parity-matched pairs V0 x V0 and V1 x V1; each edge pair
    (e1, e2) whose colors satisfy c1 - c2 = residue mod gcd(N1, N2) gives
    one edge, colored by its position along the chosen rainbow orbit of
    lcm(N1, N2) colors.  The ranking is h1 * h2 (parity-correct; the
    unit-step property of single-factor rankings is not preserved).
    """
    g1 = a1.graph if isinstance(a1, Adinkra) else a1
    g2 = a2.graph if isinstance(a2, Adinkra) else a2
    h1 = a1.ranking if isinstance(a1, Adinkra) else default_ranking(g1)
    h2 = a2.ranking if isinstance(a2, Adinkra) else default_ranking(g2)
    n1, n2 = g1.n_colors, g2.n_colors
    g = math.gcd(n1, n2)
    if not 0 <= residue < g:
        raise ValueError(f"rainbow residue {residue} not in 0..{g - 1}")
    lcm = n1 * n2 // g

    labels = []
    bip = []
    ranks = []
    index = {}
    for i1, l1 in enumerate(g1.vertices):
        for i2, l2 in enumerate(g2.vertices):
            if g1.bipartition[i1] != g2.bipartition[i2]:
                continue
            index[(i1, i2)] = len(labels)
            labels.append((l1, l2))
            bip.append(g1.bipartition[i1])
            ranks.append(h1.values[i1] * h2.values[i2])

    edges = []
    for (u1, v1, c1) in g1.edges:
        for (u2, v2, c2) in g2.edges:
            if (c1 - c2) % g != residue % g:
                continue
            color = _crt_color(c1 - 1, c2 - 1, residue, n1, n2) + 1
            # orient the pair so both ends are parity-matched
            b1u = g1.bipartition[u1]
            b2u = g2.bipartition[u2]
            if b1u == b2u:
                p, q = index[(u1, u2)], index[(v1, v2)]
            else:
                p, q = index[(u1, v2)], index[(v1, u2)]
            edges.append((min(p, q), max(p, q), color))
    edges.sort(key=lambda e: (e[2], e[0], e[1]))
    graph = Chromotopology(lcm, tuple(labels), tuple(edges), tuple(bip))
    return graph, Ranking(tuple(ranks))


@dataclass(frozen=True)
class FiberedGenusReport:
    """Euler-count comparison against additivity of factor genera.

    Reported, not asserted: whether the face-attached surface of the
    product graph is the desingularized fibered-product curve is left
    open, so ``additivity_ok`` records the outcome of the comparison.
    """

    g1: int
    g2: int
    g_product: int
    product_components: int
    additivity_ok: bool

    def to_json(self) -> dict:
        return {
            "g1": self.g1,
            "g2": self.g2,
            "g_product": self.g_product,
            "product_components": self.product_components,
            "additivity_ok": self.additivity_ok,
        }


def fibered_genus_report(
    a1: Adinkra | Chromotopology,
    a2: Adinkra | Chromotopology,
    product: Chromotopology,
) -> FiberedGenusReport:
    g1 = a1.graph if isinstance(a1, Adinkra) else a1
    g2 = a2.graph if isinstance(a2, Adinkra) else a2
    s1 = attach_faces(g1)
    s2 = attach_faces(g2)
    sp = attach_faces(product)
    return FiberedGenusReport(
        s1.euler_genus,
        s2.euler_genus,
        sp.euler_genus,
        sp.components,
        sp.euler_genus == s1.euler_genus + s2.euler_genus,
    )
