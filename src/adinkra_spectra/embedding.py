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

The faces are one ``adinkra.Faces`` record of (F, 4) vertex and edge
index arrays and (F, 2) colors, ordered by colors and then by first
vertex; edge sides, the dual orientation and the JSON all read those
arrays.  The dual origami is an ``origami.OrigamiGraph`` of (tails,
heads, is_x) arrays over the primal edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .adinkra import (
    FERMION,
    INDEX,
    Adinkra,
    Chromotopology,
    Dashing,
    Faces,
    Ranking,
    _int_objects,
    _walk_four_cycles,
    default_ranking,
)
from .hyperbolic import CosetAction
from .origami import OrigamiGraph
from .perms import component_labels, inverse


@dataclass(frozen=True)
class SurfaceData:
    """Closed-surface data for the face-attached embedding of a graph.

    ``euler_genus`` is the total genus (sum over connected components,
    i.e. components - chi/2); ``dessin_degree`` is #E(A), the degree of
    the Belyi map whose dessin the graph is.  ``edge_sides`` holds, per
    edge index, the (face index, boundary position) of each of its two
    sides as a (E, 4) array ``(fa, ja, fb, jb)`` with fa < fb; it is None
    for N < 2, where no 2-cell attaches and ``faces`` is empty.  Both are
    arrays fixed by the graph, so equality leaves them out.
    """

    graph: Chromotopology
    faces: Faces = field(compare=False)
    euler_characteristic: int
    components: int
    euler_genus: int
    signature: tuple[int, int, int]
    dessin_degree: int
    edge_sides: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def to_json(self) -> dict:
        # one int object per vertex, shared by every face through it
        faces = _int_objects(self.graph.vertex_count)[self.faces.vertices]
        return {
            "n": self.graph.n_colors,
            "vertex_count": self.graph.vertex_count,
            "edge_count": self.graph.edge_count,
            "faces": faces.tolist(),
            "face_colors": self.faces.colors.tolist(),
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
        none = Faces(np.zeros((0, 4), INDEX), np.zeros((0, 4), INDEX), np.zeros((0, 2), INDEX))
        return SurfaceData(graph, none, 2 * components, components, 0, (n, n, 2),
                           graph.edge_count)
    side = graph.bipartition
    same = np.flatnonzero(side[graph.edges[:, 0]] == side[graph.edges[:, 1]])
    if same.size:
        e = int(same[0])
        raise ValueError(f"edge {e} {tuple(graph.edges[e].tolist())} does not cross the bipartition")
    fermions = np.flatnonzero(side == FERMION)
    walks = [([(i, i % n + 1) for i in range(1, n + 1)], fermions)]
    if n == 2:
        walks = [([(1, 2)], fermions), ([(1, 2)], np.flatnonzero(side != FERMION))]
    pairs, ids, quads, edges = [], [], [], []
    for walk_pairs, starts in walks:
        pair, quad, edge = _walk_four_cycles(graph, walk_pairs, starts)
        ids.append(pair + len(pairs))
        pairs += walk_pairs
        quads.append(quad)
        edges.append(edge)
    ids, quads, edges = np.concatenate(ids), np.concatenate(quads), np.concatenate(edges)
    colors = np.array(pairs, dtype=INDEX)[ids]
    # Faces go by colors, then by first vertex.  For N >= 3 that is the walk
    # order (each pair has its own first color); at N = 2 the two walks
    # share the pair (1, 2), so merge them by first vertex.
    if n == 2:
        order = np.argsort(quads[:, 0], kind="stable")
        quads, edges, colors = quads[order], edges[order], colors[order]
    faces = Faces(quads, edges, colors)
    chi = graph.vertex_count - graph.edge_count + len(faces)
    genus2 = 2 * components - chi
    surface = SurfaceData(graph, faces, chi, components, genus2 // 2,
                          (n, n, 2), graph.edge_count, _edge_sides(graph, faces.edges))
    if genus2 % 2:
        raise ValueError(f"odd 2-2g count: chi={chi}, components={components}")
    return surface


def _edge_sides(graph: Chromotopology, face_edges: np.ndarray) -> np.ndarray:
    """``SurfaceData.edge_sides`` from the (F, 4) edge indices of the faces:
    one stable argsort, read as 4 * face + position.  Raises ValueError
    naming the first edge that does not lie on exactly two faces."""
    at = face_edges.ravel()
    count = np.bincount(at, minlength=graph.edge_count)
    wrong = np.flatnonzero(count != 2)
    if wrong.size:
        e = int(wrong[0])
        raise ValueError(
            f"not a closed surface: edge {e} {tuple(graph.edges[e].tolist())} "
            f"lies on {count[e]} faces"
        )
    sides = np.argsort(at, kind="stable").reshape(-1, 2)
    return np.stack((sides[:, 0] >> 2, sides[:, 0] % 4, sides[:, 1] >> 2, sides[:, 1] % 4),
                    axis=1).astype(INDEX)


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


def _face_incidence(sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(edge index, other side) per face and boundary position, as (F, 4)
    arrays; a side is ``4 * face + position``."""
    ends = np.concatenate((sides[:, 0] * 4 + sides[:, 1], sides[:, 2] * 4 + sides[:, 3]))
    edge_at = np.empty(len(ends), dtype=np.intp)
    across = np.empty(len(ends), dtype=np.intp)
    edge_at[ends] = np.tile(np.arange(len(sides)), 2)
    across[ends] = np.roll(ends, len(sides))
    return edge_at.reshape(-1, 4), across.reshape(-1, 4)


def _frame_orientation(
    graph: Chromotopology, sides: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Directions per primal edge via parallel transport of a square frame.

    Each face gets a frame r in 0..3 marking which boundary position is its
    "right" side (r must sit on an odd color; then top/left/bottom follow in
    boundary order).  Crossing an edge carries right to left and top to
    bottom; a consistent assignment exists iff the flat holonomy is trivial
    (N = 0 mod 4 and every codeword meeting the odd colors an even number
    of times), and then the dual origami is the square-tiled surface itself.
    Frames spread breadth-first from the lowest unframed face, one array
    step per ring of faces; every crossing is then checked at once, so the
    result does not depend on the order of the spread.  ``sides`` is
    ``SurfaceData.edge_sides``.  Returns (tail face, head face) per primal
    edge, or None when obstructed.
    """
    edge_at, across = _face_incidence(sides)
    faces = np.arange(len(edge_at))
    other = across >> 2
    # frame[other] = frame[face] + turn, mod 4
    turn = (across % 4 - np.arange(4) - 2) % 4
    start = 1 - graph.edges[edge_at[:, 0], 2] % 2  # the first odd position
    frame = np.full(len(faces), -1)
    while (unframed := np.flatnonzero(frame < 0)).size:
        ring = unframed[:1]
        frame[ring] = start[ring]
        while ring.size:
            reach, value = other[ring], (frame[ring, None] + turn[ring]) % 4
            new = frame[reach] < 0
            frame[reach[new]] = value[new]
            framed = np.zeros(len(faces), dtype=bool)
            framed[reach[new]] = True
            ring = np.flatnonzero(framed)
    if np.count_nonzero(frame[other] != (frame[:, None] + turn) % 4):
        return None
    tails = np.empty(len(sides), dtype=np.intp)
    heads = np.empty(len(sides), dtype=np.intp)
    for k in (0, 1):  # right, top
        position = (frame + k) % 4
        e = edge_at[faces, position]
        tails[e] = faces
        heads[e] = other[faces, position]
    return tails, heads


def _cycle_orientation(
    graph: Chromotopology, sides: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Proof-style orientation: each same-label dual cycle is oriented from
    its lowest edge index, leaving that edge's lower face.

    The dual edges of a label run as darts: dart 2i crosses member i from
    its lower face to its higher, dart 2i + 1 back, and the dart after d
    leaves d's head along the face's other member.  The cycle of darts
    through 2i0, i0 the cycle's lowest member, is the traversal; its least
    dart is even, the reverse cycle's least dart odd.
    """
    tails = np.empty(len(sides), dtype=np.intp)
    heads = np.empty(len(sides), dtype=np.intp)
    odd = graph.edges[:, 2] % 2
    for parity in (1, 0):  # x edges (odd colors) first
        members = np.flatnonzero(odd == parity)
        low, high = sides[members, 0], sides[members, 2]
        ends = np.stack((low, high), axis=1).ravel()  # end 2i at the lower face
        count = np.bincount(ends)
        wrong = np.flatnonzero(count[ends] != 2)
        if wrong.size:
            face = int(ends[wrong[0]])
            raise ValueError(f"face {face} has {count[face]} same-label dual ends")
        pairs = np.argsort(ends, kind="stable").reshape(-1, 2)  # the two ends at each face
        mate = np.empty(len(ends), dtype=np.intp)
        mate[pairs[:, 0]] = pairs[:, 1]
        mate[pairs[:, 1]] = pairs[:, 0]
        darts = np.arange(len(ends))
        # the dart after d leaves along mate[d ^ 1] (d's head is end d ^ 1):
        # mate with its pairs swapped
        least = component_labels(darts, mate.reshape(-1, 2)[:, ::-1].ravel(), len(ends))
        forward = least[0::2] % 2 == 0
        tails[members] = np.where(forward, low, high)
        heads[members] = np.where(forward, high, low)
    return tails, heads


def dual_origami_graph(surface: SurfaceData) -> OrigamiGraph:
    """Labeled, oriented dual of the face-attached embedding.

    Dual vertices are faces; the dual edge through a primal edge is labeled
    x when the primal color is odd, y when even (requires N even, N > 2).
    Orientation: with trivial flat holonomy (N = 0 mod 4 and every codeword
    meeting the odd colors an even number of times) a parallel-transported
    square frame orients the dual so the origami is the surface itself;
    otherwise each same-label cycle is oriented deterministically as in the
    existence proof (arbitrary valid choice, lowest index first).  The
    graph holds the orientation's (tail face, head face) arrays, one entry
    per primal edge in edge order.
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
    directed = _frame_orientation(graph, surface.edge_sides)
    if directed is None:
        directed = _cycle_orientation(graph, surface.edge_sides)
    return OrigamiGraph(len(surface.faces), *directed, graph.edges[:, 2] % 2 == 1)


def dessin_action(graph: Chromotopology) -> CosetAction:
    """The (N, N, 2) coset action whose darts are the edges of the graph.

    Following the rotation convention, sigma0 takes an edge of color c to
    the edge of color c - 1 at its fermion, sigma1 to the edge of color
    c + 1 at its boson (colors mod N), and c = (sigma0 sigma1)^-1.  sigma0
    and sigma1 are gathers on ``slot_table``; the graph needs one edge of
    each color per vertex and every edge across the bipartition.
    """
    n = graph.n_colors
    _other, edge, count = graph.slot_table
    if np.count_nonzero(count != 1):
        raise ValueError("dessin action needs one edge of each color per vertex")
    us, vs, cs = graph.edges.T
    side = graph.bipartition
    if np.count_nonzero(side[us] == side[vs]):
        raise ValueError("dessin action needs every edge to cross the bipartition")
    from_u = side[us] == FERMION
    sigma0 = edge[np.where(from_u, us, vs), (cs - 2) % n]
    sigma1 = edge[np.where(from_u, vs, us), cs % n]
    return CosetAction(len(sigma0), {"a": sigma0, "b": sigma1, "c": inverse(sigma0[sigma1])})


def cartesian_product(a1: Adinkra, a2: Adinkra) -> Adinkra:
    """Cartesian product Adinkra with the standard extra structure.

    The second factor's colors are shifted by N1 so the color sets are
    disjoint.  Vertex class is the product of classes, ranking h1 + h2;
    A1-direction edges keep d1, A2-direction edges carry d2 + h1(u) mod 2,
    which makes the product of well-dashed factors well-dashed.
    """
    g1, g2 = a1.graph, a2.graph
    n1, v1, v2 = g1.n_colors, g1.vertex_count, g2.vertex_count
    h1, h2, d1, d2 = (np.array(values, dtype=np.intp) for values in (
        a1.ranking.values, a2.ranking.values, a1.dashing.bits, a2.dashing.bits))
    # vertex (i1, i2) is i1 * V2 + i2; the A1-direction edges come edge by
    # edge over i2, then the A2-direction edges edge by edge over i1
    ends = np.concatenate(((g1.edges[:, None, :2] * v2 + np.arange(v2)[:, None]).reshape(-1, 2),
                           (np.arange(v1)[:, None] * v2 + g2.edges[:, None, :2]).reshape(-1, 2)))
    ends.sort(axis=1)
    colors = np.concatenate((np.repeat(g1.edges[:, 2], v2), np.repeat(g2.edges[:, 2] + n1, v1)))
    dash = np.concatenate((np.repeat(d1, v2), ((d2[:, None] + h1) % 2).ravel()))
    order = np.lexsort((ends[:, 1], ends[:, 0], colors))
    graph = Chromotopology(n1 + g2.n_colors, tuple(itertools.product(g1.vertices, g2.vertices)),
                           np.column_stack((ends, colors))[order],
                           (g1.bipartition[:, None] ^ g2.bipartition).ravel())
    ranks = (h1[:, None] + h2).ravel()
    return Adinkra(graph, Ranking(tuple(ranks.tolist())), Dashing(tuple(dash[order].tolist())))


def _crt_color(a: np.ndarray, b: np.ndarray, residue: int, n1: int, n2: int) -> np.ndarray:
    """Position of each 0-based color pair (a, b) along the rainbow orbit
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

    side1, side2 = g1.bipartition, g2.bipartition
    # the parity-matched pairs (i1, i2), numbered in row-major order
    i1, i2 = np.nonzero(side1[:, None] == side2)
    index = np.full((g1.vertex_count, g2.vertex_count), -1)
    index[i1, i2] = np.arange(len(i1))
    # edge pairs (e1, e2) on the rainbow orbit, e1-major; each is oriented
    # so that both of its ends are parity-matched
    e1, e2 = np.nonzero((g1.edges[:, 2, None] - g2.edges[:, 2]) % g == residue)
    (u1, v1, c1), (u2, v2, c2) = g1.edges[e1].T, g2.edges[e2].T
    flip = side1[u1] != side2[u2]
    keys = ((u1, np.where(flip, v2, u2)), (v1, np.where(flip, u2, v2)))
    ends = np.stack([index[key] for key in keys], axis=1)
    if (missing := np.flatnonzero(ends < 0)).size:  # an edge inside one class
        pair, end = divmod(int(missing[0]), 2)
        factor, (u, v, c) = ((1, (u1, v1, c1)) if side1[u1[pair]] == side1[v1[pair]]
                             else (2, (u2, v2, c2)))
        raise ValueError(
            f"edge ({u[pair]},{v[pair]}) of color {c[pair]} in factor {factor} lies inside one "
            f"parity class, so the vertex pair {tuple(int(part[pair]) for part in keys[end])} "
            f"is not parity-matched")
    ends.sort(axis=1)
    colors = _crt_color(c1 - 1, c2 - 1, residue, n1, n2) + 1
    order = np.lexsort((ends[:, 1], ends[:, 0], colors))
    labels = tuple((g1.vertices[a], g2.vertices[b]) for a, b in zip(i1.tolist(), i2.tolist()))
    graph = Chromotopology(lcm, labels, np.column_stack((ends, colors))[order], side1[i1])
    ranks = np.array(h1.values, dtype=np.intp)[i1] * np.array(h2.values, dtype=np.intp)[i2]
    return graph, Ranking(tuple(ranks.tolist()))


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
