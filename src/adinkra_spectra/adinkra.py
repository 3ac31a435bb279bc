"""Adinkra chromotopologies: code quotients, rankings, dashings, dimers,
Kasteleyn orientations.

A chromotopology is an N-regular bipartite graph with edges colored by
1..N, one edge of each color per vertex, and every 2-colored subgraph a
disjoint union of 4-cycles.  Quotients of the N-cube by a binary code are
built with :func:`build_quotient`; validation is report-style, never an
exception, so the code-property iff statements stay testable.

Dashings are stored per edge index; exhaustive sweeps work on int bitmasks
over edge indices (bit e = edge ``graph.edges[e]`` dashed).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, repeat
from operator import add, eq, mul, not_, xor
from typing import Hashable, Iterable, Sequence

import numpy as np

from .codes import BinaryCode, _coset_table, analyze_code, format_word
from .errors import ResourceBoundError
from .gf2 import GF2System

BOSON, FERMION = 0, 1

# well_dashed_masks refuses to list more masks than this
DASH_ENUMERATION_LIMIT = 1 << 20

Edge = tuple[int, int, int]  # (u index, v index, color in 1..N); u <= v


def label_text(label: Hashable, n_colors: int) -> str:
    """Render a vertex label: ints as bit-strings, product labels nested."""
    if isinstance(label, int):
        return format_word(label, n_colors)
    if isinstance(label, tuple):
        return "(" + ",".join(str(part) for part in label) + ")"
    return str(label)


@dataclass(frozen=True)
class Chromotopology:
    """Colored bipartite graph skeleton of an Adinkra.

    ``vertices`` hold opaque labels (ints for code quotients, pairs for
    products, strings after JSON ingestion); edges refer to vertex indices.
    ``warnings`` carries construction-time defect notes (loops, parallel
    edges, non-doubly-even code), never validation results.

    ``slot_table`` is the per-(vertex, color) incidence as three flat tuples
    of length V·N, indexed by ``v * N + color - 1``: the other endpoint, the
    edge index, and the count of such edges.  A loop counts once; where the
    count is not 1 the first two hold the first edge seen, or -1 when there
    is none.
    """

    n_colors: int
    vertices: tuple[Hashable, ...]
    edges: tuple[Edge, ...]
    bipartition: tuple[int, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.bipartition) != len(self.vertices):
            raise ValueError("bipartition length mismatch")
        if not self.edges:
            return
        us, vs, cs = zip(*self.edges)
        ends = us + vs
        if (0 <= min(ends) and max(ends) < len(self.vertices)
                and 1 <= min(cs) and max(cs) <= self.n_colors):
            return
        for u, v, c in self.edges:  # name the first offending edge
            if not (0 <= u < len(self.vertices) and 0 <= v < len(self.vertices)):
                raise ValueError(f"edge ({u},{v}) references missing vertex")
            if not 1 <= c <= self.n_colors:
                raise ValueError(f"edge color {c} out of range 1..{self.n_colors}")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_index(self) -> dict:
        return {label: i for i, label in enumerate(self.vertices)}

    @cached_property
    def slot_table(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(other endpoint, edge index, edge count) per ``v * N + color - 1``."""
        n = self.n_colors
        size = self.vertex_count * n
        other, edge, count = [-1] * size, [-1] * size, [0] * size
        edges = self.edges
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

    @cached_property
    def incident_edge_masks(self) -> tuple[int, ...]:
        masks = [0] * self.vertex_count
        for e, (u, v, _c) in enumerate(self.edges):
            masks[u] |= 1 << e
            masks[v] |= 1 << e
        return tuple(masks)

    def slot(self, v: int, color: int) -> tuple[int, int]:
        """(edge index, other endpoint) of the unique color edge at vertex
        index v; raises if not unique."""
        other, edge, count = self.slot_table
        i = v * self.n_colors + color - 1
        k = count[i] if 1 <= color <= self.n_colors else 0
        if k != 1:
            raise ValueError(f"vertex {v} has {k} edges of color {color}")
        return edge[i], other[i]

    def edges_of_color(self, color: int) -> list[int]:
        if not 1 <= color <= self.n_colors:
            raise ValueError(f"color {color} out of range 1..{self.n_colors}")
        return [e for e, (_u, _v, c) in enumerate(self.edges) if c == color]

    @cached_property
    def component_count(self) -> int:
        """Connected components, by union-find over the edges (path halving,
        inlined: a call per find doubles the cost)."""
        parent = list(range(self.vertex_count))
        for u, v, _c in self.edges:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            parent[u] = v
        return sum(map(eq, parent, range(self.vertex_count)))

    def is_connected(self) -> bool:
        return self.component_count <= 1

    def label_texts(self) -> tuple[str, ...]:
        return tuple(label_text(l, self.n_colors) for l in self.vertices)


@dataclass(frozen=True)
class Ranking:
    """Integer height per vertex index (bosons even, fermions odd)."""

    values: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        return self.values[i]


@dataclass(frozen=True)
class Dashing:
    """Solid/dashed assignment per edge index (0 solid, 1 dashed)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if set(self.bits) - {0, 1}:
            raise ValueError("dashing bits must be 0 or 1")

    @classmethod
    def solid(cls, n_edges: int) -> "Dashing":
        return cls((0,) * n_edges)

    @classmethod
    def from_mask(cls, mask: int, n_edges: int) -> "Dashing":
        return cls(tuple(mask >> e & 1 for e in range(n_edges)))

    @property
    def mask(self) -> int:
        m = 0
        for e, b in enumerate(self.bits):
            m |= b << e
        return m

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class Face:
    """A 2-colored 4-cycle with a stored cyclic orientation.

    ``vertices[j]`` to ``vertices[j+1]`` runs along ``edge_indices[j]``;
    edge colors alternate ``colors[0], colors[1]``, first step on
    ``colors[0]``.  Strict faces (:func:`two_colored_four_cycles`) start
    at the lowest vertex index on the cycle; surface faces
    (``embedding.attach_faces``) start at the smaller fermion, with the
    first step on the family color.
    """

    vertices: tuple[int, int, int, int]
    edge_indices: tuple[int, int, int, int]
    colors: tuple[int, int]

    @property
    def edge_mask(self) -> int:
        m = 0
        for e in self.edge_indices:
            m |= 1 << e
        return m


@dataclass(frozen=True)
class Orientation:
    """Total edge orientation, stored as the head vertex index per edge."""

    heads: tuple[int, ...]


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Axiom-by-axiom result; connectivity is informational only."""

    checks: tuple[AxiomCheck, ...]
    connected: bool

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "connected": self.connected,
            "checks": [
                {"axiom": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class Adinkra:
    """Chromotopology with its ranking and dashing."""

    graph: Chromotopology
    ranking: Ranking
    dashing: Dashing


def build_quotient(n: int, code: BinaryCode) -> Chromotopology:
    """Quotient chromotopology A_N / L of the N-cube by a binary code.

    Vertices are the cosets (labelled by lexicographically smallest
    members, sorted); color i joins [v] and [v + e_i].  Codes that are not
    doubly-even still build: the defects (loops for weight-1 words,
    parallel edges for weight-2, odd words breaking the bipartition) are
    recorded in ``warnings`` and surface in validation.
    """
    if code.length != n:
        raise ValueError(f"code length {code.length} != n = {n}")
    reps, units = _coset_table(code)

    warnings: list[str] = []
    report = analyze_code(code)
    if not report.is_even:
        warnings.append("code is not even: quotient is not bipartite")
    elif not report.is_doubly_even:
        warnings.append("code is even but not doubly-even: quotient admits no well-dashing")

    # color c joins coset i to i ^ units[c - 1], an involution, so each edge
    # is emitted once, from its end without the top bit of the step (the one
    # end of a loop): (color, u, v) order by construction.  The edges share
    # one int object per coset, since the graph outlives this call.
    cosets = list(range(len(reps)))
    edges: list[Edge] = []
    for color, step in enumerate(units, start=1):
        top = 1 << step.bit_length() >> 1
        lower = cosets
        if top:
            lower = [i for s in range(0, len(reps), 2 * top) for i in cosets[s:s + top]]
        edges += zip(lower, map(cosets.__getitem__, map(xor, lower, repeat(step))), repeat(color))

    # a loop of color i needs e_i in the code, and two colors i, j joining
    # the same pair need e_i + e_j: scan only for defects the weights allow
    weights = report.weight_distribution
    if 1 in weights:
        warnings += [f"loop: color {color} fixes coset {format_word(reps[u], n)}"
                     for u, color in sorted((u, c) for u, v, c in edges if u == v)]
    if 2 in weights:
        pair_counts = Counter((u, v) for u, v, _c in edges if u != v)
        for (u, v), cnt in sorted(pair_counts.items()):
            if cnt > 1:
                warnings.append(
                    f"parallel edges: {cnt} colors join {format_word(reps[u], n)} "
                    f"and {format_word(reps[v], n)}"
                )

    bipartition = tuple(r.bit_count() & 1 for r in reps)
    return Chromotopology(n, tuple(reps), tuple(edges), bipartition, tuple(warnings))


def _walk_four_cycles(
    graph: Chromotopology, first: int, second: int, starts: Iterable[int]
) -> list[tuple[tuple[int, int, int, int], tuple[int, int, int, int]]]:
    """Cycles of the {first, second}-colored subgraph as (vertices, edge
    indices) 4-tuples, edge j running from vertex j to vertex j + 1.

    Each cycle is walked from the first of ``starts`` on it, first step
    along ``first``; ascending starts therefore begin each cycle at its
    lowest start vertex.  Raises ValueError (with a witness) when a walk
    does not close a 4-cycle, and with :meth:`Chromotopology.slot`'s
    message when a step has no unique edge.
    """
    n = graph.n_colors
    if not (1 <= first <= n and 1 <= second <= n):
        for v0 in starts:  # the first walk meets the missing color and raises
            graph.slot(graph.slot(v0, first)[1], second)
        return []
    other, edge, count = graph.slot_table
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
            # steps past the first bad slot read garbage (-1 wraps to the
            # last vertex) and are never reported: slot raises before them
            for v, color in ((v0, first), (v1, second), (v2, first), (v3, second)):
                graph.slot(v, color)
        quad = (v0, v1, v2, v3)
        if (back != v0 or v0 == v1 or v1 == v2 or v2 == v3 or v3 == v0
                or v0 == v2 or v1 == v3):
            raise ValueError(
                f"colors ({first},{second}) do not close a 4-cycle at vertex {v0}: "
                f"walk {quad} returns to {back}"
            )
        # no vertex of a closed walk is seen: a unique-edge step from a
        # walked cycle stays on it, so the walk could not return to v0
        seen[v0] = seen[v1] = seen[v2] = seen[v3] = True
        cycles.append((quad, (edge[i0], edge[i1], edge[i2], edge[i3])))
    return cycles


def two_colored_four_cycles(
    graph: Chromotopology, pairs: Iterable[tuple[int, int]] | None = None
) -> tuple[Face, ...]:
    """All 2-colored 4-cycles, one Face per cycle per color pair.

    ``pairs`` defaults to every unordered color pair {i, j}; the
    well-dashed predicate quantifies over exactly these.
    """
    if pairs is None:
        pairs = combinations(range(1, graph.n_colors + 1), 2)
    starts = range(graph.vertex_count)
    return tuple(
        Face(quad, edges, (first, second))
        for first, second in pairs
        for quad, edges in _walk_four_cycles(graph, first, second, starts)
    )


def _four_cycles_close(graph: Chromotopology) -> bool:
    """Whether every 2-colored walk closes a 4-cycle, on a graph with one
    edge in each (vertex, color) slot, no loops and no parallel edges.

    There color a is a fixed-point-free involution s_a of the vertices, and
    the a-b-a-b walk from v returns to v iff s_a and s_b commute; s_a(v) !=
    s_b(v) then keeps its four vertices distinct.  Gathers on the (V, N)
    array of slot endpoints compose s_a with every s_b, b > a, at once.
    """
    n = graph.n_colors
    other = np.array(graph.slot_table[0], dtype=np.intp).reshape(graph.vertex_count, n)
    for a in range(n - 1):
        s_a, s_rest = other[:, a], other[:, a + 1:]
        # bytes equality: a comparison ufunc would page in more of numpy
        if s_rest[s_a].tobytes() != s_a[s_rest].tobytes():
            return False
    return True


def validate_chromotopology(graph: Chromotopology) -> ValidationReport:
    """Check the chromotopology axioms, reporting witnesses for failures.

    The per-edge checks compare the edge columns with ``map`` and look for
    their first witness only on failure; the 4-cycle axiom is checked on
    arrays and walked pair by pair only when it fails.
    """
    checks = []
    n = graph.n_colors
    us, vs, _cs = zip(*graph.edges) if graph.edges else ((), (), ())

    is_loop = list(map(eq, us, vs))
    loop = is_loop.index(True) if True in is_loop else None
    checks.append(AxiomCheck(
        "simple: no loops", loop is None,
        "" if loop is None else f"edge {loop} loops at vertex {us[loop]}"))

    # pairs as ints u * V + v for the set test, as tuples for the witness
    keys = map(add, map(mul, us, repeat(graph.vertex_count)), vs)
    parallel = None
    if len(set(compress(keys, map(not_, is_loop)))) != len(us) - is_loop.count(True):
        pairs = Counter(compress(zip(us, vs), map(not_, is_loop)))
        parallel = min((p, c) for p, c in pairs.items() if c > 1)
    checks.append(AxiomCheck(
        "simple: no parallel edges", parallel is None,
        "" if parallel is None else f"vertices {parallel[0]} joined by {parallel[1]} edges"))

    count = graph.slot_table[2]
    bad = None if count.count(1) == len(count) else next(i for i, k in enumerate(count) if k != 1)

    # one loop-free edge in each of the N slots of every vertex is degree N
    bad_deg = None
    if bad is not None or loop is not None:
        degrees = Counter(us)
        degrees.update(vs)
        bad_deg = next(((i, degrees[i]) for i in range(graph.vertex_count)
                        if degrees[i] != n), None)
    checks.append(AxiomCheck(
        f"{n}-regular", bad_deg is None,
        "" if bad_deg is None else f"vertex {bad_deg[0]} has degree {bad_deg[1]}"))

    side = graph.bipartition.__getitem__
    same = list(map(eq, map(side, us), map(side, vs)))
    cross = same.index(True) if True in same else None
    checks.append(AxiomCheck(
        "bipartite: edges cross the bipartition", cross is None,
        "" if cross is None else f"edge {(us[cross], vs[cross])} joins same-class vertices"))

    checks.append(AxiomCheck(
        "one edge of each color per vertex", bad is None,
        "" if bad is None else
        f"vertex {bad // n} has {count[bad]} edges of color {bad % n + 1}"))

    cycle_witness = ""
    if bad is not None or loop is not None:
        cycle_witness = "skipped: per-color incidence ill-defined"
    elif parallel is not None or not _four_cycles_close(graph):
        try:  # the walker names the first color pair and start that fails
            for first, second in combinations(range(1, n + 1), 2):
                _walk_four_cycles(graph, first, second, range(graph.vertex_count))
        except ValueError as exc:
            cycle_witness = str(exc)
    checks.append(AxiomCheck("2-colored subgraphs are unions of 4-cycles",
                             not cycle_witness, cycle_witness))

    return ValidationReport(tuple(checks), graph.is_connected())


def default_ranking(graph: Chromotopology) -> Ranking:
    """Rank by graph distance from the zero coset.

    For cube quotients this is the minimal Hamming weight over the coset
    (equal to # of 1's in a weight-minimal representative), which keeps
    every edge a unit step.  Raises when the parity of the distance
    disagrees with the stored bipartition (odd codes).
    """
    start = graph.vertex_index.get(0, 0)
    dist = [-1] * graph.vertex_count
    dist[start] = 0
    queue = deque([start])
    adj: list[list[int]] = [[] for _ in graph.vertices]
    for u, v, _c in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    if min(dist) < 0:
        raise ValueError("graph is disconnected: ranking undefined")
    for i, d in enumerate(dist):
        if d & 1 != graph.bipartition[i]:
            raise ValueError(
                f"bipartition inconsistency at vertex {i}: distance {d} vs "
                f"class {graph.bipartition[i]} (odd code?)"
            )
    return Ranking(tuple(dist))


def validate_ranking(graph: Chromotopology, ranking: Ranking) -> list[str]:
    """Issues with a ranking: parity per class, |dh| = 1 across edges."""
    issues = []
    for i, h in enumerate(ranking.values):
        if h & 1 != graph.bipartition[i]:
            issues.append(f"vertex {i}: rank {h} parity mismatches class {graph.bipartition[i]}")
    for u, v, c in graph.edges:
        if abs(ranking.values[u] - ranking.values[v]) != 1:
            issues.append(f"edge ({u},{v},{c}): rank step {ranking.values[u]}->{ranking.values[v]}")
    return issues


def _check_faces(graph: Chromotopology, faces: Sequence[Face]) -> None:
    for f in faces:
        for e in f.edge_indices:
            if not 0 <= e < graph.edge_count:
                raise ValueError(f"face references missing edge {e}")


def well_dashed(graph: Chromotopology, faces: Sequence[Face], dashing: Dashing) -> bool:
    """True iff every given 2-colored 4-cycle has an odd number of dashes."""
    _check_faces(graph, faces)
    mask = dashing.mask
    return all((mask & f.edge_mask).bit_count() & 1 for f in faces)


def vertex_change(graph: Chromotopology, dashing: Dashing, v: Hashable) -> Dashing:
    """Flip the dash bit of every edge incident to the vertex labelled v."""
    if v not in graph.vertex_index:
        raise ValueError(f"unknown vertex {v!r}")
    m = graph.incident_edge_masks[graph.vertex_index[v]]
    return Dashing.from_mask(dashing.mask ^ m, graph.edge_count)


def dashing_class(graph: Chromotopology, dashing: Dashing) -> int:
    """Canonical identifier of the vertex-change equivalence class.

    Two dashings are equivalent iff their XOR lies in the GF(2) span of
    the vertex-change masks; the identifier is the residue of the dashing
    mask after reduction by that span (membership in the incidence image,
    not a BFS over moves).
    """
    return GF2System(graph.incident_edge_masks).reduce(dashing.mask)


def dimer_from_color(graph: Chromotopology, color: int) -> tuple[int, ...]:
    """Edges of one color as a perfect matching (validated)."""
    edges = graph.edges_of_color(color)
    touched = Counter()
    for e in edges:
        u, v, _c = graph.edges[e]
        touched[u] += 1
        touched[v] += 1
    if set(touched) != set(range(graph.vertex_count)) or set(touched.values()) != {1}:
        raise ValueError(f"color {color} edges are not a perfect matching")
    return tuple(edges)


def kasteleyn_parities(graph: Chromotopology, faces: Sequence[Face]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(base opposition parity, edge mask) per face for the solid orientation.

    The solid (all-boson-to-fermion) orientation opposes some number of
    edges on each stored face cycle; dashing an edge toggles its direction,
    so the Kasteleyn parity of a dashing mask d on face f is
    ``base[f] ^ popcount(d & mask[f])``.
    """
    _check_faces(graph, faces)
    base = []
    masks = []
    heads_solid = _heads(graph, Dashing.solid(graph.edge_count))
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


def _heads(graph: Chromotopology, dashing: Dashing) -> tuple[int, ...]:
    heads = []
    for e, (u, v, _c) in enumerate(graph.edges):
        bu, bv = graph.bipartition[u], graph.bipartition[v]
        if bu == bv:
            raise ValueError(f"edge ({u},{v}) does not cross the bipartition")
        head = v if bv == FERMION else u
        if dashing.bits[e]:
            head = u if head == v else v
        heads.append(head)
    return tuple(heads)


def dashing_to_kasteleyn(
    graph: Chromotopology, faces: Sequence[Face], dashing: Dashing
) -> tuple[Orientation, bool]:
    """Orientation induced by a dashing, plus the Kasteleyn predicate.

    Fixed map: orient boson -> fermion, reversed iff the edge is dashed.
    ``kasteleyn_ok`` is true iff every face, traversed in its stored cyclic
    order, opposes an odd number of edge directions.
    """
    if not faces:
        raise ValueError("no faces supplied")
    _check_faces(graph, faces)
    heads = _heads(graph, dashing)
    ok = True
    for f in faces:
        opp = 0
        for j in range(4):
            if heads[f.edge_indices[j]] == f.vertices[j]:
                opp ^= 1
        if not opp:
            ok = False
            break
    return Orientation(heads), ok


def well_dashed_masks(graph: Chromotopology, faces: Sequence[Face] | None = None) -> list[int]:
    """All well-dashed masks, ascending: the particular solution plus the
    nullspace span of the face system (refused above DASH_ENUMERATION_LIMIT
    masks)."""
    if faces is None:
        faces = two_colored_four_cycles(graph)
    solution = GF2System((f.edge_mask for f in faces), rhs=1).solve(graph.edge_count)
    if solution is None:
        return []
    particular, nullspace = solution
    if (1 << len(nullspace)) > DASH_ENUMERATION_LIMIT:
        raise ResourceBoundError(
            f"2^{len(nullspace)} well-dashed masks exceed the listing gate "
            f"({DASH_ENUMERATION_LIMIT}); use count_well_dashed_exact"
        )
    masks = [particular]
    for v in nullspace:
        masks += [m ^ v for m in masks]
    return sorted(masks)


def count_well_dashed_exact(graph: Chromotopology, faces: Sequence[Face] | None = None) -> int:
    """Exact well-dashed count by solving the odd-parity system over GF(2).

    The constraints ``popcount(d & face) odd`` are affine; the count is
    2^(E - rank) when consistent, 0 otherwise.  No enumeration, so this
    works beyond the listing gate (e.g. 2^31 masks on the 80-edge 5-cube).
    """
    if faces is None:
        faces = two_colored_four_cycles(graph)
    system = GF2System((f.edge_mask for f in faces), rhs=1)
    return 1 << (graph.edge_count - system.rank) if system.consistent else 0


def well_dashed_class_ids(graph: Chromotopology, faces: Sequence[Face] | None = None) -> dict[int, int]:
    """Map vertex-change class id -> count over all well-dashed dashings.

    With ``faces`` = the embedded (consecutively colored) 2-cells, the
    classes are the spin structures of the surface, 2^(2g) of them; the
    default (every 2-colored 4-cycle) is the strict well-dashed notion.
    Reduction modulo the cut space is linear, so the ids are
    reduce(particular) + span(reduced nullspace basis), each class of
    2^(nullity - rank of the reduced basis) members; no mask is listed.
    """
    if faces is None:
        faces = two_colored_four_cycles(graph)
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


def graph_to_json(graph: Chromotopology, dashing: Dashing | None = None) -> dict:
    d = dashing.bits if dashing is not None else (0,) * graph.edge_count
    obj = {
        "n": graph.n_colors,
        "vertices": list(graph.label_texts()),
        "edges": [
            {"u": u, "v": v, "color": c, "dash": d[e]}
            for e, (u, v, c) in enumerate(graph.edges)
        ],
        "bipartition": list(graph.bipartition),
    }
    if graph.warnings:
        obj["warnings"] = list(graph.warnings)
    return obj


def graph_from_json(obj: dict) -> tuple[Chromotopology, Dashing]:
    edges = tuple((int(e["u"]), int(e["v"]), int(e["color"])) for e in obj["edges"])
    graph = Chromotopology(
        int(obj["n"]),
        tuple(obj["vertices"]),
        edges,
        tuple(int(b) for b in obj["bipartition"]),
        tuple(obj.get("warnings", ())),
    )
    dashing = Dashing(tuple(int(e["dash"]) for e in obj["edges"]))
    return graph, dashing
