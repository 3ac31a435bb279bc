"""Adinkra chromotopologies: code quotients, rankings, dashings, dimers,
Kasteleyn orientations.

A chromotopology is an N-regular bipartite graph with edges colored by
1..N, one edge of each color per vertex, and every 2-colored subgraph a
disjoint union of 4-cycles.  Quotients of the N-cube by a binary code are
built with :func:`build_quotient`; validation is report-style, never an
exception, so the code-property iff statements stay testable.

Dashings are stored per edge index; exhaustive sweeps work on int bitmasks
over edge indices (bit e = edge ``graph.edges[e]`` dashed).

A face set is one :class:`Faces` record of index arrays, one row per
2-colored 4-cycle: ``vertices`` (F, 4), ``edges`` (F, 4) and ``colors``
(F, 2).  The walker fills it, and the dashing and Kasteleyn checks read it
by gathers; the GF(2) counts turn each row into one edge mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Hashable, Iterable, Sequence

import numpy as np

from .codes import BinaryCode, _coset_table, analyze_code, format_word
from .errors import ResourceBoundError
from .gf2 import GF2System
from .perms import component_labels, json_int

BOSON, FERMION = 0, 1

# dtype of the index arrays that graphs and surfaces keep: half the memory
# of intp, and V * N stays far below 2^31 for any graph held in memory
INDEX = np.int32

# well_dashed_masks and well_dashed_class_ids refuse to list more entries than this
DASH_ENUMERATION_LIMIT = 1 << 20


def _int_objects(size: int) -> np.ndarray:
    """range(size) as an object array.  Lists gathered from it share one int
    object per index, where ``tolist`` on an int array makes one per entry,
    so the faces of a surface's JSON and the edges of a graph's hold one
    int per vertex."""
    return np.arange(size).astype(object)


def label_text(label: Hashable, n_colors: int) -> str:
    """Render a vertex label: ints as bit-strings, product labels nested."""
    if isinstance(label, int):
        return format_word(label, n_colors)
    if isinstance(label, tuple):
        return "(" + ",".join(str(part) for part in label) + ")"
    return str(label)


def _holds_bool(rows) -> bool:
    """Whether a nested sequence that numpy read as integers holds a bool
    (``(0, 2, True)`` is an int array); an array is taken as it is."""
    return not isinstance(rows, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for x in np.asarray(rows, dtype=object).ravel())


@dataclass(frozen=True, eq=False)
class Chromotopology:
    """Colored bipartite graph skeleton of an Adinkra.

    ``vertices`` hold opaque labels (ints for code quotients, pairs for
    products, strings after JSON ingestion); ``edges`` is a read-only (E, 3)
    ``INDEX`` array of (u, v, color) over vertex indices, and
    ``bipartition`` a read-only (V,) ``INDEX`` array of vertex classes 0
    and 1, both converted once from any sequence of integers.  As arrays they leave
    equality to identity; compare them with ``np.array_equal``.
    ``warnings`` carries construction-time defect notes (loops, parallel
    edges, non-doubly-even code), never validation results.

    ``slot_table`` is the per-(vertex, color) incidence as three (V, N)
    arrays, indexed by ``[v, color - 1]``: the other endpoint, the edge
    index, and the count of such edges, scattered from ``edges``.  A loop
    counts once; where the count is not 1 the first two hold the
    lowest-indexed such edge, or -1 when there is none.
    """

    n_colors: int
    vertices: tuple[Hashable, ...]
    edges: np.ndarray
    bipartition: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.bipartition) != len(self.vertices):
            raise ValueError("bipartition length mismatch")
        arrays = {}
        for name, shape in (("edges", (len(self.edges), 3)), ("bipartition", (len(self.vertices),))):
            given = getattr(self, name)
            value = np.asarray(given)
            if value.size and (value.dtype.kind not in "iu" or value.shape != shape
                               or (name == "edges" and _holds_bool(given))):
                raise ValueError(f"{name} must be integers of shape {shape}")
            arrays[name] = value.reshape(shape)
        us, vs, cs = arrays["edges"].T
        vcount = len(self.vertices)
        missing = (us < 0) | (us >= vcount) | (vs < 0) | (vs >= vcount)
        bad = np.flatnonzero(missing | (cs < 1) | (cs > self.n_colors))
        if bad.size:  # name the first offending edge
            u, v, c = arrays["edges"][bad[0]].tolist()
            if missing[bad[0]]:
                raise ValueError(f"edge ({u},{v}) references missing vertex")
            raise ValueError(f"edge color {c} out of range 1..{self.n_colors}")
        if np.count_nonzero(arrays["bipartition"] >> 1):
            raise ValueError("bipartition classes must be 0 or 1")
        for name, value in arrays.items():  # checked in range, so the cast is exact
            value = value.astype(INDEX)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

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
    def slot_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(other endpoint, edge index, edge count), each indexed ``[v, color - 1]``."""
        n, size = self.n_colors, self.vertex_count * self.n_colors
        us, vs, cs = self.edges.T
        # the slots of both ends, edge by edge; a loop's second end goes to
        # the spare slot ``size``, so that a loop counts once
        keys = np.stack((us * n + cs - 1, vs * n + cs - 1), axis=1).ravel()
        keys[1::2][us == vs] = size
        count = np.bincount(keys, minlength=size + 1)[:size].astype(INDEX)
        # a stable sort keeps each slot's ends in edge order: the first is
        # the lowest edge index (a plain scatter's winner is unspecified)
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        filled, end = ranked[first], order[first]
        edge = np.full(size + 1, -1, dtype=INDEX)
        other = np.full(size + 1, -1, dtype=INDEX)
        edge[filled] = end >> 1
        other[filled] = self.edges[end >> 1, 1 - end % 2]
        shape = (self.vertex_count, n)
        return other[:size].reshape(shape), edge[:size].reshape(shape), count.reshape(shape)

    @cached_property
    def incident_edge_masks(self) -> tuple[int, ...]:
        """Per vertex, the int mask of its edges, set byte by byte."""
        e = np.arange(self.edge_count)
        bits = (1 << (e & 7)).astype(np.uint8)
        table = np.zeros((self.vertex_count, -(-self.edge_count // 8)), dtype=np.uint8)
        for ends in self.edges[:, :2].T:
            np.bitwise_or.at(table, (ends, e >> 3), bits)
        return tuple(int.from_bytes(row.tobytes(), "little") for row in table)

    def slot(self, v: int, color: int) -> tuple[int, int]:
        """(edge index, other endpoint) of the unique color edge at vertex
        index v; raises if not unique."""
        other, edge, count = self.slot_table
        k = int(count[v, color - 1]) if 1 <= color <= self.n_colors else 0
        if k != 1:
            raise ValueError(f"vertex {v} has {k} edges of color {color}")
        return int(edge[v, color - 1]), int(other[v, color - 1])

    def edges_of_color(self, color: int) -> list[int]:
        if not 1 <= color <= self.n_colors:
            raise ValueError(f"color {color} out of range 1..{self.n_colors}")
        return np.flatnonzero(self.edges[:, 2] == color).tolist()

    @cached_property
    def component_count(self) -> int:
        """Connected components, as the roots of ``perms.component_labels``."""
        roots = component_labels(*self.edges[:, :2].T, self.vertex_count)
        return int(np.count_nonzero(roots == np.arange(self.vertex_count)))

    def is_connected(self) -> bool:
        return self.component_count <= 1


@dataclass(frozen=True)
class Ranking:
    """Integer height per vertex index (bosons even, fermions odd)."""

    values: tuple[int, ...]


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


@dataclass(frozen=True, eq=False)
class Faces:
    """2-colored 4-cycles with a stored cyclic orientation, as index arrays.

    Row f is one face: ``vertices[f, j]`` to ``vertices[f, j + 1]`` (j mod
    4) runs along ``edges[f, j]``, and edge colors alternate ``colors[f,
    0]``, ``colors[f, 1]``, first step on ``colors[f, 0]``.  ``vertices``
    and ``edges`` are (F, 4), ``colors`` (F, 2).  Strict faces
    (:func:`two_colored_four_cycles`) start at the lowest vertex index on
    the cycle; surface faces (``embedding.attach_faces``) start at the
    smaller fermion, with the first step on the family color.
    """

    vertices: np.ndarray
    edges: np.ndarray
    colors: np.ndarray

    def __len__(self) -> int:
        return len(self.vertices)


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
    # end of a loop): (color, u, v) order by construction
    cosets = np.arange(len(reps), dtype=INDEX)
    parts = []
    for color, step in enumerate(units, start=1):
        lower = cosets[(cosets & (1 << step.bit_length() >> 1)) == 0]
        parts.append(np.stack((lower, lower ^ step, np.full_like(lower, color)), axis=1))
    edges = np.concatenate(parts)
    us, vs, cs = edges.T

    # a loop of color i needs e_i in the code, and two colors i, j joining
    # the same pair need e_i + e_j: scan only for defects the weights allow
    weights = report.weight_distribution
    if 1 in weights:
        loops = np.flatnonzero(us == vs)
        warnings += [f"loop: color {color} fixes coset {format_word(reps[u], n)}"
                     for u, color in edges[loops[np.lexsort((cs[loops], us[loops]))], ::2].tolist()]
    if 2 in weights:
        keys, counts = np.unique(us.astype(np.intp) * len(reps) + vs, return_counts=True)
        for key, cnt in zip(keys.tolist(), counts.tolist()):
            u, v = divmod(key, len(reps))
            if cnt > 1 and u != v:
                warnings.append(
                    f"parallel edges: {cnt} colors join {format_word(reps[u], n)} "
                    f"and {format_word(reps[v], n)}"
                )

    bipartition = [r.bit_count() & 1 for r in reps]
    return Chromotopology(n, tuple(reps), edges, bipartition, tuple(warnings))


# starts x pairs walked in one array pass: each temporary array of a walk
# over all color pairs stays near 128 KiB
_WALK_CELLS = 1 << 14


def _walk_four_cycles(
    graph: Chromotopology, pairs: Sequence[tuple[int, int]], starts: np.ndarray,
    cycles: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Cycles of the {first, second}-colored subgraph for each (first,
    second) in ``pairs``, walked from all of ``starts`` (ascending,
    distinct vertex indices) by four gathers, first step along ``first``.

    Returns (pair index, vertices, edge indices) of each cycle, pair by
    pair and by start within a pair, as (F,), (F, 4) and (F, 4) arrays;
    edge j runs from vertex j to vertex j + 1.  Each cycle is kept at its
    first start.  Raises ValueError for the first pair, and in it the
    first start, whose walk fails and lies on no cycle of an earlier start:
    with :meth:`Chromotopology.slot`'s message for the first step with no
    unique edge, else with a witness that the walk does not close.  With
    ``cycles=False`` it only checks, and returns None.
    """
    n = graph.n_colors
    pairs, starts = list(pairs), np.asarray(starts, dtype=np.intp)
    bad = next((p for p, (i, j) in enumerate(pairs) if not (1 <= i <= n and 1 <= j <= n)),
               len(pairs))
    loops = bool(np.count_nonzero(graph.edges[:, 0] == graph.edges[:, 1]))
    count = graph.slot_table[2]
    unique = count == 1 if np.count_nonzero(count != 1) else None
    width = max(1, _WALK_CELLS // max(len(starts), 1))
    parts = [(np.zeros(0, dtype=np.intp),) + (np.zeros((0, 4), dtype=INDEX),) * 2]
    for p in range(0, bad, width):
        walked = _walk_pairs(graph, pairs[p:min(p + width, bad)], starts, loops, unique, cycles)
        if cycles:
            pair, quads, edges = walked
            parts.append((pair + p, quads, edges))
    if bad < len(pairs) and len(starts):  # the first step onto the missing color raises
        first, second = pairs[bad]
        graph.slot(graph.slot(int(starts[0]), first)[1], second)
    return tuple(np.concatenate(part) for part in zip(*parts)) if cycles else None


def _walk_pairs(
    graph: Chromotopology, pairs: list[tuple[int, int]], starts: np.ndarray,
    loops: bool, unique: np.ndarray | None, cycles: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One array pass of :func:`_walk_four_cycles`: (K, P) walks.
    ``loops`` tells whether the graph has a loop, ``unique`` marks the
    slots of count 1 (None when all are)."""
    other, edge, _count = graph.slot_table
    a = np.array([i for i, _j in pairs], dtype=np.intp) - 1
    b = np.array([j for _i, j in pairs], dtype=np.intp) - 1
    # past an empty slot -1 reads the last vertex's slots, and such a walk
    # is reported at its first bad slot, never past it
    v0 = np.broadcast_to(starts[:, None], (len(starts), len(pairs)))
    v1 = other[v0, a]
    v2 = other[v1, b]
    v3 = other[v2, a]
    back = other[v3, b]
    # back at v0 with v1 == v3 puts v2 at v0 too; with no loop, steps on
    # unique slots join distinct vertices, and v3 != v0 once back is v0
    fails = (back != v0) | (v0 == v2)
    if loops:
        fails |= (v0 == v1) | (v1 == v2) | (v2 == v3) | (v3 == v0)
    if unique is not None:
        fails |= ~(unique[v0, a] & unique[v1, b] & unique[v2, a] & unique[v3, b])
    if not (cycles or np.count_nonzero(fails)):
        return None
    # a closed walk shares no vertex with another unless both walk the same
    # cycle, so a cycle's first start is the one whose cycle holds no
    # earlier start that closes
    col = np.arange(len(pairs))
    closes = np.zeros((graph.vertex_count, len(pairs)), dtype=bool)
    closes[starts] = ~fails
    kept = ~fails
    for v in (v1, v2, v3):
        kept &= ~(closes[v, col] & (v < v0))
    if np.count_nonzero(fails):
        # a failing start is skipped when a kept cycle of an earlier start holds it
        first_start = np.full(closes.shape, graph.vertex_count)
        row, c = np.nonzero(kept)
        for v in (v0, v1, v2, v3):
            first_start[v[row, c], c] = starts[row]
        raised = fails & (first_start[starts] >= v0)
        if np.count_nonzero(raised):
            c, row = (int(x[0]) for x in np.nonzero(raised.T))
            first, second = pairs[c]
            quad = tuple(int(v[row, c]) for v in (v0, v1, v2, v3))
            for v, color in zip(quad, (first, second, first, second)):
                graph.slot(v, color)
            raise ValueError(
                f"colors ({first},{second}) do not close a 4-cycle at vertex {quad[0]}: "
                f"walk {quad} returns to {int(back[row, c])}"
            )
    if not cycles:
        return None
    c, row = np.nonzero(kept.T)
    quad = [v[row, c] for v in (v0, v1, v2, v3)]
    colors = (a[c], b[c], a[c], b[c])
    return (c, np.stack(quad, axis=1).astype(INDEX),
            np.stack([edge[v, k] for v, k in zip(quad, colors)], axis=1))


def two_colored_four_cycles(
    graph: Chromotopology, pairs: Iterable[tuple[int, int]] | None = None
) -> Faces:
    """All 2-colored 4-cycles, one face per cycle per color pair, each
    starting at its lowest vertex index.

    ``pairs`` defaults to every unordered color pair {i, j}; the
    well-dashed predicate quantifies over exactly these.
    """
    if pairs is None:
        pairs = combinations(range(1, graph.n_colors + 1), 2)
    pairs = list(pairs)
    pair, quads, edges = _walk_four_cycles(graph, pairs, np.arange(graph.vertex_count))
    return Faces(quads, edges, np.array(pairs, dtype=INDEX).reshape(-1, 2)[pair])


def validate_chromotopology(graph: Chromotopology) -> ValidationReport:
    """Check the chromotopology axioms, reporting witnesses for failures.

    The per-edge checks compare the columns of ``edges`` and name the
    first edge (or least vertex pair) that fails; the 4-cycle axiom is one
    walk of every color pair from every vertex on the slot arrays.
    """
    checks = []
    n, vcount = graph.n_colors, graph.vertex_count
    us, vs, _cs = graph.edges.T

    is_loop = us == vs
    loops = np.flatnonzero(is_loop)
    loop = int(loops[0]) if loops.size else None
    checks.append(AxiomCheck(
        "simple: no loops", loop is None,
        "" if loop is None else f"edge {loop} loops at vertex {us[loop]}"))

    # (u, v) pairs as ints u * V + v (in intp: V^2 passes 2^31 at N = 16),
    # sorted: the least repeated one is the witness
    keys = (us.astype(np.intp) * vcount + vs)[~is_loop]
    keys = keys[np.argsort(keys, kind="stable")]
    repeated = keys[1:][keys[1:] == keys[:-1]]
    parallel = None
    if repeated.size:
        key = int(repeated[0])
        parallel = ((key // vcount, key % vcount), int(np.count_nonzero(keys == key)))
    checks.append(AxiomCheck(
        "simple: no parallel edges", parallel is None,
        "" if parallel is None else f"vertices {parallel[0]} joined by {parallel[1]} edges"))

    count = graph.slot_table[2].ravel()
    wrong = np.flatnonzero(count != 1)
    bad = int(wrong[0]) if wrong.size else None

    # one loop-free edge in each of the N slots of every vertex is degree N
    bad_deg = None
    if bad is not None or loop is not None:
        degrees = np.bincount(us, minlength=vcount) + np.bincount(vs, minlength=vcount)
        off = np.flatnonzero(degrees != n)
        bad_deg = (int(off[0]), int(degrees[off[0]])) if off.size else None
    checks.append(AxiomCheck(
        f"{n}-regular", bad_deg is None,
        "" if bad_deg is None else f"vertex {bad_deg[0]} has degree {bad_deg[1]}"))

    side = graph.bipartition
    same = np.flatnonzero(side[us] == side[vs])
    cross = tuple(graph.edges[same[0], :2].tolist()) if same.size else None
    checks.append(AxiomCheck(
        "bipartite: edges cross the bipartition", cross is None,
        "" if cross is None else f"edge {cross} joins same-class vertices"))

    checks.append(AxiomCheck(
        "one edge of each color per vertex", bad is None,
        "" if bad is None else
        f"vertex {bad // n} has {int(count[bad])} edges of color {bad % n + 1}"))

    cycle_witness = ""
    if bad is not None or loop is not None:
        cycle_witness = "skipped: per-color incidence ill-defined"
    else:
        try:  # the walker names the first color pair and start that fails
            _walk_four_cycles(graph, combinations(range(1, n + 1), 2),
                              np.arange(graph.vertex_count), cycles=False)
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
    # breadth first, one level per pass over the edges read both ways
    tails, heads = np.concatenate((graph.edges[:, :2], graph.edges[:, 1::-1])).T
    dist = np.full(graph.vertex_count, -1)
    dist[start] = 0
    level = 0
    while (reach := heads[dist[tails] == level]).size:
        level += 1
        dist[reach[dist[reach] < 0]] = level
    if np.count_nonzero(dist < 0):
        raise ValueError("graph is disconnected: ranking undefined")
    wrong = np.flatnonzero(dist % 2 != graph.bipartition)
    if wrong.size:
        i = int(wrong[0])
        raise ValueError(
            f"bipartition inconsistency at vertex {i}: distance {dist[i]} vs "
            f"class {graph.bipartition[i]} (odd code?)"
        )
    return Ranking(tuple(dist.tolist()))


def _check_faces(graph: Chromotopology, faces: Faces) -> None:
    edges = faces.edges.ravel()
    if edges.size and not (0 <= edges.min() and edges.max() < graph.edge_count):
        bad = np.flatnonzero((edges < 0) | (edges >= graph.edge_count))[0]
        raise ValueError(f"face references missing edge {edges[bad]}")


def _check_dashing(graph: Chromotopology, dashing: Dashing) -> None:
    if len(dashing) != graph.edge_count:
        raise ValueError(f"dashing has {len(dashing)} bits, graph has {graph.edge_count} edges")


def well_dashed(graph: Chromotopology, faces: Faces, dashing: Dashing) -> bool:
    """True iff every given 2-colored 4-cycle has an odd number of dashes."""
    _check_faces(graph, faces)
    _check_dashing(graph, dashing)
    dashes = np.array(dashing.bits, dtype=bool)[faces.edges]
    return bool(np.all(np.count_nonzero(dashes, axis=1) % 2))


def vertex_change(graph: Chromotopology, dashing: Dashing, v: Hashable) -> Dashing:
    """Flip the dash bit of every edge incident to the vertex labelled v."""
    _check_dashing(graph, dashing)
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
    _check_dashing(graph, dashing)
    return GF2System(graph.incident_edge_masks).reduce(dashing.mask)


def dimer_from_color(graph: Chromotopology, color: int) -> tuple[int, ...]:
    """Edges of one color as a perfect matching (validated)."""
    edges = graph.edges_of_color(color)
    touched = np.bincount(graph.edges[edges, :2].ravel(), minlength=graph.vertex_count)
    if np.count_nonzero(touched != 1) or not touched.size:
        raise ValueError(f"color {color} edges are not a perfect matching")
    return tuple(edges)


def _heads(graph: Chromotopology, dashing: Dashing) -> np.ndarray:
    """Head vertex per edge: the fermion end, the other end where dashed."""
    us, vs, _cs = graph.edges.T
    side = graph.bipartition
    same = np.flatnonzero(side[us] == side[vs])
    if same.size:
        u, v, _c = graph.edges[same[0]].tolist()
        raise ValueError(f"edge ({u},{v}) does not cross the bipartition")
    return np.where((side[vs] == FERMION) != np.array(dashing.bits, dtype=bool), vs, us)


def _opposed(heads: np.ndarray, faces: Faces) -> np.ndarray:
    """Per face, the parity of its edges that point against the stored
    cycle: the head is the vertex the cycle steps from."""
    return np.count_nonzero(heads[faces.edges] == faces.vertices, axis=1) % 2


def kasteleyn_parities(graph: Chromotopology, faces: Faces) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(base opposition parity, edge mask) per face for the solid orientation.

    The solid (all-boson-to-fermion) orientation opposes some number of
    edges on each stored face cycle; dashing an edge toggles its direction,
    so the Kasteleyn parity of a dashing mask d on face f is
    ``base[f] ^ popcount(d & mask[f])``.
    """
    _check_faces(graph, faces)
    base = _opposed(_heads(graph, Dashing.solid(graph.edge_count)), faces)
    return tuple(base.tolist()), tuple(_edge_masks(faces))


def dashing_to_kasteleyn(
    graph: Chromotopology, faces: Faces, dashing: Dashing
) -> tuple[Orientation, bool]:
    """Orientation induced by a dashing, plus the Kasteleyn predicate.

    Fixed map: orient boson -> fermion, reversed iff the edge is dashed.
    ``kasteleyn_ok`` is true iff every face, traversed in its stored cyclic
    order, opposes an odd number of edge directions.
    """
    if not faces:
        raise ValueError("no faces supplied")
    _check_faces(graph, faces)
    _check_dashing(graph, dashing)
    heads = _heads(graph, dashing)
    return Orientation(tuple(heads.tolist())), bool(np.all(_opposed(heads, faces)))


def _edge_masks(faces: Faces) -> Iterable[int]:
    """One int mask per face, bit e set for each of its edges."""
    return ((1 << a) | (1 << b) | (1 << c) | (1 << d) for a, b, c, d in faces.edges.tolist())


def _odd_face_system(graph: Chromotopology, faces: Faces | None) -> GF2System:
    """The affine system ``popcount(d & face) = 1`` over ``faces``, by
    default the strict ones."""
    if faces is None:
        faces = two_colored_four_cycles(graph)
    _check_faces(graph, faces)
    return GF2System(_edge_masks(faces), rhs=1)


def well_dashed_masks(graph: Chromotopology, faces: Faces | None = None) -> list[int]:
    """All well-dashed masks, ascending: the particular solution plus the
    nullspace span of the face system (refused above DASH_ENUMERATION_LIMIT
    masks)."""
    solution = _odd_face_system(graph, faces).solve(graph.edge_count)
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


def count_well_dashed_exact(graph: Chromotopology, faces: Faces | None = None) -> int:
    """Exact well-dashed count by solving the odd-parity system over GF(2).

    The constraints ``popcount(d & face) odd`` are affine; the count is
    2^(E - rank) when consistent, 0 otherwise.  No enumeration, so this
    works beyond the listing gate (e.g. 2^31 masks on the 80-edge 5-cube).
    """
    system = _odd_face_system(graph, faces)
    return 1 << (graph.edge_count - system.rank) if system.consistent else 0


def well_dashed_class_ids(graph: Chromotopology, faces: Faces | None = None) -> dict[int, int]:
    """Map vertex-change class id -> count over all well-dashed dashings.

    With ``faces`` = the embedded (consecutively colored) 2-cells, the
    classes are the spin structures of the surface, 2^(2g) of them; the
    default (every 2-colored 4-cycle) is the strict well-dashed notion.
    Reduction modulo the cut space is linear, so the ids are
    reduce(particular) + span(reduced nullspace basis), each class of
    2^(nullity - rank of the reduced basis) members; no mask is listed.
    More than DASH_ENUMERATION_LIMIT ids are refused before any is listed.
    """
    solution = _odd_face_system(graph, faces).solve(graph.edge_count)
    if solution is None:
        return {}
    particular, nullspace = solution
    cut = GF2System(graph.incident_edge_masks)
    span = GF2System()
    basis = [r for r in map(cut.reduce, nullspace) if span.insert(r)]
    if (1 << span.rank) > DASH_ENUMERATION_LIMIT:
        raise ResourceBoundError(
            f"2^{span.rank} vertex-change classes exceed the listing gate "
            f"({DASH_ENUMERATION_LIMIT}); use count_well_dashed_exact"
        )
    ids = [cut.reduce(particular)]
    for r in basis:
        ids += [x ^ r for x in ids]
    return dict.fromkeys(sorted(ids), 1 << (len(nullspace) - span.rank))


def graph_to_json(graph: Chromotopology, dashing: Dashing | None = None) -> dict:
    if dashing is None:
        dashing = Dashing.solid(graph.edge_count)
    _check_dashing(graph, dashing)
    # one int object per vertex, shared by every edge at it
    us, vs = _int_objects(graph.vertex_count)[graph.edges[:, :2].T].tolist()
    obj = {
        "n": graph.n_colors,
        "vertices": [label_text(label, graph.n_colors) for label in graph.vertices],
        "edges": [
            {"u": u, "v": v, "color": c, "dash": d}
            for u, v, c, d in zip(us, vs, graph.edges[:, 2].tolist(), dashing.bits)
        ],
        "bipartition": graph.bipartition.tolist(),
    }
    if graph.warnings:
        obj["warnings"] = list(graph.warnings)
    return obj


def graph_from_json(obj: dict) -> tuple[Chromotopology, Dashing]:
    """The graph and dashing of ``graph_to_json``, every integer field read
    by ``perms.json_int`` (a ValueError names the entry that is not one)."""
    rows = obj["edges"]
    edges = [[json_int(e[key], f"edges[{i}].{key}") for key in ("u", "v", "color")]
             for i, e in enumerate(rows)]
    graph = Chromotopology(
        json_int(obj["n"], "n"),
        tuple(obj["vertices"]),
        edges,
        [json_int(b, f"bipartition[{i}]") for i, b in enumerate(obj["bipartition"])],
        tuple(obj.get("warnings", ())),
    )
    dashing = Dashing(tuple(json_int(e["dash"], f"edges[{i}].dash") for i, e in enumerate(rows)))
    return graph, dashing
