"""Origami (square-tiled surface) graphs: validation, monodromy, genus,
and the exact count 2^E of an Adinkra's embeddings in its doubled-edge
M-origami curve.

An origami graph is a finite directed multigraph with edges labeled x or y
such that every vertex has exactly one outgoing and one incoming edge of
each label; equivalently a pair of permutations (sigma_x, sigma_y) of the
squares, up to simultaneous conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import perms
from .adinkra import INDEX, Chromotopology, _int_objects
from .perms import component_labels, inverse, permutation

LabeledEdge = tuple[int, int, str]  # (tail, head, "x"|"y"); parallel edges allowed


@dataclass(frozen=True)
class OrigamiGraph:
    """Directed labeled multigraph on d vertices (squares)."""

    d: int
    edges: tuple[LabeledEdge, ...]

    def __post_init__(self):
        if not self.edges:
            return
        us, vs, labs = zip(*self.edges)
        if (labs.count("x") + labs.count("y") == len(labs) and 0 <= min(us) and 0 <= min(vs)
                and max(us) < self.d and max(vs) < self.d):
            return
        for u, v, lab in self.edges:  # name the first offending edge
            if lab not in ("x", "y"):
                raise ValueError(f"edge label {lab!r} must be 'x' or 'y'")
            if not (0 <= u < self.d and 0 <= v < self.d):
                raise ValueError(f"edge ({u},{v}) references missing vertex")

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tails, heads, is x) as arrays over the edges."""
        us, vs, labs = zip(*self.edges) if self.edges else ((), (), ())
        e = len(self.edges)
        # the labels are one character each, "x" or "y"
        return (np.fromiter(us, INDEX, e), np.fromiter(vs, INDEX, e),
                np.frombuffer("".join(labs).encode(), dtype=np.uint8) == ord("x"))


@dataclass(frozen=True)
class Monodromy:
    """Permutation pair on 0-based squares; sigma[i] is the image of i."""

    sigma_x: tuple[int, ...]
    sigma_y: tuple[int, ...]

    def __post_init__(self):
        d = len(self.sigma_x)
        if len(self.sigma_y) != d:
            raise ValueError("sigma_x and sigma_y act on different sets")
        if d:  # the empty pair stays: validation reports it as no squares
            permutation(self.sigma_x, d, "sigma_x")
            permutation(self.sigma_y, d, "sigma_y")

    @property
    def degree(self) -> int:
        return len(self.sigma_x)

    def to_json(self) -> dict:
        return {
            "d": self.degree,
            "sigma_x": [i + 1 for i in self.sigma_x],
            "sigma_y": [i + 1 for i in self.sigma_y],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Monodromy":
        d = int(obj["d"])
        sx, sy = (perms.one_based(obj[name], name) for name in ("sigma_x", "sigma_y"))
        if len(sx) != d or len(sy) != d:
            raise ValueError("permutation arrays do not match d")
        return cls(tuple(sx.tolist()), tuple(sy.tolist()))


@dataclass(frozen=True)
class OrigamiReport:
    ok: bool
    issues: tuple[str, ...]
    connected: bool

    def to_json(self) -> dict:
        return {"ok": self.ok, "connected": self.connected, "issues": list(self.issues)}


_COUNT_NAMES = ("outgoing x", "outgoing y", "incoming x", "incoming y")


def _label_counts(graph: OrigamiGraph) -> np.ndarray:
    """(d, 4) counts per vertex, in the order of ``_COUNT_NAMES``."""
    tails, heads, is_x = graph.edge_arrays
    return np.stack([np.bincount(ends[label], minlength=graph.d)
                     for ends in (tails, heads) for label in (is_x, ~is_x)], axis=1)


def _reached(graph: OrigamiGraph) -> int:
    """How many vertices vertex 0 reaches, edges taken both ways."""
    if not graph.d:
        return 0
    tails, heads, _is_x = graph.edge_arrays
    return int(np.count_nonzero(component_labels(tails, heads, graph.d) == 0))


def validate_origami_graph(graph: OrigamiGraph) -> OrigamiReport:
    """Per-vertex out/in counts for each label, plus connectivity.  A graph
    with no squares is refused: it has no surface to take a genus of."""
    issues = [] if graph.d else ["no squares"]
    counts = _label_counts(graph)
    vertex, which = np.nonzero(counts != 1)
    issues += [f"vertex {v}: {c} {_COUNT_NAMES[k]} edges (expected 1)"
               for v, k, c in zip(vertex.tolist(), which.tolist(), counts[vertex, which].tolist())]
    reached = _reached(graph)
    connected = reached == graph.d
    if not connected:
        issues.append(f"graph is disconnected: reached {reached} of {graph.d} vertices")
    return OrigamiReport(not issues, tuple(issues), connected)


def monodromy(graph: OrigamiGraph) -> tuple[Monodromy, int]:
    """(sigma_x, sigma_y) read off the out-edges, and the surface genus.

    The out-edges are scattered once the label counts are all 1 and the
    graph is connected; otherwise the ValueError lists
    ``validate_origami_graph``'s issues.  Genus comes from the
    square-complex Euler count: vertices of the complex are the cycles of
    the commutator, E = 2d, F = d, so g = 1 + (d - #commutator cycles) / 2.
    """
    d = graph.d
    if not d or np.count_nonzero(_label_counts(graph) != 1) or _reached(graph) != d:
        report = validate_origami_graph(graph)
        raise ValueError("invalid origami graph: " + "; ".join(report.issues))
    tails, heads, is_x = graph.edge_arrays
    sx = np.empty(d, dtype=np.intp)
    sy = np.empty(d, dtype=np.intp)
    sx[tails[is_x]] = heads[is_x]
    sy[tails[~is_x]] = heads[~is_x]
    squares = _int_objects(d)
    m = Monodromy(tuple(squares[sx].tolist()), tuple(squares[sy].tolist()))
    return m, _genus(sx, sy)


def _commutator(sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """sx sy sx^-1 sy^-1 on permutation arrays, sy^-1 applied first."""
    return sx[sy[inverse(sx)[inverse(sy)]]]


def _genus(sx: np.ndarray, sy: np.ndarray) -> int:
    d = len(sx)
    if not d:
        raise ValueError("no squares: an origami of degree 0 has no genus")
    points = np.arange(d)
    v = int(np.count_nonzero(component_labels(points, _commutator(sx, sy), d) == points))
    if (d - v) % 2:
        raise ValueError(f"non-integral genus: d={d}, commutator cycles={v}")
    return 1 + (d - v) // 2


def commutator(m: Monodromy) -> tuple[int, ...]:
    return tuple(_commutator(np.array(m.sigma_x, dtype=np.intp),
                             np.array(m.sigma_y, dtype=np.intp)).tolist())


def genus_from_monodromy(m: Monodromy) -> int:
    return _genus(np.array(m.sigma_x, dtype=np.intp), np.array(m.sigma_y, dtype=np.intp))


def is_transitive(m: Monodromy) -> bool:
    """Whether the squares are one orbit; no squares are not: no surface."""
    d = m.degree
    return d > 0 and perms.is_transitive(
        [permutation(m.sigma_x, d, "sigma_x"), permutation(m.sigma_y, d, "sigma_y")], d)


def origami_from_monodromy(m: Monodromy) -> OrigamiGraph:
    edges = [(i, m.sigma_x[i], "x") for i in range(m.degree)]
    edges += [(i, m.sigma_y[i], "y") for i in range(m.degree)]
    return OrigamiGraph(m.degree, tuple(edges))


@dataclass(frozen=True)
class MOrigamiEmbeddings:
    """Embedding count of an Adinkra into its M-origami curve.

    The doubled graph replaces each edge by a pair of parallel edges; an
    embedding picks one copy per edge, so the count is exactly 2^#E as a
    big integer.
    """

    count: int
    n_edges: int


def m_origami_embeddings(graph: Chromotopology) -> MOrigamiEmbeddings:
    """Count the Adinkra embeddings in the M-origami curve: one choice of
    each doubled parallel edge pair."""
    return MOrigamiEmbeddings(1 << graph.edge_count, graph.edge_count)
