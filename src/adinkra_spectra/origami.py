"""Origami (square-tiled surface) graphs: validation, monodromy, genus,
and the exact count 2^E of an Adinkra's embeddings in its doubled-edge
M-origami curve.

An origami graph is a finite directed multigraph with edges labeled x or y
such that every vertex has exactly one outgoing and one incoming edge of
each label; equivalently a pair of permutations (sigma_x, sigma_y) of the
squares, up to simultaneous conjugation.  Both records hold int arrays:
``OrigamiGraph`` its edges as (tails, heads, is_x), ``Monodromy`` its pair
as ``perms.permutation`` arrays.  Like ``adinkra.Faces`` they are
``eq=False``, so compare their arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import perms
from .adinkra import Chromotopology
from .perms import component_labels, inverse, json_int, permutation

_NO_SQUARES = np.zeros(0, dtype=np.intp)
_NO_SQUARES.flags.writeable = False


@dataclass(frozen=True, eq=False)
class OrigamiGraph:
    """Directed labeled multigraph on d vertices (squares): edge i runs from
    ``tails[i]`` to ``heads[i]`` and is labeled x where the bool
    ``is_x[i]`` holds, else y.  Parallel edges are allowed."""

    d: int
    tails: np.ndarray
    heads: np.ndarray
    is_x: np.ndarray

    def __post_init__(self):
        tails, heads = self.tails, self.heads
        if not tails.shape == heads.shape == self.is_x.shape == (len(tails),):
            raise ValueError("tails, heads and is_x must have one entry per edge")
        outside = np.flatnonzero((tails < 0) | (tails >= self.d) | (heads < 0) | (heads >= self.d))
        if outside.size:  # name the first offending edge
            e = outside[0]
            raise ValueError(f"edge ({tails[e]},{heads[e]}) references missing vertex")


@dataclass(frozen=True, eq=False)
class Monodromy:
    """Permutation pair on 0-based squares as ``perms.permutation`` arrays;
    sigma[i] is the image of i.  The pair of degree 0 is two empty intp
    arrays: validation reports it as no squares."""

    sigma_x: np.ndarray
    sigma_y: np.ndarray

    def __post_init__(self):
        d = len(self.sigma_x)
        if len(self.sigma_y) != d:
            raise ValueError("sigma_x and sigma_y act on different sets")
        for name in ("sigma_x", "sigma_y"):
            object.__setattr__(self, name,
                               permutation(getattr(self, name), d, name) if d else _NO_SQUARES)

    @property
    def degree(self) -> int:
        return len(self.sigma_x)

    def to_json(self) -> dict:
        return {
            "d": self.degree,
            "sigma_x": (self.sigma_x + 1).tolist(),
            "sigma_y": (self.sigma_y + 1).tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Monodromy":
        d = json_int(obj["d"], "d")
        sx, sy = (perms.one_based(obj[name], name) for name in ("sigma_x", "sigma_y"))
        if len(sx) != d or len(sy) != d:
            raise ValueError("permutation arrays do not match d")
        return cls(sx, sy)


@dataclass(frozen=True)
class OrigamiReport:
    ok: bool
    issues: tuple[str, ...]
    connected: bool

    def to_json(self) -> dict:
        return {"ok": self.ok, "connected": self.connected, "issues": list(self.issues)}


_COUNT_NAMES = ("outgoing x", "outgoing y", "incoming x", "incoming y")


def validate_origami_graph(graph: OrigamiGraph) -> OrigamiReport:
    """Per-vertex out/in counts for each label, plus connectivity from
    vertex 0, edges taken both ways.  A graph with no squares is refused:
    it has no surface to take a genus of."""
    d, tails, heads, is_x = graph.d, graph.tails, graph.heads, graph.is_x
    issues = [] if d else ["no squares"]
    counts = np.stack([np.bincount(ends[label], minlength=d)
                       for ends in (tails, heads) for label in (is_x, ~is_x)], axis=1)
    vertex, which = np.nonzero(counts != 1)
    issues += [f"vertex {v}: {c} {_COUNT_NAMES[k]} edges (expected 1)"
               for v, k, c in zip(vertex.tolist(), which.tolist(), counts[vertex, which].tolist())]
    reached = int(np.count_nonzero(component_labels(tails, heads, d) == 0))
    connected = reached == d
    if not connected:
        issues.append(f"graph is disconnected: reached {reached} of {d} vertices")
    return OrigamiReport(not issues, tuple(issues), connected)


def monodromy(graph: OrigamiGraph) -> tuple[Monodromy, int]:
    """(sigma_x, sigma_y) read off the out-edges, and the surface genus.

    A graph that ``validate_origami_graph`` does not pass raises a
    ValueError listing its issues; otherwise each out-edge is scattered
    into its label's row.
    """
    report = validate_origami_graph(graph)
    if not report.ok:
        raise ValueError("invalid origami graph: " + "; ".join(report.issues))
    sigma = np.empty((2, graph.d), dtype=np.intp)
    sigma[(~graph.is_x).astype(np.intp), graph.tails] = graph.heads
    m = Monodromy(*sigma)
    return m, genus_from_monodromy(m)


def commutator(m: Monodromy) -> np.ndarray:
    """sx sy sx^-1 sy^-1 as an array, sy^-1 applied first."""
    return m.sigma_x[m.sigma_y[inverse(m.sigma_x)[inverse(m.sigma_y)]]]


def genus_from_monodromy(m: Monodromy) -> int:
    """Genus from the square-complex Euler count: vertices of the complex
    are the cycles of the commutator, E = 2d, F = d, so
    g = 1 + (d - #commutator cycles) / 2."""
    d = m.degree
    if not d:
        raise ValueError("no squares: an origami of degree 0 has no genus")
    points = np.arange(d)
    v = int(np.count_nonzero(component_labels(points, commutator(m), d) == points))
    if (d - v) % 2:
        raise ValueError(f"non-integral genus: d={d}, commutator cycles={v}")
    return 1 + (d - v) // 2


def is_transitive(m: Monodromy) -> bool:
    """Whether the squares are one orbit; no squares are not: no surface."""
    return perms.is_transitive([m.sigma_x, m.sigma_y], m.degree)


def origami_from_monodromy(m: Monodromy) -> OrigamiGraph:
    """The x edges i -> sigma_x[i], then the y edges i -> sigma_y[i]."""
    d = m.degree
    return OrigamiGraph(d, np.tile(np.arange(d), 2), np.concatenate((m.sigma_x, m.sigma_y)),
                        np.arange(2 * d) < d)


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
