"""Origami (square-tiled surface) graphs: validation, monodromy, genus,
and the exact count 2^E of an Adinkra's embeddings in its doubled-edge
M-origami curve.

An origami graph is a finite directed multigraph with edges labeled x or y
such that every vertex has exactly one outgoing and one incoming edge of
each label; equivalently a pair of permutations (sigma_x, sigma_y) of the
squares, up to simultaneous conjugation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import perms
from .adinkra import Chromotopology
from .perms import compose, cycle_lengths, inverse

LabeledEdge = tuple[int, int, str]  # (tail, head, "x"|"y"); parallel edges allowed


@dataclass(frozen=True)
class OrigamiGraph:
    """Directed labeled multigraph on d vertices (squares)."""

    d: int
    edges: tuple[LabeledEdge, ...]

    def __post_init__(self):
        for u, v, lab in self.edges:
            if lab not in ("x", "y"):
                raise ValueError(f"edge label {lab!r} must be 'x' or 'y'")
            if not (0 <= u < self.d and 0 <= v < self.d):
                raise ValueError(f"edge ({u},{v}) references missing vertex")


@dataclass(frozen=True)
class Monodromy:
    """Permutation pair on 0-based squares; sigma[i] is the image of i."""

    sigma_x: tuple[int, ...]
    sigma_y: tuple[int, ...]

    def __post_init__(self):
        d = len(self.sigma_x)
        if len(self.sigma_y) != d:
            raise ValueError("sigma_x and sigma_y act on different sets")
        for s in (self.sigma_x, self.sigma_y):
            if sorted(s) != list(range(d)):
                raise ValueError(f"not a permutation: {s}")

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
        sx = tuple(int(i) - 1 for i in obj["sigma_x"])
        sy = tuple(int(i) - 1 for i in obj["sigma_y"])
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


def validate_origami_graph(graph: OrigamiGraph) -> OrigamiReport:
    """Per-vertex out/in counts for each label, plus connectivity."""
    issues = []
    out_x = [0] * graph.d
    out_y = [0] * graph.d
    in_x = [0] * graph.d
    in_y = [0] * graph.d
    for u, v, lab in graph.edges:
        if lab == "x":
            out_x[u] += 1
            in_x[v] += 1
        else:
            out_y[u] += 1
            in_y[v] += 1
    for v in range(graph.d):
        for name, cnt in (("outgoing x", out_x[v]), ("outgoing y", out_y[v]),
                          ("incoming x", in_x[v]), ("incoming y", in_y[v])):
            if cnt != 1:
                issues.append(f"vertex {v}: {cnt} {name} edges (expected 1)")
    adj: list[list[int]] = [[] for _ in range(graph.d)]
    for u, v, _lab in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0} if graph.d else set()
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    connected = len(seen) == graph.d
    if not connected:
        issues.append(f"graph is disconnected: reached {len(seen)} of {graph.d} vertices")
    return OrigamiReport(not issues, tuple(issues), connected)


def monodromy(graph: OrigamiGraph) -> tuple[Monodromy, int]:
    """(sigma_x, sigma_y) read off the out-edges, and the surface genus.

    Genus comes from the square-complex Euler count: vertices of the
    complex are the cycles of the commutator, E = 2d, F = d, so
    g = 1 + (d - #commutator cycles) / 2.
    """
    report = validate_origami_graph(graph)
    if not report.ok:
        raise ValueError("invalid origami graph: " + "; ".join(report.issues))
    sx = [0] * graph.d
    sy = [0] * graph.d
    for u, v, lab in graph.edges:
        if lab == "x":
            sx[u] = v
        else:
            sy[u] = v
    m = Monodromy(tuple(sx), tuple(sy))
    return m, genus_from_monodromy(m)


def commutator(m: Monodromy) -> tuple[int, ...]:
    sx, sy = m.sigma_x, m.sigma_y
    return compose(compose(sx, sy), compose(inverse(sx), inverse(sy)))


def genus_from_monodromy(m: Monodromy) -> int:
    d = m.degree
    v = len(cycle_lengths(commutator(m)))
    if (d - v) % 2:
        raise ValueError(f"non-integral genus: d={d}, commutator cycles={v}")
    return 1 + (d - v) // 2


def is_transitive(m: Monodromy) -> bool:
    return perms.is_transitive((m.sigma_x, m.sigma_y), m.degree)


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
