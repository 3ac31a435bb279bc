"""Permutations of range(d) as tuples, p[i] the image of i: inverse,
composition, cycle type, transitivity of the group they generate, and
exponents over a generating cycle.  ``component_labels`` is the array form
of orbits and connectivity: the cycles of a permutation array, the orbits
of several, or the components of any graph given by its edge ends."""

from __future__ import annotations

from collections.abc import Collection, Sequence

import numpy as np

Perm = tuple[int, ...]


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[j] for j in q)


def cycle_lengths(p: Perm) -> list[int]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        c, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            c += 1
        if c:
            out.append(c)
    return out


def is_transitive(gens: Collection[Perm], degree: int) -> bool:
    """Whether the group generated by ``gens`` moves 0 to every point.

    Forward images suffice: on a finite set each inverse is a power of
    its permutation.
    """
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for p in gens:
            if p[i] not in seen:
                seen.add(p[i])
                stack.append(p[i])
    return len(seen) == degree


def component_labels(tails: np.ndarray, heads: np.ndarray, size: int) -> np.ndarray:
    """The least point of each point's component in the graph on range(size)
    with edges tails[i] -- heads[i].

    The array form of a union-find: each round hooks every root that meets
    a smaller root across an edge under one such root, then jumps pointers
    until each point hangs from a root; it stops when every edge joins
    points of one root.  Every hook lowers a label, so the rounds end.
    For a permutation array p, ``component_labels(arange(d), p, d)`` marks
    each point with the least point on its cycle.
    """
    root = np.arange(size)
    while True:
        rt, rh = root[tails], root[heads]
        if not np.count_nonzero(rt != rh):
            return root
        down = rt > rh
        root[rt[down]] = rh[down]
        up = rh > rt
        root[rh[up]] = rt[up]
        while np.count_nonzero((jumped := root[root]) != root):
            root = jumped


def cyclic_exponents(gens: Sequence[Perm], degree: int) -> list[int] | None:
    """Exponents e_s with gens[s] = t^e_s for one ``degree``-cycle t in gens.

    A permutation commuting with a d-cycle t is a power of t, so this
    succeeds exactly when the generators commute, act transitively and
    include a d-cycle; otherwise (Klein-4, S3, intransitive actions, or a
    cyclic group with no generating d-cycle among gens) it returns None.
    """
    t = next((p for p in gens if cycle_lengths(p) == [degree]), None)
    if t is None:
        return None
    power_of: dict[Perm, int] = {}
    p = tuple(range(degree))
    for e in range(degree):
        power_of[p] = e
        p = compose(t, p)
    exps = [power_of.get(tuple(g)) for g in gens]
    return None if None in exps else exps
