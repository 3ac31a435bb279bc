"""Permutations of range(d), d >= 1, as read-only int arrays made by the one
check ``permutation``; p[i] is the image of i and p[q] applies q first.
Inverse, cycle type, transitivity and exponents over a generating cycle
take these arrays.  ``component_labels`` is the array form of orbits and
connectivity: the cycles of a permutation, the orbits of several, or the
components of any graph given by its edge ends."""

from __future__ import annotations

import math
import reprlib
from collections.abc import Sequence

import numpy as np

Perm = np.ndarray


def permutation(seq, degree: int, name: str) -> Perm:
    """``seq`` as a read-only intp array, or a ValueError naming it when it
    is not a permutation of range(degree); degree 0 is refused."""
    if degree < 1:
        raise ValueError(f"{name} has degree {degree}: a permutation needs at least one point")
    p = np.array(seq)
    if p.dtype.kind in "iu":
        p = p.astype(np.intp, copy=False)
    if (p.dtype != np.intp or p.shape != (degree,)
            or np.count_nonzero((p < 0) | (p >= degree))
            or np.count_nonzero(np.bincount(p, minlength=degree) != 1)):
        raise ValueError(f"{name} is not a permutation of 0..{degree - 1}")
    p.flags.writeable = False
    return p


def one_based(entries, name: str) -> np.ndarray:
    """A JSON list of 1-based images as a 0-based intp array.  Floats,
    strings, bools and non-lists are refused, not truncated or parsed, with
    a ValueError naming ``name``; ``permutation`` checks the images."""
    if not isinstance(entries, list):
        raise ValueError(f"{name} must be a list of 1-based integers, got {reprlib.repr(entries)}")
    bad = [i for i in entries if type(i) is not int]
    if bad:
        raise ValueError(f"{name} has the entry {reprlib.repr(bad[0])}, which is not an integer")
    try:
        return np.array(entries, dtype=np.intp) - 1
    except OverflowError:
        raise ValueError(f"{name} has an entry beyond the integer range") from None


def one_based_table(table, entry: str) -> dict[str, np.ndarray]:
    """A JSON object of 1-based image lists as 0-based arrays by key, read
    by ``one_based`` under the name ``entry.format(key)``; a ``table`` that
    is not an object is refused with a ValueError."""
    if not isinstance(table, dict):
        raise ValueError(f"perms must be an object of 1-based image lists, "
                         f"got {type(table).__name__}")
    return {key: one_based(images, entry.format(key)) for key, images in table.items()}


def json_int(value, name: str) -> int:
    """A JSON integer field as an int.  Floats, strings and bools are
    refused, not truncated or parsed, with a ValueError naming ``name``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return value


def json_float(value, name: str) -> float:
    """A JSON number field as a finite float.  Strings, bools and
    non-finite values are refused, not parsed or read as 0 and 1, with a
    ValueError naming ``name``."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {reprlib.repr(value)}")
    return number


def json_floats(value, shape: tuple[int, ...], name: str) -> list:
    """A nested JSON list of ``shape`` whose entries ``json_float`` reads
    as ``name[i][j]...``; a value that is not a list of the stated length
    is refused with a ValueError naming it."""
    if not shape:
        return json_float(value, name)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ValueError(f"{name} must be a list of {shape[0]}, got {reprlib.repr(value)}")
    return [json_floats(x, shape[1:], f"{name}[{i}]") for i, x in enumerate(value)]


def json_complex(pair, name: str) -> complex:
    """A JSON [re, im] pair of finite numbers as a complex."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"{name} must be a [re, im] pair, got {reprlib.repr(pair)}")
    return complex(json_float(pair[0], f"{name}[0]"), json_float(pair[1], f"{name}[1]"))


def inverse(p: Perm) -> Perm:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    inv.flags.writeable = False
    return inv


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


def cycle_lengths(p: Perm) -> np.ndarray:
    """The lengths of the cycles of p, in the order of their least points."""
    points = np.arange(len(p))
    labels = component_labels(points, p, len(p))
    return np.bincount(labels, minlength=len(p))[labels == points]


def is_transitive(gens: Sequence[Perm], degree: int) -> bool:
    """Whether the group generated by ``gens`` has one orbit on range(degree).

    Forward images suffice: on a finite set each inverse is a power of
    its permutation.  The identity's loops join the edges, so that no
    generators at all is one orbit exactly at degree 1.
    """
    points = np.arange(degree)
    labels = component_labels(np.tile(points, len(gens) + 1), np.concatenate([points, *gens]),
                              degree)
    return degree > 0 and not np.count_nonzero(labels)


def cyclic_exponents(gens: Sequence[Perm], degree: int) -> list[int] | None:
    """Exponents e_s with gens[s] = t^e_s for one ``degree``-cycle t in gens.

    With pos[t^k(0)] = k, g = t^e exactly when pos[g] = pos + e mod d, and
    e = pos[g[0]].  A permutation commuting with a d-cycle t is a power of
    t, so this succeeds exactly when the generators commute, act
    transitively and include a d-cycle; otherwise (Klein-4, S3,
    intransitive actions, or a cyclic group with no generating d-cycle
    among gens) it returns None.
    """
    t = next((p for p in gens if len(cycle_lengths(p)) == 1), None)
    if t is None:
        return None
    pos = np.empty(degree, dtype=np.intp)
    point = 0
    for k in range(degree):
        pos[point] = k
        point = t[point]
    exps = [int(pos[g[0]]) for g in gens]
    if any(np.count_nonzero(pos[g] != (pos + e) % degree) for g, e in zip(gens, exps)):
        return None
    return exps
