"""Fuchsian triangle groups: generators in SL(2,R), exact primitive geodesic
length spectra, finite covers via coset actions, and unitary characters.

Conventions.  Generators a, b, c are counterclockwise rotations by
2*pi/p, 2*pi/q, 2*pi/r about the vertices of a geodesic triangle with
angles pi/p, pi/q, pi/r, normalized so a*b*c = +-1.  Words are strings
over a/b/c with uppercase for inverses.  A hyperbolic element of absolute
trace t > 2 translates along its axis by l = 2*arccosh(t/2).

Length spectrum.  The triangle and its mirror image in one side form a
kite D, a fundamental domain with base point z0 and radius R: every point
of D lies within R of z0.  An element h of length at most L whose axis
meets D moves z0 by at most d_h = 2 asinh(sinh(L/2) cosh R) (Beardon,
The Geometry of Discrete Groups, Thm 7.35.1), and each tile g D that the
segment [z0, h z0] meets has g z0 within R of it.  So a breadth-first
ball pruned at the displacement min(L + 2R, d_h + R), the reach, holds
the set S of all of them (``length_spectrum`` gives the proof).  A
union-find joins one-letter conjugates in S; its components are exactly
the conjugacy classes.  The ball's size is estimated from the area of the
disc of that reach before it is grown and refused above a fixed budget.

Inside the ball a matrix [[a, b], [c, d]] is written in the frame that
moves z0 to i, where a^2 + b^2 + c^2 + d^2 = 2 cosh d(z0, h z0), and is
stored once, as the row (a, b, c, d) of an (n, 4) float array.  Each
breadth-first round is computed in numpy: the frontier is an (F, 4)
array, its products with the letters are formed by broadcasting, and
the cap and the renormalisation act on whole arrays.  One search,
``_near_pairs``, decides which rows are one element up to sign: it sorts
the rows by the absolute value of a generic projection and compares
neighbours in that order entry by entry, as a difference and as a sum.
It finds the candidates the ball already holds, the one-letter conjugates
of the members of S, which ``perms.component_labels`` joins into
classes, and the powers that decide primitivity.  The public API takes and returns numpy arrays.

Tolerance lemma.  Write |x| for the Frobenius norm, which bounds the
operator norm e^(d(z0, x z0)/2); let N^2 be the cap, u = 2^-53, Lambda
the largest norm of a letter, and eps = phi + 2u(Lambda + 1), where phi
(``_LETTER_ERROR``) bounds each letter's error, as the tests check
against 40-digit letters.
(a) Separation.  Let c = cosh r, r the radius of the largest disc about
z0 inside D.  If g != +-h and |g| <= N, some entry of g -+ h is at least
sigma = sqrt(c (c - 1)) / N.  For k = g^-1 h moves z0 by d >= 2r, since
D is a fundamental domain, and |tr k| <= 2 cosh(d/2), so
|1 -+ k|^2 = 2 + 2 cosh d -+ 2 tr k >= 4c(c - 1); and
|1 -+ k| <= |g^-1| |g -+ h|, |g^-1| = |g|, while the largest entry is at
least half the norm.
(b) Error.  Write a row as (1 + G) g for its element g.  A product with a
letter and the renormalisation add at most eps max(|p|, |x|)^2 to |G|,
p the parent and x the product: the rounding and the letter's error are
that small relative to g, and renormalising only removes the trace of G.
So a row is within E = eps |x| S of its element, S the sum of
max(|p|, |x|)^2 over its word, which the ball carries from round to
round.  A conjugate by a letter is then within
Lambda^2 E + 9 (Lambda + 1) eps N^3 of its element, and the m-th power of
a member of length l, formed by m - 1 products, within
m e^(2R) (e^((m - 1) l / 2) E + 4 u N^3), since |h^j| <= e^(jl/2 + R).
Such a row beyond 2N is more than N/2 from every member in some entry.
These bounds are of first order in G, which is at most eps * depth * N^2,
under 1e-6 in every ball measured up to the budget.
(c) Two rows with bounds E1 and E2 are one element exactly when they lie
within t of each other, for any t with E1 + E2 <= t < sigma - E1 - E2.
The ball compares rows at t twice the largest bound so far, and the
conjugates and powers at t the largest of their bounds plus the largest
member's; a ball where some 2t reaches sigma is refused.  At (5,5,2),
l_max 8, matched rows differ by at most 7e-11, the conjugates are
compared at t = 3e-7 and sigma is 2.8e-3.
(d) Layers.  A neighbour of a round-k element lies in round k - 1, k or
k + 1, so a round's candidates are compared with the last two rounds and
with each other.  That takes the cap test as exact, yet an element whose
norm is within its error of the cap may be kept along one path and
pruned along another; so one search over the grown ball checks it, and
the ball is grown again against every round if that finds a pair.  The
letters are a generator and its inverse, except for a generator of order
2, whose inverse is the same element up to sign: a product with the
inverse letter would be a copy of the product with the letter, which
comes first in (frontier, letter) order and is kept, so that letter
alone is used, and it is not followed by itself as the others are not by
their inverses.  The ball's rows, words and rounds are those that all six
letters give.

Spectra.  A ``SpectrumResult`` lists one ``GeodesicClass`` per primitive
conjugacy class, each with its own word and trace, and carries the length
below which that list is certified complete.  Classes of equal length are
merged only in the ``merged`` view, which is what the CSV holds; a CSV
with its certificate line reads back as a ``SpectrumResult``.  Closing
under powers and lifting to a cover keep the certificate, so the actions
refuse a cutoff beyond it whatever produced the spectrum.  The lift
refuses a merged entry: equal-length classes can act on the cosets with
different cycle types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import perms
from .errors import ResourceBoundError
from .perms import cycle_lengths, inverse, permutation

TRACE_GAP = 1e-9  # elements this close to |tr| = 2 are flagged near-parabolic
_LETTER_ERROR = 1e-14  # bounds the float error of each of the ball's letters
_U = 2.0 ** -53  # the unit roundoff

_LETTERS = ("a", "A", "b", "B", "c", "C")


def _rot_half(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, s], [-s, c]])


def _mover(z: complex) -> np.ndarray:
    r = math.sqrt(z.imag)
    return np.array([[r, z.real / r], [0.0, 1.0 / r]])


def mobius(m: np.ndarray, z: complex) -> complex:
    a, b, c, d = m.ravel()
    return (a * z + b) / (c * z + d)


def rotation_about(z: complex, angle: float) -> np.ndarray:
    """SL(2,R) elliptic element rotating the tangent space at z by +angle."""
    mv = _mover(z)
    return mv @ _rot_half(angle / 2.0) @ np.linalg.inv(mv)


@dataclass(frozen=True)
class TriangleGroup:
    p: int
    q: int
    r: int
    generators: dict[str, np.ndarray] = field(compare=False)
    vertices: tuple[complex, complex, complex]
    relation_residual: float
    _inverses: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inverses = {}
        for letter, base in self.generators.items():
            inverses[letter] = np.linalg.inv(base)
            inverses[letter].setflags(write=False)
        object.__setattr__(self, "_inverses", inverses)

    @property
    def signature(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    def letter_matrix(self, letter: str) -> np.ndarray:
        """The generator of a lowercase letter, or its inverse for an
        uppercase one (inverted once per group, read-only)."""
        lower = letter.lower()
        return self.generators[lower] if letter.islower() else self._inverses[lower]

    def word_matrix(self, word: str) -> np.ndarray:
        m = np.eye(2)
        for letter in word:
            m = m @ self.letter_matrix(letter)
        return m / math.sqrt(abs(float(np.linalg.det(m))))


def triangle_generators(p: int, q: int, r: int) -> TriangleGroup:
    """Rotation generators of the (p, q, r) triangle group.

    The triangle is placed with the order-p vertex at i, the order-q vertex
    up the imaginary axis at hyperbolic distance given by the angle cosine
    rule, and the order-r vertex rotated off the axis; the defining product
    a*b*c = +-1 is verified to 1e-10 and its residual stored.
    """
    if 1.0 / p + 1.0 / q + 1.0 / r >= 1.0 - 1e-12:
        raise ValueError(f"signature ({p},{q},{r}) is not hyperbolic")
    al, be, ga = math.pi / p, math.pi / q, math.pi / r
    cosh_c = (math.cos(al) * math.cos(be) + math.cos(ga)) / (math.sin(al) * math.sin(be))
    cosh_b = (math.cos(al) * math.cos(ga) + math.cos(be)) / (math.sin(al) * math.sin(ga))
    side_c = math.acosh(cosh_c)
    side_b = math.acosh(cosh_b)
    va = 1j
    vb = 1j * math.e ** side_c
    vc = mobius(rotation_about(va, al), 1j * math.e ** side_b)
    gen_a = rotation_about(va, 2 * al)
    gen_b = rotation_about(vb, 2 * be)
    gen_c = rotation_about(vc, 2 * ga)
    prod = gen_a @ gen_b @ gen_c
    residual = min(
        float(np.abs(prod - np.eye(2)).max()), float(np.abs(prod + np.eye(2)).max())
    )
    if residual > 1e-10:
        raise ValueError(f"triangle relation residual {residual:.2e} exceeds 1e-10")
    return TriangleGroup(p, q, r, {"a": gen_a, "b": gen_b, "c": gen_c},
                         (va, complex(vb), vc), residual)


# x and y entries of each product a*e + b*g, a*f + b*h, c*e + d*g, c*f + d*h
# of [[a, b], [c, d]] [[e, f], [g, h]], by output entry
_LEFT, _RIGHT = ([0, 0, 2, 2], [1, 1, 3, 3]), ([0, 1, 0, 1], [2, 3, 2, 3])


def _mul_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 2x2 products of x and y, matrices as rows (a, b, c, d) over the
    last axis, broadcast over the rest; each entry is a*e + b*g, ... summed
    in that order."""
    out = x[..., _LEFT[0]] * y[..., _RIGHT[0]]
    out += x[..., _LEFT[1]] * y[..., _RIGHT[1]]
    return out


def _unimodular(m: np.ndarray) -> np.ndarray:
    """Each row of m, an (n, 4) array, divided by sqrt|det|, in place."""
    a, b, c, d = m.T
    det = a * d
    det -= b * c
    m /= np.sqrt(np.abs(det, out=det), out=det)[:, None]
    return m


_WEIGHTS = np.sqrt([1.0, 2.0, 3.0, 5.0])  # a generic projection of the rows


def _near_pairs(x: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of rows of x, an (n, 4) array, with x_i = +-x_j to
    within ``tol`` in every entry, each pair once.

    The rows are sorted by the absolute value of their projection on
    (1, sqrt 2, sqrt 3, sqrt 5).  Rows x_i, x_j with x_i = +-x_j within tol
    project within tol times the weights' sum of each other up to sign, so
    their absolute projections are that close too, whichever the sign; the
    width is doubled here for rounding.  So each row is compared with the
    k-th next, k = 1, 2, ..., while any absolute projections are that close,
    and each such pair is tested as x_i - x_j and as x_i + x_j.
    """
    proj = np.abs(x @ _WEIGHTS)
    order = np.argsort(proj)
    proj = proj[order]
    width = 2.0 * tol * _WEIGHTS.sum()
    a, b = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    live, k = np.flatnonzero(proj[1:] - proj[:-1] <= width), 1
    while len(live):
        lo, hi = order[live], order[live + k]
        xl, xh = x[lo], x[hi]
        near = np.abs(xl - xh).max(axis=1) <= tol
        near |= np.abs(xl + xh).max(axis=1) <= tol
        a.append(lo[near])
        b.append(hi[near])
        k += 1
        live = live[live < len(x) - k]
        live = live[proj[live + k] - proj[live] <= width]
    a, b = np.concatenate(a), np.concatenate(b)
    return np.minimum(a, b), np.maximum(a, b)


@dataclass(frozen=True)
class GeodesicClass:
    """Conjugacy class data for the trace formula: trace, length, the
    length of its primitive root and a representative word.

    ``multiplicity`` counts classes that share these data: the cycles of
    one length in a lifted class, or the classes of an entry merged at
    equal length (``SpectrumResult.merged``) and read back from CSV.
    """

    trace: float
    length: float
    primitive_length: float
    multiplicity: int = 1
    word: str = ""
    primitive: bool = True

    @property
    def norm(self) -> float:
        return math.exp(self.length)


@dataclass(frozen=True)
class SpectrumResult:
    """A length spectrum with its certificate: every class of length below
    ``certified_below`` is listed, unless ``converged`` is false.

    ``length_spectrum`` lists one entry per primitive class; ``merged``
    is the view that joins equal lengths within ``dedupe_tol``, as
    ``spectrum_to_csv`` writes it.  The ball's diagnostics (``depth`` to
    ``near_parabolic_count``) are 0 for a spectrum read from CSV.
    """

    classes: tuple[GeodesicClass, ...]
    l_max: float
    certified_below: float
    converged: bool
    depth: int = 0
    element_count: int = 0
    elliptic_count: int = 0
    near_parabolic_count: int = 0
    dedupe_tol: float = 0.0

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def merged(self) -> tuple[GeodesicClass, ...]:
        return _merge_equal_lengths(self.classes, self.dedupe_tol)


def length_of_trace(t: float) -> float:
    return 2.0 * math.acosh(abs(t) / 2.0)


BALL_BUDGET = 400_000  # estimated ball size above which length_spectrum refuses


def _hyperboloid(z: complex) -> tuple[float, float, float]:
    """z in the upper half plane as a point of the hyperboloid model."""
    x, y = z.real, z.imag
    s = (x * x + y * y) / (2.0 * y)
    return (s + 0.5 / y, s - 0.5 / y, x / y)


def _half_plane(x) -> complex:  # the inverse of _hyperboloid
    return complex(x[2], 1.0) / (x[0] - x[1])


def _lorentz(x, y) -> float:
    """Minus the Minkowski product: cosh d(x, y) for hyperboloid points."""
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def _normal(u, v) -> tuple[float, float, float]:
    """The ``_lorentz`` normal of the geodesic through hyperboloid points u, v."""
    return (u[2] * v[1] - u[1] * v[2], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _inradius(z: complex, polygon: Sequence[complex]) -> float:
    """The radius of the largest disc about z inside a convex polygon: the
    distance from z to the nearest of the geodesics through its sides."""
    x, pts = _hyperboloid(z), [_hyperboloid(v) for v in polygon]
    return min(math.asinh(abs(_lorentz(x, n)) / math.sqrt(-_lorentz(n, n)))
               for n in (_normal(u, v) for u, v in zip(pts, pts[1:] + pts[:1])))


def _kite(group: TriangleGroup) -> tuple[complex, float, tuple[complex, ...]]:
    """Base point z0, radius R and the four vertices of the kite D.

    D is the triangle together with its mirror image in one side, a
    fundamental domain whose sides are paired by the rotations about that
    side's ends.  z0 is D's minimax point, which by symmetry lies on the
    mirror axis: there the largest vertex distance is least either at the
    foot of the perpendicular from the apex or where two vertex distances
    are equal, and R is that least distance.  Of the three sides the one
    giving the smallest R is used, ties going to the smaller order at the
    apex, so D depends on {p, q, r} alone up to isometry.
    """
    pts = [_hyperboloid(v) for v in group.vertices]
    best = None
    for i, order in enumerate(group.signature):
        apex, u, v = pts[i], pts[i - 2], pts[i - 1]
        n = _normal(u, v)
        s = _lorentz(apex, n) / _lorentz(n, n)
        foot = [a - s * m for a, m in zip(apex, n)]  # projection onto the side's plane
        mirror = [2.0 * f - a for f, a in zip(foot, apex)]
        candidates = [foot, [a + b for a, b in zip(u, v)]]
        for end in (u, v):  # where the apex is as far as that end
            w = [a - b for a, b in zip(apex, end)]
            lu, lv = _lorentz(u, w), _lorentz(v, w)
            candidates.append([lv * a - lu * b for a, b in zip(u, v)])
        for x in candidates:
            norm = _lorentz(x, x)
            if norm <= 0.0:
                continue  # the bisector misses the mirror axis
            x = [xi / math.copysign(math.sqrt(norm), x[0]) for xi in x]
            radius = math.acosh(max(_lorentz(x, u), _lorentz(x, v), _lorentz(x, apex)))
            rank = (round(radius, 9), order)
            if best is None or rank < best[0]:
                best = (rank, x, radius, (u, apex, v, mirror))
    _rank, x, radius, kite = best
    return _half_plane(x), radius, tuple(_half_plane(w) for w in kite)


def _axis_meets(m, vertices: list[tuple[float, float]]) -> bool:
    """Whether the axis of hyperbolic m = (a, b, c, d) meets the convex
    polygon whose vertices z are given as (|z|^2, Re z).

    The axis is the zero set of c|z|^2 + (d - a) Re z - b; it misses the
    polygon only when every vertex lies strictly on one side, by more than
    1e-9 times the size of m.  This form keeps axes through infinity (c = 0).
    Given arrays of entries it answers for each element.
    """
    a, b, c, d = m
    tol = 1e-9 * (abs(a) + abs(b) + abs(c) + abs(d))
    values = [c * n2 + (d - a) * x - b for n2, x in vertices]
    return ~((np.minimum.reduce(values) > tol) | (np.maximum.reduce(values) < -tol))


def _grow_ball(gens: np.ndarray, alphabet: str, cap: float, eps: float, back: int
               ) -> tuple[np.ndarray, list[str], int, np.ndarray, float]:
    """Breadth-first ball of the elements with a^2 + b^2 + c^2 + d^2 <= cap,
    one per element up to sign, from the letters ``gens``, a (k, 4) array
    in ``alphabet`` order: the rows, the words, the rounds that added
    elements, each row's error bound and the tolerance the rows were
    compared at (the module docstring's lemma).  A round's candidates are
    compared with the last ``back`` rounds and with each other, and the
    first in (frontier, letter) order is kept, so a word has the fewest
    letters among the paths inside the ball.  A letter is not followed by
    its inverse, nor by itself when it is its own inverse.
    """
    cancels = np.array([alphabet.index(l.swapcase() if l.swapcase() in alphabet else l)
                        for l in alphabet])
    words, mats = [""], [np.array([[1.0, 0.0, 0.0, 1.0]])]
    # per row, its norm and the sum over its word of max(|parent|, |row|)^2
    sizes, steps = [np.full(1, math.sqrt(2.0))], [np.zeros(1)]
    cancel, tol = np.array([-1]), 0.0
    while True:
        flat, m = _products(mats[-1], gens, cancel, cap)
        row, letter = np.divmod(flat, len(alphabet))
        size = np.linalg.norm(m, axis=1)
        summed = steps[-1][row] + np.maximum(sizes[-1][row], size) ** 2
        tol = max(tol, 2.0 * eps * (summed * size).max(initial=0.0))
        held = np.concatenate(mats[-back:] + [m])
        copy = np.zeros(len(held), dtype=bool)
        copy[_near_pairs(held, tol)[1]] = True
        new = np.flatnonzero(~copy[len(held) - len(m):])
        if not len(new):
            error = eps * np.concatenate(steps) * np.concatenate(sizes)
            return np.concatenate(mats), words, len(steps) - 1, error, tol
        start = len(words) - len(mats[-1])
        words += [words[start + r] + alphabet[l]
                  for r, l in zip(row[new].tolist(), letter[new].tolist())]
        mats.append(m[new])
        sizes.append(size[new])
        steps.append(summed[new])
        cancel = cancels[letter[new]]


def _products(frontier: np.ndarray, gens: np.ndarray, cancel: np.ndarray, cap: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """The products of the frontier's rows with the letters that stay under
    the cap and do not cancel, renormalised, in (frontier, letter) order,
    and their flat indices row * len(gens) + letter."""
    prod = _mul_rows(frontier[:, None, :], gens)
    sq = prod * prod
    norm = sq[..., 0] + sq[..., 1]  # summed left to right, as a*a + b*b + c*c + d*d
    norm += sq[..., 2]
    norm += sq[..., 3]
    keep = norm <= cap
    keep &= np.arange(len(gens)) != cancel[:, None]
    flat = np.flatnonzero(keep)
    return flat, _unimodular(prod.reshape(-1, 4)[flat])


@dataclass(frozen=True)
class _Classes:
    """A ball and S in the frame of ``letters`` (z0 at i; a (6, 4) array in
    ``_LETTERS`` order): ``mats``, ``words`` and ``depth`` as ``_grow_ball``
    returns them, ``tol`` the tolerance at which conjugates and powers are
    looked up among the members, ``members`` the rows of S, and ``root`` per
    member the position in ``members`` of its class's least member."""

    letters: np.ndarray
    tol: float
    words: list[str]
    mats: np.ndarray
    depth: int
    members: np.ndarray
    root: np.ndarray
    elliptic: int
    near_parabolic: int


def _matches(members: np.ndarray, m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (row of m, position in ``members``) that are one element."""
    i, j = _near_pairs(np.concatenate((members, m)), tol)
    hit = (i < len(members)) & (j >= len(members))
    return j[hit] - len(members), i[hit]


def _classify(group: TriangleGroup, l_max: float) -> _Classes:
    """Grow the ball for ``l_max``, select S and join one-letter conjugates.

    Raises ResourceBoundError, before growing anything, when the ball's
    estimated size exceeds BALL_BUDGET, and after growing it when a
    tolerance of the module docstring's lemma reaches half the separation.
    """
    z0, radius, kite = _kite(group)
    p, q, r = group.signature
    try:
        # the reach of ``length_spectrum``'s proof
        through = 2.0 * math.asinh(math.sinh(l_max / 2.0) * math.cosh(radius))
        reach = min(l_max + 2.0 * radius, through + radius)
        estimate = (math.cosh(reach) - 1.0) / (1.0 - 1.0 / p - 1.0 / q - 1.0 / r)
    except OverflowError:  # a reach above about 710, far beyond any budget
        estimate = math.inf
    if estimate > BALL_BUDGET:
        raise ResourceBoundError(
            f"the ({p},{q},{r}) ball for l_max {l_max:g} would hold about "
            f"{estimate:.0f} elements, above the bound of {BALL_BUDGET}; "
            "lower l_max"
        )
    mv = _mover(z0)
    mvi = np.linalg.inv(mv)
    letters = np.array([(mvi @ group.letter_matrix(l) @ mv).ravel() for l in _LETTERS])
    # in this frame a^2 + b^2 + c^2 + d^2 = 2 cosh d(z0, h z0)
    cap = 2.0 * math.cosh(reach) * (1.0 + 1e-9)
    size = np.linalg.norm(letters, axis=1).max()
    eps = _LETTER_ERROR + 2.0 * _U * (size + 1.0)
    # a generator of order 2 is its own inverse up to sign: one letter
    alphabet = "".join(l + l.upper() * (order > 2) for l, order in zip("abc", group.signature))
    gens = letters[[_LETTERS.index(l) for l in alphabet]]
    ball = _grow_ball(gens, alphabet, cap, eps, 2)
    if len(_near_pairs(ball[0], ball[4])[0]):
        # a copy beyond the last two rounds: an element whose norm is within
        # its error of the cap, kept along one path and pruned along another
        ball = _grow_ball(gens, alphabet, cap, eps, ball[2] + 1)
    mats, words, depth, error, row_tol = ball
    vertices = [(abs(w) ** 2, w.real) for w in (mobius(mvi, v) for v in kite)]
    t = np.abs(mats[1:, 0] + mats[1:, 3])  # row 0 is the identity
    elliptic = int(np.count_nonzero(t <= 2.0 - TRACE_GAP))
    near_parabolic = int(np.count_nonzero(t <= 2.0 + TRACE_GAP)) - elliptic
    hyperbolic = np.flatnonzero(t > 2.0 + TRACE_GAP)
    bound = l_max + 1e-12
    length = 2.0 * np.arccosh(t[hyperbolic] / 2.0)
    short = length <= bound
    for i in np.flatnonzero(np.abs(length - bound) <= 1e-9):
        short[i] = length_of_trace(float(t[hyperbolic[i]])) <= bound  # arccosh may be an ulp off
    members = hyperbolic[short] + 1
    members = members[_axis_meets(mats[members].T, vertices)]

    # the lemma's bounds for the conjugates and powers looked up among the
    # members, and its check against the separation
    e, l = error[members], 2.0 * np.arccosh(t[members - 1] / 2.0)
    m = np.floor((l_max + 1e-9) / l)
    power = m * math.exp(2.0 * radius) * (np.exp((m - 1.0) * l / 2.0) * e + 4.0 * _U * cap ** 1.5)
    e = e.max(initial=0.0)
    tol = e + max(size * size * e + 9.0 * (size + 1.0) * eps * cap ** 1.5,
                  power[m >= 2].max(initial=0.0))
    c = math.cosh(_inradius(z0, kite))
    separation = math.sqrt(c * (c - 1.0) / cap)
    if 2.0 * max(tol, row_tol) >= separation:
        raise ResourceBoundError(
            f"the ({p},{q},{r}) ball for l_max {l_max:g} tells elements apart at "
            f"{max(tol, row_tol):.1e}, not below half their separation {separation:.1e}; "
            "lower l_max")

    # conjugating by a, b and c finds every one-letter edge from one of its ends
    n = len(members)
    conj = _mul_rows(_mul_rows(letters[0::2, None], mats[members]), letters[1::2, None])
    edge, other = _matches(mats[members], _unimodular(conj.reshape(-1, 4)), tol)
    root = perms.component_labels(edge % n, other, n)
    return _Classes(letters, tol, words, mats, depth, members, root, elliptic, near_parabolic)


def _records(classes: _Classes, l_max: float) -> list[tuple[float, float, str, bool]]:
    """(length, trace, word, primitive) per component, in the order of
    their least members.

    The word is the member's with the fewest letters, then the first
    alphabetically.  A component is not primitive when the m-th power of a
    shorter component's word lands in it; that power has the same axis, so
    it is a member whenever its length is at most ``l_max``.
    """
    root = classes.root.tolist()
    words = [classes.words[r] for r in classes.members.tolist()]
    best: dict[int, int] = {}  # root -> member position of the chosen word
    for i, (rt, word) in enumerate(zip(root, words)):
        b = best.get(rt)
        if b is None or (len(word), word) < (len(words[b]), words[b]):
            best[rt] = i
    members = classes.mats[classes.members]
    rep = members[list(best.values())]
    traces = np.abs(rep[:, 0] + rep[:, 3]).tolist()
    lengths = np.array([length_of_trace(t) for t in traces])
    powers = set()
    live, power, m = np.arange(len(rep)), rep, 2
    while True:
        keep = m * lengths[live] <= l_max + 1e-9
        live, power = live[keep], power[keep]
        if not len(live):
            break
        power = _mul_rows(power, rep[live])
        _row, hits = _matches(members, _unimodular(power.copy()), classes.tol)
        powers.update(classes.root[hits].tolist())
        m += 1
    return [(length, t, words[b], rt not in powers)
            for length, t, (rt, b) in zip(lengths.tolist(), traces, best.items())]


def length_spectrum(group: TriangleGroup, l_max: float, dedupe_tol: float = 1e-9) -> SpectrumResult:
    """Primitive geodesic classes with length <= l_max, one entry each.

    Every class of length l <= l_max has a member h whose axis meets the
    kite D at some y.  The ball is pruned at the reach min(l_max + 2R,
    d_h + R), d_h = 2 asinh(sinh(l_max / 2) cosh R), and reaches every
    such h, by either of two arguments.  Both use that every point of a
    tile g D lies within R of g z0, and that tiles across a side differ
    by one letter.
    (i) Each tile that the axis crosses from y to h y holds a point w of
    it, so d(z0, g z0) <= d(z0, y) + d(y, w) + R <= l + 2R.
    (ii) The axis passes within R of z0, and a hyperbolic element of
    length l whose axis lies at distance delta from z moves z by d with
    sinh(d / 2) = cosh(delta) sinh(l / 2) (Beardon, The Geometry of
    Discrete Groups, Thm 7.35.1), so d(z0, h z0) <= d_h.  Each tile that
    the segment [z0, h z0] meets holds a point w of it, so
    d(z0, g z0) <= d(z0, w) + R <= d_h + R.
    In either case the tiles met, which include every tile about a vertex
    passed through, join D to h D through shared sides, so h is reached
    along a path inside the ball: S is complete.  The members of one class
    in S are joined through the tiles along their axis, so the union-find
    components are exactly the classes, and the result is always converged
    and certified below l_max.

    Each class is stored with multiplicity 1 and its own word and trace,
    sorted by (length, trace, word); ``dedupe_tol`` is recorded for the
    ``merged`` view.  Powers, elliptic and near-parabolic elements are
    excluded, the latter two counted.  ``depth`` is the number of
    breadth-first rounds and ``element_count`` the ball's size.  A ball
    estimated at more than BALL_BUDGET elements raises ResourceBoundError
    before anything is grown.
    """
    if not (math.isfinite(l_max) and l_max > 0):
        raise ValueError(f"l_max must be positive and finite, got {l_max}")
    if not (math.isfinite(dedupe_tol) and dedupe_tol >= 0):
        raise ValueError(f"dedupe_tol must be non-negative and finite, got {dedupe_tol}")
    classes = _classify(group, l_max)
    per_class = tuple(GeodesicClass(t, length, length, 1, word, True)
                      for length, t, word, primitive in sorted(_records(classes, l_max))
                      if primitive)
    return SpectrumResult(per_class, l_max, l_max, True, classes.depth, len(classes.mats),
                          classes.elliptic, classes.near_parabolic, dedupe_tol)


def _merge_equal_lengths(
    classes: tuple[GeodesicClass, ...], dedupe_tol: float
) -> tuple[GeodesicClass, ...]:
    """One entry per run of primitive classes whose lengths lie within
    ``dedupe_tol`` of the run's shortest, with the run's multiplicities
    summed; a power is its own entry.

    The entry is the run's class whose word is least by (len(word),
    word), and a class's length is a function of its trace, so ulp noise
    in the lengths, which only orders and groups the classes, cannot pick
    another word, trace or length.
    """
    runs: list[list[GeodesicClass]] = []
    for c in sorted(classes, key=lambda c: c.length):
        if (runs and c.primitive and runs[-1][0].primitive
                and c.length - runs[-1][0].length <= dedupe_tol):
            runs[-1].append(c)
        else:
            runs.append([c])
    return tuple(replace(min(run, key=lambda c: (len(c.word), c.word)),
                         multiplicity=sum(c.multiplicity for c in run))
                 for run in runs)


def power_closure(
    spectrum: SpectrumResult | Sequence[GeodesicClass], l_max: float
) -> SpectrumResult | list[GeodesicClass]:
    """Close a primitive spectrum under powers up to length l_max.

    The k-th power of a primitive class of length l has length k*l, trace
    2*cosh(k*l/2), and inherits the primitive length and multiplicity.  A
    length that is not positive and finite is refused: no power of it could
    be placed below l_max.  A ``SpectrumResult`` gives one whose l_max and
    certificate are capped at l_max; a sequence gives a list.
    """
    out: list[GeodesicClass] = []
    for cls in spectrum:
        if not cls.primitive:
            raise ValueError("power_closure expects primitive classes")
        if not (math.isfinite(cls.length) and cls.length > 0):
            raise ValueError(
                f"class {cls.word!r} has length {cls.length}; need positive and finite"
            )
        k = 1
        while k * cls.length <= l_max + 1e-12:
            out.append(
                GeodesicClass(
                    2.0 * math.cosh(k * cls.length / 2.0),
                    k * cls.length,
                    cls.length,
                    cls.multiplicity,
                    cls.word if k == 1 else f"{cls.word}^{k}",
                    k == 1,
                )
            )
            k += 1
    out.sort(key=lambda c: c.length)
    if isinstance(spectrum, SpectrumResult):
        return replace(spectrum, classes=tuple(out), l_max=min(spectrum.l_max, l_max),
                       certified_below=min(spectrum.certified_below, l_max))
    return out


@dataclass(frozen=True, eq=False)
class CosetAction:
    """Permutation representation on the cosets of a finite-index subgroup.

    ``perms`` maps each generator letter to a 0-based permutation of
    range(degree), degree >= 1, stored as a read-only array; the action
    must be transitive (connected cover).  Lifting a spectrum also needs
    it to be an action of the triangle group: see ``check_relations``.
    The record is ``eq=False``: compare the arrays of ``perms``.
    """

    degree: int
    perms: dict[str, np.ndarray]
    _inverses: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "perms", {
            letter: permutation(p, self.degree, f"perm for {letter!r}")
            for letter, p in self.perms.items()})
        if not perms.is_transitive(list(self.perms.values()), self.degree):
            raise ValueError("coset action is not transitive")
        object.__setattr__(self, "_inverses", {l: inverse(p) for l, p in self.perms.items()})

    def word_permutation(self, word: str) -> np.ndarray:
        """Image of a word: the image of w1w2 is image(w1)[image(w2)], the
        permutation of w2 applied first, i.e. a left action."""
        out = np.arange(self.degree)
        for letter in word:
            images = self.perms if letter.islower() else self._inverses
            base = images.get(letter.lower())
            if base is None:
                raise ValueError(f"no permutation for generator {letter.lower()!r}")
            out = out[base]
        return out

    def check_relations(self, group: TriangleGroup) -> None:
        """Raise ValueError naming the first of a^p, b^q, c^r and abc whose
        image is not the identity, so that the permutations are not an
        action of ``group``."""
        points = np.arange(self.degree)
        p, q, r = group.signature
        for name, word in (("a^p", "a" * p), ("b^q", "b" * q), ("c^r", "c" * r), ("abc", "abc")):
            if np.count_nonzero(self.word_permutation(word) != points):
                raise ValueError(
                    f"the coset action does not satisfy {name} = 1 of the "
                    f"({p},{q},{r}) triangle group"
                )

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "perms": {l: (self.perms[l] + 1).tolist() for l in sorted(self.perms)},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CosetAction":
        return cls(perms.json_int(obj["degree"], "degree"),
                   perms.one_based_table(obj["perms"], "perm for {!r}"))


def cover_length_spectrum(
    base: SpectrumResult, action: CosetAction, group: TriangleGroup
) -> SpectrumResult:
    """Lift a per-class primitive spectrum of ``group`` to the degree-d
    cover given by a coset action: each cycle of length c of a class's
    permutation image is one primitive class upstairs of length c * l.
    Cycles of one length are one entry, their count its multiplicity.

    An action that breaks a relation of ``group`` is refused first
    (``CosetAction.check_relations``), then an entry that is a power or has
    multiplicity > 1: classes merged at equal length can act with
    different cycle types.  The result keeps the base's certificate, which
    holds upstairs: a lifted class of length <= L covers a base class of
    length <= L.
    """
    action.check_relations(group)
    out: list[GeodesicClass] = []
    for cls in base:
        if cls.multiplicity != 1 or not cls.primitive:
            raise ValueError(
                f"entry {cls.word!r} (multiplicity {cls.multiplicity}, primitive "
                f"{cls.primitive}) is not one primitive class; lift the per-class "
                "spectrum that length_spectrum returns"
            )
        counts = np.bincount(cycle_lengths(action.word_permutation(cls.word)))
        sizes = np.flatnonzero(counts)
        for c, cnt in zip(sizes.tolist(), counts[sizes].tolist()):
            length = c * cls.length
            out.append(GeodesicClass(2.0 * math.cosh(length / 2.0), length, length, cnt,
                                     f"{cls.word}|cycle{c}", True))
    out.sort(key=lambda c: c.length)
    return replace(base, classes=tuple(out))


@dataclass(frozen=True)
class SpinCharacter:
    """U(1) character given on generator letters, extended multiplicatively.

    The lift convention chi(-1) = -1 is recorded; relation defects (e.g.
    chi(a)^p vs chi(-1)) are reported by :meth:`relation_defects`, not
    enforced, because the trace formula consumes only chi on classes.
    """

    values: dict[str, complex] = field(compare=False)
    central_sign: int = -1

    def __post_init__(self):
        for letter, v in self.values.items():
            if abs(abs(v) - 1.0) > 1e-12:
                raise ValueError(f"character value for {letter!r} is not unimodular")

    def value(self, word: str) -> complex:
        out = complex(1.0)
        for letter in word:
            base = self.values.get(letter.lower())
            if base is None:
                raise ValueError(f"no character value for generator {letter.lower()!r}")
            out *= base if letter.islower() else base.conjugate()
        return out

    def relation_defects(self, group: TriangleGroup) -> dict[str, float]:
        sign = complex(self.central_sign)
        return {
            "a^p": abs(self.value("a") ** group.p - sign),
            "b^q": abs(self.value("b") ** group.q - sign),
            "c^r": abs(self.value("c") ** group.r - sign),
            "abc": abs(self.value("abc") - sign),
        }


def character_value(chi: SpinCharacter, class_word: str, power: int = 1) -> complex:
    """chi(P^power) = chi(P)^power by multiplicativity."""
    return chi.value(class_word) ** power


def trivial_character() -> SpinCharacter:
    return SpinCharacter({"a": 1.0 + 0j, "b": 1.0 + 0j, "c": 1.0 + 0j}, central_sign=1)


def spectrum_to_csv(spectrum: SpectrumResult) -> str:
    """CSV per the length-spectrum interface: the comment line
    ``# l_max=...,certified_below=...,converged=true|false``, then one row
    per entry of the ``merged`` view."""
    rows = [f"# l_max={spectrum.l_max!r},certified_below={spectrum.certified_below!r},"
            f"converged={str(spectrum.converged).lower()}",
            "length,trace,multiplicity,word,primitive_flag"]
    for c in spectrum.merged():
        rows.append(f"{c.length!r},{c.trace!r},{c.multiplicity},{c.word},{int(c.primitive)}")
    return "\n".join(rows) + "\n"


def spectrum_from_csv(text: str) -> SpectrumResult | list[GeodesicClass]:
    """The spectrum that ``spectrum_to_csv`` wrote: a ``SpectrumResult``
    carrying the certificate of its ``# l_max=`` line, or, for a CSV
    without that line, a bare list of classes.

    Other comment lines (``#``) are skipped.  A malformed or non-finite
    certificate is refused.  The CSV does not carry the primitive length of
    a power, so a row with primitive_flag 0 is refused rather than read
    with a wrong weight, as is a row whose length or trace is not finite or
    whose length is not positive.
    """
    lines = [l for l in text.strip().splitlines() if l and not l.startswith("#")]
    if not lines or not lines[0].startswith("length"):
        raise ValueError("missing length-spectrum CSV header")
    out = []
    for row, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"CSV row {row} has {len(fields)} fields, expected 5: {line!r}")
        length_s, trace_s, mult_s, word, prim_s = fields
        if not int(prim_s):
            raise ValueError(
                f"CSV row {row} ({word}) is not primitive; the CSV does not carry "
                "its primitive length"
            )
        length, trace = float(length_s), float(trace_s)
        if not (math.isfinite(length) and math.isfinite(trace) and length > 0):
            raise ValueError(
                f"CSV row {row} ({word}) has length {length_s} and trace {trace_s}; "
                "need a finite trace and a positive, finite length"
            )
        out.append(GeodesicClass(trace, length, length, int(mult_s), word, True))
    line = next((l for l in text.splitlines() if l.startswith("# l_max=")), None)
    if line is None:
        return out
    try:
        cert = dict(f.split("=", 1) for f in line[2:].split(","))
        l_max, below = float(cert["l_max"]), float(cert["certified_below"])
        converged = {"true": True, "false": False}[cert["converged"]]
    except (ValueError, KeyError) as exc:
        raise ValueError(f"malformed spectrum certificate line: {line!r}") from exc
    if not (math.isfinite(l_max) and math.isfinite(below)):
        raise ValueError(f"spectrum certificate is not finite: {line!r}")
    return SpectrumResult(tuple(out), l_max, below, converged)
