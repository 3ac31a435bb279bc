"""Fuchsian triangle groups: generators in SL(2,R), breadth-first element
enumeration, primitive geodesic length spectra, finite covers via coset
actions, and unitary characters.

Conventions.  Generators a, b, c are counterclockwise rotations by
2*pi/p, 2*pi/q, 2*pi/r about the vertices of a geodesic triangle with
angles pi/p, pi/q, pi/r, normalized so a*b*c = +-1.  Words are strings
over a/b/c with uppercase for inverses.  A hyperbolic element of absolute
trace t > 2 translates along its axis by l = 2*arccosh(t/2); its conjugacy
class is detected numerically by trace bucketing plus conjugation-orbit
closure inside a matrix-norm ball, which depth-stability tests guard.
The ball grows one word depth at a time and each new element is classified
once, by one classifier whose memo is shared across all depths.  Most
elements resolve by a lookup of their own key or of a one-letter
conjugate's; only the rest descend to a class minimum.  Inside the ball
and the classifier a matrix [[a, b], [c, d]] is the float tuple
(a, b, c, d); the public API takes and returns numpy arrays.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import perms
from .perms import compose, cycle_lengths, inverse

DET_TOL = 1e-12
TRACE_GAP = 1e-9  # elements this close to |tr| = 2 are flagged near-parabolic

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

    @property
    def signature(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    def letter_matrix(self, letter: str) -> np.ndarray:
        base = self.generators[letter.lower()]
        return base if letter.islower() else np.linalg.inv(base)

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


Mat = tuple[float, float, float, float]  # (a, b, c, d) of [[a, b], [c, d]]


def _as_mat(m: np.ndarray) -> Mat:
    return tuple(map(float, m.ravel()))


def _mul(x: Mat, y: Mat) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _renorm(m: Mat) -> Mat:
    a, b, c, d = m
    s = math.sqrt(abs(a * d - b * c))
    return (a / s, b / s, c / s, d / s)


def _abs_max(m: Mat) -> float:
    a, b, c, d = m
    return max(abs(a), abs(b), abs(c), abs(d))


def _key(m: Mat) -> tuple[int, int, int, int]:
    """Entries of m or -m rounded to 8 digits; the sign makes the first
    entry above 1e-8 in absolute value positive."""
    a, b, c, d = m
    for x in m:
        if abs(x) > 1e-8:
            if x < 0:
                a, b, c, d = -a, -b, -c, -d
            break
    return (round(a * 1e8), round(b * 1e8), round(c * 1e8), round(d * 1e8))


@dataclass(frozen=True)
class GeodesicClass:
    """Primitive-power conjugacy class data for the trace formula."""

    trace: float
    length: float
    primitive_length: float
    multiplicity: int = 1
    word: str = ""
    primitive: bool = True

    @property
    def norm(self) -> float:
        return math.exp(self.length)

    @property
    def half_trace_arccosh(self) -> float:
        return math.acosh(self.trace / 2.0)


@dataclass(frozen=True)
class SpectrumResult:
    """Primitive length spectrum with completeness diagnostics."""

    classes: tuple[GeodesicClass, ...]
    l_max: float
    certified_below: float
    converged: bool
    depth: int
    element_count: int
    elliptic_count: int
    near_parabolic_count: int

    def __iter__(self):
        return iter(self.classes)


def length_of_trace(t: float) -> float:
    return 2.0 * math.acosh(abs(t) / 2.0)


class _Ball:
    """Breadth-first ball in the group, deduped by sign-canonical matrix.

    ``frontier`` holds the elements that the last :meth:`grow` added, in
    the order they were inserted into ``elements``.
    """

    def __init__(self, group: TriangleGroup):
        self.letters = [(l, _as_mat(group.letter_matrix(l))) for l in _LETTERS]
        ident = (1.0, 0.0, 0.0, 1.0)
        self.elements: dict[tuple, tuple[Mat, str]] = {_key(ident): (ident, "")}
        self.frontier = [(ident, "")]
        self.depth = 0

    def grow(self, max_norm: float = 1e8) -> int:
        new_frontier = []
        for mat, word in self.frontier:
            cancelling = word[-1:].swapcase()
            for letter, gm in self.letters:
                if letter == cancelling:
                    continue
                nm = _renorm(_mul(mat, gm))
                if _abs_max(nm) > max_norm:
                    continue
                k = _key(nm)
                if k in self.elements:
                    continue
                self.elements[k] = (nm, word + letter)
                new_frontier.append((nm, word + letter))
        self.frontier = new_frontier
        self.depth += 1
        return len(new_frontier)


class _Classifier:
    """Numerical conjugacy detection by canonical minimal representatives.

    :meth:`class_key` looks an element up in three steps:

    1. its own rounded key in the memo;
    2. the keys of its six one-letter conjugates g m g^-1, in
       ``single_pairs`` order.  The first one in the memo gives the class,
       which is also stored under the element's key.  Conjugates share a
       class, so this step is only as wrong as the memo already is;
    3. otherwise the element is conjugated greedily toward smaller matrix
       norm (with two-letter lookahead to step over plateaus); from the
       local minimum a bounded shell of conjugates is searched and the
       smallest rounded matrix key found is the class identifier.  The
       keys of the descent path and the shell are memoized.

    One classifier serves a whole ``length_spectrum`` run, so its memo is
    shared across depths.  The memo is a function of the sequence of
    calls alone, so fed the ball in insertion order it ends each depth in
    the state a fresh classifier would reach on the whole ball.
    """

    SHELL_FACTOR = 2.0
    SHELL_NODE_CAP = 50_000

    def __init__(self, group: TriangleGroup):
        letters = {l: group.letter_matrix(l) for l in _LETTERS}
        conjugators = [letters[l] for l in _LETTERS]
        conjugators += [letters[l1] @ letters[l2] for l1 in _LETTERS for l2 in _LETTERS
                        if l2 != l1.swapcase()]
        self.pairs = [(_as_mat(g), _as_mat(np.linalg.inv(g))) for g in conjugators]
        self.single_pairs = self.pairs[: len(_LETTERS)]
        self.memo: dict[tuple, tuple] = {}

    def _remember(self, cls: tuple, *key_sets) -> tuple:
        for keys in key_sets:
            for k in keys:
                self.memo[k] = cls
        return cls

    def class_key(self, m: Mat) -> tuple:
        memo = self.memo
        cur = _renorm(m)
        k0 = _key(cur)
        if k0 in memo:
            return memo[k0]
        for g, gi in self.single_pairs:
            k = _key(_renorm(_mul(_mul(g, cur), gi)))
            if k in memo:
                cls = memo[k0] = memo[k]
                return cls
        path = []
        cur_rank = (round(_abs_max(cur), 9), k0)
        while True:
            k = cur_rank[1]
            if k in memo:
                return self._remember(memo[k], path)
            path.append(k)
            best = None
            bound = cur_rank
            for g, gi in self.pairs:
                cm = _renorm(_mul(_mul(g, cur), gi))
                norm = round(_abs_max(cm), 9)
                if norm > bound[0]:
                    continue  # ranks compare the norm first: no key needed
                r = (norm, _key(cm))
                if r < bound:
                    bound, best = r, cm
            if best is None:
                break
            cur_rank, cur = bound, best
        # bounded search around the local minimum for the true class minimum
        cap = max(3.0, self.SHELL_FACTOR * cur_rank[0])
        seen = {cur_rank[1]}
        queue = deque([cur])
        best_key = cur_rank[1]
        while queue and len(seen) < self.SHELL_NODE_CAP:
            x = queue.popleft()
            for g, gi in self.single_pairs:
                cm = _renorm(_mul(_mul(g, x), gi))
                if _abs_max(cm) > cap:
                    continue
                k = _key(cm)
                if k in seen:
                    continue
                seen.add(k)
                queue.append(cm)
                if k in memo:
                    return self._remember(memo[k], path, seen)
                if k < best_key:
                    best_key = k
        return self._remember(best_key, path, seen)


def length_spectrum(
    group: TriangleGroup,
    l_max: float,
    dedupe_tol: float = 1e-9,
    max_depth: int = 24,
    max_elements: int = 400_000,
    stable_rounds: int = 1,
) -> SpectrumResult:
    """Primitive geodesic classes with length <= l_max, with multiplicity.

    Words are expanded breadth-first with matrix dedupe up to sign; the
    expansion deepens until the class multiset below l_max is unchanged
    for ``stable_rounds`` consecutive depths (then the spectrum is
    reported converged and certified below l_max) or the element budget
    runs out (reported not converged, certified only below the last
    length at which the two final rounds agreed).  Each depth classifies
    only the elements it added, with one classifier for the whole run.

    Classes at equal length within ``dedupe_tol`` are merged into one
    entry with their count as multiplicity; elliptic and near-parabolic
    elements are excluded and counted separately.
    """
    if not (math.isfinite(l_max) and l_max > 0):
        raise ValueError(f"l_max must be positive and finite, got {l_max}")
    if not (math.isfinite(dedupe_tol) and dedupe_tol >= 0):
        raise ValueError(f"dedupe_tol must be non-negative and finite, got {dedupe_tol}")
    ball = _Ball(group)
    classifier = _Classifier(group)
    partition: dict[tuple, list[tuple[Mat, str]]] = {}
    bucket_width = max(dedupe_tol, 1e-12)
    buckets: dict[int, int] = {}  # classes per length bucket
    previous: dict | None = None
    last_two: tuple[dict | None, dict | None] = (None, None)
    stable = 0
    elliptic = 0
    near_parabolic = 0
    converged = False
    while ball.depth < max_depth:
        if ball.grow() == 0:
            converged = True
            break
        for mat, word in ball.frontier:
            t = abs(mat[0] + mat[3])
            if t <= 2.0 - TRACE_GAP:
                elliptic += 1
            elif t <= 2.0 + TRACE_GAP:
                near_parabolic += 1
            elif length_of_trace(t) <= l_max + 1e-12:
                members = partition.setdefault(classifier.class_key(mat), [])
                if not members:
                    bucket = int(round(length_of_trace(t) / bucket_width))
                    buckets[bucket] = buckets.get(bucket, 0) + 1
                members.append((mat, word))
        signature = dict(buckets)
        if previous is not None and signature == previous:
            stable += 1
            if stable >= stable_rounds:
                converged = True
                break
        else:
            stable = 0
        last_two = (previous, signature)
        previous = signature
        if len(ball.elements) > max_elements:
            break
    classes = _merge_equal_lengths(_class_records(classifier, partition), dedupe_tol)
    if converged:
        certified = l_max
    else:
        # budget ran out: certify only below the first length bucket on
        # which the final two depths disagreed
        prev_sig, last_sig = last_two
        certified = 0.0
        if prev_sig is not None and last_sig is not None:
            disagree = [b for b in set(prev_sig) | set(last_sig)
                        if prev_sig.get(b) != last_sig.get(b)]
            certified = (min(disagree) * bucket_width) if disagree else l_max
    return SpectrumResult(
        classes,
        l_max,
        certified,
        converged,
        ball.depth,
        len(ball.elements),
        elliptic,
        near_parabolic,
    )


def _power(m: Mat, n: int) -> Mat:
    out = m
    for _ in range(n - 1):
        out = _mul(out, m)
    return out


def _class_records(
    classifier: _Classifier, partition: dict[tuple, list[tuple[Mat, str]]]
) -> list[tuple[float, float, str, bool]]:
    """(length, trace, word, primitive) per class, ascending in length.

    The word is the member's with the fewest letters, then the first
    alphabetically.  Primitivity: a class of length l is a power iff some
    class of length l/m (m >= 2) has a representative whose m-th power
    lands in it; checked with the run's classifier, ascending in length.
    """
    raw = []
    for key, members in partition.items():
        mat, word = min(members, key=lambda mw: (len(mw[1]), mw[1]))
        t = abs(mat[0] + mat[3])
        raw.append((length_of_trace(t), t, word, mat, key))
    raw.sort(key=lambda r: (r[0], r[2]))
    records = []
    for i, (l, t, word, _mat, key) in enumerate(raw):
        primitive = True
        for lj, _tj, _wj, mat_j, _kj in raw[:i]:
            m = l / lj
            mi = round(m)
            if (mi >= 2 and abs(m - mi) < 1e-7
                    and classifier.class_key(_power(mat_j, mi)) == key):
                primitive = False
                break
        records.append((l, t, word, primitive))
    return records


def _merge_equal_lengths(
    records: list[tuple[float, float, str, bool]], dedupe_tol: float
) -> tuple[GeodesicClass, ...]:
    """One entry per run of primitive classes whose lengths lie within
    ``dedupe_tol`` of the run's shortest, the run's size its multiplicity.

    The entry takes the word that is least by (len(word), word) over the
    run, and that class's trace, with the length recomputed from it.  The
    lengths passed in only order and group the classes, so ulp noise in
    them cannot pick another word, trace or length.
    """
    runs: list[list[tuple[float, float, str]]] = []
    for length, trace, word, primitive in sorted(records):
        if not primitive:
            continue
        if runs and length - runs[-1][0][0] <= dedupe_tol:
            runs[-1].append((length, trace, word))
        else:
            runs.append([(length, trace, word)])
    merged = []
    for run in runs:
        _l, t, w = min(run, key=lambda r: (len(r[2]), r[2]))
        length = length_of_trace(t)
        merged.append(GeodesicClass(t, length, length, len(run), w, True))
    return tuple(merged)


def power_closure(classes: list[GeodesicClass] | tuple[GeodesicClass, ...], l_max: float) -> list[GeodesicClass]:
    """Close a primitive spectrum under powers up to length l_max.

    The k-th power of a primitive class of length l has length k*l, trace
    2*cosh(k*l/2), and inherits the primitive length and multiplicity.
    """
    out: list[GeodesicClass] = []
    for cls in classes:
        if not cls.primitive:
            raise ValueError("power_closure expects primitive classes")
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
    return out


@dataclass(frozen=True)
class CosetAction:
    """Permutation representation on the cosets of a finite-index subgroup.

    ``perms`` maps each generator letter to a 0-based permutation tuple;
    the action must be transitive (connected cover).
    """

    degree: int
    perms: dict[str, tuple[int, ...]] = field(compare=False)

    def __post_init__(self):
        for letter, p in self.perms.items():
            if sorted(p) != list(range(self.degree)):
                raise ValueError(f"perm for {letter!r} is not a permutation of degree {self.degree}")
        if not self.is_transitive():
            raise ValueError("coset action is not transitive")

    def is_transitive(self) -> bool:
        return perms.is_transitive(self.perms.values(), self.degree)

    def word_permutation(self, word: str) -> tuple[int, ...]:
        """Image of a word: left-to-right letters compose left-to-right."""
        out = tuple(range(self.degree))
        for letter in word:
            base = self.perms.get(letter.lower())
            if base is None:
                raise ValueError(f"no permutation for generator {letter.lower()!r}")
            out = compose(out, base if letter.islower() else inverse(base))
        return out

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "perms": {l: [i + 1 for i in p] for l, p in sorted(self.perms.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CosetAction":
        return cls(
            int(obj["degree"]),
            {l: tuple(int(i) - 1 for i in p) for l, p in obj["perms"].items()},
        )


def cover_length_spectrum(
    base: list[GeodesicClass] | tuple[GeodesicClass, ...] | SpectrumResult,
    action: CosetAction,
) -> list[GeodesicClass]:
    """Lift a primitive base spectrum to the degree-d cover given by a
    coset action: each cycle of length c of the class's permutation image
    contributes one primitive class upstairs of length c * l.

    An entry with multiplicity > 1 (equal-length classes merged by
    ``length_spectrum``) is lifted through its representative word; when
    inequivalent equal-length classes could act with different cycle
    types, supply them as separate entries instead.
    """
    classes = base.classes if isinstance(base, SpectrumResult) else base
    out: list[GeodesicClass] = []
    for cls in classes:
        sigma = action.word_permutation(cls.word)
        counts: dict[int, int] = {}
        for c in cycle_lengths(sigma):
            counts[c] = counts.get(c, 0) + 1
        for c, cnt in sorted(counts.items()):
            out.append(
                GeodesicClass(
                    2.0 * math.cosh(c * cls.length / 2.0),
                    c * cls.length,
                    c * cls.length,
                    cls.multiplicity * cnt,
                    f"{cls.word}|cycle{c}",
                    True,
                )
            )
    out.sort(key=lambda c: c.length)
    return out


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


def spectrum_to_csv(classes) -> str:
    """CSV per the length-spectrum interface: one class per row."""
    rows = ["length,trace,multiplicity,word,primitive_flag"]
    items = classes.classes if isinstance(classes, SpectrumResult) else classes
    for c in items:
        rows.append(
            f"{c.length!r},{c.trace!r},{c.multiplicity},{c.word},{int(c.primitive)}"
        )
    return "\n".join(rows) + "\n"


def spectrum_from_csv(text: str) -> list[GeodesicClass]:
    """Primitive classes from ``spectrum_to_csv`` output.

    The CSV does not carry the primitive length of a power, so a row with
    primitive_flag 0 is refused rather than read with a wrong weight.
    """
    lines = [l for l in text.strip().splitlines() if l]
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
        length = float(length_s)
        out.append(GeodesicClass(float(trace_s), length, length, int(mult_s), word, True))
    return out
