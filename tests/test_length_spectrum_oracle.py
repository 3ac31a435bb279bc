"""``length_spectrum`` against frozen copies of its earlier forms.

The library grows one displacement ball around the kite D and joins
one-letter conjugates among the elements whose axis meets D by a
union-find.  Both oracles below grow word balls until the class count is
stable for one depth and classify by greedy descent plus a shell search.

The first oracle is the numpy implementation that classified the whole
ball afresh at every depth, with a new classifier each time, and decided
primitivity with yet another one.  The second is the depth-stability
loop on float tuples with the descent classifier.  Wherever they
converge to the right answer, the merged spectrum must be equal:
multiplicities exactly and lengths to 1e-12.  Their balls are a different
quantity from the library's, so ball counts and member words are not
compared.  Both copies stop on an empty class signature, so they return
no classes for (2,3,7) and (2,3,8); those are left out here and checked
in ``test_hyperbolic`` instead.

A third copy is the displacement ball and union-find computed one
candidate at a time on float tuples, before each breadth-first round
became one numpy batch, with six letters whatever the generators' orders.
Grown at the library's reach, it must return the same ball, members and
classes to the bit.  Grown at the older, larger reach l_max + 2R, whose
completeness argument does not use the sharper bound, it must hold the
same members as elements, split into the same classes with the same
records.  A fourth is the per-class tuple loop that named
each class and found its powers, before the powers were formed one
exponent at a time over all classes; its records must be equal too.
"""

import itertools
import math
import resource
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinkra_spectra import hyperbolic
from adinkra_spectra.hyperbolic import length_of_trace, length_spectrum, triangle_generators

# -- frozen oracle ----------------------------------------------------------

_LETTERS = ("a", "A", "b", "B", "c", "C")
TRACE_GAP = 1e-9


def _renorm(m):
    return m / math.sqrt(abs(float(np.linalg.det(m))))


def _key(m):
    flat = m.ravel()
    for x in flat:
        if abs(x) > 1e-8:
            m = m if x > 0 else -m
            break
    return tuple(int(round(float(x) * 1e8)) for x in m.ravel())


class _OracleBall:
    def __init__(self, group):
        self.letters = {l: group.letter_matrix(l) for l in _LETTERS}
        ident = np.eye(2)
        self.elements = {_key(ident): (ident, "")}
        self.frontier = [(ident, "")]
        self.depth = 0

    def grow(self, max_norm=1e8):
        new_frontier = []
        added = 0
        for mat, word in self.frontier:
            last = word[-1] if word else ""
            for letter, gm in self.letters.items():
                if last and letter.swapcase() == last:
                    continue
                nm = _renorm(mat @ gm)
                if float(np.abs(nm).max()) > max_norm:
                    continue
                k = _key(nm)
                if k in self.elements:
                    continue
                self.elements[k] = (nm, word + letter)
                new_frontier.append((nm, word + letter))
                added += 1
        self.frontier = new_frontier
        self.depth += 1
        return added


class _OracleClassifier:
    def __init__(self, group):
        conjugators = [group.letter_matrix(l1) for l1 in _LETTERS]
        for l1 in _LETTERS:
            for l2 in _LETTERS:
                if l2 != l1.swapcase():
                    conjugators.append(group.letter_matrix(l1) @ group.letter_matrix(l2))
        self.pairs = [(g, np.linalg.inv(g)) for g in conjugators]
        self.single_pairs = self.pairs[: len(_LETTERS)]
        self.memo = {}

    @staticmethod
    def _rank(m):
        return (round(float(np.abs(m).max()), 9), _key(m))

    def class_key(self, m):
        path = []
        cur = _renorm(m)
        cur_rank = self._rank(cur)
        while True:
            k = cur_rank[1]
            if k in self.memo:
                cls = self.memo[k]
                for pk in path:
                    self.memo[pk] = cls
                return cls
            path.append(k)
            best = None
            for g, gi in self.pairs:
                cm = _renorm(g @ cur @ gi)
                r = self._rank(cm)
                if r < cur_rank and (best is None or r < best[0]):
                    best = (r, cm)
            if best is None:
                break
            cur_rank, cur = best
        cap = max(3.0, 2.0 * cur_rank[0])
        seen = {cur_rank[1]}
        queue = deque([cur])
        best_key = cur_rank[1]
        while queue and len(seen) < 50_000:
            x = queue.popleft()
            for g, gi in self.single_pairs:
                cm = _renorm(g @ x @ gi)
                if float(np.abs(cm).max()) > cap:
                    continue
                k = _key(cm)
                if k in seen:
                    continue
                seen.add(k)
                queue.append(cm)
                if k in self.memo:
                    cls = self.memo[k]
                    for pk in path:
                        self.memo[pk] = cls
                    for pk in seen:
                        self.memo[pk] = cls
                    return cls
                if k < best_key:
                    best_key = k
        for pk in path:
            self.memo[pk] = best_key
        for pk in seen:
            self.memo[pk] = best_key
        return best_key


def oracle_spectrum(group, l_max, dedupe_tol=1e-9, max_depth=24, stable_rounds=1):
    """Per-class (length, primitive) by member-word set, merged
    (length, multiplicity) entries, and the ball counts."""
    ball = _OracleBall(group)
    previous = None
    stable = 0
    partition = {}
    elliptic = near_parabolic = 0
    converged = False
    while ball.depth < max_depth:
        if ball.grow() == 0:
            converged = True
            break
        hyperbolics = []
        elliptic = near_parabolic = 0
        for mat, word in ball.elements.values():
            if not word:
                continue
            t = abs(float(mat[0, 0] + mat[1, 1]))
            if t <= 2.0 - TRACE_GAP:
                elliptic += 1
            elif t <= 2.0 + TRACE_GAP:
                near_parabolic += 1
            elif length_of_trace(t) <= l_max + 1e-12:
                hyperbolics.append((mat, word))
        classifier = _OracleClassifier(group)
        partition = {}
        for m, w in hyperbolics:
            partition.setdefault(classifier.class_key(m), []).append((m, w))
        signature = {}
        for members in partition.values():
            t = abs(float(members[0][0][0, 0] + members[0][0][1, 1]))
            bucket = int(round(length_of_trace(t) / max(dedupe_tol, 1e-12)))
            signature[bucket] = signature.get(bucket, 0) + 1
        if previous is not None and signature == previous:
            stable += 1
            if stable >= stable_rounds:
                converged = True
                break
        else:
            stable = 0
        previous = signature

    classifier = _OracleClassifier(group)
    raw = []
    for members in partition.values():
        mat, word = min(members, key=lambda mw: (len(mw[1]), mw[1]))
        t = abs(float(mat[0, 0] + mat[1, 1]))
        raw.append((length_of_trace(t), word, mat, frozenset(w for _m, w in members)))
    raw.sort(key=lambda r: (r[0], r[1]))
    keys = [classifier.class_key(mat) for _l, _w, mat, _ws in raw]
    per_class = {}
    merged = []
    for i, (l, _w, _mat, words) in enumerate(raw):
        primitive = True
        for j in range(i):
            m = l / raw[j][0]
            mi = round(m)
            if mi >= 2 and abs(m - mi) < 1e-7:
                power = np.linalg.matrix_power(raw[j][2], mi)
                if classifier.class_key(_renorm(power)) == keys[i]:
                    primitive = False
                    break
        per_class[words] = (l, primitive)
        if not primitive:
            continue
        if merged and abs(merged[-1][0] - l) <= dedupe_tol:
            merged[-1][1] += 1
        else:
            merged.append([l, 1])
    counts = (ball.depth, len(ball.elements), elliptic, near_parabolic, converged)
    return per_class, [tuple(e) for e in merged], counts


# -- comparison -------------------------------------------------------------

ORDERS = sorted({order for sig in ((5, 5, 2), (3, 3, 4), (6, 6, 2), (2, 4, 6), (2, 4, 5))
                 for order in itertools.permutations(sig)})
CASES = [(order, 4.0) for order in ORDERS] + [((5, 5, 2), 3.2), ((5, 5, 2), 5.0)]


def _merged(spec):
    return [(c.length, c.multiplicity) for c in spec.merged()]


def _assert_same_merged(got, ref):
    assert [m for _l, m in got] == [m for _l, m in ref]
    for (length, _m), (ref_length, _rm) in zip(got, ref):
        assert abs(length - ref_length) <= 1e-12, (length, ref_length)


@pytest.mark.parametrize("order,l_max", CASES)
def test_length_spectrum_matches_per_depth_oracle(order, l_max):
    group = triangle_generators(*order)
    per_class, oracle_merged, oracle_counts = oracle_spectrum(group, l_max)
    assert oracle_counts[-1]  # the oracle converged
    spec = length_spectrum(group, l_max)
    _assert_same_merged(_merged(spec), oracle_merged)
    # one entry per primitive class, each with multiplicity 1
    _assert_same_merged([(c.length, c.multiplicity) for c in spec],
                        sorted((l, 1) for l, primitive in per_class.values() if primitive))


# -- frozen descent loop ----------------------------------------------------
# The tuple-arithmetic loop as it was before the displacement ball: word
# depths grown until no new class appears, each new element classified by
# greedy descent over all 36 one- and two-letter conjugators, then a shell
# search around the local minimum, memoising the path and shell keys.


def _t_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _t_renorm(m):
    a, b, c, d = m
    s = math.sqrt(abs(a * d - b * c))
    return (a / s, b / s, c / s, d / s)


def _t_abs_max(m):
    return max(abs(x) for x in m)


def _t_power(m, n):
    out = m
    for _ in range(n - 1):
        out = _t_mul(out, m)
    return out


def _t_key(m):
    a, b, c, d = m
    for x in m:
        if abs(x) > 1e-8:
            if x < 0:
                a, b, c, d = -a, -b, -c, -d
            break
    return (round(a * 1e8), round(b * 1e8), round(c * 1e8), round(d * 1e8))


class _DescentClassifier:
    def __init__(self, group):
        letters = {l: group.letter_matrix(l) for l in _LETTERS}
        conjugators = [letters[l] for l in _LETTERS]
        conjugators += [letters[l1] @ letters[l2] for l1 in _LETTERS for l2 in _LETTERS
                        if l2 != l1.swapcase()]
        self.pairs = [(tuple(map(float, g.ravel())), tuple(map(float, np.linalg.inv(g).ravel())))
                      for g in conjugators]
        self.single_pairs = self.pairs[: len(_LETTERS)]
        self.memo = {}

    def _remember(self, cls, *key_sets):
        for keys in key_sets:
            for k in keys:
                self.memo[k] = cls
        return cls

    def class_key(self, m):
        memo = self.memo
        path = []
        cur = _t_renorm(m)
        cur_rank = (round(_t_abs_max(cur), 9), _t_key(cur))
        while True:
            k = cur_rank[1]
            if k in memo:
                return self._remember(memo[k], path)
            path.append(k)
            best = None
            bound = cur_rank
            for g, gi in self.pairs:
                cm = _t_renorm(_t_mul(_t_mul(g, cur), gi))
                norm = round(_t_abs_max(cm), 9)
                if norm > bound[0]:
                    continue
                r = (norm, _t_key(cm))
                if r < bound:
                    bound, best = r, cm
            if best is None:
                break
            cur_rank, cur = bound, best
        cap = max(3.0, 2.0 * cur_rank[0])
        seen = {cur_rank[1]}
        queue = deque([cur])
        best_key = cur_rank[1]
        while queue and len(seen) < 50_000:
            x = queue.popleft()
            for g, gi in self.single_pairs:
                cm = _t_renorm(_t_mul(_t_mul(g, x), gi))
                if _t_abs_max(cm) > cap:
                    continue
                k = _t_key(cm)
                if k in seen:
                    continue
                seen.add(k)
                queue.append(cm)
                if k in memo:
                    return self._remember(memo[k], path, seen)
                if k < best_key:
                    best_key = k
        return self._remember(best_key, path, seen)


def _descent_spectrum(group, l_max, dedupe_tol=1e-9, max_depth=24, max_elements=400_000):
    """Merged (length, multiplicity) entries of the depth-stability loop."""
    letters = [(l, tuple(map(float, group.letter_matrix(l).ravel()))) for l in _LETTERS]
    ident = (1.0, 0.0, 0.0, 1.0)
    seen = {_t_key(ident)}
    frontier = [(ident, "")]
    classifier = _DescentClassifier(group)
    partition = {}
    previous = None
    for _depth in range(max_depth):
        grown = []
        for mat, word in frontier:
            for letter, gm in letters:
                if letter == word[-1:].swapcase():
                    continue
                nm = _t_renorm(_t_mul(mat, gm))
                if _t_key(nm) not in seen:
                    seen.add(_t_key(nm))
                    grown.append((nm, word + letter))
        frontier = grown
        if not frontier:
            break
        for mat, word in frontier:
            t = abs(mat[0] + mat[3])
            if t > 2.0 + TRACE_GAP and length_of_trace(t) <= l_max + 1e-12:
                partition.setdefault(classifier.class_key(mat), []).append((mat, word))
        if len(partition) == previous or len(seen) > max_elements:
            break  # the class signature only grows, so equal counts mean stable
        previous = len(partition)
    raw = []
    for key, members in partition.items():
        mat, word = min(members, key=lambda mw: (len(mw[1]), mw[1]))
        raw.append((length_of_trace(mat[0] + mat[3]), word, mat, key))
    raw.sort(key=lambda r: (r[0], r[1]))
    primitive = []
    for i, (length, _w, _mat, key) in enumerate(raw):
        for lj, _wj, mat_j, _kj in raw[:i]:
            m = round(length / lj)
            if (m >= 2 and abs(length / lj - m) < 1e-7
                    and classifier.class_key(_t_power(mat_j, m)) == key):
                break
        else:
            primitive.append(length)
    merged = []
    for length in sorted(primitive):
        if merged and length - merged[-1][0] <= dedupe_tol:
            merged[-1][1] += 1
        else:
            merged.append([length, 1])
    return [tuple(entry) for entry in merged]


PROBE_ORDERS = sorted({order for sig in ((5, 5, 2), (3, 3, 4), (6, 6, 2), (2, 4, 6), (2, 4, 5),
                                         (2, 5, 5), (3, 4, 4), (2, 6, 6), (5, 2, 6))
                       for order in itertools.permutations(sig)})
PROBE_CASES = ([(order, 4.0) for order in PROBE_ORDERS]
               + [((5, 5, 2), 3.2), ((5, 5, 2), 5.0), ((5, 5, 2), 6.0), ((3, 4, 4), 6.0),
                  ((2, 6, 6), 6.0), ((2, 4, 5), 5.5)])


@pytest.mark.parametrize("order,l_max", PROBE_CASES)
def test_spectrum_equals_descent_classifier_run(order, l_max):
    group = triangle_generators(*order)
    _assert_same_merged(_merged(length_spectrum(group, l_max)), _descent_spectrum(group, l_max))


# the frozen loop returns no classes for these: every short word is elliptic
DESCENT_WRONG = ([2, 3, 7], [2, 3, 8])
HYPERBOLIC_SIGNATURES = st.tuples(*[st.integers(2, 8)] * 3).filter(
    lambda s: Fraction(1, s[0]) + Fraction(1, s[1]) + Fraction(1, s[2]) < 1
    and sorted(s) not in DESCENT_WRONG)


@settings(max_examples=40, deadline=None)
@given(HYPERBOLIC_SIGNATURES, st.floats(3.0, 4.5))
def test_spectrum_equals_descent_classifier_run_on_random_signatures(sig, l_max):
    group = triangle_generators(*sig)
    _assert_same_merged(_merged(length_spectrum(group, l_max)), _descent_spectrum(group, l_max))


# -- frozen per-element ball ------------------------------------------------
# The displacement ball and union-find as they were before each round became
# one numpy batch: every candidate multiplied, pruned, renormalised and
# looked up on its own, in (frontier, letter) order, against every element
# held so far.  At the same reach the batch must give the same classes to
# the bit: the ball's rows and words in insertion order, its depth, the
# members, the classes and the elliptic and near-parabolic counts.
#
# Its lookup shares no code with the library's search.  An element is held
# under the cell of side _T_CELL that holds its row, and a row is looked up,
# as itself and negated, in its own cell and in each neighbouring cell that
# one of its entries lies within _T_SPREAD of.  Rows of one element differ
# by less than _T_SPREAD (below 1e-9 in these balls), so a copy is always
# found; distinct elements differ by more than 2 * _T_CELL in some entry
# (by at least 1e-3 here), so they never share or neighbour a cell there.

_T_CELL = 1e-6
_T_SPREAD = 1e-8


def _t_cell(m):
    return tuple(math.floor(x / _T_CELL) for x in m)


def _t_find(table, m):
    """What ``table``, keyed by ``_t_cell``, holds for m or -m, or None."""
    margin = _T_SPREAD / _T_CELL
    for sign in (1.0, -1.0):
        cells = []
        for x in m:
            y = sign * x / _T_CELL
            k = math.floor(y)
            cells.append([k] + [k - 1] * (y - k <= margin) + [k + 1] * (k + 1 - y <= margin))
        for probe in itertools.product(*cells):
            if probe in table:
                return table[probe]
    return None


def _t_table(rows):
    """The ``_t_find`` table of ``rows`` (position -> float tuple): cell -> position."""
    return {_t_cell(m): i for i, m in rows.items()}


def _t_axis_meets(m, vertices):
    a, b, c, d = m
    tol = 1e-9 * (abs(a) + abs(b) + abs(c) + abs(d))
    values = [c * n2 + (d - a) * x - b for n2, x in vertices]
    return not (min(values) > tol or max(values) < -tol)


def _per_element_ball(letters, cap):
    ident = (1.0, 0.0, 0.0, 1.0)
    elements, cells = [(ident, "")], {_t_cell(ident): 0}
    frontier = [(ident, "")]
    rounds = 0
    while True:
        added = []
        for mat, word in frontier:
            cancelling = word[-1:].swapcase()
            for letter, gm in letters:
                if letter == cancelling:
                    continue
                nm = _t_mul(mat, gm)
                a, b, c, d = nm
                if a * a + b * b + c * c + d * d > cap:
                    continue
                nm = _t_renorm(nm)
                if _t_find(cells, nm) is not None:
                    continue
                cells[_t_cell(nm)] = len(elements)
                elements.append((nm, word + letter))
                added.append((nm, word + letter))
        if not added:
            return elements, rounds
        frontier = added
        rounds += 1


@dataclass(frozen=True)
class _TupleClasses:
    """The ball and S as the per-element loop held them: ``letters`` as
    (letter, float tuple) pairs, ``elements`` as a list of (float tuple,
    word), ``members`` as position -> (float tuple, word), and ``root`` as
    position -> its union-find root."""

    letters: tuple
    elements: list
    depth: int
    members: dict
    root: dict
    elliptic: int
    near_parabolic: int


def _old_reach(group, l_max):
    """l_max + 2R: each tile that the axis of h crosses from y in D to h y
    has its g z0 within l_max + R of y."""
    return l_max + 2.0 * hyperbolic._kite(group)[1]


def _sharp_reach(group, l_max):
    """min(l_max + 2R, d_h + R), d_h = 2 asinh(sinh(l_max / 2) cosh R), the
    library's reach: d_h bounds d(z0, h z0) when the axis of h meets D, and
    each tile the segment [z0, h z0] meets has its g z0 within R of it."""
    radius = hyperbolic._kite(group)[1]
    through = 2.0 * math.asinh(math.sinh(l_max / 2.0) * math.cosh(radius))
    return min(l_max + 2.0 * radius, through + radius)


def _per_element_classify(group, l_max, reach):
    z0, _radius, kite = hyperbolic._kite(group)
    mv = hyperbolic._mover(z0)
    mvi = np.linalg.inv(mv)
    letters = tuple((l, tuple(map(float, (mvi @ group.letter_matrix(l) @ mv).ravel())))
                    for l in _LETTERS)
    elements, depth = _per_element_ball(letters, 2.0 * math.cosh(reach) * (1.0 + 1e-9))
    vertices = [(abs(w) ** 2, w.real) for w in (hyperbolic.mobius(mvi, v) for v in kite)]
    members = {}
    elliptic = near_parabolic = 0
    for i, (mat, word) in enumerate(elements):
        if not word:
            continue
        t = abs(mat[0] + mat[3])
        if t <= 2.0 - TRACE_GAP:
            elliptic += 1
        elif t <= 2.0 + TRACE_GAP:
            near_parabolic += 1
        elif length_of_trace(t) <= l_max + 1e-12 and _t_axis_meets(mat, vertices):
            members[i] = (mat, word)
    table = _t_table({i: mat for i, (mat, _w) in members.items()})
    root = {i: i for i in members}

    def find(k):
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    frame = dict(letters)
    for i, (mat, _word) in members.items():
        for g in "abc":
            other = _t_find(table, _t_renorm(_t_mul(_t_mul(frame[g], mat), frame[g.upper()])))
            if other is not None:
                root[find(other)] = find(i)
    return _TupleClasses(letters, elements, depth, members, {i: find(i) for i in members},
                         elliptic, near_parabolic)


def _t_records(members, root, l_max):
    """(length, trace, word, primitive) per class, as the per-class tuple
    loop gave them: members position -> (float tuple, word), root position
    -> the position that names its class."""
    table = _t_table({i: mat for i, (mat, _w) in members.items()})
    words = {}
    for i, (mat, word) in members.items():
        best = words.get(root[i])
        if best is None or (len(word), word) < (len(best[1]), best[1]):
            words[root[i]] = (mat, word)
    powers = set()
    for mat, _word in words.values():
        length = length_of_trace(abs(mat[0] + mat[3]))
        power, m = _t_mul(mat, mat), 2
        while m * length <= l_max + 1e-9:
            i = _t_find(table, _t_renorm(power))
            if i is not None:
                powers.add(root[i])
            power, m = _t_mul(power, mat), m + 1
    records = []
    for rt, (mat, word) in words.items():
        t = abs(mat[0] + mat[3])
        records.append((length_of_trace(t), t, word, rt not in powers))
    return records


def _tuple_letters(ball):
    """The letters of a ``_Classes`` as letter -> float tuple."""
    return dict(zip(_LETTERS, map(tuple, ball.letters.tolist())))


def _tuple_members(ball):
    """The members of a ``_Classes`` in the per-element form, by ball row:
    row -> (float tuple, word), and row -> the row of its class's least
    member."""
    rows = ball.members.tolist()
    members = {r: (tuple(ball.mats[r].tolist()), ball.words[r]) for r in rows}
    root = {r: rows[j] for r, j in zip(rows, ball.root.tolist())}
    return members, root


def _hex(m):
    # the floats to the bit, so that -0.0 and 0.0 differ
    return tuple(float(x).hex() for x in m)


def _assert_same_classes(got, ref):
    assert [(l, _hex(m)) for l, m in zip(_LETTERS, got.letters.tolist())] == \
        [(l, _hex(m)) for l, m in ref.letters]
    n = len(ref.elements)
    assert (got.depth, len(got.words)) == (ref.depth, n)
    assert got.mats.shape == (n, 4) and got.mats.dtype == np.float64
    assert [(_hex(m), w) for m, w in zip(got.mats.tolist(), got.words)] == \
        [(_hex(m), w) for m, w in ref.elements]
    assert got.members.tolist() == list(ref.members)
    # the frozen roots are arbitrary members: name each class by its least
    # member's position, which is what component_labels gives
    position = {k: i for i, k in enumerate(ref.members)}
    least = {}
    for k in ref.members:
        least.setdefault(ref.root[k], position[k])
    assert got.root.tolist() == [least[ref.root[k]] for k in ref.members]
    assert (got.elliptic, got.near_parabolic) == (ref.elliptic, ref.near_parabolic)


def _assert_same_classes_as_a_larger_ball(got, ref, l_max):
    """The members, classes and records of ``got`` against ``ref``, grown at
    a larger reach: each member of ``got`` is one member of ``ref`` as an
    element, the two split them into the same classes, and the records
    agree to the bit, so the larger ball's classes and words are found."""
    table = _t_table({k: m for k, (m, _w) in ref.members.items()})
    found = [_t_find(table, m) for m in got.mats[got.members].tolist()]
    assert None not in found and sorted(found) == sorted(ref.members)
    labels = set(zip(got.root.tolist(), (ref.root[k] for k in found)))
    assert len(labels) == len({a for a, _b in labels}) == len({b for _a, b in labels})
    assert sorted(hyperbolic._records(got, l_max)) == \
        sorted(_t_records(ref.members, ref.root, l_max))


def _assert_same_as_per_element(group, l_max):
    # the ball, to the bit, at the library's reach; the classes and records
    # at the old reach l_max + 2R, whose completeness argument is independent
    ball = _batch_classify(group, l_max)
    _assert_same_classes(ball, _per_element_classify(group, l_max, _sharp_reach(group, l_max)))
    _assert_same_classes_as_a_larger_ball(
        ball, _per_element_classify(group, l_max, _old_reach(group, l_max)), l_max)


SORTED_SIGNATURES = [s for s in itertools.combinations_with_replacement(range(2, 9), 3)
                     if Fraction(1, s[0]) + Fraction(1, s[1]) + Fraction(1, s[2]) < 1]
BATCH_CASES = ([(sig, l_max) for sig in SORTED_SIGNATURES for l_max in (3.0, 4.0)]
               + [((5, 5, 2), 6.0), ((3, 4, 4), 6.0), ((2, 3, 7), 6.0)])


def _batch_classify(group, l_max, headroom=1 << 30):
    # a round that kept an element the ball holds would bring its parents
    # back as new elements, and the rounds would grow without end: cap the
    # address space so that this fails with MemoryError instead of
    # exhausting the host
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as f:
        in_use = int(f.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (in_use + headroom, hard))
    try:
        return hyperbolic._classify(group, l_max)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("sig,l_max", BATCH_CASES,
                         ids=[f"{p},{q},{r}@{l_max}" for (p, q, r), l_max in BATCH_CASES])
def test_batch_ball_equals_per_element_ball(sig, l_max):
    _assert_same_as_per_element(triangle_generators(*sig), l_max)


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.integers(2, 8)] * 3).filter(
    lambda s: Fraction(1, s[0]) + Fraction(1, s[1]) + Fraction(1, s[2]) < 1),
    st.floats(3.0, 5.0))
def test_batch_ball_equals_per_element_ball_in_any_vertex_order(sig, l_max):
    _assert_same_as_per_element(triangle_generators(*sig), l_max)


@pytest.mark.parametrize("sig,l_max", BATCH_CASES,
                         ids=[f"{p},{q},{r}@{l_max}" for (p, q, r), l_max in BATCH_CASES])
def test_batched_records_equal_per_class_records(sig, l_max):
    # the same classes through both loops: records in the same order, to the bit
    ball = _batch_classify(triangle_generators(*sig), l_max)
    assert hyperbolic._records(ball, l_max) == _t_records(*_tuple_members(ball), l_max)



@pytest.mark.parametrize("sig", [(5, 5, 2), (2, 4, 5)])
def test_one_letter_conjugates_share_the_class(sig):
    # the class of x is read off every member reached from x by one-letter
    # conjugations under the ball's norm bound, through non-members too; for
    # x = g m g^-1 it must be the component of m and nothing else
    l_max = 4.0
    group = triangle_generators(*sig)
    ball = hyperbolic._classify(group, l_max)
    cap = 2.0 * math.cosh(l_max + 2.0 * hyperbolic._kite(group)[1]) * (1.0 + 1e-9)
    frame = _tuple_letters(ball)
    members, root = _tuple_members(ball)
    table = _t_table({r: m for r, (m, _w) in members.items()})
    pairs = [(frame[l], frame[l.swapcase()]) for l in _LETTERS]

    def conjugate(pair, m):
        g, gi = pair
        return _t_renorm(_t_mul(_t_mul(g, m), gi))

    def class_of(x):
        roots, seen, queue = set(), {_t_cell(x): True}, deque([x])
        while queue:
            y = queue.popleft()
            r = _t_find(table, y)
            if r is not None:
                roots.add(root[r])
            for pair in pairs:
                z = conjugate(pair, y)
                if sum(v * v for v in z) <= cap and _t_find(seen, z) is None:
                    seen[_t_cell(z)] = True
                    queue.append(z)
        return roots

    representatives = {}
    for r, (m, _w) in members.items():
        representatives.setdefault(root[r], m)
    for rt, m in representatives.items():
        for pair, letter in zip(pairs, _LETTERS):
            assert class_of(conjugate(pair, m)) == {rt}, letter
