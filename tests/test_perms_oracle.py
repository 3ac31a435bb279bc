"""Frozen tuple copies of the permutation helpers, as oracles for the array
forms in ``adinkra_spectra.perms`` and ``CosetAction.word_permutation``.

A permutation here is a tuple p of range(d), p[i] the image of i.  These
are the loops the library ran before permutations became arrays; other
test modules import them as their reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adinkra_spectra import perms
from adinkra_spectra.hyperbolic import CosetAction

# -- frozen copies -------------------------------------------------------------


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def compose(p, q):
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[j] for j in q)


def cycle_lengths(p):
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


def is_transitive(gens, degree):
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for p in gens:
            if p[i] not in seen:
                seen.add(p[i])
                stack.append(p[i])
    return len(seen) == degree


def cyclic_exponents(gens, degree):
    t = next((p for p in gens if cycle_lengths(p) == [degree]), None)
    if t is None:
        return None
    power_of = {}
    p = tuple(range(degree))
    for e in range(degree):
        power_of[p] = e
        p = compose(t, p)
    exps = [power_of.get(tuple(g)) for g in gens]
    return None if None in exps else exps


def word_permutation(images, degree, word):
    """The former ``CosetAction.word_permutation`` on tuple ``images``."""
    out = tuple(range(degree))
    for letter in word:
        base = images[letter.lower()]
        out = compose(out, base if letter.islower() else inverse(base))
    return out


# -- array forms against the frozen copies ---------------------------------------

degrees = st.integers(1, 9)


def _perm_lists(d, min_size=0, max_size=3):
    return st.lists(st.permutations(range(d)).map(tuple), min_size=min_size, max_size=max_size)


def _arrays(gens):
    return [perms.permutation(p, len(p), "p") for p in gens]


@settings(max_examples=200, deadline=None)
@given(degrees.flatmap(lambda d: _perm_lists(d, 2, 2)))
@example([(0,), (0,)])
def test_inverse_and_gathers_match_the_tuple_forms(pair):
    p, q = pair
    a, b = _arrays(pair)
    assert perms.inverse(a).tolist() == list(inverse(p))
    assert a[b].tolist() == list(compose(p, q))
    assert perms.cycle_lengths(a).tolist() == cycle_lengths(p)


@settings(max_examples=200, deadline=None)
@given(degrees.flatmap(lambda d: st.tuples(st.just(d), _perm_lists(d))))
@example((1, []))
@example((1, [(0,)]))
@example((3, []))
def test_transitivity_matches_the_tuple_form(case):
    d, gens = case
    assert perms.is_transitive(_arrays(gens), d) is is_transitive(gens, d)


@st.composite
def cyclic_or_not(draw):
    """Powers of a shuffled d-cycle, the cycle itself among them unless
    dropped, and sometimes one arbitrary permutation besides."""
    d = draw(degrees)
    label = draw(st.permutations(range(d)))
    position = {a: k for k, a in enumerate(label)}
    gens = [tuple(label[(position[a] + e) % d] for a in range(d))
            for e in draw(st.lists(st.integers(0, d - 1), max_size=4))]
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))),
                    tuple(label[(position[a] + 1) % d] for a in range(d)))
    if draw(st.booleans()):
        gens.append(tuple(draw(st.permutations(range(d)))))
    return d, gens


@settings(max_examples=300, deadline=None)
@given(cyclic_or_not())
@example((1, [(0,), (0,)]))
def test_cyclic_exponents_match_the_tuple_form(case):
    d, gens = case
    assert perms.cyclic_exponents(_arrays(gens), d) == cyclic_exponents(gens, d)


@pytest.mark.parametrize("gens,degree", [
    ([(1, 0, 3, 2), (2, 3, 0, 1)], 4),  # Klein-4
    ([(1, 2, 0), (1, 0, 2)], 3),  # S3
    ([(1, 0, 2, 3), (0, 1, 3, 2)], 4),  # intransitive
    ([(2, 3, 0, 1), (0, 1, 2, 3)], 4),  # even shifts only
])
def test_both_forms_refuse_non_cyclic_actions(gens, degree):
    assert cyclic_exponents(gens, degree) is None
    assert perms.cyclic_exponents(_arrays(gens), degree) is None


@st.composite
def actions_and_words(draw):
    d = draw(degrees)
    images = {l: tuple(draw(st.permutations(range(d)))) for l in "abc"}
    if not is_transitive(list(images.values()), d):
        images["a"] = tuple((i + 1) % d for i in range(d))
    words = st.text(alphabet="aAbBcC", max_size=12)
    return d, images, draw(words), draw(words)


@settings(max_examples=200, deadline=None)
@given(actions_and_words())
@example((1, {"a": (0,), "b": (0,), "c": (0,)}, "aB", "C"))
def test_word_permutation_matches_the_tuple_form(case):
    d, images, w1, w2 = case
    action = CosetAction(d, images)
    assert action.word_permutation(w1 + w2).tolist() == list(word_permutation(images, d, w1 + w2))
    # the left action: w2's permutation applies first
    assert np.array_equal(action.word_permutation(w1 + w2),
                          action.word_permutation(w1)[action.word_permutation(w2)])


# -- the one check ------------------------------------------------------------------


def test_a_permutation_is_a_read_only_intp_copy():
    source = np.array([2, 0, 1])
    p = perms.permutation(source, 3, "p")
    assert p.dtype == np.intp and p.tolist() == [2, 0, 1] and not p.flags.writeable
    assert source.flags.writeable
    assert perms.permutation(np.array([1, 0], dtype=np.uint8), 2, "p").dtype == np.intp


@pytest.mark.parametrize("seq,degree,message", [
    ((), 0, "sigma has degree 0: a permutation needs at least one point"),
    ((0, 1), 3, r"sigma is not a permutation of 0\.\.2"),
    ((0, 0, 1), 3, r"sigma is not a permutation of 0\.\.2"),
    ((0, 1, 3), 3, r"sigma is not a permutation of 0\.\.2"),
    ((-1, 0, 1), 3, r"sigma is not a permutation of 0\.\.2"),
    ((0.0, 1.0), 2, r"sigma is not a permutation of 0\.\.1"),
    ((True, False), 2, r"sigma is not a permutation of 0\.\.1"),
    (((0, 1), (1, 0)), 2, r"sigma is not a permutation of 0\.\.1"),
    (np.array([2**64 - 1, 0], dtype=np.uint64), 2, r"sigma is not a permutation of 0\.\.1"),
])
def test_the_check_names_what_it_refuses(seq, degree, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        perms.permutation(seq, degree, "sigma")


# -- the JSON reader -----------------------------------------------------------------


def test_one_based_reads_json_image_lists():
    p = perms.one_based([2, 3, 1], "p")
    assert p.dtype == np.intp and p.tolist() == [1, 2, 0]
    empty = perms.one_based([], "p")
    assert empty.dtype == np.intp and empty.shape == (0,)


@pytest.mark.parametrize("entries,message", [
    ([2.0, 1], "p has the entry 2.0, which is not an integer"),
    ([2.9, 1.2], "p has the entry 2.9, which is not an integer"),
    ([True, 1], "p has the entry True, which is not an integer"),
    ([1, "2"], "p has the entry '2', which is not an integer"),
    ([[2], 1], r"p has the entry \[2\], which is not an integer"),
    ([1, None], "p has the entry None, which is not an integer"),
    ((2, 1), r"p must be a list of 1-based integers, got \(2, 1\)"),
    ({"1": 2}, r"p must be a list of 1-based integers, got \{'1': 2\}"),
    (5, "p must be a list of 1-based integers, got 5"),
    ("21", "p must be a list of 1-based integers, got '21'"),
    ([10**30, 1], "p has an entry beyond the integer range"),
])
def test_one_based_names_what_it_refuses(entries, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        perms.one_based(entries, "p")
