import itertools
import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from adinkra_spectra import hyperbolic
from adinkra_spectra.errors import ResourceBoundError
from adinkra_spectra.perms import cycle_lengths
from adinkra_spectra.hyperbolic import (
    CosetAction,
    GeodesicClass,
    SpectrumResult,
    SpinCharacter,
    character_value,
    cover_length_spectrum,
    length_of_trace,
    length_spectrum,
    power_closure,
    spectrum_from_csv,
    spectrum_to_csv,
    triangle_generators,
    trivial_character,
)
from test_length_spectrum_oracle import (
    _t_cell,
    _t_find,
    _t_mul,
    _t_renorm,
    _t_table,
    _tuple_letters,
    _tuple_members,
)


@pytest.fixture(scope="module")
def delta552():
    return triangle_generators(5, 5, 2)


@pytest.fixture(scope="module")
def spectrum552(delta552):
    return length_spectrum(delta552, 4.0)


def test_generator_traces(delta552):
    traces = [abs(float(m[0, 0] + m[1, 1])) for m in delta552.generators.values()]
    assert traces[0] == pytest.approx(2 * math.cos(math.pi / 5), abs=1e-12)
    assert traces[1] == pytest.approx(2 * math.cos(math.pi / 5), abs=1e-12)
    assert traces[2] == pytest.approx(0.0, abs=1e-12)


def test_relation_residual(delta552):
    assert delta552.relation_residual < 1e-10


def test_generator_orders(delta552):
    a = np.linalg.matrix_power(delta552.generators["a"], 5)
    c = np.linalg.matrix_power(delta552.generators["c"], 2)
    assert min(np.abs(a - np.eye(2)).max(), np.abs(a + np.eye(2)).max()) < 1e-10
    assert np.abs(c + np.eye(2)).max() < 1e-10


def test_euclidean_signature_rejected():
    with pytest.raises(ValueError, match="not hyperbolic"):
        triangle_generators(4, 4, 2)
    with pytest.raises(ValueError):
        triangle_generators(3, 3, 3)


def test_237_is_hyperbolic():
    g = triangle_generators(2, 3, 7)
    assert g.relation_residual < 1e-10


def test_determinants_stay_normalized(delta552):
    ball = hyperbolic._classify(delta552, 5.0)
    assert ball.depth >= 8
    worst = max(abs(float(np.linalg.det(np.reshape(m, (2, 2)))) - 1.0) for m in ball.mats)
    assert worst < 1e-12


def test_spectrum_excludes_elliptic(spectrum552):
    assert spectrum552.elliptic_count > 0
    assert spectrum552.near_parabolic_count == 0
    for c in spectrum552.classes:
        assert c.trace > 2.0 + 1e-9
        assert c.length == pytest.approx(length_of_trace(c.trace), abs=1e-12)


def test_spectrum_converged(spectrum552):
    assert spectrum552.converged
    assert spectrum552.certified_below == 4.0


def test_spectrum_restricts_to_shorter_l_max(delta552, spectrum552):
    # the l_max-5 ball is a different, larger ball; below 4.0 it must find
    # the same classes
    longer = [c for c in length_spectrum(delta552, 5.0).classes if c.length <= 4.0]
    assert len(longer) == len(spectrum552.classes)
    for c, d in zip(spectrum552.classes, longer):
        assert abs(c.length - d.length) <= 1e-12 and c.multiplicity == d.multiplicity


def test_power_length_doubles(delta552, spectrum552):
    shortest = spectrum552.classes[0]
    m = delta552.word_matrix(shortest.word)
    m2 = m @ m
    t2 = abs(float(m2[0, 0] + m2[1, 1]))
    assert length_of_trace(t2) == pytest.approx(2 * shortest.length, abs=1e-10)


def test_powers_marked_non_primitive(delta552):
    # widen the window so the square of the shortest class falls inside
    records = hyperbolic._records(hyperbolic._classify(delta552, 3.2), 3.2)
    l0 = min(length for length, _t, _w, _p in records)
    squares = [p for length, _t, _w, p in records if abs(length - 2 * l0) < 1e-9]
    assert squares and not any(squares)
    spec = length_spectrum(delta552, 3.2)
    lengths = [round(c.length, 6) for c in spec.classes]
    assert round(2 * l0, 6) not in lengths  # powers are excluded from output


def test_inversion_closure(delta552, spectrum552):
    # gamma and gamma^-1 have equal length and the same axis; each member's
    # inverse is a member (possibly of its own class, via an order-2 axis
    # symmetry) of a class of equal length
    members, root = _tuple_members(hyperbolic._classify(delta552, 4.0))
    table = _t_table({r: m for r, (m, _w) in members.items()})
    length = {}
    for r, (m, _w) in members.items():
        length[root[r]] = length_of_trace(abs(m[0] + m[3]))
    for r, (m, _w) in members.items():
        a, b, c, d = m
        inv = _t_find(table, (d, -b, -c, a))
        assert inv is not None
        assert length[root[inv]] == pytest.approx(length[root[r]], abs=1e-10)
    for c in spectrum552.classes:
        t_inv = abs(float(np.trace(np.linalg.inv(delta552.word_matrix(c.word)))))
        assert length_of_trace(t_inv) == pytest.approx(c.length, abs=1e-10)


def test_amphichiral_class_exists(delta552, spectrum552):
    # ABc is conjugate to its inverse by c: odd multiplicity is genuine
    mults = {round(c.length, 6): c.multiplicity for c in spectrum552.merged()}
    assert mults[round(2.122550124, 6)] == 1


def test_power_closure():
    base = [GeodesicClass(2 * math.cosh(0.5), 1.0, 1.0, 2, "w", True)]
    closed = power_closure(base, 3.5)
    assert [c.length for c in closed] == [1.0, 2.0, 3.0]
    assert [c.primitive for c in closed] == [True, False, False]
    assert all(c.primitive_length == 1.0 for c in closed)
    assert all(c.trace == pytest.approx(2 * math.cosh(c.length / 2)) for c in closed)


def test_trivial_cover_keeps_spectrum(delta552, spectrum552):
    action = CosetAction(1, {"a": (0,), "b": (0,), "c": (0,)})
    lifted = cover_length_spectrum(spectrum552, action, delta552)
    assert [(round(c.length, 9), c.multiplicity) for c in lifted] == [
        (round(c.length, 9), c.multiplicity) for c in spectrum552.classes
    ]


# Real actions of (5,5,2).  CYCLIC5 is the quotient a -> s, b -> s^-1,
# c -> id onto Z/5; A5 is a degree-5 action whose images include 3-cycles
# and double transpositions.
_S, _S_INV = (1, 2, 3, 4, 0), (4, 0, 1, 2, 3)
CYCLIC5 = {"a": _S, "b": _S_INV, "c": (0, 1, 2, 3, 4)}
A5 = {"a": (1, 2, 3, 4, 0), "b": (4, 2, 3, 0, 1), "c": (0, 3, 4, 1, 2)}


def test_identity_image_gives_d_copies(delta552, spectrum552):
    # a class whose image in Z/5 is trivial lifts to 5 copies of itself, and
    # any other to one class five times as long
    action = CosetAction(5, CYCLIC5)
    lifted = {c.word.split("|")[0]: c for c in cover_length_spectrum(spectrum552, action, delta552)}
    trivial = 0
    for base in spectrum552.classes:
        exponent = sum({"a": 1, "A": -1, "b": -1, "B": 1}.get(l, 0) for l in base.word) % 5
        up = lifted[base.word]
        if exponent == 0:
            trivial += 1
            assert up.multiplicity == 5 * base.multiplicity and up.length == base.length
        else:
            assert up.multiplicity == base.multiplicity
            assert up.length == pytest.approx(5 * base.length, rel=1e-12)
    assert trivial == 3  # ABc, and AABac and AbAbb at one length


def test_cover_cycle_lengths_sum_to_degree(delta552, spectrum552):
    action = CosetAction(5, A5)
    lifted = cover_length_spectrum(spectrum552, action, delta552)
    base_by_word = {}
    for c in lifted:
        word = c.word.split("|")[0]
        cyc = int(c.word.split("|cycle")[1])
        base_by_word.setdefault(word, 0)
        base = next(b for b in spectrum552.classes if b.word == word)
        base_by_word[word] += cyc * (c.multiplicity // base.multiplicity)
    assert set(base_by_word.values()) == {5}
    cycle_types = {tuple(sorted(cycle_lengths(action.word_permutation(b.word)).tolist()))
                   for b in spectrum552.classes}
    assert cycle_types == {(1, 1, 3), (1, 2, 2), (5,)}


def test_cover_lengths_scale_with_cycles(delta552, spectrum552):
    for perms in (CYCLIC5, A5):
        lifted = cover_length_spectrum(spectrum552, CosetAction(5, perms), delta552)
        for c in lifted:
            word, cyc = c.word.split("|cycle")
            base = next(b for b in spectrum552.classes if b.word == word)
            assert c.length == pytest.approx(int(cyc) * base.length, rel=1e-12)
            assert c.primitive


def test_word_permutation_is_a_left_action():
    action = CosetAction(5, A5)
    for w1, w2 in (("a", "b"), ("ab", "C"), ("Bc", "aab")):
        assert np.array_equal(action.word_permutation(w1 + w2),
                              action.word_permutation(w1)[action.word_permutation(w2)])


def test_coset_action_json_round_trip():
    action = CosetAction(5, A5)
    obj = action.to_json()
    text = json.dumps(obj)  # plain ints: json cannot write numpy ones
    assert obj == {"degree": 5, "perms": {l: [i + 1 for i in A5[l]] for l in sorted(A5)}}
    back = CosetAction.from_json(json.loads(text))
    assert back.degree == action.degree and sorted(back.perms) == sorted(action.perms)
    for l in "abc":
        assert back.perms[l].dtype == np.intp
        assert np.array_equal(back.perms[l], action.perms[l])
        assert back.perms[l].tolist() == list(A5[l])


def test_coset_actions_with_other_permutations_are_not_equal():
    # the record used to compare its degree alone, so these were equal
    # and hashed alike
    one = CosetAction(2, {"a": [1, 0], "b": [1, 0], "c": [0, 1]})
    other = CosetAction(2, {"a": [0, 1], "b": [1, 0], "c": [1, 0]})
    assert one != other
    assert len({one, other}) == 2


@pytest.mark.parametrize("obj,message", [
    ({"degree": 2, "perms": [[2, 1]]}, "perms must be an object of 1-based image lists, got list"),
    ({"degree": 2, "perms": {"a": [2.0, 1], "b": [1, 2], "c": [2, 1]}},
     "perm for 'a' has the entry 2.0, which is not an integer"),
    ({"degree": 2, "perms": {"a": [2, 1], "b": "21", "c": [2, 1]}},
     "perm for 'b' must be a list of 1-based integers, got '21'"),
    ({"degree": 2.7, "perms": {"a": [2, 1], "b": [2, 1], "c": [1, 2]}},
     "degree must be an integer, got 2.7"),
    ({"degree": "2", "perms": {"a": [2, 1], "b": [2, 1], "c": [1, 2]}},
     "degree must be an integer, got '2'"),
])
def test_coset_action_json_is_read_strictly(obj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CosetAction.from_json(obj)


@pytest.mark.parametrize("perms,relation", [
    ({"a": (1, 0), "b": (0, 1), "c": (0, 1)}, "a^p"),  # a swap is not of order dividing 5
    ({"a": _S, "b": _S, "c": (0, 1, 2, 3, 4)}, "abc"),
    ({"a": _S, "b": _S_INV, "c": _S}, "c^r"),
])
def test_cover_refuses_a_broken_relation(delta552, spectrum552, perms, relation):
    action = CosetAction(len(perms["a"]), perms)
    with pytest.raises(ValueError, match=rf"does not satisfy {re.escape(relation)} = 1 of "
                                         r"the \(5,5,2\) triangle group"):
        cover_length_spectrum(spectrum552, action, delta552)


def _gl23_actions():
    """GL(2,3) acting on itself by left and by right multiplication, with
    a of order 2, b of order 3 and c = (ab)^-1 of order 8."""
    elements = [m for m in itertools.product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3]

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    a, b = (0, 1, 1, 0), (1, 0, 1, 1)
    ab = mul(a, b)
    c = next(x for x in elements if mul(ab, x) == (1, 0, 0, 1))
    index = {x: i for i, x in enumerate(elements)}
    left = {l: tuple(index[mul(g, x)] for x in elements) for l, g in zip("abc", (a, b, c))}
    right = {l: tuple(index[mul(x, g)] for x in elements) for l, g in zip("abc", (a, b, c))}
    return CosetAction(48, left), CosetAction(48, right)


def test_bolza_cover_by_left_multiplication():
    # the regular action of GL(2,3) on itself gives the Bolza surface, whose
    # systole 2 arccosh(1 + sqrt 2) is carried by 24 oriented classes;
    # right multiplication is not a left action and is refused
    group = triangle_generators(2, 3, 8)
    spec = length_spectrum(group, 3.2)
    left, right = _gl23_actions()
    lifted = [c for c in cover_length_spectrum(spec, left, group) if c.length <= 3.2]
    assert [c.multiplicity for c in lifted] == [24]
    assert lifted[0].length == pytest.approx(2 * math.acosh(1 + math.sqrt(2)), abs=1e-12)
    with pytest.raises(ValueError, match=r"does not satisfy abc = 1 of the \(2,3,8\)"):
        cover_length_spectrum(spec, right, group)


def test_character_values():
    chi = trivial_character()
    assert character_value(chi, "aBcA", 3) == pytest.approx(1.0)
    chi2 = SpinCharacter({"a": -1.0 + 0j, "b": 1.0 + 0j, "c": 1.0 + 0j})
    assert character_value(chi2, "a", 2) == pytest.approx(1.0)
    assert character_value(chi2, "a", 1) == pytest.approx(-1.0)
    # homomorphism in the power
    v = character_value(chi2, "ab", 2) * character_value(chi2, "ab", 3)
    assert v == pytest.approx(character_value(chi2, "ab", 5))
    with pytest.raises(ValueError, match="unimodular"):
        SpinCharacter({"a": 0.5 + 0j, "b": 1.0 + 0j, "c": 1.0 + 0j})
    with pytest.raises(ValueError, match="no character value"):
        chi2.value("x")


def test_character_relation_defects(delta552):
    import cmath

    # chi(a) a primitive 10th root: chi(a)^5 = -1 matches the lift sign
    chi = SpinCharacter({
        "a": cmath.exp(1j * math.pi / 5),
        "b": cmath.exp(1j * math.pi / 5),
        "c": 1j,
    })
    defects = chi.relation_defects(delta552)
    assert defects["a^p"] < 1e-12
    assert defects["c^r"] < 1e-12


def test_csv_round_trip(spectrum552):
    # the CSV holds the merged view and the certificate
    text = spectrum_to_csv(spectrum552)
    back = spectrum_from_csv(text)
    rows = [(c.length, c.trace, c.multiplicity, c.word) for c in spectrum552.merged()]
    assert [(c.length, c.trace, c.multiplicity, c.word) for c in back] == rows
    assert len(rows) < len(spectrum552)
    assert text.startswith(f"# l_max={spectrum552.l_max!r},")
    assert (back.l_max, back.certified_below, back.converged) == (
        spectrum552.l_max, spectrum552.certified_below, spectrum552.converged)
    assert spectrum_to_csv(back) == text
    # without the certificate line the CSV reads as a bare list
    bare = spectrum_from_csv(text.split("\n", 1)[1])
    assert isinstance(bare, list) and bare == list(back)


@pytest.mark.parametrize("line", ["# l_max=4.0,certified_below=4.0",
                                  "# l_max=4.0,certified_below=x,converged=true",
                                  "# l_max=4.0,certified_below=4.0,converged=maybe",
                                  "# l_max=4.0,certified_below=nan,converged=true"])
def test_csv_certificate_refuses_malformed_line(line):
    text = f"{line}\nlength,trace,multiplicity,word,primitive_flag\n1.0,2.2,1,c,1\n"
    assert len(spectrum_from_csv(text.split("\n", 1)[1])) == 1
    with pytest.raises(ValueError, match="certificate"):
        spectrum_from_csv(text)


def test_csv_refuses_power_rows(delta552):
    # the CSV has no primitive-length column: reading a power row back with
    # L_P = length would silently change its trace-formula weight
    spec = length_spectrum(delta552, 5.0)
    closed = power_closure(spec, 5.0)
    assert not all(c.primitive for c in closed)
    with pytest.raises(ValueError, match=r"CSV row \d+ .* not primitive"):
        spectrum_from_csv(spectrum_to_csv(closed))
    # a power as long as a primitive class keeps its own row in the merged view
    w, v = (GeodesicClass(2 * math.cosh(l / 2), l, l, 1, word, True)
            for l, word in ((1.0, "w"), (2.0, "v")))
    closed = power_closure(SpectrumResult((w, v), 2.0, 2.0, True), 2.0)
    assert [(c.word, c.multiplicity) for c in closed.merged()] == [("w", 1), ("w^2", 1), ("v", 1)]
    with pytest.raises(ValueError, match=r"CSV row 2 \(w\^2\) is not primitive"):
        spectrum_from_csv(spectrum_to_csv(closed))


@pytest.mark.parametrize("row", ["nan,nan,1,ab,1", "inf,2.2,1,ab,1", "1.0,nan,1,ab,1",
                                 "1.0,-inf,1,ab,1", "0.0,2.0,1,ab,1", "-1.0,2.2,1,ab,1"])
def test_csv_refuses_non_finite_or_non_positive_row(row):
    # a NaN length would otherwise be dropped by power_closure without a word
    length, trace = row.split(",")[:2]
    text = f"length,trace,multiplicity,word,primitive_flag\n1.0,2.2,1,c,1\n{row}\n"
    with pytest.raises(ValueError, match=rf"CSV row 2 \(ab\) has length {length} and "
                                         rf"trace {trace}; need a finite trace"):
        spectrum_from_csv(text)


@pytest.mark.parametrize("length", [math.nan, math.inf, 0.0, -1.0])
def test_power_closure_refuses_non_finite_or_non_positive_length(length):
    good = GeodesicClass(2 * math.cosh(0.5), 1.0, 1.0, 1, "w", True)
    bad = GeodesicClass(2.5, length, length, 1, "ab", True)
    with pytest.raises(ValueError, match=f"class 'ab' has length {length}; need positive"):
        power_closure([good, bad], 3.5)


@pytest.mark.parametrize("l_max", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_l_max_rejected(delta552, l_max):
    with pytest.raises(ValueError, match="l_max must be positive and finite"):
        length_spectrum(delta552, l_max)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_non_finite_or_negative_dedupe_tol_rejected(delta552, tol):
    with pytest.raises(ValueError, match="dedupe_tol must be non-negative and finite"):
        length_spectrum(delta552, 4.0, dedupe_tol=tol)


@pytest.mark.parametrize("row", ["1.0,2.2,3,ab", "1.0,2.2,3,ab,1,7", "1.0"])
def test_csv_refuses_wrong_field_count(row):
    text = f"length,trace,multiplicity,word,primitive_flag\n1.0,2.2,1,c,1\n{row}\n"
    n = len(row.split(","))
    with pytest.raises(ValueError, match=rf"CSV row 2 has {n} fields, expected 5"):
        spectrum_from_csv(text)


def test_nontransitive_action_rejected():
    with pytest.raises(ValueError, match="transitive"):
        CosetAction(2, {"a": (0, 1), "b": (0, 1), "c": (0, 1)})


def test_degree_zero_action_is_refused():
    with pytest.raises(ValueError, match="^perm for 'a' has degree 0"):
        CosetAction(0, {"a": (), "b": (), "c": ()})
    with pytest.raises(ValueError, match="transitive"):
        CosetAction(0, {})


def test_ball_dedupe_is_sign_correct(delta552):
    # M and -M never both stored: no row is another's copy up to sign
    ball = hyperbolic._classify(delta552, 4.0)
    table = {}
    for i, m in enumerate(ball.mats.tolist()):
        assert _t_find(table, m) is None
        table[_t_cell(m)] = i


def _brute_force_pairs(x, tol):
    n = len(x)
    return {(i, j) for i in range(n) for j in range(i + 1, n)
            if min(np.abs(x[i] - x[j]).max(), np.abs(x[i] + x[j]).max()) <= tol}


_ENTRIES = st.floats(-4.0, 4.0, allow_nan=False).map(lambda v: round(v, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[_ENTRIES] * 4), min_size=1, max_size=30),
       st.lists(st.tuples(st.integers(0, 29), st.sampled_from([1.0, -1.0]),
                          st.tuples(*[st.sampled_from([-1, 0, 1])] * 4)), max_size=30),
       st.sampled_from([1e-9, 0.01, 0.05, 0.3]))
def test_near_pairs_equal_brute_force_pairs(rows, copies, tol):
    # rows on a coarse grid tie in the projection and sit exactly tol
    # apart; copies are +-rows moved by about tol/2 or exactly tol per entry
    x = [np.array(r) for r in rows]
    for i, sign, shift in copies:
        x.append(sign * x[i % len(rows)] + np.array(shift) * tol * (0.5 if i % 2 else 1.0))
    x = np.array(x)
    x = x[np.abs(x).max(axis=1) > tol]  # a row is never near its own negative
    i, j = hyperbolic._near_pairs(x, tol)
    assert i.dtype == j.dtype == np.intp
    assert sorted(zip(i.tolist(), j.tolist())) == sorted(_brute_force_pairs(x, tol))


@pytest.mark.parametrize("sig", [(5, 5, 2), (3, 4, 4)])
def test_ball_is_the_same_for_every_vertex_order(sig):
    # the kite and z0 depend on {p, q, r} alone, so the ball is one set of
    # group elements; a duplicate stored across a rounding boundary would
    # show as one order holding an element more
    specs = [length_spectrum(triangle_generators(*order), 6.0)
             for order in sorted(set(itertools.permutations(sig)))]
    counts = {(s.element_count, s.depth, s.elliptic_count) for s in specs}
    assert len(counts) == 1, counts


def _distinct_elements(mats):
    # rows up to sign within 1e-6 in every entry are one element: far above
    # one element's float spread (below 1e-9) and far below the distance
    # between distinct elements (above 1e-3) in these balls
    n = len(mats)
    tree = cKDTree(np.concatenate((mats, -mats)))
    i, j = tree.query_pairs(1e-6, p=np.inf, output_type="ndarray").T % n
    return n - len(set(np.maximum(i, j)[i != j].tolist()))


@pytest.mark.parametrize("sig,elements", [((7, 7, 8), 8182), ((7, 8, 8), 8145), ((8, 8, 8), 10321)])
def test_ball_holds_each_element_once(sig, elements):
    # rounded cell keys stored 1, 2 and 1 copies in these balls
    ball = hyperbolic._classify(triangle_generators(*sig), 5.0)
    assert len(ball.mats) == _distinct_elements(ball.mats) == elements
    assert not len(hyperbolic._near_pairs(ball.mats, ball.tol)[0])


def test_a_ball_whose_error_bound_reaches_the_separation_is_refused(delta552, monkeypatch):
    # letters trusted to only 1e-6 make the conjugates' bound exceed half
    # the distance between distinct elements, so no tolerance is sound
    monkeypatch.setattr(hyperbolic, "_LETTER_ERROR", 1e-6)
    with pytest.raises(ResourceBoundError, match="not below half their separation"):
        length_spectrum(delta552, 4.0)


def test_a_copy_beyond_the_last_two_rounds_regrows_the_ball(delta552, monkeypatch):
    # an element whose norm is within its error of the cap can be kept along
    # one path and pruned along another, which would put a copy beyond the
    # last two rounds; the sweep over the grown ball finds it, and the ball
    # is grown again against every round
    grow, backs = hyperbolic._grow_ball, []

    def with_a_copy(gens, alphabet, cap, eps, back):
        backs.append(back)
        mats, words, depth, error, tol = grow(gens, alphabet, cap, eps, back)
        if len(backs) == 1:
            mats, words = np.concatenate((mats, -mats[5:6])), words + [words[5]]
            error = np.append(error, error[5])
        return mats, words, depth, error, tol

    monkeypatch.setattr(hyperbolic, "_grow_ball", with_a_copy)
    ball = hyperbolic._classify(delta552, 4.0)
    assert backs == [2, ball.depth + 1]
    assert len(ball.mats) == len(ball.words) == 739


def test_552_spectrum_at_l_max_8_5_is_the_same_for_every_vertex_order(monkeypatch):
    # rounded cell keys stored copies in every order, and in the (5,5,2)
    # order a copy in S printed multiplicity 25 at length 8.472400
    classify, balls = hyperbolic._classify, []

    def keep(group, l_max):
        balls.append(classify(group, l_max))
        return balls[-1]

    monkeypatch.setattr(hyperbolic, "_classify", keep)
    merged = []
    for order in ((5, 5, 2), (2, 5, 5), (5, 2, 5)):
        spec = length_spectrum(triangle_generators(*order), 8.5)
        ball = balls[-1]
        assert spec.element_count == _distinct_elements(ball.mats) == 66299
        assert not len(hyperbolic._near_pairs(ball.mats, ball.tol)[0])
        merged.append(spec.merged())
        assert [c.multiplicity for c in spec.merged() if abs(c.length - 8.4724) < 1e-6] == [24]
    for other in merged[1:]:
        assert [c.multiplicity for c in other] == [c.multiplicity for c in merged[0]]
        assert max(abs(c.length - d.length) for c, d in zip(other, merged[0])) < 1e-9


def test_552_ball_at_l_max_8_holds_one_count_in_every_vertex_order():
    # the ball is one set of group elements whichever vertex is which
    counts = {length_spectrum(triangle_generators(*order), 8.0).element_count
              for order in ((5, 5, 2), (2, 5, 5), (5, 2, 5))}
    assert counts == {40363}


def _per_call_letter(group, letter):
    # letter_matrix as it was, inverting on every call
    base = group.generators[letter.lower()]
    return base if letter.islower() else np.linalg.inv(base)


@pytest.mark.parametrize("sig", [(5, 5, 2), (2, 3, 7), (3, 4, 4)])
def test_cached_inverses_equal_the_per_call_inverse(sig):
    group = triangle_generators(*sig)
    words = ["", "aAbBcC", "CBAcba"] + [c.word for c in length_spectrum(group, 5.0).classes]
    for word in words:
        m = np.eye(2)
        for letter in word:
            m = m @ _per_call_letter(group, letter)
        m = m / math.sqrt(abs(float(np.linalg.det(m))))
        assert group.word_matrix(word).tobytes() == m.tobytes(), word
    z0 = hyperbolic._kite(group)[0]
    mv = hyperbolic._mover(z0)
    mvi = np.linalg.inv(mv)
    frame = np.array([(mvi @ _per_call_letter(group, l) @ mv).ravel() for l in hyperbolic._LETTERS])
    assert hyperbolic._classify(group, 3.0).letters.tobytes() == frame.tobytes()


def test_letters_are_within_the_letter_error():
    # the ball's letters against the same construction in 40-digit arithmetic,
    # in the frame of the float base point
    mp.mp.dps = 40

    def mover(z):  # moves i to z
        r = mp.sqrt(z.imag)
        return mp.matrix([[r, z.real / r], [0, 1 / r]])

    def rotation(z, angle):
        half = mp.matrix([[mp.cos(angle / 2), mp.sin(angle / 2)],
                          [-mp.sin(angle / 2), mp.cos(angle / 2)]])
        return mover(z) * half * mover(z) ** -1

    for sig in [(2, 3, 7), (5, 5, 2), (3, 4, 4), (8, 8, 8), (12, 12, 2), (2, 3, 50), (20, 20, 20)]:
        group = triangle_generators(*sig)
        al, be, ga = (mp.pi / k for k in sig)
        side_c = mp.acosh((mp.cos(al) * mp.cos(be) + mp.cos(ga)) / (mp.sin(al) * mp.sin(be)))
        side_b = mp.acosh((mp.cos(al) * mp.cos(ga) + mp.cos(be)) / (mp.sin(al) * mp.sin(ga)))
        to_c = rotation(mp.mpc(0, 1), al)
        w = mp.mpc(0, 1) * mp.e ** side_b
        vertices = (mp.mpc(0, 1), mp.mpc(0, 1) * mp.e ** side_c,
                    (to_c[0, 0] * w + to_c[0, 1]) / (to_c[1, 0] * w + to_c[1, 1]))
        exact = {l: rotation(v, 2 * a) for l, v, a in zip("abc", vertices, (al, be, ga))}
        z0 = hyperbolic._kite(group)[0]
        frame = mover(mp.mpc(z0.real, z0.imag))
        ball = hyperbolic._classify(group, 2.0)
        for letter, row in zip(hyperbolic._LETTERS, ball.letters.tolist()):
            g = exact[letter.lower()] if letter.islower() else exact[letter.lower()] ** -1
            g = frame ** -1 * g * frame
            error = mp.sqrt(sum((mp.mpf(x) - y) ** 2 for x, y in zip(row, g)))
            assert error <= hyperbolic._LETTER_ERROR, (sig, letter, error)


def test_oversized_ball_raises_before_growing(delta552, monkeypatch):
    def no_growth(*args):
        raise AssertionError("the ball was grown")

    monkeypatch.setattr(hyperbolic, "_grow_ball", no_growth)
    with pytest.raises(ResourceBoundError, match=r"about \d+ elements, above the bound of 400000"):
        length_spectrum(delta552, 12.0)


def test_the_budget_estimate_uses_the_sharper_reach(delta552, monkeypatch):
    # the (5,5,2) estimate reaches the budget at l_max 10.04 with the reach
    # l_max + 2R, and at 10.29 with min(l_max + 2R, d_h + R)
    class Grown(Exception):
        pass

    def grown(*args):
        raise Grown

    monkeypatch.setattr(hyperbolic, "_grow_ball", grown)
    with pytest.raises(Grown):
        length_spectrum(delta552, 10.2)
    with pytest.raises(ResourceBoundError, match="above the bound of 400000"):
        length_spectrum(delta552, 10.35)


def test_axis_meets_closed_polygon():
    # diag(e, 1/e) translates along the imaginary axis, where c = 0
    e = math.e
    h = (e, 0.0, 0.0, 1.0 / e)
    square = [complex(x, y) for x, y in ((0.5, 1.0), (1.5, 1.0), (1.5, 2.0), (0.5, 2.0))]

    def meets(points):
        return hyperbolic._axis_meets(h, [(abs(z) ** 2, z.real) for z in points])

    assert not meets(square)
    assert not meets([-z.conjugate() for z in square])
    assert meets(square[:3] + [complex(-0.5, 2.0)])  # only the last vertex crosses
    assert meets(square[:3] + [complex(0.0, 2.0)])  # a vertex on the axis: closed


@pytest.mark.parametrize("sig,l_max", [((5, 5, 2), 4.0), ((2, 3, 7), 4.0), ((3, 4, 4), 5.0)])
def test_members_are_every_conjugate_whose_axis_meets_the_kite(sig, l_max):
    # walk each class through one-letter conjugates whose axis meets D, with
    # no norm bound: every element reached must be a member of that class
    group = triangle_generators(*sig)
    ball = hyperbolic._classify(group, l_max)
    z0, _radius, kite = hyperbolic._kite(group)
    to_frame = np.linalg.inv(hyperbolic._mover(z0))
    vertices = [(abs(w) ** 2, w.real) for w in (hyperbolic.mobius(to_frame, v) for v in kite)]
    frame = _tuple_letters(ball)
    members, root_of = _tuple_members(ball)
    table = _t_table({r: m for r, (m, _w) in members.items()})
    representatives = {}
    for r, (m, _w) in members.items():
        representatives.setdefault(root_of[r], m)
    for root, m in representatives.items():
        seen, queue = {_t_cell(m): True}, [m]
        while queue:
            y = queue.pop()
            r = _t_find(table, y)
            assert r is not None and root_of[r] == root
            for letter in "abc":
                for g, gi in ((frame[letter], frame[letter.upper()]),
                              (frame[letter.upper()], frame[letter])):
                    z = _t_renorm(_t_mul(_t_mul(g, y), gi))
                    if hyperbolic._axis_meets(z, vertices) and _t_find(seen, z) is None:
                        seen[_t_cell(z)] = True
                        queue.append(z)
            assert len(seen) < 10_000


HYPERBOLIC_SIGNATURES = st.tuples(*[st.integers(2, 8)] * 3).filter(
    lambda s: Fraction(1, s[0]) + Fraction(1, s[1]) + Fraction(1, s[2]) < 1)


@settings(max_examples=60, deadline=None)
@given(HYPERBOLIC_SIGNATURES, st.floats(3.0, 4.0))
def test_spectrum_independent_of_vertex_order(sig, l_max):
    spec = length_spectrum(triangle_generators(*sig), l_max)
    ref = length_spectrum(triangle_generators(*sorted(sig)), l_max)
    assert spec.element_count == ref.element_count
    assert [c.multiplicity for c in spec.classes] == [c.multiplicity for c in ref.classes]
    for c, d in zip(spec.classes, ref.classes):
        assert abs(c.length - d.length) <= 1e-12


@pytest.mark.parametrize("sig", [(2, 3, 7), (2, 3, 8), (2, 3, 9)])
def test_small_triangle_groups_are_certified_and_not_empty(sig):
    spec = length_spectrum(triangle_generators(*sig), 4.0)
    assert spec.converged and spec.certified_below == 4.0
    assert spec.classes


def test_shortest_237_class_has_the_klein_trace():
    shortest = length_spectrum(triangle_generators(2, 3, 7), 4.0).classes[0]
    assert abs(shortest.trace - (1 + 2 * math.cos(2 * math.pi / 7))) <= 1e-12
    assert shortest.multiplicity == 1


def test_merged_entry_ignores_length_noise():
    # equal-length classes tie up to ulps in length; which one sorts first
    # must not pick the merged entry's word or trace
    spec = length_spectrum(triangle_generators(2, 5, 5), 4.0)
    expected = [(c.word, c.trace, c.multiplicity) for c in spec.merged()]
    reordered = False
    for sign in (1.0, -1.0):
        nudged = [replace(c, length=math.nextafter(c.length, sign * (-1) ** i * math.inf))
                  for i, c in enumerate(spec.classes)]
        merged = hyperbolic._merge_equal_lengths(tuple(nudged), 1e-9)
        reordered |= ([c.word for c in sorted(nudged, key=lambda c: c.length)]
                      != [c.word for c in spec.classes])
        assert [(c.word, c.trace, c.multiplicity) for c in merged] == expected
    assert reordered
