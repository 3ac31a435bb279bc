"""Lifting the (N,N,2) length spectrum to the surface of an Adinkra.

The quotient Adinkra of a doubly-even code is a dessin: its edges are the
darts of a coset action of the (N,N,2) triangle group, and the lift of the
group's primitive spectrum through that action is the spectrum of the
face-attached surface.  The lift is checked class by class against a
brute-force walk over ``_records``, and spectra that carry a certificate
are checked to refuse a Lambda beyond it inside the library.
"""

import functools
import hashlib
import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adinkra_spectra import hyperbolic
from adinkra_spectra.adinkra import Chromotopology, build_quotient
from adinkra_spectra.codes import BinaryCode
from adinkra_spectra.embedding import attach_faces, dessin_action
from adinkra_spectra.hyperbolic import (
    CosetAction,
    cover_length_spectrum,
    length_spectrum,
    power_closure,
    spectrum_from_csv,
    spectrum_to_csv,
    triangle_generators,
)
from adinkra_spectra.spectral import (
    dirac_action,
    laplace_action_conjugacy,
    laplace_action_geodesic,
    make_test_pair,
    super_action,
)

from test_perms_oracle import inverse


@functools.cache
def _group(n):
    return triangle_generators(n, n, 2)


@functools.cache
def _spectrum(n, l_max):
    return length_spectrum(_group(n), l_max)


def _riemann_hurwitz_genus(edges, n):
    """1 + E (1/2 - 2/N) / 2, the genus of a degree-E cover of (N,N,2)."""
    return 1 + Fraction(edges * (n - 4), 4 * n)


def test_11110000_lifts_class_by_class():
    # the merged entry AABac (multiplicity 3) lifted through its one word
    # gave 192 classes at 4.896905 and 768 at 6.114284: AAABBBc acts with
    # 2-cycles only, while AABac and ABBcb have 64 fixed points each
    graph = build_quotient(8, BinaryCode.from_strings(8, ["11110000"]))
    action = dessin_action(graph)
    base = _spectrum(8, 5.0)
    lifted = cover_length_spectrum(base, action, _group(8))
    counts = Counter()
    for c in lifted:
        counts[round(c.length, 6)] += c.multiplicity
    assert (counts[4.896905], counts[6.114284]) == (128, 256)
    edges = action.degree
    assert edges == 512
    covered = Counter()
    for c in lifted:
        word, size = c.word.split("|cycle")
        covered[word] += int(size) * c.multiplicity
    assert covered == {cls.word: edges for cls in base}
    genus = attach_faces(graph).euler_genus
    assert genus == 65
    assert _riemann_hurwitz_genus(edges, 8) == genus


def test_dessin_action_json_is_unchanged():
    action = dessin_action(build_quotient(8, BinaryCode.from_strings(8, ["11110000"])))
    text = json.dumps(action.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "da22650f366b9e150b5fe777f870bb1d0e73741368a46c8b67f666132de58219"
    back = CosetAction.from_json(json.loads(text))
    assert all(back.perms[l].tolist() == action.perms[l].tolist() for l in "abc")


def test_n12_dessin_action_is_a_12_12_2_action_of_the_surface_genus():
    graph = build_quotient(12, BinaryCode.from_strings(12, ["111100000000", "000011110000"]))
    action = dessin_action(graph)
    assert action.degree == graph.edge_count == 6144
    action.check_relations(_group(12))
    genus = attach_faces(graph).euler_genus
    assert genus == 1025
    assert _riemann_hurwitz_genus(action.degree, 12) == genus


def test_dessin_action_refuses_a_graph_that_is_no_dessin():
    square = build_quotient(2, BinaryCode.trivial(2))  # edges (0,2,1), (1,3,1), (0,1,2), (2,3,2)
    missing = Chromotopology(2, square.vertices, square.edges[1:], square.bipartition)
    with pytest.raises(ValueError, match="one edge of each color per vertex"):
        dessin_action(missing)
    same_side = Chromotopology(2, square.vertices, square.edges, (0, 0, 1, 1))
    with pytest.raises(ValueError, match="cross the bipartition"):
        dessin_action(same_side)


def _brute_force_lift(n, l_max, action):
    """{lifted word: (length, count)} from every primitive class of the
    ball, each point walked through the word's letters from last to first."""
    classes = hyperbolic._classify(_group(n), l_max)
    images = {l: tuple(action.perms[l].tolist()) for l in "abc"}
    images.update({l.upper(): inverse(p) for l, p in images.items()})
    out = {}
    for length, _trace, word, primitive in hyperbolic._records(classes, l_max):
        if not primitive:
            continue
        seen, cycles = set(), Counter()
        for start in range(action.degree):
            size, point = 0, start
            while point not in seen:
                seen.add(point)
                for letter in reversed(word):
                    point = images[letter][point]
                size += 1
            if size:
                cycles[size] += 1
        for size, count in cycles.items():
            out[f"{word}|cycle{size}"] = (size * length, count)
    return out


@st.composite
def doubly_even_codes(draw):
    n = draw(st.integers(5, 8))
    rows = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=4, max_size=4),
                         max_size=2, unique_by=frozenset))
    words = [sum(1 << i for i in row) for row in rows]
    # weight-4 rows meeting evenly span a doubly-even code
    assume(all(bin(a & b).count("1") % 2 == 0 for a in words for b in words))
    return BinaryCode(n, tuple(words))


@settings(max_examples=25, deadline=None)
@given(doubly_even_codes(), st.sampled_from([3.0, 4.0]))
def test_lift_matches_brute_force_on_random_codes(code, l_max):
    n = code.length
    graph = build_quotient(n, code)
    action = dessin_action(graph)
    assert _riemann_hurwitz_genus(action.degree, n) == attach_faces(graph).euler_genus
    lifted = cover_length_spectrum(_spectrum(n, l_max), action, _group(n))
    assert {c.word: (c.length, c.multiplicity) for c in lifted} == \
        _brute_force_lift(n, l_max, action)


# -- certificates survive every producer -------------------------------------

@pytest.fixture(scope="module")
def cert_csv():
    # what `geodesics --p 5 --q 5 --r 2 --lmax 2.0 --out cert.csv` writes
    return spectrum_to_csv(length_spectrum(triangle_generators(5, 5, 2), 2.0))


REFUSED = "the action needs every geodesic up to length 1/Lambda = 5, " \
          "but the spectrum is certified only below 2"


def test_csv_spectrum_refuses_lambda_beyond_certificate(cert_csv):
    spec = spectrum_from_csv(cert_csv)
    assert spec.certified_below == 2.0
    pair = make_test_pair("smooth_bump")
    ones = [1.0] * len(spec)
    calls = [
        lambda lam: laplace_action_conjugacy(2, spec, pair, lam),
        lambda lam: dirac_action(2, spec, ones, pair, lam),
        lambda lam: super_action(2, spec, ones, pair, lam),
        lambda lam: laplace_action_geodesic(2, power_closure(spec, 1.0 / lam), pair, lam),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=REFUSED):
            call(0.2)
        assert math.isfinite(abs(call(0.5).total))  # 1/Lambda = certified_below


def test_power_closure_caps_the_certificate(cert_csv):
    closed = power_closure(spectrum_from_csv(cert_csv), 1.5)
    assert (closed.l_max, closed.certified_below) == (1.5, 1.5)
    assert all(c.length <= 1.5 for c in closed)


def test_lift_keeps_the_base_certificate():
    action = dessin_action(build_quotient(5, BinaryCode.trivial(5)))
    base = _spectrum(5, 3.0)
    lifted = cover_length_spectrum(base, action, _group(5))
    assert (lifted.l_max, lifted.certified_below, lifted.converged) == (3.0, 3.0, True)
    with pytest.raises(ValueError, match="certified only below 3"):
        laplace_action_conjugacy(2, lifted, make_test_pair("smooth_bump"), 0.25)


def test_lift_refuses_a_merged_csv_entry():
    # the three classes at 4.896905 lift differently (see above); their
    # merged CSV row cannot say how
    lines = spectrum_to_csv(_spectrum(8, 5.0)).splitlines()
    text = "\n".join(lines[:2] + [l for l in lines if ",3,AABac," in l])
    spec = spectrum_from_csv(text)
    assert [c.multiplicity for c in spec] == [3]
    action = dessin_action(build_quotient(8, BinaryCode.from_strings(8, ["11110000"])))
    with pytest.raises(ValueError, match=r"entry 'AABac' \(multiplicity 3, primitive True\) "
                                         "is not one primitive class"):
        cover_length_spectrum(spec, action, _group(8))
    power = power_closure(_spectrum(8, 5.0), 10.0).classes[-1]
    with pytest.raises(ValueError, match=r"primitive False\) is not one primitive class"):
        cover_length_spectrum(replace(spec, classes=(power,)), action, _group(8))
