import math

import numpy as np
import pytest

from adinkra_spectra.hyperbolic import (
    CosetAction,
    GeodesicClass,
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


@pytest.fixture(scope="module")
def delta552():
    return triangle_generators(5, 5, 2)


@pytest.fixture(scope="module")
def spectrum552(delta552):
    return length_spectrum(delta552, 4.0, max_depth=14, stable_rounds=2)


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
    from adinkra_spectra.hyperbolic import _Ball

    ball = _Ball(delta552)
    for _ in range(8):
        ball.grow()
    worst = max(abs(float(np.linalg.det(np.reshape(m, (2, 2)))) - 1.0)
                for m, _w in ball.elements.values())
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


def test_spectrum_stable_under_depth_increase(delta552, spectrum552):
    deeper = length_spectrum(delta552, 4.0, max_depth=spectrum552.depth + 1,
                             stable_rounds=99)
    sig = [(round(c.length, 8), c.multiplicity) for c in spectrum552.classes]
    sig2 = [(round(c.length, 8), c.multiplicity) for c in deeper.classes]
    assert sig == sig2


def test_power_length_doubles(delta552, spectrum552):
    shortest = spectrum552.classes[0]
    m = delta552.word_matrix(shortest.word)
    m2 = m @ m
    t2 = abs(float(m2[0, 0] + m2[1, 1]))
    assert length_of_trace(t2) == pytest.approx(2 * shortest.length, abs=1e-10)


def test_powers_marked_non_primitive(delta552):
    # widen the window so the square of the shortest class falls inside
    spec = length_spectrum(delta552, 3.2, max_depth=12, stable_rounds=2)
    lengths = [round(c.length, 6) for c in spec.classes]
    l0 = spec.classes[0].length
    assert round(2 * l0, 6) not in lengths  # powers are excluded from output


def test_inversion_closure(delta552, spectrum552):
    # gamma and gamma^-1 have equal length; each class's inverse class is
    # present (possibly the class itself, via an order-2 axis symmetry)
    from adinkra_spectra.hyperbolic import _Classifier

    classifier = _Classifier(delta552)
    for c in spectrum552.classes:
        m = delta552.word_matrix(c.word)
        assert classifier.class_key(tuple(np.linalg.inv(m).ravel())) is not None
        t_inv = abs(float(np.trace(np.linalg.inv(m))))
        assert length_of_trace(t_inv) == pytest.approx(c.length, abs=1e-10)


def test_amphichiral_class_exists(delta552, spectrum552):
    # ABc is conjugate to its inverse by c: odd multiplicity is genuine
    mults = {round(c.length, 6): c.multiplicity for c in spectrum552.classes}
    assert mults[round(2.122550124, 6)] == 1


def test_power_closure():
    base = [GeodesicClass(2 * math.cosh(0.5), 1.0, 1.0, 2, "w", True)]
    closed = power_closure(base, 3.5)
    assert [c.length for c in closed] == [1.0, 2.0, 3.0]
    assert [c.primitive for c in closed] == [True, False, False]
    assert all(c.primitive_length == 1.0 for c in closed)
    assert all(c.trace == pytest.approx(2 * math.cosh(c.length / 2)) for c in closed)


def test_trivial_cover_keeps_spectrum(spectrum552):
    action = CosetAction(1, {"a": (0,), "b": (0,), "c": (0,)})
    lifted = cover_length_spectrum(spectrum552, action)
    assert [(round(c.length, 9), c.multiplicity) for c in lifted] == [
        (round(c.length, 9), c.multiplicity) for c in spectrum552.classes
    ]


def test_identity_image_gives_d_copies():
    # a class whose permutation image is trivial lifts to d copies of itself
    d = 3
    cyc = (1, 2, 0)
    action = CosetAction(d, {"a": cyc, "b": cyc, "c": cyc})
    assert action.word_permutation("aA") == tuple(range(d))
    cls = GeodesicClass(2 * math.cosh(0.6), 1.2, 1.2, 1, "aaa", True)
    lifted = cover_length_spectrum([cls], action)  # image of aaa is identity
    assert len(lifted) == 1
    assert lifted[0].multiplicity == d
    assert lifted[0].length == pytest.approx(1.2)


def test_cover_cycle_lengths_sum_to_degree(spectrum552):
    action = CosetAction(4, {"a": (1, 0, 3, 2), "b": (2, 3, 0, 1), "c": (0, 1, 2, 3)})
    lifted = cover_length_spectrum(spectrum552, action)
    base_by_word = {}
    for c in lifted:
        word = c.word.split("|")[0]
        cyc = int(c.word.split("|cycle")[1])
        base_by_word.setdefault(word, 0)
        base = next(b for b in spectrum552.classes if b.word == word)
        base_by_word[word] += cyc * (c.multiplicity // base.multiplicity)
    assert set(base_by_word.values()) == {4}


def test_cover_lengths_scale_with_cycles(spectrum552):
    swap = (1, 0)
    ident = (0, 1)
    action = CosetAction(2, {"a": swap, "b": ident, "c": ident})
    lifted = cover_length_spectrum(spectrum552, action)
    for c in lifted:
        word, cyc = c.word.split("|cycle")
        base = next(b for b in spectrum552.classes if b.word == word)
        assert c.length == pytest.approx(int(cyc) * base.length, rel=1e-12)
        assert c.primitive


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
    text = spectrum_to_csv(spectrum552)
    back = spectrum_from_csv(text)
    assert [(c.length, c.trace, c.multiplicity, c.word) for c in back] == [
        (c.length, c.trace, c.multiplicity, c.word) for c in spectrum552.classes
    ]


def test_csv_refuses_power_rows(delta552):
    # the CSV has no primitive-length column: reading a power row back with
    # L_P = length would silently change its trace-formula weight
    spec = length_spectrum(delta552, 5.0)
    closed = power_closure(spec.classes, 5.0)
    assert not all(c.primitive for c in closed)
    with pytest.raises(ValueError, match=r"CSV row \d+ .* not primitive"):
        spectrum_from_csv(spectrum_to_csv(closed))


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


def test_ball_dedupe_is_sign_correct(delta552):
    # M and -M never both stored: sign-canonical keys collide them
    from adinkra_spectra.hyperbolic import _Ball, _key

    ball = _Ball(delta552)
    for _ in range(6):
        ball.grow()
    keys = set()
    for m, _w in ball.elements.values():
        k_pos = _key(m)
        k_neg = _key(tuple(-x for x in m))
        assert k_pos == k_neg
        assert k_pos not in keys or True
        keys.add(k_pos)
    assert len(keys) == len(ball.elements)


def test_budget_exhaustion_reports_subthreshold(delta552):
    spec = length_spectrum(delta552, 4.0, max_depth=3, stable_rounds=5)
    assert not spec.converged
    assert spec.certified_below < 4.0


def test_merged_entry_ignores_length_noise(monkeypatch):
    # equal-length classes tie up to ulps in length; which one sorts first
    # must not pick the merged entry's word, trace or length
    from adinkra_spectra import hyperbolic

    seen = []
    real = hyperbolic._merge_equal_lengths
    monkeypatch.setattr(hyperbolic, "_merge_equal_lengths",
                        lambda records, tol: seen.append(records) or real(records, tol))
    spec = length_spectrum(triangle_generators(2, 5, 5), 4.0)
    (records,) = seen
    expected = spectrum_to_csv(spec)
    reordered = False
    for sign in (1.0, -1.0):
        nudged = [(math.nextafter(l, sign * (-1) ** i * math.inf), t, w, p)
                  for i, (l, t, w, p) in enumerate(records)]
        reordered |= [r[2] for r in sorted(nudged)] != [r[2] for r in sorted(records)]
        assert spectrum_to_csv(real(nudged, 1e-9)) == expected
    assert reordered
