import random

import pytest

from adinkra_spectra.adinkra import build_quotient
from adinkra_spectra.codes import BinaryCode
from adinkra_spectra.origami import (
    Monodromy,
    OrigamiGraph,
    commutator,
    genus_from_monodromy,
    is_transitive,
    m_origami_embeddings,
    monodromy,
    origami_from_monodromy,
    validate_origami_graph,
)


def unit_torus():
    return OrigamiGraph(1, ((0, 0, "x"), (0, 0, "y")))


def l_shape():
    # squares 0,1 in the bottom row, square 2 on top of square 0
    return origami_from_monodromy(Monodromy((1, 0, 2), (2, 1, 0)))


def test_unit_torus_valid():
    rep = validate_origami_graph(unit_torus())
    assert rep.ok and rep.connected


def test_unit_torus_monodromy():
    m, genus = monodromy(unit_torus())
    assert m.sigma_x == (0,)
    assert m.sigma_y == (0,)
    assert genus == 1


def test_l_shape_valid_and_genus_two():
    g = l_shape()
    assert validate_origami_graph(g).ok
    m, genus = monodromy(g)
    assert genus == 2
    assert len(set(commutator(m))) > 1


def test_missing_edge_reported():
    g = OrigamiGraph(3, tuple(e for e in l_shape().edges if e != (1, 1, "y")))
    rep = validate_origami_graph(g)
    assert not rep.ok
    assert any("vertex 1" in issue for issue in rep.issues)


def test_monodromy_raises_on_invalid():
    bad = OrigamiGraph(2, ((0, 0, "x"), (0, 0, "y"), (1, 1, "x"), (1, 0, "y")))
    with pytest.raises(ValueError):
        monodromy(bad)


def test_no_squares_is_refused():
    # a degree-0 origami has no surface: it must not be given genus 1
    empty = origami_from_monodromy(Monodromy((), ()))
    assert empty == OrigamiGraph(0, ())
    rep = validate_origami_graph(empty)
    assert not rep.ok and rep.issues == ("no squares",)
    with pytest.raises(ValueError, match="^invalid origami graph: no squares$"):
        monodromy(empty)
    with pytest.raises(ValueError, match="^no squares"):
        genus_from_monodromy(Monodromy((), ()))


def test_no_squares_are_not_transitive():
    assert is_transitive(Monodromy((), ())) is False
    assert is_transitive(Monodromy((0,), (0,))) is True


def test_graph_monodromy_round_trip():
    m = Monodromy((1, 2, 0), (0, 2, 1))
    m2, _g = monodromy(origami_from_monodromy(m))
    assert m2 == m


def test_genus_at_least_one_iff_commutator():
    rng = random.Random(5)
    found_higher = False
    for _ in range(50):
        d = rng.randint(1, 7)
        sx = list(range(d))
        sy = list(range(d))
        rng.shuffle(sx)
        rng.shuffle(sy)
        m = Monodromy(tuple(sx), tuple(sy))
        if not is_transitive(m):
            continue
        g = genus_from_monodromy(m)
        assert g >= 1
        trivial = commutator(m) == tuple(range(d))
        assert trivial == (g == 1)
        found_higher = found_higher or g > 1
    assert found_higher


def test_embedding_count_square():
    g = build_quotient(2, BinaryCode.trivial(2))
    res = m_origami_embeddings(g)
    assert res.count == 16
    assert res.n_edges == 4


def test_embedding_count_a41():
    g = build_quotient(4, BinaryCode.from_strings(4, ["1111"]))
    assert m_origami_embeddings(g).count == 65536


def test_embedding_count_is_big_integer():
    g = build_quotient(6, BinaryCode.from_strings(6, ["111100"]))
    res = m_origami_embeddings(g)
    assert res.count == 1 << 96  # exceeds 64-bit
    assert res.count == 2 ** g.edge_count


def test_monodromy_json_round_trip_one_indexed():
    m = Monodromy((1, 2, 0), (0, 2, 1))
    obj = m.to_json()
    assert obj["sigma_x"] == [2, 3, 1]
    assert Monodromy.from_json(obj) == m
