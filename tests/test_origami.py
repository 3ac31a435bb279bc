import json
import random

import numpy as np
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


def origami_graph(d, edges):
    """An ``OrigamiGraph`` from (tail, head, "x"|"y") triples, in order."""
    tails, heads, labels = zip(*edges) if edges else ((), (), ())
    return OrigamiGraph(d, np.array(tails, dtype=np.intp), np.array(heads, dtype=np.intp),
                        np.array([label == "x" for label in labels], dtype=bool))


def edge_triples(graph):
    """The edges of ``graph`` as (tail, head, "x"|"y") triples, in order."""
    labels = ["x" if x else "y" for x in graph.is_x.tolist()]
    return list(zip(graph.tails.tolist(), graph.heads.tolist(), labels))


def assert_same_graph(graph, d, edges):
    """``graph`` has d squares and exactly these triples, in order, on int
    and bool arrays."""
    assert graph.d == d
    assert graph.tails.dtype.kind == graph.heads.dtype.kind == "i"
    assert graph.is_x.dtype == bool
    assert edge_triples(graph) == list(edges)


def assert_perm(p, expected):
    """``p`` is a read-only intp array with exactly these images, in order."""
    assert isinstance(p, np.ndarray) and p.dtype == np.intp and not p.flags.writeable
    assert p.tolist() == list(expected)


def unit_torus():
    return origami_graph(1, [(0, 0, "x"), (0, 0, "y")])


def l_shape():
    # squares 0,1 in the bottom row, square 2 on top of square 0
    return origami_from_monodromy(Monodromy((1, 0, 2), (2, 1, 0)))


def test_unit_torus_valid():
    rep = validate_origami_graph(unit_torus())
    assert rep.ok and rep.connected


def test_unit_torus_monodromy():
    m, genus = monodromy(unit_torus())
    assert_perm(m.sigma_x, (0,))
    assert_perm(m.sigma_y, (0,))
    assert genus == 1


def test_l_shape_valid_and_genus_two():
    g = l_shape()
    assert_same_graph(g, 3, [(0, 1, "x"), (1, 0, "x"), (2, 2, "x"),
                             (0, 2, "y"), (1, 1, "y"), (2, 0, "y")])
    assert validate_origami_graph(g).ok
    m, genus = monodromy(g)
    assert genus == 2
    assert len(set(commutator(m).tolist())) > 1


def test_missing_edge_reported():
    g = origami_graph(3, [e for e in edge_triples(l_shape()) if e != (1, 1, "y")])
    rep = validate_origami_graph(g)
    assert not rep.ok
    assert any("vertex 1" in issue for issue in rep.issues)


def test_monodromy_raises_on_invalid():
    bad = origami_graph(2, [(0, 0, "x"), (0, 0, "y"), (1, 1, "x"), (1, 0, "y")])
    with pytest.raises(ValueError):
        monodromy(bad)


def test_graph_arrays_are_checked():
    ends = np.array([0, 1], dtype=np.intp)
    with pytest.raises(ValueError, match="one entry per edge"):
        OrigamiGraph(2, ends, ends[:1], np.array([True, False]))
    with pytest.raises(ValueError, match=r"^edge \(1,2\) references missing vertex$"):
        origami_graph(2, [(0, 0, "x"), (1, 2, "y"), (3, 0, "x")])
    with pytest.raises(ValueError, match=r"^edge \(-1,0\) references missing vertex$"):
        origami_graph(2, [(-1, 0, "x")])


def test_no_squares_is_refused():
    # a degree-0 origami has no surface: it must not be given genus 1
    empty = origami_from_monodromy(Monodromy((), ()))
    assert_same_graph(empty, 0, [])
    rep = validate_origami_graph(empty)
    assert not rep.ok and rep.issues == ("no squares",)
    with pytest.raises(ValueError, match="^invalid origami graph: no squares$"):
        monodromy(empty)
    with pytest.raises(ValueError, match="^no squares"):
        genus_from_monodromy(Monodromy((), ()))


def test_no_squares_are_empty_int_arrays():
    m = Monodromy((), ())
    assert m.degree == 0
    assert_perm(m.sigma_x, ())
    assert_perm(m.sigma_y, ())
    assert m.to_json() == {"d": 0, "sigma_x": [], "sigma_y": []}


def test_monodromy_holds_checked_permutation_arrays():
    m = Monodromy([1, 2, 0], np.array([0, 2, 1]))
    assert_perm(m.sigma_x, (1, 2, 0))
    assert_perm(m.sigma_y, (0, 2, 1))
    with pytest.raises(ValueError, match="^sigma_y is not a permutation of 0..2$"):
        Monodromy((1, 2, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="act on different sets"):
        Monodromy((0,), ())


def test_no_squares_are_not_transitive():
    assert is_transitive(Monodromy((), ())) is False
    assert is_transitive(Monodromy((0,), (0,))) is True


def test_graph_monodromy_round_trip():
    m = Monodromy((1, 2, 0), (0, 2, 1))
    m2, _g = monodromy(origami_from_monodromy(m))
    assert_perm(m2.sigma_x, m.sigma_x.tolist())
    assert_perm(m2.sigma_y, m.sigma_y.tolist())


def test_records_do_not_compare_their_arrays_by_value():
    # a dataclass == on arrays is ambiguous; the records compare as objects
    m = Monodromy((1, 0), (0, 1))
    assert m == m and m != Monodromy((1, 0), (0, 1))
    g = origami_from_monodromy(m)
    assert g == g and g != origami_from_monodromy(m)


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
        trivial = commutator(m).tolist() == list(range(d))
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
    assert json.loads(json.dumps(obj)) == obj  # plain ints
    back = Monodromy.from_json(obj)
    assert_perm(back.sigma_x, (1, 2, 0))
    assert_perm(back.sigma_y, (0, 2, 1))


@pytest.mark.parametrize("d,message", [
    (3.9, "d must be an integer, got 3.9"),
    (3.0, "d must be an integer, got 3.0"),
    ("3", "d must be an integer, got '3'"),
    (True, "d must be an integer, got True"),
])
def test_monodromy_degree_is_read_strictly(d, message):
    # 3.9 and "3" used to be read as 3
    obj = {"d": d, "sigma_x": [2, 1, 3], "sigma_y": [3, 2, 1]}
    with pytest.raises(ValueError, match=f"^{message}$"):
        Monodromy.from_json(obj)
