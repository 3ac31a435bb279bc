import random
from collections import Counter
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinkra_spectra.adinkra import (
    Dashing,
    build_quotient,
    count_well_dashed_exact,
    dashing_class,
    two_colored_four_cycles,
    well_dashed_class_ids,
    well_dashed_masks,
)
from adinkra_spectra.codes import BinaryCode
from adinkra_spectra.embedding import attach_faces
from adinkra_spectra.errors import ResourceBoundError
from adinkra_spectra.gf2 import GF2System


@st.composite
def sparse_systems(draw):
    """(n_cols, [(row, rhs)]): up to 16 columns, rows of weight 1..4."""
    n_cols = draw(st.integers(1, 16))
    column = st.integers(0, n_cols - 1)
    rows = draw(st.lists(
        st.tuples(st.sets(column, min_size=1, max_size=4), st.integers(0, 1)),
        max_size=24,
    ))
    return n_cols, [(sum(1 << j for j in cols), rhs) for cols, rhs in rows]


def build(rows):
    system = GF2System()
    for row, rhs in rows:
        system.insert(row, rhs)
    return system


def satisfies(x, rows):
    return all((row & x).bit_count() % 2 == rhs for row, rhs in rows)


def brute_span(rows):
    span = {0}
    for row, _rhs in rows:
        span |= {s ^ row for s in span}
    return span


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_rank_consistency_and_count_match_brute_force(case):
    n_cols, rows = case
    system = build(rows)
    span = brute_span(rows)
    solutions = [x for x in range(1 << n_cols) if satisfies(x, rows)]
    assert 1 << system.rank == len(span)
    assert system.consistent == bool(solutions)
    if solutions:
        assert len(solutions) == 1 << (n_cols - system.rank)


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_solve_particular_and_nullspace_satisfy_the_system(case):
    n_cols, rows = case
    solution = build(rows).solve(n_cols)
    if solution is None:
        assert not any(satisfies(x, rows) for x in range(1 << n_cols))
        return
    particular, nullspace = solution
    assert satisfies(particular, rows)
    homogeneous = [(row, 0) for row, _rhs in rows]
    for v in nullspace:
        assert v and satisfies(v, homogeneous)
    # independent, and together with the rank they fill all n_cols columns
    assert GF2System(nullspace).rank == len(nullspace) == n_cols - build(rows).rank


@settings(max_examples=100, deadline=None)
@given(sparse_systems(), st.integers(0, (1 << 16) - 1))
def test_reduce_is_a_canonical_coset_residue(case, vec):
    _n_cols, rows = case
    system = build(rows)
    residue = system.reduce(vec)
    for s in brute_span(rows):
        assert system.reduce(vec ^ s) == residue
        assert system.reduce(s) == 0
    assert all(residue >> lead & 1 == 0 for lead in system.pivots)


def test_insert_reports_dependence_and_inconsistency():
    system = GF2System()
    assert system.insert(0b110, 1)
    assert system.insert(0b011, 0)
    assert not system.insert(0b101, 1)  # dependent and consistent
    assert system.consistent and system.rank == 2
    assert not system.insert(0b101, 0)  # dependent, reads 0 = 1
    assert not system.consistent
    assert system.solve(3) is None
    assert not GF2System().insert(0, 0)


# -- well-dashed counts against a brute-force sweep -----------------------

def small_graphs():
    """The test graphs with E <= 20 that carry both face sets."""
    return [
        build_quotient(2, BinaryCode.trivial(2)),
        build_quotient(3, BinaryCode.trivial(3)),
        build_quotient(4, BinaryCode.from_strings(4, ["1111"])),
    ]


def face_masks(faces):
    """One int per face, bit e set for each of its edges."""
    return [sum(1 << e for e in row) for row in faces.edges.tolist()]


def brute_count(n_edges, faces):
    fmasks = face_masks(faces)
    return sum(all((m & fm).bit_count() & 1 for fm in fmasks) for m in range(1 << n_edges))


def test_exact_count_matches_brute_force_on_small_graphs():
    for g in small_graphs():
        assert g.edge_count <= 20
        for faces in (two_colored_four_cycles(g), attach_faces(g).faces):
            expected = brute_count(g.edge_count, faces)
            assert count_well_dashed_exact(g, faces) == expected


def test_well_dashed_masks_match_brute_force_listing():
    for g in small_graphs():
        faces = attach_faces(g).faces
        fmasks = face_masks(faces)
        listed = [m for m in range(1 << g.edge_count)
                  if all((m & fm).bit_count() & 1 for fm in fmasks)]
        assert well_dashed_masks(g, faces) == listed


def test_class_ids_match_reduced_mask_sweep():
    for g in small_graphs():
        cut = GF2System(g.incident_edge_masks)
        for faces in (two_colored_four_cycles(g), attach_faces(g).faces):
            swept = Counter(cut.reduce(m) for m in well_dashed_masks(g, faces))
            assert well_dashed_class_ids(g, faces) == swept


def test_class_ids_beyond_the_listing_gate_are_refused_before_listing():
    # the embedded faces of 11110000 give g = 65: 2^130 classes would be listed
    g = build_quotient(8, BinaryCode.from_strings(8, ["11110000"]))
    faces = attach_faces(g).faces
    with pytest.raises(ResourceBoundError, match=r"^2\^130 vertex-change classes exceed the "
                                                 r"listing gate \(1048576\); use count_well_dashed_exact$"):
        well_dashed_class_ids(g, faces)
    assert count_well_dashed_exact(g, faces) == 1 << (130 + g.vertex_count - 1)


def test_class_ids_of_an_inconsistent_system_are_empty():
    g = build_quotient(6, BinaryCode.from_strings(6, ["111111"]))  # even, not doubly-even
    assert count_well_dashed_exact(g) == 0
    assert well_dashed_class_ids(g) == {}


# -- dashing classes against the former sorted-basis reduction ------------

def _sorted_basis(masks: Sequence[int]) -> list[int]:
    """Echelon basis kept in decreasing order, re-sorted after each insert."""
    basis: list[int] = []
    for m in masks:
        r = m
        for b in basis:
            if r >> (b.bit_length() - 1) & 1:
                r ^= b
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return basis


def _sorted_basis_reduce(mask: int, basis: Sequence[int]) -> int:
    r = mask
    for b in basis:
        if r >> (b.bit_length() - 1) & 1:
            r ^= b
    return r


def test_dashing_class_ids_match_sorted_basis_reduction_on_a41():
    g = build_quotient(4, BinaryCode.from_strings(4, ["1111"]))
    basis = _sorted_basis(g.incident_edge_masks)
    rng = random.Random(5)
    masks = well_dashed_masks(g) + [rng.getrandbits(g.edge_count) for _ in range(512)]
    for m in masks:
        assert dashing_class(g, Dashing.from_mask(m, g.edge_count)) == _sorted_basis_reduce(m, basis)
