"""Length spectra of triangle groups against their Singerman inclusions.

If a triangle group D' is a subgroup of finite index of a triangle group
D (Singerman, J. London Math. Soc. (2) 6, 1972), its primitive classes are
the cycles of D's primitive classes acting on the cosets of D': a class of
length l whose permutation has a cycle of length c gives one class of D'
of length c l.  ``cover_length_spectrum`` lifts D's spectrum that way, so
``length_spectrum`` of D' must equal the lift below l_max, as multisets of
lengths rounded to 1e-9.  The two sides come from different balls, grown
from different generators about different kites, so a class that one
ball's reach misses shows as a difference.

Each coset action is given on D's generators a, b, c (abc = 1); the cycle
types of a, b and c give D''s cone points, which Riemann-Hurwitz turns into
its signature.
"""

from collections import Counter

import pytest

from adinkra_spectra.hyperbolic import (
    CosetAction,
    cover_length_spectrum,
    length_spectrum,
    triangle_generators,
)


def _psl27_on_the_projective_line():
    """PSL(2, 7) on P^1(F_7) = {0, ..., 6, inf}: a = [[0, -1], [1, 0]],
    b = [[0, -1], [1, 1]] and c = (ab)^-1 = [[1, -1], [0, 1]], of orders 2, 3
    and 7; a fixes no point, b two and c one, so the stabiliser is (3,3,7)."""
    points = list(range(7)) + [None]

    def image(matrix, z):
        (a, b), (c, d) = matrix
        num, den = (a, c) if z is None else (a * z + b, c * z + d)
        return None if den % 7 == 0 else num * pow(den, -1, 7) % 7

    return {letter: [points.index(image(matrix, z)) for z in points]
            for letter, matrix in (("a", ((0, -1), (1, 0))), ("b", ((0, -1), (1, 1))),
                                   ("c", ((1, -1), (0, 1))))}


# a and c swap the two cosets and b fixes them: b's two fixed cosets give
# two cone points of b's order, and c's 2-cycle one of half c's order
_SWAP = {"a": [1, 0], "b": [0, 1], "c": [1, 0]}

INCLUSIONS = [
    ((5, 5, 2), (2, 5, 4), 2, _SWAP, 6.0),
    ((3, 3, 4), (2, 3, 8), 2, _SWAP, 6.0),
    ((7, 7, 2), (2, 7, 4), 2, _SWAP, 5.5),
    # a -> +1, b -> +2, c -> id on Z/3: c fixes three cosets
    ((4, 4, 4), (3, 3, 4), 3, {"a": [1, 2, 0], "b": [2, 0, 1], "c": [0, 1, 2]}, 6.0),
    # a a transposition, b a 3-cycle, c = (ab)^-1 a transposition
    ((2, 5, 10), (2, 3, 10), 3, {"a": [1, 0, 2], "b": [1, 2, 0], "c": [0, 2, 1]}, 6.0),
    ((3, 3, 7), (2, 3, 7), 8, _psl27_on_the_projective_line(), 6.5),
]


@pytest.mark.parametrize("sub,parent,degree,perms,l_max", INCLUSIONS,
                         ids=[",".join(map(str, s)) + "<" + ",".join(map(str, p))
                              for s, p, *_ in INCLUSIONS])
def test_subgroup_spectrum_is_the_lift_of_the_parent_spectrum(sub, parent, degree, perms,
                                                              l_max):
    group = triangle_generators(*parent)
    lifted = cover_length_spectrum(length_spectrum(group, l_max), CosetAction(degree, perms),
                                   group)
    expected = Counter()
    for c in lifted:
        if c.length <= l_max:
            expected[round(c.length, 9)] += c.multiplicity
    got = Counter(round(c.length, 9) for c in length_spectrum(triangle_generators(*sub), l_max))
    assert sum(got.values()) >= 45
    assert got == expected
