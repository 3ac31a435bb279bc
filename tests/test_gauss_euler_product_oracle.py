"""The full Gauss operator's Fredholm determinants against the Euler
product of the Selberg zeta function of PSL(2,Z).

Mayer: Z(s) = det(1 - L_s) det(1 + L_s), where L_s is the Gauss operator
at beta = s with every branch kept, and
Z(s) = prod_gamma prod_{k >= 0} (1 - exp(-(s + k) l_gamma)) over the
primitive hyperbolic conjugacy classes gamma.  Those classes are the
primitive cyclic continued-fraction words (a_1, ..., a_m) (Series, 1985),
enumerated here in integer arithmetic: M = prod [[a_i, 1], [1, 0]] has
determinant (-1)^m.  A word of even length is M itself, and it counts
twice, since the shift by one letter conjugates in PGL(2,Z), not in
PSL(2,Z).  A word of odd length counts once, as M^2, whose trace is
tr(M)^2 + 2.  A class of trace t has length 2 arccosh(t / 2), so
l <= 12 is t <= 403, as 2 cosh 6 = 403.43.

The product stops at l = 12.  The classes beyond contribute about
sum_{l > 12} e^-3l e^l / l, roughly 1.6e-12 at s = 3, so the two sides
must agree to 1e-11.
"""

import math

import numpy as np

from adinkra_spectra import transfer
from adinkra_spectra.transfer import fredholm_det

MAX_TRACE = 403  # the largest integer trace of a class of length <= 12


def primitive_words(max_trace):
    """Each primitive cyclic word whose class trace is at most max_trace,
    once (its least rotation), with that trace."""
    found = []

    def grow(word, p00, p01, p10, p11):
        if word:
            trace = p00 + p11 if len(word) % 2 == 0 else (p00 + p11) ** 2 + 2
            if trace <= max_trace and all(word < word[i:] + word[:i] for i in range(1, len(word))):
                found.append((tuple(word), trace))
        a = 1
        # the prefix's top-left entry bounds the trace of every word it starts
        while a * p00 + p01 <= max_trace:
            word.append(a)
            grow(word, a * p00 + p01, p00, a * p10 + p11, p10)
            word.pop()
            a += 1

    grow([], 1, 0, 0, 1)
    return found


def test_euler_product_matches_the_fredholm_determinants():
    words = primitive_words(MAX_TRACE)
    weights = [2 if len(w) % 2 == 0 else 1 for w, _t in words]
    assert (len(words), sum(weights)) == (7472, 14904)
    s, log_z = 3.0, 0.0
    for (_w, trace), weight in zip(words, weights):
        length = 2.0 * math.acosh(trace / 2.0)
        log_z += weight * sum(math.log1p(-math.exp(-(s + k) * length)) for k in range(40))
    a = transfer._gauss_rows(s, np.concatenate(transfer._gauss_grids()))
    det = fredholm_det(a).value * fredholm_det(-a).value
    assert det.imag == 0.0 and det.real > 0.0
    assert abs(math.log(det.real) - log_z) <= 1e-11
