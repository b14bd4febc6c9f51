"""Monomial kernels and Koszul-sign cross-checks."""

import itertools

from weylalg import _kernels_py
from weylalg.basis import GeneratorBasis

from oracles import sign_by_transpositions, sign_formula

BASIS = GeneratorBasis(("q", "p", "e1", "e2"), ("even", "even", "odd", "odd"))


def test_sign_formula_matches_transpositions():
    for n in range(1, 5):
        for parities in itertools.product((0, 1), repeat=n):
            for sigma in itertools.permutations(range(n)):
                f = sign_formula(parities, sigma)
                t = sign_by_transpositions(parities, sigma)
                assert f == t, (parities, sigma)


def test_sign_formula_special_cases():
    # all even: +1; all odd: the ordinary signum
    for sigma in itertools.permutations(range(4)):
        assert sign_formula((0, 0, 0, 0), sigma) == 1
        parity = 1
        perm = list(sigma)
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    parity = -parity
        assert sign_formula((1, 1, 1, 1), sigma) == parity


def test_mul_exps_odd_collision_and_sign():
    mask = BASIS.odd_mask
    e1 = (0, 0, 1, 0)
    e2 = (0, 0, 0, 1)
    assert _kernels_py.mul_exps(e1, e1, mask) is None
    out, sign = _kernels_py.mul_exps(e1, e2, mask)
    assert out == (0, 0, 1, 1) and sign == 1
    out, sign = _kernels_py.mul_exps(e2, e1, mask)
    assert out == (0, 0, 1, 1) and sign == -1
