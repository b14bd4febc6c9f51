"""Monomial kernels and Koszul-sign cross-checks."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from weylalg import BilinearForm, Element, QC, equivalence_transform, star
from weylalg import _kernels_py as K
from weylalg.basis import GeneratorBasis
from weylalg.randoms import random_monomial, random_rational

from oracles import (
    element_to_tensor,
    pair_tensor_of,
    pair_tensor_to_pairdict,
    product_oracle,
    sign_by_transpositions,
    sign_formula,
    tensor_to_element,
    tilde_contract,
    tilde_laplace,
)

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


def _mul_exps(e1, e2):
    """(exponents, sign) of the product of two monomials, or None when it vanishes."""
    lay = K.Layout.of(BASIS, max(e1) + max(e2))
    out = K.mul_terms(K.pack({e1: 1}, lay), K.pack({e2: 1}, lay), lay)
    return next(iter(K.unpack(out, lay).items()), None)


def test_mul_exps_odd_collision_and_sign():
    e1 = (0, 0, 1, 0)
    e2 = (0, 0, 0, 1)
    assert _mul_exps(e1, e1) is None
    out, sign = _mul_exps(e1, e2)
    assert out == (0, 0, 1, 1) and sign == 1
    out, sign = _mul_exps(e2, e1)
    assert out == (0, 0, 1, 1) and sign == -1


# -- packed kernels against the ordered-tensor oracles ---------------------

RINGS = ("qc", "complex", "int")


def _scalar(rng, ring):
    while True:
        if ring == "qc":
            c = QC(random_rational(rng), random_rational(rng))
        elif ring == "complex":
            # integer parts keep every float product exact
            c = complex(rng.randint(-4, 4), rng.randint(-4, 4))
        else:
            c = rng.randint(-9, 9)
        if c:
            return c


def _as_qc(c):
    if isinstance(c, complex):
        return QC(int(c.real), int(c.imag))
    return c if isinstance(c, QC) else QC(c)


def _qc_map(terms):
    return {k: _as_qc(c) for k, c in terms.items()}


def _terms(rng, ring, max_degree=4, n_terms=3):
    return {random_monomial(rng, BASIS, max_degree): _scalar(rng, ring) for _ in range(n_terms)}


def _element(terms):
    return Element(BASIS, "exact", _qc_map(terms))


def _gram(rng, ring, symmetric):
    """A parity-blocked matrix over the ring; graded-symmetric when asked."""
    d = BASIS.dimension
    m = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i if symmetric else 0, d):
            if BASIS.parity(i) != BASIS.parity(j) or rng.random() < 0.3:
                continue
            if symmetric and i == j and BASIS.parity(i):
                continue
            m[i][j] = _scalar(rng, ring)
            if symmetric:
                m[j][i] = -m[i][j] if BASIS.parity(i) else m[i][j]
    return m


def _entries(m, upper=False):
    d = len(m)
    return [(i, j, m[i][j]) for i in range(d) for j in range(d) if m[i][j] and (i <= j or not upper)]


def _form(m):
    return BilinearForm(BASIS, [[_as_qc(x) for x in row] for row in m])


def _mu_oracle(ordered):
    words = {}
    for (ta, tb), c in ordered.items():
        words[ta + tb] = words.get(ta + tb, 0) + c
    return tensor_to_element(words, BASIS).terms


def test_packed_mul_terms_match_product_oracle():
    rng = random.Random(61)
    for ring in RINGS:
        for _ in range(25):
            t1, t2 = _terms(rng, ring), _terms(rng, ring)
            lay = K.Layout.of(BASIS, K.top_exponent(t1) + K.top_exponent(t2))
            out = K.unpack(K.mul_terms(K.pack(t1, lay), K.pack(t2, lay), lay), lay)
            assert _qc_map(out) == product_oracle(_element(t1), _element(t2)).terms


def test_packed_mu_and_contract_terms_match_tensor_oracles():
    rng = random.Random(67)
    for ring in RINGS:
        for _ in range(12):
            t1, t2 = _terms(rng, ring), _terms(rng, ring)
            m = _gram(rng, ring, symmetric=False)
            lay = K.Layout.of(BASIS, K.top_exponent(t1) + K.top_exponent(t2))
            pairs = K.tensor_terms(K.pack(t1, lay), K.pack(t2, lay), lay)
            ordered = pair_tensor_of(_element(t1), _element(t2))
            for _ in range(3):
                mu = K.unpack(K.mu_terms(pairs, lay), lay)
                assert _qc_map(mu) == _mu_oracle(ordered)
                pairs = K.contract_terms(pairs, _entries(m), lay)
                ordered = tilde_contract(ordered, _form(m), BASIS)
                expected = pair_tensor_to_pairdict(ordered, BASIS).terms
                assert _qc_map(K.unpack_pairs(pairs, lay)) == expected


def test_packed_laplace_bulk_matches_tensor_oracle():
    rng = random.Random(71)
    for ring in RINGS:
        for _ in range(20):
            t = _terms(rng, ring, max_degree=5)
            m = _gram(rng, ring, symmetric=True)
            lay = K.Layout.of(BASIS, K.top_exponent(t))
            cur, tensor = K.pack(t, lay), element_to_tensor(_element(t))
            for _ in range(2):
                cur = K.laplace_bulk(cur, _entries(m, upper=True), lay)
                tensor = tilde_laplace(tensor, _form(m), BASIS)
                assert _qc_map(K.unpack(cur, lay)) == tensor_to_element(tensor, BASIS).terms


def test_field_width_holds_exponents_at_two_to_the_k_minus_one():
    # a product of two such exponents is 2^(k+1) - 2: one bit wider, which
    # a field one bit too narrow carries into the next generator
    rng = random.Random(73)
    z = QC(Fraction(1, 2), Fraction(1, 3))
    for k in (1, 2, 3):
        n = 2**k - 1
        a = Element(BASIS, "exact", {(n, 0, 1, 0): QC(1), (0, n, 0, 0): QC(2)})
        b = Element(BASIS, "exact", {(n, n, 0, 1): QC(3), (1, 0, 0, 0): QC(-1)})
        for terms in (a.terms, b.terms):
            lay = K.Layout.of(BASIS, K.top_exponent(terms))
            assert K.unpack(K.pack(terms, lay), lay) == terms
        assert a * b == product_oracle(a, b)
        form = _form(_gram(rng, "int", symmetric=False))
        ordered = pair_tensor_of(a, b)
        expected, weight, step = Element.zero(BASIS), QC(1), 0
        while ordered:
            expected = expected + Element(BASIS, "exact", _mu_oracle(ordered)).scale(weight)
            step += 1
            weight = weight * z * QC(Fraction(1, step))
            ordered = tilde_contract(ordered, form, BASIS)
        assert star(a, b, z, form) == expected
        g = _gram(rng, "int", symmetric=True)
        tensor = element_to_tensor(b)
        expected, weight, step = Element.zero(BASIS), QC(1), 0
        while tensor:
            expected = expected + tensor_to_element(tensor, BASIS).scale(weight)
            step += 1
            weight = weight * z * QC(Fraction(1, step))
            tensor = tilde_laplace(tensor, _form(g), BASIS)
        assert equivalence_transform(b, z, _form(g)) == expected


def test_tracer_sees_the_kernels_of_one_star():
    # perfbench/tracer.py rebinds the kernel names and reads the lengths
    # of their first two arguments; perfbench/worker.py records
    # KERNEL_BACKEND and scalars._RATIO
    root = Path(__file__).resolve().parent.parent
    code = (
        "import json, tracer, weylalg\n"
        "from weylalg import BilinearForm, Element, scalars\n"
        "from weylalg.randoms import default_basis\n"
        "t = tracer.install(tracer.Tracer())\n"
        "B = default_basis()\n"
        "q, p = Element.generator(B, 'q'), Element.generator(B, 'p')\n"
        "form = BilinearForm.from_entries(B, {('p', 'q'): 1})\n"
        "t.on = True\n"
        "weylalg.star(p * p, q * q, 1, form)\n"
        "t.on = False\n"
        "print(weylalg.KERNEL_BACKEND, scalars._RATIO.__name__)\n"
        "print(json.dumps(tracer.layer_metrics(t)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True, env=env
    )
    names, layers = run.stdout.splitlines()
    assert names == "python Fraction"
    layers = json.loads(layers)
    # p^2 (x) q^2 contracts twice before it vanishes
    assert layers["kernels.contract_terms.calls"] == 3
    assert layers["kernels.contract_terms.terms_in"] == 1 + 1 + 1
    assert layers["kernels.mu_terms.calls"] == 3
    assert layers["star_algebra.star.calls"] == 1
