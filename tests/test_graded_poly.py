"""Graded polynomial algebra: examples, oracles and invariants."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylalg import (
    BackendMismatchError,
    BasisMismatchError,
    DomainError,
    Element,
    GeneratorBasis,
    QC,
    evaluate,
    grade_component,
    ordered_coefficients,
    parity_split,
    sym_product,
)
from weylalg import _kernels_py as K
from weylalg import scalars
from weylalg.bilinear_forms import _laplace_entries
from weylalg.graded_poly import _bilinear
from weylalg.randoms import (
    default_basis,
    random_element,
    random_even_form,
    random_graded_symmetric_form,
)
from weylalg.seminorm_calculus import _to_float_element
from weylalg.star_algebra import _entry_parts

from oracles import (
    bilinear_oracle,
    element_to_tensor,
    product_oracle,
    symmetrize,
    tensor_to_element,
)

B = default_basis()
Q = Element.generator(B, "q")
P = Element.generator(B, "p")
E1 = Element.generator(B, "e1")
E2 = Element.generator(B, "e2")
ONE = Element.one(B)


def test_product_examples():
    qp = sym_product(Q, P)
    assert qp.terms == {(1, 1, 0, 0): QC(1)}
    assert sym_product(E1, E1) == Element.zero(B)
    assert sym_product(E1, E2).terms == {(0, 0, 1, 1): QC(1)}
    assert sym_product(E2, E1).terms == {(0, 0, 1, 1): QC(-1)}


def test_product_against_tensor_oracle():
    rng = random.Random(3)
    for _ in range(40):
        a = random_element(rng, B, max_degree=3, n_terms=3)
        b = random_element(rng, B, max_degree=2, n_terms=3)
        assert a * b == product_oracle(a, b)


def test_symmetrizer_is_idempotent_on_tensors():
    rng = random.Random(5)
    for _ in range(10):
        a = random_element(rng, B, max_degree=3, n_terms=2)
        t = symmetrize(element_to_tensor(a), B)
        assert symmetrize(t, B) == t
        assert tensor_to_element(t, B) == a


elements = st.integers(min_value=0, max_value=10**6).map(
    lambda s: random_element(random.Random(s), B, max_degree=3, n_terms=3)
)


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_associativity_property(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_graded_commutativity_property(a, b):
    for pa, ah in enumerate(a.parity_split()):
        for pb, bh in enumerate(b.parity_split()):
            lhs = ah * bh
            rhs = bh * ah
            if pa and pb:
                rhs = -rhs
            assert lhs == rhs


def test_ordered_coefficients_examples():
    third = QC(Fraction(1, 3))
    assert ordered_coefficients(Q * Q * P, 3) == {
        ("q", "q", "p"): third,
        ("q", "p", "q"): third,
        ("p", "q", "q"): third,
    }
    assert ordered_coefficients(Q, 1) == {("q",): QC(1)}
    half = QC(Fraction(1, 2))
    assert ordered_coefficients(E1 * E2, 2) == {
        ("e1", "e2"): half,
        ("e2", "e1"): -half,
    }


def test_ordered_coefficients_walks_distinct_orderings_only():
    # q^12 has one distinct ordering; walking all 12! would take minutes
    start = time.perf_counter()
    coeffs = ordered_coefficients(Q**12, 12)
    assert time.perf_counter() - start < 1.0
    assert coeffs == {("q",) * 12: QC(1)}


def test_ordered_coefficients_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        a = random_element(rng, B, max_degree=4, n_terms=3)
        for n in range(0, 5):
            part = grade_component(a, n)
            rebuilt = Element.zero(B)
            for names, c in ordered_coefficients(a, n).items():
                term = Element.one(B).scale(c)
                for nm in names:
                    term = term * Element.generator(B, nm)
                rebuilt = rebuilt + term
            assert rebuilt == part


def test_ordered_coefficients_symmetry_signs():
    # coefficients invariant under even moves, sign-flipping under odd swaps
    rng = random.Random(9)
    for _ in range(10):
        a = random_element(rng, B, max_degree=4, n_terms=3)
        for n in range(1, 5):
            coeffs = ordered_coefficients(a, n)
            for names, c in coeffs.items():
                for k in range(n - 1):
                    swapped = list(names)
                    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                    other = coeffs.get(tuple(swapped), QC(0))
                    both_odd = not B.is_even(B.index(names[k])) and not B.is_even(
                        B.index(names[k + 1])
                    )
                    assert other == (-c if both_odd else c)


def test_grade_parity_conjugate_examples():
    a = ONE + Q + Q * Q
    assert grade_component(a, 2) == Q * Q
    assert grade_component(a, 7) == Element.zero(B)
    ev, od = parity_split(Q + E1)
    assert ev == Q and od == E1
    ci = Element.generator(B, "q").scale(QC(1, 1))
    assert ci.conjugate() == Element.generator(B, "q").scale(QC(1, -1))
    assert ci.conjugate().conjugate() == ci


def test_conjugate_is_algebra_map():
    rng = random.Random(13)
    for _ in range(20):
        a = random_element(rng, B, max_degree=3, n_terms=2, complex_parts=True)
        b = random_element(rng, B, max_degree=3, n_terms=2, complex_parts=True)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_evaluate_examples():
    a = Q * Q * P
    assert evaluate(a, {"q": QC(2), "p": QC(3)}) == QC(12)
    assert evaluate(ONE, {"q": QC(0), "p": QC(0)}) == QC(1)
    assert evaluate(Q + P, {"q": QC(1), "p": QC(-1)}) == QC(0)
    with pytest.raises(DomainError):
        evaluate(E1, {"q": QC(0), "p": QC(0)})
    with pytest.raises(DomainError):
        evaluate(Q, {"p": QC(0)})


def test_evaluate_is_homomorphism():
    rng = random.Random(17)
    point = {"q": QC(Fraction(1, 2)), "p": QC(-2)}
    beven = GeneratorBasis(("q", "p"), ("even", "even"))
    for _ in range(20):
        a = random_element(rng, beven, max_degree=3, n_terms=3)
        b = random_element(rng, beven, max_degree=3, n_terms=3)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def test_basis_and_backend_mismatch():
    other = GeneratorBasis(("x",), ("even",))
    with pytest.raises(BasisMismatchError):
        sym_product(Q, Element.generator(other, "x"))
    with pytest.raises(BackendMismatchError):
        sym_product(Q, Element.generator(B, "q", backend="float"))


def test_monomial_validation():
    with pytest.raises(DomainError):
        Element.from_terms(B, "exact", [((0, 0, 2, 0), QC(1))])


def test_scale_accepts_plain_rationals_on_both_backends():
    from fractions import Fraction as F

    q_exact = Element.generator(B, "q")
    q_float = Element.generator(B, "q", backend="float")
    assert q_exact.scale(F(1, 2)) == q_exact.scale(QC(F(1, 2)))
    assert q_float.scale(F(1, 2)) == q_float.scale(0.5 + 0j)
    assert not q_exact.scale(0)


def test_powers_equal_repeated_products():
    # literal equality on exact elements (real, complex, with odd generators),
    # the same bits on floats
    rng = random.Random(61)
    cases = [
        Q.scale(QC(Fraction(2, 3))),
        random_element(rng, B, max_degree=2, n_terms=3),
        random_element(rng, B, max_degree=2, n_terms=3, complex_parts=True),
        E1 + E2.scale(QC(0, 1)) + Q.scale(QC(Fraction(1, 2), -1)),
        E1 * E2 + E1,  # nilpotent: its square vanishes
    ]
    for a in cases:
        fa = _to_float_element(a)
        expected, fexpected = ONE, Element.one(B, "float")
        for n in range(9):
            assert a**n == expected, (a, n)
            assert _bits(fa**n) == _bits(fexpected), (a, n)
            expected, fexpected = expected * a, fexpected * fa
    with pytest.raises(DomainError):
        Q ** -1


def _bits(a):
    return {e: (c.real.hex(), c.imag.hex()) for e, c in a.terms.items()}


def _complex_parts(rng, lay, basis=B):
    """The (re, im) numerator parts of a seeded complex element, packed over ``lay``."""
    while True:
        a = random_element(rng, basis, max_degree=3, n_terms=4, complex_parts=True)
        parts = scalars.numerators(K.pack(a.terms, lay))[1]
        if len(parts) == 2 and all(parts):
            return parts


def test_complex_bilinear_takes_three_calls_and_equals_the_four_call_product():
    rng = random.Random(67)
    lay = K.Layout.of(B, 6)
    calls, checked = [], []

    def counted(f):
        return lambda *args: calls.append(1) or f(*args)

    def check(f, xs, ys):
        calls.clear()
        got = _bilinear(counted(f), xs, ys)
        assert len(calls) == 3
        assert got == bilinear_oracle(f, xs, ys)
        return got

    for trial in range(6):
        form = random_even_form(rng, B, complex_parts=True)
        sym = random_graded_symmetric_form(rng, B, complex_parts=True)
        _, lam = _entry_parts("exact", form._entries)
        _, gam = _entry_parts("exact", _laplace_entries(sym))
        xs, ys = _complex_parts(rng, lay), _complex_parts(rng, lay)
        check(lambda x, y: K.mul_terms(x, y, lay), xs, ys)
        u = check(lambda x, y: K.tensor_terms(x, y, lay), xs, ys)
        if len(lam) == 2 and all(lam):
            check(lambda t, e: K.contract_terms(t, e, lay), u, lam)
            checked.append("contract_terms")
        if len(gam) == 2 and all(gam):
            check(lambda t, e: K.laplace_bulk(t, e, lay), xs, gam)
            checked.append("laplace_bulk")
    assert set(checked) == {"contract_terms", "laplace_bulk"}
    # (x + iy)(x - iy) on even generators is real: its empty imaginary part is dropped
    even = GeneratorBasis(("q", "p"), ("even", "even"))
    lay = K.Layout.of(even, 6)
    xr, xi = _complex_parts(rng, lay, even)
    conj = (xr, {e: -c for e, c in xi.items()})
    got = check(lambda x, y: K.mul_terms(x, y, lay), (xr, xi), conj)
    assert len(got) == 1 and got[0]
