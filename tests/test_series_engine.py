"""Truncated series: exponentials, products, diagnostics, witnesses."""

import math
import random
from fractions import Fraction

import pytest

from weylalg import _kernels_py, scalars, series_engine
from weylalg import (
    BackendMismatchError,
    BasisMismatchError,
    BilinearForm,
    DomainError,
    Element,
    GeneratorBasis,
    QC,
    RefusedPreconditionError,
    TruncatedSeries,
    TruncationBudgetError,
    WeightedSeminorm,
    convergence_diagnosis,
    divergence_witness_standard_ordered,
    exp_element,
    f_epsilon_series,
    inner_translation_check,
    lambda_parts,
    p_R,
    star,
    star_exp,
    translate,
    truncated_star,
)
from weylalg.randoms import (
    default_basis,
    random_degree_one_even,
    random_element,
    random_even_form,
    random_rational,
    random_scalar,
)
from weylalg.seminorm_calculus import _to_float_element
from weylalg.star_algebra import _star_parts

from oracles import (
    conjugation_orders_oracle,
    exp_series_oracle,
    f_epsilon_series_oracle,
    star_exp_loop_oracle,
    star_exp_oracle,
    truncated_star_oracle,
)

B2 = GeneratorBasis(("q", "p"), ("even", "even"))
Q = Element.generator(B2, "q")
P = Element.generator(B2, "p")
STD = BilinearForm.from_entries(B2, {("p", "q"): 1})
DARBOUX = BilinearForm.from_entries(B2, {("q", "p"): 1, ("p", "q"): -1})
UNIT2 = WeightedSeminorm.unit(B2)


def test_exp_element_examples():
    S = exp_element(Q, 3)
    assert S.components[0] == Element.one(B2)
    assert S.components[1] == Q
    assert S.components[2] == (Q * Q).scale(QC(Fraction(1, 2)))
    assert S.components[3] == (Q**3).scale(QC(Fraction(1, 6)))
    assert S.has_tail

    bo = default_basis()
    e1 = Element.generator(bo, "e1")
    e2 = Element.generator(bo, "e2")
    So = exp_element(e1 + e2, 5)
    assert not So.has_tail
    assert So.as_element() == Element.one(bo) + e1 + e2

    with pytest.raises(DomainError):
        exp_element(Q * Q, 3)
    with pytest.raises(DomainError):
        exp_element(Element.one(B2) + Q, 3)


def test_exp_partial_sums_converge_below_one():
    S = exp_element(Q, 30)
    diag = convergence_diagnosis(S, UNIT2, 0.5)
    assert diag["verdict"] == "converging"
    # closed form of the terms: n!^{R-1} p(q)^n
    for n, t in enumerate(diag["terms"]):
        assert t == pytest.approx(math.factorial(n) ** (-0.5), rel=1e-9)


def test_star_exp_matches_iterated_star():
    rng = random.Random(3)
    for _ in range(12):
        basis = B2
        form = random_even_form(rng, basis)
        w = random_degree_one_even(rng, basis)
        t = random_rational(rng, span=2)
        z = random_rational(rng, span=2)
        order = 6
        S = star_exp(w, t, z, form, order)
        acc = Element.zero(basis)
        power = Element.one(basis)
        for ell in range(order + 1):
            if ell:
                power = star(power, w, QC(z), form)
            acc = acc + power.scale(QC(t) ** ell * QC(Fraction(1, math.factorial(ell))))
        for n in range(order + 1):
            assert acc.grade_component(n) == S.components[n]


def test_star_exp_equals_the_double_sum():
    # the coefficients by recurrence literally equal sum_j t^(n+2j) h^j/(n! j!)
    rng = random.Random(47)
    for order in range(17):
        for cplx in (False, True):
            form = random_even_form(rng, B2, complex_parts=cplx)
            w = random_degree_one_even(rng, B2)
            t = random_rational(rng, span=2)
            z = random_scalar(rng, complex_parts=cplx) or QC(1)
            S = star_exp(w, t, z, form, order)
            assert list(S.components) == star_exp_oracle(w, t, z, form, order), (order, cplx)


def test_float_star_exp_is_close_to_the_exact_one():
    rng = random.Random(53)
    for trial in range(8):
        cplx = trial % 2 == 1
        form = random_even_form(rng, B2, complex_parts=cplx)
        w = random_degree_one_even(rng, B2)
        t = random_rational(rng, span=2)
        z = random_scalar(rng, complex_parts=cplx) or QC(1)
        fform = BilinearForm(B2, [[complex(c) for c in row] for row in form.matrix], "float")
        exact = star_exp(w, t, z, form, 12)
        floats = star_exp(_to_float_element(w), float(t), complex(z), fform, 12)
        for ce, cf in zip(exact.components, floats.components):
            assert set(cf.terms) == set(ce.terms)
            for e, c in ce.terms.items():
                assert cf.terms[e] == pytest.approx(complex(c), rel=1e-12), trial


def test_star_exp_degenerates_for_antisymmetric_form():
    # form(w, w) = 0 collapses the closed form to the plain exponential
    w = Q
    S = star_exp(w, 1, Fraction(1, 2), DARBOUX, 8)
    E = exp_element(w, 8)
    for n in range(9):
        assert S.components[n] == E.components[n]


def _star_powers(w, z, form, order):
    pows = [Element.one(w.basis)]
    for _ in range(order):
        pows.append(star(pows[-1], w, QC(z), form))
    return pows


def test_star_exp_derivative_identity():
    # d/dt Exp(tw) = Exp(tw) * w = w * Exp(tw), per order in t: the
    # t^r coefficient of the derivative is w^{*(r+1)}/r!, which must
    # equal the t^r coefficient of either product.
    form = BilinearForm.from_entries(B2, {("p", "q"): 1, ("q", "p"): Fraction(1, 3)})
    w = Q + P
    z = Fraction(1, 2)
    order = 6
    pows = _star_powers(w, z, form, order + 1)
    for r in range(order):
        dcoeff = pows[r + 1].scale(QC(Fraction(1, math.factorial(r))))
        right = star(pows[r], w, QC(z), form).scale(QC(Fraction(1, math.factorial(r))))
        left = star(w, pows[r], QC(z), form).scale(QC(Fraction(1, math.factorial(r))))
        assert dcoeff == right == left
    # and the stored closed form reproduces exactly those t-coefficients:
    # differentiating the truncation at order N gives the truncation of
    # Exp * w at order N-1.
    lam = form.apply(w, w)
    S_hi = star_exp(w, 1, z, form, order + 1)
    # rebuild both sides as full elements at t = 1 restricted to t-orders
    # <= order: sum_r<=order t^r/r! w^{*(r+1)} vs formal derivative.
    deriv_sum = Element.zero(B2)
    for r in range(order + 1):
        deriv_sum = deriv_sum + pows[r + 1].scale(QC(Fraction(1, math.factorial(r))))
    # formal derivative of the stored components of S_hi: coefficient of
    # w^n at t-order n+2j is c_{n,j}; derivative multiplies by (n+2j).
    z_qc = QC(z)
    half_zlam = z_qc * lam * QC(Fraction(1, 2))
    formal = Element.zero(B2)
    power = Element.one(B2)
    for n in range(order + 2):
        if n:
            power = power * w
        coeff = QC(0)
        j = 0
        while n + 2 * j <= order + 1:
            if n + 2 * j >= 1:
                c = QC(Fraction(1, math.factorial(n) * math.factorial(j))) * half_zlam**j
                coeff = coeff + c * QC(n + 2 * j)
            j += 1
        formal = formal + power.scale(coeff)
    assert formal == deriv_sum


def test_star_exp_group_law():
    # Exp(tw) * Exp(sw) = Exp((t+s)w) per combined order in (t, s)
    rng = random.Random(11)
    for _ in range(6):
        form = random_even_form(rng, B2)
        w = random_degree_one_even(rng, B2)
        z = Fraction(1, 3)
        t, s = Fraction(1, 2), Fraction(2, 3)
        order = 5
        pows = _star_powers(w, z, form, order)
        for r in range(order + 1):
            lhs = Element.zero(B2)
            for l in range(r + 1):
                m = r - l
                lhs = lhs + star(pows[l], pows[m], QC(z), form).scale(
                    QC(Fraction(t**l * s**m, math.factorial(l) * math.factorial(m)))
                )
            rhs = pows[r].scale(QC(Fraction((t + s) ** r, math.factorial(r))))
            assert lhs == rhs


def test_f_epsilon_series():
    S1 = f_epsilon_series(Q, 1, 5)
    E = exp_element(Q, 5)
    for n in range(6):
        assert S1.components[n] == E.components[n]
    S = f_epsilon_series(Q, 0.5, 2)
    assert S.components[2].backend == "float"
    coeff = next(iter(S.components[2].terms.values()))
    assert abs(coeff - 1 / 2**0.5) < 1e-12
    # p_R partials: converge iff R < eps
    S9 = f_epsilon_series(Q, 0.5, 40)
    un = WeightedSeminorm.unit(B2)
    assert convergence_diagnosis(S9, un, 0.25)["verdict"] == "converging"
    assert convergence_diagnosis(S9, un, 0.75)["verdict"] == "diverging"


def test_truncated_star_examples():
    z = QC(1)
    A = exp_element(Q, 10)
    Bp = TruncatedSeries.from_element(P, 10)
    C = truncated_star(A, Bp, z, STD, 8)
    assert C.meta["exact_through"] == 8
    # standard ordering pairs p against q only: exp(q) * p = exp(q) p
    for n in range(1, 9):
        expect = ((Q ** (n - 1)) * P).scale(QC(Fraction(1, math.factorial(n - 1))))
        assert C.components[n] == expect
    # p * exp(q) = exp(q)(p + z)
    C2 = truncated_star(Bp, A, z, STD, 8)
    for n in range(0, 8):
        expect = ((Q ** n) * P).scale(QC(Fraction(1, math.factorial(n)))) + (
            Q**n
        ).scale(QC(Fraction(1, math.factorial(n))) * z)
        got = C2.components[n] + C2.components[n + 1].grade_component(n)
        # compare degree by degree: C2.components[n] collects the
        # degree-n part of the product, i.e. q^{n-1}p/(n-1)! + z q^n/n!
        if n == 0:
            assert C2.components[0] == Element.one(B2).scale(z)
        else:
            expect_n = ((Q ** (n - 1)) * P).scale(
                QC(Fraction(1, math.factorial(n - 1)))
            ) + (Q**n).scale(QC(Fraction(1, math.factorial(n))) * z)
            assert C2.components[n] == expect_n
    # neutral element
    one_series = TruncatedSeries.from_element(Element.one(B2), 10)
    C3 = truncated_star(one_series, Bp, z, STD, 8)
    assert C3.components[1] == P
    assert all(not C3.components[n] for n in range(9) if n != 1)


def test_exp_star_generator_identities():
    # exp(w) * v = exp(w)(v + z form(w, v)) and
    # v * exp(w) = exp(w)(v + z form(v, w)), per degree
    rng = random.Random(29)
    for _ in range(10):
        form = random_even_form(rng, B2)
        w = random_degree_one_even(rng, B2)
        z = QC(random_rational(rng, span=2))
        order = 7
        E = exp_element(w, order)
        for name in B2.names:
            v = Element.generator(B2, name)
            vs = TruncatedSeries.from_element(v, order)
            left = truncated_star(E, vs, z, form, order - 1)
            right = truncated_star(vs, E, z, form, order - 1)
            assert left.meta["exact_through"] >= order - 1
            lam_wv = form.apply(w, v)
            lam_vw = form.apply(v, w)
            for n in range(order):
                # degree n of exp(w)(v + z lam): w^{n-1} v/(n-1)! + z lam w^n/n!
                poly = (w**n).scale(QC(Fraction(1, math.factorial(n))))
                lead = (
                    ((w ** (n - 1)) * v).scale(QC(Fraction(1, math.factorial(n - 1))))
                    if n >= 1
                    else Element.zero(B2)
                )
                assert left.components[n] == lead + poly.scale(z * lam_wv)
                assert right.components[n] == lead + poly.scale(z * lam_vw)


def test_truncated_star_budget_bookkeeping():
    z = QC(1)
    A = exp_element(Q, 6)
    Bq3 = TruncatedSeries.from_element((P**3), 6)
    C = truncated_star(A, Bq3, z, STD, 6)
    # tails of exp(q) can reach down 3 degrees through p^3
    assert C.meta["exact_through"] == 3
    with pytest.raises(TruncationBudgetError):
        truncated_star(A, Bq3, z, STD, 6, require_exact=True)
    # two infinite tails: nothing is certified
    C2 = truncated_star(A, exp_element(P, 6), z, STD, 6)
    assert C2.meta["exact_through"] == -1


def test_convergence_boundary_verdicts():
    w2 = WeightedSeminorm(B2, {"q": 2, "p": 1})
    S = exp_element(Q, 40)
    assert convergence_diagnosis(S, w2, 0.5)["verdict"] == "converging"
    assert convergence_diagnosis(S, w2, 0.9)["verdict"] == "converging"
    assert convergence_diagnosis(S, w2, 1.1)["verdict"] == "diverging"
    # boundary R = 1: ratios flatten at p(q) = 2 -> diverging; at weight 1
    # they flatten at 1 -> inconclusive
    assert convergence_diagnosis(S, w2, 1.0)["verdict"] in ("diverging", "inconclusive")
    un = WeightedSeminorm.unit(B2)
    assert convergence_diagnosis(S, un, 1.0)["verdict"] == "inconclusive"
    # polynomial input: converging
    Pn = TruncatedSeries.from_element(Q * Q + P, 12)
    assert convergence_diagnosis(Pn, un, 1.5)["verdict"] == "converging"


def test_divergence_witness():
    rep = divergence_witness_standard_ordered(0.25, 1.0, 6)
    expected = [math.factorial(l) ** 0.5 for l in range(7)]
    for got, exp in zip(rep["term_magnitudes"], expected):
        assert got == pytest.approx(exp, rel=1e-12)
    assert rep["increasing_from"] is not None and rep["increasing_from"] <= 2
    # hbar = 0: only the l = 0 term survives
    rep0 = divergence_witness_standard_ordered(0.25, 0.0, 5)
    assert rep0["partial_magnitudes"] == [1.0] * 6
    with pytest.raises(RefusedPreconditionError):
        divergence_witness_standard_ordered(0.5, 1.0, 5)
    with pytest.raises(RefusedPreconditionError):
        divergence_witness_standard_ordered(0.7, 1.0, 5)


def test_divergence_witness_growth_pattern():
    rep = divergence_witness_standard_ordered(0.25, 1.0, 12)
    mags = rep["term_magnitudes"]
    for ell in range(2, 12):
        assert mags[ell + 1] > mags[ell]
    # magnitudes match l!^{1-2 eps} exactly in closed form
    for ell in range(13):
        assert mags[ell] == pytest.approx(math.factorial(ell) ** 0.5, rel=1e-12)


def test_inner_translation_examples():
    z = QC(Fraction(2, 5))
    res = inner_translation_check(Q, P, z, DARBOUX, 8)
    assert all(res["per_degree_match"])
    assert res["phi_v"] == z * 2
    assert res["degree0_partials"][0] == QC(0)
    assert all(v == z * 2 for v in res["degree0_partials"][1:])
    # orders beyond the first vanish identically
    assert all(not res["orders"][r] for r in range(2, 9))

    res = inner_translation_check(Q, Q, z, DARBOUX, 6)
    assert res["phi_v"] == QC(0)
    assert res["rhs_element"] == Q
    assert all(res["per_degree_match"])

    zero_form = BilinearForm.zero(B2)
    res = inner_translation_check(Q, P, z, zero_form, 6)
    assert res["phi_v"] == QC(0)
    assert all(res["per_degree_match"])

    with pytest.raises(DomainError):
        inner_translation_check(Q, P, 0, DARBOUX, 6)


def test_inner_translation_matches_translate():
    rng = random.Random(13)
    for _ in range(8):
        form = random_even_form(rng, B2)
        w = random_degree_one_even(rng, B2)
        z = QC(random_rational(rng, span=3))
        if not z:
            z = QC(1)
        for name in B2.names:
            v = Element.generator(B2, name)
            res = inner_translation_check(w, v, z, form, 8)
            _, minus = lambda_parts(form)
            phi = {
                nm: (minus.apply(w, Element.generator(B2, nm)) * z * 2).re
                for nm in B2.names
            }
            assert res["lhs_element"] == translate(v, phi)


def test_inner_translation_takes_two_commutator_products_per_order(monkeypatch):
    # order r is [w, order r - 1] / r: w * cur, then cur * w, up to the first
    # order that vanishes; [w, P] is a scalar, so that is order 2 of 10
    calls = []

    def counted(backend, x, y, lam, z, lay):
        calls.append((x, y, lay))
        return _star_parts(backend, x, y, lam, z, lay)

    monkeypatch.setattr(series_engine, "_star_parts", counted)
    w = Q + P.scale(2)
    res = inner_translation_check(w, P, QC(Fraction(1, 3)), DARBOUX, 10)
    assert len(calls) == 2 * 2
    wp = scalars.numerators(_kernels_py.pack(w.terms, calls[0][2]))
    assert all(x == wp for x, _, _ in calls[0::2])
    assert all(y == wp for _, y, _ in calls[1::2])
    assert all(res["per_degree_match"])
    assert len(res["orders"]) == 11 and res["orders"][1] and not any(res["orders"][2:])
    # a scalar v commutes with w: order 1 vanishes, and a zero v takes no product
    for v, products in ((Element.one(B2).scale(QC(5)), 2), (Element.zero(B2), 0)):
        calls.clear()
        res = inner_translation_check(w, v, QC(2, 1), DARBOUX, 10)
        assert len(calls) == products and not any(res["orders"][1:])
        assert all(res["per_degree_match"])


def test_conjugation_orders_are_nested_commutators():
    # sum_{l+m=r} (-1)^m/(l! m!) w^{*l} * x * w^{*m} = [w, [w, ..., x]] / r!,
    # on a cubic x whose commutators vanish only from r = 4
    rng = random.Random(47)
    basis = default_basis()
    q, p, e1, e2 = (Element.generator(basis, n) for n in basis.names)
    for trial in range(6):
        cplx = trial % 2 == 1
        form = random_even_form(rng, basis, complex_parts=cplx)
        w = random_degree_one_even(rng, basis)
        z = random_scalar(rng, complex_parts=cplx) or QC(1)
        x = Element.zero(basis)
        for mono in (q * q * p, q * p * e1, p * e1 * e2, q * q * e2, p**3):
            x = x + mono.scale(random_scalar(rng, complex_parts=cplx))
        orders = conjugation_orders_oracle(w, x, z, form, 4)
        nested = x
        for r in range(1, 5):
            nested = star(w, nested, z, form) - star(nested, w, z, form)
            assert orders[r] == nested.scale(QC(Fraction(1, math.factorial(r)))), (trial, r)
        assert all(orders[1:4]) and not orders[4], trial


def test_inner_translation_on_floats_is_close_to_the_exact_result():
    # the float orders come from the same products, rounded
    basis = default_basis()
    form = BilinearForm.from_entries(basis, {("q", "p"): 1, ("p", "q"): Fraction(-1, 2)})
    fform = BilinearForm.from_entries(basis, {("q", "p"): 1, ("p", "q"): -0.5}, backend="float")
    q, p = (Element.generator(basis, n) for n in ("q", "p"))
    fq, fp = (Element.generator(basis, n, "float") for n in ("q", "p"))
    exact = inner_translation_check(q.scale(2) + p, q - p.scale(3), QC(1, 2), form, 6)
    floats = inner_translation_check(fq.scale(2) + fp, fq - fp.scale(3), 1 + 2j, fform, 6)
    assert exact["lhs_element"] == exact["rhs_element"] != Element.zero(basis)
    assert set(floats["lhs_element"].terms) == set(exact["lhs_element"].terms)
    for e, c in exact["lhs_element"].terms.items():
        assert floats["lhs_element"].terms[e] == pytest.approx(complex(c), rel=1e-12)


def test_inner_translation_chain_equals_the_direct_products():
    # each order literally equals the sum of star(star(w^{*l}, v), w^{*m})
    rng = random.Random(41)
    basis = default_basis()
    for trial in range(8):
        cplx = trial % 2 == 1
        form = random_even_form(rng, basis, complex_parts=cplx)
        w = random_degree_one_even(rng, basis)
        z = random_scalar(rng, complex_parts=cplx) or QC(1)
        v = Element.scalar(basis, random_scalar(rng, complex_parts=cplx))
        for name in rng.sample(basis.names, 2 + trial % 3):
            v = v + Element.generator(basis, name).scale(random_scalar(rng, complex_parts=cplx))
        res = inner_translation_check(w, v, z, form, 6)
        assert res["orders"] == conjugation_orders_oracle(w, v, z, form, 6), trial


def test_truncated_star_equals_the_plain_sum_of_component_products():
    rng = random.Random(43)
    basis = default_basis()
    form = random_even_form(rng, basis, complex_parts=True)
    z = QC(Fraction(1, 2), Fraction(-1, 3))
    w, w2 = random_degree_one_even(rng, basis), random_degree_one_even(rng, basis)
    E, E2 = exp_element(w, 6), exp_element(w2, 6)
    e1 = Element.generator(basis, "e1")
    cubic = w2**3 + (w * e1).scale(QC(0, 2)) + Element.one(basis)
    poly = TruncatedSeries.from_element(cubic, 4)
    gap = TruncatedSeries(E.components[:2] + (Element.zero(basis),) + E.components[3:], 6)
    zero = TruncatedSeries.from_element(Element.zero(basis), 5)
    cases = [
        # (A, B, order, budget, exact_through)
        (E, E2, 6, None, -1),
        (E, E2, 4, 1, -1),
        (E, poly, 5, None, 3),  # exp's tail reaches down 3 degrees through the cubic
        (E, poly, 4, 0, 1),
        (poly, E2, 5, 1, 3),
        (gap, poly, 5, None, 3),
        (poly, poly, 6, None, 6),
        (zero, E2, 4, None, 4),
        (E, zero, 4, 2, 4),
    ]
    for i, (A, Bs, order, budget, exact_through) in enumerate(cases):
        C = truncated_star(A, Bs, z, form, order, budget)
        assert list(C.components) == truncated_star_oracle(A, Bs, z, form, order, budget), i
        assert C.meta["exact_through"] == exact_through, i
    assert not any(truncated_star(zero, E2, z, form, 4).components)


def test_truncated_star_sums_no_step_above_the_order(monkeypatch):
    # step j of q^k * p^l has degree k + l - 2j; only terms of degree <= 4 reach mu
    degrees, calls = [], {"mu_terms": 0, "contract_terms": 0}
    mu, contract = _kernels_py.mu_terms, _kernels_py.contract_terms

    def counted_mu(t, lay):
        calls["mu_terms"] += 1
        degrees.extend(sum(ea) + sum(eb) for ea, eb in _kernels_py.unpack_pairs(t, lay))
        return mu(t, lay)

    def counted_contract(t, entries, lay):
        calls["contract_terms"] += 1
        return contract(t, entries, lay)

    monkeypatch.setattr(_kernels_py, "mu_terms", counted_mu)
    monkeypatch.setattr(_kernels_py, "contract_terms", counted_contract)
    truncated_star(exp_element(Q, 6), exp_element(P, 6), QC(1), DARBOUX, 4)
    assert degrees and max(degrees) <= 4
    # one chain per total degree D = k + l over the pairs with |k - l| <= 4:
    # it contracts max min(k, l) + 1 times and sums the steps j >= (D - 4) / 2
    # (one call per pair and kept step, 72 and 132 calls, before the buckets)
    assert calls == {"mu_terms": 29, "contract_terms": 49}


def test_truncated_star_of_exp_series_equals_the_oracle():
    # every order of a product of exp series of order 8 and 14, over real and
    # complex forms and z; at order 0 or 2 most pairs (k, l) have |k - l| > order
    # and cannot reach the output
    rng = random.Random(53)
    basis = default_basis()
    for cplx in (False, True):
        form = random_even_form(rng, basis, complex_parts=cplx)
        z = random_scalar(rng, complex_parts=cplx) or QC(1)
        w, w2 = random_degree_one_even(rng, basis), random_degree_one_even(rng, basis)
        for N in (8, 14):
            A, B = exp_element(w, N), exp_element(w2, N)
            full = truncated_star_oracle(A, B, z, form, N)
            for order in (0, 2, 8, N):
                C = truncated_star(A, B, z, form, order)
                assert list(C.components) == full[: order + 1], (cplx, N, order)
            C = truncated_star(A, B, z, form, 2, budget=3)
            assert list(C.components) == truncated_star_oracle(A, B, z, form, 2, 3), (cplx, N)


def test_float_truncated_star_is_close_to_the_oracle():
    # the float pairs share the per-degree chains too; their sums run in
    # another order than the plain sum of products, so only the last bits
    # move, relative to the component's largest coefficient (a term whose
    # exact value is 0 is a rounding residue on both routes)
    rng = random.Random(59)
    basis = default_basis()
    form = random_even_form(rng, basis, complex_parts=True)
    fform = BilinearForm(basis, [[complex(c) for c in row] for row in form.matrix], "float")
    z = complex(random_scalar(rng, complex_parts=True) or QC(1))
    w, w2 = random_degree_one_even(rng, basis), random_degree_one_even(rng, basis)
    A, B = exp_element(_to_float_element(w), 8), exp_element(_to_float_element(w2), 8)
    for order in (0, 2, 8):
        C = truncated_star(A, B, z, fform, order)
        for got, want in zip(C.components, truncated_star_oracle(A, B, z, fform, order), strict=True):
            scale = max(map(abs, want.terms.values()))
            for e in set(got.terms) | set(want.terms):
                assert abs(got.terms.get(e, 0) - want.terms.get(e, 0)) <= 1e-12 * scale, (order, e)


def _bits(comps):
    """Each float coefficient as the hex strings of its real and imaginary parts."""
    return [{e: (c.real.hex(), c.imag.hex()) for e, c in comp.terms.items()} for comp in comps]


def test_series_components_equal_the_plain_loops():
    # exact components are literally those of power = power * v and one scale,
    # float components have their bits
    rng = random.Random(59)
    basis = default_basis()
    e1, e2 = (Element.generator(basis, n) for n in ("e1", "e2"))
    for trial in range(4):
        cplx = trial % 2 == 1
        form = random_even_form(rng, basis, complex_parts=cplx)
        z = random_scalar(rng, complex_parts=cplx) or QC(1)
        w = random_degree_one_even(rng, basis)
        if cplx:
            w = w + Element.generator(basis, "p").scale(QC(0, rng.randint(1, 3)))
        t = random_rational(rng, span=2) or Fraction(1)
        fw = _to_float_element(w)
        fform = BilinearForm(
            basis, [[complex(c) for c in row] for row in form.matrix], backend="float"
        )
        assert list(exp_element(w, 12).components) == exp_series_oracle(w, 12)
        assert list(f_epsilon_series(w, 2, 10).components) == f_epsilon_series_oracle(w, 2, 10)
        assert list(star_exp(w, t, z, form, 12).components) == star_exp_loop_oracle(w, t, z, form, 12)
        assert _bits(exp_element(fw, 30).components) == _bits(exp_series_oracle(fw, 30))
        assert _bits(f_epsilon_series(w, 0.75, 30).components) == _bits(
            f_epsilon_series_oracle(w, 0.75, 30)
        )
        assert _bits(star_exp(fw, float(t), complex(z), fform, 12).components) == _bits(
            star_exp_loop_oracle(fw, float(t), complex(z), fform, 12)
        )
    odd = e1 + e2.scale(QC(0, 2))  # its square vanishes: the series stops at 1 + odd
    assert list(exp_element(odd, 5).components) == exp_series_oracle(odd, 5)
    assert _bits(exp_element(_to_float_element(odd), 5).components) == _bits(
        exp_series_oracle(_to_float_element(odd), 5)
    )


@pytest.mark.parametrize(
    "series, oracle, prefix",
    [
        (lambda v: exp_element(v, 200), lambda v: exp_series_oracle(v, 200), "exp degree 171:"),
        (
            lambda v: f_epsilon_series(v, 0.5, 400),
            lambda v: f_epsilon_series_oracle(v, 0.5, 400),
            "f_eps degree 301:",
        ),
    ],
    ids=["exp", "f_eps"],
)
def test_float_series_refusals_keep_their_degree_and_message(series, oracle, prefix):
    # 1/171! and 301!^(-1/2) are the first terms below the normal binary64 range
    v = Element.generator(B2, "q", "float")
    with pytest.raises(RefusedPreconditionError) as expected:
        oracle(v)
    with pytest.raises(RefusedPreconditionError) as got:
        series(v)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(prefix)


OTHER_BASIS_FORM = BilinearForm.from_entries(
    GeneratorBasis(("x", "y"), ("even", "even")), {("x", "y"): 1}
)
FLOAT_FORM = BilinearForm.from_entries(B2, {("q", "p"): 1}, backend="float")


@pytest.mark.parametrize(
    "form, error",
    [(OTHER_BASIS_FORM, BasisMismatchError), (FLOAT_FORM, BackendMismatchError)],
    ids=["other-basis", "other-backend"],
)
@pytest.mark.parametrize("check", ["truncated_star", "inner_translation_check"])
def test_series_products_refuse_a_foreign_form_before_contracting(form, error, check, monkeypatch):
    def contract(*args):
        raise AssertionError("contracted before the form was checked")

    monkeypatch.setattr(_kernels_py, "contract_terms", contract)
    with pytest.raises(error):
        if check == "truncated_star":
            truncated_star(exp_element(Q, 4), exp_element(P, 4), QC(1), form, 4)
        else:
            inner_translation_check(Q, P, QC(1), form, 4)


@pytest.mark.parametrize(
    "other, error",
    [
        (exp_element(Element.generator(OTHER_BASIS_FORM.basis, "x"), 4), BasisMismatchError),
        (exp_element(Element.generator(B2, "p", "float"), 4), BackendMismatchError),
    ],
    ids=["other-basis", "other-backend"],
)
def test_truncated_star_refuses_series_over_another_basis_or_backend(other, error):
    with pytest.raises(error):
        truncated_star(exp_element(Q, 4), other, QC(1), DARBOUX, 4)


def test_truncated_series_validates_components():
    with pytest.raises(DomainError):
        TruncatedSeries([Q], 0)  # degree-1 content in the degree-0 slot
    with pytest.raises(DomainError):
        TruncatedSeries([Element.one(B2)], 3)  # wrong component count


def test_translation_continuity_estimate():
    # p_R(translate(a)) <= (2p)_R(a) when |phi| <= p on generators
    rng = random.Random(17)
    for _ in range(20):
        a = random_element(rng, B2, max_degree=4, n_terms=3)
        phi = {"q": Fraction(rng.randint(-1, 1)), "p": Fraction(rng.randint(-1, 1))}
        out = translate(a, phi)
        lhs = p_R(out, UNIT2, 1, exact=True)
        rhs = p_R(a, UNIT2.scaled(2), 1, exact=True)
        assert lhs <= rhs
