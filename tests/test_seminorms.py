"""Seminorm calculus: values, estimates, Koethe matrices, summability."""

import math
import random
from fractions import Fraction

import pytest

from weylalg import (
    BilinearForm,
    DomainError,
    Element,
    GeneratorBasis,
    QC,
    RefusedPreconditionError,
    WeightedSeminorm,
    kothe_matrix,
    nuclearity_diagnostic,
    ommy_norm_upper,
    p_R,
    p_R_inf,
    pn_seminorm,
    verify_bracket_estimate,
    verify_product_estimate,
    wick_epsilon_norm,
)
from weylalg import seminorm_calculus
from weylalg.bilinear_forms import TensorPair, p_lambda
from weylalg.randoms import default_basis, random_element, random_even_form, random_rational
from weylalg.seminorm_calculus import (
    EstimateReport,
    _damped_value_in_log_space,
    _dominating_seminorm,
    _to_float_element,
)
from weylalg.star_algebra import poisson_bracket, star

from oracles import c_prime_oracle, degree_terms_oracle, estimate_sides_oracle

B = default_basis()
Q = Element.generator(B, "q")
P = Element.generator(B, "p")
E1 = Element.generator(B, "e1")
ONE = Element.one(B)
UNIT = WeightedSeminorm.unit(B)
STD = BilinearForm.from_entries(B, {("p", "q"): 1})
DARBOUX = BilinearForm.from_entries(B, {("q", "p"): 1, ("p", "q"): -1})


def test_pn_examples():
    assert pn_seminorm(Q * Q * P, 3, UNIT) == 1.0
    w2 = WeightedSeminorm(B, {"q": 2})
    assert pn_seminorm(Q * Q, 2, w2, exact=True) == Fraction(4)
    assert pn_seminorm(Q, 5, UNIT) == 0.0


def test_p_R_examples():
    a = ONE + Q + (Q * Q).scale(QC(Fraction(1, 2)))
    assert p_R(a, UNIT, 1, exact=True) == Fraction(3)
    # a single monomial restricts to n!^R times its weight product
    w = WeightedSeminorm(B, {"q": 3, "p": 2})
    mono = Q * Q * P
    assert p_R(mono, w, 2, exact=True) == Fraction(math.factorial(3) ** 2 * 9 * 2)
    assert p_R(Element.zero(B), UNIT, 1, exact=True) == 0


def test_exact_seminorms_equal_the_per_term_definition():
    rng = random.Random(23)
    big = BilinearForm.from_entries(B, {("p", "q"): Fraction(49, 3), ("q", "q"): 5})
    elements = [Element.zero(B), (Q * P * E1).scale(QC(3, 4)) + (P**3).scale(QC(Fraction(5, 2)))]
    for k in range(24):
        a = random_element(rng, B, max_degree=6, n_terms=5)
        elements.append(a.scale(QC(Fraction(-8, 5), Fraction(6, 5))) if k % 3 == 0 else a)
    seminorms = [UNIT]
    for _ in range(4):
        seminorms.append(
            WeightedSeminorm(
                B, {n: Fraction(rng.randint(1, 9), rng.randint(1, 7)) for n in B.names}
            )
        )
    rescaled, sigma = _dominating_seminorm(big, seminorms[-1])
    assert sigma > 1 and sigma.denominator > 1
    seminorms.append(rescaled)
    for a in elements:
        for p in seminorms:
            for R in (-2, 0, 1, 3):
                terms = degree_terms_oracle(a, p, R)
                assert p_R(a, p, R, exact=True) == sum(terms.values(), Fraction(0))
                assert p_R_inf(a, p, R, exact=True) == max(terms.values(), default=Fraction(0))
            pn = degree_terms_oracle(a, p, 0)
            for n in range(8):
                assert pn_seminorm(a, n, p, exact=True) == pn.get(n, 0)


def test_exact_seminorms_refuse_an_irrational_modulus_and_float_elements():
    cases = (
        (Q.scale(QC(1, 1)) + P, "irrational"),
        (Element.generator(B, "q", "float"), "exact seminorms need exact coefficients"),
    )
    for a, message in cases:
        for seminorm in (
            lambda: pn_seminorm(a, 1, UNIT, exact=True),
            lambda: p_R(a, UNIT, 1, exact=True),
            lambda: p_R_inf(a, UNIT, 1, exact=True),
        ):
            with pytest.raises(DomainError, match=message):
                seminorm()


def test_p_R_inf_sandwich_and_monotonicity():
    rng = random.Random(5)
    weight_rng = random.Random(6)
    for _ in range(20):
        a = random_element(rng, B, max_degree=5, n_terms=4)
        weighted = WeightedSeminorm(
            B,
            {n: Fraction(weight_rng.randint(1, 9), weight_rng.randint(1, 4)) for n in B.names},
        )
        for p in (UNIT, weighted):
            for R in (0.0, 0.5, 1.0, 1.5):
                lo = p_R_inf(a, p, R)
                mid = p_R(a, p, R)
                hi = 2 * p_R_inf(a, p.scaled(2), R)
                assert lo <= mid * (1 + 1e-12)
                assert mid <= hi * (1 + 1e-12)
        assert p_R(a, UNIT, 0.5) <= p_R(a, UNIT, 1.0) * (1 + 1e-12)
        assert p_R(a, UNIT, 1.0) <= p_R(a, UNIT, 1.5) * (1 + 1e-12)


def test_p_R_triangle_and_homogeneity():
    rng = random.Random(7)
    for _ in range(20):
        a = random_element(rng, B, max_degree=4, n_terms=3)
        b = random_element(rng, B, max_degree=4, n_terms=3)
        assert p_R(a + b, UNIT, 1, exact=True) <= p_R(a, UNIT, 1, exact=True) + p_R(
            b, UNIT, 1, exact=True
        )
        lam = Fraction(-7, 3)
        assert p_R(a.scale(QC(lam)), UNIT, 1, exact=True) == abs(lam) * p_R(
            a, UNIT, 1, exact=True
        )


def test_submultiplicativity_with_dilation():
    rng = random.Random(9)
    for _ in range(20):
        a = random_element(rng, B, max_degree=4, n_terms=3)
        b = random_element(rng, B, max_degree=4, n_terms=3)
        for R in (0, 1, 2):
            lhs = p_R(a * b, UNIT, R, exact=True)
            dil = UNIT.scaled(2**R)
            rhs = p_R(a, dil, R, exact=True) * p_R(b, dil, R, exact=True)
            assert lhs <= rhs


def test_contraction_degree_estimate():
    # (p^{n-1} (x) p^{m-1})(P(u)) <= n m p^{n+m}(u) on monomial pairs
    rng = random.Random(11)
    for _ in range(30):
        form = random_even_form(rng, B)
        a = random_element(rng, B, max_degree=4, n_terms=1)
        b = random_element(rng, B, max_degree=4, n_terms=1)
        if not a or not b:
            continue
        n, m = a.max_degree(), b.max_degree()
        if n < 1 or m < 1:
            continue
        # dominate the form by the unit seminorm scaled suitably
        gamma = max(
            (abs(form.matrix[i][j]) for i, j in form.pairs()), default=0.0
        )
        w = UNIT.scaled(Fraction(int(math.ceil(math.sqrt(gamma) * 100)) + 1, 100))
        out = p_lambda(TensorPair.of(a, b), form)
        lhs = 0.0
        for (eA, eB), c in out.terms.items():
            lhs += abs(c) * float(w.monomial_weight(eA) * w.monomial_weight(eB))
        rhs = (
            n
            * m
            * pn_seminorm(a, n, w)
            * pn_seminorm(b, m, w)
        )
        assert lhs <= rhs * (1 + 1e-9)


def test_wick_examples():
    bz = GeneratorBasis(("z", "zb"), ("even", "even"))
    zz = Element.generator(bz, "z")
    zb = Element.generator(bz, "zb")
    eps = 0.3
    assert wick_epsilon_norm(zz * zz, eps) == pytest.approx(2 / 2**eps)
    assert wick_epsilon_norm(Element.one(bz), eps) == 1.0
    assert wick_epsilon_norm(zz * zb, eps) == pytest.approx(1 / 2**eps)
    with pytest.raises(DomainError):
        wick_epsilon_norm(E1, eps)


def test_wick_dominated_by_p_R():
    # ||a||_eps <= p_{1-eps}(a) with unit weights
    rng = random.Random(13)
    bz = GeneratorBasis(("z", "zb"), ("even", "even"))
    un = WeightedSeminorm.unit(bz)
    for _ in range(40):
        a = random_element(rng, bz, max_degree=5, n_terms=4)
        for eps in (0.25, 0.5, 0.75):
            assert wick_epsilon_norm(a, eps) <= p_R(a, un, 1 - eps) * (1 + 1e-9)


def test_ommy_examples_and_bounds():
    b1 = GeneratorBasis(("q", "p"), ("even", "even"))
    q1 = Element.generator(b1, "q")
    rep = ommy_norm_upper(Element.one(b1), 2, 1)
    assert rep["upper"] == pytest.approx(1.0)
    rep = ommy_norm_upper(q1, 2, 1)
    assert rep["upper"] == pytest.approx((1 / 2) ** 0.5 * math.exp(-0.5))
    rng = random.Random(17)
    un1 = WeightedSeminorm.unit(b1)
    for _ in range(20):
        a = random_element(rng, b1, max_degree=4, n_terms=3)
        for p_param, s in ((1.0, 1.0), (2.0, 0.5), (1.5, 2.0)):
            rep = ommy_norm_upper(a, p_param, s, seed=1)
            assert rep["lower"] <= rep["upper"] * (1 + 1e-9)
            # the upper bound is dominated by (c p)_{1/p} for p >= 1
            c = (p_param / s) ** (1 / p_param)
            dom = p_R(a, un1.scaled(Fraction(c)), 1 / p_param)
            assert rep["upper"] <= dom * (1 + 1e-9)
    with pytest.raises(DomainError):
        ommy_norm_upper(q1, 3, 1)


def test_seminorm_helpers_take_log_space_where_only_an_intermediate_overflows():
    b1 = GeneratorBasis(("q",), ("even",))
    q1 = Element.generator(b1, "q")
    # 200! and 171!^(1/2) overflow binary64; the damped weights do not
    assert wick_epsilon_norm(q1**200, 1) == 1.0
    assert wick_epsilon_norm(q1**171, 0.5) == pytest.approx(
        math.exp(math.lgamma(172) / 2), rel=1e-12
    )
    # 10^400 overflows; the bound 10^400 e^-400 does not, nor any sample
    rep = ommy_norm_upper(q1**400, 1, 40)
    assert rep["upper"] == pytest.approx(math.exp(400 * (math.log(10) - 1)), rel=1e-12)
    assert 0 < rep["lower"] <= rep["upper"]
    # the log-space sample value agrees with the direct one where both fit
    a = random_element(random.Random(3), b1, max_degree=6, n_terms=4)
    af = _to_float_element(a)
    u, r = complex(0.6, -0.8), 2.5
    direct = abs(af.evaluate({"q": u * r})) * math.exp(-0.5 * r**1.5)
    assert _damped_value_in_log_space(af, {"q": u * r}, r, 1.5, 0.5) == pytest.approx(
        direct, rel=1e-12
    )
    with pytest.raises(RefusedPreconditionError):
        wick_epsilon_norm(q1**400, 0.1)
    with pytest.raises(RefusedPreconditionError):
        ommy_norm_upper(q1**400, 1, 0.01)


def test_wick_norm_takes_log_magnitude_of_exact_coefficient_below_binary64():
    # |10^-400| is 0.0 in binary64, but the damped weight 10^-400 200!^(1/2)
    # is about 3e-213 and fits: log|c| comes from the exact rational
    q1 = Element.generator(GeneratorBasis(("q",), ("even",)), "q")
    a = (q1**200).scale(QC(Fraction(1, 10**400)))
    log_c = math.log(1) - math.log(10**400)
    expected = math.exp(log_c + math.lgamma(201) - 0.5 * math.lgamma(201))
    assert wick_epsilon_norm(a, 0.5) == pytest.approx(expected, rel=1e-12)


def test_product_estimate_examples():
    rep = verify_product_estimate(Q, Q, 1, DARBOUX, 1, UNIT)
    assert rep.holds
    rep = verify_product_estimate(P**3, Q**3, 2, STD, Fraction(1, 2), UNIT)
    assert rep.holds
    rep = verify_product_estimate(Element.zero(B), Q, 1, STD, 1, UNIT)
    assert rep.holds and float(rep.lhs) == 0.0
    with pytest.raises(RefusedPreconditionError):
        verify_product_estimate(Q, Q, 1, STD, 0.4, UNIT)


def test_product_estimate_rescales_undominated_seminorm():
    big = BilinearForm.from_entries(B, {("p", "q"): 25})
    rep = verify_product_estimate(Q, P, 1, big, 1, UNIT)
    assert rep.holds
    assert rep.constants["sigma"] >= 5


def test_product_estimate_grid_exact_integer_R():
    rng = random.Random(19)
    for _ in range(10):
        form = random_even_form(rng, B)
        a = random_element(rng, B, max_degree=3, n_terms=3)
        b = random_element(rng, B, max_degree=3, n_terms=3)
        rep = verify_product_estimate(a, b, Fraction(1, 2), form, 1, UNIT, exact=True)
        assert rep.holds
        assert isinstance(rep.lhs, Fraction)


def test_product_estimate_takes_the_exact_path_only_where_it_can_answer():
    # with z = 3 + 4i the star product's coefficients are complex and most
    # of their moduli irrational: the default answers there with an
    # enclosure of nonzero width, rounded once, and exactly where every
    # modulus is rational (|z| = 5)
    rng = random.Random(5)
    paths = []
    for _ in range(20):
        a = random_element(rng, B, max_degree=3, n_terms=3)
        b = random_element(rng, B, max_degree=3, n_terms=3)
        form = random_even_form(rng, B)
        rep = verify_product_estimate(a, b, QC(3, 4), form, 1, UNIT)
        assert rep.holds
        paths.append(isinstance(rep.lhs, Fraction))
        if not paths[-1]:
            with pytest.raises(DomainError, match="irrational"):
                verify_product_estimate(a, b, QC(3, 4), form, 1, UNIT, exact=True)
    assert True in paths and False in paths
    # plain int and Fraction coefficients have rational moduli
    a = Element(B, "exact", {(1, 0, 0, 0): 2, (0, 1, 0, 0): Fraction(-1, 3)})
    assert isinstance(verify_product_estimate(a, a, QC(3, 4), DARBOUX, 1, UNIT).lhs, Fraction)


ESTIMATES = {
    "product": lambda a, b, form, exact=None: verify_product_estimate(a, b, 1, form, 1, UNIT, exact),
    "bracket": lambda a, b, form, exact=None: verify_bracket_estimate(a, b, form, 1, UNIT, exact),
}


@pytest.mark.parametrize("name", sorted(ESTIMATES))
def test_estimates_on_complex_operands_take_the_exact_path_only_where_it_can_answer(name):
    # both estimates follow one rule: most complex coefficients have an
    # irrational modulus, so the default answers with an enclosure of
    # nonzero width, rounded once, and (3 + 4i) q has modulus 5, so its
    # estimate stays exact
    estimate = ESTIMATES[name]
    rep = estimate(Q.scale(QC(1, 1)), P * P, DARBOUX)
    assert rep.holds and isinstance(rep.lhs, float)
    rep = estimate(Q.scale(QC(3, 4)), P * P, DARBOUX)
    assert rep.holds and isinstance(rep.lhs, Fraction)
    rng = random.Random(5)
    for _ in range(20):
        a = random_element(rng, B, max_degree=3, n_terms=3, complex_parts=True)
        b = random_element(rng, B, max_degree=3, n_terms=3, complex_parts=True)
        form = random_even_form(rng, B)
        rep = estimate(a, b, form)
        assert rep.holds
        if isinstance(rep.lhs, float):
            with pytest.raises(DomainError, match="irrational"):
                estimate(a, b, form, exact=True)


def test_product_estimate_c_prime_is_the_41_term_sum():
    branches = set()
    for zmag in (Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(7)):
        for R in (1, 2, 5):
            rep = verify_product_estimate(Q, P, zmag, STD, R, UNIT)
            assert rep.constants["c_prime"] == c_prime_oracle(zmag, R)
            branches.add(rep.constants["branch"])
    assert branches == {"R<=1,|z|>=1", "R<=1,|z|<1", "R>1"}


def test_exact_estimates_weigh_no_monomial_one_by_one(monkeypatch):
    calls = []
    weight = WeightedSeminorm.monomial_weight

    def counted(self, exps):
        calls.append(exps)
        return weight(self, exps)

    monkeypatch.setattr(WeightedSeminorm, "monomial_weight", counted)
    rng = random.Random(29)
    for R in (1, 2):
        form = random_even_form(rng, B)
        a = random_element(rng, B, max_degree=4, n_terms=4)
        b = random_element(rng, B, max_degree=4, n_terms=4)
        p = WeightedSeminorm(B, {n: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for n in B.names})
        assert isinstance(verify_product_estimate(a, b, 1, form, R, p).lhs, Fraction)
        assert isinstance(verify_bracket_estimate(a, b, form, R, p).lhs, Fraction)
    assert calls == []


def test_fractional_R_sides_equal_a_200_bit_reference_rounded_once():
    # a complex z gives the product irrational moduli, and R = 1/2, 3/4 and
    # 3/2 irrational n!^R: each printed side, c and c' is the float nearest
    # the 61-digit decimal reference, and each verdict is the reference's
    rng = random.Random(41)
    checked = 0
    for k in range(60):
        R = (Fraction(1, 2), Fraction(3, 4), Fraction(3, 2))[k % 3]
        z = QC(random_rational(rng, 6), random_rational(rng, 6) or 1)
        form = random_even_form(rng, B)
        a = random_element(rng, B, max_degree=3, n_terms=3, complex_parts=bool(k % 2))
        b = random_element(rng, B, max_degree=3, n_terms=3, complex_parts=bool(k % 2))
        p = WeightedSeminorm(B, {n: Fraction(rng.randint(1, 4), rng.randint(1, 2)) for n in B.names})
        for rep, result, zz in (
            (verify_product_estimate(a, b, z, form, R, p), star(a, b, z, form), z),
            (verify_bracket_estimate(a, b, form, R, p), poisson_bracket(a, b, form), None),
        ):
            lhs, rhs = estimate_sides_oracle(a, b, result, p, rep.constants["sigma"], R, zz)
            assert (float(rep.lhs), float(rep.rhs)) == (float(lhs), float(rhs))
            assert rep.holds == (lhs <= rhs)
            checked += zz is not None and isinstance(rep.lhs, float)
    assert checked >= 50


def test_estimate_enclosures_refine_to_their_cap(monkeypatch):
    # |c| lies about 2^-160 above 1 + 2^-53, the midpoint between two
    # doubles, so 2|c| = p_R({c q, p}) prints only once the enclosures
    # pass 64 bits; rounded once it is the double above 2
    D = 2**80
    a = Q.scale(QC(Fraction(D + 2**27, D), Fraction(1, D)))
    rep = verify_bracket_estimate(a, P, DARBOUX, 1, UNIT)
    assert rep.holds and rep.lhs == 2 * (1 + 2**-52)
    monkeypatch.setattr(seminorm_calculus, "ESTIMATE_MAX_BITS", 64)
    with pytest.raises(RefusedPreconditionError, match="more than 64 bits"):
        verify_bracket_estimate(a, P, DARBOUX, 1, UNIT)
    # a fractional R starts at 64 bits, an integer R at 0
    monkeypatch.setattr(seminorm_calculus, "ESTIMATE_MAX_BITS", 0)
    with pytest.raises(RefusedPreconditionError, match="more than 0 bits"):
        verify_bracket_estimate(Q * Q, P * P, DARBOUX, Fraction(3, 2), UNIT)
    assert verify_bracket_estimate(Q * Q, P * P, DARBOUX, 2, UNIT).holds


def test_estimates_take_one_path_whatever_exact_says():
    a, b = Q.scale(QC(1, 1)), P * P
    for estimate in ESTIMATES.values():
        for exact in (None, False):
            rep = estimate(a, b, DARBOUX, exact)
            assert rep.holds and isinstance(rep.lhs, float)
        with pytest.raises(DomainError, match="irrational"):
            estimate(a, b, DARBOUX, True)
    with pytest.raises(DomainError, match="needs an integer R"):
        verify_bracket_estimate(a, b, DARBOUX, Fraction(3, 2), UNIT, exact=True)
    # the estimates are exact: binary64 operands are refused, not approximated
    qf, form = Element.generator(B, "q", "float"), BilinearForm.from_entries(B, {}, "float")
    with pytest.raises(DomainError, match="the estimates are exact"):
        verify_bracket_estimate(qf, qf, form, 1, UNIT)
    with pytest.raises(DomainError, match="the estimates are exact"):
        verify_product_estimate(qf, qf, 1, form, Fraction(3, 2), UNIT)


def test_report_dict_writes_values_beyond_binary64_as_17_digits():
    big = Fraction(10**400)
    rep = EstimateReport(big, Fraction(1, 3), {"c": big, "branch": "R>1", "R": Fraction(3, 2)}, False)
    assert rep.to_dict() == {
        "lhs": "1.0000000000000000e+400",
        "rhs": 1 / 3,
        "constants": {"c": "1.0000000000000000e+400", "branch": "R>1", "R": 1.5},
        "holds": False,
        "witness": {},
    }


def test_bracket_estimate_examples():
    rep = verify_bracket_estimate(Q * Q, P * P, DARBOUX, 1, UNIT)
    assert rep.holds
    rep = verify_bracket_estimate(ONE, P, DARBOUX, 1, UNIT)
    assert rep.holds and float(rep.lhs) == 0.0
    rep = verify_bracket_estimate(Q + P, Q + P, DARBOUX, 0, UNIT)
    assert rep.holds
    with pytest.raises(DomainError):
        verify_bracket_estimate(Q, P, DARBOUX, -1, UNIT)


def test_kothe_matrix_examples():
    b1 = GeneratorBasis(("x",), ("even",))
    un = WeightedSeminorm.unit(b1)
    K = kothe_matrix([un], 1, 3)
    assert [K.entry(i, 0) for i in range(4)] == [1, 1, 2, 6]
    K0 = kothe_matrix([un.scaled(3)], 0, 3)
    assert [K0.entry(i, 0) for i in range(4)] == [1, 3, 9, 27]
    # scale columns differ by c^n
    K2 = kothe_matrix([un, un.scaled(2)], 1, 5)
    for i in range(6):
        n = K2.degrees[i]
        assert K2.entry(i, 1) == K2.entry(i, 0) * 2**n


def test_kothe_rows_enumerate_monomials():
    K = kothe_matrix([UNIT], 1, 2, basis=B)
    degs = {}
    for e in K.rows:
        degs[sum(e)] = degs.get(sum(e), 0) + 1
    # degree 2 over (q, p even; e1, e2 odd): qq, qp, pp, qe1, qe2, pe1,
    # pe2, e1e2 -> 8
    assert degs == {0: 1, 1: 4, 2: 8}


def test_nuclearity_diagnostic_cases():
    b1 = GeneratorBasis(("x",), ("even",))
    un = WeightedSeminorm.unit(b1)
    eps = Fraction(1, 10)
    K = kothe_matrix([(un, 1 - eps), (un, 1)], None, 200)
    rep = nuclearity_diagnostic(K, mode="strong")
    pairs = {(r["pair"], r["alpha"]): r for r in rep["results"]}
    for alpha in (1.0, 0.5, 0.25):
        r = pairs[((0, 1), alpha)]
        assert r["summable"]
        assert r["partials"][-1] < 40
    # identical columns: ratio one, not summable
    K_same = kothe_matrix([un, un], 1, 50)
    rep = nuclearity_diagnostic(K_same, mode="nuclear")
    assert all(not r["summable"] for r in rep["results"])
    # geometric ratio between scale columns
    K_geo = kothe_matrix([un, un.scaled(2)], 1, 60)
    rep = nuclearity_diagnostic(K_geo, mode="nuclear")
    r = {tuple(r["pair"]): r for r in rep["results"]}[(0, 1)]
    assert r["summable"]
    assert r["partials"][-1] == pytest.approx(2.0, rel=1e-6)


def test_parameter_validation():
    with pytest.raises(DomainError):
        wick_epsilon_norm(Q, 0)
    with pytest.raises(DomainError):
        ommy_norm_upper(Q, 2, 0)
    with pytest.raises(DomainError):
        WeightedSeminorm(B, {"q": 0})


def test_nuclearity_requires_comparable_columns():
    b1 = GeneratorBasis(("x", "y"), ("even", "even"))
    p1 = WeightedSeminorm(b1, {"x": 2, "y": 1})
    p2 = WeightedSeminorm(b1, {"x": 1, "y": 2})
    K = kothe_matrix([p1, p2], 1, 3)
    with pytest.raises(DomainError):
        nuclearity_diagnostic(K)
