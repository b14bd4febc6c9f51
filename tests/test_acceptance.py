"""Acceptance criteria: one test per criterion, a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here: exact equality on the rational
backend, 1e-9 relative for float-valued checks; the continuity estimates
decide their verdicts in rationals and need none.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from weylalg import (
    BilinearForm,
    Element,
    GeneratorBasis,
    LatticeSection,
    LatticeSpacetime,
    QC,
    WeightedSeminorm,
    apply_linear,
    check_star_involution,
    convergence_diagnosis,
    divergence_witness_standard_ordered,
    equivalence_transform,
    exp_element,
    inner_translation_check,
    is_poisson_map,
    kothe_matrix,
    lambda_parts,
    nuclearity_diagnostic,
    ommy_norm_upper,
    p_R,
    poisson_bracket,
    star,
    star_exp,
    translate,
    verify_bracket_estimate,
    verify_product_estimate,
    wick_epsilon_norm,
)
from weylalg.peierls import kernel_identification_report
from weylalg.randoms import (
    default_basis,
    random_degree_one_even,
    random_element,
    random_even_form,
    random_even_functional,
    random_graded_symmetric_form,
    random_involutive_form,
    random_parity_matrix,
    random_rational,
    random_scalar,
)
from weylalg.star_algebra import conjugation_is_involution

B = default_basis()
REL_TOL = 1e-9


def _report(n, text):
    print(f"ACCEPTANCE {n}: {text} PASS")


def test_criterion_1_exact_algebra_suite():
    start = time.monotonic()
    rng = random.Random(101)
    trials = 500

    def elem(max_degree=5, n_terms=3):
        return random_element(rng, B, max_degree=max_degree, n_terms=n_terms)

    failures = 0
    for _ in range(trials):  # star associativity
        form = random_even_form(rng, B)
        z = random_scalar(rng)
        a, b, c = elem(), elem(), elem()
        if star(star(a, b, z, form), c, z, form) != star(a, star(b, c, z, form), z, form):
            failures += 1
    assert failures == 0

    for _ in range(trials):  # graded commutativity of the plain product
        a, b = elem(), elem()
        for pa, ah in enumerate(a.parity_split()):
            for pb, bh in enumerate(b.parity_split()):
                rhs = bh * ah
                if pa and pb:
                    rhs = -rhs
                if ah * bh != rhs:
                    failures += 1
    assert failures == 0

    for _ in range(trials):  # Jacobi and Leibniz for the bracket
        form = random_even_form(rng, B)
        a, b, c = elem(4, 2), elem(4, 2), elem(4, 2)
        for pa, ah in enumerate(a.parity_split()):
            for pb, bh in enumerate(b.parity_split()):
                lhs = poisson_bracket(ah, poisson_bracket(bh, c, form), form)
                t1 = poisson_bracket(poisson_bracket(ah, bh, form), c, form)
                t2 = poisson_bracket(bh, poisson_bracket(ah, c, form), form)
                if lhs != (t1 - t2 if pa and pb else t1 + t2):
                    failures += 1
                second = bh * poisson_bracket(ah, c, form)
                rhs = poisson_bracket(ah, bh, form) * c
                rhs = rhs - second if pa and pb else rhs + second
                if poisson_bracket(ah, bh * c, form) != rhs:
                    failures += 1
    assert failures == 0

    for _ in range(trials):  # translations act by star automorphisms
        form = random_even_form(rng, B)
        z = random_scalar(rng)
        phi = random_even_functional(rng, B)
        a, b = elem(), elem()
        if translate(star(a, b, z, form), phi) != star(
            translate(a, phi), translate(b, phi), z, form
        ):
            failures += 1
    assert failures == 0

    done = 0
    while done < trials:  # Poisson maps intertwine the star products
        A = random_parity_matrix(rng, B)
        lam_w = random_even_form(rng, B)
        d = B.dimension
        rows = [[QC(0)] * d for _ in range(d)]
        for c1 in range(d):
            for c2 in range(d):
                tot = QC(0)
                for r1 in range(d):
                    for r2 in range(d):
                        tot = tot + A[r1][c1] * A[r2][c2] * lam_w.matrix[r1][r2]
                rows[c1][c2] = tot
        lam_v = BilinearForm(B, rows)
        if not is_poisson_map(A, lam_v, lam_w):
            continue
        done += 1
        z = random_scalar(rng)
        a, b = elem(4, 2), elem(4, 2)
        if apply_linear(star(a, b, z, lam_v), A) != star(
            apply_linear(a, A), apply_linear(b, A), z, lam_w
        ):
            failures += 1
    assert failures == 0

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _report(1, f"exact algebra suite, 5x{trials} trials in {elapsed:.1f}s,")


def test_criterion_2_equivalence_theorem():
    rng = random.Random(202)
    for _ in range(100):
        lam = random_even_form(rng, B)
        g = random_graded_symmetric_form(rng, B)
        lam2 = lam + g
        assert lambda_parts(lam)[1] == lambda_parts(lam2)[1]
        z = random_scalar(rng)
        a = random_element(rng, B, max_degree=4, n_terms=3)
        b = random_element(rng, B, max_degree=4, n_terms=3)
        lhs = equivalence_transform(star(a, b, z, lam), z, g)
        rhs = star(
            equivalence_transform(a, z, g), equivalence_transform(b, z, g), z, lam2
        )
        assert lhs == rhs
    # worked standard <-> antisymmetric case: q * p |-> qp
    b2 = GeneratorBasis(("q", "p"), ("even", "even"))
    q, p = Element.generator(b2, "q"), Element.generator(b2, "p")
    std = BilinearForm.from_entries(b2, {("p", "q"): 1})
    weyl = BilinearForm.from_entries(
        b2, {("p", "q"): Fraction(1, 2), ("q", "p"): Fraction(-1, 2)}
    )
    g = std - weyl
    z = QC(Fraction(1, 1))
    lhs = equivalence_transform(star(q, p, z, weyl), z, g)
    rhs = star(equivalence_transform(q, z, g), equivalence_transform(p, z, g), z, std)
    assert lhs == rhs == q * p
    _report(2, "equivalence transform intertwines, 100 random pairs + worked case,")


def test_criterion_3_estimate_suite():
    rng = random.Random(303)
    R_grid = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2))
    z_grid = (Fraction(1, 2), Fraction(1), Fraction(2))
    checked = 0
    for R in R_grid:
        for zmag in z_grid:
            for _ in range(50):
                form = random_even_form(rng, B)
                a = random_element(rng, B, max_degree=4, n_terms=3)
                b = random_element(rng, B, max_degree=4, n_terms=3)
                p = WeightedSeminorm(
                    B,
                    {n: Fraction(rng.randint(1, 3), rng.randint(1, 2)) for n in B.names},
                )
                rep = verify_product_estimate(a, b, zmag, form, R, p)
                assert rep.holds, rep.to_dict()
                checked += 1
    for R in R_grid:
        for _ in range(50):
            form = random_even_form(rng, B)
            a = random_element(rng, B, max_degree=4, n_terms=3)
            b = random_element(rng, B, max_degree=4, n_terms=3)
            p = WeightedSeminorm(
                B, {n: Fraction(rng.randint(1, 3), rng.randint(1, 2)) for n in B.names}
            )
            rep = verify_bracket_estimate(a, b, form, R, p)
            assert rep.holds, rep.to_dict()
            checked += 1
    _report(3, f"product and bracket estimates hold, {checked} grid checks,")


def test_criterion_4_convergence_boundary():
    b2 = GeneratorBasis(("q",), ("even",))
    q = Element.generator(b2, "q")
    p2 = WeightedSeminorm(b2, {"q": 2})
    S = exp_element(q, 40)
    lo = convergence_diagnosis(S, p2, 0.9)
    hi = convergence_diagnosis(S, p2, 1.1)
    assert lo["verdict"] == "converging"
    assert hi["verdict"] == "diverging"
    # ratio sequences: 2 (n+1)^{R-1} -> 0 resp. infinity; monotone within
    # the 40-term window and matching the closed form exactly
    for n, r in enumerate(lo["ratios"]):
        assert r == pytest.approx(2.0 * (n + 1) ** (0.9 - 1.0), rel=REL_TOL)
    assert all(b < a for a, b in zip(lo["ratios"], lo["ratios"][1:]))
    assert all(b > a for a, b in zip(hi["ratios"], hi["ratios"][1:]))
    assert lo["slope"] == pytest.approx(-0.1, abs=0.02)
    assert hi["slope"] == pytest.approx(0.1, abs=0.02)
    _report(4, "exp series boundary: R=0.9 converges, R=1.1 diverges (N=40),")


def test_criterion_5_sharpness_witness():
    rep = divergence_witness_standard_ordered(0.25, 1.0, 12)
    mags = rep["term_magnitudes"]
    for ell in range(13):
        assert mags[ell] == pytest.approx(math.factorial(ell) ** 0.5, rel=1e-12)
    for ell in range(2, 12):
        assert mags[ell + 1] > mags[ell]
    # the contraction factor behind each term is exact: z^l/l! P^l on
    # the degree-l monomial pair contributes l! in magnitude
    b2 = GeneratorBasis(("q", "p"), ("even", "even"))
    q, p = Element.generator(b2, "q"), Element.generator(b2, "p")
    std = BilinearForm.from_entries(b2, {("p", "q"): 1})
    z = QC(0, -1)
    for ell in range(7):
        prod = star(p**ell, q**ell, z, std).grade_component(0)
        coeff = next(iter(prod.terms.values()))
        assert coeff.abs2() == Fraction(math.factorial(ell)) ** 2
    _report(5, "divergence witness magnitudes l!^(1/2), strictly increasing 2..12,")


def test_criterion_6_star_exponential_closed_form():
    rng = random.Random(606)
    b2 = GeneratorBasis(("q", "p"), ("even", "even"))
    for _ in range(20):
        form = random_even_form(rng, b2)
        w = random_degree_one_even(rng, b2)
        t = random_rational(rng, span=2)
        z = random_rational(rng, span=2)
        order = 8
        S = star_exp(w, t, z, form, order)
        acc = Element.zero(b2)
        power = Element.one(b2)
        for ell in range(order + 1):
            if ell:
                power = star(power, w, QC(z), form)
            acc = acc + power.scale(QC(t) ** ell * QC(Fraction(1, math.factorial(ell))))
        for n in range(order + 1):
            assert acc.grade_component(n) == S.components[n]
    _report(6, "star-exponential equals its closed form per degree <= 8, 20 draws,")


def test_criterion_7_inner_automorphism():
    rng = random.Random(707)
    for _ in range(20):
        form = random_even_form(rng, B)
        w = random_degree_one_even(rng, B)
        z = QC(random_rational(rng, span=3))
        if not z:
            z = QC(Fraction(1, 2))
        for name in B.names:
            v = Element.generator(B, name)
            res = inner_translation_check(w, v, z, form, 10)
            assert all(res["per_degree_match"])
            _, minus = lambda_parts(form)
            assert res["phi_v"] == minus.apply(w, v) * z * 2
            assert all(not res["orders"][r] for r in range(2, 11))
    _report(7, "star-exponential conjugation reproduces translations, N=10,")


def test_criterion_8_involution_criterion():
    rng = random.Random(808)
    agreements = 0
    for side in (True, False):
        for _ in range(10):
            form = random_involutive_form(rng, B, holds=side)
            hbar = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            verdict = check_star_involution(form, hbar)["holds"]
            assert verdict == side
            brute = True
            for ni in B.names:
                for nj in B.names:
                    if not conjugation_is_involution(
                        Element.generator(B, ni), Element.generator(B, nj), hbar, form
                    ):
                        brute = False
            if brute:
                for _ in range(100):
                    a = random_element(rng, B, max_degree=3, n_terms=2, complex_parts=True)
                    b = random_element(rng, B, max_degree=3, n_terms=2, complex_parts=True)
                    if not conjugation_is_involution(a, b, hbar, form):
                        brute = False
                        break
            assert brute == verdict
            agreements += 1
    assert agreements == 20
    _report(8, "involution criterion agrees with brute-force conjugation, 20 forms,")


def test_criterion_9_topology_comparisons():
    rng = random.Random(909)
    b2 = GeneratorBasis(("z", "zb"), ("even", "even"))
    un = WeightedSeminorm.unit(b2)
    count = 0
    for _ in range(200):
        a = random_element(rng, b2, max_degree=5, n_terms=4)
        p_param = rng.choice((1.0, 1.5, 2.0))
        s = rng.choice((0.5, 1.0, 2.0))
        rep = ommy_norm_upper(a, p_param, s, seed=count)
        c = (p_param / s) ** (1.0 / p_param)
        dom = p_R(a, un.scaled(Fraction(c)), 1.0 / p_param)
        assert rep["upper"] <= dom * (1 + REL_TOL)
        assert rep["lower"] <= rep["upper"] * (1 + REL_TOL)
        eps = rng.choice((0.25, 0.5, 0.75))
        assert wick_epsilon_norm(a, eps) <= p_R(a, un, 1 - eps) * (1 + REL_TOL)
        count += 1
    _report(9, "sup-seminorm and sub-factorial bounds dominated, 200 polynomials,")


def test_criterion_10_kothe_nuclearity():
    b1 = GeneratorBasis(("x",), ("even",))
    un = WeightedSeminorm.unit(b1)
    eps = Fraction(1, 10)
    K = kothe_matrix([(un, 1 - eps), (un, 1)], None, 200)
    rep = nuclearity_diagnostic(K, mode="strong", alphas=[1.0, 0.5, 0.25])
    by_key = {(tuple(r["pair"]), r["alpha"]): r for r in rep["results"]}
    for alpha in (1.0, 0.5, 0.25):
        r = by_key[((0, 1), alpha)]
        assert r["summable"]
        # the partial sums of n!^{-alpha eps} stay bounded through n=200
        assert r["partials"][-1] < 100
        assert r["partials"][-1] == pytest.approx(r["partials"][150], rel=1e-6)
    K_same = kothe_matrix([un, un], 1, 100)
    rep_same = nuclearity_diagnostic(K_same, mode="nuclear")
    assert all(not r["summable"] for r in rep_same["results"])
    _report(10, "Koethe ratio sums bounded for alpha=1,1/2,1/4; equal columns flagged,")


def test_criterion_11_peierls_lattice():
    start = time.monotonic()
    st = LatticeSpacetime(12, 8, 0)
    t0 = 5
    deltas = [LatticeSection.delta(t, x) for t, x in st.margin_sites()]
    props = [st.propagator(d) for d in deltas]
    rhos = [st.rho_sigma(d, t0) for d in deltas]

    # D(G phi) = 0 on the interior, for every basis delta
    for g in props:
        for t in range(1, st.T - 1):
            for x in range(st.N):
                val = (
                    g[(t + 1, x)]
                    + g[(t - 1, x)]
                    - g[(t, (x + 1) % st.N)]
                    - g[(t, (x - 1) % st.N)]
                )
                assert val == 0

    # full-basis pairing identities
    n = len(deltas)
    for i in range(n):
        for j in range(n):
            cov = st.pairing(deltas[j], props[i])
            assert st.lambda_sigma(rhos[i], rhos[j]) == cov
            cov_ji = st.pairing(deltas[i], props[j])
            assert cov == -cov_ji

    # kernel of the two-slice restriction = image of the wave operator
    kernel = kernel_identification_report(st, t0)
    assert kernel["kernel_equals_image"], kernel

    # locality: disjoint-cone Gram entries vanish
    spacelike = [
        LatticeSection.delta(6, 0),
        LatticeSection.delta(6, 4),
        LatticeSection.delta(7, 2),
    ]
    sites = [(6, 0), (6, 4), (7, 2)]
    for a in range(3):
        for b in range(3):
            if a != b:
                assert st.is_spacelike(sites[a], sites[b])
    gram = st.covariant_weyl_generators(spacelike)
    assert all(not bool(gram.matrix[i][j]) for i in range(3) for j in range(3))

    # time slice: the slab representative changes no pairing
    for phi in (LatticeSection.delta(1, 3), LatticeSection.delta(10, 6)):
        psi = st.slab_representative(phi, t0)
        assert st.is_casimir(phi - psi)
        for chi in deltas:
            assert st.pairing(chi, st.propagator(phi)) == st.pairing(
                chi, st.propagator(psi)
            )

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"lattice suite took {elapsed:.1f}s"
    _report(11, f"12x8 lattice identities exact on the full delta basis in {elapsed:.1f}s,")
