"""Star product, bracket, symmetries: examples and structural identities."""

import math
import random
from fractions import Fraction

import pytest

from oracles import (
    apply_linear_oracle,
    element_to_tensor,
    pair_tensor_of,
    pair_tensor_to_pairdict,
    plain_product,
    product_oracle,
    tensor_to_element,
    tilde_contract,
    tilde_laplace,
    translate_oracle,
)
from weylalg import (
    BackendMismatchError,
    BasisMismatchError,
    BilinearForm,
    DomainError,
    Element,
    GeneratorBasis,
    QC,
    apply_linear,
    check_star_involution,
    derivation_X,
    equivalence_transform,
    graded_commutator,
    is_poisson_map,
    lambda_parts,
    poisson_bracket,
    sharp,
    star,
    star_hbar,
    translate,
)
from weylalg import _kernels_py
from weylalg.star_algebra import conjugation_is_involution
from weylalg.bilinear_forms import TensorPair, p_lambda_power
from weylalg.randoms import (
    default_basis,
    random_element,
    random_even_form,
    random_even_functional,
    random_graded_symmetric_form,
    random_monomial,
    random_parity_matrix,
    random_scalar,
)

B = default_basis()
Q = Element.generator(B, "q")
P = Element.generator(B, "p")
E1 = Element.generator(B, "e1")
ONE = Element.one(B)
STD = BilinearForm.from_entries(B, {("p", "q"): 1})
DARBOUX = BilinearForm.from_entries(B, {("q", "p"): 1, ("p", "q"): -1})


def test_star_examples():
    z = QC(Fraction(5, 7))
    assert star(P, Q, z, STD) == Q * P + ONE.scale(z)
    assert star(Q, P, z, STD) == Q * P
    expected = (
        Q * Q * P * P
        + (Q * P).scale(z * 4)
        + ONE.scale(z * z * 2)
    )
    assert star(P * P, Q * Q, z, STD) == expected


def test_star_contracts_only_the_entries_its_operands_reach(monkeypatch):
    # q-only times p-only: of a form with every block entry nonzero only
    # (q, p) can contract, so contract_terms sees no other entry
    seen = []
    contract = _kernels_py.contract_terms

    def recorded(t, entries, lay):
        seen.extend((i, j) for i, j, _ in entries)
        return contract(t, entries, lay)

    monkeypatch.setattr(_kernels_py, "contract_terms", recorded)
    lam = QC(3, 1)
    form = BilinearForm.from_entries(
        B,
        {
            ("q", "q"): 2, ("q", "p"): lam, ("p", "q"): QC(-1, 2), ("p", "p"): 5,
            ("e1", "e1"): 1, ("e1", "e2"): QC(0, 1), ("e2", "e1"): -4, ("e2", "e2"): 7,
        },
    )
    z = QC(Fraction(1, 2), 1)
    a, b = Q * Q + Q.scale(3), P * P
    # sum_k z^k/k! lam^k (d/dq)^k a (d/dp)^k b
    expected = (
        a * b
        + ((Q.scale(2) + ONE.scale(3)) * P.scale(2)).scale(z * lam)
        + ONE.scale(z * z * lam * lam * QC(Fraction(1, 2)) * 4)
    )
    assert star(a, b, z, form) == expected
    assert seen and set(seen) == {(B.index("q"), B.index("p"))}


def test_star_rejects_form_over_other_basis():
    other = GeneratorBasis(("x", "y"), ("even", "even"))
    form = BilinearForm.from_entries(other, {("x", "y"): 1})
    with pytest.raises(BasisMismatchError):
        star(Q, P, 1, form)


def test_star_unital_and_graded():
    rng = random.Random(3)
    for _ in range(20):
        form = random_even_form(rng, B)
        z = random_scalar(rng)
        a = random_element(rng, B, max_degree=4, n_terms=3)
        assert star(ONE, a, z, form) == a
        assert star(a, ONE, z, form) == a
        for part, h in enumerate(a.parity_split()):
            for part2, h2 in enumerate(h.parity_split()):
                pass
        b = random_element(rng, B, max_degree=3, n_terms=2)
        pa, pb = a.parity_split(), b.parity_split()
        for i in range(2):
            for j in range(2):
                prod = star(pa[i], pb[j], z, form)
                ev, od = prod.parity_split()
                if (i + j) % 2 == 0:
                    assert not od
                else:
                    assert not ev


def test_star_associativity_random():
    rng = random.Random(5)
    for _ in range(60):
        form = random_even_form(rng, B)
        z = random_scalar(rng)
        a = random_element(rng, B, max_degree=4, n_terms=3)
        b = random_element(rng, B, max_degree=4, n_terms=3)
        c = random_element(rng, B, max_degree=4, n_terms=3)
        assert star(star(a, b, z, form), c, z, form) == star(a, star(b, c, z, form), z, form)


def test_z_polynomial_interpolation():
    # values at z = 0..K recover the contraction coefficients exactly
    rng = random.Random(7)
    for _ in range(10):
        form = random_even_form(rng, B)
        a = random_element(rng, B, max_degree=3, n_terms=3)
        b = random_element(rng, B, max_degree=3, n_terms=3)
        K = min(a.max_degree(), b.max_degree())
        if K < 0:
            continue
        values = [star(a, b, QC(j), form) for j in range(K + 1)]
        coeffs = [
            p_lambda_power(a, b, k, form).multiply().scale(QC(Fraction(1, math.factorial(k))))
            for k in range(K + 1)
        ]
        # solve the Vandermonde system by direct evaluation instead:
        for j in range(K + 1):
            acc = Element.zero(B)
            for k in range(K + 1):
                acc = acc + coeffs[k].scale(QC(j**k))
            assert acc == values[j]
        # and recover the top coefficient by finite differences
        top = Element.zero(B)
        for j in range(K + 1):
            sign = (-1) ** (K - j)
            top = top + values[j].scale(QC(sign * math.comb(K, j)))
        assert top == coeffs[K].scale(QC(math.factorial(K)))


def test_poisson_bracket_examples():
    assert poisson_bracket(Q, P, DARBOUX) == ONE.scale(QC(2))
    assert not poisson_bracket(Q, Q, DARBOUX)
    assert poisson_bracket(Q * Q, P, DARBOUX) == Q.scale(QC(4))


def test_poisson_bracket_depends_on_minus_part_only():
    rng = random.Random(11)
    for _ in range(15):
        form = random_even_form(rng, B)
        _, minus = lambda_parts(form)
        a = random_element(rng, B, max_degree=3, n_terms=3)
        b = random_element(rng, B, max_degree=3, n_terms=3)
        assert poisson_bracket(a, b, form) == poisson_bracket(a, b, minus)


def test_bracket_graded_antisymmetry_leibniz_jacobi():
    rng = random.Random(13)
    for _ in range(30):
        form = random_even_form(rng, B)
        a = random_element(rng, B, max_degree=3, n_terms=2)
        b = random_element(rng, B, max_degree=3, n_terms=2)
        c = random_element(rng, B, max_degree=3, n_terms=2)
        for pa, ah in enumerate(a.parity_split()):
            for pb, bh in enumerate(b.parity_split()):
                lhs = poisson_bracket(ah, bh, form)
                rhs = poisson_bracket(bh, ah, form)
                if pa and pb:
                    assert lhs == rhs
                else:
                    assert lhs == -rhs
                # graded Leibniz: {a, bc} = {a,b}c + (-1)^{ab} b{a,c}
                lhs2 = poisson_bracket(ah, bh * c, form)
                second = bh * poisson_bracket(ah, c, form)
                rhs2 = poisson_bracket(ah, bh, form) * c
                if pa and pb:
                    rhs2 = rhs2 - second
                else:
                    rhs2 = rhs2 + second
                assert lhs2 == rhs2
                # graded Jacobi in adjoint form:
                # {a,{b,c}} = {{a,b},c} + (-1)^{ab}{b,{a,c}}
                lhs3 = poisson_bracket(ah, poisson_bracket(bh, c, form), form)
                t1 = poisson_bracket(poisson_bracket(ah, bh, form), c, form)
                t2 = poisson_bracket(bh, poisson_bracket(ah, c, form), form)
                if pa and pb:
                    assert lhs3 == t1 - t2
                else:
                    assert lhs3 == t1 + t2


def test_forms_keep_their_graded_parts(monkeypatch):
    # the bracket and Delta_g read derived parts kept on the form, so
    # repeated calls build no forms; only g's own parts are new below
    rng = random.Random(44)
    form = random_even_form(rng, B)
    a, b = random_element(rng, B), random_element(rng, B)
    first = poisson_bracket(a, b, form)
    g, _ = lambda_parts(form)
    built = []
    init = BilinearForm.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BilinearForm, "__init__", counting_init)
    for _ in range(19):
        assert poisson_bracket(a, b, form) == first
    equivalence_transform(a, QC(Fraction(1, 3)), g)
    assert len(built) <= 3


QC_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def test_exact_star_arithmetic_does_not_grow_with_contraction_steps(monkeypatch):
    # exact star works on integer numerators: its QC arithmetic is a small
    # multiple of the terms in and out, however many contraction steps run
    form = BilinearForm.from_entries(B, {("p", "q"): QC(1, 2), ("q", "p"): Fraction(1, 3)})
    z = QC(Fraction(2, 3), 1)
    cases = []
    for steps in (4, 8):
        a = (P + Q.scale(QC(0, Fraction(1, 2)))) ** steps
        b = (Q + P.scale(Fraction(3, 5))) ** steps
        assert p_lambda_power(a, b, steps, form)
        cases.append((a, b))
    ops = []

    def counting(fn):
        def wrapper(*args):
            ops.append(fn)
            return fn(*args)

        return wrapper

    for name in QC_ARITHMETIC:
        monkeypatch.setattr(QC, name, counting(QC.__dict__[name]))
    per_term = []
    for a, b in cases:
        ops.clear()
        out = star(a, b, z, form)
        per_term.append(len(ops) / (len(a.terms) + len(b.terms) + len(out.terms)))
    assert max(per_term) <= 2
    assert per_term[1] <= per_term[0]


def _mu_oracle(u: TensorPair) -> Element:
    out = Element.zero(B)
    for (ea, eb), c in u.terms.items():
        out = out + product_oracle(Element(B, "exact", {ea: c}), Element(B, "exact", {eb: QC(1)}))
    return out


def _contract_oracle(u: TensorPair, form) -> TensorPair:
    # one ordered-tensor contraction from canonical words, projected back
    def word(e):
        return tuple(i for i, k in enumerate(e) for _ in range(k))

    ordered = {(word(ea), word(eb)): c for (ea, eb), c in u.terms.items()}
    return pair_tensor_to_pairdict(tilde_contract(ordered, form, B), B)


def _exp_oracle(first, step, finish, z):
    """sum_k z^k/k! finish(step^k(first))."""
    out, u, k = Element.zero(B), first, 0
    while u:
        out = out + finish(u).scale(z**k * QC(Fraction(1, math.factorial(k))))
        u = step(u)
        k += 1
    return out


def test_star_bracket_equivalence_against_tensor_oracles():
    # complex and real coefficients, forms and z in every combination, on
    # a basis with odd generators; exact results must be literally equal
    rng = random.Random(53)
    for trial in range(32):
        ca, cb, cf, cz = (bool(trial >> bit & 1) for bit in range(4))
        form = random_even_form(rng, B, complex_parts=cf)
        g = random_graded_symmetric_form(rng, B, complex_parts=cf)
        z = random_scalar(rng, complex_parts=cz)
        a = random_element(rng, B, max_degree=4, n_terms=3, complex_parts=ca)
        b = random_element(rng, B, max_degree=4, n_terms=3, complex_parts=cb)
        pair = pair_tensor_to_pairdict(pair_tensor_of(a, b), B)
        assert star(a, b, z, form) == _exp_oracle(
            pair, lambda u: _contract_oracle(u, form), _mu_oracle, z
        )
        _, minus = lambda_parts(form)
        assert poisson_bracket(a, b, form) == _mu_oracle(_contract_oracle(pair, minus)).scale(2)
        assert equivalence_transform(a, z, g) == _exp_oracle(
            a,
            lambda c: tensor_to_element(tilde_laplace(element_to_tensor(c), g, B), B),
            lambda c: c,
            z,
        )


def test_exact_products_accept_int_and_fraction_coefficients():
    # plain int/Fraction coefficients and form entries are exact scalars
    # too; the results hold QC coefficients, equal to the QC inputs' results
    a = Element.from_terms(B, "exact", [((1, 2, 0, 0), 3), ((0, 1, 1, 0), Fraction(-1, 2))])
    b = Element.from_terms(B, "exact", [((2, 1, 0, 1), Fraction(2, 3)), ((0, 0, 0, 0), -4)])
    form = BilinearForm(B, [[0, 1, 0, 0], [-2, 0, 0, 0], [0, 0, 1, 3], [0, 0, 3, 0]])
    g = BilinearForm(B, [[1, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 5], [0, 0, -5, 0]])

    def qc(x):
        if isinstance(x, Element):
            return Element(B, "exact", {e: QC(c) for e, c in x.terms.items()})
        return BilinearForm(B, [[QC(c) for c in row] for row in x.matrix])

    ab, third = a * b, Fraction(1, 3)
    pairs = [
        (star(a, b, 2, form), star(qc(a), qc(b), QC(2), qc(form))),
        (poisson_bracket(a, b, form), poisson_bracket(qc(a), qc(b), qc(form))),
        (equivalence_transform(ab, third, g), equivalence_transform(qc(ab), QC(third), qc(g))),
    ]
    for out, ref in pairs:
        assert out and out == ref
        assert all(type(c) is QC for c in out.terms.values())


def test_products_reject_incompatible_forms():
    other = GeneratorBasis(("x", "y"), ("even", "even"))
    foreign = BilinearForm.from_entries(other, {("x", "x"): 1})
    float_form = BilinearForm.from_entries(B, {("q", "q"): 1}, backend="float")
    calls = (
        lambda f: star(Q, P, 1, f),
        lambda f: poisson_bracket(Q, P, f),
        lambda f: equivalence_transform(Q * Q, 1, f),
    )
    for call in calls:
        with pytest.raises(BasisMismatchError):
            call(foreign)
        with pytest.raises(BackendMismatchError):
            call(float_form)
    with pytest.raises(DomainError):
        equivalence_transform(Q * P, 1, STD)


def test_graded_commutator_examples():
    z = QC(Fraction(2, 3))
    assert graded_commutator(Q, P, z, DARBOUX) == ONE.scale(z * 2)
    clif = BilinearForm.from_entries(B, {("e1", "e1"): 1})
    assert graded_commutator(E1, E1, z, clif) == ONE.scale(z * 2)
    rng = random.Random(17)
    a = random_element(rng, B, max_degree=3, n_terms=3)
    assert not graded_commutator(a, ONE, z, DARBOUX)


def test_commutator_first_order_is_bracket():
    rng = random.Random(19)
    for _ in range(20):
        form = random_even_form(rng, B)
        z = QC(Fraction(3, 5))
        v = random_element(rng, B, max_degree=1, n_terms=2).grade_component(1)
        w = random_element(rng, B, max_degree=1, n_terms=2).grade_component(1)
        if not v or not w:
            continue
        assert graded_commutator(v, w, z, form) == poisson_bracket(v, w, form).scale(
            z
        )


def test_equivalence_examples():
    g = BilinearForm.from_entries(B, {("q", "p"): Fraction(1, 2), ("p", "q"): Fraction(1, 2)})
    z = QC(Fraction(4, 3))
    assert equivalence_transform(Q, z, g) == Q
    assert equivalence_transform(Q * P, z, g) == Q * P + ONE.scale(z * QC(Fraction(1, 2)))
    # worked standard <-> antisymmetric case
    weyl = BilinearForm.from_entries(
        B, {("p", "q"): Fraction(1, 2), ("q", "p"): Fraction(-1, 2)}
    )
    gg = STD - weyl
    lhs = equivalence_transform(star(Q, P, z, weyl), z, gg)
    rhs = star(
        equivalence_transform(Q, z, gg), equivalence_transform(P, z, gg), z, STD
    )
    assert lhs == rhs == Q * P


def test_equivalence_intertwines_random():
    rng = random.Random(23)
    for _ in range(25):
        lam = random_even_form(rng, B)
        g = random_graded_symmetric_form(rng, B)
        lam2 = lam + g
        plus1, minus1 = lambda_parts(lam)
        plus2, minus2 = lambda_parts(lam2)
        assert minus1 == minus2
        z = random_scalar(rng)
        a = random_element(rng, B, max_degree=4, n_terms=3)
        b = random_element(rng, B, max_degree=4, n_terms=3)
        lhs = equivalence_transform(star(a, b, z, lam), z, g)
        rhs = star(
            equivalence_transform(a, z, g),
            equivalence_transform(b, z, g),
            z,
            lam2,
        )
        assert lhs == rhs


def test_translate_examples():
    alpha = Fraction(3, 2)
    out = translate(Q * Q, {"q": alpha})
    expect = Q * Q + Q.scale(QC(2 * alpha)) + ONE.scale(QC(alpha * alpha))
    assert out == expect
    rng = random.Random(29)
    a = random_element(rng, B, max_degree=4, n_terms=3)
    assert translate(a, {}) == a
    assert translate(ONE, {"q": 5}) == ONE
    with pytest.raises(DomainError):
        translate(Q, {"e1": 1})


def test_translate_group_action_and_automorphism():
    rng = random.Random(31)
    for _ in range(20):
        form = random_even_form(rng, B)
        z = random_scalar(rng)
        phi = random_even_functional(rng, B)
        psi = random_even_functional(rng, B)
        a = random_element(rng, B, max_degree=3, n_terms=3)
        b = random_element(rng, B, max_degree=3, n_terms=3)
        both = {k: phi.get(k, 0) + psi.get(k, 0) for k in set(phi) | set(psi)}
        assert translate(translate(a, phi), psi) == translate(a, both)
        assert translate(star(a, b, z, form), phi) == star(
            translate(a, phi), translate(b, phi), z, form
        )
        assert poisson_bracket(translate(a, phi), translate(b, phi), form) == translate(
            poisson_bracket(a, b, form), phi
        )


def test_derivation_examples():
    assert derivation_X(Q * Q, {"q": 1}) == Q.scale(QC(2))
    assert not derivation_X(ONE, {"q": 1})
    phi = {k: v * QC(2) for k, v in sharp(Q, DARBOUX).items()}
    assert derivation_X(P, phi) == poisson_bracket(Q, P, DARBOUX)


def test_derivation_leibniz_and_star_derivation():
    rng = random.Random(37)
    for _ in range(20):
        form = random_even_form(rng, B)
        z = random_scalar(rng)
        phi = random_even_functional(rng, B)
        a = random_element(rng, B, max_degree=3, n_terms=2)
        b = random_element(rng, B, max_degree=3, n_terms=2)
        lhs = derivation_X(a * b, phi)
        assert lhs == derivation_X(a, phi) * b + a * derivation_X(b, phi)
        lhs2 = derivation_X(star(a, b, z, form), phi)
        assert lhs2 == star(derivation_X(a, phi), b, z, form) + star(
            a, derivation_X(b, phi), z, form
        )


def test_odd_derivation_signs():
    # phi supported on odd generators: graded Leibniz with parity signs
    rng = random.Random(41)
    phi = {"e1": Fraction(1), "e2": Fraction(-2)}
    for _ in range(20):
        a = random_element(rng, B, max_degree=3, n_terms=2)
        b = random_element(rng, B, max_degree=3, n_terms=2)
        for pa, ah in enumerate(a.parity_split()):
            lhs = derivation_X(ah * b, phi)
            second = ah * derivation_X(b, phi)
            rhs = derivation_X(ah, phi) * b
            if pa:
                rhs = rhs - second
            else:
                rhs = rhs + second
            assert lhs == rhs


def test_inner_derivation_matches_bracket():
    rng = random.Random(43)
    for _ in range(20):
        form = random_even_form(rng, B)
        v = random_element(rng, B, max_degree=1, n_terms=2).grade_component(1)
        a = random_element(rng, B, max_degree=3, n_terms=3)
        for vh in v.parity_split():
            if not vh:
                continue
            phi = {k: val * QC(2) for k, val in sharp(vh, form).items()}
            assert derivation_X(a, phi) == poisson_bracket(vh, a, form)


def test_apply_linear_examples():
    d = B.dimension
    ident = [[QC(1) if i == j else QC(0) for j in range(d)] for i in range(d)]
    rng = random.Random(47)
    a = random_element(rng, B, max_degree=3, n_terms=3)
    assert apply_linear(a, ident) == a
    shear = [[QC(1 if i == j else 0) for j in range(d)] for i in range(d)]
    shear[B.index("q")][B.index("p")] = QC(1)  # q -> q, p -> p + q
    assert apply_linear(Q * P, shear) == Q * P + Q * Q
    zero = [[QC(0)] * d for _ in range(d)]
    assert apply_linear(ONE + Q, zero) == ONE


def test_apply_linear_intertwines_poisson_maps():
    rng = random.Random(53)
    count = 0
    while count < 15:
        A = random_parity_matrix(rng, B)
        lam = random_even_form(rng, B)
        # transport the form through A: lam_V = A^T lam_W A ensures A is
        # a Poisson map from (V, lam_V) to (W, lam_W)
        d = B.dimension
        lamV_rows = [[QC(0)] * d for _ in range(d)]
        for c1 in range(d):
            for c2 in range(d):
                tot = QC(0)
                for r1 in range(d):
                    for r2 in range(d):
                        tot = tot + A[r1][c1] * A[r2][c2] * lam.matrix[r1][r2]
                lamV_rows[c1][c2] = tot
        try:
            lamV = BilinearForm(B, lamV_rows)
        except Exception:
            continue
        if not is_poisson_map(A, lamV, lam):
            continue
        count += 1
        z = random_scalar(rng)
        a = random_element(rng, B, max_degree=3, n_terms=2)
        b = random_element(rng, B, max_degree=3, n_terms=2)
        assert apply_linear(star(a, b, z, lamV), A) == star(
            apply_linear(a, A), apply_linear(b, A), z, lam
        )


def _awkward_float(rng):
    # binary64 parts with signed zeros, subnormals and inexact values
    def part():
        values = (0.0, -0.0, 5e-324, -2.5e-310, rng.uniform(-3, 3), rng.uniform(-3, 3) / 7)
        return rng.choice(values)

    return complex(part(), part())


def _float_element(rng, max_degree, n_terms):
    terms = {random_monomial(rng, B, max_degree): _awkward_float(rng) for _ in range(n_terms)}
    return Element(B, "float", terms)


def _rational(c):
    # the real part of a QC as an int or a Fraction
    return int(c.re) if c.re.denominator == 1 else c.re


def _bits(terms):
    return {e: repr(c) for e, c in terms.items()}


def test_translate_apply_linear_and_products_against_plain_loops():
    # exact results equal plain QC loops literally, whatever the inputs'
    # types; float results equal them bit for bit, signed zeros included
    rng = random.Random(67)
    for trial in range(48):
        kind = ("real", "complex", "int/Fraction", "float")[trial % 4]
        deg = (2, 3, 5, 6)[trial // 4 % 4]
        n_terms = rng.randint(1, 6)
        if kind == "float":
            a, b = _float_element(rng, deg, n_terms), _float_element(rng, deg, 3)
            A = [
                [_awkward_float(rng) if B.parity(r) == B.parity(c) else 0j for c in range(4)]
                for r in range(4)
            ]
            shift = (0.0, -0.0, rng.uniform(-2, 2))
            phi = {n: complex(rng.choice(shift), rng.uniform(-2, 2)) for n in ("q", "p")}
            assert _bits((a * b).terms) == _bits(plain_product(a.terms, b.terms, B))
            assert _bits(translate(a, phi).terms) == _bits(translate_oracle(a, phi).terms)
            assert _bits(apply_linear(a, A).terms) == _bits(apply_linear_oracle(a, A).terms)
            continue
        cplx = kind == "complex"
        a = random_element(rng, B, max_degree=deg, n_terms=n_terms, complex_parts=cplx)
        cb = cplx and trial % 8 == 1
        b = random_element(rng, B, max_degree=deg, n_terms=3, complex_parts=cb)
        A = random_parity_matrix(rng, B, complex_parts=cplx)
        phi = {n: random_scalar(rng, complex_parts=cplx) for n in ("q", "p") if rng.random() < 0.8}
        if kind == "int/Fraction":
            a = Element(B, "exact", {e: _rational(c) for e, c in a.terms.items()})
            b = Element(B, "exact", {e: _rational(c) for e, c in b.terms.items()})
            A = [[_rational(x) for x in row] for row in A]
            phi = {n: _rational(v) for n, v in phi.items()}
        ab, image = a * b, apply_linear(a, A)
        assert ab == product_oracle(a, b)
        assert translate(a, phi) == translate_oracle(a, phi)
        assert image == apply_linear_oracle(a, A)
        # int/Fraction inputs give QC coefficients too
        assert all(type(c) is QC for x in (ab, image) for c in x.terms.values())


def test_exact_translate_and_apply_linear_arithmetic_does_not_grow_with_degree(monkeypatch):
    # both maps work on integer numerators: their QC arithmetic is a small
    # multiple of the terms in and out, at any degree
    A = [
        [QC(1), QC(Fraction(1, 2), 1), 0, 0],
        [QC(0, -1), Fraction(2, 3), 0, 0],
        [0, 0, 1, QC(3, 1)],
        [0, 0, Fraction(-1, 2), 2],
    ]
    phi = {"q": QC(Fraction(1, 2), 1), "p": Fraction(-2, 3)}
    cases = [(P + Q.scale(QC(0, Fraction(1, 2))) + E1) ** deg for deg in (3, 6)]
    ops = []

    def counting(fn):
        def wrapper(*args):
            ops.append(fn)
            return fn(*args)

        return wrapper

    for name in QC_ARITHMETIC:
        monkeypatch.setattr(QC, name, counting(QC.__dict__[name]))
    per_term = []
    for a in cases:
        for f in (lambda x: apply_linear(x, A), lambda x: translate(x, phi)):
            ops.clear()
            out = f(a)
            per_term.append(len(ops) / (len(a.terms) + len(out.terms)))
    assert max(per_term) <= 2
    assert per_term[2] <= per_term[0] and per_term[3] <= per_term[1]


def test_involution_examples():
    # real antisymmetric (Weyl-type): holds
    rep = check_star_involution(DARBOUX, 1)
    assert rep["holds"] and not rep["violations"]
    # real symmetric part present (standard ordered): fails, lists entries
    rep = check_star_involution(STD, 1)
    assert not rep["holds"]
    assert any(v["part"] == "plus" for v in rep["violations"])
    # Wick-type in real coordinates (the z-basis form z zbar -> 4/i,
    # pushed to the real generators the entrywise convention assumes):
    # plus part purely imaginary, minus part real -> holds.
    br = GeneratorBasis(("x", "y"), ("even", "even"))
    wick_real = BilinearForm.from_entries(
        br,
        {("x", "x"): QC(0, -1), ("y", "y"): QC(0, -1), ("x", "y"): 1, ("y", "x"): -1},
    )
    rep = check_star_involution(wick_real, 1)
    assert rep["holds"]
    plus, minus = lambda_parts(wick_real)
    assert all(c.re == 0 for row in plus.matrix for c in row)
    assert all(c.im == 0 for row in minus.matrix for c in row)


def test_involution_brute_force_agrees():
    rng = random.Random(59)
    from weylalg.randoms import random_involutive_form

    for k in range(10):
        form = random_involutive_form(rng, B, holds=(k % 2 == 0))
        verdict = check_star_involution(form, Fraction(1, 2))["holds"]
        brute = True
        for ni in B.names:
            for nj in B.names:
                if not conjugation_is_involution(
                    Element.generator(B, ni), Element.generator(B, nj), Fraction(1, 2), form
                ):
                    brute = False
        if brute:
            for _ in range(10):
                a = random_element(rng, B, max_degree=3, n_terms=2, complex_parts=True)
                b = random_element(rng, B, max_degree=3, n_terms=2, complex_parts=True)
                if not conjugation_is_involution(a, b, Fraction(1, 2), form):
                    brute = False
                    break
        assert verdict == brute


def test_star_hbar_is_scaled_star():
    rng = random.Random(61)
    a = random_element(rng, B, max_degree=3, n_terms=3)
    b = random_element(rng, B, max_degree=3, n_terms=3)
    assert star_hbar(a, b, 2, DARBOUX) == star(a, b, QC(0, 1), DARBOUX)
    with pytest.raises(DomainError):
        check_star_involution(DARBOUX, 0)
