"""Bilinear forms, contraction operators, Laplacian, normal forms."""

import random
import time
from fractions import Fraction

import pytest

from weylalg import (
    BilinearForm,
    DomainError,
    Element,
    GeneratorBasis,
    ParityBlockError,
    QC,
    TensorPair,
    delta_g,
    is_poisson_map,
    lambda_parts,
    normal_form,
    p_lambda,
    p_lambda_power,
    sharp,
)
from weylalg._kernels_py import parity_of
from weylalg.bilinear_forms import transpose_graded
from weylalg.randoms import (
    default_basis,
    random_element,
    random_even_form,
    random_graded_symmetric_form,
    random_parity_matrix,
    random_rational,
)

from oracles import pair_tensor_of, pair_tensor_to_pairdict, tilde_contract, tilde_laplace, element_to_tensor, tensor_to_element
from oracles import poisson_map_oracle

B = default_basis()
Q = Element.generator(B, "q")
P = Element.generator(B, "p")
E1 = Element.generator(B, "e1")
E2 = Element.generator(B, "e2")

STD = BilinearForm.from_entries(B, {("p", "q"): 1})
DARBOUX = BilinearForm.from_entries(B, {("q", "p"): 1, ("p", "q"): -1})


def test_parity_block_constraint():
    with pytest.raises(ParityBlockError):
        BilinearForm.from_entries(B, {("q", "e1"): 1})


def test_lambda_parts_examples():
    plus, minus = lambda_parts(STD)
    iq, ip = B.index("q"), B.index("p")
    assert plus.matrix[ip][iq] == QC(Fraction(1, 2))
    assert plus.matrix[iq][ip] == QC(Fraction(1, 2))
    assert minus.matrix[ip][iq] == QC(Fraction(1, 2))
    assert minus.matrix[iq][ip] == QC(Fraction(-1, 2))
    assert STD == plus + minus

    plus, minus = lambda_parts(DARBOUX)
    assert all(not c for row in plus.matrix for c in row)
    assert minus == DARBOUX


def test_lambda_parts_odd_block_follows_the_flip_sign():
    # A symmetric odd Gram block picks up the Koszul sign under the flip,
    # so it sits in the graded-antisymmetric part (the bracket side).
    g = BilinearForm.from_entries(B, {("e1", "e1"): 1})
    plus, minus = lambda_parts(g)
    ie = B.index("e1")
    assert plus.matrix[ie][ie] == QC(0)
    assert minus.matrix[ie][ie] == QC(1)
    assert plus.is_graded_symmetric()
    assert minus.is_graded_antisymmetric()


def test_lambda_parts_properties_random():
    rng = random.Random(23)
    for _ in range(30):
        form = random_even_form(rng, B)
        plus, minus = lambda_parts(form)
        assert plus + minus == form
        assert plus.is_graded_symmetric()
        assert minus.is_graded_antisymmetric()


def test_p_lambda_examples():
    u = TensorPair.of(P * P, Q * Q)
    out = p_lambda(u, STD)
    key = ((0, 1, 0, 0), (1, 0, 0, 0))  # p (x) q
    assert out.terms == {key: QC(4)}

    assert not p_lambda(TensorPair.of(Element.one(B), Q), STD)

    clif = BilinearForm.from_entries(B, {("e1", "e1"): 1})
    out = p_lambda(TensorPair.of(E1, E1), clif)
    assert out.terms == {((0, 0, 0, 0), (0, 0, 0, 0)): QC(1)}


def test_p_lambda_against_tensor_oracle():
    rng = random.Random(29)
    for _ in range(40):
        form = random_even_form(rng, B)
        a = random_element(rng, B, max_degree=3, n_terms=2)
        b = random_element(rng, B, max_degree=3, n_terms=2)
        mine = p_lambda(TensorPair.of(a, b), form)
        oracle = {}
        for (ta, tb), c in pair_tensor_of(a, b).items():
            for key, v in tilde_contract({(ta, tb): c}, form, B).items():
                prev = oracle.get(key)
                tot = v if prev is None else prev + v
                oracle[key] = tot
        assert mine == pair_tensor_to_pairdict(oracle, B)


def test_p_lambda_leibniz_rules():
    # the two characterizing rules on generators u, v, w and beyond
    rng = random.Random(31)
    for _ in range(25):
        form = random_even_form(rng, B)
        v = random_element(rng, B, max_degree=2, n_terms=2)
        w = random_element(rng, B, max_degree=2, n_terms=2)
        u = random_element(rng, B, max_degree=2, n_terms=2)
        # P(v (x) wu) = P(v (x) w)(1 (x) u) + (-1)^{wv} (1 (x) w) P(v (x) u)
        for pw, wh in enumerate(w.parity_split()):
            if not wh:
                continue
            for pv, vh in enumerate(v.parity_split()):
                if not vh:
                    continue
                lhs = p_lambda(TensorPair.of(vh, wh * u), form)
                one_u = TensorPair.of(Element.one(B), u)
                one_w = TensorPair.of(Element.one(B), wh)
                rhs = p_lambda(TensorPair.of(vh, wh), form).pair_product(one_u)
                second = one_w.pair_product(p_lambda(TensorPair.of(vh, u), form))
                if pw and pv:
                    rhs = rhs - second
                else:
                    rhs = rhs + second
                assert lhs == rhs
        # P(vw (x) u) = (v (x) 1) P(w (x) u) + (-1)^{wu} P(v (x) u)(w (x) 1);
        # the second factor multiplies the *first* leg (the printed form
        # with 1 (x) w does not even match tensor degrees).
        for pw, wh in enumerate(w.parity_split()):
            if not wh:
                continue
            for pu, uh in enumerate(u.parity_split()):
                if not uh:
                    continue
                lhs = p_lambda(TensorPair.of(v * wh, uh), form)
                v_one = TensorPair.of(v, Element.one(B))
                w_one = TensorPair.of(wh, Element.one(B))
                rhs = v_one.pair_product(p_lambda(TensorPair.of(wh, uh), form))
                second = p_lambda(TensorPair.of(v, uh), form).pair_product(w_one)
                if pw and pu:
                    rhs = rhs - second
                else:
                    rhs = rhs + second
                assert lhs == rhs


def test_p_lambda_power_examples():
    u0 = p_lambda_power(P * P, Q * Q, 0, STD)
    assert u0 == TensorPair.of(P * P, Q * Q)
    u2 = p_lambda_power(P * P, Q * Q, 2, STD)
    assert u2.terms == {((0, 0, 0, 0), (0, 0, 0, 0)): QC(4)}
    assert not p_lambda_power(P * P, Q * Q, 3, STD)


def test_p_opposite_is_flip_conjugation():
    rng = random.Random(37)
    for _ in range(25):
        form = random_even_form(rng, B)
        opp = transpose_graded(form)
        a = random_element(rng, B, max_degree=3, n_terms=2)
        b = random_element(rng, B, max_degree=3, n_terms=2)
        u = TensorPair.of(a, b)
        assert p_lambda(u, opp) == p_lambda(u.flip(), form).flip()


def _triple_tensors(rng, degrees=2, terms=2):
    a = random_element(rng, B, max_degree=degrees, n_terms=terms)
    b = random_element(rng, B, max_degree=degrees, n_terms=terms)
    c = random_element(rng, B, max_degree=degrees, n_terms=terms)
    return a, b, c


def _to_triple(a, b, c):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            for e3, c3 in c.terms.items():
                out[(e1, e2, e3)] = c1 * c2 * c3
    return out


def _p12(triple, form):
    out = {}
    for (e1, e2, e3), coeff in triple.items():
        pair = p_lambda(TensorPair(B, "exact", {(e1, e2): coeff}), form)
        for (f1, f2), v in pair.terms.items():
            key = (f1, f2, e3)
            prev = out.get(key)
            out[key] = v if prev is None else prev + v
    return {k: v for k, v in out.items() if v}


def _p23(triple, form):
    out = {}
    for (e1, e2, e3), coeff in triple.items():
        pair = p_lambda(TensorPair(B, "exact", {(e2, e3): coeff}), form)
        for (f2, f3), v in pair.terms.items():
            key = (e1, f2, f3)
            prev = out.get(key)
            out[key] = v if prev is None else prev + v
    return {k: v for k, v in out.items() if v}


def _flip23(triple):
    out = {}
    for (e1, e2, e3), coeff in triple.items():
        sign = parity_of(e2, B.odd_mask) and parity_of(e3, B.odd_mask)
        key = (e1, e3, e2)
        v = -coeff if sign else coeff
        prev = out.get(key)
        out[key] = v if prev is None else prev + v
    return {k: v for k, v in out.items() if v}


def _p13(triple, form):
    return _flip23(_p12(_flip23(triple), form))


def test_contraction_placements_commute():
    rng = random.Random(41)
    for _ in range(15):
        form = random_even_form(rng, B)
        a, b, c = _triple_tensors(rng)
        t = _to_triple(a, b, c)
        for f, g in (
            (lambda x: _p12(x, form), lambda x: _p23(x, form)),
            (lambda x: _p12(x, form), lambda x: _p13(x, form)),
            (lambda x: _p23(x, form), lambda x: _p13(x, form)),
        ):
            assert f(g(t)) == g(f(t))


def _mu12(triple):
    out = {}
    for (e1, e2, e3), coeff in triple.items():
        prod = Element(B, "exact", {e1: coeff}) * Element(B, "exact", {e2: QC(1)})
        for f, v in prod.terms.items():
            key = (f, e3)
            prev = out.get(key)
            out[key] = v if prev is None else prev + v
    return TensorPair(B, "exact", {k: v for k, v in out.items() if v})


def _mu23(triple):
    out = {}
    for (e1, e2, e3), coeff in triple.items():
        prod = Element(B, "exact", {e2: coeff}) * Element(B, "exact", {e3: QC(1)})
        for f, v in prod.terms.items():
            key = (e1, f)
            prev = out.get(key)
            out[key] = v if prev is None else prev + v
    return TensorPair(B, "exact", {k: v for k, v in out.items() if v})


def _pair_sum(x, y):
    return x + y


def test_conceptual_leibniz_rules_on_triples():
    # P o (mu (x) id) = (mu (x) id) o (P13 + P23)  and
    # P o (id (x) mu) = (id (x) mu) o (P12 + P13)
    rng = random.Random(67)
    for _ in range(15):
        form = random_even_form(rng, B)
        a, b, c = _triple_tensors(rng)
        t = _to_triple(a, b, c)
        lhs1 = p_lambda(_mu12(t), form)
        rhs1 = _pair_sum(_mu12_pairs(_p13(t, form)), _mu12_pairs(_p23(t, form)))
        assert lhs1 == rhs1
        lhs2 = p_lambda(_mu23(t), form)
        rhs2 = _pair_sum(_mu23_pairs(_p12(t, form)), _mu23_pairs(_p13(t, form)))
        assert lhs2 == rhs2


def _mu12_pairs(triple):
    return _mu12(triple)


def _mu23_pairs(triple):
    return _mu23(triple)


def test_delta_examples():
    g = BilinearForm.from_entries(B, {("q", "q"): 1})
    assert delta_g(Q * Q, g) == Element.one(B)
    assert delta_g(Q**3, g) == Q.scale(QC(3))
    assert not delta_g(Q, g)


def test_delta_against_tensor_oracle():
    rng = random.Random(43)
    for _ in range(30):
        g = random_graded_symmetric_form(rng, B)
        a = random_element(rng, B, max_degree=4, n_terms=3)
        mine = delta_g(a, g)
        acc = Element.zero(B)
        for tup, c in element_to_tensor(a).items():
            red = tilde_laplace({tup: c}, g, B)
            acc = acc + tensor_to_element(red, B)
        assert mine == acc


def test_delta_leibniz_rule():
    rng = random.Random(47)
    for _ in range(25):
        g = random_graded_symmetric_form(rng, B)
        a = random_element(rng, B, max_degree=3, n_terms=2)
        b = random_element(rng, B, max_degree=3, n_terms=2)
        lhs = delta_g(a * b, g)
        rhs = delta_g(a, g) * b + p_lambda(TensorPair.of(a, b), g).multiply() + a * delta_g(b, g)
        assert lhs == rhs


def test_delta_and_contractions_commute():
    rng = random.Random(53)
    for _ in range(15):
        g = random_graded_symmetric_form(rng, B)
        lam = random_even_form(rng, B)
        lam2 = random_even_form(rng, B)
        a = random_element(rng, B, max_degree=3, n_terms=2)
        b = random_element(rng, B, max_degree=3, n_terms=2)
        u = TensorPair.of(a, b)

        def dl(pair):
            out = {}
            for (e1, e2), c in pair.terms.items():
                left = delta_g(Element(B, "exact", {e1: c}), g)
                for f1, v in left.terms.items():
                    key = (f1, e2)
                    prev = out.get(key)
                    out[key] = v if prev is None else prev + v
            return TensorPair(B, "exact", {k: v for k, v in out.items() if v})

        def dr(pair):
            out = {}
            for (e1, e2), c in pair.terms.items():
                right = delta_g(Element(B, "exact", {e2: c}), g)
                for f2, v in right.terms.items():
                    key = (e1, f2)
                    prev = out.get(key)
                    out[key] = v if prev is None else prev + v
            return TensorPair(B, "exact", {k: v for k, v in out.items() if v})

        ops = [dl, dr, lambda x: p_lambda(x, lam), lambda x: p_lambda(x, lam2)]
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                assert ops[i](ops[j](u)) == ops[j](ops[i](u))


def test_sharp_examples():
    out = sharp(Q, DARBOUX)
    assert out["p"] == QC(1) and out["q"] == QC(0)
    out = sharp(P, DARBOUX)
    assert out["q"] == QC(-1) and out["p"] == QC(0)
    zero = sharp(Q.scale(QC(0)) + Q - Q + Q, DARBOUX)  # q again, sanity
    assert zero["p"] == QC(1)
    with pytest.raises(DomainError):
        sharp(Q * Q, DARBOUX)


def test_is_poisson_map_rectangular():
    # embedding a 1-dim even space onto the q-axis of the Darboux plane:
    # a Poisson map iff the source form vanishes
    src = GeneratorBasis(("x",), ("even",))
    zero_form = BilinearForm.zero(src)
    A = [[QC(1)], [QC(0)], [QC(0)], [QC(0)]]  # x -> q
    assert is_poisson_map(A, zero_form, DARBOUX)
    nonzero = BilinearForm.from_entries(src, {("x", "x"): 1})
    assert not is_poisson_map(A, nonzero, DARBOUX)
    with pytest.raises(DomainError):
        is_poisson_map([[QC(1)]], zero_form, DARBOUX)  # wrong shape


def test_is_poisson_map_on_integers_agrees_with_plain_sums():
    # complex and real maps and forms on the basis with odd generators,
    # QC or int/Fraction entries: the integer test gives the booleans of
    # summing A^T Lambda_W A on QC
    rng = random.Random(71)
    d = B.dimension
    for trial in range(40):
        cplx = trial % 2 == 1
        A = random_parity_matrix(rng, B, complex_parts=cplx)
        if trial % 4 == 2:
            A = [[x.re for x in row] for row in A]
        lam_w = random_even_form(rng, B, complex_parts=cplx)
        pairs = [(r, s) for r in range(d) for s in range(d)]
        rows = [
            [
                sum((QC(A[r][c1]) * QC(A[s][c2]) * lam_w.matrix[r][s] for r, s in pairs), QC(0))
                for c2 in range(d)
            ]
            for c1 in range(d)
        ]
        transported = BilinearForm(B, rows)
        i = rng.randrange(d)
        j = rng.choice([c for c in range(d) if B.parity(c) == B.parity(i)])
        nudged = [list(r) for r in rows]
        nudged[i][j] = nudged[i][j] + (QC(0, Fraction(1, 7)) if cplx else QC(Fraction(1, 7)))
        nudged = BilinearForm(B, nudged)
        other = random_even_form(rng, B, complex_parts=cplx)
        assert is_poisson_map(A, transported, lam_w)
        assert not is_poisson_map(A, nudged, lam_w)
        for form_v in (transported, nudged, other):
            assert is_poisson_map(A, form_v, lam_w) == poisson_map_oracle(A, form_v, lam_w)


def test_is_poisson_map_examples():
    d = B.dimension
    ident = [[QC(1) if i == j else QC(0) for j in range(d)] for i in range(d)]
    assert is_poisson_map(ident, DARBOUX, DARBOUX)
    scale = [[QC(2 if i == j == 0 else (1 if i == j else 0)) for j in range(d)] for i in range(d)]
    assert not is_poisson_map(scale, DARBOUX, DARBOUX)
    shear = [[QC(1 if i == j else 0) for j in range(d)] for i in range(d)]
    shear[B.index("p")][B.index("q")] = QC(1)  # q -> q, p -> p + q
    assert is_poisson_map(shear, DARBOUX, DARBOUX)


# -- normal form ---------------------------------------------------------


def _conjugate(M, C):
    d = len(M)
    n = len(C[0])
    out = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            total = Fraction(0)
            for i in range(d):
                if not C[i][a]:
                    continue
                for j in range(d):
                    total += C[i][a] * M[i][j] * C[j][b]
            out[a][b] = total
    return out


def _frac_matrix(form):
    return [[c.re for c in row] for row in form.matrix]


def test_normal_form_examples():
    b2 = GeneratorBasis(("x", "y"), ("even", "even"))
    f = BilinearForm.from_entries(b2, {("x", "y"): 1, ("y", "x"): -1})
    res = normal_form(f)
    assert res.invariants == (1, 0, 0, 0, 0)

    b3 = GeneratorBasis(("x", "y", "z"), ("even", "even", "even"))
    res = normal_form(BilinearForm.zero(b3))
    assert res.invariants == (0, 3, 0, 0, 0)

    bo = GeneratorBasis(("e",), ("odd",))
    res = normal_form(BilinearForm.from_entries(bo, {("e", "e"): 4}))
    assert res.invariants == (0, 0, 1, 0, 0)
    assert res.transform == [[Fraction(1, 2)]]


def test_normal_form_scales_large_odd_entries_in_bounded_time():
    bo = GeneratorBasis(("e",), ("odd",))
    # a product of two primes past any trial bound: kept as it is
    pq = 1000000007 * 1000000009
    start = time.perf_counter()
    res = normal_form(BilinearForm.from_entries(bo, {("e", "e"): pq}))
    assert time.perf_counter() - start < 1.0
    assert res.invariants == (0, 0, 1, 0, 0)
    assert res.transform == [[Fraction(1)]]
    # the square of a prime above the trial bound is still taken out
    res = normal_form(BilinearForm.from_entries(bo, {("e", "e"): 3 * 10007**2}))
    assert res.transform == [[Fraction(1, 10007)]]


def test_normal_form_conjugation_is_exact():
    rng = random.Random(59)
    for _ in range(15):
        minus = _random_graded_antisym(rng)
        res = normal_form(minus)
        M = _frac_matrix(minus)
        N = _conjugate(M, res.transform)
        d_pairs, k, r, s, t = res.invariants
        ne = 2 * d_pairs + k
        # even block: q_i pairs with p_i only
        for a in range(ne):
            for b in range(ne):
                expected = Fraction(0)
                if a < d_pairs and b == d_pairs + a:
                    expected = Fraction(1)
                elif b < d_pairs and a == d_pairs + b:
                    expected = Fraction(-1)
                assert N[a][b] == expected
        # odd block: diagonal, square-free entries, signature (r, s, t)
        no = r + s + t
        for a in range(no):
            for b in range(no):
                v = N[ne + a][ne + b]
                if a != b:
                    assert v == 0
        diag = [N[ne + i][ne + i] for i in range(no)]
        assert all(v > 0 for v in diag[:r])
        assert all(v < 0 for v in diag[r : r + s])
        assert all(v == 0 for v in diag[r + s :])


def _random_graded_antisym(rng):
    d = B.dimension
    rows = [[QC(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if B.parity(i) != B.parity(j) or i > j:
                continue
            v = random_rational(rng, span=3)
            if B.parity(i) == 0:
                if i == j:
                    continue
                rows[i][j] = QC(v)
                rows[j][i] = QC(-v)
            else:
                rows[i][j] = QC(v)
                rows[j][i] = QC(v)
    return BilinearForm(B, rows)


def test_normal_form_invariants_stable_under_conjugation():
    rng = random.Random(61)
    for _ in range(10):
        minus = _random_graded_antisym(rng)
        base = normal_form(minus).invariants
        A = _random_invertible_parity_matrix(rng)
        M = _frac_matrix(minus)
        conj = _conjugate(M, A)
        form2 = BilinearForm(B, [[QC(v) for v in row] for row in conj])
        assert normal_form(form2).invariants == base


def _random_invertible_parity_matrix(rng):
    d = B.dimension
    while True:
        A = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                if B.parity(i) == B.parity(j):
                    A[i][j] = Fraction(rng.randint(-2, 2))
        from weylalg.peierls import exact_rank

        if exact_rank(A) == d:
            return A


def test_normal_form_rejects_complex_and_nonsquare():
    f = BilinearForm.from_entries(B, {("q", "p"): QC(0, 1), ("p", "q"): QC(0, -1)})
    with pytest.raises(DomainError):
        normal_form(f)


def test_p_lambda_power_rejects_negative_counts():
    with pytest.raises(DomainError):
        p_lambda_power(Q, P, -1, STD)
