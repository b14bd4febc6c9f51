"""Independent brute-force oracles used to pin expected values.

Everything here works on ordered tensors (dicts keyed by index tuples)
with explicit permutation sums, kept deliberately separate from the
package's canonical-monomial representation and its kernels.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from weylalg import scalars
from weylalg.errors import DomainError
from weylalg.graded_poly import Element
from weylalg.peierls import LatticeSection
from weylalg.scalars import QC
from weylalg.seminorm_calculus import _fact_pow_float, _require_normal_floats, _to_float_element
from weylalg.star_algebra import star


def sign_formula(parities, sigma) -> Fraction:
    """The literal graded-sign product formula, positions 1-based.

    sign(v; sigma) = prod_{i<j} (sigma(i) + (-1)^{v_{sigma(i)} v_{sigma(j)}} sigma(j))
                              / (i + (-1)^{v_i v_j} j)
    """
    n = len(parities)
    num = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            si, sj = sigma[i] + 1, sigma[j] + 1
            s_top = (-1) ** (parities[sigma[i]] * parities[sigma[j]])
            s_bot = (-1) ** (parities[i] * parities[j])
            num *= Fraction(si + s_top * sj, (i + 1) + s_bot * (j + 1))
    return num


def sign_by_transpositions(parities, sigma) -> int:
    """Koszul sign via adjacent transpositions (independent route)."""
    perm = list(sigma)
    labels = list(range(len(perm)))
    sign = 1
    # bubble-sort perm back to identity, tracking swapped elements' parities
    arr = [parities[k] for k in perm]
    order = list(perm)
    for i in range(len(order)):
        for j in range(len(order) - 1 - i):
            if order[j] > order[j + 1]:
                if arr[j] and arr[j + 1]:
                    sign = -sign
                order[j], order[j + 1] = order[j + 1], order[j]
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    del labels
    return sign


def tensor_right_action(tup, sigma, basis):
    """(v_1 (x) ... (x) v_n) <| sigma with its graded sign."""
    parities = [basis.parity(i) for i in tup]
    s = sign_formula(parities, sigma)
    moved = tuple(tup[sigma[k]] for k in range(len(tup)))
    return moved, s


def symmetrize(tensor, basis):
    """Average of the right action over the full symmetric group."""
    out = {}
    for tup, c in tensor.items():
        n = len(tup)
        for sigma in itertools.permutations(range(n)):
            moved, s = tensor_right_action(tup, sigma, basis)
            coeff = c * QC(s * Fraction(1, math.factorial(n)))
            prev = out.get(moved)
            tot = coeff if prev is None else prev + coeff
            if tot == QC(0):
                out.pop(moved, None)
            else:
                out[moved] = tot
    return out


def canonical_sign(tup, basis):
    """Sign for sorting a tuple ascending (odd-odd inversions flip)."""
    odd = [i for i in tup if not basis.is_even(i)]
    inv = sum(
        1
        for a in range(len(odd))
        for b in range(a + 1, len(odd))
        if odd[a] > odd[b]
    )
    return -1 if inv & 1 else 1


def tensor_to_element(tensor, basis, backend="exact") -> Element:
    """Project an ordered tensor onto the canonical monomial basis."""
    out = Element.zero(basis, backend)
    for tup, c in tensor.items():
        if any(not basis.is_even(i) for i in tup):
            counts = {}
            dup = False
            for i in tup:
                if not basis.is_even(i):
                    counts[i] = counts.get(i, 0) + 1
                    if counts[i] > 1:
                        dup = True
            if dup:
                continue
        exps = [0] * basis.dimension
        for i in tup:
            exps[i] += 1
        s = canonical_sign(tup, basis)
        coeff = c if s > 0 else -c
        out = out + Element(basis, backend, {tuple(exps): coeff})
    return out


def element_to_tensor(a: Element):
    """Each monomial as its canonical ordered tuple (no symmetrization).

    Composing with ``symmetrize`` gives the honest symmetric tensor; for
    projections back through ``tensor_to_element`` the plain tuple is
    already enough because the projection absorbs the symmetrizer.
    """
    out = {}
    for e, c in a.terms.items():
        tup = []
        for i, k in enumerate(e):
            tup.extend([i] * k)
        out[tuple(tup)] = c
    return out


def product_oracle(a: Element, b: Element) -> Element:
    """Graded product via plain tensor concatenation and projection."""
    ta, tb = element_to_tensor(a), element_to_tensor(b)
    out = {}
    for t1, c1 in ta.items():
        for t2, c2 in tb.items():
            key = t1 + t2
            prev = out.get(key)
            c = c1 * c2
            out[key] = c if prev is None else prev + c
    return tensor_to_element(out, a.basis, a.backend)


def plain_product(t1, t2, basis):
    """Graded product of two {exponent tuple: coefficient} maps as a plain loop.

    Pairs are visited first factor outer, second inner, and each sum is
    taken in that order; a product with a repeated odd generator is
    skipped, and the Koszul sign counts the odd generators of the second
    factor that must move past odd generators of the first.
    """
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            if any(e1[i] and e2[i] for i in range(basis.dimension) if not basis.is_even(i)):
                continue
            moves = sum(
                1
                for j in range(basis.dimension)
                if e2[j] and not basis.is_even(j)
                for i in range(j + 1, basis.dimension)
                if e1[i] and not basis.is_even(i)
            )
            c = c1 * c2
            if moves & 1:
                c = -c
            key = tuple(x + y for x, y in zip(e1, e2))
            if key in out:
                s = out[key] + c
                if s:
                    out[key] = s
                else:
                    del out[key]
            else:
                out[key] = c
    return out


def _add_into(out, key, c):
    """out[key] += c, never storing a zero."""
    if key not in out:
        if c:
            out[key] = c
        return
    s = out[key] + c
    if s:
        out[key] = s
    else:
        del out[key]


def translate_oracle(a: Element, phi) -> Element:
    """The pull-back by v -> v + phi(v) 1 as a binomial loop on QC or complex.

    Each term expands generator by generator, x^k = sum_j C(k, j) v^(k-j) x^j,
    with the factor v^(k-j) * C(k, j) built per term, as the plain loop
    on scalars computes it.
    """
    b, exact = a.basis, a.backend == "exact"
    shifts = {}
    for name, v in phi.items():
        v = QC(v) if exact else complex(v)
        if v:
            shifts[b.index(name)] = v
    out = {}
    for e, c in a.terms.items():
        expansion = {e: c}
        for i, v in shifts.items():
            k = e[i]
            if not k:
                continue
            grown = {}
            for ee, cc in expansion.items():
                for j in range(k + 1):
                    comb = math.comb(k, j)
                    factor = v ** (k - j) * (Fraction(comb) if exact else float(comb))
                    grown[ee[:i] + (j,) + ee[i + 1 :]] = cc * factor
            expansion = grown
        for ee, cc in expansion.items():
            _add_into(out, ee, cc)
    return Element(b, a.backend, out)


def conjugation_orders_oracle(w: Element, v: Element, z, form, order):
    """The orders sum_{l+m=r} (-1)^m/(l! m!) (w^{*l} * v) * w^{*m} of Exp(w) * v * Exp(-w).

    Every piece is two direct star products, the second against the
    degree-m power w^{*m}, and each order is a plain sum of scaled pieces.
    """
    powers = [Element.one(w.basis, w.backend)]
    for _ in range(order):
        powers.append(star(powers[-1], w, z, form))
    orders = []
    for r in range(order + 1):
        term = Element.zero(w.basis, w.backend)
        for l in range(r + 1):
            m = r - l
            piece = star(star(powers[l], v, z, form), powers[m], z, form)
            term = term + piece.scale(Fraction((-1) ** m, math.factorial(l) * math.factorial(m)))
        orders.append(term)
    return orders


def truncated_star_oracle(A, B, z, form, order, budget=None):
    """The degree 0..order parts of the sum of star(A_k, B_l) over the consulted k, l."""
    cap = max(A.order, B.order) if budget is None else order + budget
    total = Element.zero(A.basis, A.backend)
    for ak in A.components[: min(A.order, cap) + 1]:
        for bl in B.components[: min(B.order, cap) + 1]:
            total = total + star(ak, bl, z, form)
    return [total.grade_component(n) for n in range(order + 1)]


def degree_terms_oracle(a: Element, p, R):
    """Degree n -> n!^R pn(a, n) for an exact element and an integer R.

    pn(a, n) is the per-term definition: |c| times ``p.monomial_weight``
    of its monomial, summed over the degree-n terms, one Fraction per term.
    """
    pn = {}
    for e, c in a.terms.items():
        m = scalars.abs_exact(c)
        if m is None:
            raise DomainError("coefficient magnitude is irrational")
        n = sum(e)
        pn[n] = pn.get(n, Fraction(0)) + m * p.monomial_weight(e)
    return {n: Fraction(math.factorial(n)) ** R * v for n, v in pn.items()}


def c_prime_oracle(zmag: Fraction, R: int) -> Fraction:
    """The product estimate's c' as the 41-term Fraction sum of its proof branch."""
    r, two = R, Fraction(2)
    if R <= 1 and zmag >= 1:
        terms = (1 / (zmag**k * math.factorial(k) ** (2 * r - 1) * two ** (2 * r * k)) for k in range(41))
    elif R <= 1:
        terms = (zmag**k * two ** (-2 * r * k) / math.factorial(k) ** (2 * r - 1) for k in range(41))
    else:
        terms = (zmag**k * two ** (-2 * r * k) / math.factorial(k) for k in range(41))
    return sum(terms, Fraction(0))


def estimate_sides_oracle(a: Element, b: Element, result: Element, p, sigma, R, z=None):
    """(lhs, rhs) of the product estimate (with z) or the bracket estimate
    (without), as 61-digit (about 200-bit) Decimals.

    A term-by-term route in decimal arithmetic: every coefficient's modulus
    by ``Decimal.sqrt``, n!^R, 2^R, |z|^k and k!^(2R-1) by ``Decimal``
    powers, and c' as the 41 terms of its proof branch, for the seminorm p
    scaled by ``sigma``.
    """
    with localcontext() as ctx:
        ctx.prec = 61

        def dec(q):
            q = Fraction(q)
            return Decimal(q.numerator) / Decimal(q.denominator)

        r = dec(R)

        def p_R(x: Element, scale):
            total = Decimal(0)
            for e, c in x.terms.items():
                term = dec(c.abs2()).sqrt() * dec(math.factorial(sum(e))) ** r
                for w, k in zip(p.weights, e):
                    term *= (scale * dec(w)) ** k
                total += term
            return total

        if z is None:
            return p_R(result, dec(sigma)), p_R(a, 2 ** (r + 1) * dec(sigma)) * p_R(
                b, 2 ** (r + 1) * dec(sigma)
            )
        zmag, four_r = dec(z.abs2()).sqrt(), 4**r
        if R > 1:
            terms = [zmag**k / four_r**k / math.factorial(k) for k in range(41)]
        elif zmag < 1:
            terms = [zmag**k / four_r**k / dec(math.factorial(k)) ** (2 * r - 1) for k in range(41)]
        else:
            terms = [1 / (zmag**k * dec(math.factorial(k)) ** (2 * r - 1) * four_r**k) for k in range(41)]
        c = max(2 * zmag, Decimal(2), 2**r) * dec(sigma)
        return p_R(result, dec(sigma)), sum(terms) * p_R(a, c) * p_R(b, c)


def star_exp_oracle(w: Element, t, z, form, order):
    """The star-exponential's components by the double sum
    sum_{n+2j<=order} t^(n+2j) h^j/(n! j!) w^n, h = z form(w, w)/2."""
    backend = w.backend
    t, z = scalars.coerce(backend, t), scalars.coerce(backend, z)
    h = scalars.mul_rat(backend, z * form.apply(w, w), Fraction(1, 2))
    comps = []
    power = Element.one(w.basis, backend)
    for n in range(order + 1):
        if n:
            power = power * w
        coeff = scalars.zero(backend)
        for j in range((order - n) // 2 + 1):
            weight = Fraction(1, math.factorial(n) * math.factorial(j))
            coeff = coeff + scalars.mul_rat(backend, t ** (n + 2 * j) * h**j, weight)
        comps.append(power.scale(coeff))
    return comps


def exp_series_oracle(v: Element, order):
    """The components of ``exp_element`` by the plain loop: power = power * v,
    then power.scale(1/n!), with the float refusal checks per degree."""
    floats = v.backend == "float"
    nilpotent = v.parity() == 1
    comps = [Element.one(v.basis, v.backend)]
    power = Element.one(v.basis, v.backend)
    for n in range(1, order + 1):
        power = power * v
        if not power and (nilpotent or not floats):
            comps.extend(Element.zero(v.basis, v.backend) for _ in range(n, order + 1))
            break
        comp = power.scale(Fraction(1, math.factorial(n)))
        if floats:
            _require_normal_floats(comp, len(comps[-1].terms), f"exp degree {n}")
        comps.append(comp)
    return comps


def f_epsilon_series_oracle(v: Element, eps, order):
    """The components of ``f_epsilon_series`` by the plain loop: power = power * v,
    then power.scale(1/n!^eps), with the float refusal checks per degree."""
    eps_f = Fraction(eps)
    exact_ok = eps_f.denominator == 1 and v.backend == "exact"
    if not exact_ok:
        v = _to_float_element(v)
    comps = [Element.one(v.basis, v.backend)]
    power = Element.one(v.basis, v.backend)
    for n in range(1, order + 1):
        power = power * v
        if exact_ok:
            comps.append(power.scale(Fraction(1, math.factorial(n) ** eps_f.numerator)))
        else:
            comp = power.scale(complex(_fact_pow_float(n, -float(eps_f)), 0))
            _require_normal_floats(comp, len(comps[-1].terms), f"f_eps degree {n}")
            comps.append(comp)
    return comps


def star_exp_loop_oracle(w: Element, t, z, form, order):
    """The components of ``star_exp`` by the plain loop: power = power * w, then
    power.scale((t^n/n!) E_m(t^2 h)), with the same scalar recurrences."""
    backend = w.backend
    t, z = scalars.coerce(backend, t), scalars.coerce(backend, z)
    y = t * t * scalars.mul_rat(backend, z * form.apply(w, w), Fraction(1, 2))
    partial = [scalars.one(backend)]
    term = partial[0]
    for j in range(1, order // 2 + 1):
        term = scalars.mul_rat(backend, term * y, Fraction(1, j))
        partial.append(partial[-1] + term)
    comps = []
    power = Element.one(w.basis, backend)
    tn = scalars.one(backend)
    for n in range(order + 1):
        if n:
            power = power * w
            tn = scalars.mul_rat(backend, tn * t, Fraction(1, n))
        comps.append(power.scale(tn * partial[(order - n) // 2]))
    return comps


def bilinear_oracle(f, xs, ys):
    """The parts of f(x, y) by the four-call complex product: f(xr, yr) - f(xi, yi)
    and f(xr, yi) + f(xi, yr), an imaginary part that comes out empty dropped."""
    if len(xs) == 1 or len(ys) == 1:
        parts = [f(x, y) for x in xs for y in ys]
    else:
        (xr, xi), (yr, yi) = xs, ys
        re, im = f(xr, yr), f(xr, yi)
        for key, c in f(xi, yi).items():
            _add_into(re, key, -c)
        for key, c in f(xi, yr).items():
            _add_into(im, key, c)
        parts = [re, im]
    return tuple(parts if parts[-1] else parts[:1])


def apply_linear_oracle(a: Element, A) -> Element:
    """The unital homomorphism of the matrix A as a left fold on QC or complex.

    Each term starts from one * coefficient and is multiplied by the
    image of one generator per unit of exponent (``plain_product``); the
    image of generator c is sum_r A[r][c] * (one * generator r).
    """
    b, exact = a.basis, a.backend == "exact"
    one = QC(1) if exact else 1 + 0j
    d = b.dimension
    images = []
    for c in range(d):
        img = {}
        for r in range(d):
            v = QC(A[r][c]) if exact else complex(A[r][c])
            if v:
                img[tuple(int(i == r) for i in range(d))] = one * v
        images.append(img)
    out = {}
    for e, coeff in a.terms.items():
        if not coeff:
            continue
        term = {(0,) * d: one * coeff}
        for i, k in enumerate(e):
            for _ in range(k):
                term = plain_product(term, images[i], b)
        for key, c in term.items():
            _add_into(out, key, c)
    return Element(b, a.backend, out)


def poisson_map_oracle(A, form_v, form_w) -> bool:
    """form_w(A v, A v') == form_v(v, v') on all generator pairs, summed on QC."""
    dv, dw = form_v.basis.dimension, form_w.basis.dimension
    for c1 in range(dv):
        for c2 in range(dv):
            total = QC(0)
            for r1 in range(dw):
                for r2 in range(dw):
                    total = total + QC(A[r1][c1]) * QC(A[r2][c2]) * QC(form_w.matrix[r1][r2])
            if total != form_v.matrix[c1][c2]:
                return False
    return True


def tilde_contract(pair_tensor, form, basis):
    """The contraction on ordered tensor pairs, signs written out."""
    out = {}
    for (ta, tb), c in pair_tensor.items():
        for k in range(len(ta)):
            for ell in range(len(tb)):
                lam = form.matrix[ta[k]][tb[ell]]
                if lam == QC(0):
                    continue
                sa = sum(1 for x in ta[k + 1 :] if not basis.is_even(x))
                sb = sum(1 for x in tb[:ell] if not basis.is_even(x))
                sign = 1
                if not basis.is_even(ta[k]):
                    sign *= (-1) ** sa
                if not basis.is_even(tb[ell]):
                    sign *= (-1) ** sb
                key = (ta[:k] + ta[k + 1 :], tb[:ell] + tb[ell + 1 :])
                contrib = c * lam * sign
                prev = out.get(key)
                tot = contrib if prev is None else prev + contrib
                if tot == QC(0):
                    out.pop(key, None)
                else:
                    out[key] = tot
    return out


def pair_tensor_of(a: Element, b: Element):
    out = {}
    ta, tb = element_to_tensor(a), element_to_tensor(b)
    for t1, c1 in ta.items():
        for t2, c2 in tb.items():
            out[(t1, t2)] = c1 * c2
    return out


def pair_tensor_to_pairdict(pair_tensor, basis, backend="exact"):
    """Canonicalize both legs of an ordered tensor pair, with signs."""
    from weylalg.bilinear_forms import TensorPair

    terms = {}
    for (ta, tb), c in pair_tensor.items():
        ea = _tuple_to_exps(ta, basis)
        eb = _tuple_to_exps(tb, basis)
        if ea is None or eb is None:
            continue
        s = canonical_sign(ta, basis) * canonical_sign(tb, basis)
        coeff = c if s > 0 else -c
        key = (ea, eb)
        prev = terms.get(key)
        tot = coeff if prev is None else prev + coeff
        if tot == QC(0):
            terms.pop(key, None)
        else:
            terms[key] = tot
    return TensorPair(basis, backend, terms)


def _tuple_to_exps(tup, basis):
    exps = [0] * basis.dimension
    for i in tup:
        exps[i] += 1
        if exps[i] > 1 and not basis.is_even(i):
            return None
    return tuple(exps)


def tilde_laplace(tensor, g, basis):
    """Second-order contraction on ordered tensors, signs written out."""
    out = {}
    for tup, c in tensor.items():
        n = len(tup)
        for i in range(n):
            for j in range(i + 1, n):
                val = g.matrix[tup[i]][tup[j]]
                if val == QC(0):
                    continue
                sign = 1
                if not basis.is_even(tup[i]):
                    before_i = sum(1 for x in tup[:i] if not basis.is_even(x))
                    sign *= (-1) ** before_i
                if not basis.is_even(tup[j]):
                    before_j = sum(
                        1
                        for idx, x in enumerate(tup[:j])
                        if idx != i and not basis.is_even(x)
                    )
                    sign *= (-1) ** before_j
                key = tup[:i] + tup[i + 1 : j] + tup[j + 1 :]
                contrib = c * val * sign
                prev = out.get(key)
                tot = contrib if prev is None else prev + contrib
                if tot == QC(0):
                    out.pop(key, None)
                else:
                    out[key] = tot
    return out


def leapfrog_green(st, phi, direction):
    """Green operator of the lattice wave operator by a plain dense leapfrog.

    ``direction`` +1 gives the retarded solution of D u = phi (zero below
    the source), -1 the advanced one (zero above it).  D u = phi at (t, x),
    solved for u at t + direction, is written out here on its own.
    """
    T, N, m2 = st.T, st.N, st.m2
    u = [[Fraction(0)] * N for _ in range(T)]
    for t in range(1, T - 1) if direction > 0 else range(T - 2, 0, -1):
        ahead, behind, row = u[t + direction], u[t - direction], u[t]
        for x in range(N):
            ahead[x] = (
                phi[(t, x)] - behind[x] + row[(x + 1) % N] + row[(x - 1) % N] - m2 * row[x]
            )
    return LatticeSection({(t, x): v for t, row in enumerate(u) for x, v in enumerate(row) if v})
