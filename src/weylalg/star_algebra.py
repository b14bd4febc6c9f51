"""The convergent star product and its symmetries, exact on polynomials.

The deformed product is mu o exp(z P) applied to a (x) b; on polynomial
elements the exponential terminates once the contraction count exceeds
either maximal degree, so everything here is a finite exact computation.
The induced Poisson bracket is 2 mu o P_minus and depends only on the
graded-antisymmetric part of the form; note the resulting factor 2 in
{q, p} = 2 for the Darboux pairing q p = 1 (the sharp map satisfies
2 v-sharp = phi for inner derivations, consistently).

``star``, ``poisson_bracket`` and ``equivalence_transform`` pack every
monomial into one Python int at entry and unpack once at exit
(``_kernels_py``): generator i's exponent sits in bits [W*i, W*(i+1)),
where W is the bit length of the largest exponent an output can reach
(the sum of the operands' largest for star and bracket, the operand's
largest for the equivalence), and a tensor-pair key is eA | eB << W*d.

On the exact backend the three operations also leave ``QC`` at entry:
the operands, the form entries and z become Python-int numerators over
one positive denominator each (``scalars.numerators``), a real part and,
only where some imaginary part is nonzero, an imaginary part.  The
monomial kernels run on those ints, at most four calls per contraction
step (real and imaginary parts of operand and form), and z^k/k! with the
form's denominator power is folded into one shared output denominator.
Each output coefficient is reduced by a gcd once, when it is built.  The
float backend runs the same loop on its complex coefficients over the
denominator 1, in the order of operations of the plain series, so its
values are that series' bit for bit.  Exact results are literal values,
independent of any evaluation order; every function is pure and
thread-safe.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernels_py as K
from . import scalars
from .basis import require_same_basis
from .bilinear_forms import BilinearForm, _laplace_entries, lambda_parts
from .errors import DomainError, ParityBlockError
from .graded_poly import Element, _accumulate


def star(a: Element, b: Element, z, form: BilinearForm) -> Element:
    """a * b deformed by the form: sum_k z^k/k! mu(P^k(a (x) b)).

    The sum is finite (k runs to the smaller maximal degree); the result
    is associative, unital and graded for every scalar z.
    """
    require_same_basis(a, b)
    require_same_basis(a, form)
    lay = K.product_layout(a.basis, a.terms, b.terms)
    da, xs = _parts(a.backend, K.pack(a.terms, lay))
    db, ys = _parts(a.backend, K.pack(b.terms, lay))
    dl, lam = _entry_parts(a.backend, form._entries)
    u = _bilinear(lambda x, y: K.tensor_terms(x, y, lay), xs, ys)
    steps = []
    while any(u):
        steps.append(tuple(K.mu_terms(t, lay) for t in u))
        u = _bilinear(lambda t, e: K.contract_terms(t, e, lay), u, lam)
    return _exp_sum(a, z, steps, da * db, dl, lay)


def star_hbar(a: Element, b: Element, hbar, form: BilinearForm) -> Element:
    """Physics convention: the star product at z = i*hbar/2 (hbar real)."""
    hbar = Fraction(hbar)
    z = scalars.from_rational(a.backend, 0, Fraction(hbar, 2))
    return star(a, b, z, form)


def poisson_bracket(a: Element, b: Element, form: BilinearForm) -> Element:
    """{a, b} = 2 mu(P_minus(a (x) b)); a graded biderivation satisfying Jacobi."""
    require_same_basis(a, b)
    require_same_basis(a, form)
    _, minus = lambda_parts(form)
    lay = K.product_layout(a.basis, a.terms, b.terms)
    da, xs = _parts(a.backend, K.pack(a.terms, lay))
    db, ys = _parts(a.backend, K.pack(b.terms, lay))
    dm, lam = _entry_parts(a.backend, minus._entries)
    u = _bilinear(lambda x, y: K.tensor_terms(x, y, lay), xs, ys)
    u = _bilinear(lambda t, e: K.contract_terms(t, e, lay), u, lam)
    steps = [tuple(K.mu_terms(t, lay) for t in u)]
    return _element(a, steps, [_scalar_parts(a.backend, 2)[1]], da * db * dm, lay)


def graded_commutator(a: Element, b: Element, z, form: BilinearForm) -> Element:
    """[a, b] = a*b - (-1)^{|a||b|} b*a, extended bilinearly to mixed parity."""
    require_same_basis(a, b)
    out = Element.zero(a.basis, a.backend)
    for pa, ah in enumerate(a.parity_split()):
        if not ah:
            continue
        for pb, bh in enumerate(b.parity_split()):
            if not bh:
                continue
            first = star(ah, bh, z, form)
            second = star(bh, ah, z, form)
            if pa and pb:
                out = out + first + second
            else:
                out = out + first - second
    return out


def equivalence_transform(a: Element, z, g: BilinearForm) -> Element:
    """exp(z Delta_g) a as the finite sum over k <= floor(deg/2).

    Intertwines the star products of two forms differing by the
    graded-symmetric g, whenever their antisymmetric parts agree.
    """
    require_same_basis(a, g)
    lay = K.Layout.of(a.basis, K.top_exponent(a.terms))
    da, cur = _parts(a.backend, K.pack(a.terms, lay))
    dg, gam = _entry_parts(a.backend, _laplace_entries(g))
    steps = []
    while any(cur):
        steps.append(cur)
        cur = _bilinear(lambda t, e: K.laplace_bulk(t, e, lay), cur, gam)
    return _exp_sum(a, z, steps, da, dg, lay)


# -- integer numerators on packed monomials --------------------------------
#
# A value is a tuple of its parts: (re,) when it is real, else (re, im).
# On the exact backend the parts hold Python ints, numerators over a
# denominator kept beside them; on the float backend a value is its one
# part of complex coefficients over the denominator 1.  Term maps are
# keyed by packed monomials (``_kernels_py``) from entry to exit.


def _parts(backend, values):
    """(denominator, parts) of a map of scalars (see ``scalars.numerators``)."""
    if backend == "exact":
        return scalars.numerators(values)
    return 1, (values,)


def _entry_parts(backend, entries):
    """(denominator, parts) of form entries (i, j, c), each part a list of entries."""
    den, parts = _parts(backend, {(i, j): c for i, j, c in entries})
    return den, tuple([(i, j, c) for (i, j), c in p.items()] for p in parts)


def _scalar_parts(backend, x):
    """(denominator, parts) of one scalar, each part a number."""
    den, parts = _parts(backend, {0: scalars.coerce(backend, x)})
    return den, tuple(p.get(0, 0) for p in parts)


def _bilinear(f, xs, ys):
    """The parts of f(x, y) for a bilinear f, from the parts of x and y.

    One call of f per pair of parts; an imaginary part that comes out
    zero is dropped, so real inputs stay on one part.
    """
    if len(xs) == 1 or len(ys) == 1:
        parts = [f(x, y) for x in xs for y in ys]
    else:
        (xr, xi), (yr, yi) = xs, ys
        parts = [_merge(f(xr, yr), f(xi, yi), -1), _merge(f(xr, yi), f(xi, yr), 1)]
    return tuple(parts if parts[-1] else parts[:1])


def _merge(terms, other, sign):
    """terms + sign * other, in place in ``terms``."""
    for key, c in other.items():
        _accumulate(terms, key, c if sign > 0 else -c)
    return terms


def _gauss_mul(x, y):
    """Product of two Gaussian integers given as (re,) or (re, im)."""
    if len(x) == 1 or len(y) == 1:
        return tuple(p * q for p in x for q in y)
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _exp_sum(a: Element, z, steps, den, step_den, lay) -> Element:
    """sum_k z^k/k! steps[k] / (den * step_den^k), an Element like a.

    On the exact backend, with z = Z/dz and n the last k, the k-th weight
    is the Gaussian integer Z^k (n!/k!) (dz step_den)^(n-k) over the one
    denominator den n! (dz step_den)^n.  On the float backend it is
    z^k * (1/k!) as the plain series computes it.
    """
    dz, zp = _scalar_parts(a.backend, z)
    weights = []
    if a.backend == "exact":
        s = dz * step_den
        scale = [1]
        for k in range(len(steps) - 1, 0, -1):
            scale.append(scale[-1] * k * s)
        scale.reverse()
        zk = (1,)
        for c in scale:
            weights.append(tuple(x * c for x in zk))
            zk = _gauss_mul(zk, zp)
        den *= scale[0]
    else:
        zk = scalars.one(a.backend)
        for k in range(len(steps)):
            weights.append((scalars.mul_rat(a.backend, zk, Fraction(1, math.factorial(k))),))
            zk = zk * zp[0]
    return _element(a, steps, weights, den, lay)


def _element(a: Element, steps, weights, den, lay) -> Element:
    """The Element sum_k weights[k] steps[k] / den over a's basis and backend.

    Terms accumulate in step order on packed monomials, unpacked once at
    the end; on the exact backend each coefficient becomes a ``QC`` once.
    """
    out = ({}, {})
    for parts, w in zip(steps, weights):
        for q, wq in enumerate(w):
            if not wq:
                continue
            for p, part in enumerate(parts):
                target = out[(p + q) & 1]
                cw = -wq if p & q else wq
                for e, c in part.items():
                    _accumulate(target, e, c * cw)
    terms = scalars.from_numerators(den, *out) if a.backend == "exact" else out[0]
    return Element(a.basis, a.backend, K.unpack(terms, lay))


def translate(a: Element, phi) -> Element:
    """Pull-back by the translation v -> v + phi(v) 1, for even phi.

    ``phi`` maps generator names to scalars and must vanish on odd
    generators.  A group action: composing translations adds the
    functionals, and each translation is a unital algebra automorphism
    commuting with every star product of a translation-invariant form.
    """
    b = a.basis
    shifts = {}
    for name, v in phi.items():
        i = b.index(name)
        v = scalars.coerce(a.backend, v)
        if not v:
            continue
        if not b.is_even(i):
            raise DomainError(f"translation functional hits odd generator {name!r}")
        shifts[i] = v
    if not shifts:
        return a
    out = Element.zero(b, a.backend)
    for e, c in a.terms.items():
        expansion = {tuple(e): c}
        for i, v in shifts.items():
            k = e[i]
            if not k:
                continue
            new_expansion = {}
            for ee, cc in expansion.items():
                for j in range(k + 1):
                    factor = scalars.mul_rat(a.backend, v ** (k - j), math.comb(k, j))
                    e2 = ee[:i] + (j,) + ee[i + 1 :]
                    prev = new_expansion.get(e2)
                    new_expansion[e2] = (
                        cc * factor if prev is None else prev + cc * factor
                    )
            expansion = new_expansion
        for ee, cc in expansion.items():
            _accumulate(out.terms, ee, cc)
    return out


def derivation_X(a: Element, phi) -> Element:
    """The graded derivation extending the functional phi on generators.

    ``phi`` must be parity-homogeneous (supported on even generators or
    on odd generators, not both).  When phi = 2 v-sharp it equals the
    Poisson bracket {v, .}.
    """
    b = a.basis
    supp = {}
    for name, v in phi.items():
        v = scalars.coerce(a.backend, v)
        if v:
            supp[b.index(name)] = v
    if not supp:
        return Element.zero(b, a.backend)
    parities = {b.parity(i) for i in supp}
    if len(parities) > 1:
        raise DomainError("derivation functional must be parity-homogeneous")
    phi_odd = parities.pop() == 1
    out = Element.zero(b, a.backend)
    for e, c in a.terms.items():
        for i, v in supp.items():
            k = e[i]
            if not k:
                continue
            if phi_odd:
                below = sum(
                    1 for x in range(i) if e[x] and not b.is_even(x)
                )
                weight = -1 if below & 1 else 1
            else:
                weight = k
            e2 = e[:i] + (k - 1,) + e[i + 1 :]
            _accumulate(out.terms, e2, c * v * weight)
    return out


def apply_linear(a: Element, A) -> Element:
    """Unital homomorphism extending a parity-preserving linear map.

    ``A`` is a matrix over the generator basis: entry (r, c) is the
    coefficient of generator r in the image of generator c.  When the map
    is a Poisson map between two forms it intertwines their star products.
    """
    b = a.basis
    rows = [list(r) for r in A]
    if len(rows) != b.dimension or any(len(r) != b.dimension for r in rows):
        raise DomainError("map matrix has wrong shape")
    images = []
    for c in range(b.dimension):
        img = Element.zero(b, a.backend)
        for r in range(b.dimension):
            v = scalars.coerce(a.backend, rows[r][c])
            if not v:
                continue
            if b.parity(r) != b.parity(c):
                raise ParityBlockError("the linear map does not preserve parity")
            img = img + Element.generator(b, b.names[r], a.backend).scale(v)
        images.append(img)
    out = Element.zero(b, a.backend)
    for e, coeff in a.terms.items():
        term = Element.one(b, a.backend).scale(coeff)
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * images[i]
        out = out + term
    return out


def check_star_involution(form: BilinearForm, hbar):
    """Does complex conjugation invert the star product at z = i*hbar/2?

    The criterion is entrywise: the graded-symmetric part must be purely
    imaginary and the graded-antisymmetric part real.  Generators are
    treated as real vectors (conjugation fixes them and conjugates
    coefficients); forms given over a holomorphic basis must be expressed
    in real coordinates first.  Returns a dict with ``holds`` and the
    offending entries.
    """
    hbar = Fraction(hbar)
    if hbar == 0:
        raise DomainError("hbar must be nonzero")
    plus, minus = lambda_parts(form)
    names = form.basis.names
    violations = []
    d = form.basis.dimension
    for i in range(d):
        for j in range(d):
            p = plus.matrix[i][j]
            if p.conjugate() != -p:
                violations.append(
                    {"part": "plus", "pair": (names[i], names[j]), "value": repr(p)}
                )
            m = minus.matrix[i][j]
            if m.conjugate() != m:
                violations.append(
                    {"part": "minus", "pair": (names[i], names[j]), "value": repr(m)}
                )
    return {"holds": not violations, "violations": violations}


def conjugation_is_involution(a: Element, b: Element, hbar, form: BilinearForm) -> bool:
    """Brute-force test of conj(a * b) = (-1)^{|a||b|} conj(b) * conj(a).

    Mixed-parity inputs are split into homogeneous parts first.
    """
    for pa, ah in enumerate(a.parity_split()):
        if not ah:
            continue
        for pb, bh in enumerate(b.parity_split()):
            if not bh:
                continue
            lhs = star_hbar(ah, bh, hbar, form).conjugate()
            rhs = star_hbar(bh.conjugate(), ah.conjugate(), hbar, form)
            if pa and pb:
                rhs = -rhs
            if lhs != rhs:
                return False
    return True
