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
monomial kernels run on those ints, at most three calls per contraction
step (``graded_poly._bilinear`` takes a complex tensor against a complex
form as Gauss's three-multiplication product), and z^k/k! with the
form's denominator power is folded into one shared output denominator.
Each output coefficient is reduced by a gcd once, when it is built.

``translate``, ``apply_linear`` and ``Element.__mul__`` cross the same
boundary.  ``translate`` keeps the binomial expansion x^k = sum_j
C(k, j) v^(k-j) x^j; with the shifts v = V/dv over one denominator its
weights are the Gaussian integers C(k, j) V^(k-j) dv^j over dv^k, and
each term is padded to the largest shifted degree.  ``apply_linear``
folds each term left to right with the generator images, as numerator
maps over one denominator dm, and pads a term of degree k by
dm^(top - k).

The contraction loop itself is ``_chain``: the packed numerator parts
(den, parts) of a tensor-pair map over one ``Layout`` in, packed parts
out, no ``Element`` built.  It drops the form entries that pair a
generator absent from every left operand or from every right one.
``_star_parts`` is the tensor step of two operands, then ``_chain``;
``star`` is pack, ``_star_parts``, unpack.  ``inner_translation_check``
packs once, feeds each order to the next as its commutator with w and
adds the two products with ``_sum_parts`` over one lcm denominator.
``truncated_star`` packs once, merges the tensor products of all pairs
(k, l) of one total degree k + l over one lcm denominator and runs one
``_chain`` per degree, from the first step that can reach the output;
the chains are added with ``_sum_parts``.  Both unpack only what they
return.

The float backend runs the same loops on its complex coefficients over
the denominator 1, in the order of operations of the plain series and
loops (the factor v^(k-j) * C(k, j) per power, the fold from
one * coefficient), so its values are theirs bit for bit.
``truncated_star`` sums the pairs of one degree before contracting, so
its float values round differently from the plain sum of products.  Exact
results are literal values, independent of any evaluation order; every
function is pure and thread-safe.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernels_py as K
from . import scalars
from .basis import require_same_basis
from .bilinear_forms import BilinearForm, _laplace_entries, lambda_parts
from .errors import DomainError, ParityBlockError
from .graded_poly import Element, _accumulate, _bilinear, _from_parts, _part_sum, _parts


def star(a: Element, b: Element, z, form: BilinearForm) -> Element:
    """a * b deformed by the form: sum_k z^k/k! mu(P^k(a (x) b)).

    The sum is finite (k runs to the smaller maximal degree); the result
    is associative, unital and graded for every scalar z.
    """
    require_same_basis(a, b)
    require_same_basis(a, form)
    lay = K.product_layout(a.basis, a.terms, b.terms)
    x = _parts(a.backend, K.pack(a.terms, lay))
    y = _parts(a.backend, K.pack(b.terms, lay))
    lam = _entry_parts(a.backend, form._entries)
    return _from_parts(a, *_star_parts(a.backend, x, y, lam, z, lay), lay)


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
    return _from_parts(a, da * db * dm, _weighted(steps, [_scalar_parts(a.backend, 2)[1]]), lay)


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
    gsum = _part_sum(gam)
    while any(cur):
        steps.append(cur)
        cur = _bilinear(lambda t, e: K.laplace_bulk(t, e, lay), cur, gam, gsum)
    return _from_parts(a, *_exp_sum(a.backend, z, steps, da, dg), lay)


# -- integer numerators on packed monomials (see ``graded_poly._parts``) ---


def _entry_parts(backend, entries):
    """(denominator, parts) of form entries (i, j, c), each part a list of entries."""
    den, parts = _parts(backend, {(i, j): c for i, j, c in entries})
    return den, tuple([(i, j, c) for (i, j), c in p.items()] for p in parts)


def _scalar_parts(backend, x):
    """(denominator, parts) of one scalar, each part a number."""
    den, parts = _parts(backend, {0: scalars.coerce(backend, x)})
    return den, tuple(p.get(0, 0) for p in parts)


def _gauss_mul(x, y):
    """Product of two Gaussian integers given as (re,) or (re, im)."""
    if len(x) == 1 or len(y) == 1:
        return tuple(p * q for p in x for q in y)
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _star_parts(backend, x, y, lam, z, lay):
    """The (den, parts) of x * y deformed by the form, packed over ``lay``.

    x and y are the (den, parts) of two operands, ``lam`` the form's
    ``_entry_parts`` and z the scalar; ``lay`` must hold the exponents of
    the product.  ``star`` and the series chains, which keep the output
    as the next operand, share it: the tensor step, then ``_chain``.
    """
    return _chain(backend, _tensor(x, y, lay), x[1], y[1], lam, z, lay)


def _tensor(x, y, lay):
    """The (den, parts) of the tensor-pair map x (x) y, from those of x and y."""
    (dx, xs), (dy, ys) = x, y
    return dx * dy, _bilinear(lambda s, t: K.tensor_terms(s, t, lay), xs, ys)


def _support(parts):
    """The bitwise or of the packed monomials in a list of parts: field i
    is nonzero exactly when generator i occurs in one of them."""
    sup = 0
    for part in parts:
        for e in part:
            sup |= e
    return sup


def _chain(backend, u, left, right, lam, z, lay, first=0):
    """(den, parts) of sum_k z^k/k! mu(P^k u) over k >= first, u = (den, parts).

    This is the package's one contraction loop.  ``left`` and ``right``
    list the parts of the left and right operands whose tensor products u
    holds.  A form entry (i, j) with generator i in no left operand or j
    in no right operand contracts nothing, so it is dropped before the
    loop (contractions only lower exponents).  The steps k < first are
    contracted through but left out of the sum.
    """
    (du, u), (dl, entries) = u, lam
    if any(u):
        fm, shifts = lay.fmask, lay.shifts
        left, right = _support(left), _support(right)
        entries = [
            [(i, j, c) for i, j, c in part if left >> shifts[i] & fm and right >> shifts[j] & fm]
            for part in entries
        ]
        if len(entries) > 1 and not entries[1]:
            del entries[1]
    esum = _part_sum(entries)
    steps = []
    while any(u):
        steps.append(tuple(K.mu_terms(t, lay) for t in u) if len(steps) >= first else ())
        u = _bilinear(lambda t, e: K.contract_terms(t, e, lay), u, entries, esum)
    return _exp_sum(backend, z, steps, du, dl)


def _exp_sum(backend, z, steps, den, step_den):
    """(den, parts) of sum_k z^k/k! steps[k] / (den * step_den^k).

    On the exact backend, with z = Z/dz and n the last k, the k-th weight
    is the Gaussian integer Z^k (n!/k!) (dz step_den)^(n-k) over the one
    denominator den n! (dz step_den)^n.  On the float backend it is
    z^k * (1/k!) as the plain series computes it.
    """
    dz, zp = _scalar_parts(backend, z)
    weights = []
    if backend == "exact":
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
        zk = scalars.one(backend)
        for k in range(len(steps)):
            weights.append((zk * (1 / math.factorial(k)),))
            zk = zk * zp[0]
    return den, _weighted(steps, weights)


def _sum_parts(backend, items):
    """(den, parts) of sum q x over a list of (q, x): rationals q, (den, parts) x.

    On the exact backend the terms go over the one denominator
    lcm(den q.denominator); on the float backend c * q accumulates in item
    order.
    """
    if backend == "exact":
        items = [(Fraction(q), x) for q, x in items]
        den = math.lcm(*(d * q.denominator for q, (d, _) in items))
        weights = [(q.numerator * (den // (d * q.denominator)),) for q, (d, _) in items]
    else:
        den = 1
        weights = [(scalars.coerce(backend, q),) for q, _ in items]
    return den, _weighted([p for _, (_, p) in items], weights)


def _weighted(steps, weights):
    """The parts of sum_k weights[k] steps[k], for parts of values and weights.

    Terms accumulate in step order; an imaginary part that comes out
    empty is dropped, so the result can be the next product's operand.
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
    return out if out[1] else out[:1]


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
    lay = K.Layout.of(b, K.top_exponent(a.terms))
    packed = K.pack(a.terms, lay)
    da, xs = _parts(a.backend, packed)
    dv, vs = _parts(a.backend, shifts)
    fm = lay.fmask
    spans = [(lay.shifts[i], tuple(p.get(i, 0) for p in vs)) for i in shifts]
    exact = a.backend == "exact"
    # the largest shifted degree: every term is padded to dv^top
    top = max((sum(e >> s & fm for s, _ in spans) for e in packed), default=0)
    weights = {}
    out = ({}, {})
    for e in packed:
        powers = [(s, v, k) for s, v in spans if (k := e >> s & fm)]
        g = tuple(x.get(e, 0) for x in xs)
        if exact:
            pad = dv ** (top - sum(k for _, _, k in powers))
            g = tuple(x * pad for x in g)
        expansion = {e: g}
        for s, v, k in powers:
            ws = weights.get((s, k))
            if ws is None:
                ws = weights[s, k] = _binomial_weights(a.backend, v, dv, k, s)
            expansion = {
                ee - dk: _gauss_mul(gg, w) for ee, gg in expansion.items() for dk, w in ws
            }
        for ee, gg in expansion.items():
            for target, x in zip(out, gg):
                _accumulate(target, ee, x)
    return _from_parts(a, da * dv**top, out, lay)


def _binomial_weights(backend, v, dv, k, shift):
    """x^k = sum_j C(k, j) v^(k-j) x^j for the shift v of one generator.

    Returns the pairs (packed decrement x^k -> x^j, weight), j ascending.
    On the exact backend, with v = V/dv, the weight is the Gaussian
    integer C(k, j) V^(k-j) dv^j over dv^k; on the float backend it is
    v^(k-j) * C(k, j) as the plain expansion computes it.
    """
    out = []
    vk = (1,)
    for j in range(k, -1, -1):
        if backend == "exact":
            w = tuple(math.comb(k, j) * dv**j * x for x in vk)
            vk = _gauss_mul(vk, v)
        else:
            w = (scalars.mul_rat(backend, v[0] ** (k - j), math.comb(k, j)),)
        out.append(((k - j) << shift, w))
    return out[::-1]


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
    # each term is padded to the denominator dm^top of the top degree
    top = max(map(sum, a.terms), default=0)
    lay = K.Layout.of(b, top)
    one = scalars.one(a.backend)
    exact = a.backend == "exact"
    entries = {}
    for c in range(b.dimension):
        for r in range(b.dimension):
            v = scalars.coerce(a.backend, rows[r][c])
            if not v:
                continue
            if b.parity(r) != b.parity(c):
                raise ParityBlockError("the linear map does not preserve parity")
            # a float image keeps the rounding of generator.scale(v)
            entries[c, 1 << lay.shifts[r]] = v if exact else one * v
    dm, parts = _parts(a.backend, entries)
    images = [tuple({} for _ in parts) for _ in range(b.dimension)]
    for p, part in enumerate(parts):
        for (c, key), n in part.items():
            images[c][p][key] = n
    packed = K.pack(a.terms, lay)
    da, xs = _parts(a.backend, packed)
    out = ({}, {})
    for e, coeff in packed.items():
        exps = [e >> s & lay.fmask for s in lay.shifts]
        if exact:
            pad = dm ** (top - sum(exps))
            term = tuple({0: x[e] * pad} if e in x else {} for x in xs)
        elif coeff:
            term = ({0: one * coeff},)  # the rounding of Element.one(...).scale(coeff)
        else:
            continue
        for image, k in zip(images, exps):
            for _ in range(k):
                term = _bilinear(lambda x, y: K.mul_terms(x, y, lay), term, image)
        for target, part in zip(out, term):
            for key, c in part.items():
                _accumulate(target, key, c)
    return _from_parts(a, da * dm**top, out, lay)


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
