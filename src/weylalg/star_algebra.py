"""The convergent star product and its symmetries, exact on polynomials.

The deformed product is mu o exp(z P) applied to a (x) b; on polynomial
elements the exponential terminates once the contraction count exceeds
either maximal degree, so everything here is a finite exact computation.
The induced Poisson bracket is 2 mu o P_minus and depends only on the
graded-antisymmetric part of the form; note the resulting factor 2 in
{q, p} = 2 for the Darboux pairing q p = 1 (the sharp map satisfies
2 v-sharp = phi for inner derivations, consistently).

Long products are internally just k-term sums with a deterministic
reduction order, so results on the exact backend are bit-identical
regardless of evaluation schedule; every function is pure and
thread-safe.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars
from .basis import require_same_basis
from .bilinear_forms import BilinearForm, TensorPair, delta_g, lambda_parts, p_lambda
from .errors import BasisMismatchError, DomainError, ParityBlockError
from .graded_poly import Element, _accumulate


def star(a: Element, b: Element, z, form: BilinearForm) -> Element:
    """a * b deformed by the form: sum_k z^k/k! mu(P^k(a (x) b)).

    The sum is finite (k runs to the smaller maximal degree); the result
    is associative, unital and graded for every scalar z.
    """
    require_same_basis(a, b)
    if a.basis != form.basis:
        raise BasisMismatchError("form over a different basis")
    z = scalars.coerce(a.backend, z)
    out = Element.zero(a.basis, a.backend)
    u = TensorPair.of(a, b)
    k = 0
    zk = scalars.one(a.backend)
    while u:
        term = u.multiply()
        if term:
            coeff = scalars.mul_rat(a.backend, zk, Fraction(1, math.factorial(k)))
            out = out + term.scale(coeff)
        u = p_lambda(u, form)
        k += 1
        zk = zk * z
    return out


def star_hbar(a: Element, b: Element, hbar, form: BilinearForm) -> Element:
    """Physics convention: the star product at z = i*hbar/2 (hbar real)."""
    hbar = Fraction(hbar)
    z = scalars.from_rational(a.backend, 0, Fraction(hbar, 2))
    return star(a, b, z, form)


def poisson_bracket(a: Element, b: Element, form: BilinearForm) -> Element:
    """{a, b} = 2 mu(P_minus(a (x) b)); a graded biderivation satisfying Jacobi."""
    require_same_basis(a, b)
    _, minus = lambda_parts(form)
    u = p_lambda(TensorPair.of(a, b), minus)
    return u.multiply().scale(2)


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
    z = scalars.coerce(a.backend, z)
    out = Element.zero(a.basis, a.backend)
    cur = a
    k = 0
    zk = scalars.one(a.backend)
    while cur:
        coeff = scalars.mul_rat(a.backend, zk, Fraction(1, math.factorial(k)))
        out = out + cur.scale(coeff)
        cur = delta_g(cur, g)
        k += 1
        zk = zk * z
    return out


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
