"""Even bilinear forms on generators and the operators they induce.

A form is stored as its Gram matrix over the generator basis,
entry (i, j) = form(e_i, e_j).  Evenness forces the parity-block
constraint: entries pairing generators of different parities vanish.

The contraction operator acts on tensor pairs (elements of the tensor
square of the symmetric algebra) and pairs one slot from each leg through
the form, with Koszul signs; applied inside an exponential it produces
the star product, and its graded-antisymmetric part the Poisson bracket.

Everything here is a pure function over immutable values.  A form keeps
its graded transpose and its graded-symmetric and -antisymmetric parts,
built on first use, so the bracket and the operators that read them do
not rebuild them on each call.  Sharing a form across threads stays safe:
the parts are a pure function of the matrix, so two threads that build
them at once store equal values.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import _kernels_py as K
from . import scalars
from .basis import GeneratorBasis, require_same_basis
from .errors import BasisMismatchError, DomainError, ParityBlockError
from .graded_poly import Element, _accumulate, _bilinear


class BilinearForm:
    """An even bilinear form given by its Gram matrix on generators."""

    __slots__ = ("basis", "backend", "matrix", "_entries", "_graded_parts")

    def __init__(self, basis: GeneratorBasis, matrix, backend="exact"):
        d = basis.dimension
        rows = [list(r) for r in matrix]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise DomainError("matrix must be square of the basis dimension")
        self.basis = basis
        self.backend = backend
        self.matrix = tuple(tuple(r) for r in rows)
        self._entries = tuple(
            (i, j, c) for i, row in enumerate(self.matrix) for j, c in enumerate(row) if c
        )
        self._graded_parts = None
        for i, j, _ in self._entries:
            if basis.parity(i) != basis.parity(j):
                raise ParityBlockError(
                    f"entry ({basis.names[i]}, {basis.names[j]}) pairs "
                    "generators of different parity"
                )

    @classmethod
    def zero(cls, basis, backend="exact"):
        return cls.from_entries(basis, {}, backend)

    @classmethod
    def from_entries(cls, basis, entries, backend="exact"):
        """Build from a map (name, name) -> rational/scalar; others zero."""
        d = basis.dimension
        rows = [[scalars.zero(backend) for _ in range(d)] for _ in range(d)]
        for (ni, nj), v in entries.items():
            rows[basis.index(ni)][basis.index(nj)] = scalars.coerce(backend, v)
        return cls(basis, rows, backend)

    def entry(self, i: int, j: int):
        return self.matrix[i][j]

    def pairs(self):
        """Index pairs with nonzero entries."""
        return tuple((i, j) for i, j, _ in self._entries)

    def apply(self, v: Element, w: Element):
        """Evaluate the form on two degree<=1 elements (constants pair to 0)."""
        total = scalars.zero(self.backend)
        for i, cv in _linear_terms(v):
            for j, cw in _linear_terms(w):
                total = total + cv * cw * self.matrix[i][j]
        return total

    def is_graded_symmetric(self) -> bool:
        return self == transpose_graded(self)

    def is_graded_antisymmetric(self) -> bool:
        t = transpose_graded(self).matrix
        return all(
            c == -tc for row, trow in zip(self.matrix, t) for c, tc in zip(row, trow)
        )

    def _entrywise(self, f, *others):
        """The form whose (i, j) entry is f of the (i, j) entries of self and others."""
        for other in others:
            require_same_basis(self, other)
        rows = [
            [f(*cs) for cs in zip(*row_group)]
            for row_group in zip(self.matrix, *(o.matrix for o in others))
        ]
        return BilinearForm(self.basis, rows, self.backend)

    def __add__(self, other):
        return self._entrywise(operator.add, other)

    def __sub__(self, other):
        return self._entrywise(operator.sub, other)

    def scale(self, value):
        return self._entrywise(lambda c: c * value)

    def conjugate(self):
        """Entrywise conjugate; generators are treated as real vectors."""
        return self._entrywise(lambda c: c.conjugate())

    def __eq__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.backend == other.backend
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.basis, self.backend, self.matrix))

    def __repr__(self):
        return f"BilinearForm({self.matrix!r})"


def _linear_terms(a: Element):
    """(generator index, coefficient) of each degree-1 term of a degree<=1 element."""
    for e, c in a.terms.items():
        n = sum(e)
        if n > 1:
            raise DomainError("form evaluation requires degree <= 1 elements")
        if n:
            yield e.index(1), c


def _graded(form: BilinearForm):
    """(graded transpose, plus, minus) of the form, built on first use and kept on it."""
    parts = form._graded_parts
    if parts is None:
        b, m = form.basis, form.matrix
        d = b.dimension
        t = BilinearForm(
            b,
            [
                [-m[j][i] if b.parity(i) and b.parity(j) else m[j][i] for j in range(d)]
                for i in range(d)
            ],
            form.backend,
        )
        half = Fraction(1, 2)
        plus = form._entrywise(lambda c, tc: scalars.mul_rat(form.backend, c + tc, half), t)
        parts = form._graded_parts = (t, plus, form - plus)
    return parts


def transpose_graded(form: BilinearForm) -> BilinearForm:
    """The form composed with the graded flip: (v, w) -> (-1)^{vw} form(w, v)."""
    return _graded(form)[0]


def lambda_parts(form: BilinearForm):
    """Graded-symmetric and graded-antisymmetric parts (plus, minus).

    plus(v, w) = (form(v, w) + (-1)^{vw} form(w, v)) / 2 on homogeneous
    generators; minus is the complement.  On the odd-odd block the graded
    flip carries a minus sign, so a symmetric odd Gram block belongs to
    the *antisymmetric* part (this is what feeds the Poisson bracket and
    the Clifford relations).
    """
    return _graded(form)[1:]


class TensorPair:
    """An element of Sym(V) (x) Sym(V): a map (monomial, monomial) -> scalar."""

    __slots__ = ("basis", "backend", "terms")

    def __init__(self, basis, backend, terms=None):
        self.basis = basis
        self.backend = backend
        self.terms = dict(terms or {})

    @classmethod
    def of(cls, a: Element, b: Element):
        """The simple tensor a (x) b."""
        require_same_basis(a, b)
        lay = K.product_layout(a.basis, a.terms, b.terms)
        terms = K.tensor_terms(K.pack(a.terms, lay), K.pack(b.terms, lay), lay)
        return cls(a.basis, a.backend, K.unpack_pairs(terms, lay))

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(terms, k, c)
        return TensorPair(self.basis, self.backend, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, value):
        if not value:
            return TensorPair(self.basis, self.backend, {})
        return TensorPair(
            self.basis, self.backend, {k: c * value for k, c in self.terms.items()}
        )

    def flip(self):
        """Graded flip tau: a (x) b -> (-1)^{|a||b|} b (x) a."""
        mask = self.basis.odd_mask
        terms = {}
        for (e1, e2), c in self.terms.items():
            sign = K.parity_of(e1, mask) and K.parity_of(e2, mask)
            _accumulate(terms, (e2, e1), -c if sign else c)
        return TensorPair(self.basis, self.backend, terms)

    def multiply(self) -> Element:
        """Apply the product map mu to every summand."""
        lay = K.Layout.of(self.basis, 2 * _pair_top(self))
        terms = K.mu_terms(K.pack_pairs(self.terms, lay), lay)
        return Element(self.basis, self.backend, K.unpack(terms, lay))

    def pair_product(self, other):
        """Graded algebra product on the tensor square.

        A pair key is a monomial over twice the basis, legs in order, so
        this is the graded product there: moving the second factor's left
        leg past the first factor's right leg gives (-1)^{|b1||a2|}.
        """
        lay = K.Layout.of(self.basis, _pair_top(self) + _pair_top(other))
        x, y = K.pack_pairs(self.terms, lay), K.pack_pairs(other.terms, lay)
        terms = K.mul_terms(x, y, lay.doubled())
        return TensorPair(self.basis, self.backend, K.unpack_pairs(terms, lay))

    def __eq__(self, other):
        if not isinstance(other, TensorPair):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.backend == other.backend
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"TensorPair({self.terms!r})"


def _pair_top(u: TensorPair):
    """The largest exponent on either leg of a tensor pair."""
    return K.top_exponent(ea + eb for ea, eb in u.terms)


def p_lambda(u: TensorPair, form: BilinearForm) -> TensorPair:
    """One contraction step: pair one slot of each leg through the form.

    On generators: p_lambda(v (x) w) = form(v, w) * (1 (x) 1); the two
    Leibniz rules extend it to all of Sym (x) Sym.  Kills 1 (x) b and
    a (x) 1.
    """
    require_same_basis(u, form)
    lay = K.Layout.of(u.basis, _pair_top(u))
    terms = K.contract_terms(K.pack_pairs(u.terms, lay), form._entries, lay)
    return TensorPair(u.basis, u.backend, K.unpack_pairs(terms, lay))


def p_lambda_power(a: Element, b: Element, k: int, form: BilinearForm) -> TensorPair:
    """k-fold contraction of a (x) b; zero once k exceeds either degree."""
    if k < 0:
        raise DomainError("contraction count must be >= 0")
    u = TensorPair.of(a, b)
    for _ in range(k):
        if not u:
            break
        u = p_lambda(u, form)
    return u


def delta_g(a: Element, g: BilinearForm) -> Element:
    """Second-order degree-lowering operator of a graded-symmetric form.

    Satisfies delta(ab) = delta(a) b + mu(P_g(a (x) b)) + a delta(b) and
    lowers the tensor degree by two.
    """
    require_same_basis(a, g)
    lay = K.Layout.of(a.basis, K.top_exponent(a.terms))
    terms = K.laplace_bulk(K.pack(a.terms, lay), _laplace_entries(g), lay)
    return Element(a.basis, a.backend, K.unpack(terms, lay))


def _laplace_entries(g: BilinearForm):
    """The entries (i, j, c) with i <= j that Delta_g reads; g must be graded-symmetric."""
    if not g.is_graded_symmetric():
        raise DomainError("the form must be graded-symmetric")
    return tuple((i, j, c) for i, j, c in g._entries if i <= j)


def sharp(v: Element, form: BilinearForm):
    """The linear functional w -> minus_part(v, w) of a degree-1 element.

    Returned as a map generator name -> scalar.
    """
    if v.basis != form.basis:
        raise BasisMismatchError("element and form over different bases")
    for e in v.terms:
        if sum(e) != 1:
            raise DomainError("sharp requires a homogeneous degree-1 element")
    _, minus = lambda_parts(form)
    return {
        name: minus.apply(v, Element.generator(form.basis, name, form.backend))
        for name in form.basis.names
    }


def is_poisson_map(A, form_v: BilinearForm, form_w: BilinearForm) -> bool:
    """True iff form_w(Av, Av') = form_v(v, v') for all generator pairs.

    ``A`` is a matrix with entry (r, c) the coefficient of the r-th target
    generator in the image of the c-th source generator.  It must respect
    parities.
    """
    bv, bw = form_v.basis, form_w.basis
    rows = [list(r) for r in A]
    if len(rows) != bw.dimension or any(len(r) != bv.dimension for r in rows):
        raise DomainError("map matrix has wrong shape")
    for r in range(bw.dimension):
        for c in range(bv.dimension):
            if rows[r][c] and bw.parity(r) != bv.parity(c):
                raise ParityBlockError("the linear map does not preserve parity")
    if form_v.backend == form_w.backend == "exact":
        return _is_poisson_map_exact(rows, form_v, form_w)
    for c1 in range(bv.dimension):
        for c2 in range(bv.dimension):
            total = scalars.zero(form_v.backend)
            for r1, r2, c in form_w._entries:
                total = total + rows[r1][c1] * rows[r2][c2] * c
            if total != form_v.matrix[c1][c2]:
                return False
    return True


def _is_poisson_map_exact(rows, form_v, form_w) -> bool:
    """A^T Lambda_W A == Lambda_V on integer parts.

    A, Lambda_W and Lambda_V become numerators over one denominator each
    (dA, dW, dV), so the test is dV A^T (Lambda_W A) == dA^2 dW Lambda_V,
    part by part, with two sparse integer matrix products and no ``QC``.
    """
    da, a = scalars.numerators({(r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)})
    dw, lam_t = scalars.numerators({(j, i): c for i, j, c in form_w._entries})
    dv, target = scalars.numerators({(i, j): c for i, j, c in form_v._entries})
    lhs = _bilinear(_tmul, a, _bilinear(_tmul, lam_t, a))
    scale = da * da * dw
    return [{k: n * dv for k, n in part.items()} for part in lhs] == [
        {k: n * scale for k, n in part.items()} for part in target
    ]


def _tmul(x, y):
    """x^T y for sparse integer matrices {(row, column): nonzero int}."""
    by_row = {}
    for (i, k), v in y.items():
        by_row.setdefault(i, []).append((k, v))
    out = {}
    for (i, j), u in x.items():
        for k, v in by_row.get(i, ()):
            _accumulate(out, (j, k), u * v)
    return out


# -- normal forms -------------------------------------------------------

# _squarefree_scale trial-divides only below this bound, so its work is
# bounded for any input.
_TRIAL_BOUND = 10**4


class NormalFormResult:
    """Invariants and exact change of basis for a graded-antisymmetric form.

    ``transform`` has columns expressing the new basis vectors in the old
    one; conjugating the Gram matrix with it yields the normal form:
    an even block with standard pairings q_i p_j = delta_ij plus a
    k-dimensional kernel, and an odd diagonal block with r positive,
    s negative and t zero entries.  Over the rationals the odd diagonal
    entries are positive/negative rationals a/b; they equal +-1 exactly
    whenever the eliminated pivots were rational squares.  The integer
    a*b is square-free whenever the part of it with no prime factor below
    10**4 is below 10**12; past that the square of a prime >= 10**4 may
    be left in, and the entry is still exact, only not reduced.
    """

    __slots__ = ("pairs", "kernel_dim", "plus", "minus", "null", "transform")

    def __init__(self, pairs, kernel_dim, plus, minus, null, transform):
        self.pairs = pairs
        self.kernel_dim = kernel_dim
        self.plus = plus
        self.minus = minus
        self.null = null
        self.transform = transform

    @property
    def invariants(self):
        return (self.pairs, self.kernel_dim, self.plus, self.minus, self.null)

    def __repr__(self):
        d, k, r, s, t = self.invariants
        return f"NormalFormResult(d={d}, k={k}, r={r}, s={s}, t={t})"


def normal_form(form: BilinearForm) -> NormalFormResult:
    """Darboux/orthogonal normal form of a real graded-antisymmetric form.

    The even block must be an antisymmetric rational matrix and the odd
    block a symmetric rational matrix (together: a graded-antisymmetric
    even form).  Complex input is rejected.
    """
    b = form.basis
    d = b.dimension
    M = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            c = form.matrix[i][j]
            if isinstance(c, scalars.QC):
                if c.im != 0:
                    raise DomainError("normal_form is defined for real exact input")
                M[i][j] = c.re
            elif isinstance(c, complex):
                raise DomainError("normal_form requires the exact backend")
            else:
                M[i][j] = Fraction(c)
    ev = list(b.even_indices())
    od = list(b.odd_indices())
    for i in ev:
        for j in ev:
            if M[i][j] != -M[j][i]:
                raise DomainError("even block must be antisymmetric")
    for i in od:
        for j in od:
            if M[i][j] != M[j][i]:
                raise DomainError("odd block must be symmetric")

    qs, ps, cs = _darboux_even(M, ev)
    pos, neg, nil = _gram_odd(M, od)

    cols = qs + ps + cs + pos + neg + nil
    transform = [[cols[c][r] for c in range(len(cols))] for r in range(d)]
    return NormalFormResult(
        len(qs), len(cs), len(pos), len(neg), len(nil), transform
    )


def _form_on(M, u, v):
    total = Fraction(0)
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if vj:
                total += ui * M[i][j] * vj
    return total


def _darboux_even(M, ev):
    """Symplectic Gram-Schmidt with first-nonzero pivoting, lowest index first."""
    d = len(M)
    basis_vecs = []
    for i in ev:
        vec = [Fraction(0)] * d
        vec[i] = Fraction(1)
        basis_vecs.append(vec)
    qs, ps = [], []
    pool = basis_vecs
    while True:
        pivot = None
        for a in range(len(pool)):
            for bb in range(a + 1, len(pool)):
                if _form_on(M, pool[a], pool[bb]) != 0:
                    pivot = (a, bb)
                    break
            if pivot:
                break
        if pivot is None:
            break
        a, bb = pivot
        q = pool[a]
        val = _form_on(M, q, pool[bb])
        p = [x / val for x in pool[bb]]
        qs.append(q)
        ps.append(p)
        rest = []
        for idx, v in enumerate(pool):
            if idx in (a, bb):
                continue
            fq = _form_on(M, v, p)
            fp = _form_on(M, v, q)
            w = [
                v[r] - fq * q[r] + fp * p[r]
                for r in range(d)
            ]
            rest.append(w)
        pool = rest
    return qs, ps, pool


def _squarefree_scale(x: Fraction):
    """Rational m with x = m^2 * r, for positive x; r is square-free under
    the condition stated in ``NormalFormResult``.

    Trial division by every k below ``_TRIAL_BOUND`` takes out the squares
    of the small primes and drops their single factors.  What is left has
    only prime factors >= _TRIAL_BOUND, so below _TRIAL_BOUND**3 it is 1,
    a prime, a product of two primes or a square, which one ``isqrt``
    test tells apart.
    """
    n = x.numerator * x.denominator
    m = 1
    for k in range(2, _TRIAL_BOUND):
        if k * k > n:
            break
        while n % (k * k) == 0:
            n //= k * k
            m *= k
        if n % k == 0:
            n //= k
    r = math.isqrt(n)
    if r * r == n:
        m *= r
    return Fraction(m, x.denominator)


def _gram_odd(M, od):
    """Diagonalize a symmetric rational block; scale out square factors."""
    d = len(M)
    vecs = []
    for i in od:
        vec = [Fraction(0)] * d
        vec[i] = Fraction(1)
        vecs.append(vec)
    pos, neg, nil = [], [], []
    pool = vecs
    while pool:
        pivot = None
        for a in range(len(pool)):
            if _form_on(M, pool[a], pool[a]) != 0:
                pivot = a
                break
        if pivot is None:
            off = None
            for a in range(len(pool)):
                for bb in range(a + 1, len(pool)):
                    if _form_on(M, pool[a], pool[bb]) != 0:
                        off = (a, bb)
                        break
                if off:
                    break
            if off is None:
                nil.extend(pool)
                break
            a, bb = off
            pool[a] = [x + y for x, y in zip(pool[a], pool[bb])]
            continue
        v = pool[pivot]
        val = _form_on(M, v, v)
        scale = _squarefree_scale(abs(val))
        v = [x / scale for x in v]
        (pos if val > 0 else neg).append(v)
        rest = []
        vv = _form_on(M, v, v)
        for idx, w in enumerate(pool):
            if idx == pivot:
                continue
            coef = _form_on(M, w, v) / vv
            rest.append([w[r] - coef * v[r] for r in range(d)])
        pool = rest
    return pos, neg, nil
