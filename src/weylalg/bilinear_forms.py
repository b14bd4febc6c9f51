"""Even bilinear forms on generators and the operators they induce.

A form is stored as its Gram matrix over the generator basis,
entry (i, j) = form(e_i, e_j).  Evenness forces the parity-block
constraint: entries pairing generators of different parities vanish.

The contraction operator acts on tensor pairs (elements of the tensor
square of the symmetric algebra) and pairs one slot from each leg through
the form, with Koszul signs; applied inside an exponential it produces
the star product, and its graded-antisymmetric part the Poisson bracket.

Everything here is a pure function over immutable values; thread-safe.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels_py as K
from . import scalars
from .basis import GeneratorBasis, require_same_basis
from .errors import BasisMismatchError, DomainError, ParityBlockError
from .graded_poly import Element, _accumulate


class BilinearForm:
    """An even bilinear form given by its Gram matrix on generators."""

    __slots__ = ("basis", "backend", "matrix", "_pairs", "_entries")

    def __init__(self, basis: GeneratorBasis, matrix, backend="exact"):
        d = basis.dimension
        rows = [list(r) for r in matrix]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise DomainError("matrix must be square of the basis dimension")
        for i in range(d):
            for j in range(d):
                c = rows[i][j]
                if c and basis.parity(i) != basis.parity(j):
                    raise ParityBlockError(
                        f"entry ({basis.names[i]}, {basis.names[j]}) pairs "
                        "generators of different parity"
                    )
        self.basis = basis
        self.backend = backend
        self.matrix = tuple(tuple(r) for r in rows)
        self._pairs = tuple(
            (i, j)
            for i in range(d)
            for j in range(d)
            if rows[i][j]
        )
        self._entries = tuple((i, j, self.matrix[i][j]) for i, j in self._pairs)

    @classmethod
    def zero(cls, basis, backend="exact"):
        d = basis.dimension
        z = scalars.zero(backend)
        return cls(basis, [[z] * d for _ in range(d)], backend)

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
        return self._pairs

    def apply(self, v: Element, w: Element):
        """Evaluate the form on two degree<=1 elements (constants pair to 0)."""
        total = scalars.zero(self.backend)
        for ev, cv in v.terms.items():
            if sum(ev) != 1:
                if sum(ev) == 0:
                    continue
                raise DomainError("form evaluation requires degree <= 1 elements")
            i = ev.index(1)
            for ew, cw in w.terms.items():
                if sum(ew) != 1:
                    if sum(ew) == 0:
                        continue
                    raise DomainError("form evaluation requires degree <= 1 elements")
                j = ew.index(1)
                total = total + cv * cw * self.matrix[i][j]
        return total

    def is_graded_symmetric(self) -> bool:
        return self == transpose_graded(self)

    def is_graded_antisymmetric(self) -> bool:
        t = transpose_graded(self)
        return all(
            self.matrix[i][j] == -t.matrix[i][j]
            for i in range(self.basis.dimension)
            for j in range(self.basis.dimension)
        )

    def __add__(self, other):
        require_same_basis(self, other)
        d = self.basis.dimension
        return BilinearForm(
            self.basis,
            [
                [self.matrix[i][j] + other.matrix[i][j] for j in range(d)]
                for i in range(d)
            ],
            self.backend,
        )

    def __sub__(self, other):
        require_same_basis(self, other)
        d = self.basis.dimension
        return BilinearForm(
            self.basis,
            [
                [self.matrix[i][j] - other.matrix[i][j] for j in range(d)]
                for i in range(d)
            ],
            self.backend,
        )

    def scale(self, value):
        d = self.basis.dimension
        return BilinearForm(
            self.basis,
            [[self.matrix[i][j] * value for j in range(d)] for i in range(d)],
            self.backend,
        )

    def conjugate(self):
        """Entrywise conjugate; generators are treated as real vectors."""
        d = self.basis.dimension
        return BilinearForm(
            self.basis,
            [[self.matrix[i][j].conjugate() for j in range(d)] for i in range(d)],
            self.backend,
        )

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


def transpose_graded(form: BilinearForm) -> BilinearForm:
    """The form composed with the graded flip: (v, w) -> (-1)^{vw} form(w, v)."""
    b = form.basis
    d = b.dimension
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            c = form.matrix[j][i]
            if b.parity(i) and b.parity(j):
                c = -c
            row.append(c)
        rows.append(row)
    return BilinearForm(b, rows, form.backend)


def lambda_parts(form: BilinearForm):
    """Graded-symmetric and graded-antisymmetric parts (plus, minus).

    plus(v, w) = (form(v, w) + (-1)^{vw} form(w, v)) / 2 on homogeneous
    generators; minus is the complement.  On the odd-odd block the graded
    flip carries a minus sign, so a symmetric odd Gram block belongs to
    the *antisymmetric* part (this is what feeds the Poisson bracket and
    the Clifford relations).
    """
    t = transpose_graded(form)
    d = form.basis.dimension
    half = Fraction(1, 2)
    plus_rows = [
        [
            scalars.mul_rat(form.backend, form.matrix[i][j] + t.matrix[i][j], half)
            for j in range(d)
        ]
        for i in range(d)
    ]
    plus = BilinearForm(form.basis, plus_rows, form.backend)
    minus = form - plus
    return plus, minus


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
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                _accumulate(terms, (e1, e2), c1 * c2)
        return cls(a.basis, a.backend, terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(terms, k, c)
        return TensorPair(self.basis, self.backend, terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(terms, k, -c)
        return TensorPair(self.basis, self.backend, terms)

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
        terms = K.mu_terms(self.terms, self.basis.odd_mask)
        return Element(self.basis, self.backend, terms)

    def pair_product(self, other):
        """Graded algebra product on the tensor square."""
        mask = self.basis.odd_mask
        terms = {}
        for (a1, b1), c1 in self.terms.items():
            pb1 = K.parity_of(b1, mask)
            for (a2, b2), c2 in other.terms.items():
                pa2 = K.parity_of(a2, mask)
                left = K.mul_exps(a1, a2, mask)
                if left is None:
                    continue
                right = K.mul_exps(b1, b2, mask)
                if right is None:
                    continue
                (ea, sa), (eb, sb) = left, right
                sign = sa * sb * (-1 if (pb1 and pa2) else 1)
                c = c1 * c2
                _accumulate(terms, (ea, eb), -c if sign < 0 else c)
        return TensorPair(self.basis, self.backend, terms)

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


def p_lambda(u: TensorPair, form: BilinearForm) -> TensorPair:
    """One contraction step: pair one slot of each leg through the form.

    On generators: p_lambda(v (x) w) = form(v, w) * (1 (x) 1); the two
    Leibniz rules extend it to all of Sym (x) Sym.  Kills 1 (x) b and
    a (x) 1.
    """
    require_same_basis(u, form)
    terms = K.contract_terms(u.terms, form._entries, u.basis.odd_mask)
    return TensorPair(u.basis, u.backend, terms)


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
    if not g.is_graded_symmetric():
        raise DomainError("the form must be graded-symmetric")
    entries = tuple((i, j, g.matrix[i][j]) for (i, j) in g.pairs() if i <= j)
    terms = K.laplace_bulk(a.terms, entries, a.basis.odd_mask)
    return Element(a.basis, a.backend, terms)


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
    out = {}
    for j, name in enumerate(form.basis.names):
        total = scalars.zero(form.backend)
        for e, c in v.terms.items():
            i = e.index(1)
            total = total + c * minus.matrix[i][j]
        out[name] = total
    return out


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
    for c1 in range(bv.dimension):
        for c2 in range(bv.dimension):
            total = scalars.zero(form_v.backend)
            for r1 in range(bw.dimension):
                a1 = rows[r1][c1]
                if not a1:
                    continue
                for r2 in range(bw.dimension):
                    a2 = rows[r2][c2]
                    if not a2:
                        continue
                    total = total + a1 * a2 * form_w.matrix[r1][r2]
            if total != form_v.matrix[c1][c2]:
                return False
    return True


# -- normal forms -------------------------------------------------------


class NormalFormResult:
    """Invariants and exact change of basis for a graded-antisymmetric form.

    ``transform`` has columns expressing the new basis vectors in the old
    one; conjugating the Gram matrix with it yields the normal form:
    an even block with standard pairings q_i p_j = delta_ij plus a
    k-dimensional kernel, and an odd diagonal block with r positive,
    s negative and t zero entries.  Over the rationals the odd diagonal
    entries are square-free positive/negative rationals; they equal +-1
    exactly whenever the eliminated pivots were rational squares.
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
    """Largest rational m with x = m^2 * squarefree(x), for positive x."""
    n = x.numerator * x.denominator
    m = 1
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            m *= k
        k += 1
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
