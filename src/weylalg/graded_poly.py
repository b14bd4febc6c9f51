"""Sparse graded-commutative polynomial algebra over a finite basis.

Elements are finite sums of canonical monomials with scalar coefficients.
Canonicalization absorbs all Koszul signs at construction time: odd
generators are kept in ascending index order and any reordering sign is
multiplied into the coefficient, so equality of elements is a plain map
comparison.  Zero coefficients are never stored.

No hard degree cap is imposed; products cost O(#terms^2) monomial
merges, and the ordered-tensor expansion (``ordered_coefficients``) has
one tuple per distinct ordering of a monomial's generators, up to
degree! of them, which is why it is materialized lazily per degree and
never used for storage.  All values are immutable after construction and
every operation is a pure function, safe for concurrent use.

Products run on packed monomials (``_kernels_py``) and, on the exact
backend, on Python-int numerators over one denominator per operand
(``_parts``), so each output coefficient is built once, as a ``QC``,
whatever exact type the inputs held.  A power a^n packs a once and runs
n products on those numerators (``_powers``), the chain the series
exponentials share.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars
from . import _kernels_py as K
from .basis import GeneratorBasis, require_same_basis
from .errors import DomainError


class Monomial:
    """A canonical basis monomial: even exponents plus ordered odd indices."""

    __slots__ = ("basis", "exps")

    def __init__(self, basis: GeneratorBasis, exps):
        exps = tuple(exps)
        if len(exps) != basis.dimension:
            raise DomainError("exponent tuple has wrong length")
        for i, k in enumerate(exps):
            if k < 0:
                raise DomainError("negative exponent")
            if k > 1 and not basis.is_even(i):
                raise DomainError(f"odd generator {basis.names[i]!r} repeated")
        self.basis = basis
        self.exps = exps

    @property
    def even_exponents(self):
        return {
            self.basis.names[i]: k
            for i, k in enumerate(self.exps)
            if k and self.basis.is_even(i)
        }

    @property
    def odd_indices(self):
        return tuple(
            i for i, k in enumerate(self.exps) if k and not self.basis.is_even(i)
        )

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def parity(self) -> int:
        return len(self.odd_indices) & 1

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.basis == other.basis and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        if not any(self.exps):
            return "1"
        parts = []
        for i, k in enumerate(self.exps):
            if not k:
                continue
            name = self.basis.names[i]
            parts.append(name if k == 1 else f"{name}^{k}")
        return "*".join(parts)


class Element:
    """A finite sum of canonical monomials with scalar coefficients."""

    __slots__ = ("basis", "backend", "terms")

    def __init__(self, basis: GeneratorBasis, backend: str, terms=None):
        if backend not in scalars.BACKENDS:
            raise DomainError(f"unknown scalar backend {backend!r}")
        self.basis = basis
        self.backend = backend
        self.terms = dict(terms or {})

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, basis, backend="exact"):
        return cls(basis, backend, {})

    @classmethod
    def one(cls, basis, backend="exact"):
        e0 = (0,) * basis.dimension
        return cls(basis, backend, {e0: scalars.one(backend)})

    @classmethod
    def scalar(cls, basis, value, backend="exact"):
        out = cls.zero(basis, backend)
        if value:
            out.terms[(0,) * basis.dimension] = value
        return out

    @classmethod
    def generator(cls, basis, name, backend="exact"):
        i = basis.index(name)
        e = tuple(1 if j == i else 0 for j in range(basis.dimension))
        return cls(basis, backend, {e: scalars.one(backend)})

    @classmethod
    def from_terms(cls, basis, backend, items):
        """Build from (exponent tuple | Monomial, coefficient) pairs."""
        out = cls.zero(basis, backend)
        for key, c in items:
            e = key.exps if isinstance(key, Monomial) else tuple(key)
            Monomial(basis, e)
            _accumulate(out.terms, e, c)
        return out

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        require_same_basis(self, other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(terms, e, c)
        return Element(self.basis, self.backend, terms)

    def __sub__(self, other):
        require_same_basis(self, other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(terms, e, -c)
        return Element(self.basis, self.backend, terms)

    def __neg__(self):
        return Element(
            self.basis, self.backend, {e: -c for e, c in self.terms.items()}
        )

    def scale(self, value):
        value = scalars.coerce(self.backend, value)
        if not value:
            return Element.zero(self.basis, self.backend)
        return Element(
            self.basis, self.backend, {e: c * value for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        require_same_basis(self, other)
        lay = K.product_layout(self.basis, self.terms, other.terms)
        d1, xs = _parts(self.backend, K.pack(self.terms, lay))
        d2, ys = _parts(self.backend, K.pack(other.terms, lay))
        parts = _bilinear(lambda x, y: K.mul_terms(x, y, lay), xs, ys)
        return _from_parts(self, d1 * d2, parts, lay)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise DomainError("powers must be nonnegative integers")
        lay, powers = _powers(self, n)
        for power in powers:  # run the chain to a^n
            pass
        return _from_parts(self, *power, lay)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.backend == other.backend
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.basis, self.backend, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure maps -------------------------------------------------

    def items(self):
        for e, c in self.terms.items():
            yield Monomial(self.basis, e), c

    def max_degree(self) -> int:
        """Largest monomial degree present; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def grade_component(self, n: int):
        return Element(
            self.basis,
            self.backend,
            {e: c for e, c in self.terms.items() if sum(e) == n},
        )

    def grade_components(self):
        """Map degree -> homogeneous part, for the degrees present."""
        out = {}
        for e, c in self.terms.items():
            out.setdefault(sum(e), {})[e] = c
        return {
            n: Element(self.basis, self.backend, t) for n, t in sorted(out.items())
        }

    def parity_split(self):
        even, odd = {}, {}
        for e, c in self.terms.items():
            (odd if K.parity_of(e, self.basis.odd_mask) else even)[e] = c
        return (
            Element(self.basis, self.backend, even),
            Element(self.basis, self.backend, odd),
        )

    def parity(self):
        """0 or 1 for parity-homogeneous elements (0 = zero element), None if mixed."""
        ev, od = self.parity_split()
        if ev and od:
            return None
        return 1 if od else 0

    def conjugate(self):
        return Element(
            self.basis,
            self.backend,
            {e: c.conjugate() for e, c in self.terms.items()},
        )

    def evaluate(self, point):
        """Evaluate at a point assigning a scalar to every even generator.

        Elements containing odd generators cannot be evaluated.
        """
        values = {}
        for name, v in point.items():
            values[self.basis.index(name)] = v
        for i in self.basis.even_indices():
            if i not in values:
                raise DomainError(f"no value for generator {self.basis.names[i]!r}")
        total = scalars.zero(self.backend)
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if not k:
                    continue
                if not self.basis.is_even(i):
                    raise DomainError("cannot evaluate an element with odd generators")
                term = term * values[i] ** k
            total = total + term
        return total

    def ordered_coefficients(self, n: int):
        """Totally graded-symmetric tensor coefficients of the degree-n part.

        Returns a map from length-n tuples of generator names to scalars.
        Reassembling sum(coeff * x_{i_1} ... x_{i_n}) over the tuples
        reproduces the degree-n part exactly; coefficients flip sign under
        odd-odd transpositions of the tuple.
        """
        out = {}
        for e, c in self.terms.items():
            if sum(e) != n:
                continue
            canonical = []
            repeat = 1
            for i, k in enumerate(e):
                canonical.extend([i] * k)
                if self.basis.is_even(i):
                    repeat *= math.factorial(k)
            base = scalars.mul_rat(self.backend, c, Fraction(repeat, math.factorial(n)))
            for tup in _distinct_permutations(tuple(canonical)):
                sign = _koszul_sort_sign(tup, self.basis)
                names = tuple(self.basis.names[i] for i in tup)
                out[names] = base if sign > 0 else -base
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            bits.append(f"({self.terms[e]!r})*{Monomial(self.basis, e)!r}")
        return " + ".join(bits)


def _accumulate(terms, key, c):
    """Add ``c`` to ``terms[key]`` in place, never storing a zero."""
    prev = terms.get(key)
    if prev is None:
        if c:
            terms[key] = c
        return
    s = prev + c
    if not s:
        del terms[key]
    else:
        terms[key] = s


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


def _bilinear(f, xs, ys, ysum=None):
    """The parts of f(x, y) for a bilinear f, from the parts of x and y.

    One call of f per pair of parts, except that a complex x and y take
    three calls, as Gauss multiplied complex numbers: the real part is
    f(xr, yr) - f(xi, yi) and the imaginary part f(xr + xi, yr + yi) minus
    both.  On integer numerators the result is the same.  An imaginary
    part that comes out zero is dropped, so real inputs stay on one part.
    A caller that passes the same y at every step of a chain forms
    yr + yi once (``_part_sum``) and hands it in as ``ysum``.
    """
    if len(xs) == 1 or len(ys) == 1:
        parts = [f(x, y) for x in xs for y in ys]
    else:
        (xr, xi), (yr, yi) = xs, ys
        rr, ii = f(xr, yr), f(xi, yi)
        ysum = _plus(yr, yi) if ysum is None else ysum
        im = _merge(_merge(f(_plus(xr, xi), ysum), rr, -1), ii, -1)
        parts = [_merge(rr, ii, -1), im]
    return tuple(parts if parts[-1] else parts[:1])


def _plus(x, y):
    """x + y for two parts: term maps, or lists of form entries (i, j, c) in (i, j) order."""
    if isinstance(x, dict):
        return _merge(dict(x), y, 1)
    out = _merge({(i, j): c for i, j, c in x}, {(i, j): c for i, j, c in y}, 1)
    return [(i, j, c) for (i, j), c in sorted(out.items())]


def _part_sum(parts):
    """The sum of a complex pair of parts, None for a real one (see ``_bilinear``)."""
    return _plus(*parts) if len(parts) == 2 else None


def _merge(terms, other, sign):
    """terms + sign * other, in place in ``terms``."""
    for key, c in other.items():
        _accumulate(terms, key, c if sign > 0 else -c)
    return terms


def _powers(a: Element, n):
    """The layout of a^n and an iterator over the (den, parts) of a^0 .. a^n.

    a is packed once; each power is one ``_bilinear(mul_terms)`` of the
    last with a, over the denominator den(a)^k, as repeated ``*`` forms it
    (on the float backend in the same order, so with the same bits).
    """
    lay = K.Layout.of(a.basis, n * K.top_exponent(a.terms))
    da, xs = _parts(a.backend, K.pack(a.terms, lay))
    xsum = _part_sum(xs)

    def chain():
        den, cur = _parts(a.backend, {0: scalars.one(a.backend)})
        yield den, cur
        for _ in range(n):
            den, cur = den * da, _bilinear(lambda x, y: K.mul_terms(x, y, lay), cur, xs, xsum)
            yield den, cur

    return lay, chain()


def _from_parts(a: Element, den, parts, lay=None) -> Element:
    """The Element over a's basis and backend with the parts over ``den``.

    Keys are unpacked with ``lay`` when one is given; on the exact
    backend each coefficient becomes a ``QC`` once.
    """
    terms = scalars.from_numerators(den, *parts) if a.backend == "exact" else parts[0]
    return Element(a.basis, a.backend, terms if lay is None else K.unpack(terms, lay))


def _distinct_permutations(items):
    """The distinct orderings of a sorted tuple, each the lexicographic successor of the last."""
    p = list(items)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = reversed(p[i + 1 :])


def _koszul_sort_sign(tup, basis):
    """Sign for sorting an index tuple into canonical ascending order.

    Counts inversions between odd generators; even generators commute
    without sign.
    """
    inv = 0
    odd_positions = [i for i in tup if not basis.is_even(i)]
    for a in range(len(odd_positions)):
        for b in range(a + 1, len(odd_positions)):
            if odd_positions[a] > odd_positions[b]:
                inv += 1
    return -1 if inv & 1 else 1


# -- module-level operation names ---------------------------------------


def sym_product(a: Element, b: Element) -> Element:
    """Graded-commutative product on the symmetric algebra."""
    return a * b


def ordered_coefficients(a: Element, n: int):
    return a.ordered_coefficients(n)


def grade_component(a: Element, n: int) -> Element:
    return a.grade_component(n)


def parity_split(a: Element):
    return a.parity_split()


def conjugate(a: Element) -> Element:
    return a.conjugate()


def evaluate(a: Element, point):
    return a.evaluate(point)
