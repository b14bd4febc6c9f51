"""Scalar backends.

Two coefficient backends are supported throughout the package:

* ``"exact"`` -- complex numbers with rational real and imaginary parts,
  implemented by :class:`QC`.  All arithmetic is error-free; algebraic
  identities are tested for literal equality on this backend.
* ``"float"`` -- ordinary Python ``complex`` (binary64 pairs).  Round-off
  applies; numeric comparisons use relative tolerances.

The rational parts are :class:`fractions.Fraction`.  ``QC(re, im)``
takes ``int``, ``Fraction`` or ``QC`` arguments and means re + i*im, as
``complex(re, im)`` reads complex arguments, so ``QC(c)`` of an exact
coefficient is that coefficient.  Callers use
``.conjugate()``, ``abs()``, ``complex()`` and truth testing directly; only
what depends on the backend lives here (:func:`coerce`, :func:`from_rational`,
:func:`mul_rat`, :func:`abs_exact`, :func:`log_abs`), and so do the integer
roots (:func:`root_bounds`, :func:`rational_root_bounds`) that enclose an
irrational modulus or power between rationals.  Bulk exact arithmetic
leaves ``QC`` at one boundary: :func:`numerators` turns a map of exact
scalars into integer numerators over one shared denominator, and
:func:`from_numerators` builds the ``QC`` values back, reducing each
fraction once.  :func:`numerators` is also the one place where the
lattice (kernel rows, Wronskians, elimination rows) and the Poisson-map
test of the forms turn rationals into integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

BACKENDS = ("exact", "float")

# The exact backend's rational type; perfbench records its name.
_RATIO = Fraction
_ZERO = Fraction(0)
_RAT_TYPES = (int, Fraction)


class QC:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, QC) or isinstance(im, QC):
            # re + i*im, as complex(re, im) reads complex arguments
            re = re if isinstance(re, QC) else QC(re)
            im = im if isinstance(im, QC) else QC(im)
            self.re = re.re - im.im
            self.im = re.im + im.re
            return
        self.re = _to_ratio(re)
        self.im = _to_ratio(im)

    @classmethod
    def _mk(cls, re, im):
        # internal: parts are already rationals
        self = object.__new__(cls)
        self.re = re
        self.im = im
        return self

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QC._mk(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QC._mk(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not b:
            if not d:
                return QC._mk(a * c, _ZERO)
            return QC._mk(a * c, a * d)
        if not d:
            return QC._mk(a * c, b * c)
        return QC._mk(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero scalar")
        return QC._mk(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return QC._mk(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("QC powers must be nonnegative integers")
        out = QC._mk(Fraction(1), _ZERO)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return QC._mk(self.re, -self.im)

    def abs2(self):
        re2 = self.re * self.re
        return re2 + self.im * self.im if self.im else re2

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"QC({self.re!s})"
        return f"QC({self.re!s}, {self.im!s})"


def _to_ratio(x):
    if type(x) is Fraction:
        return x
    return Fraction(x)


def _coerce(x):
    if isinstance(x, QC):
        return x
    if isinstance(x, _RAT_TYPES):
        return QC._mk(_to_ratio(x), _ZERO)
    return NotImplemented


def zero(backend: str):
    return QC() if backend == "exact" else 0j


def one(backend: str):
    return QC(1) if backend == "exact" else 1 + 0j


def coerce(backend: str, x):
    """``x`` itself if it is a scalar (QC or complex), else a rational as a scalar."""
    if isinstance(x, (QC, complex)):
        return x
    return from_rational(backend, x)


def from_rational(backend: str, re, im=0):
    """Build a scalar from rational (or int) real/imaginary parts."""
    if backend == "exact":
        return QC(re, im)
    return complex(_as_float(re), _as_float(im))


def _as_float(x) -> float:
    try:
        return float(x)
    except (TypeError, ValueError):
        return float(Fraction(x))


def root_bounds(x: int, q: int, k: int = 0):
    """(lo, hi) with lo <= x^(1/q) 2^k <= hi for an integer x >= 0, equal
    exactly when that root is an integer.

    lo is the integer q-th root of y = x 2^(qk): ``math.isqrt`` for q = 2,
    else Newton's iteration from the power of two above the root, which
    falls to it (Brent and Zimmermann, Modern Computer Arithmetic, 1.5.2).
    """
    y = x << q * k
    if q == 1 or y < 2:
        return y, y
    if q == 2:
        r = math.isqrt(y)
    else:
        r = 1 << -(-y.bit_length() // q)
        while (u := ((q - 1) * r + y // r ** (q - 1)) // q) < r:
            r = u
    return r, r + (r**q != y)


def rational_root_bounds(x: Fraction, q: int, k: int = 0):
    """[lo, hi] around x^(1/q) for a rational x = n/d >= 0: the ends of
    ``root_bounds`` of n d^(q-1) over d 2^k, equal when the root is rational."""
    n, d = x.numerator, x.denominator
    return tuple(Fraction(r, d << k) for r in root_bounds(n * d ** (q - 1), q, k))


def _fraction_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def abs_exact(x):
    """|x| as a Fraction when it is rational, else None (exact backend only)."""
    if not isinstance(x, QC):
        return None
    if not x.im:
        return abs(x.re)
    if not x.re:
        return abs(x.im)
    return _fraction_sqrt(x.abs2())


def mul_rat(backend: str, x, q):
    """Multiply a scalar by an exact rational, respecting the backend."""
    if backend == "exact":
        return x * Fraction(q)
    return x * float(Fraction(q))


def log_abs(x) -> float:
    """log|x| of a nonzero scalar.

    On the exact backend it is taken from the rational parts as
    log(numerator) - log(denominator), so it is finite even where |x|
    itself under- or overflows binary64.
    """
    if isinstance(x, QC):
        return _log_ratio(abs(x.re)) if not x.im else _log_ratio(x.abs2()) / 2
    if isinstance(x, _RAT_TYPES):
        return _log_ratio(abs(Fraction(x)))
    return math.log(abs(x))


def _log_ratio(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def numerators(values):
    """Exact scalars as Python-int numerators over one positive denominator.

    ``values`` maps keys to ``QC``, ``int`` or ``Fraction``.  Returns
    ``(den, parts)``: ``parts`` is ``(re,)`` when every imaginary part is
    0, else ``(re, im)``, each a map from the keys whose part is nonzero to
    its numerator, in the order of ``values``.
    """
    re, im, dens = {}, {}, []
    for k, c in values.items():
        if isinstance(c, QC):
            n, d = c.re.as_integer_ratio()
            m, e = c.im.as_integer_ratio()
            if m:
                im[k] = m, e
                dens.append(e)
        else:
            n, d = c.as_integer_ratio()
        if n:
            re[k] = n, d
            dens.append(d)
    den = math.lcm(*dens)
    re = {k: n * (den // d) for k, (n, d) in re.items()}
    if not im:
        return den, (re,)
    return den, (re, {k: n * (den // d) for k, (n, d) in im.items()})


def from_numerators(den, re, im=None):
    """The map key -> QC(re[key]/den, im[key]/den) of integer numerator maps.

    Keys follow ``re``, then the keys only in ``im``; a missing key (or a
    missing ``im``) is a zero part.  Each Fraction is built, and so
    reduced, once.
    """
    im = im or {}
    out = {}
    for k, n in re.items():
        m = im.get(k)
        out[k] = QC._mk(Fraction(n, den), Fraction(m, den) if m else _ZERO)
    for k, m in im.items():
        if k not in re:
            out[k] = QC._mk(_ZERO, Fraction(m, den))
    return out
