"""Degree-truncated elements of the completed algebra.

A truncated series stores one homogeneous component per degree up to its
truncation order.  Because a single contraction lowers the combined
degree by two, *every* output degree of a product of two infinite series
receives contributions from arbitrarily high input degrees; per-degree
exactness of a truncated product is therefore a bookkeeping question,
answered by ``exact_through`` metadata: it is the largest output degree
whose value provably equals the untruncated one given the inputs
consulted.  Tagged closed-form series (exponentials of degree-one
elements) keep their tails under control: contractions against a
degree-one tail are summable in closed form, which is what the
star-exponential and inner-automorphism checks exploit.

Per-degree computations are pure functions assembled in a fixed order;
exact-backend results are identical regardless of evaluation schedule.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernels_py as K
from . import scalars
from .basis import require_same_basis
from .bilinear_forms import BilinearForm, lambda_parts
from .errors import DomainError, RefusedPreconditionError, TruncationBudgetError
from .graded_poly import Element, _from_parts, _parts, _powers
from .seminorm_calculus import (
    LOG_FLOAT_MAX,
    WeightedSeminorm,
    _fact_pow_float,
    _require_normal_floats,
    _to_float_element,
    _weighted_term,
    pn_seminorm,
)
from .star_algebra import (
    _chain,
    _entry_parts,
    _scalar_parts,
    _star_parts,
    _sum_parts,
    _tensor,
    _weighted,
    star,
)

RATIO_BAND = (0.95, 1.05)
SLOPE_TOL = 0.01
DEFAULT_ORDER = 16


class TruncatedSeries:
    """Per-degree components of a series, truncated at a fixed order."""

    __slots__ = ("basis", "backend", "components", "order", "label", "has_tail", "meta")

    def __init__(self, components, order, label=None, has_tail=True, meta=None):
        if len(components) != order + 1:
            raise DomainError("need one component per degree 0..order")
        first = components[0]
        for n, comp in enumerate(components):
            if comp.basis != first.basis or comp.backend != first.backend:
                raise DomainError("components disagree on basis or backend")
            for e in comp.terms:
                if sum(e) != n:
                    raise DomainError(f"component {n} contains degree {sum(e)} terms")
        self.basis = first.basis
        self.backend = first.backend
        self.components = tuple(components)
        self.order = order
        self.label = label or {"kind": "custom"}
        self.has_tail = has_tail
        self.meta = dict(meta or {})

    @classmethod
    def from_element(cls, a: Element, order: int, label=None):
        comps = [a.grade_component(n) for n in range(order + 1)]
        return cls(
            comps,
            order,
            label or {"kind": "custom"},
            has_tail=a.max_degree() > order,
        )

    def component(self, n: int) -> Element:
        if n > self.order:
            return Element.zero(self.basis, self.backend)
        return self.components[n]

    def as_element(self) -> Element:
        total = Element.zero(self.basis, self.backend)
        for comp in self.components:
            total = total + comp
        return total

    def polynomial_degree(self):
        """Largest stored degree with a nonzero component (-1 if none)."""
        for n in range(self.order, -1, -1):
            if self.components[n]:
                return n
        return -1

    def __repr__(self):
        kind = self.label.get("kind", "custom")
        return f"TruncatedSeries({kind}, order={self.order})"


def exp_element(v: Element, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The exponential series of a degree-one element, truncated.

    For a purely odd v the series terminates exactly at 1 + v.  The
    weighted partial sums p(v)^n n!^{R-1} of the seminorm of the result
    converge precisely for R < 1; see ``convergence_diagnosis``.  The
    powers v^n come from one packed chain (``graded_poly._powers``) and
    each component is built once, as v^n scaled by 1/n!.  On the float
    backend a coefficient below the normal binary64 range is refused.
    """
    _require_degree_one(v)
    floats = v.backend == "float"
    nilpotent = v.parity() == 1
    lay, powers = _powers(v, order)
    comps = []
    tail = True
    for n, power in enumerate(powers):
        if not any(power[1]) and (nilpotent or not floats):
            comps.extend(Element.zero(v.basis, v.backend) for _ in range(n, order + 1))
            tail = False
            break
        comp = _component(v, power, Fraction(1, math.factorial(n)), lay)
        if floats and n:
            # v^n has at least as many terms as v^(n-1) unless v is odd
            _require_normal_floats(comp, len(comps[-1].terms), f"exp degree {n}")
        comps.append(comp)
    return TruncatedSeries(comps, order, {"kind": "exp", "v": v}, has_tail=tail)


def star_exp(w: Element, t, z, form: BilinearForm, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Star-exponential of t*w, truncated at total series order ``order``.

    Matches the closed form exp(t w + t^2 z/2 * form(w, w)); the stored
    truncation keeps every term of combined series order <= order, which
    is exactly the partial sum over the first ``order`` star powers.
    Per-degree equality against sum_{l<=order} t^l/l! w*...*w is exact.

    The degree-n coefficient sum_{n+2j<=order} t^(n+2j) h^j/(n! j!), with
    h = z form(w, w)/2, is (t^n/n!) E_m(t^2 h) for m = (order-n)//2 and E_m
    the degree-m Taylor polynomial of exp; the partial sums E_m and the
    t^n/n! come by recurrence, and w^n from one packed chain
    (``graded_poly._powers``).  Each component is built once, as w^n
    scaled by its coefficient.  On the float backend this rounds
    differently from the double sum, in the last bits.
    """
    _require_degree_one(w)
    if w.parity() != 0:
        raise DomainError("the star-exponential closed form needs an even element")
    backend = w.backend
    t = scalars.coerce(backend, t)
    z = scalars.coerce(backend, z)
    lam = form.apply(w, w)
    y = t * t * scalars.mul_rat(backend, z * lam, Fraction(1, 2))
    # partial[m] = E_m(y), the degree-m Taylor polynomial of exp at y
    partial = [scalars.one(backend)]
    term = partial[0]
    for j in range(1, order // 2 + 1):
        term = scalars.mul_rat(backend, term * y, Fraction(1, j))
        partial.append(partial[-1] + term)
    comps = []
    lay, powers = _powers(w, order)
    tn = scalars.one(backend)  # t^n/n!
    for n, power in enumerate(powers):
        if n:
            tn = scalars.mul_rat(backend, tn * t, Fraction(1, n))
        comps.append(_component(w, power, tn * partial[(order - n) // 2], lay))
    return TruncatedSeries(
        comps,
        order,
        {"kind": "star_exp", "t": t, "z": z, "lam": lam},
        has_tail=bool(w),
    )


def f_epsilon_series(v: Element, eps, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The entire-function series with n!^eps denominators, truncated.

    Its weighted partial sums n!^{R-eps} p(v)^n converge iff R < eps, so
    for eps < 1 these elements escape every completion that still carries
    the star product.  The powers v^n come from one packed chain
    (``graded_poly._powers``) and each component is built once, scaled by
    n!^-eps.  Non-integer eps forces float coefficients; one below the
    normal binary64 range is refused.
    """
    _require_degree_one(v)
    if v.parity() != 0:
        raise DomainError("series generator must be even")
    eps_f = Fraction(eps)
    if eps_f <= 0:
        raise DomainError("eps must be positive")
    exact_ok = eps_f.denominator == 1 and v.backend == "exact"
    if not exact_ok:
        v = _to_float_element(v)
    comps = []
    lay, powers = _powers(v, order)
    for n, power in enumerate(powers):
        if exact_ok:
            scale = Fraction(1, math.factorial(n) ** eps_f.numerator)
            comps.append(_component(v, power, scale, lay))
        else:
            comp = _component(v, power, complex(_fact_pow_float(n, -float(eps_f)), 0), lay)
            if n:
                _require_normal_floats(comp, len(comps[-1].terms), f"f_eps degree {n}")
            comps.append(comp)
    return TruncatedSeries(comps, order, {"kind": "f_eps", "eps": eps}, has_tail=bool(v))


def _component(v: Element, power, scale, lay) -> Element:
    """The Element scale * v^n from the packed (den, parts) of v^n.

    On the exact backend the numerator parts of the scale multiply the
    parts and its denominator the den, so each coefficient is built
    once; on the float backend it is c * scale, as ``Element.scale``
    rounds it.
    """
    den, parts = power
    if v.backend == "exact":
        ds, sp = _scalar_parts(v.backend, scale)
        return _from_parts(v, den * ds, _weighted([parts], [sp]), lay)
    scale = scalars.coerce(v.backend, scale)
    terms = {e: c * scale for e, c in parts[0].items()} if scale else {}
    return _from_parts(v, 1, (terms,), lay)


def _require_degree_one(v: Element):
    if not v or any(sum(e) != 1 for e in v.terms):
        raise DomainError("expected a nonzero homogeneous degree-1 element")


def truncated_star(
    A: TruncatedSeries,
    B: TruncatedSeries,
    z,
    form: BilinearForm,
    order: int,
    budget: int | None = None,
    require_exact: bool = False,
) -> TruncatedSeries:
    """Product of two truncated series, truncated at ``order``.

    Consults input components up to order + budget (everything stored when
    budget is None).  ``meta["exact_through"]`` reports the largest output
    degree provably unaffected by the inputs' unseen tails: contractions
    lower the combined degree by two, so a tail can reach down into every
    degree unless the partner series is a polynomial.

    The components are packed once, over one layout.  They are
    homogeneous, so step j of A_k * B_l has degree k + l - 2j >= |k - l|:
    a pair with |k - l| > order never reaches the output and is dropped.
    The others go into one bucket per total degree D = k + l, whose
    tensor products, merged over the lcm of their denominators, run one
    contraction chain (``star_algebra._chain``) that sums only the steps
    j >= (D - order) / 2.  The chains are added over one denominator and
    split by degree at the end.  On the float backend the sums run in
    another order than the plain sum of per-pair products, so values may
    differ from it in the last bits.
    """
    require_same_basis(A, B)
    require_same_basis(A, form)
    cap = max(A.order, B.order) if budget is None else order + budget
    ka_max = min(A.order, cap)
    kb_max = min(B.order, cap)
    backend = A.backend
    consulted = (A.components[: ka_max + 1], B.components[: kb_max + 1])
    top = sum(K.top_exponent(e for c in cs for e in c.terms) for cs in consulted)
    lay = K.Layout.of(A.basis, top)
    xs, ys = (
        [_parts(backend, K.pack(c.terms, lay)) if c else None for c in cs] for cs in consulted
    )
    lam = _entry_parts(backend, form._entries)
    buckets = {}
    for k, x in enumerate(xs):
        for l, y in enumerate(ys):
            if x and y and abs(k - l) <= order:
                buckets.setdefault(k + l, []).append((x, y))
    chains = []
    for degree, pairs in buckets.items():
        tensors = [(1, _tensor(x, y, lay)) for x, y in pairs]
        u = _sum_parts(backend, tensors) if len(tensors) > 1 else tensors[0][1]
        left = [p for (_, xp), _ in pairs for p in xp]
        right = [p for _, (_, yp) in pairs for p in yp]
        first = max(0, (degree - order + 1) // 2)
        chains.append((1, _chain(backend, u, left, right, lam, z, lay, first)))
    grades = _from_parts(A, *_sum_parts(backend, chains), lay).grade_components()
    out = [grades.get(n) or Element.zero(A.basis, backend) for n in range(order + 1)]

    la, lb = A.polynomial_degree(), B.polynomial_degree()
    tail_a = A.has_tail or la > ka_max
    tail_b = B.has_tail or lb > kb_max
    if not tail_a and not tail_b:
        exact_through = order
    elif tail_a and tail_b:
        exact_through = -1
    elif tail_a:
        exact_through = ka_max - lb if lb >= 0 else order
    else:
        exact_through = kb_max - la if la >= 0 else order
    exact_through = min(exact_through, order)
    if require_exact and exact_through < order:
        raise TruncationBudgetError(
            f"tails can reach degree {exact_through + 1} and above; "
            "increase the truncation budget"
        )
    return TruncatedSeries(
        out,
        order,
        {"kind": "custom"},
        has_tail=A.has_tail or B.has_tail,
        meta={"exact_through": exact_through},
    )


def convergence_diagnosis(S: TruncatedSeries, p: WeightedSeminorm, R, window: int = 5):
    """Partial sums of n!^R p^n(S_n) with a finite-order growth verdict.

    The verdict inspects the term-ratio sequence: a clearly negative
    log-log slope means the ratios tend to zero (converging), a positive
    one that they blow up (diverging); for flat ratio sequences the level
    decides, with the band [0.95, 1.05] reported as inconclusive.  The
    window and band are finite-order heuristics; the underlying statements
    are asymptotic.
    """
    terms = []
    try:
        for n, comp in enumerate(S.components):
            terms.append(_weighted_term(n, float(R), pn_seminorm(comp, n, p)))
    except OverflowError:  # a weight p^n alone is beyond binary64
        terms.append(math.inf)
    partials = []
    acc = 0.0
    for v in terms:
        acc += v
        partials.append(acc)
    if not math.isfinite(acc):
        raise RefusedPreconditionError(
            f"at R = {float(R)!r} the terms or partial sums exceed binary64"
        )
    nz = [(n, t) for n, t in enumerate(terms) if t > 0.0]
    verdict, slope = _ratio_verdict(nz, window, not S.has_tail)
    ratios = [
        (nz[k + 1][1] / nz[k][1]) for k in range(len(nz) - 1)
    ]
    return {
        "terms": terms,
        "partials": partials,
        "ratios": ratios,
        "verdict": verdict,
        "slope": slope,
        "metadata": {
            "kind": S.label.get("kind", "custom"),
            "order": S.order,
            "R": float(R),
            "has_tail": S.has_tail,
        },
    }


def _ratio_verdict(nz_terms, window, finite):
    if finite or len(nz_terms) <= 1:
        return "converging", None
    ratios = []
    for k in range(len(nz_terms) - 1):
        n0, t0 = nz_terms[k]
        n1, t1 = nz_terms[k + 1]
        ratios.append((n1, (t1 / t0) ** (1.0 / (n1 - n0))))
    if len(ratios) < window + 2:
        return "inconclusive", None
    pts = ratios[max(len(ratios) // 2, len(ratios) - 3 * window) :]
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(r) for _, r in pts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    denom = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom if denom else 0.0
    if slope < -SLOPE_TOL:
        return "converging", slope
    if slope > SLOPE_TOL:
        return "diverging", slope
    level = math.exp(sum(math.log(r) for _, r in ratios[-window:]) / window)
    if level < RATIO_BAND[0]:
        return "converging", slope
    if level > RATIO_BAND[1]:
        return "diverging", slope
    return "inconclusive", slope


def divergence_witness_standard_ordered(eps: float, hbar: float, L: int):
    """Degree-zero partial sums of f_eps(p) * f_eps(q), standard ordering.

    The l-th term is (-i hbar)^l l!^{1-2eps}; below eps = 1/2 the term
    magnitudes eventually increase without bound, witnessing that no
    continuous product exists there.  Each term is obtained from an
    actual star product of the series components and cross-checked
    against the closed form.
    """
    if not (0 < eps < 0.5):
        raise RefusedPreconditionError("the witness is claimed only for 0 < eps < 1/2")
    if hbar < 0:
        raise DomainError("hbar must be nonnegative")
    if L < 0:
        raise DomainError("L must be >= 0")
    # The star product for l = L passes through L!^(2 - 2 eps) before the
    # term hbar^L L!^(1 - 2 eps); past binary64 either would turn into nan.
    log_fact = math.lgamma(L + 1)
    log_term = L * math.log(hbar or 1) + (1 - 2 * eps) * log_fact
    if max((2 - 2 * eps) * log_fact, log_term) >= LOG_FLOAT_MAX:
        raise RefusedPreconditionError(f"at L = {L} a star product or term exceeds binary64")
    from .basis import GeneratorBasis

    basis = GeneratorBasis(("q", "p"), ("even", "even"))
    form = BilinearForm.from_entries(basis, {("p", "q"): 1}, backend="float")
    z = complex(0, -hbar)
    fp = f_epsilon_series(Element.generator(basis, "p", "float"), eps, L)
    fq = f_epsilon_series(Element.generator(basis, "q", "float"), eps, L)
    terms = []
    for ell in range(L + 1):
        prod = star(fp.components[ell], fq.components[ell], z, form)
        const = prod.grade_component(0)
        val = next(iter(const.terms.values()), 0j)
        closed = (z**ell) * math.factorial(ell) ** (1 - 2 * eps)
        if abs(val - closed) > 1e-9 * max(1.0, abs(closed)):
            raise AssertionError("star route disagrees with the closed form")
        terms.append(val)
    partials = []
    acc = 0j
    for v in terms:
        acc += v
        partials.append(acc)
    term_mags = [abs(v) for v in terms]
    partial_mags = [abs(v) for v in partials]
    increasing_from = None
    for start in range(len(term_mags)):
        if all(
            term_mags[k + 1] > term_mags[k] for k in range(start, len(term_mags) - 1)
        ):
            increasing_from = start
            break
    return {
        "terms": terms,
        "term_magnitudes": term_mags,
        "partial_magnitudes": partial_mags,
        "increasing_from": increasing_from,
    }


def inner_translation_check(w: Element, v: Element, z, form: BilinearForm, order: int = 10):
    """Conjugation by the star-exponential versus the translation.

    Expands Exp(w) * v * Exp(-w) order by order in the one-parameter
    group: the r-th term is sum_{l+m=r} (-1)^m/(l! m!) w^{*l} * v * w^{*m},
    which by associativity (Hadamard's lemma) is ad_w^r(v)/r! with
    ad_w(x) = w * x - x * w.  Order zero is v, order one is phi(v) 1 with
    phi = 2 z minus(w, .), and every higher order vanishes identically
    (the iterated commutator of w with a scalar); the degree-zero partial
    sums therefore telescope to phi(v) and all components match
    v + phi(v) 1 exactly.

    So each order is ad_w of the last over r: two products with the
    degree-one w, which raise no exponent past v's largest plus one, on
    integer numerators over one layout, summed over one denominator.  The
    first order that vanishes leaves every later one zero (ad_w(0) = 0), so
    no product is taken from there on.  On the float backend this
    association differs from the plain expansion's, so values can differ
    from it in the last bits (the literal check can fail there from
    rounding).
    """
    _require_degree_one(w)
    if w.parity() != 0:
        raise DomainError("conjugating element must be even")
    z = scalars.coerce(w.backend, z)
    if not z:
        raise DomainError("z must be nonzero")
    require_same_basis(w, v)
    require_same_basis(w, form)
    _, minus = lambda_parts(form)
    phi_v = minus.apply(w, v) * z * 2

    backend = w.backend
    lay = K.Layout.of(w.basis, K.top_exponent(v.terms) + 1)
    wp = _parts(backend, K.pack(w.terms, lay))
    lam = _entry_parts(backend, form._entries)
    orders = []
    cumulative = Element.zero(w.basis, backend)
    degree0_partials = []
    cur = _parts(backend, K.pack(v.terms, lay))
    for r in range(order + 1):
        if r and any(cur[1]):
            left = _star_parts(backend, wp, cur, lam, z, lay)
            right = _star_parts(backend, cur, wp, lam, z, lay)
            cur = _sum_parts(backend, [(Fraction(1, r), left), (Fraction(-1, r), right)])
        term = _from_parts(w, *cur, lay)
        orders.append(term)
        cumulative = cumulative + term
        c0 = cumulative.grade_component(0)
        degree0_partials.append(next(iter(c0.terms.values()), scalars.zero(backend)))

    rhs = v + Element.scalar(w.basis, phi_v, backend)
    per_degree_match = [
        cumulative.grade_component(n) == rhs.grade_component(n)
        for n in range(order + 1)
    ]
    return {
        "orders": orders,
        "lhs_element": cumulative,
        "rhs_element": rhs,
        "per_degree_match": per_degree_match,
        "degree0_partials": degree0_partials,
        "phi_v": phi_v,
    }
