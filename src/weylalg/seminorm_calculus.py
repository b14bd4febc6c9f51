"""Weighted seminorms, continuity-estimate verifiers and summability diagnostics.

Only l1-model seminorms are implemented: a positive weight per generator,
p(v) = sum w_i |v_i| on degree-one elements.  Projective tensor powers of
l1 are again l1 with product weights, so the degree-n seminorm of a
polynomial is an exactly computable coefficient sum; general seminorms
would require an infimum over tensor decompositions.

Exact seminorms are integer sums: with the weights a_i/W over the lcm W
of their denominators and the coefficients integer numerators over one
den, degree n sums |numerator| times the product of the a_i^(e_i) into one
integer S_n, and pn(a, n) = S_n/(den W^n); ``p_R`` puts every n!^R S_n
over one denominator.  The product and bracket estimates are one check
(``_estimate_report``) at every rational R, in rationals: each side and
constant lies between two such sums, with n!^R, 2^R and any irrational
modulus enclosed by integer roots at k bits, and k doubles until the
verdict is decided and every value prints as one number.  At an integer
R with rational magnitudes the two sums are one, the exact value.  The
other numeric results (``p_R`` without ``exact``, Koethe logs) are
binary64.  Verifier grids are deterministic given a seed.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from . import scalars
from .bilinear_forms import BilinearForm
from .errors import DomainError, RefusedPreconditionError
from .graded_poly import Element
from .star_algebra import poisson_bracket, star

# The package's binary64 range policy lives here: direct forms where they fit,
# log space where only an intermediate overflows, refusal outside the range.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
FLOAT_MIN = sys.float_info.min
# The estimates take Q-th roots of n!^P and 4^P for R = P/Q, and their time
# grows faster than P (a product-estimate trial of `verify` takes about
# 20 ms at R = 1000, 80 ms at R = 1999/2 and 1 s at R = 10000 with Python
# 3.11 on a 2-core x86-64 host); an R past these caps is refused at once.
EXACT_ESTIMATE_MAX_R = 1000
ESTIMATE_MAX_R_NUMERATOR = 2000
ESTIMATE_MAX_R_DENOMINATOR = 100
# The enclosures start at k = 0 bits (64 for a fractional R) and double up to this cap.
ESTIMATE_MAX_BITS = 4096


class WeightedSeminorm:
    """A positive weight per generator; p(v) = sum of w_i |v_i|."""

    __slots__ = ("basis", "weights")

    def __init__(self, basis, weights):
        ws = []
        for i, name in enumerate(basis.names):
            if isinstance(weights, dict):
                w = weights.get(name, 1)
            else:
                w = weights[i]
            w = Fraction(w)
            if w <= 0:
                raise DomainError(f"weight for {name!r} must be positive")
            ws.append(w)
        self.basis = basis
        self.weights = tuple(ws)

    @classmethod
    def unit(cls, basis):
        return cls(basis, {})

    def weight(self, i: int) -> Fraction:
        return self.weights[i]

    def scaled(self, c) -> "WeightedSeminorm":
        c = Fraction(c)
        return WeightedSeminorm(self.basis, [w * c for w in self.weights])

    def monomial_weight(self, exps) -> Fraction:
        out = Fraction(1)
        for i, k in enumerate(exps):
            if k:
                out *= self.weights[i] ** k
        return out

    def __repr__(self):
        return f"WeightedSeminorm({dict(zip(self.basis.names, self.weights))})"


def _weighted_terms(a: Element, p: WeightedSeminorm, R: Fraction, k: int = 0, c=(1, 1)):
    """The ends lo, hi of an enclosure of the terms n!^R c^n pn(a, n), c in
    [c[0], c[1]], each ({n: numerator}, denominator): with N the top degree
    and c = u/v there, n!^R 2^k u^n (W v)^(N-n) times 2^k S_n over den 4^k
    (W v)^N, n!^R and a complex numerator's modulus enclosed by
    ``scalars.root_bounds``.  A negative R, an integer, puts N!^|R| in the
    denominator and (N!/n!)^|R| for n!^R.  At width 0 the ends are one.
    """
    if a.backend != "exact":
        raise DomainError("exact seminorms need exact coefficients; this element holds floats")
    W = math.lcm(*(w.denominator for w in p.weights))
    pows = [[1, w.numerator * (W // w.denominator)] for w in p.weights]
    den, (re, *im) = scalars.numerators(a.terms)
    lows, gaps = {}, {}
    for e in a.terms:
        lo = hi = abs(re.get(e, 0)) << k
        if im:
            lo, hi = scalars.root_bounds(re.get(e, 0) ** 2 + im[0].get(e, 0) ** 2, 2, k)
        m = 1
        for i, j in enumerate(e):
            if j:
                row = pows[i]
                while len(row) <= j:
                    row.append(row[-1] * row[1])
                m *= row[j]
        n = sum(e)
        lows[n] = lows.get(n, 0) + lo * m
        if hi != lo:  # hi = lo + 1 for an irrational modulus
            gaps[n] = gaps.get(n, 0) + m
    highs = {n: s + gaps.get(n, 0) for n, s in lows.items()} if gaps else lows
    N = max(lows, default=0)
    P, Q = R.numerator, R.denominator
    D = (den << 2 * k) * math.factorial(N) ** max(-P, 0)
    powers = {n: math.perm(N, N - n) ** -P if P < 0 else math.factorial(n) ** P for n in lows}
    facts = {n: scalars.root_bounds(x, Q, k) for n, x in powers.items()}

    def end(sums, c, i):
        u, Wv = c.numerator, W * c.denominator
        return {n: facts[n][i] * u**n * s * Wv ** (N - n) for n, s in sums.items()}, D * Wv**N

    lo = end(lows, c[0], 0)
    if highs is lows and c[0] == c[1] and all(f == h for f, h in facts.values()):
        return lo, lo
    return lo, end(highs, c[1], 1)


def _exact_terms(a: Element, p: WeightedSeminorm, R):
    """The terms of ``_weighted_terms`` where their enclosure has width 0."""
    R = Fraction(R)
    if R.denominator != 1:
        raise DomainError("exact factorial powers need an integer R")
    lo, hi = _weighted_terms(a, p, R)
    if hi is not lo:
        raise DomainError("coefficient magnitude is irrational; exact seminorm unavailable")
    return lo


def pn_seminorm(a: Element, n: int, p: WeightedSeminorm, exact: bool = False):
    """Projective tensor seminorm of the degree-n component.

    Equals the sum over ordered coefficient tuples of |coefficient| times
    the product of weights; distinct monomials contribute disjoint tuple
    families, so this collapses to a plain weighted coefficient sum.
    """
    if exact:
        nums, D = _exact_terms(a, p, 0)
        return Fraction(nums.get(n, 0), D)
    total = 0.0
    for e, c in a.terms.items():
        if sum(e) == n:
            # a float times a Fraction multiplies by float(Fraction)
            total += abs(c) * p.monomial_weight(e)
    return total


def _fact_pow_float(n: int, x: float) -> float:
    """n!^x by the direct form while n! fits binary64 (n <= 170), else in log space."""
    if n <= 170:
        return math.factorial(n) ** x
    return math.exp(x * math.lgamma(n + 1))


def _require_normal_floats(a: Element, count: int, what: str):
    """Refuse a float element that lost a term to underflow (fewer than
    ``count``) or holds a coefficient below the normal binary64 range."""
    if len(a.terms) < count or any(abs(c) < FLOAT_MIN for c in a.terms.values()):
        raise RefusedPreconditionError(
            f"{what}: a coefficient underflows binary64 (below its normal range or to zero)"
        )


def _weighted_term(n: int, R, pn):
    """n!^R * pn; in log space only where n!^R alone overflows, inf beyond binary64."""
    try:
        return math.exp(float(R) * math.lgamma(n + 1)) * pn
    except OverflowError:
        log_v = float(R) * math.lgamma(n + 1) + math.log(pn) if pn else -math.inf
        return math.exp(log_v) if log_v < LOG_FLOAT_MAX else math.inf


def _degree_terms(a: Element, p: WeightedSeminorm, R):
    for n, part in a.grade_components().items():
        yield _weighted_term(n, R, pn_seminorm(part, n, p))


def p_R(a: Element, p: WeightedSeminorm, R, exact: bool = False):
    """The weighted-factorial seminorm: sum_n n!^R * pn(a, n)."""
    if exact:
        nums, D = _exact_terms(a, p, R)
        return Fraction(sum(nums.values()), D)
    total = 0.0
    for v in _degree_terms(a, p, R):
        total += v
    return total


def p_R_inf(a: Element, p: WeightedSeminorm, R, exact: bool = False):
    """The sup variant: sup_n n!^R * pn(a, n)."""
    if exact:
        nums, D = _exact_terms(a, p, R)
        return Fraction(max(nums.values(), default=0), D)
    return max(_degree_terms(a, p, R), default=0.0)


def wick_epsilon_norm(a: Element, eps: float):
    """Sup of Taylor-coefficient magnitudes damped by n!^eps.

    Monomial coefficients convert to Taylor coefficients by the product of
    exponent factorials.  Odd generators are not part of this picture.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    best = 0.0
    for e, c in a.terms.items():
        for i, k in enumerate(e):
            if k and not a.basis.is_even(i):
                raise DomainError("element contains odd generators")
        n = sum(e)
        v = _direct_or(
            lambda: math.prod(map(math.factorial, e), start=_normal_abs(c))
            / math.factorial(n) ** eps,
            lambda: _exp_in_range(
                scalars.log_abs(c) + sum(math.lgamma(k + 1) for k in e) - eps * math.lgamma(n + 1),
                f"the Taylor weight of a degree-{n} term",
            ),
        )
        best = max(best, v)
    return best


def _direct_or(direct, fallback) -> float:
    """direct() while it and its intermediates fit binary64, else fallback()."""
    try:
        v = direct()
    except OverflowError:
        v = math.inf
    return v if math.isfinite(v) else fallback()


def _normal_abs(c) -> float:
    """|c| where it is a normal binary64 value (or c is 0), else nan.

    A nonzero |c| that underflows carries too little of its value for a
    direct form; nan sends ``_direct_or`` to the log-space fallback.
    """
    m = abs(c)
    return m if m >= FLOAT_MIN or not c else math.nan


def _exp_in_range(log_v: float, what: str) -> float:
    if log_v >= LOG_FLOAT_MAX:
        raise RefusedPreconditionError(f"{what} exceeds binary64")
    return math.exp(log_v)


def _to_float_element(a: Element) -> Element:
    if a.backend == "float":
        return a
    return Element(
        a.basis, "float", {e: complex(c) for e, c in a.terms.items()}
    )


def ommy_norm_upper(a: Element, p_param: float, s: float, seed: int = 0, samples: int = 200):
    """Certified upper bound for the sup-type seminorm sup |a(x)| e^{-s|x|^p}.

    Uses the per-degree bound sup_r r^n e^{-s r^p} = (n/(sp))^{n/p} e^{-n/p}
    with the unit-weight coefficient sum per degree.  A Monte-Carlo lower
    bound (a maximum of sampled values) is returned alongside.
    """
    if not (0 < p_param <= 2):
        raise DomainError("p_param must lie in (0, 2]")
    if s <= 0:
        raise DomainError("s must be positive")
    p = WeightedSeminorm.unit(a.basis)
    upper = 0.0
    for n, part in a.grade_components().items():
        pn = pn_seminorm(part, n, p)
        # at n = 0 the bound is 0.0 ** 0.0 * exp(-0.0) = 1.0
        upper += _direct_or(
            lambda: pn * ((n / (s * p_param)) ** (n / p_param) * math.exp(-n / p_param)),
            lambda: _exp_in_range(
                math.log(pn) + n / p_param * (math.log(n / (s * p_param)) - 1),
                f"the degree-{n} bound",
            ),
        )
    if upper == math.inf:
        raise RefusedPreconditionError("the sup-seminorm upper bound exceeds binary64")
    rng = random.Random(seed)
    af = _to_float_element(a)
    names = [a.basis.names[i] for i in a.basis.even_indices()]
    if len(names) != a.basis.dimension:
        raise DomainError("sup-seminorm sampling needs an all-even basis")
    lower = 0.0
    for _ in range(samples):
        radius = rng.expovariate(0.5)
        point = {}
        norm2 = 0.0
        for name in names:
            x = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            point[name] = x
            norm2 += abs(x) ** 2
        scale = radius / math.sqrt(norm2) if norm2 else 0.0
        point = {k: v * scale for k, v in point.items()}
        val = _direct_or(
            lambda: abs(af.evaluate(point)) * math.exp(-s * radius**p_param),
            lambda: _damped_value_in_log_space(af, point, radius, p_param, s),
        )
        lower = max(lower, val)
    return {"upper": upper, "lower": lower, "p": p_param, "s": s}


def _damped_value_in_log_space(af: Element, point, radius, p_param, s):
    """|a(x)| e^{-s r^p} at |x| = r > 0, each monomial's |c| r^n e^{-s r^p} taken
    in log space; that factor is at most |c| times the degree-n bound."""
    direction = [point[name] / radius for name in af.basis.names]
    log_r, damp = math.log(radius), s * radius**p_param
    total = 0j
    for e, c in af.terms.items():
        mono = math.prod(u**k for u, k in zip(direction, e))
        total += c / abs(c) * mono * math.exp(math.log(abs(c)) + sum(e) * log_r - damp)
    return abs(total)


class EstimateReport:
    """The two sides of an estimate, its constants, verdict and witness."""

    __slots__ = ("lhs", "rhs", "constants", "holds", "witness")

    def __init__(self, lhs, rhs, constants: dict, holds: bool, witness: dict | None = None):
        self.lhs = lhs
        self.rhs = rhs
        self.constants = constants
        self.holds = holds
        self.witness = {} if witness is None else witness

    def to_dict(self):
        """Sides and numeric constants by ``_number``."""
        return {
            "lhs": _number(self.lhs),
            "rhs": _number(self.rhs),
            "constants": {
                k: (_number(v) if isinstance(v, (int, float, Fraction)) else v)
                for k, v in self.constants.items()
            },
            "holds": self.holds,
            "witness": self.witness,
        }


def reports_to_csv(reports) -> str:
    """Flatten estimate reports into CSV rows (lhs, rhs, slack, holds).

    Sides that fit binary64 are divided as floats; a row with a side beyond
    it takes slack as the exact quotient.  Values are written by ``_number``.
    """
    lines = ["index,lhs,rhs,slack,holds"]
    for k, rep in enumerate(reports):
        try:
            lhs, rhs = float(rep.lhs), float(rep.rhs)
        except OverflowError:
            lhs, rhs = Fraction(rep.lhs), Fraction(rep.rhs)
        slack = rhs / lhs if lhs else math.inf
        cells = ",".join(str(_number(x)) for x in (lhs, rhs, slack))
        lines.append(f"{k},{cells},{int(rep.holds)}")
    return "\n".join(lines) + "\n"


def _number(q):
    """float(q) where q fits binary64, else q to 17 significant digits, a str."""
    try:
        return float(q)
    except OverflowError:
        with localcontext() as ctx:
            ctx.prec = 17
            return f"{Decimal(q.numerator) / Decimal(q.denominator):.16e}"


def _reported(lo: Fraction, hi: Fraction):
    """What an enclosure [lo, hi] reports: lo at width 0, else the float both
    ends round to, or beyond binary64 lo once both ends print alike by
    ``_number``; None while the ends differ."""
    if lo == hi:
        return lo
    x = _number(lo)
    return None if x != _number(hi) else lo if isinstance(x, str) else x


def _dominating_seminorm(form: BilinearForm, p: WeightedSeminorm):
    """Rescale p so that |form(e_i, e_j)| <= p(e_i) p(e_j) everywhere.

    With gamma the largest |form(e_i, e_j)| / (p(e_i) p(e_j)), sigma starts
    at the binary64 root of gamma cut to a denominator of at most 10^9 (past
    binary64, at an integer root) and grows until sigma^4 >= gamma^2."""
    w2 = [w * w for w in p.weights]
    gamma2 = max((form.matrix[i][j].abs2() / (w2[i] * w2[j]) for i, j in form.pairs()), default=0)
    if gamma2 <= 1:
        return p, Fraction(1)
    n, d = gamma2.numerator, gamma2.denominator
    try:
        sigma = Fraction(math.sqrt(scalars._fraction_sqrt(gamma2) or math.sqrt(gamma2)))
    except OverflowError:
        sigma = Fraction(math.isqrt(math.isqrt(n * d**3)) + 1, d)
    sigma = sigma.limit_denominator(10**9)
    while sigma**4 < gamma2:
        sigma *= Fraction(1048577, 1048576)
    return p.scaled(sigma), sigma


@functools.lru_cache(maxsize=64)
def _factorial_roots(P: int, Q: int, k: int):
    """The lo ends, then the hi ends, of j!^(P/Q) 2^k for j <= 40 (``scalars.root_bounds``)."""
    return tuple(zip(*(scalars.root_bounds(math.factorial(j) ** P, Q, k) for j in range(41))))


def _c_prime(x_lo: Fraction, x_hi: Fraction, e: Fraction, k: int):
    """[lo, hi] around sum_{j <= 40} x^j / j!^e for x in [x_lo, x_hi]: it grows
    with x and falls with j!^e.  With x = u/v and L the lcm of the divisors
    d_j, an end is sum_j u^j v^(40-j) L/d_j over L v^40, by Horner's rule."""
    lows, highs = _factorial_roots(e.numerator, e.denominator, k)

    def end(x, divisors):
        u, v, L = x.numerator, x.denominator, math.lcm(*divisors)
        acc, vp = 0, 1
        for d in reversed(divisors):
            acc = acc * u + L // d * vp
            vp *= v
        return Fraction(acc << k, L * vp // v)

    lo = end(x_lo, highs)
    return lo, lo if x_lo == x_hi and lows == highs else end(x_hi, lows)


def _estimate_report(a: Element, b: Element, result: Element, form: BilinearForm,
                     p: WeightedSeminorm, R: Fraction, exact, constants,
                     witness: dict) -> EstimateReport:
    """Check p_R(result) <= c' (c p_dom)_R(a) (c p_dom)_R(b), p_dom dominating the form.

    ``constants(k)`` names the enclosures of c and, unless it is 1, c' at k
    bits.  From k = 0 (64 for a fractional R), k doubles until hi(lhs) <=
    lo(rhs) (holds) or lo(lhs) > hi(rhs) (fails) and every value prints as
    one number (``_reported``), refused past ESTIMATE_MAX_BITS; with
    ``exact`` a nonzero width is a DomainError."""
    pd, sigma = _dominating_seminorm(form, p)

    def side(x, c=(1, 1)):
        (lows, D), (highs, E) = _weighted_terms(x, pd, R, k, c)
        lo = Fraction(sum(lows.values()), D)
        return lo, lo if highs is lows else Fraction(sum(highs.values()), E)

    k = 0 if R.denominator == 1 else 64
    while True:
        if k > ESTIMATE_MAX_BITS:
            raise RefusedPreconditionError(f"the estimate needs more than {ESTIMATE_MAX_BITS} bits")
        named = constants(k)
        lhs = side(result)
        (al, ah), (bl, bh) = side(a, named["c"]), side(b, named["c"])
        cl, ch = named.get("c_prime", (1, 1))
        rhs = (cl * al * bl,) * 2 if (cl, al, bl) == (ch, ah, bh) else (cl * al * bl, ch * ah * bh)
        ends = {"lhs": lhs, "rhs": rhs, **named}
        spans = {n: v for n, v in ends.items() if isinstance(v, tuple)}
        if exact and any(lo != hi for lo, hi in spans.values()):
            raise DomainError("coefficient magnitude is irrational; exact seminorm unavailable")
        shown = {**ends, **{n: _reported(*v) for n, v in spans.items()}}
        if (lhs[1] <= rhs[0] or lhs[0] > rhs[1]) and None not in shown.values():
            break
        k = max(2 * k, 64)
    return EstimateReport(
        shown.pop("lhs"),
        shown.pop("rhs"),
        {**shown, "sigma": sigma, "R": R},
        lhs[1] <= rhs[0],
        {**witness, "deg_a": a.max_degree(), "deg_b": b.max_degree()},
    )


def _admit(a: Element, R: Fraction, exact, what: str):
    """Refuse float operands, an R past the caps, and with ``exact`` a fractional R."""
    if a.backend != "exact":
        raise DomainError("the estimates are exact: the operands need exact coefficients")
    if exact and R.denominator != 1:
        raise DomainError(f"exact {what} estimate needs an integer R")
    if (R > EXACT_ESTIMATE_MAX_R or R.numerator > ESTIMATE_MAX_R_NUMERATOR
            or R.denominator > ESTIMATE_MAX_R_DENOMINATOR):
        raise RefusedPreconditionError(
            f"the estimates are limited to R = P/Q <= {EXACT_ESTIMATE_MAX_R}, P <= "
            f"{ESTIMATE_MAX_R_NUMERATOR}, Q <= {ESTIMATE_MAX_R_DENOMINATOR}")


def verify_product_estimate(
    a: Element, b: Element, z, form: BilinearForm, R, p: WeightedSeminorm,
    exact: bool | None = None,
) -> EstimateReport:
    """Check p_R(a * b) <= c' (cp)_R(a) (cp)_R(b) with the proof constants.

    c = max(2|z|, 2, 2^R); c' is the convergent series sum_k x^k / k!^e of
    the matching proof branch, summed to k = 40 (a lower bound, which only
    strengthens the check).  Requires R >= 1/2; the estimate is not claimed
    below that.
    """
    R = Fraction(R)
    if R < Fraction(1, 2):
        raise RefusedPreconditionError("the product estimate requires R >= 1/2")
    _admit(a, R, exact, "product")
    z = scalars.coerce(a.backend, z)
    prod = star(a, b, z, form)
    z2 = z.abs2()
    # c' sums x^k / k!^e with x = y 4^(-R) and y^2 = y2
    branch, y2, e = (("R>1", z2, 1) if R > 1 else ("R<=1,|z|<1", z2, 2 * R - 1) if z2 < 1
                     else ("R<=1,|z|>=1", 1 / z2, 2 * R - 1))

    def constants(k):
        (zl, zh), (yl, yh) = (scalars.rational_root_bounds(v, 2, k) for v in (z2, y2))
        two_R, four_R = (scalars.rational_root_bounds(Fraction(t**R.numerator), R.denominator, k)
                         for t in (2, 4))
        return {
            "c": (max(2 * zl, Fraction(2), two_R[0]), max(2 * zh, Fraction(2), two_R[1])),
            "c_prime": _c_prime(yl / four_R[1], yh / four_R[0], e, k),
            "branch": branch,
        }

    return _estimate_report(a, b, prod, form, p, R, exact, constants, {"z": repr(z)})


def verify_bracket_estimate(
    a: Element, b: Element, form: BilinearForm, R, p: WeightedSeminorm,
    exact: bool | None = None,
) -> EstimateReport:
    """Check p_R({a, b}) <= (2^{R+1} p)_R(a) (2^{R+1} p)_R(b) for R >= 0."""
    R = Fraction(R)
    if R < 0:
        raise DomainError("the bracket estimate requires R >= 0")
    _admit(a, R, exact, "bracket")
    br = poisson_bracket(a, b, form)
    two_R1 = Fraction(2 ** (R.numerator + R.denominator))

    def constants(k):
        return {"c": scalars.rational_root_bounds(two_R1, R.denominator, k)}

    return _estimate_report(a, b, br, form, p, R, exact, constants, {})


# -- Koethe matrices and summability -------------------------------------


def _monomials_of_degree(basis, n):
    d = basis.dimension
    out = []

    def rec(i, remaining, acc):
        if i == d:
            if remaining == 0:
                out.append(tuple(acc))
            return
        cap = remaining if basis.is_even(i) else min(1, remaining)
        for k in range(cap + 1):
            acc.append(k)
            rec(i + 1, remaining - k, acc)
            acc.pop()

    rec(0, n, [])
    return sorted(out)


class KotheMatrix:
    """Rows: basis monomials up to a degree cap; columns: (seminorm, R) pairs.

    The entry for a degree-n monomial is n!^R times the product of its
    generator weights.  Entries are kept in log space for diagnostics (the
    raw values overflow binary64 well before n = 200); exact values are
    available per entry when R is an integer.
    """

    def __init__(self, basis, columns, n_max):
        if n_max < 0:
            raise DomainError("n_max must be >= 0")
        self.basis = basis
        self.columns = []
        for col in columns:
            p, R = col
            self.columns.append((p, Fraction(R)))
        if not self.columns:
            raise DomainError("at least one column is required")
        self.rows = []
        for n in range(n_max + 1):
            self.rows.extend(_monomials_of_degree(basis, n))
        self.degrees = [sum(e) for e in self.rows]

    def log_entry(self, i: int, j: int) -> float:
        p, R = self.columns[j]
        n = self.degrees[i]
        total = float(R) * math.lgamma(n + 1)
        for g, k in enumerate(self.rows[i]):
            if k:
                total += k * math.log(float(p.weights[g]))
        return total

    def entry(self, i: int, j: int):
        """Exact for an integer R (refused past the int-str digit limit), else binary64."""
        p, R = self.columns[j]
        n = self.degrees[i]
        if R.denominator == 1:
            fact_digits = math.lgamma(n + 1) / math.log(10)
            ws = [(k, p.weights[g]) for g, k in enumerate(self.rows[i]) if k]
            num = max(R, 0) * fact_digits + sum(k * math.log10(w.numerator) for k, w in ws)
            den = max(-R, 0) * fact_digits + sum(k * math.log10(w.denominator) for k, w in ws)
            limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
            if max(num, den) >= limit:
                raise RefusedPreconditionError(
                    f"the exact entry of degree {n} in column {j} passes {limit} digits"
                )
            return Fraction(math.factorial(n)) ** R.numerator * p.monomial_weight(
                self.rows[i]
            )
        return _exp_in_range(self.log_entry(i, j), f"the entry of degree {n} in column {j}")

    @property
    def shape(self):
        return (len(self.rows), len(self.columns))

    def entry_repr(self, i: int, j: int) -> str:
        v = self.entry(i, j)
        return str(v) if isinstance(v, Fraction) else repr(v)

    def to_csv(self) -> str:
        """CSV with one row per monomial: degree, exponents, then columns."""
        lines = ["degree,monomial," + ",".join(f"col{j}" for j in range(len(self.columns)))]
        for i, exps in enumerate(self.rows):
            mono = "*".join(
                f"{self.basis.names[g]}^{k}" if k > 1 else self.basis.names[g]
                for g, k in enumerate(exps)
                if k
            ) or "1"
            cells = ",".join(self.entry_repr(i, j) for j in range(len(self.columns)))
            lines.append(f"{self.degrees[i]},{mono},{cells}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "rows": [
                {
                    "degree": self.degrees[i],
                    "exponents": list(self.rows[i]),
                    "entries": [self.entry_repr(i, j) for j in range(len(self.columns))],
                }
                for i in range(len(self.rows))
            ],
            "columns": [
                {"R": str(R), "weights": [str(w) for w in p.weights]}
                for p, R in self.columns
            ],
        }


def kothe_matrix(seminorms, R, n_max, basis=None) -> KotheMatrix:
    """Build the weight matrix of the graded algebra's monomial basis.

    ``seminorms`` is a list of WeightedSeminorm (sharing one R) or a list
    of (WeightedSeminorm, R) pairs; a scale grid c*p is expressed through
    ``WeightedSeminorm.scaled``.
    """
    cols = []
    for item in seminorms:
        if isinstance(item, WeightedSeminorm):
            cols.append((item, R))
        else:
            cols.append(item)
    if basis is None:
        basis = cols[0][0].basis
    return KotheMatrix(basis, cols, n_max)


def nuclearity_diagnostic(K: KotheMatrix, mode: str = "nuclear", alphas=None):
    """Grothendieck-Pietsch style summability check on column ratios.

    For each ordered column pair (small, large) with the large column
    dominating entrywise, the partial sums of (small/large)^alpha over the
    rows are computed, alpha = 1 for plain nuclearity or a halving grid
    for the strong variant.  A pair is reported summable when the
    per-degree term blocks decay geometrically (ratio test); identical
    columns give ratio one and are flagged non-summable.
    """
    if mode not in ("nuclear", "strong"):
        raise DomainError("mode must be 'nuclear' or 'strong'")
    if alphas is None:
        alphas = [1.0] if mode == "nuclear" else [1.0, 0.5, 0.25]
    ncols = len(K.columns)
    nrows = len(K.rows)
    comparable = []
    for i in range(ncols):
        for j in range(ncols):
            if i == j:
                continue
            if all(
                K.log_entry(r, j) >= K.log_entry(r, i) - 1e-12 for r in range(nrows)
            ):
                comparable.append((i, j))
    if not comparable:
        raise DomainError("no entrywise-comparable column pairs")
    results = []
    max_degree = max(K.degrees)
    for i, j in comparable:
        logratio = [K.log_entry(r, i) - K.log_entry(r, j) for r in range(nrows)]
        for alpha in alphas:
            blocks = [0.0] * (max_degree + 1)
            for r in range(nrows):
                blocks[K.degrees[r]] += math.exp(alpha * logratio[r])
            partials = []
            acc = 0.0
            for v in blocks:
                acc += v
                partials.append(acc)
            summable = _blocks_summable(blocks)
            results.append(
                {
                    "pair": (i, j),
                    "alpha": alpha,
                    "partials": partials,
                    "block_terms": blocks,
                    "summable": summable,
                }
            )
    return {"mode": mode, "results": results}


def _blocks_summable(blocks, window: int = 5) -> bool:
    terms = [b for b in blocks if b > 0]
    if len(terms) <= window:
        return True
    ratios = [terms[k + 1] / terms[k] for k in range(len(terms) - 1)]
    tail = ratios[-window:]
    return all(r < 0.999 for r in tail)
