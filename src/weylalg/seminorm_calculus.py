"""Weighted seminorms, continuity-estimate verifiers and summability diagnostics.

Only l1-model seminorms are implemented: a positive weight per generator,
p(v) = sum w_i |v_i| on degree-one elements.  Projective tensor powers of
l1 are again l1 with product weights, so the degree-n seminorm of a
polynomial is an exactly computable coefficient sum; general seminorms
would require an infimum over tensor decompositions.

Numeric results are binary64 with a documented relative tolerance of 1e-9
for equality-style checks.  The product and bracket estimates are one
inequality check (``_estimate_report``).  It runs in exact rational
arithmetic whenever both sides are rational (rational weights and
coefficient magnitudes, integer weight exponent R; ``_takes_exact_path``),
otherwise in floats, refused where a float side leaves binary64.
Verifier grids are embarrassingly parallel and deterministic given a seed.

Exact seminorms are integer sums.  With the weights a_i/W over the lcm W
of their denominators and the coefficients integer numerators over one
den, degree n sums |numerator| times the product of the a_i^k into one
integer S_n, and pn(a, n) = S_n/(den W^n).  ``p_R`` and ``p_R_inf`` take
the n!^R S_n over the one denominator den W^N of the top degree N (times
N!^|R| for a negative R), and the product estimate's c' is one truncated
exponential on integers; each builds a single Fraction at the end.
"""

from __future__ import annotations

import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain

from . import scalars
from .bilinear_forms import BilinearForm
from .errors import DomainError, RefusedPreconditionError
from .graded_poly import Element
from .star_algebra import poisson_bracket, star

REL_TOL = 1e-9
# The package's binary64 range policy lives here: direct forms where they fit,
# log space where only an intermediate overflows, refusal outside the range.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
FLOAT_MIN = sys.float_info.min
# The exact product and bracket estimates build n!^R and 4^(Rk) as
# integers, and their time grows faster than R (a product-estimate trial of
# `verify` takes about 15 ms at R = 1000 and 1 s at R = 10000 with Python
# 3.11 on a 2-core x86-64 host, most of it in c' and its reduction);
# above this integer R they are refused.
EXACT_ESTIMATE_MAX_R = 1000


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


def _coeff_abs(c, exact: bool):
    if exact:
        a = scalars.abs_exact(c)
        if a is None:
            raise DomainError(
                "coefficient magnitude is irrational; exact seminorm unavailable"
            )
        return a
    return abs(c)


def _degree_sums(a: Element, p: WeightedSeminorm):
    """(den, W, sums): pn(a, n) = sums[n] / (den W^n), with integer sums.

    The weights are a_i/W over the lcm W of their denominators and the
    coefficients integer numerators over one den; sums[n] adds, over the
    degree-n terms, the modulus of the numerator times the product of the
    a_i^k.
    """
    if a.backend != "exact":
        raise DomainError("exact seminorms need exact coefficients; this element holds floats")
    W = math.lcm(*(w.denominator for w in p.weights))
    pows = [[1, w.numerator * (W // w.denominator)] for w in p.weights]
    den, (re, *im) = scalars.numerators(a.terms)
    sums = {}
    for e in a.terms:
        m = abs(re.get(e, 0))
        if im:
            s = m * m + im[0].get(e, 0) ** 2
            m = math.isqrt(s)
            if m * m != s:
                raise DomainError(
                    "coefficient magnitude is irrational; exact seminorm unavailable"
                )
        for i, k in enumerate(e):
            if k:
                row = pows[i]
                while len(row) <= k:
                    row.append(row[-1] * row[1])
                m *= row[k]
        n = sum(e)
        sums[n] = sums.get(n, 0) + m
    return den, W, sums


def pn_seminorm(a: Element, n: int, p: WeightedSeminorm, exact: bool = False):
    """Projective tensor seminorm of the degree-n component.

    Equals the sum over ordered coefficient tuples of |coefficient| times
    the product of weights; distinct monomials contribute disjoint tuple
    families, so this collapses to a plain weighted coefficient sum.
    """
    if exact:
        den, W, sums = _degree_sums(a, p)
        return Fraction(sums.get(n, 0), den * W**n)
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


def _exact_weighted_terms(a: Element, p: WeightedSeminorm, R):
    """(numerators, D) of the terms n!^R pn(a, n) over one denominator D.

    With N the top degree, D = den W^N, times N!^|R| when R < 0; the degree-n
    numerator is n!^R sums[n] W^(N-n), or (N!/n!)^|R| sums[n] W^(N-n).
    """
    R = Fraction(R)
    if R.denominator != 1:
        raise DomainError("exact factorial powers need an integer R")
    r = R.numerator
    den, W, sums = _degree_sums(a, p)
    N = max(sums, default=0)
    D = den * W**N
    if r >= 0:
        nums = [math.factorial(n) ** r * s * W ** (N - n) for n, s in sums.items()]
    else:
        nums = [math.perm(N, N - n) ** -r * s * W ** (N - n) for n, s in sums.items()]
        D *= math.factorial(N) ** -r
    return nums, D


def p_R(a: Element, p: WeightedSeminorm, R, exact: bool = False):
    """The weighted-factorial seminorm: sum_n n!^R * pn(a, n)."""
    if exact:
        nums, D = _exact_weighted_terms(a, p, R)
        return Fraction(sum(nums), D)
    total = 0.0
    for v in _degree_terms(a, p, R):
        total += v
    return total


def p_R_inf(a: Element, p: WeightedSeminorm, R, exact: bool = False):
    """The sup variant: sup_n n!^R * pn(a, n)."""
    if exact:
        nums, D = _exact_weighted_terms(a, p, R)
        return Fraction(max(nums, default=0), D)
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
        return {
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "constants": {
                k: (float(v) if isinstance(v, (int, float, Fraction)) else v)
                for k, v in self.constants.items()
            },
            "holds": self.holds,
            "witness": self.witness,
        }


def reports_to_csv(reports) -> str:
    """Flatten estimate reports into CSV rows (lhs, rhs, slack, holds).

    Sides that fit binary64 are written, and divided, as floats.  A row
    with an exact side beyond binary64 takes slack as the exact quotient,
    and each of its values beyond binary64 is written to 17 significant
    digits (``_csv_number``).
    """
    lines = ["index,lhs,rhs,slack,holds"]
    for k, rep in enumerate(reports):
        try:
            lhs, rhs = float(rep.lhs), float(rep.rhs)
        except OverflowError:
            lhs, rhs = rep.lhs, rep.rhs
        slack = rhs / lhs if lhs else math.inf
        cells = ",".join(map(_csv_number, (lhs, rhs, slack)))
        lines.append(f"{k},{cells},{int(rep.holds)}")
    return "\n".join(lines) + "\n"


def _csv_number(q) -> str:
    """repr(float(q)) where q fits binary64, else the exact q rounded to 17
    significant decimal digits."""
    try:
        return repr(float(q))
    except OverflowError:
        with localcontext() as ctx:
            ctx.prec = 17
            return f"{Decimal(q.numerator) / Decimal(q.denominator):.16e}"


def _dominating_seminorm(form: BilinearForm, p: WeightedSeminorm, exact: bool):
    """Rescale p so that |form(e_i, e_j)| <= p(e_i) p(e_j) everywhere."""
    gamma = Fraction(0) if exact else 0.0
    for i, j in form.pairs():
        c = form.matrix[i][j]
        mag = _coeff_abs(c, exact)
        ratio = mag / (p.weights[i] * p.weights[j])
        if ratio > gamma:
            gamma = ratio
    if gamma <= 1:
        return p, Fraction(1) if exact else 1.0
    if exact:
        sigma = Fraction(math.sqrt(float(gamma))).limit_denominator(10**9)
        while sigma * sigma < gamma:
            sigma *= Fraction(1048577, 1048576)
        return p.scaled(sigma), sigma
    sigma = math.sqrt(gamma) * (1 + 1e-12)
    return p.scaled(Fraction(sigma)), sigma


def _series_sum(term, kmax: int = 40) -> float:
    total = 0.0
    for k in range(kmax + 1):
        t = term(k)
        total += t
        if t < 1e-30 * (total or 1.0):
            break
    return total


def _exp_partial_sum(x: Fraction, kmax: int = 40) -> Fraction:
    """sum_{k <= kmax} x^k/k! as one Fraction.

    With x = u/v it is sum_k u^k v^(kmax-k) kmax!/k! over kmax! v^kmax,
    the numerator by Horner's rule on integers.
    """
    u, v = x.numerator, x.denominator
    acc, c, vp = 1, 1, 1
    for k in range(kmax, 0, -1):
        c *= k
        vp *= v
        acc = acc * u + c * vp
    return Fraction(acc, math.factorial(kmax) * vp)


def _takes_exact_path(exact, R: Fraction, a: Element, b: Element, result: Element,
                      form: BilinearForm, *magnitudes) -> bool:
    """The path of an estimate: with ``exact=None`` the exact one where it can
    answer, that is R an integer, exact coefficients and every magnitude the
    check uses rational (|c| of the form entries, of the coefficients of a,
    b and the result, and of ``magnitudes``).  An exact R past the cap is refused.
    """
    if exact is None:
        values = chain(magnitudes, (c for _, _, c in form._entries),
                       *(x.terms.values() for x in (a, b, result)))
        exact = R.denominator == 1 and a.backend == "exact" and all(
            not (isinstance(c, scalars.QC) and c.im) or scalars.abs_exact(c) is not None
            for c in values
        )
    if exact and R > EXACT_ESTIMATE_MAX_R:
        raise RefusedPreconditionError(
            f"exact estimates are limited to R <= {EXACT_ESTIMATE_MAX_R}"
        )
    return exact


def _estimate_report(a: Element, b: Element, result: Element, form: BilinearForm,
                     p: WeightedSeminorm, R: Fraction, exact: bool, constants,
                     witness: dict) -> EstimateReport:
    """Check p_R(result) <= c' (c p_dom)_R(a) (c p_dom)_R(b), p_dom dominating the form.

    ``constants(r, two)`` names c and, unless it is 1, c'; it gets R and 2
    as int and Fraction, or as floats, keeping binary64 order of operations
    on the float path.  Float values beyond binary64 are refused.
    """
    try:
        pd, sigma = _dominating_seminorm(form, p, exact)
        named = constants(R.numerator, Fraction(2)) if exact else constants(float(R), 2.0)
        lhs = p_R(result, pd, R, exact)
        cp = pd.scaled(named["c"])
        rhs = named.get("c_prime", 1) * p_R(a, cp, R, exact) * p_R(b, cp, R, exact)
        in_range = exact or math.isfinite(lhs) and math.isfinite(rhs)
    except OverflowError:
        in_range = False
    if not in_range:
        raise RefusedPreconditionError("an estimate's side or constant exceeds binary64")
    holds = lhs <= rhs if exact else lhs <= rhs * (1 + REL_TOL)
    return EstimateReport(
        lhs,
        rhs,
        {**named, "sigma": sigma, "R": R},
        bool(holds),
        {**witness, "deg_a": a.max_degree(), "deg_b": b.max_degree()},
    )


def verify_product_estimate(
    a: Element, b: Element, z, form: BilinearForm, R, p: WeightedSeminorm,
    exact: bool | None = None,
) -> EstimateReport:
    """Check p_R(a * b) <= c' (cp)_R(a) (cp)_R(b) with the proof constants.

    c = max(2|z|, 2, 2^R); c' is the convergent k-series of the matching
    proof branch, evaluated as a partial sum (a lower bound, which only
    strengthens the check).  Requires R >= 1/2; the estimate is not
    claimed below that.  |z| is among the magnitudes that choose the path.
    """
    R = Fraction(R)
    if R < Fraction(1, 2):
        raise RefusedPreconditionError("the product estimate requires R >= 1/2")
    if exact and R.denominator != 1:
        raise DomainError("exact product estimate needs an integer R")
    z = scalars.coerce(a.backend, z)
    prod = star(a, b, z, form)
    exact = _takes_exact_path(exact, R, a, b, prod, form, z)
    zmag = _coeff_abs(z, exact)

    def constants(r, two):
        fact = math.factorial
        if R > 1:
            branch, term = "R>1", lambda k: zmag**k * two ** (-2 * r * k) / fact(k)
        elif zmag < 1:
            branch, term = "R<=1,|z|<1", lambda k: (
                zmag**k * two ** (-2 * r * k) / fact(k) ** (2 * r - 1)
            )
        else:
            branch, term = "R<=1,|z|>=1", lambda k: (
                1 / (zmag**k * fact(k) ** (2 * r - 1) * two ** (2 * r * k))
            )
        # An exact R is an integer >= 1, so r = 1 in the R <= 1 branches, and
        # in every branch the k-th term is x^k/k! with x = term(1)
        c_prime = _exp_partial_sum(term(1)) if exact else _series_sum(term)
        return {"c": max(2 * zmag, two, two**r), "c_prime": c_prime, "branch": branch}

    return _estimate_report(a, b, prod, form, p, R, exact, constants, {"z": repr(z)})


def verify_bracket_estimate(
    a: Element, b: Element, form: BilinearForm, R, p: WeightedSeminorm,
    exact: bool | None = None,
) -> EstimateReport:
    """Check p_R({a, b}) <= (2^{R+1} p)_R(a) (2^{R+1} p)_R(b) for R >= 0."""
    R = Fraction(R)
    if R < 0:
        raise DomainError("the bracket estimate requires R >= 0")
    if exact and R.denominator != 1:
        raise DomainError("exact bracket estimate needs an integer R")
    br = poisson_bracket(a, b, form)
    exact = _takes_exact_path(exact, R, a, b, br, form)
    return _estimate_report(a, b, br, form, p, R, exact, lambda r, two: {"c": two ** (r + 1)}, {})


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
