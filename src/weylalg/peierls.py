"""Exact lattice field theory on a periodic-space, finite-time window.

A 1+1-dimensional wave operator with unit speed and rational mass term is
discretized so that every structural identity of the continuum theory
(Green operators, propagator, covariant and canonical Poisson pairings,
Casimirs, locality, time-slice reduction) becomes a finite exact check
over the rationals.  Light cones are exact: a source at (t0, x0)
influences (t, x) only for |x - x0| <= |t - t0| in periodic distance.

Temporal boundaries are hard: all test sections must keep one step of
margin (1 <= t <= T-2), which preserves the discrete symmetry of the wave
operator under the counting pairing and therefore all exactness claims.
The overall sign of the canonical two-slice pairing is fixed once so that
restriction to any slice pair is a Poisson morphism onto the covariant
pairing (see ``SIGMA_SIGN``).

Sums run on integer numerators over one denominator
(``scalars.numerators``), and a ``Fraction`` is built only for a value
that is read.  The integer sums are three:

- Sparse kernel rows, one Green kernel per spacetime.  The wave operator
  commutes with the periodic space shifts and, inside the window, with
  time shifts, so the retarded Green operator of delta(t0, x0) at
  (t0+1+s, x) is the kernel entry ``K[s][(x - x0) mod N]`` and the
  advanced one at (t0-1-s, x) is the same entry.  The T-2 rows of ``K``
  come from one leapfrog of a unit delta, built on first use, and keep
  only their nonzero entries.  Every Green operator, the propagator and
  the two-slice restriction are sums of shifted kernel rows, shifted and
  summed in one place, ``_kernel_rows``.
- Integer pairings.  Each ``LatticeSection`` and each ``CauchyPair``
  keeps integer numerators over one positive denominator, so ``pairing``
  and ``lambda_sigma`` are one integer dot product and one division.  The
  Green operators and ``rho_sigma`` hand their kernel rows over as they
  are; ``values``, ``u0`` and ``u1`` build their ``Fraction``s when read.
- Fraction-free elimination rows.  ``exact_rank`` and ``_solve_exact`` share
  one Jordan elimination on sparse integer rows that are kept primitive
  (each divided by the gcd of its entries), as in Geddes, Czapor and
  Labahn, *Algorithms for Computer Algebra* (1992).  ``exact_rank`` first
  runs a modular certificate (ibid., ch. 5 and 9): the rank of the integer
  rows mod the prime 2^61 - 1 is at most their rank over Q, so when it
  reaches min(rows, cols) it is the exact rank, and the elimination runs
  only where it does not.

The wave operator ``apply_D`` runs its stencil on numerators too: with
m2 = m/dm the two time neighbours carry dm, the two space neighbours -dm
and the site itself m, over the section's denominator times dm.

``solve_cauchy`` keeps its leapfrog, since Cauchy evolution from two
slices is a different problem; the test suite keeps a plain leapfrog of
the Green operators as the reference the kernel is compared with.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from . import scalars
from .basis import GeneratorBasis
from .bilinear_forms import BilinearForm
from .errors import DomainError, WindowOverflowError

# Fixed so that lambda_sigma(rho(phi), rho(psi)) = +lambda_cov(phi, psi);
# frozen after being derived against the brute-force pairing oracle.
SIGMA_SIGN = -1
# the value of every pairing that vanishes; Fractions are immutable
_ZERO = Fraction(0)
# the prime of the rank certificate; its residues fit in one 64-bit word
_P = 2**61 - 1


class LatticeSection:
    """Finitely supported rational function on the (t, x) window: nonzero
    integer numerators over one positive denominator, not always reduced."""

    __slots__ = ("_nums", "_den")

    def __init__(self, values=None):
        vals = {}
        for key, v in (values or {}).items():
            q = Fraction(v)
            if q:
                vals[(int(key[0]), int(key[1]))] = q
        self._den, (self._nums,) = scalars.numerators(vals)

    @classmethod
    def _from_numerators(cls, nums, den):
        """The section nums/den, for {site: nonzero int} and den > 0."""
        self = object.__new__(cls)
        self._nums, self._den = nums, den
        return self

    @classmethod
    def delta(cls, t, x, value=1):
        n, d = Fraction(value).as_integer_ratio()
        return cls._from_numerators({(int(t), int(x)): n} if n else {}, d)

    @property
    def values(self):
        return {k: Fraction(n, self._den) for k, n in self._nums.items()}

    def __getitem__(self, key):
        return Fraction(self._nums.get(key, 0), self._den)

    def __add__(self, other):
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        out = {k: n * a for k, n in self._nums.items()}
        for k, n in other._nums.items():
            out[k] = out.get(k, 0) + n * b
        return LatticeSection._from_numerators({k: n for k, n in out.items() if n}, den)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        n, d = Fraction(c).as_integer_ratio()
        nums = {k: v * n for k, v in self._nums.items()} if n else {}
        return LatticeSection._from_numerators(nums, self._den * d)

    def support(self):
        return set(self._nums)

    def __eq__(self, other):
        if not isinstance(other, LatticeSection):
            return NotImplemented
        a, b = self._den, other._den
        mine = {k: n * b for k, n in self._nums.items()}
        return mine == {k: n * a for k, n in other._nums.items()}

    def __bool__(self):
        return bool(self._nums)

    def __repr__(self):
        return f"LatticeSection({self.values!r})"


class CauchyPair:
    """Values on two consecutive time slices, on all spatial sites.

    The pair keeps both slices as integer numerators over one positive
    denominator, for the Wronskian; ``u0`` and ``u1`` are their values.
    """

    __slots__ = ("_num0", "_num1", "_den")

    def __init__(self, u0, u1):
        u0 = [Fraction(v) for v in u0]
        u1 = [Fraction(v) for v in u1]
        if len(u0) != len(u1):
            raise DomainError("slices must have equal length")
        n = len(u0)
        den, (nums,) = scalars.numerators(dict(enumerate(u0 + u1)))
        num = [nums.get(i, 0) for i in range(2 * n)]
        self._num0, self._num1, self._den = num[:n], num[n:], den

    @classmethod
    def _from_numerators(cls, num0, num1, den):
        """The pair with slices num0/den and num1/den, for integer lists and den > 0."""
        self = object.__new__(cls)
        self._num0, self._num1, self._den = num0, num1, den
        return self

    @property
    def u0(self):
        return tuple(Fraction(n, self._den) for n in self._num0)

    @property
    def u1(self):
        return tuple(Fraction(n, self._den) for n in self._num1)

    @property
    def sites(self):
        return len(self._num0)

    def __eq__(self, other):
        if not isinstance(other, CauchyPair):
            return NotImplemented
        a, b = self._num0 + self._num1, other._num0 + other._num1
        return [n * other._den for n in a] == [n * self._den for n in b]

    def __repr__(self):
        return f"CauchyPair({self.u0!r}, {self.u1!r})"


class LatticeSpacetime:
    """A T x N window, periodic in space, with rational squared mass."""

    __slots__ = ("T", "N", "m2", "_kernel")

    def __init__(self, T: int, N: int, m2=0):
        if T < 3 or N < 3:
            raise DomainError("need T >= 3 and N >= 3")
        m2 = Fraction(m2)
        if m2 < 0:
            raise DomainError("squared mass must be nonnegative")
        self.T = T
        self.N = N
        self.m2 = m2
        self._kernel = None

    # -- basic checks ---------------------------------------------------

    def _check_in_window(self, u: LatticeSection):
        for t, x in u._nums:
            if not (0 <= t < self.T and 0 <= x < self.N):
                raise WindowOverflowError(f"site ({t}, {x}) outside the window")

    def check_margin(self, u: LatticeSection):
        self._check_in_window(u)
        for t, _ in u._nums:
            if t < 1 or t > self.T - 2:
                raise WindowOverflowError(
                    f"support touches the temporal boundary (t = {t})"
                )

    def spatial_distance(self, x0: int, x1: int) -> int:
        d = abs(x0 - x1) % self.N
        return min(d, self.N - d)

    def is_spacelike(self, p, q) -> bool:
        return self.spatial_distance(p[1], q[1]) > abs(p[0] - q[0])

    # -- the wave operator ----------------------------------------------

    def apply_D(self, u: LatticeSection) -> LatticeSection:
        """Discrete wave operator; symmetric under the counting pairing
        on margin-respecting sections."""
        self.check_margin(u)
        m, dm = self.m2.as_integer_ratio()
        stencil = ((1, 0, dm), (-1, 0, dm), (0, 1, -dm), (0, -1, -dm), (0, 0, m))
        out = {}
        for (t, x), n in u._nums.items():
            for dt, dx, c in stencil:
                key = (t + dt, (x + dx) % self.N)
                out[key] = out.get(key, 0) + c * n
        return LatticeSection._from_numerators({k: n for k, n in out.items() if n}, u._den * dm)

    def _forward_step(self, prev_row, cur_row, src_row):
        N, m2 = self.N, self.m2
        return [
            src_row[x]
            + cur_row[(x + 1) % N]
            + cur_row[(x - 1) % N]
            - prev_row[x]
            - m2 * cur_row[x]
            for x in range(N)
        ]

    def _green_kernel(self):
        """(K, den): sparse rows K[0..T-3], each {x: nonzero int numerator}
        over den, of the retarded Green operator of delta(t0, 0) on slices
        t0+1, t0+2, ...

        One leapfrog of a unit delta, built on first use.
        """
        if self._kernel is None:
            zero = [Fraction(0)] * self.N
            prev, cur = zero, self._forward_step(zero, zero, [Fraction(1)] + zero[1:])
            rows = [cur]
            for _ in range(self.T - 3):
                prev, cur = cur, self._forward_step(prev, cur, zero)
                rows.append(cur)
            flat = {(s, x): v for s, row in enumerate(rows) for x, v in enumerate(row)}
            den, (nums,) = scalars.numerators(flat)
            K = [{} for _ in rows]
            for (s, x), n in nums.items():
                K[s][x] = n
            self._kernel = (K, den)
        return self._kernel

    def _kernel_rows(self, phi: LatticeSection, times, ret: int, adv: int):
        """({t: integer row}, den): ret * G_ret(phi) + adv * G_adv(phi) on
        the slices ``times``, as sums of shifted kernel rows over one
        denominator."""
        self.check_margin(phi)
        K, den = self._green_kernel()
        rows = {t: [0] * self.N for t in times}
        for (ts, xs), c in phi._nums.items():
            for t, row in rows.items():
                coef = ret if t > ts else adv if t < ts else 0
                if coef:
                    _add_shifted(row, K[abs(t - ts) - 1], xs, coef * c)
        return rows, den * phi._den

    def _green(self, phi: LatticeSection, ret: int, adv: int) -> LatticeSection:
        """ret * G_ret(phi) + adv * G_adv(phi) on the whole window."""
        rows, den = self._kernel_rows(phi, range(self.T), ret, adv)
        return LatticeSection._from_numerators(
            {(t, x): n for t, row in rows.items() for x, n in enumerate(row) if n}, den
        )

    def green_retarded(self, phi: LatticeSection) -> LatticeSection:
        """The unique solution of D u = phi vanishing below the source."""
        return self._green(phi, 1, 0)

    def green_advanced(self, phi: LatticeSection) -> LatticeSection:
        """The unique solution of D u = phi vanishing above the source."""
        return self._green(phi, 0, 1)

    def propagator(self, phi: LatticeSection) -> LatticeSection:
        """Retarded minus advanced; solves the homogeneous equation."""
        return self._green(phi, 1, -1)

    # -- pairings ---------------------------------------------------------

    def pairing(self, phi: LatticeSection, u: LatticeSection) -> Fraction:
        """Counting pairing, the sum of phi * u over the common support."""
        small, big = phi._nums, u._nums
        if len(small) > len(big):
            small, big = big, small
        total = sum([n * big[k] for k, n in small.items() if k in big])
        return Fraction(total, phi._den * u._den) if total else _ZERO

    def lambda_cov(self, phi: LatticeSection, psi: LatticeSection) -> Fraction:
        """Covariant pairing: propagated phi integrated against psi."""
        self.check_margin(psi)
        return self.pairing(psi, self.propagator(phi))

    def solve_cauchy(self, data: CauchyPair, t0: int) -> LatticeSection:
        """Leapfrog evolution of two-slice data, both time directions."""
        if data.sites != self.N:
            raise DomainError("data has the wrong number of sites")
        if not (0 <= t0 and t0 + 1 <= self.T - 1):
            raise WindowOverflowError("slice pair outside the window")
        zero_src = [Fraction(0)] * self.N
        rows = [None] * self.T
        rows[t0] = list(data.u0)
        rows[t0 + 1] = list(data.u1)
        for t in range(t0 + 1, self.T - 1):
            rows[t + 1] = self._forward_step(rows[t - 1], rows[t], zero_src)
        for t in range(t0, 0, -1):
            rows[t - 1] = self._forward_step(rows[t + 1], rows[t], zero_src)
        return LatticeSection(
            {(t, x): v for t, row in enumerate(rows) for x, v in enumerate(row)}
        )

    def rho_sigma(self, phi: LatticeSection, t0: int) -> CauchyPair:
        """Two-slice restriction of the propagated section at (t0, t0+1)."""
        if not (0 <= t0 and t0 + 1 <= self.T - 1):
            raise WindowOverflowError("slice pair outside the window")
        rows, den = self._kernel_rows(phi, (t0, t0 + 1), 1, -1)
        return CauchyPair._from_numerators(rows[t0], rows[t0 + 1], den)

    def lambda_sigma(self, A: CauchyPair, B: CauchyPair) -> Fraction:
        """Discrete Wronskian pairing of two-slice data; antisymmetric,
        and conserved along solutions of the homogeneous equation."""
        if len(A._num0) != len(B._num0):
            raise DomainError("slice size mismatch")
        total = sum(map(mul, A._num1, B._num0)) - sum(map(mul, A._num0, B._num1))
        return Fraction(SIGMA_SIGN * total, A._den * B._den) if total else _ZERO

    # -- Casimirs and the time slice --------------------------------------

    def solution_basis(self, t0: int = 1):
        """2N solutions spanning all Cauchy data on slices (t0, t0+1)."""
        out = []
        zero = [Fraction(0)] * self.N
        for slot in range(2):
            for x in range(self.N):
                row = list(zero)
                row[x] = Fraction(1)
                data = CauchyPair(row, zero) if slot == 0 else CauchyPair(zero, row)
                out.append(self.solve_cauchy(data, t0))
        return out

    def is_casimir(self, phi: LatticeSection) -> bool:
        """True iff the propagated section vanishes, that is, iff phi pairs
        to zero with every solution."""
        return not self.propagator(phi)

    def slab_matrix(self, t0: int):
        """Matrix of rho_sigma on the basis of slab-site deltas."""
        if t0 < 1 or t0 + 1 > self.T - 2:
            raise WindowOverflowError("slab must respect the temporal margin")
        sites = [(t, x) for t in (t0, t0 + 1) for x in range(self.N)]
        pairs = [self.rho_sigma(LatticeSection.delta(*site), t0) for site in sites]
        return [list(row) for row in zip(*(p.u0 + p.u1 for p in pairs))]

    def slab_representative(self, phi: LatticeSection, t0: int) -> LatticeSection:
        """A section on slices {t0, t0+1} with the same two-slice restriction.

        Solves the exact 2N x 2N system; the difference to the original is
        then a Casimir, so no covariant pairing changes.  A singular system
        cannot occur (the slab restriction is a bijection); it would signal
        a bug.
        """
        self.check_margin(phi)
        target_pair = self.rho_sigma(phi, t0)
        target = list(target_pair.u0) + list(target_pair.u1)
        M = self.slab_matrix(t0)
        sol = _solve_exact(M, target)
        if sol is None:
            raise AssertionError("slab system is singular; lattice bug")
        out = {}
        for i, v in enumerate(sol):
            if v:
                t = t0 if i < self.N else t0 + 1
                x = i % self.N
                out[(t, x)] = v
        return LatticeSection(out)

    # -- covariant Weyl generators ----------------------------------------

    def covariant_weyl_generators(self, sections, scale=1) -> BilinearForm:
        """Gram matrix of covariant pairings as an even bilinear form.

        The result feeds the star-product machinery directly; it is
        antisymmetric by construction, so complex conjugation is a
        star-involution for every real hbar.  ``scale`` rescales the
        pairing (a pure normalization convention, default 1).
        """
        scale = Fraction(scale)
        sections = list(sections)
        if not sections:
            raise DomainError("need at least one test section")
        for phi in sections:
            self.check_margin(phi)
        props = [self.propagator(phi) for phi in sections]
        n = len(sections)
        basis = GeneratorBasis([f"g{i}" for i in range(n)], ["even"] * n)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                val = self.pairing(sections[j], props[i]) * scale
                row.append(scalars.QC(val))
            rows.append(row)
        return BilinearForm(basis, rows, backend="exact")

    def margin_sites(self):
        return [(t, x) for t in range(1, self.T - 1) for x in range(self.N)]

    def __repr__(self):
        return f"LatticeSpacetime(T={self.T}, N={self.N}, m2={self.m2})"


def _add_shifted(row, krow, x0, c):
    """row[x] += c * krow[(x - x0) mod N] for a dense integer row and a
    sparse kernel row."""
    N = len(row)
    for d, k in krow.items():
        row[(d + x0) % N] += c * k


def _solve_exact(M, rhs):
    """Exact solution of M x = rhs for square M; None if singular."""
    n = len(M)
    pivots = _eliminate([list(row) + [rhs[i]] for i, row in enumerate(M)], n)
    if len(pivots) < n:
        return None
    return [Fraction(pivots[i].get(n, 0), pivots[i][i]) for i in range(n)]


def exact_rank(M) -> int:
    """Row rank of a rational matrix.

    The rank of the integer rows mod the prime ``_P`` is at most their rank
    over Q, so a rank mod ``_P`` of min(rows, cols) is the exact rank; any
    lower rank mod ``_P`` is decided again by exact elimination.
    """
    if not M:
        return 0
    cols = len(M[0])
    full = min(len(M), cols)
    if _rank_mod_p(M, full) == full:
        return full
    return len(_eliminate(M, cols))


def _rank_mod_p(M, full: int) -> int:
    """Rank mod ``_P`` of the rows of M scaled to integers, reduced one row
    at a time until it reaches ``full``.

    Each pivot row is monic at its first column, its pivot.  A new row is
    reduced by the pivot at its first column until that column has none,
    and then becomes a pivot, so no two pivots share a column.
    """
    pivots = {}
    for row in M:
        r = {c: n % _P for c, n in _integer_row(row).items() if n % _P}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(r[c], -1, _P)
                pivots[c] = {k: v * inv % _P for k, v in r.items()}
                break
            f = r[c]
            for k, v in piv.items():
                w = (r.get(k, 0) - f * v) % _P
                if w:
                    r[k] = w
                else:
                    del r[k]
        if len(pivots) == full:
            break
    return len(pivots)


def _integer_row(row):
    """A rational row scaled by the lcm of its denominators, as {column:
    nonzero int}."""
    return scalars.numerators({c: v for c, v in enumerate(row) if v})[1][0]


def _eliminate(M, cols: int):
    """Fraction-free Jordan elimination of the rows of M over its first
    ``cols`` columns; returns {pivot column: reduced row}.

    Each row is scaled to integers by the lcm of its denominators and kept
    sparse, as {column: nonzero int}.  A pivot clears its column in every
    other row that has an entry there, by row <- (p/g) row - (f/g) pivot
    with g = gcd(p, f), and each new row is divided by its content (the
    gcd of its entries), so entries stay as small as the primitive rows
    allow.  The rows of M may hold ints or Fractions; M is not modified.
    """
    rows = [row for row in map(_integer_row, M) if row]
    pivots = {}
    for col in range(cols):
        if not rows:
            break
        i = next((i for i, r in enumerate(rows) if col in r), None)
        if i is None:
            continue
        piv = rows.pop(i)
        p = piv[col]
        for r in (*rows, *pivots.values()):
            f = r.get(col)
            if not f:
                continue
            g = math.gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, v in piv.items():
                w = r.get(c, 0) - b * v
                if w:
                    r[c] = w
                else:
                    del r[c]
            content = math.gcd(*r.values())
            if content != 1:
                for c in r:
                    r[c] //= content
        pivots[col] = piv
    return pivots


def kernel_identification_report(st: LatticeSpacetime, t0: int = None):
    """Exact identification ker(rho_sigma) = image(D) on the margin basis.

    Builds the two-slice restriction on all margin deltas and the image of
    the wave operator on all deltas one step further inside, computes the
    exact ranks, and verifies the inclusion of the image in the kernel.
    """
    if t0 is None:
        t0 = (st.T - 1) // 2
    margin = st.margin_sites()
    # one integer row per margin delta: the transpose of rho_sigma's matrix,
    # which has the same rank and is certified faster (2.9 ms against 21 ms
    # at 16x12, m2 = 1/3)
    deltas = [st.rho_sigma(LatticeSection.delta(*site), t0) for site in margin]
    rho_rank = exact_rank([p._num0 + p._num1 for p in deltas])

    inner = [(t, x) for t in range(2, st.T - 2) for x in range(st.N)]
    images = [st.apply_D(LatticeSection.delta(*site)) for site in inner]
    restricted = [st.rho_sigma(img, t0) for img in images]
    inclusion_ok = not any(any(p._num0) or any(p._num1) for p in restricted)
    # one row per image, its numerators written into a zero row (scaling a row
    # by its denominator keeps the rank).  The certificate took the same time
    # on either orientation (1.2-1.4 ms at 16x12, m2 = 1/3), so the rows are
    # those that are cheapest to build: from each image's five sites, 0.2 ms
    # there, against 2.1 ms to look up every margin site in every image
    col = {site: i for i, site in enumerate(margin)}
    rows = [[0] * len(margin) for _ in images]
    for row, img in zip(rows, images):
        for site, n in img._nums.items():
            row[col[site]] = n
    d_rank = exact_rank(rows)

    kernel_dim = len(margin) - rho_rank
    return {
        "margin_dim": len(margin),
        "rho_rank": rho_rank,
        "kernel_dim": kernel_dim,
        "d_rank": d_rank,
        "image_in_kernel": inclusion_ok,
        "kernel_equals_image": inclusion_ok and d_rank == kernel_dim,
    }
