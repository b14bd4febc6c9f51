"""The monomial kernels, on packed exponent vectors.

A monomial over a basis of dimension d is one Python int: generator i's
exponent sits in bits [W*i, W*(i+1)), so the exponent tuple e packs to
sum(e[i] << W*i).  A tensor-pair key is ``eA | eB << W*d``, which is also
the packed monomial of the concatenation eA + eB over twice the basis.
A ``Layout`` holds W and the masks for one operation.  W is the bit
length of the largest exponent an output of that operation can reach:
the sum of the two operands' largest exponents for a product, the
largest exponent for a contraction, which only lowers exponents.  So no
field ever carries into the next, and W is at most one bit wider than
the operands' widest exponent.  Python ints make any W correct; only
speed depends on it (after Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).

On packed keys:

* a product is ``e1 + e2``, refused when ``e1 & e2 & odd`` is nonzero
  (``odd`` holds the low bit of each odd generator's field, whose
  exponent is 0 or 1: the square of an odd generator vanishes);
* a contraction subtracts one precomputed constant per form entry;
* a multiplicity is ``(key >> shift) & fmask``;
* a Koszul sign is the parity of ``(key & sign_mask).bit_count()``, with
  one sign mask per form entry, or per odd part of a product's left
  factor (``_above``).

``pack`` and ``unpack`` convert term maps at the boundary of each
operation; ``Element.terms`` and ``TensorPair.terms`` stay keyed by
exponent tuples.  The kernels need only ``*``, ``+``, unary ``-`` and
truth testing of the coefficients, and combinatorial multiplicities enter
as ints.  So one loop serves any coefficient ring: ``QC`` or ``complex``
values, and the Python-int numerators on which the exact products of
``star_algebra`` and ``Element.__mul__`` run, calling a kernel on the
real and imaginary parts of the operands (three calls for two complex
operands, ``graded_poly._bilinear``).  Each kernel visits its inputs in
the order of the tuple loops it replaced, so float results keep their
order of operations.
"""

from __future__ import annotations


class Layout:
    """Field width and masks of packed monomials over ``dimension`` generators.

    ``top`` is the largest exponent an output can reach; ``odd_mask`` has
    bit i set for each odd generator i.
    """

    __slots__ = ("dimension", "odd_mask", "width", "shifts", "fmask", "odd", "pair_shift", "low")

    def __init__(self, dimension, odd_mask, top):
        w = max(top.bit_length(), 1)
        self.dimension = dimension
        self.odd_mask = odd_mask
        self.width = w
        self.shifts = tuple(range(0, w * dimension, w))
        self.fmask = (1 << w) - 1
        self.odd = sum(1 << s for i, s in enumerate(self.shifts) if odd_mask >> i & 1)
        self.pair_shift = w * dimension
        self.low = (1 << self.pair_shift) - 1

    @classmethod
    def of(cls, basis, top):
        return cls(basis.dimension, basis.odd_mask, top)

    def doubled(self):
        """The same width over twice the basis: tensor-pair keys as monomials."""
        d = self.dimension
        return Layout(2 * d, self.odd_mask | self.odd_mask << d, self.fmask)


def top_exponent(monomials):
    """The largest exponent in an iterable of exponent tuples (0 when empty)."""
    return max(map(max, monomials), default=0)


def product_layout(basis, t1, t2):
    """The layout of a product of two term maps: exponents up to the sum of their largest."""
    return Layout.of(basis, top_exponent(t1) + top_exponent(t2))


def pack(terms, lay):
    """{exponent tuple: c} -> {packed monomial: c}, in the same order."""
    shifts = lay.shifts
    return {sum([k << s for k, s in zip(e, shifts)]): c for e, c in terms.items()}


def unpack(terms, lay):
    """{packed monomial: c} -> {exponent tuple: c}, in the same order."""
    shifts, fm = lay.shifts, lay.fmask
    return {tuple([key >> s & fm for s in shifts]): c for key, c in terms.items()}


def pack_pairs(pair_terms, lay):
    """{(eA, eB): c} -> {eA | eB << W*d: c}, in the same order."""
    return pack({ea + eb: c for (ea, eb), c in pair_terms.items()}, lay.doubled())


def unpack_pairs(pair_terms, lay):
    """{eA | eB << W*d: c} -> {(eA, eB): c}, in the same order."""
    d = lay.dimension
    return {(e[:d], e[d:]): c for e, c in unpack(pair_terms, lay.doubled()).items()}


def tensor_terms(t1, t2, lay):
    """The pair map {e1 | e2 << W*d: c1 c2} of two packed term maps, without zeros."""
    shift = lay.pair_shift
    t2 = [(e2 << shift, c2) for e2, c2 in t2.items()]
    terms = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2:
            c = c1 * c2
            if c:
                terms[e1 | e2] = c
    return terms


def parity_of(e, odd_mask):
    """Total parity (0/1) of an exponent tuple: number of odd generators mod 2."""
    n = 0
    for i, k in enumerate(e):
        if k and (odd_mask >> i) & 1:
            n += 1
    return n & 1


def _above(o):
    """The bits below each set bit of ``o``, xored together.

    With ``o`` the odd part of a left factor, bit W*i of the result, masked
    to ``odd``, is set when an odd number of o's generators come after
    generator i: the Koszul sign of moving an odd generator i of the right
    factor past them.
    """
    m = 0
    while o:
        b = o & -o
        o ^= b
        m ^= b - 1
    return m


def mul_terms(t1, t2, lay):
    """Bulk graded product of two packed term maps {monomial: coefficient}."""
    odd = lay.odd
    out = {}
    for e1, c1 in t1.items():
        o1 = e1 & odd
        sign_mask = _above(o1) & odd
        for e2, c2 in t2.items():
            if o1 & e2:
                continue
            e = e1 + e2
            c = c1 * c2
            if (e2 & sign_mask).bit_count() & 1:
                c = -c
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                s = prev + c
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def mu_terms(pair_terms, lay):
    """Bulk product map on a packed tensor-pair term map {eA | eB << W*d: c}."""
    odd, low, shift = lay.odd, lay.low, lay.pair_shift
    out = {}
    for key, c in pair_terms.items():
        ea = key & low
        eb = key >> shift
        oa = ea & odd
        if oa:
            if oa & eb:
                continue
            if (eb & _above(oa) & odd).bit_count() & 1:
                c = -c
        e = ea + eb
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            s = prev + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def contract_terms(pair_terms, entries, lay):
    """One bulk contraction step on a packed tensor-pair term map.

    ``entries`` lists (i, j, coefficient) for the nonzero form entries; an
    odd i pairs with an odd j (the form is even).  Each run of entries that
    share i becomes one row, so a key whose A leg lacks generator i skips
    the row after one test.
    """
    w, fm, odd, shift = lay.width, lay.fmask, lay.odd, lay.pair_shift
    rows = []
    last = None
    for i, j, lam in entries:
        sa = w * i
        if i != last:
            row = []
            rows.append((sa, odd >> sa & 1, row))
            last = i
        sb = shift + w * j
        # odd generators of A after i, and of B before j
        sign_mask = (odd >> (sa + 1) << (sa + 1)) | (odd & ((1 << w * j) - 1)) << shift
        row.append((sb, (1 << sa) | (1 << sb), sign_mask, lam))
    out = {}
    for key, c in pair_terms.items():
        for sa, a_odd, row in rows:
            ka = key >> sa & fm
            if not ka:
                continue
            for sb, delta, sign_mask, lam in row:
                kb = key >> sb & fm
                if not kb:
                    continue
                if a_odd:
                    contrib = c * lam
                    if (key & sign_mask).bit_count() & 1:
                        contrib = -contrib
                else:
                    contrib = c * lam * (ka * kb)
                k = key - delta
                prev = out.get(k)
                if prev is None:
                    if contrib:
                        out[k] = contrib
                else:
                    s = prev + contrib
                    if s:
                        out[k] = s
                    else:
                        del out[k]
    return out


def laplace_bulk(terms, entries, lay):
    """Bulk second-order contraction on a packed term map.

    ``entries`` lists (i, j, coefficient) with i <= j.
    """
    w, fm, odd = lay.width, lay.fmask, lay.odd
    steps = []  # kind 0: an even square, 1: an odd pair, 2: an even pair
    for i, j, val in entries:
        si = w * i
        sj = w * j
        if i == j:
            if not odd >> si & 1:
                steps.append((0, si, si, 2 << si, 0, val))
        elif odd >> si & 1:
            # the odd generators strictly between i and j
            sign_mask = odd & ((1 << sj) - 1) >> (si + 1) << (si + 1)
            steps.append((1, si, sj, (1 << si) | (1 << sj), sign_mask, val))
        else:
            steps.append((2, si, sj, (1 << si) | (1 << sj), 0, val))
    out = {}
    for e, c in terms.items():
        for kind, si, sj, delta, sign_mask, val in steps:
            if kind == 1:
                if e & delta != delta:
                    continue
                contrib = c * val
                if (e & sign_mask).bit_count() & 1:
                    contrib = -contrib
            else:
                ki = e >> si & fm
                if not ki:
                    continue
                if kind == 0:
                    if ki < 2:
                        continue
                    contrib = c * val * (ki * (ki - 1) // 2)
                else:
                    kj = e >> sj & fm
                    if not kj:
                        continue
                    contrib = c * val * (ki * kj)
            e2 = e - delta
            prev = out.get(e2)
            if prev is None:
                if contrib:
                    out[e2] = contrib
            else:
                s = prev + contrib
                if s:
                    out[e2] = s
                else:
                    del out[e2]
    return out
