"""Pure-Python implementations of the hot monomial kernels.

A monomial over a basis of dimension d is encoded as a tuple ``e`` of d
nonnegative integers (odd generators carry exponent 0 or 1).  ``odd_mask``
is the bitmask of odd generator indices.  Koszul signs are returned as
plain ints (+1/-1) multiplied into combinatorial multiplicities; scalar
coefficient arithmetic stays with the caller.

The kernels need only ``*``, ``+``, unary ``-`` and truth testing of the
coefficients, and combinatorial multiplicities enter as ints.  So one
loop serves any coefficient ring: ``QC`` or ``complex`` values, and the
Python-int numerators on which ``star_algebra`` runs its exact products,
calling a kernel once per real or imaginary part of each operand.
"""

from __future__ import annotations


def parity_of(e, odd_mask):
    """Total parity (0/1) of a monomial: number of odd generators mod 2."""
    n = 0
    for i, k in enumerate(e):
        if k and (odd_mask >> i) & 1:
            n += 1
    return n & 1


def mul_exps(e1, e2, odd_mask):
    """Graded product of two canonical monomials.

    Returns ``(exponents, sign)`` or ``None`` when an odd generator repeats
    (the square of an odd generator vanishes).  The sign counts, modulo 2,
    the odd-odd inversions produced when the concatenation of the two
    canonical generator words is resorted into canonical order.
    """
    m1 = 0
    m2 = 0
    for i, k in enumerate(e1):
        if k and (odd_mask >> i) & 1:
            m1 |= 1 << i
    for i, k in enumerate(e2):
        if k and (odd_mask >> i) & 1:
            m2 |= 1 << i
    if m1 & m2:
        return None
    swaps = 0
    m = m2
    while m:
        i = (m & -m).bit_length() - 1
        swaps += _popcount(m1 >> (i + 1))
        m &= m - 1
    out = tuple(a + b for a, b in zip(e1, e2))
    return out, (-1 if swaps & 1 else 1)


def mul_terms(t1, t2, odd_mask):
    """Bulk graded product of two term maps {exponents: coefficient}."""
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            prod = mul_exps(e1, e2, odd_mask)
            if prod is None:
                continue
            e, sign = prod
            c = c1 * c2
            if sign < 0:
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


def mu_terms(pair_terms, odd_mask):
    """Bulk product map on a tensor-pair term dict {(e1, e2): coefficient}."""
    out = {}
    for (e1, e2), c in pair_terms.items():
        prod = mul_exps(e1, e2, odd_mask)
        if prod is None:
            continue
        e, sign = prod
        if sign < 0:
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


def contract_terms(pair_terms, entries, odd_mask):
    """One bulk contraction step on a tensor-pair term dict.

    ``entries`` lists (i, j, coefficient) for the nonzero form entries.
    """
    out = {}
    for (eA, eB), c in pair_terms.items():
        for i, j, lam in entries:
            ka = eA[i]
            if not ka:
                continue
            kb = eB[j]
            if not kb:
                continue
            if (odd_mask >> i) & 1:
                sa = 0
                for x in range(i + 1, len(eA)):
                    if eA[x] and (odd_mask >> x) & 1:
                        sa += 1
                sb = 0
                for x in range(j):
                    if eB[x] and (odd_mask >> x) & 1:
                        sb += 1
                contrib = c * lam
                if (sa + sb) & 1:
                    contrib = -contrib
            else:
                contrib = c * lam * (ka * kb)
            key = (
                eA[:i] + (ka - 1,) + eA[i + 1 :],
                eB[:j] + (kb - 1,) + eB[j + 1 :],
            )
            prev = out.get(key)
            if prev is None:
                if contrib:
                    out[key] = contrib
            else:
                s = prev + contrib
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def laplace_bulk(terms, entries, odd_mask):
    """Bulk second-order contraction on a term dict.

    ``entries`` lists (i, j, coefficient) with i <= j.
    """
    out = {}
    for e, c in terms.items():
        for i, j, val in entries:
            ki = e[i]
            if not ki:
                continue
            if i == j:
                if (odd_mask >> i) & 1 or ki < 2:
                    continue
                contrib = c * val * (ki * (ki - 1) // 2)
                e2 = e[:i] + (ki - 2,) + e[i + 1 :]
            else:
                kj = e[j]
                if not kj:
                    continue
                if (odd_mask >> i) & 1:
                    below = 0
                    for x in range(i):
                        if e[x] and (odd_mask >> x) & 1:
                            below += 1
                    for x in range(j):
                        if e[x] and (odd_mask >> x) & 1:
                            below += 1
                    contrib = c * val
                    if (below - 1) & 1:
                        contrib = -contrib
                else:
                    contrib = c * val * (ki * kj)
                lst = list(e)
                lst[i] = ki - 1
                lst[j] = kj - 1
                e2 = tuple(lst)
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


def _popcount(x):
    return bin(x).count("1")
