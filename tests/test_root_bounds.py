"""Integer root enclosures: ``scalars.root_bounds`` and ``rational_root_bounds``.

Every check is an integer or rational inequality, so a bound that is off
by one, or ends that are swapped, fails here.
"""

import math
import random
from fractions import Fraction

from weylalg.scalars import rational_root_bounds, root_bounds

EXPONENTS = ((1, 2), (3, 4), (3, 2), (7, 2), (161, 2), (11, 10))


def test_root_bounds_enclose_factorial_powers():
    # n! has a prime of exponent 1 for n >= 2 (Bertrand), so n!^(P/Q) with
    # Q > 1 is irrational there, and the two ends differ by one
    for P, Q in EXPONENTS:
        for n in range(41):
            x = math.factorial(n) ** P
            for k in (0, 1, 53, 64):
                lo, hi = root_bounds(x, Q, k)
                assert lo**Q <= x << (Q * k) <= hi**Q
                assert (lo == hi) == (n <= 1) and hi - lo in (0, 1)


def test_root_bounds_are_integer_roots():
    rng = random.Random(11)
    for _ in range(400):
        x = rng.getrandbits(rng.randint(1, 4000))
        q = rng.randint(2, 13)
        lo, hi = root_bounds(x, q)
        assert lo**q <= x < (lo + 1) ** q
        assert hi == (lo if lo**q == x else lo + 1)
        if q == 2:
            assert lo == math.isqrt(x)
        r = rng.getrandbits(rng.randint(1, 300))
        assert root_bounds(r**q, q) == (r, r)
        assert root_bounds(r**q, q, 5) == (r << 5, r << 5)
    assert root_bounds(0, 7) == (0, 0) and root_bounds(1, 7, 3) == (8, 8)


def test_rational_root_bounds():
    rng = random.Random(12)
    for _ in range(200):
        x = Fraction(rng.getrandbits(200), rng.getrandbits(100) + 1)
        q, k = rng.randint(2, 6), rng.choice((0, 32, 64))
        lo, hi = rational_root_bounds(x, q, k)
        assert lo**q <= x <= hi**q
        assert hi - lo in (0, Fraction(1, x.denominator << k))
    assert rational_root_bounds(Fraction(9, 4), 2, 64) == (Fraction(3, 2), Fraction(3, 2))
    assert rational_root_bounds(Fraction(8, 27), 3) == (Fraction(2, 3), Fraction(2, 3))
