"""Golden digests of the product and bracket estimate reports.

Each entry of ``ESTIMATE_DIGESTS`` hashes a fixed run of
``verify_product_estimate`` and ``verify_bracket_estimate``: the
criterion-3 grid of ``test_acceptance.py`` with its seed, and at each R of
``SEEDED_R`` 20 seeded draws, four per z of ``SEEDED_Z``, every draw
through both estimates (240 calls).  A report at an integer R whose two
sides are ``Fraction``s, exact sides, contributes its ``lhs``, ``rhs``,
``holds``, constants and witness, by ``repr``; any other report
contributes ``holds`` alone.  ``tests/record_cli_digests.py`` re-records
the table.
"""

import hashlib
import random
from fractions import Fraction

from weylalg import QC, WeightedSeminorm, verify_bracket_estimate, verify_product_estimate
from weylalg.randoms import default_basis, random_element, random_even_form

B = default_basis()
SEEDED_R = ("1/2", "3/4", "1", "3/2", "2", "7/2")
SEEDED_Z = (QC(0), QC(Fraction(1, 3)), QC(1), QC(7), QC(3, 4))


def _weights(rng):
    return WeightedSeminorm(B, {n: Fraction(rng.randint(1, 3), rng.randint(1, 2)) for n in B.names})


def _criterion_3_reports():
    """The reports of ``test_criterion_3_estimate_suite``, drawn alike."""
    rng = random.Random(303)
    R_grid = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2))
    for R in R_grid:
        for zmag in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for _ in range(50):
                form = random_even_form(rng, B)
                a = random_element(rng, B, max_degree=4, n_terms=3)
                b = random_element(rng, B, max_degree=4, n_terms=3)
                yield verify_product_estimate(a, b, zmag, form, R, _weights(rng))
    for R in R_grid:
        for _ in range(50):
            form = random_even_form(rng, B)
            a = random_element(rng, B, max_degree=4, n_terms=3)
            b = random_element(rng, B, max_degree=4, n_terms=3)
            yield verify_bracket_estimate(a, b, form, R, _weights(rng))


def _seeded_reports(R):
    """Four draws per z at this R; every other draw has complex operands."""
    rng = random.Random(f"estimate R={R}")
    for z in SEEDED_Z:
        for k in range(4):
            form = random_even_form(rng, B)
            a = random_element(rng, B, max_degree=3, n_terms=3, complex_parts=bool(k % 2))
            b = random_element(rng, B, max_degree=3, n_terms=3, complex_parts=bool(k % 2))
            p = _weights(rng)
            yield verify_product_estimate(a, b, z, form, Fraction(R), p)
            yield verify_bracket_estimate(a, b, form, Fraction(R), p)


def _estimate_digest(name):
    reports = _criterion_3_reports() if name == "criterion-3" else _seeded_reports(name[2:])
    h = hashlib.sha256()
    for rep in reports:
        exact = all(isinstance(side, Fraction) for side in (rep.lhs, rep.rhs))
        if exact and rep.constants["R"].denominator == 1:
            fields = (rep.lhs, rep.rhs, rep.holds, sorted(rep.constants.items()),
                      sorted(rep.witness.items()))
        else:
            fields = (rep.holds,)
        h.update(repr(fields).encode() + b"\n")
    return h.hexdigest()


ESTIMATE_DIGESTS = {
    "criterion-3":
        "d0def0d2dc941b81250091345685f2f420f1481eb5f5b47ec8739325e38fbd74",
    "R=1/2":
        "4be0079d3694e6da5eb131eb2835ca51f2a14a1c9fb856fd1c452d5adefe91a4",
    "R=3/4":
        "4be0079d3694e6da5eb131eb2835ca51f2a14a1c9fb856fd1c452d5adefe91a4",
    "R=1":
        "a69b3f8d371130ea0afbc32e39769eb1bfe2fbe4f7424ed1ee7181646be19ba2",
    "R=3/2":
        "4be0079d3694e6da5eb131eb2835ca51f2a14a1c9fb856fd1c452d5adefe91a4",
    "R=2":
        "a9396c9fc02bdb7713a1249612eaf5d8075b4635bffd689be4c9687306da451e",
    "R=7/2":
        "4be0079d3694e6da5eb131eb2835ca51f2a14a1c9fb856fd1c452d5adefe91a4",
}


def test_estimate_reports_are_pinned():
    assert set(ESTIMATE_DIGESTS) == {"criterion-3"} | {f"R={R}" for R in SEEDED_R}
    for name, digest in ESTIMATE_DIGESTS.items():
        assert _estimate_digest(name) == digest, name
