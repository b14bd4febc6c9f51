"""Seeded random generators for elements and forms.

Shared by the property-test suites and the command-line verifier; every
draw is a pure function of the supplied random.Random instance, so runs
are reproducible from a 64-bit seed.
"""

from __future__ import annotations

from fractions import Fraction

from . import scalars
from .basis import GeneratorBasis
from .bilinear_forms import BilinearForm, lambda_parts
from .graded_poly import Element


def default_basis() -> GeneratorBasis:
    """Two even and two odd generators; the workhorse for random suites."""
    return GeneratorBasis(("q", "p", "e1", "e2"), ("even", "even", "odd", "odd"))


def random_rational(rng, span=6, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def random_scalar(rng, backend="exact", complex_parts=False):
    re = random_rational(rng)
    im = random_rational(rng) if complex_parts else 0
    return scalars.from_rational(backend, re, im)


def random_monomial(rng, basis, max_degree):
    exps = [0] * basis.dimension
    degree = rng.randint(0, max_degree)
    for _ in range(degree):
        i = rng.randrange(basis.dimension)
        if basis.is_even(i):
            exps[i] += 1
        elif exps[i] == 0:
            exps[i] = 1
    return tuple(exps)


def random_element(
    rng,
    basis,
    max_degree=5,
    n_terms=4,
    backend="exact",
    complex_parts=False,
) -> Element:
    out = Element.zero(basis, backend)
    for _ in range(n_terms):
        e = random_monomial(rng, basis, max_degree)
        c = random_scalar(rng, backend, complex_parts)
        out = out + Element(basis, backend, {e: c} if c else {})
    return out


def random_even_form(rng, basis, backend="exact", complex_parts=False) -> BilinearForm:
    """A random even bilinear form (parity-block structure enforced)."""
    return BilinearForm(basis, random_parity_matrix(rng, basis, backend, complex_parts), backend)


def random_graded_symmetric_form(rng, basis, backend="exact", complex_parts=False):
    """A random graded-symmetric even form (a valid equivalence generator)."""
    return lambda_parts(random_even_form(rng, basis, backend, complex_parts))[0]


def random_graded_antisymmetric_form(rng, basis, backend="exact", complex_parts=False):
    return lambda_parts(random_even_form(rng, basis, backend, complex_parts))[1]


def random_involutive_form(rng, basis, holds: bool) -> BilinearForm:
    """A form on the chosen side of the star-involution criterion.

    ``holds=True``: real graded-antisymmetric part plus purely imaginary
    graded-symmetric part.  ``holds=False``: perturb with a real
    graded-symmetric part (and ensure it is nonzero).
    """
    minus = random_graded_antisymmetric_form(rng, basis)
    i_plus = random_graded_symmetric_form(rng, basis).scale(scalars.QC(0, 1))
    good = minus + i_plus
    if holds:
        return good
    while True:
        bad = random_graded_symmetric_form(rng, basis)
        if bad.pairs():
            return good + bad


def random_parity_matrix(rng, basis, backend="exact", complex_parts=False):
    """A random parity-preserving matrix over the basis."""
    d = basis.dimension
    rows = [[scalars.zero(backend)] * d for _ in range(d)]
    for r in range(d):
        for c in range(d):
            if basis.parity(r) == basis.parity(c):
                rows[r][c] = random_scalar(rng, backend, complex_parts)
    return rows


def random_even_functional(rng, basis):
    """A functional supported on the even generators."""
    return {
        basis.names[i]: random_rational(rng)
        for i in basis.even_indices()
    }


def random_degree_one_even(rng, basis, backend="exact") -> Element:
    out = Element.zero(basis, backend)
    while not out:
        for i in basis.even_indices():
            c = random_scalar(rng, backend)
            if c:
                out = out + Element.generator(basis, basis.names[i], backend).scale(c)
    return out
