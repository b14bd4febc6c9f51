"""Randomized verification suites behind the command-line verifier.

Each suite runs a number of seeded trials of one structural identity or
estimate and returns a summary dict {name, trials, failures, details}.
All suites are deterministic given (seed, trials).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import randoms
from .graded_poly import Element
from .seminorm_calculus import (
    WeightedSeminorm,
    verify_bracket_estimate,
    verify_product_estimate,
)
from .star_algebra import (
    check_star_involution,
    conjugation_is_involution,
    equivalence_transform,
    star,
)


def _run(suite: str, seed: int, trials: int, trial):
    """Count the trials, each ``trial(rng, basis)`` on one RNG seeded once,
    that return False."""
    rng = random.Random(seed)
    basis = randoms.default_basis()
    failures = sum(not trial(rng, basis) for _ in range(trials))
    return {"suite": suite, "trials": trials, "failures": failures}


def run_associativity(seed: int, trials: int):
    def trial(rng, basis):
        form = randoms.random_even_form(rng, basis)
        z = randoms.random_scalar(rng)
        a, b, c = (randoms.random_element(rng, basis, max_degree=4, n_terms=3) for _ in range(3))
        return star(star(a, b, z, form), c, z, form) == star(a, star(b, c, z, form), z, form)

    return _run("associativity", seed, trials, trial)


def run_equivalence(seed: int, trials: int):
    def trial(rng, basis):
        lam = randoms.random_even_form(rng, basis)
        g = randoms.random_graded_symmetric_form(rng, basis)
        z = randoms.random_scalar(rng)
        a = randoms.random_element(rng, basis, max_degree=4, n_terms=3)
        b = randoms.random_element(rng, basis, max_degree=4, n_terms=3)
        lhs = equivalence_transform(star(a, b, z, lam), z, g)
        ta, tb = equivalence_transform(a, z, g), equivalence_transform(b, z, g)
        return lhs == star(ta, tb, z, lam + g)

    return _run("equivalence", seed, trials, trial)


def _run_estimate(suite: str, seed: int, trials: int, estimate, collect, worst=False):
    """Run ``estimate(a, b, form, p)`` on seeded operands and seminorms.

    Each report also goes to ``collect``; with ``worst`` the summary keeps
    the last failing one.
    """
    reports = []

    def trial(rng, basis):
        form = randoms.random_even_form(rng, basis)
        a = randoms.random_element(rng, basis, max_degree=4, n_terms=3)
        b = randoms.random_element(rng, basis, max_degree=4, n_terms=3)
        weights = {name: Fraction(rng.randint(1, 4), rng.randint(1, 2)) for name in basis.names}
        reports.append(estimate(a, b, form, WeightedSeminorm(basis, weights)))
        return reports[-1].holds

    out = _run(suite, seed, trials, trial)
    failing = [rep for rep in reports if not rep.holds]
    if worst and failing:
        out["worst"] = failing[-1].to_dict()
    if collect is not None:
        collect.extend(reports)
    return out


def run_product_estimate(seed: int, trials: int, R=1, zmag=1, collect=None):
    R, z = Fraction(R), Fraction(zmag)
    return _run_estimate(
        "product-estimate", seed, trials,
        lambda a, b, form, p: verify_product_estimate(a, b, z, form, R, p), collect, worst=True,
    )


def run_bracket_estimate(seed: int, trials: int, R=1, collect=None):
    R = Fraction(R)
    return _run_estimate(
        "bracket-estimate", seed, trials,
        lambda a, b, form, p: verify_bracket_estimate(a, b, form, R, p), collect,
    )


def run_involution(seed: int, trials: int, hbar=1):
    """Compare the entrywise criterion against brute-force conjugation.

    A form failing the criterion is a *finding*, not a suite failure; the
    suite fails only if the criterion and the brute-force test disagree.
    """
    rng = random.Random(seed)
    basis = randoms.default_basis()
    disagreements = criterion_failures = 0
    for k in range(trials):
        form = randoms.random_involutive_form(rng, basis, holds=(k % 2 == 0))
        verdict = check_star_involution(form, hbar)
        brute = True
        for ni in basis.names:
            for nj in basis.names:
                gi = Element.generator(basis, ni)
                gj = Element.generator(basis, nj)
                if not conjugation_is_involution(gi, gj, hbar, form):
                    brute = False
        if brute:
            for _ in range(8):
                a = randoms.random_element(
                    rng, basis, max_degree=3, n_terms=2, complex_parts=True
                )
                b = randoms.random_element(
                    rng, basis, max_degree=3, n_terms=2, complex_parts=True
                )
                if not conjugation_is_involution(a, b, hbar, form):
                    brute = False
                    break
        if verdict["holds"] != brute:
            disagreements += 1
        criterion_failures += not verdict["holds"]
    return {
        "suite": "involution",
        "trials": trials,
        "failures": disagreements,
        "criterion_failures": criterion_failures,
    }


SUITES = {
    "associativity": run_associativity,
    "equivalence": run_equivalence,
    "product-estimate": run_product_estimate,
    "bracket-estimate": run_bracket_estimate,
    "involution": run_involution,
}
