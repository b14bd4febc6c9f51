"""Exact lattice field theory: Green operators, pairings, time slice."""

import json
import random
from fractions import Fraction

import pytest

from weylalg import (
    CauchyPair,
    DomainError,
    LatticeSection,
    LatticeSpacetime,
    QC,
    WindowOverflowError,
    check_star_involution,
    graded_commutator,
)
from weylalg import peierls
from weylalg.cli import main
from weylalg.peierls import exact_rank, kernel_identification_report

from oracles import leapfrog_green

ST = LatticeSpacetime(12, 8, 0)
STM = LatticeSpacetime(10, 6, Fraction(1, 4))


def interior_D(st, u, t, x):
    return (
        u[(t + 1, x)]
        + u[(t - 1, x)]
        - u[(t, (x + 1) % st.N)]
        - u[(t, (x - 1) % st.N)]
        + st.m2 * u[(t, x)]
    )


def test_apply_D_examples():
    d = LatticeSection.delta(5, 3)
    out = ST.apply_D(d)
    assert out.values == {
        (6, 3): Fraction(1),
        (4, 3): Fraction(1),
        (5, 2): Fraction(-1),
        (5, 4): Fraction(-1),
    }
    # solutions of the recursion are annihilated on the interior
    data = CauchyPair([Fraction(1)] * 8, [Fraction(1)] * 8)
    u = ST.solve_cauchy(data, 4)
    for t in range(1, 11):
        for x in range(8):
            assert interior_D(ST, u, t, x) == 0
    # linearity
    rng = random.Random(3)
    a = LatticeSection({(rng.randint(2, 9), rng.randint(0, 7)): rng.randint(-3, 3) for _ in range(5)})
    b = LatticeSection({(rng.randint(2, 9), rng.randint(0, 7)): rng.randint(-3, 3) for _ in range(5)})
    assert ST.apply_D(a + b) == ST.apply_D(a) + ST.apply_D(b)
    with pytest.raises(WindowOverflowError):
        ST.apply_D(LatticeSection.delta(0, 0))


@pytest.mark.parametrize("st", [STM, LatticeSpacetime(10, 6, Fraction(5, 2))])
def test_apply_D_with_mass_matches_stencil(st):
    rng = random.Random(st.m2.numerator)
    for sites in (1, 2, 4, 8):
        u = _random_rational_section(rng, st, sites)
        expected = {}
        for t in range(st.T):
            for x in range(st.N):
                v = interior_D(st, u, t, x)
                if v:
                    expected[(t, x)] = v
        assert st.apply_D(u).values == expected


def test_apply_D_symmetric_pairing():
    rng = random.Random(5)
    for _ in range(10):
        a = LatticeSection(
            {(rng.randint(2, 9), rng.randint(0, 7)): rng.randint(-3, 3) for _ in range(4)}
        )
        b = LatticeSection(
            {(rng.randint(2, 9), rng.randint(0, 7)): rng.randint(-3, 3) for _ in range(4)}
        )
        assert ST.pairing(ST.apply_D(a), b) == ST.pairing(a, ST.apply_D(b))


def test_green_retarded_examples():
    phi = LatticeSection.delta(2, 4)
    g = ST.green_retarded(phi)
    assert g[(3, 4)] == 1
    assert all(g[(t, x)] == 0 for t in range(3) for x in range(8))
    # defining property
    for t in range(1, 11):
        for x in range(8):
            assert interior_D(ST, g, t, x) == phi[(t, x)]
    # forward cone, cell by cell
    for (t, x) in g.support():
        assert t > 2 and ST.spatial_distance(x, 4) <= t - 2
    with pytest.raises(WindowOverflowError):
        ST.green_retarded(LatticeSection.delta(11, 0))


def test_green_advanced_mirrors_retarded():
    phi = LatticeSection.delta(9, 1)
    g = ST.green_advanced(phi)
    assert g[(8, 1)] == 1
    assert all(g[(t, x)] == 0 for t in range(9, 12) for x in range(8))
    for t in range(1, 11):
        for x in range(8):
            assert interior_D(ST, g, t, x) == phi[(t, x)]
    for (t, x) in g.support():
        assert t < 9 and ST.spatial_distance(x, 1) <= 9 - t


def test_green_uniqueness_against_dense_solve():
    # injectivity of the wave operator on sections vanishing below the
    # source time: the forward map has full column rank, so the
    # margin-compliant retarded solution is unique.
    st = LatticeSpacetime(6, 4, Fraction(1, 3))
    tmin = 1
    unknowns = [(t, x) for t in range(tmin + 1, 6) for x in range(4)]
    rows = []
    for t in range(1, 5):
        for x in range(4):
            row = []
            for (tu, xu) in unknowns:
                val = Fraction(0)
                if (tu, xu) == (t + 1, x) or (tu, xu) == (t - 1, x):
                    val += 1
                if (tu, xu) == (t, (x + 1) % 4) or (tu, xu) == (t, (x - 1) % 4):
                    val -= 1
                if (tu, xu) == (t, x):
                    val += st.m2
                row.append(val)
            rows.append(row)
    assert exact_rank(rows) == len(unknowns)
    # the retarded solution satisfies exactly those equations
    phi = LatticeSection.delta(1, 2)
    g = st.green_retarded(phi)
    for t in range(1, 5):
        for x in range(4):
            assert interior_D(st, g, t, x) == phi[(t, x)]
    assert all(g[(t, x)] == 0 for t in range(tmin + 1) for x in range(4))


def _random_rational_section(rng, st, sites):
    return LatticeSection(
        {
            (rng.randint(1, st.T - 2), rng.randint(0, st.N - 1)): Fraction(
                rng.randint(-9, 9), rng.randint(1, 6)
            )
            for _ in range(sites)
        }
    )


@pytest.mark.parametrize("m2", [Fraction(0), Fraction(1, 3), Fraction(5, 2)])
@pytest.mark.parametrize("T, N", [(3, 3), (3, 4), (4, 3), (4, 4), (12, 8)])
def test_green_operators_match_leapfrog_oracle(T, N, m2):
    # the kernel lookups against a plain leapfrog, on every slice pair,
    # including the first and last rows of the window and rings small
    # enough that the cones wrap around
    st = LatticeSpacetime(T, N, m2)
    rng = random.Random(T * 100 + N * 10 + m2.denominator)
    sections = [LatticeSection.delta(t, x) for t, x in st.margin_sites()]
    sections += [_random_rational_section(rng, st, k) for k in (2, 3, 5, 9)]
    for phi in sections:
        ret, adv = leapfrog_green(st, phi, 1), leapfrog_green(st, phi, -1)
        assert st.green_retarded(phi) == ret
        assert st.green_advanced(phi) == adv
        g = st.propagator(phi)
        assert g == ret - adv
        for t0 in range(T - 1):
            pair = st.rho_sigma(phi, t0)
            assert pair.u0 == tuple(g[(t0, x)] for x in range(N))
            assert pair.u1 == tuple(g[(t0 + 1, x)] for x in range(N))
            assert st.solve_cauchy(pair, t0) == g


def test_kernel_is_built_once_per_spacetime(monkeypatch):
    # rho_sigma and the propagator read one shared Green kernel: the number
    # of leapfrog steps does not grow with the number of sources
    steps = []
    step = LatticeSpacetime._forward_step

    def counting_step(self, *args):
        steps.append(self)
        return step(self, *args)

    monkeypatch.setattr(LatticeSpacetime, "_forward_step", counting_step)
    for m2 in (0, Fraction(1, 3)):
        st = LatticeSpacetime(12, 8, m2)
        t0 = (st.T - 1) // 2
        for site in st.margin_sites():
            delta = LatticeSection.delta(*site)
            st.rho_sigma(delta, t0)
            st.propagator(delta)
        assert 0 < steps.count(st) <= st.T - 2


def test_timeslice_propagates_each_source_once(monkeypatch, capsys):
    # each probe, its slab representative and their difference are
    # propagated once, then paired with every test delta
    calls = []
    propagator = LatticeSpacetime.propagator

    def counting_propagator(self, phi):
        calls.append(phi)
        return propagator(self, phi)

    monkeypatch.setattr(LatticeSpacetime, "propagator", counting_propagator)
    assert main(["peierls", "timeslice", "--T", "12", "--N", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert 0 < len(calls) <= 3 * report["probes"]


def test_propagator_solves_homogeneous_equation():
    rng = random.Random(7)
    for st in (ST, STM):
        for _ in range(5):
            phi = LatticeSection(
                {
                    (rng.randint(1, st.T - 2), rng.randint(0, st.N - 1)): rng.randint(-2, 2)
                    for _ in range(4)
                }
            )
            g = st.propagator(phi)
            for t in range(1, st.T - 1):
                for x in range(st.N):
                    assert interior_D(st, g, t, x) == 0
    # G(D chi) = 0 for compactly supported chi with margins
    chi = LatticeSection.delta(5, 2) + LatticeSection.delta(6, 6).scale(3)
    assert not ST.propagator(ST.apply_D(chi))


def test_lambda_cov_antisymmetry_and_locality():
    rng = random.Random(11)
    for st in (ST, STM):
        for _ in range(10):
            phi = LatticeSection(
                {
                    (rng.randint(1, st.T - 2), rng.randint(0, st.N - 1)): rng.randint(-2, 2)
                    for _ in range(3)
                }
            )
            psi = LatticeSection(
                {
                    (rng.randint(1, st.T - 2), rng.randint(0, st.N - 1)): rng.randint(-2, 2)
                    for _ in range(3)
                }
            )
            assert st.lambda_cov(phi, psi) == -st.lambda_cov(psi, phi)
    assert ST.lambda_cov(LatticeSection.delta(4, 2), LatticeSection.delta(4, 2)) == 0
    # equal-time separated deltas decouple
    assert ST.lambda_cov(LatticeSection.delta(4, 2), LatticeSection.delta(4, 6)) == 0
    # spacelike separation: distance exceeds time lag
    a, b = (5, 1), (6, 5)
    assert ST.is_spacelike(a, b)
    assert ST.lambda_cov(LatticeSection.delta(*a), LatticeSection.delta(*b)) == 0
    # causally related deltas pair nontrivially (massless propagation
    # lives on odd total offsets dt + dx of the stencil checkerboard)
    c, d = (4, 3), (7, 3)
    assert not ST.is_spacelike(c, d)
    assert ST.lambda_cov(LatticeSection.delta(*c), LatticeSection.delta(*d)) != 0
    # on the massive lattice the interior of the cone fills in as well
    assert STM.lambda_cov(LatticeSection.delta(3, 2), LatticeSection.delta(5, 2)) != 0


def test_solve_cauchy_examples():
    zero = CauchyPair([0] * 8, [0] * 8)
    assert not ST.solve_cauchy(zero, 3)
    const = CauchyPair([2] * 8, [2] * 8)
    u = ST.solve_cauchy(const, 3)
    assert all(u[(t, x)] == 2 for t in range(12) for x in range(8))
    rng = random.Random(13)
    data = CauchyPair(
        [rng.randint(-3, 3) for _ in range(8)], [rng.randint(-3, 3) for _ in range(8)]
    )
    assert ST.solve_cauchy(data, 4) == ST.solve_cauchy(data, 4)
    u = ST.solve_cauchy(data, 4)
    assert tuple(u[(4, x)] for x in range(8)) == data.u0
    assert tuple(u[(5, x)] for x in range(8)) == data.u1


def test_rho_sigma_examples():
    t0 = 5
    chi = LatticeSection.delta(4, 3)
    pair = ST.rho_sigma(ST.apply_D(chi), t0)
    assert not any(pair.u0) and not any(pair.u1)
    # one-step reading of a just-below delta
    phi = LatticeSection.delta(t0 - 1, 2)
    pair = ST.rho_sigma(phi, t0)
    g = ST.propagator(phi)
    assert pair.u0 == tuple(g[(t0, x)] for x in range(8))
    assert pair.u1 == tuple(g[(t0 + 1, x)] for x in range(8))
    # linearity
    psi = LatticeSection.delta(3, 6)
    both = ST.rho_sigma(phi + psi.scale(2), t0)
    p1, p2 = ST.rho_sigma(phi, t0), ST.rho_sigma(psi, t0)
    assert both.u0 == tuple(a + 2 * b for a, b in zip(p1.u0, p2.u0))
    assert both.u1 == tuple(a + 2 * b for a, b in zip(p1.u1, p2.u1))


def test_cauchy_pair_from_numerators_matches_its_values():
    # rho_sigma's pairs keep the kernel rows' denominator, which need not be reduced
    pair = CauchyPair._from_numerators([2, 0, -4], [6, 3, 1], 6)
    same = CauchyPair([Fraction(1, 3), 0, Fraction(-2, 3)], [1, Fraction(1, 2), Fraction(1, 6)])
    assert pair == same and repr(pair) == repr(same)
    assert pair.u0 == (Fraction(1, 3), 0, Fraction(-2, 3)) and pair.sites == 3
    assert pair != CauchyPair(same.u0, [1, Fraction(1, 2), 0])
    phi = LatticeSection.delta(4, 2) + LatticeSection.delta(6, 5).scale(Fraction(2, 7))
    for t0 in (3, 5):
        got = STM.rho_sigma(phi, t0)
        public = CauchyPair(got.u0, got.u1)
        assert got == public and repr(got) == repr(public)
        assert STM.solve_cauchy(got, t0) == STM.solve_cauchy(public, t0) == STM.propagator(phi)


def test_lambda_sigma_examples_and_conservation():
    rng = random.Random(17)
    data = CauchyPair(
        [rng.randint(-3, 3) for _ in range(8)], [rng.randint(-3, 3) for _ in range(8)]
    )
    assert ST.lambda_sigma(data, data) == 0
    for st in (ST, STM):
        d1 = CauchyPair(
            [rng.randint(-3, 3) for _ in range(st.N)],
            [rng.randint(-3, 3) for _ in range(st.N)],
        )
        d2 = CauchyPair(
            [rng.randint(-3, 3) for _ in range(st.N)],
            [rng.randint(-3, 3) for _ in range(st.N)],
        )
        u1, u2 = st.solve_cauchy(d1, 2), st.solve_cauchy(d2, 2)
        vals = set()
        for t in range(st.T - 1):
            A = CauchyPair(
                [u1[(t, x)] for x in range(st.N)], [u1[(t + 1, x)] for x in range(st.N)]
            )
            Bp = CauchyPair(
                [u2[(t, x)] for x in range(st.N)], [u2[(t + 1, x)] for x in range(st.N)]
            )
            vals.add(st.lambda_sigma(A, Bp))
        assert len(vals) == 1


def test_poisson_morphism_identity_random():
    rng = random.Random(19)
    for st in (ST, STM):
        t0 = (st.T - 1) // 2
        for _ in range(10):
            phi = LatticeSection(
                {
                    (rng.randint(1, st.T - 2), rng.randint(0, st.N - 1)): rng.randint(-2, 2)
                    for _ in range(3)
                }
            )
            psi = LatticeSection(
                {
                    (rng.randint(1, st.T - 2), rng.randint(0, st.N - 1)): rng.randint(-2, 2)
                    for _ in range(3)
                }
            )
            lhs = st.lambda_sigma(st.rho_sigma(phi, t0), st.rho_sigma(psi, t0))
            assert lhs == st.lambda_cov(phi, psi)


def test_is_casimir_and_slab_representative():
    chi = LatticeSection.delta(5, 1) + LatticeSection.delta(6, 3).scale(-2)
    assert ST.is_casimir(ST.apply_D(chi))
    assert not ST.is_casimir(LatticeSection.delta(4, 4))
    t0 = 5
    phi = LatticeSection.delta(1, 2)
    psi = ST.slab_representative(phi, t0)
    assert {t for t, _ in psi.support()} <= {t0, t0 + 1}
    assert ST.is_casimir(phi - psi)
    for t in (1, 3, 8, 10):
        for x in (0, 4, 7):
            chi2 = LatticeSection.delta(t, x)
            assert ST.lambda_cov(phi, chi2) == ST.lambda_cov(psi, chi2)
    # a Casimir is exactly a section pairing to zero with every solution
    solutions = ST.solution_basis()
    for sec in (ST.apply_D(chi), LatticeSection.delta(4, 4), phi, phi - psi):
        by_solutions = all(ST.pairing(sec, u) == 0 for u in solutions)
        assert ST.is_casimir(sec) == by_solutions
    # slab-supported sections are their own representatives
    slab = LatticeSection.delta(t0, 3) + LatticeSection.delta(t0 + 1, 5).scale(2)
    assert ST.slab_representative(slab, t0) == slab


def test_kernel_identification():
    # at 12x8 rho_sigma has rank 2N on the 80 margin deltas, and D maps the
    # 64 inner deltas onto its kernel
    for st in (ST, LatticeSpacetime(12, 8, Fraction(1, 3))):
        rep = kernel_identification_report(st)
        assert (rep["rho_rank"], rep["d_rank"], rep["kernel_dim"]) == (2 * st.N, 64, 64)
        assert rep["kernel_equals_image"]
    rep = kernel_identification_report(STM)
    assert rep["kernel_equals_image"]


def test_pairing_equals_the_plain_sum_over_the_window():
    st = LatticeSpacetime(12, 8, Fraction(1, 3))
    g = st.propagator(LatticeSection.delta(5, 2))
    h = st.propagator(
        LatticeSection.delta(6, 3) + LatticeSection.delta(4, 7).scale(Fraction(-2, 5))
    )
    three = LatticeSection({(7, 2): Fraction(3, 4), (6, 0): -2, (3, 5): Fraction(1, 6)})
    window = [(t, x) for t in range(st.T) for x in range(st.N)]
    cases = [
        (LatticeSection.delta(8, 4), g),
        (three, g),
        (LatticeSection.delta(5, 2), g),  # the source slice, where g vanishes
        (LatticeSection.delta(1, 0), LatticeSection.delta(2, 0)),
        (g, h),
    ]
    # the propagated section of every margin delta, for both masses; the
    # counting pairing itself does not depend on the mass
    for m2 in (Fraction(0), Fraction(1, 3)):
        sm = LatticeSpacetime(12, 8, m2)
        for site in sm.margin_sites():
            delta = LatticeSection.delta(*site)
            prop = sm.propagator(delta)
            cases += [(delta, prop), (LatticeSection.delta(8, 4), prop), (three, prop)]
    for phi, u in cases:
        plain = sum((phi[k] * u[k] for k in window), Fraction(0))
        for a, b in ((phi, u), (u, phi)):
            value = st.pairing(a, b)
            assert type(value) is Fraction and value == plain
    assert st.pairing(LatticeSection.delta(5, 2), g) == 0
    assert st.pairing(three, g) != 0 and st.pairing(g, h) != 0


def fractions_built(monkeypatch, f, *args):
    """(f(*args), the number of Fractions built while it ran)."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    try:
        return f(*args), len(built)
    finally:
        monkeypatch.undo()


def eliminations(monkeypatch, f, *args):
    """(f(*args), the number of calls of ``_eliminate`` while it ran)."""
    calls = []
    eliminate = peierls._eliminate

    def counting_eliminate(M, cols):
        calls.append(cols)
        return eliminate(M, cols)

    monkeypatch.setattr(peierls, "_eliminate", counting_eliminate)
    try:
        return f(*args), len(calls)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("T, N", [(12, 8), (16, 12)])
def test_propagator_builds_no_fraction_per_site(T, N, monkeypatch):
    st = LatticeSpacetime(T, N, Fraction(1, 3))
    st.propagator(LatticeSection.delta(1, 0))  # builds the Green kernel
    delta = LatticeSection.delta(T // 2, N // 2)
    g, built = fractions_built(monkeypatch, st.propagator, delta)
    assert len(g.support()) > T * N // 2
    assert built <= 2


@pytest.mark.parametrize("m2", [Fraction(0), Fraction(1, 3), Fraction(5, 2)])
def test_apply_D_builds_no_fraction_per_site(m2, monkeypatch):
    st = LatticeSpacetime(16, 12, m2)
    v = Fraction(-2, 7)
    image, built = fractions_built(monkeypatch, st.apply_D, LatticeSection.delta(8, 6, v))
    assert len(image.support()) == (5 if m2 else 4)
    stencil = {(9, 6): v, (7, 6): v, (8, 5): -v, (8, 7): -v, (8, 6): m2 * v}
    assert image == LatticeSection(stencil) and image.values == LatticeSection(stencil).values
    assert built <= 2


def test_numerator_sections_read_as_their_fraction_maps():
    from weylalg import jsonio

    fractions = {(2, 1): Fraction(1, 2), (3, 4): Fraction(-1, 3), (5, 0): Fraction(2)}
    plain = LatticeSection(fractions)
    # the same values over 36, a denominator that is not reduced
    unreduced = LatticeSection._from_numerators({(2, 1): 18, (3, 4): -12, (5, 0): 72}, 36)
    g = ST.propagator(LatticeSection.delta(5, 2).scale(Fraction(3, 7)))
    for u, ref in ((unreduced, plain), (g, LatticeSection(g.values))):
        assert u.values == ref.values and repr(u) == repr(ref)
        assert u == ref and ref == u and not u != ref
        assert jsonio.section_to_json(u) == jsonio.section_to_json(ref)
        assert all(type(v) is Fraction for v in u.values.values())
    assert unreduced.values == fractions and unreduced[(2, 1)] == Fraction(1, 2)
    assert unreduced[(0, 0)] == 0 and unreduced.support() == set(fractions)
    assert unreduced != LatticeSection({(2, 1): Fraction(1, 2), (3, 4): Fraction(-1, 3)})
    assert not (unreduced - plain) and unreduced - plain == LatticeSection()
    assert unreduced.scale(Fraction(-3, 2)) == plain.scale(Fraction(-3, 2))
    assert unreduced.scale(0) == LatticeSection() and not unreduced.scale(0)
    for value in (0, Fraction(3, 7), -2):
        delta = LatticeSection.delta(5, 2, value)
        ref = LatticeSection({(5, 2): value})
        assert delta == ref and delta.values == ref.values and repr(delta) == repr(ref)
        assert delta[(5, 2)] == value and type(delta[(5, 2)]) is Fraction
    assert LatticeSection.delta(5, 2, 0).values == {} and not LatticeSection.delta(5, 2, 0)


def test_exact_rank_is_invariant_under_transposition():
    rng = random.Random(19)

    def rational():
        return rng.choice(
            [0, 0, rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 7))]
        )

    for trial in range(30):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        if trial % 2:
            # rank at most r: a product of n x r and r x m factors
            r = rng.randint(0, min(n, m) - 1)
            left = [[rational() for _ in range(r)] for _ in range(n)]
            right = [[rational() for _ in range(m)] for _ in range(r)]
            M = [
                [sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0)) for j in range(m)]
                for i in range(n)
            ]
            assert exact_rank(M) <= r
        else:
            M = [[rational() for _ in range(m)] for _ in range(n)]
        assert exact_rank(M) == exact_rank([list(col) for col in zip(*M)])


def test_exact_rank_certifies_full_rank_without_elimination(monkeypatch):
    rng = random.Random(23)
    for trial in range(40):
        n, m = rng.randint(1, 9), rng.randint(1, 9)
        if trial % 2:
            M = [[Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(m)] for _ in range(n)]
        else:
            M = [[rng.randint(-(2**70), 2**70) for _ in range(m)] for _ in range(n)]
        full = len(peierls._eliminate(M, m))
        assert full == min(n, m)  # seeded draws of full rank
        rank, calls = eliminations(monkeypatch, exact_rank, M)
        assert (rank, calls) == (full, 0)


def test_exact_rank_falls_back_to_elimination_below_full_rank_mod_p(monkeypatch):
    p = peierls._P
    cases = [
        # determinant p: rank 2 over Q, but 1 mod p
        ([[1, 1], [1, 1 + p]], 2),
        ([[Fraction(1, 3), 1], [Fraction(1, 3), 1 + p]], 2),
        # rank 2 over Q in a 3 x 4 matrix: the third row is the sum of the others
        ([[1, 2, 0, Fraction(1, 2)], [0, 3, -1, 4], [1, 5, -1, Fraction(9, 2)]], 2),
        ([[0, 0], [0, 0], [0, 0]], 0),
    ]
    for M, rank in cases:
        assert eliminations(monkeypatch, exact_rank, M) == (rank, 1)
        assert eliminations(monkeypatch, exact_rank, [list(c) for c in zip(*M)]) == (rank, 1)


def test_kernel_report_certifies_without_elimination(monkeypatch):
    st = LatticeSpacetime(16, 12, Fraction(1, 3))
    rep, calls = eliminations(monkeypatch, kernel_identification_report, st)
    assert calls == 0
    assert (rep["rho_rank"], rep["d_rank"], rep["kernel_dim"]) == (24, 144, 144)
    assert rep["kernel_equals_image"]
    # the slab system is solved by the exact elimination, once
    phi = LatticeSection.delta(2, 3) + LatticeSection.delta(12, 7).scale(Fraction(-3, 5))
    psi, calls = eliminations(monkeypatch, st.slab_representative, phi, 7)
    assert calls == 1 and st.is_casimir(phi - psi)


def test_covariant_weyl_generators():
    # spacelike deltas commute in the deformed algebra
    d1 = LatticeSection.delta(5, 1)
    d2 = LatticeSection.delta(6, 5)
    form = ST.covariant_weyl_generators([d1, d2])
    assert all(not bool(form.matrix[i][j]) for i in range(2) for j in range(2))
    g0 = __import__("weylalg").Element.generator(form.basis, "g0")
    g1 = __import__("weylalg").Element.generator(form.basis, "g1")
    z = QC(0, Fraction(1, 2))
    assert not graded_commutator(g0, g1, z, form)
    # causally related deltas: CCR-type commutator
    d3 = LatticeSection.delta(4, 3)
    d4 = LatticeSection.delta(5, 3)
    form2 = ST.covariant_weyl_generators([d3, d4])
    val = form2.matrix[0][1]
    assert bool(val)
    assert form2.matrix[1][0] == -val
    h0 = __import__("weylalg").Element.generator(form2.basis, "g0")
    h1 = __import__("weylalg").Element.generator(form2.basis, "g1")
    comm = graded_commutator(h0, h1, z, form2)
    assert comm == __import__("weylalg").Element.one(form2.basis).scale(z * val * 2)
    assert check_star_involution(form2, 1)["holds"]
    # single section: 1x1 zero block
    form3 = ST.covariant_weyl_generators([d1])
    assert not bool(form3.matrix[0][0])
    # scale flag
    form4 = ST.covariant_weyl_generators([d3, d4], scale=Fraction(1, 2))
    assert form4.matrix[0][1] == val * Fraction(1, 2)


def test_time_slice_changes_no_pairings():
    t0 = 5
    tests = [LatticeSection.delta(t, x) for t in range(1, 11) for x in range(0, 8, 3)]
    for phi in (LatticeSection.delta(9, 2), LatticeSection.delta(2, 7)):
        psi = ST.slab_representative(phi, t0)
        for chi in tests:
            assert ST.lambda_cov(phi, chi) == ST.lambda_cov(psi, chi)


def test_periodic_wraparound_keeps_identities():
    # small ring: cones wrap all the way around, identities stay exact
    st = LatticeSpacetime(10, 4, 0)
    phi = LatticeSection.delta(1, 0)
    g = st.propagator(phi)
    assert any(x == 2 for (_, x) in g.support())  # reached the far side
    for t in range(1, 9):
        for x in range(4):
            assert interior_D(st, g, t, x) == 0
    t0 = 4
    psi = LatticeSection.delta(8, 3)
    assert st.lambda_sigma(
        st.rho_sigma(phi, t0), st.rho_sigma(psi, t0)
    ) == st.lambda_cov(phi, psi)


def test_window_validation():
    with pytest.raises(DomainError):
        LatticeSpacetime(2, 8)
    with pytest.raises(DomainError):
        LatticeSpacetime(8, 2)
    with pytest.raises(WindowOverflowError):
        ST.rho_sigma(LatticeSection.delta(5, 5), 11)
    with pytest.raises(WindowOverflowError):
        ST.slab_representative(LatticeSection.delta(5, 5), 10)
