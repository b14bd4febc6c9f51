"""The four seeded workloads of the benchmark.

Each workload is a fixed list of operations built from the seed: its
"pass".  An operation is a ``(kind, fn)`` pair; ``fn()`` calls the public
API (or the ``weylalg`` CLI) and returns ``(ok, out)``: the literal verdict
of the identity or check it performs, and its output, which the worker
hashes (through ``canonical``) into the per-seed digest.

``PASSES[name](seed, workdir)`` returns ``(ops, warmup)``; ``warmup`` is
a short list of operations on other operands, run before timing starts.

The seed draws every coefficient, form entry and scalar, and the order of
operations where the order does not change the work.  The shapes of the
operands (which monomials, how many terms, which sizes) come from a
stream that is the same for every seed, so the work in a pass, and with
it every timing, does not depend on the seed; only the numbers do.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from weylalg import (
    BilinearForm,
    Element,
    GeneratorBasis,
    LatticeSection,
    LatticeSpacetime,
    QC,
    TruncatedSeries,
    WeightedSeminorm,
    apply_linear,
    convergence_diagnosis,
    divergence_witness_standard_ordered,
    equivalence_transform,
    exp_element,
    inner_translation_check,
    is_poisson_map,
    jsonio,
    lambda_parts,
    poisson_bracket,
    star,
    star_exp,
    translate,
    truncated_star,
    verify_bracket_estimate,
    verify_product_estimate,
)
from weylalg.peierls import kernel_identification_report
from weylalg.randoms import default_basis, random_monomial, random_rational

from run import reap

B = default_basis()


def _rng(name, seed, part="pass"):
    # str seeds are hashed with SHA-512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}:{part}")


class Draw:
    """Seeded values on seed-independent shapes (see the module docstring)."""

    def __init__(self, name, seed, part="pass"):
        self.shape = _rng(name, "shape", part)
        self.value = _rng(name, seed, part)

    def rational(self, span=6):
        q = 0
        while not q:
            q = random_rational(self.value, span=span)
        return q

    def scalar(self, cplx=False, span=6):
        return QC(self.rational(span), self.rational(span) if cplx else 0)

    def element(self, max_degree, n_terms, cplx=False):
        monomials = [random_monomial(self.shape, B, max_degree) for _ in range(n_terms)]
        return Element.from_terms(B, "exact", [(e, self.scalar(cplx)) for e in monomials])

    def form(self, cplx=False, span=6):
        """An even form with every entry of its parity blocks nonzero."""
        d = B.dimension
        rows = [
            [self.scalar(cplx, span) if B.parity(i) == B.parity(j) else QC(0) for j in range(d)]
            for i in range(d)
        ]
        return BilinearForm(B, rows)

    def degree_one_even(self, span=6):
        """w = a q + b p with both coefficients nonzero."""
        gens = [tuple(int(j == i) for j in range(B.dimension)) for i in B.even_indices()]
        return Element.from_terms(B, "exact", [(e, self.scalar(span=span)) for e in gens])

    def weights(self):
        """Weights of at most 1/2, below every |form entry| >= 1/3 of ``form()``.

        The estimates then always rescale the seminorm to dominate the
        form, so their cost does not swing with the seed between the
        rescaled and the plain path.
        """
        return WeightedSeminorm(B, {n: Fraction(1, self.value.randint(2, 4)) for n in B.names})


def canonical(out):
    """A JSON-able form of an operation's output, built outside the timed call."""
    if isinstance(out, Element):
        return jsonio.element_to_json(out)
    if isinstance(out, BilinearForm):
        return jsonio.form_to_json(out)
    if isinstance(out, LatticeSection):
        return jsonio.section_to_json(out)
    if isinstance(out, TruncatedSeries):
        return [jsonio.element_to_json(c) for c in out.components]
    if isinstance(out, bytes):
        return out.decode("latin-1")
    if isinstance(out, (list, tuple)):
        return [canonical(x) for x in out]
    if isinstance(out, dict):
        return {k: canonical(v) for k, v in out.items()}
    return out


# -- algebra-mix ---------------------------------------------------------
#
# Identity checks on the default 2-even/2-odd basis with small operands
# (degree <= 5, 3 terms), every operand drawn afresh.  Kinds alternate
# between complex-rational and real coefficients, forms and scalars.

ALGEBRA_KINDS = ("associativity", "jacobi", "leibniz", "equivalence", "translation", "poisson-map")
ALGEBRA_ROUNDS = 36


def _elem(d, cplx):
    return d.element(5, 3, cplx)


def _assoc(d, cplx):
    form, z = d.form(cplx), d.scalar(cplx)
    a, b, c = _elem(d, cplx), _elem(d, cplx), _elem(d, cplx)

    def op():
        lhs = star(star(a, b, z, form), c, z, form)
        return lhs == star(a, star(b, c, z, form), z, form), lhs

    return op


def _jacobi(d, cplx):
    form = d.form(cplx)
    a, b, c = _elem(d, cplx), _elem(d, cplx), _elem(d, cplx)

    def op():
        ok, out = True, []
        for pa, ah in enumerate(a.parity_split()):
            for pb, bh in enumerate(b.parity_split()):
                lhs = poisson_bracket(ah, poisson_bracket(bh, c, form), form)
                t1 = poisson_bracket(poisson_bracket(ah, bh, form), c, form)
                t2 = poisson_bracket(bh, poisson_bracket(ah, c, form), form)
                ok = ok and lhs == (t1 - t2 if pa and pb else t1 + t2)
                out.append(lhs)
        return ok, out

    return op


def _leibniz(d, cplx):
    form = d.form(cplx)
    a, b, c = _elem(d, cplx), _elem(d, cplx), _elem(d, cplx)

    def op():
        ok, out = True, []
        for pa, ah in enumerate(a.parity_split()):
            for pb, bh in enumerate(b.parity_split()):
                second = bh * poisson_bracket(ah, c, form)
                rhs = poisson_bracket(ah, bh, form) * c
                rhs = rhs - second if pa and pb else rhs + second
                lhs = poisson_bracket(ah, bh * c, form)
                ok = ok and lhs == rhs
                out.append(lhs)
        return ok, out

    return op


def _equivalence(d, cplx):
    lam, g = d.form(cplx), lambda_parts(d.form(cplx))[0]
    lam2 = lam + g
    z = d.scalar(cplx)
    a, b = _elem(d, cplx), _elem(d, cplx)

    def op():
        lhs = equivalence_transform(star(a, b, z, lam), z, g)
        rhs = star(equivalence_transform(a, z, g), equivalence_transform(b, z, g), z, lam2)
        return lhs == rhs, lhs

    return op


def _translation(d, cplx):
    form, z = d.form(cplx), d.scalar(cplx)
    phi = {B.names[i]: d.scalar(cplx) for i in B.even_indices()}
    a, b = _elem(d, cplx), _elem(d, cplx)

    def op():
        lhs = translate(star(a, b, z, form), phi)
        return lhs == star(translate(a, phi), translate(b, phi), z, form), lhs

    return op


def _poisson_map(d, cplx):
    # lam_v = A^T lam_w A makes the parity-preserving A a Poisson map
    n = B.dimension
    A = [[d.scalar(cplx) if B.parity(r) == B.parity(c) else QC(0) for c in range(n)] for r in range(n)]
    lam_w = d.form(cplx)
    rows = [
        [
            sum((A[r1][c1] * A[r2][c2] * lam_w.matrix[r1][r2] for r1 in range(n) for r2 in range(n)), QC(0))
            for c2 in range(n)
        ]
        for c1 in range(n)
    ]
    lam_v = BilinearForm(B, rows)
    if not is_poisson_map(A, lam_v, lam_w):
        raise AssertionError("transported form does not make A a Poisson map")
    z = d.scalar(cplx)
    a, b = _elem(d, cplx), _elem(d, cplx)

    def op():
        lhs = apply_linear(star(a, b, z, lam_v), A)
        rhs = star(apply_linear(a, A), apply_linear(b, A), z, lam_w)
        return lhs == rhs, lhs

    return op


_ALGEBRA_MAKERS = dict(
    zip(ALGEBRA_KINDS, (_assoc, _jacobi, _leibniz, _equivalence, _translation, _poisson_map))
)


def _algebra_ops(d, rounds):
    return [
        (kind, _ALGEBRA_MAKERS[kind](d, cplx=bool((r + k) % 2)))
        for r in range(rounds)
        for k, kind in enumerate(ALGEBRA_KINDS)
    ]


def build_algebra_mix(seed, workdir):
    ops = _algebra_ops(Draw("algebra-mix", seed), ALGEBRA_ROUNDS)
    return ops, _algebra_ops(Draw("algebra-mix", seed, "warmup"), 1)


# -- series-deep -----------------------------------------------------------
#
# Few large operands: each anchor (form, w, z) feeds the inner-translation
# check for every generator, a truncated star product of exponential
# series and the star-exponential closed form, so the star powers of w
# recur within the pass.  Anchors alternate between real and
# complex-rational; their values are small (|numerator| <= 3), because
# star powers of w raise them to the 10th power and the work should not
# swing with the seed.  The estimates run on degree-8 operands of varied
# sizes.  Two float paths (convergence diagnosis, divergence witness)
# complete the mix.  The counts put the median latency among the
# estimates, whose costs spread over a decade: a median that fell in a
# group of equal-cost operations would jump with every change of machine
# speed instead of following it.

SERIES_ANCHORS = 4
SERIES_PRODUCTS = 12
SERIES_BRACKETS = 12
SERIES_DIVERGENCES = 8
SERIES_CONVERGENCES = 4


def _inner(w, v, z, form):
    def op():
        res = inner_translation_check(w, v, z, form, 10)
        ok = all(res["per_degree_match"]) and not any(res["orders"][2:])
        return ok, {"phi_v": res["phi_v"], "lhs": res["lhs_element"]}

    return op


def _truncated(w, w2, z, form):
    def op():
        S = truncated_star(exp_element(w, 8), exp_element(w2, 8), z, form, 8)
        return len(S.components) == 9 and S.meta["exact_through"] == -1, S

    return op


def _star_exp(w, t, z, form, order):
    def op():
        S = star_exp(w, t, z, form, order)
        acc = Element.zero(B)
        power = Element.one(B)
        for ell in range(order + 1):
            if ell:
                power = star(power, w, z, form)
            acc = acc + power.scale(QC(t) ** ell * QC(Fraction(1, math.factorial(ell))))
        return all(acc.grade_component(n) == S.components[n] for n in range(order + 1)), S

    return op


def _product_estimate(a, b, zmag, form, R, p):
    def op():
        rep = verify_product_estimate(a, b, zmag, form, R, p)
        return rep.holds, {"lhs": str(rep.lhs), "rhs": str(rep.rhs)}

    return op


def _bracket_estimate(a, b, form, R, p):
    def op():
        rep = verify_bracket_estimate(a, b, form, R, p)
        return rep.holds, {"lhs": str(rep.lhs), "rhs": str(rep.rhs)}

    return op


_Q1 = GeneratorBasis(("q",), ("even",))


def _convergence(coeff, weight, R, order=40):
    # term ratios are coeff * weight * (n+1)^(R-1): the verdict is set by R alone
    expected = "converging" if R < 1 else "diverging"

    def op():
        v = Element.generator(_Q1, "q", "float").scale(complex(coeff))
        diag = convergence_diagnosis(exp_element(v, order), WeightedSeminorm(_Q1, {"q": weight}), R)
        return diag["verdict"] == expected, {"terms": diag["terms"], "verdict": diag["verdict"]}

    return op


def _divergence(hbar, L=20):
    def op():
        rep = divergence_witness_standard_ordered(0.25, hbar, L)
        mags = rep["term_magnitudes"]
        closed = [hbar**ell * math.factorial(ell) ** 0.5 for ell in range(L + 1)]
        ok = rep["increasing_from"] is not None and all(
            abs(m - c) <= 1e-9 * max(1.0, c) for m, c in zip(mags, closed)
        )
        return ok, {"mags": mags, "increasing_from": rep["increasing_from"]}

    return op


def _series_ops(d, anchors, products, brackets, divergences, convergences, order=14):
    ops = []
    for k in range(anchors):
        cplx = bool(k % 2)
        form = d.form(cplx, span=3)
        w, w2 = d.degree_one_even(span=3), d.degree_one_even(span=3)
        z, t = d.scalar(cplx, span=3), d.rational(span=2)
        ops.extend(("inner_translation", _inner(w, Element.generator(B, n), z, form)) for n in B.names)
        ops.append(("truncated_star", _truncated(w, w2, z, form)))
        ops.append(("star_exp", _star_exp(w, t, z, form, order)))
    for i in range(max(products, brackets)):
        form = d.form()
        a, b = d.element(8, d.shape.randint(4, 8)), d.element(8, d.shape.randint(4, 8))
        if i < products:
            ops.append(("product_estimate", _product_estimate(a, b, Fraction(1), form, 1, d.weights())))
        if i < brackets:
            ops.append(("bracket_estimate", _bracket_estimate(a, b, form, 1, d.weights())))
    v = d.value
    for _ in range(divergences):
        ops.append(("divergence", _divergence(v.choice((0.5, 1.0, 2.0)))))
    for _ in range(convergences):
        ops.append(("convergence", _convergence(v.choice((0.5, 1.0, 2.0)), v.randint(1, 3), v.choice((0.8, 0.9, 1.1, 1.2)))))
    v.shuffle(ops)
    return ops


def build_series_deep(seed, workdir):
    d = Draw("series-deep", seed)
    ops = _series_ops(d, SERIES_ANCHORS, SERIES_PRODUCTS, SERIES_BRACKETS, SERIES_DIVERGENCES, SERIES_CONVERGENCES)
    return ops, _series_ops(Draw("series-deep", seed, "warmup"), 0, 1, 1, 1, 1)


# -- lattice -----------------------------------------------------------------
#
# Full-basis Peierls work.  Every margin site is a source; its operation
# computes the propagator and rho_sigma of its delta and checks
# lambda_sigma against pairing with every source handled before it, in
# both orders, so one pass checks all n^2 pairs exactly as poisson-iso
# does.  Kernel identification, slab representatives and covariant Weyl
# generators are interleaved at seeded positions.

LATTICES = ((12, 8, Fraction(0)), (12, 8, Fraction(1, 3)), (16, 12, Fraction(0)), (16, 12, Fraction(1, 3)))


def _random_section(d, st, sites=3):
    vals = {}
    while len(vals) < sites:
        vals[(d.shape.randrange(1, st.T - 1), d.shape.randrange(st.N))] = d.rational(4)
    return LatticeSection(vals)


def _lattice_ops(d, lattices, extras=2):
    ops = []
    for T, N, m2 in lattices:
        st = LatticeSpacetime(T, N, m2)
        # the slice pair of `peierls poisson-iso`.  The slice and the source
        # order set the size of the rationals each row pairs, so neither
        # comes from the seed: at 16x12, m2 = 1/3, the slice alone changed
        # the time of rho_sigma and lambda_sigma by up to half
        t0 = (T - 1) // 2
        sites = st.margin_sites()
        d.shape.shuffle(sites)
        deltas, props, rhos = [], [], []

        def row(site, st=st, t0=t0, deltas=deltas, props=props, rhos=rhos):
            delta = LatticeSection.delta(*site)
            g = st.propagator(delta)
            r = st.rho_sigma(delta, t0)
            deltas.append(delta)
            props.append(g)
            rhos.append(r)
            ok, out = True, []
            for dj, gj, rj in zip(deltas, props, rhos):
                v = st.lambda_sigma(r, rj)
                ok = ok and v == st.pairing(dj, g) and st.lambda_sigma(rj, r) == st.pairing(delta, gj)
                out.append(v)
            return ok, out

        def kernel(st=st, t0=t0):
            rep = kernel_identification_report(st, t0)
            return rep["kernel_equals_image"], rep

        def slab(phi, st=st, t0=t0):
            psi = st.slab_representative(phi, t0)
            return st.rho_sigma(psi, t0) == st.rho_sigma(phi, t0), psi

        def weyl(sections, st=st):
            form = st.covariant_weyl_generators(sections)
            return form.is_graded_antisymmetric(), form

        cfg = [("source_row", (lambda site=site, row=row: row(site))) for site in sites]
        extra = [("kernel_report", kernel)]
        for _ in range(extras):
            phi = _random_section(d, st)
            extra.append(("slab_representative", lambda phi=phi, slab=slab: slab(phi)))
            secs = [_random_section(d, st, 1) for _ in range(3)]
            extra.append(("weyl_generators", lambda secs=secs, weyl=weyl: weyl(secs)))
        for item in extra:
            cfg.insert(d.value.randrange(len(cfg) + 1), item)
        ops.extend(cfg)
    return ops


def build_lattice(seed, workdir):
    ops = _lattice_ops(Draw("lattice", seed), LATTICES)
    warm = _lattice_ops(Draw("lattice", seed, "warmup"), ((5, 4, Fraction(1, 2)),), extras=1)
    return ops, warm


# -- cli -------------------------------------------------------------------------
#
# One `python -m weylalg.cli` child at a time.  An operation runs from the
# spawn until the exit code is reaped and stdout read; its output is the
# exit code plus the stdout bytes.

CLI_ROUNDS = 6


def cli_run(argv, env, out_path):
    """Run one CLI child; return (exit code, stdout bytes); the code is None on a hang.

    Stdout goes to a file, so the child is reaped as soon as it exits
    (see ``run.reap``) and the file is read after that.
    """
    with open(out_path, "w+b") as out, subprocess.Popen(
        [sys.executable, "-m", "weylalg.cli", *argv],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=out,
        stderr=subprocess.DEVNULL,
    ) as proc:
        rc = reap(proc, 60)
        out.seek(0)
        return rc, out.read()


def _star_doc(d):
    return {
        "basis": jsonio.basis_to_json(B),
        "lambda": jsonio.form_to_json(d.form()),
        "a": jsonio.element_to_json(d.element(4, 3, cplx=True)),
        "b": jsonio.element_to_json(d.element(4, 3)),
        "z": jsonio.scalar_to_json(d.scalar(), "exact"),
    }


def _convergence_doc(d):
    return {
        "series": {"kind": "exp", "N": 40, "coeff": d.value.choice((0.5, 1, 2))},
        "R_grid": [0.9, 1.1],
        "seminorm": {"weights": {"q": d.value.randint(1, 3)}},
    }


def cli_argvs(seed, workdir, part="pass"):
    """The six CLI invocations of one round, with seeded inputs written to workdir."""
    d = Draw("cli", seed, part)
    star_path = os.path.join(workdir, f"star-{part}.json")
    conv_path = os.path.join(workdir, f"convergence-{part}.json")
    with open(star_path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(_star_doc(d)))
    with open(conv_path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(_convergence_doc(d)))
    T, N = d.shape.choice(((8, 6), (10, 8), (12, 8)))
    return [
        ["star", "--input", star_path],
        # the suite's seed picks its operands' shapes, so it comes from the shape stream
        ["verify", "associativity", "--trials", "10", "--seed", str(d.shape.randrange(2**32))],
        ["peierls", "weyl-gram", "--T", str(T), "--N", str(N), "--m2", d.shape.choice(("0", "1/3"))],
        ["kothe", "--n-max", "20", "--R", d.value.choice(("1", "3/2"))],
        ["divergence", "--eps", "0.25", "--L", str(d.shape.randint(10, 20))],
        ["convergence", "--input", conv_path],
    ]


def _cli_op(argv, env, out_path):
    def op():
        rc, out = cli_run(argv, env, out_path)
        return rc == 0, {"rc": rc, "stdout": out}

    op.argv = argv
    return op


def build_cli(seed, workdir):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argvs = cli_argvs(seed, workdir)
    out_path = os.path.join(workdir, f"stdout-{os.getpid()}")
    ops = [(argv[0], _cli_op(argv, env, out_path)) for _ in range(CLI_ROUNDS) for argv in argvs]
    warm = [(argv[0], _cli_op(argv, env, out_path)) for argv in cli_argvs(seed, workdir, "warmup")[3:4]]
    return ops, warm


PASSES = {
    "algebra-mix": build_algebra_mix,
    "series-deep": build_series_deep,
    "lattice": build_lattice,
    "cli": build_cli,
}
