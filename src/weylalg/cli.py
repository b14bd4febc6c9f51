"""Command-line front end.

Subcommands: star, verify, convergence, divergence, peierls.

Exit codes: 0 success, 1 check failure, 2 input error, 3 domain error
(parity-block violations and the like), 4 refused precondition (parameters
outside the range the theory covers).  All randomness derives from the
64-bit --seed flag (default 0); identical inputs give identical output
bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

from . import jsonio
from .basis import GeneratorBasis
from .errors import (
    DomainError,
    ParityBlockError,
    RefusedPreconditionError,
    WeylalgError,
    WindowOverflowError,
)
from .graded_poly import Element
from .jsonio import SchemaError
from .peierls import LatticeSection, LatticeSpacetime, kernel_identification_report
from .seminorm_calculus import (
    WeightedSeminorm,
    kothe_matrix,
    nuclearity_diagnostic,
    reports_to_csv,
)
from .series_engine import (
    convergence_diagnosis,
    divergence_witness_standard_ordered,
    exp_element,
    f_epsilon_series,
)
from .star_algebra import check_star_involution, star
from .suites import SUITES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_REFUSED = 4
# Largest window T*N that `peierls` accepts with a one-digit m2 such as 0,
# 1/3 or 5/2.  poisson-iso pairs every margin delta with every other, so
# its time grows with the square of the sites; at 1024 sites it ends in
# 4-14 s on a 2-core host (32x32: 4.0 s with m2 = 0, 6.6-7.0 s with
# m2 = 1/3; 256x4 with m2 = 1/3: 13.9 s).
PEIERLS_MAX_SITES = 1024
# The Green kernel's rows carry m2's denominator to the power T-3, so each
# pairing also costs more with every digit d of m2's numerator and
# denominator together: `peierls` accepts (T*N)^2 * d up to its value at
# the site cap with d = 2.  The slowest admitted poisson-iso runs measured
# are long windows, whose kernel rows carry the largest powers: 31 s
# (181x4, m2 = 1/999) and 34 s (128x4, m2 = 1/9999999), against 3.6 s
# (26x27, m2 = 1/999) and 5.2 s (32x16, m2 = 1/9999999).
PEIERLS_MAX_DIGIT_WORK = 2 * PEIERLS_MAX_SITES**2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RefusedPreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ParityBlockError, WindowOverflowError, DomainError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except WeylalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error as one ``input error:`` line and exit 2;
    its subcommand parsers are of this class too.  An argument that starts
    with a minus sign and a digit or point, such as -3/7, -0.25 or -1e-3, is
    a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(EXIT_INPUT, f"input error: {message}\n")


def _build_parser():
    parser = _Parser(prog="weylalg")
    sub = parser.add_subparsers(required=True)

    p_star = sub.add_parser("star", help="compute a star product from JSON input")
    _io_flags(p_star)
    p_star.set_defaults(func=cmd_star)

    p_verify = sub.add_parser("verify", help="run a randomized verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--R", default="1")
    p_verify.add_argument("--zmag", default="1")
    p_verify.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="csv emits per-trial estimate rows (estimate suites only)",
    )
    _out_flag(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_kothe = sub.add_parser(
        "kothe", help="weight matrix of the monomial basis plus summability report"
    )
    p_kothe.add_argument("--R", default="1")
    p_kothe.add_argument("--eps", default="1/10", help="column gap: R-eps vs R")
    p_kothe.add_argument("--n-max", type=int, default=60)
    p_kothe.add_argument("--mode", choices=("nuclear", "strong"), default="strong")
    p_kothe.add_argument("--format", choices=("json", "csv"), default="json")
    _out_flag(p_kothe)
    p_kothe.set_defaults(func=cmd_kothe)

    p_conv = sub.add_parser("convergence", help="seminorm partial sums of a series")
    _io_flags(p_conv)
    p_conv.add_argument("--format", choices=("json", "csv"), default="csv")
    p_conv.set_defaults(func=cmd_convergence)

    p_div = sub.add_parser("divergence", help="the sharp-boundary divergence witness")
    p_div.add_argument("--eps", type=float, required=True)
    p_div.add_argument("--hbar", type=float, default=1.0)
    p_div.add_argument("--L", type=int, default=12)
    p_div.add_argument("--format", choices=("json", "csv"), default="csv")
    _out_flag(p_div)
    p_div.set_defaults(func=cmd_divergence)

    p_pei = sub.add_parser("peierls", help="exact lattice field-theory scenarios")
    p_pei.add_argument(
        "scenario", choices=("locality", "poisson-iso", "timeslice", "weyl-gram")
    )
    p_pei.add_argument("--T", type=int, default=12)
    p_pei.add_argument("--N", type=int, default=8)
    p_pei.add_argument("--m2", default="0")
    p_pei.add_argument("--scale", default="1")
    p_pei.add_argument("--seed", type=int, default=0)
    p_pei.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="csv emits cone pictures (locality) or the Gram matrix (weyl-gram)",
    )
    _out_flag(p_pei)
    p_pei.set_defaults(func=cmd_peierls)
    return parser


def _io_flags(p):
    p.add_argument("--input", default="-", help="JSON input file or - for stdin")
    _out_flag(p)


def _out_flag(p):
    p.add_argument("--output", default="-", help="output file or - for stdout")


def _read_input(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed, or an integer past the int-str limit
        raise SchemaError("--input", f"invalid JSON: {exc}") from None


def _number_field(kind, value, path):
    """``kind(value)`` for an int or float field of a JSON document, finite."""
    try:
        x = kind(value)
        if math.isfinite(x):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(path, f"not a finite number: {str(value)[:40]}")


def _write_output(args, text: str):
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _element_arg(doc, key, basis, backend):
    value = doc[key]
    if isinstance(value, str):
        try:
            return Element.generator(basis, value, backend)
        except DomainError:
            raise SchemaError(key, f"unknown generator {value!r}") from None
    if isinstance(value, dict):
        return jsonio.element_from_json(value, basis, backend, key)
    raise SchemaError(key, "must be a generator name or an element object")


def cmd_star(args) -> int:
    doc = _read_input(args)
    if not isinstance(doc, dict):
        raise SchemaError("$", "input must be a JSON object")
    form_doc = doc.get("lambda") or doc.get("form") or doc.get("Λ")
    if form_doc is None:
        raise SchemaError("lambda", "missing bilinear form")
    basis = None
    backend = doc.get("scalar")
    if "basis" in doc:
        basis = jsonio.basis_from_json(doc["basis"])
    elif isinstance(form_doc, dict) and "basis" in form_doc:
        basis = jsonio.basis_from_json(form_doc["basis"], "lambda.basis")
    elif isinstance(doc.get("a"), dict) and "basis" in doc["a"]:
        basis = jsonio.basis_from_json(doc["a"]["basis"], "a.basis")
    if basis is None:
        raise SchemaError("basis", "no basis found in the document")
    if backend is None:
        backend = (form_doc.get("scalar") if isinstance(form_doc, dict) else None) or "exact"
    form = jsonio.form_from_json(form_doc, basis, backend, "lambda")
    for key in ("a", "b"):
        if key not in doc:
            raise SchemaError(key, "missing operand")
    a = _element_arg(doc, "a", basis, backend)
    b = _element_arg(doc, "b", basis, backend)
    z = jsonio.scalar_from_json(doc.get("z", 1), backend, "z")
    result = star(a, b, z, form)
    _write_output(args, jsonio.dumps(jsonio.element_to_json(result)))
    return EXIT_OK


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    if args.trials < 1:
        raise SchemaError("--trials", "need at least one trial")
    R = jsonio.rational_from_json(args.R, "--R")
    zmag = jsonio.rational_from_json(args.zmag, "--zmag")
    kwargs = {}
    estimate_suite = args.suite in ("product-estimate", "bracket-estimate")
    if args.suite == "product-estimate":
        kwargs = {"R": R, "zmag": zmag}
    elif args.suite == "bracket-estimate":
        kwargs = {"R": R}
    if args.format == "csv":
        if not estimate_suite:
            raise SchemaError("--format", "csv output exists for estimate suites only")
        collected = []
        report = suite(args.seed, args.trials, collect=collected, **kwargs)
        _write_output(args, reports_to_csv(collected))
        return EXIT_OK if report["failures"] == 0 else EXIT_CHECK_FAILED
    report = suite(args.seed, args.trials, **kwargs)
    report["seed"] = args.seed
    _write_output(args, jsonio.dumps(report))
    return EXIT_OK if report["failures"] == 0 else EXIT_CHECK_FAILED


def cmd_kothe(args) -> int:
    R = jsonio.rational_from_json(args.R, "--R")
    eps = jsonio.rational_from_json(args.eps, "--eps")
    if eps <= 0 or args.n_max < 0:
        raise SchemaError("eps/n-max", "need eps > 0 and n-max >= 0")
    basis = GeneratorBasis(("x",), ("even",))
    un = WeightedSeminorm.unit(basis)
    K = kothe_matrix([(un, R - eps), (un, R)], None, args.n_max)
    if args.format == "csv":
        _write_output(args, K.to_csv())
        return EXIT_OK
    diag = nuclearity_diagnostic(K, mode=args.mode)
    payload = {
        "matrix": K.to_json(),
        "diagnostic": {
            "mode": diag["mode"],
            "results": [
                {
                    "pair": list(r["pair"]),
                    "alpha": r["alpha"],
                    "summable": r["summable"],
                    "final_partial": r["partials"][-1],
                }
                for r in diag["results"]
            ],
        },
    }
    _write_output(args, jsonio.dumps(payload))
    return EXIT_OK


def cmd_convergence(args) -> int:
    doc = _read_input(args)
    if not isinstance(doc, dict):
        raise SchemaError("$", "input must be a JSON object")
    series_doc = doc.get("series")
    if not isinstance(series_doc, dict):
        raise SchemaError("series", "missing series spec")
    grid = doc.get("R_grid")
    if not isinstance(grid, list) or not grid:
        raise SchemaError("R_grid", "must be a nonempty list")
    basis_doc = doc.get("basis") or [{"name": "q", "parity": "even"}]
    basis = jsonio.basis_from_json(basis_doc)
    gen = series_doc.get("generator", basis.names[0])
    if gen not in basis.names:
        raise SchemaError("series.generator", f"unknown generator {gen!r}")
    order = _number_field(int, series_doc.get("N", 40), "series.N")
    coeff = jsonio.scalar_from_json(series_doc.get("coeff", 1), "float", "series.coeff")
    v = Element.generator(basis, gen, "float").scale(coeff)
    kind = series_doc.get("kind", "exp")
    if kind == "exp":
        S = exp_element(v, order)
    elif kind == "f_eps":
        eps = _number_field(float, series_doc.get("eps", 1.0), "series.eps")
        S = f_epsilon_series(v, eps, order)
    else:
        raise SchemaError("series.kind", "must be 'exp' or 'f_eps'")
    p = jsonio.seminorm_from_json(doc.get("seminorm", {"weights": {}}), basis)

    rows = []
    verdicts = {}
    metadata = {}
    for R in grid:
        diag = convergence_diagnosis(S, p, _number_field(float, R, "R_grid"))
        verdicts[str(R)] = diag["verdict"]
        metadata[str(R)] = diag["metadata"]
        ratios = diag["ratios"]
        for n, (term, partial) in enumerate(zip(diag["terms"], diag["partials"])):
            rows.append(
                {
                    "R": R,
                    "n": n,
                    "term": term,
                    "partial": partial,
                    "ratio": ratios[n] if n < len(ratios) else "",
                    "verdict": diag["verdict"],
                }
            )
    if args.format == "json":
        _write_output(
            args,
            jsonio.dumps({"verdicts": verdicts, "metadata": metadata, "rows": rows}),
        )
    else:
        _write_output(args, _csv_text(rows, ["R", "n", "term", "partial", "ratio", "verdict"]))
    return EXIT_OK


def cmd_divergence(args) -> int:
    report = divergence_witness_standard_ordered(args.eps, args.hbar, args.L)
    rows = [
        {
            "l": ell,
            "term_magnitude": report["term_magnitudes"][ell],
            "partial_magnitude": report["partial_magnitudes"][ell],
        }
        for ell in range(len(report["term_magnitudes"]))
    ]
    if args.format == "json":
        payload = {
            "term_magnitudes": report["term_magnitudes"],
            "partial_magnitudes": report["partial_magnitudes"],
            "increasing_from": report["increasing_from"],
        }
        _write_output(args, jsonio.dumps(payload))
    else:
        _write_output(args, _csv_text(rows, ["l", "term_magnitude", "partial_magnitude"]))
    return EXIT_OK


def cmd_peierls(args) -> int:
    if args.T < 3 or args.N < 3:
        raise SchemaError("T/N", "lattice bounds leave no interior margin")
    m2 = jsonio.rational_from_json(args.m2, "--m2")
    digits = len(str(abs(m2.numerator))) + len(str(m2.denominator))
    if (args.T * args.N) ** 2 * digits > PEIERLS_MAX_DIGIT_WORK:
        raise RefusedPreconditionError(
            f"lattice windows are limited to (T*N)^2 * d <= {PEIERLS_MAX_DIGIT_WORK}, d the "
            f"digits of m2 ({PEIERLS_MAX_SITES} sites for a one-digit m2)"
        )
    st = LatticeSpacetime(args.T, args.N, m2)
    scale = jsonio.rational_from_json(args.scale, "--scale")
    if args.scenario == "locality":
        report = _peierls_locality(st, scale)
    elif args.scenario == "poisson-iso":
        report = _peierls_poisson_iso(st)
    elif args.scenario == "timeslice":
        report = _peierls_timeslice(st)
    else:
        report = _peierls_weyl_gram(st, scale)
    if args.format == "csv":
        _write_output(args, _peierls_csv(st, args.scenario, report))
    else:
        _write_output(args, jsonio.dumps(report))
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def _peierls_csv(st, scenario, report) -> str:
    if scenario == "locality":
        # cone pictures: propagated values of each source delta
        rows = ["source,t,x,value"]
        for k, (t0, x0) in enumerate(report["sources"]):
            g = st.propagator(LatticeSection.delta(t0, x0))
            for (t, x), v in sorted(g.values.items()):
                rows.append(f"{k},{t},{x},{v}")
        return "\n".join(rows) + "\n"
    if scenario == "weyl-gram":
        rows = ["i,j,value"]
        gram = report["gram"]
        for i, row in enumerate(gram):
            for j, v in enumerate(row):
                val = v if isinstance(v, str) else v.get("re", v)
                rows.append(f"{i},{j},{val}")
        return "\n".join(rows) + "\n"
    rows = ["key,value"]
    for key, val in report.items():
        if isinstance(val, (str, int, bool)):
            rows.append(f"{key},{val}")
    return "\n".join(rows) + "\n"


def _peierls_locality(st, scale):
    mid_t = st.T // 2
    x0 = 0
    x1 = st.N // 2
    sep = st.spatial_distance(x0, x1)
    if sep < 2:
        raise DomainError("window too small for spacelike-separated sources")
    d1 = LatticeSection.delta(mid_t, x0)
    d2 = LatticeSection.delta(mid_t + 1, x1)
    if not st.is_spacelike((mid_t, x0), (mid_t + 1, x1)):
        raise DomainError("chosen sources are not spacelike separated")
    form = st.covariant_weyl_generators([d1, d2], scale)
    gram_zero = all(
        not bool(form.matrix[i][j]) for i in range(2) for j in range(2)
    )
    return {
        "scenario": "locality",
        "sources": [[mid_t, x0], [mid_t + 1, x1]],
        "gram": jsonio.form_to_json(form)["matrix"],
        "ok": gram_zero,
    }


def _peierls_poisson_iso(st):
    t0 = (st.T - 1) // 2
    deltas = [LatticeSection.delta(t, x) for t, x in st.margin_sites()]
    pairs_checked = 0
    mismatches = 0
    rhos = [st.rho_sigma(d, t0) for d in deltas]
    props = [st.propagator(d) for d in deltas]
    for i, di in enumerate(deltas):
        for j, dj in enumerate(deltas):
            lhs = st.lambda_sigma(rhos[i], rhos[j])
            rhs = st.pairing(dj, props[i])
            pairs_checked += 1
            if lhs != rhs:
                mismatches += 1
    kernel = kernel_identification_report(st, t0)
    ok = mismatches == 0 and kernel["kernel_equals_image"]
    return {
        "scenario": "poisson-iso",
        "t0": t0,
        "delta_basis": len(deltas),
        "pairs_checked": pairs_checked,
        "mismatches": mismatches,
        "kernel": kernel,
        "ok": ok,
    }


def _peierls_timeslice(st):
    t0 = (st.T - 1) // 2
    probes = [
        LatticeSection.delta(1, 0),
        LatticeSection.delta(1, st.N // 2),
        LatticeSection.delta(st.T - 2, 1),
    ]
    tests = [LatticeSection.delta(t, x) for t, x in st.margin_sites()]
    bad = 0
    casimir_ok = True
    for phi in probes:
        psi = st.slab_representative(phi, t0)
        if not st.is_casimir(phi - psi):
            casimir_ok = False
        g_phi, g_psi = st.propagator(phi), st.propagator(psi)
        bad += sum(st.pairing(chi, g_phi) != st.pairing(chi, g_psi) for chi in tests)
    return {
        "scenario": "timeslice",
        "t0": t0,
        "probes": len(probes),
        "pairings_changed": bad,
        "difference_is_casimir": casimir_ok,
        "ok": bad == 0 and casimir_ok,
    }


def _peierls_weyl_gram(st, scale):
    mid_t = st.T // 2
    sections = [
        LatticeSection.delta(mid_t - 1, 0),
        LatticeSection.delta(mid_t, 1),
        LatticeSection.delta(mid_t + 1, st.N // 2),
    ]
    form = st.covariant_weyl_generators(sections, scale)
    anti = form.is_graded_antisymmetric()
    involution = check_star_involution(form, 1)
    return {
        "scenario": "weyl-gram",
        "gram": jsonio.form_to_json(form)["matrix"],
        "antisymmetric": anti,
        "involution_holds": involution["holds"],
        "ok": anti and involution["holds"],
    }


def _csv_text(rows, fieldnames) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


if __name__ == "__main__":
    sys.exit(main())
