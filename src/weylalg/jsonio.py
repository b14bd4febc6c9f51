"""JSON (de)serialization of elements, forms, seminorms and lattice data.

Exact scalars serialize as "num/den" strings; float scalars as JSON
numbers.  The element format:

    {"basis": [{"name": "q", "parity": "even"}, ...],
     "scalar": "exact",
     "terms": [{"even": {"q": 2}, "odd": ["e1"],
                "coeff": {"re": "1/2", "im": "0"}}]}

Bilinear forms carry the same basis header plus a matrix of scalar
literals; lattice sections serialize as sparse maps {"t,x": "num/den"}.
All emitters sort keys so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from . import scalars
from .basis import GeneratorBasis
from .bilinear_forms import BilinearForm
from .errors import DomainError, RefusedPreconditionError
from .graded_poly import Element, Monomial
from .peierls import LatticeSection
from .seminorm_calculus import WeightedSeminorm


# Caps on an exact literal, checked before Fraction sees it: parsing costs
# more than linear time in both, and a value of more than 4300 digits
# cannot be printed back.  The value itself must also lie within binary64,
# because the float backend and Koethe logs convert inputs to float.
RATIONAL_MAX_DIGITS = 1000
RATIONAL_MAX_EXPONENT = 1000
_FLOAT_MAX = Fraction(sys.float_info.max)


class SchemaError(DomainError):
    """Malformed input document; carries a path-qualified message."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def rational_from_json(value, path) -> Fraction:
    """An exact rational from a literal such as 2, "2/5", "0.25" or "1e-3"."""
    text = str(value)
    exponent = text.lower().partition("e")[2]
    try:
        small = (
            sum(map(str.isdigit, text)) <= RATIONAL_MAX_DIGITS
            and abs(int(exponent or 0)) <= RATIONAL_MAX_EXPONENT
        )
        q = Fraction(text) if small else None
    except (ValueError, ZeroDivisionError):
        raise SchemaError(path, f"not a rational number: {text[:40]!r}") from None
    if q is None or abs(q) > _FLOAT_MAX:
        raise SchemaError(
            path,
            f"rational literals are limited to {RATIONAL_MAX_DIGITS} digits, "
            f"exponents of magnitude {RATIONAL_MAX_EXPONENT} and the binary64 range",
        )
    return q


def _text(q: Fraction) -> str:
    """str(q) of an exact output value, refused past the int-str digit limit."""
    try:
        return str(q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise RefusedPreconditionError(f"an exact value passes {limit} digits") from None


def _expect(cond, path, message):
    if not cond:
        raise SchemaError(path, message)


def basis_to_json(basis: GeneratorBasis):
    return [
        {"name": n, "parity": "odd" if p else "even"}
        for n, p in zip(basis.names, basis.parities)
    ]


def basis_from_json(doc, path="basis"):
    _expect(isinstance(doc, list) and doc, path, "must be a nonempty list")
    names, parities = [], []
    for i, item in enumerate(doc):
        _expect(isinstance(item, dict), f"{path}[{i}]", "must be an object")
        _expect("name" in item, f"{path}[{i}]", "missing 'name'")
        _expect(item.get("parity") in ("even", "odd"), f"{path}[{i}].parity",
                "must be 'even' or 'odd'")
        names.append(item["name"])
        parities.append(item["parity"])
    try:
        return GeneratorBasis(names, parities)
    except DomainError as exc:
        raise SchemaError(path, str(exc)) from None


def scalar_to_json(c, backend):
    if backend == "exact":
        return {"re": _text(c.re), "im": _text(c.im)}
    return {"re": c.real, "im": c.imag}


def scalar_from_json(doc, backend, path="coeff"):
    if isinstance(doc, (int, float)):
        doc = {"re": doc, "im": 0}
    if isinstance(doc, str):
        doc = {"re": doc, "im": 0}
    _expect(isinstance(doc, dict), path, "must be a number, string or {re, im}")
    re = doc.get("re", 0)
    im = doc.get("im", 0)
    if backend == "exact":
        return scalars.QC(rational_from_json(re, path), rational_from_json(im, path))
    try:
        return complex(float(re), float(im))
    except (TypeError, ValueError):
        raise SchemaError(path, f"not a number: {re!r}/{im!r}") from None


def element_to_json(a: Element):
    terms = []
    for e in sorted(a.terms, key=lambda t: (sum(t), t)):
        mono = Monomial(a.basis, e)
        terms.append(
            {
                "even": mono.even_exponents,
                "odd": [a.basis.names[i] for i in mono.odd_indices],
                "coeff": scalar_to_json(a.terms[e], a.backend),
            }
        )
    return {"basis": basis_to_json(a.basis), "scalar": a.backend, "terms": terms}


def element_from_json(doc, basis=None, backend=None, path="element"):
    _expect(isinstance(doc, dict), path, "must be an object")
    if basis is None:
        _expect("basis" in doc, f"{path}.basis", "missing basis")
        basis = basis_from_json(doc["basis"], f"{path}.basis")
    if backend is None:
        backend = doc.get("scalar", "exact")
    _expect(backend in scalars.BACKENDS, f"{path}.scalar", "unknown backend")
    items = []
    terms = doc.get("terms", [])
    _expect(isinstance(terms, list), f"{path}.terms", "must be a list")
    for i, term in enumerate(terms):
        tpath = f"{path}.terms[{i}]"
        _expect(isinstance(term, dict), tpath, "must be an object")
        exps = [0] * basis.dimension
        for name, k in (term.get("even") or {}).items():
            _expect(name in basis.names, f"{tpath}.even", f"unknown generator {name!r}")
            idx = basis.index(name)
            _expect(basis.is_even(idx), f"{tpath}.even", f"{name!r} is odd")
            _expect(isinstance(k, int) and k > 0, f"{tpath}.even.{name}",
                    "exponent must be a positive integer")
            exps[idx] = k
        for name in term.get("odd") or []:
            _expect(name in basis.names, f"{tpath}.odd", f"unknown generator {name!r}")
            idx = basis.index(name)
            _expect(not basis.is_even(idx), f"{tpath}.odd", f"{name!r} is even")
            _expect(exps[idx] == 0, f"{tpath}.odd", f"{name!r} repeated")
            exps[idx] = 1
        coeff = scalar_from_json(term.get("coeff", 1), backend, f"{tpath}.coeff")
        items.append((exps, coeff))
    return Element.from_terms(basis, backend, items)


def form_to_json(form: BilinearForm):
    if form.backend == "exact":
        matrix = [
            [
                _text(c.re) if c.im == 0 else {"re": _text(c.re), "im": _text(c.im)}
                for c in row
            ]
            for row in form.matrix
        ]
    else:
        matrix = [[{"re": c.real, "im": c.imag} for c in row] for row in form.matrix]
    return {"basis": basis_to_json(form.basis), "scalar": form.backend, "matrix": matrix}


def form_from_json(doc, basis=None, backend=None, path="form"):
    _expect(isinstance(doc, dict), path, "must be an object")
    if basis is None:
        _expect("basis" in doc, f"{path}.basis", "missing basis")
        basis = basis_from_json(doc["basis"], f"{path}.basis")
    if backend is None:
        backend = doc.get("scalar", "exact")
    _expect("matrix" in doc, f"{path}.matrix", "missing matrix")
    matrix = doc["matrix"]
    d = basis.dimension
    _expect(
        isinstance(matrix, list) and len(matrix) == d,
        f"{path}.matrix",
        f"must be a {d}x{d} array",
    )
    rows = []
    for i, row in enumerate(matrix):
        _expect(
            isinstance(row, list) and len(row) == d,
            f"{path}.matrix[{i}]",
            f"must have {d} entries",
        )
        rows.append(
            [
                scalar_from_json(v, backend, f"{path}.matrix[{i}][{j}]")
                for j, v in enumerate(row)
            ]
        )
    return BilinearForm(basis, rows, backend)


def seminorm_from_json(doc, basis, path="seminorm"):
    _expect(isinstance(doc, dict), path, "must be an object")
    weights = doc.get("weights", doc)
    _expect(isinstance(weights, dict), f"{path}.weights", "must be an object")
    parsed = {k: rational_from_json(v, f"{path}.{k}") for k, v in weights.items()}
    try:
        return WeightedSeminorm(basis, parsed)
    except DomainError as exc:
        raise SchemaError(path, str(exc)) from None


def section_to_json(u: LatticeSection):
    return {
        f"{t},{x}": _text(v)
        for (t, x), v in sorted(u.values.items())
    }


def section_from_json(doc, path="section"):
    _expect(isinstance(doc, dict), path, "must be an object")
    vals = {}
    for key, v in doc.items():
        try:
            t, x = key.split(",")
            site = (int(t), int(x))
        except ValueError:
            raise SchemaError(f"{path}.{key}", "bad site") from None
        vals[site] = rational_from_json(v, f"{path}.{key}")
    return LatticeSection(vals)


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_fallback) + "\n"


def _fallback(x):
    if isinstance(x, Fraction):
        return _text(x)
    if isinstance(x, scalars.QC):
        return {"re": _text(x.re), "im": _text(x.im)}
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise TypeError(f"cannot serialize {type(x)!r}")
