"""JSON formats and the command-line front end (exit-code contract)."""

import json
import random
from fractions import Fraction

import pytest

from weylalg import Element, GeneratorBasis, LatticeSection, QC, star
from weylalg.bilinear_forms import BilinearForm
from weylalg.cli import main
from weylalg.jsonio import (
    SchemaError,
    dumps,
    element_from_json,
    element_to_json,
    form_from_json,
    form_to_json,
    section_from_json,
    section_to_json,
)
from weylalg.randoms import default_basis, random_element, random_even_form

B = default_basis()


def test_element_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        a = random_element(rng, B, max_degree=4, n_terms=4, complex_parts=True)
        doc = element_to_json(a)
        assert element_from_json(doc) == a
    f = random_element(rng, B, max_degree=3, n_terms=3, backend="float")
    assert element_from_json(element_to_json(f)) == f


def test_element_json_shape():
    q = Element.generator(B, "q")
    e1 = Element.generator(B, "e1")
    a = (q * q * e1).scale(QC(Fraction(1, 2)))
    doc = element_to_json(a)
    assert doc["scalar"] == "exact"
    assert doc["terms"] == [
        {"even": {"q": 2}, "odd": ["e1"], "coeff": {"re": "1/2", "im": "0"}}
    ]


def test_form_json_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        form = random_even_form(rng, B, complex_parts=True)
        assert form_from_json(form_to_json(form)) == form


def test_section_json_round_trip():
    u = LatticeSection({(1, 2): Fraction(1, 3), (4, 5): -2})
    assert section_from_json(section_to_json(u)) == u


def test_bad_documents_raise_schema_errors():
    with pytest.raises(SchemaError):
        element_from_json({"basis": [], "terms": []})
    with pytest.raises(SchemaError):
        element_from_json(
            {
                "basis": [{"name": "q", "parity": "even"}],
                "terms": [{"even": {"q": 1}, "coeff": {"re": "1/0"}}],
            }
        )
    with pytest.raises(SchemaError):
        element_from_json(
            {
                "basis": [{"name": "q", "parity": "even"}],
                "terms": [{"odd": ["q"], "coeff": 1}],
            }
        )


STAR_DOC = {
    "basis": [
        {"name": "q", "parity": "even"},
        {"name": "p", "parity": "even"},
    ],
    "scalar": "exact",
    "a": "p",
    "b": "q",
    "z": "1",
    "lambda": {"matrix": [["0", "0"], ["1", "0"]]},
}


def run_cli(args, stdin_text=None, capsys=None, monkeypatch=None, tmp_path=None):
    import io
    import sys

    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cmd_star(capsys, monkeypatch):
    code, out, err = run_cli(
        ["star"], json.dumps(STAR_DOC), capsys, monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [
        {"coeff": {"im": "0", "re": "1"}, "even": {}, "odd": []},
        {"coeff": {"im": "0", "re": "1"}, "even": {"p": 1, "q": 1}, "odd": []},
    ]
    # determinism: byte-identical across runs
    code2, out2, _ = run_cli(["star"], json.dumps(STAR_DOC), capsys, monkeypatch)
    assert out2 == out


def test_cmd_star_trivial_and_errors(capsys, monkeypatch):
    doc = dict(STAR_DOC, a="1")
    code, out, err = run_cli(["star"], json.dumps(doc), capsys, monkeypatch)
    assert code == 2  # "1" is not a generator name
    doc = dict(STAR_DOC)
    doc["a"] = {"terms": [{"even": {}, "coeff": 1}]}
    code, out, err = run_cli(["star"], json.dumps(doc), capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["terms"][0]["even"] == {"q": 1}
    # malformed coefficient -> exit 2
    doc = dict(STAR_DOC)
    doc["a"] = {"terms": [{"even": {"q": 1}, "coeff": {"re": "x/y"}}]}
    code, out, err = run_cli(["star"], json.dumps(doc), capsys, monkeypatch)
    assert code == 2
    # parity-block violation -> exit 3
    bad = {
        "basis": [
            {"name": "q", "parity": "even"},
            {"name": "e", "parity": "odd"},
        ],
        "a": "q",
        "b": "e",
        "z": "1",
        "lambda": {"matrix": [["0", "1"], ["0", "0"]]},
    }
    code, out, err = run_cli(["star"], json.dumps(bad), capsys, monkeypatch)
    assert code == 3


def test_cmd_verify(capsys, monkeypatch):
    code, out, err = run_cli(
        ["verify", "associativity", "--seed", "7", "--trials", "25"],
        None,
        capsys,
        monkeypatch,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] == 0 and rep["trials"] == 25
    # refused precondition: R < 1/2
    code, out, err = run_cli(
        ["verify", "product-estimate", "--R", "2/5", "--trials", "2"],
        None,
        capsys,
        monkeypatch,
    )
    assert code == 4
    # involution diagnostic mode: criterion failures are findings, exit 0
    code, out, err = run_cli(
        ["verify", "involution", "--trials", "6"], None, capsys, monkeypatch
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["criterion_failures"] > 0 and rep["failures"] == 0


def test_cmd_convergence(capsys, monkeypatch):
    doc = {
        "series": {"kind": "exp", "generator": "q", "N": 40},
        "R_grid": [0.5, 0.9, 1.0, 1.1],
        "seminorm": {"weights": {"q": 2}},
    }
    code, out, err = run_cli(
        ["convergence", "--format", "json"], json.dumps(doc), capsys, monkeypatch
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"]["0.5"] == "converging"
    assert rep["verdicts"]["0.9"] == "converging"
    assert rep["verdicts"]["1.0"] in ("diverging", "inconclusive")
    assert rep["verdicts"]["1.1"] == "diverging"
    # CSV has the documented columns
    code, out, err = run_cli(["convergence"], json.dumps(doc), capsys, monkeypatch)
    assert out.splitlines()[0] == "R,n,term,partial,ratio,verdict"
    # empty grid -> exit 2
    bad = dict(doc, R_grid=[])
    code, out, err = run_cli(["convergence"], json.dumps(bad), capsys, monkeypatch)
    assert code == 2


def test_cmd_divergence(capsys, monkeypatch):
    code, out, err = run_cli(
        ["divergence", "--eps", "0.25", "--L", "12"], None, capsys, monkeypatch
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l,term_magnitude,partial_magnitude"
    assert len(lines) == 14
    code, out, err = run_cli(
        ["divergence", "--eps", "0.7"], None, capsys, monkeypatch
    )
    assert code == 4


def test_cmd_kothe(capsys, monkeypatch):
    code, out, err = run_cli(
        ["kothe", "--n-max", "30", "--eps", "1/10"], None, capsys, monkeypatch
    )
    assert code == 0
    rep = json.loads(out)
    assert all(r["summable"] for r in rep["diagnostic"]["results"])
    code, out, err = run_cli(
        ["kothe", "--n-max", "4", "--format", "csv"], None, capsys, monkeypatch
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("degree,monomial")
    assert lines[-1].split(",")[-1] == "24"  # 4! at R = 1


def test_cmd_verify_csv(capsys, monkeypatch):
    code, out, err = run_cli(
        ["verify", "product-estimate", "--trials", "4", "--format", "csv"],
        None,
        capsys,
        monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,lhs,rhs,slack,holds"
    assert len(lines) == 5
    assert all(line.endswith(",1") for line in lines[1:])
    code, out, err = run_cli(
        ["verify", "associativity", "--format", "csv"], None, capsys, monkeypatch
    )
    assert code == 2


def test_cmd_peierls_csv(capsys, monkeypatch):
    code, out, err = run_cli(
        ["peierls", "locality", "--T", "8", "--N", "6", "--format", "csv"],
        None,
        capsys,
        monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "source,t,x,value"
    # cone bound: every listed cell lies in the causal cone of its source
    from weylalg import LatticeSpacetime

    st = LatticeSpacetime(8, 6, 0)
    sources = {}
    for line in lines[1:]:
        k, t, x, v = line.split(",")
        sources.setdefault(int(k), []).append((int(t), int(x)))
    assert set(sources) == {0, 1}
    code, out, err = run_cli(
        ["peierls", "weyl-gram", "--T", "8", "--N", "6", "--format", "csv"],
        None,
        capsys,
        monkeypatch,
    )
    assert code == 0
    assert out.splitlines()[0] == "i,j,value"


def test_cmd_peierls(capsys, monkeypatch):
    for scenario in ("locality", "timeslice", "weyl-gram"):
        code, out, err = run_cli(
            ["peierls", scenario, "--T", "8", "--N", "6"], None, capsys, monkeypatch
        )
        assert code == 0, (scenario, err)
        assert json.loads(out)["ok"]
    code, out, err = run_cli(
        ["peierls", "poisson-iso", "--T", "7", "--N", "5"], None, capsys, monkeypatch
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["mismatches"] == 0 and rep["kernel"]["kernel_equals_image"]
    code, out, err = run_cli(
        ["peierls", "locality", "--T", "2", "--N", "8"], None, capsys, monkeypatch
    )
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "product-estimate", "--R", "abc"],
        ["verify", "product-estimate", "--zmag", "x"],
        ["verify", "associativity", "--trials", "-5"],
        ["kothe", "--R", "x"],
        ["kothe", "--eps", "x"],
        ["peierls", "weyl-gram", "--m2", "x"],
        ["peierls", "weyl-gram", "--scale", "x"],
    ],
)
def test_malformed_flags_are_input_errors(args, capsys, monkeypatch):
    code, out, err = run_cli(args, None, capsys, monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1
