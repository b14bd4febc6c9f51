"""JSON formats and the command-line front end (exit-code contract)."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import weylalg
from weylalg import Element, LatticeSection, QC, star, suites
from weylalg.cli import PEIERLS_MAX_DIGIT_WORK, PEIERLS_MAX_SITES, main
from weylalg.jsonio import (
    RATIONAL_MAX_DIGITS,
    RATIONAL_MAX_EXPONENT,
    SchemaError,
    element_from_json,
    element_to_json,
    form_from_json,
    form_to_json,
    scalar_from_json,
    section_from_json,
    section_to_json,
    seminorm_from_json,
)
from weylalg.randoms import default_basis, random_element, random_even_form
from weylalg.seminorm_calculus import (
    ESTIMATE_MAX_R_DENOMINATOR,
    ESTIMATE_MAX_R_NUMERATOR,
    EXACT_ESTIMATE_MAX_R,
)

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


def test_long_element_documents_parse_in_linear_time():
    # parsing time is linear in the number of terms
    terms = {}
    for i in range(20000):
        e = [0] * B.dimension
        e[B.index("q")], e[B.index("p")] = i % 200 + 1, i // 200 + 1
        terms[tuple(e)] = QC(Fraction(i + 1, 7))
    a = Element(B, "exact", terms)
    doc = element_to_json(a)
    start = time.perf_counter()
    b = element_from_json(doc)
    assert time.perf_counter() - start < 2.0
    assert b == a


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


# sha256 of stdout + b"|" + exit code of every peierls scenario, in both
# formats, with m2 0, 1/3 and 5/2, on 12x8, 16x12 and 9x5 windows.  A
# change to the lattice code leaves these bytes as they are.
PEIERLS_DIGESTS = {
    "locality --T 12 --N 8 --m2 0 --format json":
        "fa57b01fe7ccfcc3fa16f795c1300c5b4f6539768fbc3200d9ffad958c6efcc0",
    "locality --T 12 --N 8 --m2 1/3 --format json":
        "fa57b01fe7ccfcc3fa16f795c1300c5b4f6539768fbc3200d9ffad958c6efcc0",
    "locality --T 12 --N 8 --m2 5/2 --format json":
        "fa57b01fe7ccfcc3fa16f795c1300c5b4f6539768fbc3200d9ffad958c6efcc0",
    "locality --T 12 --N 8 --m2 0 --format csv":
        "2f39d7af371be8be686557fab638133ceb810771023a072c79404eb69d8bd631",
    "locality --T 12 --N 8 --m2 1/3 --format csv":
        "c9a474ed3eba0b88d2652db2dba449dcb3eafcd1152c06043128f2c3c6b5e4a7",
    "locality --T 12 --N 8 --m2 5/2 --format csv":
        "9b4e84ec2c0765be7625b417551f99a0a0d1b40b3efb6ba3d64db59f75aae7a3",
    "poisson-iso --T 12 --N 8 --m2 0 --format json":
        "2cc3902a9dfcab419e2edf8d640f7e9bdead3e7e6c0ab86dff523e6ab21004dc",
    "poisson-iso --T 12 --N 8 --m2 1/3 --format json":
        "2cc3902a9dfcab419e2edf8d640f7e9bdead3e7e6c0ab86dff523e6ab21004dc",
    "poisson-iso --T 12 --N 8 --m2 5/2 --format json":
        "2cc3902a9dfcab419e2edf8d640f7e9bdead3e7e6c0ab86dff523e6ab21004dc",
    "poisson-iso --T 12 --N 8 --m2 0 --format csv":
        "100b41456d90cc6b79346b02c1654f7bec673d550ff2320df0aa6dd8227450db",
    "poisson-iso --T 12 --N 8 --m2 1/3 --format csv":
        "100b41456d90cc6b79346b02c1654f7bec673d550ff2320df0aa6dd8227450db",
    "poisson-iso --T 12 --N 8 --m2 5/2 --format csv":
        "100b41456d90cc6b79346b02c1654f7bec673d550ff2320df0aa6dd8227450db",
    "timeslice --T 12 --N 8 --m2 0 --format json":
        "c0545b2b5fa8ff4d71fa8f10232ca663815a91d4e6adde5be4de8df1d9635083",
    "timeslice --T 12 --N 8 --m2 1/3 --format json":
        "c0545b2b5fa8ff4d71fa8f10232ca663815a91d4e6adde5be4de8df1d9635083",
    "timeslice --T 12 --N 8 --m2 5/2 --format json":
        "c0545b2b5fa8ff4d71fa8f10232ca663815a91d4e6adde5be4de8df1d9635083",
    "timeslice --T 12 --N 8 --m2 0 --format csv":
        "5424ea592072a86adb9b05d7a57e5d8679072fe9a697bd07f9c01e2c69f7c089",
    "timeslice --T 12 --N 8 --m2 1/3 --format csv":
        "5424ea592072a86adb9b05d7a57e5d8679072fe9a697bd07f9c01e2c69f7c089",
    "timeslice --T 12 --N 8 --m2 5/2 --format csv":
        "5424ea592072a86adb9b05d7a57e5d8679072fe9a697bd07f9c01e2c69f7c089",
    "weyl-gram --T 12 --N 8 --m2 0 --format json":
        "b5d6c5db0758f17575b283ef87502d4e89b9454ada8d98ecc287fd5e8cf316a5",
    "weyl-gram --T 12 --N 8 --m2 1/3 --format json":
        "b5d6c5db0758f17575b283ef87502d4e89b9454ada8d98ecc287fd5e8cf316a5",
    "weyl-gram --T 12 --N 8 --m2 5/2 --format json":
        "b5d6c5db0758f17575b283ef87502d4e89b9454ada8d98ecc287fd5e8cf316a5",
    "weyl-gram --T 12 --N 8 --m2 0 --format csv":
        "e4e433e6ae6b114ba205c6cc65390a3d160ed5cf18ac6efec14215a2b18e4530",
    "weyl-gram --T 12 --N 8 --m2 1/3 --format csv":
        "e4e433e6ae6b114ba205c6cc65390a3d160ed5cf18ac6efec14215a2b18e4530",
    "weyl-gram --T 12 --N 8 --m2 5/2 --format csv":
        "e4e433e6ae6b114ba205c6cc65390a3d160ed5cf18ac6efec14215a2b18e4530",
    "locality --T 16 --N 12 --m2 0 --format json":
        "be0ba9ec94f923ef6839a82925dd5e2fd1738396618043ba475d863e82ebb413",
    "locality --T 16 --N 12 --m2 1/3 --format json":
        "be0ba9ec94f923ef6839a82925dd5e2fd1738396618043ba475d863e82ebb413",
    "locality --T 16 --N 12 --m2 5/2 --format json":
        "be0ba9ec94f923ef6839a82925dd5e2fd1738396618043ba475d863e82ebb413",
    "locality --T 16 --N 12 --m2 0 --format csv":
        "f10892a5e059111d8c6cf6c7addaea81ac38b90ec9e8b79938fe2cde1f10e601",
    "locality --T 16 --N 12 --m2 1/3 --format csv":
        "33a4d019425ceb6dcb93f7cae3a4764079433ac33d57a9e43dc9f786f66b5f37",
    "locality --T 16 --N 12 --m2 5/2 --format csv":
        "e12a127da51bb797e47fa005e08c4d7bc95cabd25067331c6428ac907c8845ba",
    "poisson-iso --T 16 --N 12 --m2 0 --format json":
        "1b532eaea3516d840a25ea7c60c28ee77cfcf13bc6e21d4c36bbaa4dd1e08138",
    "poisson-iso --T 16 --N 12 --m2 1/3 --format json":
        "1b532eaea3516d840a25ea7c60c28ee77cfcf13bc6e21d4c36bbaa4dd1e08138",
    "poisson-iso --T 16 --N 12 --m2 5/2 --format json":
        "1b532eaea3516d840a25ea7c60c28ee77cfcf13bc6e21d4c36bbaa4dd1e08138",
    "poisson-iso --T 16 --N 12 --m2 0 --format csv":
        "f8ac504b081354266d70458a5d87a6731a2152ad5fc84a50c4948a79ede9d55a",
    "poisson-iso --T 16 --N 12 --m2 1/3 --format csv":
        "f8ac504b081354266d70458a5d87a6731a2152ad5fc84a50c4948a79ede9d55a",
    "poisson-iso --T 16 --N 12 --m2 5/2 --format csv":
        "f8ac504b081354266d70458a5d87a6731a2152ad5fc84a50c4948a79ede9d55a",
    "timeslice --T 16 --N 12 --m2 0 --format json":
        "e6cec166ee3b9617515a801a8cc2ed2da68d430c1d5de14795c9f252632ce1a9",
    "timeslice --T 16 --N 12 --m2 1/3 --format json":
        "e6cec166ee3b9617515a801a8cc2ed2da68d430c1d5de14795c9f252632ce1a9",
    "timeslice --T 16 --N 12 --m2 5/2 --format json":
        "e6cec166ee3b9617515a801a8cc2ed2da68d430c1d5de14795c9f252632ce1a9",
    "timeslice --T 16 --N 12 --m2 0 --format csv":
        "31f88222df4ba08414328772fa7417374b081254f42cc613244642341bf25724",
    "timeslice --T 16 --N 12 --m2 1/3 --format csv":
        "31f88222df4ba08414328772fa7417374b081254f42cc613244642341bf25724",
    "timeslice --T 16 --N 12 --m2 5/2 --format csv":
        "31f88222df4ba08414328772fa7417374b081254f42cc613244642341bf25724",
    "weyl-gram --T 16 --N 12 --m2 0 --format json":
        "b5d6c5db0758f17575b283ef87502d4e89b9454ada8d98ecc287fd5e8cf316a5",
    "weyl-gram --T 16 --N 12 --m2 1/3 --format json":
        "b5d6c5db0758f17575b283ef87502d4e89b9454ada8d98ecc287fd5e8cf316a5",
    "weyl-gram --T 16 --N 12 --m2 5/2 --format json":
        "b5d6c5db0758f17575b283ef87502d4e89b9454ada8d98ecc287fd5e8cf316a5",
    "weyl-gram --T 16 --N 12 --m2 0 --format csv":
        "e4e433e6ae6b114ba205c6cc65390a3d160ed5cf18ac6efec14215a2b18e4530",
    "weyl-gram --T 16 --N 12 --m2 1/3 --format csv":
        "e4e433e6ae6b114ba205c6cc65390a3d160ed5cf18ac6efec14215a2b18e4530",
    "weyl-gram --T 16 --N 12 --m2 5/2 --format csv":
        "e4e433e6ae6b114ba205c6cc65390a3d160ed5cf18ac6efec14215a2b18e4530",
    "locality --T 9 --N 5 --m2 0 --format json":
        "bd4596b6f8c240f5ee7b53c430150fdb71f44b014c828719f65371f0e410b54b",
    "locality --T 9 --N 5 --m2 1/3 --format json":
        "bd4596b6f8c240f5ee7b53c430150fdb71f44b014c828719f65371f0e410b54b",
    "locality --T 9 --N 5 --m2 5/2 --format json":
        "bd4596b6f8c240f5ee7b53c430150fdb71f44b014c828719f65371f0e410b54b",
    "locality --T 9 --N 5 --m2 0 --format csv":
        "e6222cbdbe052459fdf80047dc6a415139b98c96fc168626dad77c5de846bbe6",
    "locality --T 9 --N 5 --m2 1/3 --format csv":
        "673ccb1a9d484b378001465d6c5f3f2ef13b13152c4445f1e3261a395cf1f27f",
    "locality --T 9 --N 5 --m2 5/2 --format csv":
        "7ca6c3cd963e26e3b085694d63dd88a953265b4353b79c0e4259e8fd836ac5b3",
    "poisson-iso --T 9 --N 5 --m2 0 --format json":
        "ec2ed01d444738ab36bc8f0e4d98475f91dde1c3db615038a8d54c89687cf110",
    "poisson-iso --T 9 --N 5 --m2 1/3 --format json":
        "ec2ed01d444738ab36bc8f0e4d98475f91dde1c3db615038a8d54c89687cf110",
    "poisson-iso --T 9 --N 5 --m2 5/2 --format json":
        "ec2ed01d444738ab36bc8f0e4d98475f91dde1c3db615038a8d54c89687cf110",
    "poisson-iso --T 9 --N 5 --m2 0 --format csv":
        "f0c1d611163c44d49c521e41b7c7be09032e2e07bb5595dcf07b2788a9daae8d",
    "poisson-iso --T 9 --N 5 --m2 1/3 --format csv":
        "f0c1d611163c44d49c521e41b7c7be09032e2e07bb5595dcf07b2788a9daae8d",
    "poisson-iso --T 9 --N 5 --m2 5/2 --format csv":
        "f0c1d611163c44d49c521e41b7c7be09032e2e07bb5595dcf07b2788a9daae8d",
    "timeslice --T 9 --N 5 --m2 0 --format json":
        "cf1918e7f9715cf12b8db422deaf4f9618df8f4c8837cd58f3eca6ed16a0caf1",
    "timeslice --T 9 --N 5 --m2 1/3 --format json":
        "cf1918e7f9715cf12b8db422deaf4f9618df8f4c8837cd58f3eca6ed16a0caf1",
    "timeslice --T 9 --N 5 --m2 5/2 --format json":
        "cf1918e7f9715cf12b8db422deaf4f9618df8f4c8837cd58f3eca6ed16a0caf1",
    "timeslice --T 9 --N 5 --m2 0 --format csv":
        "01356e66433ec10f9c5d16c23ad86126516aaed796f2a101b2160518db194560",
    "timeslice --T 9 --N 5 --m2 1/3 --format csv":
        "01356e66433ec10f9c5d16c23ad86126516aaed796f2a101b2160518db194560",
    "timeslice --T 9 --N 5 --m2 5/2 --format csv":
        "01356e66433ec10f9c5d16c23ad86126516aaed796f2a101b2160518db194560",
    "weyl-gram --T 9 --N 5 --m2 0 --format json":
        "b5d6c5db0758f17575b283ef87502d4e89b9454ada8d98ecc287fd5e8cf316a5",
    "weyl-gram --T 9 --N 5 --m2 1/3 --format json":
        "b5d6c5db0758f17575b283ef87502d4e89b9454ada8d98ecc287fd5e8cf316a5",
    "weyl-gram --T 9 --N 5 --m2 5/2 --format json":
        "b5d6c5db0758f17575b283ef87502d4e89b9454ada8d98ecc287fd5e8cf316a5",
    "weyl-gram --T 9 --N 5 --m2 0 --format csv":
        "e4e433e6ae6b114ba205c6cc65390a3d160ed5cf18ac6efec14215a2b18e4530",
    "weyl-gram --T 9 --N 5 --m2 1/3 --format csv":
        "e4e433e6ae6b114ba205c6cc65390a3d160ed5cf18ac6efec14215a2b18e4530",
    "weyl-gram --T 9 --N 5 --m2 5/2 --format csv":
        "e4e433e6ae6b114ba205c6cc65390a3d160ed5cf18ac6efec14215a2b18e4530",
}


def _peierls_digest(cmd, capsys):
    code = main(["peierls", *cmd.split()])
    return hashlib.sha256(capsys.readouterr().out.encode() + b"|%d" % code).hexdigest()


def test_peierls_outputs_are_byte_stable(capsys):
    for cmd, digest in PEIERLS_DIGESTS.items():
        assert _peierls_digest(cmd, capsys) == digest, cmd


STAR_COMPLEX_DOC = {
    "basis": [
        {"name": "q", "parity": "even"},
        {"name": "p", "parity": "even"},
        {"name": "e", "parity": "odd"},
        {"name": "f", "parity": "odd"},
    ],
    "a": {
        "terms": [
            {"even": {"q": 2}, "odd": ["e"], "coeff": {"re": "1/2", "im": "-3"}},
            {"even": {"p": 1}, "coeff": "2"},
            {"odd": ["e", "f"], "coeff": {"re": "0", "im": "5/7"}},
        ]
    },
    "b": {
        "terms": [
            {"even": {"p": 2}, "odd": ["f"], "coeff": {"re": "0", "im": "1"}},
            {"even": {"q": 1, "p": 1}, "coeff": "-1/3"},
        ]
    },
    "z": {"re": "1/2", "im": "1/3"},
    "lambda": {
        "matrix": [
            ["0", "1", "0", "0"],
            ["-1/2", "0", "0", "0"],
            ["0", "0", "0", {"re": "1", "im": "2"}],
            ["0", "0", "1/3", "0"],
        ]
    },
}

STAR_FLOAT_DOC = dict(
    STAR_DOC,
    scalar="float",
    a={"terms": [{"even": {"p": 3}, "coeff": "0.1"}, {"even": {"q": 1}, "coeff": "-2.5"}]},
    b={"terms": [{"even": {"q": 3}, "coeff": {"re": "0.3", "im": "1.7"}}]},
    z={"re": "0.25", "im": "-1.5"},
)

CONV_EXP_DOC = {
    "series": {"kind": "exp", "generator": "q", "N": 24, "coeff": "0.5"},
    "R_grid": [0.5, 1.0, 1.25],
    "seminorm": {"weights": {"q": 2}},
}

# an even-odd form entry: a domain error, exit 3
PARITY_BLOCK_DOC = {
    "basis": [{"name": "q", "parity": "even"}, {"name": "e", "parity": "odd"}],
    "a": "q",
    "b": "e",
    "lambda": {"matrix": [["0", "1"], ["0", "0"]]},
}

CONV_FEPS_DOC = {"series": {"kind": "f_eps", "N": 30, "eps": 0.25}, "R_grid": [0.1, 0.5]}

# sha256 of stdout + b"|" + stderr + b"|" + exit code of the other
# subcommands, in every format they have, and of one failure per exit code
# 2-4 (exit 1 is test_check_failure_output_is_byte_stable), recorded before
# the series products moved onto packed numerator chains; the three CSV rows
# at R = 3/2 and 101/2 were recorded when the estimates checked every R as
# rational enclosures.
CLI_DIGESTS = [
    (["star"], STAR_DOC,
     "692922bc6f2afdb553cfa72d8065695674977d9cb7c2d474bddcbd0de45e81ec"),
    (["star"], STAR_COMPLEX_DOC,
     "dc6fdb61c4c060f5c446c98129b74035018c74384dfac28017fa7711af46e016"),
    (["star"], STAR_FLOAT_DOC,
     "d0ebd1ad81ce1d37306151d0000bc16aa33332b808794bf0d3454a2a4f463796"),
    (["verify", "associativity", "--seed", "3", "--trials", "3"], None,
     "e447fd8b63603e520ebb6fff8bac0830139cdc9d655fc544beb5c453c1e4ea68"),
    (["verify", "equivalence", "--seed", "3", "--trials", "3"], None,
     "2ea86b2291343b7c38b3c9e9dacd94713cacbb6e87a97a7551b4df91639b0112"),
    (["verify", "involution", "--seed", "3", "--trials", "3"], None,
     "12e6ce3c992e1f34974e200a95893499406657ffdb6cc58d567ebb9be5c8866a"),
    (["verify", "product-estimate", "--seed", "3", "--trials", "3", "--zmag", "1/3"], None,
     "bca2de2b773891ccf1bfeb24290c50b6ba686c7c96543d7037af3aafed617782"),
    (["verify", "product-estimate", "--trials", "3", "--R", "2", "--format", "csv"], None,
     "f773a04ba5f681e766a662f9456e7fcab8185ee371e6c122d30bd0bcef43a4d7"),
    (["verify", "product-estimate", "--R", "3/2", "--trials", "3", "--format", "csv"], None,
     "c70259b2d6b2624d7c18b600764467a87e8b9f263ca287565e6bce4f3bdc67ca"),
    (["verify", "product-estimate", "--R", "1/2", "--zmag", "3", "--trials", "3"], None,
     "5cd188da833d1e109b805d886078ef75c8cea71c514889a35630c9a94a0cae5f"),
    (["verify", "bracket-estimate", "--seed", "3", "--trials", "3"], None,
     "f2dc58e64526e3843b8729a1e367ba63e5e7026c3ca8e22c3ef44e93fb8ba762"),
    (["verify", "bracket-estimate", "--trials", "3", "--R", "3/2", "--format", "csv"], None,
     "ca9bae45dc826722d09fe2cbc1b25d9e577ef631f7f617bf273350398d7dfc7a"),
    # row 11 has lhs 0 and slack inf: a zero side is in binary64's range
    (["verify", "bracket-estimate", "--R", "101/2", "--trials", "12", "--format", "csv"], None,
     "3cc40557607f0919f3ec86d7ab09311247d2ff59c6c7825a8451f3acbeb051bd"),
    (["kothe", "--n-max", "12"], None,
     "381eafc7539c91a0d5838899b6d048b45ab7da95667584abfc1ee8623d17b6a3"),
    (["kothe", "--n-max", "12", "--mode", "nuclear", "--R", "3/2", "--eps", "1/4"], None,
     "36e94517caa88d60ee2b919ac558d5e9be95ccf7271d9e262e835df99da602a2"),
    (["kothe", "--n-max", "6", "--format", "csv"], None,
     "01190563215b4a1c26bb1c634c5ccd6fcf7c290038a48858c4073b49bea189ca"),
    (["divergence", "--eps", "0.25", "--L", "12"], None,
     "c7948329e96a184bebe9145c7e377b8950e4c8879e606e125357c894764e36b5"),
    (["divergence", "--eps", "0.3", "--hbar", "0.5", "--L", "10", "--format", "json"], None,
     "e1d0d4995bef1d0fe8fa8a2dd59af55f99c0ff92f90095c7b730bb4c1be9b70a"),
    (["convergence"], CONV_EXP_DOC,
     "06fe0b2cd255c26ca1524dad827e7c0a6a02bc265fa126c20ac3f34976f609c0"),
    (["convergence", "--format", "json"], CONV_EXP_DOC,
     "bebbe304efec8ea6bc068471040a3db89815d40934bfa0a9803f2ae09cda27ac"),
    (["convergence"], CONV_FEPS_DOC,
     "ae486783bf183a0b681dfc881f1ee2247c62a3eef335cccd42ea3a31aeea17ca"),
    (["convergence", "--format", "json"], CONV_FEPS_DOC,
     "9903cc77691aaa31ff958e106590ca75f2cff962e56ac2602b6177546107254a"),
    (["verify", "associativity", "--format", "csv"], None,
     "18c19d2365242be0dcdfda114531f61c545b5410d99579c4daa85408c9600a66"),
    (["star"], PARITY_BLOCK_DOC,
     "f322504da9465570e872257a74a0c412b0899e0ce449f141495e4e441444b73d"),
    (["divergence", "--eps", "0.7"], None,
     "3589bf0699535b2a718b43a2d0170f994028d0b17c61ec49a87956cf3946db06"),
]


def _cli_digest(argv, doc, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main(argv)
    out = capsys.readouterr()
    return hashlib.sha256(f"{out.out}|{out.err}|{code}".encode()).hexdigest()


def test_cli_outputs_are_byte_stable(capsys, monkeypatch):
    for argv, doc, digest in CLI_DIGESTS:
        assert _cli_digest(argv, doc, monkeypatch, capsys) == digest, argv


def test_check_failure_output_is_byte_stable(capsys, monkeypatch):
    # no valid input makes a check fail, so the suite gets a product that is
    # not associative: (ab + 1)c + 1 differs from a(bc + 1) + 1
    def skewed(a, b, z, form):
        return star(a, b, z, form) + Element.one(a.basis)

    monkeypatch.setattr(suites, "star", skewed)
    argv = ["verify", "associativity", "--trials", "3"]
    assert _cli_digest(argv, None, monkeypatch, capsys) == "793c09276ce58eb6467ff55281bae317bbd64bed2cf5f7c6c0afc29d4fbe573d"


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
        ["kothe", "--eps", "1e-3000000", "--n-max", "2"],
        ["peierls", "weyl-gram", "--scale", "1" * (RATIONAL_MAX_DIGITS + 1)],
        ["kothe", "--R", "1e400"],
        ["verify", "product-estimate", "--zmag", "1e400", "--format", "csv"],
    ],
)
def test_malformed_flags_are_input_errors(args, capsys, monkeypatch):
    code, out, err = run_cli(args, None, capsys, monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_rational_literals_are_capped():
    half = "1" * (RATIONAL_MAX_DIGITS // 2)
    at_cap = [f"{half}/{half}", f"1e-{RATIONAL_MAX_EXPONENT}", "1e308"]
    over = [
        "1" * (RATIONAL_MAX_DIGITS + 1),
        f"1e{RATIONAL_MAX_EXPONENT + 1}",
        "1e-3000000",
        "-1e309",
        str(2 * int(sys.float_info.max)),
    ]
    for text in at_cap:
        assert scalar_from_json(text, "exact").re == Fraction(text)
        assert section_from_json({"1,2": text}) == LatticeSection({(1, 2): Fraction(text)})
    for text in over:
        with pytest.raises(SchemaError):
            scalar_from_json({"re": "1", "im": text}, "exact")
        with pytest.raises(SchemaError):
            seminorm_from_json({"weights": {"q": text}}, B)
        with pytest.raises(SchemaError):
            section_from_json({"1,2": text})


@pytest.mark.parametrize(
    "args, text",
    [
        (["star"], json.dumps(dict(STAR_DOC, z="1e-3000000"))),
        (["convergence"], '{"series": {"kind": "exp"}, "R_grid": [' + "1" * 5000 + "]}"),
        (["convergence"], '{"series": '),
        (["convergence"], '{"series": {"kind": "exp"}, "R_grid": [' + "1" * 400 + "]}"),
        (["convergence"], '{"series": {"kind": "exp"}, "R_grid": ["abc"]}'),
        (["convergence"], '{"series": {"kind": "exp", "N": "x"}, "R_grid": [1]}'),
        (["convergence"], '{"series": {"kind": "f_eps", "eps": null}, "R_grid": [1]}'),
    ],
    ids=[
        "oversized-literal",
        "integer-past-int-str-limit",
        "truncated",
        "R-beyond-binary64",
        "R-not-a-number",
        "N-not-a-number",
        "eps-null",
    ],
)
def test_oversized_or_broken_json_is_an_input_error(args, text, capsys, monkeypatch):
    code, out, err = run_cli(args, text, capsys, monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_float_overflow_uses_log_space(capsys, monkeypatch):
    # 1/170! is the last normal exp coefficient: n!^R * p^n(exp(q)_n) = 1 throughout
    doc = {"series": {"kind": "exp", "N": 170}, "R_grid": [1]}
    code, out, err = run_cli(["convergence", "--format", "json"], json.dumps(doc), capsys, monkeypatch)
    assert code == 0 and err == ""
    terms = [row["term"] for row in json.loads(out)["rows"]]
    assert len(terms) == 171 and terms == pytest.approx([1.0] * 171, rel=1e-9)
    # n!^R alone leaves binary64 at n = 171; the f_eps coefficients n!^-eps
    # stay normal, and n!^R * n!^-eps = n!^(1/2) is taken in log space
    doc = {"series": {"kind": "f_eps", "N": 200, "eps": 0.5}, "R_grid": [1]}
    code, out, err = run_cli(["convergence", "--format", "json"], json.dumps(doc), capsys, monkeypatch)
    assert code == 0 and err == ""
    terms = [row["term"] for row in json.loads(out)["rows"]]
    expected = [math.exp(0.5 * math.lgamma(n + 1)) for n in range(201)]
    assert terms == pytest.approx(expected, rel=1e-9)
    # the largest L whose star products stay inside binary64 at eps = 1/4
    code, out, err = run_cli(["divergence", "--eps", "0.25", "--L", "123"], None, capsys, monkeypatch)
    assert code == 0 and err == ""
    last = float(out.splitlines()[-1].split(",")[1])
    assert last == pytest.approx(math.exp(0.5 * math.lgamma(124)), rel=1e-9)


@pytest.mark.parametrize(
    "args, doc",
    [
        (["convergence"], {"series": {"kind": "exp", "N": 171}, "R_grid": [1]}),
        (["convergence"], {"series": {"kind": "exp", "N": 200}, "R_grid": [1]}),
        (["convergence"], {"series": {"kind": "exp", "coeff": 1e-200}, "R_grid": [1]}),
        (["convergence"], {"series": {"kind": "f_eps", "N": 400, "eps": 0.5}, "R_grid": [1]}),
        (["convergence"], {"series": {"kind": "f_eps", "N": 200, "eps": 0.5}, "R_grid": [2]}),
        (
            ["convergence"],
            {"series": {"kind": "f_eps", "N": 1100, "eps": 0.1}, "R_grid": [0.05],
             "seminorm": {"weights": {"q": 2}}},
        ),
        (["divergence", "--eps", "0.25", "--L", "200"], None),
        (["divergence", "--eps", "0.25", "--hbar", "1e10", "--L", "40"], None),
        (["kothe", "--n-max", "200", "--format", "csv"], None),
        (["kothe", "--eps", "1", "--n-max", "1600", "--format", "csv"], None),
        (["kothe", "--eps", "1", "--n-max", "1600"], None),
        # p^5 * q^5 at z = 10^-1000: the denominators of z^k pass 4300 digits
        (
            ["star"],
            dict(STAR_DOC, a={"terms": [{"even": {"p": 5}}]}, b={"terms": [{"even": {"q": 5}}]},
                 z="1e-1000"),
        ),
        # R = 2049/2 passes EXACT_ESTIMATE_MAX_R and ESTIMATE_MAX_R_NUMERATOR
        (["verify", "product-estimate", "--R", "2049/2"], None),
        (["verify", "bracket-estimate", "--R", "2049/2"], None),
    ],
    ids=[
        "exp-coefficient-subnormal",
        "exp-coefficient-zero",
        "exp-power-underflows",
        "f_eps-coefficient-subnormal",
        "f_eps-term-beyond-binary64",
        "weight-power-beyond-binary64",
        "divergence-L200",
        "divergence-hbar1e10",
        "kothe-entry-beyond-binary64",
        "kothe-exact-entry-past-int-str-limit-csv",
        "kothe-exact-entry-past-int-str-limit-json",
        "star-coefficient-past-int-str-limit",
        "product-estimate-2^R-past-binary64",
        "bracket-estimate-2^(R+1)-past-binary64",
    ],
)
def test_values_beyond_binary64_are_refused(args, doc, capsys, monkeypatch):
    code, out, err = run_cli(args, json.dumps(doc) if doc else None, capsys, monkeypatch)
    assert code == 4 and out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "suite, flags",
    [
        ("product-estimate", ["--R", "509/2", "--trials", "5"]),
        ("bracket-estimate", ["--R", "507/2", "--trials", "5"]),
        ("product-estimate", ["--R", "3/2", "--zmag", "1e200", "--trials", "2"]),
    ],
    ids=["product-estimate-weight-past-binary64", "bracket-estimate-weight-past-binary64",
         "product-estimate-c-prime-past-binary64"],
)
def test_estimates_beyond_binary64_answer(suite, flags, capsys, monkeypatch):
    # their sides pass binary64, which the float path refused; the
    # enclosures decide every trial
    code, out, err = run_cli(["verify", suite, *flags], None, capsys, monkeypatch)
    assert code == 0 and err == ""
    assert json.loads(out) == {"suite": suite, "trials": int(flags[-1]), "failures": 0, "seed": 0}


def test_estimate_csv_answers_with_a_float_and_an_exact_side(capsys, monkeypatch):
    # at R = 161/2 an lhs within binary64 meets an rhs beyond it: the lhs
    # prints as a float, the rhs and the slack, an exact quotient, to 17 digits
    R = Fraction(161, 2)
    args = ["verify", "product-estimate", "--R", "161/2", "--trials", "20", "--format", "csv"]
    code, out, err = run_cli(args, None, capsys, monkeypatch)
    assert code == 0 and err == ""
    header, *rows = out.splitlines()
    reports = []
    suites.SUITES["product-estimate"](0, 20, collect=reports, R=R)
    assert header == "index,lhs,rhs,slack,holds" and len(rows) == len(reports) == 20
    wide = 0
    for k, (row, rep) in enumerate(zip(rows, reports)):
        index, lhs, rhs, slack, holds = row.split(",")
        assert (index, holds) == (str(k), "1") and rep.holds
        assert float(lhs) == float(rep.lhs)
        if "e+" in rhs and int(rhs.split("e+")[1]) > 308:
            wide += 1
            assert abs(Fraction(rhs) - rep.rhs) <= rep.rhs / 10**16
            if rep.lhs:
                quotient = rep.rhs / Fraction(rep.lhs)
                assert abs(Fraction(slack) - quotient) <= quotient / 10**15
        else:
            assert float(rhs) == float(rep.rhs)
    assert wide > 0


@pytest.mark.parametrize(
    "suite, flags, kwargs",
    [
        ("bracket-estimate", ["--R", "200"], {"R": Fraction(200)}),
        ("product-estimate", ["--R", "1", "--zmag", "1e300"], {"R": 1, "zmag": Fraction(10**300)}),
    ],
)
def test_estimate_csv_writes_exact_sides_beyond_binary64(suite, flags, kwargs, capsys, monkeypatch):
    args = ["verify", suite, *flags, "--trials", "1", "--format", "csv"]
    code, out, err = run_cli(args, None, capsys, monkeypatch)
    assert code == 0 and err == ""
    header, row = out.splitlines()
    assert header == "index,lhs,rhs,slack,holds"
    reports = []
    suites.SUITES[suite](0, 1, collect=reports, **kwargs)
    (rep,) = reports
    for text, exact in zip(row.split(",")[1:4], (rep.lhs, rep.rhs, rep.rhs / rep.lhs)):
        digits, exponent = text.split("e")
        assert len(digits.replace(".", "")) == 17 and int(exponent) > 308
        # within one unit in the 17th significant digit
        assert abs(Fraction(text) - exact) <= Fraction(10) ** (int(exponent) - 16)


@pytest.mark.parametrize("args", [["kothe", "--n-max", "x"], ["verify", "product-estimate", "--R"]])
def test_usage_errors_are_one_input_error_line(args):
    src = Path(weylalg.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-m", "weylalg.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("input error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("value", ["-3/7", "-0.25", "-1e-3"])
def test_negative_flag_values_reach_the_estimate(value, capsys, monkeypatch):
    # a value that starts with a minus sign is read as the flag's value
    args = ["verify", "product-estimate", "--R", value]
    code, out, err = run_cli(args, None, capsys, monkeypatch)
    assert code == 4 and out == ""
    assert err == "refused: the product estimate requires R >= 1/2\n"


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kothe", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: weylalg kothe") and "--n-max" in out


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "product-estimate", "--R", "1000000"],
        ["verify", "bracket-estimate", "--R", "1000000"],
        ["verify", "product-estimate", "--R", str(EXACT_ESTIMATE_MAX_R + 1), "--format", "csv"],
        ["peierls", "poisson-iso", "--T", "1000000000", "--N", "1000000000"],
        ["peierls", "weyl-gram", "--T", str(PEIERLS_MAX_SITES // 8 + 1), "--N", "8"],
        ["verify", "product-estimate", "--R", f"{ESTIMATE_MAX_R_NUMERATOR + 1}/7"],
        ["verify", "bracket-estimate", "--R", f"1/{ESTIMATE_MAX_R_DENOMINATOR + 1}"],
    ],
)
def test_work_beyond_the_caps_is_refused_at_once(args, capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = run_cli(args, None, capsys, monkeypatch)
    assert time.perf_counter() - start < 2
    assert code == 4 and out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_work_at_the_caps_runs(capsys, monkeypatch):
    for suite, R in (
        ("bracket-estimate", str(EXACT_ESTIMATE_MAX_R)),
        ("product-estimate", f"{ESTIMATE_MAX_R_NUMERATOR}/3"),
        ("bracket-estimate", f"1/{ESTIMATE_MAX_R_DENOMINATOR}"),
    ):
        code, out, err = run_cli(["verify", suite, "--R", R, "--trials", "1"], None, capsys, monkeypatch)
        assert code == 0 and err == ""
    code, out, err = run_cli(
        ["peierls", "weyl-gram", "--T", str(PEIERLS_MAX_SITES // 8), "--N", "8"],
        None,
        capsys,
        monkeypatch,
    )
    assert code == 0 and json.loads(out)["ok"]


def test_peierls_mass_digits_beyond_the_cap_are_refused_at_once(capsys, monkeypatch):
    # the kernel rows carry m2's denominator to the power T-3: a 301-digit
    # m2 on 24x16 ran for minutes before the cap
    start = time.perf_counter()
    code, out, err = run_cli(
        ["peierls", "poisson-iso", "--T", "24", "--N", "16", "--m2", f"1/{10**300 - 1}"],
        None,
        capsys,
        monkeypatch,
    )
    assert time.perf_counter() - start < 2
    assert code == 4 and out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_peierls_mass_digits_at_the_cap_run(capsys, monkeypatch):
    # 8x8 sites admit (T*N)^2 * d up to the cap: d = 512 digits, not 513
    digits = PEIERLS_MAX_DIGIT_WORK // 64**2
    for d, expect in ((digits, 0), (digits + 1, 4)):
        m2 = f"1/{10 ** (d - 1) - 1}"
        argv = ["peierls", "weyl-gram", "--T", "8", "--N", "8", "--m2", m2]
        code, out, err = run_cli(argv, None, capsys, monkeypatch)
        assert code == expect


def test_cli_import_does_not_load_dataclasses():
    # every CLI process pays for what `import weylalg.cli` loads
    src = Path(weylalg.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import weylalg.cli; "
        "print('dataclasses' in sys.modules)"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert run.stdout.strip() == "False"
