"""Tests of the benchmark itself: its checks, inputs and tracing.

    PYTHONPATH=src python3 -m pytest -q sphbench

Each check must accept sphdiv's real answer and reject a corrupted one.
The tests call sphdiv to get real answers; the checks themselves never do.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import exact
import factors as F
import spans
import workloads

import sphdiv.cli
from sphdiv import catalog, docio, knoplie

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def answer(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sphdiv.cli.main(argv)
    return {"rc": rc, "error": None, "out": out.getvalue(), "err": err.getvalue()}


def library(source) -> dict:
    try:
        if "catalog" in source:
            pres = catalog.builtin(*source["catalog"]).presentation
        else:
            with open(source["path"], encoding="utf-8") as fh:
                _, pres = docio.load_document(fh.read())
        knoplie.validate_presentation(pres)
        error = None
    except ValueError as exc:
        error = f"ValueError: {exc}"
    return {"rc": None, "error": error, "out": "", "err": ""}


def corrupt_json(res, edit) -> dict:
    doc = json.loads(res["out"])
    edit(doc)
    return dict(res, out=json.dumps(doc))


def write_doc(tmp_path, f, with_pres=False) -> str:
    path = tmp_path / f"doc{len(os.listdir(tmp_path))}.json"
    path.write_text(json.dumps(F.document(f, with_pres)))
    return str(path)


def verdict(req, res) -> str:
    return checks.verdict(req["check"], res)[0]


# --------------------------------------------------------------- inputs

@pytest.mark.parametrize("key,n", [(k, n) for k, n in workloads.CATALOG if n is None or n <= 6])
def test_factor_documents_equal_the_catalog(key, n):
    """The datums the checks reason about are the ones sphdiv reads."""
    entry = catalog.builtin(key, n)
    theirs = json.loads(docio.dump_document(entry.datum, entry.presentation))
    assert F.document(F.family(key, n), with_pres=True) == theirs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_shape_is_the_same_on_every_seed(workload, tmp_path):
    def shape(seed):
        plan = workloads.build(workload, seed, str(tmp_path / str(seed)))
        return sorted(json.dumps([req["op"], req["check"]["kind"],
                                  sorted(req["check"].get("datum", {}).get("label", "").split(" x ")),
                                  [a for a in req.get("argv", []) if not a.endswith(".json")]])
                      for req in plan)

    assert shape(1) == shape(2) == shape(987654)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("presentations", 5, str(tmp_path / "a"))
    b = workloads.build("presentations", 5, str(tmp_path / "b"))
    assert [r["check"] for r in a] == [r["check"] for r in b]
    for name in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_sign_conjugation_moves_no_pivot():
    import random
    f = F.product([F.brion_5_1(3), F.brion_5_2()])
    g = F.sign_conjugate(f.pres, random.Random(3))
    assert g.h_basis != f.pres.h_basis

    def pivots(pres):
        vecs = [exact.element_vector(exact.element_from_json(F.element_json(x, pres.blocks),
                                                             pres.blocks), pres.blocks)
                for x in pres.h_basis + pres.b_basis]
        return exact._echelon([list(col) for col in zip(*vecs)])[1]

    assert pivots(f.pres) == pivots(g)


def _h(pres):
    return [exact.element_from_json(F.element_json(x, pres.blocks), pres.blocks)
            for x in pres.h_basis]


@pytest.mark.parametrize("canonical,breaker", workloads.PRESENTATION_PRODUCTS)
def test_non_closed_copies_are_not_closed(canonical, breaker):
    f = F.product([F.family(*c) for c in canonical])
    assert exact.first_unclosed_pair(_h(f.pres), f.pres.blocks) is None
    broken = F.unclosed_copy(f.pres, breaker)
    assert exact.first_unclosed_pair(_h(broken), broken.blocks) == (0, 1)


def test_known_fault_presentation_is_valid_and_generic():
    fault = workloads.known_fault_factor()
    pres = fault.pres
    assert exact.first_unclosed_pair(_h(pres), pres.blocks) is None
    vecs = [exact.element_vector(exact.element_from_json(F.element_json(x, pres.blocks),
                                                         pres.blocks), pres.blocks)
            for x in pres.h_basis + pres.b_basis]
    assert exact.rank(vecs) == 8  # span(b, h) is all of sl3: the basepoint is generic


# --------------------------------------------------------------- exact

def test_cartan_and_root_data():
    assert exact.cartan([("B", 3)])[2][1] == -2 and exact.cartan([("C", 3)])[1][2] == -2
    assert exact.cartan([("G", 2)]) == [[2, -3], [-1, 2]]
    assert exact.cartan([("F", 4)])[2][1] == -2
    assert [exact.positive_root_count("E", n) for n in (6, 7, 8)] == [36, 63, 120]
    assert exact.coxeter_number("E", 8) == 30 and exact.coxeter_number("D", 5) == 8


def test_kappa_solve():
    assert exact.kappa_fund([("A", 4)], []) == [2, 2, 2, 2]
    # SL(n)/SL(n-1): kappa = (n-1)(omega_1 + omega_{n-1})
    assert exact.kappa_fund([("A", 5)], [1, 2, 3]) == [5, 0, 0, 0, 5]


def test_positive_solutions():
    assert exact.positive_solutions([[1], [1]], [4], 3) == [(1, 3), (2, 2), (3, 1)]
    assert exact.positive_solutions([[1, 0], [0, 1]], [2, 3], 5) == [(2, 3)]
    assert exact.positive_solutions([], [0], 5) == [()]


# --------------------------------------------------------------- checks

def _datum_request(tmp_path, kind, f, argv_tail=(), **extra):
    path = write_doc(tmp_path, f)
    cmd = {"types_luna": "types"}.get(kind, kind)
    argv = [cmd, path, *argv_tail, "--json"]
    return workloads._cli(argv, kind, f, **extra)


PRODUCT = [("brion_5_2",), ("sl2_mod_U",), ("brion_5_3", 4), ("toric", 2)]


def _product():
    return F.product([F.family(*c) for c in PRODUCT])


def test_kappa_check(tmp_path):
    f = F.product([F.brion_5_4(9), F.bare(("E", 7), [1, 2, 3, 4, 5, 6])])
    req = _datum_request(tmp_path, "kappa", f)
    res = answer(req["argv"])
    assert verdict(req, res) == "ok"
    bad = corrupt_json(res, lambda d: d["kappa"]["fund"].__setitem__(0, 7))
    assert verdict(req, bad) == "wrong"


def test_antican_check(tmp_path):
    req = _datum_request(tmp_path, "antican", _product())
    res = answer(req["argv"])
    assert verdict(req, res) == "ok"
    bad = corrupt_json(res, lambda d: d["colors"][0].__setitem__("coeff", 2))
    assert verdict(req, bad) == "wrong"
    swapped = copy.deepcopy(req)
    swapped["check"]["datum"]["coeffs"][0] = 2  # closed form and sum rule both fail
    assert verdict(swapped, res) == "wrong"


def test_verify_check(tmp_path):
    req = _datum_request(tmp_path, "verify", _product(), ["--bound", "5"], bound=5)
    res = answer(req["argv"])
    assert verdict(req, res) == "ok"

    def two_solutions(doc):
        for f in doc["findings"]:
            if f["check"] == "enumeration":
                f["actual"] = f["actual"][:-1] + ", (1, 1, 1, 2, 1, 1, 1)]"
    assert verdict(req, corrupt_json(res, two_solutions)) == "wrong"
    assert verdict(req, corrupt_json(res, lambda d: d.__setitem__("pass", False))) == "wrong"


def test_verify_check_without_rank_certificate(tmp_path):
    f = F.product([F.sl2_mod_T(), F.sl2_mod_U()])  # two colors share one chi
    req = _datum_request(tmp_path, "verify", f, ["--bound", "4"], bound=4)
    res = answer(req["argv"])
    assert verdict(req, res) == "ok"

    def extra(doc):
        for f in doc["findings"]:
            if f["check"] == "enumeration":
                f["actual"] = "[(1, 1, 2), (2, 2, 2)]"
    assert verdict(req, corrupt_json(res, extra)) == "wrong"


def test_validate_check(tmp_path):
    req = _datum_request(tmp_path, "validate", _product())
    res = answer(req["argv"])
    assert verdict(req, res) == "ok"

    def drop_audit(doc):
        doc["findings"] = [f for f in doc["findings"] if f["check"] != "chi-pairing"][:-1]
    assert verdict(req, corrupt_json(res, drop_audit)) == "wrong"


def test_cone_check(tmp_path):
    req = _datum_request(tmp_path, "cone", _product())
    res = answer(req["argv"])
    assert verdict(req, res) == "ok"
    assert verdict(req, corrupt_json(
        res, lambda d: d["interior_witness"].__setitem__(0, 0))) == "wrong"
    assert verdict(req, corrupt_json(res, lambda d: d["generators"].__setitem__(
        0, [str(-Fraction(x)) for x in d["generators"][0]]))) == "wrong"
    assert verdict(req, corrupt_json(res, lambda d: d["generators"].pop())) == "wrong"


def test_types_checks(tmp_path):
    f = F.product([F.brion_5_2(), F.sl2_mod_N(), F.sl2_mod_U()])
    path = write_doc(tmp_path, f, with_pres=True)
    for method in ("luna", "knop", "both"):
        req = workloads._cli(["types", path, "--method", method, "--json"], f"types_{method}", f)
        res = answer(req["argv"])
        assert verdict(req, res) == "ok"
        key = "types" if method != "both" else "knop"
        bad = corrupt_json(res, lambda d: d[key].__setitem__("f1.D1", "a"))
        assert verdict(req, bad) == "wrong"


def test_roots_check():
    req = {"op": "cli", "argv": ["roots", "B3xG2", "--json"],
           "check": {"kind": "roots", "spec": "B3xG2"}}
    res = answer(req["argv"])
    assert verdict(req, res) == "ok"
    assert verdict(req, corrupt_json(res, lambda d: d["roots"].pop())) == "wrong"

    def swap(doc):  # same count and heights, but the sum is no longer 2 rho
        doc["roots"][0]["coeffs"] = doc["roots"][0]["coeffs"][::-1]
    assert verdict(req, corrupt_json(res, swap)) == "wrong"


def test_dump_check():
    f = F.brion_5_1(3)
    req = workloads._cli(["catalog", "dump", "brion_5_1", "--n", "3"], "dump", f)
    res = answer(req["argv"])
    assert verdict(req, res) == "ok"

    def break_triple(doc):
        doc["presentation"]["triples"]["a2"]["h"][0][0] = 2
    assert verdict(req, corrupt_json(res, break_triple)) == "wrong"


def test_presentation_checks(tmp_path):
    f = F.product([F.brion_5_1(3), F.sl2_mod_U()])
    good = write_doc(tmp_path, f, with_pres=True)
    broken = F.Factor(**vars(f))
    broken.pres = F.unclosed_copy(f.pres, 0)
    bad = str(tmp_path / "broken.json")
    with open(bad, "w") as fh:
        json.dump(F.document(broken, True), fh)
    accepted, rejected = {"check": {"kind": "accepted"}}, {"check": {"kind": "rejected"}}
    assert verdict(accepted, library({"path": good})) == "ok"
    assert verdict(rejected, library({"path": bad})) == "ok"
    assert verdict(rejected, library({"path": good})) == "wrong"
    assert verdict(accepted, library({"path": bad})) == "wrong"
    assert verdict(accepted, library({"catalog": ["brion_5_2", None]})) == "ok"


def test_known_fault_request(tmp_path):
    fault = workloads.known_fault_factor()
    path = write_doc(tmp_path, fault, with_pres=True)
    req = workloads._cli(["types", path, "--method", "knop", "--json"], "types_knop", fault,
                         types={"D1": "b"})
    try:
        res = answer(req["argv"])
    except ValueError as exc:  # the fault: the program raises instead of answering
        res = {"rc": None, "error": f"ValueError: {exc}", "out": "", "err": ""}
    assert verdict(req, res) in ("failed", "ok")
    wrong = {"rc": 0, "error": None, "err": "",
             "out": json.dumps({"method": "knop", "types": {"D1": "a"}})}
    assert verdict(req, wrong) == "wrong"


def test_checks_never_import_sphdiv():
    for name in ("checks.py", "exact.py", "factors.py", "workloads.py"):
        with open(os.path.join(HERE, name), encoding="utf-8") as fh:
            text = fh.read()
        assert "import sphdiv" not in text and "from sphdiv" not in text, name


# --------------------------------------------------------------- runs

def test_traced_worker_reports_every_layer(tmp_path):
    plan = [{"op": "cli", "argv": ["types", "catalog:brion_5_1", "--n", "3", "--method", "knop"]},
            {"op": "cli", "argv": ["verify", "catalog:brion_5_2"]},
            {"op": "validate_presentation", "source": {"catalog": ["sl2_mod_T", None]}}]
    plan_path, out = tmp_path / "plan.json", tmp_path / "out.jsonl"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, "-s", os.path.join(HERE, "worker.py"), ROOT, str(plan_path),
                    str(out), "1", str(tmp_path / "spans.json.gz")], check=True, timeout=120)
    lines = out.read_text().splitlines()
    assert len(lines) == len(plan) + 1
    layers = json.loads(lines[-1])["layers"]
    assert set(spans.layer_metric_names()) <= set(layers)
    assert layers["cli.main.calls"] == 2 and layers["catalog.builtin.calls"] == 3
    assert layers["knoplie.classify_knop.calls"] == 2
    assert layers["knoplie.open_orbit_check.hits"] == 1
    for name in layers:
        if name.endswith(".self_s"):
            span = layers[name[:-len("self_s")] + "span_s"]
            assert -1e-9 <= layers[name] <= span + 1e-9


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
