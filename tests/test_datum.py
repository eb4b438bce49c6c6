"""Datum document codec: round trips, schema rejection, and the
semantic findings of validate_datum."""
import copy
import dataclasses
import json
from fractions import Fraction

import pytest

from sphdiv.catalog import builtin, catalog_keys
from sphdiv.datum import (ColorRecord, SphericalDatum, compute_Sp, datum_from_json,
                          datum_to_json, delta_of, parse_datum, rational_from_json,
                          rational_to_json, serialize_datum, validate_datum,
                          weight_from_json, weight_to_json)
from sphdiv.docio import load_document
from sphdiv.errors import SchemaError
from sphdiv.report import all_passed
from sphdiv.rootsys import Coweight, Weight, build_root_system


def base_doc():
    return {
        "version": "sphdatum/1",
        "root_system": "A2",
        "Sp": [],
        "colors": [
            {"name": "D1", "moved_by": ["a1"], "type": "a",
             "chi": {"fund": [1, 1], "central": []}, "rho": None},
            {"name": "D2", "moved_by": ["a2"], "type": None,
             "chi": None, "rho": None},
        ],
        "M": None,
        "spherical_roots": None,
        "boundary_count": 0,
    }


# ---------------------------------------------------------------- codec

def test_rational_codec_ints_stay_ints():
    assert rational_to_json(Fraction(3)) == 3
    assert isinstance(rational_to_json(Fraction(3)), int)
    assert rational_to_json(Fraction(-4, 2)) == -2
    assert rational_to_json(Fraction(1, 2)) == "1/2"


@pytest.mark.parametrize("v,want", [
    (7, Fraction(7)), ("3/4", Fraction(3, 4)), ("-2", Fraction(-2)),
])
def test_rational_from_json_accepts(v, want):
    assert rational_from_json(v, "here") == want


@pytest.mark.parametrize("v", [1.5, True, False, "x/y", "1/0", None, [1]])
def test_rational_from_json_rejects(v):
    with pytest.raises(SchemaError):
        rational_from_json(v, "here")


def test_weight_codec_round_trip():
    rs = build_root_system("A2+T1")
    w = Weight((Fraction(1, 2), Fraction(-3)), (Fraction(5),))
    assert weight_from_json(weight_to_json(w), rs, "w") == w
    assert weight_to_json(w) == {"fund": ["1/2", -3], "central": [5]}


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"fund": [1]},
    {"fund": [1, 2], "central": [1]},
    {"fund": [1, 2], "central": [], "extra": 0},
    {"fund": [1.0, 2], "central": []},
])
def test_weight_from_json_rejects(obj):
    rs = build_root_system("A2")
    with pytest.raises(SchemaError):
        weight_from_json(obj, rs, "w")


# ---------------------------------------------------------------- round trip

def test_parse_serialize_identity_on_base_doc():
    d = datum_from_json(base_doc())
    assert datum_to_json(parse_datum(serialize_datum(d))) == datum_to_json(d)


@pytest.mark.parametrize("key,n", [
    ("toric", 2), ("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
    ("brion_5_1", 3), ("brion_5_2", None), ("brion_5_3", 4), ("brion_5_4", 5),
])
def test_parse_serialize_identity_on_catalog(key, n):
    d = builtin(key, n).datum
    again = parse_datum(serialize_datum(d))
    assert datum_to_json(again) == datum_to_json(d)
    # and a second pass is byte-stable
    assert serialize_datum(again) == serialize_datum(d)


def test_parse_tolerates_presentation_key():
    doc = base_doc()
    doc["presentation"] = {"whatever": True}
    datum_from_json(doc)  # ignored here; docio validates it


def test_fractional_chi_round_trips():
    doc = base_doc()
    doc["colors"][0]["chi"] = {"fund": ["1/2", "-3/2"], "central": []}
    d = datum_from_json(doc)
    assert d.color("D1").chi.fund == (Fraction(1, 2), Fraction(-3, 2))
    assert datum_to_json(d)["colors"][0]["chi"]["fund"] == ["1/2", "-3/2"]


# ---------------------------------------------------------------- schema errors

def _mut(path_desc, fn):
    return pytest.param(fn, id=path_desc)


@pytest.mark.parametrize("mutate", [
    _mut("top-not-object", lambda d: ["not", "an", "object"]),
    _mut("unknown-top-field", lambda d: {**d, "extra": 1}),
    _mut("bad-version", lambda d: {**d, "version": "sphdatum/9"}),
    _mut("missing-version", lambda d: {k: v for k, v in d.items() if k != "version"}),
    _mut("missing-root-system",
         lambda d: {k: v for k, v in d.items() if k != "root_system"}),
    _mut("bad-root-system", lambda d: {**d, "root_system": "Z9"}),
    _mut("sp-not-list", lambda d: {**d, "Sp": "a1"}),
    _mut("sp-bad-name", lambda d: {**d, "Sp": ["a7"]}),
    _mut("colors-not-list", lambda d: {**d, "colors": {}}),
    _mut("color-not-object", lambda d: {**d, "colors": [42]}),
    _mut("color-unknown-field",
         lambda d: {**d, "colors": [{**d["colors"][0], "weird": 1}]}),
    _mut("color-empty-name",
         lambda d: {**d, "colors": [{**d["colors"][0], "name": ""}]}),
    _mut("color-dup-name",
         lambda d: {**d, "colors": [d["colors"][0], d["colors"][0]]}),
    _mut("moved-by-missing",
         lambda d: {**d, "colors": [{"name": "D1", "type": None,
                                     "chi": None, "rho": None}]}),
    _mut("moved-by-empty",
         lambda d: {**d, "colors": [{**d["colors"][0], "moved_by": []}]}),
    _mut("moved-by-bad-name",
         lambda d: {**d, "colors": [{**d["colors"][0], "moved_by": ["a9"]}]}),
    _mut("bad-type-tag",
         lambda d: {**d, "colors": [{**d["colors"][0], "type": "c"}]}),
    _mut("chi-wrong-dim",
         lambda d: {**d, "colors": [{**d["colors"][0],
                                     "chi": {"fund": [1], "central": []}}]}),
    _mut("rho-wrong-length",
         lambda d: {**d, "colors": [{**d["colors"][0], "rho": [1, 2, 3]}]}),
    _mut("m-not-list", lambda d: {**d, "M": 5}),
    _mut("sigma-dependent",
         lambda d: {**d, "spherical_roots": [{"fund": [2, 0], "central": []},
                                             {"fund": [4, 0], "central": []}]}),
    _mut("sigma-outside-m",
         lambda d: {**d, "M": [{"fund": [1, 0], "central": []}],
                    "spherical_roots": [{"fund": [0, 1], "central": []}]}),
    _mut("boundary-negative", lambda d: {**d, "boundary_count": -1}),
    _mut("boundary-bool", lambda d: {**d, "boundary_count": True}),
    _mut("boundary-string", lambda d: {**d, "boundary_count": "0"}),
])
def test_schema_rejection(mutate):
    with pytest.raises(SchemaError):
        datum_from_json(mutate(base_doc()))


# Luna's datum needs the spherical roots in the lattice M, not only in its
# span, and each color's rho in N = Hom(M, Z)
_HALF_OF_M = {"version": "sphdatum/1", "root_system": "A1", "Sp": [],
              "colors": [{"name": "D1", "moved_by": ["a1"]}],
              "M": [{"fund": [4], "central": []}],
              "spherical_roots": [{"fund": [2], "central": []}]}
_RHO_HALF_ON_M = {"version": "sphdatum/1", "root_system": "A1", "Sp": [],
                  "colors": [{"name": "D1", "moved_by": ["a1"], "rho": ["1/4"]}],
                  "M": [{"fund": [2], "central": []}],
                  "spherical_roots": [{"fund": [2], "central": []}]}


@pytest.mark.parametrize("doc,message", [
    (_HALF_OF_M, r"spherical_roots\[0\]: not in the lattice M"),
    (_RHO_HALF_ON_M, r"colors\[0\].rho: not in N = Hom\(M, Z\)"),
])
def test_lattice_membership_is_integral(doc, message):
    with pytest.raises(SchemaError, match=message):
        parse_datum(json.dumps(doc))


def test_lattice_membership_accepts_integral_coordinates():
    doc = copy.deepcopy(_RHO_HALF_ON_M)
    doc["M"] = [{"fund": [2], "central": []}]
    doc["spherical_roots"] = [{"fund": [4], "central": []}]
    doc["colors"][0]["rho"] = ["1/2"]
    d = parse_datum(json.dumps(doc))
    found = {f.check: f for f in validate_datum(d)}
    assert found["sigma-in-lattice-m"].passed
    assert found["rho-in-lattice-n"].passed


def test_dependent_m_is_tested_by_span_only():
    # (2) and (3) generate Z, so sigma = (1) lies in M although its
    # particular solution (1/2, 0) is not integral
    doc = copy.deepcopy(_HALF_OF_M)
    doc["M"] = [{"fund": [2], "central": []}, {"fund": [3], "central": []}]
    doc["spherical_roots"] = [{"fund": [1], "central": []}]
    d = parse_datum(json.dumps(doc))
    assert {f.check: f for f in validate_datum(d)}["sigma-in-lattice-m"].passed


def test_parse_datum_rejects_non_json():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_datum("{nope")


def test_load_document_parses_once_and_names_the_line(monkeypatch):
    text = json.dumps(base_doc())
    real, texts = json.loads, []

    def counting(s, *args, **kwargs):
        texts.append(s)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    load_document(text)
    assert texts == [text]
    with pytest.raises(SchemaError) as err:
        load_document('{"version":\n nope}')
    assert str(err.value) == "not valid JSON: line 2: Expecting value"


def test_schema_errors_carry_field_path():
    doc = base_doc()
    doc["colors"][0]["chi"] = {"fund": [1, 1.5], "central": []}
    with pytest.raises(SchemaError, match=r"colors\[0\].chi.fund\[1\]"):
        datum_from_json(doc)


# ---------------------------------------------------------------- records

def test_color_record_moved_by_sorted_dedup():
    c = ColorRecord("D", (2, 0, 2))
    assert c.moved_by == (0, 2)


def test_color_lookup():
    d = datum_from_json(base_doc())
    assert d.color("D2").name == "D2"
    with pytest.raises(KeyError):
        d.color("D9")


def test_compute_sp_and_delta():
    d = builtin("brion_5_4", 5).datum
    assert compute_Sp(d) == d.Sp
    rank = d.rs.rank
    assert rank == 4
    assert [len(delta_of(d, i)) for i in range(rank)] == [1, 0, 0, 1]


# ---------------------------------------------------------------- validate

@pytest.mark.parametrize("key,n", [
    ("toric", 1), ("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
    ("brion_5_1", 4), ("brion_5_2", None), ("brion_5_3", 3), ("brion_5_4", 3),
])
def test_catalog_datums_validate_clean(key, n):
    assert all_passed(validate_datum(builtin(key, n).datum))


def test_validate_flags_wrong_declared_type():
    # declare b where the spherical roots say 2a; with the type in
    # dispute no pairing row is emitted at all
    d = builtin("brion_5_3", 3).datum
    colors = tuple(dataclasses.replace(c, declared_type="b") for c in d.colors)
    bad = dataclasses.replace(d, colors=colors)
    findings = validate_datum(bad)
    by_check = {}
    for f in findings:
        by_check.setdefault(f.check, []).append(f)
    assert all(not f.passed for f in by_check["declared-vs-luna"])
    assert "chi-pairing" not in by_check


def test_validate_names_an_unclassifiable_declared_color():
    # a1 is a spherical root and a2 is not: the moving roots of D disagree,
    # so the types do not resolve and D is classified on its own
    rs = build_root_system("A1xA1")
    d = SphericalDatum(rs, frozenset(), (ColorRecord("D", (0, 1), "a"),), None,
                       (rs.simple_root_weight(0),))
    (found,) = [f for f in validate_datum(d) if f.check == "declared-vs-luna"]
    assert not found.passed
    assert found.actual == ("unclassifiable (color D: moving roots disagree on type "
                            "(a1->a, a2->b))")


def test_validate_flags_wrong_chi_pairing():
    # halve a 2a color's chi: the type still resolves, the table fails
    d = builtin("brion_5_3", 3).datum
    halved = dataclasses.replace(
        d.colors[0], chi=Weight(tuple(x / 2 for x in d.colors[0].chi.fund), ()))
    bad = dataclasses.replace(d, colors=(halved,) + d.colors[1:])
    findings = validate_datum(bad)
    pairing = [f for f in findings if f.check == "chi-pairing"]
    assert pairing
    assert any(not f.passed for f in pairing)
    assert any(f.subject.startswith("D1") and not f.passed for f in pairing)


def test_validate_flags_three_colors_on_one_root():
    rs = build_root_system("A1")
    colors = tuple(ColorRecord(f"D{i}", (0,)) for i in range(3))
    d = SphericalDatum(rs, frozenset(), colors)
    found = {f.check: f for f in validate_datum(d)}
    assert not found["delta-bound"].passed
    assert "a1" in found["delta-bound"].actual


def test_validate_flags_wrong_sp():
    rs = build_root_system("A2")
    d = SphericalDatum(rs, frozenset(), (ColorRecord("D", (0,)),))
    found = {f.check: f for f in validate_datum(d)}
    assert not found["sp-consistency"].passed
    assert "a2" in found["sp-consistency"].expected


def test_validate_flags_color_moved_by_sp_root():
    rs = build_root_system("A2")
    d = SphericalDatum(rs, frozenset({1}), (ColorRecord("D", (0, 1)),))
    found = {f.check: f for f in validate_datum(d)}
    assert not found["moved-by-disjoint-sp"].passed


def test_validate_flags_dependent_sigma_built_in_memory():
    # the parser rejects this outright; direct construction reaches the finding
    rs = build_root_system("A1")
    s = Weight((Fraction(2),), ())
    d = SphericalDatum(rs, frozenset(), (ColorRecord("D", (0,)),),
                       None, (s, s))
    found = {f.check: f for f in validate_datum(d)}
    assert not found["sigma-independent"].passed


def test_validate_flags_sigma_outside_m_built_in_memory():
    rs = build_root_system("A2")
    m = (Weight((Fraction(1), Fraction(0)), ()),)
    sigma = (Weight((Fraction(0), Fraction(2)), ()),)
    d = SphericalDatum(rs, frozenset({0}), (ColorRecord("D", (1,)),), m, sigma)
    found = {f.check: f for f in validate_datum(d)}
    assert not found["sigma-in-lattice-m"].passed


def test_validate_flags_sigma_in_span_but_not_lattice_built_in_memory():
    rs = build_root_system("A1")
    d = SphericalDatum(rs, frozenset(), (ColorRecord("D", (0,)),),
                       (Weight((Fraction(4),), ()),), (Weight((Fraction(2),), ()),))
    found = {f.check: f for f in validate_datum(d)}
    assert not found["sigma-in-lattice-m"].passed
    assert found["sigma-in-lattice-m"].actual == "outside at indices [0]"


def test_validate_flags_rho_outside_n_built_in_memory():
    rs = build_root_system("A1")
    color = ColorRecord("D", (0,), rho_D=Coweight((Fraction(1, 4),)))
    d = SphericalDatum(rs, frozenset(), (color,), (Weight((Fraction(2),), ()),),
                       (Weight((Fraction(2),), ()),))
    found = {f.check: f for f in validate_datum(d)}
    assert not found["rho-in-lattice-n"].passed
    assert found["rho-in-lattice-n"].subject == "D"


def test_validate_findings_order_independent():
    d = builtin("brion_5_2", None).datum
    reordered = dataclasses.replace(d, colors=tuple(reversed(d.colors)))
    assert validate_datum(d) == validate_datum(reordered)


def test_validate_json_shape():
    f = validate_datum(builtin("sl2_mod_U", None).datum)[0]
    doc = f.to_json()
    assert set(doc) == {"check", "subject", "expected", "actual", "pass"}
    json.dumps(doc)  # serializable
