"""Command-line behavior: exit codes, table/JSON parity, datum sources."""
import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphdiv
import sphdiv.catalog
import sphdiv.linalg
import sphdiv.lunatypes
import sphdiv.rootsys
from sphdiv.cli import _build_parser, main
from sphdiv.docio import dump_document
from sphdiv.catalog import builtin


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- basics

def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_no_command_is_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


# ---------------------------------------------------------------- roots

def test_roots_table(capsys):
    code, out, _ = run(capsys, "roots", "A2")
    assert code == 0
    assert "3 positive roots" in out
    assert "a1+a2" in out


def test_roots_json_counts(capsys):
    code, out, _ = run(capsys, "roots", "G2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["count"] == 6
    assert all(set(r) == {"expr", "coeffs", "height"} for r in doc["roots"])


def test_roots_subset(capsys):
    code, out, _ = run(capsys, "roots", "A4", "--subset", "a2,a3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["count"] == 3
    assert [r["coeffs"] for r in doc["roots"]] == \
        [[0, 0, 1, 0], [0, 1, 0, 0], [0, 1, 1, 0]]


def test_roots_bad_spec(capsys):
    code, _, err = run(capsys, "roots", "E9")
    assert code == 2
    assert "E9" in err


def test_roots_bad_subset_name(capsys):
    assert run(capsys, "roots", "A2", "--subset", "a7")[0] == 2


def test_roots_central_rank_cap(capsys):
    assert run(capsys, "roots", "T64")[0] == 0
    code, out, err = run(capsys, "roots", "T65")
    assert (code, out) == (2, "")
    assert "central rank 65 exceeds cap 64" in err


def test_closed_pipe_exits_quietly():
    # the 610 roots fill more than a pipe's buffer, so the writer sees the
    # reader go away after the first line
    env = dict(os.environ, PYTHONPATH=str(Path(sphdiv.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "sphdiv.cli", "roots", "A20xB20"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"A20xB20: 610 positive roots")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err


# ---------------------------------------------------------------- sources

def test_catalog_source_with_n(capsys):
    code, out, _ = run(capsys, "kappa", "catalog:brion_5_4", "--n", "5")
    assert code == 0
    assert "(4, 0, 0, 4)" in out


def test_unknown_catalog_key(capsys):
    code, _, err = run(capsys, "kappa", "catalog:wat")
    assert code == 2
    assert "unknown catalog key" in err


def test_missing_parameter(capsys):
    code, _, err = run(capsys, "kappa", "catalog:brion_5_1")
    assert code == 2
    assert "needs a parameter" in err


def test_file_source(tmp_path, capsys):
    entry = builtin("brion_5_2", None)
    p = tmp_path / "d.json"
    p.write_text(dump_document(entry.datum, entry.presentation), encoding="utf-8")
    code, out, _ = run(capsys, "types", str(p), "--method", "both")
    assert code == 0
    assert out.count("agree") == 3


def test_n_on_file_source_rejected(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text(dump_document(builtin("brion_5_2", None).datum), encoding="utf-8")
    code, _, err = run(capsys, "kappa", str(p), "--n", "3")
    assert code == 2
    assert "catalog" in err


def test_missing_file(capsys):
    assert run(capsys, "kappa", "/nonexistent/d.json")[0] == 2


def test_schema_error_exit(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{\"version\": \"other\"}", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "schema error" in err


@pytest.mark.parametrize("field", ["h_basis", "b_basis", "witnesses"])
def test_presentation_field_not_an_array(tmp_path, capsys, field):
    entry = builtin("sl2_mod_N", None)
    doc = json.loads(dump_document(entry.datum, entry.presentation))
    doc["presentation"][field] = 5
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "kappa", str(p))
    assert code == 2
    assert f"schema error: presentation.{field}: expected an array" in err


def test_huge_central_torus_is_a_schema_error(tmp_path, capsys):
    p = tmp_path / "torus.json"
    p.write_text('{"version":"sphdatum/1","root_system":"T20000","Sp":[],"colors":[],'
                 '"M":[],"spherical_roots":[],"boundary_count":0}', encoding="utf-8")
    assert p.stat().st_size == 114
    code, out, err = run(capsys, "cone", str(p))
    assert (code, out) == (2, "")
    assert err == "schema error: root_system: central rank 20000 exceeds cap 64\n"


def _big_block_document(blocks):
    """sl2_mod_U with a presentation of the given blocks: empty h and b,
    and the a1 triple in the top-left corner of the first block."""
    entry = builtin("sl2_mod_U", None)
    doc = json.loads(dump_document(entry.datum, entry.presentation))

    def elem(*entries):
        mats = [[0] * (n * n) for n in blocks]
        for i, v in entries:
            mats[0][i] = v
        return mats

    n = blocks[0]
    doc["presentation"] = {"blocks": blocks, "h_basis": [], "b_basis": [], "triples": {
        "a1": {"e": elem((1, 1)), "h": elem((0, 1), (n + 1, -1)), "f": elem((n, 1))}}}
    return doc


@pytest.mark.parametrize("blocks,code", [([20], 0), ([20, 1], 2)])
def test_total_block_dimension_cap(tmp_path, capsys, blocks, code):
    p = tmp_path / "big.json"
    p.write_text(json.dumps(_big_block_document(blocks)), encoding="utf-8")
    got, out, err = run(capsys, "kappa", str(p))
    assert got == code
    if code:
        assert (out, err) == ("", "schema error: presentation: total block dimension 401 "
                                  "exceeds cap 400\n")


def test_repeated_h_basis_is_capped_by_the_algebra_dimension(tmp_path, capsys):
    entry = builtin("brion_5_1", 4)
    doc = json.loads(dump_document(entry.datum, entry.presentation))
    doc["presentation"]["h_basis"] *= 64
    p = tmp_path / "repeated.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert p.stat().st_size > 100_000
    code, out, err = run(capsys, "types", str(p), "--method", "knop")
    assert (code, out) == (2, "")
    assert err == ("schema error: presentation: h_basis has 960 elements, more than "
                   "the algebra dimension 30\n")


def test_doubled_h_basis_is_a_schema_error(tmp_path, capsys):
    """30 elements, at the length cap, but element 15 repeats element 0."""
    entry = builtin("brion_5_1", 4)
    doc = json.loads(dump_document(entry.datum, entry.presentation))
    doc["presentation"]["h_basis"] *= 2
    assert len(doc["presentation"]["h_basis"]) == 30
    p = tmp_path / "doubled.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "types", str(p), "--method", "knop")
    assert (code, out) == (2, "")
    assert err == ("schema error: presentation: h_basis is linearly dependent: "
                   "element 15 lies in the span of the elements before it\n")


@pytest.mark.parametrize("command", ["validate", "cone"])
def test_sigma_in_span_but_not_lattice_is_a_schema_error(tmp_path, capsys, command):
    p = tmp_path / "half.json"
    p.write_text('{"version":"sphdatum/1","root_system":"A1","Sp":[],'
                 '"colors":[{"name":"D1","moved_by":["a1"]}],'
                 '"M":[{"fund":[4]}],"spherical_roots":[{"fund":[2]}]}', encoding="utf-8")
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert err == "schema error: spherical_roots[0]: not in the lattice M\n"


# ---------------------------------------------------------------- laziness

@pytest.fixture
def presentation_builds(monkeypatch):
    """Arguments of every make_presentation call the catalog makes."""
    calls = []
    real = sphdiv.catalog.make_presentation

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sphdiv.catalog, "make_presentation", counting)
    return calls


@pytest.mark.parametrize("argv,want", [
    (["kappa"], 0), (["antican"], 0), (["verify"], 0), (["cone"], 1),
    (["validate"], 0), (["types", "--method", "luna"], 1),
    (["types", "--method", "both"], 1),
])
def test_datum_commands_build_no_presentation(capsys, presentation_builds, argv, want):
    code, _, _ = run(capsys, argv[0], "catalog:brion_5_1", "--n", "10", *argv[1:])
    assert code == want
    assert presentation_builds == []


@pytest.mark.parametrize("argv", [
    ["types", "catalog:brion_5_2", "--method", "both"],
    ["types", "catalog:brion_5_2", "--method", "knop"],
    ["catalog", "dump", "brion_5_1", "--n", "3"],
])
def test_presentation_readers_build_it_once(capsys, presentation_builds, argv):
    run(capsys, *argv)
    assert len(presentation_builds) == 1


@pytest.fixture
def fact_calls(monkeypatch):
    """Calls of kappa, resolved_types and classify_luna, counted wherever
    sphdiv binds them."""
    calls = {"kappa": 0, "resolved_types": 0, "classify_luna": 0}
    for name, real in (("kappa", sphdiv.rootsys.kappa),
                       ("resolved_types", sphdiv.lunatypes.resolved_types),
                       ("classify_luna", sphdiv.lunatypes.classify_luna)):
        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("sphdiv") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("command", ["verify", "antican"])
@pytest.mark.parametrize("source", [
    ["catalog:brion_5_1", "--n", "6"], ["catalog:brion_5_2"], ["catalog:sl2_mod_U"],
    ["catalog:brion_5_4", "--n", "5"],
])
def test_datum_facts_computed_once(capsys, fact_calls, command, source):
    assert run(capsys, command, *source)[0] == 0
    assert fact_calls["kappa"] <= 1
    assert fact_calls["resolved_types"] == 1


@pytest.mark.parametrize("command", ["verify", "validate"])
def test_luna_classifies_each_color_once(capsys, fact_calls, command):
    # brion_5_2 has three declared colors and spherical roots
    assert run(capsys, command, "catalog:brion_5_2")[0] == 0
    assert fact_calls["classify_luna"] == 3


def test_cone_resolves_the_cone_data_once(tmp_path, capsys, monkeypatch):
    # the parse solves every spherical root against M in one call; the
    # cone reads that
    datum = builtin("brion_5_2", None).datum
    p = tmp_path / "d.json"
    p.write_text(dump_document(datum, None))
    m_rows = list(zip(*(m.coords() for m in datum.lattice_M)))
    roots = [tuple(s.coords()) for s in datum.spherical_roots]
    solved = []
    real = sphdiv.linalg.solve

    def counting(rows, width, targets):
        targets = [tuple(t) for t in targets]
        if [tuple(r) for r in rows] == m_rows and set(targets) & set(roots):
            solved.append(targets)
        return real(rows, width, targets)

    monkeypatch.setattr(sphdiv.linalg, "solve", counting)
    assert run(capsys, "cone", str(p))[0] == 0
    assert solved == [roots]


@pytest.mark.parametrize("command", ["verify", "validate"])
def test_sigma_independence_is_eliminated_once(tmp_path, capsys, monkeypatch, command):
    # parse_datum and the sigma-independent finding share one rank; M,
    # which is the list of spherical roots, is written reversed so that
    # the rank of M is told apart
    datum = builtin("brion_5_2", None).datum
    datum = dataclasses.replace(datum, lattice_M=datum.spherical_roots[::-1])
    p = tmp_path / "d.json"
    p.write_text(dump_document(datum, None))
    roots = [tuple(s.coords()) for s in datum.spherical_roots]
    calls = []
    real = sphdiv.linalg.rank

    def counting(rows):
        rows = [tuple(r) for r in rows]
        calls.extend([rows] if rows == roots else [])
        return real(rows)

    monkeypatch.setattr(sphdiv.linalg, "rank", counting)
    assert run(capsys, command, str(p))[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command,most", [("cone", 7), ("validate", 2)])
def test_one_elimination_per_linear_system(capsys, monkeypatch, command, most):
    # each linear system of the datum side is one Echelon, whatever the
    # number of its right-hand sides
    built = []
    real = sphdiv.linalg.Echelon

    class Counting(real):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sphdiv.linalg, "Echelon", Counting)
    assert run(capsys, command, "catalog:brion_5_3", "--n", "10")[0] == 0
    assert len(built) <= most


def test_entry_presentation_is_built_once_and_kept(presentation_builds):
    entry = builtin("brion_5_1", 3)
    assert presentation_builds == []
    assert entry.presentation is entry.presentation
    assert len(presentation_builds) == 1
    assert builtin("brion_5_4", 3).presentation is None


# ---------------------------------------------------------------- types

def test_types_default_luna(capsys):
    code, out, _ = run(capsys, "types", "catalog:brion_5_3", "--n", "4", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"method": "luna",
                   "types": {"D1": "2a", "D2": "2a", "D3": "2a"}}


def test_types_knop(capsys):
    code, out, _ = run(capsys, "types", "catalog:sl2_mod_N", "--method", "knop",
                       "--json")
    assert code == 0
    assert json.loads(out)["types"] == {"D1": "2a"}


def test_types_both_agreement(capsys):
    code, out, _ = run(capsys, "types", "catalog:brion_5_2", "--method", "both",
                       "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["agree"] is True
    assert doc["luna"] == doc["knop"]


def test_types_knop_without_presentation(capsys):
    code, _, err = run(capsys, "types", "catalog:brion_5_4", "--n", "3",
                       "--method", "knop")
    assert code == 1
    assert "no presentation" in err


def test_types_luna_without_sigma(capsys):
    # 5.1 carries no spherical roots; luna classification cannot run
    code, _, err = run(capsys, "types", "catalog:brion_5_1", "--n", "3")
    assert code == 1
    assert "classify" in err


# ---------------------------------------------------------------- antican

def test_antican_example(capsys):
    code, out, _ = run(capsys, "antican", "catalog:brion_5_1", "--n", "4")
    assert code == 0
    assert "Div s = 2 D1 + 2 D2 + 2 D3" in out


def test_antican_json_matches_table_numbers(capsys):
    _, table, _ = run(capsys, "antican", "catalog:brion_5_4", "--n", "6")
    code, out, _ = run(capsys, "antican", "catalog:brion_5_4", "--n", "6", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["colors"] == [{"name": "D1", "coeff": 5}, {"name": "D2", "coeff": 5}]
    assert "5 D1 + 5 D2" in table


def test_antican_toric_boundary_only(capsys):
    code, out, _ = run(capsys, "antican", "catalog:toric", "--n", "2")
    assert code == 0
    assert "Div s = [2 boundary components]" in out


# ---------------------------------------------------------------- verify

def test_verify_clean_catalog(capsys):
    code, out, _ = run(capsys, "verify", "catalog:brion_5_2")
    assert code == 0
    assert "0 failed" in out


def test_verify_json_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "catalog:sl2_mod_N", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert any(f["check"] == "enumeration" for f in doc["findings"])
    assert any(f["check"] == "decomposition" for f in doc["findings"])


def test_verify_skips_enumeration_over_cap(capsys):
    code, out, _ = run(capsys, "verify", "catalog:brion_5_2", "--bound", "99",
                       "--json")
    doc = json.loads(out)
    assert code == 0  # skips are not failures
    assert any("enumeration" in s for s in doc["skipped"])
    assert not any(f["check"] == "enumeration" for f in doc["findings"])


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_verify_bound_below_one_is_usage_error(capsys, bound):
    code, out, err = run(capsys, "verify", "catalog:brion_5_2", "--bound", bound)
    assert code == 2
    assert out == ""
    assert err == "error: --bound must be at least 1\n"


def test_verify_flags_inconsistent_file(tmp_path, capsys):
    import dataclasses
    from sphdiv.datum import serialize_datum
    from sphdiv.rootsys import Weight
    d = builtin("brion_5_2", None).datum
    doubled = dataclasses.replace(
        d.colors[0], chi=Weight(tuple(2 * x for x in d.colors[0].chi.fund), ()))
    bad = dataclasses.replace(d, colors=(doubled,) + d.colors[1:])
    p = tmp_path / "bad.json"
    p.write_text(serialize_datum(bad), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------- cone

def test_cone_membership(capsys):
    code, out, _ = run(capsys, "cone", "catalog:brion_5_2",
                       "--contains=-1,-1,-1")
    assert code == 0
    assert "yes" in out
    code, out, _ = run(capsys, "cone", "catalog:brion_5_2", "--contains", "1,1,1")
    assert code == 0
    assert "no" in out


def test_cone_json_generators(capsys):
    code, out, _ = run(capsys, "cone", "catalog:sl2_mod_T", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["halfspaces"] == [{"fund": [2], "central": []}]
    assert doc["generators"] == [["-1/2"]]
    assert doc["interior_witness"] == ["-1/2"]


def test_cone_bad_vector(capsys):
    assert run(capsys, "cone", "catalog:brion_5_2", "--contains", "1,x")[0] == 2
    assert run(capsys, "cone", "catalog:brion_5_2", "--contains", "1,2")[0] == 2


def test_cone_without_sigma(capsys):
    code, _, err = run(capsys, "cone", "catalog:brion_5_1", "--n", "3")
    assert code == 1
    assert "valuation cone" in err


# ---------------------------------------------------------------- validate

def test_validate_clean(capsys):
    code, out, _ = run(capsys, "validate", "catalog:sl2_mod_T")
    assert code == 0
    assert "0 failed" in out


def test_validate_flags_bad_file(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.write_text(json.dumps({
        "version": "sphdatum/1", "root_system": "A2", "Sp": [],
        "colors": [{"name": "D", "moved_by": ["a1"]}],
        "M": None, "spherical_roots": None, "boundary_count": 0,
    }), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    assert "sp-consistency" in out


# ---------------------------------------------------------------- catalog

def test_catalog_list_table(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for key in ("brion_5_1", "toric", "sl2_mod_U"):
        assert key in out
    assert "needs --n" in out


def test_catalog_list_json(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--json")
    doc = json.loads(out)
    assert code == 0
    keys = {row["key"]: row["parametric"] for row in doc["keys"]}
    assert keys["toric"] is True
    assert keys["brion_5_2"] is False


# sha256 of each answer's JSON object in canonical form (sorted keys, no
# whitespace), as the indented output of earlier releases parsed to
_JSON_OBJECTS = [
    ("roots G2 --json", "75bf6279cb9ebc505cd297f0223e2643cb4c6b2eb247ca0dc22c0b4b5464619d"),
    ("roots A4xB2 --subset a2,a3,a6 --json",
     "da712769cff9ad06eaad4ae85dfbb617164fe89d1c0c263c1c1fcf3e3698da5c"),
    ("kappa catalog:brion_5_1 --n 4 --json",
     "ba66ba486d65cbab2a932d275f34f4fe59aa4ad9ab77b8c44e035f015aff3982"),
    ("types catalog:brion_5_3 --n 4 --json",
     "21102862a69c7b6c0035ca6a97f9128d25d164eba0363495ab81662d8782b9df"),
    ("types catalog:sl2_mod_N --method both --json",
     "b6bf943dd6945bf5b5e9f6afcd43a6d435605d80d900c06238861fd59fc531d2"),
    ("antican catalog:brion_5_4 --n 6 --json",
     "c4d55cb2e350bf78145587cb7c8f9a779b3baf1925e4c84652bba835124a1718"),
    ("verify catalog:brion_5_4 --n 3 --json",
     "a1a39ac0c2d8a6ddf6c17d45803bd73b1c269b28bf589075e3586e34906a168d"),
    ("cone catalog:sl2_mod_T --json",
     "259f2045418d89f97170096c16f1234891aae0a501c851e6e93076efbd7b1dea"),
    ("validate catalog:brion_5_1 --n 3 --json",
     "cc9cf15def847cd1d8381ca06e67fc478c672b6ed83643de25fc414391b9453b"),
    ("catalog list --json", "9f74e9ebd6311c3971f753e4c470cf0633c26b1a7081422858c748a5276bb9fa"),
]


@pytest.mark.parametrize("argv,digest", _JSON_OBJECTS, ids=[a for a, _ in _JSON_OBJECTS])
def test_json_is_one_compact_line_of_the_same_object(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    obj = json.loads(out)
    assert out == json.dumps(obj, separators=(",", ":")) + "\n"
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


def test_every_json_command_is_covered():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    with_json = {name for name, p in sub.choices.items()
                 if "--json" in p._option_string_actions}
    assert with_json == {a.split()[0] for a, _ in _JSON_OBJECTS}


def test_catalog_dump_stays_indented(capsys):
    code, out, _ = run(capsys, "catalog", "dump", "sl2_mod_N", "--json")
    assert code == 0
    assert out == dump_document(builtin("sl2_mod_N", None).datum,
                                builtin("sl2_mod_N", None).presentation) + "\n"
    assert out.startswith('{\n  "version"')


def test_catalog_dump_round_trips_via_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "dump", "sl2_mod_N")
    assert code == 0
    p = tmp_path / "dumped.json"
    p.write_text(out, encoding="utf-8")
    code2, out2, _ = run(capsys, "verify", str(p), "--json")
    assert code2 == 0
    assert json.loads(out2)["pass"] is True


def test_catalog_dump_needs_key(capsys):
    assert run(capsys, "catalog", "dump")[0] == 2


def test_catalog_dump_param_errors(capsys):
    assert run(capsys, "catalog", "dump", "toric")[0] == 2
    assert run(capsys, "catalog", "dump", "brion_5_3", "--n", "99")[0] == 2


# ---------------------------------------------------------------- parity

def test_kappa_json_table_numeric_parity(capsys):
    _, table, _ = run(capsys, "kappa", "catalog:brion_5_4", "--n", "7")
    code, out, _ = run(capsys, "kappa", "catalog:brion_5_4", "--n", "7", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["kappa"]["fund"] == [6, 0, 0, 0, 0, 6]
    assert "(6, 0, 0, 0, 0, 6)" in table
    assert doc["Sp"] == ["a2", "a3", "a4", "a5"]
