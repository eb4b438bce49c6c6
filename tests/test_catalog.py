"""Built-in examples: every entry reproduces its frozen expected values
and survives the full validation and serialization paths."""
import hashlib
import json

import pytest

from sphdiv.anticanon import color_coefficient, kappa, verify_decomposition
from sphdiv.catalog import MAX_PARAM, builtin, catalog_keys
from sphdiv.datum import datum_to_json, parse_datum, serialize_datum, validate_datum
from sphdiv.docio import dump_document, load_document
from sphdiv.knoplie import (open_orbit_check, presentation_to_json,
                            validate_presentation)
from sphdiv.lunatypes import resolved_types
from sphdiv.report import all_passed

ALL_ENTRIES = [
    ("toric", 0), ("toric", 1), ("toric", 4),
    ("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
    ("brion_5_1", 2), ("brion_5_1", 3), ("brion_5_1", 6),
    ("brion_5_2", None),
    ("brion_5_3", 3), ("brion_5_3", 7),
    ("brion_5_4", 3), ("brion_5_4", 8), ("brion_5_4", 10),
]


def test_catalog_keys():
    assert catalog_keys() == ["brion_5_1", "brion_5_2", "brion_5_3", "brion_5_4",
                              "sl2_mod_N", "sl2_mod_T", "sl2_mod_U", "toric"]


@pytest.mark.parametrize("key,n", ALL_ENTRIES)
def test_entry_reproduces_expected(key, n):
    entry = builtin(key, n)
    d = entry.datum
    assert tuple(color_coefficient(d, c) for c in d.colors) == entry.expected.m
    if d.colors:
        types = resolved_types(d)
        assert tuple(types[c.name].value for c in d.colors) == entry.expected.types
    assert kappa(d.rs, d.Sp).fund == entry.expected.kappa_fund


@pytest.mark.parametrize("key,n", ALL_ENTRIES)
def test_entry_validates_clean(key, n):
    entry = builtin(key, n)
    assert all_passed(validate_datum(entry.datum))
    if entry.datum.colors and all(c.chi is not None for c in entry.datum.colors):
        assert verify_decomposition(entry.datum)


@pytest.mark.parametrize("key,n", ALL_ENTRIES)
def test_entry_presentations_check_out(key, n):
    entry = builtin(key, n)
    if entry.presentation is None:
        return
    validate_presentation(entry.presentation)
    assert open_orbit_check(entry.presentation)


@pytest.mark.parametrize("key,n", ALL_ENTRIES)
def test_entry_provenance_vocabulary(key, n):
    entry = builtin(key, n)
    assert entry.expected.provenance
    for field, tag in entry.expected.provenance:
        assert tag in ("stated", "derived", "trivial"), (field, tag)


def test_entry_params_recorded():
    assert builtin("brion_5_1", 4).params == (("n", 4),)
    assert builtin("toric", 3).params == (("r", 3),)
    assert builtin("brion_5_2", None).params == ()


# ---------------------------------------------------------------- parameters

def test_parametric_key_requires_n():
    with pytest.raises(ValueError, match="needs a parameter"):
        builtin("brion_5_1", None)


def test_fixed_key_rejects_n():
    with pytest.raises(ValueError, match="takes no parameter"):
        builtin("brion_5_2", 3)


@pytest.mark.parametrize("key,bad", [
    ("brion_5_1", 1), ("brion_5_3", 2), ("brion_5_4", 2), ("toric", -1),
    ("brion_5_1", MAX_PARAM + 1), ("toric", MAX_PARAM + 1),
])
def test_parameter_range(key, bad):
    with pytest.raises(ValueError, match="outside"):
        builtin(key, bad)


def test_unknown_key():
    with pytest.raises(ValueError, match="unknown catalog key"):
        builtin("nope", None)


# ---------------------------------------------------------------- round trip

@pytest.mark.parametrize("key,n", ALL_ENTRIES)
def test_dump_document_round_trips(key, n):
    entry = builtin(key, n)
    text = dump_document(entry.datum, entry.presentation)
    datum, pres = load_document(text)
    assert datum_to_json(datum) == datum_to_json(entry.datum)
    if entry.presentation is None:
        assert pres is None
    else:
        assert presentation_to_json(pres) == presentation_to_json(entry.presentation)
    # the dumped text parses as a bare datum too (presentation tolerated)
    assert datum_to_json(parse_datum(text)) == datum_to_json(entry.datum)


# sha256 of dump_document for every entry with a presentation, n <= 5:
# the bytes of a dumped document are part of the format
DUMP_SHA256 = {
    ("sl2_mod_T", None): "c4343e04b192fd506bfc28ae036fd5e8d9bfe55c56640f71eba779bb155f6222",
    ("sl2_mod_N", None): "393a1da88950297ad413d87e373866b760113cfd274d6872f07f5d236965b809",
    ("sl2_mod_U", None): "d20f0f221566c1f8d2c06a0effcf05e8e023d9351657345e9468b83ac076b06c",
    ("brion_5_2", None): "522b4b27f8dad0e01b42e9e97f19feb1fe9f3bd395bc83b11f1d4234df82dc95",
    ("brion_5_1", 2): "26e225b7aad57b7911d8103504dd84d51e963e4f22b8d20d8b321d1e87960419",
    ("brion_5_1", 3): "42dd6d7bd2cddfc627685cb4b9236d7db681e834de97cffa6e4adb43f1245683",
    ("brion_5_1", 4): "49ffb05ff76b7dcec3348fc009992f851daf25554a5511cf41dba0694eb968a2",
    ("brion_5_1", 5): "bacb02915d57212e6beb25a8d9e9b8db9e34275b8e7ac5b3c963b37a5b8ffb12",
}


@pytest.mark.parametrize("key,n", list(DUMP_SHA256))
def test_dump_document_is_byte_stable(key, n):
    entry = builtin(key, n)
    assert entry.presentation is not None
    text = dump_document(entry.datum, entry.presentation)
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_SHA256[key, n]


def test_byte_stable_dumps_cover_every_presentation():
    entries = set()
    for key in catalog_keys():
        for n in [None] + list(range(6)):
            try:
                entry = builtin(key, n)
            except ValueError:
                continue
            if entry.presentation is not None:
                entries.add((key, n))
    assert entries == set(DUMP_SHA256)


def test_dump_is_valid_json_with_stable_top_level():
    doc = json.loads(dump_document(builtin("brion_5_2", None).datum,
                                   builtin("brion_5_2", None).presentation))
    assert set(doc) == {"version", "root_system", "Sp", "colors", "M",
                        "spherical_roots", "boundary_count", "presentation"}


def test_serialize_datum_round_trip_entirety():
    for key, n in ALL_ENTRIES:
        d = builtin(key, n).datum
        assert datum_to_json(parse_datum(serialize_datum(d))) == datum_to_json(d)
