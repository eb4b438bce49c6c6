"""Loading and dumping full documents (datum plus optional presentation)."""
from __future__ import annotations

import json

from .datum import SphericalDatum, datum_from_json, datum_to_json, parse_json
from .knoplie import LiePresentation, presentation_from_json, presentation_to_json


def load_document(text: str):
    """Parse a document into (datum, presentation-or-None)."""
    doc = parse_json(text)
    datum = datum_from_json(doc)
    pres = None
    if doc.get("presentation") is not None:
        pres = presentation_from_json(doc["presentation"], datum.rs)
    return datum, pres


def document_to_json(datum: SphericalDatum, pres: LiePresentation | None = None) -> dict:
    doc = datum_to_json(datum)
    if pres is not None:
        doc["presentation"] = presentation_to_json(pres)
    return doc


def dump_document(datum: SphericalDatum, pres: LiePresentation | None = None) -> str:
    return json.dumps(document_to_json(datum, pres), indent=2)
