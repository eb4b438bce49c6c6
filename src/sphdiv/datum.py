"""Spherical datum records and their JSON document format.

A datum bundles a root system with its colors (each knowing which simple
roots move it, optionally a declared type a/2a/b, a B-weight chi of its
equation, and an image coweight), the set Sp of roots moving no color,
an optional lattice basis M, optional spherical roots, and a count of
G-stable boundary divisors.

Document format (version "sphdatum/1"): see parse_datum.  Rationals are
written as ints when integral and as "p/q" strings otherwise; both forms
plus bare "p" strings are accepted on input.  Floats are rejected.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import DatumError, SchemaError
from .lunatypes import chi_pairing_findings, classify_luna, resolved_types
from .report import Finding, sort_findings
from .rootsys import Coweight, RootSystem, Weight, build_root_system, pair

SCHEMA_VERSION = "sphdatum/1"

_TYPE_TAGS = ("a", "2a", "b")


@dataclass(frozen=True)
class ColorRecord:
    name: str
    moved_by: tuple[int, ...]
    declared_type: str | None = None
    chi: Weight | None = None
    rho_D: Coweight | None = None

    def __post_init__(self):
        object.__setattr__(self, "moved_by", tuple(sorted(set(self.moved_by))))


@dataclass(frozen=True)
class SphericalDatum:
    rs: RootSystem
    Sp: frozenset
    colors: tuple[ColorRecord, ...]
    lattice_M: tuple[Weight, ...] | None = None
    spherical_roots: tuple[Weight, ...] | None = None
    boundary_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "Sp", frozenset(self.Sp))

    def color(self, name: str) -> ColorRecord:
        for c in self.colors:
            if c.name == name:
                return c
        raise KeyError(name)


def compute_Sp(datum: SphericalDatum) -> frozenset:
    """Simple roots that move no color at all."""
    moved = set()
    for c in datum.colors:
        moved.update(c.moved_by)
    return frozenset(range(datum.rs.rank)) - moved


def delta_of(datum: SphericalDatum, i: int) -> tuple[ColorRecord, ...]:
    """The colors moved by the i-th simple root."""
    return tuple(c for c in datum.colors if i in c.moved_by)


# ------------------------------------------------------------- rationals

def rational_to_json(x):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def rational_from_json(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise SchemaError(f"{where}: expected a rational, got a bool")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        raise SchemaError(f"{where}: floats are not accepted, write '{v}' as 'p/q'")
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{where}: bad rational literal {v!r}") from None
    raise SchemaError(f"{where}: expected a rational, got {type(v).__name__}")


def weight_to_json(w: Weight) -> dict:
    return {"fund": [rational_to_json(x) for x in w.fund],
            "central": [rational_to_json(x) for x in w.central]}


def weight_from_json(obj, rs: RootSystem, where: str) -> Weight:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a weight object")
    unknown = set(obj) - {"fund", "central"}
    if unknown:
        raise SchemaError(f"{where}: unknown weight fields {sorted(unknown)}")
    fund = obj.get("fund")
    if not isinstance(fund, list):
        raise SchemaError(f"{where}.fund: expected a list")
    central = obj.get("central", [])
    if not isinstance(central, list):
        raise SchemaError(f"{where}.central: expected a list")
    if len(fund) != rs.rank:
        raise SchemaError(f"{where}.fund: expected {rs.rank} coordinates, got {len(fund)}")
    if len(central) != rs.central_rank:
        raise SchemaError(f"{where}.central: expected {rs.central_rank} coordinates, "
                          f"got {len(central)}")
    return Weight(tuple(rational_from_json(x, f"{where}.fund[{i}]") for i, x in enumerate(fund)),
                  tuple(rational_from_json(x, f"{where}.central[{i}]") for i, x in enumerate(central)))


def coweight_to_json(cw: Coweight) -> list:
    return [rational_to_json(x) for x in cw.coords]


def coweight_from_json(obj, rs: RootSystem, where: str) -> Coweight:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a coordinate list")
    want = rs.rank + rs.central_rank
    if len(obj) != want:
        raise SchemaError(f"{where}: expected {want} coordinates, got {len(obj)}")
    return Coweight(tuple(rational_from_json(x, f"{where}[{i}]") for i, x in enumerate(obj)))


# ------------------------------------------------------------- documents

_TOP_FIELDS = {"version", "root_system", "Sp", "colors", "M",
               "spherical_roots", "boundary_count", "presentation"}


def _root_index(rs: RootSystem, name, where: str) -> int:
    if not isinstance(name, str):
        raise SchemaError(f"{where}: expected a simple-root name string")
    try:
        return rs.root_index(name)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def parse_datum(text: str) -> SphericalDatum:
    """Parse a datum document.

    The document is a JSON object:

        {"version": "sphdatum/1",
         "root_system": "A2xA2",
         "Sp": ["a2"],
         "colors": [{"name": "D1", "moved_by": ["a1"], "type": "b",
                     "chi": {"fund": [...], "central": [...]}, "rho": [...]}],
         "M": [<weight>...] | null,
         "spherical_roots": [<weight>...] | null,
         "boundary_count": 0}

    "type", "chi" and "rho" may be null or omitted.  An optional
    "presentation" block is tolerated here and read separately (see
    docio.load_document).  Errors carry the offending field path.
    """
    return datum_from_json(parse_json(text))


def parse_json(text: str):
    """The JSON value of a document's text; malformed JSON is a SchemaError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from None


def datum_from_json(doc) -> SphericalDatum:
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise SchemaError(f"top level: unknown fields {sorted(unknown)}")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"version: expected {SCHEMA_VERSION!r}, got {version!r}")
    if "root_system" not in doc:
        raise SchemaError("root_system: missing")
    try:
        rs = build_root_system(str(doc["root_system"]))
    except ValueError as exc:
        raise SchemaError(f"root_system: {exc}") from None

    sp_raw = doc.get("Sp", [])
    if not isinstance(sp_raw, list):
        raise SchemaError("Sp: expected a list of simple-root names")
    Sp = frozenset(_root_index(rs, n, f"Sp[{i}]") for i, n in enumerate(sp_raw))

    colors_raw = doc.get("colors", [])
    if not isinstance(colors_raw, list):
        raise SchemaError("colors: expected a list")
    colors = []
    seen = set()
    for ci, cobj in enumerate(colors_raw):
        where = f"colors[{ci}]"
        if not isinstance(cobj, dict):
            raise SchemaError(f"{where}: expected an object")
        unknown = set(cobj) - {"name", "moved_by", "type", "chi", "rho"}
        if unknown:
            raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")
        name = cobj.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where}.name: expected a nonempty string")
        if name in seen:
            raise SchemaError(f"{where}.name: duplicate color name {name!r}")
        seen.add(name)
        moved_raw = cobj.get("moved_by")
        if not isinstance(moved_raw, list) or not moved_raw:
            raise SchemaError(f"{where}.moved_by: expected a nonempty list")
        moved = tuple(_root_index(rs, n, f"{where}.moved_by[{i}]")
                      for i, n in enumerate(moved_raw))
        tp = cobj.get("type")
        if tp is not None and tp not in _TYPE_TAGS:
            raise SchemaError(f"{where}.type: expected one of {_TYPE_TAGS} or null")
        chi = cobj.get("chi")
        if chi is not None:
            chi = weight_from_json(chi, rs, f"{where}.chi")
        rho_D = cobj.get("rho")
        if rho_D is not None:
            rho_D = coweight_from_json(rho_D, rs, f"{where}.rho")
        colors.append(ColorRecord(name, moved, tp, chi, rho_D))

    def weight_list(key):
        raw = doc.get(key)
        if raw is None:
            return None
        if not isinstance(raw, list):
            raise SchemaError(f"{key}: expected a list of weights or null")
        return tuple(weight_from_json(w, rs, f"{key}[{i}]") for i, w in enumerate(raw))

    lattice_M = weight_list("M")
    sigma = weight_list("spherical_roots")

    if sigma:
        vecs = [s.coords() for s in sigma]
        if linalg.rank(vecs) < len(sigma):
            raise SchemaError("spherical_roots: not linearly independent")
        if lattice_M is not None:
            outside = outside_lattice_m(lattice_M, sigma)
            if outside:
                raise SchemaError(f"spherical_roots[{outside[0]}]: not in the lattice M")
    if lattice_M is not None:
        for ci, c in enumerate(colors):
            if c.rho_D is not None and not in_lattice_n(lattice_M, c.rho_D):
                raise SchemaError(f"colors[{ci}].rho: not in N = Hom(M, Z)")

    bc = doc.get("boundary_count", 0)
    if not isinstance(bc, int) or isinstance(bc, bool) or bc < 0:
        raise SchemaError("boundary_count: expected a nonnegative integer")

    return SphericalDatum(rs, Sp, tuple(colors), lattice_M, sigma, bc)


def datum_to_json(datum: SphericalDatum) -> dict:
    rs = datum.rs
    doc = {
        "version": SCHEMA_VERSION,
        "root_system": str(rs.spec),
        "Sp": [rs.root_name(i) for i in sorted(datum.Sp)],
        "colors": [],
        "M": None if datum.lattice_M is None
             else [weight_to_json(w) for w in datum.lattice_M],
        "spherical_roots": None if datum.spherical_roots is None
                           else [weight_to_json(w) for w in datum.spherical_roots],
        "boundary_count": datum.boundary_count,
    }
    for c in datum.colors:
        doc["colors"].append({
            "name": c.name,
            "moved_by": [rs.root_name(i) for i in c.moved_by],
            "type": c.declared_type,
            "chi": None if c.chi is None else weight_to_json(c.chi),
            "rho": None if c.rho_D is None else coweight_to_json(c.rho_D),
        })
    return doc


def serialize_datum(datum: SphericalDatum) -> str:
    return json.dumps(datum_to_json(datum), indent=2)


# ------------------------------------------------------------- lattices

def outside_lattice_m(lattice_M, weights) -> list[int]:
    """Indices of the weights outside the lattice M.  With M a basis, a
    weight lies in M exactly when its unique rational coordinates in that
    basis are integers.  A dependent M has no unique coordinates; there
    only the span is tested, and the cone code rejects such an M."""
    mvecs = [m.coords() for m in lattice_M]
    out = []
    for i, w in enumerate(weights):
        x = linalg.solve_columns(mvecs, w.coords())
        if x is None or (any(c.denominator != 1 for c in x)
                         and linalg.rank(mvecs) == len(mvecs)):
            out.append(i)
    return out


def in_lattice_n(lattice_M, rho_D: Coweight) -> bool:
    """Whether a coweight lies in N = Hom(M, Z): integral on every
    generator of M."""
    return all(pair(rho_D, m).denominator == 1 for m in lattice_M)


# ------------------------------------------------------------- validation

def validate_datum(datum: SphericalDatum, kinds=None) -> list[Finding]:
    """Semantic consistency findings, deterministic and order-independent.

    Covers: Sp recomputation, |Delta(alpha)| <= 2, moved_by disjoint from
    Sp, independence and M-membership of the spherical roots,
    N-membership of the colors' rho, agreement
    of declared types with the spherical-root classification, and the
    chi pairing table when enough data is present.

    `kinds` passes down color types the caller has already resolved, or
    {} when they do not resolve; when omitted they are resolved here.
    """
    rs = datum.rs
    out = []

    recomputed = compute_Sp(datum)
    out.append(Finding("sp-consistency", "Sp",
                       "{" + ", ".join(sorted(rs.root_name(i) for i in recomputed)) + "}",
                       "{" + ", ".join(sorted(rs.root_name(i) for i in datum.Sp)) + "}",
                       recomputed == datum.Sp))

    bad = sorted(rs.root_name(i) for i in range(rs.rank)
                 if len(delta_of(datum, i)) > 2)
    out.append(Finding("delta-bound", ",".join(bad) or "all roots",
                       "at most 2 colors per moving root",
                       "violated by " + ", ".join(bad) if bad else "ok", not bad))

    overlap = sorted(rs.root_name(i) for c in datum.colors
                     for i in c.moved_by if i in datum.Sp)
    out.append(Finding("moved-by-disjoint-sp", ",".join(overlap) or "all colors",
                       "no color moved by a root in Sp",
                       "violated at " + ", ".join(overlap) if overlap else "ok",
                       not overlap))

    empty = sorted(c.name for c in datum.colors if not c.moved_by)
    out.append(Finding("moved-by-nonempty", ",".join(empty) or "all colors",
                       "every color moved by some root",
                       "empty at " + ", ".join(empty) if empty else "ok", not empty))

    if datum.spherical_roots is not None and datum.spherical_roots:
        vecs = [s.coords() for s in datum.spherical_roots]
        ok = linalg.rank(vecs) == len(vecs)
        out.append(Finding("sigma-independent", "spherical_roots",
                           "linearly independent", "ok" if ok else "dependent", ok))
        if datum.lattice_M is not None:
            outside = outside_lattice_m(datum.lattice_M, datum.spherical_roots)
            out.append(Finding("sigma-in-lattice-m", "spherical_roots",
                               "contained in the lattice M",
                               "ok" if not outside else f"outside at indices {outside}",
                               not outside))

    if datum.lattice_M is not None:
        for c in datum.colors:
            if c.rho_D is not None:
                ok = in_lattice_n(datum.lattice_M, c.rho_D)
                out.append(Finding("rho-in-lattice-n", c.name, "integral on M",
                                   "ok" if ok else "not integral on M", ok))

    declared = [c for c in datum.colors if c.declared_type is not None]
    if kinds is None and (datum.spherical_roots is not None and declared
                          or any(c.chi is not None for c in datum.colors)):
        try:
            kinds = resolved_types(datum)
        except DatumError:
            kinds = {}

    if datum.spherical_roots is not None:
        # resolved kinds agree with every declared type; only when they
        # did not resolve is each declared color classified on its own
        for c in declared:
            try:
                luna = (kinds[c.name] if kinds else classify_luna(datum, c)).value
                out.append(Finding("declared-vs-luna", c.name, c.declared_type, luna,
                                   luna == c.declared_type))
            except DatumError as exc:
                out.append(Finding("declared-vs-luna", c.name, c.declared_type,
                                   f"unclassifiable ({exc})", False))

    if kinds:
        out.extend(chi_pairing_findings(datum, kinds))

    return sort_findings(out)
