"""Command-line front end: root-system listings, color types, the
anticanonical decomposition, and consistency checks on datum files.

Datum arguments accept either a path to a JSON document or
``catalog:KEY`` (with ``--n`` for the parametric keys).  Exit codes:
0 on success, 1 when the datum is inconsistent or lacks the data a
command needs, 2 on usage and schema errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .anticanon import (
    anticanonical_divisor,
    cone_contains,
    cone_generator_directions,
    cone_interior_witness,
    valuation_cone,
    verify,
)
from .catalog import _PARAMETRIC, builtin, catalog_keys
from .datum import rational_to_json, validate_datum, weight_to_json
from .docio import dump_document, load_document
from .errors import DatumError, InsufficientDataError, SchemaError
from .knoplie import classify_knop
from .lunatypes import classify_luna
from .report import Report, vector_text
from .rootsys import Coweight, build_root_system, pair, parse_spec, positive_roots


class _UsageError(Exception):
    """Bad invocation (unknown catalog key, malformed vector, ...)."""


# --------------------------------------------------------- input helpers

def _load_source(source: str, n=None):
    """Resolve a datum argument into (datum, presentation), where
    presentation() gives the presentation or None.

    A catalog entry builds its presentation only when that is called; a
    document's is always parsed and checked on load, so that a malformed
    one is reported whatever the command."""
    if source.startswith("catalog:"):
        key = source[len("catalog:"):]
        try:
            entry = builtin(key, n)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        return entry.datum, lambda: entry.presentation
    if n is not None:
        raise _UsageError("--n only applies to catalog: sources")
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(str(exc)) from None
    datum, pres = load_document(text)
    return datum, lambda: pres


def _parse_coweight(text: str, dim: int) -> Coweight:
    parts = [p.strip() for p in text.split(",")]
    try:
        coords = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad coweight {text!r}: {exc}") from None
    if len(coords) != dim:
        raise _UsageError(f"coweight {text!r} has {len(coords)} entries, need {dim}")
    return Coweight(coords)


# --------------------------------------------------------- output helpers

def _vec_json(xs) -> list:
    return [rational_to_json(x) for x in xs]


def _emit(args, doc: dict, table) -> None:
    """Print `doc` as one line of compact JSON under --json, else the table."""
    if args.json:
        print(json.dumps(doc, separators=(",", ":")))
    else:
        table()


def _emit_report(args, report: Report) -> int:
    findings = report.findings

    def table():
        width = max((len(f.check) for f in findings), default=0)
        subj = max((len(f.subject) for f in findings), default=0)
        for f in findings:
            tag = "pass" if f.passed else "FAIL"
            print(f"{tag}  {f.check:<{width}}  {f.subject:<{subj}}  "
                  f"expected {f.expected}  actual {f.actual}")
        for reason in report.skipped:
            print(f"skip  {reason}")
        good = sum(1 for f in findings if f.passed)
        print(f"{len(findings)} checks, {good} passed, {len(findings) - good} failed")

    _emit(args, report.to_json(), table)
    return 0 if report.passed else 1


# --------------------------------------------------------- subcommands

def _cmd_roots(args) -> int:
    try:
        rs = build_root_system(parse_spec(args.spec))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    subset = None
    if args.subset is not None:
        names = [s.strip() for s in args.subset.split(",") if s.strip()]
        try:
            subset = [rs.root_index(name) for name in names]
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    roots = positive_roots(rs, subset)

    def expr(root) -> str:
        parts = []
        for i, c in enumerate(root.simple_coeffs):
            if c:
                name = rs.root_name(i)
                parts.append(name if c == 1 else f"{c}{name}")
        return "+".join(parts) or "0"

    doc = {
        "spec": str(rs.spec),
        "count": len(roots),
        "roots": [{"expr": expr(r), "coeffs": list(r.simple_coeffs),
                   "height": r.height} for r in roots],
    }

    def table():
        print(f"{rs.spec}: {len(roots)} positive roots")
        for r in roots:
            print(f"  {expr(r):<24} coeffs={vector_text(r.simple_coeffs)} height={r.height}")

    _emit(args, doc, table)
    return 0


def _cmd_kappa(args) -> int:
    datum, _ = _load_source(args.datum, args.n)
    kap = datum.kappa
    doc = {
        "spec": str(datum.rs.spec),
        "Sp": sorted(datum.rs.root_name(i) for i in datum.Sp),
        "kappa": weight_to_json(kap),
    }

    def table():
        print(f"kappa = {vector_text(kap.fund)} in fundamental-weight coordinates")
        for i in range(datum.rs.rank):
            name = datum.rs.root_name(i)
            mark = "  [in Sp]" if i in datum.Sp else ""
            print(f"  <{name}^, kappa> = {pair(i, kap)}{mark}")

    _emit(args, doc, table)
    return 0


def _cmd_types(args) -> int:
    datum, presentation = _load_source(args.datum, args.n)
    luna = knop = None
    if args.method in ("luna", "both"):
        luna = {c.name: classify_luna(datum, c).value for c in datum.colors}
    if args.method in ("knop", "both"):
        pres = presentation()
        if pres is None:
            raise InsufficientDataError("document carries no presentation")
        knop = {c.name: classify_knop(pres, datum, c).value for c in datum.colors}

    if args.method == "both":
        agree = luna == knop
        doc = {"luna": luna, "knop": knop, "agree": agree}

        def table():
            for c in datum.colors:
                ok = "agree" if luna[c.name] == knop[c.name] else "DISAGREE"
                print(f"{c.name}  luna={luna[c.name]}  knop={knop[c.name]}  {ok}")

        _emit(args, doc, table)
        return 0 if agree else 1

    types = luna if args.method == "luna" else knop
    doc = {"method": args.method, "types": types}

    def table():
        for c in datum.colors:
            print(f"{c.name}  {types[c.name]}")

    _emit(args, doc, table)
    return 0


def _cmd_antican(args) -> int:
    datum, _ = _load_source(args.datum, args.n)
    div = anticanonical_divisor(datum)
    doc = {
        "colors": [{"name": n, "coeff": m} for n, m in div.color_coeffs],
        "boundary_count": div.boundary_count,
        "boundary_coeff": div.boundary_coeff,
    }

    def table():
        terms = [f"{m} {n}" if m != 1 else n for n, m in div.color_coeffs]
        if div.boundary_count:
            terms.append(f"[{div.boundary_count} boundary components]")
        print("Div s = " + (" + ".join(terms) if terms else "0"))
        for n, m in div.color_coeffs:
            print(f"  {n}  {m}")
        print(f"  boundary components: {div.boundary_count} "
              f"(coefficient {div.boundary_coeff} each)")

    _emit(args, doc, table)
    return 0


def _cmd_verify(args) -> int:
    if args.bound < 1:
        raise _UsageError("--bound must be at least 1")
    datum, _ = _load_source(args.datum, args.n)
    return _emit_report(args, verify(datum, args.bound))


def _cmd_cone(args) -> int:
    datum, _ = _load_source(args.datum, args.n)
    cone = valuation_cone(datum)
    dim = datum.rs.rank + datum.rs.central_rank
    doc = {"halfspaces": [weight_to_json(s) for s in cone.halfspaces]}
    unavailable = None
    gens = witness = None
    try:
        gens = cone_generator_directions(datum)
        witness = cone_interior_witness(datum)
        doc["generators"] = [_vec_json(g.coords) for g in gens]
        doc["interior_witness"] = _vec_json(witness.coords)
    except InsufficientDataError as exc:
        unavailable = str(exc)
        doc["generators"] = doc["interior_witness"] = None
        doc["unavailable"] = unavailable
    contains = None
    if args.contains is not None:
        v = _parse_coweight(args.contains, dim)
        contains = cone_contains(cone, v)
        doc["contains"] = {"coweight": _vec_json(v.coords), "answer": contains}

    def table():
        print("halfspaces <v, sigma> <= 0 for sigma in:")
        for s in cone.halfspaces:
            print(f"  {vector_text(s.fund)} [fund coords]")
        if unavailable is None:
            print("generator directions:")
            for g in gens:
                print(f"  {vector_text(g.coords)}")
            print(f"interior witness: {vector_text(witness.coords)}")
        else:
            print(f"generators/witness unavailable: {unavailable}")
        if contains is not None:
            print(f"contains {args.contains}: {'yes' if contains else 'no'}")

    _emit(args, doc, table)
    return 0


def _cmd_validate(args) -> int:
    datum, _ = _load_source(args.datum, args.n)
    return _emit_report(args, Report(tuple(validate_datum(datum))))


def _cmd_catalog(args) -> int:
    if args.action == "list":
        keys = catalog_keys()

        def table():
            for k in keys:
                note = "  (parametric, needs --n)" if k in _PARAMETRIC else ""
                print(f"{k}{note}")

        _emit(args, {"keys": [{"key": k, "parametric": k in _PARAMETRIC} for k in keys]},
              table)
        return 0
    datum, presentation = _load_source(f"catalog:{args.key}", args.n)
    print(dump_document(datum, presentation()))
    return 0


# --------------------------------------------------------- parser / main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphdiv",
        description="Inspect spherical datums and their anticanonical divisors.")
    sub = parser.add_subparsers(dest="command", required=True)

    jsonish = argparse.ArgumentParser(add_help=False)
    jsonish.add_argument("--json", action="store_true",
                         help="emit JSON instead of a table")

    datumish = argparse.ArgumentParser(add_help=False)
    datumish.add_argument("datum",
                          help="JSON document path, or catalog:KEY")
    datumish.add_argument("--n", type=int, default=None,
                          help="parameter for parametric catalog keys")

    p = sub.add_parser("roots", parents=[jsonish],
                       help="list the positive roots of a root-system spec")
    p.add_argument("spec", help='root-system spec, e.g. "A4xB3+T1"')
    p.add_argument("--subset", default=None,
                   help="comma-separated simple roots, e.g. a2,a3")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("kappa", parents=[datumish, jsonish],
                       help="print the weight kappa attached to the datum")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("types", parents=[datumish, jsonish],
                       help="classify the colors of the datum")
    p.add_argument("--method", choices=("luna", "knop", "both"), default="luna")
    p.set_defaults(func=_cmd_types)

    p = sub.add_parser("antican", parents=[datumish, jsonish],
                       help="print the anticanonical divisor")
    p.set_defaults(func=_cmd_antican)

    p = sub.add_parser("verify", parents=[datumish, jsonish],
                       help="run all consistency checks on the datum")
    p.add_argument("--bound", type=int, default=10,
                   help="search bound for the enumeration check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cone", parents=[datumish, jsonish],
                       help="describe the valuation cone")
    p.add_argument("--contains", default=None, metavar="V",
                   help='comma-separated coweight; use --contains="-1,0,0" '
                        "when the first entry is negative")
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("validate", parents=[datumish, jsonish],
                       help="check the datum for internal consistency")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("catalog", parents=[jsonish],
                       help="list or dump the built-in examples")
    p.add_argument("action", choices=("list", "dump"))
    p.add_argument("key", nargs="?", default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "catalog" and args.action == "dump" \
            and args.key is None:
        print("error: catalog dump needs a KEY", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is left, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except DatumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
