"""Color types from spherical roots, and the pairing-table audits.

A color moved by alpha is type a when alpha itself is a spherical root,
type 2a when 2*alpha is, and type b otherwise.  The pairing table this
induces on color weights: a member pairing is 1 (types a and b) or 2
(type 2a), a non-member pairing is 0, and every a/2a moving root pairs
to 2 against the anticanonical weight.
"""
from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from .errors import InconsistencyError, InsufficientDataError
from .report import Finding, sort_findings
from .rootsys import pair

if TYPE_CHECKING:  # datum imports this module to validate types
    from .datum import ColorRecord, SphericalDatum


class ColorType(str, Enum):
    A = "a"
    TWO_A = "2a"
    B = "b"


def _classify_single(datum: SphericalDatum, alpha: int) -> ColorType:
    root = datum.rs.simple_root_weight(alpha)
    sigma = datum.spherical_roots
    if root in sigma:
        return ColorType.A
    if root.scale(2) in sigma:
        return ColorType.TWO_A
    return ColorType.B


def classify_luna(datum: SphericalDatum, color: ColorRecord) -> ColorType:
    """Classify a color from the spherical roots; every moving root must
    give the same answer, else the datum is inconsistent."""
    if datum.spherical_roots is None:
        raise InsufficientDataError(
            f"color {color.name}: no spherical roots given, cannot classify")
    kinds = {alpha: _classify_single(datum, alpha) for alpha in color.moved_by}
    distinct = set(kinds.values())
    if len(distinct) != 1:
        detail = ", ".join(f"{datum.rs.root_name(a)}->{k.value}" for a, k in kinds.items())
        raise InconsistencyError(
            f"color {color.name}: moving roots disagree on type ({detail})")
    return distinct.pop()


def resolved_types(datum: SphericalDatum) -> dict[str, ColorType]:
    """Declared types where present, spherical-root classification
    otherwise; a disagreement between the two is an inconsistency."""
    out = {}
    for c in datum.colors:
        declared = ColorType(c.declared_type) if c.declared_type else None
        luna = None
        if datum.spherical_roots is not None:
            luna = classify_luna(datum, c)
        if declared and luna and declared is not luna:
            raise InconsistencyError(
                f"color {c.name}: declared type {declared.value} but spherical "
                f"roots give {luna.value}")
        kind = declared or luna
        if kind is None:
            raise InsufficientDataError(
                f"color {c.name}: no declared type and no spherical roots")
        out[c.name] = kind
    return out


def expected_chi_pairing(kind: ColorType, member: bool) -> int:
    """Table value for <alpha^vee, chi_D>: alpha moving D gives 1 for
    types a and b and 2 for type 2a; alpha not moving D gives 0."""
    if not member:
        return 0
    return 2 if kind is ColorType.TWO_A else 1


def chi_pairing_findings(datum: SphericalDatum, kinds: dict[str, ColorType]) -> list[Finding]:
    """One finding per color carrying chi and simple root outside Sp:
    does <alpha^vee, chi> match the table value for the color's type?"""
    rs = datum.rs
    off_sp = [i for i in range(rs.rank) if i not in datum.Sp]
    out = []
    for c in datum.colors:
        if c.chi is None:
            continue
        for i in off_sp:
            want = expected_chi_pairing(kinds[c.name], i in c.moved_by)
            got = pair(i, c.chi)
            out.append(Finding("chi-pairing", f"{c.name}:{rs.root_name(i)}",
                               str(want), str(got), got == want))
    return out


def audit_pairings(datum: SphericalDatum) -> list[Finding]:
    """Check the chi pairing table, the <alpha^vee, kappa> = 2 rule for
    a/2a moving roots, and orthogonality of Sp against the lattice M.

    Types must be resolvable (declared or from spherical roots).
    """
    rs = datum.rs
    kinds = datum.kinds
    out = chi_pairing_findings(datum, kinds)

    for c in datum.colors:
        if kinds[c.name] is ColorType.B:
            continue
        for i in c.moved_by:
            got = pair(i, datum.kappa)
            out.append(Finding("kappa-pairing", f"{c.name}:{rs.root_name(i)}",
                               "2", str(got), got == 2))

    if datum.lattice_M is not None:
        for i in sorted(datum.Sp):
            for j, mu in enumerate(datum.lattice_M):
                got = pair(i, mu)
                out.append(Finding("sp-orthogonality", f"{rs.root_name(i)}:M[{j}]",
                                   "0", str(got), got == 0))

    return sort_findings(out)
