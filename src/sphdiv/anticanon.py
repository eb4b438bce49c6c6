"""Anticanonical divisor coefficients, the valuation cone, and verify.

The distinguished anticanonical section has B-weight
kappa = 2 rho_S - 2 rho_{Sp} (rootsys.kappa, re-exported here); its
divisor is sum(m_i D_i) over the colors plus every G-stable boundary
divisor with coefficient 1, where m_i is 1 for colors of type a/2a and
<alpha^vee, kappa> for type b.  An exhaustive bounded search doubles as
an independent uniqueness oracle for the decomposition
kappa = sum(m_i chi_i).  verify runs every check on a datum and returns
a Report that the command line only prints.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .datum import SphericalDatum, validate_datum
from .errors import DatumError, InconsistencyError, InsufficientDataError
from .lunatypes import ColorType
from .report import Finding, Report, sort_findings, vector_text
from .rootsys import Coweight, Weight, kappa, pair

ENUM_MAX_COLORS = 8
ENUM_MAX_BOUND = 12


def color_coefficients(datum: SphericalDatum, colors=None) -> tuple[int, ...]:
    """The divisor coefficients of `colors` (default: every color, in
    order): 1 for types a/2a, and the common value <alpha^vee, kappa>
    over the moving roots for type b.  Every color's type must resolve."""
    kinds = datum.kinds
    out = []
    for color in datum.colors if colors is None else colors:
        if kinds[color.name] is not ColorType.B:
            out.append(1)
            continue
        values = {alpha: pair(alpha, datum.kappa) for alpha in color.moved_by}
        distinct = set(values.values())
        if len(distinct) != 1:
            detail = ", ".join(f"{datum.rs.root_name(a)}->{v}" for a, v in values.items())
            raise InconsistencyError(
                f"color {color.name}: type-b coefficient differs across moving roots ({detail})")
        value = distinct.pop()
        if value.denominator != 1 or value < 1:
            raise InconsistencyError(
                f"color {color.name}: coefficient {value} is not a positive integer")
        out.append(int(value))
    return tuple(out)


def color_coefficient(datum: SphericalDatum, color) -> int:
    """The divisor coefficient of one color, given by name or record."""
    if isinstance(color, str):
        color = datum.color(color)
    return color_coefficients(datum, [color])[0]


@dataclass(frozen=True)
class AnticanonicalDivisor:
    """Coefficients of the anticanonical section's divisor."""
    color_coeffs: tuple[tuple[str, int], ...]
    boundary_count: int
    boundary_coeff: int = 1

    def coefficient(self, name: str) -> int:
        for n, m in self.color_coeffs:
            if n == name:
                return m
        raise KeyError(name)


def anticanonical_divisor(datum: SphericalDatum) -> AnticanonicalDivisor:
    coeffs = color_coefficients(datum)
    return AnticanonicalDivisor(
        tuple((c.name, m) for c, m in zip(datum.colors, coeffs)), datum.boundary_count)


def _chi_sum(datum: SphericalDatum, coeffs) -> tuple[Fraction, ...]:
    """sum(m_i chi_i) on the fundamental coordinates."""
    total = [Fraction(0)] * datum.rs.rank
    for c, m in zip(datum.colors, coeffs):
        for k, x in enumerate(c.chi.fund):
            total[k] += m * x
    return tuple(total)


def verify_decomposition(datum: SphericalDatum) -> bool:
    """Does sum(m_i chi_i) equal kappa on the fundamental coordinates?
    Central parts are ignored; every color must carry chi."""
    missing = [c.name for c in datum.colors if c.chi is None]
    if missing:
        raise InsufficientDataError(f"colors without chi: {', '.join(missing)}")
    return _chi_sum(datum, color_coefficients(datum)) == datum.kappa.fund


def enumerate_positive_solutions(kap: Weight, chis, bound: int) -> list[tuple[int, ...]]:
    """All integer vectors (m_1..m_k), 1 <= m_i <= bound, with
    sum(m_i chi_i) = kappa on fundamental coordinates, in lexicographic
    order.

    This is a deliberately independent exhaustive search (used to certify
    uniqueness of the closed-form coefficients); it prunes branches only
    with sound per-coordinate interval bounds on the remaining partial
    sums, so no solution under the bound can be missed.  Rejected when
    k > 8 or bound > 12.
    """
    chis = list(chis)
    k = len(chis)
    if k > ENUM_MAX_COLORS or bound > ENUM_MAX_BOUND:
        raise ValueError(
            f"enumeration cap exceeded (k={k} > {ENUM_MAX_COLORS} or "
            f"bound={bound} > {ENUM_MAX_BOUND})")
    if bound < 1:
        return []
    n = len(kap.fund)
    cols = []
    for chi in chis:
        if len(chi.fund) != n:
            raise ValueError("chi dimension mismatch")
        cols.append(tuple(chi.fund))
    target = tuple(kap.fund)
    if k == 0:
        return [()] if all(x == 0 for x in target) else []

    # suffix interval bounds per coordinate
    lo = [[Fraction(0)] * n for _ in range(k + 1)]
    hi = [[Fraction(0)] * n for _ in range(k + 1)]
    for j in range(k - 1, -1, -1):
        for c in range(n):
            a, b = cols[j][c], bound * cols[j][c]
            if a > b:
                a, b = b, a
            lo[j][c] = lo[j + 1][c] + a
            hi[j][c] = hi[j + 1][c] + b

    found = []
    partial = [Fraction(0)] * n
    m = [0] * k

    def walk(j):
        for c in range(n):
            rest = target[c] - partial[c]
            if rest < lo[j][c] or rest > hi[j][c]:
                return
        if j == k:
            found.append(tuple(m))
            return
        col = cols[j]
        for v in range(1, bound + 1):
            m[j] = v
            for c in range(n):
                partial[c] += col[c]
            walk(j + 1)
        for c in range(n):
            partial[c] -= bound * col[c]

    walk(0)
    return found


# ------------------------------------------------------------- cone

@dataclass(frozen=True)
class ValuationCone:
    """The cone {v : <v, sigma> <= 0 for every spherical root sigma},
    presented by its defining halfspace weights."""
    halfspaces: tuple[Weight, ...]


def valuation_cone(datum: SphericalDatum) -> ValuationCone:
    if datum.spherical_roots is None:
        raise InsufficientDataError("no spherical roots: valuation cone unknown")
    return ValuationCone(tuple(datum.spherical_roots))


def cone_contains(cone: ValuationCone, v: Coweight) -> bool:
    return all(pair(v, s) <= 0 for s in cone.halfspaces)


def _lift_functionals(datum: SphericalDatum, xs) -> list[Coweight]:
    """For each x, a coweight on the full character space restricting to
    the functional mu_j -> x_j on the lattice basis: a solution v of
    sum_r mu_j[r] v_r = x_j, so the rows of the system are the mu_j."""
    sols = linalg.solve([mu.coords() for mu in datum.lattice_M],
                        datum.rs.rank + datum.rs.central_rank, xs)
    if any(sol is None for sol in sols):
        raise InconsistencyError("lattice basis is dependent, cannot lift")
    return [Coweight(tuple(sol)) for sol in sols]


def cone_generator_directions(datum: SphericalDatum) -> list[Coweight]:
    """Spanning generator directions of the valuation cone as coweights:
    the negated dual basis of the spherical roots plus both signs of a
    basis of the lineality space, all expressed against the M basis."""
    rows = datum.cone_rows()
    m, s = len(datum.lattice_M), len(rows)
    # d_k has <sigma_i, d_k> = delta_{i,k}; the ray is its negation
    duals = linalg.solve(rows, m, [[int(i == k) for i in range(s)] for k in range(s)])
    if any(d is None for d in duals):
        raise InconsistencyError("spherical roots dependent in M coordinates")
    dirs = [[-x for x in d] for d in duals]
    for l in linalg.nullspace(rows, m):
        dirs.append(list(l))
        dirs.append([-x for x in l])
    return _lift_functionals(datum, dirs)


def cone_interior_witness(datum: SphericalDatum) -> Coweight:
    """A point with <v, sigma> = -1 for every spherical root (strictly
    interior when there are any; the origin otherwise)."""
    rows = datum.cone_rows()
    [x] = linalg.solve(rows, len(datum.lattice_M), [[-1] * len(rows)])
    if x is None:
        raise InconsistencyError("spherical roots dependent in M coordinates")
    return _lift_functionals(datum, [x])[0]


def uniqueness_certificate(datum: SphericalDatum) -> bool:
    """True when only mu = 0 pairs to zero with the whole valuation cone,
    i.e. the cone is full-dimensional in Hom(M, Q).  With independent
    spherical roots this always holds: the dual-basis point with every
    pairing -1 is an interior witness."""
    datum.cone_rows()  # raises first when the cone data is missing or inconsistent
    if not datum.sigma_independent:
        raise InconsistencyError("spherical roots dependent: no certificate")
    witness = cone_interior_witness(datum)
    if not cone_contains(valuation_cone(datum), witness):
        raise InconsistencyError("interior witness fell outside the cone")
    return True


def generator_order_shift(datum: SphericalDatum, mu: Weight, nu: Coweight) -> Fraction:
    """Vanishing order along nu of the section scaled by a character mu:
    1 + <nu, mu>.  mu must lie in span(M) when M is given."""
    if datum.lattice_M is not None:
        mvecs = [m.coords() for m in datum.lattice_M]
        if not linalg.in_span(mvecs, mu.coords()):
            raise InsufficientDataError("mu is not in the span of M")
    return Fraction(1) + pair(nu, mu)


# ------------------------------------------------------------- verify

def verify(datum: SphericalDatum, bound: int) -> Report:
    """Every consistency check on a datum: the findings of validate_datum,
    the decomposition kappa = sum(m_i chi_i), the enumeration check that
    no other coefficient vector in [1, bound] solves it, and the cone's
    uniqueness certificate.  A check that lacks its data is skipped, with
    the reason; an inconsistency is a failed finding."""
    findings, skipped = validate_datum(datum), []
    missing_chi = [c.name for c in datum.colors if c.chi is None]
    coeffs = error = None
    if not missing_chi:
        try:
            coeffs = color_coefficients(datum)
        except (InsufficientDataError, InconsistencyError) as exc:
            error = exc

    if missing_chi:
        skipped += [f"decomposition (colors without chi: {', '.join(missing_chi)})",
                    "enumeration (colors without chi)"]
    elif isinstance(error, InsufficientDataError):
        skipped += [f"decomposition ({error})", "enumeration (coefficients unknown)"]
    elif error is not None:
        findings.append(Finding("decomposition", "kappa",
                                "resolvable coefficients", str(error), False))
        skipped.append("enumeration (coefficients unknown)")
    else:
        kap, total = datum.kappa, _chi_sum(datum, coeffs)
        findings.append(Finding("decomposition", "kappa", vector_text(kap.fund),
                                vector_text(total), total == kap.fund))
        if len(datum.colors) > ENUM_MAX_COLORS or bound > ENUM_MAX_BOUND:
            skipped.append(f"enumeration (cap: {ENUM_MAX_COLORS} colors, "
                           f"bound {ENUM_MAX_BOUND})")
        else:
            sols = enumerate_positive_solutions(kap, [c.chi for c in datum.colors], bound)
            findings.append(Finding("enumeration", f"bound {bound}",
                                    str([coeffs]), str(sols), sols == [coeffs]))

    try:
        uniqueness_certificate(datum)
        findings.append(Finding("cone-uniqueness", "valuation cone",
                                "full-dimensional", "full-dimensional", True))
    except InsufficientDataError as exc:
        skipped.append(f"cone-uniqueness ({exc})")
    except DatumError as exc:
        findings.append(Finding("cone-uniqueness", "valuation cone",
                                "full-dimensional", str(exc), False))

    return Report(tuple(sort_findings(findings)), tuple(skipped))
