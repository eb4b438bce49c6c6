"""Color types from exact Lie-algebra presentations.

A presentation realizes the ambient algebra as block-diagonal rational
matrices (blocks of size >= 2 are traceless, size-1 blocks are central),
with the subalgebra h of the generic stabilizer, a Borel subalgebra b,
and an sl2 triple (e, h, f) for every simple root.  For a simple root
alpha outside Sp the stabilizer meets the minimal parabolic
p_alpha = b + span{f_alpha}; projecting it to the alpha-sl2 and
classifying the span decides the color type:

    span dim 3                    -> whole sl2 (only legal inside Sp)
    span dim 2, or dim 1 nilpotent -> contains a nilpotent -> type b
    span dim 1 semisimple          -> torus-like -> type a or 2a

The projection of p_alpha onto its sl2 along the radical needs no basis
of the radical.  The trace form tr(xy) of the matrix model is invariant,
tr([x, y] z) = tr(x [y, z]), and the radical is orthogonal to e, h and
f: an element z commuting with the sl2 has tr(zh) = tr(z[e, f]) =
tr([z, e] f) = 0 and likewise for e and f, and a root vector of another
positive root pairs to zero with them by weight.  So the coordinates are

    c_e = tr(xf) / tr(ef),   c_h = tr(xh) / tr(hh),   c_f = tr(xe) / tr(ef),

where tr(hh) = 2 tr(ef) is positive for a nonzero triple.

Torus-like images are split by (in order) an explicit normalizer
witness, the chi pairing, or the spherical roots; otherwise the type
stays unresolved.  Whether an sl2 element is semisimple or nilpotent is
decided exactly by its determinant (x^2 = -det(x) * id for traceless x).

An element of the algebra is one flat tuple of Fractions: the entries of
each block row by row, the blocks in order.  That is the vector linalg
reads, so the bases and triples of a presentation go into an Echelon,
rank and intersect as they are, and tr(xy) is x . _transposed(blocks, y).
2x2 Matrix row tuples remain for sl2 images and witnesses.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .datum import ColorRecord, SphericalDatum, rational_from_json, rational_to_json
from .errors import InconsistencyError, SchemaError, UnresolvedTypeError
from .lunatypes import ColorType, classify_luna
from .rootsys import RootSystem, pair, positive_roots

Matrix = tuple  # tuple of row tuples of Fraction
Element = tuple  # flat tuple of Fraction: block entries row by row, blocks in order

# sum of n^2 over the blocks: room for a product of two brion_5_1
# presentations at the largest catalog n (each needs 2 * 10^2)
MAX_BLOCK_DIM = 400


def _mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _mmul(a: Matrix, b: Matrix) -> Matrix:
    """Row-sparse product: each nonzero a[i][k] meets only the nonzero
    entries of row k of b.  Presentation blocks are mostly E_ij and
    diagonal matrices, so almost every term of the dense sum is zero."""
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    zero = Fraction(0)
    out = []
    for row in a:
        acc = [zero] * len(row)
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _offsets(blocks):
    """(offset, size) of each block in the flat layout."""
    pos = 0
    for n in blocks:
        yield pos, n
        pos += n * n


def _block_rows(blocks, x: Element):
    """The rows of each block of x."""
    for pos, n in _offsets(blocks):
        yield [x[pos + i * n:pos + (i + 1) * n] for i in range(n)]


def element(blocks, mats) -> Element:
    """Build an algebra element from per-block row lists."""
    if len(mats) != len(blocks):
        raise ValueError("wrong number of blocks")
    out = []
    for n, m in zip(blocks, mats):
        if len(m) != n or any(len(r) != n for r in m):
            raise ValueError(f"block of size {n} got a {len(m)}x? matrix")
        out += (Fraction(v) for row in m for v in row)
    return tuple(out)


def bracket(blocks, x: Element, y: Element) -> Element:
    out = []
    for a, b in zip(_block_rows(blocks, x), _block_rows(blocks, y)):
        out += (p - q for ra, rb in zip(_mmul(a, b), _mmul(b, a)) for p, q in zip(ra, rb))
    return tuple(out)


def algebra_dim(blocks) -> int:
    return sum(n * n - 1 if n >= 2 else 1 for n in blocks)


@dataclass(frozen=True)
class LiePresentation:
    """An exact matrix model of the group pair, bound to its root system."""
    rs: RootSystem
    blocks: tuple[int, ...]
    h_basis: tuple[Element, ...]
    b_basis: tuple[Element, ...]
    triples: tuple[tuple[Element, Element, Element], ...]
    witnesses: tuple[tuple[str, int, Matrix], ...] = ()

    @cached_property
    def h_echelon(self) -> linalg.Echelon:
        """span(h) reduced once, for the independence and closure checks."""
        return linalg.Echelon(self.h_basis)

    @cached_property
    def b_echelon(self) -> linalg.Echelon:
        """span(b) reduced once, for the membership checks."""
        return linalg.Echelon(self.b_basis)

    def witness_for(self, color_name: str, alpha: int) -> Matrix | None:
        for cn, a, w in self.witnesses:
            if cn == color_name and a == alpha:
                return w
        return None


def make_presentation(rs, blocks, h_basis, b_basis, triples, witnesses=()) -> LiePresentation:
    """Construct and structurally check a presentation: the size caps,
    element lengths, per-block tracelessness, the sl2 bracket relations
    of every triple, which must be nonzero, and independent h and b
    bases.  The costlier span checks live in validate_presentation."""
    blocks = tuple(int(n) for n in blocks)
    h_basis, b_basis = tuple(h_basis), tuple(b_basis)
    if len(triples) != rs.rank:
        raise ValueError(f"expected {rs.rank} triples, got {len(triples)}")
    dim = sum(n * n for n in blocks)
    if dim > MAX_BLOCK_DIM:
        raise ValueError(f"total block dimension {dim} exceeds cap {MAX_BLOCK_DIM}")
    top = algebra_dim(blocks)
    for name, basis in (("h_basis", h_basis), ("b_basis", b_basis)):
        if len(basis) > top:
            raise ValueError(f"{name} has {len(basis)} elements, more than the "
                             f"algebra dimension {top}")

    def check(x: Element, what: str) -> Element:
        if len(x) != dim:
            raise ValueError(f"{what}: expected {dim} entries, got {len(x)}")
        for pos, n in _offsets(blocks):
            if n >= 2:
                tr = sum(x[pos + i * (n + 1)] for i in range(n))
                if tr != 0:
                    raise ValueError(f"{what}: block trace {tr} != 0")
        return x

    h_basis = tuple(check(x, f"h_basis[{i}]") for i, x in enumerate(h_basis))
    b_basis = tuple(check(x, f"b_basis[{i}]") for i, x in enumerate(b_basis))
    fixed = []
    for i, (e, h, f) in enumerate(triples):
        name = rs.root_name(i)
        for x, tag in ((e, "e"), (h, "h"), (f, "f")):
            check(x, f"triple {name}.{tag}")
        if bracket(blocks, e, f) != h:
            raise ValueError(f"triple {name}: [e, f] != h")
        if bracket(blocks, h, e) != tuple(2 * v for v in e):
            raise ValueError(f"triple {name}: [h, e] != 2e")
        if bracket(blocks, h, f) != tuple(-2 * v for v in f):
            raise ValueError(f"triple {name}: [h, f] != -2f")
        if not any(h):  # the relations then force e = f = 0
            raise ValueError(f"triple {name} is zero (degenerate)")
        fixed.append((e, h, f))
    wit = []
    for cn, a, w in witnesses:
        m = _mat(w)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise ValueError(f"witness for ({cn}, {rs.root_name(a)}): not 2x2")
        det = _det2(m)
        if det not in (1, -1):
            raise ValueError(f"witness for ({cn}, {rs.root_name(a)}): det {det} not +-1")
        wit.append((cn, int(a), m))
    pres = LiePresentation(rs, blocks, h_basis, b_basis, tuple(fixed), tuple(wit))
    for name, ech in (("h_basis", pres.h_echelon), ("b_basis", pres.b_echelon)):
        if ech.dependent:
            raise ValueError(f"{name} is linearly dependent: element {ech.dependent[0]} "
                             "lies in the span of the elements before it")
    return pres


def validate_presentation(pres: LiePresentation) -> None:
    """Full span checks: h closed under bracket, and every e_alpha and
    h_alpha inside span(b).  Every bracket and triple is tested against
    the echelon of its basis, reduced once per presentation."""
    for i, x in enumerate(pres.h_basis):
        for j, y in enumerate(pres.h_basis[i:], i):
            if not pres.h_echelon.contains(bracket(pres.blocks, x, y)):
                raise ValueError(f"h_basis not bracket-closed at pair ({i}, {j})")
    for i, (e, h, _) in enumerate(pres.triples):
        if not pres.b_echelon.contains(e):
            raise ValueError(f"e for {pres.rs.root_name(i)} is outside span(b)")
        if not pres.b_echelon.contains(h):
            raise ValueError(f"h for {pres.rs.root_name(i)} is outside span(b)")


@lru_cache(maxsize=64)
def open_orbit_check(pres: LiePresentation) -> bool:
    """Does span(b, h) fill the whole algebra?  (The basepoint lies in
    the open B-orbit exactly when this holds.)"""
    return linalg.rank(pres.b_basis + pres.h_basis) == algebra_dim(pres.blocks)


def parabolic_basis(pres: LiePresentation, alpha: int) -> list[Element]:
    """b extended by the negative root vector f_alpha."""
    pres.rs._check_index(alpha)
    return list(pres.b_basis) + [pres.triples[alpha][2]]


def stabilizer_in_parabolic(pres: LiePresentation, alpha: int) -> list[Element]:
    """Basis of h intersected with the minimal parabolic p_alpha."""
    return linalg.intersect(pres.h_basis, parabolic_basis(pres, alpha))


@lru_cache(maxsize=64)
def _positive_root_vectors(pres: LiePresentation):
    """Root vectors e_beta for every positive root, generated upward from
    the simple triples by bracketing along root strings."""
    rs = pres.rs
    out = {}
    for root in positive_roots(rs):
        coeffs = root.simple_coeffs
        if root.height == 1:
            i = next(k for k, c in enumerate(coeffs) if c)
            out[coeffs] = pres.triples[i][0]
            continue
        built = None
        for i, c in enumerate(coeffs):
            if c <= 0:
                continue
            down = list(coeffs)
            down[i] -= 1
            prev = out.get(tuple(down))
            if prev is None:
                continue
            cand = bracket(pres.blocks, pres.triples[i][0], prev)
            if any(cand):
                built = cand
                break
        if built is None:
            raise InconsistencyError(
                f"presentation has no root vector for {coeffs} (triples degenerate)")
        out[coeffs] = built
    return out


@lru_cache(maxsize=256)
def _adapted_basis(pres: LiePresentation, alpha: int):
    """Covectors reading the (e, h, f) coordinates of the alpha-sl2 off an
    element of p_alpha: the blockwise transposes of f, h and e, scaled by
    1/tr(ef), 1/tr(hh) and 1/tr(ef), which are positive since
    make_presentation rejects h = 0.  The positive root vectors are built
    first, as the check that the triples are not degenerate."""
    _positive_root_vectors(pres)
    e, h, f = pres.triples[alpha]
    te, th, tf = (_transposed(pres.blocks, x) for x in (e, h, f))
    ef, hh = _dot(e, tf), _dot(h, th)
    return tuple(tuple(v / t for v in cov) for cov, t in ((tf, ef), (th, hh), (te, ef)))


def _transposed(blocks, x: Element) -> Element:
    """The blockwise transpose, so that tr(xy) is x . _transposed(blocks, y)."""
    return tuple(x[pos + j * n + i] for pos, n in _offsets(blocks)
                 for i in range(n) for j in range(n))


def _dot(u, v) -> Fraction:
    return sum(a * b for a, b in zip(u, v) if a)


def _sl2_coords(covectors, vec) -> Matrix:
    ce, ch, cf = (_dot(c, vec) for c in covectors)
    return _mat([[ch, ce], [cf, -ch]])


def dphi_project(pres: LiePresentation, alpha: int, x: Element) -> Matrix:
    """Image of x in the alpha-sl2: the 2x2 matrix c_e E + c_h H + c_f F
    with c_e = tr(xf)/tr(ef), c_h = tr(xh)/tr(hh), c_f = tr(xe)/tr(ef).
    x must lie in p_alpha, which is tested against the echelon of b
    extended by f_alpha."""
    pres.rs._check_index(alpha)
    covectors = _adapted_basis(pres, alpha)
    if not linalg.Echelon([pres.triples[alpha][2]], start=pres.b_echelon).contains(x):
        raise ValueError(
            f"element is not in the minimal parabolic of {pres.rs.root_name(alpha)}")
    return _sl2_coords(covectors, x)


class ImageClass(Enum):
    TORUS_LIKE = "torus_like"
    CONTAINS_NILPOTENT = "contains_nilpotent"
    FULL = "full"


@dataclass(frozen=True)
class Sl2Image:
    basis: tuple[Matrix, ...]
    kind: ImageClass


def _det2(m: Matrix) -> Fraction:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def classify_image(vectors) -> Sl2Image:
    """Classify the span of traceless 2x2 matrices by dimension; a line
    is torus-like exactly when its generator has nonzero determinant
    (semisimple), since x^2 = -det(x) id for traceless x."""
    mats = [_mat(v) for v in vectors]
    for m in mats:
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise ValueError("sl2 image vectors must be 2x2")
        if m[0][0] + m[1][1] != 0:
            raise ValueError("sl2 image vectors must be traceless")
    coords = [(m[0][0], m[0][1], m[1][0]) for m in mats]
    basis_coords = linalg.span_basis(coords)
    dim = len(basis_coords)
    basis = tuple(_mat([[a, b], [c, -a]]) for a, b, c in basis_coords)
    if dim == 0:
        raise InconsistencyError(
            "sl2 image is zero: the stabilizer image must be at least one-dimensional")
    if dim == 3:
        return Sl2Image(basis, ImageClass.FULL)
    if dim == 2:
        return Sl2Image(basis, ImageClass.CONTAINS_NILPOTENT)
    kind = ImageClass.TORUS_LIKE if _det2(basis[0]) != 0 else ImageClass.CONTAINS_NILPOTENT
    return Sl2Image(basis, kind)


def image_for_root(pres: LiePresentation, alpha: int) -> Sl2Image:
    """Stabilizer in p_alpha, pushed through the projection and classified."""
    stab = stabilizer_in_parabolic(pres, alpha)
    if not stab:
        raise InconsistencyError(
            f"stabilizer meets the parabolic of {pres.rs.root_name(alpha)} trivially")
    covectors = _adapted_basis(pres, alpha)
    return classify_image([_sl2_coords(covectors, x) for x in stab])


def _minv2(m: Matrix) -> Matrix:
    d = _det2(m)
    if d == 0:
        raise ValueError("witness is singular")
    return _mat([[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]])


def resolve_torus_like(image: Sl2Image, witness: Matrix | None = None,
                       chi_pairing=None) -> ColorType | None:
    """Split a torus-like image into a or 2a.

    A witness that conjugates the generator to its negative certifies 2a;
    one that centralizes it is discarded.  Failing that, a chi pairing of
    2 means 2a and 1 means a.  Returns None when neither decides.
    """
    if image.kind is not ImageClass.TORUS_LIKE:
        raise ValueError("resolve_torus_like wants a torus-like image")
    t = image.basis[0]
    if witness is not None:
        w = _mat(witness)
        conj = _mmul(_mmul(w, t), _minv2(w))
        if conj == tuple(tuple(-v for v in row) for row in t):
            return ColorType.TWO_A
        if conj != t:
            raise InconsistencyError("witness does not normalize the image torus")
        # centralizing witness: uninformative, fall through
    if chi_pairing is not None:
        v = Fraction(chi_pairing)
        if v == 2:
            return ColorType.TWO_A
        if v == 1:
            return ColorType.A
        raise InconsistencyError(
            f"chi pairing {chi_pairing} is neither 1 nor 2 for a torus-like color")
    return None


def classify_knop(pres: LiePresentation, datum: SphericalDatum,
                  color: ColorRecord | str) -> ColorType:
    """Classify one color through the presentation, checking that every
    moving root gives the same answer.

    Requires the basepoint to be generic (open-orbit check).  A full sl2
    image at a moving root, or a torus-like image that the spherical
    roots call b, is reported as an inconsistency; a torus-like image
    with no witness, no chi and no spherical roots stays unresolved.
    """
    if isinstance(color, str):
        color = datum.color(color)
    if not open_orbit_check(pres):
        raise InconsistencyError(
            "basepoint is not generic: span(b, h) is a proper subalgebra")
    results = {}
    for alpha in color.moved_by:
        img = image_for_root(pres, alpha)
        if img.kind is ImageClass.FULL:
            raise InconsistencyError(
                f"color {color.name}: full sl2 image at moving root "
                f"{datum.rs.root_name(alpha)} (only legal inside Sp)")
        if img.kind is ImageClass.CONTAINS_NILPOTENT:
            results[alpha] = ColorType.B
            continue
        chi_pairing = pair(alpha, color.chi) if color.chi is not None else None
        kind = resolve_torus_like(img, pres.witness_for(color.name, alpha), chi_pairing)
        if kind is None and datum.spherical_roots is not None:
            luna = classify_luna(datum, color)
            if luna is ColorType.B:
                raise InconsistencyError(
                    f"color {color.name}: torus-like image but spherical roots say b")
            kind = luna
        if kind is None:
            raise UnresolvedTypeError(
                f"color {color.name}: torus-like at {datum.rs.root_name(alpha)}, "
                "no witness, chi or spherical roots to split a vs 2a")
        results[alpha] = kind
    distinct = set(results.values())
    if len(distinct) != 1:
        detail = ", ".join(f"{datum.rs.root_name(a)}->{k.value}"
                           for a, k in results.items())
        raise InconsistencyError(
            f"color {color.name}: moving roots disagree ({detail})")
    return distinct.pop()


# ------------------------------------------------------------- JSON

def _entries(flat, n, where) -> list:
    """The n*n exact entries of a flat JSON array."""
    if not isinstance(flat, list):
        raise SchemaError(f"{where}: expected a flat array")
    if len(flat) != n * n:
        raise SchemaError(f"{where}: expected {n * n} entries, got {len(flat)}")
    return [rational_from_json(x, f"{where}[{i}]") for i, x in enumerate(flat)]


def _no_unknown(obj: dict, known, where: str) -> None:
    unknown = set(obj) - set(known)
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")


def presentation_to_json(pres: LiePresentation) -> dict:
    def elem(x: Element):
        return [[rational_to_json(v) for v in x[pos:pos + n * n]]
                for pos, n in _offsets(pres.blocks)]

    def mat2(m: Matrix):
        return [rational_to_json(v) for row in m for v in row]

    return {
        "blocks": list(pres.blocks),
        "h_basis": [elem(x) for x in pres.h_basis],
        "b_basis": [elem(x) for x in pres.b_basis],
        "triples": {
            pres.rs.root_name(i): {"e": elem(e), "h": elem(h), "f": elem(f)}
            for i, (e, h, f) in enumerate(pres.triples)
        },
        "witnesses": [
            {"color": cn, "root": pres.rs.root_name(a), "matrix": mat2(w)}
            for cn, a, w in pres.witnesses
        ],
    }


def presentation_from_json(obj, rs: RootSystem) -> LiePresentation:
    if not isinstance(obj, dict):
        raise SchemaError("presentation: expected an object")
    _no_unknown(obj, ("blocks", "h_basis", "b_basis", "triples", "witnesses"), "presentation")
    blocks = obj.get("blocks")
    if not isinstance(blocks, list) or not all(isinstance(n, int) and n >= 1 for n in blocks):
        raise SchemaError("presentation.blocks: expected a list of positive sizes")

    def elem(raw, where) -> Element:
        if not isinstance(raw, list) or len(raw) != len(blocks):
            raise SchemaError(f"{where}: expected {len(blocks)} block arrays")
        return tuple(v for bi, (n, flat) in enumerate(zip(blocks, raw))
                     for v in _entries(flat, n, f"{where}[{bi}]"))

    def array(name):
        raw = obj.get(name, [])
        if not isinstance(raw, list):
            raise SchemaError(f"presentation.{name}: expected an array")
        return raw

    h_basis = [elem(x, f"presentation.h_basis[{i}]")
               for i, x in enumerate(array("h_basis"))]
    b_basis = [elem(x, f"presentation.b_basis[{i}]")
               for i, x in enumerate(array("b_basis"))]
    traw = obj.get("triples", {})
    if not isinstance(traw, dict):
        raise SchemaError("presentation.triples: expected an object")
    names = [rs.root_name(i) for i in range(rs.rank)]
    _no_unknown(traw, names, "presentation.triples")
    triples = []
    for name in names:
        if name not in traw:
            raise SchemaError(f"presentation.triples: missing {name}")
        t = traw[name]
        where = f"presentation.triples.{name}"
        if not isinstance(t, dict) or any(tag not in t for tag in ("e", "h", "f")):
            raise SchemaError(f"{where}: expected e, h and f")
        _no_unknown(t, ("e", "h", "f"), where)
        triples.append(tuple(elem(t[tag], f"{where}.{tag}") for tag in ("e", "h", "f")))
    witnesses = []
    for wi, wraw in enumerate(array("witnesses")):
        where = f"presentation.witnesses[{wi}]"
        if not isinstance(wraw, dict):
            raise SchemaError(f"{where}: expected an object")
        _no_unknown(wraw, ("color", "root", "matrix"), where)
        cn = wraw.get("color")
        if not isinstance(cn, str) or not cn:
            raise SchemaError(f"{where}.color: expected a color name")
        try:
            a = rs.root_index(str(wraw.get("root")))
        except ValueError as exc:
            raise SchemaError(f"{where}.root: {exc}") from None
        m = _entries(wraw.get("matrix"), 2, f"{where}.matrix")
        witnesses.append((cn, a, (m[:2], m[2:])))
    try:
        return make_presentation(rs, blocks, h_basis, b_basis, triples, witnesses)
    except ValueError as exc:
        raise SchemaError(f"presentation: {exc}") from None
