"""Built-in worked examples with frozen expected values.

Each entry bundles a datum (and, where stated, an exact matrix
presentation of the pair) with the expected color types, divisor
coefficients and anticanonical weight, tagged by how the expectation
was obtained: "stated" (given with the source construction), "derived"
(worked out by hand from the definitions), or "trivial".

Keys:
    toric(r)       torus of rank r acting on itself; r boundary divisors
    sl2_mod_T      SL(2) over a maximal torus (two colors, type a)
    sl2_mod_N      SL(2) over the torus normalizer (one color, type 2a)
    sl2_mod_U      SL(2) over a maximal unipotent (one color, type b)
    brion_5_1(n)   SL(n) as a two-sided SL(n) x SL(n) quotient
    brion_5_2      SL(2)^3 over the diagonal
    brion_5_3(n)   symmetric quotient SL(n) / SO(n)
    brion_5_4(n)   SL(n) / SL(n-1), the punctured-pairing space
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

from .datum import ColorRecord, SphericalDatum
from .knoplie import LiePresentation, _mat, _minv2, _mmul, element, make_presentation
from .rootsys import Weight, build_root_system

MAX_PARAM = 10


@dataclass(frozen=True)
class Expected:
    types: tuple[str, ...]
    m: tuple[int, ...]
    kappa_fund: tuple[int, ...]
    provenance: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class CatalogEntry:
    """A worked example.  Its presentation is built on first read and
    kept, since only the presentation-side typing and dumps need it."""
    key: str
    params: tuple[tuple[str, int], ...]
    datum: SphericalDatum
    build_presentation: Callable[[], LiePresentation] | None = \
        field(repr=False, compare=False)
    expected: Expected

    @cached_property
    def presentation(self) -> LiePresentation | None:
        if self.build_presentation is None:
            return None
        return self.build_presentation()


_PARAMETRIC = {"toric", "brion_5_1", "brion_5_3", "brion_5_4"}
_FIXED = {"sl2_mod_T", "sl2_mod_N", "sl2_mod_U", "brion_5_2"}


def catalog_keys() -> list[str]:
    return sorted(_PARAMETRIC | _FIXED)


# --------------------------------------------------------- matrix helpers

def _eij(n, i, j):
    return [[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)]


def _diag_h(n, i):
    m = [[0] * n for _ in range(n)]
    m[i][i] = 1
    m[i + 1][i + 1] = -1
    return m


def _sl_mats(n):
    mats = [_diag_h(n, i) for i in range(n - 1)]
    mats += [_eij(n, i, j) for i in range(n) for j in range(n) if i != j]
    return mats


def _borel_mats(n, lower):
    return [_diag_h(n, i) for i in range(n - 1)] + \
           [_eij(n, i, j) for i in range(n) for j in range(n) if (i > j if lower else i < j)]


def _neg(m):
    return [[-x for x in row] for row in m]


_E = [[0, 1], [0, 0]]
_H = [[1, 0], [0, -1]]
_F = [[0, 0], [1, 0]]
# lower-triangular Borel convention for sl2: the positive root vector is
# the lower shear, so the triple is (E21, diag(-1,1), E12)
_E_LO = [[0, 0], [1, 0]]
_H_LO = [[-1, 0], [0, 1]]
_F_LO = [[0, 1], [0, 0]]


def _sl2_presentation(rs, h_mats, witnesses=()):
    blocks = (2,)
    h_basis = [element(blocks, [m]) for m in h_mats]
    b_basis = [element(blocks, [_H_LO]), element(blocks, [_E_LO])]
    triples = [(element(blocks, [_E_LO]), element(blocks, [_H_LO]),
                element(blocks, [_F_LO]))]
    return make_presentation(rs, blocks, h_basis, b_basis, triples, witnesses)


# --------------------------------------------------------- entries

def _require_param(key, n, low):
    if n is None:
        raise ValueError(f"{key} needs a parameter n")
    if not low <= n <= MAX_PARAM:
        raise ValueError(f"{key}: parameter {n} outside [{low}, {MAX_PARAM}]")


def _no_param(key, n):
    if n is not None:
        raise ValueError(f"{key} takes no parameter")


def _toric(r):
    rs = build_root_system(f"T{r}")
    unit = [Weight((), tuple(1 if j == i else 0 for j in range(r)))
            for i in range(r)]
    datum = SphericalDatum(rs, frozenset(), (), tuple(unit), (), boundary_count=r)
    expected = Expected((), (), (), (("types", "trivial"), ("m", "trivial"),
                                     ("kappa", "trivial")))
    return CatalogEntry("toric", (("r", r),), datum, None, expected)


def _sl2_mod_T():
    rs = build_root_system("A1")
    omega = Weight((1,))
    alpha = Weight((2,))
    colors = (ColorRecord("D1", (0,), "a", omega),
              ColorRecord("D2", (0,), "a", omega))
    datum = SphericalDatum(rs, frozenset(), colors, (alpha,), (alpha,))
    build = partial(_sl2_presentation, rs, [[[0, 1], [1, 0]]])
    expected = Expected(("a", "a"), (1, 1), (2,),
                        (("types", "stated"), ("m", "stated"),
                         ("kappa", "trivial"), ("chi", "derived")))
    return CatalogEntry("sl2_mod_T", (), datum, build, expected)


def _sl2_mod_N():
    rs = build_root_system("A1")
    two_alpha = Weight((4,))
    colors = (ColorRecord("D1", (0,), "2a", Weight((2,))),)
    datum = SphericalDatum(rs, frozenset(), colors, (two_alpha,), (two_alpha,))
    build = partial(_sl2_presentation, rs, [[[0, 1], [1, 0]]],
                    witnesses=(("D1", 0, [[0, 1], [-1, 0]]),))
    expected = Expected(("2a",), (1,), (2,),
                        (("types", "stated"), ("m", "stated"),
                         ("kappa", "trivial"), ("chi", "derived")))
    return CatalogEntry("sl2_mod_N", (), datum, build, expected)


def _sl2_mod_U():
    rs = build_root_system("A1")
    colors = (ColorRecord("D1", (0,), "b", Weight((1,))),)
    datum = SphericalDatum(rs, frozenset(), colors, (Weight((1,)),), ())
    build = partial(_sl2_presentation, rs, [_E])
    expected = Expected(("b",), (2,), (2,),
                        (("types", "stated"), ("m", "stated"),
                         ("kappa", "trivial"), ("chi", "derived")))
    return CatalogEntry("sl2_mod_U", (), datum, build, expected)


def _brion_5_1(n):
    rs = build_root_system(f"A{n - 1}xA{n - 1}")
    r = n - 1
    colors = []
    for i in range(r):
        fund = [0] * (2 * r)
        fund[i] = 1
        fund[r + i] = 1
        colors.append(ColorRecord(f"D{i + 1}", (i, r + i), "b", Weight(tuple(fund))))
    datum = SphericalDatum(rs, frozenset(), tuple(colors))
    expected = Expected(("b",) * r, (2,) * r, (2,) * (2 * r),
                        (("types", "stated"), ("m", "stated"),
                         ("kappa", "trivial"), ("chi", "derived")))
    return CatalogEntry("brion_5_1", (("n", n),), datum,
                        partial(_brion_5_1_presentation, rs, n), expected)


def _brion_5_1_presentation(rs, n):
    r = n - 1
    blocks = (n, n)
    zero = [[0] * n for _ in range(n)]
    h_basis = [element(blocks, [m, m]) for m in _sl_mats(n)]
    b_basis = [element(blocks, [m, zero]) for m in _borel_mats(n, True)] + \
              [element(blocks, [zero, m]) for m in _borel_mats(n, False)]
    triples = []
    for i in range(r):  # first factor, lower Borel
        triples.append((element(blocks, [_eij(n, i + 1, i), zero]),
                        element(blocks, [_neg(_diag_h(n, i)), zero]),
                        element(blocks, [_eij(n, i, i + 1), zero])))
    for i in range(r):  # second factor, upper Borel
        triples.append((element(blocks, [zero, _eij(n, i, i + 1)]),
                        element(blocks, [zero, _diag_h(n, i)]),
                        element(blocks, [zero, _eij(n, i + 1, i)])))
    return make_presentation(rs, blocks, h_basis, b_basis, triples)


_CONJUGATORS_5_2 = ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, -1], [1, 0]])


def _brion_5_2():
    rs = build_root_system("A1xA1xA1")
    colors = (
        ColorRecord("D12", (0, 1), "a", Weight((1, 1, 0))),
        ColorRecord("D13", (0, 2), "a", Weight((1, 0, 1))),
        ColorRecord("D23", (1, 2), "a", Weight((0, 1, 1))),
    )
    sigma = (Weight((2, 0, 0)), Weight((0, 2, 0)), Weight((0, 0, 2)))
    datum = SphericalDatum(rs, frozenset(), colors, sigma, sigma)
    expected = Expected(("a", "a", "a"), (1, 1, 1), (2, 2, 2),
                        (("types", "stated"), ("m", "stated"),
                         ("kappa", "trivial"), ("chi", "stated")))
    return CatalogEntry("brion_5_2", (), datum,
                        partial(_brion_5_2_presentation, rs), expected)


def _brion_5_2_presentation(rs):
    blocks = (2, 2, 2)
    zero = [[0, 0], [0, 0]]

    def emb(i, m):
        mats = [zero, zero, zero]
        mats[i] = m
        return element(blocks, mats)

    conj = [_mat(c) for c in _CONJUGATORS_5_2]
    h_basis = [element(blocks, [_mmul(_mmul(c, _mat(u)), _minv2(c)) for c in conj])
               for u in (_E, _H, _F)]
    b_basis = [emb(i, _H_LO) for i in range(3)] + [emb(i, _E_LO) for i in range(3)]
    triples = [(emb(i, _E_LO), emb(i, _H_LO), emb(i, _F_LO)) for i in range(3)]
    return make_presentation(rs, blocks, h_basis, b_basis, triples)


def _brion_5_3(n):
    rs = build_root_system(f"A{n - 1}")
    r = n - 1
    colors = []
    sigma = []
    for i in range(r):
        fund = [0] * r
        fund[i] = 2
        colors.append(ColorRecord(f"D{i + 1}", (i,), "2a", Weight(tuple(fund))))
        sigma.append(rs.simple_root_weight(i).scale(2))
    datum = SphericalDatum(rs, frozenset(), tuple(colors), tuple(sigma), tuple(sigma))
    expected = Expected(("2a",) * r, (1,) * r, (2,) * r,
                        (("types", "stated"), ("m", "stated"),
                         ("kappa", "trivial"), ("chi", "derived")))
    return CatalogEntry("brion_5_3", (("n", n),), datum, None, expected)


def _brion_5_4(n):
    rs = build_root_system(f"A{n - 1}")
    r = n - 1
    omega_first = rs.fundamental_weight(0)
    omega_last = rs.fundamental_weight(r - 1)
    colors = (ColorRecord("D1", (r - 1,), "b", omega_last),
              ColorRecord("D2", (0,), "b", omega_first))
    Sp = frozenset(range(1, r - 1))
    datum = SphericalDatum(rs, Sp, colors, (omega_first, omega_last), None)
    kappa_fund = [0] * r
    kappa_fund[0] = n - 1
    kappa_fund[r - 1] = n - 1
    expected = Expected(("b", "b"), (n - 1, n - 1), tuple(kappa_fund),
                        (("types", "stated"), ("m", "stated"),
                         ("kappa", "derived"), ("chi", "derived")))
    return CatalogEntry("brion_5_4", (("n", n),), datum, None, expected)


def builtin(key: str, n: int | None = None) -> CatalogEntry:
    """Construct a catalog entry; parametric keys need n (or r)."""
    if key == "toric":
        _require_param(key, n, 0)
        return _toric(n)
    if key == "sl2_mod_T":
        _no_param(key, n)
        return _sl2_mod_T()
    if key == "sl2_mod_N":
        _no_param(key, n)
        return _sl2_mod_N()
    if key == "sl2_mod_U":
        _no_param(key, n)
        return _sl2_mod_U()
    if key == "brion_5_1":
        _require_param(key, n, 2)
        return _brion_5_1(n)
    if key == "brion_5_2":
        _no_param(key, n)
        return _brion_5_2()
    if key == "brion_5_3":
        _require_param(key, n, 3)
        return _brion_5_3(n)
    if key == "brion_5_4":
        _require_param(key, n, 3)
        return _brion_5_4(n)
    raise ValueError(f"unknown catalog key {key!r}")
