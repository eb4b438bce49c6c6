"""The benchmark's own builders of sphdiv documents.

A factor is one of the paper's worked families (the same pairs the
sphdiv catalog holds), written down here from their definitions, with
the answers the paper gives for them: color types and the closed-form
divisor coefficients (5.1 -> 2, 5.2 -> 1, 5.3 -> 1, 5.4 -> n - 1).
Factors multiply into product datums, and presentation blocks can be
conjugated by diagonal sign matrices.  Neither changes the amount of
work sphdiv does on a document: a product only renumbers roots and
blocks, and a sign conjugation scales every vectorized element by the
same +-1 column pattern, which moves no pivot.

Matrices are sparse {(row, col): int} maps; an element is a list with
one such map per block.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import exact


@dataclass
class Presentation:
    blocks: list[int]
    h_basis: list
    b_basis: list
    triples: list  # (e, h, f) per simple root
    witnesses: list = field(default_factory=list)  # (color, root, flat 2x2)
    # per factor: (drop, i, j) such that removing h_basis[drop] leaves
    # [h_i, h_j] outside the span, or None
    unclosing: list = field(default_factory=lambda: [None])


@dataclass
class Factor:
    label: str
    cartan_factors: list  # [(family, rank)]
    central: int = 0
    sp: list = field(default_factory=list)
    colors: list = field(default_factory=list)  # dicts: name, moved_by, type, chi
    coeffs: list = field(default_factory=list)
    M: list | None = None  # weights as (fund, central) pairs
    sigma: list | None = None
    boundary: int = 0
    pres: Presentation | None = None

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.cartan_factors)


# --------------------------------------------------------------- matrices

def _eij(i, j):
    return {(i, j): 1}


def _diag_h(i):
    return {(i, i): 1, (i + 1, i + 1): -1}


def _neg(m):
    return {k: -v for k, v in m.items()}


def _sl_mats(n):
    return [_diag_h(i) for i in range(n - 1)] + \
        [_eij(i, j) for i in range(n) for j in range(n) if i != j]


def _triangular_mats(n, lower):
    return [_diag_h(i) for i in range(n - 1)] + \
        [_eij(i, j) for i in range(n) for j in range(n) if (i > j if lower else i < j)]


# lower-triangular Borel of sl2: the positive root vector is the lower shear
_E_LO, _H_LO, _F_LO = {(1, 0): 1}, {(0, 0): -1, (1, 1): 1}, {(0, 1): 1}
_E, _H, _F = {(0, 1): 1}, {(0, 0): 1, (1, 1): -1}, {(1, 0): 1}
_SWAP = {(0, 1): 1, (1, 0): 1}


def _sl2_pres(h_mats, witnesses=()):
    return Presentation([2], [[m] for m in h_mats], [[_H_LO], [_E_LO]],
                        [([_E_LO], [_H_LO], [_F_LO])], list(witnesses))


def _mat2_mul(a, b):
    return [[sum(Fraction(a[i][k]) * b[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def _conjugate2(c, m):
    """c m c^-1 for a 2x2 c of determinant 1, m sparse."""
    dense = [[m.get((i, j), 0) for j in range(2)] for i in range(2)]
    inv = [[c[1][1], -c[0][1]], [-c[1][0], c[0][0]]]
    out = _mat2_mul(_mat2_mul(c, dense), inv)
    return {(i, j): int(out[i][j]) for i in range(2) for j in range(2) if out[i][j]}


# --------------------------------------------------------------- families

def _fund(rank, entries):
    v = [0] * rank
    for i, x in entries.items():
        v[i] = x
    return v


def sl2_mod_T() -> Factor:
    colors = [{"name": f"D{k}", "moved_by": [0], "type": "a", "chi": [1]} for k in (1, 2)]
    return Factor("sl2_mod_T", [("A", 1)], colors=colors, coeffs=[1, 1],
                  M=[([2], [])], sigma=[([2], [])], pres=_sl2_pres([_SWAP]))


def sl2_mod_N() -> Factor:
    colors = [{"name": "D1", "moved_by": [0], "type": "2a", "chi": [2]}]
    return Factor("sl2_mod_N", [("A", 1)], colors=colors, coeffs=[1],
                  M=[([4], [])], sigma=[([4], [])],
                  pres=_sl2_pres([_SWAP], [("D1", 0, [0, 1, -1, 0])]))


def sl2_mod_U() -> Factor:
    colors = [{"name": "D1", "moved_by": [0], "type": "b", "chi": [1]}]
    return Factor("sl2_mod_U", [("A", 1)], colors=colors, coeffs=[2],
                  M=[([1], [])], sigma=[], pres=_sl2_pres([_E]))


def brion_5_1(n) -> Factor:
    """SL(n) x SL(n) over the diagonal SL(n)."""
    r = n - 1
    colors = [{"name": f"D{i + 1}", "moved_by": [i, r + i], "type": "b",
               "chi": _fund(2 * r, {i: 1, r + i: 1})} for i in range(r)]
    h_basis = [[m, m] for m in _sl_mats(n)]
    b_basis = [[m, {}] for m in _triangular_mats(n, lower=True)] + \
              [[{}, m] for m in _triangular_mats(n, lower=False)]
    triples = [([_eij(i + 1, i), {}], [_neg(_diag_h(i)), {}], [_eij(i, i + 1), {}])
               for i in range(r)]
    triples += [([{}, _eij(i, i + 1)], [{}, _diag_h(i)], [{}, _eij(i + 1, i)])
                for i in range(r)]
    # [E_01, E_10] = h_0: drop h_0, E_01 sits at n - 1 and E_10 at 2n - 2
    pres = Presentation([n, n], h_basis, b_basis, triples, unclosing=[(0, n - 1, 2 * n - 2)])
    return Factor(f"brion_5_1({n})", [("A", r), ("A", r)], colors=colors,
                  coeffs=[2] * r, pres=pres)


_CONJUGATORS_5_2 = ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, -1], [1, 0]])


def brion_5_2() -> Factor:
    """SL(2)^3 over the diagonal SL(2)."""
    pairs = [(0, 1), (0, 2), (1, 2)]
    colors = [{"name": f"D{i + 1}{j + 1}", "moved_by": [i, j], "type": "a",
               "chi": _fund(3, {i: 1, j: 1})} for i, j in pairs]
    sigma = [(_fund(3, {i: 2}), []) for i in range(3)]

    def emb(i, m):
        blocks = [{}, {}, {}]
        blocks[i] = m
        return blocks

    h_basis = [[_conjugate2(c, u) for c in _CONJUGATORS_5_2] for u in (_E, _H, _F)]
    b_basis = [emb(i, _H_LO) for i in range(3)] + [emb(i, _E_LO) for i in range(3)]
    triples = [(emb(i, _E_LO), emb(i, _H_LO), emb(i, _F_LO)) for i in range(3)]
    return Factor("brion_5_2", [("A", 1)] * 3, colors=colors, coeffs=[1, 1, 1],
                  M=sigma, sigma=sigma,
                  pres=Presentation([2, 2, 2], h_basis, b_basis, triples,
                                    unclosing=[(1, 0, 2)]))


def brion_5_3(n) -> Factor:
    """SL(n) / SO(n): one color of type 2a per simple root."""
    r = n - 1
    c = exact.cartan([("A", r)])
    colors = [{"name": f"D{i + 1}", "moved_by": [i], "type": "2a",
               "chi": _fund(r, {i: 2})} for i in range(r)]
    sigma = [([2 * c[k][i] for k in range(r)], []) for i in range(r)]
    return Factor(f"brion_5_3({n})", [("A", r)], colors=colors, coeffs=[1] * r,
                  M=sigma, sigma=sigma)


def brion_5_4(n) -> Factor:
    """SL(n) / SL(n-1): two colors of type b, Sp of type A_{n-3}."""
    r = n - 1
    colors = [{"name": "D1", "moved_by": [r - 1], "type": "b", "chi": _fund(r, {r - 1: 1})},
              {"name": "D2", "moved_by": [0], "type": "b", "chi": _fund(r, {0: 1})}]
    return Factor(f"brion_5_4({n})", [("A", r)], sp=list(range(1, r - 1)),
                  colors=colors, coeffs=[n - 1, n - 1],
                  M=[(_fund(r, {0: 1}), []), (_fund(r, {r - 1: 1}), [])])


def toric(r) -> Factor:
    unit = [([], [1 if j == i else 0 for j in range(r)]) for i in range(r)]
    return Factor(f"toric({r})", [], central=r, M=unit, sigma=[], boundary=r)


def bare(simple_factor, sp) -> Factor:
    """One simple factor (family, rank) with Sp and one untyped color per
    root outside Sp: enough for kappa, which reads nothing else."""
    fam, rank = simple_factor
    colors = [{"name": f"D{i + 1}", "moved_by": [i], "type": None, "chi": None}
              for i in range(rank) if i not in sp]
    return Factor(f"{fam}{rank}", [(fam, rank)], sp=sorted(sp), colors=colors)


FAMILIES = {"sl2_mod_T": sl2_mod_T, "sl2_mod_N": sl2_mod_N, "sl2_mod_U": sl2_mod_U,
            "brion_5_1": brion_5_1, "brion_5_2": brion_5_2, "brion_5_3": brion_5_3,
            "brion_5_4": brion_5_4, "toric": toric, "bare": bare}


def family(key, *args) -> Factor:
    return FAMILIES[key](*(a for a in args if a is not None))


# --------------------------------------------------------------- products

def spec_string(cartan_factors, central) -> str:
    body = "x".join(f"{fam}{n}" for fam, n in cartan_factors)
    if central and body:
        return f"{body}+T{central}"
    return body or f"T{central}"


def product(factors: list[Factor]) -> Factor:
    """The direct product, factors in the given order.  Colors are renamed
    f<k>.<name> with k the factor's position."""
    rank = sum(f.rank for f in factors)
    central = sum(f.central for f in factors)
    out = Factor(" x ".join(f.label for f in factors),
                 [cf for f in factors for cf in f.cartan_factors], central=central,
                 boundary=sum(f.boundary for f in factors))
    off = coff = 0
    lists = {"M": [], "sigma": []}
    for k, f in enumerate(factors):
        out.sp += [off + i for i in f.sp]
        for c, m in zip(f.colors, f.coeffs or [None] * len(f.colors)):
            chi = None if c["chi"] is None else [0] * off + c["chi"] + [0] * (rank - off - f.rank)
            out.colors.append({"name": f"f{k}.{c['name']}", "type": c["type"],
                               "moved_by": [off + i for i in c["moved_by"]], "chi": chi})
            out.coeffs.append(m)
        for key in lists:
            ws = getattr(f, key)
            if ws is None or lists[key] is None:
                lists[key] = None
                continue
            for fund, cen in ws:
                lists[key].append(([0] * off + list(fund) + [0] * (rank - off - f.rank),
                                   [0] * coff + list(cen) + [0] * (central - coff - f.central)))
        off += f.rank
        coff += f.central
    out.M, out.sigma = lists["M"], lists["sigma"]
    if all(f.pres is not None for f in factors):
        out.pres = _product_pres(factors)
    return out


def _product_pres(factors) -> Presentation:
    blocks = [n for f in factors for n in f.pres.blocks]
    pres = Presentation(blocks, [], [], [], unclosing=[])
    before = 0
    root_off = 0
    for k, f in enumerate(factors):
        p = f.pres
        after = len(blocks) - before - len(p.blocks)

        def emb(x):
            return [{}] * before + list(x) + [{}] * after

        h_off = len(pres.h_basis)
        pres.unclosing += [None if u is None else tuple(h_off + i for i in u)
                           for u in p.unclosing]
        pres.h_basis += [emb(x) for x in p.h_basis]
        pres.b_basis += [emb(x) for x in p.b_basis]
        pres.triples += [tuple(emb(x) for x in t) for t in p.triples]
        pres.witnesses += [(f"f{k}.{cn}", root_off + a, w) for cn, a, w in p.witnesses]
        before += len(p.blocks)
        root_off += f.rank
    return pres


def sign_conjugate(pres: Presentation, rng: random.Random) -> Presentation:
    """Conjugate every block by a seeded diagonal sign matrix D: entry
    (i, j) of every element is multiplied by d_i d_j.  This is an
    automorphism, so types and validity are unchanged."""
    signs = [[rng.choice((1, -1)) for _ in range(n)] for n in pres.blocks]

    def conj(x):
        return [{(i, j): v * d[i] * d[j] for (i, j), v in blk.items()}
                for blk, d in zip(x, signs)]

    return Presentation(list(pres.blocks), [conj(x) for x in pres.h_basis],
                        [conj(x) for x in pres.b_basis],
                        [tuple(conj(x) for x in t) for t in pres.triples],
                        list(pres.witnesses), list(pres.unclosing))


def unclosed_copy(pres: Presentation, position: int) -> Presentation:
    """The presentation with the h basis of the factor at `position` made
    non-closed: one element dropped and the pair whose bracket it was put
    first, so that validation meets the failing pair at once."""
    drop, i, j = pres.unclosing[position]
    rest = [x for k, x in enumerate(pres.h_basis) if k not in (drop, i, j)]
    return Presentation(list(pres.blocks), [pres.h_basis[i], pres.h_basis[j]] + rest,
                        pres.b_basis, pres.triples, pres.witnesses, [None])


# --------------------------------------------------------------- documents

def _weight(fund, central):
    return {"fund": list(fund), "central": list(central)}


def _flat(m, n):
    return [m.get((i, j), 0) for i in range(n) for j in range(n)]


def element_json(x, blocks):
    return [_flat(m, n) for m, n in zip(x, blocks)]


def presentation_json(pres: Presentation) -> dict:
    def el(x):
        return element_json(x, pres.blocks)

    return {
        "blocks": list(pres.blocks),
        "h_basis": [el(x) for x in pres.h_basis],
        "b_basis": [el(x) for x in pres.b_basis],
        "triples": {f"a{i + 1}": {"e": el(e), "h": el(h), "f": el(f)}
                    for i, (e, h, f) in enumerate(pres.triples)},
        "witnesses": [{"color": cn, "root": f"a{a + 1}", "matrix": list(w)}
                      for cn, a, w in pres.witnesses],
    }


def document(f: Factor, with_pres: bool = False) -> dict:
    """The sphdatum/1 document of a factor or product."""
    def weights(ws):
        return None if ws is None else [_weight(fund, cen) for fund, cen in ws]

    doc = {
        "version": "sphdatum/1",
        "root_system": spec_string(f.cartan_factors, f.central),
        "Sp": [f"a{i + 1}" for i in f.sp],
        "colors": [{"name": c["name"], "moved_by": [f"a{i + 1}" for i in c["moved_by"]],
                    "type": c["type"],
                    "chi": None if c["chi"] is None else _weight(c["chi"], [0] * f.central),
                    "rho": None} for c in f.colors],
        "M": weights(f.M),
        "spherical_roots": weights(f.sigma),
        "boundary_count": f.boundary,
    }
    if with_pres and f.pres is not None:
        doc["presentation"] = presentation_json(f.pres)
    return doc
