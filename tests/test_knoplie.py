"""Presentation-side classification: exact brackets, parabolic
stabilizers, sl2 image classes, and the JSON codec for presentations."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sphdiv.catalog import builtin
from sphdiv.cli import main
from sphdiv.datum import ColorRecord, SphericalDatum
from sphdiv.docio import dump_document
from sphdiv.errors import (InconsistencyError, InsufficientDataError, SchemaError,
                           UnresolvedTypeError)
from sphdiv.knoplie import (MAX_BLOCK_DIM, ImageClass, algebra_dim, bracket, classify_image,
                            classify_knop, dphi_project, element, image_for_root,
                            make_presentation, open_orbit_check, parabolic_basis,
                            presentation_from_json, presentation_to_json,
                            resolve_torus_like, stabilizer_in_parabolic,
                            validate_presentation, _positive_root_vectors)
from sphdiv.linalg import in_span, nullspace, solve_columns
from sphdiv.lunatypes import ColorType, classify_luna
from sphdiv.rootsys import Weight, build_root_system, positive_roots

E = [[0, 1], [0, 0]]
H = [[1, 0], [0, -1]]
F = [[0, 0], [1, 0]]
E_LO, H_LO, F_LO = F, [[-1, 0], [0, 1]], E
ZERO2 = [[0, 0], [0, 0]]


def _mm(a, b):
    return [[sum(Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(2))
             for j in range(2)] for i in range(2)]


def _inv2(m):
    (a, b), (c, d) = m
    det = Fraction(a) * d - Fraction(b) * c
    return [[d / det, -Fraction(b) / det], [-Fraction(c) / det, a / det]]


def _conj(g, x):
    return _mm(_mm(g, x), _inv2(g))


def _triple_diag_pres(conjugators):
    """sl2 x sl2 x sl2 with h the diagonal sl2 twisted factorwise."""
    rs = build_root_system("A1xA1xA1")
    blocks = (2, 2, 2)

    def emb(i, m):
        mats = [ZERO2, ZERO2, ZERO2]
        mats[i] = m
        return element(blocks, mats)

    h_basis = [element(blocks, [_conj(g, u) for g in conjugators])
               for u in (E, H, F)]
    b_basis = [emb(i, H_LO) for i in range(3)] + [emb(i, E_LO) for i in range(3)]
    triples = [(emb(i, E_LO), emb(i, H_LO), emb(i, F_LO)) for i in range(3)]
    return make_presentation(rs, blocks, h_basis, b_basis, triples)


IDENTITY3 = ([[1, 0], [0, 1]],) * 3
TWISTED3 = ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[0, -1], [1, 0]])


# ---------------------------------------------------------------- arithmetic

def test_bracket_sl2_relations():
    blocks = (2,)
    e, h, f = (element(blocks, [m]) for m in (E, H, F))
    assert bracket(blocks, e, f) == h
    assert bracket(blocks, h, e) == tuple(2 * v for v in e)
    assert bracket(blocks, h, f) == tuple(-2 * v for v in f)
    assert not any(bracket(blocks, e, e))


def _dense_bracket(blocks, x, y):
    """The dense bracket that the row-sparse product replaced, read
    straight off the flat layout: the oracle."""
    out, pos = [], 0
    for n in blocks:
        def at(v, i, j):
            return v[pos + i * n + j]

        out += (sum(at(x, i, k) * at(y, k, j) - at(y, i, k) * at(x, k, j)
                    for k in range(n))
                for i in range(n) for j in range(n))
        pos += n * n
    return tuple(out)


_ENTRY = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))


@st.composite
def _block(draw, n):
    """An E_ij multiple, a diagonal, a sparse or a dense n x n block."""
    kind = draw(st.sampled_from(["eij", "diag", "sparse", "dense"]))
    if kind == "eij":
        m = [[0] * n for _ in range(n)]
        m[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from([1, -1, 2, Fraction(-1, 2)]))
        return m
    if kind == "diag":
        d = draw(st.lists(_ENTRY, min_size=n, max_size=n))
        return [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    entry = _ENTRY if kind == "dense" else st.one_of(st.just(0), _ENTRY)
    flat = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    return [flat[i * n:(i + 1) * n] for i in range(n)]


@st.composite
def _element_pair(draw):
    blocks = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))) + (1,)
    blocks = draw(st.permutations(blocks))
    return blocks, tuple(element(blocks, [draw(_block(n)) for n in blocks]) for _ in range(2))


@settings(max_examples=100, deadline=None)
@given(_element_pair())
def test_sparse_bracket_matches_dense_oracle(pair):
    blocks, (x, y) = pair
    got, want = bracket(blocks, x, y), _dense_bracket(blocks, x, y)
    assert got == want
    assert hash(got) == hash(want)
    assert len(got) == sum(n * n for n in blocks)
    assert all(type(v) is Fraction for v in got)


def test_element_concatenates_block_rows():
    x = element((2, 1, 2), [E, [[5]], [[1, Fraction(1, 2)], [3, -1]]])
    assert x == (0, 1, 0, 0, 5, 1, Fraction(1, 2), 3, -1)
    assert all(type(v) is Fraction for v in x)


def test_element_shape_checks():
    with pytest.raises(ValueError, match="blocks"):
        element((2, 2), [E])
    with pytest.raises(ValueError):
        element((3,), [E])


def test_algebra_dim():
    assert algebra_dim((2,)) == 3
    assert algebra_dim((3,)) == 8
    assert algebra_dim((1,)) == 1
    assert algebra_dim((2, 2, 2)) == 9
    assert algebra_dim((2, 1)) == 4


# ---------------------------------------------------------------- construction

def _sl2_pres(h_mats, witnesses=()):
    rs = build_root_system("A1")
    blocks = (2,)
    h_basis = [element(blocks, [m]) for m in h_mats]
    b_basis = [element(blocks, [H_LO]), element(blocks, [E_LO])]
    triples = [(element(blocks, [E_LO]), element(blocks, [H_LO]),
                element(blocks, [F_LO]))]
    return make_presentation(rs, blocks, h_basis, b_basis, triples, witnesses)


def test_make_presentation_wrong_triple_count():
    rs = build_root_system("A2")
    with pytest.raises(ValueError, match="expected 2 triples"):
        make_presentation(rs, (2,), [], [], [])


def test_make_presentation_rejects_trace():
    with pytest.raises(ValueError, match="trace"):
        _sl2_pres([[[1, 0], [0, 1]]])


def test_make_presentation_rejects_wrong_length():
    rs = build_root_system("A1")
    blocks = (2,)
    e, h, f = (element(blocks, [m]) for m in (E_LO, H_LO, F_LO))
    with pytest.raises(ValueError, match=r"h_basis\[0\]: expected 4 entries, got 5"):
        make_presentation(rs, blocks, [h + (0,)], [h, e], [(e, h, f)])


def test_make_presentation_rejects_broken_triple():
    rs = build_root_system("A1")
    blocks = (2,)
    bad = [(element(blocks, [E]), element(blocks, [H]), element(blocks, [E]))]
    with pytest.raises(ValueError, match=r"\[e, f\] != h"):
        make_presentation(rs, blocks, [], [element(blocks, [H])], bad)


def test_make_presentation_rejects_bad_witness():
    with pytest.raises(ValueError, match="det"):
        _sl2_pres([H], witnesses=(("D1", 0, [[2, 0], [0, 1]]),))
    with pytest.raises(ValueError, match="2x2"):
        _sl2_pres([H], witnesses=(("D1", 0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),))


def test_witness_lookup():
    w = [[0, 1], [-1, 0]]
    pres = _sl2_pres([H], witnesses=(("D1", 0, w),))
    assert pres.witness_for("D1", 0) is not None
    assert pres.witness_for("D2", 0) is None


def test_validate_presentation_accepts_catalog():
    for key, n in (("sl2_mod_T", None), ("brion_5_1", 3), ("brion_5_2", None)):
        validate_presentation(builtin(key, n).presentation)


def test_validate_presentation_rejects_open_h():
    # span{E, F} is not bracket-closed ([E, F] = H)
    pres = _sl2_pres([E, F])
    with pytest.raises(ValueError, match="bracket-closed"):
        validate_presentation(pres)


def test_validate_presentation_rejects_e_outside_b():
    rs = build_root_system("A1")
    blocks = (2,)
    pres = make_presentation(
        rs, blocks, [element(blocks, [H])], [element(blocks, [H_LO])],
        [(element(blocks, [E_LO]), element(blocks, [H_LO]),
          element(blocks, [F_LO]))])
    with pytest.raises(ValueError, match="outside span"):
        validate_presentation(pres)


def _repeated(pres, name, k):
    """pres with element k of its h or b basis repeated at the end."""
    bases = {"h_basis": pres.h_basis, "b_basis": pres.b_basis}
    bases[name] += (bases[name][k],)
    return make_presentation(pres.rs, pres.blocks, bases["h_basis"], bases["b_basis"],
                             pres.triples, pres.witnesses)


@pytest.mark.parametrize("name", ["h_basis", "b_basis"])
def test_validate_presentation_rejects_dependent_basis(name):
    """make_presentation already rejects it, so validation never sees it."""
    pres = builtin("brion_5_1", 4).presentation
    validate_presentation(pres)
    last = len(getattr(pres, name))
    with pytest.raises(ValueError) as exc:
        _repeated(pres, name, 3)
    assert str(exc.value) == (f"{name} is linearly dependent: element {last} "
                              "lies in the span of the elements before it")


def _big_block_triple(blocks):
    """The a1 triple in the top-left 2x2 corner of the first block."""
    dim, n = sum(k * k for k in blocks), blocks[0]

    def unit(*entries):
        return tuple(Fraction(dict(entries).get(i, 0)) for i in range(dim))

    return unit((1, 1)), unit((0, 1), (n + 1, -1)), unit((n, 1))


def test_make_presentation_caps_total_block_dimension():
    rs = build_root_system("A1")
    assert MAX_BLOCK_DIM >= 2 * 10 ** 2 * 2  # two brion_5_1 presentations at n = 10
    pres = make_presentation(rs, (20,), [], [], [_big_block_triple((20,))])
    assert sum(n * n for n in pres.blocks) == MAX_BLOCK_DIM
    with pytest.raises(ValueError) as exc:
        make_presentation(rs, (20, 1), [], [], [_big_block_triple((20, 1))])
    assert str(exc.value) == "total block dimension 401 exceeds cap 400"


@pytest.mark.parametrize("name", ["h_basis", "b_basis"])
def test_make_presentation_caps_basis_length(name):
    pres = builtin("sl2_mod_U", None).presentation
    bases = {"h_basis": pres.h_basis, "b_basis": pres.b_basis}
    bases[name] = (bases[name][0],) * 4
    with pytest.raises(ValueError) as exc:
        make_presentation(pres.rs, pres.blocks, bases["h_basis"], bases["b_basis"],
                          pres.triples)
    assert str(exc.value) == f"{name} has 4 elements, more than the algebra dimension 3"
    bases[name] = bases[name][:3]  # at the dimension: within the cap, but dependent
    with pytest.raises(ValueError, match=f"{name} is linearly dependent: element 1 "):
        make_presentation(pres.rs, pres.blocks, bases["h_basis"], bases["b_basis"],
                          pres.triples)


# ---------------------------------------------------------------- open orbit

def test_open_orbit_catalog_entries():
    for key, n in (("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
                   ("brion_5_1", 2), ("brion_5_1", 4), ("brion_5_2", None)):
        assert open_orbit_check(builtin(key, n).presentation)


def test_open_orbit_fails_for_untwisted_diagonal():
    assert not open_orbit_check(_triple_diag_pres(IDENTITY3))


def test_open_orbit_holds_for_twisted_diagonal():
    assert open_orbit_check(_triple_diag_pres(TWISTED3))


# ---------------------------------------------------------------- stabilizers

def test_parabolic_basis_adds_f():
    pres = builtin("sl2_mod_U", None).presentation
    pb = parabolic_basis(pres, 0)
    assert len(pb) == len(pres.b_basis) + 1
    assert pb[-1] == pres.triples[0][2]


def test_stabilizer_dims_untwisted_vs_twisted():
    untwisted = _triple_diag_pres(IDENTITY3)
    assert [len(stabilizer_in_parabolic(untwisted, a)) for a in range(3)] == [2, 2, 2]
    twisted = _triple_diag_pres(TWISTED3)
    assert [len(stabilizer_in_parabolic(twisted, a)) for a in range(3)] == [1, 1, 1]


def test_stabilizer_members_lie_in_h_and_parabolic():
    pres = builtin("brion_5_2", None).presentation
    for alpha in range(3):
        for s in stabilizer_in_parabolic(pres, alpha):
            assert in_span(pres.h_basis, s)
            assert in_span(parabolic_basis(pres, alpha), s)


# ---------------------------------------------------------------- projection

def test_dphi_sends_triple_to_standard_triple():
    pres = builtin("sl2_mod_U", None).presentation
    e, h, f = pres.triples[0]
    assert dphi_project(pres, 0, e) == tuple(map(tuple, map(lambda r: tuple(Fraction(x) for x in r), E)))
    assert dphi_project(pres, 0, h) == tuple(tuple(Fraction(x) for x in r) for r in H)
    assert dphi_project(pres, 0, f) == tuple(tuple(Fraction(x) for x in r) for r in F)


def test_dphi_kills_other_factors():
    pres = builtin("brion_5_1", 2).presentation
    e2 = pres.triples[1][0]  # positive root vector of the other factor
    out = dphi_project(pres, 0, e2)
    assert all(x == 0 for row in out for x in row)
    h2 = pres.triples[1][1]  # kernel of alpha1 in the torus
    out = dphi_project(pres, 0, h2)
    assert all(x == 0 for row in out for x in row)


def test_dphi_rejects_outside_parabolic():
    pres = builtin("brion_5_1", 2).presentation
    f2 = pres.triples[1][2]
    with pytest.raises(ValueError, match="not in the minimal parabolic"):
        dphi_project(pres, 0, f2)


@st.composite
def _parabolic_probe(draw):
    """A catalog presentation, one of its simple roots, and an integer
    combination of b and f_alpha, moved or not by a multiple of an element
    of h or of a triple, so that it may leave p_alpha."""
    key, n = draw(st.sampled_from(_ORACLE_ENTRIES))
    pres = builtin(key, n).presentation
    alpha = draw(st.integers(0, pres.rs.rank - 1))
    pb = parabolic_basis(pres, alpha)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(pb), max_size=len(pb)))
    y = draw(st.sampled_from(pres.h_basis + tuple(v for t in pres.triples for v in t)))
    t = draw(st.integers(-2, 2))
    return pres, alpha, tuple(sum(c * v for c, v in zip(coeffs, col)) + t * w
                              for col, w in zip(zip(*pb), y))


@settings(max_examples=40, deadline=None)
@given(_parabolic_probe())
def test_dphi_membership_matches_in_span(case):
    pres, alpha, x = case
    if in_span(parabolic_basis(pres, alpha), x):
        dphi_project(pres, alpha, x)
    else:
        with pytest.raises(ValueError, match="not in the minimal parabolic"):
            dphi_project(pres, alpha, x)


def test_dphi_is_linear_on_stabilizer():
    pres = builtin("brion_5_2", None).presentation
    (s,) = stabilizer_in_parabolic(pres, 0)
    one = dphi_project(pres, 0, s)
    three = dphi_project(pres, 0, tuple(3 * v for v in s))
    assert three == tuple(tuple(3 * x for x in row) for row in one)


def test_dphi_kills_central_blocks():
    # mixed (2, 1) blocks: the size-1 block lands in the projection kernel
    rs = build_root_system("A1+T1")
    blocks = (2, 1)
    h_basis = [element(blocks, [[[0, 1], [1, 0]], [[1]]])]
    b_basis = [element(blocks, [H_LO, [[0]]]), element(blocks, [E_LO, [[0]]]),
               element(blocks, [ZERO2, [[1]]])]
    triples = [(element(blocks, [E_LO, [[0]]]), element(blocks, [H_LO, [[0]]]),
                element(blocks, [F_LO, [[0]]]))]
    pres = make_presentation(rs, blocks, h_basis, b_basis, triples)
    x = element(blocks, [H_LO, [[5]]])
    assert dphi_project(pres, 0, x) == tuple(tuple(Fraction(v) for v in r) for r in H)
    y = element(blocks, [ZERO2, [[7]]])
    out = dphi_project(pres, 0, y)
    assert all(v == 0 for row in out for v in row)


def _oracle_project(pres, alpha, x):
    """The projection as a solve against an adapted basis of p_alpha:
    e, h, f, ker(alpha) in the span of the h_j, the central 1-blocks and
    every other positive root vector, which assumes b is spanned by the
    last three.  The trace-form projection must agree wherever it holds."""
    rs = pres.rs
    hvecs = [t[1] for t in pres.triples]
    col = [tuple(Fraction(rs.cartan[j][alpha]) for j in range(rs.rank))]
    kernel = [tuple(sum(c * v for c, v in zip(combo, entries)) for entries in zip(*hvecs))
              for combo in nullspace(col)]
    dim, pos = len(hvecs[0]), 0
    for n in pres.blocks:
        if n == 1:
            kernel.append(tuple(Fraction(int(i == pos)) for i in range(dim)))
        pos += n * n
    unit = tuple(int(i == alpha) for i in range(rs.rank))
    kernel += [v for coeffs, v in sorted(_positive_root_vectors(pres).items())
               if coeffs != unit]
    sol = solve_columns(list(pres.triples[alpha]) + kernel, x)
    assert sol is not None, "outside the span of the adapted basis"
    ce, ch, cf = sol[:3]
    return ((ch, ce), (cf, -ch))


def _sign_conjugate(pres, signs):
    """The presentation conjugated blockwise by diag(signs), which maps
    entry (i, j) of a block to signs[i] * signs[j] times itself."""
    def conj(x):
        out, pos, first = [], 0, 0
        for n in pres.blocks:
            d = signs[first:first + n]
            out += (d[i] * d[j] * x[pos + i * n + j] for i in range(n) for j in range(n))
            pos, first = pos + n * n, first + n
        return tuple(out)

    return make_presentation(pres.rs, pres.blocks, [conj(x) for x in pres.h_basis],
                             [conj(x) for x in pres.b_basis],
                             [tuple(conj(x) for x in t) for t in pres.triples],
                             pres.witnesses)


_ORACLE_ENTRIES = [("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
                   ("brion_5_2", None)] + [("brion_5_1", n) for n in range(2, 6)]


@st.composite
def _catalog_root(draw):
    """A catalog presentation, conjugated by a drawn diagonal sign matrix
    (all +1 leaves it as it is), and one of its simple roots."""
    key, n = draw(st.sampled_from(_ORACLE_ENTRIES))
    pres = builtin(key, n).presentation
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=sum(pres.blocks),
                          max_size=sum(pres.blocks)))
    return _sign_conjugate(pres, signs), draw(st.integers(0, pres.rs.rank - 1))


@settings(max_examples=10, deadline=None)
@given(_catalog_root())
def test_trace_form_projection_matches_adapted_basis_oracle(pres_alpha):
    pres, alpha = pres_alpha
    stab = stabilizer_in_parabolic(pres, alpha)
    for x in parabolic_basis(pres, alpha) + stab:
        assert dphi_project(pres, alpha, x) == _oracle_project(pres, alpha, x)
    assert image_for_root(pres, alpha) == \
        classify_image([_oracle_project(pres, alpha, x) for x in stab])


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


@st.composite
def _unimodular(draw, n):
    """g = L U with L lower and U upper unitriangular and off-diagonal
    entries in {-1, 0, 1}, and its exact inverse."""
    def tri(below):
        off = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n * n, max_size=n * n))
        return [[1 if i == j else off[i * n + j] if (i > j) == below else 0
                 for j in range(n)] for i in range(n)]

    g = _matmul(tri(True), tri(False))
    cols = [solve_columns([tuple(row[j] for row in g) for j in range(n)],
                          tuple(int(i == k) for i in range(n))) for k in range(n)]
    return g, [[cols[j][i] for j in range(n)] for i in range(n)]


def _conjugate(pres, gs, h_basis=None):
    """Ad(g) applied blockwise to h (or to the given h basis), b and every
    triple: a presentation of the same pair.  Witnesses stay as they are."""
    def conj(x):
        out, pos = [], 0
        for n, (g, ginv) in zip(pres.blocks, gs):
            block = [x[pos + i * n:pos + (i + 1) * n] for i in range(n)]
            out += (v for row in _matmul(_matmul(g, block), ginv) for v in row)
            pos += n * n
        return tuple(out)

    return make_presentation(pres.rs, pres.blocks,
                             [conj(x) for x in (h_basis or pres.h_basis)],
                             [conj(x) for x in pres.b_basis],
                             [tuple(conj(x) for x in t) for t in pres.triples],
                             pres.witnesses)


def _unclosed_h(pres):
    """h with one element dropped that the bracket of a pair needs, and
    that pair put first; None when h has no such pair."""
    h = pres.h_basis
    for i in range(len(h)):
        for j in range(i + 1, len(h)):
            z = bracket(pres.blocks, h[i], h[j])
            coords = solve_columns(h, z) if any(z) else ()
            for k, c in enumerate(coords):
                if c and k not in (i, j):
                    return [h[i], h[j]] + [x for m, x in enumerate(h) if m not in (i, j, k)]
    return None


def _knop_answer(pres, datum, color):
    try:
        return classify_knop(pres, datum, color)
    except (InconsistencyError, UnresolvedTypeError) as exc:
        return type(exc)


_CONJUGATED_ENTRIES = [("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
                       ("brion_5_2", None)] + [("brion_5_1", n) for n in range(2, 5)]


@st.composite
def _conjugated_entry(draw):
    key, n = draw(st.sampled_from(_CONJUGATED_ENTRIES))
    entry = builtin(key, n)
    return entry, [draw(_unimodular(k)) for k in entry.presentation.blocks]


@settings(max_examples=15, deadline=None)
@given(_conjugated_entry())
def test_answers_are_invariant_under_unimodular_conjugation(case):
    entry, gs = case
    pres = entry.presentation
    dense = _conjugate(pres, gs)
    validate_presentation(dense)
    assert open_orbit_check(dense) == open_orbit_check(pres)
    for c in entry.datum.colors:
        assert _knop_answer(dense, entry.datum, c) == _knop_answer(pres, entry.datum, c)
    unclosed = _unclosed_h(pres)
    if unclosed is not None:
        with pytest.raises(ValueError, match=r"not bracket-closed at pair \(0, 1\)$"):
            validate_presentation(_conjugate(pres, gs, unclosed))


def _known_fault_pres():
    """A1 in one 3x3 block with diag(1, 1, -2) in both b and h: b is not
    spanned by h_a1 and the root vectors, yet the presentation is valid
    and its basepoint generic."""
    rs = build_root_system("A1")
    blocks = (3,)

    def e3(i, j):
        m = [[0] * 3 for _ in range(3)]
        m[i][j] = 1
        return element(blocks, [m])

    t = element(blocks, [[[1, 0, 0], [0, 1, 0], [0, 0, -2]]])
    e, h, f = e3(0, 1), element(blocks, [[[1, 0, 0], [0, -1, 0], [0, 0, 0]]]), e3(1, 0)
    return make_presentation(rs, blocks, [t, f, e3(2, 0), e3(2, 1)],
                             [h, t, e, e3(0, 2), e3(1, 2)], [(e, h, f)])


def test_known_fault_presentation_is_type_b():
    pres = _known_fault_pres()
    validate_presentation(pres)
    assert open_orbit_check(pres)
    datum = SphericalDatum(pres.rs, frozenset(), (ColorRecord("D1", (0,)),))
    assert classify_knop(pres, datum, "D1") is ColorType.B
    # diag(1, 1, -2) commutes with the sl2, so it projects to zero
    assert all(v == 0 for row in dphi_project(pres, 0, pres.b_basis[1]) for v in row)


def test_known_fault_document_types_by_knop(tmp_path, capsys):
    pres = _known_fault_pres()
    datum = SphericalDatum(pres.rs, frozenset(), (ColorRecord("D1", (0,)),))
    doc = tmp_path / "doc.json"
    doc.write_text(dump_document(datum, pres), encoding="utf-8")
    assert main(["types", str(doc), "--method", "knop", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["types"] == {"D1": "b"}


def test_classify_knop_reports_degenerate_triples():
    # identical A2 triples on one sl2; h = span{f} makes the basepoint
    # generic, so the degenerate triples are what classify_knop meets
    rs = build_root_system("A2")
    blocks = (2,)
    t = (element(blocks, [E_LO]), element(blocks, [H_LO]), element(blocks, [F_LO]))
    pres = make_presentation(rs, blocks, [t[2]], [t[1], t[0]], [t, t])
    assert open_orbit_check(pres)
    datum = SphericalDatum(rs, frozenset(), (ColorRecord("D", (0,)),))
    with pytest.raises(InconsistencyError, match="degenerate"):
        classify_knop(pres, datum, "D")


def test_zero_triple_is_degenerate():
    # e = h = f = 0 satisfies every bracket relation of a triple
    rs = build_root_system("A1")
    blocks = (2,)
    zero = element(blocks, [ZERO2])
    with pytest.raises(ValueError, match=r"triple a1 is zero \(degenerate\)"):
        make_presentation(rs, blocks, [element(blocks, [F_LO])],
                          [element(blocks, [H_LO]), element(blocks, [E_LO])],
                          [(zero, zero, zero)])


def test_zero_triple_document_is_a_schema_error(tmp_path, capsys):
    entry = builtin("sl2_mod_U", None)
    doc = json.loads(dump_document(entry.datum, entry.presentation))
    doc["presentation"]["triples"]["a1"] = {tag: [[0, 0, 0, 0]] for tag in "ehf"}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["validate"], ["types", "--method", "knop"]):
        assert main([command[0], str(path)] + command[1:]) == 2
        assert capsys.readouterr().err == \
            "schema error: presentation: triple a1 is zero (degenerate)\n"


def test_positive_root_vectors_cover_all_roots():
    pres = builtin("brion_5_1", 3).presentation
    vecs = _positive_root_vectors(pres)
    assert len(vecs) == len(positive_roots(pres.rs))
    assert all(any(v) for v in vecs.values())


def test_positive_root_vectors_degenerate():
    # two triples sharing one sl2: [e, e] = 0 kills the (1,1) root vector
    rs = build_root_system("A2")
    blocks = (2,)
    t = (element(blocks, [E_LO]), element(blocks, [H_LO]), element(blocks, [F_LO]))
    pres = make_presentation(rs, blocks, [], [t[1], t[0]], [t, t])
    with pytest.raises(InconsistencyError, match="degenerate"):
        _positive_root_vectors(pres)


# ---------------------------------------------------------------- image class

def test_classify_image_full():
    assert classify_image([E, H, F]).kind is ImageClass.FULL


def test_classify_image_two_dim():
    assert classify_image([E, H]).kind is ImageClass.CONTAINS_NILPOTENT


def test_classify_image_nilpotent_line():
    assert classify_image([E]).kind is ImageClass.CONTAINS_NILPOTENT


def test_classify_image_torus_lines():
    assert classify_image([H]).kind is ImageClass.TORUS_LIKE
    s = [[0, 1], [1, 0]]  # det -1, semisimple
    assert classify_image([s]).kind is ImageClass.TORUS_LIKE


def test_classify_image_dedups_spanning_sets():
    img = classify_image([H, [[2, 0], [0, -2]]])
    assert img.kind is ImageClass.TORUS_LIKE
    assert len(img.basis) == 1


def test_classify_image_zero_rejected():
    with pytest.raises(InconsistencyError, match="zero"):
        classify_image([ZERO2])
    with pytest.raises(InconsistencyError):
        classify_image([])


def test_classify_image_input_checks():
    with pytest.raises(ValueError, match="traceless"):
        classify_image([[[1, 0], [0, 1]]])
    with pytest.raises(ValueError, match="2x2"):
        classify_image([[[1]]])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_classify_image_conjugation_invariant(trips, g):
    mats = [[[a, b], [c, -a]] for a, b, c in trips]
    if all(all(x == 0 for x in row) for m in mats for row in m):
        return
    det = Fraction(g[0]) * g[3] - Fraction(g[1]) * g[2]
    if det == 0:
        return
    gm = [[g[0], g[1]], [g[2], g[3]]]
    conj = [_conj(gm, m) for m in mats]
    assert classify_image(mats).kind is classify_image(conj).kind


# ---------------------------------------------------------------- resolution

def test_resolve_with_flipping_witness():
    img = classify_image([H])
    assert resolve_torus_like(img, witness=[[0, 1], [-1, 0]]) is ColorType.TWO_A


def test_resolve_centralizing_witness_falls_to_chi():
    img = classify_image([H])
    assert resolve_torus_like(img, witness=[[1, 0], [0, 1]], chi_pairing=1) is ColorType.A
    assert resolve_torus_like(img, witness=[[1, 0], [0, 1]]) is None


def test_resolve_rejects_non_normalizing_witness():
    img = classify_image([H])
    with pytest.raises(InconsistencyError, match="normalize"):
        resolve_torus_like(img, witness=[[1, 1], [0, 1]])


def test_resolve_by_chi():
    img = classify_image([H])
    assert resolve_torus_like(img, chi_pairing=1) is ColorType.A
    assert resolve_torus_like(img, chi_pairing=2) is ColorType.TWO_A
    with pytest.raises(InconsistencyError, match="neither 1 nor 2"):
        resolve_torus_like(img, chi_pairing=3)


def test_resolve_nothing_given():
    assert resolve_torus_like(classify_image([H])) is None


def test_resolve_wants_torus_like():
    with pytest.raises(ValueError, match="torus-like"):
        resolve_torus_like(classify_image([E]))


def test_resolve_rejects_singular_witness():
    with pytest.raises(ValueError, match="singular"):
        resolve_torus_like(classify_image([H]), witness=[[1, 0], [0, 0]])


# ---------------------------------------------------------------- classify_knop

@pytest.mark.parametrize("key,n,want", [
    ("sl2_mod_T", None, {"D1": ColorType.A, "D2": ColorType.A}),
    ("sl2_mod_N", None, {"D1": ColorType.TWO_A}),
    ("sl2_mod_U", None, {"D1": ColorType.B}),
    ("brion_5_1", 3, {"D1": ColorType.B, "D2": ColorType.B}),
    ("brion_5_2", None, {"D12": ColorType.A, "D13": ColorType.A,
                         "D23": ColorType.A}),
])
def test_classify_knop_catalog(key, n, want):
    entry = builtin(key, n)
    got = {c.name: classify_knop(entry.presentation, entry.datum, c)
           for c in entry.datum.colors}
    assert got == want


def test_classify_knop_accepts_color_name():
    entry = builtin("sl2_mod_U", None)
    assert classify_knop(entry.presentation, entry.datum, "D1") is ColorType.B


def test_classify_knop_matches_luna_where_both_apply():
    for key, n in (("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
                   ("brion_5_2", None)):
        entry = builtin(key, n)
        for c in entry.datum.colors:
            assert classify_knop(entry.presentation, entry.datum, c) is \
                classify_luna(entry.datum, c)


def test_classify_knop_requires_generic_basepoint():
    pres = _triple_diag_pres(IDENTITY3)
    rs = pres.rs
    datum = SphericalDatum(rs, frozenset(),
                           (ColorRecord("D", (0,), "a"),
                            ColorRecord("Dx", (1, 2), "a")))
    with pytest.raises(InconsistencyError, match="not generic"):
        classify_knop(pres, datum, "D")


def test_classify_knop_rejects_full_image_at_mover():
    # h is the whole sl2: the image at the moving root is full
    pres = _sl2_pres([E, H, F])
    rs = pres.rs
    datum = SphericalDatum(rs, frozenset(), (ColorRecord("D", (0,)),))
    with pytest.raises(InconsistencyError, match="full sl2"):
        classify_knop(pres, datum, "D")


def test_classify_knop_torus_like_vs_luna_b_conflict():
    # torus-like stabilizer but an empty spherical-root set calls it b
    pres = _sl2_pres([[[0, 1], [1, 0]]])
    rs = pres.rs
    datum = SphericalDatum(rs, frozenset(), (ColorRecord("D", (0,)),),
                           None, ())
    with pytest.raises(InconsistencyError, match="say b"):
        classify_knop(pres, datum, "D")


def test_classify_knop_unresolved_without_any_split():
    pres = _sl2_pres([[[0, 1], [1, 0]]])
    rs = pres.rs
    datum = SphericalDatum(rs, frozenset(), (ColorRecord("D", (0,)),))
    with pytest.raises(UnresolvedTypeError):
        classify_knop(pres, datum, "D")


def test_classify_knop_disagreeing_movers():
    # factor 1 contributes a nilpotent line, factor 2 a torus line
    rs = build_root_system("A1xA1")
    blocks = (2, 2)

    def emb(i, m):
        mats = [ZERO2, ZERO2]
        mats[i] = m
        return element(blocks, mats)

    s = [[0, 1], [1, 0]]
    h_basis = [emb(0, F_LO), emb(1, s)]
    b_basis = [emb(i, H_LO) for i in range(2)] + [emb(i, E_LO) for i in range(2)]
    triples = [(emb(i, E_LO), emb(i, H_LO), emb(i, F_LO)) for i in range(2)]
    pres = make_presentation(rs, blocks, h_basis, b_basis, triples)
    assert open_orbit_check(pres)
    datum = SphericalDatum(rs, frozenset(),
                           (ColorRecord("D", (0, 1),
                                        chi=Weight((Fraction(1), Fraction(1)), ())),))
    with pytest.raises(InconsistencyError, match="disagree"):
        classify_knop(pres, datum, "D")


def test_image_for_root_empty_stabilizer():
    # h spanned by the lowest root vector of sl3 misses the minimal
    # parabolic of a1 entirely
    rs = build_root_system("A2")
    blocks = (3,)

    def e3(i, j):
        m = [[0] * 3 for _ in range(3)]
        m[i][j] = 1
        return element(blocks, [m])

    def d3(a, b, c):
        return element(blocks, [[[a, 0, 0], [0, b, 0], [0, 0, c]]])

    h1, h2 = d3(1, -1, 0), d3(0, 1, -1)
    b_basis = [h1, h2, e3(0, 1), e3(0, 2), e3(1, 2)]
    triples = [(e3(0, 1), h1, e3(1, 0)), (e3(1, 2), h2, e3(2, 1))]
    pres = make_presentation(rs, blocks, [e3(2, 0)], b_basis, triples)
    with pytest.raises(InconsistencyError, match="trivially"):
        image_for_root(pres, 0)


# ---------------------------------------------------------------- JSON codec

@pytest.mark.parametrize("key,n", [
    ("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
    ("brion_5_1", 2), ("brion_5_1", 4), ("brion_5_2", None),
])
def test_presentation_json_round_trip(key, n):
    pres = builtin(key, n).presentation
    doc = presentation_to_json(pres)
    again = presentation_from_json(doc, pres.rs)
    assert again == pres
    assert presentation_to_json(again) == doc


def _upres_doc():
    return presentation_to_json(builtin("sl2_mod_U", None).presentation)


@pytest.mark.parametrize("mutate,message", [
    pytest.param(lambda d: "x", "presentation: expected an object", id="not-object"),
    pytest.param(lambda d: {**d, "extra": 1}, "presentation: unknown fields ['extra']",
                 id="unknown-field"),
    pytest.param(lambda d: {**d, "blocks": [0]},
                 "presentation.blocks: expected a list of positive sizes", id="bad-block-size"),
    pytest.param(lambda d: {**d, "blocks": "2"},
                 "presentation.blocks: expected a list of positive sizes", id="blocks-not-list"),
    pytest.param(lambda d: {**d, "triples": {}}, "presentation.triples: missing a1",
                 id="missing-triple"),
    pytest.param(lambda d: {**d, "triples": {"a1": [1, 2, 3]}},
                 "presentation.triples.a1: expected e, h and f", id="triple-not-object"),
    pytest.param(lambda d: {**d, "triples": {"a1": {"e": d["triples"]["a1"]["e"]}}},
                 "presentation.triples.a1: expected e, h and f", id="triple-missing-tags"),
    pytest.param(lambda d: {**d, "triples": {**d["triples"], "a7": d["triples"]["a1"]}},
                 "presentation.triples: unknown fields ['a7']", id="triple-unknown-name"),
    pytest.param(lambda d: {**d, "triples": {"a1": {**d["triples"]["a1"], "zzz": 1}}},
                 "presentation.triples.a1: unknown fields ['zzz']", id="triple-unknown-field"),
    pytest.param(lambda d: {**d, "h_basis": [[[1, 0, 0]]]},
                 "presentation.h_basis[0][0]: expected 4 entries, got 3", id="flat-length"),
    pytest.param(lambda d: {**d, "h_basis": [[[0.5, 0, 0, 0]]]},
                 "presentation.h_basis[0][0][0]: floats are not accepted, write '0.5' as 'p/q'",
                 id="float-entry"),
    pytest.param(lambda d: {**d, "witnesses": [{"root": "a1", "matrix": [1, 0, 0, 1]}]},
                 "presentation.witnesses[0].color: expected a color name",
                 id="witness-no-color"),
    pytest.param(lambda d: {**d, "witnesses": [{"color": "D1", "root": "a9",
                                                "matrix": [1, 0, 0, 1]}]},
                 "presentation.witnesses[0].root: simple root a9 out of range for A1",
                 id="witness-bad-root"),
    pytest.param(lambda d: {**d, "witnesses": [{"color": "D1", "root": "a1",
                                                "matrix": [1, 0, 0]}]},
                 "presentation.witnesses[0].matrix: expected 4 entries, got 3",
                 id="witness-short-matrix"),
    pytest.param(lambda d: {**d, "witnesses": [{"color": "D1", "root": "a1",
                                                "matrix": [1, 0, 0, 1], "zzz": 1}]},
                 "presentation.witnesses[0]: unknown fields ['zzz']",
                 id="witness-unknown-field"),
])
def test_presentation_json_rejection(mutate, message):
    rs = build_root_system("A1")
    with pytest.raises(SchemaError) as exc:
        presentation_from_json(mutate(_upres_doc()), rs)
    assert str(exc.value) == message


def test_presentation_json_wraps_structural_errors():
    doc = _upres_doc()
    doc["triples"]["a1"]["h"] = doc["triples"]["a1"]["e"]  # [e,f] != h now
    rs = build_root_system("A1")
    with pytest.raises(SchemaError, match="triple"):
        presentation_from_json(doc, rs)
