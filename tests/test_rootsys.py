"""Root-system core: Cartan matrices against an independent Euclidean
oracle, positive-root enumeration against the whole-subset closure,
Weyl vectors and kappa against root sums and Bourbaki's closed form,
pairings."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sphdiv.rootsys import (Coweight, RootSystemSpec, Weight, _two_rho_coeffs,
                            build_root_system, kappa, pair, parse_spec,
                            positive_roots, rho, two_rho)


# ---------------------------------------------------------------- oracle

def _euclidean_simple_roots(fam, n):
    """Bourbaki realizations, written over Fraction."""
    def e(i, dim):
        v = [Fraction(0)] * dim
        v[i] = Fraction(1)
        return v

    def sub(a, b):
        return [x - y for x, y in zip(a, b)]

    if fam == "A":
        return [sub(e(i, n + 1), e(i + 1, n + 1)) for i in range(n)]
    if fam == "B":
        roots = [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)]
        roots.append(e(n - 1, n))
        return roots
    if fam == "C":
        roots = [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)]
        roots.append([2 * x for x in e(n - 1, n)])
        return roots
    if fam == "D":
        roots = [sub(e(i, n), e(i + 1, n)) for i in range(n - 1)]
        roots.append([x + y for x, y in zip(e(n - 2, n), e(n - 1, n))])
        return roots
    if fam == "E":
        half = Fraction(1, 2)
        a1 = [half, -half, -half, -half, -half, -half, -half, half]
        a2 = [Fraction(1), Fraction(1)] + [Fraction(0)] * 6
        rest = [sub(e(i - 2, 8), e(i - 3, 8)) for i in range(3, n + 1)]
        return [a1, a2] + rest
    if fam == "F":
        return [
            sub(e(1, 4), e(2, 4)),
            sub(e(2, 4), e(3, 4)),
            e(3, 4),
            [Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2)],
        ]
    if fam == "G":
        return [
            [Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(-2), Fraction(1), Fraction(1)],
        ]
    raise AssertionError(fam)


def _oracle_cartan(fam, n):
    roots = _euclidean_simple_roots(fam, n)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    c = [[2 * dot(roots[i], roots[j]) / dot(roots[i], roots[i])
          for j in range(n)] for i in range(n)]
    for row in c:
        for x in row:
            assert x.denominator == 1
    return [[int(x) for x in row] for row in c]


ALL_FACTORS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,n", ALL_FACTORS)
def test_cartan_matches_euclidean_oracle(fam, n):
    rs = build_root_system(f"{fam}{n}")
    assert [list(r) for r in rs.cartan] == _oracle_cartan(fam, n)


def test_frozen_small_cartans():
    a2 = build_root_system("A2")
    assert a2.cartan == ((2, -1), (-1, 2))
    b2 = build_root_system("B2")
    assert b2.cartan[0][1] == -1
    assert b2.cartan[1][0] == -2
    triple = build_root_system("A1xA1xA1")
    assert triple.cartan == ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def test_product_is_block_diagonal():
    rs = build_root_system("A2xB2")
    assert rs.cartan == (
        (2, -1, 0, 0),
        (-1, 2, 0, 0),
        (0, 0, 2, -1),
        (0, 0, -2, 2),
    )


# ---------------------------------------------------------------- specs

def test_spec_parse_and_format():
    spec = parse_spec("A2xA2")
    assert spec == RootSystemSpec((("A", 2), ("A", 2)), 0)
    assert str(parse_spec("A3+T1")) == "A3+T1"
    assert parse_spec("T2") == RootSystemSpec((), 2)
    assert str(parse_spec("T2")) == "T2"
    # the degenerate empty spec still round-trips
    assert str(parse_spec("T0")) == "T0"
    assert parse_spec("T0") == RootSystemSpec((), 0)


@pytest.mark.parametrize("bad", ["E9", "E5", "F3", "G1", "A0", "H3", "", "A2x", "A2+T",
                                 "A2xG3", "T65", "A2+T65"])
def test_spec_rejects_illegal(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


def test_central_rank_capped_like_total_rank():
    assert build_root_system("T64").central_rank == 64
    assert build_root_system("A64+T64").rank == 64
    with pytest.raises(ValueError, match="central rank 20000 exceeds cap 64"):
        build_root_system(RootSystemSpec((), 20000))


def test_spec_error_names_offending_factor():
    with pytest.raises(ValueError, match="G3"):
        parse_spec("A2xG3")


# ---------------------------------------------------------------- roots

def _counts(fam, n):
    if fam == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n,
            "D": n * (n - 1), "F": 24, "G": 6}[fam]


@pytest.mark.parametrize("fam,n", ALL_FACTORS)
def test_positive_root_counts(fam, n):
    rs = build_root_system(f"{fam}{n}")
    assert len(positive_roots(rs)) == _counts(fam, n)


def test_positive_roots_of_subset_a4():
    rs = build_root_system("A4")
    roots = positive_roots(rs, [1, 2])
    coeffs = [r.simple_coeffs for r in roots]
    assert coeffs == [(0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0)]


def test_positive_roots_empty_subset():
    rs = build_root_system("A4")
    assert positive_roots(rs, []) == []


def test_positive_roots_deterministic_order():
    rs = build_root_system("F4")
    roots = positive_roots(rs)
    keys = [(r.height, r.simple_coeffs) for r in roots]
    assert keys == sorted(keys)


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_string_closure_downward(spec):
    """Every non-simple enumerated root has some alpha_i with
    beta - alpha_i again in the list."""
    rs = build_root_system(spec)
    roots = positive_roots(rs)
    have = {r.simple_coeffs for r in roots}
    for r in roots:
        if r.height == 1:
            continue
        hits = 0
        for i, c in enumerate(r.simple_coeffs):
            if c > 0:
                down = list(r.simple_coeffs)
                down[i] -= 1
                if tuple(down) in have:
                    hits += 1
        assert hits >= 1, r


def _closure_oracle(rs, subset=None):
    """The positive roots of <subset> as simple-root coefficient tuples,
    closed over the whole subset at once in the full rank, sorted by
    (height, coefficients)."""
    I = range(rs.rank) if subset is None else sorted(set(subset))
    C = rs.cartan
    layer = [tuple(1 if j == i else 0 for j in range(rs.rank)) for i in I]
    known = set(layer)
    while layer:
        nxt = []
        for beta in layer:
            for i in I:
                down = list(beta)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) in known:
                        p += 1
                    else:
                        break
                if p - sum(C[i][j] * beta[j] for j in range(rs.rank)) > 0:
                    up = list(beta)
                    up[i] += 1
                    if tuple(up) not in known:
                        known.add(tuple(up))
                        nxt.append(tuple(up))
        layer = nxt
    return sorted(known, key=lambda t: (sum(t), t))


_SPECS = ["A1", "A5", "B4", "C5", "D4", "D7", "E6", "E7", "E8", "F4", "G2",
          "A3xB2", "G2xF4xA4", "D5xE6", "A6+T2", "C3xA1xA1+T1"]


@st.composite
def spec_and_subset(draw):
    rs = build_root_system(draw(st.sampled_from(_SPECS)))
    return rs, draw(st.lists(st.sampled_from(range(rs.rank)), unique=True))


@settings(max_examples=60, deadline=None)
@given(spec_and_subset())
def test_positive_roots_match_whole_subset_closure(case):
    rs, subset = case
    roots = positive_roots(rs, subset)
    assert [r.simple_coeffs for r in roots] == _closure_oracle(rs, subset)
    for r in roots:
        expected = [sum(rs.cartan[k][j] * r.simple_coeffs[j] for j in range(rs.rank))
                    for k in range(rs.rank)]
        assert list(r.as_weight.fund) == expected
        assert r.as_weight.central == (0,) * rs.central_rank


@pytest.mark.parametrize("spec", _SPECS)
def test_positive_roots_of_full_system_match_closure(spec):
    rs = build_root_system(spec)
    assert [r.simple_coeffs for r in positive_roots(rs)] == _closure_oracle(rs)


def _root_sum(rs, subset) -> Weight:
    total = rs.zero_weight()
    for r in positive_roots(rs, subset):
        total = total + r.as_weight
    return total


@settings(max_examples=60, deadline=None)
@given(spec_and_subset())
def test_kappa_is_difference_of_root_sums(case):
    rs, sp = case
    assert two_rho(rs, sp) == _root_sum(rs, sp)
    assert kappa(rs, sp) == _root_sum(rs, None) - _root_sum(rs, sp)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 64])
def test_two_rho_of_a_n_is_bourbaki_closed_form(n):
    """Bourbaki, Plate I: 2 rho of A_n has coefficient j(n + 1 - j) on
    the j-th simple root."""
    rs = build_root_system(f"A{n}")
    c = _two_rho_coeffs(rs, list(range(n)))
    assert [c[j - 1] for j in range(1, n + 1)] == [j * (n + 1 - j) for j in range(1, n + 1)]
    if n <= 20:
        summed = [sum(r.simple_coeffs[j] for r in positive_roots(rs)) for j in range(n)]
        assert summed == [j * (n + 1 - j) for j in range(1, n + 1)]


def test_subset_indices_are_checked():
    rs = build_root_system("A3")
    for fn in (positive_roots, two_rho, kappa):
        with pytest.raises(ValueError, match="out of range"):
            fn(rs, [3])


def test_root_weight_is_cartan_transform():
    rs = build_root_system("B2")
    for r in positive_roots(rs):
        expected = [sum(rs.cartan[k][j] * r.simple_coeffs[j] for j in range(2))
                    for k in range(2)]
        assert list(r.as_weight.fund) == expected


# ---------------------------------------------------------------- rho

@pytest.mark.parametrize("spec", ["A4", "B3", "C4", "D4", "E6", "F4", "G2", "A2xB2"])
def test_rho_of_full_system_is_all_ones(spec):
    rs = build_root_system(spec)
    assert rho(rs).fund == tuple(Fraction(1) for _ in range(rs.rank))


def test_rho_empty_subset_is_zero():
    rs = build_root_system("A4")
    assert rho(rs, []).is_zero


def test_two_rho_a4_middle_subset():
    rs = build_root_system("A4")
    assert two_rho(rs, [1, 2]).fund == (-2, 2, 2, -2)


@pytest.mark.parametrize("spec,subset", [("A4", [1, 2]), ("B3", [0, 1]),
                                         ("F4", [1, 2]), ("D4", [0, 2, 3])])
def test_two_rho_pairs_to_two_inside_subset(spec, subset):
    rs = build_root_system(spec)
    t = two_rho(rs, subset)
    for i in subset:
        assert pair(i, t) == 2
    edges = set()
    for i in subset:
        for j in range(rs.rank):
            if j not in subset and rs.cartan[j][i] != 0:
                edges.add(j)
    for j in range(rs.rank):
        if j in subset:
            continue
        v = pair(j, t)
        assert v <= 0
        if j not in edges:
            assert v == 0


# ---------------------------------------------------------------- pairings

def test_pair_fundamental_duality():
    rs = build_root_system("B3")
    for i in range(3):
        for j in range(3):
            assert pair(i, rs.fundamental_weight(j)) == (1 if i == j else 0)


def test_pair_simple_root_column():
    rs = build_root_system("G2")
    assert pair(0, rs.simple_root_weight(0)) == 2
    assert pair(0, rs.simple_root_weight(1)) == -3
    assert pair(1, rs.simple_root_weight(0)) == -1


def test_pair_with_central_coordinates():
    rs = build_root_system("A1+T1")
    w = Weight((2,), (Fraction(1, 3),))
    cw = Coweight((1, 3))
    assert pair(cw, w) == 3
    assert pair(0, w) == 2


def test_pair_dimension_mismatch():
    w = Weight((1, 0))
    with pytest.raises(ValueError):
        pair(Coweight((1,)), w)
    with pytest.raises(ValueError):
        pair(5, w)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3),
       rationals, rationals)
def test_pair_is_bilinear_and_exact(cw, w1, w2, s, t):
    v = Coweight(tuple(cw))
    a = Weight(tuple(w1))
    b = Weight(tuple(w2))
    lhs = pair(v, a.scale(s) + b.scale(t))
    rhs = s * pair(v, a) + t * pair(v, b)
    assert lhs == rhs
    assert isinstance(lhs, Fraction)


def test_weight_arithmetic():
    a = Weight((1, 2), (0,))
    b = Weight((0, 1), (3,))
    assert (a + b).fund == (1, 3)
    assert (a - b).central == (-3,)
    assert (-a).fund == (-1, -2)
    assert a.scale(Fraction(1, 2)).fund == (Fraction(1, 2), 1)
    assert (2 * a).fund == (2, 4)
    with pytest.raises(ValueError):
        a + Weight((1,))
