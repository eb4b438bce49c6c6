"""Exact rational linear algebra, cross-checked against a dense
Gauss-Jordan oracle, brute force and random-instance properties."""
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sphdiv import linalg
from sphdiv.linalg import (Echelon, in_span, intersect, nullspace, rank, rref,
                           solve_columns, span_basis)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------- oracle

def dense_rref(rows):
    """Dense Gauss-Jordan elimination over Fraction, the oracle for the
    sparse Echelon that linalg reduces with.  Returns (new_rows,
    pivot_columns) like linalg.rref."""
    m = [[F(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m], pivots


def dense_rank(rows):
    return len(dense_rref(rows)[1])


def dense_in_span(vectors, v):
    return dense_rank(list(vectors) + [v]) == dense_rank(vectors)


def _rows(mat):
    return [tuple(F(x) for x in row) for row in mat]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _matvec(rows, x):
    return [_dot(r, x) for r in rows]


# ---------------------------------------------------------------- rref

def test_rref_identity_fixed_point():
    eye = _rows([[1, 0], [0, 1]])
    reduced, pivots = rref(eye)
    assert reduced == eye
    assert pivots == [0, 1]


def test_rref_known_reduction():
    reduced, pivots = rref(_rows([[2, 4, 6], [1, 2, 4]]))
    assert reduced == _rows([[1, 2, 0], [0, 0, 1]])
    assert pivots == [0, 2]


def test_rref_pushes_zero_rows_to_bottom():
    reduced, pivots = rref(_rows([[1, 1], [2, 2], [0, 0]]))
    assert reduced == _rows([[1, 1], [0, 0], [0, 0]])
    assert pivots == [0]


def test_rank_examples():
    assert rank([]) == 0
    assert rank(_rows([[0, 0]])) == 0
    assert rank(_rows([[1, 2], [2, 4]])) == 1
    assert rank(_rows([[1, 2], [3, 4]])) == 2


small = st.integers(min_value=-5, max_value=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_preserves_row_space(mat):
    rows = _rows(mat)
    reduced, _ = rref(rows)
    for r in reduced:
        assert in_span(rows, r)
    for r in rows:
        assert in_span(reduced, r)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_invariant_under_shuffle(mat):
    rows = _rows(mat)
    shuffled = list(rows)
    random.Random(7).shuffle(shuffled)
    assert rank(rows) == rank(shuffled)


# ---------------------------------------------------------------- solve

def test_solve_columns_exact():
    # columns of [[1,1],[0,1]]: x*(1,0) + y*(1,1) = (3,2) -> x=1, y=2
    cols = [(F(1), F(0)), (F(1), F(1))]
    x = solve_columns(cols, (F(3), F(2)))
    assert x == [F(1), F(2)]


def test_solve_columns_inconsistent():
    cols = [(F(1), F(2))]
    assert solve_columns(cols, (F(1), F(0))) is None


def test_solve_columns_underdetermined_free_vars_zero():
    cols = [(F(1),), (F(1),)]
    x = solve_columns(cols, (F(5),))
    assert x is not None
    assert _dot(x, (F(1), F(1))) == F(5)
    assert x == [F(5), F(0)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=3),
       st.lists(small, min_size=3, max_size=3))
def test_solve_columns_verifies(mat, coeff):
    # build a target known to be solvable, check the returned solution
    cols = [tuple(F(x) for x in col) for col in mat]
    coeff = coeff[:len(cols)]
    target = [F(0)] * 3
    for c, col in zip(coeff, cols):
        for i, v in enumerate(col):
            target[i] += c * v
    x = solve_columns(cols, tuple(target))
    assert x is not None
    got = [F(0)] * 3
    for c, col in zip(x, cols):
        for i, v in enumerate(col):
            got[i] += c * v
    assert got == target


# ---------------------------------------------------------------- nullspace

def test_nullspace_full_rank_is_trivial():
    assert nullspace(_rows([[1, 0], [0, 1]])) == []


def test_nullspace_known_kernel():
    basis = nullspace(_rows([[1, 1, 0]]))
    assert len(basis) == 2
    for v in basis:
        assert _dot((F(1), F(1), F(0)), v) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small, min_size=4, max_size=4), min_size=1, max_size=3))
def test_nullspace_dimension_and_membership(mat):
    rows = _rows(mat)
    basis = nullspace(rows)
    assert len(basis) == 4 - rank(rows)
    for v in basis:
        assert all(x == 0 for x in _matvec(rows, v))
    if basis:
        assert rank(basis) == len(basis)


# ---------------------------------------------------------------- span

def test_in_span_examples():
    rows = _rows([[1, 0, 1], [0, 1, 1]])
    assert in_span(rows, (F(1), F(1), F(2)))
    assert not in_span(rows, (F(0), F(0), F(1)))
    assert in_span([], (F(0), F(0)))
    assert not in_span([], (F(1), F(0)))


def test_span_basis_is_independent():
    rows = _rows([[1, 1], [2, 2], [1, 0]])
    basis = span_basis(rows)
    assert len(basis) == 2
    assert rank(basis) == 2


# ---------------------------------------------------------------- intersect

def test_intersect_planes_in_3space():
    us = _rows([[1, 0, 0], [0, 1, 0]])   # z = 0
    vs = _rows([[0, 1, 0], [0, 0, 1]])   # x = 0
    got = intersect(us, vs)
    assert len(got) == 1
    line = got[0]
    assert in_span(us, line) and in_span(vs, line)
    assert line[1] != 0 and line[0] == 0 and line[2] == 0


def test_intersect_disjoint_lines():
    assert intersect(_rows([[1, 0]]), _rows([[0, 1]])) == []


def test_intersect_with_zero_space():
    assert intersect([], _rows([[1, 0]])) == []
    assert intersect(_rows([[1, 0]]), []) == []


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small, min_size=4, max_size=4), min_size=1, max_size=3),
       st.lists(st.lists(small, min_size=4, max_size=4), min_size=1, max_size=3))
def test_intersect_contained_in_both(us_m, vs_m):
    us, vs = _rows(us_m), _rows(vs_m)
    got = intersect(us, vs)
    for w in got:
        assert in_span(us, w)
        assert in_span(vs, w)
    # dimension formula: dim(U cap V) = dim U + dim V - dim(U + V)
    assert len(got) == rank(us) + rank(vs) - rank(list(us) + list(vs))


def test_intersect_brute_force_small():
    # enumerate small integer combinations and compare memberships
    us = _rows([[1, 2, 0], [0, 0, 1]])
    vs = _rows([[1, 2, 3]])
    got = intersect(us, vs)
    assert len(got) == 1
    w = got[0]
    # w must be a multiple of (1, 2, 3)
    t = w[2] / F(3)
    assert list(w) == [t, 2 * t, 3 * t]


# ---------------------------------------------------------------- echelon

@st.composite
def _span_and_probes(draw):
    """Integer rows, sparse or dense, with some of them dependent (integer
    combinations of the rows before) or zero, possibly none at all; and
    probe vectors, some of them in the span and some drawn freely."""
    ncols = draw(st.integers(1, 7))
    entry = draw(st.sampled_from([st.integers(-3, 3),
                                  st.sampled_from([0] * 6 + [-2, -1, 1, 2])]))
    vec = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vec, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        combo = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
        rows.insert(draw(st.integers(len(rows) // 2, len(rows))), combo)
    probes = [[0] * ncols] + draw(st.lists(vec, max_size=4))
    for _ in range(3):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        probes.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
    return rows, probes


@settings(max_examples=100, deadline=None)
@given(_span_and_probes())
def test_echelon_matches_rref_rank_and_in_span(case):
    rows, probes = case
    ech = Echelon(rows)
    assert len(ech.rows) == dense_rank(rows)
    assert ech.dependent == [i for i in range(len(rows))
                             if dense_rank(rows[:i + 1]) == dense_rank(rows[:i])]
    for v in rows + probes:
        assert ech.contains(v) == dense_in_span(rows, v)
    # the same span as the rref rows, so the rref rows are members and rank agrees
    reduced, pivots = dense_rref(rows)
    assert all(ech.contains(r) for r in reduced)
    assert len(Echelon(reduced[:len(pivots)]).rows) == len(ech.rows)
    # echelon shape: 1 at the own pivot, 0 at the pivots of earlier rows, exact entries
    for k, (p, row) in enumerate(zip(ech.pivots, ech.rows)):
        assert row[p] == 1
        assert all(q not in row for q in ech.pivots[:k])
        assert all(type(x) is Fraction and x for x in row.values())


@settings(max_examples=60, deadline=None)
@given(_span_and_probes(), st.data())
def test_echelon_started_from_another_is_their_joint_span(case, data):
    rows, probes = case
    cut = data.draw(st.integers(0, len(rows)))
    base = Echelon(rows[:cut])
    before = (list(base.pivots), list(base.rows))
    joint = Echelon(rows[cut:], start=base)
    assert (base.pivots, base.rows) == before
    assert len(joint.rows) == dense_rank(rows)
    assert joint.dependent == [i - cut for i in Echelon(rows).dependent if i >= cut]
    for v in probes:
        assert joint.contains(v) == dense_in_span(rows, v)
        assert base.contains(v) == dense_in_span(rows[:cut], v)


def test_echelon_of_empty_span_holds_only_zero():
    ech = Echelon()
    assert ech.rows == [] and ech.dependent == []
    assert ech.contains([0, 0, 0])
    assert not ech.contains([0, Fraction(1, 2), 0])
    assert ech.add([0, Fraction(1, 2), 0]) and not ech.add([0, 3, 0])
    assert ech.rows == [{1: 1}]


def test_echelon_rejects_a_vector_of_another_length():
    with pytest.raises(ValueError, match="length 1 against a span of vectors of length 2"):
        Echelon([(1, 0)]).contains((1,))
    with pytest.raises(ValueError, match="length 3 against"):
        Echelon([(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="length 2 against"):
        Echelon([(0, 0, 0)], start=Echelon([(0, 1, 0)])).add((1, 0))
    for bad in ([(F(1), F(0))], [(F(0), F(0)), (F(1),)]):
        with pytest.raises(ValueError):
            in_span(bad, (F(1),))
    assert in_span([], (F(0),)) and not in_span([], (F(1),))


# ---------------------------------------------------------------- kernel vs oracle

@st.composite
def _matrices(draw):
    """Integer or Fraction matrices, tall, wide or square, possibly empty,
    with zero rows and rows that combine the ones drawn before them."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entry = draw(st.sampled_from([
        st.integers(-4, 4),
        st.sampled_from([0] * 6 + [-2, -1, 1, 2]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4)]))
    vec = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(vec, min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, Fraction(1, 2), 2]),
                               min_size=len(rows), max_size=len(rows)))
        combo = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))),
                    combo if draw(st.booleans()) else [0] * ncols)
    return rows, draw(st.lists(vec, min_size=1, max_size=3))


@settings(max_examples=120, deadline=None)
@given(_matrices())
def test_kernel_matches_dense_oracle(case):
    rows, probes = case
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == dense_rref(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert rank(rows) == dense_rank(rows)
    ncols = len(probes[0])
    probes += [[0] * ncols] + [[sum(r[j] for r in rows[k::2]) for j in range(ncols)]
                               for k in (0, 1)]
    for v in probes:
        assert in_span(rows, v) == dense_in_span(rows, v)
    # solve_columns and nullspace read rref: against it, and with the oracle read instead
    got = [solve_columns(rows, v) for v in probes], nullspace(rows)
    with mock.patch.object(linalg, "rref", dense_rref):
        assert got == ([solve_columns(rows, v) for v in probes], nullspace(rows))
